// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Shared helpers for tests: deterministic byte patterns and a runner that
// drives one Task<void> to completion on a Simulation.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "workload/generator.hpp"

namespace ppfs::test {

/// Deterministic content (workload::pattern_byte): the byte at absolute
/// file offset `off` of file `tag` mixes both, so any mis-addressed read
/// shows up as a mismatch.
inline std::vector<std::byte> make_pattern(std::uint64_t tag, std::uint64_t start,
                                           std::size_t len) {
  std::vector<std::byte> v(len);
  workload::fill_pattern(tag, start, v);
  return v;
}

inline ::testing::AssertionResult check_pattern(std::span<const std::byte> data,
                                                std::uint64_t tag, std::uint64_t start) {
  const std::size_t i = workload::find_pattern_mismatch(tag, start, data);
  if (i == workload::kNoMismatch) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "pattern mismatch at offset " << start + i << " (index " << i << "): got "
         << static_cast<int>(data[i]) << " want "
         << static_cast<int>(workload::pattern_byte(tag, start + i));
}

/// Run a single task to completion; fails the test if the simulation ends
/// with the task still blocked.
inline void run_task(sim::Simulation& sim, sim::Task<void> t) {
  bool finished = false;
  sim.spawn([](sim::Task<void> inner, bool& done) -> sim::Task<void> {
    co_await std::move(inner);
    done = true;
  }(std::move(t), finished));
  sim.run();
  ASSERT_TRUE(finished) << "task did not complete (deadlock in the model?)";
}

}  // namespace ppfs::test
