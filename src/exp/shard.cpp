#include "exp/shard.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "exp/sweep.hpp"
#include "sim/check/digest.hpp"

namespace ppfs::exp {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Slice `total` into `shards` near-equal parts: the first `total % shards`
/// shards get one extra. Deterministic in (total, shards) alone.
int slice_of(int total, int shards, int index) {
  const int base = total / shards;
  const int rem = total % shards;
  return base + (index < rem ? 1 : 0);
}

}  // namespace

bool ShardedScaleReport::all_ok() const noexcept {
  for (const auto& s : shards) {
    if (!s.error.empty()) return false;
  }
  return true;
}

ShardedScaleReport run_sharded_scale(const workload::MachineSpec& machine,
                                     const workload::OpenArrivalSpec& spec,
                                     int shards, int jobs) {
  if (shards < 1) throw std::invalid_argument("sharded-scale: shards < 1");
  if (machine.ncompute < shards || machine.nio < shards) {
    throw std::invalid_argument(
        "sharded-scale: every shard needs at least one compute and one I/O node");
  }
  ShardedScaleReport report;
  report.jobs = jobs < 1 ? 1 : jobs;
  report.shards.resize(static_cast<std::size_t>(shards));

  // The partition and per-shard seeds are fixed up front, before any
  // thread runs: worker count can only reorder execution, not change what
  // each shard simulates.
  for (int i = 0; i < shards; ++i) {
    auto& s = report.shards[static_cast<std::size_t>(i)];
    s.index = i;
    s.ncompute = slice_of(machine.ncompute, shards, i);
    s.nio = slice_of(machine.nio, shards, i);
  }

  const auto t0 = std::chrono::steady_clock::now();
  for_each_index(static_cast<std::size_t>(shards), report.jobs, [&](std::size_t i) {
    auto& s = report.shards[i];
    workload::MachineSpec m = machine;
    m.ncompute = s.ncompute;
    m.nio = s.nio;
    workload::OpenArrivalSpec w = spec;
    w.seed = spec.seed + static_cast<std::uint64_t>(s.index);
    const auto shard_t0 = std::chrono::steady_clock::now();
    try {
      s.result = workload::run_open_arrival(m, w);
    } catch (const std::exception& e) {
      s.error = e.what();
    } catch (...) {
      s.error = "unknown error";
    }
    s.seconds = seconds_since(shard_t0);
  });
  report.seconds = seconds_since(t0);

  // Merge in shard order — shard order is fixed, so every merged field
  // (including the digest-of-digests) is independent of jobs.
  sim::check::Fnv1a64 merged;
  for (const auto& s : report.shards) {
    if (!s.ok()) continue;
    report.issued += s.result.issued;
    report.completed += s.result.reads + s.result.writes;
    report.app_errors += s.result.faults.app_errors;
    report.total_bytes += s.result.total_bytes;
    report.events_dispatched += s.result.events_dispatched;
    report.peak_pending_events =
        std::max(report.peak_pending_events, s.result.peak_pending_events);
    report.machine_state_bytes += s.result.machine_state_bytes;
    report.latencies.merge(s.result.read_latencies);
    merged.mix_u64(s.result.digest);
  }
  report.merged_digest = merged.value();
  return report;
}

}  // namespace ppfs::exp
