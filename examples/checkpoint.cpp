// Checkpoint/restart: the write-side mirror of the paper's read story.
//
// An SPMD application computes in steps and periodically checkpoints its
// state to a PFS file in M_RECORD mode. Writing synchronously stalls the
// computation for the full I/O time; issuing the checkpoint with iwrite
// (the ART machinery the prefetcher also rides) overlaps it with the next
// compute step. On restart, the state is read back with prefetching.
//
//   $ ./checkpoint
#include <cstdio>
#include <vector>

#include "workload/run.hpp"

using namespace ppfs;

namespace {

constexpr int kRanks = 8;
constexpr sim::ByteCount kStateBytes = 256 * 1024;  // per-rank state
constexpr int kSteps = 10;
constexpr double kComputePerStep = 0.08;

sim::Task<void> worker(sim::Simulation& sim, pfs::PfsClient& c, bool async_ckpt,
                       sim::SimTime& runtime) {
  const int fd = co_await c.open("ckpt", pfs::IoMode::kRecord);
  // Double-buffered state: while checkpoint k is in flight, step k+1
  // computes into the other buffer.
  std::vector<std::byte> state_a(kStateBytes), state_b(kStateBytes);
  pfs::AsyncHandle pending;
  const sim::SimTime t0 = sim.now();
  for (int step = 0; step < kSteps; ++step) {
    auto& state = (step % 2 == 0) ? state_a : state_b;
    workload::fill_pattern(step, 0, state);  // "compute" produces new state
    co_await sim.delay(kComputePerStep);
    if (async_ckpt) {
      if (pending) co_await c.iowait(pending);  // previous ckpt must land first
      pending = co_await c.iwrite(fd, state);
    } else {
      co_await c.write(fd, state);
    }
  }
  if (pending) co_await c.iowait(pending);
  runtime = sim.now() - t0;
  c.close(fd);
}

double run_phase(bool async_ckpt) {
  workload::Run run({.ncompute = kRanks}, kRanks);
  run.fs().create("ckpt", run.fs().default_attrs());
  std::vector<sim::SimTime> runtimes(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    run.sim().spawn(worker(run.sim(), run.client(r), async_ckpt, runtimes[r]));
  }
  run.drain("checkpoint");
  double worst = 0;
  for (auto t : runtimes) worst = std::max(worst, t);
  return worst;
}

double run_restart() {
  // Restart: read the final checkpoint back with prefetching.
  workload::Run run({.ncompute = kRanks}, kRanks);
  run.fs().create("ckpt", run.fs().default_attrs());
  run.attach_prefetchers(prefetch::PrefetchConfig{});
  // Write the checkpoint series, then replay a staged restore (read +
  // per-block rebuild work, the balanced pattern).
  std::vector<sim::SimTime> runtimes(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    // ppfs-lint: allow(ref-across-await) referents are locals; drain() below blocks until done
    run.sim().spawn([](sim::Simulation& s, pfs::PfsClient& c, sim::SimTime& rt) -> sim::Task<void> {
      int fd = co_await c.open("ckpt", pfs::IoMode::kRecord);
      std::vector<std::byte> state(kStateBytes);
      for (int step = 0; step < kSteps; ++step) {
        workload::fill_pattern(step, 0, state);
        co_await c.write(fd, state);
      }
      co_await c.seek(fd, 0);
      const sim::SimTime t0 = s.now();
      for (int step = 0; step < kSteps; ++step) {
        co_await c.read(fd, state);
        co_await s.delay(0.03);  // re-derive in-memory structures
      }
      rt = s.now() - t0;
      c.close(fd);
    }(run.sim(), run.client(r), runtimes[r]));
  }
  run.drain("restart");
  double worst = 0;
  for (auto t : runtimes) worst = std::max(worst, t);
  return worst;
}

}  // namespace

int main() {
  std::printf("checkpointing %d ranks x %d steps x %s state per step\n\n", kRanks, kSteps,
              "256KB");
  const double sync_t = run_phase(false);
  const double async_t = run_phase(true);
  std::printf("synchronous checkpoints: %6.2fs  (compute stalls for every write)\n", sync_t);
  std::printf("async (iwrite) ckpts:    %6.2fs  (%.2fx faster — I/O hides under compute)\n",
              async_t, sync_t / async_t);
  const double restart_t = run_restart();
  std::printf("staged restart w/ prefetch: %5.2fs for the read+rebuild phase\n", restart_t);
  return 0;
}
