// Fault tour: what an I/O-node crash looks like from the application.
//
// A balanced M_RECORD read workload (prefetch hides each read under the
// per-step compute) is running across 8 ranks when I/O node 1 crashes and
// restarts 200ms later. The RPC reliability envelope parks rank 1 on the
// node's restart event instead of failing the read; the prefetch engine
// sheds its speculative buffers and pauses until the storm passes. The
// tour prints the aggregate read bandwidth before, during, and after the
// outage, then the recovery counters that explain the dip.
//
//   $ ./fault_tour
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "sim/event.hpp"
#include "workload/run.hpp"

using namespace ppfs;

namespace {

constexpr int kRanks = 8;
constexpr sim::ByteCount kRecord = 64 * 1024;
constexpr int kStepsPerRank = 40;
constexpr double kComputePerStep = 0.01;

// The crash window, relative to the start of the read phase.
constexpr double kCrashAt = 0.15;
constexpr double kOutage = 0.20;

struct ReadSample {
  sim::SimTime done;     // completion time, relative to read-phase start
  sim::ByteCount bytes;
};

sim::Task<void> worker(sim::Simulation& sim, pfs::PfsClient& c, int rank,
                       sim::Barrier& ready, fault::FaultInjector& injector,
                       const fault::FaultPlan& plan, sim::SimTime& t0,
                       std::vector<ReadSample>& samples) {
  const int fd = co_await c.open("tour", pfs::IoMode::kRecord);
  std::vector<std::byte> buf(kRecord);
  for (int step = 0; step < kStepsPerRank; ++step) {
    workload::fill_pattern(step * kRanks + rank, 0, buf);
    co_await c.write(fd, buf);
  }
  co_await c.seek(fd, 0);
  // All ranks start the read phase together; rank 0 arms the crash
  // relative to that instant so the phase boundaries are known.
  co_await ready.arrive_and_wait();
  if (rank == 0) {
    t0 = sim.now();
    injector.arm(plan, t0);
  }
  for (int step = 0; step < kStepsPerRank; ++step) {
    const auto got = co_await c.read(fd, buf);
    samples.push_back({sim.now() - t0, got});
    co_await sim.delay(kComputePerStep);  // consume the record
  }
  c.close(fd);
}

double window_bw_mbs(const std::vector<ReadSample>& samples, sim::SimTime from,
                     sim::SimTime until) {
  sim::ByteCount bytes = 0;
  for (const auto& s : samples) {
    if (s.done >= from && s.done < until) bytes += s.bytes;
  }
  return static_cast<double>(bytes) / 1e6 / (until - from);
}

}  // namespace

int main() {
  workload::Run run({.ncompute = kRanks}, kRanks);
  run.fs().create("tour", run.fs().default_attrs());
  fault::FaultInjector injector(run.machine(), run.fs());
  const auto plan =
      fault::parse_plan("crash:io=1,at=" + std::to_string(kCrashAt) +
                        ",outage=" + std::to_string(kOutage));
  prefetch::PrefetchConfig pcfg;
  pcfg.depth = 2;  // one buffer stays resident between reads — visible shedding
  run.attach_prefetchers(pcfg);

  sim::Simulation& sim = run.sim();
  sim::Barrier ready(sim, kRanks);
  sim::SimTime t0 = 0;
  std::vector<std::vector<ReadSample>> samples(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    sim.spawn(worker(sim, run.client(r), r, ready, injector, plan, t0, samples[r]));
  }
  run.drain("fault tour");

  std::vector<ReadSample> all;
  sim::SimTime t_end = 0;
  for (const auto& per_rank : samples) {
    for (const auto& s : per_rank) {
      all.push_back(s);
      t_end = std::max(t_end, s.done);
    }
  }

  std::printf("fault tour: %d ranks x %d x 64KB records, %.0fms compute per record\n",
              kRanks, kStepsPerRank, kComputePerStep * 1e3);
  std::printf("plan:       %s\n\n", plan.summary().c_str());
  std::printf("aggregate read bandwidth by phase (read-phase-relative time):\n");
  std::printf("  before the crash  [0, %.2fs):      %7.2f MB/s\n", kCrashAt,
              window_bw_mbs(all, 0, kCrashAt));
  std::printf("  during the outage [%.2f, %.2fs):  %7.2f MB/s\n", kCrashAt,
              kCrashAt + kOutage, window_bw_mbs(all, kCrashAt, kCrashAt + kOutage));
  std::printf("  after the restart [%.2f, %.2fs):  %7.2f MB/s\n\n", kCrashAt + kOutage,
              t_end, window_bw_mbs(all, kCrashAt + kOutage, t_end));

  const workload::ExperimentResult res = run.finish();
  const pfs::RpcStats& rpc = res.rpc;
  const prefetch::PrefetchStats& pf = res.prefetch;
  std::printf("recovery:   down-waits=%llu retries=%llu healed-attempts=%llu "
              "recovery-wait=%.3fs backoff=%.3fs\n",
              (unsigned long long)rpc.down_waits, (unsigned long long)rpc.retries,
              (unsigned long long)rpc.retried_ok, rpc.recovery_wait_time, rpc.backoff_time);
  std::printf("prefetch:   shed=%llu buffer(s), %llu engine pause(s) — re-armed after "
              "%zu quiet reads\n",
              (unsigned long long)pf.shed, (unsigned long long)pf.fault_pauses,
              pcfg.fault_resume_reads);
  std::printf("\nno read failed: the envelope parked rank 1 on the restart event and "
              "reissued.\n");
  return 0;
}
