// Pins for the workload drivers that have no other golden value: the write
// workloads' kernel digests and the trace replayer's headline metrics. A
// change to how the drivers build, populate, drain or fold that perturbs an
// event stream or a folded counter shows here first.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "fault/plan.hpp"
#include "workload/experiment.hpp"
#include "workload/trace.hpp"
#include "workload/write_workload.hpp"

namespace ppfs::workload {
namespace {

// The ppfs_run defaults: 8 compute + 8 I/O nodes, SCSI-8, 4 writers, 64K
// requests, 8 rounds.
WriteWorkloadSpec default_write_spec(WriteWorkloadKind kind) {
  WriteWorkloadSpec spec;
  spec.kind = kind;
  return spec;
}

TEST(RunPins, ProducerConsumerDigest) {
  const auto r = run_write_workload(default_write_spec(WriteWorkloadKind::kProducerConsumer));
  EXPECT_EQ(r.digest, 0x2da0df66b26a09daULL);
  EXPECT_EQ(r.events_dispatched, 906u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(RunPins, MixedDigest) {
  const auto r = run_write_workload(default_write_spec(WriteWorkloadKind::kMixed));
  EXPECT_EQ(r.digest, 0x33b1ae51b38ac452ULL);
  EXPECT_EQ(r.events_dispatched, 8345u);
}

TEST(RunPins, CheckpointCrashDigest) {
  auto spec = default_write_spec(WriteWorkloadKind::kCheckpoint);
  spec.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.05");
  spec.compute_delay = 0.002;
  const auto r = run_write_workload(spec);
  EXPECT_EQ(r.digest, 0xe63278493195a0f3ULL);
  EXPECT_EQ(r.events_dispatched, 1675u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(RunPins, ReplaySequentialWithPrefetch) {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 8, 64 * 1024, 0.02);
  const auto r = replay_trace(m, trace, /*prefetch_on=*/true);
  EXPECT_EQ(r.total_bytes, 2097152u);
  EXPECT_EQ(r.reads, 32u);
  EXPECT_EQ(r.wall_elapsed, 0x1.5b6b20347de1p-3);
  EXPECT_EQ(r.max_node_read_time, 0x1.e5967247c612p-6);
  EXPECT_EQ(r.prefetch.issued, 28u);
  EXPECT_EQ(r.prefetch.hits_ready, 28u);
  EXPECT_EQ(r.prefetch.hits_in_flight, 0u);
}

TEST(RunPins, ReplayStridedWithPrefetch) {
  MachineSpec m;
  m.ncompute = 2;
  m.nio = 4;
  const auto trace = AccessTrace::strided(2, 10, 64 * 1024, 256 * 1024, 0.02);
  prefetch::PrefetchConfig cfg;
  cfg.predictor = prefetch::PredictorKind::kStrided;
  const auto r = replay_trace(m, trace, /*prefetch_on=*/true, cfg);
  EXPECT_EQ(r.total_bytes, 1310720u);
  EXPECT_EQ(r.reads, 20u);
  EXPECT_EQ(r.wall_elapsed, 0x1.652bcbb7fc7d6p-2);
  EXPECT_EQ(r.max_node_read_time, 0x1.5916771438e0ep-3);
  EXPECT_EQ(r.prefetch.issued, 15u);
  EXPECT_EQ(r.prefetch.hits_ready, 0u);
  EXPECT_EQ(r.prefetch.hits_in_flight, 14u);
}

// --- one fold for every driver ---

// A strided scan defeats the sequential predictor, so the --adaptive
// throttle suppresses prefetches after the cutoff; Experiment::run must
// report those skips.
TEST(RunFold, ExperimentReportsThrottledSkips) {
  WorkloadSpec w;
  w.mode = pfs::IoMode::kUnix;
  w.pattern = AccessPattern::kStrided;
  w.file_size = 32 * 1024 * 1024;
  w.prefetch = true;
  w.prefetch_cfg.predictor = prefetch::PredictorKind::kSequential;
  w.prefetch_cfg.adaptive = true;
  w.prefetch_cfg.adaptive_cutoff = 3;
  w.prefetch_cfg.max_buffers_per_file = 2;
  const auto r = Experiment().run(w);
  EXPECT_GT(r.prefetch.issued, 0u);
  EXPECT_GT(r.prefetch.throttled_skips, 0u);
}

// replay_trace must fold every engine counter, the AdaptaFetch depth
// histogram and ramp counters included.
TEST(RunFold, ReplayReportsAdaptiveDepthCounters) {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 8, 64 * 1024, 0.02);
  prefetch::PrefetchConfig cfg;
  cfg.adaptive_depth = true;
  const auto r = replay_trace(m, trace, /*prefetch_on=*/true, cfg);
  const auto& hist = r.prefetch.depth_hist;
  // One histogram entry per after_read call, i.e. per read.
  EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), std::uint64_t{0}), r.reads);
  EXPECT_GT(r.prefetch.depth_ramp_ups, 0u);
}

// replay_trace must build its machine from the whole MachineSpec.
TEST(RunFold, ReplayHonorsMeshMtu) {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  const auto trace = AccessTrace::sequential(pfs::IoMode::kRecord, 4, 4, 64 * 1024, 0);
  EXPECT_EQ(replay_trace(m, trace, false).mesh_segments, 0u);
  m.mesh_mtu = 4096;
  EXPECT_GT(replay_trace(m, trace, false).mesh_segments, 0u);
}

}  // namespace
}  // namespace ppfs::workload
