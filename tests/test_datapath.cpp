// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// Data-path stage tests: extent-coalesced RPCs (stripe math + epoch-cached
// stripe maps), mesh MTU segmentation, the server batch queue, and the
// block-level sorted sweep (ufs::Ufs::read_sorted), and direct placement
// of one-piece read extents in the caller's buffer. Every stage defaults
// off; the end-to-end cases prove byte-exact delivery with each stage on,
// including under crashes and degraded RAID.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/plan.hpp"
#include "hw/disk_sched.hpp"
#include "hw/machine.hpp"
#include "hw/mesh.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/stripe.hpp"
#include "sim/check/audit.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "ufs/block_store.hpp"
#include "ufs/ufs.hpp"
#include "workload/experiment.hpp"
#include "workload/write_workload.hpp"

namespace ppfs {
namespace {

using ppfs::test::check_pattern;
using ppfs::test::make_pattern;
using ppfs::test::run_task;
using sim::Simulation;
using sim::Task;

// --- hw::sweep_order --------------------------------------------------------

TEST(SweepOrder, AscendingPassThenReturnStroke) {
  const std::vector<std::uint64_t> keys{50, 10, 60, 20};
  const auto order = hw::sweep_order(keys, /*head=*/15);
  // Ascending from the first key >= 15 (20, 50, 60), then the return
  // stroke descending (10).
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(keys[order[0]], 20u);
  EXPECT_EQ(keys[order[1]], 50u);
  EXPECT_EQ(keys[order[2]], 60u);
  EXPECT_EQ(keys[order[3]], 10u);
}

TEST(SweepOrder, HeadBeyondAllKeysIsOneDescendingStroke) {
  const std::vector<std::uint64_t> keys{5, 30, 12};
  const auto order = hw::sweep_order(keys, /*head=*/100);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(keys[order[0]], 30u);
  EXPECT_EQ(keys[order[1]], 12u);
  EXPECT_EQ(keys[order[2]], 5u);
}

TEST(SweepOrder, EqualKeysKeepInputOrder) {
  const std::vector<std::uint64_t> keys{7, 7, 7};
  const auto order = hw::sweep_order(keys, 0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

// --- pfs::coalesce_by_io ----------------------------------------------------

pfs::StripeAttrs narrow_attrs() {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group.assign(8, 0);  // Table 4: striped 8 ways across ONE node
  return a;
}

pfs::StripeAttrs wide_attrs() {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  return a;
}

/// Collect every file-space piece of a coalesced request set, sorted.
std::vector<pfs::StripePiece> all_pieces(const std::vector<pfs::CoalescedRequest>& reqs) {
  std::vector<pfs::StripePiece> pieces;
  for (const auto& r : reqs) {
    for (const auto& e : r.extents) {
      pieces.insert(pieces.end(), e.pieces.begin(), e.pieces.end());
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const auto& a, const auto& b) { return a.file_offset < b.file_offset; });
  return pieces;
}

/// The union of pieces must tile [off, off+len) exactly once.
::testing::AssertionResult covers_exactly(const std::vector<pfs::CoalescedRequest>& reqs,
                                          sim::FileOffset off, sim::ByteCount len) {
  sim::FileOffset cursor = off;
  for (const auto& p : all_pieces(reqs)) {
    if (p.file_offset != cursor) {
      return ::testing::AssertionFailure()
             << "gap or overlap at " << cursor << " (next piece at " << p.file_offset << ")";
    }
    cursor += p.length;
  }
  if (cursor != off + len) {
    return ::testing::AssertionFailure() << "union ends at " << cursor << " not " << off + len;
  }
  return ::testing::AssertionSuccess();
}

TEST(CoalesceByIo, NarrowLayoutMergesAllSlotsIntoOneRpc) {
  pfs::StripeLayout layout(narrow_attrs());
  auto merged = pfs::coalesce_by_io(layout.map(0, 512 * 1024));
  ASSERT_EQ(merged.size(), 1u);  // 8 per-slot RPCs become one
  EXPECT_EQ(merged[0].io_index, 0);
  EXPECT_EQ(merged[0].length, 512u * 1024);
  EXPECT_EQ(merged[0].extents.size(), 8u);
  EXPECT_TRUE(covers_exactly(merged, 0, 512 * 1024));
}

TEST(CoalesceByIo, WideLayoutKeepsOneRpcPerNode) {
  pfs::StripeLayout layout(wide_attrs());
  auto merged = pfs::coalesce_by_io(layout.map(0, 512 * 1024));
  ASSERT_EQ(merged.size(), 8u);
  for (const auto& r : merged) EXPECT_EQ(r.extents.size(), 1u);
  EXPECT_TRUE(covers_exactly(merged, 0, 512 * 1024));
}

TEST(CoalesceByIo, StripeBoundaryStraddle) {
  pfs::StripeLayout layout(narrow_attrs());
  // Starts mid-stripe-unit and ends mid-unit two slots later.
  const sim::FileOffset off = 32 * 1024;
  const sim::ByteCount len = 128 * 1024;
  auto merged = pfs::coalesce_by_io(layout.map(off, len));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].length, len);
  EXPECT_TRUE(covers_exactly(merged, off, len));
}

TEST(CoalesceByIo, WrapAroundTheGroupStaysOneExtentPerSlot) {
  // A request longer than one full stripe revisits slot 0: its second
  // stripe unit is CONTIGUOUS in the slot's stripe file, so map() keeps one
  // request per slot — but the slot-0 extent now scatters into two
  // file-space pieces (offsets 0 and 512K).
  pfs::StripeLayout layout(narrow_attrs());
  const sim::ByteCount len = 512 * 1024 + 64 * 1024;  // full stripe + wrap
  auto merged = pfs::coalesce_by_io(layout.map(0, len));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].length, len);
  ASSERT_EQ(merged[0].extents.size(), 8u);
  EXPECT_EQ(merged[0].extents[0].pieces.size(), 2u);  // slot 0, wrapped
  EXPECT_TRUE(covers_exactly(merged, 0, len));
}

TEST(CoalesceByIo, RepeatedNodeInNonAdjacentSlots) {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group = {0, 1, 0, 1};
  pfs::StripeLayout layout(a);
  auto merged = pfs::coalesce_by_io(layout.map(0, 256 * 1024));
  ASSERT_EQ(merged.size(), 2u);  // one RPC per node, two extents each
  for (const auto& r : merged) EXPECT_EQ(r.extents.size(), 2u);
  EXPECT_TRUE(covers_exactly(merged, 0, 256 * 1024));
}

// --- mesh MTU segmentation --------------------------------------------------

sim::SimTime timed_send(sim::ByteCount mtu, sim::ByteCount bytes) {
  Simulation sim;
  hw::MeshNetwork mesh(sim, hw::MeshConfig{.width = 4, .height = 4, .mtu = mtu});
  sim::SimTime done = 0;
  sim.spawn([](Simulation& s, hw::MeshNetwork& m, sim::ByteCount n,
               sim::SimTime& out) -> Task<void> {
    co_await m.send(0, 15, n);
    out = s.now();
  }(sim, mesh, bytes, done));
  sim.run();
  return done;
}

TEST(MeshMtu, UncontendedSegmentedTimingMatchesLegacy) {
  // Head segment pays the hop latencies, later segments stream behind it:
  // with no route contention the pipelined total equals the circuit total.
  // NEAR, not DOUBLE_EQ: the segmented path sums 32 per-segment delays, so
  // the totals agree only to accumulation rounding.
  const sim::ByteCount bytes = 512 * 1024;
  EXPECT_NEAR(timed_send(0, bytes), timed_send(16 * 1024, bytes), 1e-12);
}

TEST(MeshMtu, SegmentCountersTrackCeilDiv) {
  Simulation sim;
  hw::MeshNetwork mesh(sim, hw::MeshConfig{.width = 4, .height = 4, .mtu = 16 * 1024});
  run_task(sim, [](hw::MeshNetwork& m) -> Task<void> {
    co_await m.send(0, 15, 40 * 1024);  // 3 segments of <= 16K
    co_await m.send(0, 15, 8 * 1024);   // fits in one MTU: not segmented
  }(mesh));
  EXPECT_EQ(mesh.segmented_messages(), 1u);
  EXPECT_EQ(mesh.segments_sent(), 3u);
}

// --- ufs::Ufs::read_sorted --------------------------------------------------

struct SortedFixture {
  Simulation sim;
  ufs::NullBlockDevice dev{sim, 1ull << 30};
  ufs::ContentStore content{64 * 1024};
  ufs::Ufs fs{sim, "ufs0", dev, content, nullptr, ufs::UfsParams{}};
};

TEST(ReadSorted, CrossFileContiguousRunIsOneDeviceTransfer) {
  SortedFixture f;
  constexpr sim::ByteCount kBlk = 64 * 1024;
  // Interleave allocation across two files: a0 b0 a1 b1 -> phys 0..3.
  const auto a = f.fs.create("a");
  const auto b = f.fs.create("b");
  run_task(f.sim, [](SortedFixture& fx, ufs::InodeNum ia, ufs::InodeNum ib) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await fx.fs.write(ia, i * kBlk, make_pattern(1, i * kBlk, kBlk), true);
      co_await fx.fs.write(ib, i * kBlk, make_pattern(2, i * kBlk, kBlk), true);
    }
  }(f, a, b));

  const auto runs_before = f.fs.stats().disk_runs;
  std::vector<std::byte> oa(2 * kBlk), ob(2 * kBlk);
  std::vector<ufs::Ufs::BatchRead> batch{
      {a, 0, 2 * kBlk, oa, 0},
      {b, 0, 2 * kBlk, ob, 0},
  };
  run_task(f.sim, [](SortedFixture& fx, std::span<ufs::Ufs::BatchRead> items) -> Task<void> {
    co_await fx.fs.read_sorted(items);
  }(f, batch));

  // phys {0,2} + {1,3} flatten and sort to 0,1,2,3: ONE streaming transfer.
  EXPECT_EQ(f.fs.stats().disk_runs, runs_before + 1);
  EXPECT_EQ(batch[0].got, 2 * kBlk);
  EXPECT_EQ(batch[1].got, 2 * kBlk);
  EXPECT_TRUE(check_pattern(oa, 1, 0));
  EXPECT_TRUE(check_pattern(ob, 2, 0));
}

TEST(ReadSorted, EligibilityRules) {
  SortedFixture f;
  constexpr sim::ByteCount kBlk = 64 * 1024;
  const auto a = f.fs.create("a");
  run_task(f.sim, [](SortedFixture& fx, ufs::InodeNum ia) -> Task<void> {
    co_await fx.fs.write(ia, 0, make_pattern(1, 0, kBlk + 100), true);
  }(f, a));

  EXPECT_TRUE(f.fs.fastpath_read_eligible(a, 0, kBlk));
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 0, kBlk / 2));     // unaligned length
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 100, kBlk));       // unaligned offset
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 0, 2 * kBlk));     // straddles EOF
  EXPECT_FALSE(f.fs.fastpath_read_eligible(a, 4 * kBlk, kBlk));  // beyond EOF
}

// --- end-to-end: the stages deliver byte-exact data -------------------------

workload::WorkloadSpec datapath_spec(const pfs::StripeAttrs& attrs) {
  workload::WorkloadSpec w;
  w.mode = pfs::IoMode::kRecord;
  w.request_size = 512 * 1024;
  w.file_size = 8ull * 512 * 1024 * 2;  // 8 nodes x 2 rounds
  w.prefetch = true;
  w.attrs = attrs;
  w.verify = true;
  return w;
}

workload::MachineSpec stages_on(sim::ByteCount mtu, bool coalesce, bool batch) {
  workload::MachineSpec m;
  m.mesh_mtu = mtu;
  m.pfs.coalesce_rpcs = coalesce;
  m.pfs.server_batch = batch;
  return m;
}

TEST(DatapathE2E, AllStagesVerifyCleanOnNarrowLayout) {
  workload::Experiment exp(stages_on(16 * 1024, true, true));
  const auto r = exp.run(datapath_spec(narrow_attrs()));
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, 8ull * 512 * 1024 * 2);
  EXPECT_GT(r.rpc.coalesced_rpcs, 0u);
  EXPECT_GT(r.rpc.coalesced_extents, r.rpc.coalesced_rpcs);  // narrow: >1 extent/RPC
  EXPECT_GT(r.server_batch_sweeps, 0u);
  EXPECT_GE(r.server_batched_extents, r.server_batch_sweeps);
  EXPECT_GT(r.mesh_segments, 0u);
  EXPECT_GT(r.rpc.stripe_map_refreshes, 0u);
}

TEST(DatapathE2E, AllStagesVerifyCleanOnWideLayout) {
  workload::Experiment exp(stages_on(16 * 1024, true, true));
  const auto r = exp.run(datapath_spec(wide_attrs()));
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.rpc.coalesced_rpcs, 0u);
  EXPECT_GT(r.server_batch_sweeps, 0u);
}

TEST(DatapathE2E, EachStageAloneVerifiesClean) {
  const workload::MachineSpec specs[] = {
      stages_on(4 * 1024, false, false),
      stages_on(0, true, false),
      stages_on(0, false, true),
  };
  for (const auto& m : specs) {
    workload::Experiment exp(m);
    const auto r = exp.run(datapath_spec(narrow_attrs()));
    EXPECT_EQ(r.verify_failures, 0u);
    EXPECT_EQ(r.total_bytes, 8ull * 512 * 1024 * 2);
  }
}

TEST(DatapathE2E, CoalescedMatchesLegacyByteForByte) {
  // Same workload, coalescing on vs off: identical delivered bytes and a
  // clean verify both ways; the coalesced run collapses control traffic.
  const auto w = datapath_spec(narrow_attrs());
  const auto legacy = workload::Experiment(stages_on(0, false, false)).run(w);
  const auto merged = workload::Experiment(stages_on(0, true, false)).run(w);
  EXPECT_EQ(legacy.verify_failures, 0u);
  EXPECT_EQ(merged.verify_failures, 0u);
  EXPECT_EQ(legacy.total_bytes, merged.total_bytes);
  EXPECT_LT(merged.rpc.data_rpcs, legacy.rpc.data_rpcs);
}

TEST(DatapathE2E, StripeMapEpochInvalidatesAcrossCrash) {
  auto w = datapath_spec(narrow_attrs());
  const auto healthy = workload::Experiment(stages_on(0, true, false)).run(w);
  w.faults = fault::parse_plan("crash:io=0,at=0.05,outage=0.1");
  const auto crashed = workload::Experiment(stages_on(0, true, false)).run(w);
  EXPECT_EQ(crashed.digest, 0x8e85009154e777cfULL);
  EXPECT_EQ(crashed.events_dispatched, 3281u);
  EXPECT_EQ(crashed.verify_failures, 0u);
  EXPECT_EQ(crashed.total_bytes, healthy.total_bytes);
  // The crash and the restore each bump the topology epoch; clients must
  // reload their cached stripe maps instead of trusting stale ones.
  EXPECT_GT(crashed.rpc.stripe_map_refreshes, healthy.rpc.stripe_map_refreshes);
}

TEST(DatapathE2E, DegradedRaidReconstructsThroughCoalescedBatches) {
  auto w = datapath_spec(narrow_attrs());
  w.faults = fault::parse_plan("diskfail:io=all,member=1,at=0");
  workload::Experiment exp(stages_on(16 * 1024, true, true));
  const auto r = exp.run(w);
  // Every sorted-sweep transfer runs against the degraded array: data still
  // reconstructs byte-exact from the surviving members + parity.
  EXPECT_EQ(r.digest, 0x580698d1c16bdc20ULL);
  EXPECT_EQ(r.events_dispatched, 2836u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.total_bytes, 8ull * 512 * 1024 * 2);
  EXPECT_GT(r.server_batch_sweeps, 0u);
}

// --- pins: writes and retries through the coalesced / batched stages ------
//
// Kernel digests and event counts of the `ppfs_run --selfcheck` runs that
// send writes, and RPC retries, through coalescing and server batching. A
// change to how the client groups extents or how the server queues them
// that moves one dispatched event shows here.

workload::WriteWorkloadSpec checkpoint_spec(bool coalesce, bool batch, const char* faults) {
  workload::WriteWorkloadSpec spec;  // ppfs_run --write-workload checkpoint
  spec.machine = stages_on(0, coalesce, batch);
  spec.writers = 4;
  spec.rounds = 4;
  if (*faults != '\0') spec.faults = fault::parse_plan(faults);
  return spec;
}

workload::WorkloadSpec faulted_read(sim::ByteCount request, const char* faults) {
  workload::WorkloadSpec w;  // ppfs_run --file 4M
  w.request_size = request;
  w.file_size = 4 * 1024 * 1024;
  w.faults = fault::parse_plan(faults);
  return w;
}

TEST(DatapathPins, CheckpointCoalescedBatched) {
  const auto r = workload::run_write_workload(checkpoint_spec(true, true, ""));
  EXPECT_EQ(r.digest, 0x71b9bdc6cb3a6479ULL);
  EXPECT_EQ(r.events_dispatched, 947u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(DatapathPins, ConflictingCheckpointCoalescedBatched) {
  auto spec = checkpoint_spec(true, true, "");
  spec.conflicting = true;
  const auto r = workload::run_write_workload(spec);
  EXPECT_EQ(r.digest, 0xaf327428f009740fULL);
  EXPECT_EQ(r.events_dispatched, 935u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(DatapathPins, CheckpointCrashCoalescedBatched) {
  const auto r = workload::run_write_workload(
      checkpoint_spec(true, true, "crash:io=1,at=0.02,outage=0.05"));
  EXPECT_EQ(r.digest, 0xe813dc2dec6c1e86ULL);
  EXPECT_EQ(r.events_dispatched, 987u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(DatapathPins, CheckpointTransientBatched) {
  const auto r = workload::run_write_workload(
      checkpoint_spec(false, true, "transient:io=0,until=0.2,max=2"));
  EXPECT_EQ(r.digest, 0x58d26bc93ce9e999ULL);
  EXPECT_EQ(r.events_dispatched, 960u);
  EXPECT_EQ(r.verify_failures, 0u);
}

TEST(DatapathPins, CrashReadCoalescedBatchedOneNode) {
  auto w = faulted_read(512 * 1024, "crash:io=0,at=0.02,outage=0.05");
  w.prefetch = true;
  pfs::StripeAttrs one_node;  // --sgroup 1
  w.attrs = one_node;
  const auto r = workload::Experiment(stages_on(0, true, true)).run(w);
  EXPECT_EQ(r.digest, 0xcf520a4f04523cebULL);
  EXPECT_EQ(r.events_dispatched, 345u);
  EXPECT_EQ(r.rpc.retries, 8u);
}

TEST(DatapathPins, TransientReadCoalesced) {
  const auto r = workload::Experiment(stages_on(0, true, false))
                     .run(faulted_read(512 * 1024, "transient:io=0,until=0.2,max=2"));
  EXPECT_EQ(r.digest, 0x2a5d9cce1f9edf6fULL);
  EXPECT_EQ(r.events_dispatched, 1836u);
  EXPECT_GT(r.rpc.retries, 0u);
}

TEST(DatapathPins, TransientReadBatched) {
  const auto r = workload::Experiment(stages_on(0, false, true))
                     .run(faulted_read(64 * 1024, "transient:io=0,until=0.2,max=2"));
  EXPECT_EQ(r.digest, 0xb2527a7641c94beeULL);
  EXPECT_EQ(r.events_dispatched, 1651u);
  EXPECT_GT(r.rpc.retries, 0u);
}

// --- direct placement of one-piece read extents ----------------------------
//
// A read extent that is one file-space slice is served straight into the
// caller's buffer; a multi-piece extent is staged and scattered. Each case
// reads through the real client/server stack with the coalesce-conservation
// ledger live (SimCheck builds).

struct PlacementBed {
  explicit PlacementBed(const pfs::StripeAttrs& attrs, sim::ByteCount size) {
    fs.create("f", attrs);
    run_task(sim, [](PlacementBed& b, sim::ByteCount sz) -> Task<void> {
      const int fd = co_await b.client.open("f", pfs::IoMode::kAsync);
      co_await b.client.write(fd, make_pattern(1, 0, sz));
      b.client.close(fd);
    }(*this, size));
  }

  static pfs::PfsParams coalesced() {
    pfs::PfsParams p;
    p.coalesce_rpcs = true;
    return p;
  }

  sim::ByteCount read(sim::FileOffset off, std::span<std::byte> out) {
    sim::ByteCount got = 0;
    run_task(sim, [](PlacementBed& b, sim::FileOffset o, std::span<std::byte> buf,
                     sim::ByteCount& n) -> Task<void> {
      const int fd = co_await b.client.open("f", pfs::IoMode::kAsync);
      n = co_await b.client.read_at(fd, o, buf.size(), buf, /*fastpath=*/true);
      b.client.close(fd);
    }(*this, off, out, got));
    return got;
  }

  std::size_t coalesce_violations() {
    auto* a = sim.auditor();
    return a ? a->count(sim::check::Violation::kCoalesceConservation) : 0;
  }

  Simulation sim;
  hw::Machine machine{sim, hw::MachineConfig::paragon(2, 4)};
  pfs::PfsFileSystem fs{machine, coalesced()};
  pfs::PfsClient client{fs, 0, 0, 1};
};

pfs::StripeAttrs four_slots_on(std::vector<int> group) {
  pfs::StripeAttrs a;
  a.stripe_unit = 64 * 1024;
  a.stripe_group = std::move(group);
  return a;
}

TEST(DirectPlacement, CoalescedRpcMixesStagedAndPlacedExtents) {
  // Four slots on one node; a read of six stripe units from mid-unit gives
  // slots 0 and 1 two pieces each (staged) and slots 2 and 3 one (placed),
  // all in the same RPC.
  const auto attrs = four_slots_on({0, 0, 0, 0});
  PlacementBed bed(attrs, 1024 * 1024);
  const sim::FileOffset off = 1000;
  const sim::ByteCount len = 6 * 64 * 1024 - 3000;
  const auto reqs = pfs::coalesce_by_io(pfs::StripeLayout(attrs).map(off, len));
  ASSERT_EQ(reqs.size(), 1u);
  std::vector<std::size_t> pieces;
  for (const auto& e : reqs[0].extents) pieces.push_back(e.pieces.size());
  EXPECT_EQ(pieces, (std::vector<std::size_t>{2, 2, 1, 1}));

  const auto rpcs_before = bed.client.rpc_stats().data_rpcs;
  std::vector<std::byte> buf(len);
  EXPECT_EQ(bed.read(off, buf), len);
  EXPECT_EQ(bed.client.rpc_stats().data_rpcs - rpcs_before, 1u);
  EXPECT_TRUE(check_pattern(buf, 1, off));
  EXPECT_EQ(bed.coalesce_violations(), 0u);
}

TEST(DirectPlacement, CrashRetryReadIsByteExact) {
  // Every extent is one piece, so the crashed attempt and the retry both
  // land in the caller's buffer.
  PlacementBed bed(four_slots_on({0, 1, 2, 3}), 1024 * 1024);
  bed.sim.call_at(bed.sim.now() + 0.001, [&bed] { bed.fs.server(1).crash(); });
  bed.sim.call_at(bed.sim.now() + 0.05, [&bed] { bed.fs.server(1).restore(); });
  const sim::FileOffset off = 128 * 1024;
  std::vector<std::byte> buf(4 * 64 * 1024);
  EXPECT_EQ(bed.read(off, buf), buf.size());
  EXPECT_GT(bed.client.rpc_stats().retries, 0u);
  EXPECT_EQ(bed.client.rpc_stats().terminal_errors, 0u);
  EXPECT_TRUE(check_pattern(buf, 1, off));
  EXPECT_EQ(bed.coalesce_violations(), 0u);
}

TEST(DirectPlacement, ReadPastEofLeavesTheRestOfTheBuffer) {
  const sim::ByteCount size = 3 * 64 * 1024 + 5000;
  PlacementBed bed(four_slots_on({0, 1, 2, 3}), size);
  const sim::FileOffset off = 64 * 1024 + 100;
  constexpr std::byte kSentinel{0xa5};
  std::vector<std::byte> buf(4 * 64 * 1024, kSentinel);
  const sim::ByteCount got = bed.read(off, buf);
  ASSERT_EQ(got, size - off);
  EXPECT_TRUE(check_pattern(std::span<const std::byte>(buf).first(got), 1, off));
  for (std::size_t i = got; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], kSentinel) << "byte " << i << " past the returned count was written";
  }
  EXPECT_EQ(bed.coalesce_violations(), 0u);
}

TEST(DirectPlacement, SeededCoalesceViolationIsStillReported) {
  PlacementBed bed(four_slots_on({0, 1, 2, 3}), 1024 * 1024);
  auto* a = bed.sim.auditor();
  if (!a) GTEST_SKIP() << "SimCheck compiled out";
  a->set_fail_fast(false);
  a->arm_injection(sim::check::Violation::kCoalesceConservation, 42);
  std::vector<std::byte> buf(4 * 64 * 1024);
  EXPECT_EQ(bed.read(0, buf), buf.size());
  EXPECT_FALSE(a->injection_armed());
  EXPECT_EQ(bed.coalesce_violations(), 1u);  // the injected one, no other
  EXPECT_TRUE(check_pattern(buf, 1, 0));
}

TEST(DatapathE2E, DefaultSpecKeepsEveryStageOff) {
  const workload::MachineSpec defaults;
  EXPECT_EQ(defaults.mesh_mtu, 0u);
  EXPECT_FALSE(defaults.pfs.coalesce_rpcs);
  EXPECT_FALSE(defaults.pfs.server_batch);
}

}  // namespace
}  // namespace ppfs
