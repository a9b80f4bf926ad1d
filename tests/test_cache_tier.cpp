// ppfs-lint: allow-file(ref-across-await) test idiom: coroutine referents are stack locals and the test blocks in sim.run()/run_task() before they die
// DuraCache unit tests: the CacheFileInfo journal codec (torn-write
// detection), eviction policies, the CacheTier crash/recover lifecycle,
// and the workload-level warm-restart behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "cache/eviction.hpp"
#include "cache/info.hpp"
#include "cache/tier.hpp"
#include "fault/plan.hpp"
#include "sim/simulation.hpp"
#include "test_util.hpp"
#include "workload/experiment.hpp"

namespace ppfs {
namespace {

using cache::BlockKey;
using cache::CacheFileInfo;
using cache::CacheTier;
using cache::CacheTierParams;
using cache::decode;
using test::run_task;

// --- journal codec ----------------------------------------------------------

CacheFileInfo make_info(std::uint32_t ino, std::uint64_t gen,
                        std::initializer_list<std::uint64_t> blocks) {
  CacheFileInfo info;
  info.ino = ino;
  info.generation = gen;
  for (auto b : blocks) info.set(b);
  return info;
}

TEST(CacheInfo, EncodeDecodeRoundTrip) {
  const CacheFileInfo info = make_info(7, 42, {0, 3, 64, 130});
  const auto bytes = encode(info);
  const auto back = decode(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ino, 7u);
  EXPECT_EQ(back->generation, 42u);
  EXPECT_EQ(back->block_count, info.block_count);
  EXPECT_EQ(back->bits, info.bits);
  EXPECT_EQ(back->popcount(), 4u);
}

TEST(CacheInfo, TornPayloadIsRefused) {
  auto bytes = encode(make_info(1, 1, {0, 1, 2}));
  bytes.back() ^= std::byte{0xff};  // the crash's torn-write signature
  EXPECT_FALSE(decode(bytes.data(), bytes.size()).has_value());
}

TEST(CacheInfo, BadMagicAndShortBuffersAreRefused) {
  auto bytes = encode(make_info(1, 1, {0}));
  auto bad = bytes;
  bad[0] ^= std::byte{0x1};
  EXPECT_FALSE(decode(bad.data(), bad.size()).has_value());
  EXPECT_FALSE(decode(bytes.data(), 8).has_value());
  EXPECT_FALSE(decode(bytes.data(), bytes.size() - 3).has_value());  // odd size
}

TEST(CacheInfo, ClampDropsBitsBeyondAllocation) {
  CacheFileInfo info = make_info(1, 1, {0, 1, 5, 9});
  EXPECT_EQ(info.clamp(6), 1u);  // drops bit 9
  EXPECT_EQ(info.block_count, 6u);
  EXPECT_EQ(info.popcount(), 3u);
  EXPECT_FALSE(info.test(9));
  EXPECT_TRUE(info.test(5));
}

// --- eviction ---------------------------------------------------------------

TEST(CacheEviction, FifoEvictsOldestInsertRegardlessOfAccess) {
  auto policy = cache::make_eviction(cache::EvictionKind::kFifo);
  policy->on_insert(BlockKey{1, 0});
  policy->on_insert(BlockKey{1, 1});
  policy->on_insert(BlockKey{1, 2});
  policy->on_access(BlockKey{1, 0});  // FIFO ignores recency
  const auto victim = policy->pick_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->lblock, 0u);
}

TEST(CacheEviction, LruAccessRefreshesRecency) {
  auto policy = cache::make_eviction(cache::EvictionKind::kLru);
  policy->on_insert(BlockKey{1, 0});
  policy->on_insert(BlockKey{1, 1});
  policy->on_insert(BlockKey{1, 2});
  policy->on_access(BlockKey{1, 0});  // 0 becomes most-recent; 1 is now LRU
  const auto victim = policy->pick_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->lblock, 1u);
}

// --- tier lifecycle ---------------------------------------------------------

/// A tier wired to a tiny fake inode table the test controls.
struct TierFixture {
  sim::Simulation sim;
  std::map<std::uint32_t, std::uint64_t> generations;
  std::map<std::uint32_t, std::uint64_t> block_counts;
  CacheTier tier;

  explicit TierFixture(CacheTierParams params)
      : tier(sim, "test-tier", params,
             [this](std::uint32_t ino) {
               const auto it = generations.find(ino);
               return it == generations.end() ? 0ull : it->second;
             },
             [this](std::uint32_t ino) {
               const auto it = block_counts.find(ino);
               return it == block_counts.end() ? 0ull : it->second;
             }) {}
};

CacheTierParams tier_params(std::uint32_t flush_interval = 1,
                            std::uint64_t capacity = 1024) {
  CacheTierParams p;
  p.enabled = true;
  p.journal_flush_interval = flush_interval;
  p.capacity_blocks = capacity;
  return p;
}

TEST(CacheTier, InsertMakesBlocksResidentAndJournals) {
  TierFixture f(tier_params(/*flush_interval=*/2));
  f.generations[5] = 1;
  f.block_counts[5] = 8;
  f.tier.insert(5, 1, 0);
  EXPECT_TRUE(f.tier.resident(5, 0));
  EXPECT_FALSE(f.tier.resident(5, 1));
  EXPECT_EQ(f.tier.durable_entries().count(5), 0u);  // below flush interval
  f.tier.insert(5, 1, 1);
  f.sim.run();  // drain the journal write
  ASSERT_EQ(f.tier.durable_entries().count(5), 1u);
  const auto& entry = f.tier.durable_entries().at(5);
  EXPECT_TRUE(entry.write_complete);
  const auto decoded = cache::decode(entry.payload.data(), entry.payload.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->popcount(), 2u);
  EXPECT_EQ(f.tier.stats().journal_flushes, 1u);
}

TEST(CacheTier, GenerationChangeInvalidatesOldResidency) {
  TierFixture f(tier_params());
  f.generations[3] = 1;
  f.block_counts[3] = 4;
  f.tier.insert(3, 1, 0);
  f.tier.insert(3, 1, 1);
  ASSERT_EQ(f.tier.resident_blocks(), 2u);
  // The file is deleted and recreated under the same ino: generation 2.
  f.tier.insert(3, 2, 0);
  EXPECT_EQ(f.tier.resident_blocks(), 1u);
  EXPECT_TRUE(f.tier.resident(3, 0));
  EXPECT_FALSE(f.tier.resident(3, 1));
  f.sim.run();
}

TEST(CacheTier, CapacityTriggersEviction) {
  TierFixture f(tier_params(/*flush_interval=*/100, /*capacity=*/2));
  f.generations[1] = 1;
  f.block_counts[1] = 8;
  f.tier.insert(1, 1, 0);
  f.tier.insert(1, 1, 1);
  f.tier.insert(1, 1, 2);
  EXPECT_EQ(f.tier.resident_blocks(), 2u);
  EXPECT_EQ(f.tier.stats().evictions, 1u);
  EXPECT_FALSE(f.tier.resident(1, 0));  // LRU victim: oldest insert
  EXPECT_TRUE(f.tier.resident(1, 2));
  f.sim.run();
}

TEST(CacheTier, CrashLosesVolatileStateAndRecoverRestoresJournaledBits) {
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[9] = 4;
  f.block_counts[9] = 16;
  for (std::uint64_t b = 0; b < 4; ++b) {
    f.tier.insert(9, 4, b);
    f.sim.run();  // let each journal write land before the next mutation
  }
  ASSERT_EQ(f.tier.resident_blocks(), 4u);

  f.tier.on_crash();
  EXPECT_EQ(f.tier.resident_blocks(), 0u);
  EXPECT_FALSE(f.tier.resident(9, 0));
  EXPECT_EQ(f.tier.durable_entries().count(9), 1u);  // the journal survives

  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().recoveries, 1u);
  EXPECT_EQ(f.tier.stats().recovered_blocks, 4u);
  EXPECT_GT(f.tier.stats().last_recovery_time, 0.0);
  for (std::uint64_t b = 0; b < 4; ++b) EXPECT_TRUE(f.tier.resident(9, b));
}

TEST(CacheTier, CrashMidJournalWriteLeavesTornEntryThatRecoveryDrops) {
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[2] = 1;
  f.block_counts[2] = 4;
  f.tier.insert(2, 1, 0);  // journal write now in flight (not yet complete)
  ASSERT_EQ(f.tier.durable_entries().count(2), 1u);
  ASSERT_FALSE(f.tier.durable_entries().at(2).write_complete);

  f.tier.on_crash();  // tears the in-flight payload on the medium
  f.sim.run();        // the abandoned flush coroutine drains harmlessly
  EXPECT_TRUE(f.tier.durable_entries().at(2).write_complete);

  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().torn_entries_dropped, 1u);
  EXPECT_EQ(f.tier.stats().recovered_blocks, 0u);
  EXPECT_EQ(f.tier.durable_entries().count(2), 0u);  // quarantined
  EXPECT_FALSE(f.tier.resident(2, 0));
}

TEST(CacheTier, StaleGenerationEntriesAreDroppedOnRecovery) {
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[6] = 1;
  f.block_counts[6] = 4;
  f.tier.insert(6, 1, 0);
  f.sim.run();
  f.tier.on_crash();
  f.generations[6] = 2;  // file recreated while the node was down
  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().stale_entries_dropped, 1u);
  EXPECT_EQ(f.tier.stats().recovered_blocks, 0u);
  EXPECT_FALSE(f.tier.resident(6, 0));
}

TEST(CacheTier, UnknownInodeEntriesAreDroppedOnRecovery) {
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[8] = 1;
  f.block_counts[8] = 4;
  f.tier.insert(8, 1, 0);
  f.sim.run();
  f.tier.on_crash();
  f.generations.erase(8);  // file removed while the node was down
  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().stale_entries_dropped, 1u);
  EXPECT_FALSE(f.tier.resident(8, 0));
}

TEST(CacheTier, OutOfRangeBitsAreClampedOnRecovery) {
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[4] = 1;
  f.block_counts[4] = 8;
  for (std::uint64_t b = 0; b < 6; ++b) {
    f.tier.insert(4, 1, b);
    f.sim.run();
  }
  f.tier.on_crash();
  f.block_counts[4] = 3;  // file truncated while the node was down
  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().out_of_range_bits_dropped, 3u);
  EXPECT_EQ(f.tier.stats().recovered_blocks, 3u);
  EXPECT_TRUE(f.tier.resident(4, 2));
  EXPECT_FALSE(f.tier.resident(4, 5));
}

TEST(CacheTier, WarmHitWindowStartsAtRecovery) {
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[1] = 1;
  f.block_counts[1] = 8;
  f.tier.insert(1, 1, 0);
  f.tier.note_hit(1, 0);  // pre-crash hit: must NOT count as warm later
  f.sim.run();
  f.tier.on_crash();
  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().warm_lookups, 0u);
  f.tier.note_hit(1, 0);
  f.tier.note_miss_blocks(1);
  EXPECT_EQ(f.tier.stats().warm_lookups, 2u);
  EXPECT_EQ(f.tier.stats().warm_hits, 1u);
  EXPECT_DOUBLE_EQ(f.tier.stats().warm_hit_ratio(), 0.5);
}

TEST(CacheTier, LookupsDuringReplayCountTowardWarmWindow) {
  // Regression: recover() used to zero warm_lookups/warm_hits at its END,
  // after awaiting the journal transfers — so every hit the tier served
  // concurrently with replay was silently dropped from the warm window.
  // The window must open when replay begins.
  TierFixture f(tier_params(/*flush_interval=*/1));
  f.generations[1] = 1;
  f.block_counts[1] = 8;
  for (std::uint64_t b = 0; b < 4; ++b) {
    f.tier.insert(1, 1, b);
    f.sim.run();
  }
  f.tier.note_hit(1, 0);  // pre-crash: must not leak into the warm window
  f.tier.on_crash();
  // Fires while recover() is still awaiting its journal transfers.
  f.sim.call_at(f.sim.now() + 1e-9, [&f] {
    f.tier.note_hit(1, 0);
    f.tier.note_miss_blocks(1);
  });
  run_task(f.sim, f.tier.recover());
  EXPECT_EQ(f.tier.stats().warm_lookups, 2u);
  EXPECT_EQ(f.tier.stats().warm_hits, 1u);
}

// --- workload level ---------------------------------------------------------

workload::MachineSpec tier_machine(std::uint64_t capacity = 1024) {
  workload::MachineSpec m;
  m.pfs.ufs.cache_tier.enabled = true;
  m.pfs.ufs.cache_tier.capacity_blocks = capacity;
  return m;
}

TEST(CacheTierWorkload, WarmRestartServesPostCrashReadsFromTier) {
  // The ppfs_perf recovery gate as a regression test: sequential 8x8, crash
  // mid-read-phase, journal replay must restore service warm.
  workload::Experiment exp(tier_machine());
  workload::WorkloadSpec w;
  w.file_size = 8 * 1024 * 1024;
  w.request_size = 64 * 1024;
  w.compute_delay = 0.002;
  w.verify = true;
  w.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.05");
  const auto r = exp.run(w);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.faults.app_errors, 0u);
  EXPECT_EQ(r.cache.recoveries, 1u);
  EXPECT_EQ(r.faults.node_recoveries, 1u);
  EXPECT_GT(r.cache.recovered_blocks, 0u);
  EXPECT_GT(r.cache.total_recovery_time, 0.0);
  EXPECT_GT(r.faults.node_recovery_time, 0.0);
  EXPECT_GE(r.cache.warm_hit_ratio(), 0.5);
}

TEST(CacheTierWorkload, TierRunsAreSeedDeterministic) {
  // Same spec (tier on, chaos faults) twice: bit-identical digests.
  workload::Experiment exp(tier_machine());
  workload::WorkloadSpec w;
  w.file_size = 2 * 1024 * 1024;
  w.request_size = 64 * 1024;
  w.compute_delay = 0.002;
  w.prefetch = true;
  w.faults = fault::parse_plan("seed=99,events=5,horizon=0.3");
  const auto a = exp.run(w);
  const auto b = exp.run(w);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.cache.lookups, b.cache.lookups);
  EXPECT_EQ(a.cache.recoveries, b.cache.recoveries);
}

TEST(CacheTierWorkload, HealthyTierRunVerifiesAndHits) {
  workload::Experiment exp(tier_machine());
  workload::WorkloadSpec w;
  w.file_size = 2 * 1024 * 1024;
  w.request_size = 64 * 1024;
  w.verify = true;
  const auto r = exp.run(w);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.cache.inserts, 0u);
  EXPECT_GT(r.cache.hits, 0u);
  EXPECT_EQ(r.cache.recoveries, 0u);
  EXPECT_EQ(r.cache.total_recovery_time, 0.0);
}

TEST(CacheTierWorkload, EvictionPressureStillVerifies) {
  // A tier far smaller than the working set must thrash, not corrupt.
  workload::Experiment exp(tier_machine(/*capacity=*/2));
  workload::WorkloadSpec w;
  w.file_size = 2 * 1024 * 1024;  // 4 blocks per stripe file vs capacity 2
  w.request_size = 64 * 1024;
  w.verify = true;
  const auto r = exp.run(w);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.cache.evictions, 0u);
}

}  // namespace
}  // namespace ppfs
