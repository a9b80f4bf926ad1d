// Crash-recovery ablation for the persistent second-tier cache (DuraCache):
// cold vs warm restart on the sequential 8x8 workload.
//
// Four core rows — tier off/on x healthy/crash — plus eviction-pressure
// and eviction-policy variants. The crash lands mid-read-phase; the paper's
// observed-bandwidth metric then includes the outage and the post-restart
// tail, so the tier's value shows up as (a) a recovery-time line that is a
// journal replay instead of a full cold cache, and (b) a warm-restart hit
// ratio on the reads served after the node comes back.
//
// Gated (ppfs_perf-style, enforced here so CI can run the bench directly):
// the "tier crash" row must report warm_hit_ratio >= 0.5 and a nonzero
// recovery time with recovered blocks — a warm restart that actually
// restored service from the journal, not a cold cache with extra steps.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace ppfs;
using namespace ppfs::bench;

struct TierConfig {
  const char* name;
  bool tier = false;
  bool crash = false;
  std::uint64_t capacity = 1024;  // blocks
  cache::EvictionKind eviction = cache::EvictionKind::kLru;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);

  banner("DuraCache recovery: cold vs warm restart after an I/O node crash",
         "robustness extension (not in the paper): crash-safe second-tier "
         "cache with journaled block bitmaps",
         "warm restart recovers the journal in one replay and serves the "
         "post-restart reads from the tier (warm hit ratio >= 0.5 on the "
         "sequential 8x8 run); eviction pressure lowers the ratio");

  const TierConfig configs[] = {
      {"no-tier healthy", false, false},
      {"tier healthy", true, false},
      {"no-tier crash", false, true},
      {"tier crash", true, true},  // the gated row
      {"tier crash cap=16", true, true, 16},
      {"tier crash fifo", true, true, 1024, cache::EvictionKind::kFifo},
  };

  // Sequential 8x8: M_RECORD, 64K records, every I/O node in the group.
  // 16M / 64K = 32 blocks per stripe file, so the populate phase crosses
  // the journal flush interval (8) four times per node — the journal is
  // complete when the crash hits. The compute delay stretches the read
  // phase so the crash (t=0.02, outage 0.05) lands mid-run and a real
  // post-restart tail remains to measure warmth on.
  WorkloadSpec base;
  base.mode = pfs::IoMode::kRecord;
  base.request_size = 64 * 1024;
  base.file_size = args.quick ? 8 * 1024 * 1024 : 16 * 1024 * 1024;
  base.compute_delay = 0.002;
  base.verify = true;

  std::vector<exp::SweepJob> jobs;
  for (const TierConfig& c : configs) {
    MachineSpec m;
    m.pfs.ufs.cache_tier.enabled = c.tier;
    m.pfs.ufs.cache_tier.capacity_blocks = c.capacity;
    m.pfs.ufs.cache_tier.eviction = c.eviction;
    WorkloadSpec w = base;
    if (c.crash) {
      w.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.05");
    }
    jobs.push_back({c.name, m, w});
  }

  const auto report = exp::run_sweep(jobs, args.jobs);
  if (!report.all_ok()) return finish_sweep(report);

  TextTable table({"Config", "Read B/W (MB/s)", "Recovery time", "Replays", "Blocks",
                   "Warm hits", "Warm ratio", "Evictions", "Verify"});
  JsonArray rows;
  double gated_warm_ratio = -1;
  sim::SimTime gated_recovery_time = 0;
  std::uint64_t gated_recovered_blocks = 0;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& o = report.outcomes[i];
    const auto& r = o.result;
    const TierConfig& c = configs[i];
    table.add_row({c.name, fmt_double(r.observed_read_bw_mbs, 2),
                   fmt_double(r.cache.total_recovery_time * 1e3, 3) + "ms",
                   std::to_string(r.cache.recoveries),
                   std::to_string(r.cache.recovered_blocks),
                   std::to_string(r.cache.warm_hits) + "/" +
                       std::to_string(r.cache.warm_lookups),
                   fmt_double(r.cache.warm_hit_ratio(), 3),
                   std::to_string(r.cache.evictions),
                   r.verify_failures == 0 ? "ok" : "FAIL"});
    if (std::string(c.name) == "tier crash") {
      gated_warm_ratio = r.cache.warm_hit_ratio();
      gated_recovery_time = r.cache.total_recovery_time;
      gated_recovered_blocks = r.cache.recovered_blocks;
    }
    JsonObject row = outcome_json(o);
    row.field("tier", c.tier)
        .field("crash", c.crash)
        .field("capacity_blocks", c.capacity)
        .field("eviction", c.eviction == cache::EvictionKind::kLru ? "lru" : "fifo")
        .field("cache_lookups", r.cache.lookups)
        .field("cache_hits", r.cache.hits)
        .field("cache_inserts", r.cache.inserts)
        .field("cache_evictions", r.cache.evictions)
        .field("journal_flushes", r.cache.journal_flushes)
        .field("recoveries", r.cache.recoveries)
        .field("recovered_blocks", r.cache.recovered_blocks)
        .field("recovery_time_s", static_cast<double>(r.cache.total_recovery_time))
        .field("warm_lookups", r.cache.warm_lookups)
        .field("warm_hits", r.cache.warm_hits)
        .field("warm_hit_ratio", r.cache.warm_hit_ratio())
        .field("verify_failures", r.verify_failures);
    rows.add(row);
  }
  std::cout << "\n" << table.str();

  const bool warm_ok = gated_warm_ratio >= 0.5;
  const bool replay_ok = gated_recovery_time > 0 && gated_recovered_blocks > 0;
  std::printf("\nwarm-restart gate (tier crash row): warm ratio %.3f (>= 0.5: %s), "
              "recovery %.3fms for %llu blocks (replayed: %s)\n",
              gated_warm_ratio, warm_ok ? "PASS" : "FAIL", gated_recovery_time * 1e3,
              (unsigned long long)gated_recovered_blocks, replay_ok ? "PASS" : "FAIL");
  std::printf("sweep: %zu scenarios, %d worker%s, %.3fs wall\n", report.outcomes.size(),
              report.jobs, report.jobs == 1 ? "" : "s", report.seconds);

  if (!args.json_path.empty()) {
    JsonObject doc;
    doc.field("bench", "recovery")
        .field("jobs", report.jobs)
        .field("wall_seconds", report.seconds)
        .field("gated_warm_hit_ratio", gated_warm_ratio)
        .field("gated_recovery_time_s", static_cast<double>(gated_recovery_time))
        .field("gated_recovered_blocks", gated_recovered_blocks)
        .raw("rows", rows.str());
    write_json_file(args.json_path, doc.str());
  }
  return warm_ok && replay_ok ? 0 : 1;
}
