// ppfs_perf: the one program that writes the committed BENCH_*.json files,
// and the CI perf-smoke gate. Each section runs one grid, writes its files
// and returns its gate verdict. A threshold flag left at 0 (the default)
// turns its gate off; the recovery gate is hard-coded.
//
//  * kernel — times the simulator substrate with the exact loop shapes of
//    bench_kernel_micro's BM_EventQueueThroughput and BM_CoroutineDelayHops
//    (so the numbers are comparable to the recorded google-benchmark
//    trajectory), best-of-N repetitions, written to BENCH_kernel.json.
//    --min-events-per-sec gates CI on a conservative floor.
//
//  * sweep — runs the paper-table scenario grid serially and with --jobs
//    workers, checks every per-scenario digest is bit-identical between
//    the two (the SweepRunner determinism contract), and records both
//    wall-clock times to BENCH_sweep.json. A digest mismatch fails the
//    run; the speedup itself is recorded, not gated — a one-core CI box
//    timeslices the workers and cannot show it.
//
//  * datapath — the data-path ablation: eight stage configs (mesh MTU
//    segmentation x extent-coalesced RPCs x server batch sweeps) on the
//    Table-4 narrow (sgroup=1) and 8x8 (sgroup=8) layouts with M_RECORD
//    512K and 1M records (--quick: 512K only), written to
//    BENCH_datapath.json. BENCH_datapath_gate.json is the 512K extract of
//    the same run (legacy, coalesce, batch, all-on). --min-datapath-speedup
//    gates "all mtu=16K" vs legacy on the 512K sgroup=8 row, and a
//    defaults-vs-legacy run asserts that a default-constructed machine
//    produces a digest bit-identical to one with every stage explicitly
//    disabled (the stages must stay opt-in).
//
//  * prefetch — runs the AdaptaFetch grid (three access patterns x fixed-1,
//    fixed-4 and adaptive depth) serially and with --jobs, asserts
//    per-scenario digest identity between the two (adaptive depth included
//    — the seeded-adaptation determinism contract), writes the rows to
//    BENCH_prefetch.json, and gates three floors: adaptive-vs-fixed-1
//    MB/s on the sequential row (--min-prefetch-seq-speedup), on the
//    worst strided/list-I/O row (--min-prefetch-pattern-speedup), and
//    the worst adaptive useful-prefetch ratio
//    (--min-prefetch-useful-ratio).
//
//  * scale — runs the machine-size grid (open-arrival multi-tenant
//    workload, 8x8 up to 1024x256 with --quick skipping the production
//    rows), gates a host events/sec floor (--min-scale-events-per-sec) and
//    a kernel bytes/event ceiling (--max-scale-bytes-per-event), reruns the
//    largest row as a node-partitioned sharded scenario with 1 and --jobs
//    workers asserting merged-digest identity, and writes BENCH_scale.json.
//
//  * write — TokenWrite checkpoint writers (byte-range write tokens +
//    client write-back caches): 1/2/4/8 own-slot writers and 2/4/8
//    conflicting writers, written to BENCH_write.json. --min-write-scaling
//    gates the 1->8 own-slot write-bandwidth scaling; every row must verify
//    byte-exact.
//
//  * recovery — DuraCache cold vs warm restart after an I/O node crash,
//    tier off/on x healthy/crash plus eviction variants, written to
//    BENCH_recovery.json. Always gated: the "tier crash" row must reach a
//    warm hit ratio >= 0.5 after a journal replay that restored blocks,
//    and every row must verify byte-exact.
//
//   $ ppfs_perf --jobs 4 --min-events-per-sec 250000
//               --min-datapath-speedup 1.5
//               --min-prefetch-seq-speedup 1.15
//               --min-prefetch-pattern-speedup 1.3
//               --min-prefetch-useful-ratio 0.8
//               --min-scale-events-per-sec 50000
//               --max-scale-bytes-per-event 512
//               --min-write-scaling 1.5 --out-dir .
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_common.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "workload/experiment.hpp"
#include "workload/open_arrival.hpp"
#include "workload/write_workload.hpp"

using namespace ppfs;
using namespace ppfs::bench;
using sim::Simulation;
using sim::Task;

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Args {
  int jobs = exp::SweepRunner::default_jobs();
  double min_events_per_sec = 0;
  double min_datapath_speedup = 0;
  double min_prefetch_seq_speedup = 0;
  double min_prefetch_pattern_speedup = 0;
  double min_prefetch_useful_ratio = 0;
  double min_scale_events_per_sec = 0;
  double max_scale_bytes_per_event = 0;
  double min_write_scaling = 0;
  bool quick = false;
  std::string out_dir = ".";
};

Args parse(int argc, char** argv) {
  struct Threshold {
    const char* flag;
    double Args::*value;
  };
  constexpr Threshold kThresholds[] = {
      {"--min-events-per-sec", &Args::min_events_per_sec},
      {"--min-datapath-speedup", &Args::min_datapath_speedup},
      {"--min-prefetch-seq-speedup", &Args::min_prefetch_seq_speedup},
      {"--min-prefetch-pattern-speedup", &Args::min_prefetch_pattern_speedup},
      {"--min-prefetch-useful-ratio", &Args::min_prefetch_useful_ratio},
      {"--min-scale-events-per-sec", &Args::min_scale_events_per_sec},
      {"--max-scale-bytes-per-event", &Args::max_scale_bytes_per_event},
      {"--min-write-scaling", &Args::min_write_scaling},
  };
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view s = argv[i];
    const bool has_value = i + 1 < argc;
    const auto* t = std::find_if(std::begin(kThresholds), std::end(kThresholds),
                                 [&](const Threshold& th) { return s == th.flag; });
    if (t != std::end(kThresholds) && has_value) {
      a.*(t->value) = parse_flag_number(t->flag, argv[++i]);
    } else if (s == "--jobs" && has_value) {
      a.jobs = parse_flag_jobs("--jobs", argv[++i]);
    } else if (s == "--quick") {
      a.quick = true;
    } else if (s == "--out-dir" && has_value) {
      a.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: ppfs_perf [--jobs <n>]");
      for (const Threshold& th : kThresholds) std::fprintf(stderr, " [%s <x>]", th.flag);
      std::fprintf(stderr, " [--quick] [--out-dir <dir>]\n");
      std::exit(2);
    }
  }
  return a;
}

std::string build_flavor() {
  std::string s;
#if defined(NDEBUG)
  s += "ndebug";
#else
  s += "debug-asserts";
#endif
#if defined(PPFS_SIMCHECK)
  s += "+simcheck";
#endif
  return s;
}

int hardware_threads() { return static_cast<int>(std::thread::hardware_concurrency()); }

/// True when both sweeps ran clean and every scenario dispatched the same
/// event stream (digest and event count) serially and in parallel.
bool same_digests(const exp::SweepReport& serial, const exp::SweepReport& parallel) {
  if (finish_sweep(serial) != 0 || finish_sweep(parallel) != 0 ||
      serial.outcomes.size() != parallel.outcomes.size()) {
    return false;
  }
  bool same = true;
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const auto& s = serial.outcomes[i].result;
    const auto& p = parallel.outcomes[i].result;
    if (s.digest != p.digest || s.events_dispatched != p.events_dispatched) {
      std::fprintf(stderr, "ppfs_perf: digest diverged for '%s': %016llx vs %016llx\n",
                   serial.outcomes[i].label.c_str(), (unsigned long long)s.digest,
                   (unsigned long long)p.digest);
      same = false;
    }
  }
  return same;
}

/// A floor gate: off when `floor` is 0, else `value` must reach it.
bool floor_ok(const std::string& what, double value, double floor) {
  if (floor <= 0 || value >= floor) return true;
  std::fprintf(stderr, "ppfs_perf: %s below floor (%.4g < %.4g)\n", what.c_str(), value, floor);
  return false;
}

// ---- kernel ----------------------------------------------------------------

struct KernelRow {
  std::string name;
  std::uint64_t events = 0;   // per repetition
  double best_seconds = 0;    // best-of-reps
  double events_per_sec = 0;
};

/// Best-of-`reps` wall time to build a Simulation, let `load` schedule
/// work on it, and run it dry.
template <class Load>
KernelRow measure(std::string name, int reps, const Load& load) {
  KernelRow row{std::move(name)};
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    Simulation sim;
    load(sim);
    sim.run();
    best = std::min(best, now_seconds() - t0);
    row.events = sim.events_dispatched();
  }
  row.best_seconds = best;
  row.events_per_sec = static_cast<double>(row.events) / best;
  return row;
}

Task<void> hop(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

bool kernel_section(const Args& args) {
  const int reps = args.quick ? 3 : 7;
  const int n = args.quick ? 20000 : 100000;
  const int hops = args.quick ? 20 : 100;
  long fired = 0;
  const KernelRow rows[] = {
      // BM_EventQueueThroughput's loop body: n callbacks over 97 distinct times.
      measure("event_throughput/" + std::to_string(n), reps,
              [&](Simulation& sim) {
                for (int i = 0; i < n; ++i) {
                  sim.call_at(static_cast<double>(i % 97), [&fired] { ++fired; });
                }
              }),
      // BM_CoroutineDelayHops's loop body: 100 processes x `hops` delay hops.
      measure("delay_hops/" + std::to_string(hops), reps,
              [&](Simulation& sim) {
                for (int p = 0; p < 100; ++p) sim.spawn(hop(sim, hops));
              }),
  };
  bool ok = fired == static_cast<long>(n) * reps;
  if (!ok) std::fprintf(stderr, "ppfs_perf: event_throughput dropped callbacks\n");
  JsonArray kernel_rows;
  for (const auto& r : rows) {
    std::printf("kernel  %-24s %9.0f events/s  (%llu events, best %.4fs of %d)\n",
                r.name.c_str(), r.events_per_sec, (unsigned long long)r.events,
                r.best_seconds, reps);
    JsonObject o;
    o.field("name", r.name)
        .field("events", r.events)
        .field("best_seconds", r.best_seconds)
        .field("events_per_sec", r.events_per_sec);
    kernel_rows.add(o);
    ok = floor_ok(r.name + " events/s", r.events_per_sec, args.min_events_per_sec) && ok;
  }

  JsonObject doc;
  doc.field("bench", "kernel")
      .field("build", build_flavor())
      .field("hardware_concurrency", hardware_threads())
      .field("repetitions", reps)
      .field("quick", args.quick)
      .field("min_events_per_sec", args.min_events_per_sec)
      .field("gate_pass", ok)
      .raw("rows", kernel_rows.str());
  write_json_file(args.out_dir + "/BENCH_kernel.json", doc.str());
  return ok;
}

// ---- sweep -----------------------------------------------------------------

bool sweep_section(const Args& args) {
  const int hw = hardware_threads();
  const auto jobs =
      exp::paper_table_jobs(MachineSpec{}, WorkloadSpec{}, args.quick ? 2 : 8);

  // The digest-identity run keeps the *requested* worker count (more
  // threads = more interleavings covered); the *timed* run is clamped to
  // the machine — on a 1-CPU box extra workers just timeslice, and the
  // reported "speedup" of 4 oversubscribed workers vs serial is noise
  // (historically it read 0.97x with parallel_jobs:4 on 1 hardware
  // thread, which looked like a regression and wasn't).
  const int effective_jobs = hw > 0 ? std::min(args.jobs, hw) : args.jobs;
  const bool oversubscribed = args.jobs > effective_jobs;

  const auto serial = exp::run_sweep(jobs, 1);
  const auto parallel = exp::run_sweep(jobs, args.jobs);

  const bool digests_identical = same_digests(serial, parallel);
  JsonArray rows;
  for (const auto& o : serial.outcomes) rows.add(outcome_json(o));

  // Timed speedup at the clamped worker count. On a 1-effective-worker
  // machine the parallel path degenerates to serial scheduling, so reuse
  // the serial time (speedup 1.0 by construction) instead of rerunning.
  double timed_seconds = serial.seconds;
  if (effective_jobs > 1) {
    timed_seconds = oversubscribed ? exp::run_sweep(jobs, effective_jobs).seconds
                                   : parallel.seconds;
  }
  const double speedup = timed_seconds > 0 ? serial.seconds / timed_seconds : 0;
  std::printf("sweep   %zu scenarios: serial %.3fs, %d-worker %.3fs (%.2fx%s), digests %s\n",
              serial.outcomes.size(), serial.seconds, effective_jobs, timed_seconds,
              speedup,
              oversubscribed ? ", jobs clamped to hardware" : "",
              digests_identical ? "identical" : "DIVERGED");

  JsonObject doc;
  doc.field("bench", "paper_table_sweep")
      .field("build", build_flavor())
      .field("hardware_concurrency", hw)
      .field("scenarios", static_cast<std::uint64_t>(serial.outcomes.size()))
      .field("quick", args.quick)
      .field("serial_wall_seconds", serial.seconds)
      .field("requested_jobs", args.jobs)
      .field("effective_jobs", effective_jobs)
      .field("oversubscribed", oversubscribed)
      .field("parallel_jobs", parallel.jobs)
      .field("parallel_wall_seconds", parallel.seconds)
      .field("timed_wall_seconds", timed_seconds)
      .field("speedup", speedup)
      .field("digests_identical", digests_identical)
      .raw("rows", rows.str());
  write_json_file(args.out_dir + "/BENCH_sweep.json", doc.str());
  return digests_identical;
}

// ---- datapath --------------------------------------------------------------

struct DatapathStage {
  const char* name;
  sim::ByteCount mtu = 0;
  bool coalesce = false;
  bool batch = false;
  const char* gate_name = nullptr;  // its row name in BENCH_datapath_gate.json
};

constexpr DatapathStage kDatapathStages[] = {
    {"legacy", 0, false, false, "legacy"},
    {"mtu=4K", 4 * 1024},
    {"mtu=16K", 16 * 1024},
    {"coalesce", 0, true, false, "coalesce"},
    {"batch", 0, false, true, "batch"},
    {"coalesce+batch", 0, true, true},
    {"all mtu=4K", 4 * 1024, true, true},
    {"all mtu=16K", 16 * 1024, true, true, "all"},  // the gated all-on stage
};

// The machine uses SCSI-16 I/O nodes: on SCSI-8 the 4 MB/s bus caps every
// row at the same number (legacy circuit mode already saturates it), while
// on SCSI-16 the disks and the request stream bind and the stages have
// something real to remove. The gated row is 8x8 with full-stripe 512K
// records, where arrival-order seeks, per-extent control traffic and
// circuit-held routes all cost at once; the narrow layout and the 1M rows
// are context with smaller wins.
bool datapath_section(const Args& args) {
  constexpr sim::ByteCount kGatedRequest = 512 * 1024;
  const std::vector<sim::ByteCount> sizes =
      args.quick ? std::vector<sim::ByteCount>{kGatedRequest}
                 : std::vector<sim::ByteCount>{kGatedRequest, 1024 * 1024};
  const int rounds = args.quick ? 2 : 4;
  const int n = MachineSpec{}.ncompute;

  // sgroup=1: 8-way striping across I/O node 0 only (Table 4's narrow
  // layout); sgroup=8: across all I/O nodes.
  pfs::StripeAttrs narrow;
  narrow.stripe_unit = 64 * 1024;
  narrow.stripe_group.assign(8, 0);
  pfs::StripeAttrs wide;
  wide.stripe_unit = 64 * 1024;
  wide.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::pair<const char*, const pfs::StripeAttrs*> layouts[] = {
      {"sgroup=1", &narrow}, {"sgroup=8", &wide}};

  std::vector<exp::SweepJob> jobs;
  for (const auto req : sizes) {
    for (const auto& [layout, attrs] : layouts) {
      WorkloadSpec w;
      w.mode = pfs::IoMode::kRecord;
      w.request_size = req;
      w.file_size = file_size_for(req, n, rounds);
      w.prefetch = true;
      w.attrs = *attrs;
      for (const DatapathStage& st : kDatapathStages) {
        MachineSpec m;
        m.raid = hw::RaidParams::scsi16();
        m.mesh_mtu = st.mtu;
        m.pfs.coalesce_rpcs = st.coalesce;
        m.pfs.server_batch = st.batch;
        jobs.push_back({fmt_bytes(req) + " " + layout + " " + st.name, m, w});
      }
    }
  }
  const auto report = exp::run_sweep(jobs, args.jobs);
  bool ok = finish_sweep(report) == 0;
  double all_on_speedup = 0;
  JsonArray rows, gate_rows;
  if (ok) {
    std::size_t idx = 0;
    for (const auto req : sizes) {
      for (const auto& [layout, attrs] : layouts) {
        const double legacy_bw = report.outcomes[idx].result.observed_read_bw_mbs;
        for (const DatapathStage& st : kDatapathStages) {
          const auto& o = report.outcomes[idx++];
          const auto& r = o.result;
          const double eps =
              o.seconds > 0 ? static_cast<double>(r.events_dispatched) / o.seconds : 0;
          const double ratio = r.observed_read_bw_mbs / legacy_bw;
          std::printf("datapath %-30s %7.2f MB/s (%.2fx legacy)  %9.0f events/s\n",
                      o.label.c_str(), r.observed_read_bw_mbs, ratio, eps);
          JsonObject row = outcome_json(o);
          row.field("request_bytes", static_cast<std::uint64_t>(req))
              .field("layout", layout)
              .field("stage", st.name)
              .field("mesh_mtu", static_cast<std::uint64_t>(st.mtu))
              .field("coalesce", st.coalesce)
              .field("server_batch", st.batch)
              .field("events_per_sec", eps)
              .field("coalesced_rpcs", r.rpc.coalesced_rpcs)
              .field("coalesced_extents", r.rpc.coalesced_extents)
              .field("stripe_map_refreshes", r.rpc.stripe_map_refreshes)
              .field("mesh_segments", r.mesh_segments)
              .field("batch_sweeps", r.server_batch_sweeps)
              .field("batched_extents", r.server_batched_extents)
              .field("speedup_vs_legacy", ratio);
          rows.add(row);

          if (req != kGatedRequest || st.gate_name == nullptr) continue;
          if (attrs == &wide && std::string_view(st.gate_name) == "all") {
            all_on_speedup = ratio;
          }
          exp::SweepOutcome gate = o;
          gate.label = std::string(layout) + " " + st.gate_name;
          JsonObject grow = outcome_json(gate);
          grow.field("stage", st.gate_name)
              .field("mesh_mtu", static_cast<std::uint64_t>(st.mtu))
              .field("coalesce", st.coalesce)
              .field("server_batch", st.batch)
              .field("events_per_sec", eps)
              .field("speedup_vs_legacy", ratio);
          gate_rows.add(grow);
        }
      }
    }
    ok = floor_ok("datapath all-stages speedup", all_on_speedup, args.min_datapath_speedup);
  }

  // Defaults must stay legacy: a default-constructed machine and one with
  // every data-path stage explicitly disabled have to dispatch the exact
  // same event stream.
  MachineSpec legacy_machine;
  legacy_machine.mesh_mtu = 0;
  legacy_machine.pfs.coalesce_rpcs = false;
  legacy_machine.pfs.server_batch = false;
  WorkloadSpec dflt;
  dflt.mode = pfs::IoMode::kRecord;
  dflt.request_size = kGatedRequest;
  dflt.file_size = file_size_for(dflt.request_size, n, 2);
  dflt.prefetch = true;
  const auto dig = exp::run_sweep(
      {{"defaults", MachineSpec{}, dflt}, {"legacy-off", legacy_machine, dflt}}, args.jobs);
  const bool defaults_legacy =
      dig.all_ok() && dig.outcomes[0].result.digest == dig.outcomes[1].result.digest &&
      dig.outcomes[0].result.events_dispatched == dig.outcomes[1].result.events_dispatched;
  if (!defaults_legacy) {
    std::fprintf(stderr,
                 "ppfs_perf: default machine diverged from explicit legacy stages "
                 "(a data-path stage is no longer opt-in)\n");
  }
  std::printf("datapath all-on speedup %.2fx (floor %.2fx), defaults-vs-legacy digest %s\n",
              all_on_speedup, args.min_datapath_speedup,
              defaults_legacy ? "identical" : "DIVERGED");

  JsonObject doc;
  doc.field("bench", "datapath")
      .field("jobs", report.jobs)
      .field("wall_seconds", report.seconds)
      .field("table4_all_on_speedup", all_on_speedup)
      .raw("rows", rows.str());
  write_json_file(args.out_dir + "/BENCH_datapath.json", doc.str());

  JsonObject gate_doc;
  gate_doc.field("bench", "datapath")
      .field("build", build_flavor())
      .field("quick", args.quick)
      .field("rounds", static_cast<std::uint64_t>(rounds))
      .field("table4_all_on_speedup", all_on_speedup)
      .field("min_datapath_speedup", args.min_datapath_speedup)
      .field("defaults_match_legacy", defaults_legacy)
      .field("gate_pass", ok && defaults_legacy)
      .raw("rows", gate_rows.str());
  write_json_file(args.out_dir + "/BENCH_datapath_gate.json", gate_doc.str());
  return ok && defaults_legacy;
}

// ---- prefetch --------------------------------------------------------------

struct AdaptaConfig {
  const char* name;
  std::size_t depth;   // fixed readahead depth (starting depth when adaptive)
  bool adaptive;       // AdaptaFetch controller + ensemble predictor
};

constexpr AdaptaConfig kAdaptaConfigs[] = {
    {"fixed-1", 1, false},   // the paper's one-ahead prototype
    {"fixed-4", 4, false},   // deeper but still open-loop
    {"adaptive", 1, true},   // feedback-driven, ensemble, max depth 8
};

// sequential: the paper's 8x8 M_RECORD interleave — mode-aware one-ahead
//   already predicts perfectly, so the only headroom is pipeline depth.
// strided: M_ASYNC self-scheduled stride-4 scan — the mode-aware predictor
//   declines async files, so only the ensemble's stride detector overlaps.
// listio: M_ASYNC list-I/O frames (gapped extent bursts) — a repeating
//   non-constant delta cycle only the list-I/O period detector locks on to.
struct AdaptaRow {
  const char* name;
  workload::AccessPattern pattern;
  pfs::IoMode mode;
  sim::SimTime compute_delay;
  std::uint64_t reads_per_node;   // full run; --quick halves this
};

constexpr AdaptaRow kAdaptaRows[] = {
    {"sequential", workload::AccessPattern::kInterleaved, pfs::IoMode::kRecord, 0.002, 64},
    {"strided", workload::AccessPattern::kStrided, pfs::IoMode::kAsync, 0.004, 64},
    {"listio", workload::AccessPattern::kListIo, pfs::IoMode::kAsync, 0.004, 64},
};

WorkloadSpec adapta_spec(const AdaptaRow& row, const AdaptaConfig& cfg, bool quick) {
  constexpr sim::ByteCount kReq = 64 * 1024;
  const int n = MachineSpec{}.ncompute;
  const std::uint64_t reads = quick ? row.reads_per_node / 2 : row.reads_per_node;

  WorkloadSpec w;
  w.mode = row.mode;
  w.pattern = row.pattern;
  w.request_size = kReq;
  w.compute_delay = row.compute_delay;
  w.prefetch = true;
  w.prefetch_cfg.depth = cfg.depth;
  w.prefetch_cfg.adaptive_depth = cfg.adaptive;
  w.prefetch_cfg.max_depth = 8;
  if (cfg.adaptive) w.prefetch_cfg.predictor = prefetch::PredictorKind::kEnsemble;

  switch (row.pattern) {
    case workload::AccessPattern::kStrided:
      w.stride = 4;
      // reads/node = file / (req * n * stride)
      w.file_size = kReq * n * w.stride * reads;
      break;
    case workload::AccessPattern::kListIo: {
      w.listio_extents = 4;
      // reads/node = (share / frame) * extents; pick share an exact frame
      // multiple so nothing is truncated.
      const sim::ByteCount frames = reads / w.listio_extents;
      w.file_size = workload::listio_frame_bytes(w) * frames * n;
      break;
    }
    default:
      w.file_size = kReq * n * reads;
      break;
  }
  return w;
}

// The AdaptaFetch efficiency gate, run both serially and with --jobs
// workers: every scenario digest, adaptive included, must be bit-identical
// between the two sweeps.
bool prefetch_section(const Args& args) {
  std::vector<exp::SweepJob> jobs;  // row-major, configs inner
  for (const AdaptaRow& row : kAdaptaRows) {
    for (const AdaptaConfig& cfg : kAdaptaConfigs) {
      jobs.push_back({std::string(row.name) + " " + cfg.name, MachineSpec{},
                      adapta_spec(row, cfg, args.quick)});
    }
  }
  const auto serial = exp::run_sweep(jobs, 1);
  const auto parallel = exp::run_sweep(jobs, args.jobs);
  const bool digests_identical = same_digests(serial, parallel);
  bool ok = digests_identical;
  double seq_speedup = 0, pattern_speedup = 0, min_useful = 1.0;
  JsonArray rows;
  if (ok) {
    std::size_t idx = 0;
    for (const AdaptaRow& row : kAdaptaRows) {
      double fixed1_bw = 0;
      for (const AdaptaConfig& cfg : kAdaptaConfigs) {
        const auto& o = serial.outcomes[idx++];
        const auto& pf = o.result.prefetch;
        if (&cfg == &kAdaptaConfigs[0]) fixed1_bw = o.result.observed_read_bw_mbs;
        const double ratio = fixed1_bw > 0 ? o.result.observed_read_bw_mbs / fixed1_bw : 0;
        if (cfg.adaptive) {
          if (&row == &kAdaptaRows[0]) {
            seq_speedup = ratio;
          } else {
            pattern_speedup = pattern_speedup == 0 ? ratio : std::min(pattern_speedup, ratio);
          }
          min_useful = std::min(min_useful, pf.useful_ratio());
        }
        std::printf("prefetch %-20s %7.2f MB/s (%.2fx fixed-1)  hit %5.1f%%  useful %5.1f%%\n",
                    o.label.c_str(), o.result.observed_read_bw_mbs, ratio,
                    pf.hit_ratio() * 100, pf.useful_ratio() * 100);
        JsonObject jrow = outcome_json(o);
        jrow.field("pattern", row.name)
            .field("config", cfg.name)
            .field("adaptive", cfg.adaptive)
            .field("speedup_vs_fixed1", ratio)
            .field("hit_ratio", pf.hit_ratio())
            .field("useful_ratio", pf.useful_ratio())
            .field("wasted_bytes", static_cast<std::uint64_t>(pf.wasted_bytes))
            .field("depth_ramp_ups", pf.depth_ramp_ups)
            .field("depth_ramp_downs", pf.depth_ramp_downs)
            .field("depth_collapses", pf.depth_collapses);
        rows.add(jrow);
      }
    }
    const bool seq_ok =
        floor_ok("adaptive sequential speedup", seq_speedup, args.min_prefetch_seq_speedup);
    const bool pattern_ok = floor_ok("adaptive pattern speedup", pattern_speedup,
                                     args.min_prefetch_pattern_speedup);
    const bool useful_ok =
        floor_ok("adaptive useful-prefetch ratio", min_useful, args.min_prefetch_useful_ratio);
    ok = seq_ok && pattern_ok && useful_ok;
  }
  std::printf("prefetch adaptive speedups: sequential %.2fx (floor %.2fx), worst pattern "
              "%.2fx (floor %.2fx), useful %.1f%% (floor %.1f%%), digests %s\n",
              seq_speedup, args.min_prefetch_seq_speedup, pattern_speedup,
              args.min_prefetch_pattern_speedup, min_useful * 100,
              args.min_prefetch_useful_ratio * 100,
              digests_identical ? "identical" : "DIVERGED");

  JsonObject doc;
  doc.field("bench", "prefetch_adaptive")
      .field("build", build_flavor())
      .field("quick", args.quick)
      .field("sequential_speedup", seq_speedup)
      .field("worst_pattern_speedup", pattern_speedup)
      .field("min_useful_ratio", min_useful)
      .field("min_prefetch_seq_speedup", args.min_prefetch_seq_speedup)
      .field("min_prefetch_pattern_speedup", args.min_prefetch_pattern_speedup)
      .field("min_prefetch_useful_ratio", args.min_prefetch_useful_ratio)
      .field("digests_identical", digests_identical)
      .field("gate_pass", ok)
      .raw("rows", rows.str());
  write_json_file(args.out_dir + "/BENCH_prefetch.json", doc.str());
  return ok;
}

// ---- scale -----------------------------------------------------------------

struct ScaleRow {
  const char* name;
  int ncompute;
  int nio;
  int tenants;
  std::uint64_t requests_per_client;
  bool full_only;  // skipped with --quick (the production-scale rows)
};

constexpr ScaleRow kScaleRows[] = {
    {"8x8", 8, 8, 4, 32, false},        // the paper's machine
    {"64x16", 64, 16, 8, 16, false},    // a full cabinet
    {"256x64", 256, 64, 16, 8, true},   // multi-cabinet
    {"1024x256", 1024, 256, 32, 8, true},  // production scale
};

MachineSpec scale_machine(const ScaleRow& row) {
  MachineSpec m;
  m.ncompute = row.ncompute;
  m.nio = row.nio;
  return m;
}

workload::OpenArrivalSpec scale_spec(const ScaleRow& row, bool quick) {
  workload::OpenArrivalSpec s;
  s.tenants = row.tenants;
  s.requests_per_client = quick ? row.requests_per_client / 2 : row.requests_per_client;
  if (s.requests_per_client == 0) s.requests_per_client = 1;
  s.request_size = 64 * 1024;
  // 2 MB per tenant bounds the host-side content store (32 tenants at the
  // 1024x256 row is 64 MB) while still giving 32 distinct request offsets.
  s.tenant_file_size = 2 * 1024 * 1024;
  s.mean_interarrival = 0.05;
  s.seed = 42;
  return s;
}

// The ScaleSim production-scale gate on scaled near-square meshes. Two
// gates per selected row — a host events/sec floor and a kernel bytes/event
// ceiling (the memory-lean contract: kernel footprint amortized per
// dispatched event must stay bounded however big the machine gets) — plus
// the sharded determinism contract: the largest row, node-partitioned into
// one shard per 64 compute nodes (at least 2), must produce the same merged
// digest with 1 worker and with --jobs workers.
bool scale_section(const Args& args) {
  bool ok = true;
  JsonArray rows;
  const ScaleRow* largest = nullptr;
  for (const ScaleRow& row : kScaleRows) {
    if (args.quick && row.full_only) continue;
    const double t0 = now_seconds();
    workload::ExperimentResult r;
    try {
      r = workload::run_open_arrival(scale_machine(row), scale_spec(row, args.quick));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ppfs_perf: scale row %s failed: %s\n", row.name, e.what());
      ok = false;
      continue;
    }
    const double secs = now_seconds() - t0;
    const double eps = secs > 0 ? static_cast<double>(r.events_dispatched) / secs : 0;
    const std::uint64_t completed = r.reads + r.writes;
    largest = &row;
    std::printf("scale   %-10s %9llu reads  %9.0f events/s  %6.1f B/event  p95 %.3fs\n",
                row.name, (unsigned long long)completed, eps, r.bytes_per_event,
                r.read_latencies.percentile(95));
    if (completed != r.issued || r.faults.app_errors != 0) {
      std::fprintf(stderr, "ppfs_perf: scale row %s lost requests (%llu/%llu, %llu errors)\n",
                   row.name, (unsigned long long)completed,
                   (unsigned long long)r.issued, (unsigned long long)r.faults.app_errors);
      ok = false;
    }
    ok = floor_ok(std::string("scale row ") + row.name + " events/s", eps,
                  args.min_scale_events_per_sec) && ok;
    if (args.max_scale_bytes_per_event > 0 &&
        r.bytes_per_event > args.max_scale_bytes_per_event) {
      std::fprintf(stderr, "ppfs_perf: scale row %s above bytes/event ceiling (%.1f > %.1f)\n",
                   row.name, r.bytes_per_event, args.max_scale_bytes_per_event);
      ok = false;
    }
    JsonObject o;
    o.field("machine", row.name)
        .field("ncompute", row.ncompute)
        .field("nio", row.nio)
        .field("issued", r.issued)
        .field("completed", completed)
        .field("backlogged", r.backlogged)
        .field("events", r.events_dispatched)
        .field("events_per_sec", eps)
        .field("bytes_per_event", r.bytes_per_event)
        .field("peak_pending_events", r.peak_pending_events)
        .field("machine_state_bytes", r.machine_state_bytes)
        .field("latency_p50", r.read_latencies.median())
        .field("latency_p95", r.read_latencies.percentile(95))
        .field("digest", fmt_digest(r.digest))
        .field("seconds", secs);
    rows.add(o);
  }

  bool sharded_match = true;
  JsonObject sharded;
  if (largest != nullptr) {
    const int shards = std::max(2, largest->ncompute / 64);
    const auto spec = scale_spec(*largest, args.quick);
    const auto sh_serial = exp::run_sharded_scale(scale_machine(*largest), spec, shards, 1);
    const auto sh_parallel =
        exp::run_sharded_scale(scale_machine(*largest), spec, shards, args.jobs);
    sharded_match = sh_serial.all_ok() && sh_parallel.all_ok() &&
                    sh_serial.merged_digest == sh_parallel.merged_digest;
    if (!sharded_match) {
      std::fprintf(stderr,
                   "ppfs_perf: sharded %s merged digest depends on worker count "
                   "(%016llx vs %016llx)\n",
                   largest->name, (unsigned long long)sh_serial.merged_digest,
                   (unsigned long long)sh_parallel.merged_digest);
      ok = false;
    }
    std::printf("scale   sharded %s: %d shards, merged digest %s (1 vs %d workers)\n",
                largest->name, shards, sharded_match ? "identical" : "DIVERGED", args.jobs);
    sharded.field("machine", largest->name)
        .field("shards", shards)
        .field("jobs", args.jobs)
        .field("digest_serial", fmt_digest(sh_serial.merged_digest))
        .field("digest_parallel", fmt_digest(sh_parallel.merged_digest))
        .field("match", sharded_match)
        .field("completed", sh_serial.completed)
        .field("events", sh_serial.events_dispatched)
        .field("seconds_serial", sh_serial.seconds)
        .field("seconds_parallel", sh_parallel.seconds);
  }

  JsonObject doc;
  doc.field("bench", "scale")
      .field("build", build_flavor())
      .field("hardware_concurrency", hardware_threads())
      .field("quick", args.quick)
      .field("min_scale_events_per_sec", args.min_scale_events_per_sec)
      .field("max_scale_bytes_per_event", args.max_scale_bytes_per_event)
      .field("sharded_digests_identical", sharded_match)
      .field("gate_pass", ok)
      .raw("rows", rows.str())
      .raw("sharded", sharded.str());
  write_json_file(args.out_dir + "/BENCH_scale.json", doc.str());
  return ok;
}

// ---- write -----------------------------------------------------------------

struct WriteRow {
  const char* name;
  int writers;
  bool conflicting;  // every writer targets the same records each round
};

constexpr WriteRow kWriteRows[] = {
    {"1 writer own", 1, false},   {"2 writers own", 2, false},
    {"4 writers own", 4, false},  {"8 writers own", 8, false},
    {"2 writers conflict", 2, true},
    {"4 writers conflict", 4, true},
    {"8 writers conflict", 8, true},
};

// TokenWrite checkpoint scaling. Own-slot writers each hold a disjoint
// record range, buffer locally under byte-range tokens and stream their
// flushes in parallel, so simulated (not wall-clock) write bandwidth must
// scale with writers; conflicting writers serialize on token revocation and
// flatten. Every row must verify byte-exact against the write-back/token
// coherence machinery.
bool write_section(const Args& args) {
  JsonArray rows;
  double bw1 = 0, bw8 = 0;
  bool verify_ok = true;
  for (const WriteRow& row : kWriteRows) {
    workload::WriteWorkloadSpec spec;
    spec.kind = workload::WriteWorkloadKind::kCheckpoint;
    spec.writers = row.writers;
    spec.conflicting = row.conflicting;
    spec.rounds = args.quick ? 4 : 8;
    spec.request_size = 256 * 1024;
    spec.machine.ncompute = 8;
    const auto r = run_write_workload(spec);
    const auto& tc = r.token_cache;
    verify_ok = verify_ok && r.verify_failures == 0;
    if (!row.conflicting && row.writers == 1) bw1 = r.observed_write_bw_mbs;
    if (!row.conflicting && row.writers == 8) bw8 = r.observed_write_bw_mbs;
    std::printf("write   %-20s %8.2f MB/s  %5llu token RPCs  %5llu revocations  verify %s\n",
                row.name, r.observed_write_bw_mbs, (unsigned long long)r.rpc.token_rpcs,
                (unsigned long long)tc.revocations, r.verify_failures == 0 ? "ok" : "FAIL");
    JsonObject jrow;
    jrow.field("label", row.name)
        .field("writers", row.writers)
        .field("conflicting", row.conflicting)
        .field("write_bw_mbs", r.observed_write_bw_mbs)
        .field("wall_bw_mbs", r.wall_bw_mbs)
        .field("bytes_written", r.bytes_written)
        .field("token_rpcs", r.rpc.token_rpcs)
        .field("token_local_grants", tc.local_grants)
        .field("token_grants", r.token_grants)
        .field("token_revocations", tc.revocations)
        .field("token_splits", r.token_splits)
        .field("wb_flush_ops", tc.flush_ops)
        .field("wb_flushed_bytes", tc.flushed_bytes)
        .field("wb_peak_dirty_bytes", tc.peak_dirty_bytes)
        .field("events", r.events_dispatched)
        .field("digest", fmt_digest(r.digest))
        .field("verify_failures", r.verify_failures);
    rows.add(jrow);
  }
  const double scaling = bw1 > 0 ? bw8 / bw1 : 0.0;
  const bool scaling_ok = floor_ok("write 1->8 own-slot scaling", scaling, args.min_write_scaling);
  std::printf("write   own-slot scaling 1->8 writers %.2fx (floor %.2fx: %s), verify %s\n",
              scaling, args.min_write_scaling, scaling_ok ? "pass" : "FAIL",
              verify_ok ? "pass" : "FAIL");

  JsonObject doc;
  doc.field("bench", "write_scaling")
      .field("min_write_scaling", args.min_write_scaling)
      .field("gated_scaling_1_to_8", scaling)
      .field("verify_ok", verify_ok)
      .raw("rows", rows.str());
  write_json_file(args.out_dir + "/BENCH_write.json", doc.str());
  return scaling_ok && verify_ok;
}

// ---- recovery --------------------------------------------------------------

struct TierConfig {
  const char* name;
  bool tier = false;
  bool crash = false;
  std::uint64_t capacity = 1024;  // blocks
  cache::EvictionKind eviction = cache::EvictionKind::kLru;
};

constexpr TierConfig kTierConfigs[] = {
    {"no-tier healthy", false, false},
    {"tier healthy", true, false},
    {"no-tier crash", false, true},
    {"tier crash", true, true},  // the gated row
    {"tier crash cap=16", true, true, 16},
    {"tier crash fifo", true, true, 1024, cache::EvictionKind::kFifo},
};

// DuraCache crash recovery on the sequential 8x8 workload. The crash lands
// mid-read-phase, so the tier's value shows as a recovery that is a journal
// replay instead of a cold cache, and as a warm hit ratio on the reads
// served after the node comes back. The gate: the "tier crash" row reaches
// warm_hit_ratio >= 0.5 after a replay that took time and restored blocks,
// and no row has a verify failure.
bool recovery_section(const Args& args) {
  // M_RECORD, 64K records, every I/O node in the group. 16M / 64K = 32
  // blocks per stripe file, so the populate phase crosses the journal flush
  // interval (8) four times per node — the journal is complete when the
  // crash hits. The compute delay stretches the read phase so the crash
  // (t=0.02, outage 0.05) lands mid-run with a post-restart tail to measure.
  WorkloadSpec base;
  base.mode = pfs::IoMode::kRecord;
  base.request_size = 64 * 1024;
  base.file_size = args.quick ? 8 * 1024 * 1024 : 16 * 1024 * 1024;
  base.compute_delay = 0.002;
  base.verify = true;

  std::vector<exp::SweepJob> jobs;
  for (const TierConfig& c : kTierConfigs) {
    MachineSpec m;
    m.pfs.ufs.cache_tier.enabled = c.tier;
    m.pfs.ufs.cache_tier.capacity_blocks = c.capacity;
    m.pfs.ufs.cache_tier.eviction = c.eviction;
    WorkloadSpec w = base;
    if (c.crash) w.faults = fault::parse_plan("crash:io=1,at=0.02,outage=0.05");
    jobs.push_back({c.name, m, w});
  }
  const auto report = exp::run_sweep(jobs, args.jobs);
  bool ok = finish_sweep(report) == 0;

  JsonArray rows;
  double warm_ratio = -1;
  sim::SimTime recovery_time = 0;
  std::uint64_t recovered_blocks = 0;
  std::uint64_t verify_failures = 0;
  if (ok) {
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const auto& o = report.outcomes[i];
      const auto& r = o.result;
      const TierConfig& c = kTierConfigs[i];
      verify_failures += r.verify_failures;
      if (std::string_view(c.name) == "tier crash") {
        warm_ratio = r.cache.warm_hit_ratio();
        recovery_time = r.cache.total_recovery_time;
        recovered_blocks = r.cache.recovered_blocks;
      }
      std::printf("recovery %-18s %7.2f MB/s  recovery %.3fms  warm %llu/%llu  verify %s\n",
                  c.name, r.observed_read_bw_mbs, r.cache.total_recovery_time * 1e3,
                  (unsigned long long)r.cache.warm_hits,
                  (unsigned long long)r.cache.warm_lookups,
                  r.verify_failures == 0 ? "ok" : "FAIL");
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
  }
  const bool warm_ok = floor_ok("recovery tier-crash warm hit ratio", warm_ratio, 0.5);
  const bool replay_ok = recovery_time > 0 && recovered_blocks > 0;
  std::printf("recovery tier crash: warm ratio %.3f (floor 0.50: %s), replay %.3fms for %llu "
              "blocks (%s), verify failures %llu (%s)\n",
              warm_ratio, warm_ok ? "pass" : "FAIL", recovery_time * 1e3,
              (unsigned long long)recovered_blocks, replay_ok ? "pass" : "FAIL",
              (unsigned long long)verify_failures, verify_failures == 0 ? "pass" : "FAIL");

  JsonObject doc;
  doc.field("bench", "recovery")
      .field("jobs", report.jobs)
      .field("wall_seconds", report.seconds)
      .field("gated_warm_hit_ratio", warm_ratio)
      .field("gated_recovery_time_s", static_cast<double>(recovery_time))
      .field("gated_recovered_blocks", recovered_blocks)
      .raw("rows", rows.str());
  write_json_file(args.out_dir + "/BENCH_recovery.json", doc.str());
  return ok && warm_ok && replay_ok && verify_failures == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  bool ok = kernel_section(args);
  ok &= sweep_section(args);
  ok &= datapath_section(args);
  ok &= prefetch_section(args);
  ok &= scale_section(args);
  ok &= write_section(args);
  ok &= recovery_section(args);
  std::printf("ppfs_perf: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
