// pfsbench: one workload, one seed, one process.
//
//   pfsbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//            [--no-prefetch] [--inject-mismatch]
//
// Repetition i runs sub-load i mod kSubLoads, a load whose seed is derived
// from N (sub-load 0 is N itself). --trace 0 repeats until S host seconds
// have passed and reports the end-to-end metrics. --trace 1 runs one round
// over the sub-loads and a repeat of sub-load 0, then a traced repetition
// of sub-load 0 and the layer-isolated drivers, and reports the per-layer
// metrics; it writes three Chrome traces to DIR.
//
// The last stdout line is one JSON object: workload, seed, repetitions,
// digests, correctness counts and every metric by name. The exit status is
// 1 when any operation failed or was corrupt, or when a digest differs
// between repetitions or between the traced and untraced runs.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"

namespace pfsbench {
namespace {

namespace trace = ppfs::trace;

using Metrics = std::map<std::string, double>;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: pfsbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--no-prefetch] [--inject-mismatch]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--out") {
        o.out_dir = value();
      } else if (a == "--no-prefetch") {
        o.prefetch = false;
      } else if (a == "--inject-mismatch") {
        o.inject_mismatch = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double get(const Counters& c, const char* key) {
  const auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// The number of sub-loads a run cycles through. sim_read_mbs is their
/// median: on scale_open_arrival it follows the slowest of 1024 clients and
/// moves 5.5% (IQR/median over seeds) for one load, 2.4% for the median of
/// 16. The other workloads' simulated results barely depend on the seed.
constexpr std::size_t kSubLoads = 16;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  return seed + j * 0x9e3779b97f4a7c15ull;
}

double sim_read_mbs(const Outcome& o) {
  return ppfs::sim::megabytes_per_second(o.bytes_read, o.max_read_time);
}

/// The end-to-end metrics of one workload. Simulated ones come from
/// sub-load 0 (every repetition of a sub-load repeats them exactly), except
/// sim_read_mbs, the median over the sub-loads.
void end_to_end(const std::vector<Outcome>& reps, double setup_s, double run_s, Metrics& m) {
  const Outcome& o = reps.front();
  std::vector<double> mbs;
  for (std::size_t j = 0; j < kSubLoads; ++j) mbs.push_back(sim_read_mbs(reps[j]));
  m["setup_s"] = setup_s;
  m["run_s"] = run_s;
  m["peak_rss_mb"] = peak_rss_mb();
  m["sim_read_mbs"] = median(mbs);
  m["sim_read_p50_ms"] = o.read_lat.percentile(50) * 1e3;
  m["sim_read_p99_ms"] = o.read_lat.percentile(99) * 1e3;
  m["sim_write_mbs"] = ppfs::sim::megabytes_per_second(o.bytes_written, o.max_write_time);
  m["sim_write_p50_ms"] = o.write_lat.percentile(50) * 1e3;
  m["sim_write_p99_ms"] = o.write_lat.percentile(99) * 1e3;
  m["sim_backlog_ratio"] = ratio(static_cast<double>(o.backlogged),
                                 static_cast<double>(o.arrivals));
  m["fail_ratio"] = ratio(static_cast<double>(o.fault_ops + o.verify_failures),
                          static_cast<double>(o.ops));
}

/// Exact p50/p99 (ms) of the data RPC envelopes, plain or scatter-gather,
/// among `records`.
std::pair<double, double> data_rpc_latency(const std::vector<trace::TraceRecord>& records) {
  std::map<std::uint64_t, double> open;
  Samples lat;
  for (const auto& r : records) {
    if (r.track != trace::TraceTrack::kRpc ||
        (r.event != trace::code::kRpcData && r.event != trace::code::kRpcCoalesced)) {
      continue;
    }
    if (r.kind == trace::TraceKind::kSpanBegin) {
      open[r.id] = r.ts;
    } else if (r.kind == trace::TraceKind::kSpanEnd) {
      const auto it = open.find(r.id);
      if (it == open.end()) continue;  // began before the window
      lat.add(r.ts - it->second);
      open.erase(it);
    }
  }
  return {lat.percentile(50) * 1e3, lat.percentile(99) * 1e3};
}

void per_layer(const Outcome& t, const trace::TraceSink& sink, const Spans& spans,
               const LayerCosts& lc, double setup_s, double run_s, bool prefetch_on,
               Metrics& m) {
  const Counters& d = t.timed;
  const Counters& all = t.total;

  // Simulated per-layer numbers over the timed phase of the traced run.
  std::vector<trace::TraceRecord> window;
  for (const auto& r : trace::snapshot(sink)) {
    if (r.ts < t.phase_begin) continue;
    auto shifted = r;
    shifted.ts -= t.phase_begin;
    window.push_back(shifted);
  }
  const trace::TraceMetrics tm = trace::compute_metrics(window);
  const auto& links = tm.utilization[static_cast<std::size_t>(trace::TraceTrack::kMeshLink)];
  const auto& sweeps = tm.utilization[static_cast<std::size_t>(trace::TraceTrack::kServer)];
  const double phase_s = t.phase_end - t.phase_begin;

  m["sim.events"] = get(d, "sim.events");
  m["sim.events_per_s"] = ratio(get(d, "sim.events"), run_s);
  m["sim.host_ns_per_event"] = lc.sim.incl_ns;
  m["sim.peak_pending_events"] = get(all, "sim.peak_pending_events");

  m["hw.mesh.sends"] = get(d, "hw.mesh.sends");
  m["hw.mesh.segments"] = get(d, "hw.mesh.segments");
  m["hw.mesh.link_busy_s"] = links.busy_s;
  m["hw.mesh.link_util_peak"] = links.peak;
  m["hw.mesh.host_ns_per_send"] = lc.mesh.incl_ns;

  m["hw.disk.ops"] = get(d, "hw.disk.ops");
  m["hw.disk.busy_s"] = get(d, "hw.disk.busy_s");
  m["hw.disk.util_avg"] = ratio(get(d, "hw.disk.busy_s"), phase_s * get(all, "hw.disk.count"));
  m["hw.disk.seq_ratio"] = ratio(get(d, "hw.disk.seq_hits"), get(d, "hw.disk.ops"));
  m["hw.raid.host_ns_per_transfer"] = lc.raid.incl_ns;

  m["ufs.reads"] = get(d, "ufs.reads");
  m["ufs.writes"] = get(d, "ufs.writes");
  m["ufs.disk_runs"] = get(d, "ufs.disk_runs");
  m["ufs.coalesced_blocks"] = get(d, "ufs.coalesced_blocks");
  m["ufs.host_ns_per_byte_read"] = ratio(lc.ufs_read.incl_ns, lc.ufs_read_bytes);
  m["ufs.host_ns_per_byte_write"] = ratio(lc.ufs_write.incl_ns, lc.ufs_write_bytes);

  const double data_rpcs = get(d, "pfs.client.data_rpcs");
  const auto [rpc_p50, rpc_p99] = data_rpc_latency(window);
  m["pfs.client.data_rpcs"] = data_rpcs;
  m["pfs.client.metadata_rpcs"] = get(d, "pfs.client.metadata_rpcs");
  m["pfs.client.pointer_rpcs"] = get(d, "pfs.client.pointer_rpcs");
  m["pfs.client.extents_per_rpc"] =
      ratio(data_rpcs - get(d, "pfs.client.coalesced_rpcs") +
                get(d, "pfs.client.coalesced_extents"),
            data_rpcs);
  m["pfs.rpc.data_p50_ms"] = rpc_p50;
  m["pfs.rpc.data_p99_ms"] = rpc_p99;
  m["pfs.client.host_ns_per_read"] = lc.client_read.incl_ns;
  m["pfs.client.host_ns_per_write"] = lc.client_write.incl_ns;

  m["pfs.server.batch_sweeps"] = get(d, "pfs.server.batch_sweeps");
  m["pfs.server.extents_per_sweep"] =
      ratio(get(d, "pfs.server.batched_extents"), get(d, "pfs.server.batch_sweeps"));
  m["pfs.server.sweep_busy_s"] = sweeps.busy_s;

  const double token_rpcs = get(d, "pfs.token.rpcs");
  const auto& token_lat = tm.rpc[4];  // the kRpcToken slot
  m["pfs.token.rpcs"] = token_rpcs;
  m["pfs.token.local_grant_ratio"] =
      ratio(get(d, "pfs.token.local_grants"), get(d, "pfs.token.local_grants") + token_rpcs);
  m["pfs.token.revocations"] = get(d, "pfs.token.revocations");
  m["pfs.token.rpc_p50_ms"] = token_lat.p50 * 1e3;
  m["pfs.token.rpc_p99_ms"] = token_lat.p99 * 1e3;
  m["pfs.token.host_ns_per_acquire"] = lc.token.incl_ns;

  m["pfs.wb.flush_ops"] = get(d, "pfs.wb.flush_ops");
  m["pfs.wb.flushed_mb"] = get(d, "pfs.wb.flushed_bytes") / 1e6;
  m["pfs.wb.revocation_flushes"] = get(d, "pfs.wb.revocation_flushes");
  m["pfs.wb.peak_dirty_kb"] = get(d, "pfs.wb.peak_dirty_bytes") / 1024.0;

  const double hits = get(d, "prefetch.hits_ready") + get(d, "prefetch.hits_in_flight");
  m["prefetch.issued"] = get(d, "prefetch.issued");
  m["prefetch.hits_ready"] = get(d, "prefetch.hits_ready");
  m["prefetch.hits_in_flight"] = get(d, "prefetch.hits_in_flight");
  m["prefetch.misses"] = get(d, "prefetch.misses");
  m["prefetch.hit_ratio"] = ratio(hits, hits + get(d, "prefetch.misses"));
  m["prefetch.useful_ratio"] = ratio(hits, get(d, "prefetch.issued"));
  m["prefetch.wait_ms"] = get(d, "prefetch.wait_s") * 1e3;
  m["prefetch.occupancy_avg"] = tm.occupancy.avg_buffers;
  m["prefetch.host_ns_per_read_overhead"] = lc.prefetch_overhead_ns;

  const double fill_s = spans.host_total("workload::fill_pattern");
  const double verify_s = spans.host_total("workload::find_pattern_mismatch");
  m["workload.pattern.fill_mb"] = static_cast<double>(t.fill_bytes) / 1e6;
  m["workload.pattern.fill_ns_per_byte"] = lc.fill_ns_per_byte;
  m["workload.pattern.verify_mb"] = static_cast<double>(t.verify_bytes) / 1e6;
  m["workload.pattern.verify_ns_per_byte"] = lc.verify_ns_per_byte;
  m["workload.pattern.host_share"] = ratio(fill_s + verify_s, t.setup_s + t.run_s);

  m["trace.records"] = static_cast<double>(sink.size());
  m["trace.overhead_ratio"] = ratio(t.run_s, run_s);

  // Host attribution: each layer's self cost times its op count over the
  // whole traced repetition, as a share of the untraced setup_s + run_s.
  const double host_ns = (setup_s + run_s) * 1e9;
  const double client_reads = get(all, "pfs.client.reads");
  const std::vector<std::pair<const char*, double>> self_ns = {
      {"host.sim.share", get(all, "sim.events") * lc.sim.self_ns},
      {"host.hw.mesh.share", get(all, "hw.mesh.sends") * lc.mesh.self_ns},
      {"host.hw.raid.share", get(all, "hw.raid.transfers") * lc.raid.self_ns},
      {"host.ufs.share", get(all, "ufs.reads") * lc.ufs_read.self_ns +
                             get(all, "ufs.writes") * lc.ufs_write.self_ns},
      {"host.pfs.client.share", client_reads * lc.client_read.self_ns +
                                    get(all, "pfs.client.writes") * lc.client_write.self_ns},
      {"host.pfs.token.share", get(all, "pfs.token.rpcs") * lc.token.self_ns},
      {"host.prefetch.share", prefetch_on ? client_reads * lc.prefetch_overhead_ns : 0.0},
      {"host.workload.pattern.share",
       static_cast<double>(t.fill_bytes) * lc.fill_ns_per_byte +
           static_cast<double>(t.verify_bytes) * lc.verify_ns_per_byte},
  };
  double attributed = 0;
  for (const auto& [name, ns] : self_ns) {
    m[name] = ratio(ns, host_ns);
    attributed += m[name];
  }
  m["host.unattributed_share"] = 1.0 - attributed;
  m["host.sim.self_ns_per_event"] = lc.sim.self_ns;
  m["host.hw.mesh.self_ns_per_send"] = lc.mesh.self_ns;
  m["host.hw.raid.self_ns_per_transfer"] = lc.raid.self_ns;
  m["host.ufs.self_ns_per_byte_read"] = ratio(lc.ufs_read.self_ns, lc.ufs_read_bytes);
  m["host.ufs.self_ns_per_byte_write"] = ratio(lc.ufs_write.self_ns, lc.ufs_write_bytes);
  m["host.pfs.client.self_ns_per_read"] = lc.client_read.self_ns;
  m["host.pfs.client.self_ns_per_write"] = lc.client_write.self_ns;
  m["host.pfs.token.self_ns_per_acquire"] = lc.token.self_ns;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

int run(const Options& opt) {
  const Workload* w = find_workload(opt.workload);
  if (!w) usage("unknown workload " + opt.workload);

  Metrics m;
  std::vector<Outcome> reps;
  std::vector<std::string> files;
  std::uint64_t traced_digest = 0;
  std::uint64_t attempted = 0, failed = 0;
  const double t0 = host_now();
  // One round over the sub-loads and a repeat of sub-load 0 for the digest
  // gate, then (untraced) more rounds until --seconds have passed.
  while (reps.size() <= kSubLoads || (!opt.trace && host_now() - t0 < opt.seconds)) {
    Options sub = opt;
    sub.seed = sub_seed(opt.seed, reps.size() % kSubLoads);
    reps.push_back(run_rep(*w, sub, nullptr, nullptr));
    if (reps.size() > 1) {
      // Only the first repetition's samples and counters are reported; keep
      // no more, so peak_rss_mb does not grow with the repetition count.
      Outcome& o = reps.back();
      o.read_lat = o.write_lat = Samples{};
      o.total = o.timed = Counters{};
    }
  }
  // setup_s is the median repetition. run_s is the fastest: a shared host
  // can drift between a fast and a ~1.6x slower state for seconds at a
  // time, so a median follows whichever state dominated the run, while the
  // fastest of many identical repetitions is closest to the code's own cost.
  std::vector<double> setup;
  double run_s = reps.front().run_s;
  for (const auto& r : reps) {
    setup.push_back(r.setup_s);
    run_s = std::min(run_s, r.run_s);
  }
  const double setup_s = median(setup);
  end_to_end(reps, setup_s, run_s, m);

  if (opt.trace) {
    trace::TraceSink sink;
    Spans spans;
    const Outcome t = run_rep(*w, opt, &sink, &spans);
    traced_digest = t.digest;
    attempted += t.ops;
    failed += t.fault_ops + t.verify_failures;
    const bool prefetch_on = get(t.total, "prefetch.issued") > 0;
    const bool tokens_on = get(t.total, "pfs.token.rpcs") > 0;
    const LayerCosts lc = measure_layers(*w, opt, t.total, prefetch_on, tokens_on);
    per_layer(t, sink, spans, lc, setup_s, run_s, prefetch_on, m);

    std::filesystem::create_directories(opt.out_dir);
    const std::string base = opt.out_dir + "/" + opt.workload;
    files = {base + ".sim.json", base + ".calls.json", base + ".host.json"};
    if (!trace::write_chrome_json_file(sink, files[0]) || !spans.write_sim(files[1]) ||
        !spans.write_host(files[2])) {
      std::fprintf(stderr, "error: cannot write traces under %s\n", opt.out_dir.c_str());
      return 1;
    }
  }

  // --- correctness gate ---
  bool same = true;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].ops;
    failed += reps[i].fault_ops + reps[i].verify_failures;
    same = same && reps[i].digest == reps[i % kSubLoads].digest;
  }
  const bool traced_same = !opt.trace || traced_digest == reps.front().digest;
  const bool correct = failed == 0 && same && traced_same && attempted > 0;

  std::printf("pfsbench: workload=%s seed=%" PRIu64 " reps=%zu ops/rep=%" PRIu64
              " digest=%s%s%s\n",
              opt.workload.c_str(), opt.seed, reps.size(), reps.front().ops,
              hex(reps.front().digest).c_str(), opt.trace ? " traced_digest=" : "",
              opt.trace ? hex(traced_digest).c_str() : "");
  if (!same) std::printf("pfsbench: FAIL: digests differ between repetitions of a load\n");
  if (!traced_same) std::printf("pfsbench: FAIL: traced digest differs from untraced\n");
  if (failed) std::printf("pfsbench: FAIL: %" PRIu64 " failed or corrupt operations\n", failed);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"reps\":%zu,\"digests\":[",
              opt.workload.c_str(), opt.seed, reps.size());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", hex(reps[i].digest).c_str());
  }
  std::printf("],\"traced_digest\":%s,\"correct\":%s,\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"trace_files\":[",
              opt.trace ? ("\"" + hex(traced_digest) + "\"").c_str() : "null",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", files[i].c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pfsbench

int main(int argc, char** argv) {
  try {
    return pfsbench::run(pfsbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfsbench: error: %s\n", e.what());
    return 1;
  }
}
