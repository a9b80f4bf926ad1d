#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "spans.hpp"

namespace pfsbench {

double host_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double Samples::percentile(double p) const {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(s.size())));
  return s[std::clamp<std::size_t>(rank, 1, s.size()) - 1];
}

void drain(Rig& rig, const char* what) {
  {
    HostSpan span(rig.spans, rig.sim, "Simulation::run");
    rig.sim.run();
  }
  if (rig.sim.live_processes() != 0) {
    throw std::runtime_error(std::string(what) + ": a simulated process never finished");
  }
}

Counters snapshot(Rig& rig) {
  Counters c;
  c["sim.events"] = static_cast<double>(rig.sim.events_dispatched());
  auto& mesh = rig.machine->mesh();
  c["hw.mesh.sends"] = static_cast<double>(mesh.messages());
  c["hw.mesh.segments"] = static_cast<double>(mesh.segments_sent());
  c["hw.mesh.bytes"] = static_cast<double>(mesh.bytes_moved());
  for (int io = 0; io < rig.machine->io_node_count(); ++io) {
    auto& raid = rig.machine->raid(io);
    c["hw.raid.transfers"] += static_cast<double>(raid.ops());
    c["hw.raid.bytes"] += static_cast<double>(raid.bytes_transferred());
    c["hw.disk.count"] += static_cast<double>(raid.member_count());
    for (std::size_t m = 0; m < raid.member_count(); ++m) {
      auto& disk = raid.member(m);
      c["hw.disk.ops"] += static_cast<double>(disk.ops());
      c["hw.disk.busy_s"] += disk.busy_time();
      c["hw.disk.seq_hits"] += static_cast<double>(disk.sequential_hits());
    }
    auto& server = rig.fs->server(io);
    const auto& u = server.ufs().stats();
    c["ufs.reads"] += static_cast<double>(u.reads);
    c["ufs.writes"] += static_cast<double>(u.writes);
    c["ufs.disk_runs"] += static_cast<double>(u.disk_runs);
    c["ufs.coalesced_blocks"] += static_cast<double>(u.coalesced_blocks);
    c["ufs.bytes_read"] += static_cast<double>(u.bytes_read);
    c["ufs.bytes_written"] += static_cast<double>(u.bytes_written);
    c["pfs.server.batch_sweeps"] += static_cast<double>(server.batch_sweeps());
    c["pfs.server.batched_extents"] += static_cast<double>(server.batched_extents());
  }
  for (const auto& cl : rig.clients) {
    const auto& rpc = cl->rpc_stats();
    c["pfs.client.reads"] += static_cast<double>(cl->stats().reads);
    c["pfs.client.writes"] += static_cast<double>(cl->stats().writes);
    c["pfs.client.bytes_read"] += static_cast<double>(cl->stats().bytes_read);
    c["pfs.client.bytes_written"] += static_cast<double>(cl->stats().bytes_written);
    c["pfs.client.data_rpcs"] += static_cast<double>(rpc.data_rpcs);
    c["pfs.client.metadata_rpcs"] += static_cast<double>(rpc.metadata_rpcs);
    c["pfs.client.pointer_rpcs"] += static_cast<double>(rpc.pointer_rpcs);
    c["pfs.client.coalesced_rpcs"] += static_cast<double>(rpc.coalesced_rpcs);
    c["pfs.client.coalesced_extents"] += static_cast<double>(rpc.coalesced_extents);
    c["pfs.token.rpcs"] += static_cast<double>(rpc.token_rpcs);
    const auto& ts = cl->token_stats();
    c["pfs.token.local_grants"] += static_cast<double>(ts.local_grants);
    c["pfs.token.revocations"] += static_cast<double>(ts.revocations);
    c["pfs.wb.flush_ops"] += static_cast<double>(ts.flush_ops);
    c["pfs.wb.flushed_bytes"] += static_cast<double>(ts.flushed_bytes);
    c["pfs.wb.revocation_flushes"] += static_cast<double>(ts.revocation_flushes);
    c["pfs.wb.peak_dirty_bytes"] =
        std::max(c["pfs.wb.peak_dirty_bytes"], static_cast<double>(ts.peak_dirty_bytes));
  }
  for (const auto& e : rig.engines) {
    if (!e) continue;
    const auto& st = e->stats();
    c["prefetch.issued"] += static_cast<double>(st.issued);
    c["prefetch.hits_ready"] += static_cast<double>(st.hits_ready);
    c["prefetch.hits_in_flight"] += static_cast<double>(st.hits_in_flight);
    c["prefetch.misses"] += static_cast<double>(st.misses);
    c["prefetch.wait_s"] += st.wait_time;
  }
  return c;
}

Outcome run_rep(const Workload& w, const Options& opt, ppfs::trace::TraceSink* sink,
                Spans* spans) {
  Outcome out;
  const double h0 = host_now();
  auto rig = std::make_unique<Rig>();
  rig->sim.set_trace_sink(sink);
  rig->spans = spans;
  rig->inject_mismatch = opt.inject_mismatch;
  w.build(*rig, opt);
  w.write_inputs(*rig, opt, out);
  out.setup_s = host_now() - h0;
  if (spans) {
    spans->sim_span("phase", "setup", 0, 0, 0, rig->sim.now());
    spans->host_span("setup", h0, h0 + out.setup_s, 0);
  }

  const Counters before = snapshot(*rig);
  out.phase_begin = rig->sim.now();
  const double h1 = host_now();
  w.timed(*rig, opt, out);
  out.run_s = host_now() - h1;
  out.phase_end = rig->sim.now();
  if (spans) {
    spans->sim_span("phase", "timed", 0, 0, out.phase_begin, out.phase_end);
    spans->host_span("timed phase", h1, h1 + out.run_s, out.phase_begin);
  }

  out.total = snapshot(*rig);
  for (const auto& [k, v] : out.total) out.timed[k] = v - before.at(k);
  // High-water marks are not differences.
  out.timed["pfs.wb.peak_dirty_bytes"] = out.total["pfs.wb.peak_dirty_bytes"];
  out.total["sim.peak_pending_events"] = static_cast<double>(rig->sim.peak_pending_events());
  out.timed["sim.peak_pending_events"] = out.total["sim.peak_pending_events"];
  out.digest = rig->sim.digest();
  return out;
}

}  // namespace pfsbench
