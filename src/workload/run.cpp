#include "workload/run.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "sim/check/audit.hpp"
#include "sim/frame_arena.hpp"
#include "sim/when_all.hpp"

namespace ppfs::workload {

namespace {

sim::Simulation& with_sink(sim::Simulation& sim, trace::TraceSink* sink) {
  sim.set_trace_sink(sink);
  return sim;
}

hw::MachineConfig machine_config(const MachineSpec& m, MeshLayout layout) {
  hw::MachineConfig cfg = layout == MeshLayout::kScaled
                              ? hw::MachineConfig::paragon_scaled(m.ncompute, m.nio, m.raid)
                              : hw::MachineConfig::paragon(m.ncompute, m.nio, m.raid);
  cfg.compute_cpu = m.compute_cpu;
  cfg.io_cpu = m.io_cpu;
  cfg.mesh.mtu = m.mesh_mtu;
  return cfg;
}

/// Write `size` bytes (patterned when `tag` is set, zeros otherwise) into
/// an existing PFS file through the full stack, in 1 MB fast-path chunks.
/// `name` is taken by value: the Task is stored and awaited later, so a
/// reference to a caller temporary would dangle.
sim::Task<void> fill_file(pfs::PfsClient& loader, std::string name, ByteCount size,
                          std::optional<std::uint64_t> tag) {
  const int fd = co_await loader.open(name, pfs::IoMode::kAsync);
  const ByteCount chunk = std::min<ByteCount>(size, 1024 * 1024);
  std::vector<std::byte> buf(chunk);
  for (ByteCount off = 0; off < size; off += chunk) {
    const ByteCount n = std::min<ByteCount>(chunk, size - off);
    if (tag) fill_pattern(*tag, off, std::span(buf).subspan(0, n));
    co_await loader.write(fd, std::span<const std::byte>(buf).subspan(0, n));
  }
  loader.close(fd);
}

}  // namespace

Run::Run(const MachineSpec& spec, int nclients, MeshLayout layout, trace::TraceSink* sink)
    : machine_(with_sink(sim_, sink), machine_config(spec, layout)),
      fs_(machine_, spec.pfs),
      engines_(static_cast<std::size_t>(nclients)),
      injector_(machine_, fs_),
      base_(static_cast<std::size_t>(nclients)),
      tallies_(static_cast<std::size_t>(nclients)) {
  clients_.reserve(static_cast<std::size_t>(nclients));
  for (int r = 0; r < nclients; ++r) {
    clients_.push_back(std::make_unique<pfs::PfsClient>(fs_, r, r, nclients));
  }
}

void Run::attach_prefetchers(const prefetch::PrefetchConfig& cfg) {
  for (std::size_t r = 0; r < clients_.size(); ++r) {
    engines_[r] = prefetch::attach_prefetcher(*clients_[r], cfg);
  }
}

void Run::populate(std::vector<Load> loads) {
  std::vector<sim::Task<void>> tasks;
  tasks.reserve(loads.size());
  for (Load& l : loads) {
    tasks.push_back(fill_file(client(l.client), std::move(l.file), l.size, l.tag));
  }
  sim_.spawn(sim::when_all(sim_, std::move(tasks)));
  drain("population");
}

void Run::begin(const fault::FaultPlan& faults) {
  for (std::size_t r = 0; r < clients_.size(); ++r) base_[r] = clients_[r]->stats();
  if (!faults.empty()) injector_.arm(faults, sim_.now());
}

void Run::drain(const std::string& what) {
  sim_.run();
  if (sim_.live_processes() != 0) {
    throw std::runtime_error(what + " deadlocked: " + std::to_string(sim_.live_processes()) +
                             " process(es) still blocked");
  }
}

ExperimentResult Run::finish(WorkloadSpec spec) {
  ExperimentResult res;
  res.spec = std::move(spec);
  SimTime t0 = sim::kTimeInfinity, t1 = 0;
  for (std::size_t r = 0; r < clients_.size(); ++r) {
    const ClientTally& t = tallies_[r];
    res.total_bytes += t.bytes;
    res.reads += t.reads;
    res.verify_failures += t.verify_failures;
    res.faults.app_errors += t.app_errors;
    res.issued += t.issued;
    res.backlogged += t.backlogged;
    res.backlog_time += t.backlog_time;
    res.read_latencies.merge(t.latencies);
    t0 = std::min(t0, t.start);
    t1 = std::max(t1, t.end);

    const pfs::PfsClient& c = *clients_[r];
    const pfs::ClientStats& st = c.stats();
    const SimTime rt = st.read_time - base_[r].read_time;
    res.node_read_time.push_back(rt);
    res.max_node_read_time = std::max(res.max_node_read_time, rt);
    res.writes += st.writes - base_[r].writes;
    res.bytes_written += st.bytes_written - base_[r].bytes_written;
    res.max_node_write_time =
        std::max(res.max_node_write_time, st.write_time - base_[r].write_time);
    res.rpc += c.rpc_stats();
    res.token_cache += c.token_stats();
    if (engines_[r]) res.prefetch += engines_[r]->stats();
  }
  res.wall_elapsed = t1 > t0 ? t1 - t0 : 0;
  res.mean_read_call_time =
      res.reads ? std::accumulate(res.node_read_time.begin(), res.node_read_time.end(), 0.0) /
                      static_cast<double>(res.reads)
                : 0.0;
  res.observed_read_bw_mbs =
      sim::megabytes_per_second(res.total_bytes, res.max_node_read_time);
  res.wall_bw_mbs = sim::megabytes_per_second(res.total_bytes, res.wall_elapsed);
  res.observed_write_bw_mbs =
      sim::megabytes_per_second(res.bytes_written, res.max_node_write_time);

  res.faults.shed_prefetches = res.prefetch.shed;
  res.faults.stale_epoch_discards = res.prefetch.epoch_discarded;
  res.faults.rpc_retries = res.rpc.retries;
  res.faults.rpc_down_waits = res.rpc.down_waits;
  res.faults.rpc_timeouts = res.rpc.timeouts;
  res.faults.terminal_errors = res.rpc.terminal_errors;
  res.faults.backoff_time = res.rpc.backoff_time;
  res.faults.recovery_wait_time = res.rpc.recovery_wait_time;
  res.faults.injected_events = static_cast<std::uint64_t>(injector_.injected());

  res.token_grants = fs_.tokens().stats().grants;
  res.token_splits = fs_.tokens().stats().splits;
  // Token conservation: the manager's running grant ledger must equal the
  // write bytes still outstanding in its table once the run drains.
  sim::check::Auditor* audit = sim_.auditor();
  if (audit) audit->check_token_conservation(sim_.now(), fs_.tokens().write_granted_bytes());

  res.mesh_segmented_messages = machine_.mesh().segmented_messages();
  res.mesh_segments = machine_.mesh().segments_sent();
  res.top_links = machine_.mesh().top_busy_links(5);
  for (int io = 0; io < machine_.io_node_count(); ++io) {
    res.server_batch_sweeps += fs_.server(io).batch_sweeps();
    res.server_batched_extents += fs_.server(io).batched_extents();
    hw::RaidArray& raid = machine_.raid(io);
    res.faults.reconstructed_reads += raid.reconstructed_reads();
    res.faults.degraded_writes += raid.degraded_writes();
    for (std::size_t m = 0; m < raid.member_count(); ++m) {
      res.faults.disk_transients += raid.member(m).transient_errors_fired();
    }
    if (auto* tier = fs_.server(io).ufs().cache_tier()) {
      res.cache += tier->stats();
      // Every bit ever set in this tier is now resident or was accounted
      // as cleared — the cache analogue of buffer conservation.
      if (audit) audit->check_cache_bitmap_conservation(sim_.now(), tier, tier->resident_blocks());
    }
  }
  res.faults.node_recoveries = res.cache.recoveries;
  res.faults.node_recovery_time = res.cache.total_recovery_time;
  // With the run drained, the fault ledger must balance: every manifested
  // fault was healed by retry, repaired by reconstruction, or is terminal.
  if (audit) audit->check_fault_conservation(sim_.now());

  res.digest = sim_.digest();
  res.events_dispatched = sim_.events_dispatched();
  res.peak_pending_events = sim_.peak_pending_events();
  res.event_queue_bytes = sim_.event_queue_bytes();
  res.frame_arena_bytes = sim::FrameArena::local().stats().cached_bytes;
  res.machine_state_bytes = machine_.state_memory_bytes();
  res.bytes_per_event =
      res.events_dispatched
          ? static_cast<double>(res.event_queue_bytes + res.frame_arena_bytes) /
                static_cast<double>(res.events_dispatched)
          : 0.0;
  return res;
}

}  // namespace ppfs::workload
