// The run harness every workload driver sits on: build the machine, mount
// and clients, populate the files, drain the simulation, and fold every
// counter into one ExperimentResult.
//
// Metrics, following Section 4: "The read bandwidth is the total amount of
// data that can be read by all the nodes per unit time as observed by the
// application. For a parallel I/O mode like M_RECORD, the numerator would
// be the amount of data read by all the compute nodes and the time taken
// is the time taken by a compute node to complete all the read calls."
// observed_read_bw_mbs uses exactly that denominator (the slowest node's
// total time spent inside read calls) — which is why prefetching that
// overlaps I/O with the inter-read computation raises the observed
// bandwidth. The wall-clock bandwidth (including compute) is reported
// alongside. Run::finish() is the only place these are computed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/tier.hpp"
#include "fault/injector.hpp"
#include "fault/stats.hpp"
#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/server.hpp"
#include "prefetch/engine.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "workload/generator.hpp"

namespace ppfs::trace {
class TraceSink;
}

namespace ppfs::workload {

struct MachineSpec {
  int ncompute = 8;
  int nio = 8;
  hw::RaidParams raid = hw::RaidParams::scsi8();
  hw::CpuParams compute_cpu{};
  hw::CpuParams io_cpu{};
  pfs::PfsParams pfs{};
  /// Mesh segmentation MTU (0 = legacy circuit transfers). Applied to
  /// MachineConfig::mesh when the harness builds its machine.
  ByteCount mesh_mtu = 0;
};

/// What every driver reports. Client counters cover the measured phase
/// (after populate) unless noted; RPC and token-cache counters cover the
/// whole run.
struct ExperimentResult {
  // Inputs echoed back for table printing.
  WorkloadSpec spec;

  ByteCount total_bytes = 0;     // delivered to the application(s) by reads
  std::uint64_t reads = 0;
  sim::SimTime wall_elapsed = 0; // first op issued -> last op complete
  /// Per-node total time inside read calls; max is the paper's denominator.
  std::vector<sim::SimTime> node_read_time;
  sim::SimTime max_node_read_time = 0;
  sim::SimTime mean_read_call_time = 0;
  /// Per-call latency distribution across all nodes (reads; writes too for
  /// the write workloads; arrival to completion for open arrival).
  /// Streaming and fixed-footprint (log2-bin sketch): the result's memory
  /// no longer grows with the number of calls, which is what keeps
  /// bytes/event flat on production-scale runs.
  sim::StreamingQuantiles read_latencies;

  double observed_read_bw_mbs = 0;  // total_bytes / max_node_read_time
  double wall_bw_mbs = 0;           // total_bytes / wall_elapsed

  /// Open arrival: requests that arrived, arrivals that found their client
  /// still serving the previous request, and the service-start lag summed
  /// over them.
  std::uint64_t issued = 0;
  std::uint64_t backlogged = 0;
  sim::SimTime backlog_time = 0;

  prefetch::PrefetchStats prefetch;  // summed across nodes (zero w/o engine)
  std::uint64_t verify_failures = 0;

  /// Per-class RPC traffic and the retry envelope, summed across clients
  /// (populate included): the split makes the metadata node's control-
  /// message load visible next to the data traffic it serializes.
  pfs::RpcStats rpc;

  /// Data-path instrumentation: mesh segmentation and server batching.
  std::uint64_t mesh_segmented_messages = 0;
  std::uint64_t mesh_segments = 0;
  std::uint64_t server_batch_sweeps = 0;
  std::uint64_t server_batched_extents = 0;
  /// Busiest mesh links (id, busy seconds), busiest first — the wiring
  /// hot-spot view of the run.
  std::vector<std::pair<int, sim::SimTime>> top_links;

  /// Fault/recovery counters summed across the whole stack (all zero on a
  /// healthy run with an empty plan).
  fault::FaultSummary faults;

  /// Second-tier cache counters summed across I/O nodes (all zero when the
  /// tier is off); the warm-restart window covers only servers that ran a
  /// recovery pass (see CacheTierStats::operator+=).
  cache::CacheTierStats cache;

  /// TokenWrite counters (all zero unless PfsParams::write_tokens is on):
  /// the measured phase's writes, the client token and write-back caches
  /// summed across clients (peak dirty bytes is the max), and the token
  /// manager's grant traffic.
  std::uint64_t writes = 0;
  ByteCount bytes_written = 0;
  sim::SimTime max_node_write_time = 0;  // slowest node's total write-call time
  double observed_write_bw_mbs = 0;      // bytes_written / max_node_write_time
  pfs::TokenCacheStats token_cache;
  std::uint64_t token_grants = 0;        // grants the manager installed
  std::uint64_t token_splits = 0;        // partial-overlap grant splits

  /// SimCheck determinism digest of the whole run (populate + measured
  /// phase): the kernel's FNV-1a hash over every dispatched event. Two runs
  /// of the same spec must agree bit-for-bit — see ppfs_run --selfcheck.
  std::uint64_t digest = 0;
  std::uint64_t events_dispatched = 0;

  /// Memory-footprint counters (deterministic — derived from kernel pool
  /// capacities, not OS RSS, so tests can gate on them). peak_pending_events
  /// is the event-queue depth high-water; bytes_per_event is the kernel
  /// footprint (queue + coroutine-frame arena) amortized over every
  /// dispatched event — flat stats mean this falls with run length instead
  /// of plateauing at a per-event accumulation cost. machine_state_bytes is
  /// the sharded per-node arenas.
  std::uint64_t peak_pending_events = 0;
  std::uint64_t event_queue_bytes = 0;
  std::uint64_t frame_arena_bytes = 0;
  std::uint64_t machine_state_bytes = 0;
  double bytes_per_event = 0;
};

/// One client's application-level outcome in the measured phase, filled
/// by the driver's coroutine and folded by Run::finish().
struct ClientTally {
  sim::SimTime start = sim::kTimeInfinity;  // first op issued (or arrival)
  sim::SimTime end = 0;                     // last op complete
  ByteCount bytes = 0;                      // delivered by reads
  std::uint64_t reads = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t app_errors = 0;  // FaultErrors surfaced to the application
  std::uint64_t issued = 0;
  std::uint64_t backlogged = 0;
  sim::SimTime backlog_time = 0;
  sim::StreamingQuantiles latencies;  // per call, fixed footprint
};

/// Mesh shape of the harness's machine: the paper's width-4 Paragon, or
/// the near-square production-scale variant.
enum class MeshLayout { kParagon, kScaled };

/// One run on a freshly-built machine (fully deterministic; no state leaks
/// between runs): build -> populate -> begin -> spawn -> drain -> finish.
class Run {
 public:
  /// Builds the machine, the mount and `nclients` clients (client r runs on
  /// compute node r as rank r of `nclients`). `sink` observes the whole run
  /// (nullptr = tracing off); digests are identical either way.
  Run(const MachineSpec& spec, int nclients, MeshLayout layout = MeshLayout::kParagon,
      trace::TraceSink* sink = nullptr);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  sim::Simulation& sim() noexcept { return sim_; }
  hw::Machine& machine() noexcept { return machine_; }
  pfs::PfsFileSystem& fs() noexcept { return fs_; }
  pfs::PfsClient& client(int r) { return *clients_[static_cast<std::size_t>(r)]; }
  ClientTally& tally(int r) { return tallies_[static_cast<std::size_t>(r)]; }

  /// Attach a prefetch engine to every client.
  void attach_prefetchers(const prefetch::PrefetchConfig& cfg);

  /// A file to fill before the measured phase: `size` bytes written through
  /// the full stack by `client`, patterned with `tag` or zero-filled.
  struct Load {
    int client = 0;
    std::string file;
    ByteCount size = 0;
    std::optional<std::uint64_t> tag;
  };
  /// Run every load concurrently (1 MB chunks, joined by when_all) and
  /// drain. Simulated time spent here is not measured.
  void populate(std::vector<Load> loads);

  /// Start the measured phase: snapshot the client counters and arm
  /// `faults` with event times relative to now.
  void begin(const fault::FaultPlan& faults = {});

  /// Run the simulation until no event is left; throws if any process is
  /// still blocked (`what` names the phase in the message).
  void drain(const std::string& what);

  /// Fold every client, engine, server, mesh, cache-tier and kernel counter
  /// into one result, and check the SimCheck end-of-run ledgers (token,
  /// cache-bitmap and fault conservation). `spec` is echoed back.
  ExperimentResult finish(WorkloadSpec spec = {});

 private:
  sim::Simulation sim_;
  hw::Machine machine_;
  pfs::PfsFileSystem fs_;
  std::vector<std::unique_ptr<pfs::PfsClient>> clients_;
  std::vector<std::unique_ptr<prefetch::PrefetchEngine>> engines_;
  fault::FaultInjector injector_;
  std::vector<pfs::ClientStats> base_;  // client counters at begin()
  std::vector<ClientTally> tallies_;
};

}  // namespace ppfs::workload
