// Layer-isolated host-cost drivers. Each one calls a single layer's public
// functions on a fresh Simulation, with the operation sizes the traced
// repetition of the workload used, and reports host nanoseconds per
// operation inclusive of every layer below it, plus how many operations of
// each child layer one of its operations caused. Self costs subtract the
// child drivers' costs for those counts.
#pragma once

#include "harness.hpp"

namespace pfsbench {

struct LayerCost {
  double incl_ns = 0;        // host ns per op, including the layers below
  double events = 0;         // kernel events per op
  double mesh_sends = 0;     // MeshNetwork::send calls per op
  double ufs_reads = 0;      // Ufs::read calls per op (server side)
  double ufs_writes = 0;     // Ufs::write calls per op (server side)
  double raid_transfers = 0; // RaidArray::transfer calls per op
  double self_ns = 0;        // incl_ns minus the child drivers' cost
};

struct LayerCosts {
  LayerCost sim;           // op = one kernel event (timer wake-up)
  LayerCost mesh;          // op = MeshNetwork::send
  LayerCost raid;          // op = RaidArray::transfer
  LayerCost ufs_read;      // op = Ufs::read
  LayerCost ufs_write;     // op = Ufs::write
  LayerCost client_read;   // op = PfsClient::read, no prefetcher
  LayerCost client_write;  // op = PfsClient::write
  LayerCost token;         // op = TokenManager::acquire
  double prefetch_overhead_ns = 0;  // PfsClient::read with engine minus without
  double fill_ns_per_byte = 0;      // workload::fill_pattern
  double verify_ns_per_byte = 0;    // workload::find_pattern_mismatch

  /// Ufs::read / Ufs::write sizes the ufs drivers used (bytes).
  double ufs_read_bytes = 0, ufs_write_bytes = 0;
};

/// Measure every driver for the workload `w`, sized from the whole-rep
/// counters `total` of its traced repetition. Drivers of layers the
/// workload bypasses (no prefetcher, no write tokens) are skipped and
/// report zero.
LayerCosts measure_layers(const Workload& w, const Options& opt, const Counters& total,
                          bool prefetch_on, bool tokens_on);

}  // namespace pfsbench
