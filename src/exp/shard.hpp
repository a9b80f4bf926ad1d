// ShardedScale: split one giant open-arrival scenario across node-
// partitioned shards and run the shards through the sweep's thread pool.
//
// A 1024x256 machine is one Simulation — single-threaded by the kernel's
// design — so the way to put a multi-core host behind it is to partition
// the *machine*: shard i simulates its slice of the compute and I/O nodes
// as a self-contained sub-machine with its own tenant files and its own
// seed (base + i). The partition is computed once, deterministically, from
// (spec, shards); worker count only changes which thread runs a shard,
// never what the shard is. Each shard's kernel digest is therefore
// byte-identical for any --jobs, and the report's merged digest — FNV-1a
// over the shard digests in shard order — is too. That merged digest is
// the gate ppfs_perf checks when it reruns the same partition with
// different worker counts.
//
// What sharding gives up is cross-shard interference (a shard's clients
// only contend with the other clients of the same shard), which is exactly
// the trade the open-arrival workload can afford: clients are pinned to
// tenants, tenants are striped within a shard, and arrivals are
// independent Poisson streams, so no simulated message ever needed to
// cross a shard boundary in the first place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/open_arrival.hpp"

namespace ppfs::exp {

/// One shard's slice of the partitioned machine plus its outcome.
struct ScaleShardOutcome {
  int index = 0;
  int ncompute = 0;
  int nio = 0;
  workload::ExperimentResult result;
  double seconds = 0;  ///< host wall-clock spent inside this shard
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};

struct ShardedScaleReport {
  std::vector<ScaleShardOutcome> shards;  // shard-index order, always
  int jobs = 1;
  double seconds = 0;  ///< host wall-clock for the whole sharded run

  // Merged across shards (sums; peak_pending is the max over shards since
  // shards may run concurrently on distinct Simulations).
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t app_errors = 0;
  sim::ByteCount total_bytes = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t peak_pending_events = 0;
  std::uint64_t machine_state_bytes = 0;
  sim::StreamingQuantiles latencies;
  /// FNV-1a over the per-shard kernel digests in shard order: identical
  /// for any worker count, the sharded run's determinism contract.
  std::uint64_t merged_digest = 0;

  bool all_ok() const noexcept;
};

/// Partition `machine` (its ncompute/nio) into `shards` node-disjoint
/// sub-machines and run `spec` on each, `jobs` shards at a time. Shard i
/// seeds its workload with spec.seed + i. Requires every shard to get at
/// least one compute and one I/O node.
ShardedScaleReport run_sharded_scale(const workload::MachineSpec& machine,
                                     const workload::OpenArrivalSpec& spec,
                                     int shards, int jobs);

}  // namespace ppfs::exp
