// The benchmark's harness: one repetition of a workload builds the machine
// through the public API, populates the input files, runs the timed phase
// and folds the per-layer counters.
//
// A repetition is fully determined by (workload, seed, prefetch flag): the
// simulated results and the event digest repeat exactly, only host times
// vary. main.cpp repeats it to take medians of the host times.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "pfs/client.hpp"
#include "pfs/filesystem.hpp"
#include "prefetch/engine.hpp"
#include "sim/simulation.hpp"
#include "trace/sink.hpp"

namespace pfsbench {

using ppfs::sim::ByteCount;
using ppfs::sim::FileOffset;
using ppfs::sim::SimTime;

class Spans;

/// Host wall clock in seconds (steady_clock).
double host_now();

/// Every sample kept, so percentiles are exact (nearest rank).
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  /// p in [0, 100]; 0 when empty.
  double percentile(double p) const;
};

/// Flat counter snapshot, keyed by metric-style names ("hw.mesh.sends").
using Counters = std::map<std::string, double>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// paper_balanced_read only: run the same load without the prefetcher
  /// (the self-test's Fig. 4 baseline).
  bool prefetch = true;
  /// Verify the first checked read of each repetition against a wrong
  /// pattern, so the correctness gate must fire (self-test only).
  bool inject_mismatch = false;
  std::string out_dir = ".bench_out";
};

/// Machine, mount, clients and (optionally) prefetch engines of one
/// repetition. Members are destroyed in reverse order: engines before the
/// clients they hook, the simulation last.
struct Rig {
  ppfs::sim::Simulation sim;
  std::unique_ptr<ppfs::hw::Machine> machine;
  std::unique_ptr<ppfs::pfs::PfsFileSystem> fs;
  std::vector<std::unique_ptr<ppfs::pfs::PfsClient>> clients;
  std::vector<std::unique_ptr<ppfs::prefetch::PrefetchEngine>> engines;
  Spans* spans = nullptr;  // null on untraced repetitions
  bool inject_mismatch = false;  // see Options::inject_mismatch
};

/// What one repetition produced.
struct Outcome {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t digest = 0;
  SimTime phase_begin = 0;  // simulated time the timed phase started
  SimTime phase_end = 0;    // ... and ended

  std::uint64_t ops = 0;              // timed client operations attempted
  std::uint64_t fault_ops = 0;        // ... that raised FaultError
  std::uint64_t verify_failures = 0;  // ... whose bytes failed verification

  ByteCount bytes_read = 0;
  SimTime max_read_time = 0;  // slowest client's summed in-read time
  Samples read_lat;           // per read call (open loop: from due time)
  ByteCount bytes_written = 0;
  SimTime max_write_time = 0;  // slowest writer's summed write + fsync time
  Samples write_lat;           // per write + fsync round
  std::uint64_t arrivals = 0;
  std::uint64_t backlogged = 0;

  ByteCount fill_bytes = 0;    // bytes produced by workload::fill_pattern
  ByteCount verify_bytes = 0;  // bytes checked by find_pattern_mismatch

  Counters total;  // counters over the whole repetition (setup + timed)
  Counters timed;  // counters over the timed phase only
};

/// One workload: its machine shape, input files and timed phase. Each
/// function runs its part of the simulation to completion.
struct Workload {
  const char* name;
  /// Construct machine, mount, clients and engines.
  void (*build)(Rig& rig, const Options& opt);
  /// Write the input files through PfsClient::write.
  void (*write_inputs)(Rig& rig, const Options& opt, Outcome& out);
  /// The timed phase: the benchmark's own load generator.
  void (*timed)(Rig& rig, const Options& opt, Outcome& out);
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Run one repetition. `sink` (optional) is attached to the simulation for
/// the whole repetition; `spans` (optional) collects the benchmark's own
/// spans.
Outcome run_rep(const Workload& w, const Options& opt, ppfs::trace::TraceSink* sink,
                Spans* spans);

/// Run a finished simulation's pending work, failing on a stuck process.
void drain(Rig& rig, const char* what);

/// Per-layer counters read from the public stats accessors.
Counters snapshot(Rig& rig);

}  // namespace pfsbench
