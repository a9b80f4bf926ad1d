// The experiment driver: lay out the file(s) for one read workload, run it
// on the harness (workload/run.hpp), report the paper's metrics.
#pragma once

#include <functional>

#include "workload/run.hpp"

namespace ppfs::trace {
class TraceSink;
}

namespace ppfs::workload {

/// Runs workloads on a freshly-built machine each time (fully
/// deterministic; no state leaks between runs).
class Experiment {
 public:
  explicit Experiment(MachineSpec spec = {}) : spec_(spec) {}

  /// Called after the run drains but before the machine is torn down, with
  /// the live mount — the hook ppfs_fsck and the recovery tests use to
  /// audit/corrupt the cache tiers while they still exist.
  using PostRunHook = std::function<void(pfs::PfsFileSystem&)>;

  ExperimentResult run(const WorkloadSpec& w) const { return run(w, nullptr); }

  /// Same, with a TraceScope sink attached to the simulation for the whole
  /// run (populate + read phase). The sink only observes — digests are
  /// bit-identical with tracing on or off. nullptr = tracing off.
  ExperimentResult run(const WorkloadSpec& w, trace::TraceSink* sink) const {
    return run(w, sink, nullptr);
  }
  ExperimentResult run(const WorkloadSpec& w, trace::TraceSink* sink,
                       const PostRunHook& post_run) const;

  /// Paper Table 2: the access time of a single read call of this size in
  /// the standard collective (no prefetch, no delays) setting.
  sim::SimTime read_access_time(ByteCount request_size) const;

  const MachineSpec& machine_spec() const noexcept { return spec_; }

 private:
  MachineSpec spec_;
};

}  // namespace ppfs::workload
