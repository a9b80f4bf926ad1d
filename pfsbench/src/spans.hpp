// The benchmark's own spans, recorded on the traced repetition only and
// kept in memory until the run ends.
//
//  * simulated-time spans: setup, populate and timed phases, and every
//    PfsClient call (open/seek/read/write/fsync) with its request id;
//  * host-time spans: every synchronous call the harness times —
//    constructors, fill_pattern, find_pattern_mismatch, Simulation::run.
//
// Both are written as Chrome trace_event JSON (one file per clock) that
// tools/ppfs_trace_check.py accepts, next to the simulator's own trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace pfsbench {

class Spans {
 public:
  Spans();

  /// Fresh id for one logical request (all calls it makes share the id).
  std::uint64_t request_id() { return ++last_request_; }

  void sim_span(const char* cat, const char* name, int rank, std::uint64_t request,
                double begin, double end);
  void host_span(const char* name, double host_begin, double host_end, double sim_at);

  /// Summed host seconds of every host span with this name.
  double host_total(const std::string& name) const;

  bool write_sim(const std::string& path) const;
  bool write_host(const std::string& path) const;

 private:
  struct Span {
    const char* cat;
    const char* name;
    int rank;
    std::uint64_t request;
    double begin;
    double end;
    double sim_at;
  };
  static bool write(const std::string& path, const std::vector<Span>& spans, int pid);

  double origin_;
  std::uint64_t last_request_ = 0;
  std::vector<Span> sim_;
  std::vector<Span> host_;
  std::map<std::string, double> host_totals_;
};

/// Records one PfsClient call's simulated interval when it goes out of
/// scope (also when the call throws). Costs a null test when untraced.
class CallSpan {
 public:
  CallSpan(Spans* spans, const ppfs::sim::Simulation& sim, const char* name, int rank,
           std::uint64_t request)
      : spans_(spans), sim_(sim), name_(name), rank_(rank), request_(request),
        begin_(sim.now()) {}
  ~CallSpan() {
    if (spans_) spans_->sim_span("pfs.call", name_, rank_, request_, begin_, sim_.now());
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  Spans* spans_;
  const ppfs::sim::Simulation& sim_;
  const char* name_;
  int rank_;
  std::uint64_t request_;
  double begin_;
};

/// Records one synchronous call's host interval when it goes out of scope.
class HostSpan {
 public:
  HostSpan(Spans* spans, const ppfs::sim::Simulation& sim, const char* name);
  ~HostSpan();
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  Spans* spans_;
  const ppfs::sim::Simulation& sim_;
  const char* name_;
  double begin_ = 0;
};

}  // namespace pfsbench
