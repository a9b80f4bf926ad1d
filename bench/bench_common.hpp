// Shared helpers for the paper-reproduction benches: the banner/table
// conventions, a common --jobs/--json/--quick argument parser with strict
// numeric flag values, and the JSON result emitter the benches and the
// ppfs_perf harness use to write machine-readable BENCH_*.json artifacts.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.hpp"
#include "workload/experiment.hpp"
#include "workload/report.hpp"

namespace ppfs::bench {

using workload::Experiment;
using workload::ExperimentResult;
using workload::MachineSpec;
using workload::TextTable;
using workload::WorkloadSpec;
using workload::fmt_bytes;
using workload::fmt_double;
using workload::fmt_percent;
using workload::fmt_time;

// ---------------------------------------------------------------------------
// JSON result emitter. Deliberately tiny: insertion-ordered objects,
// locale-independent numbers, and nothing the BENCH_*.json artifacts do
// not need.

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// An insertion-ordered JSON object builder.
class JsonObject {
 public:
  JsonObject& field(std::string_view k, const std::string& v) {
    std::string quoted = "\"";
    quoted += json_escape(v);
    quoted += '"';
    return raw(k, quoted);
  }
  JsonObject& field(std::string_view k, const char* v) {
    return field(k, std::string(v));
  }
  JsonObject& field(std::string_view k, double v) { return raw(k, json_number(v)); }
  JsonObject& field(std::string_view k, int v) { return raw(k, std::to_string(v)); }
  JsonObject& field(std::string_view k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObject& field(std::string_view k, bool v) { return raw(k, v ? "true" : "false"); }
  /// Pre-rendered JSON (a nested object or array).
  JsonObject& raw(std::string_view k, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += '"';
    body_ += json_escape(k);
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A JSON array of pre-rendered values.
class JsonArray {
 public:
  JsonArray& add(const JsonObject& o) { return add_raw(o.str()); }
  JsonArray& add_raw(const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += json;
    return *this;
  }
  std::string str() const { return "[" + body_ + "]"; }

 private:
  std::string body_;
};

/// Hex digest string as printed by ppfs_run ("%016llx").
inline std::string fmt_digest(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

/// One BENCH_*.json row for a sweep outcome.
inline JsonObject outcome_json(const exp::SweepOutcome& o) {
  JsonObject row;
  row.field("label", o.label);
  if (!o.ok()) {
    row.field("error", o.error);
    return row;
  }
  row.field("read_bw_mbs", o.result.observed_read_bw_mbs)
      .field("wall_bw_mbs", o.result.wall_bw_mbs)
      .field("events", o.result.events_dispatched)
      .field("digest", fmt_digest(o.result.digest))
      .field("seconds", o.seconds);
  return row;
}

/// Write `text` to `path`; exits the bench with an error on failure so CI
/// never uploads a half-written artifact.
inline void write_json_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
}

// ---------------------------------------------------------------------------
// Shared bench command line: every paper-figure bench accepts
//   --jobs <n>   sweep worker threads (default 1 — serial, bit-identical)
//   --json <p>   also write the results as a JSON artifact
//   --quick      shrink the workload for smoke runs

struct BenchArgs {
  int jobs = 1;
  std::string json_path;
  bool quick = false;
};

/// A flag's value as a non-negative number. Junk, a trailing suffix
/// ("1.5x") or a negative value exits 2 with a message naming the flag, so
/// a typo cannot turn a gate off.
inline double parse_flag_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
      !std::isfinite(v) || v < 0) {
    std::cerr << "error: " << flag << " needs a non-negative number, got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// A worker count: a whole number from 1 to 65536, under the same rules.
inline int parse_flag_jobs(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
      errno != 0 || v < 1 || v > 1 << 16) {
    std::cerr << "error: " << flag << " needs a whole number from 1 to 65536, got '" << text
              << "'\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--jobs" && i + 1 < argc) {
      a.jobs = parse_flag_jobs("--jobs", argv[++i]);
    } else if (s == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (s == "--quick") {
      a.quick = true;
    } else {
      std::cerr << "unknown bench flag: " << s
                << " (supported: --jobs <n>, --json <path>, --quick)\n";
      std::exit(2);
    }
  }
  return a;
}

/// Print sweep errors (if any) and return the bench exit code.
inline int finish_sweep(const exp::SweepReport& report) {
  for (const auto& o : report.outcomes) {
    if (!o.ok()) std::cerr << "error: " << o.label << ": " << o.error << "\n";
  }
  return report.all_ok() ? 0 : 1;
}

inline void banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  std::cout << "=============================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Machine: 8 compute + 8 I/O nodes, SCSI-8 RAID per I/O node,\n"
            << "         64KB file system blocks (simulated Paragon)\n"
            << "Expected shape: " << expectation << "\n"
            << "=============================================================\n";
}

/// The per-node request sizes the paper's tables sweep.
inline std::vector<sim::ByteCount> paper_request_sizes() {
  return {64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024};
}

/// A file size giving `rounds` collective rounds for this request size on
/// `ncompute` nodes, with a floor so small requests still do real work.
inline sim::ByteCount file_size_for(sim::ByteCount request, int ncompute, int rounds = 8) {
  const sim::ByteCount sz = request * static_cast<sim::ByteCount>(ncompute) * rounds;
  return std::max<sim::ByteCount>(sz, 4 * 1024 * 1024);
}

}  // namespace ppfs::bench
