#include "workload/write_workload.hpp"

#include <stdexcept>
#include <vector>

#include "fault/error.hpp"
#include "sim/event.hpp"
#include "workload/generator.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

// Per-writer pattern tags: record contents name their writer, so the
// conflicting read-back can prove a record is uniformly ONE writer's bytes
// (sequential consistency — never an interleaving of two writers).
constexpr std::uint64_t kCkptTagBase = 2000;
// Producer/consumer rounds are tag-stamped so a consumer that reads a stale
// (unflushed) round fails verification byte-for-byte.
constexpr std::uint64_t kStreamTagBase = 3000;

/// One checkpoint writer: write the round's record (own slot, or the shared
/// record when conflicting), optionally fsync, barrier, then cross-read the
/// next peer's record and verify every byte came from exactly one writer.
Task<void> checkpoint_proc(const WriteWorkloadSpec& spec, pfs::PfsClient& client,
                           sim::Barrier& round_line, ClientTally& out, int c) {
  sim::Simulation& sim = client.machine().simulation();
  const int W = spec.writers;
  const int fd = co_await client.open("ckpt", IoMode::kAsync);
  std::vector<std::byte> buf(spec.request_size);
  co_await round_line.arrive_and_wait();
  out.start = sim.now();

  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    const std::uint64_t rec =
        spec.conflicting ? r : r * static_cast<std::uint64_t>(W) + static_cast<std::uint64_t>(c);
    const FileOffset off = rec * spec.request_size;
    fill_pattern(kCkptTagBase + static_cast<std::uint64_t>(c), off, buf);
    const SimTime t0 = sim.now();
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      co_await client.write(fd, buf);
      if (spec.fsync_each_round) co_await client.fsync(fd);
    } catch (const fault::FaultError&) {
      failed = true;
    }
    out.latencies.add(sim.now() - t0);
    if (failed) ++out.app_errors;

    // Everyone's round-r write (and fsync) has settled past this line.
    co_await round_line.arrive_and_wait();

    if (spec.verify) {
      const int peer = (c + 1) % W;
      const std::uint64_t prec =
          spec.conflicting
              ? r
              : r * static_cast<std::uint64_t>(W) + static_cast<std::uint64_t>(peer);
      const FileOffset poff = prec * spec.request_size;
      bool read_failed = false;
      ByteCount got = 0;
      try {
        co_await client.seek(fd, poff);
        got = co_await client.read(fd, buf);
      } catch (const fault::FaultError&) {
        read_failed = true;
      }
      ++out.reads;
      out.bytes += got;
      if (read_failed) {
        ++out.app_errors;
      } else {
        bool ok = got == spec.request_size;
        if (ok && spec.conflicting) {
          // The record must be uniformly ONE writer's bytes — any single
          // tag matching end-to-end proves no interleaving survived.
          ok = false;
          for (int w = 0; w < W && !ok; ++w) {
            ok = find_pattern_mismatch(kCkptTagBase + static_cast<std::uint64_t>(w), poff,
                                       std::span<const std::byte>(buf)) == kNoMismatch;
          }
        } else if (ok) {
          ok = find_pattern_mismatch(kCkptTagBase + static_cast<std::uint64_t>(peer), poff,
                                     std::span<const std::byte>(buf).subspan(0, got)) ==
               kNoMismatch;
        }
        if (!ok) ++out.verify_failures;
      }
    }
    out.end = sim.now();

    // Reads of round r finish before round r+1 may overwrite (conflicting
    // mode reuses offsets round-over-round).
    co_await round_line.arrive_and_wait();
    if (spec.compute_delay > 0 && r + 1 < spec.rounds) {
      co_await sim.delay(spec.compute_delay);
    }
  }
  // Leave nothing dirty behind: the final fsync also puts every record on
  // the servers for post-run audits.
  co_await client.fsync(fd);
  out.end = sim.now();
  client.close(fd);
}

/// Producer: writes the round's record and NEVER fsyncs — the data leaves
/// its write-back cache only through the consumers' revocations.
Task<void> producer_proc(const WriteWorkloadSpec& spec, pfs::PfsClient& client,
                         sim::Barrier& round_line, ClientTally& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open("stream", IoMode::kAsync);
  std::vector<std::byte> buf(spec.request_size);
  co_await round_line.arrive_and_wait();
  out.start = sim.now();

  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    const FileOffset off = r * spec.request_size;
    fill_pattern(kStreamTagBase + r, off, buf);
    const SimTime t0 = sim.now();
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      co_await client.write(fd, buf);
    } catch (const fault::FaultError&) {
      failed = true;
    }
    out.latencies.add(sim.now() - t0);
    if (failed) ++out.app_errors;
    out.end = sim.now();

    co_await round_line.arrive_and_wait();  // record r produced
    co_await round_line.arrive_and_wait();  // record r consumed
    if (spec.compute_delay > 0 && r + 1 < spec.rounds) {
      co_await sim.delay(spec.compute_delay);
    }
  }
  co_await client.fsync(fd);
  out.end = sim.now();
  client.close(fd);
}

/// Consumer: after the produce barrier, reads the round's record. Its read-
/// token acquisition is what revokes the producer's write token and forces
/// the flush — byte-exact verification proves flush-before-ack coherence.
Task<void> consumer_proc(const WriteWorkloadSpec& spec, pfs::PfsClient& client,
                         sim::Barrier& round_line, ClientTally& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open("stream", IoMode::kAsync);
  std::vector<std::byte> buf(spec.request_size);
  co_await round_line.arrive_and_wait();
  out.start = sim.now();

  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    co_await round_line.arrive_and_wait();  // wait for record r
    const FileOffset off = r * spec.request_size;
    bool failed = false;
    ByteCount got = 0;
    try {
      co_await client.seek(fd, off);
      got = co_await client.read(fd, buf);
    } catch (const fault::FaultError&) {
      failed = true;
    }
    ++out.reads;
    out.bytes += got;
    if (failed) {
      ++out.app_errors;
    } else if (spec.verify) {
      const bool ok = got == spec.request_size &&
                      find_pattern_mismatch(kStreamTagBase + r, off,
                                            std::span<const std::byte>(buf)) == kNoMismatch;
      if (!ok) ++out.verify_failures;
    }
    out.end = sim.now();
    co_await round_line.arrive_and_wait();  // record r consumed
    if (spec.compute_delay > 0 && r + 1 < spec.rounds) {
      co_await sim.delay(spec.compute_delay);
    }
  }
  client.close(fd);
}

ExperimentResult run_rounds(const WriteWorkloadSpec& spec) {
  const int W = spec.writers;
  MachineSpec m = spec.machine;
  if (W > m.ncompute) {
    throw std::invalid_argument("write-workload: writers exceed compute nodes");
  }
  if (spec.kind == WriteWorkloadKind::kProducerConsumer && W < 2) {
    throw std::invalid_argument("write-workload: producer-consumer needs >= 2 clients");
  }
  m.pfs.write_tokens = true;  // the whole point of these workloads
  Run run(m, W);
  run.fs().create(spec.kind == WriteWorkloadKind::kCheckpoint ? "ckpt" : "stream");
  run.begin(spec.faults);

  sim::Barrier round_line(run.sim(), static_cast<std::size_t>(W));
  for (int c = 0; c < W; ++c) {
    if (spec.kind == WriteWorkloadKind::kCheckpoint) {
      run.sim().spawn(checkpoint_proc(spec, run.client(c), round_line, run.tally(c), c));
    } else if (c == 0) {
      run.sim().spawn(producer_proc(spec, run.client(c), round_line, run.tally(c)));
    } else {
      run.sim().spawn(consumer_proc(spec, run.client(c), round_line, run.tally(c)));
    }
  }
  run.drain("write-workload: rounds");

  WorkloadSpec echo;
  echo.name = to_string(spec.kind);
  echo.mode = IoMode::kAsync;
  echo.request_size = spec.request_size;
  echo.compute_delay = spec.compute_delay;
  echo.verify = spec.verify;
  echo.faults = spec.faults;
  ExperimentResult res = run.finish(std::move(echo));
  res.wall_bw_mbs = sim::megabytes_per_second(res.bytes_written, res.wall_elapsed);
  return res;
}

ExperimentResult run_mixed(const WriteWorkloadSpec& spec) {
  MachineSpec m = spec.machine;
  m.pfs.write_tokens = true;
  OpenArrivalSpec oa;
  oa.tenants = spec.tenants;
  oa.requests_per_client = spec.requests_per_client;
  oa.request_size = spec.request_size;
  oa.seed = spec.seed;
  oa.write_fraction = spec.write_fraction;
  ExperimentResult res = run_open_arrival(m, oa);
  res.spec.name = to_string(spec.kind);
  res.spec.mode = IoMode::kAsync;
  res.spec.request_size = spec.request_size;
  return res;
}

}  // namespace

const char* to_string(WriteWorkloadKind k) noexcept {
  switch (k) {
    case WriteWorkloadKind::kCheckpoint: return "checkpoint";
    case WriteWorkloadKind::kProducerConsumer: return "producer-consumer";
    case WriteWorkloadKind::kMixed: return "mixed";
  }
  return "?";
}

ExperimentResult run_write_workload(const WriteWorkloadSpec& spec) {
  if (spec.request_size == 0) {
    throw std::invalid_argument("write-workload: zero request size");
  }
  if (spec.kind == WriteWorkloadKind::kMixed) return run_mixed(spec);
  if (spec.rounds == 0) {
    throw std::invalid_argument("write-workload: zero rounds");
  }
  if (spec.writers < 1) {
    throw std::invalid_argument("write-workload: writers < 1");
  }
  return run_rounds(spec);
}

}  // namespace ppfs::workload
