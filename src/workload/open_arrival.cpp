#include "workload/open_arrival.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "sim/random.hpp"

namespace ppfs::workload {

namespace {

using pfs::IoMode;
using sim::SimTime;
using sim::Task;

/// One client: Poisson arrivals on an independent clock, FIFO service.
/// `arrival` advances by exponential gaps regardless of completions — when
/// the previous request is still in flight the new one is queued (counted
/// as backlog) and its latency is measured from *arrival*, not from
/// service start. That is the open-system latency a user would see.
Task<void> client_proc(const OpenArrivalSpec& spec, pfs::PfsClient& client,
                       std::string file, ByteCount file_blocks, sim::Rng rng,
                       std::span<std::byte> scratch, ClientTally& out) {
  sim::Simulation& sim = client.machine().simulation();
  const int fd = co_await client.open(file, IoMode::kAsync);

  // The arrival clock is anchored at the read-phase start (now, after the
  // populate phase advanced the simulation), not at t=0 — otherwise every
  // arrival would look late and backlog would measure the populate time.
  SimTime arrival = sim.now();
  for (std::uint64_t k = 0; k < spec.requests_per_client; ++k) {
    arrival += rng.exponential(spec.mean_interarrival);
    const FileOffset off =
        static_cast<FileOffset>(rng.uniform_int(0, file_blocks - 1)) * spec.request_size;
    const SimTime now = sim.now();
    if (now < arrival) {
      co_await sim.delay(arrival - now);
    } else {
      // The client was still busy when this request arrived: open-system
      // backlog. Service starts immediately; the lag is the queueing delay.
      ++out.backlogged;
      out.backlog_time += now - arrival;
    }
    ++out.issued;
    out.start = std::min(out.start, arrival);
    // Short-circuit keeps the read-only stream untouched: with
    // write_fraction == 0 no extra uniform01() draw happens, so existing
    // read-only digests are bit-identical.
    const bool is_write =
        spec.write_fraction > 0 && rng.uniform01() < spec.write_fraction;
    ByteCount got = 0;
    bool failed = false;
    try {
      co_await client.seek(fd, off);
      if (is_write) {
        co_await client.write(
            fd, std::span<const std::byte>(scratch).subspan(0, spec.request_size));
        got = spec.request_size;
      } else {
        got = co_await client.read(fd, scratch.subspan(0, spec.request_size));
      }
    } catch (const fault::FaultError&) {
      failed = true;
    }
    const SimTime done = sim.now();
    out.latencies.add(done - arrival);
    out.end = std::max(out.end, done);
    if (failed) {
      ++out.app_errors;
    } else if (!is_write) {
      ++out.reads;
      out.bytes += got;
    }
  }
  if (spec.write_fraction > 0) co_await client.fsync(fd);
  client.close(fd);
}

}  // namespace

ExperimentResult run_open_arrival(const MachineSpec& machine, const OpenArrivalSpec& spec) {
  if (spec.tenants < 1) throw std::invalid_argument("open-arrival: tenants < 1");
  if (spec.request_size == 0) throw std::invalid_argument("open-arrival: zero request size");
  if (spec.tenant_file_size < spec.request_size) {
    throw std::invalid_argument("open-arrival: tenant file smaller than one request");
  }
  if (!(spec.mean_interarrival > 0)) {
    throw std::invalid_argument("open-arrival: mean interarrival must be > 0");
  }
  const int N = machine.ncompute;
  const ByteCount file_blocks = spec.tenant_file_size / spec.request_size;
  const ByteCount file_size = file_blocks * spec.request_size;

  Run run(machine, N, MeshLayout::kScaled);
  for (int t = 0; t < spec.tenants; ++t) {
    run.fs().create("tenant" + std::to_string(t));
  }
  if (spec.prefetch) run.attach_prefetchers(spec.prefetch_cfg);

  // Tenant files are zero-filled: open-arrival reads never verify contents,
  // so the populate phase only needs to allocate blocks and exercise the
  // write path. Loaders are spread across clients so population
  // parallelizes.
  std::vector<Run::Load> loads;
  for (int t = 0; t < spec.tenants; ++t) {
    loads.push_back({t % N, "tenant" + std::to_string(t), file_size, std::nullopt});
  }
  run.populate(std::move(loads));

  // --- assign tenants and per-client random streams (serial, so the
  // assignment is identical however the surrounding sweep is sharded) ---
  sim::Rng master(spec.seed);
  const auto cdf = sim::Rng::make_zipf_cdf(static_cast<std::size_t>(spec.tenants),
                                           spec.tenant_skew);
  std::vector<int> tenant_of(static_cast<std::size_t>(N));
  std::vector<sim::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(N));
  for (int r = 0; r < N; ++r) {
    // zipf() ranks from 1 (most popular); tenant files are 0-indexed.
    tenant_of[static_cast<std::size_t>(r)] = static_cast<int>(master.zipf(cdf)) - 1;
    rngs.push_back(master.split());
  }

  // One scratch buffer for every reader: contents are never inspected, and
  // N per-client buffers at production scale would dwarf the kernel state
  // this workload exists to measure.
  std::vector<std::byte> scratch(spec.request_size);

  // --- open-arrival read phase ---
  run.begin();
  for (int r = 0; r < N; ++r) {
    const auto i = static_cast<std::size_t>(r);
    run.sim().spawn(client_proc(spec, run.client(r), "tenant" + std::to_string(tenant_of[i]),
                                file_blocks, rngs[i], std::span(scratch), run.tally(r)));
  }
  run.drain("open-arrival: request phase");
  return run.finish();
}

}  // namespace ppfs::workload
