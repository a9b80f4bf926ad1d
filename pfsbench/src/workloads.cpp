// The four workloads and their load generator. Every client is a coroutine
// that calls PfsClient directly; none of the library's experiment drivers
// is used, so the load stays fixed when those drivers change.
//
// Sizes are chosen so that each workload makes at least 1000 timed client
// operations of each kind it reports a p99 for (ten samples beyond p99).
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "harness.hpp"
#include "sim/event.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "workload/generator.hpp"

namespace pfsbench {

namespace {

namespace hw = ppfs::hw;
namespace pfs = ppfs::pfs;
namespace sim = ppfs::sim;
using sim::Task;

constexpr ByteCount kKiB = 1024;
constexpr ByteCount kMiB = 1024 * kKiB;

// --- shared pieces -------------------------------------------------------

/// Pattern tag of input k under this seed: the seed changes every byte.
std::uint64_t tag_of(std::uint64_t seed, std::uint64_t k) {
  return seed * 0x100000001b3ull + k + 1;
}

std::uint64_t request_id(Rig& rig) { return rig.spans ? rig.spans->request_id() : 0; }

void build_rig(Rig& rig, hw::MachineConfig mcfg, const pfs::PfsParams& params, int nclients,
               bool prefetch) {
  {
    HostSpan s(rig.spans, rig.sim, "hw::Machine");
    rig.machine = std::make_unique<hw::Machine>(rig.sim, std::move(mcfg));
  }
  {
    HostSpan s(rig.spans, rig.sim, "pfs::PfsFileSystem");
    rig.fs = std::make_unique<pfs::PfsFileSystem>(*rig.machine, params);
  }
  {
    HostSpan s(rig.spans, rig.sim, "pfs::PfsClient");
    for (int r = 0; r < nclients; ++r) {
      rig.clients.push_back(std::make_unique<pfs::PfsClient>(*rig.fs, r, r, nclients));
    }
  }
  if (prefetch) {
    HostSpan s(rig.spans, rig.sim, "prefetch::attach_prefetcher");
    for (auto& c : rig.clients) {
      rig.engines.push_back(ppfs::prefetch::attach_prefetcher(*c, {}));
    }
  }
}

void fill(Rig& rig, std::uint64_t tag, FileOffset off, std::span<std::byte> buf,
          Outcome& out) {
  HostSpan s(rig.spans, rig.sim, "workload::fill_pattern");
  ppfs::workload::fill_pattern(tag, off, buf);
  out.fill_bytes += buf.size();
}

bool verify(Rig& rig, std::uint64_t tag, FileOffset off, std::span<const std::byte> data,
            Outcome& out) {
  if (rig.inject_mismatch) {
    rig.inject_mismatch = false;
    tag ^= 1;
  }
  HostSpan s(rig.spans, rig.sim, "workload::find_pattern_mismatch");
  out.verify_bytes += data.size();
  return ppfs::workload::find_pattern_mismatch(tag, off, data) == ppfs::workload::kNoMismatch;
}

/// Write `size` patterned bytes into `name` in 1 MB chunks through
/// PfsClient::write (and fsync, which write-back mounts need).
Task<void> populate_file(Rig& rig, int rank, std::string name, std::uint64_t tag,
                         ByteCount size, Outcome& out) {
  auto& client = *rig.clients[static_cast<std::size_t>(rank)];
  const std::uint64_t req = request_id(rig);
  int fd = 0;
  {
    CallSpan s(rig.spans, rig.sim, "open", rank, req);
    fd = co_await client.open(name, pfs::IoMode::kAsync);
  }
  std::vector<std::byte> buf(std::min(size, kMiB));
  for (ByteCount off = 0; off < size; off += buf.size()) {
    const auto chunk = std::span(buf).first(std::min<ByteCount>(buf.size(), size - off));
    fill(rig, tag, off, chunk, out);
    CallSpan s(rig.spans, rig.sim, "write", rank, req);
    co_await client.write(fd, chunk);
  }
  {
    CallSpan s(rig.spans, rig.sim, "fsync", rank, req);
    co_await client.fsync(fd);
  }
  client.close(fd);
}

/// Spawn `tasks` and run the simulation until all of them finish.
void run_all(Rig& rig, std::vector<Task<void>> tasks, const char* what) {
  for (auto& t : tasks) rig.sim.spawn(std::move(t));
  drain(rig, what);
}

void populate_phase(Rig& rig, std::vector<Task<void>> tasks) {
  const SimTime t0 = rig.sim.now();
  run_all(rig, std::move(tasks), "populate");
  if (rig.spans) rig.spans->sim_span("phase", "populate", 0, 0, t0, rig.sim.now());
}

/// Per-client totals the workloads fold into the outcome.
struct ClientTime {
  SimTime in_read = 0;
  SimTime in_write = 0;
};

void fold_times(const std::vector<ClientTime>& times, Outcome& out) {
  for (const auto& t : times) {
    out.max_read_time = std::max(out.max_read_time, t.in_read);
    out.max_write_time = std::max(out.max_write_time, t.in_write);
  }
}

// --- M_RECORD closed-loop readers (paper_balanced_read, datapath) --------

struct RecordLoad {
  std::string file;
  std::uint64_t tag = 0;
  ByteCount request = 0;
  std::uint64_t rounds = 0;  // records per client per pass
  int passes = 1;
  SimTime delay = 0;         // compute time between reads
};

/// One M_RECORD reader: read k of a pass lands at (k*N + rank)*request;
/// every byte is verified. Later passes seek back to the start. The readers
/// leave the start barrier together and run in lockstep; the seed only
/// changes the file contents.
Task<void> record_reader(Rig& rig, int rank, const RecordLoad& load, sim::Barrier& start_line,
                         ClientTime& time, Outcome& out) {
  auto& client = *rig.clients[static_cast<std::size_t>(rank)];
  const auto n = static_cast<FileOffset>(rig.clients.size());
  int fd = 0;
  {
    CallSpan s(rig.spans, rig.sim, "open", rank, request_id(rig));
    fd = co_await client.open(load.file, pfs::IoMode::kRecord);
  }
  co_await start_line.arrive_and_wait();
  std::vector<std::byte> buf(load.request);
  for (int pass = 0; pass < load.passes; ++pass) {
    if (pass > 0) {
      CallSpan s(rig.spans, rig.sim, "seek", rank, request_id(rig));
      co_await client.seek(fd, 0);
    }
    for (std::uint64_t k = 0; k < load.rounds; ++k) {
      if ((pass > 0 || k > 0) && load.delay > 0) co_await rig.sim.delay(load.delay);
      const SimTime t0 = rig.sim.now();
      ByteCount got = 0;
      bool failed = false;
      {
        CallSpan s(rig.spans, rig.sim, "read", rank, request_id(rig));
        try {
          got = co_await client.read(fd, buf);
        } catch (const ppfs::fault::FaultError&) {
          failed = true;
        }
      }
      const SimTime dt = rig.sim.now() - t0;
      ++out.ops;
      out.read_lat.add(dt);
      time.in_read += dt;
      out.bytes_read += got;
      const FileOffset off = (k * n + static_cast<FileOffset>(rank)) * load.request;
      if (failed) {
        ++out.fault_ops;
      } else if (got != load.request ||
                 !verify(rig, load.tag, off, std::span(buf).first(got), out)) {
        ++out.verify_failures;
      }
    }
  }
  client.close(fd);
}

void run_record_readers(Rig& rig, const RecordLoad& load, Outcome& out) {
  const int n = static_cast<int>(rig.clients.size());
  sim::Barrier start_line(rig.sim, static_cast<std::size_t>(n));
  std::vector<ClientTime> times(static_cast<std::size_t>(n));
  std::vector<Task<void>> tasks;
  for (int r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    tasks.push_back(record_reader(rig, r, load, start_line, times[i], out));
  }
  run_all(rig, std::move(tasks), "timed phase");
  fold_times(times, out);
}

// --- paper_balanced_read ---------------------------------------------------
// Paper Fig. 4: 8 compute x 8 I/O nodes, SCSI-8, M_RECORD, 64 KB requests,
// 0.025 s of computation between reads, one-block-ahead prefetching.

constexpr int kPaperClients = 8;
constexpr ByteCount kPaperRequest = 64 * kKiB;
constexpr ByteCount kPaperFile = 64 * kMiB;  // 128 reads per client
constexpr SimTime kPaperDelay = 0.025;

void paper_build(Rig& rig, const Options& opt) {
  build_rig(rig, hw::MachineConfig::paragon(kPaperClients, 8), {}, kPaperClients,
            opt.prefetch);
}

void paper_populate(Rig& rig, const Options& opt, Outcome& out) {
  rig.fs->create("shared");
  std::vector<Task<void>> tasks;
  tasks.push_back(populate_file(rig, 0, "shared", tag_of(opt.seed, 0), kPaperFile, out));
  populate_phase(rig, std::move(tasks));
}

void paper_timed(Rig& rig, const Options& opt, Outcome& out) {
  RecordLoad load;
  load.file = "shared";
  load.tag = tag_of(opt.seed, 0);
  load.request = kPaperRequest;
  load.rounds = kPaperFile / (kPaperRequest * kPaperClients);
  load.delay = kPaperDelay;
  run_record_readers(rig, load, out);
}

// --- datapath_pipelined_read -------------------------------------------------
// The I/O-bound path of paper Table 1 / Fig. 5: SCSI-16, 512 KB records over
// all I/O nodes, no compute delay, no prefetch, with mesh segmentation,
// coalesced RPCs and server batch sweeps on. Eight passes over a 64 MB file
// give 1024 reads without holding 512 MB of file contents.
//
// Lockstep matters here: this phase-locked, I/O-bound loop settles into one
// of several stable sweep patterns, and a seeded per-read jitter of 1-20 ms
// moved sim_read_mbs between about 46 and 66 MB/s from seed to seed.

constexpr int kDataClients = 8;
constexpr ByteCount kDataRequest = 512 * kKiB;
constexpr ByteCount kDataFile = 64 * kMiB;
constexpr int kDataPasses = 8;

void datapath_build(Rig& rig, const Options&) {
  auto mcfg = hw::MachineConfig::paragon(kDataClients, 8, hw::RaidParams::scsi16());
  mcfg.mesh.mtu = 16 * kKiB;
  pfs::PfsParams params;
  params.coalesce_rpcs = true;
  params.server_batch = true;
  build_rig(rig, std::move(mcfg), params, kDataClients, false);
}

void datapath_populate(Rig& rig, const Options& opt, Outcome& out) {
  rig.fs->create("shared");
  std::vector<Task<void>> tasks;
  tasks.push_back(populate_file(rig, 0, "shared", tag_of(opt.seed, 0), kDataFile, out));
  populate_phase(rig, std::move(tasks));
}

void datapath_timed(Rig& rig, const Options& opt, Outcome& out) {
  RecordLoad load;
  load.file = "shared";
  load.tag = tag_of(opt.seed, 0);
  load.request = kDataRequest;
  load.rounds = kDataFile / (kDataRequest * kDataClients);
  load.passes = kDataPasses;
  run_record_readers(rig, load, out);
}

// --- scale_open_arrival --------------------------------------------------------
// 1024 compute x 256 I/O nodes. Each client picks a tenant file by a Zipf
// draw and issues 64 KB reads at uniform random offsets on its own Poisson
// clock (open loop); 1 in 64 reads is verified.
//
// The rate is fixed once, well below saturation. bench_scale's 0.05 s mean
// gap is saturated: 7076 of its 8192 arrivals find their client busy. At a
// 2 s gap about 0.8% do, and the slowest client's in-read time
// (sim_read_mbs) varies 5-7% from seed to seed, against 13-14% at
// 0.5-1 s. Four reads per client keep the traced run's Chrome trace near
// 800k events, which tools/ppfs_trace_check.py parses in about 0.6 GB.

constexpr int kScaleClients = 1024;
constexpr int kScaleIoNodes = 256;
constexpr int kScaleTenants = 4;
constexpr double kScaleSkew = 1.1;
constexpr ByteCount kScaleRequest = 64 * kKiB;
// One stripe unit on each I/O node of the tenant's quarter of the machine.
constexpr ByteCount kScaleTenantFile = kScaleRequest * (kScaleIoNodes / kScaleTenants);
constexpr std::uint64_t kScaleReadsPerClient = 4;
constexpr SimTime kScaleInterarrival = 2.0;  // mean seconds between arrivals
constexpr std::uint64_t kScaleVerifyOneIn = 64;

std::string tenant_name(int t) { return "tenant" + std::to_string(t); }

void scale_build(Rig& rig, const Options&) {
  build_rig(rig, hw::MachineConfig::paragon_scaled(kScaleClients, kScaleIoNodes), {},
            kScaleClients, false);
}

void scale_populate(Rig& rig, const Options& opt, Outcome& out) {
  std::vector<Task<void>> tasks;
  for (int t = 0; t < kScaleTenants; ++t) {
    // Rotate each tenant's stripe group so the small files tile the I/O
    // nodes instead of all starting on node 0.
    auto attrs = rig.fs->default_attrs();
    std::rotate(attrs.stripe_group.begin(),
                attrs.stripe_group.begin() + t * (kScaleIoNodes / kScaleTenants),
                attrs.stripe_group.end());
    rig.fs->create(tenant_name(t), attrs);
    tasks.push_back(populate_file(rig, t, tenant_name(t), tag_of(opt.seed, t),
                                  kScaleTenantFile, out));
  }
  populate_phase(rig, std::move(tasks));
}

struct ArrivalPlan {
  int tenant = 0;
  sim::Rng rng;
};

/// One open-loop client: arrivals follow its own Poisson clock whether or
/// not the previous read has finished; latency runs from the due time.
Task<void> arrival_client(Rig& rig, int rank, ArrivalPlan plan, std::uint64_t seed,
                          sim::Barrier& start_line, ClientTime& time, Outcome& out) {
  auto& client = *rig.clients[static_cast<std::size_t>(rank)];
  int fd = 0;
  {
    CallSpan s(rig.spans, rig.sim, "open", rank, request_id(rig));
    fd = co_await client.open(tenant_name(plan.tenant), pfs::IoMode::kAsync);
  }
  co_await start_line.arrive_and_wait();
  std::vector<std::byte> buf(kScaleRequest);
  const std::uint64_t blocks = kScaleTenantFile / kScaleRequest;
  SimTime due = rig.sim.now();
  for (std::uint64_t k = 0; k < kScaleReadsPerClient; ++k) {
    due += plan.rng.exponential(kScaleInterarrival);
    const FileOffset off = plan.rng.uniform_int(0, blocks - 1) * kScaleRequest;
    const bool check = plan.rng.uniform_int(0, kScaleVerifyOneIn - 1) == 0;
    ++out.arrivals;
    if (rig.sim.now() < due) {
      co_await rig.sim.delay(due - rig.sim.now());
    } else {
      ++out.backlogged;
    }
    const std::uint64_t req = request_id(rig);
    ByteCount got = 0;
    bool failed = false;
    SimTime t0 = 0;
    try {
      {
        CallSpan s(rig.spans, rig.sim, "seek", rank, req);
        co_await client.seek(fd, off);
      }
      t0 = rig.sim.now();
      CallSpan s(rig.spans, rig.sim, "read", rank, req);
      got = co_await client.read(fd, buf);
    } catch (const ppfs::fault::FaultError&) {
      failed = true;
    }
    ++out.ops;
    out.read_lat.add(rig.sim.now() - due);
    if (!failed) time.in_read += rig.sim.now() - t0;
    out.bytes_read += got;
    if (failed) {
      ++out.fault_ops;
    } else if (got != kScaleRequest ||
               (check && !verify(rig, tag_of(seed, static_cast<std::uint64_t>(plan.tenant)),
                                 off, std::span(buf).first(got), out))) {
      ++out.verify_failures;
    }
  }
  client.close(fd);
}

void scale_timed(Rig& rig, const Options& opt, Outcome& out) {
  sim::Rng master(opt.seed);
  const auto cdf = sim::Rng::make_zipf_cdf(kScaleTenants, kScaleSkew);
  sim::Barrier start_line(rig.sim, kScaleClients);
  std::vector<ClientTime> times(kScaleClients);
  std::vector<Task<void>> tasks;
  for (int r = 0; r < kScaleClients; ++r) {
    ArrivalPlan plan;
    plan.tenant = static_cast<int>(master.zipf(cdf)) - 1;  // zipf ranks from 1
    plan.rng = master.split();
    tasks.push_back(arrival_client(rig, r, std::move(plan), opt.seed, start_line,
                                   times[static_cast<std::size_t>(r)], out));
  }
  run_all(rig, std::move(tasks), "timed phase");
  fold_times(times, out);
}

// --- checkpoint_write -----------------------------------------------------------
// 8 x 8 with byte-range write tokens. Four writers each write their own
// 256 KB slot per round, then write + fsync; after a barrier each reads back
// the record a seeded peer wrote that round and verifies it byte for byte.
// Slots cycle through a ring of kCkptRing rounds, and every (writer, round)
// has its own pattern tag, so a stale record fails verification.

constexpr int kCkptWriters = 4;
constexpr ByteCount kCkptRecord = 256 * kKiB;
constexpr std::uint64_t kCkptRounds = 256;
constexpr std::uint64_t kCkptRing = 8;
constexpr ByteCount kCkptFile = kCkptRing * kCkptWriters * kCkptRecord;

std::uint64_t ckpt_tag(std::uint64_t seed, int writer, std::uint64_t round) {
  return tag_of(seed, 1 + round * kCkptWriters + static_cast<std::uint64_t>(writer));
}

FileOffset ckpt_slot(int writer, std::uint64_t round) {
  return ((round % kCkptRing) * kCkptWriters + static_cast<std::uint64_t>(writer)) *
         kCkptRecord;
}

void ckpt_build(Rig& rig, const Options&) {
  pfs::PfsParams params;
  params.write_tokens = true;
  build_rig(rig, hw::MachineConfig::paragon(8, 8), params, kCkptWriters, false);
}

void ckpt_populate(Rig& rig, const Options& opt, Outcome& out) {
  rig.fs->create("ckpt");
  std::vector<Task<void>> tasks;
  tasks.push_back(populate_file(rig, 0, "ckpt", tag_of(opt.seed, 0), kCkptFile, out));
  populate_phase(rig, std::move(tasks));
}

Task<void> ckpt_writer(Rig& rig, int c, std::uint64_t seed, const std::vector<int>& shift,
                       sim::Barrier& round_line, ClientTime& time, Outcome& out) {
  auto& client = *rig.clients[static_cast<std::size_t>(c)];
  int fd = 0;
  {
    CallSpan s(rig.spans, rig.sim, "open", c, request_id(rig));
    fd = co_await client.open("ckpt", pfs::IoMode::kAsync);
  }
  std::vector<std::byte> buf(kCkptRecord);
  co_await round_line.arrive_and_wait();
  for (std::uint64_t r = 0; r < kCkptRounds; ++r) {
    const FileOffset off = ckpt_slot(c, r);
    fill(rig, ckpt_tag(seed, c, r), off, buf, out);
    const std::uint64_t req = request_id(rig);
    const SimTime t0 = rig.sim.now();
    bool failed = false;
    try {
      {
        CallSpan s(rig.spans, rig.sim, "seek", c, req);
        co_await client.seek(fd, off);
      }
      {
        CallSpan s(rig.spans, rig.sim, "write", c, req);
        co_await client.write(fd, buf);
      }
      CallSpan s(rig.spans, rig.sim, "fsync", c, req);
      co_await client.fsync(fd);
    } catch (const ppfs::fault::FaultError&) {
      failed = true;
    }
    const SimTime dt = rig.sim.now() - t0;
    ++out.ops;
    out.write_lat.add(dt);
    time.in_write += dt;
    out.bytes_written += kCkptRecord;
    if (failed) ++out.fault_ops;

    co_await round_line.arrive_and_wait();  // every record of round r is durable

    const int peer = (c + shift[r]) % kCkptWriters;
    const FileOffset poff = ckpt_slot(peer, r);
    const std::uint64_t rreq = request_id(rig);
    const SimTime r0 = rig.sim.now();
    ByteCount got = 0;
    failed = false;
    try {
      {
        CallSpan s(rig.spans, rig.sim, "seek", c, rreq);
        co_await client.seek(fd, poff);
      }
      CallSpan s(rig.spans, rig.sim, "read", c, rreq);
      got = co_await client.read(fd, buf);
    } catch (const ppfs::fault::FaultError&) {
      failed = true;
    }
    const SimTime rdt = rig.sim.now() - r0;
    ++out.ops;
    out.read_lat.add(rdt);
    time.in_read += rdt;
    out.bytes_read += got;
    if (failed) {
      ++out.fault_ops;
    } else if (got != kCkptRecord ||
               !verify(rig, ckpt_tag(seed, peer, r), poff, std::span(buf).first(got), out)) {
      ++out.verify_failures;
    }

    co_await round_line.arrive_and_wait();  // reads done before slots are reused
  }
  client.close(fd);
}

void ckpt_timed(Rig& rig, const Options& opt, Outcome& out) {
  // Round r: writer c reads back writer (c + shift[r]) mod W, a seeded
  // nonzero rotation, so every record is read by exactly one other writer.
  sim::Rng rng(opt.seed);
  std::vector<int> shift(kCkptRounds);
  for (auto& s : shift) s = 1 + static_cast<int>(rng.uniform_int(0, kCkptWriters - 2));
  sim::Barrier round_line(rig.sim, kCkptWriters);
  std::vector<ClientTime> times(kCkptWriters);
  std::vector<Task<void>> tasks;
  for (int c = 0; c < kCkptWriters; ++c) {
    tasks.push_back(ckpt_writer(rig, c, opt.seed, shift, round_line,
                                times[static_cast<std::size_t>(c)], out));
  }
  run_all(rig, std::move(tasks), "timed phase");
  fold_times(times, out);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const Workload kAll[] = {
      {"paper_balanced_read", paper_build, paper_populate, paper_timed},
      {"scale_open_arrival", scale_build, scale_populate, scale_timed},
      {"checkpoint_write", ckpt_build, ckpt_populate, ckpt_timed},
      {"datapath_pipelined_read", datapath_build, datapath_populate, datapath_timed},
  };
  for (const auto& w : kAll) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace pfsbench
