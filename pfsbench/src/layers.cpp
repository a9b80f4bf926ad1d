#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "hw/mesh.hpp"
#include "hw/node.hpp"
#include "hw/raid.hpp"
#include "pfs/token.hpp"
#include "ufs/block_store.hpp"
#include "ufs/ufs.hpp"
#include "workload/generator.hpp"

namespace pfsbench {

namespace {

namespace hw = ppfs::hw;
namespace pfs = ppfs::pfs;
namespace sim = ppfs::sim;
namespace ufs = ppfs::ufs;
using sim::Task;

// Each driver doubles its op count until one batch takes this long.
constexpr double kMinBatchSeconds = 0.1;
constexpr std::uint64_t kMaxOps = 1u << 22;
// Drivers cycle over this many op-sized slots, bounding their memory.
constexpr std::uint64_t kSlots = 16;

/// One batch of a driver: host seconds, ops done and totals of its counters.
struct Batch {
  double host_s = 0;
  double ops = 0;
  LayerCost totals;  // per-batch sums; divided by the op count later
};

/// Runs `run(n)` for doubling n until a batch is long enough to time.
template <typename RunBatch>
LayerCost per_op(RunBatch&& run) {
  for (std::uint64_t n = 16;; n *= 2) {
    const Batch b = run(n);
    if (b.host_s >= kMinBatchSeconds || n >= kMaxOps) {
      const double k = b.ops;
      LayerCost c = b.totals;
      c.incl_ns = b.host_s * 1e9 / k;
      c.events /= k;
      c.mesh_sends /= k;
      c.ufs_reads /= k;
      c.ufs_writes /= k;
      c.raid_transfers /= k;
      return c;
    }
  }
}

/// Bytes per op from two counters, at least `floor`.
double avg_size(const Counters& c, const char* bytes, const char* ops, double floor) {
  const double n = c.count(ops) ? c.at(ops) : 0;
  return n > 0 ? std::max(floor, c.at(bytes) / n) : floor;
}

ByteCount round_up(double bytes, ByteCount unit) {
  const auto units = static_cast<ByteCount>(std::ceil(bytes / static_cast<double>(unit)));
  return std::max<ByteCount>(1, units) * unit;
}

// --- sim: timer wake-ups with the workload's queue depth ---------------------

Task<void> ticker(sim::Simulation& s, std::uint64_t n, double period) {
  for (std::uint64_t i = 0; i < n; ++i) co_await s.delay(period);
}

LayerCost measure_sim(std::size_t depth) {
  return per_op([depth](std::uint64_t n) {
    sim::Simulation s;
    const std::uint64_t each = std::max<std::uint64_t>(1, n / depth);
    const double h0 = host_now();
    for (std::size_t p = 0; p < depth; ++p) {
      // Distinct periods keep the heap ordering work realistic.
      s.spawn(ticker(s, each, 1e-6 * static_cast<double>(1 + p % 97)));
    }
    s.run();
    const auto events = static_cast<double>(s.events_dispatched());
    Batch b{host_now() - h0, events, {}};
    b.totals.events = events;
    return b;
  });
}

// --- hw.mesh: compute node 0 -> I/O node 0 sends ------------------------------

Task<void> sender(hw::MeshNetwork& mesh, hw::NodeId src, hw::NodeId dst, ByteCount bytes,
                  std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await mesh.send(src, dst, bytes);
}

LayerCost measure_mesh(const hw::MachineConfig& cfg, ByteCount bytes) {
  return per_op([&](std::uint64_t n) {
    sim::Simulation s;
    hw::MeshNetwork mesh(s, cfg.mesh);
    const double h0 = host_now();
    s.spawn(sender(mesh, cfg.compute_nodes.at(0), cfg.io_nodes.at(0), bytes, n));
    s.run();
    Batch b{host_now() - h0, static_cast<double>(n), {}};
    b.totals.events = static_cast<double>(s.events_dispatched());
    return b;
  });
}

// --- hw.raid: sequential transfers ------------------------------------------------

Task<void> transferer(hw::RaidArray& raid, ByteCount bytes, std::uint64_t n) {
  const std::uint64_t step = std::max<std::uint64_t>(1, bytes / raid.stripe_sector_bytes());
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await raid.transfer((i % kSlots) * step, bytes, false);
  }
}

LayerCost measure_raid(const hw::RaidParams& params, ByteCount bytes) {
  return per_op([&](std::uint64_t n) {
    sim::Simulation s;
    hw::RaidArray raid(s, "raid", params);
    const double h0 = host_now();
    s.spawn(transferer(raid, bytes, n));
    s.run();
    Batch b{host_now() - h0, static_cast<double>(n), {}};
    b.totals.events = static_cast<double>(s.events_dispatched());
    return b;
  });
}

// --- ufs: fast-path reads and writes of one file -----------------------------------

Task<void> ufs_ops(ufs::Ufs& u, ufs::InodeNum ino, ByteCount bytes, std::uint64_t n,
                   bool write) {
  std::vector<std::byte> buf(bytes);
  for (std::uint64_t i = 0; i < n; ++i) {
    const FileOffset off = (i % kSlots) * bytes;
    if (write) {
      co_await u.write(ino, off, buf, true);
    } else {
      co_await u.read(ino, off, bytes, buf, true);
    }
  }
}

LayerCost measure_ufs(const hw::MachineConfig& cfg, const ufs::UfsParams& params,
                      ByteCount bytes, bool write) {
  return per_op([&](std::uint64_t n) {
    sim::Simulation s;
    hw::NodeCpu cpu(s, "io-cpu", cfg.io_cpu);
    hw::RaidArray raid(s, "raid", cfg.raid);
    ufs::RaidBlockDevice device(raid);
    ufs::ContentStore content(params.block_bytes);
    ufs::Ufs u(s, "ufs", device, content, &cpu, params);
    const ufs::InodeNum ino = u.create("layer");
    // Reads need allocated blocks: write the slots first, untimed.
    s.spawn(ufs_ops(u, ino, bytes, kSlots, true));
    s.run();
    const auto events0 = s.events_dispatched();
    const auto raid0 = raid.ops();
    const double h0 = host_now();
    s.spawn(ufs_ops(u, ino, bytes, n, write));
    s.run();
    Batch b{host_now() - h0, static_cast<double>(n), {}};
    b.totals.events = static_cast<double>(s.events_dispatched() - events0);
    b.totals.raid_transfers = static_cast<double>(raid.ops() - raid0);
    return b;
  });
}

// --- pfs.client (and prefetch): one client over the workload's mount ----------------

Task<void> client_ops(pfs::PfsClient& c, std::string name, ByteCount bytes, std::uint64_t n,
                      bool write) {
  const int fd = co_await c.open(name, pfs::IoMode::kAsync);
  std::vector<std::byte> buf(bytes);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % kSlots == 0) co_await c.seek(fd, 0);
    if (write) {
      co_await c.write(fd, buf);
    } else {
      co_await c.read(fd, buf);
    }
  }
  if (write) co_await c.fsync(fd);
  c.close(fd);
}

/// Builds the workload's machine and mount (without its prefetchers), adds
/// one driver client and a file of kSlots op-sized records.
struct ClientBench {
  Rig rig;
  std::unique_ptr<pfs::PfsClient> client;
  std::unique_ptr<ppfs::prefetch::PrefetchEngine> engine;

  ClientBench(const Workload& w, Options opt, ByteCount bytes, bool prefetch) {
    opt.prefetch = false;
    w.build(rig, opt);
    client = std::make_unique<pfs::PfsClient>(*rig.fs, 0, 0, 1);
    if (prefetch) engine = ppfs::prefetch::attach_prefetcher(*client, {});
    rig.fs->create("layer");
    rig.sim.spawn(client_ops(*client, "layer", bytes, kSlots, true));
    drain(rig, "client driver populate");
  }
};

LayerCost measure_client(const Workload& w, const Options& opt, ByteCount bytes, bool write,
                         bool prefetch) {
  return per_op([&](std::uint64_t n) {
    ClientBench cb(w, opt, bytes, prefetch);
    const Counters before = snapshot(cb.rig);
    const double h0 = host_now();
    cb.rig.sim.spawn(client_ops(*cb.client, "layer", bytes, n, write));
    drain(cb.rig, "client driver");
    Batch b{host_now() - h0, static_cast<double>(n), {}};
    const Counters after = snapshot(cb.rig);
    const auto d = [&](const char* k) { return after.at(k) - before.at(k); };
    b.totals.events = d("sim.events");
    b.totals.mesh_sends = d("hw.mesh.sends");
    b.totals.ufs_reads = d("ufs.reads");
    b.totals.ufs_writes = d("ufs.writes");
    b.totals.raid_transfers = d("hw.raid.transfers");
    return b;
  });
}

// --- pfs.token: two holders alternately taking the same range ------------------------

class NullHolder final : public pfs::TokenRevokeHandler {
 public:
  explicit NullHolder(hw::NodeId node) : node_(node) {}
  hw::NodeId token_node() const override { return node_; }
  Task<void> on_token_revoke(pfs::FileId, pfs::TokenRange, pfs::TokenMode) override {
    co_return;
  }

 private:
  hw::NodeId node_;
};

Task<void> acquirer(pfs::TokenManager& tm, int a, int b, ByteCount bytes, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    // Writer then reader on each slot: every acquisition revokes a grant.
    const FileOffset off = ((i / 2) % kSlots) * bytes;
    const bool writer = i % 2 == 0;
    co_await tm.acquire(writer ? a : b, 1, off, off + bytes,
                        writer ? pfs::TokenMode::kWrite : pfs::TokenMode::kRead);
  }
}

LayerCost measure_token(const Workload& w, Options opt, ByteCount bytes) {
  opt.prefetch = false;
  return per_op([&](std::uint64_t n) {
    Rig rig;
    w.build(rig, opt);
    auto& tm = rig.fs->tokens();
    NullHolder ha(rig.machine->compute_node(0));
    NullHolder hb(rig.machine->compute_node(1 % rig.machine->compute_node_count()));
    const int a = tm.register_handler(&ha);
    const int b = tm.register_handler(&hb);
    const Counters before = snapshot(rig);
    const double h0 = host_now();
    rig.sim.spawn(acquirer(tm, a, b, bytes, n));
    drain(rig, "token driver");
    Batch batch{host_now() - h0, static_cast<double>(n), {}};
    const Counters after = snapshot(rig);
    batch.totals.events = after.at("sim.events") - before.at("sim.events");
    batch.totals.mesh_sends = after.at("hw.mesh.sends") - before.at("hw.mesh.sends");
    tm.unregister_handler(a);
    tm.unregister_handler(b);
    return batch;
  });
}

// --- workload.pattern ------------------------------------------------------------

double measure_pattern(ByteCount bytes, bool verify) {
  std::vector<std::byte> buf(bytes);
  ppfs::workload::fill_pattern(7, 0, buf);
  for (std::uint64_t n = 4;; n *= 2) {
    std::size_t sink = 0;
    const double h0 = host_now();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (verify) {
        sink += ppfs::workload::find_pattern_mismatch(7, 0, buf);
      } else {
        ppfs::workload::fill_pattern(7, 0, buf);
      }
    }
    const double dt = host_now() - h0;
    // A clean buffer always returns kNoMismatch; the check keeps the calls.
    if (verify && sink != n * ppfs::workload::kNoMismatch) return -1;
    if (dt >= kMinBatchSeconds || n >= kMaxOps) {
      return dt * 1e9 / (static_cast<double>(n) * static_cast<double>(bytes));
    }
  }
}

}  // namespace

LayerCosts measure_layers(const Workload& w, const Options& opt, const Counters& total,
                          bool prefetch_on, bool tokens_on) {
  LayerCosts lc;
  Rig probe;
  Options built = opt;
  built.prefetch = false;
  w.build(probe, built);
  const hw::MachineConfig& cfg = probe.machine->config();
  const auto& ufs_params = probe.fs->params().ufs;
  const ByteCount block = ufs_params.block_bytes;

  const auto mesh_bytes =
      static_cast<ByteCount>(avg_size(total, "hw.mesh.bytes", "hw.mesh.sends", 1));
  const auto raid_bytes =
      static_cast<ByteCount>(avg_size(total, "hw.raid.bytes", "hw.raid.transfers", 512));
  lc.ufs_read_bytes = static_cast<double>(
      round_up(avg_size(total, "ufs.bytes_read", "ufs.reads", 1), block));
  lc.ufs_write_bytes = static_cast<double>(
      round_up(avg_size(total, "ufs.bytes_written", "ufs.writes", 1), block));
  const auto read_bytes = static_cast<ByteCount>(
      avg_size(total, "pfs.client.bytes_read", "pfs.client.reads", 1));
  const auto write_bytes = static_cast<ByteCount>(
      avg_size(total, "pfs.client.bytes_written", "pfs.client.writes", 1));

  lc.sim = measure_sim(std::max<std::size_t>(
      1, static_cast<std::size_t>(total.at("sim.peak_pending_events"))));
  lc.mesh = measure_mesh(cfg, mesh_bytes);
  lc.raid = measure_raid(cfg.raid, raid_bytes);
  lc.ufs_read = measure_ufs(cfg, ufs_params, static_cast<ByteCount>(lc.ufs_read_bytes), false);
  lc.ufs_write = measure_ufs(cfg, ufs_params, static_cast<ByteCount>(lc.ufs_write_bytes), true);
  lc.client_read = measure_client(w, opt, read_bytes, false, false);
  lc.client_write = measure_client(w, opt, write_bytes, true, false);
  if (prefetch_on) {
    const LayerCost with_engine = measure_client(w, opt, read_bytes, false, true);
    lc.prefetch_overhead_ns = with_engine.incl_ns - lc.client_read.incl_ns;
  }
  if (tokens_on) lc.token = measure_token(w, opt, write_bytes);
  lc.fill_ns_per_byte = measure_pattern(read_bytes, false);
  lc.verify_ns_per_byte = measure_pattern(read_bytes, true);

  // Self cost: inclusive cost minus each child driver's inclusive cost for
  // the child ops one op caused; kernel events not inside a child driver
  // are charged at the sim driver's rate.
  const double ev = lc.sim.incl_ns;
  lc.sim.self_ns = ev;
  for (LayerCost* leaf : {&lc.mesh, &lc.raid}) leaf->self_ns = leaf->incl_ns - leaf->events * ev;
  for (LayerCost* u : {&lc.ufs_read, &lc.ufs_write}) {
    const double own_events = std::max(0.0, u->events - u->raid_transfers * lc.raid.events);
    u->self_ns = u->incl_ns - u->raid_transfers * lc.raid.incl_ns - own_events * ev;
  }
  for (LayerCost* c : {&lc.client_read, &lc.client_write, &lc.token}) {
    const double child_events = c->mesh_sends * lc.mesh.events +
                                c->ufs_reads * lc.ufs_read.events +
                                c->ufs_writes * lc.ufs_write.events;
    const double own_events = std::max(0.0, c->events - child_events);
    c->self_ns = c->incl_ns - c->mesh_sends * lc.mesh.incl_ns -
                 c->ufs_reads * lc.ufs_read.incl_ns - c->ufs_writes * lc.ufs_write.incl_ns -
                 own_events * ev;
  }
  return lc;
}

}  // namespace pfsbench
