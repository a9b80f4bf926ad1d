// The paper's motivating SPMD scenario: a parallel application sweeps a
// large out-of-core matrix stored row-blocked in a PFS file. Each
// iteration, every rank reads its next block of rows (M_RECORD), then
// computes on it. We run it with and without prefetching and report the
// observed read bandwidth and total runtime — the Figure 4 effect, in
// application form.
//
//   $ ./balanced_matrix [compute_ms_per_block]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "workload/run.hpp"

using namespace ppfs;

namespace {

constexpr int kRanks = 8;
constexpr sim::ByteCount kRowBytes = 8 * 1024;        // one matrix row
constexpr sim::ByteCount kRowsPerBlock = 16;          // rows per read
constexpr sim::ByteCount kBlock = kRowBytes * kRowsPerBlock;  // 128 KB
constexpr int kIterations = 24;                        // blocks per rank

struct RunStats {
  sim::SimTime wall = 0;
  sim::SimTime in_read = 0;
  double checksum = 0;
};

sim::Task<void> worker(sim::Simulation& sim, pfs::PfsClient& c, double compute_s,
                       RunStats& out) {
  const int fd = co_await c.open("matrix", pfs::IoMode::kRecord);
  std::vector<std::byte> block(kBlock);
  const sim::SimTime t0 = sim.now();
  for (int it = 0; it < kIterations; ++it) {
    const sim::SimTime r0 = sim.now();
    co_await c.read(fd, block);
    out.in_read += sim.now() - r0;
    // "Compute": fold the block into a checksum, then burn the simulated
    // compute phase the paper models with inter-read delays.
    for (std::size_t i = 0; i < block.size(); i += 512) {
      out.checksum += static_cast<double>(static_cast<unsigned char>(block[i]));
    }
    co_await sim.delay(compute_s);
  }
  out.wall = sim.now() - t0;
  c.close(fd);
}

RunStats run_config(bool prefetch, double compute_s) {
  workload::Run run({.ncompute = kRanks}, kRanks);
  run.fs().create("matrix", run.fs().default_attrs());
  if (prefetch) run.attach_prefetchers(prefetch::PrefetchConfig{});

  // Load the matrix (kRanks * kIterations blocks), patterned with tag 3.
  run.populate({{0, "matrix", kBlock * kRanks * kIterations, 3}});

  std::vector<RunStats> stats(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    run.sim().spawn(worker(run.sim(), run.client(r), compute_s, stats[r]));
  }
  run.drain("matrix sweep");

  RunStats agg;
  for (const auto& s : stats) {
    agg.wall = std::max(agg.wall, s.wall);
    agg.in_read = std::max(agg.in_read, s.in_read);
    agg.checksum += s.checksum;
  }
  return agg;
}

}  // namespace

int main(int argc, char** argv) {
  const double compute_ms = argc > 1 ? std::atof(argv[1]) : 30.0;
  const double compute_s = compute_ms / 1000.0;
  const double total_mb =
      static_cast<double>(kBlock) * kRanks * kIterations / 1.0e6;

  std::printf("out-of-core matrix sweep: %d ranks x %d blocks x 128KB (%.0f MB), "
              "%.0f ms compute per block\n\n",
              kRanks, kIterations, total_mb, compute_ms);

  const RunStats off = run_config(false, compute_s);
  const RunStats on = run_config(true, compute_s);
  if (off.checksum != on.checksum) {
    std::printf("CHECKSUM MISMATCH: prefetching changed the data!\n");
    return 1;
  }

  std::printf("%-18s %12s %16s %20s\n", "config", "runtime", "time in read()",
              "observed read B/W");
  std::printf("%-18s %10.2fs %14.2fs %17.1f MB/s\n", "no prefetch", off.wall, off.in_read,
              total_mb / off.in_read);
  std::printf("%-18s %10.2fs %14.2fs %17.1f MB/s\n", "prefetch", on.wall, on.in_read,
              total_mb / on.in_read);
  std::printf("\nspeedup: %.2fx runtime, %.2fx observed read bandwidth\n",
              off.wall / on.wall, off.in_read / on.in_read);
  return 0;
}
