// google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, deep-backlog drain, coroutine spawn cost,
// resource contention, stripe mapping, RNG, and pattern fill. These guard
// the simulator's own performance — the paper benches run millions of
// events per sweep.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <vector>

#include "pfs/stripe.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "workload/generator.hpp"

namespace {

using ppfs::sim::Resource;
using ppfs::sim::Rng;
using ppfs::sim::Simulation;
using ppfs::sim::Task;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.call_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

// Production backlog depths on a bare EventQueue: push range(0) events with
// microsecond-quantized pseudo-random times over a ~1 s horizon (lock-step
// nodes schedule waves at identical instants, so deep tie buckets form),
// then drain, checking the kernel's order contract: nondecreasing time,
// ties by seq. Items are pushes plus pops; bytes_per_pending is the queue's
// footprint over its peak depth. The 10^7 depth needs about 1.1 GB.
void BM_DeepQueueDrain(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  double bytes_per_pending = 0;
  for (auto _ : state) {
    ppfs::sim::EventQueue q;
    Rng rng(7);
    for (std::uint64_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(rng.uniform_int(0, 1000000)) * 1e-6;
      q.push(t, i, std::coroutine_handle<>{});
    }
    ppfs::sim::SimTime last = 0;
    std::uint64_t last_seq = 0;
    bool in_order = true;
    while (!q.empty()) {
      const auto e = q.pop();
      in_order = in_order && (e.t > last || (e.t == last && e.seq >= last_seq));
      last = e.t;
      last_seq = e.seq;
    }
    benchmark::DoNotOptimize(last_seq);
    if (!in_order) {
      state.SkipWithError("deep-queue drain out of order");
      break;
    }
    bytes_per_pending =
        static_cast<double>(q.memory_bytes()) / static_cast<double>(q.peak_pending());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
  state.counters["bytes_per_pending"] = bytes_per_pending;
}
BENCHMARK(BM_DeepQueueDrain)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

Task<void> hop(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0.001);
}

void BM_CoroutineDelayHops(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int p = 0; p < 100; ++p) sim.spawn(hop(sim, static_cast<int>(state.range(0))));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 100 * state.range(0));
}
BENCHMARK(BM_CoroutineDelayHops)->Arg(10)->Arg(100);

Task<void> contend(Simulation& sim, Resource& res, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await res.acquire();
    co_await sim.delay(0.0001);
  }
}

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Resource res(sim, 4);
    for (int p = 0; p < 32; ++p) sim.spawn(contend(sim, res, static_cast<int>(state.range(0))));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 32 * state.range(0));
}
BENCHMARK(BM_ResourceContention)->Arg(50);

void BM_StripeMap(benchmark::State& state) {
  ppfs::pfs::StripeAttrs attrs;
  attrs.stripe_unit = 64 * 1024;
  attrs.stripe_group = {0, 1, 2, 3, 4, 5, 6, 7};
  ppfs::pfs::StripeLayout layout(attrs);
  const ppfs::sim::ByteCount len = static_cast<ppfs::sim::ByteCount>(state.range(0)) * 1024;
  ppfs::sim::FileOffset off = 0;
  for (auto _ : state) {
    auto reqs = layout.map(off, len);
    benchmark::DoNotOptimize(reqs);
    off += len;
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
}
BENCHMARK(BM_StripeMap)->Arg(64)->Arg(1024)->Arg(4096);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_PatternFill(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)) * 1024);
  for (auto _ : state) {
    ppfs::workload::fill_pattern(7, 0, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_PatternFill)->Arg(64)->Arg(1024);

void BM_PatternVerify(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)) * 1024);
  ppfs::workload::fill_pattern(7, 0, buf);
  for (auto _ : state) {
    const std::size_t bad = ppfs::workload::find_pattern_mismatch(7, 0, buf);
    if (bad != ppfs::workload::kNoMismatch) {
      state.SkipWithError("pattern mismatch");
      break;
    }
    benchmark::DoNotOptimize(bad);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_PatternVerify)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
