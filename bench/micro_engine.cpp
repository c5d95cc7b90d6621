// Micro-benchmarks of the simulation engine (google-benchmark): event queue
// throughput, RNG, queue disciplines, histogram ingestion, and a full
// end-to-end simulation step rate. These bound how much simulated traffic
// the figure benches can afford.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "fec/adapt.hpp"
#include "fec/codec.hpp"
#include "obs/live/publisher.hpp"
#include "net/network.hpp"
#include "net/sharded_network.hpp"
#include "tcp/cbr.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it, so
// benchmarks can assert (as a reported counter) that the engine's hot path
// is allocation-free in steady state.
//
// The replacements below are matched pairs (malloc-backed new, free-backed
// delete), but gcc's -Wmismatched-new-delete reasons about the *default*
// operator new when it sees inlined callers in this TU and flags every
// free() — a false positive specific to allocation-replacing TUs.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace lossburst;
using util::Duration;
using util::TimePoint;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(TimePoint(rng.uniform_int(0, 1'000'000)), [] {});
    }
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Half the scheduled events are cancelled: exercises lazy deletion.
  const std::size_t n = 16384;
  util::Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(q.schedule(TimePoint(rng.uniform_int(0, 1'000'000)), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) handles[i].cancel();
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueHold(benchmark::State& state) {
  // Classic "hold" model: keep n events pending; each step pops the earliest
  // and schedules a replacement at a random future time. This isolates the
  // 4-ary heap's sift costs at a steady queue depth, the regime the TCP
  // simulations live in.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  sim::EventQueue q;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(TimePoint(rng.uniform_int(0, 1'000'000)), [] {});
  }
  for (auto _ : state) {
    now = q.pop_and_run().ns();
    q.schedule(TimePoint(now + rng.uniform_int(1, 1'000'000)), [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(1024)->Arg(65536);

void BM_EventQueueSteadyStateAllocs(benchmark::State& state) {
  // Acceptance gate: schedule()/pop_and_run() must not allocate once the
  // slab pools and heap have reached their high-water marks. The reported
  // `allocs_per_op` counter must be 0.00.
  const std::size_t n = 4096;
  util::Rng rng(9);
  sim::EventQueue q;
  // Warm to the high-water mark, then drain back to the hold depth.
  for (std::size_t i = 0; i < 2 * n; ++i) {
    q.schedule(TimePoint(rng.uniform_int(0, 1'000'000)), [] {});
  }
  while (q.size() > n) (void)q.pop_and_run();
  // Warm past the ladder's first rung-window reseed (~134 ms of simulated
  // time in): the reseed raises the rung/overflow capacity floors once per
  // population high-water, and that one-time cost must not land inside the
  // counter window. Then require a fully allocation-free hold round before
  // opening it.
  std::int64_t warm_now = 0;
  while (warm_now < 300'000'000) {
    warm_now = q.pop_and_run().ns();
    q.schedule(TimePoint(warm_now + rng.uniform_int(1, 1'000'000)), [] {});
  }
  for (int round = 0; round < 64; ++round) {
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 65536; ++i) {
      warm_now = q.pop_and_run().ns();
      q.schedule(TimePoint(warm_now + rng.uniform_int(1, 1'000'000)), [] {});
    }
    if (g_heap_allocs.load() == before) break;
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    const std::int64_t now = q.pop_and_run().ns();
    q.schedule(TimePoint(now + rng.uniform_int(1, 1'000'000)), [] {});
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyStateAllocs);

void BM_EventQueueCancelAllocs(benchmark::State& state) {
  // Same gate for the cancel path: schedule-then-cancel churn recycles slots
  // eagerly and must be allocation-free in steady state.
  const std::size_t n = 4096;
  util::Rng rng(10);
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  handles.reserve(n);
  // Warm-up pass establishes the slab/heap high-water mark.
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(q.schedule(TimePoint(rng.uniform_int(0, 1'000'000)), [] {}));
  }
  for (auto& h : handles) h.cancel();
  handles.clear();
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    sim::EventHandle h = q.schedule(TimePoint(rng.uniform_int(0, 1'000'000)), [] {});
    h.cancel();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelAllocs);

void BM_TimerChurn(benchmark::State& state) {
  // The RTO-timer pattern that motivated the ladder tier (DESIGN.md §11): a
  // large population of far-future timers that are nearly always cancelled
  // and re-armed before firing, while a sparse near-term stream actually
  // dispatches. A single heap pays O(log n) sifts per re-arm; the ladder
  // parks far timers in a rung or the overflow list for O(1).
  const std::size_t n = 65536;
  util::Rng rng(14);
  sim::EventQueue q;
  std::vector<sim::EventHandle> timers(n);
  std::int64_t now = 0;
  const auto far = [&] { return now + 200'000'000 + rng.uniform_int(0, 1'000'000'000); };
  for (std::size_t i = 0; i < n; ++i) {
    timers[i] = q.schedule(TimePoint(far()), [] {});
  }
  std::uint64_t ticks = 0;
  const auto churn = [&] {
    const std::size_t i = static_cast<std::size_t>(rng.next() % n);
    timers[i].cancel();
    timers[i] = q.schedule(TimePoint(far()), [] {});
    if ((++ticks & 15u) == 0) {  // sparse near-term dispatch advances now
      q.schedule(TimePoint(now + rng.uniform_int(1, 1'000)), [] {});
      now = q.pop_and_run().ns();
    }
  };
  // Warm until a full churn round allocates nothing: event slabs, rung
  // buckets, and the compaction sweep must all be at their high-water marks
  // before the zero-allocation window opens. Drive simulated time past the
  // ladder's first rung-window reseed (at ~134 ms, when the construction-
  // time window is exhausted) — that reseed raises the rung/overflow
  // capacity floors once, and the one-time cost must stay out of the
  // counter window.
  while (now < 150'000'000) churn();
  for (int round = 0; round < 256; ++round) {
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 16384; ++i) churn();
    if (g_heap_allocs.load() == before) break;
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    churn();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["timer_high_water"] = static_cast<double>(q.heap_high_water());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerChurn);

constexpr std::int64_t kProbePeriodNs = 2'000'000;

void BM_EventQueuePeriodicSources(benchmark::State& state) {
  // The pending-set shape of the PlanetLab probe campaign (DESIGN.md §11):
  // 1024 sources ticking every 2 ms with staggered phases, each tick
  // putting a packet on a link (a transmit-done event ~12 us out, then an
  // arrival one propagation delay later), and one timer 100 s out. Rungs
  // sized by the pending set's span would stretch over that timer and send
  // every event through the near heap; density-sized rungs keep it small.
  // `allocs_per_op` must be 0.00 once the rung and overflow floors settle.
  struct Campaign {
    sim::EventQueue q;
    util::Rng rng{15};

    void tick(std::int64_t at) {
      q.schedule(TimePoint(at + kProbePeriodNs), [this, at] { tick(at + kProbePeriodNs); });
      const std::int64_t tx_done = at + 12'000 + rng.uniform_int(0, 4'000);
      q.schedule(TimePoint(tx_done), [this, tx_done] {
        q.schedule(TimePoint(tx_done + rng.uniform_int(500'000, 5'000'000)), [] {});
      });
    }
  };
  Campaign c;
  for (int i = 0; i < 1024; ++i) {
    const std::int64_t at = c.rng.uniform_int(0, kProbePeriodNs - 1);
    c.q.schedule(TimePoint(at), [&c, at] { c.tick(at); });
  }
  c.q.schedule(TimePoint(100'000'000'000), [] {});
  // Warm past the construction-time rung window (~134 ms) and its first
  // reseeds, then until a full round allocates nothing.
  std::int64_t now = 0;
  while (now < 300'000'000) now = c.q.pop_and_run().ns();
  for (int round = 0; round < 64; ++round) {
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 65536; ++i) (void)c.q.pop_and_run();
    if (g_heap_allocs.load() == before) break;
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    (void)c.q.pop_and_run();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["near_size"] = static_cast<double>(c.q.near_size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePeriodicSources);

void BM_Xoshiro(benchmark::State& state) {
  util::Rng rng(3);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.next();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Xoshiro);

void BM_ExponentialDraw(benchmark::State& state) {
  util::Rng rng(4);
  double acc = 0.0;
  for (auto _ : state) acc += rng.exponential(1.0);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExponentialDraw);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  net::PacketPool pool;
  net::DropTailQueue q(1024);
  q.attach(nullptr, &pool);
  net::Packet pkt;
  pkt.size_bytes = 1000;
  // Warm the pool and queue to their high-water marks before counting.
  for (int i = 0; i < 2048; ++i) {
    if (!q.enqueue(pool.materialize(pkt))) {
      while (!q.empty()) pool.release(q.dequeue());
    }
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    if (!q.enqueue(pool.materialize(pkt))) {
      while (!q.empty()) pool.release(q.dequeue());
    }
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_RedEnqueueDequeue(benchmark::State& state) {
  net::PacketPool pool;
  net::RedQueue::Params params;
  params.capacity_pkts = 1024;
  params.min_th = 256;
  params.max_th = 768;
  net::RedQueue q(params, util::Rng(5));
  q.attach(nullptr, &pool);
  net::Packet pkt;
  pkt.size_bytes = 1000;
  for (int i = 0; i < 2048; ++i) {
    if (!q.enqueue(pool.materialize(pkt))) {
      while (!q.empty()) pool.release(q.dequeue());
    }
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    if (!q.enqueue(pool.materialize(pkt))) {
      while (!q.empty()) pool.release(q.dequeue());
    }
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RedEnqueueDequeue);

class CountSink final : public net::Endpoint {
 public:
  void receive(const net::Packet&, const net::PacketOptions*) override { ++count; }
  std::uint64_t count = 0;
};

void BM_LinkForward(benchmark::State& state) {
  // The zero-allocation gate for the packet datapath: inject -> pool
  // materialize -> queue -> serialize -> in-flight FIFO -> deliver ->
  // release, one full packet per op. After warm-up the pool, ring buffers
  // and event slabs are all at their high-water marks; `allocs_per_op`
  // must report 0.00.
  sim::Simulator sim(11);
  net::Network network(sim);
  net::Link* link = network.add_link("l", 10'000'000'000ULL, Duration::micros(10),
                                     std::make_unique<net::DropTailQueue>(256));
  const net::Route* route = network.add_route({link});
  CountSink sink;
  net::Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 1000;
  pkt.route = route;
  pkt.sink = &sink;
  // Warm-up: a burst (grows the queue/flight rings) plus singles.
  for (int i = 0; i < 64; ++i) {
    net::Packet p = pkt;
    net::inject(std::move(p));
  }
  sim.run();
  for (int i = 0; i < 1024; ++i) {
    net::Packet p = pkt;
    net::inject(std::move(p));
    sim.run();
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    net::Packet p = pkt;
    net::inject(std::move(p));
    sim.run();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["pool_high_water"] = static_cast<double>(network.pool().high_water());
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkForward);

void BM_FaultLinkForward(benchmark::State& state) {
  // BM_LinkForward with the full fault layer armed on the link: a Gilbert
  // loss channel (loss=0 so every packet still runs the chain but survives)
  // plus corruption/duplication probes at probability 0. Measures the
  // per-packet cost of fault checks and proves the fault path allocates
  // nothing in steady state — the same 0.00 allocs_per_op gate as the
  // plain datapath.
  sim::Simulator sim(12);
  net::Network network(sim);
  net::Link* link = network.add_link("l", 10'000'000'000ULL, Duration::micros(10),
                                     std::make_unique<net::DropTailQueue>(256));
  const net::Route* route = network.add_route({link});

  fault::FaultPlan plan;
  plan.seed = 12;
  // drop_in_bad ~ 0: the chain advances per packet, essentially nothing drops,
  // so every op still exercises the full forward path end to end.
  plan.gilbert.push_back({"l", 0.01, 0.5, 1e-9, 0.0, -1.0});
  plan.corrupt.push_back({"l", 1e-9, 1e-9, 0.0, -1.0});
  fault::FaultInjector injector(network, plan);

  CountSink sink;
  net::Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 1000;
  pkt.route = route;
  pkt.sink = &sink;
  for (int i = 0; i < 64; ++i) {
    net::Packet p = pkt;
    net::inject(std::move(p));
  }
  sim.run();
  for (int i = 0; i < 1024; ++i) {
    net::Packet p = pkt;
    net::inject(std::move(p));
    sim.run();
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    net::Packet p = pkt;
    net::inject(std::move(p));
    sim.run();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["fault_gilbert_drops"] =
      static_cast<double>(injector.counters("l").gilbert_drops);
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultLinkForward);

void BM_LinkBurstDrain(benchmark::State& state) {
  // A standing backlog drained end to end: 256 packets queue behind a busy
  // line and leave one kLinkTx plus one kLinkArrive event each (about 2
  // events per packet). Items are packets; the zero-allocation gate applies
  // to the whole drain, so queue, flight ring and pool must all have reached
  // their high-water marks during warm-up.
  sim::Simulator sim(15);
  net::Network network(sim);
  net::Link* link = network.add_link("l", 1'000'000'000ULL, Duration::micros(10),
                                     std::make_unique<net::DropTailQueue>(2048));
  const net::Route* route = network.add_route({link});
  CountSink sink;
  net::Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 1000;
  pkt.route = route;
  pkt.sink = &sink;
  constexpr int kBurst = 256;
  const auto drain_burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      net::Packet p = pkt;
      net::inject(std::move(p));
    }
    sim.run();
  };
  for (int i = 0; i < 8; ++i) drain_burst();  // pool/rings to high water
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  const std::uint64_t events_before = sim.events_executed();
  for (auto _ : state) {
    drain_burst();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  const std::uint64_t pkts = ops * static_cast<std::uint64_t>(kBurst);
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["events_per_pkt"] =
      static_cast<double>(sim.events_executed() - events_before) /
      static_cast<double>(pkts == 0 ? 1 : pkts);
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
}
BENCHMARK(BM_LinkBurstDrain);

void BM_HistogramAdd(benchmark::State& state) {
  util::Histogram h(0.0, 2.0, 100);
  util::Rng rng(6);
  for (auto _ : state) h.add(rng.uniform(0.0, 2.5));
  benchmark::DoNotOptimize(h.total());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramAdd);

void BM_FullTcpSimulationSecond(benchmark::State& state) {
  // End-to-end cost: one simulated second of 8 NewReno flows on a 100 Mbps
  // dumbbell. Reported items are simulator events.
  for (auto _ : state) {
    sim::Simulator sim(7);
    net::Network network(sim);
    net::DumbbellConfig cfg;
    cfg.flow_count = 8;
    cfg.access_delays.assign(8, Duration::millis(10));
    net::Dumbbell bell = net::build_dumbbell(network, cfg);
    std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
    for (std::size_t i = 0; i < 8; ++i) {
      flows.push_back(std::make_unique<tcp::TcpFlow>(
          sim, static_cast<net::FlowId>(i + 1), bell.fwd_routes[i], bell.rev_routes[i]));
      flows.back()->sender().start(TimePoint::zero());
    }
    sim.run_until(TimePoint::zero() + Duration::seconds(1));
    state.counters["events"] = static_cast<double>(sim.events_executed());
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_FullTcpSimulationSecond)->Unit(benchmark::kMillisecond);

void BM_DumbbellSecond(benchmark::State& state) {
  // Steady-state variant of the full simulation: the first simulated second
  // (slow start, pool/slab growth) runs untimed; the timed region is the
  // second simulated second, where the datapath should be in its
  // fixed-capacity regime. Allocation counters cover the timed region only;
  // residual allocations come from TCP bookkeeping (reassembly, SACK
  // scoreboard), not the forwarding path.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(12);
    net::Network network(sim);
    net::DumbbellConfig cfg;
    cfg.flow_count = 8;
    cfg.access_delays.assign(8, Duration::millis(10));
    net::Dumbbell bell = net::build_dumbbell(network, cfg);
    std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
    for (std::size_t i = 0; i < 8; ++i) {
      flows.push_back(std::make_unique<tcp::TcpFlow>(
          sim, static_cast<net::FlowId>(i + 1), bell.fwd_routes[i], bell.rev_routes[i]));
      flows.back()->sender().start(TimePoint::zero());
    }
    sim.run_until(TimePoint::zero() + Duration::seconds(1));
    const std::uint64_t allocs_before = g_heap_allocs.load();
    const std::uint64_t events_before = sim.events_executed();
    state.ResumeTiming();
    sim.run_until(TimePoint::zero() + Duration::seconds(2));
    state.PauseTiming();
    state.counters["events"] =
        static_cast<double>(sim.events_executed() - events_before);
    state.counters["allocs_total"] =
        static_cast<double>(g_heap_allocs.load() - allocs_before);
    state.counters["pool_high_water"] = static_cast<double>(network.pool().high_water());
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DumbbellSecond)->Unit(benchmark::kMillisecond);

void BM_ObsOverhead(benchmark::State& state) {
  // Telemetry cost on the steady-state dumbbell second (same workload as
  // BM_DumbbellSecond). Three runtime configurations:
  //   Arg 0  "detached"  no Telemetry attached: each instrumented call
  //                      site costs one null check.
  //   Arg 1  "disabled"  Telemetry attached (metrics registered, recorder
  //                      configured) but recording off and no sampling —
  //                      the instrumented-but-idle hot path.
  //   Arg 2  "enabled"   flight recorder on (default kinds) plus 100 ms
  //                      interval sampling: the --obs-dir configuration.
  const int mode = static_cast<int>(state.range(0));
  state.SetLabel(mode == 0 ? "detached" : mode == 1 ? "disabled" : "enabled");
  for (auto _ : state) {
    state.PauseTiming();
    {
      sim::Simulator sim(12);
      obs::Telemetry telemetry;
      if (mode >= 1) {
        telemetry.recorder().configure(obs::ObsConfig{}.trace_capacity, obs::kDefaultKinds);
        telemetry.recorder().set_enabled(mode == 2);
        sim.set_telemetry(&telemetry);
      }
      net::Network network(sim);
      net::DumbbellConfig cfg;
      cfg.flow_count = 8;
      cfg.access_delays.assign(8, Duration::millis(10));
      net::Dumbbell bell = net::build_dumbbell(network, cfg);
      std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
      for (std::size_t i = 0; i < 8; ++i) {
        flows.push_back(std::make_unique<tcp::TcpFlow>(
            sim, static_cast<net::FlowId>(i + 1), bell.fwd_routes[i], bell.rev_routes[i]));
        flows.back()->sender().start(TimePoint::zero());
      }
      std::unique_ptr<obs::IntervalSeries> series;
      std::unique_ptr<sim::PeriodicProcess> sampler;
      if (mode == 2) {
        series = std::make_unique<obs::IntervalSeries>(telemetry.registry());
        series->reserve(64);
        sampler = std::make_unique<sim::PeriodicProcess>(
            sim, Duration::millis(100), [&] { series->sample(sim.now()); });
        sampler->start(Duration::millis(100));
      }
      sim.run_until(TimePoint::zero() + Duration::seconds(1));
      const std::uint64_t allocs_before = g_heap_allocs.load();
      state.ResumeTiming();
      sim.run_until(TimePoint::zero() + Duration::seconds(2));
      state.PauseTiming();
      state.counters["allocs_total"] =
          static_cast<double>(g_heap_allocs.load() - allocs_before);
      if (mode >= 1) {
        state.counters["trace_records"] =
            static_cast<double>(telemetry.recorder().total_records());
      }
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_ObsSteadyStateAllocs(benchmark::State& state) {
  // Acceptance gate: with telemetry fully enabled (flight recorder on for
  // every kind, metrics registered), the queue hot path must still not
  // allocate — record() writes into the preallocated ring and the counters
  // are plain members. The reported `allocs_per_op` must be 0.00.
  sim::Simulator sim(13);
  obs::Telemetry telemetry;
  telemetry.recorder().configure(std::size_t{1} << 16, obs::kAllKinds);
  sim.set_telemetry(&telemetry);
  net::PacketPool pool;
  net::DropTailQueue q(1024);
  q.attach(&sim, &pool);
  q.set_obs_track(telemetry.recorder().register_track("bench queue"));
  net::Packet pkt;
  pkt.size_bytes = 1000;
  for (int i = 0; i < 2048; ++i) {
    if (!q.enqueue(pool.materialize(pkt))) {
      while (!q.empty()) pool.release(q.dequeue());
    }
  }
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    if (!q.enqueue(pool.materialize(pkt))) {
      while (!q.empty()) pool.release(q.dequeue());
    }
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["trace_records"] = static_cast<double>(telemetry.recorder().total_records());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSteadyStateAllocs);

// Counts and discards what the exporters write, so the export benchmarks
// time formatting and stream calls, not the file system.
class DiscardBuf : public std::streambuf {
 public:
  std::int64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += n;
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
};

void BM_IntervalCsvExport(benchmark::State& state) {
  // IntervalSeries::write_csv on a registry shaped like the observed FIG2
  // dumbbell's (1300 columns x 350 rows): per group of 13 columns, 9
  // counters that advance by small random steps (often 0), 2 integral
  // gauges and 2 fractional ones (cwnd- and srtt-like), so most cells are
  // integers as in the real export.
  constexpr std::size_t kColumns = 1300;
  constexpr std::size_t kRows = 350;
  obs::Registry registry;
  const int owner = 0;
  std::vector<std::uint64_t> counters(kColumns);
  std::vector<double> gauges(kColumns);
  const obs::Registry::ReadFn read_gauge = [](const void* ctx) {
    return *static_cast<const double*>(ctx);
  };
  for (std::size_t c = 0; c < kColumns; ++c) {
    std::string name = std::to_string(c / 13);
    name += '.';
    name += std::to_string(c % 13);
    if (c % 13 < 9) {
      registry.add_counter(name, &counters[c], &owner);
    } else {
      registry.add(obs::MetricKind::kGauge, name, read_gauge, &gauges[c], &owner);
    }
  }
  obs::IntervalSeries series(registry);
  series.reserve(kRows);
  util::Rng rng(31);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kColumns; ++c) {
      switch (c % 13) {
        case 9:
        case 10: gauges[c] = static_cast<double>(rng.uniform_int(0, 64)); break;
        case 11: gauges[c] = 2.0 + rng.uniform(0.0, 60.0); break;
        case 12: gauges[c] = 0.04 + rng.uniform(0.0, 0.2); break;
        default:
          if (rng.uniform_int(0, 3) != 0) {
            counters[c] += static_cast<std::uint64_t>(rng.uniform_int(1, 40000));
          }
      }
    }
    series.sample(TimePoint(static_cast<std::int64_t>(r) * 100'000'000));
  }
  DiscardBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    series.write_csv(out);
    benchmark::DoNotOptimize(buf.bytes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kRows * kColumns));
  state.SetBytesProcessed(buf.bytes);
}
BENCHMARK(BM_IntervalCsvExport)->Unit(benchmark::kMillisecond);

void BM_ChromeTraceExport(benchmark::State& state) {
  // write_chrome_trace on a full ring at the default capacity and kinds:
  // 40 tracks of FIFO queues whose packets open and close async spans
  // (some dropped instead), with deliveries and cwnd counter updates mixed
  // in roughly as the observed dumbbell's ring holds them.
  obs::FlightRecorder rec;
  const std::size_t capacity = obs::ObsConfig{}.trace_capacity;
  rec.configure(capacity, obs::kDefaultKinds);
  std::vector<std::uint16_t> tracks;
  for (int t = 0; t < 40; ++t) {
    std::string name = "flow";
    name += std::to_string(t);
    tracks.push_back(rec.register_track(std::move(name)));
  }
  std::vector<std::vector<std::uint64_t>> fifo(tracks.size());
  util::Rng rng(37);
  std::int64_t t_ns = 0;
  for (std::uint32_t seq = 0; rec.total_records() < 2 * capacity; ++seq) {
    t_ns += rng.uniform_int(100, 20'000);
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 39));
    const std::uint16_t track = tracks[k];
    const std::uint64_t pkt = obs::pack_packet(track, seq);
    std::vector<std::uint64_t>& q = fifo[k];
    if (q.size() >= 8 && rng.uniform() < 0.1) {
      rec.record(obs::RecordKind::kPktDrop, t_ns, track, pkt,
                 static_cast<std::uint32_t>(q.size()));
      continue;
    }
    rec.record(obs::RecordKind::kPktEnqueue, t_ns, track, pkt,
               static_cast<std::uint32_t>(q.size()));
    q.push_back(pkt);
    if (q.size() > static_cast<std::size_t>(rng.uniform_int(2, 12))) {
      rec.record(obs::RecordKind::kPktDequeue, t_ns, track, q.front(), 0);
      rec.record(obs::RecordKind::kPktDeliver, t_ns, track, q.front(), 0);
      q.erase(q.begin());
    }
    if (seq % 8 == 0) {
      const double cwnd = 2.0 + rng.uniform(0.0, 40.0);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &cwnd, sizeof bits);
      rec.record(obs::RecordKind::kCwnd, t_ns, track, bits, 0);
    }
  }
  DiscardBuf buf;
  std::ostream out(&buf);
  for (auto _ : state) {
    obs::write_chrome_trace(out, rec);
    benchmark::DoNotOptimize(buf.bytes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rec.size()));
  state.SetBytesProcessed(buf.bytes);
}
BENCHMARK(BM_ChromeTraceExport)->Unit(benchmark::kMillisecond);

void BM_LivePublish(benchmark::State& state) {
  // Per-interval cost of the live telemetry publisher (DESIGN.md §13) on a
  // synthetic bundle sized like a real run: 64 counters, 16 flows, and a
  // configured flight recorder. Each op closes one 100 ms interval —
  // counter differencing, the four-level decimation chain, the top-flows
  // window tick, recorder harvest, and the seqlock ring pushes. Everything
  // is allocated at freeze(); `allocs_per_op` must be 0.00.
  //
  //   Arg 0  no client attached
  //   Arg 1  one client thread draining a ring cursor at full speed
  //
  // The two rows must agree: publication cost is a property of the schema,
  // not of the audience — that is the broadcast-ring design point.
  const bool with_client = state.range(0) == 1;
  state.SetLabel(with_client ? "one_client" : "no_client");

  obs::Telemetry telemetry;
  constexpr std::size_t kCounters = 64;
  constexpr std::size_t kFlows = 16;
  const int owner = 0;
  std::array<std::uint64_t, kCounters> counters{};
  std::array<obs::FlowSample, kFlows> flow_state{};
  for (std::size_t i = 0; i < kCounters; ++i) {
    telemetry.registry().add_counter("live.c" + std::to_string(i), &counters[i],
                                     &owner);
  }
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    telemetry.flows().add(
        f + 1,
        [](const void* ctx) { return *static_cast<const obs::FlowSample*>(ctx); },
        &flow_state[f], &owner);
  }
  telemetry.recorder().configure(std::size_t{1} << 12, obs::kDefaultKinds);
  telemetry.recorder().set_enabled(true);

  obs::live::LivePublisher pub;
  pub.attach(telemetry);
  constexpr std::int64_t kIntervalNs = 100'000'000;
  pub.freeze(0, kIntervalNs);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> client_recs{0};
  std::thread client;
  if (with_client) {
    client = std::thread([&] {
      auto cur = pub.make_cursor();
      obs::live::SnapshotRec rec;
      std::uint64_t n = 0;
      // Drain in bursts with the server's idle cadence (server.cpp sleeps
      // between ring polls) rather than spinning: on a small host a spinning
      // reader would timeshare against the producer and the bench would
      // measure scheduler contention, not publication cost. Lapped
      // publications are charged to this cursor, which is the design.
      while (!stop.load(std::memory_order_acquire)) {
        while (pub.ring().poll(cur, rec) == obs::live::SnapshotRing::Poll::kOk) {
          benchmark::DoNotOptimize(rec);
          ++n;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      while (pub.ring().poll(cur, rec) == obs::live::SnapshotRing::Poll::kOk) ++n;
      client_recs.store(n, std::memory_order_release);
    });
  }

  std::int64_t t_ns = 0;
  const auto tick = [&] {
    for (std::size_t i = 0; i < kCounters; ++i) {
      counters[i] += (i * 2654435761u) & 0xffu;
    }
    for (auto& fs : flow_state) fs.bytes += 1500;
    t_ns += kIntervalNs;
    pub.publish(t_ns);
  };
  // Warm past every decimation fold boundary (level 3 completes once per
  // 600 intervals) and demand consecutive allocation-free intervals before
  // the counted window opens.
  for (int i = 0, clean = 0; i < 2048 && clean < 8; ++i) {
    const std::uint64_t before = g_heap_allocs.load();
    tick();
    clean = g_heap_allocs.load() == before ? clean + 1 : 0;
  }

  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    tick();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  stop.store(true, std::memory_order_release);
  if (client.joinable()) client.join();
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  if (with_client) {
    state.counters["client_recs"] =
        static_cast<double>(client_recs.load(std::memory_order_acquire));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_LivePublish)->Arg(0)->Arg(1);

void BM_FullTcpSimulationSecondLive(benchmark::State& state) {
  // BM_FullTcpSimulationSecond with instrumentation attached. Both rows run
  // with the flight recorder on (that cost is the --obs-dir price, measured
  // on its own by BM_ObsOverhead); the delta between them isolates what the
  // live *service* adds on top:
  //
  //   Arg 0  telemetry enabled, no publisher — the instrumented baseline
  //   Arg 1  + LivePublisher and a 100 ms publish pump on the simulator
  //   Arg 2  + one client thread draining the broadcast ring throughout
  //
  // Acceptance: Arg 1 stays within 5% of Arg 0 — streaming telemetry must
  // not tax the simulation thread. The Arg 2 − Arg 1 gap is what sharing
  // the host with a reader costs (context switches, cache pollution); on a
  // single-core runner that is a property of the machine, not the publish
  // path, which is why it gets its own row. World construction and teardown
  // run untimed in every row (the BM_DumbbellSecond idiom): a real service
  // freezes once and runs for minutes, so per-run setup — schema freeze,
  // ring zeroing, client thread spawn/join — is not the quantity under the
  // 5% bound; the simulated second is.
  const int mode = static_cast<int>(state.range(0));
  const bool live = mode >= 1;
  const bool with_client = mode >= 2;
  state.SetLabel(mode == 0   ? "telemetry_only"
                 : mode == 1 ? "publish"
                             : "publish+client");
  for (auto _ : state) {
    state.PauseTiming();
    {
      // Telemetry outlives the network: links deregister their metrics on
      // destruction.
      obs::Telemetry telemetry;
      telemetry.recorder().configure(obs::ObsConfig{}.trace_capacity,
                                     obs::kDefaultKinds);
      telemetry.recorder().set_enabled(true);
      sim::Simulator sim(7);
      sim.set_telemetry(&telemetry);
      net::Network network(sim);
      net::DumbbellConfig cfg;
      cfg.flow_count = 8;
      cfg.access_delays.assign(8, Duration::millis(10));
      net::Dumbbell bell = net::build_dumbbell(network, cfg);
      std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
      for (std::size_t i = 0; i < 8; ++i) {
        flows.push_back(std::make_unique<tcp::TcpFlow>(
            sim, static_cast<net::FlowId>(i + 1), bell.fwd_routes[i],
            bell.rev_routes[i]));
        flows.back()->sender().start(TimePoint::zero());
      }
      // Right-size the ring for a 10-interval run: the default 1<<16-slot
      // ring is several MB of allocate-and-zero at freeze().
      obs::live::LivePublisher pub(obs::live::LivePublisher::Options{1u << 12});
      std::unique_ptr<sim::PeriodicProcess> pump;
      std::mutex stop_mu;
      std::condition_variable stop_cv;
      bool stop = false;
      std::thread client;
      if (live) {
        pub.attach(telemetry);
        pub.freeze(0, 100'000'000);
        pump = std::make_unique<sim::PeriodicProcess>(
            sim, Duration::millis(100), [&] { pub.publish(sim.now().ns()); });
        pump->start(Duration::millis(100));
      }
      if (with_client) {
        client = std::thread([&] {
          auto cur = pub.make_cursor();
          obs::live::SnapshotRec rec;
          std::uint64_t n = 0;
          // Burst-drain with the server's idle cadence (see BM_LivePublish):
          // a spinning reader on a small host would contend with the sim
          // thread for cycles and the row would measure the scheduler. The
          // condition variable exists only so shutdown doesn't wait out a
          // sleep tick on every iteration.
          std::unique_lock<std::mutex> lk(stop_mu);
          for (;;) {
            lk.unlock();
            while (pub.ring().poll(cur, rec) ==
                   obs::live::SnapshotRing::Poll::kOk) {
              benchmark::DoNotOptimize(rec);
              ++n;
            }
            lk.lock();
            if (stop) break;
            stop_cv.wait_for(lk, std::chrono::milliseconds(10));
          }
          benchmark::DoNotOptimize(n);
        });
      }
      state.ResumeTiming();
      sim.run_until(TimePoint::zero() + Duration::seconds(1));
      state.PauseTiming();
      {
        std::lock_guard<std::mutex> lk(stop_mu);
        stop = true;
      }
      stop_cv.notify_all();
      if (client.joinable()) client.join();
      state.counters["events"] = static_cast<double>(sim.events_executed());
      if (live) {
        state.counters["intervals"] =
            static_cast<double>(pub.intervals_published());
      }
      benchmark::DoNotOptimize(sim.events_executed());
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FullTcpSimulationSecondLive)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedCampaign(benchmark::State& state) {
  // Steady-state slice rate of the sharded parallel engine (DESIGN.md §12)
  // at K shards over one topology: 4 regional hubs in a 10 Gbps backbone
  // mesh (the shard cuts), 32 access-linked sites, 64 cross-region CBR
  // flows into counting sinks. The world persists across iterations — the
  // coordinator's worker threads spawn at the first (untimed) slice — and
  // each op advances simulated time by one 50 ms slice, so thread spawn
  // and slab growth stay outside the timed window: the sharded datapath
  // (mailbox handoff, epoch barriers, wedged arrivals, watermark pruning)
  // must hold allocs_per_op at 0.00.
  //
  // Wall-clock speedup over Arg(1) needs >= K cores; on a single-core host
  // the K > 1 rows measure synchronization overhead, not parallelism — the
  // alloc gate and events_per_slice are the portable signals. Rates use wall
  // time (UseRealTime): at K > 1 the main thread mostly waits at barriers,
  // so its CPU time would report a speedup that never happened.
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRegions = 4;
  constexpr std::size_t kSites = 32;
  constexpr std::size_t kFlows = 64;
  constexpr std::int64_t kSliceNs = 50'000'000;  // 50 ms of simulated time

  net::ShardedNetwork snet(shards, 21);
  std::vector<std::vector<net::Link*>> bb(kRegions,
                                          std::vector<net::Link*>(kRegions, nullptr));
  for (std::size_t r1 = 0; r1 < kRegions; ++r1) {
    for (std::size_t r2 = 0; r2 < kRegions; ++r2) {
      if (r1 == r2) continue;
      net::Link* l = snet.add_link(
          r1 % shards, "bb." + std::to_string(r1) + "." + std::to_string(r2),
          10'000'000'000ULL, Duration::millis(4 + static_cast<std::int64_t>(r1 + r2)),
          net::make_queue(net::QueueKind::kDropTail, 512, util::Rng(40 + r1 * 8 + r2)));
      if (r2 % shards != r1 % shards) snet.mark_boundary(l, r2 % shards);
      bb[r1][r2] = l;
    }
  }
  std::vector<net::Link*> up(kSites);
  std::vector<net::Link*> down(kSites);
  for (std::size_t s = 0; s < kSites; ++s) {
    const std::size_t shard = (s % kRegions) % shards;
    const Duration access = Duration::micros(200 + 17 * static_cast<std::int64_t>(s));
    up[s] = snet.add_link(shard, "up." + std::to_string(s), 1'000'000'000ULL, access,
                          net::make_queue(net::QueueKind::kDropTail, 128,
                                          util::Rng(100 + s)));
    down[s] = snet.add_link(shard, "down." + std::to_string(s), 1'000'000'000ULL,
                            access,
                            net::make_queue(net::QueueKind::kDropTail, 128,
                                            util::Rng(200 + s)));
  }
  std::vector<std::unique_ptr<CountSink>> sinks;
  std::vector<std::unique_ptr<tcp::CbrSource>> sources;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const std::size_t a = f % kSites;
    std::size_t b = (f * 7 + 3) % kSites;
    if (b % kRegions == a % kRegions) b = (b + 1) % kSites;
    net::Route hops;
    hops.push_back(up[a]);
    if (a % kRegions != b % kRegions) hops.push_back(bb[a % kRegions][b % kRegions]);
    hops.push_back(down[b]);
    const net::Route* route = snet.add_route(std::move(hops));
    sinks.push_back(std::make_unique<CountSink>());
    sources.push_back(std::make_unique<tcp::CbrSource>(
        snet.sim((a % kRegions) % shards), static_cast<net::FlowId>(f),
        tcp::CbrSource::Params{400,
                               Duration::micros(1'500 + 10 * static_cast<std::int64_t>(f)),
                               Duration::seconds(1 << 20)}));
    sources.back()->connect(route, sinks.back().get());
    sources.back()->start(TimePoint(static_cast<std::int64_t>(f) * 23'000));
  }
  snet.finalize();

  // Warm slices: spawn the worker threads, grow every slab/ring/mailbox to
  // its high-water mark, and insist on one fully allocation-free slice
  // before the timed window opens.
  std::int64_t now_ns = 0;
  const auto slice = [&] {
    now_ns += kSliceNs;
    snet.run_until(TimePoint(now_ns));
  };
  // Demand several consecutive clean slices: slot free-lists and mailbox
  // high-water marks approach their fixed points over tens of slices, not
  // one.
  for (int i = 0, clean = 0; i < 256 && clean < 8; ++i) {
    const std::uint64_t before = g_heap_allocs.load();
    slice();
    clean = g_heap_allocs.load() == before ? clean + 1 : 0;
  }

  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  const std::uint64_t events_before = snet.events_executed();
  const std::uint64_t epochs_before = shards > 1 ? snet.coordinator().epochs() : 0;
  for (auto _ : state) {
    slice();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["events_per_slice"] =
      static_cast<double>(snet.events_executed() - events_before) /
      static_cast<double>(ops == 0 ? 1 : ops);
  if (shards > 1) {
    state.counters["epochs_per_slice"] =
        static_cast<double>(snet.coordinator().epochs() - epochs_before) /
        static_cast<double>(ops == 0 ? 1 : ops);
  }
  std::uint64_t delivered = 0;
  for (const auto& s : sinks) delivered += s->count;
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ShardedCampaign)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FecEncodeWindow(benchmark::State& state) {
  // Streaming-FEC encode (DESIGN.md §15): combine a window of `Arg` source
  // symbols into one repair symbol — seed-expanded coefficients plus one
  // gf_addmul pass per window symbol. This is the sender's per-repair cost
  // at full line rate; everything is preallocated, so `allocs_per_op` must
  // be 0.00.
  const auto window = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kSymBytes = 1000;
  util::Rng rng(5);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(window) * kSymBytes);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> coeffs(window);
  std::vector<std::uint8_t> out(kSymBytes);
  std::uint64_t seed = 0x5eed;
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    fec::encode_window(data.data(), kSymBytes, window, seed++, coeffs.data(),
                       out.data(), kSymBytes);
    benchmark::DoNotOptimize(out.data());
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.SetBytesProcessed(static_cast<std::int64_t>(
      ops * static_cast<std::uint64_t>(window) * kSymBytes));
}
BENCHMARK(BM_FecEncodeWindow)->Arg(16)->Arg(64);

void BM_FecDecodeBurst(benchmark::State& state) {
  // Streaming-FEC decode under steady burst loss: each op advances the
  // decoder one frame — kFrame systematic symbols with the last kBurst
  // erased, then coded repairs over the trailing window until the release
  // frontier crosses the burst (Gauss-Jordan elimination + window slide +
  // released-payload history writes). The decoder's side-table is pooled at
  // construction; `allocs_per_op` must be 0.00.
  constexpr std::uint32_t kSymBytes = 1000;
  constexpr std::uint32_t kCap = 64;
  constexpr std::uint32_t kFrame = 16;
  constexpr std::uint32_t kBurst = 4;
  constexpr std::uint32_t kWin = 32;
  fec::WindowDecoder dec(kCap, kSymBytes);
  util::Rng rng(9);
  // Window payload scratch: content is irrelevant to the elimination work,
  // only the byte count is (the decoder never validates payloads).
  std::vector<std::uint8_t> win_data(static_cast<std::size_t>(kWin) * kSymBytes);
  for (auto& v : win_data) v = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> coeffs(kWin);
  std::vector<std::uint8_t> coded(kSymBytes);
  std::uint64_t seq = 0;
  std::uint64_t seed = 0x900d;
  const auto frame = [&] {
    for (std::uint32_t i = 0; i < kFrame; ++i, ++seq) {
      if (i >= kFrame - kBurst) continue;  // erased
      (void)dec.add_systematic(seq, win_data.data());
    }
    // Repairs until the frontier crosses the burst (kBurst innovative
    // combinations, occasionally one more when a draw lands in the span).
    for (int r = 0; r < 32 && dec.base() < seq; ++r) {
      const std::uint64_t lo = seq - kWin;
      fec::encode_window(win_data.data(), kSymBytes, kWin, ++seed,
                         coeffs.data(), coded.data(), kSymBytes);
      (void)dec.add_coded(lo, kWin, seed, coded.data());
      (void)dec.take_released();
    }
  };
  // Warm to the steady state (full window occupancy) before counting.
  for (std::uint32_t s = 0; s < kWin; ++s, ++seq) {
    (void)dec.add_systematic(seq, win_data.data());
  }
  (void)dec.take_released();
  for (int i = 0; i < 8; ++i) frame();
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    frame();
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.counters["released_per_op"] =
      static_cast<double>(dec.stats().released) / static_cast<double>(seq == 0 ? 1 : seq) *
      static_cast<double>(kFrame);
  if (dec.base() + kCap < seq) {
    state.SkipWithError("decoder frontier stalled: burst never recovered");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops * kFrame));
}
BENCHMARK(BM_FecDecodeBurst);

void BM_AdaptiveFitterRefresh(benchmark::State& state) {
  // Receiver-side Gilbert fitting on the FEC feedback path (DESIGN.md §15):
  // each op records one symbol into a full 2048-deep loss record and re-fits
  // it, the per-symbol worst case of the sink (which refits once per
  // feedback tick). Transition counts are kept incrementally, so the cost
  // is independent of the window; `allocs_per_op` must be 0.00.
  constexpr std::size_t kWindow = 2048;
  constexpr std::size_t kPattern = 4096;  // power of two: index by mask
  util::Rng rng(13);
  // Bursty loss pattern drawn once up front (Gilbert p=0.05, q=0.25), so the
  // RNG stays out of the timed loop.
  std::array<bool, kPattern> pattern{};
  bool bad = false;
  for (bool& lost : pattern) {
    bad = bad ? !rng.chance(0.25) : rng.chance(0.05);
    lost = bad;
  }
  fec::AdaptiveFitter fitter(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) fitter.push(pattern[i]);
  std::uint64_t ops = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  for (auto _ : state) {
    fitter.push(pattern[(kWindow + ops) & (kPattern - 1)]);
    const analysis::GilbertFit& fit = fitter.refresh();
    benchmark::DoNotOptimize(&fit);
    ++ops;
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(ops == 0 ? 1 : ops);
  state.counters["allocs_total"] = static_cast<double>(allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_AdaptiveFitterRefresh);

}  // namespace

BENCHMARK_MAIN();
