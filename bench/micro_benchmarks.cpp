// Google-benchmark microbenchmarks for the hot paths of every substrate.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <string>

#include "core/sweep_runner.hpp"
#include "ebpf/programs.hpp"
#include "ebpf/verifier.hpp"
#include "ebpf/vm.hpp"
#include "faults/scenario_runner.hpp"
#include "flowmon/flow_cache.hpp"
#include "net/host_node.hpp"
#include "net/switch_node.hpp"
#include "obs/exporters.hpp"
#include "obs/hub.hpp"
#include "profinet/wire.hpp"
#include "sdn/pipeline.hpp"
#include "sim/event_queue.hpp"
#include "sim/hash.hpp"
#include "sim/partitioner.hpp"
#include "sim/random.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/spsc_ring.hpp"
#include "textmine/terms.hpp"

namespace {

using namespace steelnet;
using namespace steelnet::sim::literals;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{1};
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(sim::SimTime{rng.uniform_int(0, 1'000'000)}, [] {});
    }
    sim::SimTime t;
    sim::EventQueue::Callback cb;
    while (q.pop_next(t, cb)) benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_SimulatorPeriodicTasks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back(std::make_unique<sim::PeriodicTask>(
          simulator, 0_ns, 1_ms, [&fired] { ++fired; }));
    }
    simulator.run_until(1_s);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorPeriodicTasks);

void BM_RngNormal(benchmark::State& state) {
  sim::Rng rng{7};
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_EbpfVerify(benchmark::State& state) {
  const auto p = ebpf::make_reflector(ebpf::ReflectorVariant::kTsDRb);
  for (auto _ : state) benchmark::DoNotOptimize(ebpf::verify(p));
}
BENCHMARK(BM_EbpfVerify);

void BM_EbpfVmRun(benchmark::State& state) {
  const auto variant =
      static_cast<ebpf::ReflectorVariant>(state.range(0));
  auto p = ebpf::make_reflector(variant);
  ebpf::verify_or_throw(p);
  ebpf::Vm vm(std::move(p), ebpf::CostParams{}, 1);
  net::Frame f;
  f.payload.assign(64, 0);
  sim::SimTime now = sim::SimTime::zero();
  for (auto _ : state) {
    now += 1_us;
    benchmark::DoNotOptimize(vm.run(f, now));
    vm.ringbuf().drain();
  }
}
BENCHMARK(BM_EbpfVmRun)
    ->Arg(int(ebpf::ReflectorVariant::kBase))
    ->Arg(int(ebpf::ReflectorVariant::kTsRb));

void BM_PipelineMatch(benchmark::State& state) {
  sdn::Pipeline pipeline;
  sdn::Table table("t", {{sdn::FieldKind::kInPort, 0},
                         {sdn::FieldKind::kEthSrc, 0},
                         {sdn::FieldKind::kPayloadU8, 0}});
  for (std::uint64_t i = 0; i < std::uint64_t(state.range(0)); ++i) {
    sdn::TableEntry e;
    e.values = {i % 8, 0x100 + i, 0};
    e.masks = {~0ULL, ~0ULL, 0};
    e.actions = {sdn::ActionPrimitive::set_egress(net::PortId(i % 4))};
    table.add_entry(std::move(e));
  }
  pipeline.add_table(std::move(table));
  net::Frame f;
  f.src = net::MacAddress{0x100 + std::uint64_t(state.range(0)) - 1};
  f.payload.assign(16, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.process(f, 7 % 8));
  }
}
BENCHMARK(BM_PipelineMatch)->Arg(4)->Arg(64);

void BM_ProfinetCodec(benchmark::State& state) {
  profinet::CyclicData pdu;
  pdu.ar_id = 1;
  pdu.cycle_counter = 77;
  pdu.data.assign(std::size_t(state.range(0)), 0x5a);
  for (auto _ : state) {
    const auto bytes = profinet::encode(profinet::Pdu{pdu});
    benchmark::DoNotOptimize(profinet::decode(bytes));
  }
}
BENCHMARK(BM_ProfinetCodec)->Arg(20)->Arg(250);

void BM_AhoCorasickScan(benchmark::State& state) {
  textmine::AhoCorasick ac;
  const auto groups = textmine::fig1_term_groups();
  std::uint32_t id = 0;
  for (const auto& g : groups) {
    for (const auto& p : g.patterns) ac.add_pattern(p, id);
    ++id;
  }
  ac.build();
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "the data center network moves tcp traffic across the "
            "industrial network with profinet devices ";
  }
  for (auto _ : state) benchmark::DoNotOptimize(ac.find_words(text));
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(text.size()));
}
BENCHMARK(BM_AhoCorasickScan);

// The flowmon metering hot path: 1M synthetic frames spread over a
// configurable number of concurrent flows, with periodic expiry of the
// coldest half -- the insert / lookup / expire churn a MeterPoint puts a
// FlowCache through. Baseline for later perf PRs.
void BM_FlowCacheHotPath(benchmark::State& state) {
  constexpr std::size_t kFrames = 1'000'000;
  const auto num_flows = static_cast<std::uint64_t>(state.range(0));
  sim::Rng rng{42};
  // Pre-draw the frame sequence so the benchmark loop times the cache,
  // not the RNG: frames round-robin over flows with randomized sizes.
  std::vector<net::Frame> frames(num_flows);
  for (std::uint64_t i = 0; i < num_flows; ++i) {
    frames[i].src = net::MacAddress{0x0a'0000'000000ULL + i};
    frames[i].dst = net::MacAddress{0x0c'0000'000001ULL};
    frames[i].pcp = static_cast<std::uint8_t>(i & 0x7);
    frames[i].payload.resize(64 + std::size_t(rng.uniform_int(0, 1400)));
  }
  for (auto _ : state) {
    flowmon::FlowCache cache(2 * num_flows);
    sim::SimTime now = sim::SimTime::zero();
    std::size_t fi = 0;
    for (std::size_t i = 0; i < kFrames; ++i) {
      now = now + sim::nanoseconds(800);
      benchmark::DoNotOptimize(cache.record(frames[fi], now));
      if (++fi == frames.size()) fi = 0;
      // Periodic expiry sweep: evict every other flow, as an idle-timeout
      // pass would, so deletion (backward-shift) stays in the measurement.
      if ((i & 0xffff) == 0xffff) {
        std::vector<flowmon::FlowKey> victims;
        victims.reserve(cache.size() / 2);
        bool take = false;
        cache.for_each([&](const flowmon::FlowRecord& r) {
          if ((take = !take)) victims.push_back(r.key);
        });
        for (const auto& k : victims) cache.erase(k);
      }
    }
    benchmark::DoNotOptimize(cache.stats());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kFrames));
}
BENCHMARK(BM_FlowCacheHotPath)->Arg(64)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// The entire hot-path cost of an obs hook site when no hub is attached:
// one pointer-null test plus one trace-id test. This is the branch every
// instrumented frame touch pays in disabled mode; the acceptance bar is
// < 2 ns per frame.
void BM_ObsDisabledHookGuard(benchmark::State& state) {
  net::Frame f;
  obs::ObsHub* hub = nullptr;
  benchmark::DoNotOptimize(hub);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    if (hub != nullptr && f.trace_id != 0) ++hits;
    benchmark::DoNotOptimize(f.trace_id);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_ObsDisabledHookGuard);

// End-to-end forwarding with observability off (Arg 0) vs fully traced
// (Arg 1): the per-item delta is the whole-path cost of span recording.
void BM_ObsSwitchForwarding(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    net::Network network{simulator};
    obs::ObsHub hub;
    if (traced) network.set_obs(&hub);
    net::SwitchConfig cfg;
    cfg.mac_learning = false;
    auto& sw = network.add_node<net::SwitchNode>("sw", cfg);
    auto& a = network.add_node<net::HostNode>("a", net::MacAddress{1});
    auto& b = network.add_node<net::HostNode>("b", net::MacAddress{2});
    network.connect(a.id(), 0, sw.id(), 0);
    network.connect(b.id(), 0, sw.id(), 1);
    sw.add_fdb_entry(net::MacAddress{2}, 1);
    int got = 0;
    b.set_receiver([&](net::Frame, sim::SimTime) { ++got; });
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::Frame f;
      f.dst = net::MacAddress{2};
      f.payload.resize(46);
      a.send(std::move(f));
    }
    simulator.run();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_ObsSwitchForwarding)->Arg(0)->Arg(1);

// A fixed 100k-span trace shaped like one traced InstaPLC testbed's: 16
// port tracks, four hop spans per trace id, times out to ~3 s of sim time.
const obs::SpanTracer& hop_trace() {
  static const obs::SpanTracer tracer = [] {
    obs::SpanTracer tr;
    constexpr obs::Hop kHops[] = {obs::Hop::kHostTx, obs::Hop::kQueue,
                                  obs::Hop::kLink, obs::Hop::kHostRx};
    for (int i = 0; i < 16; ++i) tr.track("node" + std::to_string(i) + "/p0");
    for (std::int64_t i = 0; i < 100'000; ++i) {
      const sim::SimTime start = sim::nanoseconds(i * 29'989);
      tr.hop(static_cast<std::uint64_t>(i / 4 + 1), kHops[i % 4],
             static_cast<obs::TrackId>(i % 16), start,
             start + sim::nanoseconds(1'200 + i % 977));
    }
    return tr;
  }();
  return tracer;
}

// The trace fingerprint as collect() takes it: rendered straight into an
// FNV-1a sink, no text kept. Bytes/s counts the rendered trace.
void BM_ChromeTraceFingerprint(benchmark::State& state) {
  const obs::SpanTracer& tr = hop_trace();
  const auto bytes =
      static_cast<std::int64_t>(obs::chrome_trace_json(tr).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::chrome_trace_fingerprint(tr));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ChromeTraceFingerprint)->Unit(benchmark::kMillisecond);

// The same fingerprint by building the whole JSON string first, then
// hashing it -- what keep_exports pays.
void BM_ChromeTraceJsonThenHash(benchmark::State& state) {
  const obs::SpanTracer& tr = hop_trace();
  const auto bytes =
      static_cast<std::int64_t>(obs::chrome_trace_json(tr).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::fnv1a64(obs::chrome_trace_json(tr)));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ChromeTraceJsonThenHash)->Unit(benchmark::kMillisecond);

// Sweep throughput: the tab_faults-style seed sweep (independent seeded
// full-stack fault simulations) through the core::SweepRunner worker
// pool. Arg = --jobs; items/s at Arg(8) over Arg(1) is the recorded
// parallel-sweep speedup (the outputs themselves are byte-identical at
// any job count, which the SweepRunner tests pin).
void BM_SweepRunnerFaultScenarios(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kSeeds = 8;
  const faults::ScenarioRunner runner;
  std::vector<faults::FaultScenario> scenarios;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    scenarios.push_back(faults::random_scenario(seed));
  }
  for (auto _ : state) {
    const auto slots = runner.run_sweep(scenarios, jobs);
    for (const auto& slot : slots) {
      if (!slot.ok()) state.SkipWithError(slot.error.c_str());
    }
    benchmark::DoNotOptimize(slots);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(kSeeds));
}
BENCHMARK(BM_SweepRunnerFaultScenarios)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Event-kernel suite: the slab kernel (generation-counted slots + inplace
// callbacks) with realistic frame-sized captures -- the delivery closures
// the simulator actually schedules carry a Frame image plus routing
// context, far beyond std::function's inline buffer. The numbers of the
// per-event shared_ptr + std::function kernel it replaced are kept in
// BENCH_kernel.json.
// ---------------------------------------------------------------------------

/// What a wire-delivery closure really carries: a frame image plus the
/// destination. 88 bytes -- over std::function's inline buffer (16 on
/// libstdc++), under the slab kernel's 128-byte capture budget.
struct DeliveryCapture {
  std::array<std::uint8_t, 72> wire;
  std::uint64_t node;
  std::uint32_t port;
  std::uint32_t pad;
};

void BM_EventKernelScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{1};
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  DeliveryCapture proto{};
  proto.wire.fill(0x5a);
  std::uint64_t sink = 0;
  // The queue lives across iterations: this measures the steady-state
  // schedule+fire cost (the slab and heap stay warm), not first-run
  // growth.
  sim::EventQueue q;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      proto.node = i;
      q.schedule(sim::SimTime{times[i]},
                 [proto, &sink] { sink += proto.node + proto.wire[0]; });
    }
    sim::SimTime t;
    sim::EventQueue::Callback cb;
    while (q.pop_next(t, cb)) cb();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_EventKernelScheduleFire)->Arg(1024)->Arg(16384);

/// Cancellation-heavy mix, the retransmit-timer shape: schedule a window,
/// cancel and reschedule half of it, then drain. Exercises the handle
/// machinery (generation bump) on top of the heap.
void BM_EventKernelCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{2};
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  DeliveryCapture proto{};
  std::uint64_t sink = 0;
  std::vector<sim::EventHandle> handles(n);
  sim::EventQueue q;  // persists across iterations: steady-state cost
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      proto.node = i;
      handles[i] = q.schedule(sim::SimTime{times[i]},
                              [proto, &sink] { sink += proto.node; });
    }
    for (std::size_t i = 0; i < n; i += 2) {
      handles[i].cancel();
      handles[i] = q.schedule(sim::SimTime{times[i] + 500'000},
                              [proto, &sink] { sink += proto.port; });
    }
    sim::SimTime t;
    sim::EventQueue::Callback cb;
    while (q.pop_next(t, cb)) cb();
    benchmark::DoNotOptimize(sink);
  }
  // Items = schedules + cancels.
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n + n));
}
BENCHMARK(BM_EventKernelCancelHeavy)->Arg(8192);

/// End-to-end cyclic frames/second through the pooled data path: a
/// host<->host echo loop drawing every frame from the FramePool. Counters
/// pin the recycling claims: pool_reuse_ratio ~ 1 after warm-up, and
/// slot_capacity stays at the steady-state working set instead of
/// tracking total events scheduled.
void BM_KernelCyclicFrames(benchmark::State& state) {
  sim::Simulator simulator;
  net::Network network{simulator};
  auto& a = network.add_node<net::HostNode>("a", net::MacAddress{1});
  auto& b = network.add_node<net::HostNode>("b", net::MacAddress{2});
  network.connect(a.id(), 0, b.id(), 0,
                  net::LinkParams{1'000'000'000, 500_ns});
  std::uint64_t echoes = 0;
  b.set_receiver([&](net::Frame f, sim::SimTime) {
    net::Frame reply = network.frame_pool().make(46);
    reply.dst = net::MacAddress{1};
    reply.src = net::MacAddress{2};
    network.frame_pool().recycle(std::move(f));
    b.send(std::move(reply));
  });
  a.set_receiver([&](net::Frame f, sim::SimTime) {
    ++echoes;
    network.frame_pool().recycle(std::move(f));
    net::Frame next = network.frame_pool().make(46);
    next.dst = net::MacAddress{2};
    next.src = net::MacAddress{1};
    a.send(std::move(next));
  });
  {
    net::Frame first = network.frame_pool().make(46);
    first.dst = net::MacAddress{2};
    first.src = net::MacAddress{1};
    a.send(std::move(first));
  }
  std::uint64_t frames = 0;
  for (auto _ : state) {
    const std::uint64_t before = echoes;
    simulator.run_until(simulator.now() + 1_ms);
    frames += 2 * (echoes - before);  // request + response per echo
  }
  state.SetItemsProcessed(int64_t(frames));
  const auto& ps = network.frame_pool().stats();
  state.counters["pool_reuse_ratio"] = benchmark::Counter(
      ps.acquired != 0 ? double(ps.reused) / double(ps.acquired) : 0.0);
  state.counters["pool_free_buffers"] =
      benchmark::Counter(double(network.frame_pool().free_buffers()));
  state.counters["event_slot_capacity"] =
      benchmark::Counter(double(simulator.event_slot_capacity()));
}
BENCHMARK(BM_KernelCyclicFrames);

// ---------------------------------------------------------------------------
// PDES-kernel suite: the null-message protocol and partition hot paths
// the shard-balancing work touched. Regenerated into BENCH_kernel.json.
// ---------------------------------------------------------------------------

// One full conservative run of a 4-cell ping ring at 1us lookahead:
// every cell forwards each message around the ring, so progress is
// bounded by the null-message protocol (snapshot, drain, advance,
// publish) rather than by event execution. Items = protocol rounds, so
// items/s is the round rate the fast-path work speeds up.
void BM_NullMessageRound(benchmark::State& state) {
  constexpr std::uint32_t kCells = 4;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::ShardedSimulator ss;
    for (std::uint32_t i = 0; i < kCells; ++i) {
      ss.add_cell("c" + std::to_string(i));
    }
    for (std::uint32_t i = 0; i < kCells; ++i) {
      ss.connect(i, (i + 1) % kCells, 1_us);
    }
    for (std::uint32_t i = 0; i < kCells; ++i) {
      ss.cell(i).set_handler([](sim::ShardedSimulator::Cell& c,
                                const sim::ShardMsg& m) {
        c.send((c.id() + 1) % kCells, m);
      });
    }
    ss.cell(0).sim().schedule_at(sim::SimTime::zero(), [&ss] {
      ss.cell(0).send(1, sim::ShardMsg{});
    });
    const auto stats = ss.run(10_ms, 1);
    rounds += stats.rounds;
    benchmark::DoNotOptimize(stats.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_NullMessageRound);

// The publish half of a protocol round in isolation: coalesced (shadow
// compare, store only when the frontier advanced -- what cell_round now
// does) vs unconditional release store (what it did before). The
// frontier advances once every 16 rounds, the shape of a cell whose
// LBTS is pinned by a slow neighbour.
void BM_ClockPublish(benchmark::State& state) {
  const bool coalesced = state.range(0) != 0;
  alignas(64) std::atomic<std::int64_t> pub{0};
  std::int64_t shadow = 0;
  std::int64_t frontier = 0;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    if ((++tick & 0xf) == 0) ++frontier;
    if (coalesced) {
      if (frontier > shadow) {
        shadow = frontier;
        pub.store(frontier, std::memory_order_release);
      }
    } else {
      pub.store(frontier, std::memory_order_release);
    }
    benchmark::DoNotOptimize(pub);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClockPublish)->Arg(0)->Arg(1);

// SpscRing drain cost: one-at-a-time try_pop vs the batched try_pop_n
// drain_inbound now uses. Single-threaded on a pre-filled ring, so the
// delta is pure per-pop overhead (head/tail atomics amortized across
// the batch).
void BM_SpscRingPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::SpscRing<sim::ShardMsg> ring{1024};
  std::uint64_t drained = 0;
  sim::ShardMsg buf[64];
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint64_t i = 0; i < 1024; ++i) {
      sim::ShardMsg m;
      m.seq = i;
      ring.try_push(std::move(m));
    }
    state.ResumeTiming();
    // Force every popped message to be fully materialized in both
    // variants -- as in the kernel's drain loop, which moves each message
    // into the staging heap -- so the comparison isolates the cursor
    // machinery instead of letting one side elide the 160-byte copy.
    if (batch == 1) {
      sim::ShardMsg m;
      while (ring.try_pop(m)) {
        benchmark::DoNotOptimize(m);
        drained += 1;
      }
    } else {
      std::size_t n = 0;
      while ((n = ring.try_pop_n(buf, batch)) != 0) {
        benchmark::DoNotOptimize(buf);
        drained += n;
      }
    }
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_SpscRingPop)->Arg(1)->Arg(16)->Arg(64);

// Partition compute cost at campus scale: the prefix-quota walk vs the
// measured-rate LPT bin-pack over seeded random weights. Placement runs
// once per simulation, so this pins that LPT stays negligible relative
// to any run it could place (sub-millisecond even at 4096 cells).
void BM_PartitionCompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool lpt = state.range(1) != 0;
  sim::Rng rng{11};
  std::vector<std::uint64_t> weights(n);
  for (auto& w : weights) {
    w = static_cast<std::uint64_t>(rng.uniform_int(1, 10'000));
  }
  const sim::PrefixQuotaPartitioner prefix;
  const sim::LptPartitioner measured;
  const sim::Partitioner& strategy =
      lpt ? static_cast<const sim::Partitioner&>(measured)
          : static_cast<const sim::Partitioner&>(prefix);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.assign(weights, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PartitionCompute)
    ->Args({240, 0})->Args({240, 1})->Args({4096, 0})->Args({4096, 1});

void BM_SwitchForwarding(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    net::Network network{simulator};
    net::SwitchConfig cfg;
    cfg.mac_learning = false;
    auto& sw = network.add_node<net::SwitchNode>("sw", cfg);
    auto& a = network.add_node<net::HostNode>("a", net::MacAddress{1});
    auto& b = network.add_node<net::HostNode>("b", net::MacAddress{2});
    network.connect(a.id(), 0, sw.id(), 0);
    network.connect(b.id(), 0, sw.id(), 1);
    sw.add_fdb_entry(net::MacAddress{2}, 1);
    int got = 0;
    b.set_receiver([&](net::Frame, sim::SimTime) { ++got; });
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::Frame f;
      f.dst = net::MacAddress{2};
      f.payload.resize(46);
      a.send(std::move(f));
    }
    simulator.run();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_SwitchForwarding);

}  // namespace
