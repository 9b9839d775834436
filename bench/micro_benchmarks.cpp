// Google-benchmark microbenchmarks for the hot paths of every substrate.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep_runner.hpp"
#include "ebpf/programs.hpp"
#include "ebpf/verifier.hpp"
#include "ebpf/vm.hpp"
#include "faults/scenario_runner.hpp"
#include "flowmon/flow_cache.hpp"
#include "flowmon/ipfix.hpp"
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
    while (q.fire_next(sim::SimTime::max(), t)) benchmark::DoNotOptimize(t);
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

/// Peak resident set of this process so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// The flowmon metering hot path: 1M synthetic frames spread over a
// configurable number of concurrent flows; every 64k frames, every other
// live flow is erase()d by key -- the insert / lookup / delete churn a
// MeterPoint puts a FlowCache through. Timeout expiry (sweep()) is not
// in it; BM_FlowCacheSweep times that. The process's peak RSS before and
// after the run is reported as rss_before_mb/rss_after_mb.
void BM_FlowCacheHotPath(benchmark::State& state) {
  constexpr std::size_t kFrames = 1'000'000;
  constexpr std::size_t kMinPayload = 64;
  constexpr std::size_t kMaxPayload = 64 + 1400;
  const double rss_before = peak_rss_mb();
  const auto num_flows = static_cast<std::uint64_t>(state.range(0));
  sim::Rng rng{42};
  // Pre-draw each flow's source MAC and payload size so the benchmark loop
  // times the cache, not the RNG; frames round-robin over flows. The cache
  // reads only a frame's addresses and sizes, so one reusable frame per
  // payload size stands in for every flow's frames.
  std::vector<std::uint64_t> src(num_flows);
  std::vector<std::uint16_t> size(num_flows);
  for (std::uint64_t i = 0; i < num_flows; ++i) {
    src[i] = 0x0a'0000'000000ULL + i;
    size[i] = static_cast<std::uint16_t>(
        kMinPayload + std::size_t(rng.uniform_int(0, 1400)));
  }
  std::vector<net::Frame> by_size(kMaxPayload + 1);
  for (std::size_t b = kMinPayload; b <= kMaxPayload; ++b) {
    by_size[b].dst = net::MacAddress{0x0c'0000'000001ULL};
    by_size[b].payload.resize(b);
  }
  std::vector<flowmon::FlowKey> victims;
  for (auto _ : state) {
    flowmon::FlowCacheConfig cfg;
    cfg.capacity = 2 * num_flows;
    flowmon::FlowCache cache{cfg};
    sim::SimTime now = sim::SimTime::zero();
    std::size_t fi = 0;
    for (std::size_t i = 0; i < kFrames; ++i) {
      now = now + sim::nanoseconds(800);
      net::Frame& frame = by_size[size[fi]];
      frame.src = net::MacAddress{src[fi]};
      frame.pcp = static_cast<std::uint8_t>(fi & 0x7);
      benchmark::DoNotOptimize(cache.record(frame, now));
      if (++fi == num_flows) fi = 0;
      // Evict every other flow so deletion (backward-shift) stays in the
      // measurement.
      if ((i & 0xffff) == 0xffff) {
        victims.clear();
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
  state.counters["rss_before_mb"] = rss_before;
  state.counters["rss_after_mb"] = peak_rss_mb();
}
// The 1M-flow rung's cache and records outgrow the CPU caches.
BENCHMARK(BM_FlowCacheHotPath)->Arg(64)->Arg(1024)->Arg(8192)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// Flow expiry as a meter drives it: one FlowCache::sweep() -- the timer
// wheel's advance, the canonical candidate sort and the export loop -- per
// wheel tick, over a cache held at range(0) live flows of which each
// sweep finds range(1) per mille idle-due. Before each sweep (untimed) as
// many new flows as it will expire arrive, one frame each, at seeded
// random times within the tick, so the live count and due fraction stay
// fixed. Items are exported records.
void BM_FlowCacheSweep(benchmark::State& state) {
  const auto live = static_cast<std::uint64_t>(state.range(0));
  const std::int64_t periods = 1000 / state.range(1);  // a flow's lifetime
  const std::uint64_t batch = live / static_cast<std::uint64_t>(periods);
  flowmon::FlowCacheConfig cfg;
  cfg.capacity = 2 * live;
  const sim::SimTime tick = cfg.wheel_tick;
  cfg.idle_timeout = tick * periods;
  cfg.active_timeout = 2 * cfg.idle_timeout;  // idle expiry only
  flowmon::FlowCache cache{cfg};
  sim::Rng rng{42};
  net::Frame frame;
  frame.dst = net::MacAddress{0x0c'0000'000001ULL};
  frame.payload.resize(64);
  std::uint64_t next_src = 0x0a'0000'000000ULL;
  sim::SimTime now = sim::SimTime::zero();
  // One tick's new flows, at random times in (now, now + tick].
  const auto admit = [&] {
    for (std::uint64_t j = 0; j < batch; ++j) {
      frame.src = net::MacAddress{next_src++};
      cache.record(frame, now + sim::nanoseconds(
                                    rng.uniform_int(1, tick.nanos())));
    }
    now = now + tick;
  };
  for (std::int64_t p = 0; p < periods; ++p) admit();  // fill to `live`
  std::uint64_t exported = 0;
  const flowmon::FlowCache::ExportFn count =
      [&](const flowmon::FlowRecord& r, flowmon::EndReason) {
        benchmark::DoNotOptimize(r.packets);
        ++exported;
      };
  for (auto _ : state) {
    state.PauseTiming();
    admit();
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache.sweep(now, count));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(exported));
  state.counters["live_flows"] = static_cast<double>(cache.size());
}
BENCHMARK(BM_FlowCacheSweep)->Args({1 << 14, 100})->Args({1 << 20, 100})
    ->Unit(benchmark::kMicrosecond);

// The IPFIX export codec, the layer perfbench reports as
// ipfix.{encode,decode}_ns_per_record: one data-only message of
// kIpfixRecords flow_template() records, as the meter exports them.
// Items are records; the `per_record` counter is seconds per record.
constexpr std::size_t kIpfixRecords = 16;

std::vector<flowmon::ExportRecord> ipfix_batch() {
  sim::Rng rng{16};
  std::vector<flowmon::ExportRecord> batch(kIpfixRecords);
  for (flowmon::ExportRecord& r : batch) {
    r.key.src = net::MacAddress{rng.next_u64() >> 16};
    r.key.dst = net::MacAddress{rng.next_u64() >> 16};
    r.key.pcp = 6;
    r.key.ethertype = net::EtherType::kProfinetRt;
    r.packets = rng.next_u64() >> 40;
    r.bytes = r.packets * 64;
    r.wire_bytes = r.packets * 84;
    r.first_seen = sim::SimTime{static_cast<std::int64_t>(rng.next_u64() >> 24)};
    r.last_seen = r.first_seen + 100_ms;
    r.min_iat = 1_ms;
    r.mean_iat = 2_ms;
    r.jitter = 3_us;
    r.end_reason = flowmon::EndReason::kIdleTimeout;
  }
  return batch;
}

void set_time_per_record(benchmark::State& state) {
  const auto records =
      static_cast<std::int64_t>(state.iterations() * kIpfixRecords);
  state.SetItemsProcessed(records);
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(records),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_IpfixEncode(benchmark::State& state) {
  const std::vector<flowmon::ExportRecord> batch = ipfix_batch();
  flowmon::MessageHeader header;
  header.observation_domain = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowmon::encode_message(
        header, flowmon::flow_template(), /*include_template=*/false, batch));
  }
  set_time_per_record(state);
}
BENCHMARK(BM_IpfixEncode);

void BM_IpfixDecode(benchmark::State& state) {
  flowmon::MessageHeader header;
  header.observation_domain = 1;
  flowmon::TemplateStore store;
  const auto learned = flowmon::decode_message(
      flowmon::encode_message(header, flowmon::flow_template(), true, {}),
      store);
  const std::vector<std::uint8_t> message = flowmon::encode_message(
      header, flowmon::flow_template(), false, ipfix_batch());
  const auto check = flowmon::decode_message(message, store);
  if (!learned.has_value() || !check.has_value() ||
      check->records.size() != kIpfixRecords) {
    state.SkipWithError("the message did not decode");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowmon::decode_message(message, store));
  }
  set_time_per_record(state);
}
BENCHMARK(BM_IpfixDecode);

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

// Per-hop cost of a traced egress queue: 1M frames enter and leave
// queues on 16 port tracks, eight frames in flight at a time, through
// hop_open/hop_close on a fresh tracer. time_per_hop is one open plus
// its close, including the span it records.
void BM_ObsQueueHop(benchmark::State& state) {
  constexpr std::uint64_t kFrames = 1'000'000;
  constexpr std::uint64_t kInFlight = 8;
  for (auto _ : state) {
    obs::SpanTracer tr;
    for (std::uint64_t f = 1; f <= kFrames + kInFlight; ++f) {
      const sim::SimTime at = sim::nanoseconds(static_cast<std::int64_t>(f));
      if (f <= kFrames) {
        tr.hop_open(f, obs::Hop::kQueue, static_cast<obs::TrackId>(f % 16),
                    at);
      }
      if (f > kInFlight) {
        const std::uint64_t done = f - kInFlight;
        tr.hop_close(done, obs::Hop::kQueue,
                     static_cast<obs::TrackId>(done % 16), at);
      }
    }
    benchmark::DoNotOptimize(tr.spans().data());
  }
  // Seconds per hop; the console prints it with an SI prefix ("126ns").
  state.counters["time_per_hop"] = benchmark::Counter(
      kFrames, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_ObsQueueHop)->Unit(benchmark::kMillisecond);

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

// Sweep throughput: tab_faults' seed sweep (independent seeded full-stack
// fault simulations) over the core::SweepRunner pool. Arg = --jobs; items/s
// at Arg(8) over Arg(1) is the recorded parallel-sweep speedup (outputs are
// byte-identical at any job count, which the SweepRunner tests pin).
void BM_SweepRunnerFaultScenarios(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kSeeds = 8;
  const faults::ScenarioRunner runner;
  std::vector<faults::FaultScenario> scenarios;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    scenarios.push_back(faults::random_scenario(seed));
  }
  for (auto _ : state) {
    const auto slots = core::SweepRunner{jobs}.run(
        kSeeds, [&](std::size_t i) { return runner.run(scenarios[i]); });
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
    while (q.fire_next(sim::SimTime::max(), t)) {
    }
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
    while (q.fire_next(sim::SimTime::max(), t)) {
    }
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
      // Appended: GCC 12 at -O3 warns -Wrestrict inside libstdc++ on
      // `"c" + std::to_string(i)`.
      std::string name = "c";
      name += std::to_string(i);
      ss.add_cell(name);
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lpt ? sim::LptPartitioner{}.assign(weights, 8)
            : sim::PrefixQuotaPartitioner{}.assign(weights, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PartitionCompute)
    ->Args({240, 0})->Args({240, 1})->Args({4096, 0})->Args({4096, 1});

}  // namespace

// benchmark_main's body, plus how steelnet was built in the JSON context
// (google-benchmark's own "library_build_type" is the installed library's).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("steelnet_build_type", STEELNET_BUILD_TYPE);
  benchmark::AddCustomContext("steelnet_compiler", STEELNET_COMPILER);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
