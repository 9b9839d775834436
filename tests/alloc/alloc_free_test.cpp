// Tier-1 guard for the allocation-free hot path: after warm-up, a cyclic
// host<->host traffic loop drawing frames from the FramePool must execute
// zero heap allocations per cycle. This is the acceptance criterion of
// the pooled-frame/slab-kernel work -- a regression that reintroduces
// per-frame or per-event churn fails this test, not just a benchmark.
// The same holds one layer up: a PROFINET controller<->device pair
// exchanging cyclic data through a star switch (encode, switch, decode,
// watchdog) allocates nothing per cycle either, and neither does a whole
// 48-device campus cell on the sharded kernel, nor a flow cache under
// insert/expire churn. With an ObsHub attached, recording every hop span
// allocates only when a vector doubles.
//
// The binary overrides global operator new/delete to count allocations.
// Sanitizer builds replace the allocator themselves, so the override (and
// the test) compiles out there and the test reports SKIPPED. It also
// refuses (bad_alloc) any single request above 1 GiB, so a test that
// expects no large allocation cannot take the machine's memory instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "flowmon/flow_cache.hpp"
#include "net/campus.hpp"
#include "net/host_node.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/hub.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STEELNET_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STEELNET_ALLOC_COUNTING 0
#else
#define STEELNET_ALLOC_COUNTING 1
#endif
#else
#define STEELNET_ALLOC_COUNTING 1
#endif

#if STEELNET_ALLOC_COUNTING

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_refused{0};
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n > kRefuseAbove) {
    g_refused.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // STEELNET_ALLOC_COUNTING

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

/// Host a sends a pooled 46-byte request every 100 us; b echoes each one
/// back through the pool; a retires the responses.
struct EchoLoop {
  explicit EchoLoop(obs::ObsHub* hub = nullptr) {
    network.set_obs(hub);
    network.connect(a.id(), 0, b.id(), 0, LinkParams{1'000'000'000, 500_ns});
    b.set_receiver([this](Frame f, sim::SimTime) {
      Frame reply = network.frame_pool().make(46);
      reply.dst = MacAddress{1};
      reply.src = MacAddress{2};
      network.frame_pool().recycle(std::move(f));
      b.send(std::move(reply));
    });
    a.set_receiver([this](Frame f, sim::SimTime) {
      ++responses;
      network.frame_pool().recycle(std::move(f));
    });
  }

  sim::Simulator simulator;
  Network network{simulator};
  HostNode& a = network.add_node<HostNode>("a", MacAddress{1});
  HostNode& b = network.add_node<HostNode>("b", MacAddress{2});
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  sim::PeriodicTask producer{simulator, 0_ns, 100_us, [this] {
                               Frame f = network.frame_pool().make(46);
                               f.dst = MacAddress{2};
                               f.src = MacAddress{1};
                               ++requests;
                               a.send(std::move(f));
                             }};
};

TEST(AllocFree, SteadyStateCyclicTrafficDoesNotAllocate) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  EchoLoop loop;

  // Warm-up: grow the event-queue slab/heap, the pool free list, and any
  // lazily-built node state to their steady-state footprint.
  loop.simulator.run_until(sim::milliseconds(10));
  ASSERT_GT(loop.responses, 50u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t responses_before = loop.responses;
  loop.simulator.run_until(sim::milliseconds(110));  // 1000 more cycles
  const std::uint64_t during =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_GE(loop.responses, responses_before + 999);
  EXPECT_EQ(loop.requests, loop.producer.fired());
  // The whole point: a thousand request/response cycles -- schedule,
  // serialize, deliver, echo, retire -- without touching the allocator.
  EXPECT_EQ(during, 0u) << "steady-state cyclic traffic allocated " << during
                        << " times over 1000 cycles";
#endif
}

// The same loop with an ObsHub attached: every frame records host-tx,
// queue, link and host-rx spans and a delivery. The only allocations
// left are the doublings of the span and delivery vectors and of the
// open-hop table -- O(log N) over N cycles, never one per frame.
TEST(AllocFree, TracedCyclicTrafficAllocatesOnlyForVectorGrowth) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  obs::ObsHub hub;
  EchoLoop loop(&hub);
  loop.simulator.run_until(sim::milliseconds(10));
  ASSERT_GT(loop.responses, 50u);

  constexpr std::uint64_t kCycles = 100'000;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t responses_before = loop.responses;
  const std::size_t spans_before = hub.tracer().spans().size();
  loop.simulator.run_until(sim::milliseconds(10) + kCycles * 100_us);
  const std::uint64_t during =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_GE(loop.responses, responses_before + kCycles - 1);
  // Two frames a cycle, four hop spans a frame.
  EXPECT_GE(hub.tracer().spans().size() - spans_before, 8 * (kCycles - 1));
  EXPECT_EQ(hub.tracer().unmatched_closes(), 0u);
  EXPECT_LE(during, 64u) << "traced cyclic traffic allocated " << during
                         << " times over " << kCycles << " cycles";
#endif
}

TEST(AllocFree, SteadyStateProfinetCyclicExchangeDoesNotAllocate) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  sim::Simulator simulator;
  Network network{simulator};
  Fabric fabric = build_star(network, 2);
  install_shortest_path_routes(fabric);
  HostNode& dev_host = fabric.host(0);
  HostNode& ctl_host = fabric.host(1);

  profinet::IoDevice device(dev_host);
  profinet::ControllerConfig cfg;
  cfg.device_mac = dev_host.mac();
  cfg.cycle = 100_us;
  cfg.input_bytes = 16;
  cfg.output_bytes = 16;
  profinet::CyclicController controller(ctl_host, cfg);
  controller.connect();

  // Warm-up: connection establishment plus enough cycles to size the
  // event slab, pool free list, FDB and the reused tx/rx PDUs.
  simulator.run_until(sim::milliseconds(10));
  ASSERT_EQ(controller.state(), profinet::ControllerState::kRunning);
  ASSERT_EQ(device.state(), profinet::DeviceState::kDataExchange);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t tx_before = controller.counters().cyclic_tx;
  const std::uint64_t rx_before = controller.counters().cyclic_rx;
  simulator.run_until(sim::milliseconds(110));  // 1000 more cycles
  const std::uint64_t during =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(controller.counters().cyclic_tx, tx_before + 1000);
  EXPECT_GE(controller.counters().cyclic_rx, rx_before + 999);
  EXPECT_EQ(device.counters().watchdog_trips, 0u);
  EXPECT_EQ(during, 0u) << "steady-state PROFINET cyclic exchange allocated "
                        << during << " times over 1000 cycles";
#endif
}

#if STEELNET_ALLOC_COUNTING
/// Allocations made by one whole run_campus call: build, run, collect.
std::uint64_t campus_cell_run_allocations(sim::SimTime horizon) {
  CampusOptions opt;
  opt.cells = 1;
  opt.devices_per_cell = 48;
  opt.horizon = horizon;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const CampusResult r = run_campus(opt);
  const std::uint64_t n = g_allocations.load(std::memory_order_relaxed) -
                          before;
  const CellReport& cell = r.cells.at(0);
  // 48 controller<->device pairs exchange cyclic data every 4 ms.
  EXPECT_GE(cell.cyclic_rx, 48 * (horizon / opt.cycle - 2));
  EXPECT_EQ(cell.watchdog_trips, 0u);
  return n;
}
#endif  // STEELNET_ALLOC_COUNTING

// A whole campus cell -- star fabric, 48 PROFINET controller/device
// pairs, sink, frame pool and the sharded kernel around it -- run for
// 100 ms and for 500 ms. Everything past warm-up (100 more cycles of 48
// exchanges) must add no allocation, so both runs allocate exactly as
// often: setup and collection are the same size, the steady state is
// free.
TEST(AllocFree, SteadyStateCampusCellDoesNotAllocate) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  const std::uint64_t short_run =
      campus_cell_run_allocations(sim::milliseconds(100));
  const std::uint64_t long_run =
      campus_cell_run_allocations(sim::milliseconds(500));
  EXPECT_GT(short_run, 0u);  // setup allocates; the counter is live
  EXPECT_EQ(long_run, short_run)
      << "400 ms more of a 48-device campus cell allocated "
      << long_run - short_run << " more times";
#endif
}

#if STEELNET_ALLOC_COUNTING
/// Allocations made by building a flow cache and running `ticks` 1 ms
/// ticks of churn at a constant live count: each tick 64 new flows
/// arrive, the previous tick's 64 are hit again, 16 long-lived flows are
/// hit (and checkpointed on active timeout), and a sweep expires the
/// flows idle for 3 ms.
std::uint64_t flow_cache_churn_allocations(int ticks) {
  flowmon::FlowCacheConfig cfg;
  cfg.capacity = 1024;
  cfg.idle_timeout = 3_ms;
  cfg.active_timeout = 10_ms;
  cfg.wheel_tick = 1_ms;
  Frame frame;
  frame.dst = MacAddress{0xfe};
  frame.payload.assign(64, 0);
  std::uint64_t idle = 0, active = 0;
  const flowmon::FlowCache::ExportFn count =
      [&](const flowmon::FlowRecord&, flowmon::EndReason reason) {
        (reason == flowmon::EndReason::kIdleTimeout ? idle : active) += 1;
      };
  const auto send = [&](flowmon::FlowCache& cache, std::uint64_t src,
                        sim::SimTime at) {
    frame.src = MacAddress{src};
    EXPECT_NE(cache.record(frame, at), nullptr);
  };

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t live_max = 0;
  {
    flowmon::FlowCache cache{cfg};
    for (int t = 0; t < ticks; ++t) {
      const auto tick = static_cast<std::uint64_t>(t);
      const sim::SimTime now = sim::milliseconds(t);
      for (std::uint64_t i = 0; i < 64; ++i) {
        send(cache, 0x1000 + tick * 64 + i, now + sim::microseconds(i));
        if (t > 0) send(cache, 0x1000 + (tick - 1) * 64 + i, now + 100_us);
      }
      for (std::uint64_t i = 0; i < 16; ++i) send(cache, 0x10 + i, now);
      live_max = std::max(live_max, cache.size());
      cache.sweep(now + 1_ms, count);
    }
  }
  const std::uint64_t n = g_allocations.load(std::memory_order_relaxed) -
                          before;
  EXPECT_LE(live_max, 16u + 64 * 5);  // the live count stays bounded
  EXPECT_GE(idle, 64u * static_cast<std::uint64_t>(ticks - 5));
  EXPECT_GT(active, 0u);
  return n;
}
#endif  // STEELNET_ALLOC_COUNTING

// Insert, hit and idle-expiry churn through a FlowCache at a constant live
// count, for 50 and for 250 ticks: the index and the record slab are sized
// at construction and freed records are reused, so the longer run adds no
// allocation.
TEST(AllocFree, SteadyStateFlowCacheChurnDoesNotAllocate) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  const std::uint64_t short_run = flow_cache_churn_allocations(50);
  const std::uint64_t long_run = flow_cache_churn_allocations(250);
  EXPECT_GT(short_run, 0u);  // construction allocates; the counter is live
  EXPECT_EQ(long_run, short_run)
      << "200 more ticks of flow-cache churn allocated "
      << long_run - short_run << " more times";
#endif
}

// A cache filled to its load cap and then churned -- every flow erased
// and replaced, records hit -- allocates nothing after its constructor:
// the free-index stack and the wheel's node table are reserved to the
// load cap up front, so arming and cancelling timers and recycling slab
// indices never grow a vector.
TEST(AllocFree, FlowCacheAtItsLoadCapAllocatesNothingAfterConstruction) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  flowmon::FlowCacheConfig cfg;
  cfg.capacity = 4096;
  cfg.wheel_tick = 1_ms;
  flowmon::FlowCache cache{cfg};
  const std::size_t cap = cache.load_cap();
  Frame frame;
  frame.dst = MacAddress{0xfe};
  frame.payload.assign(64, 0);

  std::vector<flowmon::FlowKey> live;
  live.reserve(cap);
  std::uint64_t next_src = 0x1000;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < cap; ++i) {
    frame.src = MacAddress{next_src++};
    ASSERT_NE(cache.record(frame, sim::microseconds(std::int64_t(i))), nullptr);
    live.push_back(flowmon::FlowKey::of(frame));
  }
  frame.src = MacAddress{next_src};
  ASSERT_EQ(cache.record(frame, 1_ms), nullptr);  // at the cap: refused
  const std::uint64_t filled = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) {
    const sim::SimTime now = 2_ms + sim::milliseconds(round);
    for (flowmon::FlowKey& key : live) {
      ASSERT_TRUE(cache.erase(key));
      frame.src = MacAddress{next_src++};
      ASSERT_NE(cache.record(frame, now), nullptr);
      ASSERT_NE(cache.record(frame, now + 1_us), nullptr);  // a hit
      key = flowmon::FlowKey::of(frame);
    }
  }
  const std::uint64_t churned = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(cache.size(), cap);
  EXPECT_EQ(filled - before, 0u) << "filling to the load cap allocated";
  EXPECT_EQ(churned - filled, 0u) << "churn at the load cap allocated";
#endif
}

// A capacity above 2^32 slots would put slab indices beyond 32 bits; the
// constructor refuses it before it allocates the 64 GiB index.
TEST(AllocFree, OversizedFlowCacheCapacityThrowsBeforeAllocating) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  flowmon::FlowCacheConfig cfg;
  cfg.capacity = std::size_t{1} << 33;
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  EXPECT_THROW({ flowmon::FlowCache cache{cfg}; }, std::invalid_argument);
  EXPECT_EQ(g_refused.load(std::memory_order_relaxed), 0u);
  // Only the exception's message may allocate.
  EXPECT_LT(g_bytes.load(std::memory_order_relaxed) - bytes, 1024u);
#endif
}

}  // namespace
}  // namespace steelnet::net
