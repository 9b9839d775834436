// Tier-1 guard for the allocation-free hot path: after warm-up, a cyclic
// host<->host traffic loop drawing frames from the FramePool must execute
// zero heap allocations per cycle. This is the acceptance criterion of
// the pooled-frame/slab-kernel work -- a regression that reintroduces
// per-frame or per-event churn fails this test, not just a benchmark.
// The same holds one layer up: a PROFINET controller<->device pair
// exchanging cyclic data through a star switch (encode, switch, decode,
// watchdog) allocates nothing per cycle either.
//
// The binary overrides global operator new/delete to count allocations.
// Sanitizer builds replace the allocator themselves, so the override (and
// the test) compiles out there and the test reports SKIPPED.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/host_node.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
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
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // STEELNET_ALLOC_COUNTING

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

TEST(AllocFree, SteadyStateCyclicTrafficDoesNotAllocate) {
#if !STEELNET_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  sim::Simulator simulator;
  Network network{simulator};
  HostNode& a = network.add_node<HostNode>("a", MacAddress{1});
  HostNode& b = network.add_node<HostNode>("b", MacAddress{2});
  network.connect(a.id(), 0, b.id(), 0, LinkParams{1'000'000'000, 500_ns});

  // b echoes every request back through the pool; a retires responses.
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  b.set_receiver([&](Frame f, sim::SimTime) {
    Frame reply = network.frame_pool().make(46);
    reply.dst = MacAddress{1};
    reply.src = MacAddress{2};
    network.frame_pool().recycle(std::move(f));
    b.send(std::move(reply));
  });
  a.set_receiver([&](Frame f, sim::SimTime) {
    ++responses;
    network.frame_pool().recycle(std::move(f));
  });

  sim::PeriodicTask producer(simulator, 0_ns, 100_us, [&] {
    Frame f = network.frame_pool().make(46);
    f.dst = MacAddress{2};
    f.src = MacAddress{1};
    ++requests;
    a.send(std::move(f));
  });

  // Warm-up: grow the event-queue slab/heap, the pool free list, and any
  // lazily-built node state to their steady-state footprint.
  simulator.run_until(sim::milliseconds(10));
  ASSERT_GT(responses, 50u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t responses_before = responses;
  simulator.run_until(sim::milliseconds(110));  // 1000 more cycles
  const std::uint64_t during =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_GE(responses, responses_before + 999);
  EXPECT_EQ(requests, producer.fired());
  // The whole point: a thousand request/response cycles -- schedule,
  // serialize, deliver, echo, retire -- without touching the allocator.
  EXPECT_EQ(during, 0u) << "steady-state cyclic traffic allocated " << during
                        << " times over 1000 cycles";
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

}  // namespace
}  // namespace steelnet::net
