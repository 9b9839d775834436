// core::SweepRunner -- the parallel seed-sweep engine's contract:
//   * slot-per-task storage: results land in task order regardless of
//     which worker ran them, so reductions are worker-count independent,
//   * jobs semantics: 0 = hardware concurrency, clamped to the task
//     count, never below 1,
//   * a throwing task surfaces as that slot's error string (the sweep
//     neither hangs nor loses the other slots),
//   * parallel runs produce exactly the sequential results,
//   * a run nested in a pool task stays on that task's thread,
//   * a thread the OS refuses to spawn costs parallelism, not the process.
#include "core/sweep_runner.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

// Sanitizer runtimes reserve terabytes of address space, so an
// RLIMIT_AS-based test cannot run under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STEELNET_HUGE_VM 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STEELNET_HUGE_VM 1
#else
#define STEELNET_HUGE_VM 0
#endif
#else
#define STEELNET_HUGE_VM 0
#endif

namespace steelnet::core {
namespace {

TEST(SweepRunner, EffectiveJobsClampsToTasksAndNeverBelowOne) {
  EXPECT_EQ(effective_jobs(1, 100, 1), 1u);
  EXPECT_EQ(effective_jobs(8, 3, 1), 3u);   // never more workers than tasks
  EXPECT_EQ(effective_jobs(4, 4, 1), 4u);
  EXPECT_GE(effective_jobs(0, 100, 1), 1u);  // 0 = hardware concurrency
  EXPECT_GE(effective_jobs(0, 1, 1), 1u);
  EXPECT_EQ(effective_jobs(8, 0, 1), 1u);    // empty sweep still well-defined
}

TEST(SweepRunner, ShardsPerTaskDividesTheAutoJobBudget) {
  // An explicit job count is the caller's business -- shards never
  // override it.
  EXPECT_EQ(effective_jobs(4, 100, 8), 4u);
  // Auto mode (0) divides hardware concurrency by the per-task shard
  // count so sweep workers x shard threads stays ~= the core count.
  const std::size_t solo = effective_jobs(0, 1000, 1);
  const std::size_t wide = effective_jobs(0, 1000, 64);
  EXPECT_GE(solo, wide);
  EXPECT_EQ(wide, 1u);  // 64 shards/task swamps any realistic machine
  // shards = 0 is treated as 1, and the task clamp still applies last.
  EXPECT_EQ(effective_jobs(0, 1000, 0), solo);
  EXPECT_EQ(effective_jobs(8, 2, 4), 2u);
  // The runner carries the setting for bench drivers to forward.
  EXPECT_EQ(SweepRunner(0, 4).shards_per_task(), 4u);
  EXPECT_EQ(SweepRunner{}.shards_per_task(), 1u);
}

TEST(SweepRunner, ResultsLandInTaskOrderForAnyJobCount) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4},
                                 std::size_t{8}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto slots = SweepRunner{jobs}.run(
        32, [](std::size_t i) { return i * i; });
    ASSERT_EQ(slots.size(), 32u);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      ASSERT_TRUE(slots[i].ok()) << slots[i].error;
      EXPECT_EQ(*slots[i].value, i * i);
    }
  }
}

TEST(SweepRunner, EmptySweepReturnsNoSlots) {
  const auto slots =
      SweepRunner{8}.run(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(slots.empty());
}

TEST(SweepRunner, EveryTaskRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  const auto slots = SweepRunner{8}.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return i;
  });
  ASSERT_EQ(slots.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(SweepRunner, ThrowingTaskSurfacesAsSlotErrorNotAHang) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto slots = SweepRunner{jobs}.run(8, [](std::size_t i) {
      if (i == 3) throw std::runtime_error("seed 3 exploded");
      return int(i);
    });
    ASSERT_EQ(slots.size(), 8u);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i == 3) {
        EXPECT_FALSE(slots[i].ok());
        EXPECT_EQ(slots[i].error, "seed 3 exploded");
      } else {
        ASSERT_TRUE(slots[i].ok()) << slots[i].error;
        EXPECT_EQ(*slots[i].value, int(i));
      }
    }
  }
}

TEST(SweepRunner, NonStdExceptionBecomesGenericSlotError) {
  const auto slots = SweepRunner{1}.run(1, [](std::size_t) -> int {
    throw 42;  // not a std::exception
  });
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_FALSE(slots[0].ok());
  EXPECT_EQ(slots[0].error, "unknown exception");
}

TEST(SweepRunner, ParallelMatchesSequentialExactly) {
  // The determinism contract behind the byte-identical artifact
  // guarantee: per-task results depend only on the task index, so the
  // slot vector is invariant under the job count.
  auto fn = [](std::size_t i) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the index
    for (int round = 0; round < 1000; ++round) {
      h ^= i + std::uint64_t(round);
      h *= 1099511628211ULL;
    }
    return h;
  };
  const auto seq = SweepRunner{1}.run(64, fn);
  const auto par = SweepRunner{8}.run(64, fn);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok());
    ASSERT_TRUE(par[i].ok());
    EXPECT_EQ(*seq[i].value, *par[i].value);
  }
}

TEST(SweepRunner, NestedRunStaysOnTheWorkerThread) {
  // Inner runs called from a 4-job outer run's tasks must not spawn a
  // pool each: every inner task runs on its outer task's thread.
  const auto outer = SweepRunner{4}.run(8, [](std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    const auto inner = SweepRunner{4}.run(
        16, [](std::size_t) { return std::this_thread::get_id(); });
    std::size_t elsewhere = inner.size() == 16 ? 0 : 1;
    for (const auto& slot : inner) {
      if (!slot.ok() || *slot.value != self) ++elsewhere;
    }
    return elsewhere;
  });
  ASSERT_EQ(outer.size(), 8u);
  for (std::size_t i = 0; i < outer.size(); ++i) {
    ASSERT_TRUE(outer[i].ok()) << outer[i].error;
    EXPECT_EQ(*outer[i].value, 0u) << "outer task " << i;
  }
}

TEST(SweepRunner, InlineOuterRunLeavesItsInnerRunParallel) {
  // Only a multi-worker run keeps nested runs inline. Under a jobs == 1
  // run, and on the caller once a pool run has returned, an inner run
  // still gets its pool: each task below waits until a second thread
  // has joined in (bounded, so a regression fails instead of hanging).
  const auto two_threads_meet = [] {
    std::atomic<int> arrived{0};
    const auto slots = SweepRunner{4}.run(4, [&](std::size_t) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
      }
      return true;
    });
    for (const auto& slot : slots) {
      if (!slot.ok() || !*slot.value) return false;
    }
    return true;
  };
  const auto outer = SweepRunner{1}.run(
      1, [&](std::size_t) { return two_threads_meet(); });
  ASSERT_TRUE(outer[0].ok()) << outer[0].error;
  EXPECT_TRUE(*outer[0].value);
  (void)SweepRunner{4}.run(4, [](std::size_t i) { return i; });
  EXPECT_TRUE(two_threads_meet());
}

/// Bytes of address space this process has mapped right now.
std::size_t mapped_bytes() {
  unsigned long pages = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%lu", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(SweepRunner, SpawnFailureFinishesOnTheCallingThread) {
#if STEELNET_HUGE_VM
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than "
                  "the limit leaves";
#endif
  // A child whose address-space limit fits one more default thread stack:
  // the pool gets at most one of its seven threads. The caller and that
  // thread must finish all eight tasks; a pool destroyed with a joinable
  // thread would abort the child instead.
  EXPECT_EXIT(
      {
        pthread_attr_t attr;
        std::size_t stack = 8u << 20;
        if (pthread_getattr_default_np(&attr) == 0) {
          pthread_attr_getstacksize(&attr, &stack);
          pthread_attr_destroy(&attr);
        }
        rlimit lim{};
        lim.rlim_cur = lim.rlim_max = mapped_bytes() + stack + stack / 2;
        if (setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(3);
        const auto slots =
            SweepRunner{8}.run(8, [](std::size_t i) { return i; });
        bool all_ok = slots.size() == 8;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          all_ok = all_ok && slots[i].ok() && *slots[i].value == i;
        }
        std::_Exit(all_ok ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace steelnet::core
