// core::SweepRunner -- the parallel seed-sweep engine's contract:
//   * slot-per-task storage: results land in task order regardless of
//     which worker ran them, so reductions are worker-count independent,
//   * jobs semantics: 0 = hardware concurrency, clamped to the task
//     count, never below 1,
//   * a throwing task surfaces as that slot's error string (the sweep
//     neither hangs nor loses the other slots),
//   * parallel runs produce exactly the sequential results.
#include "core/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace steelnet::core {
namespace {

TEST(SweepRunner, EffectiveJobsClampsToTasksAndNeverBelowOne) {
  EXPECT_EQ(effective_jobs(1, 100), 1u);
  EXPECT_EQ(effective_jobs(8, 3), 3u);   // never more workers than tasks
  EXPECT_EQ(effective_jobs(4, 4), 4u);
  EXPECT_GE(effective_jobs(0, 100), 1u);  // 0 = hardware concurrency
  EXPECT_GE(effective_jobs(0, 1), 1u);
  EXPECT_EQ(effective_jobs(8, 0), 1u);    // empty sweep still well-defined
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

}  // namespace
}  // namespace steelnet::core
