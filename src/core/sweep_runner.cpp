#include "core/sweep_runner.hpp"

#include <algorithm>

namespace steelnet::core {

std::size_t effective_jobs(std::size_t requested, std::size_t tasks,
                           std::size_t shards_per_task) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t shards = std::max<std::size_t>(shards_per_task, 1);
  const std::size_t jobs =
      requested != 0 ? requested : std::max<std::size_t>(1, hw / shards);
  return std::max<std::size_t>(1, std::min(jobs, std::max<std::size_t>(
                                                     tasks, 1)));
}

}  // namespace steelnet::core
