#include "net/sharded_plant.hpp"

namespace steelnet::net {

void run_placed(sim::ShardedSimulator& ss, sim::SimTime horizon,
                std::size_t shards,
                const std::vector<std::uint64_t>& measured_weights,
                ShardedRunResult& out) {
  static const sim::LptPartitioner kMeasuredStrategy;
  if (!measured_weights.empty()) {
    ss.set_partitioner(&kMeasuredStrategy);
    ss.set_measured_weights(measured_weights);
  }
  out.horizon_ns = horizon.nanos();
  out.stats = ss.run(horizon, shards);

  // Placement diagnostics: judge whatever partition ran by the rates the
  // run actually measured.
  out.partition = ss.partition_map();
  out.profile = ss.rate_profile();
  const sim::PartitionStats pstats =
      sim::partition_stats(out.profile.weights(), out.partition);
  out.shard_events = pstats.shard_load;
  out.imbalance_permille = pstats.imbalance_permille();
}

}  // namespace steelnet::net
