#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace steelnet::sim {

namespace {
/// Thread-local view of the worker's own cell group, used to relieve
/// backpressure: a producer spinning on a full ring drains the rings of
/// the cells it owns, which is what breaks cyclic buffer-full deadlocks
/// (every spinning producer is somebody else's consumer).
thread_local const std::vector<ShardedSimulator::Cell*>* tl_group = nullptr;
}  // namespace

const char* to_string(ShardingErrorCode code) {
  switch (code) {
    case ShardingErrorCode::kZeroLookahead: return "zero-lookahead";
    case ShardingErrorCode::kSelfChannel: return "self-channel";
    case ShardingErrorCode::kDuplicateChannel: return "duplicate-channel";
    case ShardingErrorCode::kBadCell: return "bad-cell";
    case ShardingErrorCode::kNoChannel: return "no-channel";
    case ShardingErrorCode::kBadShardCount: return "bad-shard-count";
    case ShardingErrorCode::kAlreadyRan: return "already-ran";
    case ShardingErrorCode::kNoCells: return "no-cells";
    case ShardingErrorCode::kSendBelowFloor: return "send-below-floor";
  }
  return "unknown";
}

// --- Cell -------------------------------------------------------------------

void ShardedSimulator::Cell::send(std::uint32_t dst_cell,
                                  const ShardMsg& payload,
                                  SimTime extra_delay) {
  const auto it = out_by_dst_.find(dst_cell);
  if (it == out_by_dst_.end()) {
    throw ShardingError(ShardingErrorCode::kNoChannel,
                        "send: cell " + name_ + " has no channel to cell " +
                            std::to_string(dst_cell));
  }
  if (extra_delay < SimTime::zero()) {
    throw SimError("send: negative extra delay");
  }
  const std::int64_t now_ns = sim_.now().nanos();
  if (now_ns < send_floor_) {
    // The cell already published send_floor_ as its null message, so a
    // neighbour may have run past this message's delivery time: fail the
    // run with a diagnosis instead of delivering it out of order.
    throw ShardingError(ShardingErrorCode::kSendBelowFloor,
                        "send: cell " + name_ + " sends at " +
                            std::to_string(now_ns) +
                            " ns, below its promised send floor " +
                            std::to_string(send_floor_) + " ns");
  }
  ShardChannel& ch = *it->second;
  ShardMsg msg = payload;
  msg.src_cell = id_;
  msg.seq = ++send_seq_;
  msg.send_ns = now_ns;
  msg.deliver_ns = msg.send_ns + ch.latency_ns + extra_delay.nanos();
  ++msgs_sent_;
  owner_.route(ch, std::move(msg));
}

void ShardedSimulator::Cell::promise_no_send_before(SimTime t) {
  send_floor_ = std::max(send_floor_, to_ns(t));
}

SimTime ShardedSimulator::Cell::send_floor() const {
  return send_floor_ >= kForeverNs ? SimTime::max() : SimTime{send_floor_};
}

SimTime ShardedSimulator::Cell::latency_to(std::uint32_t dst_cell) const {
  const auto it = out_by_dst_.find(dst_cell);
  if (it == out_by_dst_.end()) {
    throw ShardingError(ShardingErrorCode::kNoChannel,
                        "latency_to: no channel to cell " +
                            std::to_string(dst_cell));
  }
  return SimTime{it->second->latency_ns};
}

SimTime ShardedSimulator::Cell::lookahead() const {
  SimTime min = SimTime::max();
  for (const ShardChannel* ch : inbound_) {
    min = std::min(min, SimTime{ch->latency_ns});
  }
  return min;
}

// --- construction -----------------------------------------------------------

std::uint32_t ShardedSimulator::add_cell(std::string name,
                                         std::uint64_t weight) {
  const auto id = static_cast<std::uint32_t>(cells_.size());
  cells_.emplace_back(new Cell(*this, id, std::move(name), weight));
  return id;
}

void ShardedSimulator::check_cell_id(std::uint32_t id) const {
  if (id >= cells_.size()) {
    throw ShardingError(ShardingErrorCode::kBadCell,
                        "cell id " + std::to_string(id) + " out of range");
  }
}

void ShardedSimulator::connect(std::uint32_t src, std::uint32_t dst,
                               SimTime min_latency, std::size_t capacity) {
  check_cell_id(src);
  check_cell_id(dst);
  if (src == dst) {
    throw ShardingError(ShardingErrorCode::kSelfChannel,
                        "connect: cell " + std::to_string(src) +
                            " cannot be channeled to itself");
  }
  if (min_latency <= SimTime::zero()) {
    // A zero (or negative) minimum latency would make the receiver's
    // lookahead window empty: in any cycle of such channels no cell could
    // ever prove an event safe, so the conservative protocol rejects the
    // topology up front instead of deadlocking at runtime.
    throw ShardingError(ShardingErrorCode::kZeroLookahead,
                        "connect: channel " + std::to_string(src) + "->" +
                            std::to_string(dst) +
                            " has zero lookahead (min latency " +
                            min_latency.to_string() + " must be > 0)");
  }
  if (cells_[src]->out_by_dst_.count(dst) != 0) {
    throw ShardingError(ShardingErrorCode::kDuplicateChannel,
                        "connect: duplicate channel " + std::to_string(src) +
                            "->" + std::to_string(dst));
  }
  channels_.push_back(std::make_unique<ShardChannel>(
      src, dst, min_latency.nanos(), capacity));
  ShardChannel* ch = channels_.back().get();
  cells_[src]->out_by_dst_.emplace(dst, ch);
  cells_[dst]->inbound_.push_back(ch);
}

void ShardedSimulator::seal_send_floors() {
  for (auto& c : cells_) {
    if (c->out_by_dst_.empty()) c->send_floor_ = kForeverNs;
  }
}

ShardedSimulator::Cell& ShardedSimulator::cell(std::uint32_t id) {
  check_cell_id(id);
  return *cells_[id];
}

// --- partitioner ------------------------------------------------------------

std::vector<std::uint32_t> ShardedSimulator::partition(
    const std::vector<std::uint64_t>& weights, std::size_t shards) {
  // The algorithm lives in PrefixQuotaPartitioner now; this static
  // keeps the original signature and its ShardingError contract.
  if (shards == 0) {
    throw ShardingError(ShardingErrorCode::kBadShardCount,
                        "partition: shards must be >= 1");
  }
  return PrefixQuotaPartitioner{}.assign(weights, shards);
}

RateProfile ShardedSimulator::rate_profile() const {
  RateProfile profile;
  profile.cells.reserve(cells_.size());
  for (const auto& c : cells_) {
    profile.cells.push_back(
        {c->name_, c->sim_.events_executed(), c->msgs_delivered_});
  }
  return profile;
}

// --- engine -----------------------------------------------------------------

void ShardedSimulator::route(ShardChannel& channel, ShardMsg&& msg) {
  if (reference_mode_) {
    cells_[channel.dst]->staging_.push(std::move(msg));
    return;
  }
  while (!channel.ring.try_push(std::move(msg))) {
    // Backpressure: drain our own inbound rings while we wait, so a cycle
    // of full channels always has at least one draining consumer.
    push_spins_.fetch_add(1, std::memory_order_relaxed);
    if (tl_group != nullptr) {
      for (Cell* mine : *tl_group) drain_inbound(*mine);
    }
    std::this_thread::yield();
  }
}

bool ShardedSimulator::drain_inbound(Cell& c) {
  // Batched drain: one cursor round-trip per batch instead of per
  // message. A partial batch means the ring was empty at the snapshot --
  // anything pushed since lands next round, same as per-message pops.
  constexpr std::size_t kBatch = 16;
  bool any = false;
  ShardMsg buf[kBatch];
  for (ShardChannel* ch : c.inbound_) {
    std::size_t n;
    while ((n = ch->ring.try_pop_n(buf, kBatch)) != 0) {
      for (std::size_t i = 0; i < n; ++i) c.staging_.push(buf[i]);
      any = true;
      if (n < kBatch) break;
    }
  }
  return any;
}

bool ShardedSimulator::advance_cell(Cell& c, std::int64_t bound_ns) {
  bool any = false;
  while (true) {
    const std::int64_t local_ns = to_ns(c.sim_.next_event_time());
    const std::int64_t msg_ns =
        c.staging_.empty() ? kForeverNs : c.staging_.top().deliver_ns;
    const std::int64_t t = std::min(local_ns, msg_ns);
    if (t >= bound_ns) break;
    if (msg_ns <= local_ns) {
      // Deterministic tie-break: at equal timestamps, cross-shard
      // messages execute before local events (and among themselves in
      // (src_cell, seq) order). run_reference() applies the same rule.
      const ShardMsg msg = c.staging_.top();
      c.staging_.pop();
      c.sim_.advance_clock_to(SimTime{msg.deliver_ns});
      if (record_fire_log_) {
        c.fire_log_.push_back({msg.deliver_ns, 1, msg.src_cell, msg.seq});
      }
      ++c.msgs_delivered_;
      if (c.handler_) c.handler_(c, msg);
    } else {
      if (record_fire_log_) {
        c.fire_log_.push_back({local_ns, 0, c.id_, c.sim_.events_executed()});
      }
      c.sim_.step();
    }
    any = true;
  }
  return any;
}

bool ShardedSimulator::cell_round(Cell& c, std::int64_t horizon_ns) {
  // Order matters: snapshot the published clocks *before* draining the
  // rings. Any message not yet visible in a ring after the snapshot was
  // sent after its sender published the snapshotted bound, so its
  // delivery time is >= that bound + latency >= the LBTS we compute --
  // it cannot be needed below the window we are about to execute.
  //
  // Idle-neighbour fast path: the forever sentinel is absorbing (a done
  // cell, or one with a forever send floor, never sends again, and its
  // published clock never moves back down), so once every inbound sender
  // has published it and one more drain has emptied the rings, no message
  // can ever arrive here again -- the snapshot and drain become pure
  // cache traffic and are skipped for the rest of the run.
  std::int64_t lbts = kForeverNs;
  bool drained = false;
  if (!c.inbound_quiet_) {
    bool all_forever = true;
    for (const ShardChannel* ch : c.inbound_) {
      const std::int64_t pub =
          cells_[ch->src]->pub_.load(std::memory_order_acquire);
      if (pub < kForeverNs) all_forever = false;
      lbts = std::min(lbts, sat_add(pub, ch->latency_ns));
    }
    drained = drain_inbound(c);
    if (all_forever) c.inbound_quiet_ = true;
  } else {
    fast_skips_.fetch_add(1, std::memory_order_relaxed);
  }
  if (c.done_) return drained;

  const std::int64_t bound = std::min(lbts, sat_add(horizon_ns, 1));
  const bool executed = advance_cell(c, bound);

  const std::int64_t local_ns = to_ns(c.sim_.next_event_time());
  const std::int64_t msg_ns =
      c.staging_.empty() ? kForeverNs : c.staging_.top().deliver_ns;

  if (lbts > horizon_ns && local_ns > horizon_ns && msg_ns > horizon_ns) {
    // Nothing at or below the horizon can still execute here or arrive
    // from a neighbor: this cell is finished. Publish "never sends again"
    // so downstream LBTS windows open all the way (unless a forever send
    // floor already did).
    c.done_ = true;
    if (c.pub_shadow_ < kForeverNs) {
      c.pub_shadow_ = kForeverNs;
      ++c.publishes_;
      c.pub_.store(kForeverNs, std::memory_order_release);
    }
    return drained || executed;
  }

  // The null message: everything this cell might still send originates
  // from its next local event, its next staged message, or a message yet
  // to arrive (no earlier than LBTS). The send floor is a second, and
  // independent, lower bound: send() refuses to stamp anything below it.
  // The max of two valid lower bounds is one, so publishing it is safe,
  // and it stays monotone because both terms only ever grow. The store
  // is coalesced onto frontier advances: pub_shadow_ is the owner
  // thread's copy of the last published value, so an unchanged frontier
  // costs no atomic op at all. Receivers then read a possibly stale but
  // still monotone lower bound -- their LBTS can only be tighter than the
  // truth, never looser, which is the safe direction.
  const std::int64_t lb =
      std::max(std::min({local_ns, msg_ns, lbts}), c.send_floor_);
  if (lb > c.pub_shadow_) {
    c.pub_shadow_ = lb;
    ++c.publishes_;
    c.pub_.store(lb, std::memory_order_release);
  }
  return drained || executed;
}

void ShardedSimulator::worker(const std::vector<Cell*>& group,
                              std::int64_t horizon_ns, std::size_t n_shards) {
  tl_group = &group;
  bool reported = false;
  try {
    while (!done_flag_.load(std::memory_order_acquire)) {
      bool progress = false;
      bool all_done = true;
      for (Cell* c : group) {
        progress |= cell_round(*c, horizon_ns);
        all_done &= c->done_;
      }
      rounds_.fetch_add(1, std::memory_order_relaxed);
      if (all_done && !reported) {
        reported = true;
        if (done_shards_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            n_shards) {
          done_flag_.store(true, std::memory_order_release);
        }
      }
      // Keep draining after this shard finished: neighbors may still push
      // beyond-horizon messages, and a full ring would stall them.
      if (!progress) std::this_thread::yield();
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(failure_mu_);
      if (!failure_) failure_ = std::current_exception();
    }
    done_flag_.store(true, std::memory_order_release);
  }
  tl_group = nullptr;
}

ShardRunStats ShardedSimulator::run(SimTime horizon, std::size_t shards) {
  if (ran_) {
    throw ShardingError(ShardingErrorCode::kAlreadyRan,
                        "run: ShardedSimulator is one-shot");
  }
  if (shards == 0) {
    throw ShardingError(ShardingErrorCode::kBadShardCount,
                        "run: shards must be >= 1");
  }
  if (cells_.empty()) {
    throw ShardingError(ShardingErrorCode::kNoCells, "run: no cells");
  }
  ran_ = true;
  shards = std::min(shards, cells_.size());
  seal_send_floors();

  std::vector<std::uint64_t> weights;
  if (measured_weights_.empty()) {
    weights.reserve(cells_.size());
    for (const auto& c : cells_) weights.push_back(c->weight_);
  } else {
    if (measured_weights_.size() != cells_.size()) {
      throw PartitionError(PartitionErrorCode::kProfileMismatch,
                           "run: " + std::to_string(measured_weights_.size()) +
                               " measured weights for " +
                               std::to_string(cells_.size()) + " cells");
    }
    weights = measured_weights_;
  }
  static const PrefixQuotaPartitioner kDefaultPartitioner;
  const Partitioner& strategy =
      partitioner_ != nullptr ? *partitioner_ : kDefaultPartitioner;
  partition_map_ = strategy.assign(weights, shards);
  validate_assignment(partition_map_, cells_.size(), shards);

  std::vector<std::vector<Cell*>> groups(shards);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    groups[partition_map_[i]].push_back(cells_[i].get());
  }

  const std::int64_t horizon_ns = horizon.nanos();
  const auto wall_start = std::chrono::steady_clock::now();

  if (shards == 1) {
    // Inline, no threads -- the same conservative engine, so artifacts
    // are identical to any threaded shard count by construction.
    worker(groups[0], horizon_ns, 1);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(shards - 1);
    for (std::size_t s = 1; s < shards; ++s) {
      pool.emplace_back([this, &groups, s, horizon_ns, shards] {
        worker(groups[s], horizon_ns, shards);
      });
    }
    worker(groups[0], horizon_ns, shards);
    for (std::thread& t : pool) t.join();
  }

  const auto wall_end = std::chrono::steady_clock::now();
  if (failure_) std::rethrow_exception(failure_);

  // Quiescent now: drain ring leftovers (beyond-horizon traffic) so the
  // accounting is exact and deterministic.
  ShardRunStats stats;
  stats.shards = shards;
  for (auto& c : cells_) {
    drain_inbound(*c);
    while (!c->staging_.empty()) {
      ++c->beyond_horizon_;
      c->staging_.pop();
    }
    stats.events += c->sim_.events_executed();
    stats.msgs_delivered += c->msgs_delivered_;
    stats.msgs_sent += c->msgs_sent_;
    stats.beyond_horizon += c->beyond_horizon_;
    stats.clock_publishes += c->publishes_;
  }
  stats.rounds = rounds_.load(std::memory_order_relaxed);
  stats.push_spins = push_spins_.load(std::memory_order_relaxed);
  stats.fast_skips = fast_skips_.load(std::memory_order_relaxed);
  stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return stats;
}

ShardRunStats ShardedSimulator::run_reference(SimTime horizon) {
  if (ran_) {
    throw ShardingError(ShardingErrorCode::kAlreadyRan,
                        "run_reference: ShardedSimulator is one-shot");
  }
  if (cells_.empty()) {
    throw ShardingError(ShardingErrorCode::kNoCells, "run_reference: no cells");
  }
  ran_ = true;
  reference_mode_ = true;
  seal_send_floors();
  const std::int64_t horizon_ns = horizon.nanos();
  const auto wall_start = std::chrono::steady_clock::now();

  // Globally ordered execution: always the earliest next action across
  // all cells; ties across cells break toward the lower cell id (cells
  // cannot interact at equal times -- every channel has latency >= 1 ns
  // -- so this tie-break is cosmetic, not causal).
  while (true) {
    Cell* best = nullptr;
    std::int64_t best_t = kForeverNs;
    for (auto& c : cells_) {
      const std::int64_t local_ns = to_ns(c->sim_.next_event_time());
      const std::int64_t msg_ns =
          c->staging_.empty() ? kForeverNs : c->staging_.top().deliver_ns;
      const std::int64_t t = std::min(local_ns, msg_ns);
      if (t < best_t) {
        best_t = t;
        best = c.get();
      }
    }
    if (best == nullptr || best_t > horizon_ns) break;
    advance_cell(*best, best_t + 1);
  }

  const auto wall_end = std::chrono::steady_clock::now();
  ShardRunStats stats;
  stats.shards = 1;
  for (auto& c : cells_) {
    while (!c->staging_.empty()) {
      ++c->beyond_horizon_;
      c->staging_.pop();
    }
    stats.events += c->sim_.events_executed();
    stats.msgs_delivered += c->msgs_delivered_;
    stats.msgs_sent += c->msgs_sent_;
    stats.beyond_horizon += c->beyond_horizon_;
  }
  stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return stats;
}

}  // namespace steelnet::sim
