// steelnet::sim -- the sharded conservative-PDES driver.
//
// ShardedSimulator partitions a simulation into *cells* -- logical
// processes that each own a full single-threaded Simulator -- and runs
// disjoint groups of cells (shards) on worker threads. Cells interact
// only through latency-stamped ShardChannels; every channel's fixed
// minimum latency supplies the receiver's conservative lookahead, and a
// barrier-free null-message protocol (each cell publishes a monotone
// lower bound on its future send times; each cell advances strictly below
// LBTS = min over inbound channels of published clock + latency) lets
// shards advance independently while never violating causal order.
//
// Application lookahead: a cell may also promise not to send before some
// future time (Cell::promise_no_send_before). The published bound is then
// max(kernel bound, send floor) -- both are lower bounds on the cell's
// future send times, so their max is one too -- which lets neighbours run
// up to the next real send instead of the next local event. A send below
// the floor throws ShardingError{kSendBelowFloor} rather than silently
// reordering the run. Cells without outbound channels get a forever floor.
//
// Determinism contract -- the property every test in tests/sim pins:
// a cell's execution depends only on (its own initial state, its own RNG
// streams, the totally ordered sequence of inbound messages). Inbound
// messages are merged by (deliver_ns, src_cell, seq) and, at equal
// timestamps, delivered *before* local events. Both rules are independent
// of shard count and thread scheduling, so the per-cell event order --
// and every artifact derived from per-cell state -- is byte-identical at
// any shard count, including against run_reference(), the single-threaded
// globally ordered engine.
//
// Thread-safety shape: a cell (its Simulator, EventQueue, staging heap,
// counters) is only ever touched by its owning shard's worker thread.
// The only shared state is the SpscRing of each channel and one published
// -clock atomic per cell. EventQueue/EventHandle are *not* thread-safe
// and never cross shards: scheduling or cancelling onto a remote cell is
// expressed as a message whose handler runs on the owning shard (see the
// cross-shard cancel test).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/partitioner.hpp"
#include "sim/shard_channel.hpp"
#include "sim/simulator.hpp"

namespace steelnet::sim {

/// Typed error of the sharded driver (topology/protocol misuse).
enum class ShardingErrorCode : std::uint8_t {
  kZeroLookahead,     ///< inter-cell channel with latency <= 0
  kSelfChannel,       ///< channel from a cell to itself
  kDuplicateChannel,  ///< second channel for the same (src, dst)
  kBadCell,           ///< cell id out of range
  kNoChannel,         ///< send() to a cell without a channel
  kBadShardCount,     ///< run() with shards == 0
  kAlreadyRan,        ///< run()/run_reference() called twice
  kNoCells,           ///< run() on an empty simulation
  kSendBelowFloor,    ///< send() earlier than the cell's promised floor
};

[[nodiscard]] const char* to_string(ShardingErrorCode code);

class ShardingError : public SimError {
 public:
  ShardingError(ShardingErrorCode code, const std::string& what)
      : SimError(what), code_(code) {}
  [[nodiscard]] ShardingErrorCode code() const { return code_; }

 private:
  ShardingErrorCode code_;
};

/// One executed action of a cell, for fire-order equivalence tests.
/// kind 0 = local simulator event (seq = the cell's executed-event
/// ordinal), kind 1 = delivered cross-shard message (src/seq from the
/// message).
struct FireRecord {
  std::int64_t t_ns = 0;
  std::uint32_t kind = 0;
  std::uint32_t src_cell = 0;
  std::uint64_t seq = 0;

  [[nodiscard]] bool operator==(const FireRecord&) const = default;
};

/// Aggregate outcome of one run. Only `events`, `msgs_delivered`,
/// `msgs_sent` and `beyond_horizon` are deterministic; `rounds`,
/// `push_spins`, `fast_skips`, `clock_publishes` and `wall_seconds`
/// depend on thread scheduling and must never leak into artifacts.
struct ShardRunStats {
  std::size_t shards = 0;
  std::uint64_t events = 0;          ///< local simulator events executed
  std::uint64_t msgs_delivered = 0;  ///< cross-shard messages executed
  std::uint64_t msgs_sent = 0;
  std::uint64_t beyond_horizon = 0;  ///< sent but delivered past horizon
  std::uint64_t rounds = 0;          ///< null-message rounds (timing-dependent)
  std::uint64_t push_spins = 0;      ///< backpressure retries (timing-dependent)
  std::uint64_t fast_skips = 0;      ///< idle-neighbour rounds skipped (timing-dependent)
  std::uint64_t clock_publishes = 0; ///< coalesced pub_ stores (timing-dependent)
  double wall_seconds = 0.0;
};

class ShardedSimulator {
 public:
  class Cell;
  /// Runs at the message's delivery time on the owning shard's thread,
  /// with the cell's clock already advanced to deliver_ns. May schedule
  /// local events and send further messages.
  using MsgHandler = std::function<void(Cell&, const ShardMsg&)>;

  /// One logical process: a private Simulator plus channel endpoints.
  class Cell {
   public:
    [[nodiscard]] Simulator& sim() { return sim_; }
    [[nodiscard]] std::uint32_t id() const { return id_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::uint64_t weight() const { return weight_; }

    void set_handler(MsgHandler handler) { handler_ = std::move(handler); }

    /// Sends a message to `dst_cell` over the connected channel; delivery
    /// happens at now + channel latency + extra_delay. Must be called
    /// from this cell's own execution context (an event or message
    /// handler). Throws ShardingError{kNoChannel} without a channel and
    /// ShardingError{kSendBelowFloor} when now() is below the send floor.
    void send(std::uint32_t dst_cell, const ShardMsg& payload,
              SimTime extra_delay = SimTime::zero());

    /// Promises that this cell sends nothing before `t`: the kernel may
    /// then publish `t` as the cell's null message, widening every
    /// neighbour's window past this cell's own next events. The floor is
    /// monotone -- a promise below the current floor is a no-op. Call it
    /// at build time or from the cell's own execution context.
    void promise_no_send_before(SimTime t);
    /// The current send floor (SimTime::zero() until a promise is made,
    /// SimTime::max() once no send can ever happen).
    [[nodiscard]] SimTime send_floor() const;

    /// Channel latency toward `dst_cell` (the receiver's lookahead
    /// contribution from this cell).
    [[nodiscard]] SimTime latency_to(std::uint32_t dst_cell) const;

    /// Minimum latency over this cell's *inbound* channels -- its
    /// conservative lookahead window. SimTime::max() with no inbound.
    [[nodiscard]] SimTime lookahead() const;

    [[nodiscard]] std::uint64_t msgs_sent() const { return msgs_sent_; }
    [[nodiscard]] std::uint64_t msgs_delivered() const {
      return msgs_delivered_;
    }
    /// Messages that arrived with deliver_ns > horizon (staged, counted,
    /// never executed).
    [[nodiscard]] std::uint64_t msgs_beyond_horizon() const {
      return beyond_horizon_;
    }
    [[nodiscard]] const std::vector<FireRecord>& fire_log() const {
      return fire_log_;
    }

   private:
    friend class ShardedSimulator;
    Cell(ShardedSimulator& owner, std::uint32_t id, std::string name,
         std::uint64_t weight)
        : owner_(owner), id_(id), name_(std::move(name)), weight_(weight) {}

    struct LaterMsg {
      bool operator()(const ShardMsg& x, const ShardMsg& y) const {
        if (x.deliver_ns != y.deliver_ns) return x.deliver_ns > y.deliver_ns;
        if (x.src_cell != y.src_cell) return x.src_cell > y.src_cell;
        return x.seq > y.seq;
      }
    };

    ShardedSimulator& owner_;
    std::uint32_t id_;
    std::string name_;
    std::uint64_t weight_;
    Simulator sim_;
    MsgHandler handler_;
    std::priority_queue<ShardMsg, std::vector<ShardMsg>, LaterMsg> staging_;
    std::vector<ShardChannel*> inbound_;
    std::unordered_map<std::uint32_t, ShardChannel*> out_by_dst_;
    std::uint64_t send_seq_ = 0;
    std::uint64_t msgs_sent_ = 0;
    std::uint64_t msgs_delivered_ = 0;
    std::uint64_t beyond_horizon_ = 0;
    bool done_ = false;
    /// Set once every inbound sender has published the forever sentinel
    /// and one final drain has run: the sentinel is absorbing (a done
    /// cell never sends again), so from then on the snapshot + drain of
    /// cell_round is pure overhead and gets skipped.
    bool inbound_quiet_ = false;
    std::vector<FireRecord> fire_log_;
    /// No send happens before this time (application lookahead; kForeverNs
    /// for a cell without outbound channels). Owner-thread only.
    std::int64_t send_floor_ = 0;
    /// Owner-thread shadow of pub_, so the publish in cell_round can
    /// skip the atomic store when the frontier did not advance.
    std::int64_t pub_shadow_ = 0;
    std::uint64_t publishes_ = 0;  ///< pub_ stores (timing-dependent)
    /// Published lower bound on this cell's future send times (the null
    /// message). Receivers add their channel latency to form LBTS.
    alignas(64) std::atomic<std::int64_t> pub_{0};
  };

  ShardedSimulator() = default;
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Adds a cell; `weight` drives the balanced partition (e.g. device
  /// count). Returns the cell id (dense, creation order).
  std::uint32_t add_cell(std::string name, std::uint64_t weight = 1);

  /// Connects a directed channel src -> dst with the given minimum
  /// latency (must be > 0 -- zero-lookahead channels would allow causal
  /// cycles with no conservative bound and are rejected with a typed
  /// error). `capacity` is the ring depth (backpressure bound).
  void connect(std::uint32_t src, std::uint32_t dst, SimTime min_latency,
               std::size_t capacity = 1024);

  [[nodiscard]] Cell& cell(std::uint32_t id);
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }

  /// Records per-cell (time, kind, src, seq) fire logs for equivalence
  /// tests. Off by default (memory).
  void set_record_fire_log(bool on) { record_fire_log_ = on; }

  /// Plugs a placement strategy into run() (non-owning; must outlive the
  /// run). Default is the built-in prefix-quota walk over declared
  /// weights. Placement never changes simulation results -- only which
  /// thread executes which cell -- so any strategy keeps artifacts
  /// byte-identical; run() validates the returned assignment before
  /// trusting it with worker threads.
  void set_partitioner(const Partitioner* partitioner) {
    partitioner_ = partitioner;
  }

  /// Overrides the declared per-cell weights with measured rates (e.g.
  /// a RateProfile from a calibration run) for partitioning only. Must
  /// have one entry per cell; run() throws PartitionError
  /// {kProfileMismatch} otherwise.
  void set_measured_weights(std::vector<std::uint64_t> weights) {
    measured_weights_ = std::move(weights);
  }

  /// The cell -> shard assignment of the completed run() (empty before
  /// run and after run_reference).
  [[nodiscard]] const std::vector<std::uint32_t>& partition_map() const {
    return partition_map_;
  }

  /// Measured per-cell load of a completed run -- events executed and
  /// messages delivered per cell, in cell-id order. Deterministic (both
  /// counters are part of the determinism contract), so it is safe to
  /// export and feed back as `--profile-in`.
  [[nodiscard]] RateProfile rate_profile() const;

  /// Runs every cell to `horizon` (inclusive) on `shards` worker threads
  /// (shards == 1 runs inline on the caller, spawning nothing). Cells are
  /// partitioned by weight; shards is clamped to the cell count. One-shot:
  /// a second run throws. An exception escaping a cell (e.g. a send below
  /// its floor) stops every worker and is rethrown here.
  ShardRunStats run(SimTime horizon, std::size_t shards);

  /// Single-threaded globally ordered reference engine: repeatedly
  /// executes the earliest action (message-before-local at equal times,
  /// lower cell id across cells) until the horizon. Same per-cell
  /// ordering rules as run(), so per-cell fire logs must match exactly.
  ShardRunStats run_reference(SimTime horizon);

  /// Balanced contiguous partition of `weights` into `shards` groups:
  /// cell i -> group out[i], groups are contiguous, nonempty, and
  /// deterministic (prefix-quota walk). Clamps shards to the cell count.
  [[nodiscard]] static std::vector<std::uint32_t> partition(
      const std::vector<std::uint64_t>& weights, std::size_t shards);

 private:
  static constexpr std::int64_t kForeverNs =
      std::numeric_limits<std::int64_t>::max() / 4;
  /// SimTime -> engine nanoseconds, with SimTime::max() (and anything
  /// past the sentinel) mapped to kForeverNs.
  static std::int64_t to_ns(SimTime t) {
    return std::min(t.nanos(), kForeverNs);
  }
  static std::int64_t sat_add(std::int64_t a, std::int64_t b) {
    return a >= kForeverNs - b ? kForeverNs : a + b;
  }

  /// Hands `msg` to the destination cell's ring (or staging heap in
  /// reference mode), moving rather than copying -- the rvalue
  /// SpscRing::try_push leaves the message intact on a full ring so the
  /// backpressure loop can retry it.
  void route(ShardChannel& channel, ShardMsg&& msg);
  /// Drains every inbound ring of `c` into its staging heap.
  bool drain_inbound(Cell& c);
  /// Executes staged messages and local events of `c` strictly below
  /// `bound_ns` (message-first at ties). Returns whether anything ran.
  bool advance_cell(Cell& c, std::int64_t bound_ns);
  /// One conservative round of `c`: snapshot clocks, drain, advance to
  /// LBTS, publish the null message. Returns whether progress was made.
  bool cell_round(Cell& c, std::int64_t horizon_ns);
  void worker(const std::vector<Cell*>& group, std::int64_t horizon_ns,
              std::size_t n_shards);
  void check_cell_id(std::uint32_t id) const;
  /// Gives every cell without outbound channels a forever send floor.
  void seal_send_floors();

  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  bool record_fire_log_ = false;
  bool ran_ = false;
  bool reference_mode_ = false;
  const Partitioner* partitioner_ = nullptr;
  std::vector<std::uint64_t> measured_weights_;
  std::vector<std::uint32_t> partition_map_;

  std::atomic<bool> done_flag_{false};
  std::atomic<std::size_t> done_shards_{0};
  std::atomic<std::uint64_t> push_spins_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> fast_skips_{0};
  /// First worker exception, rethrown unchanged after the join (so a
  /// typed ShardingError keeps its code).
  std::exception_ptr failure_;
  std::mutex failure_mu_;
};

}  // namespace steelnet::sim
