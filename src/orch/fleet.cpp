#include "orch/fleet.hpp"

#include <algorithm>

#include "net/frame.hpp"
#include "net/network.hpp"
#include "obs/hub.hpp"

namespace steelnet::orch {

// --- Heartbeat wire format ---------------------------------------------------

void Heartbeat::encode(net::Frame& f) const {
  f.write_u32(0, node);
  f.write_u32(4, incarnation);
  f.write_u64(8, seq);
}

std::optional<Heartbeat> Heartbeat::decode(const net::Frame& f) {
  if (f.payload.size() < kBytes) return std::nullopt;
  Heartbeat hb;
  hb.node = f.read_u32(0);
  hb.incarnation = f.read_u32(4);
  hb.seq = f.read_u64(8);
  return hb;
}

// --- construction / wiring ---------------------------------------------------

FleetManager::FleetManager(sim::Simulator& sim, PolicyKind policy)
    : sim_(sim),
      placer_(policy),
      trace_("t_ns,vplc,role,node,cause\n") {}

FleetManager::~FleetManager() = default;

ComputeId FleetManager::add_compute(net::HostNode& host, std::uint32_t rack,
                                    std::uint32_t capacity_mcpu) {
  const auto idx = static_cast<ComputeId>(nodes_.size());
  ComputeNodeState n;
  n.spec.name = host.name();
  n.spec.rack = rack;
  n.spec.capacity_mcpu = capacity_mcpu;
  nodes_.push_back(std::move(n));
  runtime_.emplace_back();
  runtime_.back().host = &host;
  by_net_id_[host.id()] = idx;
  if (rack != kNoRack && rack >= rack_downtime_ns_.size()) {
    rack_downtime_ns_.resize(rack + 1, 0);
    rack_deaths_.resize(rack + 1, 0);
  }
  return idx;
}

void FleetManager::attach_manager(net::HostNode& mgr) {
  mgr_ = &mgr;
  mgr.set_receiver([this](net::Frame f, sim::SimTime at) {
    if (const auto hb = Heartbeat::decode(f)) on_heartbeat(*hb, at);
  });
}

void FleetManager::attach_faults(faults::FaultPlane& plane) {
  plane_ = &plane;
  plane.add_node_watcher(
      [this](const faults::NodeEvent& ev) { on_plane_event(ev); });
}

// --- placement ---------------------------------------------------------------

PlaceResult FleetManager::place(const PlacementRequest& req) {
  return placer_.place(nodes_, req);
}

void FleetManager::reserve(ComputeId node, std::uint32_t mcpu) {
  nodes_[node].used_mcpu += mcpu;
}

void FleetManager::release(ComputeId node, std::uint32_t mcpu) {
  auto& used = nodes_[node].used_mcpu;
  used = used > mcpu ? used - mcpu : 0;
}

std::uint32_t FleetManager::twin_idle_mcpu(std::uint32_t demand) const {
  const auto idle =
      static_cast<std::uint32_t>(demand * kTwinIdleFraction);
  return std::max(1u, idle);
}

void FleetManager::record_trace(VplcId v, char role, ComputeId node,
                                const char* cause) {
  trace_ += std::to_string(sim_.now().nanos());
  trace_ += ',';
  trace_ += std::to_string(v);
  trace_ += ',';
  trace_ += role;
  trace_ += ',';
  trace_ += nodes_[node].spec.name;
  trace_ += ',';
  trace_ += cause;
  trace_ += '\n';
}

std::optional<FleetManager::FleetError> FleetManager::place_fleet(
    const std::vector<VplcSpec>& specs) {
  vplcs_.reserve(vplcs_.size() + specs.size());
  for (const VplcSpec& spec : specs) {
    const auto v = static_cast<VplcId>(vplcs_.size());
    VplcState s;
    s.spec = spec;
    s.demand_mcpu = cpu_demand_mcpu(spec.cycle, kMcpuPerKhz);

    PlacementRequest preq;
    preq.vplc = v;
    preq.demand_mcpu = s.demand_mcpu;
    preq.preferred_rack = spec.preferred_rack;
    const PlaceResult pres = place(preq);
    if (!pres.ok()) return FleetError{pres.error, v, true};
    const ComputeId p = *pres.node;
    reserve(p, s.demand_mcpu);
    nodes_[p].primaries.push_back(v);
    s.primary = p;
    ++counters_.placements;

    PlacementRequest treq;
    treq.vplc = v;
    treq.demand_mcpu = twin_idle_mcpu(s.demand_mcpu);
    treq.preferred_rack = spec.preferred_rack;
    treq.exclude_rack = nodes_[p].spec.rack;
    const PlaceResult tres = place(treq);
    if (!tres.ok()) return FleetError{tres.error, v, false};
    const ComputeId t = *tres.node;
    reserve(t, treq.demand_mcpu);
    nodes_[t].secondaries.push_back(v);
    s.secondary = t;
    s.twin_warm = true;  // fleets start fully protected
    ++counters_.twins_warmed;
    ++counters_.placements;

    vplcs_.push_back(std::move(s));
    record_trace(v, 'P', p, "initial");
    record_trace(v, 'S', t, "initial");
  }
  return std::nullopt;
}

// --- heartbeats & watchdogs --------------------------------------------------

void FleetManager::start() {
  started_ = true;
  if (mgr_ == nullptr || runtime_.empty()) return;
  const auto n = static_cast<std::int64_t>(runtime_.size());
  for (ComputeId i = 0; i < runtime_.size(); ++i) {
    // Stagger first transmissions across one period so the fleet never
    // synchronizes its heartbeats into a burst.
    const sim::SimTime offset =
        sim::nanoseconds(kHeartbeatPeriod.nanos() * i / n);
    runtime_[i].last_hb_rx = sim_.now();
    start_agent(i, offset);
    arm_deadline(i, sim_.now() + offset +
                        sim::nanoseconds(kHeartbeatPeriod.nanos() *
                                         kWatchdogHeartbeats));
  }
}

void FleetManager::start_agent(ComputeId idx, sim::SimTime first) {
  NodeRuntime& rt = runtime_[idx];
  rt.hb_task = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + first, kHeartbeatPeriod,
      [this, idx] { send_heartbeat(idx); });
}

void FleetManager::send_heartbeat(ComputeId idx) {
  NodeRuntime& rt = runtime_[idx];
  if (plane_ != nullptr && !plane_->node_alive(rt.host->id())) return;
  ++rt.hb_seq;
  net::Frame f = rt.host->network().frame_pool().make(Heartbeat::kBytes);
  f.dst = mgr_->mac();
  f.src = rt.host->mac();
  f.pcp = 7;  // liveness shares the control-traffic priority class
  Heartbeat hb;
  hb.node = idx;
  hb.incarnation = rt.agent_incarnation;
  hb.seq = rt.hb_seq;
  hb.encode(f);
  rt.host->send(std::move(f));
  ++counters_.heartbeats_tx;
}

void FleetManager::on_heartbeat(const Heartbeat& hb, sim::SimTime at) {
  if (hb.node >= runtime_.size()) return;
  NodeRuntime& rt = runtime_[hb.node];
  if (hb.incarnation != rt.agent_incarnation) return;  // stale in-flight
  if (!nodes_[hb.node].alive) return;  // already declared dead (and fenced)
  ++counters_.heartbeats_rx;
  rt.last_hb_rx = at;
  arm_deadline(hb.node,
               at + sim::nanoseconds(kHeartbeatPeriod.nanos() *
                                     kWatchdogHeartbeats));
}

void FleetManager::arm_deadline(ComputeId idx, sim::SimTime at) {
  NodeRuntime& rt = runtime_[idx];
  rt.deadline.cancel();
  rt.deadline =
      sim_.schedule_at(at, [this, idx, inc = nodes_[idx].incarnation] {
        on_node_silent(idx, inc);
      });
}

void FleetManager::on_node_silent(ComputeId idx, std::uint64_t incarnation) {
  ComputeNodeState& n = nodes_[idx];
  if (!n.alive || n.incarnation != incarnation) return;
  ++counters_.nodes_declared_dead;
  // Control was last observably alive at the final heartbeat; every
  // switchover gap is measured from there, the same basis the InstaPLC
  // watchdog uses.
  mark_node_down(idx, runtime_[idx].last_hb_rx);
  // Fencing: a silent-but-running node (stopped process, partitioned NIC)
  // must not keep actuating after its vPLCs move -- kill it via the fault
  // plane (STONITH) before promoting twins elsewhere.
  const net::NodeId nid = runtime_[idx].host->id();
  if (plane_ != nullptr && plane_->node_alive(nid)) {
    ++counters_.nodes_fenced;
    plane_->crash_node(nid);
  }
}

void FleetManager::on_plane_event(const faults::NodeEvent& ev) {
  const auto it = by_net_id_.find(ev.node);
  if (it == by_net_id_.end()) return;
  const ComputeId idx = it->second;
  NodeRuntime& rt = runtime_[idx];
  switch (ev.kind) {
    case faults::NodeEvent::Kind::kCrash:
    case faults::NodeEvent::Kind::kStop:
      // The node agent dies with its node; *detection* still rides the
      // heartbeat path (the watchdog deadline), so measured switchover
      // latencies include the real detection delay. Controlled reboots
      // (rolling upgrade) are the exception: the orchestrator initiated
      // the crash, so it proceeds immediately.
      rt.hb_task.reset();
      break;
    case faults::NodeEvent::Kind::kRestart:
      rejoin(idx);
      break;
  }
}

// --- node death & recovery ---------------------------------------------------

void FleetManager::mark_node_down(ComputeId idx, sim::SimTime impact) {
  ComputeNodeState& n = nodes_[idx];
  if (!n.alive) return;
  n.alive = false;
  n.draining = false;
  ++n.incarnation;
  n.used_mcpu = 0;
  NodeRuntime& rt = runtime_[idx];
  rt.deadline.cancel();
  rt.hb_task.reset();
  rt.queue.clear();   // queued + in-flight activations die with the node;
  rt.inflight.clear();  // their vPLCs are re-dispatched below via the
  rt.busy_slots = 0;    // secondaries list
  if (n.spec.rack != kNoRack) ++rack_deaths_[n.spec.rack];

  const std::vector<VplcId> primaries = std::move(n.primaries);
  const std::vector<VplcId> secondaries = std::move(n.secondaries);
  n.primaries.clear();
  n.secondaries.clear();

  for (const VplcId v : primaries) {
    VplcState& s = vplcs_[v];
    s.primary.reset();
    set_down(v, impact, n.spec.rack);
    ++counters_.failovers_started;
    ++down_now_;
    if (s.activating) continue;  // mid-handover: the promotion in flight
                                 // completes and clears the gap
    failover(v, impact);
  }
  for (const VplcId v : secondaries) {
    VplcState& s = vplcs_[v];
    s.secondary.reset();
    s.twin_warm = false;
    if (s.activating) {
      // The activation was running (or queued) on the dead node.
      s.activating = false;
      if (s.down_since.has_value()) {
        cold_restart(v);  // failover target died too: rebuild from scratch
      } else if (s.primary.has_value()) {
        protect(v);  // handover target died; primary still runs
      }
    } else if (s.primary.has_value()) {
      protect(v);  // lost the warm twin only: restore redundancy
    }
  }
}

void FleetManager::rejoin(ComputeId idx) {
  ComputeNodeState& n = nodes_[idx];
  NodeRuntime& rt = runtime_[idx];
  if (!n.alive) {
    n.alive = true;
    n.draining = false;
    ++n.incarnation;
    ++counters_.nodes_rejoined;
  } else {
    // Crash + restart inside the watchdog window: the node was never
    // declared dead, but the crash still killed the agent and every
    // in-flight or queued activation. Bump the incarnation so their
    // stale completion (and warm-up) timers are void, then re-dispatch
    // the lost activations on the fresh agent -- twin placements and
    // reservations are unchanged, and the down-clock of any failing-over
    // vPLC keeps running, so the blip honestly lengthens its gap.
    n.draining = false;
    ++n.incarnation;
    rt.busy_slots = 0;
    std::vector<PendingActivation> lost = std::move(rt.inflight);
    rt.inflight.clear();
    lost.insert(lost.end(), rt.queue.begin(), rt.queue.end());
    rt.queue.clear();
    for (const PendingActivation& act : lost) {
      enqueue_activation(idx, act.vplc, act.kind, act.extra);
    }
    // Twins still warming here lost their half-shipped snapshot in the
    // crash; restart the sync from scratch. (Fully warm twins keep their
    // replicated state -- the same blip semantics that keep primaries.)
    for (const VplcId v : n.secondaries) {
      VplcState& s = vplcs_[v];
      if (s.secondary == idx && !s.twin_warm && !s.activating) {
        schedule_twin_warmup(v, idx);
      }
    }
  }
  ++rt.agent_incarnation;
  const auto cnt = static_cast<std::int64_t>(runtime_.size());
  const sim::SimTime offset =
      sim::nanoseconds(kHeartbeatPeriod.nanos() * idx / cnt);
  rt.last_hb_rx = sim_.now();
  start_agent(idx, offset);
  arm_deadline(idx, sim_.now() + offset +
                        sim::nanoseconds(kHeartbeatPeriod.nanos() *
                                         kWatchdogHeartbeats));
  retry_pending();
}

// --- failover machinery ------------------------------------------------------

void FleetManager::set_down(VplcId v, sim::SimTime impact,
                            std::uint32_t rack) {
  VplcState& s = vplcs_[v];
  if (s.down_since.has_value()) return;
  s.down_since = impact;
  s.failed_rack = rack;
}

void FleetManager::failover(VplcId v, sim::SimTime impact) {
  (void)impact;
  VplcState& s = vplcs_[v];
  if (s.twin_warm && s.secondary.has_value() &&
      nodes_[*s.secondary].alive) {
    s.twin_warm = false;  // consumed by the promotion
    enqueue_activation(*s.secondary, v, ActKind::kFailover,
                       sim::SimTime::zero());
  } else {
    cold_restart(v);
  }
}

void FleetManager::lose_twin(VplcId v) {
  VplcState& s = vplcs_[v];
  ++s.twin_generation;  // voids any warm-up still in flight for this twin
  s.twin_warm = false;
  if (!s.secondary.has_value()) return;
  const ComputeId node = *s.secondary;
  s.secondary.reset();
  if (nodes_[node].alive) {
    release(node, twin_idle_mcpu(s.demand_mcpu));
    erase_vplc(nodes_[node].secondaries, v);
  }
}

void FleetManager::cold_restart(VplcId v) {
  VplcState& s = vplcs_[v];
  // A twin that is still placed but unusable (cold, mid-warm-up) is no
  // help to a cold restart; release it first or its idle reservation and
  // secondaries entry leak -- and a later death of that node would
  // re-dispatch this vPLC a second time.
  lose_twin(v);
  PlacementRequest req;
  req.vplc = v;
  req.demand_mcpu = s.demand_mcpu;  // full demand: it becomes the primary
  req.preferred_rack = s.spec.preferred_rack;
  const PlaceResult res = place(req);
  if (!res.ok()) {
    ++counters_.placement_failures;
    pending_primary_.push_back(v);
    return;
  }
  ++counters_.cold_restarts;
  const ComputeId node = *res.node;
  reserve(node, s.demand_mcpu);
  nodes_[node].secondaries.push_back(v);
  s.secondary = node;
  record_trace(v, 'C', node, "cold_restart");
  enqueue_activation(node, v, ActKind::kCold,
                     twin_warmup(s.spec.twin_state_bytes));
}

void FleetManager::protect(VplcId v) {
  VplcState& s = vplcs_[v];
  if (s.secondary.has_value() || !s.primary.has_value()) return;
  PlacementRequest req;
  req.vplc = v;
  req.demand_mcpu = twin_idle_mcpu(s.demand_mcpu);
  req.preferred_rack = s.spec.preferred_rack;
  req.exclude_rack = nodes_[*s.primary].spec.rack;
  const PlaceResult res = place(req);
  if (!res.ok()) {
    ++counters_.placement_failures;
    pending_twin_.push_back(v);
    return;
  }
  const ComputeId node = *res.node;
  reserve(node, req.demand_mcpu);
  nodes_[node].secondaries.push_back(v);
  s.secondary = node;
  s.twin_warm = false;
  if (started_) ++counters_.migrations;
  record_trace(v, 'S', node, started_ ? "reprotect" : "initial");
  // The twin is usable only once its state snapshot has shipped and
  // replayed; until then the vPLC is unprotected.
  schedule_twin_warmup(v, node);
}

void FleetManager::schedule_twin_warmup(VplcId v, ComputeId node) {
  VplcState& s = vplcs_[v];
  // The generation pins the timer to THIS placement: if the twin is
  // consumed or lost and a later twin lands on the same (still-alive,
  // same-incarnation) node, the stale timer must not warm it early.
  const std::uint64_t gen = ++s.twin_generation;
  sim_.schedule_in(twin_warmup(s.spec.twin_state_bytes),
                   [this, v, node, gen, inc = nodes_[node].incarnation] {
                     if (!nodes_[node].alive ||
                         nodes_[node].incarnation != inc) {
                       return;
                     }
                     VplcState& sv = vplcs_[v];
                     if (sv.secondary == node && !sv.twin_warm &&
                         sv.twin_generation == gen) {
                       sv.twin_warm = true;
                       ++counters_.twins_warmed;
                     }
                   });
}

void FleetManager::enqueue_activation(ComputeId node, VplcId v, ActKind kind,
                                      sim::SimTime extra) {
  vplcs_[v].activating = true;
  NodeRuntime& rt = runtime_[node];
  const PendingActivation act{v, kind, extra};
  if (rt.busy_slots < kActivationSlots) {
    start_activation(node, act);
    return;
  }
  rt.queue.push_back(act);
  counters_.activation_queue_peak =
      std::max<std::uint64_t>(counters_.activation_queue_peak,
                              rt.queue.size());
}

void FleetManager::start_activation(ComputeId node,
                                    const PendingActivation& act) {
  NodeRuntime& rt = runtime_[node];
  ++rt.busy_slots;
  rt.inflight.push_back(act);
  ++counters_.activations_run;
  sim_.schedule_in(kActivationCost + act.extra,
                   [this, node, inc = nodes_[node].incarnation, act] {
                     on_activation_done(node, inc, act);
                   });
}

void FleetManager::on_activation_done(ComputeId node,
                                      std::uint64_t incarnation,
                                      PendingActivation act) {
  ComputeNodeState& n = nodes_[node];
  if (!n.alive || n.incarnation != incarnation) return;  // died mid-flight
  NodeRuntime& rt = runtime_[node];
  // Completion is the target node's ack; a node the fault plane already
  // killed (but the watchdog has not yet declared) never acks. The vPLC
  // stays `activating` (and the activation stays in `inflight`) until the
  // node's declared death -- or a sub-watchdog restart -- re-dispatches it.
  if (plane_ != nullptr && !plane_->node_alive(rt.host->id())) return;
  if (rt.busy_slots > 0) --rt.busy_slots;
  for (auto it = rt.inflight.begin(); it != rt.inflight.end(); ++it) {
    if (it->vplc == act.vplc) {
      rt.inflight.erase(it);
      break;
    }
  }
  complete_switchover(act.vplc, node, act.kind, act.extra);
  while (rt.busy_slots < kActivationSlots && !rt.queue.empty()) {
    const PendingActivation next = rt.queue.front();
    rt.queue.pop_front();
    start_activation(node, next);
  }
}

void FleetManager::complete_switchover(VplcId v, ComputeId node, ActKind kind,
                                       sim::SimTime extra) {
  (void)extra;
  VplcState& s = vplcs_[v];
  s.activating = false;

  // Make-before-break: the old primary (if still running) releases only
  // now that the replacement is live.
  if (s.primary.has_value()) {
    ComputeNodeState& old = nodes_[*s.primary];
    if (old.alive) {
      release(*s.primary, s.demand_mcpu);
      erase_vplc(old.primaries, v);
    }
  }

  ComputeNodeState& n = nodes_[node];
  erase_vplc(n.secondaries, v);
  n.primaries.push_back(v);
  s.primary = node;
  s.secondary.reset();
  if (kind != ActKind::kCold) {
    // The reservation was a parked twin's idle share; promotion charges
    // the full demand. During a storm this may transiently exceed the
    // node budget -- accounted, and relieved as protect() re-places.
    reserve(node, s.demand_mcpu - twin_idle_mcpu(s.demand_mcpu));
    if (n.used_mcpu > n.spec.capacity_mcpu) {
      ++counters_.oversubscribed_promotions;
    }
  }
  record_trace(v, 'P', node,
               kind == ActKind::kHandover && !s.down_since.has_value()
                   ? "handover"
                   : (kind == ActKind::kCold ? "cold" : "failover"));

  if (s.down_since.has_value()) {
    const sim::SimTime gap = sim_.now() - *s.down_since;
    ++counters_.switchovers;
    if (down_now_ > 0) --down_now_;
    counters_.downtime_ns_total += static_cast<std::uint64_t>(gap.nanos());
    if (s.failed_rack != kNoRack && s.failed_rack < rack_downtime_ns_.size()) {
      rack_downtime_ns_[s.failed_rack] +=
          static_cast<std::uint64_t>(gap.nanos());
    }
    const double us = static_cast<double>(gap.nanos()) / 1e3;
    latency_us_.add(us);
    if (latency_hist_ != nullptr) latency_hist_->add(us);
    if (gap <= watchdog_bound()) {
      ++counters_.switchovers_within_bound;
    } else {
      ++counters_.slo_violations;
      if (kind == ActKind::kCold) {
        ++counters_.violations_cold;
      } else {
        ++counters_.violations_activation_queue;
      }
    }
    s.down_since.reset();
    s.failed_rack = kNoRack;
  } else if (kind == ActKind::kHandover) {
    ++counters_.graceful_handovers;
  }

  protect(v);
  retry_pending();
}

void FleetManager::retry_pending() {
  if (!pending_primary_.empty()) {
    std::vector<VplcId> prim = std::move(pending_primary_);
    pending_primary_.clear();
    for (const VplcId v : prim) {
      VplcState& s = vplcs_[v];
      if (s.down_since.has_value() && !s.activating) {
        cold_restart(v);  // failures re-enter pending_primary_
      }
    }
  }
  if (!pending_twin_.empty()) {
    std::vector<VplcId> twins = std::move(pending_twin_);
    pending_twin_.clear();
    for (const VplcId v : twins) {
      VplcState& s = vplcs_[v];
      if (s.primary.has_value() && !s.secondary.has_value()) protect(v);
    }
  }
}

// --- rolling upgrade ---------------------------------------------------------

void FleetManager::rolling_upgrade(const RollingUpgradeOptions& opts) {
  ++counters_.upgrades_started;
  for (ComputeId i = 0; i < nodes_.size(); ++i) {
    const sim::SimTime at =
        opts.start + sim::nanoseconds(opts.node_interval.nanos() * i);
    sim_.schedule_at(at, [this, i, opts] { drain_node(i, opts); });
  }
}

void FleetManager::drain_node(ComputeId idx, const RollingUpgradeOptions& opts) {
  ComputeNodeState& n = nodes_[idx];
  if (!n.alive) return;  // already dead; nothing to drain or upgrade
  n.draining = true;
  const std::vector<VplcId> primaries = n.primaries;  // handovers mutate it
  for (const VplcId v : primaries) {
    VplcState& s = vplcs_[v];
    if (s.activating) continue;
    if (s.twin_warm && s.secondary.has_value() &&
        nodes_[*s.secondary].alive) {
      ++counters_.migrations;
      s.twin_warm = false;
      enqueue_activation(*s.secondary, v, ActKind::kHandover,
                         sim::SimTime::zero());
    }
    // No warm twin: nothing graceful to do. The forced reboot below turns
    // this vPLC's move into a real, accounted failover.
  }
  sim_.schedule_in(opts.grace, [this, idx, reboot = opts.reboot,
                                inc = nodes_[idx].incarnation] {
    if (nodes_[idx].incarnation != inc) return;  // crashed organically first
    reboot_node(idx, reboot);
  });
}

void FleetManager::reboot_node(ComputeId idx, sim::SimTime reboot) {
  if (plane_ == nullptr) return;
  const net::NodeId nid = runtime_[idx].host->id();
  plane_->crash_node(nid);
  // A controlled reboot needs no watchdog detection: the orchestrator
  // initiated the crash, so vPLCs still on the node fail over immediately
  // (their downtime clock starts at the kill, honestly).
  mark_node_down(idx, sim_.now());
  const std::uint64_t epoch = plane_->incarnation(nid);
  sim_.schedule_in(reboot, [this, nid, epoch] {
    // Epoch-guarded: a permanent kill landing between drain and reboot
    // completion supersedes this restart -- the node stays dead.
    plane_->restart_node_if(nid, epoch);
  });
}

// --- introspection -----------------------------------------------------------

sim::SimTime FleetManager::watchdog_bound() const {
  return sim::nanoseconds(kHeartbeatPeriod.nanos() *
                          (kWatchdogHeartbeats + 1));
}

sim::SimTime FleetManager::twin_warmup(std::uint32_t bytes) const {
  // Per begun KiB, rounded up: a sub-KiB snapshot (the default 256 B)
  // still ships one real unit instead of a truncated fraction.
  const auto kib = static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(bytes) + 1023) / 1024);
  return sim::nanoseconds(kTwinWarmupBase.nanos() +
                          kTwinSyncPerKib.nanos() * kib);
}

std::int64_t FleetManager::ledger_residual() const {
  return static_cast<std::int64_t>(counters_.failovers_started) -
         static_cast<std::int64_t>(counters_.switchovers) -
         static_cast<std::int64_t>(down_now_);
}

std::uint64_t FleetManager::unprotected() const {
  std::uint64_t n = 0;
  for (const VplcState& s : vplcs_) {
    if (s.down_since.has_value()) continue;  // counted as down, not exposed
    if (!s.secondary.has_value() || !s.twin_warm) ++n;
  }
  return n;
}

double FleetManager::rack_local_fraction() const {
  std::uint64_t eligible = 0;
  std::uint64_t local = 0;
  for (const VplcState& s : vplcs_) {
    if (!s.primary.has_value() || s.spec.preferred_rack == kNoRack) continue;
    ++eligible;
    if (nodes_[*s.primary].spec.rack == s.spec.preferred_rack) ++local;
  }
  return eligible == 0 ? 1.0
                       : static_cast<double>(local) /
                             static_cast<double>(eligible);
}

double FleetManager::utilization_spread() const {
  double sum = 0.0;
  double peak = 0.0;
  std::uint64_t n = 0;
  for (const ComputeNodeState& node : nodes_) {
    if (!node.alive || node.spec.capacity_mcpu == 0) continue;
    const double u = node.utilization();
    sum += u;
    peak = std::max(peak, u);
    ++n;
  }
  if (n == 0 || sum == 0.0) return 1.0;
  return peak / (sum / static_cast<double>(n));
}

double FleetManager::availability() const {
  if (vplcs_.empty() || sim_.now() <= sim::SimTime::zero()) return 1.0;
  double down_ns = static_cast<double>(counters_.downtime_ns_total);
  for (const VplcState& s : vplcs_) {
    if (s.down_since.has_value()) {
      down_ns += static_cast<double>((sim_.now() - *s.down_since).nanos());
    }
  }
  const double window = static_cast<double>(sim_.now().nanos()) *
                        static_cast<double>(vplcs_.size());
  return 1.0 - down_ns / window;
}

// --- metrics -----------------------------------------------------------------

void FleetManager::register_metrics(obs::ObsHub& hub,
                                    const std::string& label) {
  obs::MetricsRegistry& m = hub.metrics();
  counters_.fields([&](const char* name, const std::uint64_t& v) {
    m.bind_counter({label, "orch", name}, &v);
  });
  m.bind_gauge({label, "orch", "currently_down"},
               [this] { return static_cast<double>(down_now_); });
  m.bind_gauge({label, "orch", "unprotected"},
               [this] { return static_cast<double>(unprotected()); });
  m.bind_gauge({label, "orch", "availability"},
               [this] { return availability(); });
  m.bind_gauge({label, "orch", "rack_local_fraction"},
               [this] { return rack_local_fraction(); });
  latency_hist_ = &m.make_histogram({label, "orch", "switchover_latency_us"},
                                    0.0, 50'000.0, 200);
  // Per-rack availability surface. The vectors are sized by add_compute;
  // register after the fleet topology is final so the bound pointers
  // stay stable.
  for (std::size_t r = 0; r < rack_downtime_ns_.size(); ++r) {
    const std::string rack = "rack" + std::to_string(r);
    m.bind_counter({rack, "orch", "downtime_ns"}, &rack_downtime_ns_[r]);
    m.bind_counter({rack, "orch", "node_deaths"}, &rack_deaths_[r]);
  }
}

}  // namespace steelnet::orch
