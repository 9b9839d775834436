#include "instaplc/instaplc.hpp"

#include "net/network.hpp"
#include "obs/hub.hpp"

namespace steelnet::instaplc {

namespace {

/// Little-endian bytes of an AR id, for payload rewrites.
std::vector<std::uint8_t> ar_bytes(std::uint16_t ar) {
  return {static_cast<std::uint8_t>(ar), static_cast<std::uint8_t>(ar >> 8)};
}

}  // namespace

InstaPlcApp::InstaPlcApp(sdn::SdnSwitchNode& sw, InstaPlcConfig cfg)
    : sw_(sw), cfg_(cfg) {
  // One table keyed on (ingress port, source MAC, PDU type); PDU type is
  // wildcarded by most rules but lets the monitor distinguish cyclic
  // traffic. Default: drop (an industrial cell has no business carrying
  // unknown traffic).
  table_ = sw_.pipeline().add_table(sdn::Table(
      "instaplc",
      {{sdn::FieldKind::kInPort, 0},
       {sdn::FieldKind::kEthSrc, 0},
       {sdn::FieldKind::kPayloadU8, profinet::offsets::kPduType}}));
  sw_.set_inspector([this](const net::Frame& f, net::PortId p) {
    on_ingress(f, p);
  });
}

void InstaPlcApp::emit(InstaPlcEvent ev) {
  if (observer_) observer_(ev, sw_.network().sim().now());
}

void InstaPlcApp::on_ingress(const net::Frame& frame, net::PortId in_port) {
  if (frame.ethertype != net::EtherType::kProfinetRt) return;
  const auto pdu = profinet::decode(frame.payload);
  if (!pdu.has_value()) return;

  if (in_port == cfg_.device_port) {
    twin_.observe(*pdu, /*from_device=*/true);
    if (std::holds_alternative<profinet::CyclicData>(*pdu)) {
      ++stats_.from_device;
      emit(InstaPlcEvent::kFromDevice);
    }
    return;
  }

  const bool is_primary =
      primary_ && primary_->port == in_port && primary_->mac == frame.src;
  const bool is_secondary = secondary_ && secondary_->port == in_port &&
                            secondary_->mac == frame.src;

  if (const auto* req = std::get_if<profinet::ConnectReq>(&*pdu)) {
    if (!primary_) {
      designate_primary(frame, in_port, *req);
      return;
    }
    if (is_primary) {
      stats_.primary_last_seen = sw_.network().sim().now();
      return;
    }
    if (!secondary_) {
      designate_secondary(frame, in_port, *req);
      // fall through: the twin also answers this ConnectReq
    }
  }

  if (is_primary) {
    twin_.observe(*pdu, /*from_device=*/false);
    if (std::holds_alternative<profinet::CyclicData>(*pdu)) {
      ++stats_.primary_cyclic;
      stats_.primary_last_seen = sw_.network().sim().now();
      emit(InstaPlcEvent::kPrimaryCyclic);
      if (!switched_over()) {
        ++stats_.to_device;
        emit(InstaPlcEvent::kToDevice);
      }
    }
    return;
  }

  if (is_secondary || (secondary_ && secondary_->mac == frame.src)) {
    if (std::holds_alternative<profinet::CyclicData>(*pdu)) {
      ++stats_.secondary_cyclic;
      emit(InstaPlcEvent::kSecondaryCyclic);
      if (switched_over()) {
        ++stats_.to_device;
        emit(InstaPlcEvent::kToDevice);
      }
      return;
    }
    handle_secondary_pdu(frame, *pdu);
  }
}

void InstaPlcApp::designate_primary(const net::Frame& frame,
                                    net::PortId in_port,
                                    const profinet::ConnectReq& req) {
  primary_ = VplcInfo{frame.src, in_port, req.ar_id};
  device_mac_ = frame.dst;
  io_cycle_ = sim::microseconds(req.cycle_time_us);
  stats_.primary_last_seen = sw_.network().sim().now();
  twin_.observe(profinet::Pdu{req}, /*from_device=*/false);

  auto& table = sw_.pipeline().table(table_);
  // Rule (4): everything from the primary goes to the physical device.
  sdn::TableEntry to_dev;
  to_dev.values = {in_port, frame.src.bits(), 0};
  to_dev.masks = {~0ULL, ~0ULL, 0};
  to_dev.priority = 10;
  to_dev.actions = {sdn::ActionPrimitive::set_egress(cfg_.device_port)};
  to_dev.label = "primary->device";
  primary_to_device_ = table.add_entry(std::move(to_dev));

  // Device replies go to the primary (extended to rule (3) -- mirror to
  // the secondary -- once one exists).
  sdn::TableEntry from_dev;
  from_dev.values = {cfg_.device_port, 0, 0};
  from_dev.masks = {~0ULL, 0, 0};
  from_dev.priority = 10;
  from_dev.actions = {sdn::ActionPrimitive::set_egress(in_port)};
  from_dev.label = "device->controllers";
  device_out_ = table.add_entry(std::move(from_dev));

  // Data-plane liveness monitor at half-cycle granularity.
  const sim::SimTime tick =
      sim::SimTime{std::max<std::int64_t>(io_cycle_.nanos() / 2, 1)};
  monitor_ = std::make_unique<sim::PeriodicTask>(
      sw_.network().sim(), sw_.network().sim().now() + tick, tick,
      [this] { monitor_tick(); });
}

void InstaPlcApp::designate_secondary(const net::Frame& frame,
                                      net::PortId in_port,
                                      const profinet::ConnectReq& req) {
  secondary_ = VplcInfo{frame.src, in_port, req.ar_id};

  auto& table = sw_.pipeline().table(table_);
  // Rule (2): the secondary's frames reach the digital twin only -- on
  // the wire they are dropped; the twin consumes them via the inspector.
  sdn::TableEntry sec;
  sec.values = {in_port, frame.src.bits(), 0};
  sec.masks = {~0ULL, ~0ULL, 0};
  sec.priority = 20;
  sec.actions = {sdn::ActionPrimitive::drop()};
  sec.label = "secondary->twin";
  secondary_rule_ = table.add_entry(std::move(sec));

  // Rule (3): device frames now also mirror to the secondary, with the
  // copy's dst MAC and AR id translated so the standby's stack accepts
  // them as its own communication relationship.
  table.set_actions(
      *device_out_,
      {sdn::ActionPrimitive::set_egress(primary_->port),
       sdn::ActionPrimitive::add_mirror_transformed(
           in_port, frame.src, profinet::offsets::kArId,
           ar_bytes(req.ar_id))});
}

void InstaPlcApp::handle_secondary_pdu(const net::Frame& frame,
                                       const profinet::Pdu& pdu) {
  const auto reply = twin_.handle_from_secondary(pdu);
  if (!reply.has_value()) return;
  // Rule (1) inverted: the twin's (config) replies are injected toward
  // the secondary, impersonating the device.
  net::Frame out = sw_.network().frame_pool().make(0);
  out.dst = frame.src;
  out.src = device_mac_;
  out.ethertype = net::EtherType::kProfinetRt;
  out.pcp = 6;
  profinet::encode_into(*reply, out.payload);
  sw_.inject(std::move(out), secondary_->port);
}

void InstaPlcApp::monitor_tick() {
  if (switched_over() || !secondary_ || !stats_.primary_last_seen) return;
  const sim::SimTime silent =
      sw_.network().sim().now() - *stats_.primary_last_seen;
  if (silent >
      io_cycle_ * static_cast<std::int64_t>(cfg_.switchover_cycles)) {
    do_switchover();
  }
}

void InstaPlcApp::do_switchover() {
  auto& table = sw_.pipeline().table(table_);
  // The secondary's cyclic frames now flow to the physical device, with
  // the AR id rewritten to the one the device has open.
  table.set_actions(
      *secondary_rule_,
      {sdn::ActionPrimitive::rewrite_bytes(profinet::offsets::kArId,
                                           ar_bytes(primary_->ar_id)),
       sdn::ActionPrimitive::set_egress(cfg_.device_port)});
  // Stop forwarding toward the dead primary; keep the secondary mirror
  // as the (now sole) consumer of device frames.
  table.set_actions(
      *device_out_,
      {sdn::ActionPrimitive::add_mirror_transformed(
          secondary_->port, secondary_->mac, profinet::offsets::kArId,
          ar_bytes(secondary_->ar_id))});
  stats_.switchover_at = sw_.network().sim().now();
  stats_.switchover_latency = *stats_.switchover_at - *stats_.primary_last_seen;
  emit(InstaPlcEvent::kSwitchover);
}

void InstaPlcApp::register_metrics(obs::ObsHub& hub,
                                   const std::string& node_label) const {
  obs::MetricsRegistry& reg = hub.metrics();
  reg.bind_counter({node_label, "instaplc", "primary_cyclic"},
                   &stats_.primary_cyclic);
  reg.bind_counter({node_label, "instaplc", "secondary_cyclic"},
                   &stats_.secondary_cyclic);
  reg.bind_counter({node_label, "instaplc", "to_device"}, &stats_.to_device);
  reg.bind_counter({node_label, "instaplc", "from_device"},
                   &stats_.from_device);
  reg.bind_gauge({node_label, "instaplc", "switchover_at_ns"}, [this] {
    return stats_.switchover_at.has_value()
               ? static_cast<double>(stats_.switchover_at->nanos())
               : -1.0;
  });
  reg.bind_gauge({node_label, "instaplc", "switchovers"}, [this] {
    return stats_.switchover_at.has_value() ? 1.0 : 0.0;
  });
}

}  // namespace steelnet::instaplc
