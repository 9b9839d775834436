#include "profinet/io_device.hpp"

#include "net/network.hpp"
#include "obs/hub.hpp"

namespace steelnet::profinet {

const char* to_string(DeviceState s) {
  switch (s) {
    case DeviceState::kIdle: return "idle";
    case DeviceState::kConnected: return "connected";
    case DeviceState::kDataExchange: return "data_exchange";
    case DeviceState::kWatchdogExpired: return "watchdog_expired";
  }
  return "?";
}

IoDevice::IoDevice(net::HostNode& host, IoDeviceConfig cfg)
    : host_(host), cfg_(cfg) {
  host_.set_receiver([this](net::Frame f, sim::SimTime at) {
    on_frame(f, at);
    // Consumed: the payload buffer goes back to the pool.
    host_.network().frame_pool().recycle(std::move(f));
  });
}

void IoDevice::send_pdu(const Pdu& pdu) {
  net::Frame f = host_.network().frame_pool().make(0);
  f.dst = controller_mac_;
  f.src = host_.mac();
  f.ethertype = net::EtherType::kProfinetRt;
  f.pcp = 6;
  f.flow_id = ar_id_;
  encode_into(pdu, f.payload);
  host_.send(std::move(f));
}

void IoDevice::on_frame(const net::Frame& frame, sim::SimTime) {
  if (frame.ethertype != net::EtherType::kProfinetRt) return;
  if (!decode_into(frame.payload, rx_pdu_)) {
    ++counters_.malformed;
    return;
  }
  const Pdu* pdu = &rx_pdu_;
  if (const auto* p = std::get_if<ConnectReq>(pdu)) {
    handle(*p, frame.src);
  } else if (const auto* p = std::get_if<ParamRecord>(pdu)) {
    handle(*p);
  } else if (const auto* p = std::get_if<ParamDone>(pdu)) {
    handle(*p);
  } else if (const auto* p = std::get_if<CyclicData>(pdu)) {
    handle(*p, frame.src);
  } else if (const auto* p = std::get_if<Release>(pdu)) {
    handle(*p);
  }
}

void IoDevice::handle(const ConnectReq& p, net::MacAddress from) {
  if (state_ != DeviceState::kIdle && p.ar_id != ar_id_) {
    // One AR at a time: reject the intruder (the paper's secondary vPLC
    // never reaches the device -- InstaPLC intercepts it; this path
    // guards direct misconfiguration).
    ++counters_.rejected_connects;
    const auto prev_mac = controller_mac_;
    const auto prev_ar = ar_id_;
    controller_mac_ = from;
    ar_id_ = p.ar_id;
    ConnectResp resp;
    resp.ar_id = p.ar_id;
    resp.status = 1;
    resp.device_id = cfg_.device_id;
    send_pdu(resp);
    controller_mac_ = prev_mac;
    ar_id_ = prev_ar;
    return;
  }
  ar_id_ = p.ar_id;
  controller_mac_ = from;
  cycle_ = sim::microseconds(p.cycle_time_us);
  watchdog_factor_ = p.watchdog_factor;
  input_bytes_ = p.input_bytes;
  records_.clear();
  state_ = DeviceState::kConnected;
  ConnectResp resp;
  resp.ar_id = ar_id_;
  resp.status = 0;
  resp.device_id = cfg_.device_id;
  send_pdu(resp);
}

void IoDevice::handle(const ParamRecord& p) {
  if (state_ != DeviceState::kConnected || p.ar_id != ar_id_) return;
  records_[p.record_index] = p.data;
}

void IoDevice::handle(const ParamDone& p) {
  if (state_ != DeviceState::kConnected || p.ar_id != ar_id_) return;
  start_data_exchange();
}

void IoDevice::start_data_exchange() {
  state_ = DeviceState::kDataExchange;
  last_output_rx_ = host_.network().sim().now();
  tx_cycle_counter_ = 0;
  cycle_task_ = std::make_unique<sim::PeriodicTask>(
      host_.network().sim(), host_.network().sim().now() + cycle_, cycle_,
      [this] { device_cycle(); });
}

void IoDevice::device_cycle() {
  auto& sim = host_.network().sim();
  // Watchdog: no fresh output data for `watchdog_factor` cycles => halt.
  if (state_ == DeviceState::kDataExchange &&
      sim.now() - last_output_rx_ >
          cycle_ * static_cast<std::int64_t>(watchdog_factor_)) {
    state_ = DeviceState::kWatchdogExpired;
    ++counters_.watchdog_trips;
    ++counters_.alarms_sent;
    if (output_handler_) output_handler_({}, /*run=*/false);
    Alarm alarm;
    alarm.ar_id = ar_id_;
    alarm.alarm_type = Alarm::kWatchdogExpired;
    send_pdu(alarm);
  }
  // Keep publishing inputs even in safe state (diagnosis needs them);
  // data_status reflects RUN.
  CyclicData& out = std::get<CyclicData>(tx_pdu_);
  out.ar_id = ar_id_;
  out.cycle_counter = tx_cycle_counter_++;
  out.data_status = state_ == DeviceState::kDataExchange ? 0b101 : 0b100;
  if (input_provider_) {
    out.data = input_provider_(input_bytes_);
  } else {
    out.data.assign(input_bytes_, 0);
  }
  ++counters_.cyclic_tx;
  send_pdu(tx_pdu_);
}

void IoDevice::handle(const CyclicData& p, net::MacAddress from) {
  if (p.ar_id != ar_id_) return;
  if (state_ != DeviceState::kDataExchange &&
      state_ != DeviceState::kWatchdogExpired) {
    return;
  }
  ++counters_.cyclic_rx;
  last_output_rx_ = host_.network().sim().now();
  // Follow the active controller: a redundancy standby that takes over
  // the AR sends from its own MAC; inputs must flow to whoever controls.
  controller_mac_ = from;
  if (state_ == DeviceState::kWatchdogExpired && cfg_.auto_resume) {
    state_ = DeviceState::kDataExchange;
  }
  if (state_ == DeviceState::kDataExchange && output_handler_) {
    output_handler_(p.data, p.running());
  }
}

void IoDevice::handle(const Release& p) {
  if (p.ar_id != ar_id_) return;
  cycle_task_.reset();
  state_ = DeviceState::kIdle;
  if (output_handler_) output_handler_({}, /*run=*/false);
}

void IoDevice::register_metrics(obs::ObsHub& hub) const {
  obs::MetricsRegistry& reg = hub.metrics();
  const std::string& node = host_.name();
  reg.bind_counter({node, "profinet", "cyclic_rx"}, &counters_.cyclic_rx);
  reg.bind_counter({node, "profinet", "cyclic_tx"}, &counters_.cyclic_tx);
  reg.bind_counter({node, "profinet", "watchdog_trips"},
                   &counters_.watchdog_trips);
  reg.bind_counter({node, "profinet", "alarms_sent"}, &counters_.alarms_sent);
  reg.bind_counter({node, "profinet", "rejected_connects"},
                   &counters_.rejected_connects);
  reg.bind_counter({node, "profinet", "malformed"}, &counters_.malformed);
}

}  // namespace steelnet::profinet
