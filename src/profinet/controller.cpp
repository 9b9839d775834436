#include "profinet/controller.hpp"

#include "net/network.hpp"
#include "obs/hub.hpp"

namespace steelnet::profinet {

const char* to_string(ControllerState s) {
  switch (s) {
    case ControllerState::kIdle: return "idle";
    case ControllerState::kConnecting: return "connecting";
    case ControllerState::kParameterizing: return "parameterizing";
    case ControllerState::kRunning: return "running";
    case ControllerState::kDeviceLost: return "device_lost";
    case ControllerState::kStopped: return "stopped";
  }
  return "?";
}

CyclicController::CyclicController(net::HostNode& host, ControllerConfig cfg)
    : host_(host), cfg_(std::move(cfg)) {
  host_.set_receiver([this](net::Frame f, sim::SimTime at) {
    on_frame(f, at);
    // Consumed: the payload buffer goes back to the pool.
    host_.network().frame_pool().recycle(std::move(f));
  });
}

void CyclicController::send_pdu(const Pdu& pdu) {
  net::Frame f = host_.network().frame_pool().make(0);
  f.dst = cfg_.device_mac;
  f.src = host_.mac();
  f.ethertype = net::EtherType::kProfinetRt;
  f.pcp = 6;
  f.flow_id = cfg_.ar_id;
  f.seq = tx_cycle_counter_;
  encode_into(pdu, f.payload);
  host_.send(std::move(f));
}

void CyclicController::connect() {
  // Reconnect is allowed from idle, after device loss, and after stop()
  // (a restarted vPLC pod re-establishing its AR).
  if (state_ == ControllerState::kConnecting ||
      state_ == ControllerState::kParameterizing ||
      state_ == ControllerState::kRunning) {
    return;
  }
  cycle_task_.reset();
  state_ = ControllerState::kConnecting;
  connect_attempts_ = 0;
  send_connect();
}

void CyclicController::send_connect() {
  if (state_ != ControllerState::kConnecting) return;
  if (connect_attempts_++ >= cfg_.max_connect_retries) {
    state_ = ControllerState::kIdle;
    if (connected_handler_) connected_handler_(false);
    return;
  }
  ++counters_.connects_sent;
  ConnectReq req;
  req.ar_id = cfg_.ar_id;
  req.cycle_time_us =
      static_cast<std::uint32_t>(cfg_.cycle.nanos() / 1000);
  req.watchdog_factor = cfg_.watchdog_factor;
  req.input_bytes = cfg_.input_bytes;
  req.output_bytes = cfg_.output_bytes;
  send_pdu(req);
  connect_timer_.cancel();
  connect_timer_ = host_.network().sim().schedule_in(
      cfg_.connect_timeout, [this] { send_connect(); });
}

void CyclicController::adopt_running(std::uint16_t resume_cycle_counter) {
  connect_timer_.cancel();
  state_ = ControllerState::kRunning;
  tx_cycle_counter_ = resume_cycle_counter;
  last_input_rx_ = host_.network().sim().now();
  cycle_task_ = std::make_unique<sim::PeriodicTask>(
      host_.network().sim(), host_.network().sim().now(), cfg_.cycle,
      [this] { controller_cycle(); });
}

void CyclicController::stop() {
  state_ = ControllerState::kStopped;
  cycle_task_.reset();
  connect_timer_.cancel();
}

void CyclicController::controller_cycle() {
  if (state_ != ControllerState::kRunning &&
      state_ != ControllerState::kDeviceLost) {
    return;
  }
  auto& sim = host_.network().sim();
  if (state_ == ControllerState::kRunning &&
      sim.now() - last_input_rx_ >
          cfg_.cycle * static_cast<std::int64_t>(cfg_.watchdog_factor)) {
    state_ = ControllerState::kDeviceLost;
    ++counters_.device_watchdog_trips;
    if (device_lost_handler_) device_lost_handler_();
  }
  CyclicData& out = std::get<CyclicData>(tx_pdu_);
  out.ar_id = cfg_.ar_id;
  out.cycle_counter = tx_cycle_counter_++;
  out.data_status = 0b101;
  if (output_provider_) {
    out.data = output_provider_(cfg_.output_bytes);
  } else {
    out.data.assign(cfg_.output_bytes, 0);
  }
  ++counters_.cyclic_tx;
  send_pdu(tx_pdu_);
}

void CyclicController::on_frame(const net::Frame& frame, sim::SimTime) {
  if (frame.ethertype != net::EtherType::kProfinetRt) return;
  if (state_ == ControllerState::kStopped) return;
  if (!decode_into(frame.payload, rx_pdu_)) return;
  const Pdu* pdu = &rx_pdu_;

  if (const auto* resp = std::get_if<ConnectResp>(pdu)) {
    if (state_ != ControllerState::kConnecting ||
        resp->ar_id != cfg_.ar_id) {
      return;
    }
    connect_timer_.cancel();
    if (resp->status != 0) {
      state_ = ControllerState::kIdle;
      if (connected_handler_) connected_handler_(false);
      return;
    }
    state_ = ControllerState::kParameterizing;
    for (auto rec : cfg_.records) {
      rec.ar_id = cfg_.ar_id;
      send_pdu(rec);
    }
    ParamDone done;
    done.ar_id = cfg_.ar_id;
    send_pdu(done);
    // Cyclic exchange starts one cycle later (device also starts then).
    state_ = ControllerState::kRunning;
    last_input_rx_ = host_.network().sim().now();
    tx_cycle_counter_ = 0;
    cycle_task_ = std::make_unique<sim::PeriodicTask>(
        host_.network().sim(), host_.network().sim().now() + cfg_.cycle,
        cfg_.cycle, [this] { controller_cycle(); });
    if (connected_handler_) connected_handler_(true);
    return;
  }
  if (const auto* data = std::get_if<CyclicData>(pdu)) {
    if (data->ar_id != cfg_.ar_id) return;
    ++counters_.cyclic_rx;
    last_input_rx_ = host_.network().sim().now();
    if (state_ == ControllerState::kDeviceLost) {
      state_ = ControllerState::kRunning;
    }
    last_inputs_ = data->data;
    if (input_handler_) input_handler_(data->data);
    return;
  }
  if (std::get_if<Alarm>(pdu) != nullptr) {
    ++counters_.alarms_rx;
    return;
  }
}

void CyclicController::register_metrics(obs::ObsHub& hub) const {
  obs::MetricsRegistry& reg = hub.metrics();
  const std::string& node = host_.name();
  reg.bind_counter({node, "profinet", "cyclic_tx"}, &counters_.cyclic_tx);
  reg.bind_counter({node, "profinet", "cyclic_rx"}, &counters_.cyclic_rx);
  reg.bind_counter({node, "profinet", "connects_sent"},
                   &counters_.connects_sent);
  reg.bind_counter({node, "profinet", "device_watchdog_trips"},
                   &counters_.device_watchdog_trips);
  reg.bind_counter({node, "profinet", "alarms_rx"}, &counters_.alarms_rx);
}

}  // namespace steelnet::profinet
