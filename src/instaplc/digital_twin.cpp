#include "instaplc/digital_twin.hpp"

namespace steelnet::instaplc {

void DigitalTwin::observe(const profinet::Pdu& pdu, bool from_device) {
  ++counters_.observed_pdus;
  if (from_device) {
    if (const auto* resp = std::get_if<profinet::ConnectResp>(&pdu)) {
      if (resp->status == 0) device_id_ = resp->device_id;
    }
    return;
  }
  if (const auto* req = std::get_if<profinet::ConnectReq>(&pdu)) {
    cycle_time_us_ = req->cycle_time_us;
    watchdog_factor_ = req->watchdog_factor;
  } else if (const auto* rec = std::get_if<profinet::ParamRecord>(&pdu)) {
    learned_records_[rec->record_index] = rec->data;
  }
}

std::optional<profinet::Pdu> DigitalTwin::handle_from_secondary(
    const profinet::Pdu& pdu) {
  if (const auto* req = std::get_if<profinet::ConnectReq>(&pdu)) {
    if (!ready()) return std::nullopt;  // nothing learned yet: stay silent
    secondary_ar_ = req->ar_id;
    ++counters_.answered_connects;
    profinet::ConnectResp resp;
    resp.ar_id = req->ar_id;
    resp.status = 0;
    resp.device_id = *device_id_;
    return profinet::Pdu{resp};
  }
  if (const auto* rec = std::get_if<profinet::ParamRecord>(&pdu)) {
    secondary_records_[rec->record_index] = rec->data;
    ++counters_.absorbed_params;
    return std::nullopt;
  }
  // ParamDone / CyclicData / Release need no reply from a device that is
  // (from the secondary's point of view) already delivering inputs.
  return std::nullopt;
}

}  // namespace steelnet::instaplc
