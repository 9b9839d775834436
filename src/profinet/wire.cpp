#include "profinet/wire.hpp"

namespace steelnet::profinet {

std::string to_string(PduType t) {
  switch (t) {
    case PduType::kConnectReq: return "ConnectReq";
    case PduType::kConnectResp: return "ConnectResp";
    case PduType::kParamRecord: return "ParamRecord";
    case PduType::kParamDone: return "ParamDone";
    case PduType::kCyclicData: return "CyclicData";
    case PduType::kAlarm: return "Alarm";
    case PduType::kRelease: return "Release";
  }
  return "?";
}

namespace {

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& in) : in_(in) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > in_.size()) return false;
    v = in_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > in_.size()) return false;
    v = static_cast<std::uint16_t>(in_[pos_] | (in_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t lo, hi;
    if (!u16(lo) || !u16(hi)) return false;
    v = static_cast<std::uint32_t>(lo) |
        (static_cast<std::uint32_t>(hi) << 16);
    return true;
  }
  bool bytes(std::vector<std::uint8_t>& b, std::size_t n) {
    if (pos_ + n > in_.size()) return false;
    b.assign(in_.begin() + std::ptrdiff_t(pos_),
             in_.begin() + std::ptrdiff_t(pos_ + n));
    pos_ += n;
    return true;
  }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

/// The `T` alternative of `pdu`, keeping its storage if it already holds
/// one and emplacing a fresh one otherwise.
template <typename T>
T& reuse(Pdu& pdu) {
  if (T* p = std::get_if<T>(&pdu)) return *p;
  return pdu.emplace<T>();
}

struct Encoder {
  Writer w;

  void operator()(const ConnectReq& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kConnectReq));
    w.u16(p.ar_id);
    w.u32(p.cycle_time_us);
    w.u16(p.watchdog_factor);
    w.u16(p.input_bytes);
    w.u16(p.output_bytes);
  }
  void operator()(const ConnectResp& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kConnectResp));
    w.u16(p.ar_id);
    w.u8(p.status);
    w.u32(p.device_id);
  }
  void operator()(const ParamRecord& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kParamRecord));
    w.u16(p.ar_id);
    w.u16(p.record_index);
    w.u16(static_cast<std::uint16_t>(p.data.size()));
    w.bytes(p.data);
  }
  void operator()(const ParamDone& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kParamDone));
    w.u16(p.ar_id);
  }
  void operator()(const CyclicData& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kCyclicData));
    w.u16(p.ar_id);
    w.u16(p.cycle_counter);
    w.u8(p.data_status);
    w.u16(static_cast<std::uint16_t>(p.data.size()));
    w.bytes(p.data);
  }
  void operator()(const Alarm& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kAlarm));
    w.u16(p.ar_id);
    w.u8(p.alarm_type);
  }
  void operator()(const Release& p) {
    w.u8(static_cast<std::uint8_t>(PduType::kRelease));
    w.u16(p.ar_id);
  }
};

}  // namespace

void encode_into(const Pdu& pdu, std::vector<std::uint8_t>& out) {
  out.clear();
  std::visit(Encoder{Writer{out}}, pdu);
}

std::vector<std::uint8_t> encode(const Pdu& pdu) {
  std::vector<std::uint8_t> out;
  encode_into(pdu, out);
  return out;
}

bool decode_into(const std::vector<std::uint8_t>& payload, Pdu& out) {
  Reader r(payload);
  std::uint8_t type_raw;
  if (!r.u8(type_raw)) return false;
  switch (static_cast<PduType>(type_raw)) {
    case PduType::kConnectReq: {
      ConnectReq& p = reuse<ConnectReq>(out);
      return r.u16(p.ar_id) && r.u32(p.cycle_time_us) &&
             r.u16(p.watchdog_factor) && r.u16(p.input_bytes) &&
             r.u16(p.output_bytes);
    }
    case PduType::kConnectResp: {
      ConnectResp& p = reuse<ConnectResp>(out);
      return r.u16(p.ar_id) && r.u8(p.status) && r.u32(p.device_id);
    }
    case PduType::kParamRecord: {
      ParamRecord& p = reuse<ParamRecord>(out);
      std::uint16_t len;
      return r.u16(p.ar_id) && r.u16(p.record_index) && r.u16(len) &&
             r.bytes(p.data, len);
    }
    case PduType::kParamDone: {
      ParamDone& p = reuse<ParamDone>(out);
      return r.u16(p.ar_id);
    }
    case PduType::kCyclicData: {
      CyclicData& p = reuse<CyclicData>(out);
      std::uint16_t len;
      return r.u16(p.ar_id) && r.u16(p.cycle_counter) &&
             r.u8(p.data_status) && r.u16(len) && r.bytes(p.data, len);
    }
    case PduType::kAlarm: {
      Alarm& p = reuse<Alarm>(out);
      return r.u16(p.ar_id) && r.u8(p.alarm_type);
    }
    case PduType::kRelease: {
      Release& p = reuse<Release>(out);
      return r.u16(p.ar_id);
    }
  }
  return false;
}

std::optional<Pdu> decode(const std::vector<std::uint8_t>& payload) {
  Pdu pdu;
  if (!decode_into(payload, pdu)) return std::nullopt;
  return pdu;
}

}  // namespace steelnet::profinet
