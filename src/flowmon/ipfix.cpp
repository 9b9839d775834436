#include "flowmon/ipfix.hpp"

#include <bit>
#include <cassert>
#include <cstring>

namespace steelnet::flowmon {

namespace {

/// RFC 7011 §3.1: version, length, exportTime, sequenceNumber, ODID.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kSetHeaderBytes = 4;
constexpr std::uint16_t kTemplateSetId = 2;
constexpr std::uint16_t kMinDataSetId = 256;
constexpr std::int64_t kNsPerSecond = 1'000'000'000;
/// Room the encoder keeps past a message's last octet, so that every
/// field, whatever its width, is one fixed 8-octet store.
constexpr std::size_t kStoreSlack = 8;

constexpr std::uint64_t to_big_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}

/// Writes the low `width` (1..8) octets of `v` big-endian at `p` and
/// returns the octet after them. It stores all 8 octets -- the field,
/// then zeros -- so at least 8 octets at `p` must be writable; the next
/// field overwrites the zeros. (A memcpy of `width` octets would be a
/// library call per field.)
std::uint8_t* put_field(std::uint8_t* p, std::uint64_t v, std::size_t width) {
  assert(width >= 1 && width <= 8);
  const std::uint64_t be = to_big_endian(v << (8 * (8 - width)));
  std::memcpy(p, &be, sizeof be);
  return p + width;
}

/// Reads a `width`-octet (1..8) big-endian field at `p`. With `room`, the
/// 8 octets at `p` are readable and the read is one load; without it,
/// only the field's own octets are.
std::uint64_t load_field(const std::uint8_t* p, std::size_t width,
                         bool room) {
  if (room) {
    std::uint64_t be = 0;
    std::memcpy(&be, p, sizeof be);
    return to_big_endian(be) >> (8 * (8 - width));
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) v = (v << 8) | p[i];
  return v;
}

/// Bounded big-endian read for the message and set headers and the
/// template set: false if fewer than `width` octets remain.
bool read_be(const std::vector<std::uint8_t>& buf, std::size_t& at,
             std::size_t width, std::uint64_t& out) {
  if (at + width > buf.size()) return false;
  out = load_field(buf.data() + at, width, /*room=*/false);
  at += width;
  return true;
}

/// ns time fields are unsigned64 on the wire; past INT64_MAX they have
/// no SimTime.
bool set_ns(sim::SimTime& t, std::uint64_t v) {
  if (v > static_cast<std::uint64_t>(sim::SimTime::max().nanos())) {
    return false;
  }
  t = sim::SimTime{static_cast<std::int64_t>(v)};
  return true;
}

/// Octets of `n` padded to the next 4-byte set boundary (RFC 7011
/// §3.3.1 set padding).
constexpr std::size_t padded(std::size_t n) { return (n + 3) / 4 * 4; }

/// Octets of the template set describing `tmpl`.
std::size_t template_set_bytes(const Template& tmpl) {
  std::size_t n = kSetHeaderBytes + 4;  // + template id, field count
  for (const TemplateField& f : tmpl.fields) {
    n += (static_cast<std::uint16_t>(f.id) & kEnterpriseBit) != 0 ? 8 : 4;
  }
  return padded(n);
}

/// The one message writer behind encode_message and encode_message_fn:
/// sizes the buffer once, then writes every field in place.
/// `value(record_index, field_index)` supplies field values.
template <typename ValueFn>
std::vector<std::uint8_t> write_message(const MessageHeader& header,
                                        const Template& tmpl,
                                        bool include_template,
                                        std::size_t record_count,
                                        const ValueFn& value) {
  const std::size_t tmpl_bytes =
      include_template ? template_set_bytes(tmpl) : 0;
  const std::size_t data_bytes =
      record_count > 0
          ? padded(kSetHeaderBytes + record_count * tmpl.record_bytes())
          : 0;
  const std::size_t total = kHeaderBytes + tmpl_bytes + data_bytes;
  // Zero-filled, so set padding needs no writes.
  std::vector<std::uint8_t> buf(total + kStoreSlack);
  std::uint8_t* p = buf.data();
  p = put_field(p, header.version, 2);
  p = put_field(p, total, 2);
  p = put_field(
      p, static_cast<std::uint64_t>(header.export_time.nanos() / kNsPerSecond),
      4);
  p = put_field(p, header.sequence, 4);
  p = put_field(p, header.observation_domain, 4);

  if (include_template) {
    std::uint8_t* const set_start = p;
    p = put_field(p, kTemplateSetId, 2);
    p = put_field(p, tmpl_bytes, 2);
    p = put_field(p, tmpl.id, 2);
    p = put_field(p, tmpl.fields.size(), 2);
    for (const TemplateField& f : tmpl.fields) {
      const auto raw = static_cast<std::uint16_t>(f.id);
      p = put_field(p, raw, 2);
      p = put_field(p, f.width, 2);
      if ((raw & kEnterpriseBit) != 0) p = put_field(p, kSteelnetPen, 4);
    }
    p = set_start + tmpl_bytes;
  }

  if (record_count > 0) {
    p = put_field(p, tmpl.id, 2);
    p = put_field(p, data_bytes, 2);
    const std::size_t fields = tmpl.fields.size();
    for (std::size_t r = 0; r < record_count; ++r) {
      for (std::size_t f = 0; f < fields; ++f) {
        p = put_field(p, value(r, f), tmpl.fields[f].width);
      }
    }
  }

  buf.resize(total);  // drop the store slack; capacity is kept
  return buf;
}

}  // namespace

std::uint64_t field_value(const ExportRecord& r, FieldId id) {
  switch (id) {
    case FieldId::kOctets: return r.bytes;
    case FieldId::kPackets: return r.packets;
    case FieldId::kSrcMac: return r.key.src.bits();
    case FieldId::kDstMac: return r.key.dst.bits();
    case FieldId::kEndReason:
      return static_cast<std::uint64_t>(r.end_reason);
    case FieldId::kFirstSeenNs:
      return static_cast<std::uint64_t>(r.first_seen.nanos());
    case FieldId::kLastSeenNs:
      return static_cast<std::uint64_t>(r.last_seen.nanos());
    case FieldId::kVlanPcp: return r.key.pcp;
    case FieldId::kEtherType:
      return static_cast<std::uint64_t>(r.key.ethertype);
    case FieldId::kLayer2Octets: return r.wire_bytes;
    case FieldId::kMinIatNs:
      return static_cast<std::uint64_t>(r.min_iat.nanos());
    case FieldId::kMeanIatNs:
      return static_cast<std::uint64_t>(r.mean_iat.nanos());
    case FieldId::kJitterNs:
      return static_cast<std::uint64_t>(r.jitter.nanos());
    case FieldId::kForeignField: return 0;
  }
  return 0;
}

bool assign_field(ExportRecord& r, FieldId id, std::uint64_t v) {
  switch (id) {
    case FieldId::kOctets: r.bytes = v; break;
    case FieldId::kPackets: r.packets = v; break;
    case FieldId::kSrcMac: r.key.src = net::MacAddress{v}; break;
    case FieldId::kDstMac: r.key.dst = net::MacAddress{v}; break;
    case FieldId::kEndReason:
      r.end_reason = static_cast<EndReason>(v);
      break;
    case FieldId::kFirstSeenNs: return set_ns(r.first_seen, v);
    case FieldId::kLastSeenNs: return set_ns(r.last_seen, v);
    case FieldId::kVlanPcp:
      r.key.pcp = static_cast<std::uint8_t>(v);
      break;
    case FieldId::kEtherType:
      r.key.ethertype = static_cast<net::EtherType>(v);
      break;
    case FieldId::kLayer2Octets: r.wire_bytes = v; break;
    case FieldId::kMinIatNs: return set_ns(r.min_iat, v);
    case FieldId::kMeanIatNs: return set_ns(r.mean_iat, v);
    case FieldId::kJitterNs: return set_ns(r.jitter, v);
    case FieldId::kForeignField: break;  // foreign PEN: value dropped
  }
  return true;
}

std::size_t Template::record_bytes() const {
  std::size_t n = 0;
  for (const auto& f : fields) n += f.width;
  return n;
}

const Template& flow_template() {
  static const Template kTemplate{
      256,
      {{FieldId::kSrcMac, 6},
       {FieldId::kDstMac, 6},
       {FieldId::kEtherType, 2},
       {FieldId::kVlanPcp, 1},
       {FieldId::kPackets, 8},
       {FieldId::kOctets, 8},
       {FieldId::kLayer2Octets, 8},
       {FieldId::kFirstSeenNs, 8},
       {FieldId::kLastSeenNs, 8},
       {FieldId::kMinIatNs, 8},
       {FieldId::kMeanIatNs, 8},
       {FieldId::kJitterNs, 8},
       {FieldId::kEndReason, 1}}};
  return kTemplate;
}

ExportRecord to_export_record(const FlowRecord& r, EndReason reason) {
  ExportRecord e;
  e.key = r.key;
  e.packets = r.packets;
  e.bytes = r.bytes;
  e.wire_bytes = r.wire_bytes;
  e.first_seen = r.first_seen;
  e.last_seen = r.last_seen;
  e.min_iat = r.min_iat_or_zero();
  e.mean_iat = r.mean_iat();
  e.jitter = r.mean_jitter();
  e.end_reason = reason;
  return e;
}

void TemplateStore::learn(std::uint64_t session, std::uint32_t domain,
                          Template tmpl) {
  templates_[{session, domain, tmpl.id}] = std::move(tmpl);
}

const Template* TemplateStore::find(std::uint64_t session,
                                    std::uint32_t domain,
                                    std::uint16_t template_id) const {
  const auto it = templates_.find({session, domain, template_id});
  return it == templates_.end() ? nullptr : &it->second;
}

std::vector<std::uint8_t> encode_message_fn(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    std::size_t record_count,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& value) {
  return write_message(header, tmpl, include_template, record_count, value);
}

std::vector<std::uint8_t> encode_message(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    const std::vector<ExportRecord>& records) {
  return write_message(header, tmpl, include_template, records.size(),
                       [&](std::size_t r, std::size_t f) {
                         return field_value(records[r], tmpl.fields[f].id);
                       });
}

std::optional<DecodedMessage> decode_message(
    const std::vector<std::uint8_t>& payload, TemplateStore& store,
    std::uint64_t session) {
  std::size_t at = 0;
  std::uint64_t v = 0;
  DecodedMessage msg;

  if (!read_be(payload, at, 2, v)) return std::nullopt;
  msg.header.version = static_cast<std::uint16_t>(v);
  if (msg.header.version != MessageHeader::kVersion) return std::nullopt;
  if (!read_be(payload, at, 2, v)) return std::nullopt;
  const std::size_t total_length = v;
  if (total_length < kHeaderBytes || total_length > payload.size()) {
    return std::nullopt;
  }
  if (!read_be(payload, at, 4, v)) return std::nullopt;
  msg.header.export_time =
      sim::SimTime{static_cast<std::int64_t>(v) * kNsPerSecond};
  if (!read_be(payload, at, 4, v)) return std::nullopt;
  msg.header.sequence = static_cast<std::uint32_t>(v);
  if (!read_be(payload, at, 4, v)) return std::nullopt;
  msg.header.observation_domain = static_cast<std::uint32_t>(v);

  while (at + 4 <= total_length) {
    const std::size_t set_start = at;
    std::uint64_t set_id = 0, set_len = 0;
    if (!read_be(payload, at, 2, set_id)) return std::nullopt;
    if (!read_be(payload, at, 2, set_len)) return std::nullopt;
    if (set_len < 4 || set_start + set_len > total_length) {
      return std::nullopt;
    }
    const std::size_t set_end = set_start + set_len;

    if (set_id == kTemplateSetId) {
      while (at + 4 <= set_end) {
        Template tmpl;
        if (!read_be(payload, at, 2, v)) return std::nullopt;
        tmpl.id = static_cast<std::uint16_t>(v);
        if (tmpl.id < kMinDataSetId) return std::nullopt;
        std::uint64_t field_count = 0;
        if (!read_be(payload, at, 2, field_count)) return std::nullopt;
        if (field_count == 0) return std::nullopt;  // withdrawals unsupported
        for (std::uint64_t i = 0; i < field_count; ++i) {
          std::uint64_t id = 0, width = 0;
          if (!read_be(payload, at, 2, id)) return std::nullopt;
          if (at > set_end) return std::nullopt;
          if (!read_be(payload, at, 2, width)) return std::nullopt;
          // Widths are capped at 8: every steelnet element fits a u64.
          if (width == 0 || width > 8 || at > set_end) return std::nullopt;
          auto fid = static_cast<FieldId>(id);
          if ((id & kEnterpriseBit) != 0) {
            std::uint64_t pen = 0;
            if (!read_be(payload, at, 4, pen)) return std::nullopt;
            if (at > set_end) return std::nullopt;
            // A foreign enterprise's element: keep the width so records
            // still tile, but bind its value to nothing.
            if (pen != kSteelnetPen) fid = FieldId::kForeignField;
          }
          tmpl.fields.push_back({fid, static_cast<std::uint8_t>(width)});
        }
        store.learn(session, msg.header.observation_domain, std::move(tmpl));
        ++msg.templates_learned;
      }
      at = set_end;  // trailing set padding (<= 3 octets)
    } else if (set_id >= kMinDataSetId) {
      const Template* tmpl =
          store.find(session, msg.header.observation_domain,
                     static_cast<std::uint16_t>(set_id));
      if (tmpl == nullptr || tmpl->record_bytes() == 0) {
        // Unknown template: count the payload as skipped records as best
        // we can (one opaque blob).
        ++msg.records_without_template;
        at = set_end;
        continue;
      }
      const std::size_t rb = tmpl->record_bytes();
      msg.records.reserve(msg.records.size() + (set_end - at) / rb);
      // A whole record lies inside the set, so its fields are read by
      // pointer; a field is one 8-octet load while 8 octets remain in
      // the payload after the record's last field starts.
      while (at + rb <= set_end) {
        const std::uint8_t* p = payload.data() + at;
        const bool room = at + rb + 7 <= payload.size();
        ExportRecord r;
        for (const TemplateField& f : tmpl->fields) {
          if (!assign_field(r, f.id, load_field(p, f.width, room))) {
            return std::nullopt;
          }
          p += f.width;
        }
        msg.records.push_back(r);
        at += rb;
      }
      // Whatever remains must be set padding; more than 3 octets means
      // the set length does not tile into records of this template.
      if (set_end - at > 3) return std::nullopt;
      at = set_end;
    } else {
      at = set_end;  // unknown low set id (e.g. options templates): skip
    }
  }
  return msg;
}

}  // namespace steelnet::flowmon
