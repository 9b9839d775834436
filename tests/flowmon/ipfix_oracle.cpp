#include "ipfix_oracle.hpp"

namespace steelnet::flowmon::oracle {

void put_be(std::vector<std::uint8_t>& buf, std::uint64_t value,
            std::size_t width) {
  for (std::size_t i = width; i-- > 0;) {
    buf.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void patch_be16(std::vector<std::uint8_t>& buf, std::size_t at,
                std::uint16_t value) {
  buf[at] = static_cast<std::uint8_t>(value >> 8);
  buf[at + 1] = static_cast<std::uint8_t>(value);
}

bool read_be(const std::vector<std::uint8_t>& buf, std::size_t& at,
             std::size_t width, std::uint64_t& out) {
  if (at + width > buf.size()) return false;
  out = 0;
  for (std::size_t i = 0; i < width; ++i) {
    out = (out << 8) | buf[at + i];
  }
  at += width;
  return true;
}

namespace {

/// RFC 7011 §3.1: version, length, exportTime, sequenceNumber, ODID.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::uint16_t kTemplateSetId = 2;
constexpr std::uint16_t kMinDataSetId = 256;
constexpr std::int64_t kNsPerSecond = 1'000'000'000;

/// Pads `buf` with zero octets to the next 4-byte set boundary measured
/// from `set_start` (RFC 7011 §3.3.1 set padding).
void pad_set(std::vector<std::uint8_t>& buf, std::size_t set_start) {
  while ((buf.size() - set_start) % 4 != 0) buf.push_back(0);
}

}  // namespace

std::vector<std::uint8_t> encode_message_fn(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    std::size_t record_count,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& value) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kHeaderBytes + record_count * tmpl.record_bytes() + 64);
  put_be(buf, header.version, 2);
  put_be(buf, 0, 2);  // total length, patched below
  put_be(buf,
         static_cast<std::uint64_t>(header.export_time.nanos() / kNsPerSecond),
         4);
  put_be(buf, header.sequence, 4);
  put_be(buf, header.observation_domain, 4);

  if (include_template) {
    const std::size_t set_start = buf.size();
    put_be(buf, kTemplateSetId, 2);
    put_be(buf, 0, 2);  // set length, patched below
    put_be(buf, tmpl.id, 2);
    put_be(buf, tmpl.fields.size(), 2);
    for (const auto& f : tmpl.fields) {
      const auto raw = static_cast<std::uint16_t>(f.id);
      put_be(buf, raw, 2);
      put_be(buf, f.width, 2);
      if ((raw & kEnterpriseBit) != 0) put_be(buf, kSteelnetPen, 4);
    }
    pad_set(buf, set_start);
    patch_be16(buf, set_start + 2,
               static_cast<std::uint16_t>(buf.size() - set_start));
  }

  if (record_count > 0) {
    const std::size_t set_start = buf.size();
    put_be(buf, tmpl.id, 2);
    put_be(buf, 0, 2);
    for (std::size_t r = 0; r < record_count; ++r) {
      for (std::size_t f = 0; f < tmpl.fields.size(); ++f) {
        put_be(buf, value(r, f), tmpl.fields[f].width);
      }
    }
    pad_set(buf, set_start);
    patch_be16(buf, set_start + 2,
               static_cast<std::uint16_t>(buf.size() - set_start));
  }

  patch_be16(buf, 2, static_cast<std::uint16_t>(buf.size()));
  return buf;
}

std::vector<std::uint8_t> encode_message(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    const std::vector<ExportRecord>& records) {
  return oracle::encode_message_fn(
      header, tmpl, include_template, records.size(),
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
      while (at + rb <= set_end) {
        ExportRecord r;
        for (const auto& f : tmpl->fields) {
          if (!read_be(payload, at, f.width, v)) return std::nullopt;
          if (!assign_field(r, f.id, v)) return std::nullopt;
        }
        msg.records.push_back(r);
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

}  // namespace steelnet::flowmon::oracle
