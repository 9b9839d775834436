// steelnet::flowmon -- the export wire format.
//
// An RFC 7011 IPFIX message codec: network byte order throughout, the
// 16-byte message header (version 10, total length, exportTime in epoch
// seconds, sequenceNumber, observationDomainId), template sets (set id 2)
// describing record layouts field-by-field -- enterprise-specific
// elements carry the E-bit plus a 4-byte Private Enterprise Number --
// and data sets (set id >= 256) of fixed-size records padded to 4-byte
// set alignment. The collector decodes data records *through the
// template it learned*, skipping unknown fields (and foreign-PEN fields)
// by width, so meter and collector can evolve independently -- exactly
// the property templates buy real IPFIX deployments. Messages travel as
// net::Frame payloads (EtherType::kFlowmonExport).
//
// Both directions move whole fields: the encoder sizes a message once and
// writes each field as one fixed 8-octet big-endian store, and the
// decoder, once a set's length has vouched for a whole record, reads its
// fields by pointer with no per-octet bounds check.
//
// Sequence numbers follow RFC 7011 §3.1: the count of data records sent
// prior to this message on this (exporter session, observation domain)
// stream, modulo 2^32 -- collectors must use serial-number arithmetic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "flowmon/flow_cache.hpp"

namespace steelnet::flowmon {

/// Our Private Enterprise Number for enterprise-specific elements
/// (placeholder value; steelnet has no IANA assignment).
inline constexpr std::uint32_t kSteelnetPen = 0xBEEF;

/// The enterprise bit of a field specifier (RFC 7011 §3.2).
inline constexpr std::uint16_t kEnterpriseBit = 0x8000;

/// Field identifiers. Where IANA defines a fitting information element
/// the id matches; cadence fields are enterprise-specific (E-bit set,
/// exported under kSteelnetPen).
enum class FieldId : std::uint16_t {
  kOctets = 1,         ///< payload octets (octetDeltaCount)
  kPackets = 2,        ///< packetDeltaCount
  kSrcMac = 56,        ///< sourceMacAddress, 6 bytes
  kDstMac = 80,        ///< destinationMacAddress, 6 bytes
  kEndReason = 136,    ///< flowEndReason
  kFirstSeenNs = 156,  ///< flowStartNanoseconds
  kLastSeenNs = 157,   ///< flowEndNanoseconds
  kVlanPcp = 244,      ///< dot1qPriority
  kEtherType = 256,    ///< ethernetType
  kLayer2Octets = 352, ///< layer2OctetDeltaCount
  // Enterprise range (E-bit | element id): cadence statistics.
  kMinIatNs = kEnterpriseBit | 1,
  kMeanIatNs = kEnterpriseBit | 2,
  kJitterNs = kEnterpriseBit | 3,
  /// Decoder marker for an enterprise field under a foreign PEN: its
  /// width is honoured (skip-by-width) but its value binds to nothing.
  kForeignField = 0x7fff,
};

struct TemplateField {
  FieldId id;
  std::uint8_t width;  ///< octets on the wire (1..8)
};

struct Template {
  std::uint16_t id = 0;  ///< data-set ids start at 256 (RFC 7011 §3.4.1)
  std::vector<TemplateField> fields;

  [[nodiscard]] std::size_t record_bytes() const;
};

/// The flow-record template this meter exports (id 256).
[[nodiscard]] const Template& flow_template();

/// One decoded flow record.
struct ExportRecord {
  FlowKey key;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wire_bytes = 0;
  sim::SimTime first_seen;
  sim::SimTime last_seen;
  sim::SimTime min_iat;
  sim::SimTime mean_iat;
  sim::SimTime jitter;
  EndReason end_reason = EndReason::kEndOfFlow;
};

/// Snapshot of a cache record for export.
[[nodiscard]] ExportRecord to_export_record(const FlowRecord& r,
                                            EndReason reason);

/// Record field lookup by information element -- the single source of
/// truth shared by the encoder and mediation transforms.
[[nodiscard]] std::uint64_t field_value(const ExportRecord& r, FieldId id);
/// Inverse of field_value for the decoder; kForeignField binds nothing.
/// Returns false, leaving `r` unchanged, for an ns time above INT64_MAX.
[[nodiscard]] bool assign_field(ExportRecord& r, FieldId id,
                                std::uint64_t v);

struct MessageHeader {
  std::uint16_t version = kVersion;
  std::uint32_t observation_domain = 0;
  /// Count of data records sent prior to this message on this stream
  /// (RFC 7011 sequence semantics, wraps at 2^32).
  std::uint32_t sequence = 0;
  /// Encoded as the RFC's 32-bit exportTime *seconds* field: truncated
  /// to whole seconds on the wire, so a decoded header carries
  /// second-granularity time.
  sim::SimTime export_time;

  static constexpr std::uint16_t kVersion = 10;  ///< IPFIX version number
};

/// Learned templates, keyed on (exporter session, observation domain,
/// template id). The session id scopes streams from distinct exporters
/// that share a domain number -- we use the exporter's MAC bits.
class TemplateStore {
 public:
  /// Field widths must be 1..8, as decode_message checks before it
  /// learns a template.
  void learn(std::uint64_t session, std::uint32_t domain, Template tmpl);
  [[nodiscard]] const Template* find(std::uint64_t session,
                                     std::uint32_t domain,
                                     std::uint16_t template_id) const;
  [[nodiscard]] std::size_t size() const { return templates_.size(); }

 private:
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint16_t>, Template>
      templates_;
};

/// Serializes one export message: header, optionally the template set,
/// then one data set carrying `records` laid out per `tmpl`.
[[nodiscard]] std::vector<std::uint8_t> encode_message(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    const std::vector<ExportRecord>& records);

/// Low-level encoder: identical framing and bytes, but field values come
/// from `value(record_index, field_index)` -- the hook mediation
/// transforms use to re-write records between federation tiers. Both
/// encoders take templates whose field widths are 1..8.
[[nodiscard]] std::vector<std::uint8_t> encode_message_fn(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    std::size_t record_count,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& value);

struct DecodedMessage {
  MessageHeader header;
  std::uint16_t templates_learned = 0;
  std::vector<ExportRecord> records;
  /// Data sets skipped because their template was unknown.
  std::uint16_t records_without_template = 0;
};

/// Parses a message, learning templates into `store` (under `session`)
/// and decoding data records through it. Returns nullopt on a malformed
/// buffer -- truncated set, bad version, zero-field template, a data
/// set whose length does not tile into whole records (+ <=3 padding), or
/// a nanosecond time field above INT64_MAX.
[[nodiscard]] std::optional<DecodedMessage> decode_message(
    const std::vector<std::uint8_t>& payload, TemplateStore& store,
    std::uint64_t session = 0);

}  // namespace steelnet::flowmon
