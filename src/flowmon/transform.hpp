// steelnet::flowmon -- mediation / transform rules between federation
// tiers (the transform_rules.c idea from ipfix-wrt, made declarative).
//
// A cell-tier collector re-exporting to the plant tier may not forward
// records verbatim: the plant schema can rename fields, drop
// cell-internal ones, re-scale units, and stamp its own observation
// domain. TransformRules captures that declaratively; CompiledTransform
// binds the rules to a concrete input template once, yielding the output
// wire template plus a per-field source map, so applying the transform
// per record is branch-free arithmetic.
//
// Exporter is the RFC 7011 exporting process that meters (identity
// rules) and mediating collectors (their compiled rules) share.
#pragma once

#include <cstdint>
#include <vector>

#include "flowmon/ipfix.hpp"
#include "net/host_node.hpp"

namespace steelnet::flowmon {

struct TransformRules {
  /// Nonzero: re-exported messages carry this observation domain id.
  std::uint32_t rewrite_domain = 0;
  /// Nonzero: the output template is advertised under this id (else the
  /// input template's id is kept).
  std::uint16_t rewrite_template_id = 0;
  /// Fields removed from the output template entirely.
  std::vector<FieldId> drops;
  /// Field renames: the value of `from` is exported under `to`'s id
  /// (width preserved).
  struct Remap {
    FieldId from;
    FieldId to;
  };
  std::vector<Remap> remaps;
  /// Integer re-scaling: value * num / den (e.g. ns -> us with 1/1000).
  struct Scale {
    FieldId field;
    std::uint64_t num = 1;
    std::uint64_t den = 1;
  };
  std::vector<Scale> scales;
  /// Records with fewer packets are not re-exported (mediation filter);
  /// dropped records are counted by the collector as transform drops.
  std::uint64_t min_packets = 0;
};

/// TransformRules bound to one input template.
class CompiledTransform {
 public:
  CompiledTransform() = default;
  CompiledTransform(const TransformRules& rules, const Template& input);

  /// The template advertised downstream (post drop/remap/re-id).
  [[nodiscard]] const Template& wire_template() const { return wire_; }
  /// Mediation filter: should this record be re-exported at all?
  [[nodiscard]] bool keep(const ExportRecord& r) const {
    return r.packets >= min_packets_;
  }
  /// Output value of wire field `field_index` for record `r` (source
  /// field lookup + scaling).
  [[nodiscard]] std::uint64_t value_of(const ExportRecord& r,
                                       std::size_t field_index) const;
  /// The observation domain to stamp, given the tier's default.
  [[nodiscard]] std::uint32_t domain_or(std::uint32_t fallback) const {
    return rewrite_domain_ != 0 ? rewrite_domain_ : fallback;
  }

 private:
  struct Source {
    FieldId from = FieldId::kForeignField;
    std::uint64_t num = 1;
    std::uint64_t den = 1;
  };

  Template wire_;
  std::vector<Source> sources_;  ///< parallel to wire_.fields
  std::uint64_t min_packets_ = 0;
  std::uint32_t rewrite_domain_ = 0;
};

/// Encodes one re-export message: `records` pass through `t`'s field
/// map/scaling and are framed under its wire template.
[[nodiscard]] std::vector<std::uint8_t> encode_transformed(
    const MessageHeader& header, const CompiledTransform& t,
    bool include_template, const std::vector<ExportRecord>& records);

/// The exporting process: splits records into messages of at most
/// kRecordsPerMessage, re-advertises the template every
/// `template_refresh` messages, stamps the RFC 7011 sequence number of
/// its (exporter, domain) stream and sends each message as one frame
/// from `nic` to `dst`. Identity rules (TransformRules{}) encode exactly
/// what encode_message would.
class Exporter {
 public:
  /// 16 x 80 B flow records fit a 1.4 kB frame payload.
  static constexpr std::size_t kRecordsPerMessage = 16;

  /// Messages carry `transform.domain_or(domain)`. `nic` is not owned
  /// and must outlive the exporter.
  Exporter(net::HostNode& nic, net::MacAddress dst, std::uint32_t domain,
           std::uint32_t template_refresh, CompiledTransform transform);

  /// Sends `records` stamped with export time `now`; returns the number
  /// of frames sent.
  std::size_t send(const std::vector<ExportRecord>& records,
                   sim::SimTime now);

  [[nodiscard]] const CompiledTransform& transform() const {
    return transform_;
  }

 private:
  net::HostNode* nic_;
  net::MacAddress dst_;
  std::uint32_t domain_;
  std::uint32_t template_refresh_;
  CompiledTransform transform_;
  std::uint32_t sequence_ = 0;
  std::uint32_t frames_since_template_ = 0;
};

}  // namespace steelnet::flowmon
