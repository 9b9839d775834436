#include "flowmon/transform.hpp"

#include <algorithm>
#include <utility>

namespace steelnet::flowmon {

CompiledTransform::CompiledTransform(const TransformRules& rules,
                                     const Template& input) {
  wire_.id = rules.rewrite_template_id != 0 ? rules.rewrite_template_id
                                            : input.id;
  min_packets_ = rules.min_packets;
  rewrite_domain_ = rules.rewrite_domain;
  for (const TemplateField& f : input.fields) {
    if (std::find(rules.drops.begin(), rules.drops.end(), f.id) !=
        rules.drops.end()) {
      continue;
    }
    FieldId out_id = f.id;
    for (const TransformRules::Remap& m : rules.remaps) {
      if (m.from == f.id) {
        out_id = m.to;
        break;
      }
    }
    Source src;
    src.from = f.id;
    for (const TransformRules::Scale& s : rules.scales) {
      if (s.field == f.id) {
        src.num = s.num == 0 ? 1 : s.num;
        src.den = s.den == 0 ? 1 : s.den;
        break;
      }
    }
    wire_.fields.push_back({out_id, f.width});
    sources_.push_back(src);
  }
}

std::uint64_t CompiledTransform::value_of(const ExportRecord& r,
                                          std::size_t field_index) const {
  const Source& src = sources_[field_index];
  const std::uint64_t v = field_value(r, src.from);
  // Split to dodge overflow of v * num for ns-sized values.
  return v / src.den * src.num + v % src.den * src.num / src.den;
}

std::vector<std::uint8_t> encode_transformed(
    const MessageHeader& header, const CompiledTransform& t,
    bool include_template, const std::vector<ExportRecord>& records) {
  return encode_message_fn(
      header, t.wire_template(), include_template, records.size(),
      [&](std::size_t r, std::size_t f) {
        return t.value_of(records[r], f);
      });
}

Exporter::Exporter(net::HostNode& nic, net::MacAddress dst,
                   std::uint32_t domain, std::uint32_t template_refresh,
                   CompiledTransform transform)
    : nic_(&nic),
      dst_(dst),
      domain_(transform.domain_or(domain)),
      template_refresh_(template_refresh),
      transform_(std::move(transform)) {}

std::size_t Exporter::send(const std::vector<ExportRecord>& records,
                           sim::SimTime now) {
  std::size_t frames = 0;
  for (std::size_t off = 0; off < records.size();
       off += kRecordsPerMessage) {
    const std::size_t n =
        std::min(kRecordsPerMessage, records.size() - off);
    const std::vector<ExportRecord> chunk(records.begin() + off,
                                          records.begin() + off + n);
    const bool with_template = frames_since_template_ == 0;
    if (++frames_since_template_ >= template_refresh_) {
      frames_since_template_ = 0;
    }

    MessageHeader header;
    header.observation_domain = domain_;
    header.sequence = sequence_;
    header.export_time = now;
    sequence_ += static_cast<std::uint32_t>(n);

    net::Frame frame;
    frame.dst = dst_;
    frame.ethertype = net::EtherType::kFlowmonExport;
    frame.payload =
        encode_transformed(header, transform_, with_template, chunk);
    nic_->send(std::move(frame));
    ++frames;
  }
  return frames;
}

}  // namespace steelnet::flowmon
