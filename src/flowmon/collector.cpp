#include "flowmon/collector.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "obs/hub.hpp"
#include "sim/hash.hpp"

namespace steelnet::flowmon {

CollectorNode::CollectorNode(net::MacAddress mac, PeriodicityConfig cfg)
    : mac_(mac), cfg_(cfg) {}

void CollectorNode::account_sequence(std::uint64_t session,
                                     std::uint32_t domain,
                                     std::uint32_t sequence,
                                     std::uint32_t n_records) {
  // RFC 7011 sequence accounting with serial-number arithmetic: the
  // header carries the count of data records sent before this message on
  // this (exporter session, domain) stream, modulo 2^32. A forward gap
  // (< 2^31) means lost records; a backward step is a late or replayed
  // message and must not be charged as loss. Exporters start at 0, so
  // even the first message from a new stream reveals records lost before
  // first contact.
  const auto stream = std::make_pair(session, domain);
  const auto it = next_sequence_.find(stream);
  const std::uint32_t expected = it != next_sequence_.end() ? it->second : 0;
  const std::uint32_t gap = sequence - expected;  // wraps mod 2^32
  if (gap == 0) {
    next_sequence_[stream] = sequence + n_records;
  } else if (gap < 0x8000'0000u) {
    counters_.lost_records += gap;
    next_sequence_[stream] = sequence + n_records;  // resync forward
  } else {
    ++counters_.sequence_reordered;  // stale message; keep expectation
  }
}

void CollectorNode::handle_frame(net::Frame frame, net::PortId in_port) {
  observe_frame(frame, in_port);
  ++counters_.frames_in;
  if ((frame.dst != mac_ && !frame.dst.is_broadcast()) ||
      frame.ethertype != net::EtherType::kFlowmonExport) {
    ++counters_.frames_filtered;
    return;
  }
  // Templates and sequence streams are scoped by exporter session; two
  // exporters sharing a domain number can no longer clobber each other.
  const std::uint64_t session = frame.src.bits();
  const auto msg = decode_message(frame.payload, templates_, session);
  if (!msg.has_value()) {
    ++counters_.malformed;
    return;
  }
  ++counters_.messages;
  counters_.templates_learned += msg->templates_learned;
  counters_.records_without_template += msg->records_without_template;
  account_sequence(session, msg->header.observation_domain,
                   msg->header.sequence,
                   static_cast<std::uint32_t>(msg->records.size()));

  const bool timed = attached();
  const sim::SimTime now = timed ? network().sim().now() : sim::SimTime{};
  for (const ExportRecord& r : msg->records) {
    ++counters_.records;
    if (timed) {
      const double lag_us =
          static_cast<double>((now - r.last_seen).nanos()) / 1000.0;
      export_lag_us_.add(lag_us);
      if (lag_hist_ != nullptr) lag_hist_->add(lag_us);
    }
    absorb(r);
  }
}

void CollectorNode::absorb(const ExportRecord& r) {
  FlowAccum& a = flows_[r.key];
  const bool first_record = a.incarnations == 0 && !a.has_live;
  if (first_record || r.first_seen < a.first_seen) {
    a.first_seen = r.first_seen;
  }
  if (first_record || r.last_seen > a.last_seen) a.last_seen = r.last_seen;
  // Only multi-packet records carry a measured minimum IAT. Decoded
  // records are wire data (an exporter bug or a corrupted-but-parseable
  // frame can carry the SimTime::max() sentinel), so the sentinel is
  // rejected here too, not just at view time.
  if (r.packets >= 2 && r.min_iat != sim::SimTime::max() &&
      r.min_iat < a.min_iat) {
    a.min_iat = r.min_iat;
  }
  // Keep the cadence estimate from the best-sampled record.
  if (r.packets >= a.cadence_packets) {
    a.cadence_packets = r.packets;
    a.mean_iat = r.mean_iat;
    a.jitter = r.jitter;
  }

  if (reexport_enabled_) {
    if (compiled_.keep(r)) {
      pending_.push_back(r);
    } else {
      ++counters_.transform_dropped;
    }
  }

  // Records carry absolute totals since their incarnation began, so a
  // checkpoint overwrites the live record; a closing record folds the
  // incarnation into the finished totals.
  a.live = r;
  a.has_live = true;
  if (r.end_reason == EndReason::kActiveTimeout) {
    a.ended = false;
    return;
  }
  a.done_packets += r.packets;
  a.done_bytes += r.bytes;
  a.done_wire_bytes += r.wire_bytes;
  a.has_live = false;
  ++a.incarnations;
  // A forced flush means the observation window closed on a still-running
  // flow -- that is precisely an open-ended flow.
  a.ended = r.end_reason != EndReason::kForcedEnd;
}

void CollectorNode::enable_reexport(net::HostNode& uplink, ReExportConfig cfg) {
  uplink_ = &uplink;
  recfg_ = std::move(cfg);
  compiled_ = CompiledTransform{recfg_.rules, flow_template()};
  reexport_enabled_ = true;
  if (attached()) {
    sim::Simulator& sim = network().sim();
    reexport_task_ = std::make_unique<sim::PeriodicTask>(
        sim, sim.now() + recfg_.interval, recfg_.interval,
        [this] { flush_reexport(); });
  }
}

void CollectorNode::flush_reexport() {
  if (!reexport_enabled_ || pending_.empty()) return;
  const sim::SimTime now =
      attached() ? network().sim().now() : sim::SimTime{};
  for (std::size_t off = 0; off < pending_.size();
       off += recfg_.max_records_per_frame) {
    const std::size_t n =
        std::min(recfg_.max_records_per_frame, pending_.size() - off);
    const std::vector<ExportRecord> chunk(pending_.begin() + off,
                                          pending_.begin() + off + n);
    const bool with_template = frames_since_template_ == 0;
    if (++frames_since_template_ >= recfg_.template_refresh_frames) {
      frames_since_template_ = 0;
    }

    MessageHeader header;
    header.observation_domain =
        compiled_.domain_or(recfg_.observation_domain);
    header.sequence = reexport_sequence_;
    header.export_time = now;
    reexport_sequence_ += static_cast<std::uint32_t>(n);

    net::Frame frame;
    frame.dst = recfg_.upstream_mac;
    frame.ethertype = net::EtherType::kFlowmonExport;
    frame.pcp = recfg_.pcp;
    frame.payload = encode_transformed(header, compiled_, with_template, chunk);
    uplink_->send(std::move(frame));
    ++counters_.reexport_frames;
    counters_.reexported_records += n;
  }
  pending_.clear();
}

FlowView CollectorNode::view_of(const FlowKey& key,
                                const FlowAccum& a) const {
  FlowView v;
  v.key = key;
  v.packets = a.done_packets + (a.has_live ? a.live.packets : 0);
  v.bytes = a.done_bytes + (a.has_live ? a.live.bytes : 0);
  v.wire_bytes = a.done_wire_bytes + (a.has_live ? a.live.wire_bytes : 0);
  v.first_seen = a.first_seen;
  v.last_seen = a.last_seen;
  v.min_iat = a.min_iat == sim::SimTime::max() ? sim::SimTime::zero()
                                               : a.min_iat;
  v.mean_iat = a.mean_iat;
  v.jitter = a.jitter;
  v.incarnations = a.incarnations + (a.has_live ? 1 : 0);
  v.open_ended = !a.ended;
  const sim::SimTime tolerance{std::max<std::int64_t>(
      static_cast<std::int64_t>(cfg_.jitter_fraction *
                                double(a.mean_iat.nanos())),
      cfg_.jitter_floor.nanos())};
  v.periodic = a.cadence_packets >= cfg_.min_packets &&
               a.mean_iat > sim::SimTime::zero() && a.jitter <= tolerance;
  return v;
}

std::vector<FlowView> CollectorNode::flows() const {
  std::vector<FlowView> out;
  out.reserve(flows_.size());
  for (const auto& [key, accum] : flows_) out.push_back(view_of(key, accum));
  return out;
}

std::vector<core::FlowStats> CollectorNode::measured_stats() const {
  std::vector<core::FlowStats> out;
  out.reserve(flows_.size());
  for (const FlowView& v : flows()) {
    core::FlowStats s;
    s.total_bytes = v.bytes;
    s.duration = v.duration();
    s.mean_packet_bytes = v.mean_packet_bytes();
    s.periodic = v.periodic;
    s.open_ended = v.open_ended;
    out.push_back(s);
  }
  return out;
}

std::uint64_t CollectorNode::fingerprint() const {
  std::uint64_t h = sim::kFnv1aOffset;
  const auto mix = [&h](std::uint64_t v) { sim::fnv1a64_mix(h, v); };
  for (const FlowView& v : flows()) {
    mix(v.key.src.bits());
    mix(v.key.dst.bits());
    mix((std::uint64_t(v.key.pcp) << 16) |
        std::uint64_t(static_cast<std::uint16_t>(v.key.ethertype)));
    mix(v.packets);
    mix(v.bytes);
    mix(v.wire_bytes);
    mix(static_cast<std::uint64_t>(v.first_seen.nanos()));
    mix(static_cast<std::uint64_t>(v.last_seen.nanos()));
    mix(static_cast<std::uint64_t>(v.mean_iat.nanos()));
    mix(static_cast<std::uint64_t>(v.jitter.nanos()));
    mix((std::uint64_t(v.open_ended) << 1) | std::uint64_t(v.periodic));
  }
  return h;
}

void CollectorNode::register_metrics(obs::ObsHub& hub) const {
  obs::MetricsRegistry& reg = hub.metrics();
  const std::string& node = name();
  reg.bind_counter({node, "flowmon", "frames_in"}, &counters_.frames_in);
  reg.bind_counter({node, "flowmon", "frames_filtered"},
                   &counters_.frames_filtered);
  reg.bind_counter({node, "flowmon", "messages"}, &counters_.messages);
  reg.bind_counter({node, "flowmon", "malformed"}, &counters_.malformed);
  reg.bind_counter({node, "flowmon", "records"}, &counters_.records);
  reg.bind_counter({node, "flowmon", "templates_learned"},
                   &counters_.templates_learned);
  reg.bind_counter({node, "flowmon", "records_without_template"},
                   &counters_.records_without_template);
  reg.bind_counter({node, "flowmon", "lost_records"},
                   &counters_.lost_records);
  reg.bind_counter({node, "flowmon", "sequence_reordered"},
                   &counters_.sequence_reordered);
  reg.bind_counter({node, "flowmon", "transform_dropped"},
                   &counters_.transform_dropped);
  reg.bind_counter({node, "flowmon", "reexported_records"},
                   &counters_.reexported_records);
  reg.bind_counter({node, "flowmon", "reexport_frames"},
                   &counters_.reexport_frames);
  reg.bind_gauge({node, "flowmon", "tracked_flows"},
                 [this] { return static_cast<double>(flows_.size()); });
  reg.bind_gauge({node, "flowmon", "pending_reexport"},
                 [this] { return static_cast<double>(pending_.size()); });
  lag_hist_ = &reg.make_histogram({node, "flowmon", "export_lag_us"}, 0.0,
                                  1'000'000.0, 200);
}

}  // namespace steelnet::flowmon
