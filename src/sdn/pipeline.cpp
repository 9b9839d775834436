#include "sdn/pipeline.hpp"

#include <stdexcept>

namespace steelnet::sdn {

std::vector<std::uint64_t> extract_key(const std::vector<FieldSpec>& fields,
                                       const net::Frame& frame,
                                       net::PortId in_port) {
  std::vector<std::uint64_t> key;
  key.reserve(fields.size());
  for (const auto& f : fields) {
    switch (f.kind) {
      case FieldKind::kInPort:
        key.push_back(in_port);
        break;
      case FieldKind::kEthSrc:
        key.push_back(frame.src.bits());
        break;
      case FieldKind::kEthDst:
        key.push_back(frame.dst.bits());
        break;
      case FieldKind::kEtherType:
        key.push_back(static_cast<std::uint64_t>(frame.ethertype));
        break;
      case FieldKind::kPayloadU8:
        key.push_back(f.offset < frame.payload.size()
                          ? frame.payload[f.offset]
                          : 0);
        break;
      case FieldKind::kPayloadU16:
        key.push_back(f.offset + 1 < frame.payload.size()
                          ? static_cast<std::uint64_t>(
                                frame.payload[f.offset] |
                                (frame.payload[f.offset + 1] << 8))
                          : 0);
        break;
    }
  }
  return key;
}

Table::Table(std::string name, std::vector<FieldSpec> key_fields,
             ActionList default_actions)
    : name_(std::move(name)),
      key_fields_(std::move(key_fields)),
      default_actions_(std::move(default_actions)) {}

EntryId Table::add_entry(TableEntry entry) {
  if (entry.values.size() != key_fields_.size()) {
    throw std::invalid_argument("Table " + name_ +
                                ": entry key width mismatch");
  }
  if (!entry.masks.empty() && entry.masks.size() != key_fields_.size()) {
    throw std::invalid_argument("Table " + name_ + ": mask width mismatch");
  }
  const EntryId id = next_id_++;
  entries_.emplace_back(id, std::move(entry));
  return id;
}

bool Table::set_actions(EntryId id, ActionList actions) {
  for (auto& [eid, e] : entries_) {
    if (eid == id) {
      e.actions = std::move(actions);
      return true;
    }
  }
  return false;
}

std::size_t Table::size() const { return entries_.size(); }

const TableEntry* Table::entry(EntryId id) const {
  for (const auto& [eid, e] : entries_) {
    if (eid == id) return &e;
  }
  return nullptr;
}

const ActionList& Table::match(const net::Frame& frame, net::PortId in_port,
                               std::uint64_t& hit_entry_out) {
  const auto key = extract_key(key_fields_, frame, in_port);
  TableEntry* best = nullptr;
  EntryId best_id = kDefaultEntry;
  for (auto& [id, e] : entries_) {
    bool ok = true;
    for (std::size_t i = 0; i < key.size(); ++i) {
      const std::uint64_t mask =
          e.masks.empty() ? ~0ULL : e.masks[i];
      if ((key[i] & mask) != (e.values[i] & mask)) {
        ok = false;
        break;
      }
    }
    if (ok && (best == nullptr || e.priority > best->priority)) {
      best = &e;
      best_id = id;
    }
  }
  if (best == nullptr) {
    ++default_hits_;
    hit_entry_out = kDefaultEntry;
    return default_actions_;
  }
  ++best->hits;
  best->hit_bytes += frame.wire_bytes();
  hit_entry_out = best_id;
  return best->actions;
}

std::size_t Pipeline::add_table(Table table) {
  tables_.push_back(std::move(table));
  return tables_.size() - 1;
}

PipelineResult Pipeline::process(net::Frame& frame, net::PortId in_port) {
  PipelineResult result;
  if (tables_.empty()) {
    result.dropped = true;
    return result;
  }
  std::optional<net::PortId> egress;
  std::vector<EgressCopy> mirrors;
  bool drop = false;

  std::size_t table_idx = 0;
  // Goto chains are bounded by the table count (no loops by construction:
  // each traversal visits each table at most once).
  for (std::size_t steps = 0; steps <= tables_.size(); ++steps) {
    std::uint64_t hit;
    const ActionList& actions = tables_[table_idx].match(frame, in_port, hit);
    std::optional<std::size_t> next;
    for (const auto& a : actions) {
      switch (a.kind) {
        case ActionPrimitive::Kind::kSetEgress:
          egress = static_cast<net::PortId>(a.arg0);
          break;
        case ActionPrimitive::Kind::kAddMirror:
          mirrors.push_back(
              {static_cast<net::PortId>(a.arg0), std::nullopt, std::nullopt});
          break;
        case ActionPrimitive::Kind::kAddMirrorDst:
          mirrors.push_back({static_cast<net::PortId>(a.arg0),
                             net::MacAddress{a.arg1}, std::nullopt});
          break;
        case ActionPrimitive::Kind::kAddMirrorXform:
          mirrors.push_back({static_cast<net::PortId>(a.arg0),
                             net::MacAddress{a.arg1},
                             CopyRewrite{a.offset, a.bytes}});
          break;
        case ActionPrimitive::Kind::kDrop:
          drop = true;
          break;
        case ActionPrimitive::Kind::kSetDst:
          frame.dst = net::MacAddress{a.arg0};
          break;
        case ActionPrimitive::Kind::kSetSrc:
          frame.src = net::MacAddress{a.arg0};
          break;
        case ActionPrimitive::Kind::kRewriteBytes:
          for (std::size_t i = 0; i < a.bytes.size(); ++i) {
            if (a.offset + i < frame.payload.size()) {
              frame.payload[a.offset + i] = a.bytes[i];
            }
          }
          break;
        case ActionPrimitive::Kind::kPunt:
          result.punted = true;
          break;
        case ActionPrimitive::Kind::kGotoTable:
          if (a.arg0 < tables_.size()) next = a.arg0;
          break;
      }
    }
    if (!next.has_value()) break;
    table_idx = *next;
  }

  if (!drop && egress.has_value()) {
    result.egress.push_back({*egress, std::nullopt, std::nullopt});
  }
  for (const EgressCopy& m : mirrors) result.egress.push_back(m);
  result.dropped = result.egress.empty();
  return result;
}

}  // namespace steelnet::sdn
