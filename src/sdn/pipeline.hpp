// steelnet::sdn -- a P4-style match-action pipeline.
//
// The shape mirrors the DPDK SWX pipeline the paper built InstaPLC on
// (§4): typed match keys extracted from the frame, ternary tables with
// priorities, action lists (forward / mirror / rewrite / punt), and
// per-entry hit counters. The control plane is whoever holds a reference
// to the Pipeline and edits its tables.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/node.hpp"

namespace steelnet::sdn {

/// What part of the frame a key field reads.
enum class FieldKind : std::uint8_t {
  kInPort,
  kEthSrc,
  kEthDst,
  kEtherType,
  kPayloadU8,   ///< payload byte at `offset` (0 when out of range)
  kPayloadU16,  ///< little-endian u16 at `offset`
};

struct FieldSpec {
  FieldKind kind;
  std::size_t offset = 0;  ///< for the payload kinds
};

/// Extracts the key fields of one frame.
[[nodiscard]] std::vector<std::uint64_t> extract_key(
    const std::vector<FieldSpec>& fields, const net::Frame& frame,
    net::PortId in_port);

/// One step of an action list.
struct ActionPrimitive {
  enum class Kind : std::uint8_t {
    kSetEgress,       ///< arg0 = port
    kAddMirror,       ///< arg0 = port (copy also sent here)
    kAddMirrorDst,    ///< arg0 = port, arg1 = dst mac bits
    kAddMirrorXform,  ///< kAddMirrorDst + payload rewrite on the copy
    kDrop,            ///< terminal: no egress
    kSetDst,          ///< arg0 = mac bits
    kSetSrc,          ///< arg0 = mac bits
    kRewriteBytes,    ///< payload[offset..] = bytes
    kPunt,            ///< count the frame as punted to the controller
    kGotoTable,       ///< arg0 = next table index
  };
  Kind kind;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::size_t offset = 0;
  std::vector<std::uint8_t> bytes;

  static ActionPrimitive set_egress(net::PortId port) {
    return {Kind::kSetEgress, port, 0, 0, {}};
  }
  static ActionPrimitive add_mirror(net::PortId port) {
    return {Kind::kAddMirror, port, 0, 0, {}};
  }
  /// Mirror whose copy gets a rewritten destination MAC -- lets a copy
  /// pass another host's NIC filter (InstaPLC's rule 3: device frames go
  /// to both the primary and the secondary vPLC).
  static ActionPrimitive add_mirror_with_dst(net::PortId port,
                                             net::MacAddress dst) {
    return {Kind::kAddMirrorDst, port, dst.bits(), 0, {}};
  }
  /// Mirror with rewritten destination MAC *and* a payload rewrite on
  /// the copy only (e.g. translating the AR id for a standby controller).
  static ActionPrimitive add_mirror_transformed(
      net::PortId port, net::MacAddress dst, std::size_t offset,
      std::vector<std::uint8_t> bytes) {
    return {Kind::kAddMirrorXform, port, dst.bits(), offset,
            std::move(bytes)};
  }
  static ActionPrimitive drop() { return {Kind::kDrop, 0, 0, 0, {}}; }
  static ActionPrimitive set_dst(net::MacAddress mac) {
    return {Kind::kSetDst, mac.bits(), 0, 0, {}};
  }
  static ActionPrimitive set_src(net::MacAddress mac) {
    return {Kind::kSetSrc, mac.bits(), 0, 0, {}};
  }
  static ActionPrimitive rewrite_bytes(std::size_t offset,
                                       std::vector<std::uint8_t> bytes) {
    return {Kind::kRewriteBytes, 0, 0, offset, std::move(bytes)};
  }
  static ActionPrimitive punt() { return {Kind::kPunt, 0, 0, 0, {}}; }
  static ActionPrimitive goto_table(std::size_t table) {
    return {Kind::kGotoTable, table, 0, 0, {}};
  }
};

using ActionList = std::vector<ActionPrimitive>;

/// A ternary entry: matches when (key & mask) == (value & mask) for every
/// field. Highest priority wins; ties break to the earliest-added entry.
struct TableEntry {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> masks;  ///< empty = exact match on all fields
  std::int32_t priority = 0;
  ActionList actions;
  std::string label;  ///< for debugging/tests
  // --- runtime ---
  std::uint64_t hits = 0;
  std::uint64_t hit_bytes = 0;
};

using EntryId = std::uint64_t;

class Table {
 public:
  Table(std::string name, std::vector<FieldSpec> key_fields,
        ActionList default_actions = {ActionPrimitive::drop()});

  EntryId add_entry(TableEntry entry);
  /// Replaces the actions of an existing entry (hitless rule update).
  bool set_actions(EntryId id, ActionList actions);

  /// Matches `frame`; returns the winning entry's actions (updating its
  /// counters) or the default actions.
  const ActionList& match(const net::Frame& frame, net::PortId in_port,
                          std::uint64_t& hit_entry_out);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const TableEntry* entry(EntryId id) const;
  [[nodiscard]] std::uint64_t default_hits() const { return default_hits_; }
  [[nodiscard]] const std::vector<FieldSpec>& key_fields() const {
    return key_fields_;
  }

  static constexpr EntryId kDefaultEntry = static_cast<EntryId>(-1);

 private:
  std::string name_;
  std::vector<FieldSpec> key_fields_;
  ActionList default_actions_;
  std::vector<std::pair<EntryId, TableEntry>> entries_;
  EntryId next_id_ = 0;
  std::uint64_t default_hits_ = 0;
};

/// A payload rewrite applied to a single egress copy.
struct CopyRewrite {
  std::size_t offset;
  std::vector<std::uint8_t> bytes;
};

/// One output copy of a pipeline traversal.
struct EgressCopy {
  net::PortId port;
  /// When set, this copy's destination MAC is rewritten on emission.
  std::optional<net::MacAddress> dst_override;
  /// When set, these payload bytes are rewritten on this copy only.
  std::optional<CopyRewrite> rewrite;
};

/// The verdict of a pipeline traversal.
struct PipelineResult {
  std::vector<EgressCopy> egress;  ///< primary + mirrors, in order
  bool punted = false;
  bool dropped = false;  ///< explicit drop (or no egress set)
};

class Pipeline {
 public:
  /// Adds a table; returns its index. Execution starts at table 0.
  std::size_t add_table(Table table);
  [[nodiscard]] Table& table(std::size_t idx) { return tables_.at(idx); }
  [[nodiscard]] const Table& table(std::size_t idx) const {
    return tables_.at(idx);
  }
  [[nodiscard]] std::size_t table_count() const { return tables_.size(); }

  /// Runs the frame through the tables (following GotoTable, bounded by
  /// the table count to keep traversal loop-free). May rewrite `frame`.
  PipelineResult process(net::Frame& frame, net::PortId in_port);

 private:
  std::vector<Table> tables_;
};

}  // namespace steelnet::sdn
