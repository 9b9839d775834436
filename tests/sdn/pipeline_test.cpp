#include "sdn/pipeline.hpp"

#include <gtest/gtest.h>

namespace steelnet::sdn {
namespace {

net::Frame frame(std::uint64_t src, std::uint64_t dst,
                 std::vector<std::uint8_t> payload = {0}) {
  net::Frame f;
  f.src = net::MacAddress{src};
  f.dst = net::MacAddress{dst};
  f.ethertype = net::EtherType::kProfinetRt;
  f.payload = std::move(payload);
  return f;
}

std::vector<FieldSpec> key_port_src() {
  return {{FieldKind::kInPort, 0}, {FieldKind::kEthSrc, 0}};
}

TEST(ExtractKey, AllFieldKinds) {
  auto f = frame(0xaa, 0xbb, {0x11, 0x22, 0x33});
  const auto key = extract_key({{FieldKind::kInPort, 0},
                                {FieldKind::kEthSrc, 0},
                                {FieldKind::kEthDst, 0},
                                {FieldKind::kEtherType, 0},
                                {FieldKind::kPayloadU8, 1},
                                {FieldKind::kPayloadU16, 1}},
                               f, 7);
  EXPECT_EQ(key[0], 7u);
  EXPECT_EQ(key[1], 0xaau);
  EXPECT_EQ(key[2], 0xbbu);
  EXPECT_EQ(key[3], 0x8892u);
  EXPECT_EQ(key[4], 0x22u);
  EXPECT_EQ(key[5], 0x3322u);
}

TEST(ExtractKey, OutOfRangePayloadIsZero) {
  auto f = frame(1, 2, {0x11});
  const auto key =
      extract_key({{FieldKind::kPayloadU8, 5}, {FieldKind::kPayloadU16, 0}},
                  f, 0);
  EXPECT_EQ(key[0], 0u);
  EXPECT_EQ(key[1], 0u);  // u16 needs 2 bytes
}

TEST(Table, ExactMatchAndCounters) {
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {1, 0xaa};
  e.actions = {ActionPrimitive::set_egress(3)};
  const auto id = t.add_entry(std::move(e));

  auto f = frame(0xaa, 0xbb);
  std::uint64_t hit;
  const auto& a = t.match(f, 1, hit);
  EXPECT_EQ(hit, id);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].kind, ActionPrimitive::Kind::kSetEgress);
  EXPECT_EQ(t.entry(id)->hits, 1u);
  EXPECT_GT(t.entry(id)->hit_bytes, 0u);

  // Different port: default (drop), counted separately.
  t.match(f, 2, hit);
  EXPECT_EQ(hit, Table::kDefaultEntry);
  EXPECT_EQ(t.default_hits(), 1u);
}

TEST(Table, TernaryWildcard) {
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {0, 0xaa};
  e.masks = {0, ~0ULL};  // any port, exact src
  e.actions = {ActionPrimitive::set_egress(1)};
  t.add_entry(std::move(e));
  auto f = frame(0xaa, 1);
  std::uint64_t hit;
  t.match(f, 9, hit);
  EXPECT_NE(hit, Table::kDefaultEntry);
}

TEST(Table, PriorityWins) {
  Table t("t", key_port_src());
  TableEntry low;
  low.values = {0, 0};
  low.masks = {0, 0};  // match-all
  low.priority = 1;
  low.actions = {ActionPrimitive::set_egress(1)};
  t.add_entry(std::move(low));
  TableEntry high;
  high.values = {0, 0xaa};
  high.masks = {0, ~0ULL};
  high.priority = 10;
  high.actions = {ActionPrimitive::set_egress(2)};
  t.add_entry(std::move(high));

  auto f = frame(0xaa, 1);
  std::uint64_t hit;
  EXPECT_EQ(t.match(f, 0, hit)[0].arg0, 2u);
  auto g = frame(0xcc, 1);
  EXPECT_EQ(t.match(g, 0, hit)[0].arg0, 1u);
}

TEST(Table, UpdateEntries) {
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {1, 2};
  e.actions = {ActionPrimitive::set_egress(1)};
  const auto id = t.add_entry(std::move(e));
  EXPECT_TRUE(t.set_actions(id, {ActionPrimitive::drop()}));
  EXPECT_EQ(t.entry(id)->actions[0].kind, ActionPrimitive::Kind::kDrop);
  EXPECT_FALSE(t.set_actions(id + 1, {}));  // never issued
  EXPECT_EQ(t.size(), 1u);
}

TEST(Table, RejectsKeyWidthMismatch) {
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {1};
  EXPECT_THROW(t.add_entry(std::move(e)), std::invalid_argument);
  TableEntry m;
  m.values = {1, 2};
  m.masks = {1};
  EXPECT_THROW(t.add_entry(std::move(m)), std::invalid_argument);
}

TEST(Pipeline, EmptyPipelineDrops) {
  Pipeline p;
  auto f = frame(1, 2);
  EXPECT_TRUE(p.process(f, 0).dropped);
}

TEST(Pipeline, ForwardMirrorAndRewrite) {
  Pipeline p;
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {0, 1};
  e.actions = {ActionPrimitive::rewrite_bytes(0, {0x99}),
               ActionPrimitive::set_egress(5),
               ActionPrimitive::add_mirror(6)};
  t.add_entry(std::move(e));
  p.add_table(std::move(t));

  auto f = frame(1, 2, {0x00, 0x01});
  const auto r = p.process(f, 0);
  ASSERT_EQ(r.egress.size(), 2u);
  EXPECT_EQ(r.egress[0].port, 5);
  EXPECT_EQ(r.egress[1].port, 6);
  EXPECT_EQ(f.payload[0], 0x99);
  EXPECT_FALSE(r.dropped);
}

TEST(Pipeline, MirrorWithDstOverride) {
  Pipeline p;
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {0, 0};
  e.masks = {0, 0};
  e.actions = {ActionPrimitive::set_egress(1),
               ActionPrimitive::add_mirror_with_dst(2, net::MacAddress{0x77})};
  t.add_entry(std::move(e));
  p.add_table(std::move(t));
  auto f = frame(1, 2);
  const auto r = p.process(f, 0);
  ASSERT_EQ(r.egress.size(), 2u);
  EXPECT_FALSE(r.egress[0].dst_override.has_value());
  ASSERT_TRUE(r.egress[1].dst_override.has_value());
  EXPECT_EQ(r.egress[1].dst_override->bits(), 0x77u);
}

TEST(Pipeline, TransformedMirrorCarriesRewrite) {
  Pipeline p;
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {0, 0};
  e.masks = {0, 0};
  e.actions = {ActionPrimitive::set_egress(1),
               ActionPrimitive::add_mirror_transformed(
                   2, net::MacAddress{0x77}, 1, {0xab, 0xcd})};
  t.add_entry(std::move(e));
  p.add_table(std::move(t));
  auto f = frame(1, 2, {0, 0, 0});
  const auto r = p.process(f, 0);
  ASSERT_EQ(r.egress.size(), 2u);
  ASSERT_TRUE(r.egress[1].rewrite.has_value());
  EXPECT_EQ(r.egress[1].rewrite->offset, 1u);
  EXPECT_EQ(r.egress[1].rewrite->bytes,
            (std::vector<std::uint8_t>{0xab, 0xcd}));
  // The original frame's payload is untouched by per-copy rewrites.
  EXPECT_EQ(f.payload[1], 0);
}

TEST(Pipeline, DropBeatsEgress) {
  Pipeline p;
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {0, 0};
  e.masks = {0, 0};
  e.actions = {ActionPrimitive::set_egress(1), ActionPrimitive::drop()};
  t.add_entry(std::move(e));
  p.add_table(std::move(t));
  auto f = frame(1, 2);
  const auto r = p.process(f, 0);
  // Explicit drop removes the unicast egress; mirrors would survive
  // (none here), so the frame is dropped.
  EXPECT_TRUE(r.dropped);
}

TEST(Pipeline, GotoTableChains) {
  Pipeline p;
  Table t0("classify", {{FieldKind::kEthSrc, 0}});
  TableEntry e0;
  e0.values = {1};
  e0.actions = {ActionPrimitive::goto_table(1)};
  t0.add_entry(std::move(e0));
  p.add_table(std::move(t0));
  Table t1("route", {{FieldKind::kEthDst, 0}});
  TableEntry e1;
  e1.values = {2};
  e1.actions = {ActionPrimitive::set_egress(9)};
  t1.add_entry(std::move(e1));
  p.add_table(std::move(t1));

  auto f = frame(1, 2);
  const auto r = p.process(f, 0);
  ASSERT_EQ(r.egress.size(), 1u);
  EXPECT_EQ(r.egress[0].port, 9);
}

TEST(Pipeline, PuntFlagSet) {
  Pipeline p;
  Table t("t", key_port_src());
  TableEntry e;
  e.values = {0, 0};
  e.masks = {0, 0};
  e.actions = {ActionPrimitive::punt(), ActionPrimitive::set_egress(1)};
  t.add_entry(std::move(e));
  p.add_table(std::move(t));
  auto f = frame(1, 2);
  const auto r = p.process(f, 0);
  EXPECT_TRUE(r.punted);
  EXPECT_EQ(r.egress.size(), 1u);
}

}  // namespace
}  // namespace steelnet::sdn
