// Mediation transforms between federation tiers: drop / remap / re-scale
// rules compiled against the input template, and the full encode ->
// decode round trip a plant-tier collector performs on mediated records.
#include "flowmon/transform.hpp"

#include <gtest/gtest.h>

namespace steelnet::flowmon {
namespace {

using namespace steelnet::sim::literals;

ExportRecord sample_record() {
  ExportRecord r;
  r.key.src = net::MacAddress{0x0a'1234'5678'9aULL};
  r.key.dst = net::MacAddress{0x0c'0000'000007ULL};
  r.key.pcp = 5;
  r.key.ethertype = net::EtherType::kIpv4;
  r.packets = 120;
  r.bytes = 48'000;
  r.wire_bytes = 50'160;
  r.first_seen = 1_ms;
  r.last_seen = 900_ms;
  r.min_iat = 990_us;
  r.mean_iat = 1_ms;
  r.jitter = 3_us;
  r.end_reason = EndReason::kIdleTimeout;
  return r;
}

TEST(Transform, IdentityRulesPassRecordsVerbatim) {
  const CompiledTransform t{TransformRules{}, flow_template()};
  EXPECT_EQ(t.wire_template().fields.size(),
            flow_template().fields.size());
  EXPECT_EQ(t.wire_template().id, flow_template().id);
  EXPECT_TRUE(t.keep(sample_record()));
  EXPECT_EQ(t.domain_or(42), 42u);

  MessageHeader h;
  h.observation_domain = 42;
  const auto buf = encode_transformed(h, t, /*include_template=*/true,
                                      {sample_record()});
  // The meter's exporter relies on this: identity rules encode the very
  // bytes encode_message does.
  EXPECT_EQ(buf, encode_message(h, flow_template(), true, {sample_record()}));
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].packets, 120u);
  EXPECT_EQ(msg->records[0].bytes, 48'000u);
  EXPECT_EQ(msg->records[0].min_iat, 990_us);
  EXPECT_EQ(msg->records[0].key, sample_record().key);
}

TEST(Transform, DropRemovesFieldFromWireTemplate) {
  TransformRules rules;
  rules.drops = {FieldId::kMinIatNs, FieldId::kJitterNs};
  const CompiledTransform t{rules, flow_template()};
  EXPECT_EQ(t.wire_template().fields.size(),
            flow_template().fields.size() - 2);
  for (const auto& f : t.wire_template().fields) {
    EXPECT_NE(f.id, FieldId::kMinIatNs);
    EXPECT_NE(f.id, FieldId::kJitterNs);
  }

  MessageHeader h;
  const auto buf = encode_transformed(h, t, true, {sample_record()});
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  // Dropped fields come back as defaults; the rest survive.
  EXPECT_EQ(msg->records[0].min_iat, sim::SimTime::zero());
  EXPECT_EQ(msg->records[0].jitter, sim::SimTime::zero());
  EXPECT_EQ(msg->records[0].mean_iat, 1_ms);
  EXPECT_EQ(msg->records[0].packets, 120u);
}

TEST(Transform, RemapExportsValueUnderNewId) {
  // The plant schema wants payload octets reported as layer-2 octets
  // (say its per-cell links bill on L2): remap kOctets -> kLayer2Octets,
  // dropping the original L2 counter to avoid a duplicate id.
  TransformRules rules;
  rules.drops = {FieldId::kLayer2Octets};
  rules.remaps = {{FieldId::kOctets, FieldId::kLayer2Octets}};
  const CompiledTransform t{rules, flow_template()};
  MessageHeader h;
  const auto buf = encode_transformed(h, t, true, {sample_record()});
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].wire_bytes, 48'000u);  // payload under L2's id
  EXPECT_EQ(msg->records[0].bytes, 0u);            // original id gone
}

TEST(Transform, ScaleRewritesUnitsWithoutOverflow) {
  TransformRules rules;
  rules.scales = {{FieldId::kMinIatNs, 1, 1000},   // ns -> us
                  {FieldId::kOctets, 8, 1}};       // bytes -> bits
  const CompiledTransform t{rules, flow_template()};
  auto r = sample_record();
  // A value where naive v * num would overflow 64 bits: ~2^61 ns.
  r.min_iat = sim::SimTime{0x2000'0000'0000'0000LL};
  MessageHeader h;
  const auto buf = encode_transformed(h, t, true, {r});
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].min_iat.nanos(),
            0x2000'0000'0000'0000LL / 1000);
  EXPECT_EQ(msg->records[0].bytes, 48'000u * 8u);
}

TEST(Transform, DomainAndTemplateIdRewrites) {
  TransformRules rules;
  rules.rewrite_domain = 900;
  rules.rewrite_template_id = 400;
  const CompiledTransform t{rules, flow_template()};
  EXPECT_EQ(t.domain_or(42), 900u);
  EXPECT_EQ(t.wire_template().id, 400u);

  MessageHeader h;
  h.observation_domain = t.domain_or(42);
  const auto buf = encode_transformed(h, t, true, {sample_record()});
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->header.observation_domain, 900u);
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].packets, 120u);
}

TEST(Transform, MinPacketsFiltersMediatedRecords) {
  TransformRules rules;
  rules.min_packets = 100;
  const CompiledTransform t{rules, flow_template()};
  auto keepable = sample_record();
  EXPECT_TRUE(t.keep(keepable));
  keepable.packets = 99;
  EXPECT_FALSE(t.keep(keepable));
}

TEST(Transform, ChainedTransformsSurviveTwoTiers) {
  // Cell -> plant -> site: the plant re-applies its own rules to what
  // the cell already mediated, the realistic two-hop chain. The second
  // compile binds against the first hop's *wire* template.
  TransformRules cell_rules;
  cell_rules.drops = {FieldId::kMinIatNs};
  cell_rules.scales = {{FieldId::kJitterNs, 1, 1000}};
  const CompiledTransform cell{cell_rules, flow_template()};

  TransformRules site_rules;
  site_rules.drops = {FieldId::kJitterNs};
  site_rules.rewrite_template_id = 500;
  const CompiledTransform site{site_rules, cell.wire_template()};

  MessageHeader h;
  const auto hop1 = encode_transformed(h, cell, true, {sample_record()});
  TemplateStore mid_store;
  const auto mid = decode_message(hop1, mid_store);
  ASSERT_TRUE(mid.has_value());
  ASSERT_EQ(mid->records.size(), 1u);
  EXPECT_EQ(mid->records[0].jitter.nanos(), 3);  // us now

  const auto hop2 = encode_transformed(h, site, true, mid->records);
  TemplateStore end_store;
  const auto end = decode_message(hop2, end_store);
  ASSERT_TRUE(end.has_value());
  ASSERT_EQ(end->records.size(), 1u);
  EXPECT_EQ(end->records[0].jitter, sim::SimTime::zero());
  EXPECT_EQ(end->records[0].min_iat, sim::SimTime::zero());
  EXPECT_EQ(end->records[0].packets, 120u);
  EXPECT_EQ(end->records[0].key, sample_record().key);
}

}  // namespace
}  // namespace steelnet::flowmon
