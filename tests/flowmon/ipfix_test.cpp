#include "flowmon/ipfix.hpp"

#include <gtest/gtest.h>

#include "ipfix_oracle.hpp"

namespace steelnet::flowmon {
namespace {

using namespace steelnet::sim::literals;

ExportRecord sample_record() {
  ExportRecord r;
  r.key.src = net::MacAddress{0x0a'1234'5678'9aULL};
  r.key.dst = net::MacAddress{0x0c'0000'000007ULL};
  r.key.pcp = 6;
  r.key.ethertype = net::EtherType::kProfinetRt;
  r.packets = 12345;
  r.bytes = 987654;
  r.wire_bytes = 1222333;
  r.first_seen = 1_ms;
  r.last_seen = 1900_ms;
  r.min_iat = 990_us;
  r.mean_iat = 1_ms;
  r.jitter = 3_us;
  r.end_reason = EndReason::kActiveTimeout;
  return r;
}

MessageHeader header_with(std::uint32_t seq) {
  MessageHeader h;
  h.observation_domain = 7;
  h.sequence = seq;
  h.export_time = 2_s;
  return h;
}

void expect_equal(const ExportRecord& a, const ExportRecord& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.first_seen, b.first_seen);
  EXPECT_EQ(a.last_seen, b.last_seen);
  EXPECT_EQ(a.min_iat, b.min_iat);
  EXPECT_EQ(a.mean_iat, b.mean_iat);
  EXPECT_EQ(a.jitter, b.jitter);
  EXPECT_EQ(a.end_reason, b.end_reason);
}

TEST(Ipfix, RoundTripThroughTemplate) {
  const auto buf = encode_message(header_with(42), flow_template(),
                                  /*include_template=*/true,
                                  {sample_record(), sample_record()});
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->header.version, MessageHeader::kVersion);
  EXPECT_EQ(msg->header.observation_domain, 7u);
  EXPECT_EQ(msg->header.sequence, 42u);
  EXPECT_EQ(msg->header.export_time, 2_s);
  EXPECT_EQ(msg->templates_learned, 1);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_EQ(msg->records.size(), 2u);
  expect_equal(msg->records[0], sample_record());
  expect_equal(msg->records[1], sample_record());
  EXPECT_EQ(msg->records_without_template, 0);
}

TEST(Ipfix, DataBeforeTemplateIsSkippedThenDecodesAfterLearning) {
  TemplateStore store;
  const auto data_only = encode_message(header_with(0), flow_template(),
                                        /*include_template=*/false,
                                        {sample_record()});
  auto msg = decode_message(data_only, store);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->records.size(), 0u);
  EXPECT_EQ(msg->records_without_template, 1);

  // Template-only advertisement, then the same data decodes.
  const auto tmpl_only = encode_message(header_with(0), flow_template(),
                                        /*include_template=*/true, {});
  ASSERT_TRUE(decode_message(tmpl_only, store).has_value());
  msg = decode_message(data_only, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  expect_equal(msg->records[0], sample_record());
}

TEST(Ipfix, TemplatesAreScopedPerObservationDomain) {
  TemplateStore store;
  const auto tmpl_only = encode_message(header_with(0), flow_template(),
                                        /*include_template=*/true, {});
  ASSERT_TRUE(decode_message(tmpl_only, store).has_value());
  // A different domain has not advertised template 256.
  auto other = header_with(0);
  other.observation_domain = 9;
  const auto data = encode_message(other, flow_template(),
                                   /*include_template=*/false,
                                   {sample_record()});
  const auto msg = decode_message(data, store);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->records.size(), 0u);
  EXPECT_EQ(msg->records_without_template, 1);
}

TEST(Ipfix, UnknownFieldsSkippedByWidth) {
  // A future meter exports an extra private field the collector does not
  // understand; template-driven decode skips it by width and still gets
  // the known fields right.
  Template extended;
  extended.id = 300;
  extended.fields = {{FieldId::kSrcMac, 6},
                     {static_cast<FieldId>(0x7777), 3},  // unknown to us
                     {FieldId::kPackets, 8},
                     {FieldId::kEndReason, 1}};
  ExportRecord r;
  r.key.src = net::MacAddress{0xbeef};
  r.packets = 999;
  r.end_reason = EndReason::kIdleTimeout;
  TemplateStore store;
  const auto buf =
      encode_message(header_with(0), extended, /*include_template=*/true, {r});
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].key.src.bits(), 0xbeefu);
  EXPECT_EQ(msg->records[0].packets, 999u);
  EXPECT_EQ(msg->records[0].end_reason, EndReason::kIdleTimeout);
}

TEST(Ipfix, MalformedBuffersRejected) {
  TemplateStore store;
  // Empty and garbage-version buffers.
  EXPECT_FALSE(decode_message({}, store).has_value());
  std::vector<std::uint8_t> bad(20, 0);
  bad[0] = 99;  // version (BE u16 at offset 0) != 10
  EXPECT_FALSE(decode_message(bad, store).has_value());
  // A valid message truncated mid-record: total length exceeds buffer.
  auto buf = encode_message(header_with(0), flow_template(),
                            /*include_template=*/true, {sample_record()});
  buf.resize(buf.size() - 10);
  EXPECT_FALSE(decode_message(buf, store).has_value());
  // Template advertising an absurd field width.
  std::vector<std::uint8_t> w = encode_message(header_with(0), flow_template(),
                                               /*include_template=*/true, {});
  // First field width lives at header(16) + set hdr(4) + tmpl id(2) +
  // field count(2) + field id(2); stomp it to 0.
  w[16 + 4 + 2 + 2 + 2] = 0;
  w[16 + 4 + 2 + 2 + 3] = 0;
  EXPECT_FALSE(decode_message(w, store).has_value());
  // A set whose declared length overruns the message.
  std::vector<std::uint8_t> s = encode_message(header_with(0), flow_template(),
                                               /*include_template=*/true, {});
  oracle::patch_be16(s, 16 + 2, static_cast<std::uint16_t>(s.size() + 8));
  EXPECT_FALSE(decode_message(s, store).has_value());
}

TEST(Ipfix, GoldenBigEndianWireBytes) {
  // Byte-exact RFC 7011 framing of a two-field template (one IANA, one
  // enterprise-specific) plus one data record: network byte order, the
  // 16-byte header, E-bit + PEN in the template set, 4-byte set padding.
  Template tmpl;
  tmpl.id = 257;
  tmpl.fields = {{FieldId::kPackets, 4}, {FieldId::kMinIatNs, 2}};
  ExportRecord r;
  r.packets = 0x01020304;
  r.min_iat = sim::SimTime{0x1122};

  MessageHeader h;
  h.export_time = 3_s;
  h.sequence = 0x0a0b0c0d;
  h.observation_domain = 5;
  const auto buf = encode_message(h, tmpl, /*include_template=*/true, {r});

  const std::vector<std::uint8_t> expected = {
      // header: version 10, length 48, exportTime 3 s, seq, domain 5
      0x00, 0x0a, 0x00, 0x30, 0x00, 0x00, 0x00, 0x03,
      0x0a, 0x0b, 0x0c, 0x0d, 0x00, 0x00, 0x00, 0x05,
      // template set (id 2, length 20): template 257, 2 fields
      0x00, 0x02, 0x00, 0x14, 0x01, 0x01, 0x00, 0x02,
      // packetDeltaCount(2) width 4; E-bit|1 width 2 + PEN 0xBEEF
      0x00, 0x02, 0x00, 0x04, 0x80, 0x01, 0x00, 0x02,
      0x00, 0x00, 0xbe, 0xef,
      // data set (id 257, length 12): record + 2 padding octets
      0x01, 0x01, 0x00, 0x0c, 0x01, 0x02, 0x03, 0x04,
      0x11, 0x22, 0x00, 0x00};
  EXPECT_EQ(buf, expected);

  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->header.sequence, 0x0a0b0c0du);
  EXPECT_EQ(msg->header.observation_domain, 5u);
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].packets, 0x01020304u);
  EXPECT_EQ(msg->records[0].min_iat.nanos(), 0x1122);
}

TEST(Ipfix, ExportTimeTruncatesToWireSeconds) {
  // exportTime is the RFC's 32-bit epoch-seconds field: sub-second
  // precision does not survive the wire.
  auto h = header_with(0);
  h.export_time = 2500_ms;
  TemplateStore store;
  const auto msg =
      decode_message(encode_message(h, flow_template(), true, {}), store);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->header.export_time, 2_s);
}

TEST(Ipfix, ForeignPenFieldDecodesAsOpaquePadding) {
  // A template whose enterprise field belongs to someone else's PEN:
  // the decoder honours its width (records still tile) but binds the
  // value to nothing.
  Template tmpl;
  tmpl.id = 300;
  tmpl.fields = {{FieldId::kPackets, 8},
                 {FieldId::kMinIatNs, 4},
                 {FieldId::kOctets, 8}};
  ExportRecord r;
  r.packets = 7;
  r.min_iat = sim::SimTime{0x55};
  r.bytes = 1234;
  auto buf = encode_message(header_with(0), tmpl, /*include_template=*/true,
                            {r});
  // PEN of the second field: header(16) + set hdr(4) + id/count(4) +
  // field1(4) + field2 id/width(4) => offset 32..35. Stomp to a foreign
  // enterprise.
  buf[34] = 0xde;
  buf[35] = 0xad;
  TemplateStore store;
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].packets, 7u);
  EXPECT_EQ(msg->records[0].bytes, 1234u);
  EXPECT_EQ(msg->records[0].min_iat, sim::SimTime::zero());  // unbound
}

TEST(Ipfix, DataSetMustTileIntoWholeRecords) {
  // Hand-built message: an 8-byte-record template, then a data set whose
  // 6 payload octets neither tile into records nor pass as <=3 padding.
  std::vector<std::uint8_t> buf;
  oracle::put_be(buf, MessageHeader::kVersion, 2);
  oracle::put_be(buf, 0, 2);  // length, patched below
  oracle::put_be(buf, 0, 4);
  oracle::put_be(buf, 0, 4);
  oracle::put_be(buf, 1, 4);
  oracle::put_be(buf, 2, 2);   // template set
  oracle::put_be(buf, 12, 2);  // set hdr + id/count + one field
  oracle::put_be(buf, 256, 2);
  oracle::put_be(buf, 1, 2);
  oracle::put_be(buf, static_cast<std::uint16_t>(FieldId::kPackets), 2);
  oracle::put_be(buf, 8, 2);
  oracle::put_be(buf, 256, 2);  // data set: 6 octets of "record"
  oracle::put_be(buf, 10, 2);
  for (int i = 0; i < 6; ++i) buf.push_back(0);
  oracle::patch_be16(buf, 2, static_cast<std::uint16_t>(buf.size()));
  TemplateStore store;
  EXPECT_FALSE(decode_message(buf, store).has_value());

  // The same set carrying one whole record + 3 octets is legal padding.
  buf.resize(buf.size() - 6);
  oracle::patch_be16(buf, buf.size() - 2, 4 + 8 + 3);
  oracle::put_be(buf, 0x0000000000000009ULL, 8);
  for (int i = 0; i < 3; ++i) buf.push_back(0);
  oracle::patch_be16(buf, 2, static_cast<std::uint16_t>(buf.size()));
  const auto msg = decode_message(buf, store);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->records.size(), 1u);
  EXPECT_EQ(msg->records[0].packets, 9u);
}

TEST(Ipfix, MessagesAreFourByteAligned) {
  for (std::size_t n : {0u, 1u, 2u, 3u}) {
    const std::vector<ExportRecord> records(n, sample_record());
    const auto buf = encode_message(header_with(0), flow_template(),
                                    /*include_template=*/true, records);
    EXPECT_EQ(buf.size() % 4, 0u) << n << " records";
    // The wire length field agrees with the actual buffer.
    const std::size_t declared = (std::size_t(buf[2]) << 8) | buf[3];
    EXPECT_EQ(declared, buf.size());
  }
}

TEST(Ipfix, TemplatesAreScopedPerExporterSession) {
  // Two exporters sharing an observation domain must not clobber each
  // other's templates: the store keys on (session, domain, id).
  TemplateStore store;
  const auto tmpl_only = encode_message(header_with(0), flow_template(),
                                        /*include_template=*/true, {});
  ASSERT_TRUE(decode_message(tmpl_only, store, /*session=*/0xAA).has_value());
  const auto data = encode_message(header_with(1), flow_template(),
                                   /*include_template=*/false,
                                   {sample_record()});
  // Session 0xBB never advertised template 256.
  auto msg = decode_message(data, store, /*session=*/0xBB);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->records.size(), 0u);
  EXPECT_EQ(msg->records_without_template, 1);
  // Session 0xAA decodes it fine.
  msg = decode_message(data, store, /*session=*/0xAA);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->records.size(), 1u);
}

TEST(Ipfix, ExportRecordSnapshotGuardsUnsampledIat) {
  FlowRecord r;
  r.key.src = net::MacAddress{1};
  r.packets = 1;
  r.bytes = 100;
  r.min_iat = sim::SimTime::max();  // never updated: single packet
  const auto e = to_export_record(r, EndReason::kForcedEnd);
  EXPECT_EQ(e.min_iat, sim::SimTime::zero());
  EXPECT_EQ(e.mean_iat, sim::SimTime::zero());
  EXPECT_EQ(e.jitter, sim::SimTime::zero());
  EXPECT_EQ(e.end_reason, EndReason::kForcedEnd);
}

TEST(Ipfix, RecordBytesMatchesTemplate) {
  // 6+6+2+1+8*8+1 = 80 bytes per record, the budget
  // Exporter::kRecordsPerMessage is sized against.
  EXPECT_EQ(flow_template().record_bytes(), 80u);
}

}  // namespace
}  // namespace steelnet::flowmon
