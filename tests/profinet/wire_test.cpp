#include "profinet/wire.hpp"

#include <gtest/gtest.h>

namespace steelnet::profinet {
namespace {

template <typename T>
T round_trip(const T& pdu) {
  const auto bytes = encode(Pdu{pdu});
  const auto back = decode(bytes);
  EXPECT_TRUE(back.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*back));
  return std::get<T>(*back);
}

TEST(Wire, ConnectReqRoundTrip) {
  ConnectReq p;
  p.ar_id = 0x1234;
  p.cycle_time_us = 500;
  p.watchdog_factor = 7;
  p.input_bytes = 20;
  p.output_bytes = 40;
  const auto q = round_trip(p);
  EXPECT_EQ(q.ar_id, 0x1234);
  EXPECT_EQ(q.cycle_time_us, 500u);
  EXPECT_EQ(q.watchdog_factor, 7);
  EXPECT_EQ(q.input_bytes, 20);
  EXPECT_EQ(q.output_bytes, 40);
}

TEST(Wire, ConnectRespRoundTrip) {
  ConnectResp p;
  p.ar_id = 9;
  p.status = 1;
  p.device_id = 0xdeadbeef;
  const auto q = round_trip(p);
  EXPECT_EQ(q.ar_id, 9);
  EXPECT_EQ(q.status, 1);
  EXPECT_EQ(q.device_id, 0xdeadbeefu);
}

TEST(Wire, ParamRecordRoundTrip) {
  ParamRecord p;
  p.ar_id = 2;
  p.record_index = 0x10;
  p.data = {1, 2, 3, 4, 5};
  const auto q = round_trip(p);
  EXPECT_EQ(q.record_index, 0x10);
  EXPECT_EQ(q.data, p.data);
}

TEST(Wire, CyclicDataRoundTrip) {
  CyclicData p;
  p.ar_id = 3;
  p.cycle_counter = 0xbeef;
  p.data_status = 0b101;
  p.data = {0xff, 0x00, 0x7f};
  const auto q = round_trip(p);
  EXPECT_EQ(q.cycle_counter, 0xbeef);
  EXPECT_TRUE(q.running());
  EXPECT_TRUE(q.valid());
  EXPECT_EQ(q.data, p.data);
}

TEST(Wire, StoppedStatusFlags) {
  CyclicData p;
  p.data_status = 0b100;
  EXPECT_FALSE(p.running());
  EXPECT_TRUE(p.valid());
}

TEST(Wire, AlarmAndReleaseRoundTrip) {
  Alarm a;
  a.ar_id = 5;
  a.alarm_type = Alarm::kWatchdogExpired;
  EXPECT_EQ(round_trip(a).alarm_type, Alarm::kWatchdogExpired);
  Release r;
  r.ar_id = 6;
  EXPECT_EQ(round_trip(r).ar_id, 6);
}

TEST(Wire, ParamDoneRoundTrip) {
  ParamDone p;
  p.ar_id = 11;
  EXPECT_EQ(round_trip(p).ar_id, 11);
}

TEST(Wire, DecodeRejectsMalformed) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({99}).has_value());            // unknown type
  EXPECT_FALSE(decode({1, 0x34}).has_value());       // truncated ConnectReq
  // CyclicData claiming more data than present.
  CyclicData p;
  p.data = {1, 2, 3};
  auto bytes = encode(Pdu{p});
  bytes.pop_back();
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, DecodeIntoReusesStorageAndMatchesDecode) {
  CyclicData big;
  big.ar_id = 2;
  big.cycle_counter = 41;
  big.data.assign(16, 0xab);
  CyclicData small = big;
  small.cycle_counter = 42;
  small.data = {7, 8};
  ConnectReq req;
  req.ar_id = 9;

  Pdu into;
  ASSERT_TRUE(decode_into(encode(Pdu{big}), into));
  const std::uint8_t* buffer = std::get<CyclicData>(into).data.data();
  // Same type again: parsed in place, the data buffer is reused.
  ASSERT_TRUE(decode_into(encode(Pdu{small}), into));
  EXPECT_EQ(std::get<CyclicData>(into).data.data(), buffer);
  EXPECT_EQ(encode(into), encode(Pdu{small}));
  // Switching types decodes exactly what decode() does.
  for (const Pdu& pdu : {Pdu{req}, Pdu{big}}) {
    const auto bytes = encode(pdu);
    ASSERT_TRUE(decode_into(bytes, into));
    EXPECT_EQ(encode(into), encode(*decode(bytes)));
  }
  EXPECT_FALSE(decode_into({1, 0x34}, into));  // truncated ConnectReq
}

TEST(Wire, OffsetsMatchEncoding) {
  CyclicData p;
  p.ar_id = 0x1122;
  p.cycle_counter = 0x3344;
  p.data_status = 0x05;
  const auto bytes = encode(Pdu{p});
  EXPECT_EQ(bytes[offsets::kPduType],
            static_cast<std::uint8_t>(PduType::kCyclicData));
  EXPECT_EQ(bytes[offsets::kArId], 0x22);
  EXPECT_EQ(bytes[offsets::kArId + 1], 0x11);
  EXPECT_EQ(bytes[offsets::kCycleCounter], 0x44);
  EXPECT_EQ(bytes[offsets::kDataStatus], 0x05);
}

TEST(Wire, TypeNames) {
  EXPECT_STREQ(to_string(PduType::kCyclicData).c_str(), "CyclicData");
  EXPECT_STREQ(to_string(PduType::kConnectReq).c_str(), "ConnectReq");
}

}  // namespace
}  // namespace steelnet::profinet
