// The IPFIX codec against its byte-at-a-time oracle (ipfix_oracle.hpp):
// the encoder must write the oracle's bytes for any template, and the
// decoder must make the oracle's accept/reject decision and decode the
// same fields from any buffer -- golden encodings put through a seeded
// mutator of byte flips, truncations, splices and set-header tweaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flowmon/ipfix.hpp"
#include "ipfix_oracle.hpp"
#include "sim/random.hpp"

namespace steelnet::flowmon {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Every element the codec binds, the foreign-enterprise marker, and one
/// IANA and one enterprise element it does not know.
constexpr FieldId kFieldPool[] = {
    FieldId::kOctets,      FieldId::kPackets,     FieldId::kSrcMac,
    FieldId::kDstMac,      FieldId::kEndReason,   FieldId::kFirstSeenNs,
    FieldId::kLastSeenNs,  FieldId::kVlanPcp,     FieldId::kEtherType,
    FieldId::kLayer2Octets, FieldId::kMinIatNs,   FieldId::kMeanIatNs,
    FieldId::kJitterNs,    FieldId::kForeignField,
    static_cast<FieldId>(0x0777),
    static_cast<FieldId>(kEnterpriseBit | 0x0042),
};

std::uint64_t any_u64(sim::Rng& rng) {
  // Small values half the time, so short fields also see in-range ones.
  return rng.bernoulli(0.5) ? static_cast<std::uint64_t>(
                                  rng.uniform_int(0, 300))
                            : rng.next_u64();
}

sim::SimTime any_time(sim::Rng& rng) {
  return sim::SimTime{static_cast<std::int64_t>(any_u64(rng) >> 1)};
}

Template random_template(sim::Rng& rng) {
  Template t;
  t.id = static_cast<std::uint16_t>(rng.uniform_int(256, 65535));
  const auto n = rng.uniform_int(1, 24);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, std::int64_t(std::size(kFieldPool)) - 1));
    t.fields.push_back(
        {kFieldPool[pick], static_cast<std::uint8_t>(rng.uniform_int(1, 8))});
  }
  return t;
}

ExportRecord random_record(sim::Rng& rng) {
  ExportRecord r;
  r.key.src = net::MacAddress{any_u64(rng)};
  r.key.dst = net::MacAddress{any_u64(rng)};
  r.key.pcp = static_cast<std::uint8_t>(any_u64(rng));
  r.key.ethertype = static_cast<net::EtherType>(any_u64(rng));
  r.packets = any_u64(rng);
  r.bytes = any_u64(rng);
  r.wire_bytes = any_u64(rng);
  r.first_seen = any_time(rng);
  r.last_seen = any_time(rng);
  r.min_iat = any_time(rng);
  r.mean_iat = any_time(rng);
  r.jitter = any_time(rng);
  r.end_reason = static_cast<EndReason>(any_u64(rng));
  return r;
}

MessageHeader random_header(sim::Rng& rng) {
  MessageHeader h;
  h.observation_domain = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  h.sequence = static_cast<std::uint32_t>(rng.next_u64());
  h.export_time = sim::seconds(rng.uniform_int(0, 0xffff'ffffLL));
  return h;
}

TEST(IpfixDifferential, EncoderWritesTheOraclesBytes) {
  sim::Rng rng{35};
  std::size_t with_template = 0, records = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const Template tmpl = iter == 0 ? flow_template() : random_template(rng);
    const MessageHeader header = random_header(rng);
    const bool include_template = rng.bernoulli(0.5);
    std::vector<ExportRecord> batch(
        static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (ExportRecord& r : batch) r = random_record(rng);
    with_template += include_template ? 1 : 0;
    records += batch.size();

    ASSERT_EQ(encode_message(header, tmpl, include_template, batch),
              oracle::encode_message(header, tmpl, include_template, batch))
        << "iteration " << iter;
    const std::uint64_t salt = rng.next_u64();
    const auto value = [salt](std::size_t r, std::size_t f) {
      return (salt ^ (r * 0x9e3779b97f4a7c15ULL)) >> (f % 64);
    };
    ASSERT_EQ(
        encode_message_fn(header, tmpl, include_template, batch.size(), value),
        oracle::encode_message_fn(header, tmpl, include_template, batch.size(),
                                  value))
        << "iteration " << iter;
  }
  EXPECT_GT(with_template, 1000u);
  EXPECT_GT(records, 40'000u);
}

/// Encodings the mutator starts from: the meter's own template and
/// records, a template-only and a data-only message, and messages of
/// seeded random templates.
std::vector<Bytes> golden_encodings() {
  sim::Rng rng{2035};
  std::vector<Bytes> out;
  std::vector<ExportRecord> batch(16);
  for (ExportRecord& r : batch) r = random_record(rng);
  MessageHeader h;
  h.observation_domain = 1;
  out.push_back(encode_message(h, flow_template(), true, batch));
  out.push_back(encode_message(h, flow_template(), true, {}));
  out.push_back(encode_message(h, flow_template(), false, batch));
  out.push_back(encode_message(h, flow_template(), true,
                               {batch.begin(), batch.begin() + 3}));
  for (int i = 0; i < 12; ++i) {
    const Template tmpl = random_template(rng);
    std::vector<ExportRecord> recs(
        static_cast<std::size_t>(rng.uniform_int(0, 12)));
    for (ExportRecord& r : recs) r = random_record(rng);
    out.push_back(encode_message(random_header(rng), tmpl, true, recs));
  }
  return out;
}

/// Offsets of the set headers of a well-formed message.
std::vector<std::size_t> set_offsets(const Bytes& m) {
  std::vector<std::size_t> at;
  for (std::size_t p = 16; p + 4 <= m.size();) {
    at.push_back(p);
    const std::size_t len = (std::size_t{m[p + 2]} << 8) | m[p + 3];
    if (len < 4) break;
    p += len;
  }
  return at;
}

void put16(Bytes& m, std::size_t at, std::uint64_t v) {
  if (at + 2 > m.size()) return;
  m[at] = static_cast<std::uint8_t>(v >> 8);
  m[at + 1] = static_cast<std::uint8_t>(v);
}

/// One seeded mutation of `m`; `goldens` feed the splices.
void mutate(Bytes& m, const std::vector<Bytes>& goldens, sim::Rng& rng) {
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, std::int64_t(n) - 1));
  };
  const std::vector<std::size_t> sets = set_offsets(m);
  switch (rng.uniform_int(0, 6)) {
    case 0:  // byte flip
      if (!m.empty()) {
        m[pos(m.size())] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      }
      break;
    case 1:  // truncation
      m.resize(m.empty() ? 0 : pos(m.size()));
      break;
    case 2: {  // splice: a slice of another golden over or into this one
      const Bytes& g = goldens[pos(goldens.size())];
      const std::size_t from = pos(g.size());
      const std::size_t len =
          std::min<std::size_t>(g.size() - from, pos(64) + 1);
      const std::size_t at = m.empty() ? 0 : pos(m.size() + 1);
      if (rng.bernoulli(0.5)) {
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                 g.begin() + static_cast<std::ptrdiff_t>(from),
                 g.begin() + static_cast<std::ptrdiff_t>(from + len));
      } else {
        m.resize(std::max(m.size(), at + len));
        std::copy_n(g.begin() + static_cast<std::ptrdiff_t>(from), len,
                    m.begin() + static_cast<std::ptrdiff_t>(at));
      }
      break;
    }
    case 3:  // set length: off by a few octets, or anything
      if (!sets.empty()) {
        const std::size_t s = sets[pos(sets.size())];
        const std::uint64_t len = (std::uint64_t{m[s + 2]} << 8) | m[s + 3];
        put16(m, s + 2,
              rng.bernoulli(0.7) ? len + static_cast<std::uint64_t>(
                                             rng.uniform_int(-5, 5))
                                 : rng.next_u64());
      }
      break;
    case 4:  // set id: template, options template, low, or another data id
      if (!sets.empty()) {
        constexpr std::uint64_t kIds[] = {0, 2, 3, 255, 256, 257, 300};
        put16(m, sets[pos(sets.size())],
              rng.bernoulli(0.8) ? kIds[pos(std::size(kIds))]
                                 : rng.next_u64());
      }
      break;
    case 5:  // message length
      put16(m, 2,
            rng.bernoulli(0.5)
                ? m.size() + static_cast<std::uint64_t>(rng.uniform_int(-6, 6))
                : rng.next_u64());
      break;
    default:  // a template field's width or id (inside the template set)
      if (!sets.empty() && m[sets[0] + 1] == 2 && sets[0] + 12 <= m.size()) {
        const std::size_t f = sets[0] + 8 + 4 * pos(8);
        put16(m, f + (rng.bernoulli(0.5) ? 2 : 0), any_u64(rng) % 12);
      }
      break;
  }
}

testing::AssertionResult same_record(const ExportRecord& a,
                                     const ExportRecord& b) {
  if (a.key == b.key && a.packets == b.packets && a.bytes == b.bytes &&
      a.wire_bytes == b.wire_bytes && a.first_seen == b.first_seen &&
      a.last_seen == b.last_seen && a.min_iat == b.min_iat &&
      a.mean_iat == b.mean_iat && a.jitter == b.jitter &&
      a.end_reason == b.end_reason) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure() << "decoded records differ";
}

testing::AssertionResult same_decode(const std::optional<DecodedMessage>& got,
                                     const std::optional<DecodedMessage>& want) {
  if (got.has_value() != want.has_value()) {
    return testing::AssertionFailure()
           << (got.has_value() ? "accepted" : "rejected")
           << ", the oracle " << (want.has_value() ? "accepted" : "rejected");
  }
  if (!got.has_value()) return testing::AssertionSuccess();
  if (got->header.version != want->header.version ||
      got->header.observation_domain != want->header.observation_domain ||
      got->header.sequence != want->header.sequence ||
      got->header.export_time != want->header.export_time ||
      got->templates_learned != want->templates_learned ||
      got->records_without_template != want->records_without_template ||
      got->records.size() != want->records.size()) {
    return testing::AssertionFailure()
           << "headers or counts differ: " << got->records.size() << " vs "
           << want->records.size() << " records";
  }
  for (std::size_t i = 0; i < got->records.size(); ++i) {
    if (!same_record(got->records[i], want->records[i])) {
      return testing::AssertionFailure() << "record " << i << " differs";
    }
  }
  return testing::AssertionSuccess();
}

/// The templates both stores hold under every id the goldens use.
testing::AssertionResult same_store(const TemplateStore& got,
                                    const TemplateStore& want,
                                    const std::vector<std::uint16_t>& ids) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure() << "store sizes " << got.size()
                                       << " vs " << want.size();
  }
  for (std::uint32_t domain = 0; domain < 4; ++domain) {
    for (const std::uint16_t id : ids) {
      const Template* a = got.find(1, domain, id);
      const Template* b = want.find(1, domain, id);
      if ((a == nullptr) != (b == nullptr)) {
        return testing::AssertionFailure() << "template " << id << " known "
                                           << "to one store only";
      }
      if (a == nullptr) continue;
      const bool same = a->fields.size() == b->fields.size() &&
                        std::equal(a->fields.begin(), a->fields.end(),
                                   b->fields.begin(),
                                   [](const TemplateField& x,
                                      const TemplateField& y) {
                                     return x.id == y.id && x.width == y.width;
                                   });
      if (!same) {
        return testing::AssertionFailure() << "template " << id << " differs";
      }
    }
  }
  return testing::AssertionSuccess();
}

TEST(IpfixDifferential, DecoderAgreesWithTheOracleOnMutatedEncodings) {
  const std::vector<Bytes> goldens = golden_encodings();
  std::vector<std::uint16_t> ids;
  for (const Bytes& g : goldens) {
    for (const std::size_t s : set_offsets(g)) {
      ids.push_back(static_cast<std::uint16_t>((g[s + 4] << 8) | g[s + 5]));
      ids.push_back(static_cast<std::uint16_t>((g[s] << 8) | g[s + 1]));
    }
  }
  // Every golden is well formed, so data-only ones decode against a
  // store that learned the templates first.
  TemplateStore learned;
  for (const Bytes& g : goldens) {
    ASSERT_TRUE(decode_message(g, learned, /*session=*/1).has_value());
  }

  sim::Rng rng{3501};
  std::size_t accepted = 0, rejected = 0, records = 0;
  constexpr int kIterations = 100'000;
  for (int iter = 0; iter < kIterations; ++iter) {
    Bytes m = goldens[static_cast<std::size_t>(
        rng.uniform_int(0, std::int64_t(goldens.size()) - 1))];
    const auto mutations = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < mutations; ++k) mutate(m, goldens, rng);
    // Half the time the message length agrees with the buffer, so the
    // decoders get past the header to the mutated sets.
    if (rng.bernoulli(0.5)) put16(m, 2, m.size());

    TemplateStore got_store = rng.bernoulli(0.5) ? learned : TemplateStore{};
    TemplateStore want_store = got_store;
    const auto got = decode_message(m, got_store, /*session=*/1);
    const auto want = oracle::decode_message(m, want_store, /*session=*/1);
    ASSERT_TRUE(same_decode(got, want)) << "iteration " << iter;
    ASSERT_TRUE(same_store(got_store, want_store, ids))
        << "iteration " << iter;
    if (got.has_value()) {
      ++accepted;
      records += got->records.size();
    } else {
      ++rejected;
    }
  }
  // The mutants reach both verdicts, and accepted ones carry records.
  EXPECT_GT(accepted, kIterations / 10u);
  EXPECT_GT(rejected, kIterations / 10u);
  EXPECT_GT(records, 100'000u);
}

}  // namespace
}  // namespace steelnet::flowmon
