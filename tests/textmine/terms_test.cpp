#include "textmine/terms.hpp"

#include <gtest/gtest.h>

#include "textmine/corpus.hpp"

namespace steelnet::textmine {
namespace {

TEST(Permutations, TwoPartsTwoSeparators) {
  const auto p = expand_permutations({"it", "ot"}, {"/", "-"});
  ASSERT_EQ(p.size(), 4u);
  EXPECT_NE(std::find(p.begin(), p.end(), "it/ot"), p.end());
  EXPECT_NE(std::find(p.begin(), p.end(), "ot/it"), p.end());
  EXPECT_NE(std::find(p.begin(), p.end(), "it-ot"), p.end());
  EXPECT_NE(std::find(p.begin(), p.end(), "ot-it"), p.end());
}

TEST(Permutations, ThreeParts) {
  const auto p = expand_permutations({"a", "b", "c"}, {"/"});
  EXPECT_EQ(p.size(), 6u);
}

TEST(Fig1Groups, ThirteenGroupsInPaperOrder) {
  const auto groups = fig1_term_groups();
  ASSERT_EQ(groups.size(), 13u);
  EXPECT_EQ(groups.front().name, "vPLC");
  EXPECT_EQ(groups.back().name, "TCP/UDP/IPv4/IPv6");
  for (const auto& g : groups) EXPECT_FALSE(g.patterns.empty()) << g.name;
}

TEST(CountTerms, BasicCounting) {
  const auto groups = fig1_term_groups();
  const std::vector<std::string> docs{
      "we deploy a vplc next to the plc on the tsn network",
      "the internet and a data center meet tcp and udp",
  };
  const auto counts = count_terms(groups, docs);
  auto find = [&](const std::string& name) {
    for (const auto& c : counts) {
      if (c.name == name) return c.count;
    }
    return std::uint64_t(9999);
  };
  EXPECT_EQ(find("vPLC"), 1u);
  EXPECT_EQ(find("PLC"), 1u);  // the standalone plc; vplc doesn't count
  EXPECT_EQ(find("PROFINET/EtherCAT/TSN"), 1u);
  EXPECT_EQ(find("Internet"), 1u);
  EXPECT_EQ(find("Datacenter"), 1u);
  EXPECT_EQ(find("TCP/UDP/IPv4/IPv6"), 2u);
  EXPECT_EQ(find("Industrial Network"), 0u);
}

TEST(CountTerms, LongestMatchShadowsAcrossGroups) {
  const auto groups = fig1_term_groups();
  const std::vector<std::string> docs{
      "the industrial internet of things changes manufacturing"};
  const auto counts = count_terms(groups, docs);
  for (const auto& c : counts) {
    if (c.name == "IIoT") {
      EXPECT_EQ(c.count, 1u);
    }
    if (c.name == "Internet") {
      EXPECT_EQ(c.count, 0u);  // shadowed by IIoT
    }
  }
}

TEST(CountTerms, PluralNotDoubleCounted) {
  const auto groups = fig1_term_groups();
  const auto counts =
      count_terms(groups, {"many data centers and cyber-physical systems"});
  for (const auto& c : counts) {
    if (c.name == "Datacenter") {
      EXPECT_EQ(c.count, 1u);
    }
    if (c.name == "Cyber Physical System") {
      EXPECT_EQ(c.count, 1u);
    }
  }
}

TEST(Corpus, PublishedCountsReproducedExactly) {
  // The full Fig. 1 pipeline: generate the calibrated corpus, run the
  // real miner, compare against the published bar values.
  CorpusSpec spec;
  spec.documents = 50;           // smaller corpus for test speed
  spec.words_per_document = 800;
  const auto docs = generate_corpus(spec);
  const auto counts = count_terms(fig1_term_groups(), docs);
  const auto expected = fig1_published_counts();
  ASSERT_EQ(counts.size(), expected.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].count, expected[i]) << counts[i].name;
  }
}

TEST(Corpus, DeterministicPerSeed) {
  CorpusSpec spec;
  spec.documents = 5;
  spec.words_per_document = 100;
  const auto a = generate_corpus(spec);
  const auto b = generate_corpus(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  spec.seed += 1;
  const auto c = generate_corpus(spec);
  EXPECT_NE(a[0], c[0]);
}

TEST(Corpus, BackgroundVocabIsTermFree) {
  // No injections: the miner must find nothing in pure background prose.
  CorpusSpec spec;
  spec.documents = 10;
  spec.words_per_document = 2000;
  const auto docs = generate_corpus(
      spec, std::vector<std::uint64_t>(fig1_term_groups().size(), 0));
  for (const auto& c : count_terms(fig1_term_groups(), docs)) {
    EXPECT_EQ(c.count, 0u) << c.name;
  }
}

TEST(Corpus, CountGroupMismatchThrows) {
  EXPECT_THROW(generate_corpus(CorpusSpec{}, {1, 2, 3}),
               std::invalid_argument);
}

}  // namespace
}  // namespace steelnet::textmine
