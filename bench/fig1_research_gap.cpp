// Reproduces Fig. 1: "Industrial networking terms are underrepresented in
// recent SIGCOMM and HotNets proceedings."
//
// The mining pipeline (Aho-Corasick over term groups with permutations,
// word boundaries, longest-match shadowing) is the real thing; the corpus
// is synthetic and calibrated (see DESIGN.md substitution table), since
// ACM full texts cannot be redistributed.
#include <cmath>
#include <iostream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "textmine/corpus.hpp"
#include "textmine/terms.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed}, /*default_seed=*/20251117);

  std::cout << "=== Fig. 1: term occurrences (with permutations) in recent "
               "SIGCOMM/HotNets proceedings ===\n\n";

  textmine::CorpusSpec spec{};  // ~250 synthetic full papers
  spec.seed = args.seed;
  const auto docs = textmine::generate_corpus(spec);
  const auto groups = textmine::fig1_term_groups();
  const auto counts = textmine::count_terms(groups, docs);
  const auto published = textmine::fig1_published_counts();

  core::TextTable table(
      {"term group", "patterns", "occurrences", "paper reports", "bar"});
  std::uint64_t peak = 1;
  for (const auto& c : counts) peak = std::max(peak, c.count);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    // Log-ish bar so the 0..3005 range stays printable.
    const auto bar_len = static_cast<std::size_t>(
        counts[i].count == 0
            ? 0
            : 1 + 40.0 * std::log10(double(counts[i].count) + 1) /
                      std::log10(double(peak) + 1));
    table.add_row({counts[i].name,
                   std::to_string(groups[i].patterns.size()),
                   std::to_string(counts[i].count),
                   std::to_string(published[i]),
                   std::string(bar_len, '#')});
  }
  table.print(std::cout);

  std::cout << "\ncorpus: " << docs.size() << " documents, "
            << spec.words_per_document << " words each (synthetic; "
            << "counts calibrated to the published values)\n";
  std::cout << "research gap: industrial terms (top rows) vs classic "
               "networking terms (bottom rows)\n";
  return 0;
}
