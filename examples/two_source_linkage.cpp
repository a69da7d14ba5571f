// Record linkage between two sources (Appendix I): link a clean product
// catalog R against a noisy offer feed S, including entities without a
// valid blocking key via the appendix's decomposition
//   match_B(R,S) = match_B(R−R∅, S−S∅) ∪ match_⊥(R, S∅)
//                  ∪ match_⊥(R∅, S−S∅).
//
//   $ ./two_source_linkage
#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/perturb.h"
#include "gen/product_gen.h"

using namespace erlb;

int main() {
  // R: catalog of 3000 products.
  gen::ProductConfig cfg_r;
  cfg_r.num_entities = 3000;
  cfg_r.duplicate_fraction = 0.0;  // catalog is clean
  cfg_r.seed = 51;
  auto catalog = gen::GenerateProducts(cfg_r);
  if (!catalog.ok()) return 1;

  // S: offer feed — perturbed copies of catalog titles plus unrelated
  // offers; a few offers have an unusable (empty) title.
  Pcg32 rng(77);
  std::vector<er::Entity> offers;
  uint64_t next_id = 1000000;
  for (const auto& product : *catalog) {
    if (rng.NextDouble() < 0.4) {
      er::Entity offer;
      offer.id = next_id++;
      offer.fields = {gen::Perturb(product.title(), 2, 3, &rng)};
      offers.push_back(std::move(offer));
    }
  }
  for (int i = 0; i < 25; ++i) {  // offers without a blocking key
    er::Entity offer;
    offer.id = next_id++;
    offer.fields = {""};
    offers.push_back(std::move(offer));
  }
  std::printf("catalog R: %zu products; offer feed S: %zu offers "
              "(25 without usable title)\n\n",
              catalog->size(), offers.size());

  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  for (auto kind :
       {lb::StrategyKind::kBlockSplit, lb::StrategyKind::kPairRange}) {
    core::StandardGraphOptions graph;
    graph.strategy = kind;
    graph.num_reduce_tasks = 12;
    const uint32_t num_map_tasks = 6;

    // Plain linkage — R and S laid out as two-source partitions and run
    // through the standard graph — cannot place S entities without a
    // key...
    auto input = core::LinkagePartitions(*catalog, offers, num_map_tasks);
    if (!input.ok()) return 1;
    core::Dataflow plain;
    Status plain_status = plain.AddInput(core::kDatasetPartitions,
                                         core::Dataset(std::move(*input)));
    if (plain_status.ok()) {
      plain_status =
          core::AddStandardGraph(&plain, graph, &blocking, &matcher);
    }
    if (plain_status.ok()) plain_status = plain.Run().status();
    if (!plain_status.ok()) {
      // ...and fails under the default missing-key policy, as it should:
      std::printf("%s, plain linkage: %s\n", lb::StrategyKindToName(kind),
                  plain_status.ToString().c_str());
    }

    // The appendix decomposition handles them via the constant key ⊥.
    core::Dataflow full;
    Status full_status = core::AddMissingKeyLinkGraph(
        &full, graph, num_map_tasks, &*catalog, &offers, &blocking, &matcher);
    if (full_status.ok()) full_status = full.Run().status();
    auto linked = full_status.ok()
                      ? full.Get<er::MatchResult>(core::kDatasetMatches)
                      : full_status;
    if (!linked.ok()) {
      std::fprintf(stderr, "%s\n", linked.status().ToString().c_str());
      return 1;
    }
    std::printf("%s with missing-key decomposition: %s linked pairs\n\n",
                lb::StrategyKindToName(kind),
                FormatWithCommas((*linked)->size()).c_str());
  }
  return 0;
}
