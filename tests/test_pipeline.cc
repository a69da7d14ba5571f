// End-to-end tests of the paper's two-job ER workflow run as the
// standard dataflow graph (core/stages.h AddStandardGraph): every
// strategy against the brute-force reference, one- and two-source,
// plan-first re-execution, up-front option validation, and the
// missing-key decompositions of Section III and Appendix I.
#include <gtest/gtest.h>

#include "common/io_buffer.h"
#include "core/dataflow.h"
#include "core/reference.h"
#include "core/stages.h"
#include "er/entity_io.h"
#include "er/evaluation.h"
#include "gen/product_gen.h"
#include "gen/skew_gen.h"
#include "graph_test_util.h"
#include "lb/strategy.h"

namespace erlb {
namespace core {
namespace {

using testing_util::GraphOptions;
using testing_util::GraphRun;
using testing_util::OneSource;
using testing_util::RunGraph;
using testing_util::RunStandardGraph;

std::vector<er::Entity> SmallProducts(uint64_t n = 800, uint64_t seed = 3) {
  gen::ProductConfig cfg;
  cfg.num_entities = n;
  cfg.num_brands = 40;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = seed;
  auto entities = gen::GenerateProducts(cfg);
  EXPECT_TRUE(entities.ok());
  return *entities;
}

DataflowOptions Workers(uint32_t workers) {
  DataflowOptions options;
  options.num_workers = workers;
  return options;
}

class PipelineStrategyTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(PipelineStrategyTest, DeduplicateMatchesReference) {
  auto entities = SmallProducts();
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = ReferenceDeduplicate(entities, blocking, matcher);
  ASSERT_GT(reference.size(), 0u);

  auto result = RunStandardGraph(Workers(4), GraphOptions(GetParam(), 9),
                                 OneSource(entities, 3), blocking, matcher);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->matches.SameAs(reference));
  EXPECT_GT(result->comparisons(), 0);
  EXPECT_GT(result->report.total_seconds, 0.0);
  if (GetParam() != lb::StrategyKind::kBasic) {
    EXPECT_GT(result->bdm.num_blocks(), 0u);
    EXPECT_GT(result->report.Find("bdm")->seconds, 0.0);
  }
}

TEST_P(PipelineStrategyTest, PrebuiltPlanOverloadMatchesFreshRun) {
  // Plan once, execute many: a run's plan bound as the graph's plan
  // input must reproduce the run exactly, without re-planning.
  auto entities = SmallProducts(500, 11);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  const StandardGraphOptions graph = GraphOptions(GetParam(), 7);
  EXPECT_EQ(graph.strategy, GetParam());
  auto run = [&](const std::vector<er::Entity>& input,
                 const lb::MatchPlan* plan) {
    return RunStandardGraph(Workers(4), graph, OneSource(input, 3),
                            blocking, matcher, plan);
  };

  if (GetParam() == lb::StrategyKind::kBasic) {
    // Basic's default graph is the single job and carries no plan; build
    // one explicitly to exercise the plan input.
    er::Partitions parts = er::SplitIntoPartitions(entities, 3);
    std::vector<std::vector<std::string>> keys(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
    }
    auto bdm = bdm::Bdm::FromKeys(keys);
    ASSERT_TRUE(bdm.ok());
    lb::MatchJobOptions options;
    options.num_reduce_tasks = 7;
    auto plan = lb::MakeStrategy(GetParam())->BuildPlan(*bdm, options);
    ASSERT_TRUE(plan.ok());
    auto replay = run(entities, &*plan);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    auto fresh = run(entities, nullptr);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(replay->matches.SameAs(fresh->matches));
    EXPECT_EQ(replay->comparisons(), fresh->comparisons());
    return;
  }

  auto fresh = run(entities, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_NE(fresh->plan(), nullptr);
  auto replay = run(entities, fresh->plan());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->matches.SameAs(fresh->matches));
  EXPECT_EQ(replay->comparisons(), fresh->comparisons());

  // A plan for different data must be rejected by the fingerprint check.
  auto mismatched = run(SmallProducts(300, 77), fresh->plan());
  EXPECT_TRUE(mismatched.status().IsInvalidArgument());
}

TEST_P(PipelineStrategyTest, LinkMatchesReference) {
  auto r_entities = SmallProducts(400, 21);
  auto s_entities = SmallProducts(500, 22);
  for (auto& e : s_entities) e.id += 1000000;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.85);
  auto reference =
      ReferenceLink(r_entities, s_entities, blocking, matcher);

  auto input = LinkagePartitions(r_entities, s_entities, 5);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  auto result = RunStandardGraph(Workers(4), GraphOptions(GetParam(), 7),
                                 std::move(*input), blocking, matcher);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->matches.SameAs(reference))
      << "got " << result->matches.size() << " want " << reference.size();
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PipelineStrategyTest,
                         ::testing::Values(lb::StrategyKind::kBasic,
                                           lb::StrategyKind::kBlockSplit,
                                           lb::StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(PipelineTest, StrategiesAgreeWithEachOther) {
  auto entities = SmallProducts(600, 9);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  er::MatchResult results[3];
  int i = 0;
  for (auto kind : lb::AllStrategyKinds()) {
    auto result = RunStandardGraph(Workers(2), GraphOptions(kind, 5),
                                   OneSource(entities, 4), blocking,
                                   matcher);
    ASSERT_TRUE(result.ok());
    results[i++] = result->matches;
  }
  EXPECT_TRUE(results[0].SameAs(results[1]));
  EXPECT_TRUE(results[1].SameAs(results[2]));
}

TEST(PipelineTest, RecallOnInjectedDuplicatesIsHigh) {
  auto entities = SmallProducts(1500, 17);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto result = RunStandardGraph(
      DataflowOptions{}, GraphOptions(lb::StrategyKind::kBlockSplit, 8),
      OneSource(entities, 4), blocking, matcher);
  ASSERT_TRUE(result.ok());
  auto quality = er::EvaluateMatches(entities, result->matches);
  // Typo duplicates are within 2 edits of ~25-char titles, so most pass
  // the 0.8 edit-similarity threshold.
  EXPECT_GT(quality.Recall(), 0.6);
  EXPECT_GT(quality.true_positives, 50u);
}

// ---- Contradictory knobs fail up front, through the graph ---------------

TEST(PipelineConfigValidateTest, ZeroKnobsRejected) {
  auto entities = SmallProducts(50, 5);
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const std::string csv_path = base->path() + "/in.csv";
  ASSERT_TRUE(er::SaveEntitiesToCsv(csv_path, entities).ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  // Each knob's zero reaches the caller as InvalidArgument naming it,
  // from whichever part of the graph owns the knob: the source stage
  // (m, split size), the plan stage (r, sub-splits) or Dataflow::Run's
  // option check (buffer size).
  struct Knobs {
    DataflowOptions options;
    StandardGraphOptions graph;
    uint32_t num_map_tasks = 4;
    uint32_t csv_split_records = 8192;
  };
  auto expect_invalid = [&](const Knobs& knobs, const char* what,
                            bool from_csv) {
    Dataflow df(knobs.options);
    if (from_csv) {
      df.Emplace<CsvSourceStage>("source", kDatasetPartitions, csv_path,
                                 schema, knobs.csv_split_records);
    } else {
      df.Emplace<EntitySourceStage>("source", kDatasetPartitions,
                                    &entities, knobs.num_map_tasks);
    }
    ASSERT_TRUE(AddStandardGraph(&df, knobs.graph, &blocking, &matcher).ok());
    Status status = RunGraph(&df).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << what << ": "
                                            << status.ToString();
    EXPECT_NE(status.ToString().find(what), std::string::npos)
        << status.ToString();
  };
  Knobs knobs;
  knobs.num_map_tasks = 0;
  expect_invalid(knobs, "num_map_tasks", /*from_csv=*/false);
  knobs = Knobs{};
  knobs.graph.num_reduce_tasks = 0;
  expect_invalid(knobs, "num_reduce_tasks", /*from_csv=*/false);
  knobs = Knobs{};
  knobs.graph.sub_splits = 0;
  expect_invalid(knobs, "sub_splits", /*from_csv=*/false);
  knobs = Knobs{};
  knobs.csv_split_records = 0;
  expect_invalid(knobs, "csv_split_records", /*from_csv=*/true);
  // Dataflow::Run rejects it before any stage runs, on either source.
  knobs = Knobs{};
  knobs.options.execution.io_buffer_bytes = 0;
  expect_invalid(knobs, "io_buffer_bytes", /*from_csv=*/false);
  expect_invalid(knobs, "io_buffer_bytes", /*from_csv=*/true);

  // Two-source input rejects a zero m as well, both where the partitions
  // are laid out and where the missing-key linkage graph is composed; an
  // m of 1 still gives each source its own partition.
  const auto s_entities = SmallProducts(40, 6);
  auto linkage = LinkagePartitions(entities, s_entities, 0);
  EXPECT_TRUE(linkage.status().IsInvalidArgument())
      << linkage.status().ToString();
  EXPECT_NE(linkage.status().ToString().find("num_map_tasks"),
            std::string::npos);
  Dataflow link_df;
  Status link_status =
      AddMissingKeyLinkGraph(&link_df, StandardGraphOptions{}, 0, &entities,
                             &s_entities, &blocking, &matcher);
  EXPECT_TRUE(link_status.IsInvalidArgument()) << link_status.ToString();
  auto minimal = LinkagePartitions(entities, s_entities, 1);
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_EQ(minimal->partitions.size(), 2u);
}

TEST(PipelineTest, EmptyInputRejected) {
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  const std::vector<er::Entity> empty;
  Dataflow df;
  df.Emplace<EntitySourceStage>("source", kDatasetPartitions, &empty, 4);
  ASSERT_TRUE(AddStandardGraph(&df, StandardGraphOptions{}, &blocking,
                               &matcher)
                  .ok());
  EXPECT_TRUE(RunGraph(&df).status().IsInvalidArgument());
}

TEST(PipelineTest, MissingKeyErrorByDefault) {
  std::vector<er::Entity> entities = SmallProducts(50, 5);
  er::Entity no_title;
  no_title.id = 999999;
  no_title.fields = {""};
  entities.push_back(no_title);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  // StandardGraphOptions::missing_key_policy defaults to kError.
  EXPECT_FALSE(RunStandardGraph(DataflowOptions{}, StandardGraphOptions{},
                                OneSource(entities, 4), blocking, matcher)
                   .ok());
}

TEST(PipelineTest, DeduplicateWithMissingKeysComparesBottomAgainstAll) {
  // 4 keyed entities in two blocks + 2 unkeyed. The unkeyed ones must be
  // compared against everything (Cartesian), including each other.
  std::vector<er::Entity> entities;
  auto add = [&](uint64_t id, const char* title) {
    er::Entity e;
    e.id = id;
    e.fields = {title};
    entities.push_back(e);
  };
  add(1, "aaa camera");
  add(2, "aaa camcorder");
  add(3, "bbb phone");
  add(4, "bbb phablet");
  add(5, "");  // no blocking key
  add(6, "");

  er::PrefixBlocking blocking(0, 3);
  // Count comparisons through an accept-all matcher: the pair set is
  // exactly the evaluated candidate set.
  er::LambdaMatcher accept_all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  Dataflow df;
  const StandardGraphOptions graph =
      GraphOptions(lb::StrategyKind::kBlockSplit, 3);
  ASSERT_TRUE(AddMissingKeyDedupGraph(&df, graph, /*num_map_tasks=*/2,
                                      &entities, &blocking, &accept_all)
                  .ok());
  auto result = RunGraph(&df);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Blocked pairs: (1,2), (3,4). Unkeyed 5,6 vs all: (5,1..4,6) = 5 pairs
  // + (6,1..4) = 4. Total 2 + 9 = 11.
  EXPECT_EQ(result->matches.size(), 11u);
}

TEST(PipelineTest, LinkWithMissingKeysFollowsAppendixDecomposition) {
  auto make = [](uint64_t id, const char* title) {
    er::Entity e;
    e.id = id;
    e.fields = {title};
    return e;
  };
  std::vector<er::Entity> r_entities{make(1, "aaa x"), make(2, "bbb y"),
                                     make(3, "")};
  std::vector<er::Entity> s_entities{make(11, "aaa z"), make(12, ""),
                                     make(13, "")};
  er::PrefixBlocking blocking(0, 3);
  er::LambdaMatcher accept_all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  Dataflow df;
  const StandardGraphOptions graph =
      GraphOptions(lb::StrategyKind::kBlockSplit, 2);
  ASSERT_TRUE(AddMissingKeyLinkGraph(&df, graph, /*num_map_tasks=*/2,
                                     &r_entities, &s_entities, &blocking,
                                     &accept_all)
                  .ok());
  auto result = RunGraph(&df);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // match_B(R−R∅, S−S∅): (1,11).
  // match_⊥(R, S∅): {1,2,3} × {12,13} = 6 pairs.
  // match_⊥(R∅, S−S∅): {3} × {11} = 1 pair.
  EXPECT_EQ(result->matches.size(), 8u);
}

TEST(PipelineTest, PartitionCountDoesNotChangeResult) {
  auto entities = SmallProducts(400, 31);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  er::MatchResult first;
  for (uint32_t m : {1u, 2u, 5u, 11u}) {
    auto result = RunStandardGraph(
        DataflowOptions{}, GraphOptions(lb::StrategyKind::kPairRange, 6),
        OneSource(entities, m), blocking, matcher);
    ASSERT_TRUE(result.ok());
    if (m == 1) {
      first = result->matches;
    } else {
      EXPECT_TRUE(result->matches.SameAs(first)) << "m=" << m;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace erlb
