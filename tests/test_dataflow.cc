// The composable dataflow API (core/dataflow.h, core/stages.h).
//
// The heart of this file is the legacy differential: every workload runs
// the standard stage graph, and LegacyRunPartitioned below is a verbatim
// port of the pre-dataflow two-job pipeline body (one JobRunner,
// RunBdmJob + BuildPlan + ExecutePlan, or RunBasicSingleJob). The graph
// must be byte-identical to it — matches, comparison counters, per-task
// metrics, serialized MatchPlan — for all three strategies, one- and
// two-source, in-memory and external. Plus structural tests of the
// graph itself: validation errors (graph and options), typed dataset
// access, report contents, cluster/union stages, CSV sources.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bdm/bdm_job.h"
#include "common/io_buffer.h"
#include "core/dataflow.h"
#include "core/report.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/clustering.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "graph_test_util.h"
#include "lb/basic.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"

namespace erlb {
namespace {

using testing_util::GraphRun;
using testing_util::OneSource;
using testing_util::RunStandardGraph;

std::vector<er::Entity> SkewedDataset(uint64_t seed, uint64_t n = 1200) {
  gen::SkewConfig config;
  config.num_entities = n;
  config.num_blocks = 20;
  config.skew = 0.9;
  config.duplicate_fraction = 0.25;
  config.seed = seed;
  auto data = gen::GenerateSkewed(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).ValueOrDie();
}

/// Both option sets of a standard-graph run in one value: the legacy
/// body below reads every knob from one config, the graph takes each
/// base as its own options.
struct GraphConfig : core::DataflowOptions, core::StandardGraphOptions {
  uint32_t num_map_tasks = 4;
  uint32_t csv_split_records = 8192;
};

// ---- Legacy pipeline body (pre-dataflow), ported verbatim ---------------

struct LegacyResult {
  er::MatchResult matches;
  bdm::Bdm bdm;
  std::optional<lb::MatchPlan> plan;
  mr::JobMetrics bdm_metrics;
  mr::JobMetrics match_metrics;
  int64_t comparisons = 0;
  uint64_t skipped_entities = 0;
};

Result<LegacyResult> LegacyRunPartitioned(
    const GraphConfig& config, const er::Partitions& partitions,
    const std::vector<er::Source>* partition_sources,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    const lb::MatchPlan* prebuilt_plan = nullptr) {
  const lb::StrategyKind strategy_kind = prebuilt_plan != nullptr
                                             ? prebuilt_plan->strategy()
                                             : config.strategy;
  mr::JobRunner runner(config.EffectiveWorkers(), config.execution);
  LegacyResult result;

  if (prebuilt_plan == nullptr &&
      strategy_kind == lb::StrategyKind::kBasic) {
    lb::MatchJobOptions match_options;
    match_options.num_reduce_tasks = config.num_reduce_tasks;
    ERLB_ASSIGN_OR_RETURN(
        lb::MatchJobOutput out,
        lb::RunBasicSingleJob(partitions, blocking, matcher, match_options,
                              runner, partition_sources));
    result.matches = std::move(out.matches);
    result.match_metrics = std::move(out.metrics);
    result.comparisons = out.comparisons;
    return result;
  }

  bdm::BdmJobOptions bdm_options;
  bdm_options.num_reduce_tasks = config.num_reduce_tasks;
  bdm_options.use_combiner = config.use_combiner;
  bdm_options.missing_key_policy = config.missing_key_policy;
  if (partition_sources != nullptr) {
    bdm_options.partition_sources = *partition_sources;
  }
  ERLB_ASSIGN_OR_RETURN(
      bdm::BdmJobOutput bdm_out,
      bdm::RunBdmJob(partitions, blocking, bdm_options, runner));
  result.bdm = std::move(bdm_out.bdm);
  result.bdm_metrics = std::move(bdm_out.metrics);
  result.skipped_entities = bdm_out.skipped_entities;

  auto strategy = lb::MakeStrategy(strategy_kind);
  const lb::MatchPlan* plan = prebuilt_plan;
  if (plan == nullptr) {
    lb::MatchJobOptions match_options;
    match_options.num_reduce_tasks = config.num_reduce_tasks;
    match_options.assignment = config.assignment;
    match_options.sub_splits = config.sub_splits;
    ERLB_ASSIGN_OR_RETURN(result.plan,
                          strategy->BuildPlan(result.bdm, match_options));
    plan = &*result.plan;
  }

  ERLB_ASSIGN_OR_RETURN(
      lb::MatchJobOutput out,
      strategy->ExecutePlan(*plan, *bdm_out.annotated, result.bdm, matcher,
                            runner));
  result.matches = std::move(out.matches);
  result.match_metrics = std::move(out.metrics);
  result.comparisons = out.comparisons;
  return result;
}

void ExpectTaskMetricsEqual(const mr::JobMetrics& a,
                            const mr::JobMetrics& b) {
  ASSERT_EQ(a.map_tasks.size(), b.map_tasks.size());
  for (size_t i = 0; i < a.map_tasks.size(); ++i) {
    EXPECT_EQ(a.map_tasks[i].input_records, b.map_tasks[i].input_records);
    EXPECT_EQ(a.map_tasks[i].output_records,
              b.map_tasks[i].output_records);
    EXPECT_EQ(a.map_tasks[i].counters.values(),
              b.map_tasks[i].counters.values());
  }
  ASSERT_EQ(a.reduce_tasks.size(), b.reduce_tasks.size());
  for (size_t i = 0; i < a.reduce_tasks.size(); ++i) {
    EXPECT_EQ(a.reduce_tasks[i].input_records,
              b.reduce_tasks[i].input_records);
    EXPECT_EQ(a.reduce_tasks[i].groups, b.reduce_tasks[i].groups);
    EXPECT_EQ(a.reduce_tasks[i].output_records,
              b.reduce_tasks[i].output_records);
    EXPECT_EQ(a.reduce_tasks[i].counters.values(),
              b.reduce_tasks[i].counters.values());
  }
  EXPECT_EQ(a.counters.values(), b.counters.values());
}

/// Byte-level equality between the graph run and the legacy two-job
/// body.
void ExpectMatchesLegacy(const GraphRun& graph, const LegacyResult& legacy) {
  // Identical matches, in identical order (same ExecutePlan, same task
  // order — not just the same set).
  EXPECT_EQ(graph.matches.pairs(), legacy.matches.pairs());
  EXPECT_EQ(graph.comparisons(), legacy.comparisons);
  const core::StageReport* bdm_stage = graph.report.Find("bdm");
  EXPECT_EQ(bdm_stage != nullptr ? bdm_stage->skipped_entities : 0,
            legacy.skipped_entities);
  ExpectTaskMetricsEqual(graph.job("match"), legacy.match_metrics);
  ExpectTaskMetricsEqual(graph.job("bdm"), legacy.bdm_metrics);
  ASSERT_EQ(graph.plan() != nullptr, legacy.plan.has_value());
  if (graph.plan() != nullptr) {
    EXPECT_EQ(lb::MatchPlanToJson(*graph.plan()),
              lb::MatchPlanToJson(*legacy.plan));
  }
  ASSERT_EQ(graph.bdm.num_blocks(), legacy.bdm.num_blocks());
  if (graph.bdm.num_blocks() > 0) {
    EXPECT_EQ(graph.bdm.TotalPairs(), legacy.bdm.TotalPairs());
  }
}

class DataflowDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<lb::StrategyKind, mr::ExecutionMode>> {
 protected:
  GraphConfig Config() const {
    GraphConfig config;
    config.strategy = std::get<0>(GetParam());
    config.num_map_tasks = 4;
    config.num_reduce_tasks = 7;
    config.num_workers = 4;
    config.execution.mode = std::get<1>(GetParam());
    config.execution.io_buffer_bytes = 512;
    return config;
  }
};

TEST_P(DataflowDifferentialTest, OneSourceMatchesLegacyByteForByte) {
  auto entities = SkewedDataset(11);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  GraphConfig config = Config();

  er::Partitions parts =
      er::SplitIntoPartitions(entities, config.num_map_tasks);
  auto legacy =
      LegacyRunPartitioned(config, parts, nullptr, blocking, matcher);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  auto graph = RunStandardGraph(config, config,
                                OneSource(entities, config.num_map_tasks),
                                blocking, matcher);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_GT(graph->matches.size(), 0u);
  ExpectMatchesLegacy(*graph, *legacy);
  if (config.execution.mode == mr::ExecutionMode::kExternal) {
    EXPECT_TRUE(graph->job("match").external);
    EXPECT_GT(graph->job("match").spill_bytes_written, 0);
  }
}

TEST_P(DataflowDifferentialTest, TwoSourceMatchesLegacyByteForByte) {
  auto r_entities = SkewedDataset(21, 700);
  auto s_entities = SkewedDataset(22, 500);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  GraphConfig config = Config();

  // Replicate LinkagePartitions' layout for the legacy run.
  std::vector<er::Entity> tagged_r = r_entities;
  for (auto& e : tagged_r) e.source = er::Source::kR;
  std::vector<er::Entity> tagged_s = s_entities;
  for (auto& e : tagged_s) e.source = er::Source::kS;
  uint32_t mr_tasks = 2, ms_tasks = 2;  // 700:500 over m=4 splits 2/2
  er::Partitions parts = er::SplitIntoPartitions(tagged_r, mr_tasks);
  er::Partitions s_parts = er::SplitIntoPartitions(tagged_s, ms_tasks);
  std::vector<er::Source> sources(mr_tasks, er::Source::kR);
  for (auto& p : s_parts) {
    parts.push_back(std::move(p));
    sources.push_back(er::Source::kS);
  }
  auto legacy =
      LegacyRunPartitioned(config, parts, &sources, blocking, matcher);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  auto input =
      core::LinkagePartitions(r_entities, s_entities, config.num_map_tasks);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  auto graph =
      RunStandardGraph(config, config, std::move(*input), blocking, matcher);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_GT(graph->matches.size(), 0u);
  ExpectMatchesLegacy(*graph, *legacy);
}

TEST_P(DataflowDifferentialTest, PrebuiltPlanMatchesLegacyByteForByte) {
  auto entities = SkewedDataset(31, 800);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  GraphConfig config = Config();
  er::Partitions parts =
      er::SplitIntoPartitions(entities, config.num_map_tasks);

  // Build the plan the legacy way, then feed it to both paths.
  mr::JobRunner runner(config.EffectiveWorkers(), config.execution);
  bdm::BdmJobOptions bdm_options;
  bdm_options.num_reduce_tasks = config.num_reduce_tasks;
  auto bdm_out = bdm::RunBdmJob(parts, blocking, bdm_options, runner);
  ASSERT_TRUE(bdm_out.ok());
  lb::MatchJobOptions match_options;
  match_options.num_reduce_tasks = config.num_reduce_tasks;
  auto plan = lb::MakeStrategy(config.strategy)
                  ->BuildPlan(bdm_out->bdm, match_options);
  ASSERT_TRUE(plan.ok());

  auto legacy = LegacyRunPartitioned(config, parts, nullptr, blocking,
                                     matcher, &*plan);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  core::PartitionedEntities input;
  input.partitions = parts;
  auto graph = RunStandardGraph(config, config, std::move(input), blocking,
                                matcher, &*plan);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // The caller already holds the plan; neither path returns one.
  EXPECT_EQ(graph->plan(), nullptr);
  ExpectMatchesLegacy(*graph, *legacy);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesBothModes, DataflowDifferentialTest,
    ::testing::Combine(
        ::testing::Values(lb::StrategyKind::kBasic,
                          lb::StrategyKind::kBlockSplit,
                          lb::StrategyKind::kPairRange),
        ::testing::Values(mr::ExecutionMode::kInMemory,
                          mr::ExecutionMode::kExternal)),
    [](const auto& info) {
      return std::string(lb::StrategyKindToName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == mr::ExecutionMode::kExternal
                  ? "_external"
                  : "_in_memory");
    });

// ---- CSV source on the graph --------------------------------------------

TEST(DataflowCsvTest, CsvSourceGraphMatchesVectorInput) {
  auto entities = SkewedDataset(41, 500);
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const std::string csv_path = base->path() + "/entities.csv";
  ASSERT_TRUE(er::SaveEntitiesToCsv(csv_path, entities).ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  GraphConfig config;
  config.num_reduce_tasks = 5;
  config.num_workers = 4;
  config.csv_split_records = 128;

  // Hand-composed graph: CsvSourceStage + standard chain.
  core::Dataflow df(config);
  df.Emplace<core::CsvSourceStage>("source", core::kDatasetPartitions,
                                   csv_path, schema,
                                   config.csv_split_records);
  ASSERT_TRUE(core::AddStandardGraph(&df, config, &blocking, &matcher).ok());
  auto report = df.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto matches = df.Get<er::MatchResult>(core::kDatasetMatches);
  ASSERT_TRUE(matches.ok());

  // The same graph over the same rows bound in memory, cut into the
  // partitions the CSV source cut (the header row takes a slot of the
  // first split): the same pairs in the same order.
  auto csv_input =
      df.Get<core::PartitionedEntities>(core::kDatasetPartitions);
  ASSERT_TRUE(csv_input.ok());
  core::PartitionedEntities input;
  size_t next = 0;
  for (const auto& split : (*csv_input)->partitions) {
    input.partitions.emplace_back();
    for (size_t i = 0; i < split.size(); ++i) {
      input.partitions.back().push_back(er::MakeEntityRef(entities[next++]));
    }
  }
  ASSERT_EQ(next, entities.size());
  auto in_memory =
      RunStandardGraph(config, config, std::move(input), blocking, matcher);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_EQ((*matches)->pairs(), in_memory->matches.pairs());
  EXPECT_GT((*matches)->size(), 0u);

  // ceil(500 / 128) = 4 splits; the ingest stage reports the row count.
  const core::StageReport* source = report->Find("source");
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->output_records, 500u);
  const core::StageReport* bdm = report->Find("bdm");
  ASSERT_NE(bdm, nullptr);
  ASSERT_TRUE(bdm->job.has_value());
  EXPECT_EQ(bdm->job->map_tasks.size(), 4u);
}

// ---- Graph structure validation -----------------------------------------

er::MatchResult TwoPairs() {
  er::MatchResult m;
  m.Add(1, 2);
  m.Add(2, 3);
  return m;
}

TEST(DataflowValidateTest, MissingInputRejected) {
  core::Dataflow df;
  df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
  Status status = df.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("never produced"), std::string::npos);
}

TEST(DataflowValidateTest, DuplicateOutputRejected) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("a", "matches", "clusters");
  df.Emplace<core::ClusterStage>("b", "matches", "clusters");
  Status status = df.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("produced more than once"),
            std::string::npos);
}

TEST(DataflowValidateTest, DuplicateStageNameRejected) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("same", "matches", "c1");
  df.Emplace<core::ClusterStage>("same", "matches", "c2");
  EXPECT_TRUE(df.Validate().IsInvalidArgument());
}

TEST(DataflowValidateTest, CycleRejected) {
  core::Dataflow df;
  // a consumes its own (transitive) output: u1 -> u2 -> u1.
  df.Emplace<core::UnionMatchesStage>(
      "u1", std::vector<std::string>{"m2"}, "m1");
  df.Emplace<core::UnionMatchesStage>(
      "u2", std::vector<std::string>{"m1"}, "m2");
  Status status = df.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("cycle"), std::string::npos);
}

TEST(DataflowValidateTest, RebindingExternalInputRejected) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  Status status = df.AddInput("matches", core::Dataset(TwoPairs()));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(DataflowRunTest, SingleShot) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
  ASSERT_TRUE(df.Run().ok());
  EXPECT_TRUE(df.Run().status().IsFailedPrecondition());
}

TEST(DataflowRunTest, TypedAccessAndMismatch) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
  ASSERT_TRUE(df.Run().ok());

  auto clusters = df.Get<er::Clusters>("clusters");
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ((*clusters)->size(), 1u);  // {1,2,3} is one component
  EXPECT_EQ((**clusters)[0], (std::vector<uint64_t>{1, 2, 3}));

  EXPECT_TRUE(df.Get<bdm::Bdm>("clusters").status().IsInvalidArgument());
  EXPECT_TRUE(df.Get<er::Clusters>("absent").status().IsInvalidArgument());
}

/// A source stage that records whether it ran.
class RecordingStage : public core::Stage {
 public:
  explicit RecordingStage(bool* ran) : Stage("record"), ran_(ran) {
    DeclareOutput("matches");
  }
  const char* kind() const override { return "record"; }
  [[nodiscard]] Status Run(core::DataflowContext* ctx) override {
    *ran_ = true;
    return ctx->Out("matches", core::Dataset(TwoPairs()));
  }

 private:
  bool* ran_;
};

TEST(DataflowRunTest, InvalidOptionsFailBeforeAnyStage) {
  auto run = [](const core::DataflowOptions& options, bool* ran) {
    core::Dataflow df(options);
    df.Emplace<RecordingStage>(ran);
    df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
    return df.Run().status();
  };
  bool ran = false;
  core::DataflowOptions options;
  options.execution.io_buffer_bytes = 0;
  Status status = run(options, &ran);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("io_buffer_bytes"), std::string::npos);
  EXPECT_FALSE(ran);

  // A checkpoint root on the in-memory path has nothing durable to
  // checkpoint.
  options = core::DataflowOptions{};
  options.execution.mode = mr::ExecutionMode::kInMemory;
  options.execution.checkpoint.dir = "/nonexistent/checkpoints";
  status = run(options, &ran);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_FALSE(ran);

  // Zero worker processes resolves to the worker-thread count, so
  // multi-process mode without an explicit count is valid.
  options = core::DataflowOptions{};
  options.num_workers = 2;
  options.execution.mode = mr::ExecutionMode::kMultiProcess;
  EXPECT_TRUE(run(options, &ran).ok());
  EXPECT_TRUE(ran);
}

TEST(DataflowRunTest, StageErrorNamesTheStage) {
  core::Dataflow df;
  er::CsvSchema schema;
  df.Emplace<core::CsvSourceStage>("ingest", "partitions",
                                   "/nonexistent/input.csv", schema, 64);
  // Wire a full graph so the failure really interrupts a multi-stage run.
  er::ConstantBlocking blocking;
  er::JaroWinklerMatcher matcher;
  core::StandardGraphOptions graph;
  ASSERT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
  auto report = df.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("ingest"), std::string::npos);
}

// ---- Report contents ----------------------------------------------------

TEST(DataflowReportTest, StandardGraphReportCarriesPlanAndMetrics) {
  auto entities = SkewedDataset(51, 600);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  GraphConfig config;
  config.num_reduce_tasks = 5;
  config.num_workers = 2;
  config.execution.mode = mr::ExecutionMode::kExternal;

  core::Dataflow df(config);
  df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                      &entities, 3);
  ASSERT_TRUE(core::AddStandardGraph(&df, config, &blocking, &matcher).ok());
  df.Emplace<core::ClusterStage>("cluster", core::kDatasetMatches,
                                 core::kDatasetClusters);
  auto report = df.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Execution order respects dependencies.
  ASSERT_EQ(report->stages.size(), 5u);
  EXPECT_EQ(report->stages[0].stage, "source");
  EXPECT_EQ(report->stages[1].stage, "bdm");
  EXPECT_EQ(report->stages[2].stage, "plan");
  EXPECT_EQ(report->stages[3].stage, "match");
  EXPECT_EQ(report->stages[4].stage, "cluster");

  const core::StageReport* plan = report->Find("plan");
  ASSERT_NE(plan->plan, nullptr);
  EXPECT_EQ(plan->plan->strategy(), lb::StrategyKind::kBlockSplit);
  const core::StageReport* match = report->Find("match");
  ASSERT_TRUE(match->job.has_value());
  EXPECT_TRUE(match->job->external);
  EXPECT_GT(match->comparisons, 0);
  EXPECT_EQ(match->plan, plan->plan);  // one shared plan, zero copies
  EXPECT_GT(report->TotalSpillBytes(), 0);
  EXPECT_GT(report->total_seconds, 0.0);

  // Both renderings cover every stage.
  std::string text = core::FormatDataflowReport(*report);
  std::string json = core::DataflowReportToJson(*report);
  for (const auto& s : report->stages) {
    EXPECT_NE(text.find(s.stage), std::string::npos) << s.stage;
    EXPECT_NE(json.find("\"" + s.stage + "\""), std::string::npos)
        << s.stage;
  }
  EXPECT_NE(json.find("\"plan_strategy\": \"BlockSplit\""),
            std::string::npos);
}

// ---- Shared resources ---------------------------------------------------

TEST(DataflowResourceTest, GraphTempDirIsRemovedAfterRun) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  auto entities = SkewedDataset(61, 400);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  GraphConfig config;
  config.num_reduce_tasks = 4;
  config.num_workers = 2;
  config.execution.mode = mr::ExecutionMode::kExternal;
  config.execution.temp_dir = base->path();

  {
    core::Dataflow df(config);
    df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                        &entities, 3);
    ASSERT_TRUE(
        core::AddStandardGraph(&df, config, &blocking, &matcher).ok());
    auto report = df.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->TotalSpillBytes(), 0);
  }
  // The graph-scoped spill root (and every per-job dir inside) is gone
  // once the Dataflow is destroyed.
  EXPECT_TRUE(std::filesystem::is_empty(base->path()))
      << "spill dirs leaked under " << base->path();
}

}  // namespace
}  // namespace erlb
