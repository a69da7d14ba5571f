// Differential tests of the out-of-core execution path: the external
// (spill-to-disk) shuffle must be observationally identical to the
// in-memory shuffle — same match output, same counters, same per-task
// workloads, same PlanStats — for all three strategies, one- and
// two-source, plus a randomized engine-level stress sweep mirroring
// test_mr_stress.cc. Also covers ExecutionMode::kAuto's threshold
// selection and the chunked-CSV out-of-core entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/io_buffer.h"
#include "common/random.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "graph_test_util.h"
#include "lb/plan_io.h"
#include "mr/job.h"

namespace erlb {
namespace {

using testing_util::GraphRun;
using testing_util::OneSource;
using testing_util::RunStandardGraph;
using testing_util::TwoSources;

// ---- Engine-level differential sweep (mirrors test_mr_stress.cc) --------

struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  friend bool operator==(const Agg&, const Agg&) = default;
};

class IdentityMapper
    : public mr::Mapper<int, int64_t, std::string, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           mr::MapContext<std::string, int64_t>* ctx) override {
    // String keys so the spill codec does real variable-length work.
    std::string k = "k";
    k += std::to_string(key);
    ctx->Emit(std::move(k), v);
  }
};

class AggReducer
    : public mr::Reducer<std::string, int64_t, std::string, Agg> {
 public:
  void Reduce(std::span<const std::pair<std::string, int64_t>> group,
              mr::ReduceContext<std::string, Agg>* ctx) override {
    Agg agg;
    for (const auto& [k, v] : group) {
      agg.sum += v;
      agg.count += 1;
    }
    ctx->Emit(group.front().first, agg);
  }
};

mr::JobSpec<int, int64_t, std::string, int64_t, std::string, Agg> AggSpec(
    uint32_t r) {
  mr::JobSpec<int, int64_t, std::string, int64_t, std::string, Agg> spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<AggReducer>();
  };
  spec.partitioner = [](const std::string& k, uint32_t r_) {
    uint32_t h = 2166136261u;
    for (char c : k) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    return h % r_;
  };
  spec.key_less = [](const std::string& a, const std::string& b) {
    return a < b;
  };
  spec.group_equal = [](const std::string& a, const std::string& b) {
    return a == b;
  };
  return spec;
}

void ExpectTaskMetricsEqual(const mr::JobMetrics& a,
                            const mr::JobMetrics& b) {
  ASSERT_EQ(a.map_tasks.size(), b.map_tasks.size());
  for (size_t i = 0; i < a.map_tasks.size(); ++i) {
    EXPECT_EQ(a.map_tasks[i].input_records, b.map_tasks[i].input_records);
    EXPECT_EQ(a.map_tasks[i].output_records, b.map_tasks[i].output_records);
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

class ExternalModeStressTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ExternalModeStressTest, ExternalEqualsInMemory) {
  auto [m, r, workers] = GetParam();
  Pcg32 rng(static_cast<uint64_t>(m * 977 + r * 31 + workers));
  std::vector<std::vector<std::pair<int, int64_t>>> input(m);
  for (auto& part : input) {
    uint32_t records = rng.NextBounded(300);
    for (uint32_t i = 0; i < records; ++i) {
      part.push_back({static_cast<int>(rng.NextBounded(37)),
                      rng.NextInRange(-1000, 1000)});
    }
  }

  mr::ExecutionOptions in_memory;
  in_memory.mode = mr::ExecutionMode::kInMemory;
  mr::ExecutionOptions external;
  external.mode = mr::ExecutionMode::kExternal;
  external.io_buffer_bytes = 256;  // tiny buffers: stress refill paths

  mr::JobRunner mem_runner(workers, in_memory);
  mr::JobRunner ext_runner(workers, external);
  auto spec = AggSpec(r);
  auto mem = mem_runner.Run(spec, input);
  auto ext = ext_runner.Run(spec, input);
  ASSERT_TRUE(mem.status.ok());
  ASSERT_TRUE(ext.status.ok()) << ext.status.ToString();
  EXPECT_FALSE(mem.metrics.external);
  EXPECT_TRUE(ext.metrics.external);

  // Byte-identical reduce outputs, per reduce task.
  ASSERT_EQ(mem.outputs_per_reduce_task.size(),
            ext.outputs_per_reduce_task.size());
  for (size_t t = 0; t < mem.outputs_per_reduce_task.size(); ++t) {
    EXPECT_EQ(mem.outputs_per_reduce_task[t],
              ext.outputs_per_reduce_task[t])
        << "reduce task " << t;
  }
  ExpectTaskMetricsEqual(mem.metrics, ext.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalModeStressTest,
    ::testing::Combine(::testing::Values(1, 3, 8),   // m
                       ::testing::Values(1, 4, 13),  // r
                       ::testing::Values(1, 4)),     // workers
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// ---- Auto mode ----------------------------------------------------------

TEST(ExecutionModeAutoTest, SmallInputStaysInMemory) {
  mr::ExecutionOptions options;  // defaults: kAuto, 256 MiB threshold
  mr::JobRunner runner(2, options);
  std::vector<std::vector<std::pair<int, int64_t>>> input{{{1, 1}, {2, 2}}};
  auto result = runner.Run(AggSpec(2), input);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.metrics.external);
  EXPECT_EQ(result.metrics.spill_bytes_written, 0);
}

TEST(ExecutionModeAutoTest, ThresholdCrossedGoesExternal) {
  mr::ExecutionOptions options;
  options.spill_threshold_bytes = 0;  // any input exceeds it
  mr::JobRunner runner(2, options);
  std::vector<std::vector<std::pair<int, int64_t>>> input{{{1, 1}, {2, 2}}};
  auto result = runner.Run(AggSpec(2), input);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.metrics.external);
  EXPECT_GT(result.metrics.spill_bytes_written, 0);
}

// ---- Strategy-level differential (all three, one- and two-source) -------

// The standard graph every strategy-level differential runs: m=5 map
// partitions, r=7, 4 workers, 512-byte I/O buffers.
constexpr uint32_t kMapTasks = 5;

core::DataflowOptions Options(mr::ExecutionMode mode) {
  core::DataflowOptions options;
  options.num_workers = 4;
  options.execution.mode = mode;
  options.execution.io_buffer_bytes = 512;
  return options;
}

core::StandardGraphOptions Graph(lb::StrategyKind kind) {
  return testing_util::GraphOptions(kind, 7);
}

std::vector<er::Entity> SkewedDataset(uint64_t seed, uint64_t n = 1500) {
  gen::SkewConfig config;
  config.num_entities = n;
  config.num_blocks = 25;
  config.skew = 1.0;
  config.duplicate_fraction = 0.2;
  config.seed = seed;
  auto data = gen::GenerateSkewed(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).ValueOrDie();
}

void ExpectPipelineResultsEqual(const GraphRun& mem, const GraphRun& ext) {
  // Same matches.
  EXPECT_TRUE(mem.matches.SameAs(ext.matches));
  EXPECT_EQ(mem.comparisons(), ext.comparisons());
  // Same per-task workloads and counters for both jobs.
  ExpectTaskMetricsEqual(mem.job("match"), ext.job("match"));
  ExpectTaskMetricsEqual(mem.job("bdm"), ext.job("bdm"));
  // Same plan, down to the serialized byte: PlanStats and the strategy
  // body are independent of the execution mode.
  ASSERT_EQ(mem.plan() != nullptr, ext.plan() != nullptr);
  if (mem.plan() != nullptr) {
    EXPECT_EQ(lb::MatchPlanToJson(*mem.plan()),
              lb::MatchPlanToJson(*ext.plan()));
    EXPECT_EQ(mem.plan()->stats().total_comparisons,
              ext.plan()->stats().total_comparisons);
  }
  // External mode really ran out-of-core.
  EXPECT_FALSE(mem.job("match").external);
  EXPECT_TRUE(ext.job("match").external);
  EXPECT_GT(ext.job("match").spill_bytes_written, 0);
}

class StrategyExternalTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(StrategyExternalTest, OneSourceDifferential) {
  auto entities = SkewedDataset(11);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = RunStandardGraph(Options(mr::ExecutionMode::kInMemory),
                              Graph(GetParam()),
                              OneSource(entities, kMapTasks), blocking,
                              matcher);
  auto ext = RunStandardGraph(Options(mr::ExecutionMode::kExternal),
                              Graph(GetParam()),
                              OneSource(entities, kMapTasks), blocking,
                              matcher);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *ext);
}

TEST_P(StrategyExternalTest, TwoSourceDifferential) {
  auto r_entities = SkewedDataset(21, 900);
  auto s_entities = SkewedDataset(22, 700);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = RunStandardGraph(
      Options(mr::ExecutionMode::kInMemory), Graph(GetParam()),
      TwoSources(r_entities, s_entities, kMapTasks), blocking, matcher);
  auto ext = RunStandardGraph(
      Options(mr::ExecutionMode::kExternal), Graph(GetParam()),
      TwoSources(r_entities, s_entities, kMapTasks), blocking, matcher);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *ext);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyExternalTest,
                         ::testing::Values(lb::StrategyKind::kBasic,
                                           lb::StrategyKind::kBlockSplit,
                                           lb::StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

// Sub-splits exercise BlockSplit's composite-key spill in its general
// form.
TEST(StrategyExternalTest, BlockSplitSubSplitsDifferential) {
  auto entities = SkewedDataset(31);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  auto run = [&](mr::ExecutionMode mode) {
    core::DataflowOptions options;
    options.num_workers = 4;
    options.execution.mode = mode;
    core::StandardGraphOptions graph;
    graph.strategy = lb::StrategyKind::kBlockSplit;
    graph.num_reduce_tasks = 6;
    graph.sub_splits = 3;
    return RunStandardGraph(options, graph, OneSource(entities, 4), blocking,
                            matcher);
  };
  auto mem = run(mr::ExecutionMode::kInMemory);
  auto ext = run(mr::ExecutionMode::kExternal);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(ext.ok());
  ExpectPipelineResultsEqual(*mem, *ext);
}

// Auto mode through the pipeline: a zero threshold pushes both jobs
// out-of-core, a huge one keeps them in memory; results stay identical.
TEST(StrategyExternalTest, AutoThresholdSelectsPath) {
  auto entities = SkewedDataset(41, 800);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  auto run = [&](uint64_t threshold) {
    core::DataflowOptions options;
    options.num_workers = 4;
    options.execution.spill_threshold_bytes = threshold;
    core::StandardGraphOptions graph;
    graph.strategy = lb::StrategyKind::kBlockSplit;
    graph.num_reduce_tasks = 5;
    return RunStandardGraph(options, graph, OneSource(entities, 3), blocking,
                            matcher);
  };
  auto spilled = run(0);
  auto in_memory = run(uint64_t{1} << 40);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_TRUE(in_memory.ok());
  EXPECT_TRUE(spilled->job("match").external);
  EXPECT_TRUE(spilled->job("bdm").external);
  EXPECT_FALSE(in_memory->job("match").external);
  EXPECT_TRUE(spilled->matches.SameAs(in_memory->matches));
}

// ---- Chunked CSV ingest + external mode end to end ----------------------

TEST(DeduplicateCsvTest, ChunkedIngestMatchesVectorPath) {
  auto entities = SkewedDataset(51, 600);
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const std::string csv_path = base->path() + "/entities.csv";
  ASSERT_TRUE(er::SaveEntitiesToCsv(csv_path, entities).ok());

  er::CsvSchema schema;
  schema.id_column = 0;
  schema.has_header = true;
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  // Tiny splits: the 600 entities become ceil(600/128) = 5 partitions,
  // each ingested as one bounded batch; external mode end to end.
  core::DataflowOptions options;
  options.num_workers = 4;
  core::StandardGraphOptions graph;
  graph.strategy = lb::StrategyKind::kBlockSplit;
  graph.num_reduce_tasks = 6;
  core::DataflowOptions external = options;
  external.execution.mode = mr::ExecutionMode::kExternal;
  core::Dataflow df(external);
  df.Emplace<core::CsvSourceStage>("source", core::kDatasetPartitions,
                                   csv_path, schema, 128);
  ASSERT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
  auto from_csv = testing_util::RunGraph(&df);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_TRUE(from_csv->job("match").external);
  EXPECT_EQ(from_csv->job("match").TotalMapInputRecords(), 600);
  ASSERT_EQ(from_csv->job("bdm").map_tasks.size(), 5u);

  // Same result as the in-memory vector path over the same partitioning.
  auto reference = RunStandardGraph(options, graph, OneSource(entities, 5),
                                    blocking, matcher);
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(reference->matches.size(), 0u);
  EXPECT_TRUE(from_csv->matches.SameAs(reference->matches));
}

TEST(DeduplicateCsvTest, MissingFileIsIoError) {
  er::CsvSchema schema;
  er::ConstantBlocking blocking;
  er::JaroWinklerMatcher matcher;
  core::Dataflow df;
  df.Emplace<core::CsvSourceStage>("source", core::kDatasetPartitions,
                                   "/nonexistent/file.csv", schema, 8192);
  ASSERT_TRUE(core::AddStandardGraph(&df, core::StandardGraphOptions{},
                                     &blocking, &matcher)
                  .ok());
  auto result = testing_util::RunGraph(&df);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace erlb
