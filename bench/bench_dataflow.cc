// Dataflow overhead micro benchmark: every workload runs the standard
// stage graph (core/dataflow.h, core/stages.h), so this bench pins the
// cost of that indirection — graph construction alone, and a full graph
// run against the same jobs invoked directly (RunBdmJob + BuildPlan +
// ExecutePlan on one runner, the pre-dataflow pipeline body). The
// entries keep their historical names: `run/pipeline_adapter` is the
// graph built and run directly (input binding, standard chain, run,
// match dataset taken out), and `overhead/direct_vs_adapter` is direct
// jobs / graph run, which must stay ~1x; it is gated by
// tools/bench_compare.py against the committed BENCH_dataflow.json
// baseline.
//
//   $ ./bench_dataflow [--json <path>] [--reps N] [--min-rep-ms N]
#include <string>
#include <vector>

#include "bdm/bdm_job.h"
#include "bench_json.h"
#include "common/logging.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "mr/job.h"

using namespace erlb;

int main(int argc, char** argv) {
  bench::MicroBench harness("bench_dataflow");
  if (!harness.ParseArgs(argc, argv)) return 1;

  gen::SkewConfig gen_config;
  gen_config.num_entities = 1500;
  gen_config.num_blocks = 60;
  // Mild skew (20x largest/smallest block): enough splitting work for
  // BlockSplit while one run stays in the tens of milliseconds — the
  // adapter overhead being measured is per-run, not per-comparison.
  gen_config.skew = 3.0 / gen_config.num_blocks;
  gen_config.duplicate_fraction = 0.2;
  gen_config.seed = 7;
  auto entities = gen::GenerateSkewed(gen_config);
  ERLB_CHECK(entities.ok());

  const uint32_t m = 4, r = 16, workers = 4;
  er::Partitions parts = er::SplitIntoPartitions(*entities, m);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  core::DataflowOptions options;
  options.num_workers = workers;
  core::StandardGraphOptions graph;
  graph.strategy = lb::StrategyKind::kBlockSplit;
  graph.num_reduce_tasks = r;

  // The standard graph over `parts`, built but not run.
  auto build_graph = [&] {
    core::Dataflow df(options);
    core::PartitionedEntities input;
    input.partitions = parts;
    Status bound =
        df.AddInput(core::kDatasetPartitions, core::Dataset(std::move(input)));
    ERLB_CHECK(bound.ok());
    ERLB_CHECK(
        core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
    return df;
  };

  // The pre-dataflow pipeline body: both jobs on one directly-owned
  // runner, no graph, no report.
  harness.Run("run/direct_jobs", [&] {
    mr::JobRunner runner(workers, options.execution);
    bdm::BdmJobOptions bdm_options;
    bdm_options.num_reduce_tasks = r;
    auto bdm_out = bdm::RunBdmJob(parts, blocking, bdm_options, runner);
    ERLB_CHECK(bdm_out.ok());
    auto strategy = lb::MakeStrategy(graph.strategy);
    lb::MatchJobOptions match_options;
    match_options.num_reduce_tasks = r;
    auto plan = strategy->BuildPlan(bdm_out->bdm, match_options);
    ERLB_CHECK(plan.ok());
    auto out = strategy->ExecutePlan(*plan, *bdm_out->annotated,
                                     bdm_out->bdm, matcher, runner);
    ERLB_CHECK(out.ok());
    ERLB_CHECK(out->matches.size() > 0);
  });

  // The graph: same jobs, reached through graph build + validate + run +
  // report assembly.
  harness.Run("run/pipeline_adapter", [&] {
    core::Dataflow df = build_graph();
    ERLB_CHECK(df.Run().ok());
    auto matches = df.Take<er::MatchResult>(core::kDatasetMatches);
    ERLB_CHECK(matches.ok());
    ERLB_CHECK(matches->size() > 0);
  });

  // direct / graph; ~1.0 means the graph machinery is free at job
  // granularity. Gated (higher is better, so a regression = the graph
  // getting relatively slower).
  harness.Speedup("overhead/direct_vs_adapter", "run/direct_jobs",
                  "run/pipeline_adapter");

  // Graph construction alone (no execution): stage allocation, dataset
  // wiring, DAG validation, input binding.
  harness.Run("build/standard_graph", [&] {
    core::Dataflow df = build_graph();
    ERLB_CHECK(df.Validate().ok());
  });

  return harness.Finish();
}
