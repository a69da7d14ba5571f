// Shared helpers for tests that run the ER workflow as a dataflow graph
// (core/stages.h): split entities into the graph's input partitions,
// compose the standard chain, run it, and hand back the run report next
// to the datasets the tests compare.
#ifndef ERLB_TESTS_GRAPH_TEST_UTIL_H_
#define ERLB_TESTS_GRAPH_TEST_UTIL_H_

#include <string_view>
#include <utility>
#include <vector>

#include "bdm/bdm.h"
#include "common/logging.h"
#include "common/result.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "er/matcher.h"
#include "lb/plan.h"
#include "lb/strategy.h"
#include "mr/metrics.h"

namespace erlb {
namespace testing_util {

/// What one graph run produced: its per-stage report plus the match
/// result and (when the graph has a BDM stage) the BDM.
struct GraphRun {
  core::DataflowReport report;
  er::MatchResult matches;
  bdm::Bdm bdm;

  /// Matcher invocations summed over every stage.
  int64_t comparisons() const { return report.TotalComparisons(); }

  /// The MR job metrics of `stage`; empty metrics when the graph has no
  /// such stage (the single-job Basic graph has no "bdm").
  mr::JobMetrics job(std::string_view stage) const {
    const core::StageReport* s = report.Find(stage);
    return s != nullptr && s->job.has_value() ? *s->job : mr::JobMetrics{};
  }

  /// The plan the "plan" stage built; nullptr when the graph plans
  /// nothing (single-job Basic, or a pre-built plan bound as input).
  const lb::MatchPlan* plan() const {
    const core::StageReport* s = report.Find("plan");
    return s != nullptr ? s->plan.get() : nullptr;
  }
};

/// The standard graph's options for `strategy` with `num_reduce_tasks`
/// reduce tasks, every other knob at its default.
inline core::StandardGraphOptions GraphOptions(lb::StrategyKind strategy,
                                               uint32_t num_reduce_tasks) {
  core::StandardGraphOptions graph;
  graph.strategy = strategy;
  graph.num_reduce_tasks = num_reduce_tasks;
  return graph;
}

/// One-source input: `entities` split into `m` map partitions.
inline core::PartitionedEntities OneSource(
    const std::vector<er::Entity>& entities, uint32_t m) {
  core::PartitionedEntities input;
  input.partitions = er::SplitIntoPartitions(entities, m);
  return input;
}

/// Two-source input laid out by core::LinkagePartitions; both sources
/// must be non-empty.
inline core::PartitionedEntities TwoSources(
    const std::vector<er::Entity>& r_entities,
    const std::vector<er::Entity>& s_entities, uint32_t m) {
  auto input = core::LinkagePartitions(r_entities, s_entities, m);
  ERLB_CHECK(input.ok()) << input.status().ToString();
  return std::move(input).ValueOrDie();
}

/// Runs `df` and takes its kDatasetMatches and, if the graph produced
/// one, its kDatasetBdm dataset.
[[nodiscard]] inline Result<GraphRun> RunGraph(core::Dataflow* df) {
  GraphRun run;
  ERLB_ASSIGN_OR_RETURN(run.report, df->Run());
  ERLB_ASSIGN_OR_RETURN(run.matches,
                        df->Take<er::MatchResult>(core::kDatasetMatches));
  if (df->Find(core::kDatasetBdm) != nullptr) {
    ERLB_ASSIGN_OR_RETURN(run.bdm, df->Take<bdm::Bdm>(core::kDatasetBdm));
  }
  return run;
}

/// Runs the standard graph (core::AddStandardGraph) over `input`.
[[nodiscard]] inline Result<GraphRun> RunStandardGraph(
    const core::DataflowOptions& options,
    const core::StandardGraphOptions& graph, core::PartitionedEntities input,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    const lb::MatchPlan* prebuilt_plan = nullptr) {
  core::Dataflow df(options);
  ERLB_RETURN_NOT_OK(df.AddInput(core::kDatasetPartitions,
                                 core::Dataset(std::move(input))));
  ERLB_RETURN_NOT_OK(core::AddStandardGraph(&df, graph, &blocking, &matcher,
                                            "", prebuilt_plan));
  return RunGraph(&df);
}

}  // namespace testing_util
}  // namespace erlb

#endif  // ERLB_TESTS_GRAPH_TEST_UTIL_H_
