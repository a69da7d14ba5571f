#include "batch.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/stages.h"
#include "er/entity_io.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "sim/calibrate.h"
#include "sim/er_sim.h"

namespace e2e {

namespace {

/// Candidate pairs timed single-threaded for er.kernel_ns_per_cmp.
constexpr uint32_t kKernelSamplePairs = 200000;

/// Blocks per dedup checked against the reference; blocks with more
/// pairs than kExactMaxPairs get kPairsPerLargeBlock sampled pairs.
constexpr size_t kSampleBlocks = 8;
constexpr uint64_t kExactMaxPairs = uint64_t{1} << 19;
constexpr uint32_t kPairsPerLargeBlock = 2000;

/// Decorates a stage with a span named after the erlb call the stage
/// makes; the stage's inputs, outputs, kind and report are unchanged.
class TracedStage : public core::Stage {
 public:
  TracedStage(std::unique_ptr<core::Stage> inner, std::string call,
              std::string layer, Tracer* tracer, int32_t parent)
      : Stage(inner->name()),
        inner_(std::move(inner)),
        call_(std::move(call)),
        layer_(std::move(layer)),
        tracer_(tracer),
        parent_(parent) {
    for (const auto& in : inner_->inputs()) DeclareInput(in);
    for (const auto& out : inner_->outputs()) DeclareOutput(out);
  }
  const char* kind() const override { return inner_->kind(); }
  [[nodiscard]] erlb::Status Run(core::DataflowContext* ctx) override {
    ScopedSpan span(tracer_, call_, layer_, parent_);
    return inner_->Run(ctx);
  }

 private:
  std::unique_ptr<core::Stage> inner_;
  std::string call_;
  std::string layer_;
  Tracer* tracer_;
  int32_t parent_;
};

/// Accepts nothing and compares nothing: what is left of the match job
/// is the engine (map, shuffle, reduce-side pair enumeration).
class NullMatcher : public er::Matcher {
 public:
  bool Match(const er::Entity&, const er::Entity&) const override {
    return false;
  }
  double Similarity(const er::Entity&, const er::Entity&) const override {
    return 0;
  }
  std::string Describe() const override { return "null"; }
};

/// Single-threaded Matcher::Match over candidate pairs drawn uniformly
/// from all within-block pairs; nanoseconds per comparison.
double KernelNsPerComparison(const BatchInput& input, uint64_t seed) {
  std::vector<uint64_t> cumulative;
  std::vector<uint32_t> block_ids;
  uint64_t total = 0;
  for (uint32_t b = 0; b < input.blocks.blocks.size(); ++b) {
    const uint64_t n = input.blocks.blocks[b].size();
    if (n < 2) continue;
    total += n * (n - 1) / 2;
    cumulative.push_back(total);
    block_ids.push_back(b);
  }
  if (total == 0) return 0;
  erlb::Pcg32 rng(seed, /*stream=*/0x6e7);
  std::vector<std::pair<const er::Entity*, const er::Entity*>> pairs;
  pairs.reserve(kKernelSamplePairs);
  for (uint32_t i = 0; i < kKernelSamplePairs; ++i) {
    const uint64_t pick =
        ((uint64_t{rng.Next()} << 32) | rng.Next()) % total;
    const size_t slot =
        std::upper_bound(cumulative.begin(), cumulative.end(), pick) -
        cumulative.begin();
    const auto& members = input.blocks.blocks[block_ids[slot]];
    const uint32_t n = static_cast<uint32_t>(members.size());
    const uint32_t x = rng.NextBounded(n);
    uint32_t y = rng.NextBounded(n - 1);
    if (y >= x) ++y;
    pairs.emplace_back(members[x], members[y]);
  }
  uint64_t accepted = 0;
  erlb::Stopwatch watch;
  for (const auto& [a, b] : pairs) accepted += input.matcher.Match(*a, *b);
  const double ns = watch.ElapsedNanos() / static_cast<double>(pairs.size());
  // Keeps the loop from being optimized away.
  if (accepted > pairs.size()) std::abort();
  return ns;
}

}  // namespace

erlb::Result<DedupRun> RunDedup(const WorkloadSpec& spec,
                                const BatchInput& input,
                                const std::string& temp_dir,
                                Tracer* tracer) {
  DedupRun run;
  erlb::Stopwatch watch;
  std::optional<ScopedSpan> root;
  if (tracer != nullptr) root.emplace(tracer, "dedup", "core", -1);

  core::DataflowOptions options;
  options.num_workers = kWorkers;
  options.execution.temp_dir = temp_dir;
  run.graph = std::make_unique<core::Dataflow>(options);
  core::Dataflow& df = *run.graph;

  er::CsvSchema schema;
  schema.id_column = 0;
  auto source = std::make_unique<core::CsvSourceStage>(
      "ingest", core::kDatasetPartitions, input.csv_path, schema,
      spec.split_records);
  core::StandardGraphOptions graph;
  graph.strategy = spec.strategy;
  graph.num_reduce_tasks = kReduceTasks;
  const er::BlockingFunction* blocking = &input.blocking;
  const er::Matcher* matcher = &input.matcher;

  if (tracer == nullptr) {
    // csv_dedup's graph, verbatim.
    df.Add(std::move(source));
    ERLB_RETURN_NOT_OK(core::AddStandardGraph(&df, graph, blocking, matcher));
    df.Emplace<core::ClusterStage>("cluster", core::kDatasetMatches,
                                   core::kDatasetClusters);
  } else {
    // The same stages AddStandardGraph composes for BlockSplit and
    // PairRange (the workloads' strategies), each inside a span.
    const int32_t parent = root->id();
    auto traced = [&](std::unique_ptr<core::Stage> stage, const char* call,
                      const char* layer) {
      df.Emplace<TracedStage>(std::move(stage), call, layer, tracer, parent);
    };
    traced(std::move(source), "LoadEntitiesFromCsvChunked", "er.ingest");
    core::BdmStageOptions bdm_options;
    bdm_options.num_reduce_tasks = graph.num_reduce_tasks;
    bdm_options.use_combiner = graph.use_combiner;
    bdm_options.missing_key_policy = graph.missing_key_policy;
    traced(std::make_unique<core::BdmStage>(
               "bdm", core::kDatasetPartitions, core::kDatasetBdm,
               core::kDatasetAnnotated, blocking, bdm_options),
           "RunBdmJob", "bdm");
    traced(std::make_unique<core::PlanStage>("plan", core::kDatasetBdm,
                                             core::kDatasetPlan,
                                             graph.strategy,
                                             graph.MatchOptions()),
           "Strategy::BuildPlan", "lb");
    traced(std::make_unique<core::MatchStage>(
               "match", core::kDatasetPlan, core::kDatasetAnnotated,
               core::kDatasetBdm, core::kDatasetMatches, matcher),
           "Strategy::ExecutePlan", "mr");
    traced(std::make_unique<core::ClusterStage>(
               "cluster", core::kDatasetMatches, core::kDatasetClusters),
           "ClusterMatches", "er.cluster");
  }

  ERLB_ASSIGN_OR_RETURN(run.report, df.Run());
  run.wall_s = watch.ElapsedSeconds();
  if (tracer != nullptr) {
    const int32_t root_id = root->id();
    root.reset();
    run.self_s = tracer->SelfSecondsByLayer(root_id);
  }
  return run;
}

void CheckDedup(const BatchInput& input, const DedupRun& run,
                uint64_t sample_seed, uint64_t* digest, Tally* tally) {
  const core::StageReport* match = run.report.Find("match");
  const bool reported =
      match != nullptr && match->job.has_value() && match->plan != nullptr;
  tally->Expect(reported, "match stage reported no job or plan");
  if (reported) {
    const std::string why = CheckComparisons(
        *match->plan, *match->job, match->comparisons, input.reference_pairs);
    tally->Expect(why.empty(), why);
  }

  auto matches = run.graph->Get<er::MatchResult>(core::kDatasetMatches);
  auto clusters = run.graph->Get<er::Clusters>(core::kDatasetClusters);
  tally->Expect(matches.ok() && clusters.ok(), "dedup produced no matches");
  if (!matches.ok() || !clusters.ok()) return;
  const std::vector<er::MatchPair> sorted = SortedPairs(**matches);
  const std::string why = CheckSampledBlocks(
      input.blocks, input.blocking, input.matcher, sorted, sample_seed,
      kSampleBlocks, kExactMaxPairs, kPairsPerLargeBlock);
  tally->Expect(why.empty(), why);

  // The clusters partition exactly the matched ids.
  std::vector<uint64_t> matched;
  matched.reserve(sorted.size() * 2);
  for (const er::MatchPair& p : sorted) {
    matched.push_back(p.first);
    matched.push_back(p.second);
  }
  std::sort(matched.begin(), matched.end());
  matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
  std::vector<uint64_t> clustered;
  for (const auto& cluster : **clusters) {
    clustered.insert(clustered.end(), cluster.begin(), cluster.end());
  }
  std::sort(clustered.begin(), clustered.end());
  tally->Expect(clustered == matched,
                "clusters do not partition the matched ids");

  const uint64_t d = PairDigest(sorted) ^ (*clusters)->size();
  if (*digest == 0) {
    *digest = d;
  } else {
    tally->Expect(d == *digest, "dedup output differs from the first dedup");
  }
}

Metrics DedupLayerMetrics(const DedupRun& traced) {
  Metrics m;
  auto self = [&](const char* layer) {
    auto it = traced.self_s.find(layer);
    return it == traced.self_s.end() ? 0.0 : it->second;
  };
  m["er.ingest_s"] = {self("er.ingest"), "s"};
  m["bdm.job_s"] = {self("bdm"), "s"};
  m["lb.plan_s"] = {self("lb"), "s"};
  m["mr.match_s"] = {self("mr"), "s"};
  m["er.cluster_s"] = {self("er.cluster"), "s"};

  double ledger = 0;
  for (const auto& [layer, s] : traced.self_s) ledger += s;
  m["trace.ledger_coverage"] = {traced.wall_s > 0 ? ledger / traced.wall_s : 0,
                                "ratio"};

  const core::StageReport* match = traced.report.Find("match");
  const core::StageReport* bdm_stage = traced.report.Find("bdm");
  const core::StageReport* cluster = traced.report.Find("cluster");
  if (match == nullptr || !match->job || match->plan == nullptr ||
      bdm_stage == nullptr || !bdm_stage->job || cluster == nullptr) {
    return m;
  }
  const lb::PlanStats& plan = match->plan->stats();
  const mr::JobMetrics& job = *match->job;
  m["bdm.blocks"] = {
      static_cast<double>(match->plan->bdm_fingerprint().num_blocks),
      "count"};
  m["lb.comparisons"] = {static_cast<double>(plan.total_comparisons),
                         "count"};
  m["lb.plan_imbalance"] = {plan.ReduceImbalance(), "ratio"};
  m["mr.map_s"] = {job.map_phase_nanos / 1e9, "s"};
  m["mr.reduce_s"] = {job.reduce_phase_nanos / 1e9, "s"};
  m["mr.shuffle_pairs"] = {static_cast<double>(job.TotalMapOutputPairs()),
                           "count"};
  double max_ns = 0;
  double sum_ns = 0;
  for (const mr::TaskMetrics& t : job.reduce_tasks) {
    max_ns = std::max(max_ns, static_cast<double>(t.duration_nanos));
    sum_ns += static_cast<double>(t.duration_nanos);
  }
  const double tasks = static_cast<double>(job.reduce_tasks.size());
  m["mr.reduce_max_over_mean"] = {sum_ns > 0 ? max_ns * tasks / sum_ns : 0,
                                  "ratio"};
  m["mr.task_retries"] = {
      static_cast<double>(job.task_retries + bdm_stage->job->task_retries),
      "count"};
  m["er.match_ratio"] = {
      match->comparisons > 0
          ? static_cast<double>(match->output_records) / match->comparisons
          : 0,
      "ratio"};
  m["er.clusters"] = {static_cast<double>(cluster->output_records), "count"};
  return m;
}

erlb::Status AddMatchLayerProbes(const BatchInput& input,
                                 const DedupRun& traced, uint64_t seed,
                                 Tally* tally, Metrics* metrics) {
  const core::Dataflow& df = *traced.graph;
  ERLB_ASSIGN_OR_RETURN(const bdm::Bdm* bdm,
                        df.Get<bdm::Bdm>(core::kDatasetBdm));
  ERLB_ASSIGN_OR_RETURN(
      const std::shared_ptr<bdm::AnnotatedStore>* annotated,
      df.Get<std::shared_ptr<bdm::AnnotatedStore>>(core::kDatasetAnnotated));
  ERLB_ASSIGN_OR_RETURN(
      const std::shared_ptr<const lb::MatchPlan>* plan,
      df.Get<std::shared_ptr<const lb::MatchPlan>>(core::kDatasetPlan));

  // Engine only: the same plan with a matcher that does no work.
  {
    NullMatcher null;
    erlb::ThreadPool pool(kWorkers);
    mr::JobRunner runner(&pool, df.options().execution);
    erlb::Stopwatch watch;
    ERLB_ASSIGN_OR_RETURN(lb::MatchJobOutput out,
                          lb::MakeStrategy((*plan)->strategy())
                              ->ExecutePlan(**plan, **annotated, *bdm, null,
                                            runner));
    (*metrics)["mr.engine_s"] = {watch.ElapsedSeconds(), "s"};
    tally->Expect(static_cast<uint64_t>(out.comparisons) ==
                          (*plan)->stats().total_comparisons &&
                      out.matches.empty(),
                  "engine-only match job broke the comparison count");
  }

  const double kernel_ns = KernelNsPerComparison(input, seed);
  (*metrics)["er.kernel_ns_per_cmp"] = {kernel_ns, "ns"};

  ERLB_ASSIGN_OR_RETURN(lb::MatchPlan basic,
                        lb::MakeStrategy(lb::StrategyKind::kBasic)
                            ->BuildPlan(*bdm, (*plan)->options()));
  (*metrics)["lb.basic_plan_imbalance"] = {basic.stats().ReduceImbalance(),
                                           "ratio"};

  // The simulator, calibrated to this machine, against the measured
  // match job: one node whose slots are the benchmark's workers.
  sim::CalibrationOptions calibration;
  calibration.base.task_overhead_ms = 0;
  calibration.base.job_overhead_s = 0;
  ERLB_ASSIGN_OR_RETURN(
      sim::Calibration cal,
      sim::CalibrateCostModel(input.entities, input.blocking, input.matcher,
                              calibration));
  sim::CostModel cost = cal.model;
  cost.pair_cost_us = kernel_ns / 1e3;
  cost.kv_cost_us = cost.record_cost_us;
  sim::ClusterConfig cluster;
  cluster.num_nodes = 1;
  cluster.map_slots_per_node = kWorkers;
  cluster.reduce_slots_per_node = kWorkers;
  ERLB_ASSIGN_OR_RETURN(sim::ErSimResult predicted,
                        sim::SimulateMatchPlan(**plan, *bdm, cluster, cost));
  auto measured = traced.self_s.find("mr");
  if (measured != traced.self_s.end() && measured->second > 0) {
    (*metrics)["sim.predicted_over_measured"] = {
        (predicted.match_map_phase_s + predicted.match_reduce_phase_s) /
            measured->second,
        "ratio"};
  }
  return erlb::Status::OK();
}

}  // namespace e2e
