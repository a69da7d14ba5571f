#include "core/stages.h"

#include <algorithm>
#include <string>
#include <utility>

#include "lb/basic.h"

namespace erlb {
namespace core {

// ---- CsvSourceStage -------------------------------------------------------

CsvSourceStage::CsvSourceStage(std::string name, std::string out_partitions,
                               std::string csv_path, er::CsvSchema schema,
                               uint32_t split_records)
    : Stage(std::move(name)),
      out_(std::move(out_partitions)),
      csv_path_(std::move(csv_path)),
      schema_(std::move(schema)),
      split_records_(split_records) {
  DeclareOutput(out_);
}

Status CsvSourceStage::Run(DataflowContext* ctx) {
  if (split_records_ == 0) {
    return Status::InvalidArgument("csv_split_records must be >= 1");
  }
  // Chunked ingest: each bounded batch of rows becomes one input split
  // (map partition); neither the raw file nor all rows are ever resident
  // at once.
  PartitionedEntities out;
  ERLB_ASSIGN_OR_RETURN(
      uint64_t total,
      er::LoadEntitiesFromCsvChunked(
          csv_path_, schema_, split_records_,
          [&out](std::vector<er::Entity>&& batch) {
            std::vector<er::EntityRef> split;
            split.reserve(batch.size());
            for (auto& e : batch) {
              split.push_back(er::MakeEntityRef(std::move(e)));
            }
            out.partitions.push_back(std::move(split));
            return Status::OK();
          }));
  if (total == 0) {
    return Status::InvalidArgument("input is empty: " + csv_path_);
  }
  ctx->report().output_records = total;
  return ctx->Out(out_, Dataset(std::move(out)));
}

// ---- EntitySourceStage ----------------------------------------------------

EntitySourceStage::EntitySourceStage(std::string name,
                                     std::string out_partitions,
                                     const std::vector<er::Entity>* entities,
                                     uint32_t num_partitions, Filter filter)
    : Stage(std::move(name)),
      out_(std::move(out_partitions)),
      entities_(entities),
      num_partitions_(num_partitions),
      filter_(std::move(filter)) {
  DeclareOutput(out_);
}

Status EntitySourceStage::Run(DataflowContext* ctx) {
  if (num_partitions_ == 0) {
    return Status::InvalidArgument("num_map_tasks must be >= 1");
  }
  PartitionedEntities out;
  if (filter_ == nullptr) {
    if (entities_->empty()) {
      return Status::InvalidArgument("input is empty");
    }
    out.partitions = er::SplitIntoPartitions(*entities_, num_partitions_);
  } else {
    std::vector<er::EntityRef> admitted;
    for (const auto& e : *entities_) {
      if (filter_(e)) admitted.push_back(er::MakeEntityRef(e));
    }
    if (admitted.empty()) {
      return Status::InvalidArgument("input is empty after filtering");
    }
    out.partitions = er::SplitRefsIntoPartitions(admitted, num_partitions_);
  }
  uint64_t records = 0;
  for (const auto& p : out.partitions) records += p.size();
  ctx->report().output_records = records;
  return ctx->Out(out_, Dataset(std::move(out)));
}

// ---- BdmStage -------------------------------------------------------------

BdmStage::BdmStage(std::string name, std::string in_partitions,
                   std::string out_bdm, std::string out_annotated,
                   const er::BlockingFunction* blocking,
                   BdmStageOptions options)
    : Stage(std::move(name)),
      in_(std::move(in_partitions)),
      out_bdm_(std::move(out_bdm)),
      out_annotated_(std::move(out_annotated)),
      blocking_(blocking),
      options_(options) {
  DeclareInput(in_);
  DeclareOutput(out_bdm_);
  DeclareOutput(out_annotated_);
}

Status BdmStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const PartitionedEntities* input,
                        ctx->In<PartitionedEntities>(in_));
  bdm::BdmJobOptions options;
  options.num_reduce_tasks = options_.num_reduce_tasks;
  options.use_combiner = options_.use_combiner;
  options.missing_key_policy = options_.missing_key_policy;
  options.partition_sources = input->sources;
  ERLB_ASSIGN_OR_RETURN(
      bdm::BdmJobOutput out,
      bdm::RunBdmJob(input->partitions, *blocking_, options,
                     ctx->runner()));
  ctx->report().job = std::move(out.metrics);
  ctx->report().skipped_entities = out.skipped_entities;
  ctx->report().output_records = out.annotated->TotalRecords();
  ERLB_RETURN_NOT_OK(ctx->Out(out_bdm_, Dataset(std::move(out.bdm))));
  return ctx->Out(out_annotated_, Dataset(std::move(out.annotated)));
}

// ---- PlanStage ------------------------------------------------------------

PlanStage::PlanStage(std::string name, std::string in_bdm,
                     std::string out_plan, lb::StrategyKind strategy,
                     lb::MatchJobOptions options)
    : Stage(std::move(name)),
      in_(std::move(in_bdm)),
      out_(std::move(out_plan)),
      strategy_(strategy),
      options_(options) {
  DeclareInput(in_);
  DeclareOutput(out_);
}

Status PlanStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const bdm::Bdm* bdm, ctx->In<bdm::Bdm>(in_));
  auto strategy = lb::MakeStrategy(strategy_);
  ERLB_ASSIGN_OR_RETURN(lb::MatchPlan plan,
                        strategy->BuildPlan(*bdm, options_));
  auto shared = std::make_shared<const lb::MatchPlan>(std::move(plan));
  ctx->report().plan = shared;
  return ctx->Out(out_, Dataset(std::move(shared)));
}

// ---- MatchStage -----------------------------------------------------------

MatchStage::MatchStage(std::string name, std::string in_plan,
                       std::string in_annotated, std::string in_bdm,
                       std::string out_matches, const er::Matcher* matcher)
    : Stage(std::move(name)),
      in_plan_(std::move(in_plan)),
      in_annotated_(std::move(in_annotated)),
      in_bdm_(std::move(in_bdm)),
      out_(std::move(out_matches)),
      matcher_(matcher) {
  DeclareInput(in_plan_);
  DeclareInput(in_annotated_);
  DeclareInput(in_bdm_);
  DeclareOutput(out_);
}

Status MatchStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(
      const std::shared_ptr<const lb::MatchPlan>* plan,
      ctx->In<std::shared_ptr<const lb::MatchPlan>>(in_plan_));
  ERLB_ASSIGN_OR_RETURN(
      const std::shared_ptr<bdm::AnnotatedStore>* annotated,
      ctx->In<std::shared_ptr<bdm::AnnotatedStore>>(in_annotated_));
  ERLB_ASSIGN_OR_RETURN(const bdm::Bdm* bdm, ctx->In<bdm::Bdm>(in_bdm_));
  auto strategy = lb::MakeStrategy((*plan)->strategy());
  ERLB_ASSIGN_OR_RETURN(
      lb::MatchJobOutput out,
      strategy->ExecutePlan(**plan, **annotated, *bdm, *matcher_,
                            ctx->runner()));
  // The plan is computed from the BDM alone and fixes every comparison
  // the job makes; a different executed count means the plan does not
  // describe this input (or the job lost or repeated work).
  const uint64_t planned = (*plan)->stats().total_comparisons;
  if (static_cast<uint64_t>(out.comparisons) != planned) {
    const std::string executed = std::to_string(out.comparisons);
    const std::string predicted = std::to_string(planned);
    return Status::Internal("match job executed " + executed +
                            " comparisons but its plan predicts " +
                            predicted);
  }
  ctx->report().job = std::move(out.metrics);
  ctx->report().comparisons = out.comparisons;
  ctx->report().plan = *plan;
  ctx->report().output_records = out.matches.size();
  return ctx->Out(out_, Dataset(std::move(out.matches)));
}

// ---- BasicMatchStage ------------------------------------------------------

BasicMatchStage::BasicMatchStage(std::string name, std::string in_partitions,
                                 std::string out_matches,
                                 const er::BlockingFunction* blocking,
                                 const er::Matcher* matcher,
                                 lb::MatchJobOptions options)
    : Stage(std::move(name)),
      in_(std::move(in_partitions)),
      out_(std::move(out_matches)),
      blocking_(blocking),
      matcher_(matcher),
      options_(options) {
  DeclareInput(in_);
  DeclareOutput(out_);
}

Status BasicMatchStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const PartitionedEntities* input,
                        ctx->In<PartitionedEntities>(in_));
  const std::vector<er::Source>* sources =
      input->sources.empty() ? nullptr : &input->sources;
  ERLB_ASSIGN_OR_RETURN(
      lb::MatchJobOutput out,
      lb::RunBasicSingleJob(input->partitions, *blocking_, *matcher_,
                            options_, ctx->runner(), sources));
  ctx->report().job = std::move(out.metrics);
  ctx->report().comparisons = out.comparisons;
  ctx->report().output_records = out.matches.size();
  return ctx->Out(out_, Dataset(std::move(out.matches)));
}

// ---- ClusterStage ---------------------------------------------------------

ClusterStage::ClusterStage(std::string name, std::string in_matches,
                           std::string out_clusters)
    : Stage(std::move(name)),
      in_(std::move(in_matches)),
      out_(std::move(out_clusters)) {
  DeclareInput(in_);
  DeclareOutput(out_);
}

Status ClusterStage::Run(DataflowContext* ctx) {
  ERLB_ASSIGN_OR_RETURN(const er::MatchResult* matches,
                        ctx->In<er::MatchResult>(in_));
  er::Clusters clusters = er::ClusterMatches(*matches);
  ctx->report().output_records = clusters.size();
  return ctx->Out(out_, Dataset(std::move(clusters)));
}

// ---- UnionMatchesStage ----------------------------------------------------

UnionMatchesStage::UnionMatchesStage(std::string name,
                                     std::vector<std::string> in_matches,
                                     std::string out_matches)
    : Stage(std::move(name)),
      ins_(std::move(in_matches)),
      out_(std::move(out_matches)) {
  for (const auto& in : ins_) DeclareInput(in);
  DeclareOutput(out_);
}

Status UnionMatchesStage::Run(DataflowContext* ctx) {
  er::MatchResult all;
  for (const auto& in : ins_) {
    ERLB_ASSIGN_OR_RETURN(const er::MatchResult* matches,
                          ctx->In<er::MatchResult>(in));
    all.Merge(*matches);
  }
  all.Canonicalize();
  ctx->report().output_records = all.size();
  return ctx->Out(out_, Dataset(std::move(all)));
}

// ---- Graph builders -------------------------------------------------------

namespace {

/// LinkagePartitions over the entities of `r_entities` and `s_entities`
/// that pass `r_keep` and `s_keep` (a null filter admits every entity).
/// Each admitted entity is copied once, straight into its tagged ref.
Result<PartitionedEntities> FilteredLinkagePartitions(
    const std::vector<er::Entity>& r_entities,
    const EntitySourceStage::Filter& r_keep,
    const std::vector<er::Entity>& s_entities,
    const EntitySourceStage::Filter& s_keep, uint32_t num_map_tasks) {
  if (num_map_tasks == 0) {
    return Status::InvalidArgument("num_map_tasks must be >= 1");
  }
  auto tagged = [](const std::vector<er::Entity>& entities,
                   const EntitySourceStage::Filter& keep, er::Source source) {
    std::vector<er::EntityRef> refs;
    for (const auto& e : entities) {
      if (keep != nullptr && !keep(e)) continue;
      er::Entity copy = e;
      copy.source = source;
      refs.push_back(er::MakeEntityRef(std::move(copy)));
    }
    return refs;
  };
  const std::vector<er::EntityRef> r =
      tagged(r_entities, r_keep, er::Source::kR);
  const std::vector<er::EntityRef> s =
      tagged(s_entities, s_keep, er::Source::kS);
  if (r.empty() || s.empty()) {
    return Status::InvalidArgument("both sources must be non-empty");
  }
  // Proportional split of m between the sources, at least one each.
  const uint32_t m = std::max(num_map_tasks, 2u);
  const double nr = static_cast<double>(r.size());
  const double total = nr + static_cast<double>(s.size());
  const uint32_t r_tasks = std::clamp<uint32_t>(
      static_cast<uint32_t>(m * (nr / total) + 0.5), 1, m - 1);
  const uint32_t s_tasks = m - r_tasks;

  PartitionedEntities out;
  out.partitions = er::SplitRefsIntoPartitions(r, r_tasks);
  out.sources.assign(r_tasks, er::Source::kR);
  for (auto& p : er::SplitRefsIntoPartitions(s, s_tasks)) {
    out.partitions.push_back(std::move(p));
    out.sources.push_back(er::Source::kS);
  }
  return out;
}

}  // namespace

Result<PartitionedEntities> LinkagePartitions(
    const std::vector<er::Entity>& r_entities,
    const std::vector<er::Entity>& s_entities, uint32_t num_map_tasks) {
  return FilteredLinkagePartitions(r_entities, nullptr, s_entities, nullptr,
                                   num_map_tasks);
}

Status AddStandardGraph(Dataflow* df, const StandardGraphOptions& options,
                        const er::BlockingFunction* blocking,
                        const er::Matcher* matcher,
                        const std::string& dataset_prefix,
                        const lb::MatchPlan* prebuilt_plan) {
  auto named = [&dataset_prefix](const char* name) {
    return dataset_prefix + name;
  };
  lb::MatchJobOptions match_options = options.MatchOptions();

  if (prebuilt_plan == nullptr &&
      options.strategy == lb::StrategyKind::kBasic) {
    // Single job, no BDM (Section III's straightforward approach).
    df->Emplace<BasicMatchStage>(named("match"), named(kDatasetPartitions),
                                 named(kDatasetMatches), blocking, matcher,
                                 match_options);
    return Status::OK();
  }

  BdmStageOptions bdm_options;
  bdm_options.num_reduce_tasks = options.num_reduce_tasks;
  bdm_options.use_combiner = options.use_combiner;
  bdm_options.missing_key_policy = options.missing_key_policy;
  df->Emplace<BdmStage>(named("bdm"), named(kDatasetPartitions),
                        named(kDatasetBdm), named(kDatasetAnnotated),
                        blocking, bdm_options);

  if (prebuilt_plan == nullptr) {
    df->Emplace<PlanStage>(named("plan"), named(kDatasetBdm),
                           named(kDatasetPlan), options.strategy,
                           match_options);
  } else {
    // A pre-built plan enters the graph as an external dataset; it
    // already fixes the strategy and every matching-job option.
    ERLB_RETURN_NOT_OK(df->AddInput(
        named(kDatasetPlan),
        Dataset(std::make_shared<const lb::MatchPlan>(*prebuilt_plan))));
  }
  df->Emplace<MatchStage>(named("match"), named(kDatasetPlan),
                          named(kDatasetAnnotated), named(kDatasetBdm),
                          named(kDatasetMatches), matcher);
  return Status::OK();
}

Status AddServeGraph(Dataflow* df, const StandardGraphOptions& options,
                     const er::Matcher* matcher,
                     const std::string& dataset_prefix,
                     std::shared_ptr<const lb::MatchPlan> prebuilt_plan) {
  auto named = [&dataset_prefix](const char* name) {
    return dataset_prefix + name;
  };
  if (prebuilt_plan == nullptr) {
    df->Emplace<PlanStage>(named("plan"), named(kDatasetBdm),
                           named(kDatasetPlan), options.strategy,
                           options.MatchOptions());
  } else {
    ERLB_RETURN_NOT_OK(
        df->AddInput(named(kDatasetPlan), Dataset(std::move(prebuilt_plan))));
  }
  df->Emplace<MatchStage>(named("match"), named(kDatasetPlan),
                          named(kDatasetAnnotated), named(kDatasetBdm),
                          named(kDatasetMatches), matcher);
  return Status::OK();
}

namespace {

/// Matcher adapter of the multi-pass composition: inside pass `p`'s
/// subgraph, suppresses pairs that already co-occur under an earlier
/// pass's key — those were (or will be) evaluated in that pass's
/// subgraph, so evaluating them again would duplicate work, not results.
class EarlierPassSuppressingMatcher : public er::Matcher {
 public:
  EarlierPassSuppressingMatcher(
      const std::vector<const er::BlockingFunction*>* passes, size_t pass,
      const er::Matcher* inner, std::atomic<int64_t>* suppressed)
      : passes_(passes), pass_(pass), inner_(inner),
        suppressed_(suppressed) {}

  bool Match(const er::Entity& a, const er::Entity& b) const override {
    for (size_t q = 0; q < pass_; ++q) {
      std::string ka = (*passes_)[q]->Key(a);
      if (ka.empty()) continue;
      if (ka == (*passes_)[q]->Key(b)) {
        suppressed_->fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    return inner_->Match(a, b);
  }

  double Similarity(const er::Entity& a,
                    const er::Entity& b) const override {
    return inner_->Similarity(a, b);
  }

  std::string Describe() const override {
    return "multi-pass(" + inner_->Describe() + ")";
  }

 private:
  const std::vector<const er::BlockingFunction*>* passes_;
  size_t pass_;
  const er::Matcher* inner_;
  std::atomic<int64_t>* suppressed_;
};

}  // namespace

namespace {

/// Composes one term of a union composition: a standard subgraph under
/// `prefix`, reading `prefix + kDatasetPartitions`, whose matches dataset
/// is appended to `terms` for the closing UnionMatchesStage.
Status AddUnionTerm(Dataflow* df, const StandardGraphOptions& options,
                    const er::BlockingFunction* blocking,
                    const er::Matcher* matcher, const std::string& prefix,
                    std::vector<std::string>* terms) {
  ERLB_RETURN_NOT_OK(AddStandardGraph(df, options, blocking, matcher, prefix));
  terms->push_back(prefix + kDatasetMatches);
  return Status::OK();
}

}  // namespace

Status AddMultiPassGraph(Dataflow* df, const StandardGraphOptions& options,
                         uint32_t num_map_tasks,
                         const std::vector<er::Entity>* entities,
                         const std::vector<const er::BlockingFunction*>* passes,
                         const er::Matcher* matcher,
                         std::atomic<int64_t>* suppressed) {
  if (passes->empty()) {
    return Status::InvalidArgument("need at least one blocking pass");
  }
  if (entities->empty()) {
    return Status::InvalidArgument("input is empty");
  }

  std::vector<std::string> pass_outputs;
  for (size_t p = 0; p < passes->size(); ++p) {
    const er::BlockingFunction* pass = (*passes)[p];
    // A pass under which no entity has a valid key contributes no blocks;
    // composing its subgraph would only fail on empty input.
    bool any_keyed = false;
    for (const auto& e : *entities) {
      if (!pass->Key(e).empty()) {
        any_keyed = true;
        break;
      }
    }
    if (!any_keyed) continue;

    const std::string index = std::to_string(p);
    const std::string prefix = "pass" + index + "/";
    df->Emplace<EntitySourceStage>(
        prefix + "source", prefix + kDatasetPartitions, entities,
        num_map_tasks, [pass](const er::Entity& e) {
          return !pass->Key(e).empty();
        });
    const er::Matcher* wrapped =
        df->Own(std::make_unique<EarlierPassSuppressingMatcher>(
            passes, p, matcher, suppressed));
    ERLB_RETURN_NOT_OK(
        AddUnionTerm(df, options, pass, wrapped, prefix, &pass_outputs));
  }
  if (pass_outputs.empty()) {
    return Status::InvalidArgument("no entity has a valid key in any pass");
  }
  df->Emplace<UnionMatchesStage>("union", std::move(pass_outputs),
                                 kDatasetMatches);
  return Status::OK();
}

namespace {

/// Two-source counterpart of EntitySourceStage: lays out the filtered
/// caller-owned sources as LinkagePartitions does, when it runs — so a
/// missing-key term's copy of its input is made at its turn in the run,
/// not while the graph is composed.
class LinkageSourceStage : public Stage {
 public:
  LinkageSourceStage(std::string name, std::string out_partitions,
                     const std::vector<er::Entity>* r_entities,
                     EntitySourceStage::Filter r_keep,
                     const std::vector<er::Entity>* s_entities,
                     EntitySourceStage::Filter s_keep,
                     uint32_t num_map_tasks)
      : Stage(std::move(name)),
        out_(std::move(out_partitions)),
        r_entities_(r_entities),
        r_keep_(std::move(r_keep)),
        s_entities_(s_entities),
        s_keep_(std::move(s_keep)),
        num_map_tasks_(num_map_tasks) {
    DeclareOutput(out_);
  }
  const char* kind() const override { return "linkage_source"; }

  [[nodiscard]] Status Run(DataflowContext* ctx) override {
    ERLB_ASSIGN_OR_RETURN(
        PartitionedEntities out,
        FilteredLinkagePartitions(*r_entities_, r_keep_, *s_entities_,
                                  s_keep_, num_map_tasks_));
    uint64_t records = 0;
    for (const auto& p : out.partitions) records += p.size();
    ctx->report().output_records = records;
    return ctx->Out(out_, Dataset(std::move(out)));
  }

 private:
  std::string out_;
  const std::vector<er::Entity>* r_entities_;
  EntitySourceStage::Filter r_keep_;
  const std::vector<er::Entity>* s_entities_;
  EntitySourceStage::Filter s_keep_;
  uint32_t num_map_tasks_;
};

/// The key-validity filters of a missing-key decomposition under
/// `blocking`, and how many of `entities` each admits.
struct KeySplit {
  EntitySourceStage::Filter keyed;
  EntitySourceStage::Filter unkeyed;
  size_t num_keyed = 0;
  size_t num_unkeyed = 0;
};

KeySplit SplitByKeyValidity(const std::vector<er::Entity>& entities,
                            const er::BlockingFunction* blocking) {
  KeySplit split;
  split.keyed = [blocking](const er::Entity& e) {
    return !blocking->Key(e).empty();
  };
  split.unkeyed = [blocking](const er::Entity& e) {
    return blocking->Key(e).empty();
  };
  for (const auto& e : entities) {
    if (split.keyed(e)) {
      ++split.num_keyed;
    } else {
      ++split.num_unkeyed;
    }
  }
  return split;
}

}  // namespace

Status AddMissingKeyDedupGraph(Dataflow* df,
                               const StandardGraphOptions& options,
                               uint32_t num_map_tasks,
                               const std::vector<er::Entity>* entities,
                               const er::BlockingFunction* blocking,
                               const er::Matcher* matcher) {
  if (num_map_tasks == 0) {
    return Status::InvalidArgument("num_map_tasks must be >= 1");
  }
  const KeySplit split = SplitByKeyValidity(*entities, blocking);
  // The constant key ⊥: a Cartesian product within the term.
  const er::BlockingFunction* bottom =
      df->Own(std::make_unique<er::ConstantBlocking>());
  std::vector<std::string> terms;
  auto add_one_source = [&](const std::string& prefix,
                            const EntitySourceStage::Filter& keep,
                            const er::BlockingFunction* term_blocking) {
    df->Emplace<EntitySourceStage>(prefix + "source",
                                   prefix + kDatasetPartitions, entities,
                                   num_map_tasks, keep);
    return AddUnionTerm(df, options, term_blocking, matcher, prefix, &terms);
  };
  if (split.num_keyed > 0) {
    // match_B(R−R∅)
    ERLB_RETURN_NOT_OK(add_one_source("keyed/", split.keyed, blocking));
  }
  if (split.num_keyed > 0 && split.num_unkeyed > 0) {
    // match_⊥(R−R∅, R∅)
    const std::string prefix = "keyed_x_unkeyed/";
    df->Emplace<LinkageSourceStage>(prefix + "source",
                                    prefix + kDatasetPartitions, entities,
                                    split.keyed, entities, split.unkeyed,
                                    num_map_tasks);
    ERLB_RETURN_NOT_OK(
        AddUnionTerm(df, options, bottom, matcher, prefix, &terms));
  }
  if (split.num_unkeyed >= 2) {
    // match_⊥(R∅)
    ERLB_RETURN_NOT_OK(add_one_source("unkeyed/", split.unkeyed, bottom));
  }
  df->Emplace<UnionMatchesStage>("union", std::move(terms), kDatasetMatches);
  return Status::OK();
}

Status AddMissingKeyLinkGraph(Dataflow* df,
                              const StandardGraphOptions& options,
                              uint32_t num_map_tasks,
                              const std::vector<er::Entity>* r_entities,
                              const std::vector<er::Entity>* s_entities,
                              const er::BlockingFunction* blocking,
                              const er::Matcher* matcher) {
  if (num_map_tasks == 0) {
    return Status::InvalidArgument("num_map_tasks must be >= 1");
  }
  const KeySplit r = SplitByKeyValidity(*r_entities, blocking);
  const KeySplit s = SplitByKeyValidity(*s_entities, blocking);
  const er::BlockingFunction* bottom =
      df->Own(std::make_unique<er::ConstantBlocking>());
  std::vector<std::string> terms;
  auto add_linkage = [&](const std::string& prefix,
                         const EntitySourceStage::Filter& r_keep,
                         size_t r_count,
                         const EntitySourceStage::Filter& s_keep,
                         size_t s_count,
                         const er::BlockingFunction* term_blocking)
      -> Status {
    if (r_count == 0 || s_count == 0) return Status::OK();
    df->Emplace<LinkageSourceStage>(prefix + "source",
                                    prefix + kDatasetPartitions, r_entities,
                                    r_keep, s_entities, s_keep,
                                    num_map_tasks);
    return AddUnionTerm(df, options, term_blocking, matcher, prefix, &terms);
  };
  // match_B(R−R∅, S−S∅)
  ERLB_RETURN_NOT_OK(add_linkage("keyed/", r.keyed, r.num_keyed, s.keyed,
                                 s.num_keyed, blocking));
  // match_⊥(R, S∅)
  ERLB_RETURN_NOT_OK(add_linkage("r_x_unkeyed_s/", nullptr,
                                 r_entities->size(), s.unkeyed,
                                 s.num_unkeyed, bottom));
  // match_⊥(R∅, S−S∅)
  ERLB_RETURN_NOT_OK(add_linkage("unkeyed_r_x_keyed_s/", r.unkeyed,
                                 r.num_unkeyed, s.keyed, s.num_keyed,
                                 bottom));
  df->Emplace<UnionMatchesStage>("union", std::move(terms), kDatasetMatches);
  return Status::OK();
}

}  // namespace core
}  // namespace erlb
