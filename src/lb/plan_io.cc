#include "lb/plan_io.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/json.h"
#include "lb/strategy.h"

namespace erlb {
namespace lb {

namespace {

// Version 2 added bdm.content_hash, which execution compares exactly;
// version 1 documents (no hash) are rejected.
constexpr char kFormat[] = "erlb.match_plan/2";

const char* AssignmentName(TaskAssignment assignment) {
  switch (assignment) {
    case TaskAssignment::kGreedyLpt:
      return "greedy_lpt";
    case TaskAssignment::kRoundRobin:
      return "round_robin";
  }
  return "?";
}

Result<TaskAssignment> AssignmentFromName(const std::string& name) {
  if (name == "greedy_lpt") return TaskAssignment::kGreedyLpt;
  if (name == "round_robin") return TaskAssignment::kRoundRobin;
  return Status::InvalidArgument("unknown task assignment \"" + name +
                                 "\"");
}

Json DumpU64Vector(const std::vector<uint64_t>& values) {
  Json::Array arr;
  arr.reserve(values.size());
  for (uint64_t v : values) arr.emplace_back(v);
  return Json(std::move(arr));
}

Json DumpU32Vector(const std::vector<uint32_t>& values) {
  Json::Array arr;
  arr.reserve(values.size());
  for (uint32_t v : values) arr.emplace_back(v);
  return Json(std::move(arr));
}

/// Fetches a required member of `obj`; the path makes errors actionable.
Result<const Json*> Member(const Json& obj, const char* key) {
  const Json* found = obj.Find(key);
  if (found == nullptr) {
    return Status::InvalidArgument(std::string("match plan JSON: missing "
                                               "field \"") +
                                   key + "\"");
  }
  return found;
}

/// True iff `v` is a non-negative integer token. Negative values would
/// wrap through AsUint64 into huge counts; fractional values would be
/// silently truncated — both must be rejected, not reinterpreted.
bool IsNonNegativeNumber(const Json& v) {
  return v.is_integer() && v.AsDouble() >= 0;
}

Result<std::vector<uint64_t>> ParseU64Vector(const Json& obj,
                                             const char* key) {
  ERLB_ASSIGN_OR_RETURN(const Json* arr, Member(obj, key));
  if (!arr->is_array()) {
    return Status::InvalidArgument(std::string("match plan JSON: \"") +
                                   key + "\" must be an array");
  }
  std::vector<uint64_t> out;
  out.reserve(arr->AsArray().size());
  for (const Json& v : arr->AsArray()) {
    if (!IsNonNegativeNumber(v)) {
      return Status::InvalidArgument(std::string("match plan JSON: \"") +
                                     key +
                                     "\" must hold non-negative numbers");
    }
    out.push_back(v.AsUint64());
  }
  return out;
}

Result<uint64_t> ParseU64(const Json& obj, const char* key) {
  ERLB_ASSIGN_OR_RETURN(const Json* v, Member(obj, key));
  if (!IsNonNegativeNumber(*v)) {
    return Status::InvalidArgument(std::string("match plan JSON: \"") +
                                   key +
                                   "\" must be a non-negative number");
  }
  return v->AsUint64();
}

/// ParseU64 plus a uint32 range check — indexes and counts that a
/// truncating cast would silently alias must be rejected instead.
Result<uint32_t> ParseU32(const Json& obj, const char* key) {
  ERLB_ASSIGN_OR_RETURN(uint64_t v, ParseU64(obj, key));
  if (v > 0xffffffffull) {
    return Status::InvalidArgument(std::string("match plan JSON: \"") +
                                   key + "\" exceeds 32 bits");
  }
  return static_cast<uint32_t>(v);
}

Result<bool> ParseBool(const Json& obj, const char* key) {
  ERLB_ASSIGN_OR_RETURN(const Json* v, Member(obj, key));
  if (!v->is_bool()) {
    return Status::InvalidArgument(std::string("match plan JSON: \"") +
                                   key + "\" must be a boolean");
  }
  return v->AsBool();
}

Result<std::string> ParseString(const Json& obj, const char* key) {
  ERLB_ASSIGN_OR_RETURN(const Json* v, Member(obj, key));
  if (!v->is_string()) {
    return Status::InvalidArgument(std::string("match plan JSON: \"") +
                                   key + "\" must be a string");
  }
  return v->AsString();
}

Json DumpBody(const MatchPlan& plan) {
  Json body{Json::Object{}};
  if (const BasicPlanBody* basic = plan.basic()) {
    body.Add("reduce_task_of_block",
             DumpU32Vector(basic->reduce_task_of_block));
  } else if (const PairRangePlanBody* range = plan.pair_range()) {
    body.Add("range_begin", DumpU64Vector(range->range_begin));
  } else if (const BlockSplitPlanBody* split = plan.block_split()) {
    const BlockSplitPlan& p = split->plan;
    body.Add("sub_splits", Json(p.sub_splits()));
    body.Add("num_partitions", Json(p.num_partitions()));
    body.Add("two_source", Json(p.two_source()));
    body.Add("split_threshold", Json(p.comparisons_per_reduce_task_avg()));
    Json::Array split_flags;
    split_flags.reserve(p.split_flags().size());
    for (bool s : p.split_flags()) split_flags.emplace_back(s);
    body.Add("split", Json(std::move(split_flags)));
    body.Add("block_comparisons", DumpU64Vector(p.block_comparisons()));
    Json::Array tasks;
    tasks.reserve(p.tasks().size());
    for (const MatchTask& t : p.tasks()) {
      Json task{Json::Object{}};
      task.Add("block", Json(t.block));
      task.Add("pi", Json(t.pi));
      task.Add("pj", Json(t.pj));
      task.Add("comparisons", Json(t.comparisons));
      task.Add("reduce_task", Json(t.reduce_task));
      tasks.push_back(std::move(task));
    }
    body.Add("tasks", Json(std::move(tasks)));
  }
  return body;
}

Result<MatchPlan::Body> ParseBody(StrategyKind strategy, const Json& body,
                                  const MatchJobOptions& options) {
  switch (strategy) {
    case StrategyKind::kBasic: {
      ERLB_ASSIGN_OR_RETURN(std::vector<uint64_t> tasks,
                            ParseU64Vector(body, "reduce_task_of_block"));
      BasicPlanBody basic;
      basic.reduce_task_of_block.reserve(tasks.size());
      for (uint64_t t : tasks) {
        if (t >= options.num_reduce_tasks) {
          return Status::InvalidArgument(
              "match plan JSON: reduce_task_of_block entry >= r");
        }
        basic.reduce_task_of_block.push_back(static_cast<uint32_t>(t));
      }
      return MatchPlan::Body(std::move(basic));
    }
    case StrategyKind::kPairRange: {
      PairRangePlanBody range;
      ERLB_ASSIGN_OR_RETURN(range.range_begin,
                            ParseU64Vector(body, "range_begin"));
      if (range.range_begin.size() !=
          static_cast<size_t>(options.num_reduce_tasks) + 1) {
        return Status::InvalidArgument(
            "match plan JSON: range_begin must have r + 1 boundaries");
      }
      return MatchPlan::Body(std::move(range));
    }
    case StrategyKind::kBlockSplit: {
      ERLB_ASSIGN_OR_RETURN(uint32_t sub_splits,
                            ParseU32(body, "sub_splits"));
      ERLB_ASSIGN_OR_RETURN(uint32_t num_partitions,
                            ParseU32(body, "num_partitions"));
      ERLB_ASSIGN_OR_RETURN(bool two_source,
                            ParseBool(body, "two_source"));
      ERLB_ASSIGN_OR_RETURN(uint64_t threshold,
                            ParseU64(body, "split_threshold"));
      ERLB_ASSIGN_OR_RETURN(const Json* split_json,
                            Member(body, "split"));
      if (!split_json->is_array()) {
        return Status::InvalidArgument(
            "match plan JSON: \"split\" must be an array");
      }
      std::vector<bool> split;
      split.reserve(split_json->AsArray().size());
      for (const Json& s : split_json->AsArray()) {
        if (!s.is_bool()) {
          return Status::InvalidArgument(
              "match plan JSON: \"split\" must hold booleans");
        }
        split.push_back(s.AsBool());
      }
      ERLB_ASSIGN_OR_RETURN(std::vector<uint64_t> block_comparisons,
                            ParseU64Vector(body, "block_comparisons"));
      ERLB_ASSIGN_OR_RETURN(const Json* tasks_json,
                            Member(body, "tasks"));
      if (!tasks_json->is_array()) {
        return Status::InvalidArgument(
            "match plan JSON: \"tasks\" must be an array");
      }
      std::vector<MatchTask> tasks;
      tasks.reserve(tasks_json->AsArray().size());
      for (const Json& t : tasks_json->AsArray()) {
        MatchTask task;
        ERLB_ASSIGN_OR_RETURN(task.block, ParseU32(t, "block"));
        ERLB_ASSIGN_OR_RETURN(task.pi, ParseU32(t, "pi"));
        ERLB_ASSIGN_OR_RETURN(task.pj, ParseU32(t, "pj"));
        ERLB_ASSIGN_OR_RETURN(task.comparisons,
                              ParseU64(t, "comparisons"));
        ERLB_ASSIGN_OR_RETURN(task.reduce_task,
                              ParseU32(t, "reduce_task"));
        tasks.push_back(task);
      }
      ERLB_ASSIGN_OR_RETURN(
          BlockSplitPlan plan,
          BlockSplitPlan::Restore(std::move(tasks), std::move(split),
                                  std::move(block_comparisons), threshold,
                                  options.num_reduce_tasks, num_partitions,
                                  sub_splits, two_source));
      return MatchPlan::Body(BlockSplitPlanBody{std::move(plan)});
    }
  }
  return Status::InvalidArgument("match plan JSON: unknown strategy body");
}

}  // namespace

std::string MatchPlanToJson(const MatchPlan& plan, int indent) {
  Json doc{Json::Object{}};
  doc.Add("format", Json(kFormat));
  doc.Add("strategy", Json(StrategyKindToName(plan.strategy())));

  Json options{Json::Object{}};
  options.Add("num_reduce_tasks", Json(plan.options().num_reduce_tasks));
  options.Add("assignment", Json(AssignmentName(plan.options().assignment)));
  options.Add("sub_splits", Json(plan.options().sub_splits));
  doc.Add("options", std::move(options));

  const BdmFingerprint& bdm = plan.bdm_fingerprint();
  Json fingerprint{Json::Object{}};
  fingerprint.Add("num_blocks", Json(bdm.num_blocks));
  fingerprint.Add("num_partitions", Json(bdm.num_partitions));
  fingerprint.Add("two_source", Json(bdm.two_source));
  fingerprint.Add("total_entities", Json(bdm.total_entities));
  fingerprint.Add("total_pairs", Json(bdm.total_pairs));
  fingerprint.Add("content_hash", Json(bdm.content_hash));
  doc.Add("bdm", std::move(fingerprint));

  const PlanStats& stats = plan.stats();
  Json stats_json{Json::Object{}};
  stats_json.Add("total_comparisons", Json(stats.total_comparisons));
  stats_json.Add("comparisons_per_reduce_task",
                 DumpU64Vector(stats.comparisons_per_reduce_task));
  stats_json.Add("map_output_pairs_per_task",
                 DumpU64Vector(stats.map_output_pairs_per_task));
  stats_json.Add("input_records_per_reduce_task",
                 DumpU64Vector(stats.input_records_per_reduce_task));
  doc.Add("stats", std::move(stats_json));

  doc.Add("body", DumpBody(plan));
  return doc.Dump(indent);
}

Result<MatchPlan> MatchPlanFromJson(std::string_view json) {
  ERLB_ASSIGN_OR_RETURN(Json doc, Json::Parse(json));
  if (!doc.is_object()) {
    return Status::InvalidArgument(
        "match plan JSON: document must be an object");
  }
  ERLB_ASSIGN_OR_RETURN(std::string format, ParseString(doc, "format"));
  if (format != kFormat) {
    return Status::InvalidArgument("match plan JSON: unsupported format \"" +
                                   format + "\"");
  }
  ERLB_ASSIGN_OR_RETURN(std::string strategy_name,
                        ParseString(doc, "strategy"));
  ERLB_ASSIGN_OR_RETURN(StrategyKind strategy,
                        StrategyKindFromName(strategy_name));

  ERLB_ASSIGN_OR_RETURN(const Json* options_json, Member(doc, "options"));
  MatchJobOptions options;
  ERLB_ASSIGN_OR_RETURN(options.num_reduce_tasks,
                        ParseU32(*options_json, "num_reduce_tasks"));
  ERLB_ASSIGN_OR_RETURN(std::string assignment_name,
                        ParseString(*options_json, "assignment"));
  ERLB_ASSIGN_OR_RETURN(options.assignment,
                        AssignmentFromName(assignment_name));
  ERLB_ASSIGN_OR_RETURN(options.sub_splits,
                        ParseU32(*options_json, "sub_splits"));
  ERLB_RETURN_NOT_OK(ValidateMatchJobOptions(options));

  ERLB_ASSIGN_OR_RETURN(const Json* bdm_json, Member(doc, "bdm"));
  BdmFingerprint fingerprint;
  ERLB_ASSIGN_OR_RETURN(fingerprint.num_blocks,
                        ParseU32(*bdm_json, "num_blocks"));
  ERLB_ASSIGN_OR_RETURN(fingerprint.num_partitions,
                        ParseU32(*bdm_json, "num_partitions"));
  ERLB_ASSIGN_OR_RETURN(fingerprint.two_source,
                        ParseBool(*bdm_json, "two_source"));
  ERLB_ASSIGN_OR_RETURN(fingerprint.total_entities,
                        ParseU64(*bdm_json, "total_entities"));
  ERLB_ASSIGN_OR_RETURN(fingerprint.total_pairs,
                        ParseU64(*bdm_json, "total_pairs"));
  ERLB_ASSIGN_OR_RETURN(fingerprint.content_hash,
                        ParseU64(*bdm_json, "content_hash"));

  ERLB_ASSIGN_OR_RETURN(const Json* stats_json, Member(doc, "stats"));
  PlanStats stats;
  stats.strategy = strategy;
  stats.num_reduce_tasks = options.num_reduce_tasks;
  ERLB_ASSIGN_OR_RETURN(stats.total_comparisons,
                        ParseU64(*stats_json, "total_comparisons"));
  ERLB_ASSIGN_OR_RETURN(
      stats.comparisons_per_reduce_task,
      ParseU64Vector(*stats_json, "comparisons_per_reduce_task"));
  ERLB_ASSIGN_OR_RETURN(
      stats.map_output_pairs_per_task,
      ParseU64Vector(*stats_json, "map_output_pairs_per_task"));
  ERLB_ASSIGN_OR_RETURN(
      stats.input_records_per_reduce_task,
      ParseU64Vector(*stats_json, "input_records_per_reduce_task"));
  if (stats.comparisons_per_reduce_task.size() != options.num_reduce_tasks ||
      stats.input_records_per_reduce_task.size() !=
          options.num_reduce_tasks) {
    return Status::InvalidArgument(
        "match plan JSON: per-reduce-task vectors must have r entries");
  }
  if (stats.map_output_pairs_per_task.size() != fingerprint.num_partitions) {
    return Status::InvalidArgument(
        "match plan JSON: map_output_pairs_per_task must have m entries");
  }

  ERLB_ASSIGN_OR_RETURN(const Json* body_json, Member(doc, "body"));
  ERLB_ASSIGN_OR_RETURN(MatchPlan::Body body,
                        ParseBody(strategy, *body_json, options));
  // Body shape must agree with the fingerprint: ExecutePlan indexes the
  // body by block, so a hand-edited document must not pass validation.
  if (const auto* basic = std::get_if<BasicPlanBody>(&body)) {
    if (basic->reduce_task_of_block.size() != fingerprint.num_blocks) {
      return Status::InvalidArgument(
          "match plan JSON: reduce_task_of_block must have num_blocks "
          "entries");
    }
  } else if (const auto* split = std::get_if<BlockSplitPlanBody>(&body)) {
    if (split->plan.split_flags().size() != fingerprint.num_blocks ||
        split->plan.num_partitions() != fingerprint.num_partitions ||
        split->plan.two_source() != fingerprint.two_source ||
        split->plan.sub_splits() != options.sub_splits) {
      return Status::InvalidArgument(
          "match plan JSON: BlockSplit body disagrees with the BDM "
          "fingerprint");
    }
  } else if (const auto* range = std::get_if<PairRangePlanBody>(&body)) {
    if (range->range_begin.back() != fingerprint.total_pairs) {
      return Status::InvalidArgument(
          "match plan JSON: range_begin must end at total_pairs");
    }
  }
  return MatchPlan(strategy, options, fingerprint, std::move(stats),
                   std::move(body));
}

Status SaveMatchPlan(const std::string& path, const MatchPlan& plan) {
  std::string json = MatchPlanToJson(plan);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Result<MatchPlan> LoadMatchPlan(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  return MatchPlanFromJson(contents);
}

}  // namespace lb
}  // namespace erlb
