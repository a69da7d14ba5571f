// erlb_e2ebench: runs one workload of the end-to-end benchmark and prints
// its metrics as one JSON object on the last line of stdout.
//
//   erlb_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--scale small]
//   erlb_e2ebench --selftest [--out <dir>]
//
// A run sets up its inputs several times (set-up time is the median), then
// spends --seconds on an open-loop request stream against the in-process
// server and on repeated batch dedups (workload.h). --trace 0 reports
// the end-to-end metrics; --trace 1 re-runs the same work with spans
// around each erlb call and reports the per-layer metrics, writing the
// spans to <out>/trace-<workload>-<seed>.json and the plan-versus-
// measured reduce-task balance to <out>/balance-<workload>-<seed>.json.
// Every output is checked; any mismatch sets "correct" to false and the
// exit code to 1. Files are written under --out only (default
// .bench_run in the working directory).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "batch.h"
#include "checks.h"
#include "common/stopwatch.h"
#include "core/reference.h"
#include "er/entity_io.h"
#include "lb/strategy.h"
#include "serve_load.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

/// Set-ups per run: at least kMinSetups, more while under kSetupBudgetS.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetS = 2.0;
/// Dedups per run at least, whatever the time budget (traced runs
/// alternate untraced and traced dedups, so they need twice as many).
constexpr int kMinDedups = 3;
constexpr int kMinTracedDedups = 4;
/// Share of --seconds spent on batch dedups; the rest serves.
constexpr double kBatchShare = 0.6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool selftest = false;
  std::string out = ".bench_run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--scale") {
      args->small = value == "small";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

/// A tenth of the workload, same shape, for the self-test.
WorkloadSpec Shrunk(WorkloadSpec spec) {
  spec.skew.num_blocks /= 10;
  spec.skew.num_entities /= 10;
  spec.split_records = std::max<uint32_t>(1, spec.split_records / 10);
  return spec;
}

/// Nearest-rank percentile `q` in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char value[64];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(value, sizeof(value), "%.9g", metric.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      tally.failed() == 0 ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(tally.attempted(), 1)),
      static_cast<long long>(tally.failed()), MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

/// Planned next to measured comparisons and seconds per reduce task of
/// the match job, as JSON.
erlb::Status WriteBalance(const DedupRun& run, const std::string& path) {
  const core::StageReport* match = run.report.Find("match");
  if (match == nullptr || !match->job || match->plan == nullptr) {
    return erlb::Status::InvalidArgument("no match stage to report");
  }
  const auto& planned = match->plan->stats().comparisons_per_reduce_task;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"strategy\": \"" << lb::StrategyKindToName(match->plan->strategy())
      << "\", \"reduce_tasks\": [";
  for (size_t i = 0; i < match->job->reduce_tasks.size(); ++i) {
    const mr::TaskMetrics& t = match->job->reduce_tasks[i];
    out << (i == 0 ? "" : ",") << "\n  {\"task\": " << t.task_index
        << ", \"planned_comparisons\": "
        << (t.task_index < planned.size() ? planned[t.task_index] : 0)
        << ", \"measured_comparisons\": "
        << t.counters.Get(mr::kCounterComparisons)
        << ", \"seconds\": " << t.duration_nanos / 1e9 << "}";
  }
  out << "\n]}\n";
  if (!out) return erlb::Status::IOError("cannot write " + path);
  return erlb::Status::OK();
}

int Fail(const erlb::Status& status) {
  std::fprintf(stderr, "erlb_e2ebench: %s\n", status.ToString().c_str());
  return 2;
}

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const std::string tag = spec.name + "-" + std::to_string(args.seed);
  const fs::path run_dir =
      fs::path(args.out) / ("run-" + tag + "-" + std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(run_dir / "tmp", ec);
  if (ec) {
    return Fail(erlb::Status::IOError("cannot create " + run_dir.string()));
  }
  // The serve session's per-batch dataflows take their spill root from
  // the system temp directory; keep it inside the run directory.
  setenv("TMPDIR", fs::absolute(run_dir / "tmp").c_str(), 1);
  const std::string csv_path = (run_dir / "input.csv").string();
  const std::string socket_path = (run_dir / "serve.sock").string();

  // ---- set-up: generate + write the CSV, load the corpus, start the
  // server; repeated, the last one is kept ----
  BatchInput input;
  input.csv_path = csv_path;
  ServeFixture fixture;
  const uint64_t serve_corpus = args.small ? kServeCorpus / 10 : kServeCorpus;
  gen::SkewConfig skew = spec.skew;
  skew.seed = args.seed;
  std::vector<double> setup_s;
  erlb::Stopwatch setup_watch;
  for (int k = 0; k < kMinSetups || (k < kMaxSetups &&
                                     setup_watch.ElapsedSeconds() <
                                         kSetupBudgetS);
       ++k) {
    StopServer(&fixture);
    erlb::Stopwatch watch;
    auto entities = gen::GenerateSkewed(skew);
    if (!entities.ok()) return Fail(entities.status());
    if (auto st = er::SaveEntitiesToCsv(csv_path, *entities); !st.ok()) {
      return Fail(st);
    }
    auto corpus = GenerateServeCorpus(serve_corpus, args.seed);
    if (!corpus.ok()) return Fail(corpus.status());
    fixture.corpus = std::move(*corpus);
    if (auto st = StartServer(socket_path, &fixture); !st.ok()) {
      return Fail(st);
    }
    setup_s.push_back(watch.ElapsedSeconds());
    input.entities = std::move(*entities);
  }
  input.reference_pairs =
      core::ReferencePairCount(input.entities, input.blocking);
  input.blocks = BlockIndex::Build(input.entities, input.blocking);
  fixture.index = BlockIndex::Build(fixture.corpus, fixture.blocking);

  Tally tally;
  Metrics metrics;
  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;

  // ---- open-loop serving, before the batch part so that the dedups'
  // freed memory does not shape the serve latencies ----
  LoadResult load;
  if (auto st = RunOpenLoop(&fixture, socket_path,
                            args.seconds * (1 - kBatchShare), args.seed,
                            traced, &tally, &load);
      !st.ok()) {
    return Fail(st);
  }

  // ---- batch dedups ----
  std::vector<double> dedup_s;
  std::vector<double> traced_dedup_s;
  std::vector<double> overhead_s;
  std::vector<Metrics> layer_reps;
  DedupRun last_traced;
  uint64_t digest = 0;
  const double batch_budget = args.seconds * kBatchShare;
  const int min_dedups = args.trace ? kMinTracedDedups : kMinDedups;
  erlb::Stopwatch batch_watch;
  // After the minimum, a dedup starts only if one more like the last
  // fits the budget, so the batch part does not overrun it.
  double last_dedup_s = 0;
  for (int rep = 0; rep < min_dedups ||
                    batch_watch.ElapsedSeconds() + last_dedup_s <
                        batch_budget;
       ++rep) {
    erlb::Stopwatch watch;
    const bool with_spans = args.trace && rep % 2 == 1;
    auto run = RunDedup(spec, input, run_dir.string(),
                        with_spans ? traced : nullptr);
    tally.Expect(run.ok(), "dedup: " + run.status().ToString());
    if (run.ok()) {
      CheckDedup(input, *run, args.seed * 1000 + rep, &digest, &tally);
      if (with_spans) {
        traced_dedup_s.push_back(run->wall_s);
        layer_reps.push_back(DedupLayerMetrics(*run));
        last_traced = std::move(*run);
      } else {
        dedup_s.push_back(run->wall_s);
        double stages = 0;
        for (const core::StageReport& st : run->report.stages) {
          stages += st.seconds;
        }
        overhead_s.push_back(run->wall_s - stages);
      }
    }
    last_dedup_s = watch.ElapsedSeconds();
  }

  std::fprintf(stderr,
               "%s seed %llu: %zu dedups (median %.3f s), %zu probes, "
               "%zu inserts in %.2f s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               dedup_s.size(), Median(dedup_s), load.probe_ms.size(),
               load.insert_ms.size(), load.timed_s);
  std::fprintf(stderr, "  dedup_s:");
  for (double s : dedup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  if (!args.trace) {
    metrics["dedup_s"] = {Median(dedup_s), "s"};
    metrics["probe_p50_ms"] = {Percentile(load.probe_ms, 0.5), "ms"};
    metrics["served_per_s"] = {
        load.timed_s > 0 ? load.completed / load.timed_s : 0, "1/s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    metrics["setup_s"] = {Median(setup_s), "s"};
  } else {
    if (layer_reps.empty()) {
      return Fail(erlb::Status::Internal("no traced dedup completed"));
    }
    // Median of each per-layer metric over the traced dedups.
    for (const auto& [name, first] : layer_reps.front()) {
      std::vector<double> values;
      for (const Metrics& rep : layer_reps) {
        auto it = rep.find(name);
        if (it != rep.end()) values.push_back(it->second.value);
      }
      metrics[name] = {Median(values), first.unit};
    }
    const double ingest_s = metrics["er.ingest_s"].value;
    metrics["er.ingest_rows_per_s"] = {
        ingest_s > 0 ? input.entities.size() / ingest_s : 0, "1/s"};
    metrics["core.overhead_s"] = {Median(overhead_s), "s"};
    metrics["trace.overhead_s"] = {
        Median(traced_dedup_s) - Median(dedup_s), "s"};
    if (auto st = AddMatchLayerProbes(input, last_traced, args.seed,
                                      &tally, &metrics);
        !st.ok()) {
      return Fail(st);
    }
    const double batch_size_mean =
        load.batches > 0
            ? static_cast<double>(load.batched_probes) / load.batches
            : 0;
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(std::llround(batch_size_mean)));
    if (auto st = MeasureServeLayers(&fixture, socket_path, batch, args.seed,
                                     traced, &tally, &metrics);
        !st.ok()) {
      return Fail(st);
    }
    metrics["serve.batch_size_mean"] = {batch_size_mean, "count"};
    metrics["serve.plan_cache_hit_ratio"] = {
        load.cache_lookups > 0
            ? static_cast<double>(load.cache_hits) / load.cache_lookups
            : 0,
        "ratio"};
    metrics["serve.generator_late_ms"] = {Mean(load.late_ms), "ms"};
    // The serve tails: too unsteady on a shared host for an end-to-end
    // bound (e2ebench/README.md), so reported here, from the traced run.
    metrics["serve.probe_p99_ms"] = {Percentile(load.probe_ms, 0.99), "ms"};
    metrics["serve.insert_p50_ms"] = {Percentile(load.insert_ms, 0.5), "ms"};
    metrics["serve.insert_p90_ms"] = {Percentile(load.insert_ms, 0.9), "ms"};
    const double ledger = metrics["trace.ledger_coverage"].value;
    tally.Expect(std::abs(ledger - 1) <= 0.03,
                 "layer self times cover " + std::to_string(ledger) +
                     " of the traced dedup's wall time");
    metrics["failed_ratio"] = {
        static_cast<double>(tally.failed()) /
            std::max<int64_t>(tally.attempted(), 1),
        "ratio"};
    const fs::path out(args.out);
    if (auto st = tracer.WriteChromeJson(
            (out / ("trace-" + tag + ".json")).string());
        !st.ok()) {
      return Fail(st);
    }
    if (auto st = WriteBalance(last_traced,
                               (out / ("balance-" + tag + ".json")).string());
        !st.ok()) {
      return Fail(st);
    }
  }

  StopServer(&fixture);
  last_traced = DedupRun();
  fs::remove_all(run_dir, ec);
  PrintResult(tally, metrics);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return e2e::RunSelfTest(args.out);
  const e2e::WorkloadSpec* spec = e2e::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  return e2e::RunWorkload(args, args.small ? e2e::Shrunk(*spec) : *spec);
}
