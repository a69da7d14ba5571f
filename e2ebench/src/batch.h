// The batch part of every workload: csv_dedup's dataflow graph
// (CsvSourceStage -> AddStandardGraph -> ClusterStage) over a generated
// CSV on disk, timed from graph construction until Dataflow::Run
// returns, then checked. A traced dedup composes the same stages, each
// wrapped in a span named after the erlb call it makes.
#ifndef ERLB_E2EBENCH_BATCH_H_
#define ERLB_E2EBENCH_BATCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/result.h"
#include "core/dataflow.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/matcher.h"
#include "trace.h"
#include "workload.h"

namespace e2e {

struct BatchInput {
  std::vector<er::Entity> entities;
  std::string csv_path;
  er::AttributeBlocking blocking{gen::kSkewBlockField};
  er::EditDistanceMatcher matcher{0.8};
  /// Reference facts for the output checks (computed outside set-up).
  uint64_t reference_pairs = 0;
  BlockIndex blocks;
};

struct DedupRun {
  /// Graph construction until Dataflow::Run returned.
  double wall_s = 0;
  core::DataflowReport report;
  /// The executed graph; its datasets (bdm, annotated, plan, matches,
  /// clusters) stay readable.
  std::unique_ptr<core::Dataflow> graph;
  /// Traced runs: layer self times under the dedup's root span.
  std::map<std::string, double> self_s;
};

/// Runs one dedup of `input.csv_path`. With a tracer, every stage is
/// wrapped in a span (parented to one root span per dedup).
[[nodiscard]] erlb::Result<DedupRun> RunDedup(const WorkloadSpec& spec,
                                              const BatchInput& input,
                                              const std::string& temp_dir,
                                              Tracer* tracer);

/// Output checks of one dedup; each is one attempted operation. Matches
/// must equal the first dedup's (`*digest` = 0 until the first one).
void CheckDedup(const BatchInput& input, const DedupRun& run,
                uint64_t sample_seed, uint64_t* digest, Tally* tally);

/// Per-layer metrics of one traced dedup, named as in BENCHMARK.json.
Metrics DedupLayerMetrics(const DedupRun& traced);

/// One-off per-layer probes over the last traced dedup's datasets: the
/// engine-only match job, the single-threaded kernel, Basic's plan, and
/// the simulator's prediction.
[[nodiscard]] erlb::Status AddMatchLayerProbes(const BatchInput& input,
                                               const DedupRun& traced,
                                               uint64_t seed, Tally* tally,
                                               Metrics* metrics);

}  // namespace e2e

#endif  // ERLB_E2EBENCH_BATCH_H_
