// The benchmark's workloads and the metric sink they report into. Every
// workload runs the same two parts: repeated batch dedups of its own
// generated CSV (csv_dedup's dataflow graph), which is where workloads
// differ, and an open-loop request stream against an in-process
// erlb_serve server as shipped, over a product_gen corpus.
#ifndef ERLB_E2EBENCH_WORKLOAD_H_
#define ERLB_E2EBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/skew_gen.h"
#include "lb/plan.h"

namespace erlb::bdm {}
namespace erlb::core {}
namespace erlb::er {}
namespace erlb::gen {}
namespace erlb::lb {}
namespace erlb::mr {}
namespace erlb::serve {}
namespace erlb::sim {}

namespace e2e {

namespace bdm = erlb::bdm;
namespace core = erlb::core;
namespace er = erlb::er;
namespace gen = erlb::gen;
namespace lb = erlb::lb;
namespace mr = erlb::mr;
namespace serve = erlb::serve;
namespace sim = erlb::sim;

/// Id ranges of the serve part: corpus records keep their generated ids
/// (small), inserted records and probes each get a disjoint range, so a
/// probe reply's pairs can be attributed to the initial corpus.
inline constexpr uint64_t kInsertIdBase = uint64_t{1} << 40;
inline constexpr uint64_t kProbeIdBase = uint64_t{2} << 40;

/// Batch part: reduce tasks of both jobs (r) and worker threads.
inline constexpr uint32_t kReduceTasks = 32;
inline constexpr uint32_t kWorkers = 4;

/// Serve part: product_gen corpus records loaded into the daemon, and
/// the fixed open-loop request rate. Each probe batch is a small job of
/// four worker threads, whose time swings with the CPU the host gives the
/// run; at 250 requests/s over 20,000 records the batches queued behind
/// each other and the latencies amplified those swings. At this size and
/// rate most probes find the batcher idle, so probe_p50_ms is its 5 ms
/// drain delay plus one batch, and moves with the batch's cost.
inline constexpr uint64_t kServeCorpus = 5000;
inline constexpr double kRequestsPerSecond = 120;

/// A batch workload: gen/skew_gen data blocked on its block label
/// (AttributeBlocking), deduplicated with one strategy.
struct WorkloadSpec {
  std::string name;
  gen::SkewConfig skew;
  lb::StrategyKind strategy = lb::StrategyKind::kBlockSplit;
  /// CSV rows per map partition: m = ceil(entities / split_records).
  uint32_t split_records = 1024;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// A metric value with its unit, keyed by metric name.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace e2e

#endif  // ERLB_E2EBENCH_WORKLOAD_H_
