// Human-readable and JSON renderings of a Dataflow run's per-stage
// report — per stage: kind, seconds, records, job shape, spill, plan
// strategy, and per-phase task statistics read the way one would read a
// Hadoop job history page.
#ifndef ERLB_CORE_REPORT_H_
#define ERLB_CORE_REPORT_H_

#include <string>

#include "core/dataflow.h"

namespace erlb {
namespace core {

/// Formats the unified per-stage report of one Dataflow::Run — one line
/// per stage (kind, seconds, records, job shape, spill, plan strategy),
/// followed, for every stage that ran an MR job, by one line per phase:
/// task count, records in and out, average and max ms per task, and the
/// straggler ratio (max / average).
std::string FormatDataflowReport(const DataflowReport& report);

/// The same report as a JSON document (strategy names via
/// lb::StrategyKindToName), for archiving run telemetry next to
/// BENCH_*.json artifacts.
std::string DataflowReportToJson(const DataflowReport& report);

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_REPORT_H_
