// The serve part of every workload: an in-process serve::Server (the
// erlb_serve daemon's session, batcher and socket front end, default
// options) over a product_gen corpus, driven by a seeded
// open-loop schedule of single-record requests from one process over
// four connections: 90% probes (perturbed corpus titles), 10% inserts.
// Each request is timed from when the schedule made it due, so a stall
// also charges the requests queued behind it.
#ifndef ERLB_E2EBENCH_SERVE_LOAD_H_
#define ERLB_E2EBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/status.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/matcher.h"
#include "serve/server.h"
#include "serve/session.h"
#include "trace.h"
#include "workload.h"

namespace e2e {

/// The daemon as erlb_serve ships it: PrefixBlocking(0, 3),
/// EditDistanceMatcher(0.8), default SessionOptions and BatcherOptions.
struct ServeFixture {
  std::vector<er::Entity> corpus;
  er::PrefixBlocking blocking{0, 3};
  er::EditDistanceMatcher matcher{0.8};
  std::unique_ptr<serve::ServeSession> session;
  std::unique_ptr<serve::Server> server;
  /// The initial corpus by blocking key, for the probe reply checks.
  BlockIndex index;
};

/// The serve corpus: `size` product_gen records from `seed`, no injected
/// duplicates (as the erlb_serve daemon seeds its corpus).
[[nodiscard]] erlb::Result<std::vector<er::Entity>> GenerateServeCorpus(
    uint64_t size, uint64_t seed);

/// Loads `fixture->corpus` into a fresh session and starts the server on
/// `socket_path` (the timed part of set-up).
[[nodiscard]] erlb::Status StartServer(const std::string& socket_path,
                                       ServeFixture* fixture);

/// Stops the server and drops the session.
void StopServer(ServeFixture* fixture);

struct LoadResult {
  /// Reply latencies of the timed requests, from their due times.
  std::vector<double> probe_ms;
  std::vector<double> insert_ms;
  /// Send time minus due time, per timed request.
  std::vector<double> late_ms;
  /// First timed request's due time until the last reply, and the timed
  /// requests completed in it.
  double timed_s = 0;
  int64_t completed = 0;
  /// BatcherStats and plan cache deltas over the schedule.
  uint64_t batches = 0;
  uint64_t batched_probes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
};

/// Runs the seeded open-loop schedule at kRequestsPerSecond for
/// `seconds`. The first 1.5 s (an eighth of a shorter schedule) warm the
/// server up after set-up and are not timed. Every request is
/// one attempted operation in `tally`; a refused request or a wrong
/// sampled probe reply is a failed one. With a tracer, each round trip
/// is a span.
[[nodiscard]] erlb::Status RunOpenLoop(ServeFixture* fixture,
                                       const std::string& socket_path,
                                       double seconds, uint64_t seed,
                                       Tracer* tracer,
                                       Tally* tally, LoadResult* result);

/// Per-layer serve metrics from direct calls: ProbeBatch and Insert on
/// the session, and the kStats admin round trip through the server.
[[nodiscard]] erlb::Status MeasureServeLayers(ServeFixture* fixture,
                                              const std::string& socket_path,
                                              size_t probes_per_batch,
                                              uint64_t seed, Tracer* tracer,
                                              Tally* tally,
                                              Metrics* metrics);

}  // namespace e2e

#endif  // ERLB_E2EBENCH_SERVE_LOAD_H_
