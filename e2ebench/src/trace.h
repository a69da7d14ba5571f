// In-memory span recorder of the end-to-end benchmark. The benchmark
// opens a span around each call it makes into an erlb layer (CSV ingest,
// the BDM job, planning, the match job, clustering, the serve session
// and the wire round trip); spans stay in memory and are written once,
// as Chrome trace_event JSON, when the run ends. Nothing inside erlb is
// instrumented: a span measures the call from the caller's side.
#ifndef ERLB_E2EBENCH_TRACE_H_
#define ERLB_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace e2e {

struct Span {
  std::string name;
  /// The layer the span's self time is charged to, e.g. "bdm".
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t id = 0;
  /// Id of the span that caused this one; -1 for a root span.
  int32_t parent = -1;
  uint32_t thread = 0;
};

/// Thread-safe recorder. Parents are explicit: the caller passes the id
/// of the enclosing span, so spans opened on client threads can still
/// name their request's root.
class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its id.
  int32_t Begin(std::string name, std::string layer, int32_t parent,
                uint32_t thread = 0);
  void End(int32_t id);

  std::vector<Span> Spans() const;

  /// Self time (seconds) per layer over the subtree rooted at `root`: a
  /// span's duration minus the time its direct children cover.
  std::map<std::string, double> SelfSecondsByLayer(int32_t root) const;

  [[nodiscard]] erlb::Status WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable erlb::Mutex mu_;
  std::vector<Span> spans_ ERLB_GUARDED_BY(mu_);
};

/// RAII span; records nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string layer,
             int32_t parent, uint32_t thread = 0)
      : tracer_(tracer),
        id_(tracer == nullptr
                ? -1
                : tracer->Begin(std::move(name), std::move(layer), parent,
                                thread)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace e2e

#endif  // ERLB_E2EBENCH_TRACE_H_
