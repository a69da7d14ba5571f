#include "trace.h"

#include <cstdio>
#include <fstream>

namespace e2e {

namespace {

/// JSON string body: the span names used here are plain identifiers,
/// but escape quotes and backslashes anyway.
std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t Tracer::Begin(std::string name, std::string layer, int32_t parent,
                      uint32_t thread) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = parent;
  span.thread = thread;
  erlb::MutexLock lock(&mu_);
  span.id = static_cast<int32_t>(spans_.size());
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int32_t id) {
  const int64_t now = NowNs();
  erlb::MutexLock lock(&mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::Spans() const {
  erlb::MutexLock lock(&mu_);
  return spans_;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(int32_t root) const {
  const std::vector<Span> spans = Spans();
  // Spans are appended in Begin order, so a parent precedes its
  // children: one forward pass marks the subtree.
  std::vector<bool> in_tree(spans.size(), false);
  std::vector<int64_t> child_ns(spans.size(), 0);
  in_tree[static_cast<size_t>(root)] = true;
  for (const Span& s : spans) {
    if (s.parent >= 0 && in_tree[static_cast<size_t>(s.parent)]) {
      in_tree[static_cast<size_t>(s.id)] = true;
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (!in_tree[static_cast<size_t>(s.id)]) continue;
    const int64_t own = s.end_ns - s.start_ns -
                        child_ns[static_cast<size_t>(s.id)];
    self[s.layer] += own / 1e9;
  }
  return self;
}

erlb::Status Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
                  s.thread, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                  s.id, s.parent);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << Escape(s.name)
        << "\",\"cat\":\"" << Escape(s.layer) << "\"," << buf;
  }
  out << "\n]}\n";
  if (!out) return erlb::Status::IOError("cannot write " + path);
  return erlb::Status::OK();
}

}  // namespace e2e
