#include "serve_load.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"
#include "gen/perturb.h"
#include "gen/product_gen.h"
#include "serve/protocol.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 4;
constexpr double kInsertShare = 0.1;
/// Share of probe replies checked against core::ReferenceLink.
constexpr double kCheckedProbeShare = 0.2;
/// The first seconds of the schedule warm the server up (allocator,
/// caches) after set-up; their requests are checked but not
/// timed. Capped at an eighth of a short schedule.
constexpr double kWarmupS = 1.5;
/// Direct calls per serve layer metric.
constexpr int kDirectCalls = 25;
/// Ids of the direct calls' probes and inserts start this far into
/// their ranges, past any open-loop request.
constexpr uint64_t kDirectIdOffset = uint64_t{1} << 32;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A near-duplicate of `base` with a fresh id: one edit in the title,
/// past its first three characters, so the blocking key survives.
er::Entity NearDuplicate(const er::Entity& base, uint64_t id,
                         erlb::Pcg32* rng) {
  er::Entity e;
  e.id = id;
  e.fields = base.fields;
  e.fields[0] = gen::Perturb(base.title(), 1, 3, rng);
  return e;
}

struct Request {
  double due_s = 0;
  bool insert = false;
  bool checked = false;
  er::Entity entity;
  std::string payload;
  // Filled by the sending thread.
  double latency_ms = 0;
  double late_ms = 0;
  erlb::Status status;
  er::MatchResult reply;
};

/// The reply pairs that belong to `probe_id`.
er::MatchResult PairsOf(const er::MatchResult& all, uint64_t probe_id) {
  er::MatchResult out;
  for (const er::MatchPair& p : all.pairs()) {
    if (p.first == probe_id || p.second == probe_id) {
      out.Add(p.first, p.second);
    }
  }
  return out;
}

}  // namespace

erlb::Result<std::vector<er::Entity>> GenerateServeCorpus(uint64_t size,
                                                         uint64_t seed) {
  gen::ProductConfig config;
  config.num_entities = size;
  config.duplicate_fraction = 0.0;
  config.seed = seed;
  return gen::GenerateProducts(config);
}

erlb::Status StartServer(const std::string& socket_path,
                         ServeFixture* fixture) {
  fixture->session = std::make_unique<serve::ServeSession>(
      &fixture->blocking, &fixture->matcher, serve::SessionOptions{});
  ERLB_RETURN_NOT_OK(fixture->session->Insert(fixture->corpus));
  serve::ServerOptions options;
  options.socket_path = socket_path;
  fixture->server =
      std::make_unique<serve::Server>(fixture->session.get(), options);
  return fixture->server->Start();
}

void StopServer(ServeFixture* fixture) {
  if (fixture->server != nullptr) fixture->server->Stop();
  fixture->server.reset();
  fixture->session.reset();
}

erlb::Status RunOpenLoop(ServeFixture* fixture,
                         const std::string& socket_path, double seconds,
                         uint64_t seed, Tracer* tracer, Tally* tally,
                         LoadResult* result) {
  const double rate = kRequestsPerSecond;
  const size_t n = std::max<size_t>(
      2 * kConnections, static_cast<size_t>(std::llround(rate * seconds)));
  const size_t first = std::min(
      n / 2, static_cast<size_t>(
                 std::llround(std::min(kWarmupS, seconds / 8) * rate)));
  erlb::Pcg32 rng(seed, /*stream=*/0x5e7e);
  std::vector<Request> requests(n);
  const auto& corpus = fixture->corpus;
  for (size_t i = 0; i < n; ++i) {
    Request& r = requests[i];
    r.due_s = static_cast<double>(i) / rate;
    r.insert = rng.NextDouble() < kInsertShare;
    const er::Entity& base =
        corpus[rng.NextBounded(static_cast<uint32_t>(corpus.size()))];
    r.entity = NearDuplicate(
        base, (r.insert ? kInsertIdBase : kProbeIdBase) + i, &rng);
    r.checked = !r.insert && rng.NextDouble() < kCheckedProbeShare;
    r.payload = r.insert ? serve::EncodeInsertRequest({r.entity})
                         : serve::EncodeProbeRequest({r.entity});
  }

  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) {
    auto fd = serve::Server::Connect(socket_path);
    if (!fd.ok()) {
      for (int open : fds) ::close(open);
      return fd.status();
    }
    fds.push_back(*fd);
  }
  const serve::BatcherStats batcher_before = fixture->server->batcher_stats();
  const serve::SessionStats session_before = fixture->session->Stats();

  // A short lead lets every sender reach its first wait before the
  // schedule starts.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c] {
      erlb::proc::FrameParser parser;
      for (size_t i = static_cast<size_t>(c); i < n; i += kConnections) {
        Request& r = requests[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        auto frame = [&] {
          ScopedSpan span(tracer,
                          r.insert ? "RoundTrip:insert" : "RoundTrip:probe",
                          "serve.wire", -1, static_cast<uint32_t>(c + 1));
          return serve::RoundTrip(fds[c], &parser,
                                  r.insert
                                      ? erlb::proc::FrameType::kServeAdmin
                                      : erlb::proc::FrameType::kServeProbe,
                                  r.payload);
        }();
        const Clock::time_point done = Clock::now();
        r.latency_ms = MillisBetween(due, done);
        r.late_ms = MillisBetween(due, sent);
        if (!frame.ok()) {
          r.status = frame.status();
        } else if (!r.insert) {
          auto matches = serve::DecodeMatches(frame->payload);
          if (matches.ok()) {
            r.reply = std::move(*matches);
          } else {
            r.status = matches.status();
          }
        }
        if (!r.status.ok()) {
          // The stream may be out of step; stop using this connection.
          for (size_t j = i + kConnections; j < n; j += kConnections) {
            requests[j].status = erlb::Status::Unavailable("connection lost");
          }
          return;
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  const Clock::time_point finished = Clock::now();
  for (int fd : fds) ::close(fd);

  result->timed_s = std::chrono::duration<double>(finished - start).count() -
                    requests[first].due_s;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    tally->Expect(r.status.ok(), (r.insert ? "insert " : "probe ") +
                                     std::to_string(r.entity.id) + ": " +
                                     r.status.ToString());
    if (!r.status.ok()) continue;
    if (i >= first) {
      ++result->completed;
      (r.insert ? result->insert_ms : result->probe_ms).push_back(
          r.latency_ms);
      result->late_ms.push_back(r.late_ms);
    }
    if (r.checked) {
      const std::string why =
          CheckProbeReply(fixture->index, fixture->blocking,
                          fixture->matcher, r.entity, r.reply, kInsertIdBase);
      tally->Expect(why.empty(), why);
    }
  }

  const serve::BatcherStats batcher = fixture->server->batcher_stats();
  const serve::SessionStats session = fixture->session->Stats();
  result->batches = batcher.batches - batcher_before.batches;
  result->batched_probes = batcher.probes - batcher_before.probes;
  result->cache_hits =
      session.plan_cache.hits - session_before.plan_cache.hits;
  result->cache_lookups = result->cache_hits + session.plan_cache.misses -
                          session_before.plan_cache.misses;
  return erlb::Status::OK();
}

erlb::Status MeasureServeLayers(ServeFixture* fixture,
                                const std::string& socket_path,
                                size_t probes_per_batch, uint64_t seed,
                                Tracer* tracer, Tally* tally,
                                Metrics* metrics) {
  erlb::Pcg32 rng(seed, /*stream=*/0xd1ec7);
  const auto& corpus = fixture->corpus;
  auto pick = [&]() -> const er::Entity& {
    return corpus[rng.NextBounded(static_cast<uint32_t>(corpus.size()))];
  };
  uint64_t next_id = kDirectIdOffset;

  std::vector<double> probe_ms;
  for (int call = 0; call < kDirectCalls; ++call) {
    std::vector<er::Entity> probes;
    for (size_t p = 0; p < probes_per_batch; ++p) {
      probes.push_back(NearDuplicate(pick(), kProbeIdBase + next_id++, &rng));
    }
    erlb::Stopwatch watch;
    erlb::Result<er::MatchResult> reply = [&] {
      ScopedSpan span(tracer, "ProbeBatch", "serve.session", -1);
      return fixture->session->ProbeBatch(probes);
    }();
    probe_ms.push_back(watch.ElapsedMillis());
    tally->Expect(reply.ok(), "ProbeBatch: " + reply.status().ToString());
    if (!reply.ok()) continue;
    for (const er::Entity& probe : probes) {
      const std::string why = CheckProbeReply(
          fixture->index, fixture->blocking, fixture->matcher, probe,
          PairsOf(*reply, probe.id), kInsertIdBase);
      tally->Expect(why.empty(), why);
    }
  }

  std::vector<double> insert_ms;
  for (int call = 0; call < kDirectCalls; ++call) {
    const er::Entity record =
        NearDuplicate(pick(), kInsertIdBase + next_id++, &rng);
    erlb::Stopwatch watch;
    erlb::Status inserted = [&] {
      ScopedSpan span(tracer, "Insert", "serve.session", -1);
      return fixture->session->Insert({record});
    }();
    insert_ms.push_back(watch.ElapsedMillis());
    tally->Expect(inserted.ok(), "Insert: " + inserted.ToString());
  }

  ERLB_ASSIGN_OR_RETURN(int fd, serve::Server::Connect(socket_path));
  std::vector<double> rtt_ms;
  erlb::proc::FrameParser parser;
  const std::string stats_request =
      serve::EncodeAdminRequest(serve::AdminOp::kStats);
  for (int call = 0; call < kDirectCalls; ++call) {
    erlb::Stopwatch watch;
    auto frame = [&] {
      ScopedSpan span(tracer, "RoundTrip:stats", "serve.wire", -1);
      return serve::RoundTrip(fd, &parser,
                              erlb::proc::FrameType::kServeAdmin,
                              stats_request);
    }();
    rtt_ms.push_back(watch.ElapsedMillis());
    tally->Expect(frame.ok() && serve::DecodeStats(frame->payload).ok(),
                  "kStats round trip failed");
    if (!frame.ok()) break;
  }
  ::close(fd);

  (*metrics)["serve.service_ms"] = {Median(probe_ms), "ms"};
  (*metrics)["serve.insert_service_ms"] = {Median(insert_ms), "ms"};
  (*metrics)["serve.rtt_ms"] = {Median(rtt_ms), "ms"};
  return erlb::Status::OK();
}

}  // namespace e2e
