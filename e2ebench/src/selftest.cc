// Self-test of the output checks: a real dedup of a small skewed input
// must pass them, and the same result with any one pair dropped must
// not; likewise for a probe reply.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "batch.h"
#include "checks.h"
#include "common/random.h"
#include "core/reference.h"
#include "core/stages.h"
#include "er/entity_io.h"

namespace e2e {

namespace {

constexpr int kDroppedPairs = 20;

bool Expect(bool ok, const char* what) {
  std::fprintf(stderr, "selftest: %s: %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int RunSelfTest(const std::string& out_dir) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(out_dir) / ("selftest-" + std::to_string(getpid()));
  fs::create_directories(dir);

  WorkloadSpec spec = *FindWorkload("skewed_match");
  spec.skew.num_entities = 1200;
  spec.skew.seed = 7;
  spec.split_records = 150;
  BatchInput input;
  input.csv_path = (dir / "input.csv").string();
  auto entities = gen::GenerateSkewed(spec.skew);
  if (!entities.ok() ||
      !er::SaveEntitiesToCsv(input.csv_path, *entities).ok()) {
    return 2;
  }
  input.entities = std::move(*entities);
  input.reference_pairs =
      core::ReferencePairCount(input.entities, input.blocking);
  input.blocks = BlockIndex::Build(input.entities, input.blocking);

  bool ok = true;
  auto run = RunDedup(spec, input, dir.string(), nullptr);
  if (!run.ok()) return 2;
  Tally tally;
  uint64_t digest = 0;
  CheckDedup(input, *run, 1, &digest, &tally);
  ok &= Expect(tally.attempted() > 0 && tally.failed() == 0,
               "an intact dedup passes every check");

  auto matches = run->graph->Get<er::MatchResult>(core::kDatasetMatches);
  if (!matches.ok()) return 2;
  const std::vector<er::MatchPair> intact = SortedPairs(**matches);
  const size_t all_blocks = input.blocks.blocks.size();
  auto check = [&](const std::vector<er::MatchPair>& pairs) {
    return CheckSampledBlocks(input.blocks, input.blocking, input.matcher,
                              pairs, 1, all_blocks, uint64_t{1} << 40, 0);
  };
  ok &= Expect(!intact.empty() && check(intact).empty(),
               "the intact match result agrees with the reference");
  erlb::Pcg32 rng(11);
  bool all_rejected = true;
  for (int i = 0; i < kDroppedPairs; ++i) {
    std::vector<er::MatchPair> dropped = intact;
    dropped.erase(dropped.begin() +
                  rng.NextBounded(static_cast<uint32_t>(dropped.size())));
    all_rejected &= !check(dropped).empty();
  }
  ok &= Expect(all_rejected, "a match result with one pair dropped fails");

  // A probe reply with one pair dropped.
  const er::Entity& base = input.entities.front();
  er::Entity probe = base;
  probe.id = kProbeIdBase;
  er::MatchResult reply = core::ReferenceLink(input.entities, {probe},
                                              input.blocking, input.matcher);
  ok &= Expect(!reply.empty() &&
                   CheckProbeReply(input.blocks, input.blocking,
                                   input.matcher, probe, reply,
                                   kInsertIdBase)
                       .empty(),
               "an intact probe reply passes");
  std::vector<er::MatchPair> short_reply = reply.pairs();
  short_reply.pop_back();
  ok &= Expect(!CheckProbeReply(input.blocks, input.blocking, input.matcher,
                                probe, er::MatchResult(short_reply),
                                kInsertIdBase)
                    .empty(),
               "a probe reply with one pair dropped fails");

  std::error_code ec;
  fs::remove_all(dir, ec);
  std::printf("selftest: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace e2e
