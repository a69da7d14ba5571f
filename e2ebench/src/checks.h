// Output checks of the end-to-end benchmark. Every dedup and every probe
// reply the benchmark times is also checked; each check is one attempted
// operation, and a mismatch is one failed operation.
#ifndef ERLB_E2EBENCH_CHECKS_H_
#define ERLB_E2EBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "er/blocking.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "er/matcher.h"
#include "lb/plan.h"
#include "mr/metrics.h"
#include "workload.h"

namespace e2e {

/// Counts attempted and failed operations; prints the first few
/// failures to stderr.
class Tally {
 public:
  /// Records one attempted operation; `ok == false` is a failure.
  void Expect(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Entities grouped by blocking key. Entities without a key are left out,
/// as the pipeline and the reference implementations leave them out.
struct BlockIndex {
  std::vector<std::vector<const er::Entity*>> blocks;
  std::unordered_map<std::string, uint32_t> block_of_key;
  std::unordered_map<uint64_t, uint32_t> block_of_id;

  static BlockIndex Build(const std::vector<er::Entity>& entities,
                          const er::BlockingFunction& blocking);
};

/// Sorted, duplicate-free copy of a match result's pairs.
std::vector<er::MatchPair> SortedPairs(const er::MatchResult& matches);

/// Order-independent digest of a sorted pair list.
uint64_t PairDigest(const std::vector<er::MatchPair>& sorted);

/// The paper's "each pair compared once" invariant: the comparisons the
/// match job executed equal the plan's total and the reference count,
/// and every reduce task compared exactly what the plan assigned to it.
/// Returns an empty string when all hold, else what broke.
std::string CheckComparisons(const lb::MatchPlan& plan,
                             const mr::JobMetrics& match_job,
                             int64_t executed, uint64_t reference_pairs);

/// Compares `sorted` (a whole dedup result) against the reference on a
/// seeded sample of blocks. Blocks with at most `exact_max_pairs` pairs
/// are recomputed with core::ReferenceDeduplicate and must agree pair
/// for pair (any result pair touching the block counts); larger blocks
/// get `pairs_per_large_block` seeded candidate pairs each, whose
/// membership in the result must equal Matcher::Match. Returns an empty
/// string on agreement, else the first disagreement.
std::string CheckSampledBlocks(const BlockIndex& index,
                               const er::BlockingFunction& blocking,
                               const er::Matcher& matcher,
                               const std::vector<er::MatchPair>& sorted,
                               uint64_t seed, size_t sample_blocks,
                               uint64_t exact_max_pairs,
                               uint32_t pairs_per_large_block);

/// Checks one probe reply against core::ReferenceLink over the initial
/// corpus (`corpus`). Reply pairs whose corpus side is an inserted record
/// (id >= `insert_id_base`) are not in the initial corpus and are
/// skipped; every other pair must be reproduced, and nothing missed.
std::string CheckProbeReply(const BlockIndex& corpus,
                            const er::BlockingFunction& blocking,
                            const er::Matcher& matcher,
                            const er::Entity& probe,
                            const er::MatchResult& reply,
                            uint64_t insert_id_base);

/// Runs the self-test of these checks (selftest.cc) with scratch files
/// under `out_dir`; returns the process exit code.
int RunSelfTest(const std::string& out_dir);

}  // namespace e2e

#endif  // ERLB_E2EBENCH_CHECKS_H_
