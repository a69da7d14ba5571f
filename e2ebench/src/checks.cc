#include "checks.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "common/random.h"
#include "core/reference.h"

namespace e2e {

namespace {

constexpr int64_t kPrintedFailures = 5;

std::string PairText(const er::MatchPair& p) {
  std::string text = "(";
  text += std::to_string(p.first);
  text += ",";
  text += std::to_string(p.second);
  text += ")";
  return text;
}

/// First pair in which two sorted lists differ, described.
std::string FirstDifference(const std::vector<er::MatchPair>& want,
                            const std::vector<er::MatchPair>& got) {
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  if (i < want.size() &&
      (i == got.size() || want[i] < got[i])) {
    return "missing pair " + PairText(want[i]);
  }
  return "unexpected pair " + PairText(got[i]);
}

}  // namespace

void Tally::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_++ < kPrintedFailures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

BlockIndex BlockIndex::Build(const std::vector<er::Entity>& entities,
                             const er::BlockingFunction& blocking) {
  BlockIndex index;
  for (const er::Entity& e : entities) {
    std::string key = blocking.Key(e);
    if (key.empty()) continue;
    auto [it, fresh] = index.block_of_key.try_emplace(
        std::move(key), static_cast<uint32_t>(index.blocks.size()));
    if (fresh) index.blocks.emplace_back();
    index.blocks[it->second].push_back(&e);
    index.block_of_id[e.id] = it->second;
  }
  return index;
}

std::vector<er::MatchPair> SortedPairs(const er::MatchResult& matches) {
  std::vector<er::MatchPair> pairs = matches.pairs();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

uint64_t PairDigest(const std::vector<er::MatchPair>& sorted) {
  uint64_t digest = erlb::kFnv1aOffsetBasis;
  for (const er::MatchPair& p : sorted) {
    digest = erlb::Fnv1aHashU64(p.second, erlb::Fnv1aHashU64(p.first, digest));
  }
  return digest;
}

std::string CheckComparisons(const lb::MatchPlan& plan,
                             const mr::JobMetrics& match_job,
                             int64_t executed, uint64_t reference_pairs) {
  const uint64_t planned = plan.stats().total_comparisons;
  if (static_cast<uint64_t>(executed) != planned ||
      planned != reference_pairs) {
    return "comparisons: executed " + std::to_string(executed) +
           ", planned " + std::to_string(planned) + ", reference " +
           std::to_string(reference_pairs);
  }
  const auto& per_task = plan.stats().comparisons_per_reduce_task;
  for (const mr::TaskMetrics& task : match_job.reduce_tasks) {
    const int64_t measured = task.counters.Get(mr::kCounterComparisons);
    if (task.task_index >= per_task.size() ||
        static_cast<uint64_t>(measured) != per_task[task.task_index]) {
      return "reduce task " + std::to_string(task.task_index) +
             " compared " + std::to_string(measured) +
             " pairs, plan assigned " +
             (task.task_index < per_task.size()
                  ? std::to_string(per_task[task.task_index])
                  : std::string("none"));
    }
  }
  return "";
}

std::string CheckSampledBlocks(const BlockIndex& index,
                               const er::BlockingFunction& blocking,
                               const er::Matcher& matcher,
                               const std::vector<er::MatchPair>& sorted,
                               uint64_t seed, size_t sample_blocks,
                               uint64_t exact_max_pairs,
                               uint32_t pairs_per_large_block) {
  std::vector<uint32_t> candidates;
  for (uint32_t b = 0; b < index.blocks.size(); ++b) {
    if (index.blocks[b].size() >= 2) candidates.push_back(b);
  }
  erlb::Pcg32 rng(seed, /*stream=*/0xb10c);
  // Partial Fisher-Yates: the first `take` candidates become the sample.
  const size_t take = std::min(sample_blocks, candidates.size());
  for (size_t i = 0; i < take; ++i) {
    const size_t j =
        i + rng.NextBounded(static_cast<uint32_t>(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
  }

  for (size_t i = 0; i < take; ++i) {
    const uint32_t b = candidates[i];
    const auto& members = index.blocks[b];
    const uint64_t n = members.size();
    if (n * (n - 1) / 2 > exact_max_pairs) {
      for (uint32_t s = 0; s < pairs_per_large_block; ++s) {
        const uint32_t x = rng.NextBounded(static_cast<uint32_t>(n));
        uint32_t y = rng.NextBounded(static_cast<uint32_t>(n - 1));
        if (y >= x) ++y;
        const er::MatchPair pair(members[x]->id, members[y]->id);
        const bool want = matcher.Match(*members[x], *members[y]);
        const bool got =
            std::binary_search(sorted.begin(), sorted.end(), pair);
        if (want != got) {
          return "block of " + std::to_string(n) + ": pair " +
                 PairText(pair) + (want ? " missing" : " unexpected");
        }
      }
      continue;
    }
    std::vector<er::Entity> block;
    block.reserve(members.size());
    for (const er::Entity* e : members) block.push_back(*e);
    const std::vector<er::MatchPair> want = SortedPairs(
        erlb::core::ReferenceDeduplicate(block, blocking, matcher));
    std::vector<er::MatchPair> got;
    for (const er::MatchPair& p : sorted) {
      auto first = index.block_of_id.find(p.first);
      auto second = index.block_of_id.find(p.second);
      if ((first != index.block_of_id.end() && first->second == b) ||
          (second != index.block_of_id.end() && second->second == b)) {
        got.push_back(p);
      }
    }
    if (want != got) {
      return "block of " + std::to_string(n) + ": " +
             FirstDifference(want, got);
    }
  }
  return "";
}

std::string CheckProbeReply(const BlockIndex& corpus,
                            const er::BlockingFunction& blocking,
                            const er::Matcher& matcher,
                            const er::Entity& probe,
                            const er::MatchResult& reply,
                            uint64_t insert_id_base) {
  std::vector<er::MatchPair> got;
  for (const er::MatchPair& p : SortedPairs(reply)) {
    if (p.first != probe.id && p.second != probe.id) {
      return "probe " + std::to_string(probe.id) + " got foreign pair " +
             PairText(p);
    }
    const uint64_t other = p.first == probe.id ? p.second : p.first;
    if (other < insert_id_base) got.push_back(p);
  }
  std::vector<er::MatchPair> want;
  auto block = corpus.block_of_key.find(blocking.Key(probe));
  if (block != corpus.block_of_key.end()) {
    std::vector<er::Entity> r;
    for (const er::Entity* e : corpus.blocks[block->second]) {
      r.push_back(*e);
    }
    want = SortedPairs(
        erlb::core::ReferenceLink(r, {probe}, blocking, matcher));
  }
  if (want != got) {
    return "probe " + std::to_string(probe.id) + ": " +
           FirstDifference(want, got);
  }
  return "";
}

}  // namespace e2e
