// Micro-benchmarks for the similarity kernels, with explicit before/after
// comparisons for the PR-2 set -> sorted-vector rewrite:
//
//  * jaccard: the former per-call std::set<std::string> kernel (rebuilt
//    here as the baseline) vs. er::JaccardTokenSimilarity's thread-local
//    sort-and-intersect.
//  * ngram: same comparison for trigram similarity.
//  * edit: the Ukkonen banded DP the threshold matcher used before the
//    bit-parallel kernel (rebuilt here as the baseline) vs. the current
//    EditSimilarityAtLeast, on fresh patterns per call and on one pattern
//    held fixed across the loop (the reduce loops' access pattern). The
//    full-distance entries time EditDistance.
//
// `--json <path>` writes the results as BENCH_*.json (see bench_json.h).
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/random.h"
#include "er/similarity.h"

namespace {

using erlb::Pcg32;

volatile double g_sink = 0.0;

std::vector<std::pair<std::string, std::string>> MakeTitlePairs(
    size_t count, bool similar) {
  Pcg32 rng(similar ? 1 : 2);
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string a;
    for (int j = 0; j < 24; ++j) {
      a += static_cast<char>('a' + rng.NextBounded(26));
      if (j % 6 == 5) a += ' ';
    }
    std::string b = a;
    if (similar) {
      b[rng.NextBounded(static_cast<uint32_t>(b.size()))] = 'q';
    } else {
      for (auto& c : b) {
        if (rng.NextDouble() < 0.5) {
          c = static_cast<char>('a' + rng.NextBounded(26));
        }
      }
    }
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

// ---------------------------------------------------------------------
// The kernels as they were before the rewrite: per-call std::set builds.
// ---------------------------------------------------------------------

double OldJaccardOfSets(const std::set<std::string>& sa,
                        const std::set<std::string>& sb) {
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double OldJaccardTokenSimilarity(std::string_view a, std::string_view b) {
  auto ta = erlb::er::TokenizeWords(a);
  auto tb = erlb::er::TokenizeWords(b);
  return OldJaccardOfSets({ta.begin(), ta.end()}, {tb.begin(), tb.end()});
}

double OldNgramSimilarity(std::string_view a, std::string_view b, size_t n) {
  auto ga = erlb::er::CharNgrams(a, n);
  auto gb = erlb::er::CharNgrams(b, n);
  return OldJaccardOfSets({ga.begin(), ga.end()}, {gb.begin(), gb.end()});
}

// The threshold kernel as it was before the bit-parallel rewrite: a
// Ukkonen-banded DP over one reused row.
size_t OldBandedEditDistance(std::string_view a, std::string_view b,
                             size_t bound) {
  if (a.size() < b.size()) std::swap(a, b);
  const size_t la = a.size(), lb = b.size();
  if (la - lb > bound) return bound + 1;
  if (lb == 0) return la;

  const size_t kInf = bound + 1;
  thread_local std::vector<size_t> row;
  row.assign(lb + 1, kInf);
  for (size_t j = 0; j <= std::min(lb, bound); ++j) row[j] = j;

  for (size_t i = 1; i <= la; ++i) {
    size_t jlo = (i > bound) ? i - bound : 1;
    size_t jhi = std::min(lb, i + bound);
    if (jlo > jhi) return bound + 1;
    size_t prev_diag = (jlo == 1) ? ((i - 1 <= bound) ? i - 1 : kInf)
                                  : row[jlo - 1];
    size_t left = (jlo == 1 && i <= bound) ? i : kInf;
    size_t row_min = kInf;
    for (size_t j = jlo; j <= jhi; ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t val = std::min({up == kInf ? kInf : up + 1,
                             left == kInf ? kInf : left + 1,
                             prev_diag == kInf ? kInf : prev_diag + cost});
      val = std::min(val, kInf);
      prev_diag = up;
      row[j] = val;
      left = val;
      row_min = std::min(row_min, val);
    }
    if (jlo > 1) row[jlo - 1] = kInf;
    if (row_min > bound) return bound + 1;
  }
  return row[lb];
}

bool OldEditSimilarityAtLeast(std::string_view a, std::string_view b,
                              double threshold) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return threshold <= 1.0;
  if (threshold <= 0.0) return true;
  double allowed = (1.0 - threshold) * static_cast<double>(max_len);
  size_t bound = static_cast<size_t>(std::floor(allowed + 1e-9));
  return OldBandedEditDistance(a, b, bound) <= bound;
}

void BenchJaccard(erlb::bench::MicroBench* mb) {
  auto pairs = MakeTitlePairs(256, true);
  size_t i = 0;
  mb->Run("jaccard/old_set_based", [&] {
    const auto& [a, b] = pairs[i++ & 255];
    g_sink = g_sink + OldJaccardTokenSimilarity(a, b);
  });
  i = 0;
  mb->Run("jaccard/new_sorted_vectors", [&] {
    const auto& [a, b] = pairs[i++ & 255];
    g_sink = g_sink + erlb::er::JaccardTokenSimilarity(a, b);
  });
  mb->Speedup("jaccard/speedup", "jaccard/old_set_based",
              "jaccard/new_sorted_vectors");
}

void BenchNgram(erlb::bench::MicroBench* mb) {
  auto pairs = MakeTitlePairs(256, true);
  size_t i = 0;
  mb->Run("ngram/old_set_based", [&] {
    const auto& [a, b] = pairs[i++ & 255];
    g_sink = g_sink + OldNgramSimilarity(a, b, 3);
  });
  i = 0;
  mb->Run("ngram/new_sorted_vectors", [&] {
    const auto& [a, b] = pairs[i++ & 255];
    g_sink = g_sink + erlb::er::NgramSimilarity(a, b, 3);
  });
  mb->Speedup("ngram/speedup", "ngram/old_set_based",
              "ngram/new_sorted_vectors");
}

void BenchEdit(erlb::bench::MicroBench* mb) {
  for (bool similar : {false, true}) {
    auto pairs = MakeTitlePairs(256, similar);
    const std::string tag = similar ? "similar" : "dissimilar";
    size_t i = 0;
    mb->Run("edit/full_" + tag, [&] {
      const auto& [a, b] = pairs[i++ & 255];
      g_sink = g_sink + static_cast<double>(erlb::er::EditDistance(a, b));
    });
    i = 0;
    mb->Run("edit/old_banded_" + tag, [&] {
      const auto& [a, b] = pairs[i++ & 255];
      g_sink = g_sink + (OldEditSimilarityAtLeast(a, b, 0.8) ? 1.0 : 0.0);
    });
    // The entry name predates the bit-parallel kernel; it times the
    // current threshold kernel.
    i = 0;
    mb->Run("edit/banded_threshold_" + tag, [&] {
      const auto& [a, b] = pairs[i++ & 255];
      g_sink = g_sink + (erlb::er::EditSimilarityAtLeast(a, b, 0.8) ? 1.0 : 0.0);
    });
    mb->Speedup("edit/speedup_" + tag, "edit/old_banded_" + tag,
                "edit/banded_threshold_" + tag);
  }
  // One `b` held fixed while `a` walks 256 entities, as in every reduce
  // loop: the per-thread pattern table is built once, not per call.
  auto pairs = MakeTitlePairs(256, false);
  const std::string fixed = pairs[0].second;
  size_t i = 0;
  mb->Run("edit/fixed_pattern_dissimilar", [&] {
    const std::string& a = pairs[i++ & 255].first;
    g_sink = g_sink +
             (erlb::er::EditSimilarityAtLeast(a, fixed, 0.8) ? 1.0 : 0.0);
  });
}

}  // namespace

int main(int argc, char** argv) {
  erlb::bench::MicroBench mb("bench_micro_similarity");
  if (!mb.ParseArgs(argc, argv)) return 1;
  BenchJaccard(&mb);
  BenchNgram(&mb);
  BenchEdit(&mb);
  return mb.Finish();
}
