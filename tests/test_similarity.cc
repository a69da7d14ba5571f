#include "er/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace erlb {
namespace er {
namespace {

// Full-matrix Levenshtein DP, independent of the library's kernel: the
// oracle every edit-distance test compares against.
size_t OracleEditDistance(std::string_view a, std::string_view b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size()][b.size()];
}

// A random string of `len` characters drawn from the first `alphabet`
// letters 'a'.., or from all 256 byte values when `alphabet` is 0.
std::string RandomString(Pcg32* rng, size_t len, uint32_t alphabet) {
  std::string s(len, '\0');
  for (auto& c : s) {
    c = alphabet == 0 ? static_cast<char>(rng->NextBounded(256))
                      : static_cast<char>('a' + rng->NextBounded(alphabet));
  }
  return s;
}

// A copy of `s` with `edits` random substitutions, insertions and
// deletions, so pairs land near every bound, not only far above them.
std::string Perturb(Pcg32* rng, std::string s, size_t edits,
                    uint32_t alphabet) {
  for (size_t e = 0; e < edits; ++e) {
    const std::string c = RandomString(rng, 1, alphabet);
    const size_t pos = rng->NextBounded(static_cast<uint32_t>(s.size() + 1));
    switch (rng->NextBounded(3)) {
      case 0:
        if (pos < s.size()) s[pos] = c[0];
        break;
      case 1:
        s.insert(pos, c);
        break;
      default:
        if (pos < s.size()) s.erase(pos, 1);
        break;
    }
  }
  return s;
}

// Checks both kernels against the oracle for every bound 0..max_len+1.
void ExpectKernelMatchesOracle(const std::string& a, const std::string& b) {
  const size_t want = OracleEditDistance(a, b);
  ASSERT_EQ(EditDistance(a, b), want)
      << "|a|=" << a.size() << " |b|=" << b.size();
  const size_t max_len = std::max(a.size(), b.size());
  for (size_t bound = 0; bound <= max_len + 1; ++bound) {
    const size_t got = EditDistanceBounded(a, b, bound);
    if (want <= bound) {
      ASSERT_EQ(got, want) << "|a|=" << a.size() << " |b|=" << b.size()
                           << " bound=" << bound;
    } else {
      ASSERT_GT(got, bound) << "|a|=" << a.size() << " |b|=" << b.size()
                            << " bound=" << bound << " want=" << want;
    }
  }
}

TEST(EditKernelDifferentialTest, RandomStringsAllBoundsAllAlphabets) {
  Pcg32 rng(53);
  // 2..8 letters, then the full byte range ('\0' and bytes >= 0x80).
  for (uint32_t alphabet : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 0u}) {
    for (int iter = 0; iter < 24; ++iter) {
      const std::string a = RandomString(&rng, rng.NextBounded(201), alphabet);
      const std::string b = iter % 2 == 0
                                ? RandomString(&rng, rng.NextBounded(201),
                                               alphabet)
                                : Perturb(&rng, a, rng.NextBounded(12),
                                          alphabet);
      ExpectKernelMatchesOracle(a, b);
      ExpectKernelMatchesOracle(b, a);
    }
  }
}

TEST(EditKernelDifferentialTest, WordBoundaryLengths) {
  // Pattern lengths around one and two 64-bit words, on either side.
  Pcg32 rng(59);
  const size_t kEdges[] = {0, 1, 63, 64, 65, 127, 128, 129};
  for (uint32_t alphabet : {2u, 4u, 0u}) {
    for (size_t la : kEdges) {
      for (size_t lb : kEdges) {
        const std::string a = RandomString(&rng, la, alphabet);
        ExpectKernelMatchesOracle(a, RandomString(&rng, lb, alphabet));
        // A near copy, so small bounds are exercised at these lengths.
        std::string b = Perturb(&rng, a, 3, alphabet);
        b.resize(lb, 'a');
        ExpectKernelMatchesOracle(a, b);
      }
    }
  }
}

TEST(EditKernelDifferentialTest, FullByteRangeKnownValues) {
  const std::string nul_a("a\0b", 3), nul_b("a\0c", 3);
  EXPECT_EQ(EditDistance(nul_a, nul_b), 1u);
  EXPECT_EQ(EditDistance(std::string("\0\0", 2), ""), 2u);
  EXPECT_EQ(EditDistance("\xff\x80", "\x80\xff"), 2u);
  EXPECT_EQ(EditDistance("\xe9t\xe9", "\xe9t\xe9"), 0u);
}

// The pattern table is memoized per thread by content. These cases
// would read a stale table if the memo were keyed on the address.
TEST(EditKernelMemoTest, InPlaceMutationOfThePattern) {
  Pcg32 rng(61);
  for (size_t len : {5u, 64u, 100u}) {
    const std::string a = RandomString(&rng, len, 4);
    std::string b = a;
    for (int step = 0; step < 20; ++step) {
      const char* data = b.data();
      b[rng.NextBounded(static_cast<uint32_t>(b.size()))] =
          static_cast<char>('a' + rng.NextBounded(4));
      ASSERT_EQ(b.data(), data);  // same buffer, same size, new content
      const size_t want = OracleEditDistance(a, b);
      EXPECT_EQ(EditDistance(a, b), want);
      EXPECT_EQ(EditDistanceBounded(a, b, want), want);
      if (want > 0) {
        EXPECT_GT(EditDistanceBounded(a, b, want - 1), want - 1);
      }
    }
  }
}

TEST(EditKernelMemoTest, AlternatingPatternsAndWordCounts) {
  Pcg32 rng(67);
  const std::vector<std::string> patterns = {
      RandomString(&rng, 30, 3), RandomString(&rng, 30, 3),
      RandomString(&rng, 150, 3), RandomString(&rng, 7, 3),
      RandomString(&rng, 70, 0)};
  for (int iter = 0; iter < 200; ++iter) {
    const std::string& b = patterns[iter % 2 == 0
                                        ? iter / 2 % patterns.size()
                                        : 0];
    const std::string a = Perturb(&rng, b, rng.NextBounded(8), 3);
    const size_t want = OracleEditDistance(a, b);
    EXPECT_EQ(EditDistance(a, b), want) << "iter=" << iter;
    EXPECT_EQ(EditDistanceBounded(a, b, want), want) << "iter=" << iter;
  }
}

TEST(EditKernelMemoTest, ThreadsWithTheirOwnPatterns) {
  constexpr int kThreads = 4;
  struct Case {
    std::string a, b;
    size_t want;
  };
  std::vector<std::vector<Case>> cases(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Pcg32 rng(71 + t);
    for (int p = 0; p < 6; ++p) {
      const std::string b =
          RandomString(&rng, 20 + rng.NextBounded(120), 5);
      for (int k = 0; k < 10; ++k) {
        std::string a = Perturb(&rng, b, rng.NextBounded(20), 5);
        const size_t want = OracleEditDistance(a, b);
        cases[t].push_back({std::move(a), b, want});
      }
    }
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cases, &mismatches, t] {
      for (int round = 0; round < 20; ++round) {
        for (const Case& c : cases[t]) {
          if (EditDistance(c.a, c.b) != c.want ||
              EditDistanceBounded(c.a, c.b, c.want) != c.want) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "xy"), 2u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("intention", "execution"), 5u);
  EXPECT_EQ(EditDistance("a", "b"), 1u);
  EXPECT_EQ(EditDistance("ab", "ba"), 2u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"),
            EditDistance("saturday", "sunday"));
}

TEST(EditDistanceTest, TriangleInequalityOnSamples) {
  Pcg32 rng(31);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(4));
    }
    return s;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string a = random_str(12), b = random_str(12), c = random_str(12);
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c));
  }
}

TEST(EditDistanceBoundedTest, AgreesWithFullWhenWithinBound) {
  Pcg32 rng(37);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(5));
    }
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = random_str(16), b = random_str(16);
    size_t full = OracleEditDistance(a, b);
    for (size_t bound : {0u, 1u, 2u, 4u, 8u, 16u}) {
      size_t banded = EditDistanceBounded(a, b, bound);
      if (full <= bound) {
        EXPECT_EQ(banded, full) << "a=" << a << " b=" << b
                                << " bound=" << bound;
      } else {
        EXPECT_GT(banded, bound) << "a=" << a << " b=" << b
                                 << " bound=" << bound;
      }
    }
  }
}

TEST(EditDistanceBoundedTest, LengthGapShortCircuit) {
  EXPECT_GT(EditDistanceBounded("abcdefgh", "a", 3), 3u);
  EXPECT_EQ(EditDistanceBounded("abcdefgh", "a", 7), 7u);
}

TEST(EditDistanceBoundedTest, EmptyStrings) {
  EXPECT_EQ(EditDistanceBounded("", "", 0), 0u);
  EXPECT_EQ(EditDistanceBounded("ab", "", 2), 2u);
  EXPECT_GT(EditDistanceBounded("abc", "", 2), 2u);
}

TEST(EditSimilarityTest, RangeAndIdentity) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(EditSimilarity("abcd", "abcx"), 0.75, 1e-12);
}

TEST(EditSimilarityAtLeastTest, ThresholdAboveOneOrNanIsNeverMet) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(EditSimilarityAtLeast("abc", "abd", 1.0000001));
  EXPECT_FALSE(EditSimilarityAtLeast("abc", "abc", 1.0000001));
  EXPECT_FALSE(EditSimilarityAtLeast("abc", "xyz", nan));
  EXPECT_FALSE(EditSimilarityAtLeast("abc", "abc", nan));
  EXPECT_FALSE(EditSimilarityAtLeast("abc", "abc", inf));
  EXPECT_TRUE(EditSimilarityAtLeast("abc", "abc", 1.0));
  EXPECT_TRUE(EditSimilarityAtLeast("abc", "xyz", -inf));
  // Two empty strings have similarity 1, as EditSimilarity says.
  EXPECT_TRUE(EditSimilarityAtLeast("", "", 1.0));
  EXPECT_FALSE(EditSimilarityAtLeast("", "", 1.5));
  EXPECT_FALSE(EditSimilarityAtLeast("", "", nan));
}

TEST(EditSimilarityTest, PaperThresholdExample) {
  // Two titles differing by one character out of ten: sim 0.9 >= 0.8.
  EXPECT_TRUE(EditSimilarityAtLeast("canon eos 5", "canon eos 6", 0.8));
  // Completely different strings fail.
  EXPECT_FALSE(EditSimilarityAtLeast("canon eos 5", "nikon d300x", 0.8));
}

TEST(EditSimilarityAtLeastTest, AgreesWithDirectComputation) {
  Pcg32 rng(41);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len)) + 1;
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(6));
    }
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = random_str(14), b = random_str(14);
    const double sim =
        1.0 - static_cast<double>(OracleEditDistance(a, b)) /
                  static_cast<double>(std::max(a.size(), b.size()));
    for (double t : {0.0, 0.3, 0.5, 0.8, 0.9, 1.0}) {
      bool expected = sim >= t - 1e-12;
      EXPECT_EQ(EditSimilarityAtLeast(a, b, t), expected)
          << "a=" << a << " b=" << b << " t=" << t;
    }
  }
}

TEST(TokenizeTest, LowercasesAndStripsPunctuation) {
  auto t = TokenizeWords("The Quick, brown FOX!");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "the");
  EXPECT_EQ(t[1], "quick");
  EXPECT_EQ(t[3], "fox");
}

TEST(TokenizeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("... !!!").empty());
}

TEST(JaccardTest, IdenticalAndDisjoint) {
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b c", "c b a"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b", "c d"), 0.0);
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("", ""), 1.0);
}

TEST(JaccardTest, PartialOverlap) {
  // {a,b,c} vs {b,c,d}: 2/4.
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a b c", "b c d"), 0.5);
}

TEST(NgramTest, GramExtraction) {
  auto g = CharNgrams("abcd", 3);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0], "abc");
  EXPECT_EQ(g[1], "bcd");
  EXPECT_EQ(CharNgrams("ab", 3).size(), 1u);  // short string -> whole
  EXPECT_TRUE(CharNgrams("", 3).empty());
}

TEST(NgramTest, SimilarityBasics) {
  EXPECT_DOUBLE_EQ(NgramSimilarity("abcd", "abcd", 3), 1.0);
  EXPECT_DOUBLE_EQ(NgramSimilarity("abc", "xyz", 3), 0.0);
  EXPECT_GT(NgramSimilarity("database", "databases", 3), 0.6);
}

// Parameterized sweep: similarity measures are symmetric and in [0,1].
class SimilarityPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimilarityPropertyTest, SymmetricAndBounded) {
  auto [seed, len] = GetParam();
  Pcg32 rng(seed);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t n = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < n; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(8));
    }
    return s;
  };
  for (int iter = 0; iter < 50; ++iter) {
    std::string a = random_str(len), b = random_str(len);
    for (double s : {EditSimilarity(a, b), JaccardTokenSimilarity(a, b),
                     NgramSimilarity(a, b, 3)}) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
    EXPECT_DOUBLE_EQ(EditSimilarity(a, b), EditSimilarity(b, a));
    EXPECT_DOUBLE_EQ(NgramSimilarity(a, b, 2), NgramSimilarity(b, a, 2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimilarityPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(4, 12, 24)));

// ---------------------------------------------------------------------
// Regression pins for the set -> sorted-vector rewrite: exact values the
// former std::set<std::string>-based kernels produced, plus a randomized
// differential against an in-test set-based reference.
// ---------------------------------------------------------------------

double ReferenceSetJaccard(const std::set<std::string>& sa,
                           const std::set<std::string>& sb) {
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double ReferenceJaccardTokens(std::string_view a, std::string_view b) {
  auto ta = TokenizeWords(a);
  auto tb = TokenizeWords(b);
  return ReferenceSetJaccard({ta.begin(), ta.end()}, {tb.begin(), tb.end()});
}

double ReferenceNgram(std::string_view a, std::string_view b, size_t n) {
  auto ga = CharNgrams(a, n);
  auto gb = CharNgrams(b, n);
  return ReferenceSetJaccard({ga.begin(), ga.end()}, {gb.begin(), gb.end()});
}

TEST(SimilarityRegressionTest, PinnedJaccardValues) {
  // {fuzzy,wuzzy,was,a,bear} vs {fuzzy,wuzzy,had,hair}: 2 / 7.
  EXPECT_DOUBLE_EQ(
      JaccardTokenSimilarity("Fuzzy Wuzzy was a bear", "fuzzy wuzzy had hair"),
      2.0 / 7.0);
  // Duplicate tokens collapse (set semantics): {a,b} vs {a,b}.
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("a a b", "a b b"), 1.0);
  // Case and punctuation are normalized away.
  EXPECT_DOUBLE_EQ(JaccardTokenSimilarity("Hello, World!", "hello world"),
                   1.0);
}

TEST(SimilarityRegressionTest, PinnedNgramValues) {
  // {abc,bcd,cde} vs {abc,bcd,cdf}: 2 / 4.
  EXPECT_DOUBLE_EQ(NgramSimilarity("abcde", "abcdf", 3), 0.5);
  // Repeated grams collapse; lowering applies: {aa} vs {aa}.
  EXPECT_DOUBLE_EQ(NgramSimilarity("AAAA", "aaaa", 2), 1.0);
  // n = 0 produces no grams on either side -> both empty -> 1.
  EXPECT_DOUBLE_EQ(NgramSimilarity("abc", "xyz", 0), 1.0);
  // One side empty: 0 / 1.
  EXPECT_DOUBLE_EQ(NgramSimilarity("", "ab", 3), 0.0);
}

TEST(SimilarityRegressionTest, DifferentialAgainstSetBasedReference) {
  Pcg32 rng(31);
  const std::string alphabet = "aAbBcC dD-,.12 xyZ";
  auto random_str = [&] {
    std::string s;
    size_t n = rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      s += alphabet[rng.NextBounded(static_cast<uint32_t>(alphabet.size()))];
    }
    return s;
  };
  for (int iter = 0; iter < 300; ++iter) {
    std::string a = random_str(), b = random_str();
    EXPECT_DOUBLE_EQ(JaccardTokenSimilarity(a, b),
                     ReferenceJaccardTokens(a, b))
        << "a=\"" << a << "\" b=\"" << b << "\"";
    for (size_t n : {2u, 3u}) {
      EXPECT_DOUBLE_EQ(NgramSimilarity(a, b, n), ReferenceNgram(a, b, n))
          << "n=" << n << " a=\"" << a << "\" b=\"" << b << "\"";
    }
  }
}

TEST(SimilarityViewApiTest, TokenViewsMatchTokenizeWords) {
  std::string buf;
  std::vector<std::string_view> views;
  AppendTokenViews(" Hello, World! 42 ", &buf, &views);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0], "hello");
  EXPECT_EQ(views[1], "world");
  EXPECT_EQ(views[2], "42");
  // Reuse: the buffers are cleared, not reallocated.
  AppendTokenViews("", &buf, &views);
  EXPECT_TRUE(views.empty());
}

TEST(SimilarityViewApiTest, NgramViewsMatchCharNgrams) {
  std::string buf;
  std::vector<std::string_view> views;
  AppendCharNgramViews("AbCd", 3, &buf, &views);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0], "abc");
  EXPECT_EQ(views[1], "bcd");
  AppendCharNgramViews("ab", 3, &buf, &views);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0], "ab");
  AppendCharNgramViews("abc", 0, &buf, &views);
  EXPECT_TRUE(views.empty());
}

}  // namespace
}  // namespace er
}  // namespace erlb
