#include "er/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "er/entity.h"
#include "er/matcher.h"
#include "er/similarity.h"

namespace erlb {
namespace er {
namespace {

TEST(UnionFindTest, SingletonsDisconnected) {
  UnionFind uf;
  uf.Add(1);
  uf.Add(2);
  EXPECT_FALSE(uf.Connected(1, 2));
  EXPECT_EQ(uf.num_elements(), 2u);
}

TEST(UnionFindTest, UnionConnects) {
  UnionFind uf;
  uf.Union(1, 2);
  uf.Union(2, 3);
  EXPECT_TRUE(uf.Connected(1, 3));
  EXPECT_FALSE(uf.Connected(1, 4));  // 4 unknown
}

TEST(UnionFindTest, FindIsIdempotentRepresentative) {
  UnionFind uf;
  uf.Union(10, 20);
  uf.Union(20, 30);
  uint64_t r = uf.Find(10);
  EXPECT_EQ(uf.Find(20), r);
  EXPECT_EQ(uf.Find(30), r);
  EXPECT_EQ(uf.Find(r), r);
}

TEST(UnionFindTest, SelfUnionIsNoop) {
  UnionFind uf;
  uf.Union(5, 5);
  EXPECT_EQ(uf.num_elements(), 1u);
  EXPECT_TRUE(uf.Connected(5, 5));
}

TEST(UnionFindTest, LargeChain) {
  UnionFind uf;
  for (uint64_t i = 0; i + 1 < 10000; ++i) uf.Union(i, i + 1);
  EXPECT_TRUE(uf.Connected(0, 9999));
  EXPECT_EQ(uf.num_elements(), 10000u);
}

TEST(ClusterMatchesTest, TransitiveClosure) {
  MatchResult m;
  m.Add(1, 2);
  m.Add(2, 3);  // 1-2-3 one cluster even though (1,3) never matched
  m.Add(7, 9);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(clusters[1], (std::vector<uint64_t>{7, 9}));
}

TEST(ClusterMatchesTest, EmptyResult) {
  EXPECT_TRUE(ClusterMatches(MatchResult()).empty());
}

TEST(ClusterMatchesTest, DuplicatePairsIgnored) {
  MatchResult m;
  m.Add(1, 2);
  m.Add(2, 1);
  m.Add(1, 2);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<uint64_t>{1, 2}));
}

TEST(ClusterMatchesTest, ClustersSortedBySmallestMember) {
  MatchResult m;
  m.Add(100, 200);
  m.Add(5, 6);
  m.Add(50, 60);
  auto clusters = ClusterMatches(m);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0][0], 5u);
  EXPECT_EQ(clusters[1][0], 50u);
  EXPECT_EQ(clusters[2][0], 100u);
}

TEST(ClustersToPairsTest, ExpandsWithinClusterPairs) {
  Clusters clusters{{1, 2, 3}, {7, 9}};
  auto pairs = ClustersToPairs(clusters);
  EXPECT_EQ(pairs.size(), 4u);  // 3 + 1
  EXPECT_EQ(ClusterPairCount(clusters), 4u);
  MatchResult expected;
  expected.Add(1, 2);
  expected.Add(1, 3);
  expected.Add(2, 3);
  expected.Add(7, 9);
  EXPECT_TRUE(pairs.SameAs(expected));
}

TEST(ClusteringPropertyTest, ClosureIsIdempotentOnRandomGraphs) {
  Pcg32 rng(97);
  for (int iter = 0; iter < 20; ++iter) {
    MatchResult m;
    uint32_t n = 30 + rng.NextBounded(50);
    uint32_t edges = rng.NextBounded(2 * n);
    for (uint32_t e = 0; e < edges; ++e) {
      uint64_t a = 1 + rng.NextBounded(n);
      uint64_t b = 1 + rng.NextBounded(n);
      if (a != b) m.Add(a, b);
    }
    auto closed = ClustersToPairs(ClusterMatches(m));
    auto reclosed = ClustersToPairs(ClusterMatches(closed));
    EXPECT_TRUE(closed.SameAs(reclosed));
    // Closure is a superset of the input pairs.
    MatchResult canon = m;
    canon.Canonicalize();
    EXPECT_GE(closed.size(), canon.size());
  }
}

// ClusterMatches as it was before the flat-array rewrite: a hash-map
// union-find (path halving, union by size) and a std::map regroup of
// both endpoints of every pair. The oracle the differential tests
// compare against, byte for byte.
Clusters OracleClusterMatches(const MatchResult& matches) {
  std::unordered_map<uint64_t, uint64_t> parent, size;
  auto find = [&](uint64_t id) {
    if (parent.emplace(id, id).second) size[id] = 1;
    uint64_t root = id;
    while (parent[root] != root) {
      parent[root] = parent[parent[root]];
      root = parent[root];
    }
    return root;
  };
  for (const auto& p : matches.pairs()) {
    uint64_t ra = find(p.first), rb = find(p.second);
    if (ra == rb) continue;
    if (size[ra] < size[rb]) std::swap(ra, rb);
    parent[rb] = ra;
    size[ra] += size[rb];
  }
  std::map<uint64_t, std::vector<uint64_t>> by_root;
  for (const auto& p : matches.pairs()) {
    by_root[find(p.first)].push_back(p.first);
    by_root[find(p.second)].push_back(p.second);
  }
  Clusters clusters;
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    if (members.size() >= 2) clusters.push_back(std::move(members));
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return clusters;
}

// A pair stored exactly as given: MatchResult::Add and the MatchPair
// constructor canonicalize, but MatchPair's fields are public and a
// reversed pair can reach ClusterMatches through the vector constructor.
MatchPair RawPair(uint64_t first, uint64_t second) {
  MatchPair p;
  p.first = first;
  p.second = second;
  return p;
}

void ExpectMatchesOracle(const std::vector<MatchPair>& pairs) {
  const MatchResult m(pairs);
  const Clusters want = OracleClusterMatches(m);
  const Clusters got = ClusterMatches(m);
  ASSERT_EQ(got.size(), want.size()) << pairs.size() << " pairs";
  EXPECT_TRUE(got == want) << pairs.size() << " pairs";
}

TEST(ClusterMatchesDifferentialTest, SparseIdsSelfDuplicateReversedPairs) {
  Pcg32 rng(211);
  for (int iter = 0; iter < 60; ++iter) {
    // A pool of sparse 64-bit ids that always holds both extremes.
    const uint32_t pool_size = 2 + rng.NextBounded(iter < 30 ? 40 : 3000);
    std::vector<uint64_t> pool{0, UINT64_MAX};
    while (pool.size() < pool_size) {
      const uint64_t hi = rng.Next(), lo = rng.Next();
      // Every third id is small, so dense and sparse ids mix.
      pool.push_back(pool.size() % 3 == 0 ? rng.NextBounded(64)
                                          : (hi << 32) | lo);
    }
    auto pick = [&] {
      return pool[rng.NextBounded(static_cast<uint32_t>(pool.size()))];
    };
    std::vector<MatchPair> pairs;
    const uint32_t edges = rng.NextBounded(2 * pool_size);
    for (uint32_t e = 0; e < edges; ++e) {
      const uint64_t a = pick(), b = pick();
      switch (rng.NextBounded(6)) {
        case 0:  // self-pair
          pairs.push_back(RawPair(a, a));
          break;
        case 1:  // reversed pair
          pairs.push_back(RawPair(std::max(a, b), std::min(a, b)));
          break;
        case 2:  // duplicate of an earlier pair, maybe reversed
          if (!pairs.empty()) {
            MatchPair p = pairs[rng.NextBounded(
                static_cast<uint32_t>(pairs.size()))];
            if (rng.NextBounded(2) == 0) std::swap(p.first, p.second);
            pairs.push_back(p);
            break;
          }
          [[fallthrough]];
        default:
          pairs.emplace_back(a, b);
      }
    }
    ExpectMatchesOracle(pairs);
  }
}

TEST(ClusterMatchesDifferentialTest, DisjointEdgesGrowTheIdTable) {
  // Every pair brings two new ids: four times the table's initial
  // sizing, so the table rehashes several times on the way.
  Pcg32 rng(5);
  std::vector<MatchPair> pairs;
  for (uint32_t i = 0; i < 50000; ++i) {
    const uint64_t a = (static_cast<uint64_t>(rng.Next()) << 32) | i;
    pairs.emplace_back(a, a ^ (uint64_t{1} << 63));
  }
  ExpectMatchesOracle(pairs);
  EXPECT_EQ(ClusterMatches(MatchResult(pairs)).size(), 50000u);
}

TEST(ClusterMatchesDifferentialTest, LongChainInBothOrders) {
  constexpr uint64_t kLen = 200000;
  std::vector<MatchPair> up, down;
  for (uint64_t i = 0; i + 1 < kLen; ++i) {
    up.emplace_back(i, i + 1);
    down.push_back(RawPair(kLen - 1 - i, kLen - 2 - i));
  }
  ExpectMatchesOracle(up);
  ExpectMatchesOracle(down);
  const Clusters clusters = ClusterMatches(MatchResult(down));
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), kLen);
}

TEST(ClusterMatchesDifferentialTest, StarSelfPairAndEmpty) {
  std::vector<MatchPair> star;
  for (uint64_t leaf = 1; leaf <= 1000; ++leaf) {
    star.emplace_back(UINT64_MAX, leaf * 0x9e3779b97f4a7c15ULL);
  }
  ExpectMatchesOracle(star);
  ASSERT_EQ(ClusterMatches(MatchResult(star)).size(), 1u);
  // A lone self-pair is a component of one entity: no cluster.
  ExpectMatchesOracle({RawPair(42, 42)});
  EXPECT_TRUE(ClusterMatches(MatchResult({RawPair(42, 42)})).empty());
  ExpectMatchesOracle({});
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  // Classic example: MARTHA vs MARHTA = 0.944...
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  // DWAYNE vs DUANE = 0.822...
  EXPECT_NEAR(JaroSimilarity("dwayne", "duane"), 0.822222, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("martha", "marhta");
  double jw = JaroWinklerSimilarity("martha", "marhta");
  // 3 leading chars in common: jw = jaro + 3*0.1*(1-jaro) = 0.961...
  EXPECT_NEAR(jw, jaro + 3 * 0.1 * (1 - jaro), 1e-12);
  EXPECT_NEAR(jw, 0.961111, 1e-5);
}

TEST(JaroWinklerTest, BoundedAndSymmetric) {
  Pcg32 rng(55);
  auto random_str = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBounded(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(5));
    }
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    std::string a = random_str(12), b = random_str(12);
    double jw = JaroWinklerSimilarity(a, b);
    EXPECT_GE(jw, 0.0);
    EXPECT_LE(jw, 1.0);
    EXPECT_DOUBLE_EQ(jw, JaroWinklerSimilarity(b, a));
    EXPECT_GE(jw, JaroSimilarity(a, b) - 1e-12);  // boost never hurts
  }
}

TEST(JaroWinklerMatcherTest, MatchesNearNames) {
  Entity a, b, c;
  a.id = 1;
  a.fields = {"jonathan smith"};
  b.id = 2;
  b.fields = {"jonathon smith"};
  c.id = 3;
  c.fields = {"maria garcia"};
  JaroWinklerMatcher m(0.9);
  EXPECT_TRUE(m.Match(a, b));
  EXPECT_FALSE(m.Match(a, c));
  EXPECT_NE(m.Describe().find("jaro-winkler"), std::string::npos);
}

}  // namespace
}  // namespace er
}  // namespace erlb
