#include "er/clustering.h"

#include <algorithm>

#include "common/logging.h"

namespace erlb {
namespace er {

namespace {

// Murmur3's 64-bit finalizer: sequential and strided ids spread over
// the whole table.
uint64_t MixId(uint64_t id) {
  id ^= id >> 33;
  id *= 0xff51afd7ed558ccdULL;
  id ^= id >> 33;
  id *= 0xc4ceb9fe1a85ec53ULL;
  id ^= id >> 33;
  return id;
}

}  // namespace

UnionFind::UnionFind(size_t expected_ids) {
  Reserve(expected_ids);
  ids_.reserve(expected_ids);
  parent_.reserve(expected_ids);
}

UnionFind::Slot& UnionFind::Probe(uint64_t id) {
  const size_t mask = table_.size() - 1;
  for (size_t i = MixId(id) & mask;; i = (i + 1) & mask) {
    Slot& s = table_[i];
    if (s.index == kEmpty || s.id == id) return s;
  }
}

void UnionFind::Reserve(size_t n) {
  size_t cap = std::max<size_t>(table_.size(), 16);
  while (cap < 2 * n) cap *= 2;
  if (cap == table_.size()) return;
  table_.assign(cap, Slot{});
  for (uint32_t i = 0; i < ids_.size(); ++i) {
    Probe(ids_[i]) = Slot{ids_[i], i};
  }
}

uint32_t UnionFind::Intern(uint64_t id) {
  Reserve(ids_.size() + 1);
  Slot& s = Probe(id);
  if (s.index == kEmpty) {
    ERLB_CHECK(ids_.size() < kEmpty) << "more than 2^32-1 distinct ids";
    s = Slot{id, static_cast<uint32_t>(ids_.size())};
    ids_.push_back(id);
    parent_.push_back(s.index);
  }
  return s.index;
}

void UnionFind::UnionIndices(uint32_t a, uint32_t b) {
  a = FindIndex(a);
  b = FindIndex(b);
  if (a == b) return;
  if (ids_[b] < ids_[a]) std::swap(a, b);
  parent_[b] = a;
}

bool UnionFind::Connected(uint64_t a, uint64_t b) {
  const uint32_t ia = Probe(a).index, ib = Probe(b).index;
  if (ia == kEmpty || ib == kEmpty) return false;
  return FindIndex(ia) == FindIndex(ib);
}

Clusters ClusterMatches(const MatchResult& matches) {
  // Most matched entities sit in several pairs, so half the pair count
  // covers the distinct ids of a dense result; sparser ones grow the
  // table.
  UnionFind uf(matches.size() / 2);
  for (const auto& p : matches.pairs()) {
    uf.UnionIndices(uf.Intern(p.first), uf.Intern(p.second));
  }
  const auto n = static_cast<uint32_t>(uf.num_elements());
  std::vector<uint32_t> root(n), size(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    root[i] = uf.FindIndex(i);
    ++size[root[i]];
  }
  // Gather: each id is appended once to its root's cluster; components
  // of one id (including a lone self-pair) yield none.
  constexpr uint32_t kNoCluster = UINT32_MAX;
  std::vector<uint32_t> cluster_of(n, kNoCluster);
  Clusters clusters;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = root[i];
    if (size[r] < 2) continue;
    if (cluster_of[r] == kNoCluster) {
      cluster_of[r] = static_cast<uint32_t>(clusters.size());
      clusters.emplace_back().reserve(size[r]);
    }
    clusters[cluster_of[r]].push_back(uf.id_at(i));
  }
  for (auto& members : clusters) std::sort(members.begin(), members.end());
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return clusters;
}

MatchResult ClustersToPairs(const Clusters& clusters) {
  MatchResult out;
  for (const auto& cluster : clusters) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        out.Add(cluster[i], cluster[j]);
      }
    }
  }
  out.Canonicalize();
  return out;
}

uint64_t ClusterPairCount(const Clusters& clusters) {
  uint64_t pairs = 0;
  for (const auto& c : clusters) {
    pairs += c.size() * (c.size() - 1) / 2;
  }
  return pairs;
}

}  // namespace er
}  // namespace erlb
