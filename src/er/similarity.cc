#include "er/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace erlb {
namespace er {

namespace {

/// Per-thread pattern table for the bit-parallel kernel: bit i of
/// peq[c * words + i / 64] (bit i % 64) is set iff pattern[i] == c. The
/// reduce loops hold one entity fixed as `b` while the other side walks
/// the buffer, so keeping the last pattern's table turns the O(|b|)
/// rebuild into a content comparison. Keyed on content, never on the
/// address: callers may reuse a buffer for a different string.
struct PatternTable {
  std::string pattern;
  size_t words = 0;
  std::vector<uint64_t> peq;
  std::vector<uint64_t> columns;  // vp then vn, for patterns over 64 chars

  void Load(std::string_view b) {
    if (b.size() == pattern.size() &&
        std::memcmp(b.data(), pattern.data(), b.size()) == 0) {
      return;
    }
    const size_t new_words = (b.size() + 63) / 64;
    if (new_words != words) {
      words = new_words;
      peq.assign(256 * words, 0);
      columns.resize(2 * words);
    } else {
      SetBits(pattern, /*on=*/false);
    }
    pattern.assign(b);
    SetBits(pattern, /*on=*/true);
  }

  /// Sets (or clears) exactly the table words that pattern `p` marks.
  /// Locals keep the stores to `peq` from aliasing `words`/`pattern`.
  void SetBits(std::string_view p, bool on) {
    uint64_t* table = peq.data();
    const size_t stride = words;
    for (size_t i = 0; i < p.size(); ++i) {
      uint64_t& word =
          table[static_cast<unsigned char>(p[i]) * stride + i / 64];
      word = on ? word | (uint64_t{1} << (i % 64)) : 0;
    }
  }
};

PatternTable& TlsPatternTable() {
  thread_local PatternTable table;
  return table;
}

/// Myers' bit-vector column step in Hyyrö's global edit-distance form,
/// over `kWords` (or, when kWords == 0, `words` at run time) 64-bit
/// words. vp/vn hold the vertical +1/-1 deltas of the current column of
/// D[i][j] (i over pattern b, j over text a); the add carry and both
/// shift carries run from word 0 upward, so the multi-word step is the
/// single-word step on a wider integer. Returns D[m][n] exactly if it is
/// <= bound, otherwise bound + 1.
template <size_t kWords>
size_t MyersDistance(const PatternTable& t, std::string_view a, size_t bound,
                     uint64_t* vp, uint64_t* vn) {
  const size_t words = kWords != 0 ? kWords : t.words;
  const size_t m = t.pattern.size(), n = a.size();
  const size_t last = words - 1;
  const uint64_t top = uint64_t{1} << ((m - 1) % 64);
  for (size_t w = 0; w < words; ++w) {
    vp[w] = ~uint64_t{0};
    vn[w] = 0;
  }
  size_t score = m;  // D[m][0]
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* eq =
        &t.peq[static_cast<unsigned char>(a[j]) * words];
    uint64_t add_carry = 0, hp_carry = 1, hn_carry = 0;  // D[0][j] = j
    for (size_t w = 0; w < words; ++w) {
      const uint64_t x = eq[w] | vn[w];
      const uint64_t sum1 = (x & vp[w]) + vp[w];
      const uint64_t sum = sum1 + add_carry;
      add_carry = (sum1 < vp[w]) | (sum < sum1);
      const uint64_t d0 = (sum ^ vp[w]) | x;
      const uint64_t hp = vn[w] | ~(d0 | vp[w]);
      const uint64_t hn = d0 & vp[w];
      if (w == last) {
        score += (hp & top) != 0;
        score -= (hn & top) != 0;
      }
      const uint64_t hp_shift = (hp << 1) | hp_carry;
      const uint64_t hn_shift = (hn << 1) | hn_carry;
      hp_carry = hp >> 63;
      hn_carry = hn >> 63;
      vp[w] = hn_shift | ~(d0 | hp_shift);
      vn[w] = hp_shift & d0;
    }
    // Each remaining column moves D[m][.] by at most one.
    if (score > bound + (n - j - 1)) return bound + 1;
  }
  return score;
}

}  // namespace

size_t EditDistance(std::string_view a, std::string_view b) {
  return EditDistanceBounded(a, b, std::max(a.size(), b.size()));
}

size_t EditDistanceBounded(std::string_view a, std::string_view b,
                           size_t bound) {
  // No distance exceeds the longer length; clamping keeps the
  // early-exit arithmetic below from overflowing.
  bound = std::min(bound, std::max(a.size(), b.size()));
  const size_t gap =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (gap > bound) return bound + 1;
  if (b.empty()) return a.size();
  if (a.empty()) return b.size();

  PatternTable& t = TlsPatternTable();
  t.Load(b);
  if (t.words == 1) {
    uint64_t vp, vn;
    return MyersDistance<1>(t, a, bound, &vp, &vn);
  }
  return MyersDistance<0>(t, a, bound, t.columns.data(),
                          t.columns.data() + t.words);
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  size_t d = EditDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(max_len);
}

bool EditSimilarityAtLeast(std::string_view a, std::string_view b,
                           double threshold) {
  // Similarity never exceeds 1; a NaN threshold is never met.
  if (!(threshold <= 1.0)) return false;
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0 || threshold <= 0.0) return true;
  // sim >= t  <=>  dist <= (1 - t) * max_len
  double allowed = (1.0 - threshold) * static_cast<double>(max_len);
  size_t bound = static_cast<size_t>(std::floor(allowed + 1e-9));
  return EditDistanceBounded(a, b, bound) <= bound;
}

void AppendTokenViews(std::string_view s, std::string* buf,
                      std::vector<std::string_view>* tokens) {
  buf->clear();
  tokens->clear();
  // The lowered token characters never exceed |s|; reserving up front
  // pins the buffer so the views below stay valid while we append.
  buf->reserve(s.size());
  size_t token_start = 0;
  for (char c : s) {
    bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9');
    if (alnum) {
      buf->push_back((c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a')
                                            : c);
    } else if (buf->size() > token_start) {
      tokens->emplace_back(buf->data() + token_start,
                           buf->size() - token_start);
      token_start = buf->size();
    }
  }
  if (buf->size() > token_start) {
    tokens->emplace_back(buf->data() + token_start, buf->size() - token_start);
  }
}

std::vector<std::string> TokenizeWords(std::string_view s) {
  std::string buf;
  std::vector<std::string_view> views;
  AppendTokenViews(s, &buf, &views);
  return {views.begin(), views.end()};
}

namespace {

/// Reused per-thread scratch for one string's tokens/grams: the matchers
/// call the token and n-gram kernels millions of times from parallel
/// reduce tasks, and per-call set/string allocation serializes on the
/// allocator.
struct ViewScratch {
  std::string buf;
  std::vector<std::string_view> views;
};

ViewScratch& TlsScratchA() {
  thread_local ViewScratch s;
  return s;
}

ViewScratch& TlsScratchB() {
  thread_local ViewScratch s;
  return s;
}

/// Sorts and dedups both view vectors, then returns the Jaccard
/// similarity of the two sets via a linear two-pointer intersection.
/// Identical values to the former std::set<std::string>-based kernel.
double SortedJaccard(std::vector<std::string_view>* va,
                     std::vector<std::string_view>* vb) {
  std::sort(va->begin(), va->end());
  va->erase(std::unique(va->begin(), va->end()), va->end());
  std::sort(vb->begin(), vb->end());
  vb->erase(std::unique(vb->begin(), vb->end()), vb->end());
  if (va->empty() && vb->empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < va->size() && j < vb->size()) {
    const std::string_view x = (*va)[i], y = (*vb)[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  size_t uni = va->size() + vb->size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

}  // namespace

double JaccardTokenSimilarity(std::string_view a, std::string_view b) {
  ViewScratch& sa = TlsScratchA();
  ViewScratch& sb = TlsScratchB();
  AppendTokenViews(a, &sa.buf, &sa.views);
  AppendTokenViews(b, &sb.buf, &sb.views);
  return SortedJaccard(&sa.views, &sb.views);
}

void AppendCharNgramViews(std::string_view s, size_t n, std::string* buf,
                          std::vector<std::string_view>* grams) {
  buf->clear();
  grams->clear();
  buf->reserve(s.size());
  for (char c : s) {
    buf->push_back((c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a')
                                          : c);
  }
  if (buf->empty() || n == 0) return;
  if (buf->size() <= n) {
    grams->emplace_back(buf->data(), buf->size());
    return;
  }
  for (size_t i = 0; i + n <= buf->size(); ++i) {
    grams->emplace_back(buf->data() + i, n);
  }
}

std::vector<std::string> CharNgrams(std::string_view s, size_t n) {
  std::string buf;
  std::vector<std::string_view> views;
  AppendCharNgramViews(s, n, &buf, &views);
  return {views.begin(), views.end()};
}

double NgramSimilarity(std::string_view a, std::string_view b, size_t n) {
  ViewScratch& sa = TlsScratchA();
  ViewScratch& sb = TlsScratchB();
  AppendCharNgramViews(a, n, &sa.buf, &sa.views);
  AppendCharNgramViews(b, n, &sb.buf, &sb.views);
  return SortedJaccard(&sa.views, &sb.views);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size(), lb = b.size();
  const size_t window =
      std::max<size_t>(la, lb) / 2 == 0 ? 0 : std::max(la, lb) / 2 - 1;

  std::vector<bool> a_matched(la, false), b_matched(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Transpositions: matched characters out of order, halved.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  double jw = jaro + prefix * prefix_scale * (1.0 - jaro);
  return std::min(jw, 1.0);
}

}  // namespace er
}  // namespace erlb
