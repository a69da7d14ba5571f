// String similarity measures. The paper matches entities by normalized
// edit distance on titles with threshold 0.8; Jaccard and n-gram measures
// are provided for library completeness (they are standard ER measures).
#ifndef ERLB_ER_SIMILARITY_H_
#define ERLB_ER_SIMILARITY_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace erlb {
namespace er {

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
/// Same kernel as EditDistanceBounded with bound max(|a|, |b|).
size_t EditDistance(std::string_view a, std::string_view b);

/// Bounded Levenshtein: returns the exact distance if it is <= `bound`,
/// otherwise any value > `bound`. This is the kernel the threshold
/// matcher uses (a similarity threshold t implies bound =
/// floor((1-t) · max_len)).
///
/// Bit-parallel (Myers 1999, in Hyyrö's 2003 edit-distance form): the
/// pattern is always `b`, packed 64 rows per machine word, and the text
/// `a` is scanned one column at a time, so the cost is O(⌈|b|/64⌉ · |a|)
/// word operations. Pairs whose length gap exceeds `bound` are rejected
/// in O(1), and the scan stops as soon as the last row's score proves
/// the distance exceeds `bound`.
///
/// Each thread keeps the pattern table of the last `b` it saw, keyed on
/// its content. Loops that hold `b` fixed while `a` varies (as every
/// reduce loop does) build the table once per sweep.
size_t EditDistanceBounded(std::string_view a, std::string_view b,
                           size_t bound);

/// Normalized edit similarity in [0,1]: 1 - dist/max(|a|,|b|).
/// Two empty strings have similarity 1.
double EditSimilarity(std::string_view a, std::string_view b);

/// True iff EditSimilarity(a,b) >= threshold; computed with the bounded
/// kernel, so much faster than computing the full similarity for
/// non-matches. A threshold above 1 (or NaN) is never met.
bool EditSimilarityAtLeast(std::string_view a, std::string_view b,
                           double threshold);

/// Whitespace tokenization (lowercased tokens, punctuation stripped).
std::vector<std::string> TokenizeWords(std::string_view s);

/// Allocation-lean tokenization: appends the lowercased token characters
/// of `s` to `*buf` (cleared first) and fills `*tokens` (cleared first)
/// with views into `*buf`. `*buf`'s capacity is reserved up front, so the
/// views stay valid until the next mutation of `*buf`. Same token
/// semantics as TokenizeWords.
void AppendTokenViews(std::string_view s, std::string* buf,
                      std::vector<std::string_view>* tokens);

/// Jaccard similarity of the token sets of `a` and `b`. Computed by
/// sort-and-intersect over thread-local reused buffers — no per-call heap
/// allocation in steady state.
double JaccardTokenSimilarity(std::string_view a, std::string_view b);

/// Character n-grams of `s` (lowercased); n >= 1. Strings shorter than n
/// yield a single gram equal to the whole string (if non-empty).
std::vector<std::string> CharNgrams(std::string_view s, size_t n);

/// Allocation-lean n-grams: lowers `s` into `*buf` (cleared first) and
/// fills `*grams` (cleared first) with views into `*buf` — one lowered
/// buffer instead of a heap string per gram. Same gram semantics as
/// CharNgrams; views stay valid until the next mutation of `*buf`.
void AppendCharNgramViews(std::string_view s, size_t n, std::string* buf,
                          std::vector<std::string_view>* grams);

/// Jaccard similarity over character n-gram sets (trigram similarity for
/// n = 3). Sort-and-intersect over thread-local reused buffers, like
/// JaccardTokenSimilarity.
double NgramSimilarity(std::string_view a, std::string_view b, size_t n);

/// Jaro similarity in [0,1]: the classic record-linkage measure based on
/// matching characters within a window and transpositions.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler: Jaro boosted by a common-prefix bonus
/// (`prefix_scale` per shared leading character, up to 4; standard value
/// 0.1). Result stays in [0,1].
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_SIMILARITY_H_
