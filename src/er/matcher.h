// Matchers decide whether two entities refer to the same real-world
// object. The reduce phase of the matching job calls Match() for every
// candidate pair of a block.
#ifndef ERLB_ER_MATCHER_H_
#define ERLB_ER_MATCHER_H_

#include <functional>
#include <memory>
#include <string>

#include "er/entity.h"

namespace erlb {
namespace er {

/// Pairwise match decision. Implementations must be thread-safe (reduce
/// tasks run in parallel) and symmetric: Match(a,b) == Match(b,a).
class Matcher {
 public:
  virtual ~Matcher() = default;
  /// True iff `a` and `b` are considered the same real-world object.
  virtual bool Match(const Entity& a, const Entity& b) const = 0;
  /// Similarity score in [0,1] (diagnostic; Match need not derive from it).
  virtual double Similarity(const Entity& a, const Entity& b) const = 0;
  virtual std::string Describe() const = 0;
};

/// The paper's matcher: normalized edit distance of one field (the title),
/// match iff similarity >= threshold (0.8 in the paper). Uses the bounded
/// bit-parallel Levenshtein kernel for the threshold test.
class EditDistanceMatcher : public Matcher {
 public:
  explicit EditDistanceMatcher(double threshold = 0.8, size_t field = 0);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

  double threshold() const { return threshold_; }

 private:
  double threshold_;
  size_t field_;
};

/// Jaccard similarity of word tokens of one field.
class JaccardMatcher : public Matcher {
 public:
  explicit JaccardMatcher(double threshold = 0.5, size_t field = 0);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

 private:
  double threshold_;
  size_t field_;
};

/// Character trigram Jaccard similarity of one field.
class NgramMatcher : public Matcher {
 public:
  explicit NgramMatcher(double threshold = 0.5, size_t n = 3,
                        size_t field = 0);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

 private:
  double threshold_;
  size_t n_;
  size_t field_;
};

/// Jaro-Winkler similarity of one field (standard record-linkage
/// matcher, well suited to short name-like attributes).
class JaroWinklerMatcher : public Matcher {
 public:
  explicit JaroWinklerMatcher(double threshold = 0.9, size_t field = 0,
                              double prefix_scale = 0.1);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

 private:
  double threshold_;
  size_t field_;
  double prefix_scale_;
};

/// Adapts an arbitrary predicate (e.g. for tests).
class LambdaMatcher : public Matcher {
 public:
  LambdaMatcher(std::function<bool(const Entity&, const Entity&)> fn,
                std::string description);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

 private:
  std::function<bool(const Entity&, const Entity&)> fn_;
  std::string description_;
};

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_MATCHER_H_
