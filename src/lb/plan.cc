#include "lb/plan.h"

#include <string>

namespace erlb {
namespace lb {

Status ValidateMatchJobOptions(const MatchJobOptions& options) {
  if (options.num_reduce_tasks == 0) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  if (options.sub_splits == 0) {
    return Status::InvalidArgument("sub_splits must be >= 1");
  }
  return Status::OK();
}

Status MatchPlan::ValidateFor(StrategyKind strategy,
                              const bdm::Bdm& bdm) const {
  if (strategy_ != strategy) {
    return Status::InvalidArgument(
        "plan was built for a different strategy");
  }
  const bool body_matches =
      (strategy_ == StrategyKind::kBasic && basic() != nullptr) ||
      (strategy_ == StrategyKind::kBlockSplit && block_split() != nullptr) ||
      (strategy_ == StrategyKind::kPairRange && pair_range() != nullptr);
  if (!body_matches) {
    return Status::InvalidArgument(
        "plan body does not belong to the plan's strategy");
  }
  if (bdm_ != BdmFingerprint::Of(bdm)) {
    return Status::InvalidArgument(
        "plan was built for a different BDM (fingerprint mismatch: "
        "expected b=" +
        std::to_string(bdm_.num_blocks) +
        " m=" + std::to_string(bdm_.num_partitions) +
        " entities=" + std::to_string(bdm_.total_entities) +
        " pairs=" + std::to_string(bdm_.total_pairs) + ")");
  }
  return Status::OK();
}

}  // namespace lb
}  // namespace erlb
