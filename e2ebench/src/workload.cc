#include "workload.h"

#include <vector>

namespace e2e {

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The right end of the paper's Fig. 9 skew sweep: 100 blocks sized
  // ~e^(-k), the largest holding ~63% of the entities. The reduce phase
  // (similarity kernel and load balance) is nearly all of a dedup.
  WorkloadSpec skewed;
  skewed.name = "skewed_match";
  skewed.skew.num_entities = 12000;
  skewed.skew.num_blocks = 100;
  skewed.skew.skew = 1.0;
  skewed.strategy = lb::StrategyKind::kBlockSplit;
  skewed.split_records = 1500;  // m = 8
  all.push_back(skewed);

  // 40k tiny blocks of near-duplicates: ingest, map-side sort and
  // scatter, shuffle, planning over many blocks and clustering carry a
  // dedup; the kernel is minor.
  WorkloadSpec dense;
  dense.name = "wide_dense";
  dense.skew.num_entities = 400000;
  dense.skew.num_blocks = 40000;
  dense.skew.skew = 0.0;
  dense.skew.duplicate_fraction = 0.9;
  dense.strategy = lb::StrategyKind::kPairRange;
  dense.split_records = 12500;  // m = 32
  all.push_back(dense);

  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  for (const WorkloadSpec& spec : all) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace e2e
