// Work-stealing scheduler: claim-exactly-once semantics, determinism of
// job outputs across scheduler kinds / worker counts / repeated runs
// (the TSan preset runs this file too), and the sampling presplitter.
#include "mr/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "mr/job.h"
#include "mr/presplit.h"

namespace erlb {
namespace mr {
namespace {

TEST(WorkStealingSchedulerTest, EveryTaskRunsExactlyOnce) {
  for (size_t workers : {1u, 2u, 3u, 8u, 64u}) {
    ThreadPool pool(workers);
    constexpr uint32_t kTasks = 1000;
    std::vector<uint32_t> indices(kTasks);
    for (uint32_t t = 0; t < kTasks; ++t) indices[t] = t;
    std::vector<std::atomic<int>> runs(kTasks);
    WorkStealingScheduler scheduler(indices, workers);
    scheduler.Run(&pool, [&runs](uint32_t t) {
      runs[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (uint32_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(runs[t].load(), 1) << "task " << t << " workers " << workers;
    }
    EXPECT_LE(scheduler.tasks_stolen(), kTasks);
  }
}

TEST(WorkStealingSchedulerTest, EmptyPhaseReturnsImmediately) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler({}, 4);
  scheduler.Run(&pool, [](uint32_t) { FAIL() << "no tasks to run"; });
  EXPECT_EQ(scheduler.tasks_stolen(), 0u);
}

TEST(WorkStealingSchedulerTest, MoreWorkersThanTasks) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> runs(3);
  WorkStealingScheduler scheduler({0, 1, 2}, 16);
  scheduler.Run(&pool, [&runs](uint32_t t) {
    runs[t].fetch_add(1, std::memory_order_relaxed);
  });
  for (int t = 0; t < 3; ++t) EXPECT_EQ(runs[t].load(), 1);
}

TEST(WorkStealingSchedulerTest, StealsFromStragglerShard) {
  // Two workers, all the work in shard 0's half: worker 1 drains its own
  // shard instantly and must steal to finish the phase.
  ThreadPool pool(2);
  constexpr uint32_t kTasks = 400;
  std::vector<uint32_t> indices(kTasks);
  for (uint32_t t = 0; t < kTasks; ++t) indices[t] = t;
  std::atomic<uint32_t> done{0};
  WorkStealingScheduler scheduler(indices, 2);
  scheduler.Run(&pool, [&done](uint32_t t) {
    // Skew: the first half of the list is 100x the work of the second.
    volatile uint64_t sink = 0;
    const uint64_t spins = t < kTasks / 2 ? 20000 : 200;
    for (uint64_t i = 0; i < spins; ++i) sink = sink + i;
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), kTasks);
  // Not asserted > 0: with only two workers a pathological schedule could
  // finish without stealing, but the counter must stay in range.
  EXPECT_LE(scheduler.tasks_stolen(), kTasks);
}

// ---------------------------------------------------------------------
// Determinism: the same job must produce byte-identical outputs whatever
// the scheduler kind, worker count, or run repetition.
// ---------------------------------------------------------------------

class TokenMapper : public Mapper<int, std::string, std::string, int> {
 public:
  void Map(const int&, const std::string& line,
           MapContext<std::string, int>* ctx) override {
    for (const auto& w : Split(line, ' ')) {
      if (!w.empty()) ctx->Emit(w, 1);
    }
  }
};

class SumReducer : public Reducer<std::string, int, std::string, int> {
 public:
  void Reduce(std::span<const std::pair<std::string, int>> group,
              ReduceContext<std::string, int>* ctx) override {
    int sum = 0;
    for (const auto& [k, v] : group) sum += v;
    ctx->Emit(group.front().first, sum);
  }
};

JobSpec<int, std::string, std::string, int, std::string, int> TokenSpec(
    uint32_t r) {
  JobSpec<int, std::string, std::string, int, std::string, int> spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<TokenMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<SumReducer>();
  };
  spec.partitioner = [](const std::string& k, uint32_t r) {
    return static_cast<uint32_t>(Fnv1a64(k) % r);
  };
  spec.key_less = [](const std::string& a, const std::string& b) {
    return a < b;
  };
  spec.group_equal = [](const std::string& a, const std::string& b) {
    return a == b;
  };
  return spec;
}

std::vector<std::vector<std::pair<int, std::string>>> TokenInput() {
  // 16 map tasks of uneven size so shards drain at different rates.
  std::vector<std::vector<std::pair<int, std::string>>> input(16);
  for (int p = 0; p < 16; ++p) {
    for (int i = 0; i < 5 + (p % 4) * 40; ++i) {
      input[p].emplace_back(
          i, "tok" + std::to_string((i * 7 + p) % 31) + " tok" +
                 std::to_string(i % 13) + " tok" + std::to_string(p));
    }
  }
  return input;
}

/// Serializes the full per-reduce-task output (task boundaries included)
/// so comparisons catch reordering anywhere, not just in the merged view.
std::string Serialize(const JobResult<std::string, int>& result) {
  std::string out;
  for (const auto& task : result.outputs_per_reduce_task) {
    out += "[task]";
    for (const auto& [k, v] : task) {
      out += k + "=" + std::to_string(v) + ";";
    }
  }
  return out;
}

TEST(SchedulerDeterminismTest, OutputsIdenticalAcrossSchedulersAndWorkers) {
  const auto input = TokenInput();
  std::string reference;
  for (TaskSchedulerKind kind :
       {TaskSchedulerKind::kFifo, TaskSchedulerKind::kWorkStealing}) {
    for (size_t workers : {1u, 2u, 3u, 8u}) {
      for (int repeat = 0; repeat < 3; ++repeat) {
        ExecutionOptions options;
        options.scheduler = kind;
        JobRunner runner(workers, options);
        auto result = runner.Run(TokenSpec(5), input);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        const std::string serialized = Serialize(result);
        if (reference.empty()) {
          reference = serialized;
          ASSERT_FALSE(reference.empty());
        } else {
          EXPECT_EQ(serialized, reference)
              << TaskSchedulerKindName(kind) << " workers=" << workers
              << " repeat=" << repeat;
        }
      }
    }
  }
}

TEST(SchedulerDeterminismTest, ExternalModeIdenticalAcrossSchedulers) {
  const auto input = TokenInput();
  std::string reference;
  for (TaskSchedulerKind kind :
       {TaskSchedulerKind::kFifo, TaskSchedulerKind::kWorkStealing}) {
    for (size_t workers : {1u, 4u}) {
      ExecutionOptions options;
      options.mode = ExecutionMode::kExternal;
      options.scheduler = kind;
      JobRunner runner(workers, options);
      auto result = runner.Run(TokenSpec(4), input);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      const std::string serialized = Serialize(result);
      if (reference.empty()) {
        reference = serialized;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(serialized, reference)
            << TaskSchedulerKindName(kind) << " workers=" << workers;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Sampling presplitter.
// ---------------------------------------------------------------------

TEST(PresplitTest, EmptyInputFallsBackToWorkerCount) {
  PresplitSample sample;
  EXPECT_EQ(PickReduceTasks(sample, 4), 4u);
  EXPECT_EQ(PickReduceTasks(sample, 0), 1u);
}

TEST(PresplitTest, FewKeysNeverExceedEstimatedKeyCount) {
  PresplitSample sample;
  sample.total_records = 100;
  sample.sampled_records = 100;
  sample.sampled_distinct_keys = 2;
  // 8 workers but only 2 keys: more than 2 tasks would be keyless.
  EXPECT_EQ(PickReduceTasks(sample, 8), 2u);
}

TEST(PresplitTest, ManyKeysScaleWithTargetAndClampToWorkerBand) {
  PresplitOptions options;
  options.target_keys_per_task = 100;
  PresplitSample sample;
  sample.total_records = 100000;
  sample.sampled_records = 1000;
  sample.sampled_distinct_keys = 10;  // density 1% → ~1000 keys estimated
  EXPECT_EQ(PickReduceTasks(sample, 4, options), 10u);  // 1000/100
  // Estimate beyond the band clamps to workers * max_tasks_per_worker.
  sample.sampled_distinct_keys = 1000;  // all distinct → 100000 keys
  EXPECT_EQ(PickReduceTasks(sample, 4, options), 32u);  // 4 * 8
}

TEST(PresplitTest, StridedSampleIsDeterministic) {
  std::vector<std::vector<std::string>> partitions(3);
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = std::to_string((i + p * 17) % 200);
      partitions[p].push_back("k" + key);
    }
  }
  auto key_of = [](const std::string& s) { return s; };
  const PresplitSample a = SamplePartitionKeys(partitions, key_of);
  const PresplitSample b = SamplePartitionKeys(partitions, key_of);
  EXPECT_EQ(a.total_records, 3000u);
  EXPECT_EQ(a.sampled_records, b.sampled_records);
  EXPECT_EQ(a.sampled_distinct_keys, b.sampled_distinct_keys);
  EXPECT_GT(a.sampled_distinct_keys, 0u);
  EXPECT_LE(a.sampled_records, 3 * 128u);
}

}  // namespace
}  // namespace mr
}  // namespace erlb
