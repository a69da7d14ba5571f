// Durable checkpoints via per-task commit records (mr/task_commit.h):
// record round-trip, validation (signature / shape / damage / forged
// counts all read as "not committed", so the task re-executes instead of
// feeding corrupt output), side-output durability, and the end-to-end
// contract that a job restarted over a partial checkpoint produces
// byte-identical results while skipping the committed tasks.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/io_buffer.h"
#include "common/status.h"
#include "mr/job.h"
#include "mr/spill.h"
#include "mr/task_commit.h"

namespace erlb {
namespace {

namespace fs = std::filesystem;

// ---- Commit-record unit tests -------------------------------------------

class TaskCommitRecordTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSignature = 42;
  static constexpr uint32_t kRuns = 3;

  void SetUp() override {
    auto base = ScopedTempDir::Make();
    ASSERT_TRUE(base.ok());
    base_.emplace(std::move(*base));
    dir_ = base_->path() + "/ck";
    ASSERT_TRUE(mr::internal::EnsureDirectory(dir_).ok());
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  std::string SpillPath() const { return dir_ + "/spill-0.run"; }

  // Writes a committable spill file (valid footers) and returns its
  // extents, as the file run store hands them to the commit record.
  mr::SpillFile WriteSpill(uint32_t runs, uint32_t records_per_run) {
    mr::SpillFileWriter<std::string, int64_t> writer;
    EXPECT_TRUE(writer.Open(SpillPath(), 256).ok());
    int64_t v = 0;
    for (uint32_t run = 0; run < runs; ++run) {
      EXPECT_TRUE(writer.BeginRun().ok());
      for (uint32_t i = 0; i < records_per_run; ++i) {
        EXPECT_TRUE(writer.Append("key" + std::to_string(i), v++).ok());
      }
    }
    auto file = writer.Finish(/*sync=*/true);
    EXPECT_TRUE(file.ok());
    return std::move(*file);
  }

  // Commits map task 0 with one counter so metrics restoration is
  // visible.
  void CommitTaskZero(const mr::SideOutputFile& side = {}) {
    mr::TaskCommitRecord record;
    record.file = WriteSpill(kRuns, 5);
    record.metrics.input_records = 5;
    record.metrics.output_records = 15;
    record.metrics.counters.Increment("test.counter", 7);
    record.side = side;
    ASSERT_TRUE(mr::WriteTaskCommitRecord(dir_, "map", 0, kSignature, record,
                                          /*durable=*/true)
                    .ok());
  }

  Result<mr::TaskCommitRecord> Read(uint64_t signature = kSignature,
                                    uint32_t runs = kRuns) const {
    return mr::ReadTaskCommitRecord(dir_, "map", 0, signature, runs, 256);
  }

  // XORs one byte of `path` at `offset` (negative: from the end).
  static void FlipByte(const std::string& path, std::streamoff offset) {
    if (offset < 0) {
      offset += static_cast<std::streamoff>(fs::file_size(path));
    }
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(offset);
    f.write(&byte, 1);
  }

  std::optional<ScopedTempDir> base_;
  std::string dir_;
};

TEST_F(TaskCommitRecordTest, CommitAndReadBackRestoresTask) {
  EXPECT_TRUE(Read().status().IsNotFound());
  CommitTaskZero();
  // Published under the final name only.
  EXPECT_TRUE(fs::exists(mr::TaskCommitRecordPath(dir_, "map", 0)));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path();
  }
  EXPECT_TRUE(mr::ReadTaskCommitRecord(dir_, "map", 1, kSignature, kRuns, 256)
                  .status()
                  .IsNotFound());

  auto restored = Read();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->file.path, SpillPath());
  ASSERT_EQ(restored->file.runs.size(), kRuns);
  EXPECT_EQ(restored->file.runs[0].records, 5u);
  EXPECT_EQ(fs::file_size(restored->file.path), restored->file.TotalBytes());
  EXPECT_EQ(restored->metrics.task_index, 0u);
  EXPECT_EQ(restored->metrics.input_records, 5);
  EXPECT_EQ(restored->metrics.output_records, 15);
  EXPECT_EQ(restored->metrics.counters.Get("test.counter"), 7);
  // No side output was committed.
  EXPECT_TRUE(restored->side.path.empty());
}

// Every way a record can fail to describe the job's committed output.
// Each case commits task 0 afresh, applies its damage, and reads the
// record back with the given signature and run count: the read must
// fail, which the job treats as "not committed" and re-executes.
TEST_F(TaskCommitRecordTest, MismatchOrDamageReadsAsUncommitted) {
  struct Case {
    const char* name;
    std::function<void()> damage;
    uint64_t signature = kSignature;
    uint32_t runs = kRuns;
  };
  const std::string record_path = mr::TaskCommitRecordPath(dir_, "map", 0);
  const std::vector<Case> cases = {
      {"signature mismatch", [] {}, kSignature + 1},
      {"shape mismatch (reduce task count)", [] {}, kSignature, kRuns + 1},
      {"truncated spill file",
       [&] { fs::resize_file(SpillPath(), fs::file_size(SpillPath()) - 1); }},
      // Flips a bit in the final run's footer magic.
      {"corrupt footer",
       [&] {
         FlipByte(SpillPath(),
                  -static_cast<std::streamoff>(mr::kRunFooterBytes));
       }},
      {"garbage record",
       [&] { std::ofstream(record_path, std::ios::trunc) << "{not json"; }},
      {"empty record",
       [&] { std::ofstream(record_path, std::ios::trunc) << ""; }},
      {"missing spill file", [&] { fs::remove(SpillPath()); }},
  };
  for (const Case& c : cases) {
    fs::remove_all(dir_);
    ASSERT_TRUE(mr::internal::EnsureDirectory(dir_).ok());
    CommitTaskZero();
    ASSERT_TRUE(Read().ok()) << c.name;
    c.damage();
    EXPECT_FALSE(Read(c.signature, c.runs).ok()) << c.name;
  }
}

TEST_F(TaskCommitRecordTest, ForgedRecordCountIsRejected) {
  // A record + footer pair that agree with each other but claim 10^12
  // records in an 8-byte run: the count would drive a reservation when
  // the parent collects the run, so it must not validate.
  constexpr uint64_t kForged = 1'000'000'000'000ULL;
  const std::string path = dir_ + "/out-0.run";
  {
    std::ofstream out(path, std::ios::binary);
    const char data[8] = {};
    out.write(data, sizeof(data));
    char footer[mr::kRunFooterBytes];
    mr::EncodeRunFooter(mr::RunFooter{kForged, 0}, footer);
    out.write(footer, sizeof(footer));
  }
  mr::TaskCommitRecord record;
  record.file.path = path;
  record.file.runs.push_back(mr::RunExtent{0, 8, kForged});
  ASSERT_TRUE(mr::WriteTaskCommitRecord(dir_, "reduce", 0, kSignature,
                                        record, /*durable=*/false)
                  .ok());
  auto read = mr::ReadTaskCommitRecord(dir_, "reduce", 0, kSignature,
                                       /*expected_runs=*/1, 256);
  EXPECT_TRUE(read.status().IsIOError()) << read.status().ToString();

  // The same file with an honest count (2 records fit in 8 bytes of
  // length prefixes) passes the structural check.
  record.file.runs[0].records = 2;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char footer[mr::kRunFooterBytes];
    mr::EncodeRunFooter(mr::RunFooter{2, 0}, footer);
    f.seekp(8);
    f.write(footer, sizeof(footer));
  }
  EXPECT_TRUE(mr::VerifySpillFileFooters(record.file, 256).ok());
}

TEST_F(TaskCommitRecordTest, SideOutputRoundTripAndCorruption) {
  const std::string side_bytes = "annotated partition payload \x01\x02";
  auto side = mr::WriteSideOutputFile(dir_ + "/side-0.dat", side_bytes,
                                      /*durable=*/true);
  ASSERT_TRUE(side.ok()) << side.status().ToString();
  CommitTaskZero(*side);

  auto record = Read();
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  ASSERT_EQ(record->side.path, dir_ + "/side-0.dat");
  auto restored = mr::ReadSideOutputFile(record->side);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, side_bytes);

  // Damage the side file: checksum verification must reject it while
  // the record (and its spill file) stay intact.
  std::ofstream(record->side.path, std::ios::binary)
      << "annotated partition payXoad";
  auto record2 = Read();
  ASSERT_TRUE(record2.ok());
  EXPECT_FALSE(mr::ReadSideOutputFile(record2->side).ok());
}

TEST_F(TaskCommitRecordTest, FaultSitesGuardReadAndWrite) {
  CommitTaskZero();
  auto& fi = FaultInjector::Global();
  ASSERT_TRUE(fi.ConfigureFromString("checkpoint.load=error@1").ok());
  EXPECT_FALSE(Read().ok());
  EXPECT_TRUE(Read().ok());  // one-shot
  fi.Reset();
  ASSERT_TRUE(fi.ConfigureFromString("checkpoint.commit=error@1").ok());
  mr::TaskCommitRecord record;
  EXPECT_FALSE(
      mr::WriteTaskCommitRecord(dir_, "map", 1, kSignature, record, false)
          .ok());
  EXPECT_FALSE(fs::exists(mr::TaskCommitRecordPath(dir_, "map", 1)));
}

// ---- End-to-end: restart over a partial checkpoint ----------------------

struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  friend bool operator==(const Agg&, const Agg&) = default;
};

class IdentityMapper
    : public mr::Mapper<int, int64_t, std::string, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           mr::MapContext<std::string, int64_t>* ctx) override {
    std::string k = "k";
    k += std::to_string(key);
    ctx->counters()->Increment("mapped", 1);
    ctx->Emit(std::move(k), v);
  }
};

class AggReducer
    : public mr::Reducer<std::string, int64_t, std::string, Agg> {
 public:
  void Reduce(std::span<const std::pair<std::string, int64_t>> group,
              mr::ReduceContext<std::string, Agg>* ctx) override {
    Agg agg;
    for (const auto& [k, v] : group) {
      agg.sum += v;
      agg.count += 1;
    }
    ctx->Emit(group.front().first, agg);
  }
};

mr::JobSpec<int, int64_t, std::string, int64_t, std::string, Agg> AggSpec(
    uint32_t r) {
  mr::JobSpec<int, int64_t, std::string, int64_t, std::string, Agg> spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<AggReducer>();
  };
  spec.partitioner = [](const std::string& k, uint32_t r_) {
    uint32_t h = 2166136261u;
    for (char c : k) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    return h % r_;
  };
  spec.key_less = [](const std::string& a, const std::string& b) {
    return a < b;
  };
  spec.group_equal = [](const std::string& a, const std::string& b) {
    return a == b;
  };
  return spec;
}

std::vector<std::vector<std::pair<int, int64_t>>> JobInput() {
  std::vector<std::vector<std::pair<int, int64_t>>> input(4);
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 30; ++i) {
      input[p].push_back({(p * 30 + i) % 13, p * 1000 + i});
    }
  }
  return input;
}

TEST(CheckpointedJobTest, RestartResumesCommittedTasksIdentically) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());

  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.checkpoint.dir = base->path() + "/job-ck";

  auto spec = AggSpec(3);
  auto input = JobInput();

  // Reference: clean checkpointed run in its own directory.
  mr::ExecutionOptions ref_opts = opts;
  ref_opts.checkpoint.dir = base->path() + "/ref-ck";
  auto reference = mr::JobRunner(1, ref_opts).Run(spec, input);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_TRUE(reference.metrics.checkpointed);
  EXPECT_EQ(reference.metrics.map_tasks_resumed, 0);

  // "Crash" after three map tasks committed: the fourth attempt fails
  // every time and the attempt budget is 1.
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.map=error-repeat@4")
                  .ok());
  auto crashed = mr::JobRunner(1, opts).Run(spec, input);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(crashed.status.ok());

  // Restart: a fresh runner over the same directory resumes the three
  // committed tasks, re-executes the fourth, and the aggregate result —
  // outputs and counters — is identical to the uninterrupted run.
  auto resumed = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.metrics.map_tasks_resumed, 3);
  EXPECT_EQ(resumed.outputs_per_reduce_task,
            reference.outputs_per_reduce_task);
  EXPECT_EQ(resumed.metrics.counters.values(),
            reference.metrics.counters.values());
  for (size_t t = 0; t < resumed.metrics.map_tasks.size(); ++t) {
    EXPECT_EQ(resumed.metrics.map_tasks[t].counters.values(),
              reference.metrics.map_tasks[t].counters.values())
        << "map task " << t;
  }
}

TEST(CheckpointedJobTest, ResumeDisabledReexecutesEveryTask) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.checkpoint.dir = base->path() + "/ck";

  auto spec = AggSpec(3);
  auto input = JobInput();
  auto first = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(first.status.ok());
  auto resumed = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.metrics.map_tasks_resumed, 4);

  // Valid records are on disk, but resume is off: nothing is restored.
  opts.checkpoint.resume = false;
  auto fresh = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_EQ(fresh.metrics.map_tasks_resumed, 0);
  EXPECT_EQ(fresh.outputs_per_reduce_task, first.outputs_per_reduce_task);
}

TEST(CheckpointedJobTest, DifferentInputInvalidatesCheckpoint) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.checkpoint.dir = base->path() + "/ck";

  auto spec = AggSpec(3);
  auto input = JobInput();
  ASSERT_TRUE(mr::JobRunner(1, opts).Run(spec, input).status.ok());

  // Same directory, different input: nothing may be resumed.
  input[0][0].second += 1;
  auto rerun = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.metrics.map_tasks_resumed, 0);
}

}  // namespace
}  // namespace erlb
