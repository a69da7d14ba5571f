// Run stores: where the shuffle's sorted runs live between the map and
// reduce phases of a JobRunner job.
//
// Every execution mode runs the same map-task body (sort → partition →
// PutRuns) and the same reduce-task body (MergeRuns → group → reduce);
// only the store behind them differs:
//
//  * RamRunStore  — runs stay in RAM as buckets[map][reduce]; a reduce
//    task's stream is the binary merge tree MergeSortedRuns (mr/merge.h).
//  * FileRunStore — each map task writes one spill file of r runs
//    (mr/spill.h); a reduce task streams the loser-tree merge over one
//    bounded RunCursor per map task. With `commit` on, every map task
//    also publishes its side output and a commit record
//    (mr/task_commit.h) — the durable state behind checkpoints, and the
//    channel by which a multi-process job's parent collects results from
//    its workers.
//
// Both merges break cross-run ties on map-task index, so the record
// stream a reduce task sees — and hence the job output — is identical
// across stores. The store interface:
//
//   Status PutRuns(t, &records, dest, run_offsets, &metrics)
//   Status CommitMapTask(t, encode_side_output, metrics)
//   bool   CollectMapTask(t, decode_side_output, &metrics)
//   Status MergeRuns(t, less, consume, &metrics)
#ifndef ERLB_MR_RUN_STORE_H_
#define ERLB_MR_RUN_STORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mr/merge.h"
#include "mr/metrics.h"
#include "mr/spill.h"
#include "mr/task_commit.h"
#include "proc/wire.h"

namespace erlb {
namespace mr {

/// Encodes a map task's side output for its commit record
/// (TypedJobSpec::encode_side_output).
using SideOutputEncoder = std::function<std::string(uint32_t task_index)>;
/// Replays committed side output; false = corrupt, re-execute
/// (TypedJobSpec::decode_side_output).
using SideOutputDecoder =
    std::function<bool(uint32_t task_index, std::string_view bytes)>;

/// In-memory runs: buckets[map_task][reduce_task].
template <typename K, typename V>
class RamRunStore {
 public:
  using Record = std::pair<K, V>;

  /// `keep_inputs`: MergeRuns copies its column instead of consuming it,
  /// so a retried reduce attempt merges the same inputs again.
  RamRunStore(uint32_t m, uint32_t r, bool keep_inputs)
      : buckets_(m, std::vector<std::vector<Record>>(r)),
        keep_inputs_(keep_inputs) {}

  /// Moves the task's records into their runs: `run_offsets` sizes every
  /// run exactly, and order is preserved, so each run stays sorted with
  /// emission order breaking ties.
  [[nodiscard]] Status PutRuns(uint32_t map_task,
                               std::vector<Record>* records,
                               const std::vector<uint32_t>& dest,
                               const std::vector<size_t>& run_offsets,
                               TaskMetrics* /*metrics*/) {
    auto& runs = buckets_[map_task];
    for (size_t p = 0; p < runs.size(); ++p) {
      runs[p].clear();
      runs[p].reserve(run_offsets[p + 1] - run_offsets[p]);
    }
    for (size_t i = 0; i < records->size(); ++i) {
      runs[dest[i]].push_back(std::move((*records)[i]));
    }
    return Status::OK();
  }

  /// RAM runs die with the process: nothing to commit or collect.
  [[nodiscard]] Status CommitMapTask(uint32_t, const SideOutputEncoder&,
                                     const TaskMetrics&) {
    return Status::OK();
  }
  bool CollectMapTask(uint32_t, const SideOutputDecoder&, TaskMetrics*) {
    return false;
  }

  /// Streams the stable merge of reduce task `t`'s column into
  /// `consume`. Each reduce task owns its column, so concurrent calls for
  /// distinct tasks are race-free.
  template <typename Less, typename Consume>
  [[nodiscard]] Status MergeRuns(uint32_t t, const Less& less,
                                 const Consume& consume,
                                 TaskMetrics* /*metrics*/) {
    std::vector<std::vector<Record>> column;
    column.reserve(buckets_.size());
    for (auto& runs : buckets_) {
      if (keep_inputs_) {
        column.push_back(runs[t]);
      } else {
        column.push_back(std::move(runs[t]));
      }
    }
    std::vector<Record> merged =
        MergeSortedRuns(std::span<std::vector<Record>>(column), less);
    for (Record& rec : merged) consume(std::move(rec));
    return Status::OK();
  }

 private:
  std::vector<std::vector<std::vector<Record>>> buckets_;
  const bool keep_inputs_;
};

/// What a FileRunStore needs to know about its job directory.
struct FileRunStoreOptions {
  std::string dir;
  size_t io_buffer_bytes = size_t{1} << 17;
  /// Test seam: every spill writer fails past this many bytes (0 = off).
  uint64_t fail_writer_after_bytes = 0;
  /// Publish side output + a commit record after every map task.
  bool commit = false;
  /// fsync spill files, side output and records (checkpoint dirs).
  bool durable = false;
  /// Input signature stamped into (and required of) commit records.
  uint64_t signature = 0;
};

/// Spill-file runs: one file of r runs per map task under `options.dir`.
template <typename K, typename V>
  requires Spillable<K> && Spillable<V>
class FileRunStore {
 public:
  using Record = std::pair<K, V>;

  FileRunStore(FileRunStoreOptions options, uint32_t m, uint32_t r)
      : options_(std::move(options)), r_(r), files_(m) {}

  const std::string& dir() const { return options_.dir; }

  /// Writes the task's runs to its spill file in reduce-task order,
  /// preserving sorted order within each run. The file is staged under a
  /// pid temp name and renamed, so a commit record never names a
  /// half-written file.
  [[nodiscard]] Status PutRuns(uint32_t map_task,
                               std::vector<Record>* records,
                               const std::vector<uint32_t>& dest,
                               const std::vector<size_t>& run_offsets,
                               TaskMetrics* metrics) {
    // Stable counting scatter into an index order: order[] lists record
    // indexes grouped by run.
    std::vector<size_t> order(records->size());
    std::vector<size_t> fill(run_offsets.begin(), run_offsets.end() - 1);
    for (size_t i = 0; i < records->size(); ++i) {
      order[fill[dest[i]]++] = i;
    }
    const std::string final_path = SpillFilePath(options_.dir, map_task);
    const std::string write_path = internal::PidTempPath(final_path);
    SpillFileWriter<K, V> writer;
    ERLB_RETURN_NOT_OK(writer.Open(write_path, options_.io_buffer_bytes,
                                   options_.fail_writer_after_bytes));
    for (uint32_t p = 0; p < r_; ++p) {
      ERLB_RETURN_NOT_OK(writer.BeginRun());
      for (size_t i = run_offsets[p]; i < run_offsets[p + 1]; ++i) {
        const Record& rec = (*records)[order[i]];
        ERLB_RETURN_NOT_OK(writer.Append(rec.first, rec.second));
      }
    }
    ERLB_ASSIGN_OR_RETURN(SpillFile file, writer.Finish(options_.durable));
    file.path = final_path;
    ERLB_RETURN_NOT_OK(internal::PublishFile(write_path, final_path));
    metrics->spill_bytes = static_cast<int64_t>(file.TotalBytes());
    files_[map_task] = std::move(file);
    return Status::OK();
  }

  /// With `commit`: publishes the task's side output, then — last — its
  /// commit record.
  [[nodiscard]] Status CommitMapTask(uint32_t t,
                                     const SideOutputEncoder& encode_side,
                                     const TaskMetrics& metrics) {
    if (!options_.commit) return Status::OK();
    TaskCommitRecord record;
    record.file = files_[t];
    record.metrics = metrics;
    if (encode_side) {
      ERLB_ASSIGN_OR_RETURN(
          record.side,
          WriteSideOutputFile(
              options_.dir + "/side-" + std::to_string(t) + ".dat",
              encode_side(t), options_.durable));
    }
    return WriteTaskCommitRecord(options_.dir, "map", t, options_.signature,
                                 record, options_.durable);
  }

  /// Adopts map task `t`'s committed output from its record: restores
  /// the extents and the recorded metrics (counters included), and
  /// replays the side output. False means "not validly committed" — a
  /// missing or damaged record, or a spec expecting side bytes the
  /// record lacks — and the task must run again.
  bool CollectMapTask(uint32_t t, const SideOutputDecoder& decode_side,
                      TaskMetrics* metrics) {
    auto record = ReadTaskCommitRecord(options_.dir, "map", t,
                                       options_.signature, r_,
                                       options_.io_buffer_bytes);
    if (!record.ok()) return false;
    if (decode_side) {
      if (record->side.path.empty()) return false;
      auto side_bytes = ReadSideOutputFile(record->side);
      if (!side_bytes.ok() || !decode_side(t, *side_bytes)) return false;
    }
    files_[t] = std::move(record->file);
    *metrics = std::move(record->metrics);
    return true;
  }

  /// Streams the loser-tree merge of reduce task `t`'s run in every map
  /// task's file into `consume`, one bounded read buffer per run.
  template <typename Less, typename Consume>
  [[nodiscard]] Status MergeRuns(uint32_t t, const Less& less,
                                 const Consume& consume,
                                 TaskMetrics* metrics) {
    // Empty runs are skipped up front; dropping them preserves the
    // relative order of the live cursors, so the tie-break still follows
    // map-task order.
    std::vector<RunCursor<K, V>> cursors;
    cursors.reserve(files_.size());
    int64_t spill_bytes = 0;
    for (const SpillFile& file : files_) {
      const RunExtent& extent = file.runs[t];
      if (extent.records == 0) continue;
      spill_bytes += static_cast<int64_t>(extent.bytes);
      cursors.emplace_back();
      ERLB_RETURN_NOT_OK(
          cursors.back().Open(file.path, extent, BufferFor(extent)));
    }
    LoserTreeMergeCursors(std::span<RunCursor<K, V>>(cursors), less,
                          consume);
    // A cursor that failed mid-stream looks exhausted to the merge; the
    // task must fail, not silently reduce a truncated run.
    for (const auto& c : cursors) ERLB_RETURN_NOT_OK(c.status());
    metrics->spill_bytes = spill_bytes;
    return Status::OK();
  }

  // ---- Multi-process wiring --------------------------------------------
  // Workers are forked before the map phase runs, so their copies of the
  // store hold no extents; each reduce assignment ships the extent of
  // its run in every map task's file, and reduce outputs travel back to
  // the parent as one committed run per task.

  /// Parent side: the ASSIGN payload of reduce task `t`.
  std::string ReduceAssignment(uint32_t t) const {
    std::string payload;
    proc::PutU32(static_cast<uint32_t>(files_.size()), &payload);
    for (const SpillFile& file : files_) {
      const RunExtent& extent = file.runs[t];
      proc::PutU64(extent.offset, &payload);
      proc::PutU64(extent.bytes, &payload);
      proc::PutU64(extent.records, &payload);
    }
    return payload;
  }

  /// Worker side: installs the extents shipped by ReduceAssignment(t).
  [[nodiscard]] Status AdoptReduceAssignment(uint32_t t,
                                             const std::string& payload) {
    proc::PayloadReader reader(payload);
    uint32_t m = 0;
    if (!reader.GetU32(&m) || m != files_.size()) {
      return Status::Internal(
          "reduce assignment payload does not match the job shape");
    }
    for (uint32_t mt = 0; mt < m; ++mt) {
      files_[mt].path = SpillFilePath(options_.dir, mt);
      files_[mt].runs.resize(r_);
      RunExtent& extent = files_[mt].runs[t];
      if (!reader.GetU64(&extent.offset) || !reader.GetU64(&extent.bytes) ||
          !reader.GetU64(&extent.records)) {
        return Status::Internal("truncated reduce assignment payload");
      }
    }
    if (!reader.AtEnd()) {
      return Status::Internal("oversized reduce assignment payload");
    }
    return Status::OK();
  }

  /// Worker side: publishes reduce task `t`'s output as a single-run
  /// file plus its commit record.
  template <typename OutK, typename OutV>
  [[nodiscard]] Status CommitReduceOutput(
      uint32_t t, const std::vector<std::pair<OutK, OutV>>& output,
      const TaskMetrics& metrics) {
    const std::string final_path =
        options_.dir + "/out-" + std::to_string(t) + ".run";
    const std::string write_path = internal::PidTempPath(final_path);
    SpillFileWriter<OutK, OutV> writer;
    ERLB_RETURN_NOT_OK(writer.Open(write_path, options_.io_buffer_bytes));
    ERLB_RETURN_NOT_OK(writer.BeginRun());
    for (const auto& [key, value] : output) {
      ERLB_RETURN_NOT_OK(writer.Append(key, value));
    }
    TaskCommitRecord record;
    ERLB_ASSIGN_OR_RETURN(record.file, writer.Finish(options_.durable));
    record.file.path = final_path;
    ERLB_RETURN_NOT_OK(internal::PublishFile(write_path, final_path));
    record.metrics = metrics;
    record.metrics.task_index = t;
    return WriteTaskCommitRecord(options_.dir, "reduce", t,
                                 options_.signature, record,
                                 options_.durable);
  }

  /// Parent side: reads reduce task `t`'s committed output back. False
  /// means "not validly committed".
  template <typename OutK, typename OutV>
  bool CollectReduceOutput(uint32_t t,
                           std::vector<std::pair<OutK, OutV>>* output,
                           TaskMetrics* metrics) const {
    auto record =
        ReadTaskCommitRecord(options_.dir, "reduce", t, options_.signature,
                             /*expected_runs=*/1, options_.io_buffer_bytes);
    if (!record.ok()) return false;
    const RunExtent& extent = record->file.runs[0];
    std::vector<std::pair<OutK, OutV>> collected;
    collected.reserve(static_cast<size_t>(extent.records));
    RunCursor<OutK, OutV> cursor;
    if (!cursor.Open(record->file.path, extent, BufferFor(extent)).ok()) {
      return false;
    }
    while (!cursor.exhausted()) collected.push_back(cursor.Pop());
    if (!cursor.status().ok()) return false;
    *output = std::move(collected);
    *metrics = std::move(record->metrics);
    return true;
  }

 private:
  size_t BufferFor(const RunExtent& extent) const {
    return static_cast<size_t>(std::min<uint64_t>(
        std::max<uint64_t>(extent.bytes, 1), options_.io_buffer_bytes));
  }

  const FileRunStoreOptions options_;
  const uint32_t r_;
  std::vector<SpillFile> files_;
};

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_RUN_STORE_H_
