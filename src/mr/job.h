// MapReduce runtime with Hadoop-fidelity semantics, in memory, out of
// core, or across worker processes.
//
// The paper's algorithms rely on four user-pluggable functions beyond
// map/reduce (Section II):
//   part  — assigns a map output key to one of r reduce tasks,
//   comp  — total order used to sort each reduce task's input,
//   group — equivalence deciding which consecutive sorted keys share one
//           reduce() invocation,
// plus composite keys and map-side "additional output" files. This runtime
// reproduces those semantics exactly:
//
//  * One map task per input partition (m = #partitions), as assumed by the
//    paper's BDM ("the same number of map tasks and the same partitioning
//    of the input data" across both jobs).
//  * Merge-based shuffle, as in Hadoop: each map task stable-sorts its
//    output by comp (one "spill"), scatters it in order into one sorted
//    run per reduce task, and each reduce task k-way merges its m runs
//    (mr/merge.h) — O(N log m) instead of re-sorting the concatenation.
//    Cross-run ties break on map-task index, so pairs with equal keys
//    stay contiguous per origin map task in map-task order — the
//    property Hadoop's merge of per-map sorted runs provides and
//    Algorithm 1's streaming reduce for k.i×j match tasks depends on.
//  * Optional combiner per map task (the BDM job's counting optimization).
//  * Tasks run on a fixed-size worker pool, emulating a cluster with a
//    fixed number of processes; a work-stealing scheduler hands each
//    phase's tasks to free slots.
//
// There is one map-task body (map → sort → combine → partition → store)
// and one reduce-task body (merged stream from the store → group →
// reduce). The execution modes differ only in the run store behind them
// (mr/run_store.h) and in who drives the phases, and all produce
// byte-identical output:
//
//  * kInMemory — RamRunStore: every map task's sorted runs stay in RAM
//    until the reduce phase merges them. Peak memory grows with the whole
//    intermediate data set.
//  * kExternal — FileRunStore: each map task writes its runs to one
//    length-prefixed spill file (mr/spill.h) and frees them; each reduce
//    task streams its m file-backed runs through the loser-tree merge
//    with one bounded I/O buffer per run. Peak memory is O(largest map
//    output + workers × m × io_buffer). Requires SpillCodec
//    specializations for the intermediate key/value types.
//  * kMultiProcess — the same FileRunStore, with tasks sharded across
//    forked worker processes by proc::Coordinator; results cross back
//    through per-task commit records (mr/task_commit.h).
//  * kAuto (default) picks kExternal when a sampled estimate of the input
//    size exceeds spill_threshold_bytes and the types are spillable,
//    kInMemory otherwise.
//
// A checkpoint directory makes the file store durable: every map task
// commits a record, and a restarted job with the same input restores
// committed tasks instead of re-executing them.
//
// Job wiring comes in two flavors. `JobSpec` stores part/comp/group as
// `std::function`s — maximally flexible, one indirect call per key
// comparison. `TypedJobSpec` additionally takes the comparator, grouping
// predicate, and partitioner as compile-time functor types, letting the
// sort/merge/group loops inline them; the hot strategies (BlockSplit,
// PairRange, Basic) use this fast path. `JobSpec` is just the alias of
// `TypedJobSpec` with all three defaulted to `std::function`.
#ifndef ERLB_MR_JOB_H_
#define ERLB_MR_JOB_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/io_buffer.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mr/counters.h"
#include "mr/metrics.h"
#include "mr/run_store.h"
#include "mr/spill.h"
#include "mr/task_commit.h"
#include "mr/task_scheduler.h"
#include "proc/coordinator.h"

namespace erlb {
namespace mr {

/// How the shuffle moves intermediate data (see the file comment).
enum class ExecutionMode {
  /// Estimate the input size and spill only when it exceeds the
  /// threshold (and the intermediate types are spillable).
  kAuto = 0,
  /// Keep every run in RAM (the classic path).
  kInMemory,
  /// Spill sorted runs to disk and stream the reduce-side merge.
  kExternal,
  /// Shard tasks across forked worker processes that shuffle through
  /// spill files in a shared job directory (proc/coordinator.h). Never
  /// chosen by kAuto — shared-nothing execution is an explicit opt-in.
  kMultiProcess,
};

/// Returns "auto", "in_memory", "external" or "multi_process".
const char* ExecutionModeName(ExecutionMode mode);

/// Out-of-core knobs of a JobRunner; defaults preserve the historical
/// in-memory behavior for everything below 256 MiB of estimated input.
struct ExecutionOptions {
  ExecutionMode mode = ExecutionMode::kAuto;
  /// kAuto switches to the external path above this estimated input size.
  uint64_t spill_threshold_bytes = uint64_t{256} << 20;
  /// Spill directory root; empty uses the system temp directory. Each
  /// Run() creates (and scopes) its own unique subdirectory.
  std::string temp_dir;
  /// Buffer size for every spill writer and every run cursor.
  size_t io_buffer_bytes = size_t{1} << 17;
  /// Test seam: each map task's spill writer fails once it would exceed
  /// this many bytes (emulated ENOSPC). 0 disables.
  uint64_t fail_writer_after_bytes = 0;
  /// Per-task attempt budget: a task whose attempt fails with a
  /// retryable Status (IsRetryableStatus: IOError, Unavailable,
  /// DeadlineExceeded) is re-executed up to this many times in total.
  /// 1 (the default) preserves the historical fail-fast behavior; logic
  /// errors are never retried regardless of the budget.
  uint32_t max_task_attempts = 1;
  /// Sleep before the first re-attempt, doubling per further attempt
  /// (exponential backoff). 0 retries immediately.
  uint64_t retry_backoff_ms = 0;
  /// Per-attempt wall-clock budget. Task threads cannot be preempted, so
  /// this is enforced post hoc: an attempt that finishes past the
  /// deadline has its result discarded and counts as a DeadlineExceeded
  /// failure (retryable). 0 disables.
  uint64_t task_attempt_timeout_ms = 0;
  /// Durable checkpoint configuration (mr/task_commit.h). Only jobs on
  /// the file store checkpoint; the in-memory fast path is unaffected.
  CheckpointOptions checkpoint;
  /// kMultiProcess: number of worker processes to fork (>= 1). Leaving
  /// this 0 in multi-process mode is an InvalidArgument at
  /// JobRunner::Run() — callers that want "as many processes as worker
  /// threads" resolve that explicitly (core::Dataflow::Run resolves 0 to
  /// its worker-thread count).
  uint32_t num_worker_processes = 0;

  /// Rejects knob combinations no execution path can honor — zero
  /// buffers or attempt budgets, a missing process count in
  /// multi-process mode, a checkpoint directory on the in-memory path.
  /// JobRunner::Run calls this on entry, so invalid options surface as
  /// InvalidArgument on the job result instead of ad-hoc fallbacks or
  /// CHECK failures deep in a phase.
  [[nodiscard]] Status Validate() const;
};

/// Identity of a running task, passed to mapper/reducer factories so user
/// code can read the configuration (the paper's `map_configure(m, r,
/// partitionIndex)`).
struct TaskContext {
  uint32_t num_map_tasks = 0;
  uint32_t num_reduce_tasks = 0;
  /// Map: the input partition index. Reduce: the reduce task index.
  uint32_t task_index = 0;
};

/// Emission interface handed to Mapper::Map.
template <typename K, typename V>
class MapContext {
 public:
  virtual ~MapContext() = default;
  /// Emits one intermediate key-value pair.
  virtual void Emit(K key, V value) = 0;
  /// Task-local counters, merged into job counters after the task.
  virtual Counters* counters() = 0;
};

/// Emission interface handed to Reducer::Reduce.
template <typename K, typename V>
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  /// Emits one output key-value pair.
  virtual void Emit(K key, V value) = 0;
  virtual Counters* counters() = 0;
};

/// User map function. A fresh instance is created per map task (so
/// instances may hold per-task state, e.g. the BDM or entity-index
/// counters).
template <typename InK, typename InV, typename MidK, typename MidV>
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Called once per input record.
  virtual void Map(const InK& key, const InV& value,
                   MapContext<MidK, MidV>* ctx) = 0;
  /// Called after the last record of the task.
  virtual void Close(MapContext<MidK, MidV>* ctx) { (void)ctx; }
};

/// User reduce function; fresh instance per reduce task.
///
/// Reduce() receives the whole group as (key, value) pairs in sort order —
/// this mirrors Hadoop, where the key object advances alongside the value
/// iterator under a coarser grouping comparator (secondary sort).
template <typename MidK, typename MidV, typename OutK, typename OutV>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(std::span<const std::pair<MidK, MidV>> group,
                      ReduceContext<OutK, OutV>* ctx) = 0;
  virtual void Close(ReduceContext<OutK, OutV>* ctx) { (void)ctx; }
};

/// Full specification of an MR job. `KeyLess`, `GroupEqual` and
/// `Partitioner` are functor types invoked on every key comparison /
/// routing decision of the sort, merge and group loops; stateless structs
/// here devirtualize the hottest calls of the engine. The defaults are
/// `std::function`, giving the flexible `JobSpec` alias below.
template <typename InK, typename InV, typename MidK, typename MidV,
          typename OutK, typename OutV,
          typename KeyLess = std::function<bool(const MidK&, const MidK&)>,
          typename GroupEqual = std::function<bool(const MidK&, const MidK&)>,
          typename Partitioner = std::function<uint32_t(const MidK&, uint32_t)>>
struct TypedJobSpec {
  using MapperT = Mapper<InK, InV, MidK, MidV>;
  using ReducerT = Reducer<MidK, MidV, OutK, OutV>;
  using InKey = InK;
  using InValue = InV;
  using MidKey = MidK;
  using MidValue = MidV;
  using OutKey = OutK;
  using OutValue = OutV;

  /// Creates the mapper for one map task.
  std::function<std::unique_ptr<MapperT>(const TaskContext&)> mapper_factory;
  /// Creates the reducer for one reduce task.
  std::function<std::unique_ptr<ReducerT>(const TaskContext&)>
      reducer_factory;
  /// part: key -> reduce task in [0, r).
  Partitioner partitioner{};
  /// comp: strict weak order on intermediate keys.
  KeyLess key_less{};
  /// group: equivalence on intermediate keys; must be coarser than (or equal
  /// to) the sort order's equivalence, as in Hadoop.
  GroupEqual group_equal{};
  /// Optional combiner applied to each map task's sorted output run:
  /// receives one group (equal keys by group_equal within the task) and
  /// emits replacement pairs.
  std::function<void(std::span<const std::pair<MidK, MidV>>,
                     std::vector<std::pair<MidK, MidV>>*)>
      combiner;

  /// Optional durable "additional output" hooks for checkpointed
  /// external jobs. A mapper that writes outside the emitted KV stream
  /// (e.g. the BDM job's annotated partitions — Algorithm 3's extra DFS
  /// files) must provide both, or a resumed job would skip the side
  /// effect along with the task. `encode_side_output` is called after a
  /// map task's successful attempt; its bytes are committed
  /// (checksummed) with the task's spill file. `decode_side_output` is
  /// called instead of re-execution when a completed task is restored
  /// from its commit record; returning false (corrupt bytes) re-executes the
  /// task. Jobs without map-side effects leave both unset. The factory
  /// should also reset any side state for its task, keeping retried
  /// attempts self-contained.
  SideOutputEncoder encode_side_output;
  SideOutputDecoder decode_side_output;

  uint32_t num_reduce_tasks = 1;
};

/// Compatibility spec: part/comp/group held as `std::function`.
template <typename InK, typename InV, typename MidK, typename MidV,
          typename OutK, typename OutV>
using JobSpec = TypedJobSpec<InK, InV, MidK, MidV, OutK, OutV>;

/// Result of running a job: output pairs per reduce task plus metrics.
/// `status` is non-OK when the external shuffle hit an I/O error (spill
/// write, temp-dir creation, run read-back); outputs are then incomplete
/// and must not be consumed.
template <typename OutK, typename OutV>
struct JobResult {
  std::vector<std::vector<std::pair<OutK, OutV>>> outputs_per_reduce_task;
  JobMetrics metrics;
  Status status = Status::OK();

  /// Concatenates all reduce task outputs (in reduce-task order).
  std::vector<std::pair<OutK, OutV>> MergedOutput() const {
    size_t total = 0;
    for (const auto& part : outputs_per_reduce_task) total += part.size();
    std::vector<std::pair<OutK, OutV>> all;
    all.reserve(total);
    for (const auto& part : outputs_per_reduce_task) {
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }
};

namespace internal {

template <typename K, typename V>
class VectorMapContext : public MapContext<K, V> {
 public:
  void Emit(K key, V value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }
  Counters* counters() override { return &counters_; }
  std::vector<std::pair<K, V>>& out() { return out_; }
  Counters& counters_ref() { return counters_; }

 private:
  std::vector<std::pair<K, V>> out_;
  Counters counters_;
};

template <typename K, typename V>
class VectorReduceContext : public ReduceContext<K, V> {
 public:
  void Emit(K key, V value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }
  Counters* counters() override { return &counters_; }
  std::vector<std::pair<K, V>>& out() { return out_; }
  Counters& counters_ref() { return counters_; }

 private:
  std::vector<std::pair<K, V>> out_;
  Counters counters_;
};

// Single definition points for the task-lifecycle fault sites: every map
// (reduce) attempt, in every mode, passes through exactly one
// ERLB_FAULT_POINT occurrence of its site (the lint requires site
// literals to be unique across the tree).
[[nodiscard]] inline Status MapTaskFaultPoint() {
  ERLB_FAULT_POINT("task.map");
  return Status::OK();
}

[[nodiscard]] inline Status ReduceTaskFaultPoint() {
  ERLB_FAULT_POINT("task.reduce");
  return Status::OK();
}

/// Runs `attempt` under the options' retry policy: up to
/// max_task_attempts tries, exponential backoff between them, retrying
/// only retryable codes. Attempts must be self-contained (clear their
/// outputs on entry) so a re-run is byte-identical to a first run.
/// `metrics->attempts` records the tries consumed.
template <typename Attempt>
[[nodiscard]] Status RunTaskWithRetry(const ExecutionOptions& options,
                                      TaskMetrics* metrics,
                                      Attempt&& attempt) {
  const uint32_t max_attempts = std::max<uint32_t>(1, options.max_task_attempts);
  uint64_t backoff_ms = options.retry_backoff_ms;
  Status last;
  for (uint32_t a = 1;; ++a) {
    metrics->attempts = a;
    Stopwatch attempt_watch;
    last = attempt();
    if (last.ok() && options.task_attempt_timeout_ms > 0 &&
        attempt_watch.ElapsedNanos() >
            static_cast<int64_t>(options.task_attempt_timeout_ms) *
                1'000'000) {
      // The thread cannot be interrupted mid-attempt; over-deadline
      // results are discarded after the fact. Deterministic tasks
      // produce the same bytes on the retry, so correctness is
      // unaffected — the budget bounds how long a straggler can pin a
      // worker slot before the scheduler gives up on the job.
      last = Status::DeadlineExceeded("task attempt exceeded " +
                                      std::to_string(
                                          options.task_attempt_timeout_ms) +
                                      "ms deadline");
    }
    if (last.ok()) return last;
    if (a >= max_attempts || !IsRetryableStatus(last)) return last;
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
  }
}

}  // namespace internal

/// Executes MR jobs on a worker pool.
///
/// `num_workers` emulates the number of process slots available in the
/// cluster. Each phase's tasks are claimed by a work-stealing scheduler
/// (per-worker shards with atomic claim counters, mr/task_scheduler.h);
/// results are stored per task index, so the schedule never affects job
/// output. By default one ThreadPool is constructed per Run() and reused
/// across the map and reduce phases; a runner built over a shared pool
/// (the dataflow-graph configuration, where one pool serves every job of
/// a multi-job graph) submits to that pool instead of creating its own.
class JobRunner {
 public:
  /// \param num_workers worker threads (process slots), >= 1.
  explicit JobRunner(size_t num_workers) : num_workers_(num_workers) {
    ERLB_CHECK(num_workers >= 1);
  }

  // Option values are not checked here: Run() validates them via
  // ExecutionOptions::Validate() and surfaces InvalidArgument in the
  // job result instead of aborting.
  JobRunner(size_t num_workers, ExecutionOptions options)
      : num_workers_(num_workers), options_(std::move(options)) {
    ERLB_CHECK(num_workers >= 1);
  }

  /// A runner that executes every Run() on `shared_pool` (non-owning; the
  /// pool must outlive the runner and is drained between phases, so
  /// sequential jobs may share it, concurrent ones may not). The pool's
  /// thread count is the runner's process-slot count.
  JobRunner(ThreadPool* shared_pool, ExecutionOptions options)
      : num_workers_(shared_pool->num_threads()),
        options_(std::move(options)),
        shared_pool_(shared_pool) {
    ERLB_CHECK(num_workers_ >= 1);
  }

  size_t num_workers() const { return num_workers_; }
  const ExecutionOptions& execution_options() const { return options_; }
  /// The injected pool, or nullptr when each Run() owns its pool.
  ThreadPool* shared_pool() const { return shared_pool_; }

  /// Runs `spec` over `input_partitions` (one map task per partition).
  /// `Spec` is any TypedJobSpec instantiation (including the JobSpec
  /// alias). Check `result.status` before consuming outputs when the
  /// runner may take the external path.
  template <typename Spec>
  JobResult<typename Spec::OutKey, typename Spec::OutValue> Run(
      const Spec& spec,
      const std::vector<std::vector<
          std::pair<typename Spec::InKey, typename Spec::InValue>>>&
          input_partitions) const {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    ERLB_CHECK(spec.mapper_factory != nullptr);
    ERLB_CHECK(spec.reducer_factory != nullptr);
    ERLB_CHECK(!IsUnset(spec.partitioner));
    ERLB_CHECK(!IsUnset(spec.key_less));
    ERLB_CHECK(!IsUnset(spec.group_equal));
    ERLB_CHECK(spec.num_reduce_tasks >= 1);

    const auto m = static_cast<uint32_t>(input_partitions.size());
    const uint32_t r = spec.num_reduce_tasks;
    JobResult<typename Spec::OutKey, typename Spec::OutValue> result;
    if (Status options_status = options_.Validate(); !options_status.ok()) {
      result.status = std::move(options_status);
      return result;
    }
    result.metrics.map_tasks.resize(m);
    result.metrics.reduce_tasks.resize(r);
    result.outputs_per_reduce_task.resize(r);

    constexpr bool kSpillableJob = Spillable<MidK> && Spillable<MidV>;
    if constexpr (kSpillableJob) {
      bool external = true;
      if (options_.mode == ExecutionMode::kInMemory) {
        external = false;
      } else if (options_.mode == ExecutionMode::kAuto) {
        external = EstimateInputBytes<Spec>(input_partitions) >
                   options_.spill_threshold_bytes;
      }
      if (external) {
        RunOnFileStore(spec, input_partitions, &result);
        return result;
      }
    } else {
      // Requesting the external path for a job whose intermediate types
      // have no SpillCodec is a programming error; kAuto quietly stays in
      // memory.
      ERLB_CHECK(options_.mode != ExecutionMode::kExternal &&
                 options_.mode != ExecutionMode::kMultiProcess)
          << "ExecutionMode::" << ExecutionModeName(options_.mode)
          << " requires SpillCodec specializations for the intermediate "
             "key/value types";
    }
    const bool keep_inputs = options_.max_task_attempts > 1 ||
                             options_.task_attempt_timeout_ms > 0;
    RamRunStore<MidK, MidV> store(m, r, keep_inputs);
    RunThreaded(spec, input_partitions, &store, /*resume=*/false, &result);
    return result;
  }

 private:
  template <typename Spec>
  using SpecInput = std::vector<std::vector<
      std::pair<typename Spec::InKey, typename Spec::InValue>>>;
  template <typename Spec>
  using SpecResult = JobResult<typename Spec::OutKey, typename Spec::OutValue>;
  template <typename Spec>
  using SpecOutput =
      std::vector<std::pair<typename Spec::OutKey, typename Spec::OutValue>>;

  /// True iff `f` is an unset std::function; plain functors are always
  /// considered set.
  template <typename F>
  static bool IsUnset(const F& f) {
    if constexpr (requires { f == nullptr; }) {
      return f == nullptr;
    } else {
      return false;
    }
  }

  /// Sampled spill-size estimate of the input (kAuto's decision input):
  /// per partition, the first records are measured with ApproxSpillBytes
  /// and extrapolated to the partition's record count.
  template <typename Spec>
  static uint64_t EstimateInputBytes(const SpecInput<Spec>& input) {
    constexpr size_t kSampleRecords = 64;
    uint64_t total = 0;
    for (const auto& partition : input) {
      if (partition.empty()) continue;
      size_t sample = std::min(kSampleRecords, partition.size());
      uint64_t sampled_bytes = 0;
      for (size_t i = 0; i < sample; ++i) {
        sampled_bytes += ApproxSpillBytes(partition[i].first) +
                         ApproxSpillBytes(partition[i].second);
      }
      total += sampled_bytes * partition.size() / sample;
    }
    return total;
  }

  // ---- Phase drivers ----------------------------------------------------

  /// kExternal and kMultiProcess: opens the job directory and runs the
  /// job over a FileRunStore in it. Without a checkpoint dir the job
  /// directory lives exactly as long as this call: the scoped dir removes
  /// it (and every spill file) on success and error paths alike. With
  /// one, spills and commit records are durable under
  /// <checkpoint.dir>/job-<seq> and survive the process — a restarted job
  /// with the same input resumes from them.
  template <typename Spec>
  void RunOnFileStore(const Spec& spec, const SpecInput<Spec>& input,
                      SpecResult<Spec>* result) const {
    const bool multi_process = options_.mode == ExecutionMode::kMultiProcess;
    // The multi-process path additionally ships reduce outputs through
    // spill files, so the output types must be spillable too.
    constexpr bool kMultiProcessJob = Spillable<typename Spec::OutKey> &&
                                      Spillable<typename Spec::OutValue>;
    if constexpr (!kMultiProcessJob) {
      ERLB_CHECK(!multi_process)
          << "ExecutionMode::kMultiProcess requires SpillCodec "
             "specializations for the intermediate AND output key/value "
             "types (reduce outputs cross the process boundary as spill "
             "runs)";
    }
    const bool durable = !options_.checkpoint.dir.empty();
    result->metrics.external = true;
    result->metrics.multi_process = multi_process;
    result->metrics.checkpointed = durable;

    FileRunStoreOptions store_options;
    store_options.io_buffer_bytes = options_.io_buffer_bytes;
    store_options.fail_writer_after_bytes = options_.fail_writer_after_bytes;
    store_options.commit = durable || multi_process;
    store_options.durable = durable;
    std::optional<ScopedTempDir> scoped_dir;
    if (durable) {
      const uint32_t seq =
          checkpoint_seq_.fetch_add(1, std::memory_order_relaxed);
      store_options.dir =
          options_.checkpoint.dir + "/job-" + std::to_string(seq);
      result->status = internal::EnsureDirectory(store_options.dir);
    } else {
      auto dir = ScopedTempDir::Make(options_.temp_dir, "erlb-spill");
      result->status = dir.status();
      if (dir.ok()) {
        store_options.dir = scoped_dir.emplace(std::move(*dir)).path();
      }
    }
    if (!result->status.ok()) return;
    if (store_options.commit) {
      store_options.signature = ComputeInputSignature<Spec>(
          input, spec.num_reduce_tasks, options_.checkpoint.identity);
    }
    FileRunStore<typename Spec::MidKey, typename Spec::MidValue> store(
        std::move(store_options), static_cast<uint32_t>(input.size()),
        spec.num_reduce_tasks);
    const bool resume = durable && options_.checkpoint.resume;
    if constexpr (kMultiProcessJob) {
      if (multi_process) {
        RunMultiProcess(spec, input, &store, durable, resume, result);
        return;
      }
    }
    RunThreaded(spec, input, &store, resume, result);
  }

  /// Threaded driver for every single-process mode: the map phase over
  /// the tasks `store` cannot restore from a previous process, a
  /// barrier, then the reduce phase, each on the work-stealing scheduler.
  template <typename Spec, typename Store>
  void RunThreaded(const Spec& spec, const SpecInput<Spec>& input,
                   Store* store, bool resume,
                   SpecResult<Spec>* result) const {
    const auto m = static_cast<uint32_t>(input.size());
    const uint32_t r = spec.num_reduce_tasks;
    JobMetrics& metrics = result->metrics;
    Stopwatch job_watch;
    std::optional<ThreadPool> owned_pool;
    ThreadPool& pool = shared_pool_ != nullptr
                           ? *shared_pool_
                           : owned_pool.emplace(num_workers_);

    // Tasks committed by a previous process are restored (extents,
    // metrics, side output) instead of re-executed — what keeps a
    // resumed job's counters and side effects byte-identical to an
    // uninterrupted run.
    std::vector<uint32_t> pending_maps;
    for (uint32_t t = 0; t < m; ++t) {
      if (resume && store->CollectMapTask(t, spec.decode_side_output,
                                          &metrics.map_tasks[t])) {
        metrics.map_tasks[t].resumed = true;
        ++metrics.map_tasks_resumed;
      } else {
        pending_maps.push_back(t);
      }
    }
    std::vector<Status> map_status(m);
    Stopwatch map_watch;
    WorkStealingScheduler(std::move(pending_maps), num_workers_)
        .Run(&pool, [&](uint32_t t) {
          map_status[t] = internal::RunTaskWithRetry(
              options_, &metrics.map_tasks[t], [&, t] {
                return RunMapTask(spec, input[t], m, r, t, store,
                                  &metrics.map_tasks[t]);
              });
        });
    metrics.map_phase_nanos = map_watch.ElapsedNanos();
    if (!FirstError(map_status, &result->status)) return;

    std::vector<Status> reduce_status(r);
    std::vector<uint32_t> reduces(r);
    for (uint32_t t = 0; t < r; ++t) reduces[t] = t;
    Stopwatch reduce_watch;
    WorkStealingScheduler(std::move(reduces), num_workers_)
        .Run(&pool, [&](uint32_t t) {
          reduce_status[t] = internal::RunTaskWithRetry(
              options_, &metrics.reduce_tasks[t], [&, t] {
                return RunReduceTask(spec, store, m, r, t,
                                     &result->outputs_per_reduce_task[t],
                                     &metrics.reduce_tasks[t]);
              });
        });
    metrics.reduce_phase_nanos = reduce_watch.ElapsedNanos();
    metrics.total_duration_nanos = job_watch.ElapsedNanos();
    if (!FirstError(reduce_status, &result->status)) return;
    MergeTaskMetrics(&metrics);
  }

  /// Shared-nothing driver: the same two task bodies, sharded across
  /// forked worker processes by a proc::Coordinator instead of pool
  /// threads. Workers inherit the spec, input and store copy-on-write;
  /// every result crosses back through the store's commit records, which
  /// the parent re-reads and validates (try_collect) — also exactly how
  /// it adopts work left behind by a worker that died after committing.
  template <typename Spec, typename Store>
  void RunMultiProcess(const Spec& spec, const SpecInput<Spec>& input,
                       Store* store, bool durable, bool resume,
                       SpecResult<Spec>* result) const {
    using OutK = typename Spec::OutKey;
    using OutV = typename Spec::OutValue;
    const auto m = static_cast<uint32_t>(input.size());
    const uint32_t r = spec.num_reduce_tasks;
    JobMetrics& metrics = result->metrics;
    // The claims keep a concurrent SweepStaleTempDirs from reaping a
    // scoped job dir: the parent's here, each worker's on every task, so
    // the protection also covers parent-death windows.
    const std::string& dir = store->dir();
    auto claim = [&] {
      if (!durable) static_cast<void>(ClaimTempDirForPid(dir));
    };
    claim();
    // Task closures run in the workers; collection runs in the parent's
    // single-threaded event loop, so it mutates `metrics` unlocked.
    std::vector<proc::TaskPhase> phases(2);
    proc::TaskPhase& map_phase = phases[0];
    map_phase.name = "map";
    map_phase.num_tasks = m;
    map_phase.run = [&](uint32_t t, const std::string&) -> Status {
      claim();
      TaskMetrics task_metrics;
      return internal::RunTaskWithRetry(options_, &task_metrics, [&] {
        return RunMapTask(spec, input[t], m, r, t, store, &task_metrics);
      });
    };
    map_phase.try_collect = [&](uint32_t t, bool adopted) {
      TaskMetrics& task = metrics.map_tasks[t];
      if (!store->CollectMapTask(t, spec.decode_side_output, &task)) {
        return false;
      }
      task.resumed = adopted;
      metrics.map_tasks_resumed += adopted ? 1 : 0;
      return true;
    };
    proc::TaskPhase& reduce_phase = phases[1];
    reduce_phase.name = "reduce";
    reduce_phase.num_tasks = r;
    reduce_phase.assignment_payload = [&](uint32_t t) {
      return store->ReduceAssignment(t);
    };
    reduce_phase.run = [&](uint32_t t, const std::string& payload) -> Status {
      claim();
      ERLB_RETURN_NOT_OK(store->AdoptReduceAssignment(t, payload));
      TaskMetrics task_metrics;
      return internal::RunTaskWithRetry(
          options_, &task_metrics, [&]() -> Status {
            SpecOutput<Spec> output;
            ERLB_RETURN_NOT_OK(
                RunReduceTask(spec, store, m, r, t, &output, &task_metrics));
            return store->CommitReduceOutput(t, output, task_metrics);
          });
    };
    reduce_phase.try_collect = [&](uint32_t t, bool adopted) {
      TaskMetrics& task = metrics.reduce_tasks[t];
      if (!store->template CollectReduceOutput<OutK, OutV>(
              t, &result->outputs_per_reduce_task[t], &task)) {
        return false;
      }
      task.resumed = adopted;
      metrics.reduce_tasks_resumed += adopted ? 1 : 0;
      return true;
    };

    proc::CoordinatorOptions coord_options;
    coord_options.num_workers = options_.num_worker_processes;
    coord_options.collect_existing = resume;
    coord_options.max_task_failovers =
        std::max<uint32_t>(1, options_.max_task_attempts) + 2;
    Stopwatch job_watch;
    proc::Coordinator coordinator(coord_options);
    result->status = coordinator.Run(phases);
    metrics.total_duration_nanos = job_watch.ElapsedNanos();

    const proc::CoordinatorStats stats = coordinator.stats();
    metrics.worker_processes = stats.workers_spawned;
    metrics.worker_deaths = stats.worker_deaths;
    if (stats.phases.size() == 2) {
      metrics.map_phase_nanos = stats.phases[0].duration_nanos;
      metrics.reduce_phase_nanos = stats.phases[1].duration_nanos;
    }
    if (result->status.ok()) MergeTaskMetrics(&metrics);
  }

  /// Copies the first failed task's status (in task order) into `out`;
  /// false iff there was one.
  static bool FirstError(const std::vector<Status>& statuses, Status* out) {
    for (const Status& s : statuses) {
      if (!s.ok()) {
        *out = s;
        return false;
      }
    }
    return true;
  }

  /// Folds per-task counters, retries and spill bytes into the job.
  static void MergeTaskMetrics(JobMetrics* metrics) {
    for (const auto& tm : metrics->map_tasks) {
      metrics->counters.Merge(tm.counters);
      metrics->task_retries += std::max<int64_t>(0, tm.attempts - 1);
      metrics->spill_bytes_written += tm.spill_bytes;
    }
    for (const auto& tm : metrics->reduce_tasks) {
      metrics->counters.Merge(tm.counters);
      metrics->task_retries += std::max<int64_t>(0, tm.attempts - 1);
    }
  }

  /// Cheap input-identity fingerprint stamped into commit records: job
  /// shape (m, r), the caller-supplied identity string, every partition's
  /// record count, and — when the input types are spillable — the encoded
  /// first and last record of each partition. Collisions only matter if
  /// an operator points two different inputs at the same checkpoint dir
  /// AND they agree on all of the above; the per-run checksums still
  /// guard the actual bytes read back.
  template <typename Spec>
  static uint64_t ComputeInputSignature(const SpecInput<Spec>& input,
                                        uint32_t r,
                                        const std::string& identity) {
    using InK = typename Spec::InKey;
    using InV = typename Spec::InValue;
    uint64_t h = Fnv1aHashU64(input.size());
    h = Fnv1aHashU64(r, h);
    h = Fnv1aHash(identity, h);
    std::string scratch;
    for (const auto& partition : input) {
      h = Fnv1aHashU64(partition.size(), h);
      if constexpr (Spillable<InK> && Spillable<InV>) {
        if (!partition.empty()) {
          scratch.clear();
          SpillCodec<InK>::Encode(partition.front().first, &scratch);
          SpillCodec<InV>::Encode(partition.front().second, &scratch);
          SpillCodec<InK>::Encode(partition.back().first, &scratch);
          SpillCodec<InV>::Encode(partition.back().second, &scratch);
          h = Fnv1aHash(scratch, h);
        }
      }
    }
    return h;
  }

  // ---- Task bodies ------------------------------------------------------

  /// Map front half: run the mapper over the partition, stable-sort the
  /// output by comp (one "spill"), apply the optional combiner. Fills
  /// every metric except duration/spill_bytes and returns the task's
  /// final sorted output.
  template <typename Spec>
  static std::vector<
      std::pair<typename Spec::MidKey, typename Spec::MidValue>>
  MapSortCombine(const Spec& spec,
                 const std::vector<std::pair<typename Spec::InKey,
                                             typename Spec::InValue>>&
                     partition,
                 uint32_t m, uint32_t r, uint32_t task_index,
                 TaskMetrics* metrics) {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    TaskContext ctx{m, r, task_index};
    auto mapper = spec.mapper_factory(ctx);
    ERLB_CHECK(mapper != nullptr);

    internal::VectorMapContext<MidK, MidV> map_ctx;
    for (const auto& [k, v] : partition) {
      mapper->Map(k, v, &map_ctx);
    }
    mapper->Close(&map_ctx);

    metrics->task_index = task_index;
    metrics->input_records = static_cast<int64_t>(partition.size());
    metrics->output_records = static_cast<int64_t>(map_ctx.out().size());
    metrics->counters = map_ctx.counters_ref();
    metrics->counters.Increment(kCounterMapOutputPairs,
                                static_cast<int64_t>(map_ctx.out().size()));

    // Sort the task's output (one "spill") by comp, stably so that emission
    // order breaks ties — then optionally combine.
    auto& out = map_ctx.out();
    const auto pair_less = [&spec](const std::pair<MidK, MidV>& a,
                                   const std::pair<MidK, MidV>& b) {
      return spec.key_less(a.first, b.first);
    };
    std::stable_sort(out.begin(), out.end(), pair_less);

    if (!spec.combiner) return std::move(out);

    std::vector<std::pair<MidK, MidV>> combined;
    size_t i = 0;
    while (i < out.size()) {
      size_t j = i + 1;
      while (j < out.size() && spec.group_equal(out[i].first, out[j].first)) {
        ++j;
      }
      spec.combiner(std::span<const std::pair<MidK, MidV>>(out.data() + i,
                                                           j - i),
                    &combined);
      i = j;
    }
    // The reduce side merges runs instead of re-sorting, so each run
    // must leave here sorted. A combiner normally re-emits its group's
    // key and keeps the order; guard against one that doesn't.
    if (!std::is_sorted(combined.begin(), combined.end(), pair_less)) {
      std::stable_sort(combined.begin(), combined.end(), pair_less);
    }
    return combined;
  }

  /// Routes every record of `final_out` to its reduce task. Fills `dest`
  /// (per-record target) and `run_offsets` (r+1 prefix sums of run
  /// sizes).
  template <typename Spec>
  static void PartitionRecords(
      const Spec& spec,
      const std::vector<std::pair<typename Spec::MidKey,
                                  typename Spec::MidValue>>& final_out,
      uint32_t r, std::vector<uint32_t>* dest,
      std::vector<size_t>* run_offsets) {
    const size_t n_out = final_out.size();
    dest->resize(n_out);
    run_offsets->assign(r + 1, 0);
    for (size_t i = 0; i < n_out; ++i) {
      uint32_t p = spec.partitioner(final_out[i].first, r);
      ERLB_CHECK(p < r) << "partitioner returned " << p << " for r=" << r;
      (*dest)[i] = p;
      ++(*run_offsets)[p + 1];
    }
    for (uint32_t p = 0; p < r; ++p) {
      (*run_offsets)[p + 1] += (*run_offsets)[p];
    }
  }

  /// The map-task body of every mode: map → stable sort (+ combine) →
  /// partition into r sorted runs → hand them to the store → commit.
  /// Self-contained per attempt: the store overwrites the task's runs.
  template <typename Spec, typename Store>
  [[nodiscard]] static Status RunMapTask(
      const Spec& spec,
      const std::vector<std::pair<typename Spec::InKey,
                                  typename Spec::InValue>>& partition,
      uint32_t m, uint32_t r, uint32_t task_index, Store* store,
      TaskMetrics* metrics) {
    ERLB_RETURN_NOT_OK(internal::MapTaskFaultPoint());
    Stopwatch watch;
    auto records = MapSortCombine(spec, partition, m, r, task_index, metrics);
    std::vector<uint32_t> dest;
    std::vector<size_t> run_offsets;
    PartitionRecords(spec, records, r, &dest, &run_offsets);
    ERLB_RETURN_NOT_OK(
        store->PutRuns(task_index, &records, dest, run_offsets, metrics));
    metrics->duration_nanos = watch.ElapsedNanos();
    return store->CommitMapTask(task_index, spec.encode_side_output,
                                *metrics);
  }

  /// The reduce-task body of every mode: stream the store's stable k-way
  /// merge of this task's m runs, buffer one group at a time, reduce it.
  /// Cross-run ties follow map-task order, so equal keys stay grouped by
  /// origin map task (Hadoop merge contiguity; see the file comment).
  template <typename Spec, typename Store>
  [[nodiscard]] static Status RunReduceTask(const Spec& spec, Store* store,
                                            uint32_t m, uint32_t r,
                                            uint32_t task_index,
                                            SpecOutput<Spec>* output,
                                            TaskMetrics* metrics) {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    using Record = std::pair<MidK, MidV>;
    ERLB_RETURN_NOT_OK(internal::ReduceTaskFaultPoint());
    Stopwatch watch;
    TaskContext ctx{m, r, task_index};
    auto reducer = spec.reducer_factory(ctx);
    ERLB_CHECK(reducer != nullptr);

    internal::VectorReduceContext<typename Spec::OutKey,
                                  typename Spec::OutValue>
        red_ctx;
    std::vector<Record> group;
    int64_t input_records = 0;
    int64_t groups = 0;
    auto flush_group = [&] {
      reducer->Reduce(std::span<const Record>(group.data(), group.size()),
                      &red_ctx);
      ++groups;
      group.clear();
    };
    ERLB_RETURN_NOT_OK(store->MergeRuns(
        task_index,
        [&spec](const Record& a, const Record& b) {
          return spec.key_less(a.first, b.first);
        },
        [&](Record&& rec) {
          ++input_records;
          if (!group.empty() &&
              !spec.group_equal(group.front().first, rec.first)) {
            flush_group();
          }
          group.push_back(std::move(rec));
        },
        metrics));
    if (!group.empty()) flush_group();
    reducer->Close(&red_ctx);

    metrics->task_index = task_index;
    metrics->input_records = input_records;
    metrics->groups = groups;
    metrics->output_records = static_cast<int64_t>(red_ctx.out().size());
    metrics->counters = red_ctx.counters_ref();
    metrics->duration_nanos = watch.ElapsedNanos();
    *output = std::move(red_ctx.out());
    return Status::OK();
  }

  size_t num_workers_;
  ExecutionOptions options_;
  ThreadPool* shared_pool_ = nullptr;
  /// Sequence number of checkpointed Run()s through this runner: job k
  /// checkpoints under `<checkpoint.dir>/job-<k>`. Jobs run sequentially
  /// in deterministic order, so a restarted process assigns the same
  /// directory to the same job and finds its own commit records.
  mutable std::atomic<uint32_t> checkpoint_seq_{0};
};

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_JOB_H_
