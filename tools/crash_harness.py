#!/usr/bin/env python3
"""Crash-resume differential harness for the checkpointed pipeline.

Drives the csv_dedup example as a child process, SIGKILLs it mid-job via
the ERLB_FAULT environment variable (fault kind `kill` fires an
uncatchable signal at the N-th hit of a task-lifecycle site), then
reruns the identical command over the same checkpoint directory and
asserts the resumed run is indistinguishable from an uninterrupted one:

  * the matches CSV is byte-identical,
  * the serialized match plan is byte-identical,
  * the dataflow report JSON is identical after stripping wall-clock
    timings and the resume counter itself,
  * the resumed run actually skipped committed map tasks
    (map_tasks_resumed > 0) when the kill came after a commit, and
  * stale spill temp dirs planted before the resume are swept.

Three crash points are exercised for all three load balancing
strategies: mid-map (some map tasks committed, some not), mid-reduce
(all map tasks committed), and at the very first map attempt (nothing
committed). The map cases run the child with --threads=1, so map tasks
start one at a time and the N-th `task.map` hit comes after exactly
N - 1 durable commits on any core count. A kill before the first commit
has nothing to restore: its resumed run must re-execute every map task
and still produce byte-identical output. Stdlib only, like
bench_compare.py.

A second leg covers the shared-nothing multi-process mode: the
coordinator survives a SIGKILLed *worker* (ERLB_FAULT
worker.result=error@N poisons the worker whose N-th DONE frame the
parent takes, and the parent kills it), adopts the dead worker's
committed map task from its commit record, and still produces output
byte-identical to --workers=1 and to the single-process external run.
Unlike the whole-process crash cases, the job itself must *succeed* in
one go — worker death is recoverable, not fatal.

Usage:
    crash_harness.py --exe build/examples/csv_dedup --work-dir /tmp/ch
"""

import argparse
import copy
import json
import os
import shutil
import signal
import subprocess
import sys

STRATEGIES = ("Basic", "BlockSplit", "PairRange")

# Keys whose values legitimately differ between an uninterrupted run and
# a crash-resumed one: wall-clock noise and the resume counter itself.
VOLATILE_REPORT_KEYS = {"seconds", "total_seconds", "map_tasks_resumed"}

# Keys only multi-process runs emit; stripped when diffing a report
# across execution modes (single-process reports never carry them).
MULTIPROC_REPORT_KEYS = {"multi_process", "worker_processes",
                         "worker_deaths", "reduce_tasks_resumed"}

# Rows per CSV split in csv_dedup (kSplitRecords); the input must span
# several splits so a mid-map kill leaves a genuinely partial phase.
SPLIT_RECORDS = 1024


def log(msg):
    print(f"crash_harness: {msg}", flush=True)


def write_input_csv(path, rows=5000):
    """Deterministic near-duplicate catalog matching csv_dedup's demo
    shape: PrefixBlocking(0, 3) blocks on the first three name chars,
    EditDistanceMatcher(0.8) pairs the planted variants."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("id,name\n")
        for i in range(rows):
            block = f"b{i % 40:02d}"  # 3-char blocking prefix
            base = f"{block} product {i // 40} model {i % 7}"
            if i % 4 == 3:
                # A near-duplicate of the previous row's name: one edit.
                base = base[:-1] + "x"
            f.write(f"{i},{base}\n")


def run_child(exe, args, env_fault=None, cwd=None):
    env = dict(os.environ)
    env.pop("ERLB_FAULT", None)
    if env_fault:
        env["ERLB_FAULT"] = env_fault
    proc = subprocess.run([exe] + args, env=env, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def strip_volatile(node, extra_keys=frozenset()):
    drop = VOLATILE_REPORT_KEYS | extra_keys
    if isinstance(node, dict):
        return {k: strip_volatile(v, extra_keys) for k, v in node.items()
                if k not in drop}
    if isinstance(node, list):
        return [strip_volatile(v, extra_keys) for v in node]
    return node


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def sum_job_key(report, key):
    total = 0
    for stage in report.get("stages", []):
        job = stage.get("job")
        if job:
            total += job.get(key, 0)
    return total


def sum_resumed(report):
    return sum_job_key(report, "map_tasks_resumed")


class HarnessError(Exception):
    pass


def check(cond, msg):
    if not cond:
        raise HarnessError(msg)


def run_case(exe, work, input_csv, strategy, crash_site, trigger_hit,
             threads, expect_resume):
    """One crash point: reference run, killed run, resumed run, diff.

    `threads` (or None for the default pool) is passed to every child as
    --threads; `expect_resume` says whether the kill came after at least
    one durable map commit, so the resumed run must restore some tasks,
    or before any, so it must re-execute them all."""
    label = f"{strategy}/{crash_site}@{trigger_hit}"
    case_dir = os.path.join(
        work, f"{strategy}-{crash_site.split('.')[1]}{trigger_hit}")
    os.makedirs(case_dir, exist_ok=True)
    temp_dir = os.path.join(case_dir, "tmp")
    os.makedirs(temp_dir, exist_ok=True)

    def args(tag, checkpoint_dir):
        return [
            input_csv,
            os.path.join(case_dir, f"{tag}_matches.csv"),
            strategy,
            "--execution=external",
            f"--temp-dir={temp_dir}",
            f"--checkpoint-dir={checkpoint_dir}",
            f"--plan-out={os.path.join(case_dir, tag + '_plan.json')}",
            f"--report-json={os.path.join(case_dir, tag + '_report.json')}",
        ] + ([f"--threads={threads}"] if threads else [])

    # Uninterrupted reference, checkpointed like the crashing run so the
    # reports compare field for field.
    rc, out = run_child(exe, args("ref", os.path.join(case_dir, "ck-ref")))
    check(rc == 0, f"{label}: reference run failed (rc={rc}):\n{out}")

    # Killed run: the fault fires SIGKILL mid-job.
    ck = os.path.join(case_dir, "ck")
    rc, out = run_child(exe, args("crash", ck),
                        env_fault=f"{crash_site}=kill@{trigger_hit}")
    check(rc == -signal.SIGKILL or rc == 128 + signal.SIGKILL,
          f"{label}: expected the child to be SIGKILLed, got rc={rc}:\n{out}")
    check(os.path.isdir(ck),
          f"{label}: no checkpoint directory survived the kill")

    # Orphaned spill dirs from the killed process must be swept by the
    # resumed run (their pids are dead); plant a synthetic one too.
    planted = os.path.join(temp_dir, "erlb-dataflow-999999999-0-dead")
    os.makedirs(planted, exist_ok=True)

    # Resume over the same checkpoint directory, no fault.
    rc, out = run_child(exe, args("res", ck))
    check(rc == 0, f"{label}: resumed run failed (rc={rc}):\n{out}")

    ref_matches = read_bytes(os.path.join(case_dir, "ref_matches.csv"))
    res_matches = read_bytes(os.path.join(case_dir, "res_matches.csv"))
    check(ref_matches == res_matches,
          f"{label}: resumed matches differ from the reference")
    check(len(ref_matches.splitlines()) > 1,
          f"{label}: reference found no matches — the input is too easy")

    # Not every strategy serializes a plan (Basic's match stage carries
    # none); the two runs must at least agree on that.
    ref_plan_path = os.path.join(case_dir, "ref_plan.json")
    res_plan_path = os.path.join(case_dir, "res_plan.json")
    check(os.path.exists(ref_plan_path) == os.path.exists(res_plan_path),
          f"{label}: only one of the runs serialized a match plan")
    if os.path.exists(ref_plan_path):
        check(read_bytes(ref_plan_path) == read_bytes(res_plan_path),
              f"{label}: resumed match plan differs from the reference")

    ref_report = load_report(os.path.join(case_dir, "ref_report.json"))
    res_report = load_report(os.path.join(case_dir, "res_report.json"))
    check(strip_volatile(copy.deepcopy(ref_report))
          == strip_volatile(copy.deepcopy(res_report)),
          f"{label}: resumed report differs from the reference beyond "
          "timings")
    check(sum_resumed(ref_report) == 0,
          f"{label}: the uninterrupted reference claims resumed tasks")
    if expect_resume:
        check(sum_resumed(res_report) > 0,
              f"{label}: the resumed run re-executed everything — nothing "
              "was restored from the checkpoint")
    else:
        check(sum_resumed(res_report) == 0,
              f"{label}: the kill came before any map commit, yet the "
              "resumed run claims restored tasks")

    check(not os.path.isdir(planted),
          f"{label}: stale temp dir was not swept on resume")
    leftovers = [d for d in os.listdir(temp_dir)
                 if d.startswith("erlb-dataflow-")]
    check(not leftovers,
          f"{label}: orphaned spill dirs survived the resume: {leftovers}")

    # A successful run retires its checkpoint directory.
    check(not os.path.exists(ck),
          f"{label}: checkpoint directory not retired after success")

    log(f"{label}: OK (resumed {sum_resumed(res_report)} map tasks)")


def run_multiprocess_case(exe, work, input_csv, strategy):
    """Multi-process leg: a SIGKILLed worker mid-map must not change the
    output, and the job must finish without a rerun."""
    label = f"{strategy}/multiprocess"
    case_dir = os.path.join(work, f"{strategy}-multiprocess")
    os.makedirs(case_dir, exist_ok=True)
    temp_dir = os.path.join(case_dir, "tmp")
    os.makedirs(temp_dir, exist_ok=True)

    def args(tag, extra):
        return [
            input_csv,
            os.path.join(case_dir, f"{tag}_matches.csv"),
            strategy,
            f"--temp-dir={temp_dir}",
            f"--plan-out={os.path.join(case_dir, tag + '_plan.json')}",
            f"--report-json={os.path.join(case_dir, tag + '_report.json')}",
        ] + extra

    # Single-process external reference, 1-worker degenerate pool, and a
    # 4-worker pool that loses one worker mid-map: the parent poisons and
    # SIGKILLs the worker whose third DONE frame it takes (the input
    # spans ~5 map splits, so hit 3 lands inside the first map phase),
    # then adopts the dead worker's committed task from its commit
    # record instead of re-running it.
    runs = (("ext", ["--execution=external"], None),
            ("w1", ["--workers=1"], None),
            ("w4", ["--workers=4"], "worker.result=error@3"))
    for tag, extra, fault in runs:
        rc, out = run_child(exe, args(tag, extra), env_fault=fault)
        check(rc == 0, f"{label}: {tag} run failed (rc={rc}):\n{out}")

    ext_matches = read_bytes(os.path.join(case_dir, "ext_matches.csv"))
    check(len(ext_matches.splitlines()) > 1,
          f"{label}: reference found no matches — the input is too easy")
    for tag in ("w1", "w4"):
        got = read_bytes(os.path.join(case_dir, f"{tag}_matches.csv"))
        check(got == ext_matches,
              f"{label}: {tag} matches differ from single-process external")
        plan = os.path.join(case_dir, f"{tag}_plan.json")
        ref_plan = os.path.join(case_dir, "ext_plan.json")
        check(os.path.exists(plan) == os.path.exists(ref_plan),
              f"{label}: only one of ext/{tag} serialized a match plan")
        if os.path.exists(ref_plan):
            check(read_bytes(plan) == read_bytes(ref_plan),
                  f"{label}: {tag} match plan differs from the reference")

    # Reports agree across modes once wall-clock noise and the
    # multi-process-only keys are stripped.
    ext_report = load_report(os.path.join(case_dir, "ext_report.json"))
    w1_report = load_report(os.path.join(case_dir, "w1_report.json"))
    w4_report = load_report(os.path.join(case_dir, "w4_report.json"))
    stripped = [strip_volatile(copy.deepcopy(r), MULTIPROC_REPORT_KEYS)
                for r in (ext_report, w1_report, w4_report)]
    check(stripped[0] == stripped[1],
          f"{label}: --workers=1 report differs from single-process "
          "external beyond timings")
    check(stripped[0] == stripped[2],
          f"{label}: crashed --workers=4 report differs from the "
          "reference beyond timings")

    # The worker really died and its committed work was adopted.
    check(sum_job_key(w4_report, "worker_deaths") >= 1,
          f"{label}: the worker.result fault killed no worker")
    check(sum_resumed(w4_report) >= 1,
          f"{label}: no map task was adopted from the dead worker")
    check(sum_job_key(w1_report, "worker_deaths") == 0,
          f"{label}: the unfaulted --workers=1 run reports worker deaths")

    # Job temp roots (including the dead worker's claim subdir) are
    # cleaned up by the surviving coordinator.
    leftovers = [d for d in os.listdir(temp_dir)
                 if d.startswith("erlb-spill-")]
    check(not leftovers,
          f"{label}: multi-process job dirs survived: {leftovers}")

    log(f"{label}: OK ({sum_job_key(w4_report, 'worker_deaths')} worker "
        f"death, {sum_resumed(w4_report)} map task adopted)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exe", required=True,
                        help="path to the csv_dedup example binary")
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory (recreated)")
    parser.add_argument("--strategies", default=",".join(STRATEGIES),
                        help="comma-separated strategy subset")
    parser.add_argument("--rows", type=int, default=5000,
                        help="input rows (must span several CSV splits)")
    args = parser.parse_args()

    if args.rows <= 2 * SPLIT_RECORDS:
        parser.error(f"--rows must exceed {2 * SPLIT_RECORDS} so the "
                     "input spans several map tasks")

    work = os.path.abspath(args.work_dir)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    input_csv = os.path.join(work, "input.csv")
    write_input_csv(input_csv, args.rows)
    log(f"input: {args.rows} rows, "
        f"{(args.rows + SPLIT_RECORDS - 1) // SPLIT_RECORDS} map splits")

    failures = []
    for strategy in args.strategies.split(","):
        strategy = strategy.strip()
        # Mid-map: on one thread the third map-task attempt dies with
        # tasks 1-2 committed. First map: the kill precedes every commit.
        # Mid-reduce: all maps committed, second reduce dies.
        cases = (("task.map", 3, 1, True),
                 ("task.map", 1, 1, False),
                 ("task.reduce", 2, None, True))
        for site, hit, threads, expect_resume in cases:
            try:
                run_case(args.exe, work, input_csv, strategy, site, hit,
                         threads, expect_resume)
            except HarnessError as e:
                failures.append(str(e))
                log(f"FAIL: {e}")
        try:
            run_multiprocess_case(args.exe, work, input_csv, strategy)
        except HarnessError as e:
            failures.append(str(e))
            log(f"FAIL: {e}")

    if failures:
        log(f"{len(failures)} case(s) failed")
        return 1
    log("all crash-resume cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
