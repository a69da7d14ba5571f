#!/usr/bin/env python3
"""Small-scale self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Run it from the repository root. It builds the benchmark program (as
run.py does), then checks that

  * the output checks pass an intact dedup and probe reply, and reject a
    match result or a probe reply with one pair dropped
    (erlb_e2ebench --selftest);
  * every workload in BENCHMARK.json, shrunk to a tenth of its size,
    emits every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) with the unit BENCHMARK.json declares.

Exit code 0 when everything holds.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

SECONDS = "3"


def main():
    binary = run.build()
    out_dir = os.path.join(run.ROOT, ".bench_run")
    failures = []

    checks = subprocess.run([binary, "--selftest", "--out", out_dir],
                            cwd=run.ROOT)
    if checks.returncode != 0:
        failures.append("output checks self-test failed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [binary, "--workload", workload["name"], "--seed", "1",
                 "--seconds", SECONDS, "--trace", str(trace),
                 "--scale", "small", "--out", out_dir],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(
                        f"{label}: {metric['name']} missing or not in "
                        f"{metric['unit']}: {got}")
            print(f"selftest: {label}: {len(result['metrics'])} metrics",
                  file=sys.stderr)

    for failure in failures:
        print(f"selftest: FAILED: {failure}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
