#!/usr/bin/env python3
"""Self-test of the dckpt benchmark (run from the root of a checkout):

    python3 perfbench/selftest.py [--seconds 2]

1. Every workload, untraced and traced, prints a well-formed result line
   whose metrics are exactly BENCHMARK.json's list for that mode, each with
   its unit and a finite value, and fails no operation.
2. Every per-layer metric is measured by at least one workload (run.py
   fills in 0 only for layers a workload does not call).
3. A sabotaged check input -- a wrong expected final hash, a dropped or
   altered reply, a mismatched scalar trial -- is counted as a failed
   operation instead of passing.
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.

Exits 0 when everything holds.
"""

import argparse
import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SABOTAGE = [
    ("mc-reference", "scalar-trial"),
    ("chain-dcp", "final-hash"),
    ("grid-recovery", "final-hash"),
    ("serve-mixed", "reply-drop"),
    ("serve-mixed", "reply-alter"),
]


def run(workload, seconds, trace, sabotage="", cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), [json.loads(l) for l in lines[:-1]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    measured = set()

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = run(workload, args.seconds, trace)
            tag = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result, extra = result_of(done)
            wanted = spec["per_layer" if trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in wanted}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 \
                    or result.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={result.get('correct')} "
                                f"failed={result.get('failed')} "
                                f"attempted={result.get('attempted')}")
            metrics = result.get("metrics", {})
            if set(metrics) != set(units):
                problems.append(f"{tag}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(units))}")
            for name, metric in metrics.items():
                value = metric.get("value")
                if metric.get("unit") != units.get(name) or \
                        not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{tag}: {name} = {metric}")
            if trace:
                filled = set()
                for record in extra:
                    if record.get("record") == "perfbench_unmeasured":
                        filled = set(record["metrics"])
                measured |= set(metrics) - filled
            print(f"ok {tag}: attempted {result.get('attempted')}")

    missing = {m["name"] for m in spec["per_layer"]} - measured
    if missing:
        problems.append(f"per-layer metrics no workload measures: {sorted(missing)}")

    for workload, sabotage in SABOTAGE:
        done = run(workload, 1, 0, sabotage)
        tag = f"{workload} --sabotage {sabotage}"
        if done.returncode != 0:
            problems.append(f"{tag}: exit {done.returncode}")
            continue
        result, _ = result_of(done)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{tag}: not counted as failed: {result}")
        else:
            print(f"ok {tag}: failed {result['failed']} of {result['attempted']}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    done = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append(f"bare directory: exit {done.returncode}, "
                        f"stdout {done.stdout[-200:]!r}")
    else:
        print(f"ok bare directory: exit {done.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
