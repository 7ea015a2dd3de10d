#!/usr/bin/env python3
"""Runs one workload of the dckpt benchmark and prints its result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the dckpt libraries with the repository's own CMake project and the
benchmark binary in perfbench/ with its own, both under .bench_build/, then
runs the binary. Standard output ends with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. A per-layer metric of a layer the workload
does not call is reported as 0 (see perfbench/PREDICTIONS.md). Anything that
goes wrong before a result exists exits non-zero without printing one.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "dckpt"
BINARY_BUILD = BUILD / "perfbench"
BINARY = BINARY_BUILD / "dckpt_perfbench"
JOBS = "4"
BINARY_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only on failure."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no dckpt sources next to perfbench/")
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD),
                   "-DCMAKE_BUILD_TYPE=Release", "-DDCKPT_BUILD_TESTS=OFF",
                   "-DDCKPT_BUILD_BENCH=OFF", "-DDCKPT_BUILD_EXAMPLES=OFF"])
    run_quiet(["cmake", "--build", str(LIB_BUILD), "-j", JOBS, "--target",
               "dckpt_sim", "dckpt_runtime", "dckpt_chaos"])
    if not (BINARY_BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH), "-B", str(BINARY_BUILD),
                   "-DCMAKE_BUILD_TYPE=Release",
                   f"-DDCKPT_SOURCE_DIR={ROOT}",
                   f"-DDCKPT_BUILD_DIR={LIB_BUILD}"])
    run_quiet(["cmake", "--build", str(BINARY_BUILD), "-j", JOBS])


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec


def complete(result, spec, trace):
    """Checks the binary's metrics against BENCHMARK.json and fills in the
    per-layer metrics of layers this workload does not call."""
    listed = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in listed:
            raise SystemExit(f"perfbench: binary printed unlisted metric {name}")
        if metric["unit"] != listed[name]:
            raise SystemExit(f"perfbench: {name} has unit {metric['unit']}, "
                             f"BENCHMARK.json says {listed[name]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    unmeasured = []
    for name, unit in units.items():
        if name in metrics:
            continue
        if not trace:
            raise SystemExit(f"perfbench: end-to-end metric {name} missing")
        metrics[name] = {"value": 0, "unit": unit}
        unmeasured.append(name)
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: metrics[name] for name in units}}, unmeasured


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--sabotage", default="",
                        help="self-test: corrupt one check input on purpose")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    trace = args.trace == "1"
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-{args.seed}.jsonl")]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: binary timed out")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: binary exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: binary printed nothing")
    result, unmeasured = complete(json.loads(lines[-1]), spec, trace)
    for line in lines[:-1]:
        print(line)
    if trace:
        print(json.dumps({"record": "perfbench_unmeasured",
                          "metrics": unmeasured}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    # The benchmark measures the default (batched) engine everywhere.
    os.environ.pop("DCKPT_ENGINE", None)
    main()
