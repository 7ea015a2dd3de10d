#!/usr/bin/env python3
"""Guards the committed benchmark records against performance regressions.

Compares a freshly measured record against its committed baseline. Three
record kinds are accepted, each gated on ratios of rates measured on the
same machine in the same run, so host speed cancels out:

* `bench_engine` (`bench_micro_engine --engine-json=PATH`, baseline
  `BENCH_engine.json`): the batched Monte-Carlo kernel against the scalar
  engine on the reference campaign (`speedup`) and, when the baseline
  carries it, on a small serve-sized Weibull campaign (`small_speedup`,
  which measures how the runner packs small chunks into full kernel waves).
  The fresh record must then carry it too.
* `bench_hash` (`bench_ext_dcp --hash-json=PATH`, baseline
  `BENCH_hash.json`): a full commit's hashing of a 1 MiB image against flat
  FNV-1a over the same bytes (`speedup`). It only moves when the
  four-chain block walk itself gets slower. When the baseline carries it,
  also a delta commit's diff of that image with 8 of 256 pages rewritten,
  with the original image as the hash reference against the full walk
  (`diff_speedup`, which measures how much of the image a diff skips by
  page identity). The fresh record must then carry it too.
* `bench_runtime` (`bench_runtime_overhead --runtime-json=PATH`, baseline
  `BENCH_runtime.json`): the checkpointing runtime's steps/s with
  checkpointing on over its steps/s with it off (an efficiency, not a
  speedup), on the grid shape with one node loss and a three-layer chain
  replay (`grid_efficiency`) and, when the baseline carries it, on the
  chain shape with no loss (`chain_efficiency`).

Exit 1 when a fresh ratio drops below --min-ratio (default 0.8, i.e. a
>20% regression) of the baseline's.

Usage:
  scripts/check_bench_regression.py FRESH.json [--baseline BASELINE.json]
      [--min-ratio 0.8]

The baseline defaults to the committed record of FRESH.json's kind.
"""

import argparse
import json
import pathlib
import sys


# Per record kind: the committed baseline, what it measures, the name of
# its ratio, and its gated ratios as (label, ratio key, numerator rate key,
# denominator rate key, unit). The first gate is required; the others apply
# when the baseline carries them.
RECORDS = {
    "bench_engine": {
        "baseline": "BENCH_engine.json",
        "what": "batched-engine",
        "measure": "speedup",
        "gates": [
            ("reference", "speedup", "batched_trials_per_sec",
             "scalar_trials_per_sec", "trials/s"),
            ("small", "small_speedup", "small_batched_trials_per_sec",
             "small_scalar_trials_per_sec", "trials/s"),
        ],
    },
    "bench_hash": {
        "baseline": "BENCH_hash.json",
        "what": "commit-hashing",
        "measure": "speedup",
        "gates": [
            ("hash", "speedup", "commit_hash_gb_per_s",
             "flat_fnv1a_gb_per_s", "GB/s"),
            ("diff", "diff_speedup", "diff_reference_per_sec",
             "diff_walk_per_sec", "diffs/s"),
        ],
    },
    "bench_runtime": {
        "baseline": "BENCH_runtime.json",
        "what": "checkpointing-runtime",
        "measure": "efficiency",
        "gates": [
            ("grid", "grid_efficiency", "grid_ckpt_on_steps_per_s",
             "grid_ckpt_off_steps_per_s", "steps/s"),
            ("chain", "chain_efficiency", "chain_ckpt_on_steps_per_s",
             "chain_ckpt_off_steps_per_s", "steps/s"),
        ],
    },
}


def require_positive(record, path, gate):
    for key in gate[1:4]:
        if not isinstance(record.get(key), (int, float)) or record[key] <= 0:
            raise ValueError(f"{path}: missing or non-positive '{key}'")


def load_record(path, kind=None):
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    found = record.get("record")
    if found not in RECORDS:
        raise ValueError(f"{path}: not a {' or '.join(RECORDS)} record")
    if kind is not None and found != kind:
        raise ValueError(f"{path}: a {found} record, want {kind}")
    require_positive(record, path, RECORDS[found]["gates"][0])
    return record


def gate(spec, measure, fresh, baseline, min_ratio):
    """Prints one ratio comparison; returns the fresh/baseline ratio."""
    label, key, fast, slow, unit = spec
    ratio = fresh[key] / baseline[key]
    for name, record in (("baseline", baseline), ("fresh", fresh)):
        print(f"{label} {name} {measure}: {record[key]:.2f}x "
              f"({record[fast]:.6g} vs {record[slow]:.6g} {unit})")
    print(f"{label} ratio: {ratio:.3f} (gate: >= {min_ratio})")
    return ratio


def main():
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description="fail on ratio regressions against a committed record")
    parser.add_argument("fresh", help="freshly measured bench_engine, "
                        "bench_hash or bench_runtime JSON")
    parser.add_argument("--baseline",
                        help="committed baseline record (default: the "
                        "committed record of the fresh record's kind)")
    parser.add_argument("--min-ratio", type=float, default=0.8,
                        help="minimum fresh/baseline ratio")
    args = parser.parse_args()

    fresh = load_record(args.fresh)
    kind = RECORDS[fresh["record"]]
    baseline_path = args.baseline or str(repo_root / kind["baseline"])
    baseline = load_record(baseline_path, fresh["record"])
    passed = True
    for index, spec in enumerate(kind["gates"]):
        if index > 0 and spec[1] not in baseline:
            continue
        require_positive(baseline, baseline_path, spec)
        require_positive(fresh, args.fresh, spec)
        ratio = gate(spec, kind["measure"], fresh, baseline, args.min_ratio)
        if ratio < args.min_ratio:
            print(f"FAIL: {spec[0]} {kind['what']} {kind['measure']} "
                  f"regressed by {(1.0 - ratio) * 100.0:.1f}% against the "
                  "committed baseline", file=sys.stderr)
            passed = False
    if not passed:
        return 1
    print(f"OK: {kind['what']} {kind['measure']} within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
