#!/usr/bin/env python3
"""Guards the batched Monte-Carlo engine against performance regressions.

Compares a freshly measured engine-comparison record (written by
`bench_micro_engine --engine-json=PATH`) against the committed baseline
`BENCH_engine.json`. Absolute trials/sec numbers are machine-dependent, so
the gate is the scalar-vs-batched *speedup* measured on the same machine in
the same run: it cancels out host speed and only moves when the batched
kernel itself gets slower (or the scalar oracle gets faster, which is also
worth knowing about).

Exit 1 when the fresh speedup drops below --min-ratio (default 0.8, i.e. a
>20% regression) of the baseline speedup. When the baseline also carries
`small_speedup` (the same ratio on a small serve-sized Weibull campaign,
which measures how the runner packs small chunks into full kernel waves),
the fresh record must carry it too and it is gated with the same ratio.

Usage:
  scripts/check_bench_regression.py FRESH.json [--baseline BENCH_engine.json]
      [--min-ratio 0.8]
"""

import argparse
import json
import pathlib
import sys


SMALL_KEYS = ("small_scalar_trials_per_sec", "small_batched_trials_per_sec",
              "small_speedup")


def require_positive(record, path, keys):
    for key in keys:
        if not isinstance(record.get(key), (int, float)) or record[key] <= 0:
            raise ValueError(f"{path}: missing or non-positive '{key}'")


def load_record(path):
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("record") != "bench_engine":
        raise ValueError(f"{path}: not a bench_engine record")
    require_positive(record, path,
                     ("scalar_trials_per_sec", "batched_trials_per_sec",
                      "speedup"))
    return record


def gate(label, fresh, baseline, prefix, min_ratio):
    """Prints one speedup comparison; returns False when it regressed."""
    ratio = fresh[prefix + "speedup"] / baseline[prefix + "speedup"]
    for name, record in (("baseline", baseline), ("fresh", fresh)):
        print(f"{label} {name} speedup: {record[prefix + 'speedup']:.2f}x "
              f"({record[prefix + 'batched_trials_per_sec']:.0f} vs "
              f"{record[prefix + 'scalar_trials_per_sec']:.0f} trials/s)")
    print(f"{label} ratio: {ratio:.3f} (gate: >= {min_ratio})")
    if ratio < min_ratio:
        print(f"FAIL: {label} batched-engine speedup regressed by "
              f"{(1.0 - ratio) * 100.0:.1f}% against the committed baseline",
              file=sys.stderr)
        return False
    return True


def main():
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description="fail on batched-engine speedup regressions")
    parser.add_argument("fresh", help="freshly measured bench_engine JSON")
    parser.add_argument("--baseline",
                        default=str(repo_root / "BENCH_engine.json"),
                        help="committed baseline record")
    parser.add_argument("--min-ratio", type=float, default=0.8,
                        help="minimum fresh/baseline speedup ratio")
    args = parser.parse_args()

    fresh = load_record(args.fresh)
    baseline = load_record(args.baseline)
    passed = gate("reference", fresh, baseline, "", args.min_ratio)
    if "small_speedup" in baseline:
        require_positive(baseline, args.baseline, SMALL_KEYS)
        require_positive(fresh, args.fresh, SMALL_KEYS)
        passed = gate("small", fresh, baseline, "small_",
                      args.min_ratio) and passed
    if not passed:
        return 1
    print("OK: batched-engine speedup within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
