"""Exact-count self-test: two traced runs on one seed must count the same work.

Usage: python3 bench/check_counts.py [--seed N] [--workloads a,b]

Runs ``bench/run.py --trace 1`` twice per workload with the same seed and
compares every per-layer metric whose unit is ``count`` or ``ratio`` (LP
calls by sense, infeasible and unbounded outcomes, LP shape, FME rows per
step) for exact equality. Exit code 0 when all repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from checkout import ROOT
from collect import run_once
from run import DEFAULT_SEED

EXACT_UNITS = ("count", "ratio")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    code, result, output = run_once(workload, seed, seconds=1, trace=1)
    if code != 0:
        raise RuntimeError(f"{workload}: exit {code}\n{output}")
    return {
        name: m["value"] for name, m in result["metrics"].items() if m["unit"] in EXACT_UNITS
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differing = sorted(name for name in first if first[name] != second.get(name))
        ok = ok and not differing
        status = "identical" if not differing else f"DIFFER: {differing}"
        print(f"{workload} seed {args.seed}: {len(first)} counts {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
