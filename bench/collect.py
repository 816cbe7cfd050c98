"""Run the benchmark over several seeds and summarise each metric's spread.

Usage:
    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--seconds S] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median next
to the metric's bound in ``BENCHMARK.json``. ``--out`` writes the summary,
with every run's values and machine record, as JSON. Exit code 1 if any run
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT

RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
# Fields of a run's record kept next to its result.
DIAGNOSTICS = ("machine", "speed_probe_chunk_s", "reference_chunk_s", "raw", "passes")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One run of ``bench/run.py``: (exit code, last-line result or None, output)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return done.returncode, None, done.stdout + done.stderr
    return 0, json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            code, result, output = run_once(workload, seed, args.seconds, args.trace)
            if code != 0:
                ok = False
                print(f"{workload} seed {seed}: exit {code}\n{output}")
                continue
            record_path = OUT_DIR / f"{workload}-seed{seed}-trace{args.trace}.json"
            record = json.loads(record_path.read_text(encoding="utf-8"))
            runs.append({
                "seed": seed,
                "result": result,
                **{k: record[k] for k in DIAGNOSTICS if k in record},
            })
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
        if not runs:
            continue
        names = list(runs[0]["result"]["metrics"])
        metrics = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
        }
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
        print(f"\n{workload}: {len(runs)} runs")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound:
                flag = f"bound {bound}  spread/bound {m['spread'] / bound:.2f}"
            print(f"  {name:28s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}  {flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
