"""Benchmark of the contextuality library: one seeded workload per run.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads, metrics, units and bounds are declared in ``BENCHMARK.json`` at
the checkout root; ``bench/README.md`` explains them. The load is a closed
loop with one client in this one process and thread: a case is generated
(untimed), its route runs and its answer is checked exactly, then the next.

``--trace 0`` measures end to end with the library untouched and prints the
end-to-end metrics. ``--trace 1`` runs whole passes over a fixed prefix of
the cases, each case once plain and once with span wrappers installed, and
prints the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record goes to ``bench/out/``. Exit code 0 means every case was answered
correctly; 1 means some case failed or the benchmark raised; 2 means it
found no library source in its checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
from checkout import ROOT, check_imported, use_checkout_source

DEFAULT_SEED = 101
# Not used while writing a change; confirms a claim made on DEFAULT_SEED.
HELD_OUT_SEED = 7919
# Enough latency samples that at least ten lie beyond the 90th percentile.
MIN_SAMPLES = 100
SETUP_PROBES = 7
# Share of each case's time spent on the reference loop after it.
REFERENCE_SHARE = 0.1
# Seconds of reference loop in the speed probe before and after a run.
PROBE_S = 0.25
SETUP_TIMEOUT_S = 60
OUT_DIR = Path(__file__).resolve().parent / "out"


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def measure_setup(workload: str) -> list[dict]:
    """Time import plus first call in fresh interpreters; one dict per probe."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def setup_medians(samples: list[dict]) -> dict[str, float]:
    """Median calibrated import, first-call and total set-up seconds."""
    scaled = [
        {k: s[k] * reference.NOMINAL_S / s["chunk_s"] for k in ("import_s", "first_call_s")}
        for s in samples
    ]
    return {
        "import_s": statistics.median(s["import_s"] for s in scaled),
        "first_call_s": statistics.median(s["first_call_s"] for s in scaled),
        "setup_s": statistics.median(s["import_s"] + s["first_call_s"] for s in scaled),
    }


def _describe(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def run_case(workload, case, call):
    """Run one case through ``call`` and check it: (route_s, total_s, problem)."""
    clock = time.perf_counter
    t0 = clock()
    try:
        result = call(case)
    except Exception as exc:  # a failed case is counted, the run goes on
        t1 = clock()
        problem = _describe(exc)
    else:
        t1 = clock()
        try:
            problem = workload.check(case, result)
        except Exception as exc:
            problem = _describe(exc)
    return t1 - t0, clock() - t0, problem


def calibration(chunks: list[float]) -> list[float]:
    """Scale factor for each case from the reference chunk times around it.

    ``chunks[i]`` was measured just before case ``i`` and ``chunks[i + 1]``
    just after it. The machine's speed changes within seconds, so only these
    two are used, and the slower of them: a case that overlapped a slow phase
    is scaled as slow. Over ten seeds per workload this gave smaller spreads
    than their mean, the faster of the two or the run's median chunk.
    """
    return [reference.NOMINAL_S / max(a, b) for a, b in zip(chunks, chunks[1:])]


def measure_untraced(workload, seed: int, seconds: float) -> dict:
    """Closed loop over fresh cases until ``seconds`` of work and MIN_SAMPLES.

    After each case the reference loop runs for a tenth of the case's time,
    and the case's times are calibrated by the chunk times around it.
    """
    import tracer

    tracer.assert_untraced()
    route_s: list[float] = []
    total_s: list[float] = []
    chunks = [reference.chunk_seconds()]
    failures: list[str] = []
    busy = 0.0
    while busy < seconds or len(route_s) < MIN_SAMPLES:
        index = len(route_s)
        case = workload.make(seed, index)
        route, total, problem = run_case(workload, case, workload.route)
        chunks.append(reference.chunk_seconds(at_least=REFERENCE_SHARE * total))
        route_s.append(route)
        total_s.append(total)
        busy += total
        if problem is not None:
            failures.append(f"case {index}: {problem}")
    tracer.assert_untraced()

    def summary(route: list[float], total: list[float]) -> dict[str, float]:
        return {
            "systems_per_s": len(total) / sum(total),
            "latency_p50_ms": 1e3 * statistics.median(route),
            "latency_p90_ms": 1e3 * statistics.quantiles(route, n=10)[8],
        }

    scales = calibration(chunks)
    latencies = [r * f for r, f in zip(route_s, scales)]
    metrics = summary(latencies, [t * f for t, f in zip(total_s, scales)])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": len(route_s),
        "failures": failures,
        "busy_s": busy,
        "latency_samples": len(latencies),
        "beyond_p90": sum(1 for v in latencies if v > metrics["latency_p90_ms"] / 1e3),
        "reference_chunk_s": _spread(chunks),
        "raw": summary(route_s, total_s),
        "samples": {"route_s": route_s, "total_s": total_s, "chunk_s": chunks},
        "metrics": metrics,
    }


def _spread(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def measure_traced(workload, seed: int, seconds: float, spans_path: Path) -> dict:
    """Whole passes over the first ``trace_pass`` cases, each run plain and traced.

    The two runs of a case alternate in order, and their wall times give the
    tracing overhead. Counts cover whole passes only, so they repeat exactly.
    """
    import tracer

    cases = [workload.make(seed, i) for i in range(workload.trace_pass)]
    spans = tracer.Tracer()
    plain_s = traced_s = 0.0
    failures: list[str] = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, case in enumerate(cases):
            order = (False, True) if index % 2 == 0 else (True, False)
            problems = []
            for traced in order:
                if traced:
                    call = lambda c, i=index: spans.route(i, workload.route, c)
                else:
                    call = workload.route
                _, total_s, problem = run_case(workload, case, call)
                if traced:
                    traced_s += total_s
                else:
                    plain_s += total_s
                if problem is not None:
                    problems.append(("traced" if traced else "plain") + f" case {index}: {problem}")
            failures.extend(problems[:1])
        passes += 1
    OUT_DIR.mkdir(exist_ok=True)
    spans.write(spans_path)
    n = passes * len(cases)
    metrics = {name: float(v) for name, v in spans.layer_metrics(n).items()}
    metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    return {
        "attempted": n,
        "failures": failures,
        "passes": passes,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": len(spans.spans),
        "metrics": metrics,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import contextuality

    check_imported(contextuality)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = declared_metrics(args.trace)

    machine = machine_record()
    probe_before = reference.chunk_seconds(at_least=PROBE_S)
    setup = measure_setup(workload.name)
    setup_s = setup_medians(setup)
    workload.route(workload.warmup_case())  # fill lazy caches before timing
    if args.trace:
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl"
        run = measure_traced(workload, args.seed, args.seconds, spans_path)
        run["metrics"]["setup.import_s"] = setup_s["import_s"]
        run["metrics"]["setup.first_call_s"] = setup_s["first_call_s"]
    else:
        run = measure_untraced(workload, args.seed, args.seconds)
        run["metrics"]["setup_s"] = setup_s["setup_s"]
    probe_after = reference.chunk_seconds(at_least=PROBE_S)

    if set(run["metrics"]) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(run['metrics'])} differ from BENCHMARK.json {sorted(units)}"
        )
    attempted = run["attempted"]
    failed = len(run["failures"])
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "speed_probe_chunk_s": {
            "nominal": reference.NOMINAL_S,
            "before": probe_before,
            "after": probe_after,
        },
        "setup_probes": setup,
        "failed_share": failed / attempted,
        **{k: v for k, v in run.items() if k != "metrics"},
        "metrics": {name: {"value": run["metrics"][name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} python={machine['python']}")
    print(
        f"speed probe: reference chunk {1e3 * probe_before:.3f} ms before,"
        f" {1e3 * probe_after:.3f} ms after, nominal {1e3 * reference.NOMINAL_S:.3f} ms"
    )
    print(
        f"{workload.name} seed {args.seed}: {attempted} systems attempted, {failed} failed,"
        f" failed_share {failed / attempted}"
    )
    if args.trace:
        print(f"traced passes {run['passes']} of {workload.trace_pass} systems, {run['spans']} spans")
    else:
        print(f"latency samples {run['latency_samples']}, {run['beyond_p90']} beyond p90")
    for problem in run["failures"][:5]:
        print(f"FAILED {problem}")
    for name, item in record["metrics"].items():
        print(f"  {name:28s} {item['value']:.6g} {item['unit']}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
