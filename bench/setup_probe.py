"""Time the set-up a fresh interpreter pays before its first answer.

Usage: python3 bench/setup_probe.py WORKLOAD

Prints one JSON object: ``import_s``, the wall time of ``import
contextuality``; ``first_call_s``, the wall time of one call of the
workload's route on its fixed warm-up system, which fills lazy caches such as
the vertex matrix; and ``chunk_s``, the reference loop's chunk time measured
right after, to calibrate both. Building the fixed system is excluded.
"""

import json
import sys
import time

from checkout import check_imported, use_checkout_source


def main() -> None:
    use_checkout_source()
    t0 = time.perf_counter()
    import contextuality

    t1 = time.perf_counter()
    check_imported(contextuality)
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    case = workload.warmup_case()
    t2 = time.perf_counter()
    workload.route(case)
    t3 = time.perf_counter()
    import reference

    chunk_s = reference.chunk_seconds(at_least=0.02)
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t3 - t2, "chunk_s": chunk_s}))


if __name__ == "__main__":
    main()
