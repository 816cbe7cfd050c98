"""The benchmark's workloads: seeded inputs, the timed route, the exact check.

Each workload turns ``(seed, index)`` into one case with the library's own
generators, runs one route of the public API on it, and checks the answer
with exact ``Fraction`` equality against an independent route. Nothing here
is timed; ``run.py`` times ``route`` and ``check``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from contextuality import bell, fme, oracle
from contextuality.generators import (
    lg_anticorrelated,
    pr_signaling_family,
    random_connection_means,
    random_system,
    split_seed,
)

# The constraint cycle of acceptance criteria 1 and 5.
CONSTRAINT_CYCLE = ("no_signaling", "none", "signaling_only")

# Child-seed offsets, so that the inputs of one workload never reuse the
# random stream of another part of the same case.
GRID_OFFSET = 1_000_000
MEANS_OFFSET = 10_000

# One oracle-bell system in this many comes from the correlated family.
FAMILY_EVERY = 4
# pr_signaling_family(k / GRID_STEPS, j / (2 * GRID_STEPS)) with 0 <= k <=
# GRID_STEPS and |j| <= GRID_STEPS + k keeps every cell nonnegative.
GRID_STEPS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], Any]
    # Routes reach the library through module attributes at call time, so
    # that the traced run's wrappers see every call.
    route: Callable[[Any], Any]
    # Returns None when the answer is right, else a one-line description.
    check: Callable[[Any, Any], Optional[str]]
    warmup_case: Callable[[], Any]
    # Systems in one pass of the traced run; counts are exact per pass.
    trace_pass: int


def _exact(*values) -> bool:
    return all(type(v) is Fraction for v in values)


def _family_system(seed: int, index: int):
    rng = random.Random(split_seed(seed, GRID_OFFSET + index))
    k = rng.randint(0, GRID_STEPS)
    j = rng.randint(-(GRID_STEPS + k), GRID_STEPS + k)
    return pr_signaling_family(Fraction(k, GRID_STEPS), Fraction(j, 2 * GRID_STEPS))


def _make_oracle_bell(seed: int, index: int):
    if index % FAMILY_EVERY == FAMILY_EVERY - 1:
        return _family_system(seed, index)
    return random_system("bell", split_seed(seed, index), CONSTRAINT_CYCLE[index % 3])


def _route_oracle_bell(sys):
    report = bell.analyze(sys)
    extrema = oracle.delta_extrema(sys)
    feasible = oracle.compatible(sys, bell.minimal_connections(sys).components())
    return report, extrema, feasible


def _check_oracle_bell(sys, result) -> Optional[str]:
    report, (lo, hi), feasible = result
    if not _exact(lo, hi, report.delta_min, report.delta_max, report.delta0, report.degree):
        return "a value is not a Fraction"
    if (lo, hi) != (report.delta_min, report.delta_max):
        return f"interval: oracle {(lo, hi)} != closed form {(report.delta_min, report.delta_max)}"
    if max(Fraction(0), lo - report.delta0) != report.degree:
        return f"degree: oracle {max(Fraction(0), lo - report.delta0)} != closed form {report.degree}"
    if feasible is not report.noncontextual:
        return f"verdict: compatible at c0 {feasible} != noncontextual {report.noncontextual}"
    return None


def _make_projection_bell(seed: int, index: int):
    return random_system("bell", split_seed(seed, index), CONSTRAINT_CYCLE[index % 3])


def _check_projection_bell(sys, result) -> Optional[str]:
    expected = bell.delta_interval(sys)
    if not _exact(*result, *expected):
        return "a value is not a Fraction"
    if tuple(result) != expected:
        return f"interval: projection {tuple(result)} != closed form {expected}"
    return None


def _make_verdicts_lg(seed: int, index: int):
    sys = random_system("lg", split_seed(seed, index), CONSTRAINT_CYCLE[index % 3])
    means = random_connection_means(
        sys, split_seed(seed, MEANS_OFFSET + index), inside_bounds=bool(index % 2)
    )
    return sys, means


def _check_verdicts_lg(case, result) -> Optional[str]:
    closed, by_lp = result
    if type(closed) is not bool or type(by_lp) is not bool:
        return "a verdict is not a bool"
    if closed != by_lp:
        return f"verdict: closed form {closed} != LP {by_lp}"
    return None


def _family_warmup():
    return pr_signaling_family(Fraction(17, 24), 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle-bell",
            make=_make_oracle_bell,
            route=_route_oracle_bell,
            check=_check_oracle_bell,
            warmup_case=_family_warmup,
            trace_pass=24,
        ),
        Workload(
            name="projection-bell",
            make=_make_projection_bell,
            route=lambda sys: fme.derive_delta_bounds(sys),
            check=_check_projection_bell,
            warmup_case=_family_warmup,
            trace_pass=96,
        ),
        Workload(
            name="verdicts-lg",
            make=_make_verdicts_lg,
            route=lambda case: oracle.compatibility_verdicts(*case),
            check=_check_verdicts_lg,
            warmup_case=lambda: (lg_anticorrelated(), (Fraction(0),) * 3),
            trace_pass=192,
        ),
    )
}
