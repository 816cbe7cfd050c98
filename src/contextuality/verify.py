"""Cross-route verification harness.

For seeded random systems, every quantity this library computes in closed
form is recomputed by the LP oracle and (optionally) by Fourier-Motzkin
projection, and the results are compared with exact rational equality. Any
difference is a defect in one of the routes; zero tolerance applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import cyclic, fme, oracle
from .core import KINDS
from .generators import random_connection_means, random_system, split_seed

_ZERO = Fraction(0)

CHECKS = (
    "degree",
    "interval",
    "fme_interval",
    "criterion_vs_polytope",
    "connection_verdicts",
    "classic_reduction",
)


@dataclass(frozen=True)
class CheckFailure:
    check: str
    kind: str
    sample_index: int
    seed: int
    detail: str


@dataclass
class VerificationSummary:
    kind: str
    samples: int
    checks_run: int = 0
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def first_failure(self) -> Optional[CheckFailure]:
        return self.failures[0] if self.failures else None

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in CHECKS}
        for f in self.failures:
            out[f.check] += 1
        return out


def _constraint_for(index: int) -> str:
    # mix signaling and no-signaling inputs deterministically
    return "no_signaling" if index % 3 == 0 else "none"


def verify_kind(
    kind: str,
    samples: int,
    seed: int,
    run_fme: bool = True,
    fault_injection: bool = False,
) -> VerificationSummary:
    """Run every cross-route check on ``samples`` seeded systems of one kind.

    ``fault_injection`` corrupts the closed-form degree of the first sample;
    it exists so the harness can demonstrate that it actually detects
    mismatches (a harness self-test, not a production flag).
    """
    summary = VerificationSummary(kind=kind, samples=samples)

    def fail(check: str, index: int, child: int, detail: str) -> None:
        summary.failures.append(CheckFailure(check, kind, index, child, detail))

    for index in range(samples):
        child = split_seed(seed, index)
        constraint = _constraint_for(index)
        sys = random_system(kind, child, constraint)

        # the generalized treatment: temporal systems without the causal pin
        closed = cyclic.analyze(sys)
        closed_degree = closed.degree
        closed_interval = (closed.delta_min, closed.delta_max)
        noncontextual = closed.noncontextual
        if fault_injection and index == 0:
            closed_degree = closed_degree + 1

        polytope = oracle.report(sys, causal=False)
        lo, hi = polytope.delta_min, polytope.delta_max
        oracle_degree = max(_ZERO, lo - closed.delta0)

        summary.checks_run += 1
        if closed_degree != oracle_degree:
            fail("degree", index, child, f"closed {closed_degree} != oracle {oracle_degree}")

        summary.checks_run += 1
        if closed_interval != (lo, hi):
            fail("interval", index, child, f"closed {closed_interval} != oracle {(lo, hi)}")

        if run_fme:
            summary.checks_run += 1
            fme_interval = fme.derive_delta_bounds(sys)
            if fme_interval != (lo, hi):
                fail("fme_interval", index, child, f"fme {fme_interval} != oracle {(lo, hi)}")

        summary.checks_run += 1
        compatible_at_c0 = polytope.feasible_at_c0
        if compatible_at_c0 != noncontextual:
            fail(
                "criterion_vs_polytope",
                index,
                child,
                f"compatible_at_c0 {compatible_at_c0} != noncontextual {noncontextual}",
            )

        summary.checks_run += 1
        means = random_connection_means(sys, split_seed(child, 1), inside_bounds=bool(index % 2))
        closed_verdict, lp_verdict = oracle.compatibility_verdicts(sys, means)
        if closed_verdict != lp_verdict:
            fail(
                "connection_verdicts",
                index,
                child,
                f"inequalities {closed_verdict} != polytope {lp_verdict} at {means}",
            )

        if not closed.signaling:
            summary.checks_run += 1
            if noncontextual != closed.classic_satisfied:
                fail(
                    "classic_reduction",
                    index,
                    child,
                    f"no-signaling system: generalized {noncontextual} "
                    f"!= classic {closed.classic_satisfied}",
                )

    return summary


def run_verification(
    kind: str = "both",
    samples: int = 100,
    seed: int = 0,
    run_fme: bool = True,
    fault_injection: bool = False,
) -> list[VerificationSummary]:
    kinds = tuple(KINDS) if kind == "both" else (kind,)
    return [
        verify_kind(k, samples, seed, run_fme=run_fme, fault_injection=fault_injection)
        for k in kinds
    ]
