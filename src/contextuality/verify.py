"""Cross-route verification harness.

For seeded random systems, every quantity this library computes in closed
form is recomputed by the LP oracle and by Fourier-Motzkin projection. Each
of the ``CHECKS`` is one row pairing a closed-form value with another route's
value, compared with exact rational equality. Any difference is a defect in
one of the routes; zero tolerance applies.
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


def _comparisons(sys, index: int, child: int):
    """Rows (check, closed-form value, other route's value, detail) in ``CHECKS`` order."""
    # the generalized treatment: temporal systems without the causal pin
    closed = cyclic.analyze(sys)
    closed_interval = (closed.delta_min, closed.delta_max)
    polytope = oracle.report(sys, causal=False)
    lp_interval = (polytope.delta_min, polytope.delta_max)
    oracle_degree = max(_ZERO, polytope.delta_min - closed.delta0)
    yield ("degree", closed.degree, oracle_degree,
           f"closed {closed.degree} != oracle {oracle_degree}")
    yield ("interval", closed_interval, lp_interval,
           f"closed {closed_interval} != oracle {lp_interval}")
    fme_interval = fme.derive_delta_bounds(sys)
    yield ("fme_interval", fme_interval, lp_interval,
           f"fme {fme_interval} != oracle {lp_interval}")
    yield ("criterion_vs_polytope", closed.noncontextual, polytope.feasible_at_c0,
           f"compatible_at_c0 {polytope.feasible_at_c0} != noncontextual {closed.noncontextual}")
    means = random_connection_means(sys, split_seed(child, 1), inside_bounds=bool(index % 2))
    by_inequalities, by_polytope = oracle.compatibility_verdicts(sys, means)
    yield ("connection_verdicts", by_inequalities, by_polytope,
           f"inequalities {by_inequalities} != polytope {by_polytope} at {means}")
    if not closed.signaling:
        yield ("classic_reduction", closed.noncontextual, closed.classic_satisfied,
               f"no-signaling system: generalized {closed.noncontextual} "
               f"!= classic {closed.classic_satisfied}")


def verify_kind(kind: str, samples: int, seed: int) -> VerificationSummary:
    """Run every cross-route check on ``samples`` seeded systems of one kind.

    Each sample yields one row per check, ``classic_reduction`` on no-signaling ones only.
    A row whose two values differ is recorded as a ``CheckFailure``.
    """
    summary = VerificationSummary(kind=kind, samples=samples)
    for index in range(samples):
        child = split_seed(seed, index)
        sys = random_system(kind, child, _constraint_for(index))
        for check, closed, other, detail in _comparisons(sys, index, child):
            summary.checks_run += 1
            if closed != other:
                summary.failures.append(CheckFailure(check, kind, index, child, detail))
    return summary


def run_verification(
    kind: str = "both", samples: int = 100, seed: int = 0
) -> list[VerificationSummary]:
    kinds = tuple(KINDS) if kind == "both" else (kind,)
    return [verify_kind(k, samples, seed) for k in kinds]
