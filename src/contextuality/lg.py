"""Closed-form contextuality analysis of temporal (Leggett-Garg-type)
systems: the rank-3 cycle.

The three connections couple the outcome at each time point across the two
conditions in which it is recorded: (Q_12, Q_13), (Q_21, Q_23), (Q_31, Q_32).
The formulas live in ``cyclic``; this module gives them their temporal names
and adds the time-ordered reading.

In the time-ordered reading (``causal=True``, the default) the outcome at the
first time point cannot depend on when the later measurement happens, so
<Q_12> must equal <Q_13>, else CausalityViolationError is raised, and the
first connection contributes nothing to ``delta0``. Pass ``causal=False`` to
treat the three labels as arbitrary conditions and charge the first
connection like the others. ``delta_interval`` and ``classic_checks`` charge
all three connections and do not depend on the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from . import cyclic
from .core import LGSystem
from .cyclic import classic_checks, connection_marginal_pairs, delta_interval  # noqa: F401

lgsz_statistic = cyclic.statistic


class LGConnectionVector(cyclic.ConnectionVector):
    """Per-connection mismatch probabilities Pr[X != X'] in canonical order."""

    c_1, c_2, c_3 = (property(itemgetter(k)) for k in range(3))


@dataclass(frozen=True)
class LGReport(cyclic.Report):
    """Full closed-form verdict for one temporal system."""

    causal: bool


def _checked(sys: LGSystem, causal: bool) -> LGSystem:
    if causal:
        cyclic.check_causal(sys)
    return sys


def minimal_connections(sys: LGSystem, causal: bool = True) -> LGConnectionVector:
    return LGConnectionVector(cyclic.minimal_connections(_checked(sys, causal)))


def delta0(sys: LGSystem, causal: bool = True) -> Fraction:
    return cyclic.delta0(_checked(sys, causal))


def is_noncontextual(sys: LGSystem, causal: bool = True) -> bool:
    return cyclic.is_noncontextual(_checked(sys, causal))


def degree(sys: LGSystem, causal: bool = True) -> Fraction:
    return cyclic.degree(_checked(sys, causal))


def analyze(sys: LGSystem, causal: bool = True) -> LGReport:
    return LGReport(**vars(cyclic.analyze(_checked(sys, causal))), causal=causal)
