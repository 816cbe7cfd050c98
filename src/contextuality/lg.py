"""Closed-form contextuality analysis of temporal systems: the rank-3 cycle.

Connections (Q_12, Q_13), (Q_21, Q_23), (Q_31, Q_32) couple each time point's
outcome across the two conditions that record it. ``cyclic`` holds the
formulas and the time-ordered reading, which is the default here
(``causal=True``); ``delta_interval`` and ``classic_checks`` take no flag.
"""

from fractions import Fraction

from . import cyclic
from .core import LGSystem
from .cyclic import classic_checks, connection_marginal_pairs, delta_interval, statistic  # noqa: F401

lgsz_statistic = statistic


def minimal_connections(sys: LGSystem, causal: bool = True) -> cyclic.ConnectionVector:
    return cyclic.minimal_connections(sys, causal)


def delta0(sys: LGSystem, causal: bool = True) -> Fraction:
    return cyclic.delta0(sys, causal)


def is_noncontextual(sys: LGSystem, causal: bool = True) -> bool:
    return cyclic.is_noncontextual(sys, causal)


def degree(sys: LGSystem, causal: bool = True) -> Fraction:
    return cyclic.degree(sys, causal)


def analyze(sys: LGSystem, causal: bool = True) -> cyclic.Report:
    return cyclic.analyze(sys, causal)
