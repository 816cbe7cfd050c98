"""Closed-form contextuality analysis of Bell-type systems: the rank-4 cycle.

Canonical connection order: (A_11, A_12), (A_21, A_22), (B_11, B_21),
(B_12, B_22). The formulas live in ``cyclic``; this module gives them their
Bell-type names. ``chsh_statistic`` is the odd-parity signed-sum maximum of
the four products, max over settings (i,j) of |sum of the four products -
2<A_ij B_ij>|.
"""

from __future__ import annotations

from operator import itemgetter

from . import cyclic
from .core import BellSystem
from .cyclic import (  # noqa: F401  (re-exported public names)
    analyze,
    classic_checks,
    connection_marginal_pairs,
    degree,
    delta0,
    delta_interval,
    is_noncontextual,
)

BellReport = cyclic.Report
chsh_statistic = cyclic.statistic


class BellConnectionVector(cyclic.ConnectionVector):
    """Per-connection mismatch probabilities Pr[X != X'] in canonical order."""

    c_a1, c_a2, c_b1, c_b2 = (property(itemgetter(k)) for k in range(4))


def minimal_connections(sys: BellSystem) -> BellConnectionVector:
    return BellConnectionVector(cyclic.minimal_connections(sys))
