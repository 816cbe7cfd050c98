"""Closed-form contextuality analysis of Bell-type systems: the rank-4 cycle.

Canonical connection order: (A_11, A_12), (A_21, A_22), (B_11, B_21),
(B_12, B_22). The formulas live in ``cyclic``, where ``causal`` changes
nothing for Bell-type systems: they pin no connection. ``chsh_statistic`` is
the odd-parity signed-sum maximum of the four products, max over settings
(i,j) of |sum of the four products - 2<A_ij B_ij>|.
"""

from .cyclic import (  # noqa: F401  (re-exported public names)
    analyze, classic_checks, connection_marginal_pairs, degree, delta0, delta_interval,
    is_noncontextual, minimal_connections, statistic,
)

chsh_statistic = statistic
