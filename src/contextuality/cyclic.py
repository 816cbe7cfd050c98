"""Closed-form contextuality analysis of cyclic systems of rank n.

A cyclic system of rank n observes n pairs of +/-1 variables and has n
connections; observed pairs and connections alternate around one cycle of
2n variables. Bell-type systems are the rank-4 cycle and temporal systems
the rank-3 cycle (Kujala, Dzhafarov & Larsson, PRL 115, 150401, 2015). Each
system class in ``core`` declares its cycle as data; everything here reads
that declaration and the rank, never the kind.

Vocabulary: a *connection* is a pair of variables representing the same
measurement under two different conditions, e.g. (A_11, A_12); its joint
distribution is never observed. ``delta`` is the total probability mass of
connection mismatches, the sum of Pr[X != X'] over connections. ``delta0`` is
the smallest such total the observed marginals allow; a system is contextual
when every joint distribution needs strictly more mismatch than that.

With s_odd and s_p the odd- and p-parity signed-sum maxima of the n product
expectations:

- criterion: noncontextual iff s_odd <= n - 2 + 2 delta0;
- degree: max(0, s_odd/2 - (n-2)/2 - delta0);
- mismatch interval: [max(delta0, s_odd/2 - (n-2)/2),
  min(3n/2 - 1 - s_p/2, n - sum over connections of |<X> + <X'>|/2)];
- classic (no-signaling) bound: s_odd <= n - 2.

``analyze`` computes all four in one pass into a ``Report`` that the other
functions read; ``Report.slacks`` gives each as the inequality it enters.
``connections_compatible`` decides fully specified connections in closed form.

The statistic-driven upper bound uses parity p odd for even n and even for
odd n. The all-minus sign pattern on the n connection terms has the parity
of n, so the product terms complete the odd total with the other parity.
At n = 3 the odd-parity variant would cap the all-anticorrelated system's
mismatch at 2, yet an explicit coupling reaches 3, and the LP oracle admits
it. At n = 3 the criterion is the two-sided temporal bound
-1 <= sum of products <= 1 + 2 min(products), by sign enumeration.

Only the ranks 3 and 4 are constructed, and there the LP oracle (a chordal
coupling LP, exact on the whole coupling polytope) confirms these forms; for
n >= 5 they are a conjecture.

With ``causal=True`` (default False), ``minimal_connections``, ``delta0``,
``is_noncontextual``, ``degree`` and ``analyze`` first run ``check_causal``, a
no-op for Bell-type systems; ``bell`` and ``lg`` only name these functions,
and ``lg`` defaults to ``causal=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import CausalityViolationError, System, as_fraction
from .core import _max_signed_sum, max_signed_sum_odd

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def connection_marginal_pairs(sys: System) -> tuple[tuple[Fraction, Fraction], ...]:
    """The two observed marginals coupled by each connection, in canonical order."""
    return tuple((sys.mean(a), sys.mean(b)) for a, b in sys.CONNECTIONS)


def is_no_signaling(sys: System) -> bool:
    """Whether every connection couples two equal marginals."""
    return all(m1 == m2 for m1, m2 in connection_marginal_pairs(sys))


def check_causal(sys: System) -> None:
    """Raise CausalityViolationError unless the connections a time-ordered
    reading pins (``CAUSAL`` on the system class) couple equal marginals.

    The outcome at the first time point cannot depend on when the later
    measurement happens; such a connection then forces no mismatch.
    """
    for k in sys.CAUSAL:
        m1, m2 = map(sys.mean, sys.CONNECTIONS[k])
        if m1 != m2:
            raise CausalityViolationError(
                f"time-ordered treatment needs equal marginals on connection {k + 1}, "
                f"got {m1} != {m2}"
            )


class ConnectionVector(tuple):
    """Per-connection mismatch probabilities Pr[X != X'] in canonical order."""

    def components(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def total(self) -> Fraction:
        return sum(self, _ZERO)


def minimal_connections(sys: System, causal: bool = False) -> ConnectionVector:
    """Smallest mismatch probability each connection's marginals allow.

    For a connection (X, X') this is |Pr[X=1] - Pr[X'=1]| = |<X> - <X'>| / 2,
    attained by stacking as much mass as possible on the diagonal.
    """
    if causal:
        check_causal(sys)
    return ConnectionVector(abs(m1 - m2) * _HALF for m1, m2 in connection_marginal_pairs(sys))


def delta0(sys: System, causal: bool = False) -> Fraction:
    """Total connection mismatch forced by the marginals alone."""
    return minimal_connections(sys, causal).total()


def statistic(sys: System) -> Fraction:
    """Odd-parity signed-sum maximum s_odd of the product expectations."""
    return max_signed_sum_odd(sys.product_means())


def slacks(sys: System) -> dict[str, Fraction]:
    """``analyze(sys).slacks``: every closed form, as the inequality it enters."""
    return analyze(sys).slacks


def is_noncontextual(sys: System, causal: bool = False) -> bool:
    """Signaling-adjusted criterion: s_odd <= n - 2 + 2 delta0."""
    return analyze(sys, causal).noncontextual


def degree(sys: System, causal: bool = False) -> Fraction:
    """Degree of contextuality: max(0, s_odd/2 - (n-2)/2 - delta0).

    Equals max(0, delta_min - delta0): the mismatch mass any joint
    distribution needs beyond what signaling already forces.
    """
    return analyze(sys, causal).degree


def delta_interval(sys: System) -> tuple[Fraction, Fraction]:
    """Exact range of total connection mismatch over all compatible joints."""
    report = analyze(sys)
    return (report.delta_min, report.delta_max)


def classic_checks(sys: System) -> tuple[bool, bool]:
    """(no-signaling holds, classic bound s_odd <= n - 2 holds).

    The two verdicts are logically independent; the signaling-adjusted
    criterion reduces to their conjunction exactly when no-signaling holds.
    """
    report = analyze(sys)
    return (not report.signaling, report.classic_satisfied)


@dataclass(frozen=True)
class Report:
    """Full closed-form verdict for one system. ``slacks`` gives each closed
    form as the inequality it enters: ``criterion`` (n - 2 + 2 delta0 - s_odd)
    and ``classic_inequality`` (n - 2 - s_odd) are nonnegative exactly when
    their bound holds; the interval runs from the larger ``lower_from_*`` to
    the smaller ``upper_from_*``."""

    delta0: Fraction
    statistic: Fraction
    delta_min: Fraction
    delta_max: Fraction
    degree: Fraction
    noncontextual: bool
    signaling: bool
    classic_satisfied: bool
    slacks: dict[str, Fraction] = field(hash=False)  # a dict: hash the rest


def analyze(sys: System, causal: bool = False) -> Report:
    """Every closed form of ``sys``, from one read of its products and marginals."""
    if causal:
        check_causal(sys)
    n = len(sys.CONNECTIONS)  # the rank: observed pairs and connections alike
    marginals = connection_marginal_pairs(sys)
    prods = sys.product_means()
    s_odd, s_p = max_signed_sum_odd(prods), _max_signed_sum(prods, (n + 1) % 2)
    d0 = sum((abs(m1 - m2) for m1, m2 in marginals), _ZERO) * _HALF
    sums = sum((abs(m1 + m2) for m1, m2 in marginals), _ZERO)
    s = {
        "criterion": n - 2 + 2 * d0 - s_odd,
        "classic_inequality": n - 2 - s_odd,
        "lower_from_statistic": s_odd * _HALF - Fraction(n - 2, 2),
        "lower_from_signaling": d0,
        "upper_from_statistic": Fraction(3 * n, 2) - 1 - s_p * _HALF,
        "upper_from_marginals": n - sums * _HALF,
    }
    return Report(
        delta0=d0,
        statistic=s_odd,
        delta_min=max(d0, s["lower_from_statistic"]),
        delta_max=min(s["upper_from_statistic"], s["upper_from_marginals"]),
        # s_odd/2 - (n-2)/2 - delta0 is minus half the criterion slack
        degree=max(_ZERO, -s["criterion"] * _HALF),
        noncontextual=s["criterion"] >= 0,
        signaling=any(m1 != m2 for m1, m2 in marginals),
        classic_satisfied=s["classic_inequality"] >= 0,
        slacks=s,
    )


def connections_compatible(sys: System, connection_means: Sequence) -> bool:
    """Whether connections with the product expectations ``connection_means``
    (<X X'> per connection, in canonical order) fit the observed pairs: each
    <X X'> in [|<X> + <X'>| - 1, 1 - |<X> - <X'>|], where no cell of its table
    is negative, and s_odd(products, connection terms) <= 2n - 2."""
    means = tuple(as_fraction(c) for c in connection_means)
    marginals = connection_marginal_pairs(sys)
    if len(means) != len(marginals):
        raise ValueError(f"expected {len(marginals)} connection values, got {len(means)}")
    return all(
        abs(m1 + m2) - 1 <= t <= 1 - abs(m1 - m2) for (m1, m2), t in zip(marginals, means)
    ) and max_signed_sum_odd(sys.product_means() + means) <= 2 * len(means) - 2
