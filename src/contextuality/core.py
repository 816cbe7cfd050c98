"""Exact rational primitives for systems of pairwise-observed binary measurements.

All quantities are carried by ``fractions.Fraction``; no floating point enters
any computation. A joint distribution over a pair of +/-1 outcomes is the
canonical storage; expectations are derived views of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Union

Rational = Union[Fraction, int, float, str]

OUTCOMES = (1, -1)

_CELL_NAMES = ("(+1,+1)", "(+1,-1)", "(-1,+1)", "(-1,-1)")


class InvalidArityError(ValueError):
    """A signed-sum maximum was requested for an unusable argument count."""


class FrechetViolationError(ValueError):
    """The requested expectations admit no joint distribution."""


class CausalityViolationError(ValueError):
    """Time-ordered treatment was requested for data that violate it."""


# Largest decimal exponent a string may carry. Parsing "1e1000000" builds a
# million-digit integer, and the cost grows about 45x per exponent digit;
# 4300 is CPython's own limit on the digits of an int read from a string,
# which already bounds every other part of a literal.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_fraction(value: Rational) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Strings may be fractions ("3/4") or decimals ("0.75", "2.5e-3"); a
    decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in size raises
    ValueError. Floats are read through their shortest decimal
    representation, so ``0.1`` becomes 1/10 rather than the binary expansion
    of 0.1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent of {value[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in size"
            )
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ----------------------------------------------------------------------------
# Signed-sum maxima over parity-constrained sign patterns
# ----------------------------------------------------------------------------

def _max_signed_sum(values: Iterable[Rational], parity: int) -> Fraction:
    xs = [as_fraction(x) for x in values]
    total = Fraction(0)
    smallest = None
    negatives = 0
    has_zero = False
    for x in xs:
        a = abs(x)
        total += a
        if x < 0:
            negatives += 1
        elif x == 0:
            has_zero = True
        if smallest is None or a < smallest:
            smallest = a
    if negatives % 2 == parity or has_zero:
        return total
    return total - 2 * smallest


def max_signed_sum_even(values: Iterable[Rational]) -> Fraction:
    """Largest value of ``+/-x1 +/- ... +/-xn`` using an even number of minus signs.

    The argument count must be even and at least 2.
    """
    xs = list(values)
    if not xs or len(xs) % 2:
        raise InvalidArityError(
            f"even-parity signed sum needs an even number (>= 2) of values, got {len(xs)}"
        )
    return _max_signed_sum(xs, 0)


def max_signed_sum_odd(values: Iterable[Rational]) -> Fraction:
    """Largest value of ``+/-x1 +/- ... +/-xn`` using an odd number of minus signs."""
    xs = list(values)
    if not xs:
        raise InvalidArityError("odd-parity signed sum needs at least one value")
    return _max_signed_sum(xs, 1)


# ----------------------------------------------------------------------------
# Pair distributions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed invariant: which observed pair, and what went wrong."""

    pair: str
    description: str


@dataclass(frozen=True)
class PairDistribution:
    """Joint distribution of two +/-1 outcomes (X, Y) as four cell probabilities.

    Cells are ordered (+1,+1), (+1,-1), (-1,+1), (-1,-1). Construction does
    not validate; run ``validate`` on the containing system (or ``violations``
    here) to check nonnegativity and normalization.
    """

    pp: Fraction
    pm: Fraction
    mp: Fraction
    mm: Fraction

    def __post_init__(self) -> None:
        for name in ("pp", "pm", "mp", "mm"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    @classmethod
    def from_expectations(
        cls, x_mean: Rational, y_mean: Rational, xy_mean: Rational
    ) -> "PairDistribution":
        """Build the unique pair distribution with the given expectations.

        Raises ``FrechetViolationError`` if any cell probability
        ``(1 + x<X> + y<Y> + xy<XY>)/4`` would be negative, naming both the
        failing cell and the bound on <XY> it corresponds to.
        """
        ex, ey, exy = as_fraction(x_mean), as_fraction(y_mean), as_fraction(xy_mean)
        cells = []
        for x in OUTCOMES:
            for y in OUTCOMES:
                c = (1 + x * ex + y * ey + x * y * exy) / 4
                if c < 0:
                    if x * y > 0:
                        bound = f"<XY> >= -1 + |<X>+<Y>| = {-1 + abs(ex + ey)}"
                    else:
                        bound = f"<XY> <= 1 - |<X>-<Y>| = {1 - abs(ex - ey)}"
                    raise FrechetViolationError(
                        f"cell ({x:+d},{y:+d}) = {c} is negative; violated bound: {bound}"
                    )
                cells.append(c)
        return cls(*cells)

    @property
    def x_mean(self) -> Fraction:
        return self.pp + self.pm - self.mp - self.mm

    @property
    def y_mean(self) -> Fraction:
        return self.pp - self.pm + self.mp - self.mm

    @property
    def xy_mean(self) -> Fraction:
        return self.pp - self.pm - self.mp + self.mm

    def cells(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.pp, self.pm, self.mp, self.mm)

    def cell(self, x: int, y: int) -> Fraction:
        """Probability of (X, Y) = (x, y) for x, y in {+1, -1}."""
        return self.cells()[(0 if x > 0 else 2) + (0 if y > 0 else 1)]

    def violations(self, pair_label: str) -> list[Violation]:
        found = []
        for name, c in zip(_CELL_NAMES, self.cells()):
            if c < 0 or c > 1:
                found.append(Violation(pair_label, f"cell {name} = {c} outside [0, 1]"))
        total = self.pp + self.pm + self.mp + self.mm
        if total != 1:
            found.append(Violation(pair_label, f"cells sum to {total}, expected 1"))
        return found


# ----------------------------------------------------------------------------
# Observed systems
# ----------------------------------------------------------------------------

class _Cycle:
    """Behaviour shared by the observed layouts, each a cycle declared as data.

    A layout declares ``KIND`` (its document name), ``PAIRS`` (the condition
    of each observed pair, in field order) and ``CONNECTIONS``: per
    connection, its two ends as (pair index, side), side 0 being the pair's
    first outcome and side 1 its second, in canonical connection order.
    ``CAUSAL`` lists the connections whose marginals a time-ordered reading
    forces equal.
    """

    KIND: ClassVar[str]
    PAIRS: ClassVar[tuple[tuple[int, int], ...]]
    CONNECTIONS: ClassVar[tuple[tuple[tuple[int, int], tuple[int, int]], ...]]
    CAUSAL: ClassVar[tuple[int, ...]] = ()

    def pair(self, i: int, j: int) -> PairDistribution:
        return getattr(self, f"p{i}{j}")

    def pairs(self) -> tuple[PairDistribution, ...]:
        """The observed pair distributions in ``PAIRS`` order."""
        return tuple(self.pair(*key) for key in self.PAIRS)

    def mean(self, end: tuple[int, int]) -> Fraction:
        """Marginal expectation of one connection end (pair index, side)."""
        pair = self.pair(*self.PAIRS[end[0]])
        return pair.y_mean if end[1] else pair.x_mean

    def product_means(self) -> tuple[Fraction, ...]:
        """The product expectation of each observed pair, in ``PAIRS`` order."""
        return tuple(pair.xy_mean for pair in self.pairs())


@dataclass(frozen=True)
class BellSystem(_Cycle):
    """Four observed pair distributions, one per joint setting (i, j) in {1,2}^2.

    ``pij`` holds the distribution of (A_ij, B_ij): the first party's outcome
    under setting i paired with the second party's outcome under setting j.
    Connections: (A_11, A_12), (A_21, A_22), (B_11, B_21), (B_12, B_22).
    """

    p11: PairDistribution
    p12: PairDistribution
    p21: PairDistribution
    p22: PairDistribution

    KIND: ClassVar[str] = "bell"
    PAIRS: ClassVar[tuple[tuple[int, int], ...]] = ((1, 1), (1, 2), (2, 1), (2, 2))
    CONNECTIONS: ClassVar = (
        ((0, 0), (1, 0)),
        ((2, 0), (3, 0)),
        ((0, 1), (2, 1)),
        ((1, 1), (3, 1)),
    )


@dataclass(frozen=True)
class LGSystem(_Cycle):
    """Three observed pair distributions for time pairs (1,2), (1,3), (2,3).

    ``pij`` with i < j holds the distribution of (Q_ij, Q_ji): Q_ij is the
    outcome recorded at time i when the condition pairs times i and j.
    Connections: (Q_12, Q_13), (Q_21, Q_23), (Q_31, Q_32); the first one
    couples the earliest time, which a later measurement cannot disturb.
    """

    p12: PairDistribution
    p13: PairDistribution
    p23: PairDistribution

    KIND: ClassVar[str] = "lg"
    PAIRS: ClassVar[tuple[tuple[int, int], ...]] = ((1, 2), (1, 3), (2, 3))
    CONNECTIONS: ClassVar = (((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (2, 1)))
    CAUSAL: ClassVar[tuple[int, ...]] = (0,)


System = Union[BellSystem, LGSystem]

KINDS: dict[str, type] = {cls.KIND: cls for cls in (BellSystem, LGSystem)}


def validate(system: System) -> list[Violation]:
    """Collect every violated distribution invariant; empty list means valid.

    Never raises: an invalid system is reported, not rejected.
    """
    if not isinstance(system, _Cycle):
        raise TypeError(f"expected BellSystem or LGSystem, got {type(system).__name__}")
    found: list[Violation] = []
    for (i, j), pair in zip(system.PAIRS, system.pairs()):
        found.extend(pair.violations(f"({i},{j})"))
    return found
