"""Canonical and seeded-random system constructors.

All sampling is rational with bounded denominators so that every downstream
comparison (closed form vs LP vs projection) is an exact equality. The same
seed always yields the same system; independent child seeds come from
``split_seed``.
"""

from __future__ import annotations

import random
from fractions import Fraction

# hashlib's own blake2b: importing hashlib itself loads OpenSSL, which adds
# about 3.5 MB to the resident size of every process using the library
from _blake2 import blake2b

from . import cyclic
from .core import (
    KINDS,
    BellSystem,
    FrechetViolationError,
    LGSystem,
    PairDistribution,
    Rational,
    as_fraction,
    validate,
)

DENOMINATOR_BOUND = 64
MAX_ATTEMPTS = 10_000

_HALF = Fraction(1, 2)


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def split_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th child seed: first 8 bytes of blake2b("seed:index")."""
    digest = blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def pr_signaling_family(delta: Rational, epsilon: Rational) -> BellSystem:
    """The two-parameter family: all four products +/-delta, signaling knob epsilon.

    Pairs (1,1), (1,2), (2,1) have zero marginals and product expectation
    delta; pair (2,2) has <A> = epsilon, <B> = -epsilon and product -delta.
    epsilon = 0 gives an exactly no-signaling system (the algebraically
    maximal box at delta = 1); any other epsilon violates no-signaling.
    """
    d, e = as_fraction(delta), as_fraction(epsilon)
    correlated = PairDistribution.from_expectations(0, 0, d)
    signaling = PairDistribution.from_expectations(e, -e, -d)
    return BellSystem(correlated, correlated, correlated, signaling)


def deterministic_bell(a: int, b: int) -> BellSystem:
    """All four pairs concentrated on the single outcome (a, b)."""
    if a not in (1, -1) or b not in (1, -1):
        raise ValueError("outcomes must be +1 or -1")
    pair = PairDistribution.from_expectations(a, b, a * b)
    return BellSystem(pair, pair, pair, pair)


def deterministic_lg(q: int) -> LGSystem:
    """All three pairs concentrated on the single outcome (q, q)."""
    if q not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    pair = PairDistribution.from_expectations(q, q, 1)
    return LGSystem(pair, pair, pair)


def lg_anticorrelated() -> LGSystem:
    """All three products -1 with zero marginals: the classic temporal extreme."""
    pair = PairDistribution.from_expectations(0, 0, -1)
    return LGSystem(pair, pair, pair)


def _random_pair(rng: random.Random) -> PairDistribution:
    while True:
        cells = [rng.randint(0, DENOMINATOR_BOUND) for _ in range(4)]
        total = sum(cells)
        if total:
            return PairDistribution(*(Fraction(c, total) for c in cells))


def _project_no_signaling(cls: type, pairs: list[PairDistribution]):
    """Replace both marginals of every connection by their average, keeping
    each pair's product expectation."""
    means = [[pair.x_mean, pair.y_mean] for pair in pairs]
    for (p1, side1), (p2, side2) in cls.CONNECTIONS:
        average = (means[p1][side1] + means[p2][side2]) * _HALF
        means[p1][side1] = means[p2][side2] = average
    return cls(
        *(
            PairDistribution.from_expectations(x, y, pair.xy_mean)
            for (x, y), pair in zip(means, pairs)
        )
    )


def random_system(kind: str, seed: int, constraint: str = "none"):
    """Sample a valid system of the given kind ("bell" or "lg").

    constraint:
      - "none": arbitrary marginals (generically signaling).
      - "no_signaling": marginals projected to their across-condition
        averages, resampling whenever the projected cells go negative.
      - "signaling_only": resample until at least one marginal pair differs.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    if constraint not in ("none", "no_signaling", "signaling_only"):
        raise ValueError(f"unknown constraint {constraint!r}")
    rng = random.Random(seed)
    cls = KINDS[kind]
    for _ in range(MAX_ATTEMPTS):
        pairs = [_random_pair(rng) for _ in cls.PAIRS]
        if constraint == "no_signaling":
            try:
                sys = _project_no_signaling(cls, pairs)
            except FrechetViolationError:
                continue
        else:
            sys = cls(*pairs)
            if constraint == "signaling_only" and cyclic.is_no_signaling(sys):
                continue
        if not validate(sys):
            return sys
    raise GenerationError(
        f"no valid {kind} system with constraint {constraint!r} in {MAX_ATTEMPTS} attempts"
    )


def random_connection_means(sys, seed: int, inside_bounds: bool) -> tuple[Fraction, ...]:
    """Sample one product expectation per connection.

    With ``inside_bounds=True`` each value is drawn inside the cell
    nonnegativity interval its two marginals allow (so the point is feasible
    at the single-connection level); with ``False`` it is drawn uniformly on
    a rational grid over [-1, 1] and frequently lands outside.
    """
    marg = cyclic.connection_marginal_pairs(sys)
    rng = random.Random(seed)
    means = []
    for m1, m2 in marg:
        r = Fraction(rng.randint(0, DENOMINATOR_BOUND), DENOMINATOR_BOUND)
        if inside_bounds:
            lo = -1 + abs(m1 + m2)
            hi = 1 - abs(m1 - m2)
            means.append(lo + (hi - lo) * r)
        else:
            means.append(-1 + 2 * r)
    return tuple(means)
