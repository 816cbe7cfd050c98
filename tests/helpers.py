"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they check: signed-sum maxima are
recomputed by exhaustive sign enumeration, small LPs by enumerating all
basic solutions of the constraint system, and the coupling program over all
atoms is built from the variable cycle alone, apart from the oracle's
chordal program.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from contextuality import oracle
from contextuality.core import BellSystem, LGSystem, PairDistribution


def enumerated_signed_max(values, parity: int) -> Fraction:
    """Max of +/-x1 ... +/-xn over all sign patterns with the given minus-count
    parity, by brute force over integers: every value times the lcm of their
    denominators."""
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    best = None
    for signs in itertools.product((1, -1), repeat=len(scaled)):
        if sum(1 for s in signs if s < 0) % 2 != parity:
            continue
        total = sum(s * v for s, v in zip(signs, scaled))
        if best is None or total > best:
            best = total
    return Fraction(best, scale)


@lru_cache(maxsize=None)
def atom_rows(kind: str) -> tuple[tuple[int, ...], ...]:
    """The 0/1 rows of the coupling program over all 2^(2n) atoms of ``kind``:
    four cells per observed pair, then four per connection, cells ordered
    (+,+), (+,-), (-,+), (-,-). Atom k gives variable v of ``oracle._CYCLES``
    the outcome -1 when bit (2n - 1 - v) of k is set, as ``witness_joint`` does."""
    variables, observed, connections = oracle._CYCLES[kind]
    n = len(variables)

    def value(atom, name):
        return -1 if atom >> (n - 1 - variables.index(name)) & 1 else 1

    return tuple(
        tuple(int((value(a, v1), value(a, v2)) == cell) for a in range(1 << n))
        for v1, v2 in observed + connections
        for cell in itertools.product((1, -1), repeat=2)
    )


def brute_force_lp(lp):
    """(feasible, optimum) for a small LP whose feasible set is bounded.

    Enumerates every basic solution: each n-subset of the constraint rows
    (including x >= 0 rows) with full rank, solved exactly, then filtered for
    feasibility. Only valid when every optimum sits at such a vertex, i.e.
    when the feasible region is bounded (add explicit box rows if needed).
    """
    n = len(lp.variables)
    rows = []
    for coeffs, rel, b in lp.constraints:
        if rel == "<=":
            rows.append((coeffs, b, "le"))
        elif rel == ">=":
            rows.append((tuple(-c for c in coeffs), -b, "le"))
        else:
            rows.append((coeffs, b, "eq"))
    for j, name in enumerate(lp.variables):
        if name in lp.nonneg:
            unit = tuple(-Fraction(k == j) for k in range(n))
            rows.append((unit, Fraction(0), "le"))
    eqs = [(c, b) for c, b, k in rows if k == "eq"]
    les = [(c, b) for c, b, k in rows if k == "le"]
    vertices = []
    for combo in itertools.combinations(range(len(rows)), n):
        mat = [list(rows[i][0]) + [rows[i][1]] for i in combo]
        pivots = []
        r = 0
        for c in range(n):
            pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
            if pr is None:
                continue
            mat[r], mat[pr] = mat[pr], mat[r]
            piv = mat[r][c]
            mat[r] = [x / piv for x in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c] != 0:
                    f = mat[i][c]
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
        if r < n:
            continue
        x = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            x[c] = mat[i][n]
        if all(sum(c * v for c, v in zip(cs, x)) == b for cs, b in eqs) and all(
            sum(c * v for c, v in zip(cs, x)) <= b for cs, b in les
        ):
            vertices.append(tuple(x))
    if not vertices:
        return False, None
    if lp.sense == "feasibility":
        return True, None
    values = [
        sum((c * v for c, v in zip(lp.objective, x)), Fraction(0)) for x in vertices
    ]
    return True, (min(values) if lp.sense == "min" else max(values))


def bell_from_expectations(marginals_a, marginals_b, products) -> BellSystem:
    """Build a Bell system from per-setting (<A>, <B>, <AB>) triples in
    setting order (1,1), (1,2), (2,1), (2,2)."""
    pairs = [
        PairDistribution.from_expectations(a, b, p)
        for a, b, p in zip(marginals_a, marginals_b, products)
    ]
    return BellSystem(*pairs)


def lg_from_expectations(first, second, products) -> LGSystem:
    """Build a temporal system from (<Q_ij>, <Q_ji>, <Q_ij Q_ji>) triples in
    time-pair order (1,2), (1,3), (2,3)."""
    pairs = [
        PairDistribution.from_expectations(x, y, p)
        for x, y, p in zip(first, second, products)
    ]
    return LGSystem(*pairs)
