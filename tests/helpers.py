"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they check: signed-sum maxima are
recomputed by exhaustive sign enumeration, small LPs by enumerating all
basic solutions of the constraint system, the coupling program over all
atoms is built from the variable cycle alone, apart from the oracle's
chordal program, Fourier-Motzkin steps combine and merge whole rows one
at a time, apart from the projection's compiled plans, and LP certificates
are checked in ``Fraction`` arithmetic on the coefficients as stated, apart
from ``ratlp``'s integer checks.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from contextuality import cyclic, fme, oracle
from contextuality.ratlp import CertificateError
from contextuality.core import (
    BellSystem,
    LGSystem,
    PairDistribution,
    _max_signed_sum,
    max_signed_sum_odd,
)


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


# ----------------------------------------------------------------------------
# Reference Fourier-Motzkin elimination, one Fraction row at a time
# ----------------------------------------------------------------------------

def _reference_normalized(coeffs, bound):
    scale = math.lcm(*(c.denominator for c in coeffs))
    content = math.gcd(*(c.numerator * (scale // c.denominator) for c in coeffs))
    if content == 0:
        return tuple(coeffs), bound
    factor = Fraction(scale, content)
    return tuple(c * factor for c in coeffs), bound * factor


def _reference_collect(system, idx, candidates):
    """The rows without column ``idx``: normalized, vacuous rows dropped,
    parallel inequality rows merged onto their tightest bound, first-seen."""
    dropped = system.dropped_vacuous
    rows = {}
    for k, (coeffs, relation, bound) in enumerate(candidates):
        if not any(coeffs):
            if bound >= 0 if relation == "<=" else bound == 0:
                dropped += 1
                continue
        coeffs, bound = _reference_normalized(coeffs, bound)
        key = coeffs if relation == "<=" else k
        if key not in rows or bound < rows[key][2]:
            rows[key] = (coeffs, relation, bound)
    variables = system.variables[:idx] + system.variables[idx + 1 :]
    return fme.InequalitySystem(variables, tuple(rows.values()), dropped)


def _reference_combine(row, pivot, idx):
    """``|p| * row - sign(p) * r * pivot`` with column ``idx`` dropped."""
    coeffs, relation, bound = row
    pivot_coeffs, _, pivot_bound = pivot
    r, p = coeffs[idx], pivot_coeffs[idx]
    if r == 0:
        return coeffs[:idx] + coeffs[idx + 1 :], relation, bound
    f, g = abs(p), r if p > 0 else -r
    combined = [f * x - g * y for x, y in zip(coeffs, pivot_coeffs)]
    del combined[idx]
    return tuple(combined), relation, f * bound - g * pivot_bound


def reference_eliminate(system, var):
    """Fourier-Motzkin elimination of ``var``, built row by row in Fractions;
    raises as ``fme.eliminate`` does."""
    if var not in system.variables:
        raise fme.UnknownVariableError(f"unknown variable {var!r}")
    idx = system.variables.index(var)
    keep, uppers, lowers = [], [], []
    for k, row in enumerate(system.rows):
        coeffs, relation, _ = row
        if coeffs[idx] == 0:
            keep.append((coeffs[:idx] + coeffs[idx + 1 :], relation, row[2]))
        elif relation == "==":
            raise fme.UnusablePivotError(f"row {k} is an equality involving {var!r}; substitute it first")
        else:
            (uppers if coeffs[idx] > 0 else lowers).append(row)
    count = len(keep) + len(uppers) * len(lowers)
    if count > fme.MAX_FME_ROWS:
        raise ValueError(f"eliminating {var!r} would build {count} rows, over {fme.MAX_FME_ROWS}")
    keep.extend(_reference_combine(u, lo, idx) for u, lo in itertools.product(uppers, lowers))
    return _reference_collect(system, idx, keep)


def reference_substitute(system, eq_row_index, var):
    """Substitution of the equality row ``eq_row_index`` solved for ``var``,
    built row by row in Fractions; raises as ``fme.substitute_equality`` does."""
    if var not in system.variables:
        raise fme.UnknownVariableError(f"unknown variable {var!r}")
    idx = system.variables.index(var)
    if not 0 <= eq_row_index < len(system.rows):
        raise IndexError(f"no row {eq_row_index}")
    pivot = system.rows[eq_row_index]
    if pivot[1] != "==":
        raise fme.UnusablePivotError(f"row {eq_row_index} is not an equality")
    if pivot[0][idx] == 0:
        raise fme.UnusablePivotError(f"row {eq_row_index} has zero coefficient on {var!r}; unusable pivot")
    out = [_reference_combine(row, pivot, idx) for k, row in enumerate(system.rows) if k != eq_row_index]
    return _reference_collect(system, idx, out)


def reference_start_system(sys):
    """The compatibility constraints of a concrete system, with the connection
    expectations t_k symbolic and the mismatch variable tied to their sum."""
    prods = sys.product_means()
    s_even, s_odd = _max_signed_sum(prods, 0), max_signed_sum_odd(prods)
    marg = cyclic.connection_marginal_pairs(sys)
    n = len(marg)
    zero, half = Fraction(0), Fraction(1, 2)
    rows = []
    for tau in itertools.product((1, -1), repeat=n):
        bound = 2 * n - 2 - (s_even if tau.count(-1) % 2 else s_odd)
        rows.append((tuple(map(Fraction, tau)) + (zero,), "<=", bound))
    for c, (m1, m2) in enumerate(marg):
        for sign, bound in ((-1, 1 - abs(m1 + m2)), (1, 1 - abs(m1 - m2))):
            unit = [zero] * (n + 1)
            unit[c] = Fraction(sign)
            rows.append((tuple(unit), "<=", bound))
    rows.append((tuple([half] * n + [Fraction(1)]), "==", Fraction(n, 2)))
    names = tuple(f"t_{k}" for k in range(1, n + 1)) + ("delta",)
    return fme.InequalitySystem(names, tuple(rows))


def reference_projection(sys):
    """``fme.project_to_delta`` by the reference steps."""
    system = reference_start_system(sys)
    system = reference_substitute(system, len(system.rows) - 1, system.variables[0])
    for var in system.variables[:-1]:
        system = reference_eliminate(system, var)
    return system


# ----------------------------------------------------------------------------
# Reference certificate check, one Fraction at a time
# ----------------------------------------------------------------------------

_COMPARE = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}


def _reference_row_value(coeffs, values) -> Fraction:
    total = Fraction(0)
    for c, v in zip(coeffs, values):
        if c and v:
            total += c * v
    return total


def _reference_check_witness(lp, witness) -> None:
    for name in lp.variables:
        if name in lp.nonneg and witness[name] < 0:
            raise CertificateError(f"witness violates {name} >= 0")
    values = [witness[name] for name in lp.variables]
    for k, (coeffs, relation, bound) in enumerate(lp.constraints):
        value = _reference_row_value(coeffs, values)
        if not _COMPARE[relation](value, bound):
            raise CertificateError(f"witness violates constraint {k}: {value} {relation} {bound}")


def _reference_check_multipliers(lp, y, objective, sign) -> Fraction:
    if y is None or len(y) != len(lp.constraints):
        raise CertificateError("missing or mis-sized multipliers")
    combo = [Fraction(0)] * len(lp.variables)
    total = Fraction(0)
    for k, (yk, (coeffs, relation, bound)) in enumerate(zip(y, lp.constraints)):
        if relation == "<=" and sign * yk > 0 or relation == ">=" and sign * yk < 0:
            raise CertificateError(f"multiplier sign condition violated on constraint {k}")
        if yk:
            for j, c in enumerate(coeffs):
                combo[j] += yk * c
            total += yk * bound
    for j, name in enumerate(lp.variables):
        reduced = objective[j] - combo[j]
        if name in lp.nonneg:
            if sign * reduced < 0:
                raise CertificateError(f"reduced cost condition violated on {name}")
        elif reduced != 0:
            raise CertificateError(f"reduced cost nonzero on free variable {name}")
    return total


def reference_check_certificate(lp, outcome) -> None:
    """``ratlp.check_certificate`` in ``Fraction`` arithmetic: the same
    conditions in the same order, raising the same messages, for outcomes
    whose entries are ``Fraction``s and whose witness names every variable."""
    if outcome.status == "unbounded":
        return
    zero = (Fraction(0),) * len(lp.variables)
    if outcome.status == "infeasible":
        if _reference_check_multipliers(lp, outcome.farkas, zero, 1) <= 0:
            raise CertificateError("Farkas combination does not witness infeasibility")
        return
    if outcome.status != "optimal":
        raise CertificateError(f"unknown status {outcome.status!r}")
    if outcome.witness is None or outcome.optimum is None:
        raise CertificateError("optimal outcome must carry witness, dual, and optimum")
    _reference_check_witness(lp, outcome.witness)
    objective = lp.objective or zero
    attained = _reference_row_value(objective, [outcome.witness[name] for name in lp.variables])
    if attained != outcome.optimum:
        raise CertificateError(f"witness attains {attained}, claimed {outcome.optimum}")
    bound = _reference_check_multipliers(lp, outcome.dual, objective, -1 if lp.sense == "max" else 1)
    if bound != outcome.optimum:
        raise CertificateError(f"dual objective {bound} differs from optimum {outcome.optimum}")
