"""Fourier-Motzkin elimination over exact rational inequality systems.

Used to re-derive, for any concrete system, the bounds on the total
connection mismatch by mechanically projecting the compatibility constraints
onto the mismatch variable: substitute the mismatch-defining equality, then
eliminate the connection expectations one by one, pruning redundant rows by
linear programming between steps. Both steps cancel a variable the same way,
by adding a multiple of a pivot row to a positive multiple of each row; an
elimination that would build over ``MAX_FME_ROWS`` rows raises ``ValueError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import cyclic
from .core import System, _max_signed_sum, as_fraction, max_signed_sum_odd
from .ratlp import LinearProgram, solve

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

# Largest system one elimination may build: the pairing step multiplies row
# counts, so an unbounded input would run unbounded. Matches cli.MAX_GRID_POINTS.
MAX_FME_ROWS = 10_000

Row = tuple[tuple[Fraction, ...], str, Fraction]


class UnknownVariableError(ValueError):
    """The named variable is not part of the system."""


class UnusablePivotError(ValueError):
    """The designated equality row cannot be solved for the variable."""


@dataclass(frozen=True)
class InequalitySystem:
    """Affine rows over named variables; relations are "<=" or "==".

    ``dropped_vacuous`` counts trivially-true rows (no variables, satisfied
    bound) silently discarded by the transformations that produced this
    system.
    """

    variables: tuple[str, ...]
    rows: tuple[Row, ...]
    dropped_vacuous: int = 0

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        n = len(variables)
        rows = []
        for k, (coeffs, relation, bound) in enumerate(self.rows):
            coeffs = tuple(as_fraction(c) for c in coeffs)
            if len(coeffs) != n:
                raise ValueError(f"row {k}: {len(coeffs)} coefficients for {n} variables")
            if relation not in ("<=", "=="):
                raise ValueError(f"row {k}: unknown relation {relation!r}")
            rows.append((coeffs, relation, as_fraction(bound)))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rows", tuple(rows))

    def format(self) -> str:
        """Human-readable rendering, one row per line."""
        lines = []
        for coeffs, relation, bound in self.rows:
            terms = []
            for c, name in zip(coeffs, self.variables):
                if not c:
                    continue
                if c == 1:
                    terms.append(f"+ {name}")
                elif c == -1:
                    terms.append(f"- {name}")
                elif c > 0:
                    terms.append(f"+ {c}*{name}")
                else:
                    terms.append(f"- {-c}*{name}")
            lhs = " ".join(terms).lstrip("+ ") or "0"
            lines.append(f"{lhs} {relation} {bound}")
        return "\n".join(lines)


def _normalized(coeffs: Sequence[Fraction], bound: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    """Scale a row by a positive rational so the coefficients are a primitive
    integer vector; leaves all-zero rows untouched."""
    scale = lcm(*(c.denominator for c in coeffs))
    content = gcd(*(c.numerator * (scale // c.denominator) for c in coeffs))
    if content == 0:
        return tuple(coeffs), bound
    factor = Fraction(scale, content)
    return tuple(c * factor for c in coeffs), bound * factor


def _collect(system: InequalitySystem, idx: int, candidates: list[Row]) -> InequalitySystem:
    """The rows over ``system``'s variables without column ``idx``: normalized,
    vacuous rows dropped, duplicate inequality rows collapsed onto their
    tightest bound, in first-seen order."""
    dropped = system.dropped_vacuous
    rows: dict[object, Row] = {}
    for k, (coeffs, relation, bound) in enumerate(candidates):
        if not any(coeffs):
            if bound >= 0 if relation == "<=" else bound == 0:
                dropped += 1
                continue
            # an unsatisfiable constant row is kept: it records infeasibility
        coeffs, bound = _normalized(coeffs, bound)
        # each equality row is keyed by its own index, so only inequalities merge
        key = coeffs if relation == "<=" else k
        if key not in rows or bound < rows[key][2]:
            rows[key] = (coeffs, relation, bound)
    variables = system.variables[:idx] + system.variables[idx + 1 :]
    return InequalitySystem(variables, tuple(rows.values()), dropped)


def _index(system: InequalitySystem, var: str) -> int:
    if var not in system.variables:
        raise UnknownVariableError(f"unknown variable {var!r}")
    return system.variables.index(var)


def _combine(row: Row, pivot: Row, idx: int) -> Row:
    """``|p| * row - sign(p) * r * pivot`` with column ``idx`` dropped, where
    ``p`` and ``r`` are the pivot's and the row's coefficients on it. The
    column cancels, and the factor on ``row`` is positive, so a ``<=`` row
    keeps its direction. A row without the column is only stripped."""
    coeffs, relation, bound = row
    pivot_coeffs, _, pivot_bound = pivot
    r, p = coeffs[idx], pivot_coeffs[idx]
    if r == 0:
        return coeffs[:idx] + coeffs[idx + 1 :], relation, bound
    f, g = abs(p), r if p > 0 else -r
    combined = [f * x - g * y for x, y in zip(coeffs, pivot_coeffs)]
    del combined[idx]
    return tuple(combined), relation, f * bound - g * pivot_bound


def eliminate(system: InequalitySystem, var: str) -> InequalitySystem:
    """Project the system onto the remaining variables.

    The output is satisfiable for an assignment of the remaining variables
    exactly when some value of ``var`` satisfied the input. ``var`` must not
    appear in any equality row; substitute those out first. Raises
    ``ValueError``, before combining, if it would build over ``MAX_FME_ROWS`` rows.
    """
    idx = _index(system, var)
    keep: list[Row] = []
    uppers: list[Row] = []
    lowers: list[Row] = []
    for k, row in enumerate(system.rows):
        coeffs, relation, bound = row
        if coeffs[idx] == 0:
            keep.append((coeffs[:idx] + coeffs[idx + 1 :], relation, bound))
        elif relation == "==":
            raise UnusablePivotError(f"row {k} is an equality involving {var!r}; substitute it first")
        else:
            (uppers if coeffs[idx] > 0 else lowers).append(row)
    count = len(keep) + len(uppers) * len(lowers)
    if count > MAX_FME_ROWS:
        raise ValueError(f"eliminating {var!r} would build {count} rows, over {MAX_FME_ROWS}")
    keep.extend(_combine(upper, lower, idx) for upper, lower in itertools.product(uppers, lowers))
    return _collect(system, idx, keep)


def substitute_equality(system: InequalitySystem, eq_row_index: int, var: str) -> InequalitySystem:
    """Solve the designated equality row for ``var`` and substitute it away.

    The equality row is removed and ``var`` disappears from the system.
    """
    idx = _index(system, var)
    if not 0 <= eq_row_index < len(system.rows):
        raise IndexError(f"no row {eq_row_index}")
    pivot = system.rows[eq_row_index]
    if pivot[1] != "==":
        raise UnusablePivotError(f"row {eq_row_index} is not an equality")
    if pivot[0][idx] == 0:
        raise UnusablePivotError(
            f"row {eq_row_index} has zero coefficient on {var!r}; unusable pivot"
        )
    out = [_combine(row, pivot, idx) for k, row in enumerate(system.rows) if k != eq_row_index]
    return _collect(system, idx, out)


def remove_redundant(system: InequalitySystem) -> InequalitySystem:
    """Drop every inequality row implied by the rest of the system.

    A row stays only if relaxing it admits a strictly violating point,
    certified by maximizing its left-hand side over the other rows with
    exact LP. Equality rows are never pruned. Idempotent.
    """
    rows = list(system.rows)
    keep = [True] * len(rows)
    for i, (coeffs, relation, bound) in enumerate(rows):
        if relation == "==" or all(c == 0 for c in coeffs):
            continue
        others = tuple(rows[j] for j in range(len(rows)) if keep[j] and j != i)
        lp = LinearProgram(
            system.variables, others, objective=coeffs, sense="max"
        )
        outcome = solve(lp)
        if outcome.status == "unbounded":
            continue
        if outcome.status == "infeasible" or outcome.optimum <= bound:
            keep[i] = False
    return InequalitySystem(
        system.variables,
        tuple(row for flag, row in zip(keep, rows) if flag),
        system.dropped_vacuous,
    )


# ----------------------------------------------------------------------------
# Mismatch-interval derivation by projection
# ----------------------------------------------------------------------------

def _instantiated_system(sys: System) -> tuple[InequalitySystem, tuple[str, ...]]:
    """The compatibility constraints of a concrete system, with the connection
    expectations symbolic and the mismatch variable tied to their sum."""
    prods = sys.product_means()
    s_even = _max_signed_sum(prods, 0)
    s_odd = max_signed_sum_odd(prods)
    marg = cyclic.connection_marginal_pairs(sys)
    n = len(marg)
    rows: list[Row] = []
    # one odd-parity condition over products and connection terms, bounded by
    # 2n - 2: a sign pattern tau over the connection expectations needs the
    # complementary parity on the products part
    for tau in itertools.product((1, -1), repeat=n):
        bound = 2 * n - 2 - (s_even if tau.count(-1) % 2 else s_odd)
        rows.append((tuple(map(Fraction, tau)) + (_ZERO,), "<=", bound))
    # cell nonnegativity: -1 + |m1+m2| <= t_c <= 1 - |m1-m2|
    for c, (m1, m2) in enumerate(marg):
        for sign, bound in ((-1, 1 - abs(m1 + m2)), (1, 1 - abs(m1 - m2))):
            unit = [_ZERO] * (n + 1)
            unit[c] = Fraction(sign)
            rows.append((tuple(unit), "<=", bound))
    # mismatch = n/2 - (sum of connection expectations)/2
    rows.append((tuple([_HALF] * n + [Fraction(1)]), "==", Fraction(n, 2)))
    conn_vars = tuple(f"t_{k}" for k in range(1, n + 1))
    return InequalitySystem(conn_vars + ("delta",), tuple(rows)), conn_vars


def project_to_delta(sys: System) -> InequalitySystem:
    """Eliminate every connection expectation, leaving bounds on the mismatch.

    The defining equality substitutes out the first connection variable; the
    rest fall to Fourier-Motzkin elimination with LP pruning between steps.
    """
    system, conn_vars = _instantiated_system(sys)
    system = substitute_equality(system, len(system.rows) - 1, conn_vars[0])
    system = remove_redundant(system)
    for var in conn_vars[1:]:
        system = eliminate(system, var)
        system = remove_redundant(system)
    return system


def derive_delta_bounds(sys: System) -> tuple[Fraction, Fraction]:
    """(min, max) of the total connection mismatch, by pure projection.

    Independent route: shares no formula with the closed-form interval and no
    polytope construction with the LP oracle.
    """
    return _interval(project_to_delta(sys))


def _interval(projected: InequalitySystem) -> tuple[Fraction, Fraction]:
    """(min, max) of the mismatch read off a system projected onto it."""
    rows = projected.rows
    lows = [bound / c for (c,), relation, bound in rows if relation == "==" or c < 0]
    highs = [bound / c for (c,), relation, bound in rows if relation == "==" or c > 0]
    if not lows or not highs:
        raise RuntimeError("projection produced no two-sided bounds; invalid input system")
    return max(lows), min(highs)
