"""Fourier-Motzkin elimination over exact rational inequality systems.

Used to re-derive, for any concrete system, the bounds on the total
connection mismatch by mechanically projecting the compatibility constraints
onto the mismatch variable: substitute the mismatch-defining equality, then
eliminate the connection expectations one by one, pruning redundant rows by
linear programming between steps.
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
    scale = lcm(*(c.denominator for c in coeffs), 1)
    ints = [int(c * scale) for c in coeffs]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    if content == 0:
        return tuple(coeffs), bound
    factor = Fraction(scale, content)
    return tuple(c * factor for c in coeffs), bound * factor


def _collect(
    variables: tuple[str, ...],
    candidates: list[Row],
    dropped_before: int,
) -> InequalitySystem:
    """Normalize, drop vacuous rows, and collapse duplicate inequality rows
    onto their tightest bound, preserving first-seen order."""
    dropped = dropped_before
    best: dict[tuple, Fraction] = {}
    order: list[tuple] = []
    equalities: list[tuple[int, Row]] = []
    position = 0
    for coeffs, relation, bound in candidates:
        if all(c == 0 for c in coeffs):
            if relation == "==" and bound == 0 or relation == "<=" and bound >= 0:
                dropped += 1
                continue
            # an unsatisfiable constant row is kept: it records infeasibility
        coeffs, bound = _normalized(coeffs, bound)
        if relation == "==":
            equalities.append((position, (coeffs, relation, bound)))
            position += 1
            continue
        key = coeffs
        if key in best:
            if bound < best[key]:
                best[key] = bound
        else:
            best[key] = bound
            order.append((position, key))
            position += 1
    merged: list[tuple[int, Row]] = [(pos, (key, "<=", best[key])) for pos, key in order]
    merged.extend(equalities)
    merged.sort(key=lambda item: item[0])
    return InequalitySystem(variables, tuple(row for _, row in merged), dropped)


def eliminate(system: InequalitySystem, var: str) -> InequalitySystem:
    """Project the system onto the remaining variables.

    The output is satisfiable for an assignment of the remaining variables
    exactly when some value of ``var`` satisfied the input. ``var`` must not
    appear in any equality row; substitute those out first.
    """
    if var not in system.variables:
        raise UnknownVariableError(f"unknown variable {var!r}")
    idx = system.variables.index(var)
    for k, (coeffs, relation, _) in enumerate(system.rows):
        if relation == "==" and coeffs[idx] != 0:
            raise UnusablePivotError(
                f"row {k} is an equality involving {var!r}; substitute it first"
            )
    keep: list[Row] = []
    uppers: list[tuple[tuple[Fraction, ...], Fraction, Fraction]] = []
    lowers: list[tuple[tuple[Fraction, ...], Fraction, Fraction]] = []
    for coeffs, relation, bound in system.rows:
        c = coeffs[idx]
        stripped = coeffs[:idx] + coeffs[idx + 1 :]
        if c == 0:
            keep.append((stripped, relation, bound))
        elif c > 0:
            uppers.append((stripped, c, bound))
        else:
            lowers.append((stripped, c, bound))
    for (uc, a, ub), (lc, d, lb) in itertools.product(uppers, lowers):
        # a > 0, d < 0: (-d) * upper + a * lower cancels the variable
        coeffs = tuple(-d * x + a * y for x, y in zip(uc, lc))
        keep.append((coeffs, "<=", -d * ub + a * lb))
    variables = system.variables[:idx] + system.variables[idx + 1 :]
    return _collect(variables, keep, system.dropped_vacuous)


def substitute_equality(system: InequalitySystem, eq_row_index: int, var: str) -> InequalitySystem:
    """Solve the designated equality row for ``var`` and substitute it away.

    The equality row is removed and ``var`` disappears from the system.
    """
    if var not in system.variables:
        raise UnknownVariableError(f"unknown variable {var!r}")
    idx = system.variables.index(var)
    try:
        coeffs_eq, relation, bound_eq = system.rows[eq_row_index]
    except IndexError as exc:
        raise IndexError(f"no row {eq_row_index}") from exc
    if relation != "==":
        raise UnusablePivotError(f"row {eq_row_index} is not an equality")
    a = coeffs_eq[idx]
    if a == 0:
        raise UnusablePivotError(
            f"row {eq_row_index} has zero coefficient on {var!r}; unusable pivot"
        )
    # var = const + sum(expr[j] * x_j) over the remaining variables
    expr = [-c / a for j, c in enumerate(coeffs_eq) if j != idx]
    const = bound_eq / a
    out: list[Row] = []
    for k, (coeffs, relation, bound) in enumerate(system.rows):
        if k == eq_row_index:
            continue
        cv = coeffs[idx]
        stripped = [c for j, c in enumerate(coeffs) if j != idx]
        if cv:
            stripped = [c + cv * e for c, e in zip(stripped, expr)]
            bound = bound - cv * const
        out.append((tuple(stripped), relation, bound))
    variables = system.variables[:idx] + system.variables[idx + 1 :]
    return _collect(variables, out, system.dropped_vacuous)


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

def _parity_rows(
    n_conn: int, bound_even_tau: Fraction, bound_odd_tau: Fraction, n_extra: int
) -> list[Row]:
    """One row per sign pattern tau over the connection expectations:
    tau . t <= (bound depending on tau's parity). ``n_extra`` trailing zero
    coefficients make room for the mismatch variable."""
    rows: list[Row] = []
    for tau in itertools.product((1, -1), repeat=n_conn):
        minus = sum(1 for t in tau if t < 0)
        bound = bound_odd_tau if minus % 2 else bound_even_tau
        rows.append((tuple(Fraction(t) for t in tau) + (_ZERO,) * n_extra, "<=", bound))
    return rows


def _box_rows(marginal_pairs, n_conn: int, n_extra: int) -> list[Row]:
    """Cell-nonnegativity bounds on each connection expectation."""
    rows: list[Row] = []
    for c, (m1, m2) in enumerate(marginal_pairs):
        unit = [_ZERO] * (n_conn + n_extra)
        unit[c] = Fraction(-1)
        rows.append((tuple(unit), "<=", 1 - abs(m1 + m2)))  # t_c >= -1 + |m1+m2|
        unit = [_ZERO] * (n_conn + n_extra)
        unit[c] = Fraction(1)
        rows.append((tuple(unit), "<=", 1 - abs(m1 - m2)))  # t_c <= 1 - |m1-m2|
    return rows


def _instantiated_system(sys: System) -> tuple[InequalitySystem, tuple[str, ...]]:
    """The compatibility constraints of a concrete system, with the connection
    expectations symbolic and the mismatch variable tied to their sum."""
    prods = sys.product_means()
    s_even = _max_signed_sum(prods, 0)
    s_odd = max_signed_sum_odd(prods)
    marg = cyclic.connection_marginal_pairs(sys)
    n = len(marg)
    conn_vars = tuple(f"t_{k}" for k in range(1, n + 1))
    # one odd-parity condition over products and connection terms, bounded by
    # 2n - 2: a tau pattern of parity k needs the complementary parity on the
    # products part
    rows = _parity_rows(n, 2 * n - 2 - s_odd, 2 * n - 2 - s_even, 1)
    rows.extend(_box_rows(marg, n, 1))
    # mismatch = n/2 - (sum of connection expectations)/2
    eq = tuple([_HALF] * n + [Fraction(1)])
    rows.append((eq, "==", Fraction(n, 2)))
    variables = conn_vars + ("delta",)
    return InequalitySystem(variables, tuple(rows)), conn_vars


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
    lo = None
    hi = None
    for (c,), relation, bound in projected.rows:
        if relation == "==":
            value = bound / c
            lo = value if lo is None or value > lo else lo
            hi = value if hi is None or value < hi else hi
        elif c > 0:
            value = bound / c
            hi = value if hi is None or value < hi else hi
        elif c < 0:
            value = bound / c
            lo = value if lo is None or value > lo else lo
    if lo is None or hi is None:
        raise RuntimeError("projection produced no two-sided bounds; invalid input system")
    return (lo, hi)
