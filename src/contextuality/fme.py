"""Fourier-Motzkin elimination over exact rational inequality systems.

Used to re-derive, for any concrete system, the bounds on the total
connection mismatch by mechanically projecting the compatibility constraints
onto the mismatch variable: substitute the mismatch-defining equality, then
eliminate the connection expectations one by one. Both steps cancel a
variable the same way, by adding a multiple of a pivot row to a positive
multiple of each row, then merge parallel rows onto their tightest bound;
that merge alone keeps each step small, so the projection solves no LP. A
step is a plan, compiled from the coefficient rows alone, and a pass that
moves the bounds through it; the projection compiles its plans once per rank.
An elimination that would build over ``MAX_FME_ROWS`` rows raises ``ValueError``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


@dataclass(frozen=True)
class _Plan:
    """One cancellation step, compiled from the coefficient rows alone. Bound
    k is the least ``a * b[i] - c * b[j]`` over the terms of group k, ``b``
    being the input bounds: first the ``rows``, then the ``constants``, the
    candidates left with no variable. ``starts`` holds each row's first
    candidate and ``slots[q]`` the candidates before input row q."""

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str], ...]
    constants: tuple[tuple[int, str], ...]
    terms: tuple[tuple[tuple[int, Fraction, int, Fraction], ...], ...]
    starts: tuple[int, ...]
    slots: tuple[int, ...]


def _plan(variables, rows, idx: int, pivot: int | None = None) -> _Plan:
    """Compile the step that substitutes equality row ``pivot`` for column
    ``idx`` or, with no pivot, eliminates the column, raising as ``eliminate``
    does. Candidate k is ``|p| * row i - sign(p) * r * row j`` for the k-th
    pair (i, j), ``r`` and ``p`` being rows i and j's entries in the column; a
    row without it is only stripped. Parallel inequality candidates merge."""
    if pivot is not None:
        unchanged = [k != pivot for k in range(len(rows))]
        pairs = [(k, pivot) for k in range(len(rows)) if unchanged[k]]
    else:
        unchanged, var = [row[0][idx] == 0 for row in rows], variables[idx]
        for k, (coeffs, relation, *_) in enumerate(rows):
            if relation == "==" and coeffs[idx]:
                raise UnusablePivotError(
                    f"row {k} is an equality involving {var!r}; substitute it first"
                )
        pairs = [(k, k) for k in range(len(rows)) if unchanged[k]]
        uppers, lowers = ([k for k, row in enumerate(rows) if s * row[0][idx] > 0] for s in (1, -1))
        count = len(pairs) + len(uppers) * len(lowers)
        if count > MAX_FME_ROWS:
            raise ValueError(f"eliminating {var!r} would build {count} rows, over {MAX_FME_ROWS}")
        pairs += itertools.product(uppers, lowers)
    groups, out, starts, constants, tail = {}, [], [], [], []
    for k, (i, j) in enumerate(pairs):
        coeffs, relation, *_ = rows[i]
        r, p = coeffs[idx], rows[j][0][idx]
        f, g = (abs(p), r if p > 0 else -r) if r else (Fraction(1), _ZERO)
        combined = [f * x - g * y for x, y in zip(coeffs, rows[j][0])]
        del combined[idx]
        scale = lcm(*(c.denominator for c in combined))
        content = gcd(*(c.numerator * (scale // c.denominator) for c in combined))
        factor = Fraction(scale, content) if content else Fraction(1)
        f, g = f * factor, g * factor
        if not content:
            constants.append((k, relation))
            tail.append([(i, f, j, g)])
            continue
        combined = tuple(c * factor for c in combined)
        # each equality row is keyed by its own index, so only inequalities merge
        key = combined if relation == "<=" else k
        if key not in groups:
            out.append((combined, relation))
            starts.append(k)
        groups.setdefault(key, []).append((i, f, j, g))
    terms = tuple(map(tuple, [*groups.values(), *tail]))
    slots = tuple(itertools.accumulate(unchanged, initial=0))
    variables = variables[:idx] + variables[idx + 1 :]
    return _Plan(variables, tuple(out), tuple(constants), terms, tuple(starts), slots)


def _apply(plans: Sequence[_Plan], bounds: Sequence[Fraction], dropped=0) -> InequalitySystem:
    """Run the start ``bounds`` through each plan's bound pass. Satisfied
    constant rows are dropped as vacuous; the others are kept where the first
    of them falls, on their tightest bound, and carried through later steps."""
    b = list(bounds)
    kept: list[tuple[int, str, Fraction]] = []
    for plan in plans:
        b = [min(a * b[i] - c * b[j] for i, a, j, c in group) for group in plan.terms]
        candidates = [(k, rel, x) for (k, rel), x in zip(plan.constants, b[len(plan.rows) :])]
        candidates += [(plan.slots[q] - 0.5, rel, x) for q, rel, x in kept]
        del b[len(plan.rows) :]
        constants: dict[object, tuple] = {}
        for n, (k, relation, x) in enumerate(sorted(candidates, key=lambda c: c[0])):
            if x >= 0 if relation == "<=" else x == 0:
                dropped += 1
                continue
            key = relation if relation == "<=" else n
            k, _, y = constants.get(key, (k, relation, x))
            constants[key] = (k, relation, min(x, y))
        kept = [(bisect_left(plan.starts, k), rel, x) for k, rel, x in constants.values()]
    rows = [(coeffs, rel, x) for (coeffs, rel), x in zip(plan.rows, b)]
    for q, relation, x in reversed(kept):
        rows.insert(q, ((_ZERO,) * len(plan.variables), relation, x))
    return InequalitySystem(plan.variables, tuple(rows), dropped)


def _index(system: InequalitySystem, var: str) -> int:
    if var not in system.variables:
        raise UnknownVariableError(f"unknown variable {var!r}")
    return system.variables.index(var)


def eliminate(system: InequalitySystem, var: str) -> InequalitySystem:
    """Project the system onto the remaining variables.

    The output is satisfiable for an assignment of the remaining variables
    exactly when some value of ``var`` satisfied the input. ``var`` must not
    appear in any equality row; substitute those out first. Raises
    ``ValueError``, before combining, if it would build over ``MAX_FME_ROWS`` rows.
    """
    plan = _plan(system.variables, system.rows, _index(system, var))
    return _apply((plan,), [bound for *_, bound in system.rows], system.dropped_vacuous)


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
    plan = _plan(system.variables, system.rows, idx, eq_row_index)
    return _apply((plan,), [bound for *_, bound in system.rows], system.dropped_vacuous)


def remove_redundant(system: InequalitySystem) -> InequalitySystem:
    """Drop every inequality row implied by the rest of the system.

    A row stays only if relaxing it admits a strictly violating point,
    certified by maximizing its left-hand side over the other rows with
    exact LP. Equality rows are never pruned. Idempotent. A standalone
    utility: ``project_to_delta`` does not call it.
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

@lru_cache(maxsize=None)
def _chain(n: int) -> tuple[_Plan, ...]:
    """The n steps of the rank-n projection, compiled once, from the start
    rows in ``_start_bounds`` order: one parity condition per sign pattern,
    two bounds per t_k (cell nonnegativity), and delta + sum(t_k)/2 == n/2."""
    patterns = itertools.product((1, -1), repeat=n)
    rows = [(tuple(map(Fraction, tau + (0,))), "<=") for tau in patterns]
    for c, sign in itertools.product(range(n), (-1, 1)):
        rows.append((tuple(Fraction(sign * (k == c)) for k in range(n + 1)), "<="))
    rows.append((tuple([_HALF] * n + [Fraction(1)]), "=="))
    plans = [_plan(tuple(f"t_{k}" for k in range(1, n + 1)) + ("delta",), rows, 0, len(rows) - 1)]
    for _ in range(n - 1):
        plans.append(_plan(plans[-1].variables, plans[-1].rows, 0))
    return tuple(plans)


def _start_bounds(sys: System) -> list[Fraction]:
    """The right-hand sides of ``_chain``'s start rows for a concrete system.
    A sign pattern over the t_k needs the complementary parity on the
    products, and -1 + |m1 + m2| <= t_k <= 1 - |m1 - m2|."""
    prods, marg = sys.product_means(), cyclic.connection_marginal_pairs(sys)
    n = len(marg)
    s_even, s_odd = _max_signed_sum(prods, 0), max_signed_sum_odd(prods)
    patterns = itertools.product((1, -1), repeat=n)
    bounds = [2 * n - 2 - (s_even if tau.count(-1) % 2 else s_odd) for tau in patterns]
    for m1, m2 in marg:
        bounds += (1 - abs(m1 + m2), 1 - abs(m1 - m2))
    return bounds + [Fraction(n, 2)]


def project_to_delta(sys: System) -> InequalitySystem:
    """Eliminate every connection expectation, leaving bounds on the mismatch.

    The defining equality substitutes out the first connection variable; the
    rest fall to Fourier-Motzkin elimination. The coefficient rows depend on
    the rank alone, so the chain of steps is compiled once per rank and each
    system runs only its bounds through it. No LP prunes between steps:
    merging parallel rows keeps at most 24 rows per step at rank 4 and 14 at
    rank 3, and the last step leaves the two bounds on the mismatch.
    """
    return _apply(_chain(len(sys.CONNECTIONS)), _start_bounds(sys))


def derive_delta_bounds(sys: System) -> tuple[Fraction, Fraction]:
    """(min, max) of the total connection mismatch, by pure projection.

    Independent route: shares no formula with the closed-form interval and no
    LP with the oracle.
    """
    return _interval(project_to_delta(sys))


def _interval(projected: InequalitySystem) -> tuple[Fraction, Fraction]:
    """(min, max) of the mismatch read off a system projected onto it;
    ``RuntimeError`` if the projection records infeasibility."""
    rows = projected.rows
    for (c,), relation, bound in rows:
        if c == 0:
            raise RuntimeError(f"projection kept the unsatisfiable row 0 {relation} {bound}")
    lows = [bound / c for (c,), relation, bound in rows if relation == "==" or c < 0]
    highs = [bound / c for (c,), relation, bound in rows if relation == "==" or c > 0]
    if not lows or not highs:
        raise RuntimeError("projection produced no two-sided bounds; invalid input system")
    lo, hi = max(lows), min(highs)
    if lo > hi:
        raise RuntimeError(f"projection gives lo {lo} > hi {hi}; infeasible input system")
    return lo, hi
