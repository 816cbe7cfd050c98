"""Exact linear programming over the rationals.

Two-phase primal simplex with Dantzig pricing that falls back to Bland's
anti-cycling rule after a run of degenerate pivots. The tableau is kept
fraction-free: entries are integers sharing a single denominator (the
determinant of the current basis), so a pivot needs only integer
multiply/subtract and one exact division per cell. Optimal solves carry a
rational dual certificate, infeasible solves a Farkas certificate; witnesses
are independently re-checked against every constraint before they are
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import as_fraction

_RELATIONS = ("<=", "==", ">=")
_SENSES = ("min", "max", "feasibility")

_ZERO = Fraction(0)


class LPConstructionError(ValueError):
    """The program as stated is malformed (lengths, names, relations)."""


class SolverError(RuntimeError):
    """The solver produced an answer that fails its own exact re-check."""


class CertificateError(ValueError):
    """A primal/dual/Farkas certificate does not verify."""


@dataclass(frozen=True)
class LinearProgram:
    """An exact-rational linear program over named variables.

    ``constraints`` is a sequence of ``(coefficients, relation, bound)`` with
    relation one of "<=", "==", ">=". Variables listed in ``nonneg`` are
    constrained to be nonnegative; all others are free. ``sense`` is "min",
    "max", or "feasibility" (the latter carries no objective).
    """

    variables: tuple[str, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    objective: Optional[tuple[Fraction, ...]] = None
    sense: str = "feasibility"
    nonneg: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):
            raise LPConstructionError("duplicate variable names")
        n = len(variables)
        rows = []
        for k, item in enumerate(self.constraints):
            try:
                coeffs, relation, bound = item
            except (TypeError, ValueError) as exc:
                raise LPConstructionError(
                    f"constraint {k}: expected (coefficients, relation, bound)"
                ) from exc
            coeffs = tuple(as_fraction(c) for c in coeffs)
            if len(coeffs) != n:
                raise LPConstructionError(
                    f"constraint {k}: {len(coeffs)} coefficients for {n} variables"
                )
            if relation not in _RELATIONS:
                raise LPConstructionError(f"constraint {k}: unknown relation {relation!r}")
            rows.append((coeffs, relation, as_fraction(bound)))
        if self.sense not in _SENSES:
            raise LPConstructionError(f"unknown sense {self.sense!r}")
        objective = self.objective
        if self.sense == "feasibility":
            if objective is not None:
                raise LPConstructionError("a feasibility-only program cannot carry an objective")
        else:
            if objective is None:
                raise LPConstructionError(f"sense {self.sense!r} requires an objective")
            objective = tuple(as_fraction(c) for c in objective)
            if len(objective) != n:
                raise LPConstructionError(
                    f"objective has {len(objective)} coefficients for {n} variables"
                )
        nonneg = frozenset(self.nonneg)
        unknown = nonneg - set(variables)
        if unknown:
            raise LPConstructionError(f"nonneg names not among variables: {sorted(unknown)}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "nonneg", nonneg)


@dataclass(frozen=True)
class LPOutcome:
    """Result of an exact solve.

    ``dual`` (status "optimal") and ``farkas`` (status "infeasible") hold one
    rational multiplier per constraint; see ``check_certificate`` for the
    exact conditions they satisfy.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Optional[Fraction] = None
    witness: Optional[dict[str, Fraction]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    farkas: Optional[tuple[Fraction, ...]] = None


def _pivot(tab: list[list[int]], den: int, r: int, s: int) -> int:
    """Fraction-free pivot on row r, column s; returns the new denominator."""
    prow = tab[r]
    p = prow[s]
    for i in range(len(tab)):
        if i == r:
            continue
        row = tab[i]
        f = row[s]
        if f:
            tab[i] = [(e * p - f * q) // den for e, q in zip(row, prow)]
        elif p != den:
            tab[i] = [(e * p) // den for e in row]
    return p


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve ``lp`` exactly over the rationals.

    Deterministic: Dantzig pricing (most negative reduced cost, lowest index
    on ties), switching to Bland's rule after ``_STALL_LIMIT`` degenerate
    pivots in a row, with lowest-basis-index ratio ties; identical programs
    yield identical outcomes and witnesses.
    """
    n_vars = len(lp.variables)
    if lp.sense == "feasibility":
        minimize = [_ZERO] * n_vars
    elif lp.sense == "min":
        minimize = list(lp.objective)
    else:
        minimize = [-c for c in lp.objective]

    # Structural columns: one per nonnegative variable, a split pair per free one.
    cols: list[tuple[int, int]] = []
    for j, name in enumerate(lp.variables):
        cols.append((j, 1))
        if name not in lp.nonneg:
            cols.append((j, -1))
    n_struct = len(cols)

    m = len(lp.constraints)
    # Row-wise integerization; track the positive scale and the sign flips so
    # dual multipliers can be mapped back to the constraints as stated.
    raw_rows: list[tuple[list[int], int, int, str]] = []  # (struct coeffs, b, flip, relation-as-std)
    scales: list[int] = []
    n_slack = 0
    for coeffs, relation, bound in lp.constraints:
        scale = lcm(*(c.denominator for c in coeffs), bound.denominator)
        a = [int(c * scale) for c in coeffs]
        b = int(bound * scale)
        flip = 1
        if relation == ">=":
            a = [-x for x in a]
            b = -b
            flip = -1
            relation = "<="
        arow = [a[var] * sign for var, sign in cols]
        raw_rows.append((arow, b, flip, relation))
        scales.append(scale)
        if relation == "<=":
            n_slack += 1

    # Assemble the tableau: struct | slack | artificial | rhs. Each row gets a
    # unit column (its slack when usable, else an artificial) so dual values
    # can be read off the final objective rows.
    unit_col: list[int] = [0] * m
    unit_is_art: list[bool] = [False] * m
    flips: list[int] = [0] * m
    body: list[tuple[list[int], list[int], int]] = []
    si = 0
    for k, (arow, b, flip, relation) in enumerate(raw_rows):
        srow = [0] * n_slack
        slack_pos = -1
        if relation == "<=":
            slack_pos = si
            srow[si] = 1
            si += 1
        if b < 0:
            arow = [-x for x in arow]
            srow = [-x for x in srow]
            b = -b
            flip = -flip
        flips[k] = flip
        body.append((arow, srow, b))
        if slack_pos >= 0 and srow[slack_pos] == 1:
            unit_col[k] = n_struct + slack_pos
        else:
            unit_is_art[k] = True

    n_art = 0
    for k in range(m):
        if unit_is_art[k]:
            unit_col[k] = n_struct + n_slack + n_art
            n_art += 1
    n_real = n_struct + n_slack
    width = n_real + n_art + 1
    rhs = width - 1

    tab: list[list[int]] = []
    for k, (arow, srow, b) in enumerate(body):
        row = arow + srow + [0] * n_art + [b]
        if unit_is_art[k]:
            row[unit_col[k]] = 1
        tab.append(row)
    basis = list(unit_col)

    need_obj = lp.sense != "feasibility"
    obj_scale = 1
    Z2 = -1
    if need_obj:
        obj_scale = lcm(*(c.denominator for c in minimize)) if minimize else 1
        z2 = [int(minimize[var] * sign * obj_scale) for var, sign in cols]
        z2 += [0] * (n_slack + n_art + 1)
        Z2 = len(tab)
        tab.append(z2)
    Z1 = -1
    if n_art:
        z1 = [0] * n_real + [1] * n_art + [0]
        for k in range(m):
            if unit_is_art[k]:
                z1 = [zc - tc for zc, tc in zip(z1, tab[k])]
        Z1 = len(tab)
        tab.append(z1)

    den = 1
    _STALL_LIMIT = 12

    def run(zi: int) -> str:
        # Dantzig entering (most negative reduced cost) while the objective
        # moves; after _STALL_LIMIT degenerate pivots in a row, switch to
        # Bland's rule until it moves again, which rules out cycling.
        nonlocal den
        stall = 0
        prev_num, prev_den = tab[zi][rhs], den
        while True:
            z = tab[zi]
            pos_den = den > 0
            enter = -1
            if stall < _STALL_LIMIT:
                best = 0
                for j in range(n_real):
                    v = z[j]
                    if (v < best) if pos_den else (v > best):
                        best = v
                        enter = j
            else:
                for j in range(n_real):
                    v = z[j]
                    if v and (v < 0) == pos_den:
                        enter = j
                        break
            if enter < 0:
                return "optimal"
            leave = -1
            lnum = lden = 0
            for i in range(m):
                t = tab[i][enter]
                if t and (t > 0) == pos_den:
                    num = tab[i][rhs]
                    if leave < 0:
                        leave, lnum, lden = i, num, t
                    else:
                        left = num * lden
                        right = lnum * t
                        if left < right or (left == right and basis[i] < basis[leave]):
                            leave, lnum, lden = i, num, t
            if leave < 0:
                return "unbounded"
            den = _pivot(tab, den, leave, enter)
            basis[leave] = enter
            num, dnm = tab[zi][rhs], den
            if num * prev_den == prev_num * dnm:
                stall += 1
            else:
                stall = 0
                prev_num, prev_den = num, dnm

    if n_art:
        status = run(Z1)
        if status != "optimal":
            raise SolverError("phase-1 program reported unbounded")
        if tab[Z1][rhs] != 0:
            # Infeasible: the phase-1 duals give a Farkas certificate.
            farkas = []
            for k in range(m):
                c1 = 1 if unit_is_art[k] else 0
                y = c1 - Fraction(tab[Z1][unit_col[k]], den)
                farkas.append(y * flips[k] * scales[k])
            outcome = LPOutcome(status="infeasible", farkas=tuple(farkas))
            _check_farkas(lp, outcome.farkas)
            return outcome
        tab.pop(Z1)  # the phase-1 row is dead from here on
        # Drive basic artificials out; rows with no real coefficients left are
        # redundant and stay inert (their artificial sits at value zero).
        for i in range(m):
            if basis[i] >= n_real:
                row = tab[i]
                for j in range(n_real):
                    if row[j]:
                        den = _pivot(tab, den, i, j)
                        basis[i] = j
                        break

    if lp.sense != "feasibility":
        status = run(Z2)
        if status == "unbounded":
            return LPOutcome(status="unbounded")

    # Extract the witness in original variable space.
    values = [_ZERO] * n_vars
    for i in range(m):
        b = basis[i]
        if b < n_struct:
            var, sign = cols[b]
            values[var] += sign * Fraction(tab[i][rhs], den)
    witness = {name: values[j] for j, name in enumerate(lp.variables)}
    _check_witness(lp, witness)

    if lp.sense == "feasibility":
        return LPOutcome(
            status="optimal", optimum=_ZERO, witness=witness, dual=(_ZERO,) * m
        )

    objective_value = -Fraction(tab[Z2][rhs], den) / obj_scale
    dual = []
    for k in range(m):
        y = -Fraction(tab[Z2][unit_col[k]], den) / obj_scale
        dual.append(y * flips[k] * scales[k])
    if lp.sense == "max":
        objective_value = -objective_value
        dual = [-y for y in dual]
    return LPOutcome(
        status="optimal", optimum=objective_value, witness=witness, dual=tuple(dual)
    )


def is_feasible(lp: LinearProgram) -> bool:
    """Whether the constraint set admits any point (objective ignored)."""
    probe = lp
    if lp.sense != "feasibility":
        probe = replace(lp, objective=None, sense="feasibility")
    return solve(probe).status == "optimal"


def _row_value(coeffs, variables, witness) -> Fraction:
    total = _ZERO
    for c, name in zip(coeffs, variables):
        if c:
            v = witness[name]
            if v:
                total += c * v
    return total


def _check_witness(lp: LinearProgram, witness: dict[str, Fraction]) -> None:
    for name in lp.nonneg:
        if witness[name] < 0:
            raise SolverError(f"witness violates {name} >= 0")
    for k, (coeffs, relation, bound) in enumerate(lp.constraints):
        value = _row_value(coeffs, lp.variables, witness)
        ok = (
            value <= bound
            if relation == "<="
            else value >= bound if relation == ">=" else value == bound
        )
        if not ok:
            raise SolverError(f"witness violates constraint {k}: {value} {relation} {bound}")


def _check_farkas(lp: LinearProgram, farkas: tuple[Fraction, ...]) -> None:
    combo = [_ZERO] * len(lp.variables)
    bound_total = _ZERO
    for y, (coeffs, relation, bound) in zip(farkas, lp.constraints):
        if relation == "<=" and y > 0:
            raise CertificateError("Farkas multiplier for a <= row must be <= 0")
        if relation == ">=" and y < 0:
            raise CertificateError("Farkas multiplier for a >= row must be >= 0")
        if y:
            for j, c in enumerate(coeffs):
                if c:
                    combo[j] += y * c
            bound_total += y * bound
    for j, name in enumerate(lp.variables):
        if name in lp.nonneg:
            if combo[j] > 0:
                raise CertificateError(f"Farkas combination positive on {name}")
        elif combo[j] != 0:
            raise CertificateError(f"Farkas combination nonzero on free variable {name}")
    if bound_total <= 0:
        raise CertificateError("Farkas combination does not witness infeasibility")


def check_certificate(lp: LinearProgram, outcome: LPOutcome) -> None:
    """Verify the certificates carried by ``outcome``; raises CertificateError.

    Optimal: the witness is feasible, attains ``optimum``, and the dual vector
    is feasible with matching objective (strong duality). Infeasible: the
    Farkas vector derives an unsatisfiable inequality. Unbounded outcomes
    carry no certificate.
    """
    if outcome.status == "unbounded":
        return
    if outcome.status == "infeasible":
        if outcome.farkas is None or len(outcome.farkas) != len(lp.constraints):
            raise CertificateError("missing or mis-sized Farkas certificate")
        _check_farkas(lp, outcome.farkas)
        return
    if outcome.status != "optimal":
        raise CertificateError(f"unknown status {outcome.status!r}")
    if outcome.witness is None or outcome.dual is None or outcome.optimum is None:
        raise CertificateError("optimal outcome must carry witness, dual, and optimum")
    try:
        _check_witness(lp, outcome.witness)
    except SolverError as exc:
        raise CertificateError(str(exc)) from exc
    objective = lp.objective or (_ZERO,) * len(lp.variables)
    attained = _row_value(objective, lp.variables, outcome.witness)
    if attained != outcome.optimum:
        raise CertificateError(f"witness attains {attained}, claimed {outcome.optimum}")

    maximize = lp.sense == "max"
    combo = [_ZERO] * len(lp.variables)
    bound_total = _ZERO
    for y, (coeffs, relation, bound) in zip(outcome.dual, lp.constraints):
        if relation == "<=" and (y < 0 if maximize else y > 0):
            raise CertificateError("dual sign condition violated on a <= row")
        if relation == ">=" and (y > 0 if maximize else y < 0):
            raise CertificateError("dual sign condition violated on a >= row")
        if y:
            for j, c in enumerate(coeffs):
                if c:
                    combo[j] += y * c
            bound_total += y * bound
    for j, name in enumerate(lp.variables):
        reduced = objective[j] - combo[j]
        if name in lp.nonneg:
            if reduced < 0 if not maximize else reduced > 0:
                raise CertificateError(f"reduced cost condition violated on {name}")
        elif reduced != 0:
            raise CertificateError(f"reduced cost nonzero on free variable {name}")
    if bound_total != outcome.optimum:
        raise CertificateError(
            f"dual objective {bound_total} differs from optimum {outcome.optimum}"
        )
