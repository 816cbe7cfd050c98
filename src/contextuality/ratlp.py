"""Exact linear programming over the rationals.

Two-phase primal simplex with Dantzig pricing that falls back to Bland's
anti-cycling rule after a run of degenerate pivots. The tableau is kept
fraction-free: entries are integers sharing a single denominator (the
determinant of the current basis), so a pivot needs only integer
multiply/subtract and one exact division per cell.

The integers stay as small as the coefficients. Each constraint row is
scaled by ``s_k``, the lcm of its coefficient denominators only, and the
bounds by one program-wide factor ``L`` that clears the rest of their
denominators: the tableau solves for ``x' = L x``, so only its rhs column
carries the bounds' denominators, and the witness and optimum are divided by
``L`` on the way out. Artificial ``k`` costs ``lcm(s_k, d_k) / s_k`` in
phase 1 (``d_k`` its bound's denominator), which is the phase-1 objective of
rows scaled by all their denominators, up to the factor ``L``: a program of
equality rows pivots exactly as it would on that fully scaled tableau.

The integer form of the coefficient rows is computed once per program and
shared by every program ``LinearProgram.with_bounds`` derives from it, so a
fixed constraint matrix solved against many right-hand sides is read and
scaled once.

Optimal solves carry a rational dual certificate, infeasible solves a Farkas
certificate. Every answer is certified before it is returned: an optimum by
its witness (checked against every constraint) and its dual (strong
duality), an infeasibility by its Farkas vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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

    def with_bounds(self, bounds) -> LinearProgram:
        """This program with the constraint bounds replaced by ``bounds``.

        The coefficient rows, already validated, are shared with ``self``,
        and so is their integer form, which is computed once for every
        program derived this way.
        """
        bounds = tuple(bounds)
        if len(bounds) != len(self.constraints):
            raise LPConstructionError(
                f"{len(bounds)} bounds for {len(self.constraints)} constraints"
            )
        rows = tuple(
            (coeffs, relation, as_fraction(bound))
            for (coeffs, relation, _), bound in zip(self.constraints, bounds)
        )
        _compiled(self)
        # Every field but the constraints, and the cached integer form, is
        # shared; the coefficients were validated when ``self`` was built.
        program = object.__new__(LinearProgram)
        program.__dict__.update(self.__dict__, constraints=rows)
        return program


def _compiled(lp: LinearProgram):
    """``(cols, rows)``, the integer form of ``lp``'s coefficient rows.

    ``cols`` lists the structural columns as ``(variable, sign)``: one per
    nonnegative variable, a split pair per free one. Each row is
    ``(s, scaled, nonzeros)``: ``s`` the lcm of the row's coefficient
    denominators, ``scaled`` the row times ``s`` over the structural
    columns, and ``nonzeros`` its ``(index, coefficient)`` pairs as stated.
    Cached on ``lp``, and shared by ``with_bounds``.
    """
    compiled = lp.__dict__.get("_compiled")
    if compiled is None:
        cols = []
        for j, name in enumerate(lp.variables):
            cols.append((j, 1))
            if name not in lp.nonneg:
                cols.append((j, -1))
        rows = []
        for coeffs, _, _ in lp.constraints:
            s = lcm(*(c.denominator for c in coeffs))
            a = [c.numerator * (s // c.denominator) for c in coeffs]
            nonzeros = tuple((j, c) for j, c in enumerate(coeffs) if c)
            rows.append((s, tuple(a[var] * sign for var, sign in cols), nonzeros))
        compiled = (tuple(cols), tuple(rows))
        object.__setattr__(lp, "_compiled", compiled)
    return compiled


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
    yield identical outcomes and witnesses. Every optimal or infeasible
    outcome passes ``check_certificate`` before it is returned; one that
    fails raises ``SolverError``.
    """
    outcome = _simplex(lp)
    if outcome.status != "unbounded":
        try:
            check_certificate(lp, outcome)
        except CertificateError as exc:
            raise SolverError(f"{outcome.status} outcome fails its certificate: {exc}") from exc
    return outcome


def _simplex(lp: LinearProgram) -> LPOutcome:
    n_vars = len(lp.variables)
    if lp.sense == "feasibility":
        minimize = [_ZERO] * n_vars
    elif lp.sense == "min":
        minimize = list(lp.objective)
    else:
        minimize = [-c for c in lp.objective]
    cols, scaled_rows = _compiled(lp)
    n_struct = len(cols)

    # Row k is constraint k times s_k, the lcm of its coefficient
    # denominators, with every rhs also times L: the tableau solves for
    # x' = L x. With d_k the bound's denominator, c_k = lcm(s_k, d_k) / s_k
    # is the part of d_k that s_k leaves, and L = lcm of all c_k makes every
    # rhs an integer. Artificial k costs c_k in phase 1, which makes the
    # phase-1 objective L times the sum of artificials of rows scaled by
    # lcm(s_k, d_k): equality rows pivot as they would on that tableau, while
    # every entry outside the rhs column stays as small as the coefficients.
    m = len(lp.constraints)
    costs = [
        bound.denominator // gcd(s, bound.denominator)
        for (s, _, _), (_, _, bound) in zip(scaled_rows, lp.constraints)
    ]
    L = lcm(*costs)

    # Tableau columns: struct | slack | rhs | artificial. Each row is signed
    # so that its rhs is nonnegative; ``restate[k]`` (sign times s_k) maps
    # the row's multiplier back to the constraint as stated. Each row starts
    # basic in a unit column (its slack when that enters with +1, else a
    # fresh artificial), where its dual value is read.
    n_real = n_struct + sum(relation != "==" for _, relation, _ in lp.constraints)
    rhs = n_real
    tab: list[list[int]] = []
    basis: list[int] = []
    restate: list[int] = []
    art_rows: list[int] = []
    slack = n_struct
    for k, ((s, scaled, _), (_, relation, bound)) in enumerate(zip(scaled_rows, lp.constraints)):
        c = costs[k]
        b = bound.numerator * (s * c // bound.denominator) * (L // c)
        to_le = -1 if relation == ">=" else 1
        flip = to_le if to_le * b >= 0 else -to_le
        row = list(scaled) if flip == 1 else [-v for v in scaled]
        row += [0] * (n_real - n_struct)
        row.append(flip * b)
        unit = -1
        if relation != "==":
            row[slack] = flip * to_le
            if flip == to_le:
                unit = slack
            slack += 1
        if unit < 0:
            row += [0] * len(art_rows) + [1]
            unit = len(row) - 1
            art_rows.append(k)
        tab.append(row)
        basis.append(unit)
        restate.append(flip * s)
    n_art = len(art_rows)
    width = n_real + 1 + n_art
    for row in tab:
        row += [0] * (width - len(row))
    units = list(basis)

    Z2 = -1
    obj_scale = lcm(*(c.denominator for c in minimize))
    if lp.sense != "feasibility":
        scaled = [c.numerator * (obj_scale // c.denominator) for c in minimize]
        Z2 = len(tab)
        tab.append([scaled[var] * sign for var, sign in cols] + [0] * (width - n_struct))
    Z1 = -1
    if n_art:
        z1 = [0] * (n_real + 1) + [costs[k] for k in art_rows]
        for k in art_rows:
            c = costs[k]
            z1 = [zc - c * tc for zc, tc in zip(z1, tab[k])]
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
            # Artificial k's unit column costs c_k in phase 1, a slack 0.
            farkas = []
            for k, unit in enumerate(units):
                y = (costs[k] if unit > rhs else 0) - Fraction(tab[Z1][unit], den)
                farkas.append(y * restate[k])
            return LPOutcome(status="infeasible", farkas=tuple(farkas))
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

    # Extract the witness in original variable space (x = x' / L).
    values = [_ZERO] * n_vars
    for i in range(m):
        b = basis[i]
        if b < n_struct:
            var, sign = cols[b]
            values[var] += sign * Fraction(tab[i][rhs], den * L)
    witness = {name: values[j] for j, name in enumerate(lp.variables)}

    if lp.sense == "feasibility":
        return LPOutcome(
            status="optimal", optimum=_ZERO, witness=witness, dual=(_ZERO,) * m
        )

    objective_value = -Fraction(tab[Z2][rhs], den * L) / obj_scale
    dual = []
    for k, unit in enumerate(units):
        y = -Fraction(tab[Z2][unit], den) / obj_scale
        dual.append(y * restate[k])
    if lp.sense == "max":
        objective_value = -objective_value
        dual = [-y for y in dual]
    return LPOutcome(
        status="optimal", optimum=objective_value, witness=witness, dual=tuple(dual)
    )


def is_feasible(lp: LinearProgram) -> bool:
    """Whether the constraint set admits any point (objective ignored)."""
    return solve(lp).status != "infeasible"


def _row_value(nonzeros, values) -> Fraction:
    total = _ZERO
    for j, c in nonzeros:
        v = values[j]
        if v:
            total += c * v
    return total


def _check_witness(lp: LinearProgram, witness: dict[str, Fraction]) -> None:
    for name in lp.nonneg:
        if witness[name] < 0:
            raise CertificateError(f"witness violates {name} >= 0")
    values = [witness[name] for name in lp.variables]
    _, rows = _compiled(lp)
    for k, ((_, _, nonzeros), (_, relation, bound)) in enumerate(zip(rows, lp.constraints)):
        value = _row_value(nonzeros, values)
        ok = (
            value <= bound
            if relation == "<="
            else value >= bound if relation == ">=" else value == bound
        )
        if not ok:
            raise CertificateError(
                f"witness violates constraint {k}: {value} {relation} {bound}"
            )


def _check_multipliers(
    lp: LinearProgram, y: Optional[tuple[Fraction, ...]], objective, sign: int
) -> Fraction:
    """Check one multiplier per constraint as a dual bound; return ``y . b``.

    With ``sign`` 1 the multipliers bound ``min objective . x`` from below,
    with -1 they bound ``max objective . x`` from above: ``sign * y`` is
    <= 0 on "<=" rows and >= 0 on ">=" rows, and the reduced cost
    ``objective - y A`` is 0 on free variables and has the sign of ``sign``
    on nonnegative ones. A Farkas vector is the case of a zero objective
    minimized, whose bound ``y . b`` comes out positive.
    """
    if y is None or len(y) != len(lp.constraints):
        raise CertificateError("missing or mis-sized multipliers")
    combo = [_ZERO] * len(lp.variables)
    total = _ZERO
    _, rows = _compiled(lp)
    for k, (yk, (_, _, nonzeros), (_, relation, bound)) in enumerate(
        zip(y, rows, lp.constraints)
    ):
        if relation == "<=" and sign * yk > 0 or relation == ">=" and sign * yk < 0:
            raise CertificateError(f"multiplier sign condition violated on constraint {k}")
        if yk:
            for j, c in nonzeros:
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


def check_certificate(lp: LinearProgram, outcome: LPOutcome) -> None:
    """Verify the certificates carried by ``outcome``; raises CertificateError.

    Optimal: the witness is feasible, attains ``optimum``, and the dual vector
    is feasible with matching objective (strong duality). Infeasible: the
    Farkas vector derives an unsatisfiable inequality. Unbounded outcomes
    carry no certificate.
    """
    if outcome.status == "unbounded":
        return
    zero = (_ZERO,) * len(lp.variables)
    if outcome.status == "infeasible":
        if _check_multipliers(lp, outcome.farkas, zero, 1) <= 0:
            raise CertificateError("Farkas combination does not witness infeasibility")
        return
    if outcome.status != "optimal":
        raise CertificateError(f"unknown status {outcome.status!r}")
    if outcome.witness is None or outcome.optimum is None:
        raise CertificateError("optimal outcome must carry witness, dual, and optimum")
    _check_witness(lp, outcome.witness)
    objective = lp.objective or zero
    values = [outcome.witness[name] for name in lp.variables]
    attained = _row_value(enumerate(objective), values)
    if attained != outcome.optimum:
        raise CertificateError(f"witness attains {attained}, claimed {outcome.optimum}")
    bound = _check_multipliers(lp, outcome.dual, objective, -1 if lp.sense == "max" else 1)
    if bound != outcome.optimum:
        raise CertificateError(f"dual objective {bound} differs from optimum {outcome.optimum}")
