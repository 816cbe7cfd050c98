"""Exact linear programming over the rationals.

Two simplex methods work one fraction-free tableau: entries are integers
sharing a single denominator (the determinant of the current basis), so a
pivot needs only integer multiply/subtract and one exact division per cell.
Both price by Dantzig's rule and fall back to Bland's anti-cycling rule
after a run of degenerate pivots.

``solve`` runs the two-phase primal simplex on any program. Each row is
scaled by the lcm of its coefficient denominators only and the bounds by
one program-wide factor ``L``, so the integers stay as small as the
coefficients and only the rhs column carries the bounds' denominators (see
``_phase1``).

``solve_warm`` runs the dual simplex on the programs ``with_bounds`` derives
from one template, which share its rows and their integer form. Reduced
costs do not depend on the bounds, so the basis ``compile_start`` fixes once,
at the template's own bounds, prices out for all of them: each starts there,
with no phase 1.

Optimal solves carry a rational dual certificate, infeasible solves a Farkas
certificate. Every answer is certified before it is returned: an optimum by
its witness (checked against every constraint) and its dual (strong
duality), an infeasibility by its Farkas vector. The checks compare
integers: each vector goes over one common denominator taken from its own
entries, never from the tableau, so they stay independent of the pivoting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .core import as_fraction

_COMPARE = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}
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
            if relation not in _COMPARE:
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

        Everything else is shared with ``self``, unvalidated: the coefficient
        rows, already validated, their integer form, which is computed once
        for every program derived this way, and a start ``compile_start``
        cached on ``self``.
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
        program = object.__new__(LinearProgram)
        program.__dict__.update(self.__dict__, constraints=rows)
        return program


def _compiled(lp: LinearProgram, base: Optional[LinearProgram] = None):
    """``(cols, rows)``, the integer form of ``lp``'s coefficient rows.

    ``cols`` lists the structural columns as ``(variable, sign)``: one per
    nonnegative variable, a split pair per free one. Each row is
    ``(s, scaled, nonzeros)``: ``s`` the lcm of the row's coefficient
    denominators, ``scaled`` the row times ``s`` over the structural
    columns, and ``nonzeros`` its ``(index, s * coefficient)`` integer pairs.
    Cached on ``lp``, and shared by every program ``with_bounds`` derives;
    the rows of ``base``, which lead ``lp``'s, share ``base``'s.
    """
    compiled = lp.__dict__.get("_compiled")
    if compiled is None:
        cols = []
        for j, name in enumerate(lp.variables):
            cols.append((j, 1))
            if name not in lp.nonneg:
                cols.append((j, -1))
        rows = list(_compiled(base)[1]) if base else []
        for coeffs, _, _ in lp.constraints[len(rows) :]:
            s = lcm(*(c.denominator for c in coeffs))
            a = [c.numerator * (s // c.denominator) for c in coeffs]
            nonzeros = tuple((j, c) for j, c in enumerate(a) if c)
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
    """Solve ``lp`` exactly over the rationals by the two-phase primal simplex.

    Deterministic (see ``_run``): identical programs give identical outcomes.
    Every optimal or infeasible outcome passes ``check_certificate`` before
    it is returned; one that fails raises ``SolverError``.
    """
    t = _phase1(lp)
    if isinstance(t, LPOutcome):
        return _certified(lp, t)
    if lp.sense != "feasibility":
        m = len(lp.constraints)
        k, den = _run(t.tab, t.basis, t.den, m, m, t.n_real)
        if k >= 0:
            return LPOutcome(status="unbounded")
        t = t._replace(den=den)
    return _certified(lp, _readout(lp, t))


def _certified(lp: LinearProgram, outcome: LPOutcome) -> LPOutcome:
    """``outcome`` once ``check_certificate`` passes it; ``SolverError`` if not."""
    if outcome.status != "unbounded":
        try:
            check_certificate(lp, outcome)
        except CertificateError as exc:
            raise SolverError(f"{outcome.status} outcome fails its certificate: {exc}") from exc
    return outcome


_STALL_LIMIT = 12


class _Tableau(NamedTuple):
    """A tableau at some basis: constraint rows, then the objective row (times
    ``obj_scale``) if any. Column ``n_real`` is the rhs, a basic value its entry
    over ``den * L``; ``units`` and ``restate`` are as built in ``_phase1``."""

    tab: list[list[int]]
    basis: list[int]
    den: int
    units: list[int]
    restate: list[int]
    n_real: int
    L: int
    obj_scale: int


def _run(
    tab: list[list[int]], basis: list[int], den: int, zi: int, m: int, n_real: int, dual=False
) -> tuple[int, int]:
    """Pivot until row ``zi`` prices out or, ``dual``, until no basic value
    is negative while it stays priced out (``zi`` -1: a zero objective).

    Primal, the most negative reduced cost enters; dual, the most negative
    value leaves. The ratio test along that column (over rows ``0 .. m-1``)
    or row picks the other end, ties to the lowest basis index or column.
    After _STALL_LIMIT degenerate pivots in a row, Bland's rule takes the
    lowest-index line until the objective moves again, which rules out
    cycling. Returns ``(k, den)``, ``k`` -1 or a line with no pivot: an
    unbounded column, or a row no point makes nonnegative.
    """
    rhs, stall = n_real, 0
    z = tab[zi] if zi >= 0 else [0] * (rhs + 1)
    prev_num, prev_den = z[rhs], den
    while True:
        pos_den = den > 0
        prices, keys = ([row[rhs] for row in tab[:m]], basis) if dual else (z[:rhs], range(rhs))
        first, best = -1, 0
        if stall < _STALL_LIMIT:
            for k, v in enumerate(prices):
                if (v < best) if pos_den else (v > best):
                    best, first = v, k
        else:
            for k, v in enumerate(prices):
                if v and (v < 0) == pos_den and (first < 0 or keys[k] < keys[first]):
                    first = k
        if first < 0:
            return -1, den
        if dual:
            line, keys = [(z[j], -v) for j, v in enumerate(tab[first][:rhs])], range(rhs)
        else:
            line, keys = [(row[rhs], row[first]) for row in tab[:m]], basis
        second, lnum, lden = -1, 0, 0
        for k, (num, t) in enumerate(line):
            if t and (t > 0) == pos_den:
                left, right = num * lden, lnum * t
                if second < 0 or left < right or (left == right and keys[k] < keys[second]):
                    second, lnum, lden = k, num, t
        if second < 0:
            return first, den
        leave, enter = (first, second) if dual else (second, first)
        den = _pivot(tab, den, leave, enter)
        basis[leave] = enter
        if zi >= 0:
            z = tab[zi]
        if z[rhs] * prev_den == prev_num * den:
            stall += 1
        else:
            stall, prev_num, prev_den = 0, z[rhs], den


def _drive_out(tab: list[list[int]], basis: list[int], den: int, m: int, n_real: int) -> int:
    """Pivot each basic artificial out on its row's first real entry; a row
    with none depends on the others and keeps it. Returns the denominator."""
    for i in range(m):
        if basis[i] > n_real:
            j = next((j for j in range(n_real) if tab[i][j]), -1)
            if j >= 0:
                den = _pivot(tab, den, i, j)
                basis[i] = j
    return den


def _scaled_bounds(lp: LinearProgram) -> tuple[list[int], int, list[int]]:
    """``(costs, L, b)``: each row's ``c_k``, the program-wide ``L`` and
    each bound times ``s_k * L``, an integer (see ``_phase1``)."""
    _, rows = _compiled(lp)
    pairs = [(s, b) for (s, _, _), (_, _, b) in zip(rows, lp.constraints)]
    costs = [b.denominator // gcd(s, b.denominator) for s, b in pairs]
    L = lcm(*costs)
    scaled = [b.numerator * (s * c // b.denominator) * (L // c) for c, (s, b) in zip(costs, pairs)]
    return costs, L, scaled


def _phase1(lp: LinearProgram) -> _Tableau | LPOutcome:
    """Build ``lp``'s tableau and pivot it to a feasible basis: the
    ``_Tableau`` there, or the infeasible outcome with its Farkas vector."""
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
    costs, L, bounds = _scaled_bounds(lp)

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
    for k, ((s, scaled, _), (_, relation, _), b) in enumerate(
        zip(scaled_rows, lp.constraints, bounds)
    ):
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
    width = n_real + 1 + len(art_rows)
    for row in tab:
        row += [0] * (width - len(row))
    units = list(basis)

    # The objective row rides along through phase 1, which never prices by it.
    minimize = [-c if lp.sense == "max" else c for c in lp.objective or ()]
    obj_scale = lcm(*(c.denominator for c in minimize))
    if lp.sense != "feasibility":
        scaled = [c.numerator * (obj_scale // c.denominator) for c in minimize]
        tab.append([scaled[var] * sign for var, sign in cols] + [0] * (width - n_struct))
    den = 1
    if art_rows:
        z1 = [0] * (n_real + 1) + [costs[k] for k in art_rows]
        for k in art_rows:
            c = costs[k]
            z1 = [zc - c * tc for zc, tc in zip(z1, tab[k])]
        Z1 = len(tab)
        tab.append(z1)
        k, den = _run(tab, basis, den, Z1, m, n_real)
        if k >= 0:
            raise SolverError("phase-1 program reported unbounded")
        if tab[Z1][rhs] != 0:
            # Infeasible: the phase-1 duals give a Farkas certificate.
            # Artificial k's unit column costs c_k in phase 1, a slack 0.
            farkas = (
                ((costs[k] if unit > rhs else 0) - Fraction(tab[Z1][unit], den)) * restate[k]
                for k, unit in enumerate(units)
            )
            return LPOutcome(status="infeasible", farkas=tuple(farkas))
        tab.pop(Z1)  # the phase-1 row is dead from here on
        den = _drive_out(tab, basis, den, m, n_real)
    return _Tableau(tab, basis, den, units, restate, n_real, L, obj_scale)


def _readout(lp: LinearProgram, t: _Tableau) -> LPOutcome:
    """The optimal outcome at tableau ``t``, whose basis is feasible and
    prices out: the witness, and with an objective its value and dual."""
    cols, _ = _compiled(lp)
    m = len(lp.constraints)
    tab, basis, den, rhs, L = t.tab, t.basis, t.den, t.n_real, t.L

    # Extract the witness in original variable space (x = x' / L), over den * L.
    values = [0] * len(lp.variables)
    for i in range(m):
        b = basis[i]
        if b < len(cols):
            var, sign = cols[b]
            values[var] += sign * tab[i][rhs]
    witness = {name: Fraction(v, den * L) if v else _ZERO for name, v in zip(lp.variables, values)}

    if lp.sense == "feasibility":
        return LPOutcome(status="optimal", optimum=_ZERO, witness=witness, dual=(_ZERO,) * m)
    # The objective row holds minus the objective (times L) and minus the
    # duals, both times den * obj_scale; "max" minimized the negation.
    sign = 1 if lp.sense == "max" else -1
    scale = den * t.obj_scale
    return LPOutcome(
        status="optimal",
        optimum=Fraction(sign * tab[m][rhs], scale * L),
        witness=witness,
        dual=tuple(Fraction(sign * tab[m][u] * r, scale) for u, r in zip(t.units, t.restate)),
    )


def compile_start(lp: LinearProgram, base: Optional[LinearProgram] = None) -> LinearProgram:
    """Cache on ``lp``, and return it, the start from which ``solve_warm``
    solves every program derived from ``lp``: ``lp``'s tableau at the basis
    where the primal simplex ends on ``lp``'s own bounds.

    With ``base``, a program compiled without one, no phase 1 runs. ``base``
    in the other sense negates its objective row in the feasible tableau of
    ``base``'s phase 1 and optimizes from there. A feasibility program whose
    first rows are ``base``'s reduces its further rows, equalities, against
    ``base``'s start and pivots their artificials out (a zero objective
    prices out at any basis).
    """
    m, optimize = len(lp.constraints), lp.sense != "feasibility"
    if base is None:
        t = _phase1(lp)
        if isinstance(t, LPOutcome):
            raise LPConstructionError("the bounds of a start must admit a point")
        feasible = t._replace(tab=tuple(map(tuple, t.tab)), basis=tuple(t.basis))
        object.__setattr__(lp, "_feasible", feasible)
    else:
        t, m0 = base.__dict__.get("_feasible" if optimize else "_start"), len(base.constraints)
        if (
            t is None
            or (lp.variables, lp.nonneg) != (base.variables, base.nonneg)
            or [c[:2] for c in lp.constraints[:m0]] != [c[:2] for c in base.constraints]
            or optimize and (lp.objective != base.objective or m > m0 or lp.sense == base.sense)
            or any(c[1] != "==" for c in lp.constraints[m0:])
        ):
            raise LPConstructionError("lp is neither base in the other sense nor base extended")
        cols, rows = _compiled(lp, base)
        width, extra = len(t.tab[0]), m - m0
        arts = list(range(width, width + extra))
        tab = [list(row) + [0] * extra for row in t.tab[: m0 + optimize]]
        if optimize:
            tab[m] = [-v for v in tab[m]]
        t = t._replace(
            tab=tab,
            basis=list(t.basis) + arts,
            units=list(t.units) + arts,
            restate=list(t.restate) + [s for s, _, _ in rows[m0:]],
        )
        for k, (_, scaled, _) in enumerate(rows[m0:]):
            # the new row times den, less its basic entries' multiples of their rows
            row = [t.den * v for v in scaled] + [0] * (width - len(cols))
            row += [t.den * (a == k) for a in range(extra)]
            for b, basic in zip(t.basis, tab):
                if row[b]:
                    f = row[b] // t.den
                    row = [v - f * e for v, e in zip(row, basic)]
            tab.append(row)
        t = t._replace(den=_drive_out(tab, t.basis, t.den, m, t.n_real))
    if optimize:
        k, den = _run(t.tab, t.basis, t.den, m, m, t.n_real)
        if k >= 0:
            raise LPConstructionError("the bounds of a start must bound the objective")
        t = t._replace(den=den)
    object.__setattr__(lp, "_start", t._replace(tab=tuple(map(tuple, t.tab)), basis=tuple(t.basis)))
    return lp


def solve_warm(lp: LinearProgram) -> LPOutcome:
    """Solve ``lp`` by the dual simplex from the start ``compile_start``
    cached on the program ``lp`` derives from.

    The bounds enter the start's rhs column as one integer product with its
    unit columns, ``den`` times the inverse basis. A nonzero value on a row
    whose artificial stayed basic, or a row the dual simplex leaves negative
    with no negative entry, is infeasible: its row of the inverse basis is
    the Farkas vector. Certified as ``solve``'s answers are, an optimum may
    be another optimal vertex than ``solve``'s.
    """
    t = lp.__dict__.get("_start")
    if t is None:
        raise LPConstructionError("lp derives from no program with a compiled start")
    _, L, bounds = _scaled_bounds(lp)
    rhs, m = t.n_real, len(lp.constraints)
    scaled = [(u, b if r > 0 else -b) for u, r, b in zip(t.units, t.restate, bounds) if b]
    tab = [list(row) for row in t.tab]
    for row in tab:
        row[rhs] = sum(row[u] * b for u, b in scaled)
    t = t._replace(tab=tab, basis=list(t.basis), L=L)
    k = next((i for i, b in enumerate(t.basis) if b > rhs and tab[i][rhs]), -1)
    if k < 0:
        k, den = _run(tab, t.basis, t.den, m if lp.sense != "feasibility" else -1, m, rhs, True)
        t = t._replace(den=den)
        if k < 0:
            return _certified(lp, _readout(lp, t))
    d = t.den if (tab[k][rhs] > 0) == (t.den > 0) else -t.den  # so that y . b > 0
    farkas = tuple(Fraction(tab[k][u] * r, d) for u, r in zip(t.units, t.restate))
    return _certified(lp, LPOutcome(status="infeasible", farkas=farkas))


def _common(values, what: str, scales=None) -> tuple[list[int], int]:
    """``(numerators, d)``: ``values``, ints or ``Fraction``s, each over its
    entry of ``scales``, as integers over ``d``, the lcm of their denominators."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise CertificateError(f"{what} holds a value that is not an int or a Fraction")
    dens = [v.denominator * s for v, s in zip(values, scales or [1] * len(values))]
    d = lcm(*dens)
    return [v.numerator * (d // e) for v, e in zip(values, dens)], d


def _check_witness(lp: LinearProgram, witness: dict[str, Fraction]) -> tuple[list[int], int]:
    """Check ``witness`` against every constraint; return it as ``_common`` does."""
    if witness.keys() != set(lp.variables):
        raise CertificateError("witness keys are not the program's variables")
    values, d = _common([witness[name] for name in lp.variables], "witness")
    for name in lp.nonneg:
        if witness[name].numerator < 0:
            raise CertificateError(f"witness violates {name} >= 0")
    _, rows = _compiled(lp)
    for k, ((s, _, nonzeros), (_, relation, bound)) in enumerate(zip(rows, lp.constraints)):
        total = sum(c * values[j] for j, c in nonzeros)  # the row's value times s * d
        if not _COMPARE[relation](total * bound.denominator, bound.numerator * s * d):
            value = Fraction(total, s * d)
            raise CertificateError(f"witness violates constraint {k}: {value} {relation} {bound}")
    return values, d


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
    Each ``y_k / s_k`` is an integer over a common ``d``, so ``y A`` times
    ``d`` sums integers.
    """
    if y is None or len(y) != len(lp.constraints):
        raise CertificateError("missing or mis-sized multipliers")
    _, rows = _compiled(lp)
    multipliers, d = _common(y, "multiplier vector", [s for s, _, _ in rows])
    combo = [0] * len(lp.variables)
    total, scale = 0, lcm(*(bound.denominator for _, _, bound in lp.constraints))
    for k, (yk, (s, _, nonzeros), (_, relation, bound)) in enumerate(
        zip(multipliers, rows, lp.constraints)
    ):
        if relation == "<=" and sign * yk > 0 or relation == ">=" and sign * yk < 0:
            raise CertificateError(f"multiplier sign condition violated on constraint {k}")
        if yk:
            for j, c in nonzeros:
                combo[j] += yk * c
            total += yk * s * bound.numerator * (scale // bound.denominator)
    for j, name in enumerate(lp.variables):
        cost = objective[j]
        reduced = cost.numerator * d - combo[j] * cost.denominator  # times d and its denominator
        if name in lp.nonneg:
            if sign * reduced < 0:
                raise CertificateError(f"reduced cost condition violated on {name}")
        elif reduced != 0:
            raise CertificateError(f"reduced cost nonzero on free variable {name}")
    return Fraction(total, d * scale)


def check_certificate(lp: LinearProgram, outcome: LPOutcome) -> None:
    """Verify the certificates carried by ``outcome``; raises CertificateError.

    Optimal: the witness is feasible, attains ``optimum``, and the dual vector
    is feasible with matching objective (strong duality). Infeasible: the
    Farkas vector derives an unsatisfiable inequality. Unbounded outcomes
    carry no certificate. Every entry of the witness, optimum, dual and
    Farkas vector must be an int or a ``Fraction``, and the witness must
    name exactly the program's variables.
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
    values, d = _check_witness(lp, outcome.witness)
    objective = lp.objective or zero
    costs, t = _common(objective, "objective")
    (optimum,), q = _common((outcome.optimum,), "optimum")
    attained = sum(c * v for c, v in zip(costs, values))
    if attained * q != optimum * t * d:
        attained = Fraction(attained, t * d)
        raise CertificateError(f"witness attains {attained}, claimed {outcome.optimum}")
    bound = _check_multipliers(lp, outcome.dual, objective, -1 if lp.sense == "max" else 1)
    if bound != outcome.optimum:
        raise CertificateError(f"dual objective {bound} differs from optimum {outcome.optimum}")
