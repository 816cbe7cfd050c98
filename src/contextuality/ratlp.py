"""Exact linear programming over the rationals.

Two simplex methods work one fraction-free tableau: entries are integers
sharing one positive denominator (the basis determinant's absolute value), so
a pivot needs only integer multiply/subtract and one exact division per cell.
Both price by Dantzig's rule and fall back to Bland's anti-cycling rule
after a run of degenerate pivots.

Each row is scaled by the lcm of its coefficient denominators only and the
bounds by one program-wide factor ``L``, so the integers stay as small as
the coefficients and only the rhs column carries the bounds' denominators.
The bounds enter a tableau in one place, ``_dual_simplex``, as the rhs
column: the scaled bounds times the unit columns, ``den`` times the inverse
basis. The dual simplex then makes the basic values nonnegative from any
basis that prices out, since reduced costs do not depend on the bounds.

A program never changes once built: its ``_Form``, what its bounds do not
change, is computed then and shared by ``with_bounds``; a tableau holds only
what a solve changes. ``compile_start`` returns a program carrying a start,
its optimal basis at its own bounds, where ``solve`` enters the bounds of it
and of each program ``with_bounds`` derives from it. Any other program
starts cold: phase 1 is that dual simplex under a zero objective from the
Gaussian elimination basis (``_eliminated``), phase 2 the primal simplex.
Warm or cold, infeasibility is found in the dual simplex.

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
        object.__setattr__(self, "_form", _compile(self))

    def with_bounds(self, bounds) -> LinearProgram:
        """This program with the constraint bounds replaced by ``bounds``.

        Everything else is shared with ``self``, unvalidated: the coefficient
        rows, already validated, their ``_Form``, and the start ``self``
        carries if ``compile_start`` returned it or derived it this way.
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
        program = object.__new__(LinearProgram)
        program.__dict__.update(self.__dict__, constraints=rows)
        return program


class _Form(NamedTuple):
    """What a program's bounds do not change, built once in ``__post_init__``.

    ``cols`` lists the structural columns as ``(variable, sign)``: one per
    nonnegative variable, a split pair per free one. ``rows`` holds each
    constraint's ``(s, nonzeros)``: s the lcm of its coefficient denominators,
    nonzeros its ``(index, s * coefficient)`` integer pairs. ``tab`` is the
    tableau before any pivot, columns struct | slack | rhs (``n_real``, zero)
    | artificial, then the objective row (times ``obj_scale``) if any. Row k
    is constraint k times ``restate[k]``, s with a ">=" row negated, which
    maps its multiplier back; it starts basic in ``units[k]``, its slack or an
    equality's artificial, where its multiplier is read."""

    cols: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    tab: tuple[tuple[int, ...], ...]
    units: tuple[int, ...]
    restate: tuple[int, ...]
    n_real: int
    obj_scale: int


def _compile(lp: LinearProgram) -> _Form:
    """``lp``'s ``_Form``."""
    cols = []
    for j, name in enumerate(lp.variables):
        cols.append((j, 1))
        if name not in lp.nonneg:
            cols.append((j, -1))
    n_struct, m = len(cols), len(lp.constraints)
    n_real = n_struct + sum(relation != "==" for _, relation, _ in lp.constraints)
    rows, tab, units, restate = [], [], [], []
    slacks, artificials = iter(range(n_struct, n_real)), iter(range(n_real + 1, n_struct + m + 1))
    for coeffs, relation, _ in lp.constraints:
        s, sign = lcm(*(c.denominator for c in coeffs)), -1 if relation == ">=" else 1
        a = [c.numerator * (s // c.denominator) for c in coeffs]
        rows.append((s, tuple((j, c) for j, c in enumerate(a) if c)))
        restate.append(sign * s)
        units.append(next(artificials if relation == "==" else slacks))
        row = [sign * a[var] * flip for var, flip in cols] + [0] * (m + 1)
        row[units[-1]] = 1
        tab.append(tuple(row))
    # The objective row rides along through phase 1, which never prices by it.
    minimize = [-c if lp.sense == "max" else c for c in lp.objective or ()]
    obj_scale = lcm(*(c.denominator for c in minimize))
    if lp.sense != "feasibility":
        scaled = [c.numerator * (obj_scale // c.denominator) for c in minimize]
        tab.append(tuple([scaled[var] * flip for var, flip in cols] + [0] * (m + 1)))
    return _Form(*map(tuple, (cols, rows, tab, units, restate)), n_real, obj_scale)


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
    """Fraction-free pivot on row r, column s; returns the new denominator, the
    pivot entry made positive by first negating its row, which keeps its values."""
    prow = tab[r]
    if prow[s] < 0:
        prow = tab[r] = [-e for e in prow]
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
    """Solve ``lp`` exactly over the rationals: by the dual simplex from its
    start if it has one (``compile_start`` returned it, or ``with_bounds``
    derived it from such a program), else cold, phase 1 by elimination and
    the dual simplex and phase 2 by the primal simplex. The two may end at
    different optimal vertices.

    Deterministic (see ``_run``): identical programs derived the same way
    give identical outcomes. Every optimal or infeasible outcome passes
    ``check_certificate`` before it is returned; one that fails raises
    ``SolverError``.
    """
    start = lp.__dict__.get("_start")
    if start is None:
        t = _solved(lp)
    else:
        t = _dual_simplex(lp, start, len(lp.constraints) if lp.sense != "feasibility" else -1)
    outcome = t if isinstance(t, LPOutcome) else _readout(lp, t)
    try:
        check_certificate(lp, outcome)
    except CertificateError as exc:
        raise SolverError(f"{outcome.status} outcome fails its certificate: {exc}") from exc
    return outcome


# Dantzig first: pure Bland took 23.4 / 5.98 dual pivots per Bell / LG case, not 13.5 / 3.46.
_STALL_LIMIT = 12


class _Tableau(NamedTuple):
    """A solve's state over its program's ``_Form``: the tableau ``tab`` at
    ``basis``, each entry over ``den`` > 0, a basic value its rhs entry over
    ``den * L``, which ``_dual_simplex`` alone writes. The start
    ``compile_start`` puts on a program is one."""

    tab: list[list[int]]
    basis: list[int]
    den: int
    L: int


def _run(
    tab: list[list[int]], basis: list[int], den: int, zi: int, m: int, n_real: int, dual=False
) -> tuple[int, int]:
    """Pivot until row ``zi`` prices out or, ``dual``, until no basic value
    is negative while it stays priced out (``zi`` -1: a zero objective).

    Primal, the most negative reduced cost enters; dual, the most negative
    value leaves. The ratio test along that column (over rows ``0 .. m-1``)
    or row picks the other end, ties to the lowest basis index or column.
    A pivot is degenerate, and leaves the objective where it is, when the
    ratio it takes has a zero numerator: the leaving row's value, or, dual,
    the entering reduced cost. After _STALL_LIMIT of them in a row, Bland's
    rule takes the lowest-index line until one is not, which rules out
    cycling. Returns ``(k, den)``, ``k`` -1 or a line with no pivot: an
    unbounded column, or a row no point makes nonnegative.
    """
    rhs, stall = n_real, 0
    z = tab[zi] if zi >= 0 else [0] * (rhs + 1)
    while True:
        prices, keys = ([row[rhs] for row in tab[:m]], basis) if dual else (z[:rhs], range(rhs))
        first, best = -1, 0
        if stall < _STALL_LIMIT:
            for k, v in enumerate(prices):
                if v < best:
                    best, first = v, k
        else:
            for k, v in enumerate(prices):
                if v < 0 and (first < 0 or keys[k] < keys[first]):
                    first = k
        if first < 0:
            return -1, den
        if dual:
            line, keys = [(z[j], -v) for j, v in enumerate(tab[first][:rhs])], range(rhs)
        else:
            line, keys = [(row[rhs], row[first]) for row in tab[:m]], basis
        second, lnum, lden = -1, 0, 0
        for k, (num, t) in enumerate(line):
            if t > 0:
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
        stall = stall + 1 if lnum == 0 else 0


def _drive_out(tab: list[list[int]], basis: list[int], m: int, n_real: int) -> int:
    """Pivot each basic artificial out by Gaussian elimination, on the real
    column of its row with the fewest nonzeros over the constraint rows, ties
    to the lowest index (Markowitz's sparsity rule, Management Science 3,
    1957); a row with no real entry depends on the others and keeps it.
    Returns the denominator."""
    den = 1
    for i in range(m):
        if basis[i] > n_real:
            real = [j for j in range(n_real) if tab[i][j]]
            if real:
                j = min(real, key=lambda j: sum(1 for row in tab[:m] if row[j]))
                den = _pivot(tab, den, i, j)
                basis[i] = j
    return den


def _eliminated(lp: LinearProgram) -> _Tableau:
    """``lp``'s tableau, with a zero rhs column, at the basis where Gaussian
    elimination pivots each equality's artificial out. It depends only on the
    coefficient rows and the objective: the bounds enter in ``_dual_simplex``."""
    tab, basis = list(lp._form.tab), list(lp._form.units)
    return _Tableau(tab, basis, _drive_out(tab, basis, len(basis), lp._form.n_real), 1)


def _dual_simplex(lp: LinearProgram, t: _Tableau, zi: int) -> _Tableau | LPOutcome:
    """Enter ``lp``'s bounds into a copy of ``t``, whose basis prices out by
    row ``zi`` (-1: a zero objective), and pivot to a feasible basis by the
    dual simplex: the ``_Tableau`` there, or the infeasible outcome.

    The tableau solves for x' = L x, bound k times s_k * L, an integer: L is
    the lcm of the parts of the bounds' denominators that their s_k leave.
    A nonzero value on a row whose artificial stayed basic, or a row the dual
    simplex leaves negative with no negative entry, is infeasible: its row
    of the inverse basis is the Farkas vector."""
    units, restate, rhs = lp._form.units, lp._form.restate, lp._form.n_real
    rows = list(zip(units, restate, (b for _, _, b in lp.constraints)))
    L = lcm(*(b.denominator // gcd(r, b.denominator) for _, r, b in rows))
    scaled = [(u, b.numerator * (r * L // b.denominator)) for u, r, b in rows if b]
    tab = [list(row) for row in t.tab]
    for row in tab:
        row[rhs] = sum(row[u] * b for u, b in scaled)
    t = _Tableau(tab, list(t.basis), t.den, L)
    k = next((i for i, b in enumerate(t.basis) if b > rhs and tab[i][rhs]), -1)
    if k < 0:
        k, den = _run(tab, t.basis, t.den, zi, len(lp.constraints), rhs, True)
        t = t._replace(den=den)
        if k < 0:
            return t
    d = t.den if tab[k][rhs] > 0 else -t.den  # so that y . b > 0
    farkas = tuple(Fraction(tab[k][u] * r, d) for u, r in zip(units, restate))
    return LPOutcome(status="infeasible", farkas=farkas)


def _solved(lp: LinearProgram) -> _Tableau | LPOutcome:
    """``lp``'s optimal tableau, or its infeasible or unbounded outcome: phase 1,
    the dual simplex from ``_eliminated`` under a zero objective, then, with an
    objective, phase 2, the primal simplex priced by its row."""
    t = _dual_simplex(lp, _eliminated(lp), -1)
    if isinstance(t, LPOutcome) or lp.sense == "feasibility":
        return t
    m = len(lp.constraints)
    k, den = _run(t.tab, t.basis, t.den, m, m, lp._form.n_real)
    return LPOutcome(status="unbounded") if k >= 0 else t._replace(den=den)


def _readout(lp: LinearProgram, t: _Tableau) -> LPOutcome:
    """The optimal outcome at tableau ``t``, whose basis is feasible and
    prices out: the witness, and with an objective its value and dual."""
    form, m = lp._form, len(lp.constraints)
    tab, basis, den, L = t
    cols, rhs = form.cols, form.n_real

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
    scale = den * form.obj_scale
    return LPOutcome(
        status="optimal",
        optimum=Fraction(sign * tab[m][rhs], scale * L),
        witness=witness,
        dual=tuple(Fraction(sign * tab[m][u] * r, scale) for u, r in zip(form.units, form.restate)),
    )


def compile_start(lp: LinearProgram) -> LinearProgram:
    """A program equal to ``lp``, sharing its ``_Form``, that carries a start:
    ``lp``'s tableau at the basis where the cold solve ends on ``lp``'s own
    bounds, whose rhs column each solve from it writes anew. ``solve`` starts
    there on it and on every program ``with_bounds`` derives from it; ``lp``
    itself is left as it was.
    """
    t = _solved(lp)
    if isinstance(t, LPOutcome):
        need = "admit a point" if t.status == "infeasible" else "bound the objective"
        raise LPConstructionError(f"the bounds of a start must {need}")
    start = t._replace(tab=tuple(map(tuple, t.tab)), basis=tuple(t.basis))
    program = object.__new__(LinearProgram)
    program.__dict__.update(lp.__dict__, _start=start)
    return program


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
    for name in lp.variables:
        if name in lp.nonneg and witness[name].numerator < 0:
            raise CertificateError(f"witness violates {name} >= 0")
    for k, ((s, nonzeros), (_, relation, bound)) in enumerate(zip(lp._form.rows, lp.constraints)):
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
    rows = lp._form.rows
    multipliers, d = _common(y, "multiplier vector", [s for s, _ in rows])
    combo = [0] * len(lp.variables)
    total, scale = 0, lcm(*(bound.denominator for _, _, bound in lp.constraints))
    for k, (yk, (s, nonzeros), (_, relation, bound)) in enumerate(
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
