"""Ground truth over the coupling polytope, by an exact chordal LP.

A coupling of a system is a joint distribution of all 2n of its +/-1
variables. Observed pairs and connections alternate around one cycle of
those variables, and every quantity the oracle reads (an observed cell, a
connection's mismatch) lives on one edge of the cycle. Fanning the cycle from
its first vertex gives 2n - 2 triangles (w0, w_i, w_i+1), a chordal cover,
and tables on a chordal cover that agree on the separators between them
always extend to a joint distribution (Vorob'ev, Theory Probab. Appl. 7,
1962; the junction-tree theorem, Wainwright & Jordan 2008, section 2.5). So
the LP ranges over one 8-cell table per triangle, q >= 0: each observed cell
is pinned in the first triangle holding its pair, and the two triangles
beside each chord (w0, w_i) have equal 2x2 marginals on it. For Bell systems
that is 36 rows by 48 cells in place of 16 rows over all 2^(2n) = 256 atoms,
the outcome assignments of the 2n variables. Feasibility and extremization
are decided by exact LP, independently of any closed-form shortcut; the
closed forms are tested against this module, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from . import cyclic
from .core import OUTCOMES, System, as_fraction, max_signed_sum_odd
from .ratlp import LinearProgram, LPOutcome, compile_start, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

# Per kind: the variables, the observed pairs and the connections. This table
# is the oracle's own, kept apart from the cycle each system class declares,
# so that a wrong connection in either one shows up in the cross-checks.
# The variable order fixes the atom order of ``OracleResult.witness_joint``:
# atom k assigns +1 to variable v when bit (n_vars - 1 - v) of k is 0, and -1
# when it is 1.
_CYCLES = {
    "bell": (
        ("A11", "B11", "A12", "B12", "A21", "B21", "A22", "B22"),
        (("A11", "B11"), ("A12", "B12"), ("A21", "B21"), ("A22", "B22")),
        (("A11", "A12"), ("A21", "A22"), ("B11", "B21"), ("B12", "B22")),
    ),
    "lg": (
        ("Q12", "Q21", "Q13", "Q31", "Q23", "Q32"),
        (("Q12", "Q21"), ("Q13", "Q31"), ("Q23", "Q32")),
        (("Q12", "Q13"), ("Q21", "Q23"), ("Q31", "Q32")),
    ),
}

_OUTCOME_PAIRS = tuple(product(OUTCOMES, repeat=2))
# The cells of one triangle (w0, w_i, w_i+1), in column order.
_TRIANGLE_CELLS = tuple(product(OUTCOMES, repeat=3))
_UNEQUAL = ((1, -1), (-1, 1))


class InternalInconsistencyError(RuntimeError):
    """An LP that must be feasible for valid input was not; a bug signal."""


def observed_vector(sys: System) -> tuple[Fraction, ...]:
    """Observed cell probabilities, pair by pair in the system's order, cells
    ordered (+,+), (+,-), (-,+), (-,-)."""
    cells: list[Fraction] = []
    for pair in sys.pairs():
        cells.extend(pair.cells())
    return tuple(cells)


@lru_cache(maxsize=None)
def _fan(kind: str) -> tuple[tuple[str, str, str], ...]:
    """The fan triangulation (w0, w_i, w_i+1), i = 1 .. 2n-2, of ``kind``'s cycle.

    The cycle w0 .. w_2n-1 starts at the first observed pair and alternates
    observed pairs and connections. Triangle i - 1 and triangle i share the
    chord (w0, w_i+1).
    """
    variables, observed, connections = _CYCLES[kind]
    walk = [observed[0][0]]
    for step in range(len(variables) - 1):
        here = walk[-1]
        edges = connections if step % 2 else observed
        walk.append(next(b if a == here else a for a, b in edges if here in (a, b)))
    return tuple((walk[0], walk[i], walk[i + 1]) for i in range(1, len(walk) - 1))


def _cells(fan, pair: tuple[str, str], cell: tuple[int, int], t: int = -1) -> tuple[int, ...]:
    """The columns of triangle ``t`` (by default the first holding ``pair``)
    whose cell gives ``pair`` the outcomes ``cell``."""
    if t < 0:
        t = next(t for t, triangle in enumerate(fan) if set(pair) <= set(triangle))
    i, j = fan[t].index(pair[0]), fan[t].index(pair[1])
    return tuple(8 * t + k for k, c in enumerate(_TRIANGLE_CELLS) if (c[i], c[j]) == cell)


@lru_cache(maxsize=None)
def _cell_names(kind: str) -> tuple[str, ...]:
    """The LP columns: triangle t's cell (x0, xi, xi+1) is named like "t2+-+"."""
    return tuple(
        f"t{t}" + "".join("+" if x > 0 else "-" for x in cell)
        for t in range(len(_fan(kind)))
        for cell in _TRIANGLE_CELLS
    )


def _row(n_cols: int, plus: Sequence[int], minus: Sequence[int] = ()) -> tuple[Fraction, ...]:
    row = [_ZERO] * n_cols
    for j in plus:
        row[j] = _ONE
    for j in minus:
        row[j] = _MINUS_ONE
    return tuple(row)


@lru_cache(maxsize=None)
def _template(kind: str, sense: str) -> LinearProgram:
    """The chordal coupling program of ``kind`` and ``sense``, with the start
    that ``solve`` solves each system's program from.

    Cells q >= 0, one equality per observed cell, then four separator rows
    per chord (its 2x2 marginal in the triangle before it minus that in the
    triangle after it, bound 0). A "min" or "max" program extremizes the sum
    of the connections' mismatch rows, the cells (+,-) and (-,+) of the
    triangle holding each; a "feasibility" program pins each one instead. A
    connection's four cells lie in the span of the observed rows and its
    mismatch row, so that pin fixes its whole 2x2 table. Bell programs are
    36 x 48 (feasibility 40 x 48), temporal ones 24 x 32 (27 x 32).

    The separator rows give every triangle one mass, and each pair's cells
    sum to the mass of a triangle: n - 1 rows depend on the others and keep
    their artificials basic in every start, at zero exactly when all pairs
    have one mass. The bounds, every observed cell 1/4, fix each start by
    the program's own phase 1, elimination then the dual simplex, and with
    an objective phase 2.
    """
    _, observed, connections = _CYCLES[kind]
    fan = _fan(kind)
    n_cols = 8 * len(fan)
    rows = [_row(n_cols, _cells(fan, pair, cell)) for pair in observed for cell in _OUTCOME_PAIRS]
    for t in range(1, len(fan)):
        chord = fan[t][:2]
        rows.extend(
            _row(n_cols, _cells(fan, chord, cell, t - 1), _cells(fan, chord, cell, t))
            for cell in _OUTCOME_PAIRS
        )
    mismatch = [
        _row(n_cols, sum((_cells(fan, pair, cell) for cell in _UNEQUAL), ()))
        for pair in connections
    ]
    if sense == "feasibility":
        rows += mismatch
    names = _cell_names(kind)
    program = LinearProgram(
        names,
        tuple((row, "==", Fraction(k < 4 * len(observed), 4)) for k, row in enumerate(rows)),
        objective=None if sense == "feasibility" else tuple(map(sum, zip(*mismatch))),
        sense=sense,
        nonneg=frozenset(names),
    )
    return compile_start(program)


def _program(sys: System, sense: str, mismatches: Sequence[Fraction] = ()) -> LinearProgram:
    """The ``sense`` template of ``sys``'s kind with its observed cells, zero
    on every separator row, and ``mismatches`` pinned (feasibility only)."""
    separators = (_ZERO,) * (4 * len(_fan(sys.KIND)) - 4)
    return _template(sys.KIND, sense).with_bounds(
        (*observed_vector(sys), *separators, *mismatches)
    )


def _joint(kind: str, witness: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """The joint over all atoms, in the atom order of ``_CYCLES``, that the
    triangle tables of ``witness`` determine.

    It is the product of the triangle tables over the separator marginals
    between them, grown one triangle at a time: triangle t fixes w_t+2 given
    (w0, w_t+1), with 0/0 = 0 (a zero separator cell bounds its triangle
    cells to zero). Each triangle's table is this joint's marginal on it.
    """
    fan, names = _fan(kind), _cell_names(kind)
    tables = [
        dict(zip(_TRIANGLE_CELLS, (witness[name] for name in names[8 * t : 8 * t + 8])))
        for t in range(len(fan))
    ]
    joint = dict(tables[0])  # outcomes of (w0, w1, w2)
    for table in tables[1:]:
        separator = {pair: table[pair + (1,)] + table[pair + (-1,)] for pair in _OUTCOME_PAIRS}
        grown = {}
        for outcomes, q in joint.items():
            s = separator[outcomes[0], outcomes[-1]]
            for x in OUTCOMES:
                grown[outcomes + (x,)] = q * table[outcomes[0], outcomes[-1], x] / s if q else _ZERO
        joint = grown
    variables = _CYCLES[kind][0]
    walk = fan[0][:2] + tuple(triangle[2] for triangle in fan)
    order = [walk.index(v) for v in variables]
    atoms = [_ZERO] * len(joint)
    for outcomes, q in joint.items():
        atoms[sum(1 << k for k, w in enumerate(reversed(order)) if outcomes[w] < 0)] = q
    return tuple(atoms)


def _fits(sys: System, mismatches: Sequence[Fraction]) -> bool:
    """Does some joint distribution reproduce the observed pairs of ``sys``
    with each connection mismatching with the given probability?"""
    expected = len(_CYCLES[sys.KIND][2])
    if len(mismatches) != expected:
        raise ValueError(f"expected {expected} connection values, got {len(mismatches)}")
    return solve(_program(sys, "feasibility", mismatches)).status == "optimal"


def compatible(sys: System, connections: Sequence) -> bool:
    """Can a joint distribution reproduce the observed pairs while each
    connection mismatches with exactly the given probability?

    ``connections`` lists Pr[X != X'] per connection in canonical order
    (4 values for Bell systems, 3 for temporal ones). With the observed rows
    fixing each connection's marginals, its mismatch fixes its whole table.
    """
    return _fits(sys, [as_fraction(c) for c in connections])


def _optimal(outcome: LPOutcome, sense: str) -> LPOutcome:
    """``outcome`` of the total-mismatch ``sense``imization, which valid
    observed distributions always make optimal."""
    if outcome.status != "optimal":
        raise InternalInconsistencyError(
            f"mismatch {sense}imization reported {outcome.status}; "
            "the observed distributions cannot be valid"
        )
    return outcome


def _extrema(sys: System) -> tuple[LPOutcome, LPOutcome]:
    """The optimal outcomes of the total-mismatch program, min then max."""
    lo = _optimal(solve(_program(sys, "min")), "min")
    return lo, _optimal(solve(_program(sys, "max")), "max")


def delta_extrema(sys: System) -> tuple[Fraction, Fraction]:
    """(min, max) of the total connection mismatch over all compatible joints."""
    lo, hi = _extrema(sys)
    return (lo.optimum, hi.optimum)


def degree(sys: System, causal: bool = True) -> Fraction:
    """Definitional degree max(0, delta_min - delta0), delta_min by LP.

    Solves only the "min" program; ``delta0`` reads ``causal`` as
    ``cyclic.delta0`` does.
    """
    d0 = cyclic.delta0(sys, causal)
    lo = _optimal(solve(_program(sys, "min")), "min")
    return max(_ZERO, lo.optimum - d0)


@dataclass(frozen=True)
class OracleResult:
    """LP-certified mismatch range plus a compatibility verdict and witness."""

    delta_min: Fraction
    delta_max: Fraction
    feasible_at_c0: bool
    witness_joint: tuple[Fraction, ...]


def report(sys: System, causal: bool = True) -> OracleResult:
    """Run the full oracle: mismatch extrema, compatibility at the minimal
    connection vector, and the joint-distribution witness of the minimum."""
    c0 = cyclic.minimal_connections(sys, causal)
    lo, hi = _extrema(sys)
    return OracleResult(
        delta_min=lo.optimum,
        delta_max=hi.optimum,
        feasible_at_c0=compatible(sys, c0.components()),
        witness_joint=_joint(sys.KIND, lo.witness),
    )


def compatibility_verdicts(
    sys: System, connection_means: Sequence
) -> tuple[bool, bool]:
    """Decide two ways whether fully specified connections fit the observed pairs.

    ``connection_means`` gives the product expectation <X X'> of each
    connection in canonical order. Returns (closed-form verdict, LP verdict):
    the closed form combines the parity-maximum inequalities with the cell
    nonnegativity bounds on each connection; the LP is ``compatible`` at the
    mismatches (1 - <X X'>)/2, since a connection's four cells lie in the span
    of the observed rows and its mismatch row. The two must agree on every input.
    """
    means = [as_fraction(c) for c in connection_means]
    # a negative implied cell (as from any |<X X'>| > 1) leaves no q >= 0
    by_lp = _fits(sys, [(1 - t) / 2 for t in means])

    marg = cyclic.connection_marginal_pairs(sys)
    frechet_ok = all(
        -1 + abs(m1 + m2) <= t <= 1 - abs(m1 - m2)
        for (m1, m2), t in zip(marg, means)
    )
    # one odd-parity condition over the n products and the n connection terms
    bound = 2 * len(marg) - 2
    closed = frechet_ok and max_signed_sum_odd(sys.product_means() + tuple(means)) <= bound
    return (closed, by_lp)
