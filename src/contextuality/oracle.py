"""Ground-truth computations on the full joint-distribution polytope.

Every observable-plus-connection probability vector p that some joint
distribution q over all outcome combinations can produce satisfies p = M q
with q >= 0, where M is a 0/1 incidence matrix whose columns are the
polytope's vertices. Feasibility and extremization over that polytope are
decided by exact LP, independently of any closed-form shortcut; the closed
forms are tested against this module, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Sequence

from . import cyclic
from .core import OUTCOMES, System, as_fraction, max_signed_sum_odd
from .ratlp import LinearProgram, LPOutcome, is_feasible, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Per kind: the variables, the observed pairs and the connections. This table
# is the oracle's own, kept apart from the cycle each system class declares,
# so that a wrong connection in either one shows up in the cross-checks.
# Atom variable order fixes the column layout: atom k assigns +1 to variable v
# when bit (n_vars - 1 - v) of k is 0, and -1 when it is 1.
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

_OUTCOME_PAIRS = tuple((x, y) for x in OUTCOMES for y in OUTCOMES)


class InternalInconsistencyError(RuntimeError):
    """An LP that must be feasible for valid input was not; a bug signal."""


@dataclass(frozen=True)
class VertexMatrix:
    """0/1 incidence of event-probability rows against outcome-combination atoms.

    Rows: observed pairs first (setting/time order, cells ordered (+,+),
    (+,-), (-,+), (-,-)), then connection pairs in canonical order. Each atom
    column hits exactly one cell in every pair group, so all columns sum to
    the number of groups.
    """

    kind: str
    variables: tuple[str, ...]
    row_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_atoms(self) -> int:
        return len(self.entries[0])

    @property
    def n_observed_rows(self) -> int:
        return self.n_rows // 2


def _atom_value(atom: int, var_index: int, n_vars: int) -> int:
    return 1 if not (atom >> (n_vars - 1 - var_index)) & 1 else -1


@lru_cache(maxsize=None)
def build_vertex_matrix(kind: str) -> VertexMatrix:
    """The coupling-polytope vertex matrix: 32 x 256 for "bell", 24 x 64 for "lg"."""
    if kind not in _CYCLES:
        raise ValueError(f"unknown system kind {kind!r}")
    variables, observed, connections = _CYCLES[kind]
    n_vars = len(variables)
    n_atoms = 1 << n_vars
    index = {name: i for i, name in enumerate(variables)}
    rows = []
    labels = []
    for v1, v2 in observed + connections:
        i1, i2 = index[v1], index[v2]
        for x, y in _OUTCOME_PAIRS:
            labels.append(f"p({v1}={x:+d},{v2}={y:+d})")
            rows.append(
                tuple(
                    1
                    if _atom_value(a, i1, n_vars) == x and _atom_value(a, i2, n_vars) == y
                    else 0
                    for a in range(n_atoms)
                )
            )
    return VertexMatrix(kind, variables, tuple(labels), tuple(rows))


def observed_vector(sys: System) -> tuple[Fraction, ...]:
    """Observed cell probabilities in vertex-matrix row order."""
    cells: list[Fraction] = []
    for pair in sys.pairs():
        cells.extend(pair.cells())
    return tuple(cells)


@lru_cache(maxsize=None)
def _atom_names(kind: str) -> tuple[str, ...]:
    n = build_vertex_matrix(kind).n_atoms
    return tuple(f"q{k:03d}" for k in range(n))


@lru_cache(maxsize=None)
def _unequal_rows(kind: str) -> tuple[tuple[int, ...], ...]:
    """Per connection, the 0/1 atom indicator of the two variables differing."""
    vm = build_vertex_matrix(kind)
    cells = vm.entries[vm.n_observed_rows :]  # (+,+), (+,-), (-,+), (-,-) per connection
    return tuple(tuple(map(add, pm, mp)) for pm, mp in zip(cells[1::4], cells[2::4]))


@lru_cache(maxsize=None)
def _template(kind: str, sense: str) -> LinearProgram:
    """The coupling program of ``kind`` with every bound 0, compiled once.

    Atoms q >= 0 and one equality per observed cell. A "feasibility" program
    also pins each connection's mismatch row (``_unequal_rows``); a "min" or
    "max" program extremizes their sum instead. A connection's four cells lie
    in the span of the observed rows and its mismatch row, so that pin fixes
    its whole 2x2 table. Each 0/1 entry is one shared ``Fraction``, so a
    template costs one reference per entry.
    """
    vm = build_vertex_matrix(kind)
    names = _atom_names(kind)
    pinned = _unequal_rows(kind) if sense == "feasibility" else ()
    rows = vm.entries[: vm.n_observed_rows] + pinned
    return LinearProgram(
        names,
        tuple((tuple((_ZERO, _ONE)[e] for e in row), "==", _ZERO) for row in rows),
        objective=None if sense == "feasibility" else tuple(map(sum, zip(*_unequal_rows(kind)))),
        sense=sense,
        nonneg=frozenset(names),
    )


def _fits(sys: System, mismatches: Sequence[Fraction]) -> bool:
    """Does some joint distribution reproduce the observed pairs of ``sys``
    with each connection mismatching with the given probability?"""
    expected = len(_unequal_rows(sys.KIND))
    if len(mismatches) != expected:
        raise ValueError(f"expected {expected} connection values, got {len(mismatches)}")
    program = _template(sys.KIND, "feasibility")
    return is_feasible(program.with_bounds((*observed_vector(sys), *mismatches)))


def compatible(sys: System, connections: Sequence) -> bool:
    """Can a joint distribution reproduce the observed pairs while each
    connection mismatches with exactly the given probability?

    ``connections`` lists Pr[X != X'] per connection in canonical order
    (4 values for Bell systems, 3 for temporal ones). With the observed rows
    fixing each connection's marginals, its mismatch fixes its whole table.
    """
    return _fits(sys, [as_fraction(c) for c in connections])


def _extremum(sys: System, sense: str) -> LPOutcome:
    """The optimal outcome of the ``sense`` ("min" or "max") total-mismatch program."""
    outcome = solve(_template(sys.KIND, sense).with_bounds(observed_vector(sys)))
    if outcome.status != "optimal":
        raise InternalInconsistencyError(
            f"mismatch {sense}imization reported {outcome.status}; "
            "the observed distributions cannot be valid"
        )
    return outcome


def delta_extrema(sys: System) -> tuple[Fraction, Fraction]:
    """(min, max) of the total connection mismatch over all compatible joints."""
    return (_extremum(sys, "min").optimum, _extremum(sys, "max").optimum)


def degree(sys: System, causal: bool = True) -> Fraction:
    """Definitional degree max(0, delta_min - delta0), delta_min by LP.

    Solves only the "min" program. ``causal`` only affects layouts with a
    time order (temporal systems), matching the closed-form treatment of the
    first connection.
    """
    if causal:
        cyclic.check_causal(sys)
    return max(_ZERO, _extremum(sys, "min").optimum - cyclic.delta0(sys))


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
    if causal:
        cyclic.check_causal(sys)
    lo, hi = _extremum(sys, "min"), _extremum(sys, "max")
    c0 = cyclic.minimal_connections(sys)
    witness = tuple(lo.witness[name] for name in _atom_names(sys.KIND))
    return OracleResult(
        delta_min=lo.optimum,
        delta_max=hi.optimum,
        feasible_at_c0=compatible(sys, c0.components()),
        witness_joint=witness,
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
