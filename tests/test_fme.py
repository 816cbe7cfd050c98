import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import bell, cyclic, fme, lg, oracle
from contextuality.fme import (
    InequalitySystem,
    UnknownVariableError,
    UnusablePivotError,
    derive_delta_bounds,
    eliminate,
    project_to_delta,
    remove_redundant,
    substitute_equality,
)
from contextuality.generators import (
    deterministic_bell,
    deterministic_lg,
    lg_anticorrelated,
    pr_signaling_family,
    random_system,
    split_seed,
)
from contextuality.core import BellSystem, LGSystem, PairDistribution
from contextuality.ratlp import LinearProgram, is_feasible

F = Fraction

small_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
slack_st = st.fractions(min_value=-1, max_value=3, max_denominator=4)


@st.composite
def substitution_case(draw):
    """A system over x0, x1, x2 whose equality row at ``index`` is solvable for
    x0, and a point (x1, x2). Rows are drawn around a point of R^3 so that
    the point is sometimes feasible and sometimes not."""
    center = [draw(small_st) for _ in range(3)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [draw(small_st) for _ in range(3)]
        relation = draw(st.sampled_from(("<=", "<=", "==")))
        slack = draw(slack_st) if relation == "<=" else draw(st.sampled_from((0, 0, 0, F(1, 2))))
        rows.append((coeffs, relation, sum(c * x for c, x in zip(coeffs, center)) + slack))
    # fractional, negative and mixed-sign pivots on x0
    pivot = [draw(small_st.filter(bool)), draw(small_st), draw(small_st)]
    index = draw(st.integers(0, len(rows)))
    rows.insert(index, (pivot, "==", sum(c * x for c, x in zip(pivot, center))))
    shift = draw(st.sampled_from((0, 0, F(1, 3), F(-1, 2))))
    point = (center[1] + shift, center[2])
    return InequalitySystem(("x0", "x1", "x2"), tuple(rows)), index, point


class TestEliminate:
    def test_single_pairings(self):
        system = InequalitySystem(
            ("x", "y"), (((0, 1), "<=", 2), ((0, -1), "<=", 0), ((1, -1), "<=", 1))
        )
        out = eliminate(system, "y")
        assert out.variables == ("x",)
        assert out.rows == (((F(1),), "<=", F(3)),)
        assert out.dropped_vacuous == 1  # 0 <= 2 from pairing the y-bounds

    def test_interval_collapse_to_tautology(self):
        system = InequalitySystem(("x", "y"), (((1, 1), "<=", 1), ((-1, -1), "<=", -1)))
        out = eliminate(system, "y")
        assert out.rows == ()
        assert out.dropped_vacuous == 1

    def test_infeasible_constant_row_is_kept(self):
        system = InequalitySystem(("x", "y"), (((1, 1), "<=", 0), ((-1, -1), "<=", -1)))
        out = eliminate(system, "y")
        assert out.rows == (((F(0),), "<=", F(-1)),)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            eliminate(InequalitySystem(("x",), ()), "z")

    def test_equality_involvement_rejected(self):
        system = InequalitySystem(("x", "y"), (((1, 1), "==", 1),))
        with pytest.raises(UnusablePivotError):
            eliminate(system, "y")

    def test_row_ceiling(self):
        rows = [((1, k), "<=", k) for k in range(101)] + [((-1, k), "<=", k) for k in range(101)]
        system = InequalitySystem(("x", "y"), tuple(rows))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="10201 rows"):
            eliminate(system, "x")
        assert time.perf_counter() - start < 1

    def test_projection_matches_lp_feasibility(self):
        # at sampled points of the remaining variables, satisfying the
        # projection must coincide with the original system being satisfiable
        rng = random.Random(5)
        for trial in range(12):
            n = 4
            names = tuple(f"x{i}" for i in range(n))
            rows = []
            for _ in range(rng.randint(4, 8)):
                coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(n))
                rows.append((coeffs, "<=", F(rng.randint(-3, 6), rng.randint(1, 2))))
            system = InequalitySystem(names, tuple(rows))
            projected = eliminate(system, names[0])
            for _ in range(12):
                point = {nm: F(rng.randint(-4, 4), rng.randint(1, 3)) for nm in names[1:]}
                satisfied = all(
                    sum((c * point[nm] for c, nm in zip(coeffs, projected.variables)), F(0))
                    <= bound
                    for coeffs, _, bound in projected.rows
                )
                pinned = list(system.rows) + [
                    (tuple(F(nm2 == nm) for nm2 in names), "==", point[nm])
                    for nm in names[1:]
                ]
                lp = LinearProgram(names, tuple(pinned))
                assert satisfied == is_feasible(lp), (trial, point)


class TestSubstituteEquality:
    def test_basic(self):
        system = InequalitySystem(("x", "y"), (((1, 1), "==", 3), ((1, 0), "<=", 1)))
        out = substitute_equality(system, 0, "x")
        assert out.variables == ("y",)
        assert out.rows == (((F(-1),), "<=", F(-2)),)

    def test_back_solve_recovers_assignment(self):
        system = InequalitySystem(
            ("x", "y"), (((2, 1), "==", 4), ((1, 0), "<=", 1), ((0, -1), "<=", 0))
        )
        out = substitute_equality(system, 0, "x")
        # pick any y satisfying the reduced system, back-solve x = (4 - y)/2
        y = F(2)
        assert all(
            sum((c * y for c in coeffs), F(0)) <= bound for coeffs, _, bound in out.rows
        )
        x = (4 - y) / 2
        assert 2 * x + y == 4 and x <= 1 and y >= 0

    def test_zero_pivot_rejected(self):
        system = InequalitySystem(("x", "y"), (((0, 1), "==", 3),))
        with pytest.raises(UnusablePivotError):
            substitute_equality(system, 0, "x")

    def test_non_equality_rejected(self):
        system = InequalitySystem(("x",), (((1,), "<=", 3),))
        with pytest.raises(UnusablePivotError):
            substitute_equality(system, 0, "x")

    @pytest.mark.parametrize("index", [-1, -2, 2])
    def test_row_index_out_of_range(self, index):
        system = InequalitySystem(("x", "y"), (((1, 0), "<=", 1), ((1, 1), "==", 3)))
        with pytest.raises(IndexError, match=f"no row {index}"):
            substitute_equality(system, index, "x")

    @settings(max_examples=100, deadline=None)
    @given(substitution_case())
    def test_substitution_matches_lp_feasibility(self, case):
        # at a point (x1, x2), the reduced system must hold exactly when the
        # original system, with x1 and x2 pinned there, is satisfiable
        system, index, point = case
        reduced = substitute_equality(system, index, "x0")
        assert reduced.variables == ("x1", "x2")
        holds = True
        for coeffs, relation, bound in reduced.rows:
            lhs = sum((c * x for c, x in zip(coeffs, point)), F(0))
            holds &= lhs == bound if relation == "==" else lhs <= bound
        pinned = list(system.rows) + [((0, 1, 0), "==", point[0]), ((0, 0, 1), "==", point[1])]
        assert holds == is_feasible(LinearProgram(system.variables, tuple(pinned)))

    def test_mismatch_equality_expansion_by_hand(self):
        # substituting t1 = 4 - 2 d - t2 into the pattern row t1 - t2 <= 3/2
        # must give -2 t2 - 2 d <= -5/2
        system = InequalitySystem(
            ("t1", "t2", "d"),
            (
                ((1, -1, 0), "<=", F(3, 2)),
                ((F(1, 2), F(1, 2), 1), "==", 2),
            ),
        )
        out = substitute_equality(system, 1, "t1")
        assert out.variables == ("t2", "d")
        ((coeffs, relation, bound),) = out.rows
        assert relation == "<="
        # normalization divides by the content 2
        assert coeffs == (F(-1), F(-1)) and bound == F(-5, 4)


class TestRemoveRedundant:
    def test_dominated_bound(self):
        system = InequalitySystem(("x",), (((1,), "<=", 1), ((1,), "<=", 2)))
        assert remove_redundant(system).rows == (((F(1),), "<=", F(1)),)

    def test_summed_row_dropped(self):
        system = InequalitySystem(
            ("x", "y"), (((1, 0), "<=", 1), ((0, 1), "<=", 1), ((1, 1), "<=", 2))
        )
        out = remove_redundant(system)
        assert len(out.rows) == 2

    def test_idempotent_and_solution_preserving(self):
        rng = random.Random(17)
        for _ in range(10):
            n = 3
            names = tuple(f"x{i}" for i in range(n))
            rows = [
                (tuple(F(rng.randint(-2, 2)) for _ in range(n)), "<=", F(rng.randint(0, 5)))
                for _ in range(8)
            ]
            system = InequalitySystem(names, tuple(rows))
            pruned = remove_redundant(system)
            assert remove_redundant(pruned) == pruned
            # mutual implication: each original row is implied by the pruned
            # system and vice versa (checked by LP maximization)
            from contextuality.ratlp import solve

            for coeffs, _, bound in system.rows:
                lp = LinearProgram(names, pruned.rows, objective=coeffs, sense="max")
                out = solve(lp)
                assert out.status != "optimal" or out.optimum <= bound or any(
                    r == (coeffs, "<=", bound) for r in pruned.rows
                )

    def test_keeps_unbounded_directions(self):
        system = InequalitySystem(("x", "y"), (((1, 0), "<=", 1),))
        assert remove_redundant(system) == system


class TestDeriveDeltaBounds:
    def test_pr_box(self):
        assert derive_delta_bounds(pr_signaling_family(1, 0)) == (1, 3)

    def test_all_zero_bell(self):
        uniform = PairDistribution.from_expectations(0, 0, 0)
        assert derive_delta_bounds(BellSystem(uniform, uniform, uniform, uniform)) == (0, 4)

    def test_lg_anticorrelated(self):
        assert derive_delta_bounds(lg_anticorrelated()) == (1, 3)

    def test_deterministic_cases(self):
        assert derive_delta_bounds(deterministic_bell(1, 1)) == (0, 0)
        assert derive_delta_bounds(deterministic_lg(1)) == (0, 0)

    def test_projection_reduces_to_two_facets(self):
        projected = project_to_delta(pr_signaling_family(1, 0))
        assert projected.variables == ("delta",)
        assert len(projected.rows) == 2
        bounds = sorted(bound / coeffs[0] for coeffs, _, bound in projected.rows)
        assert bounds == [1, 3]  # delta >= 1 arrives as -delta <= -1

    @pytest.mark.parametrize("kind, seed, count", [("bell", 91, 25), ("lg", 97, 25)])
    def test_three_way_agreement(self, kind, seed, count):
        closed = bell.delta_interval if kind == "bell" else lg.delta_interval
        for i in range(count):
            sys = random_system(kind, split_seed(seed, i), "none" if i % 2 else "no_signaling")
            interval = derive_delta_bounds(sys)
            assert interval == closed(sys), i
            assert interval == oracle.delta_extrema(sys), i


def _degenerate_systems():
    """Zero-cell, boundary and box systems of both kinds."""
    uniform = PairDistribution.from_expectations(0, 0, 0)
    yield BellSystem(uniform, uniform, uniform, uniform)
    yield LGSystem(uniform, uniform, uniform)
    yield lg_anticorrelated()
    for q in (1, -1):
        yield deterministic_lg(q)
        for b in (1, -1):
            yield deterministic_bell(q, b)
    for delta in (0, F(1, 2), 1):
        for epsilon in (0, F(1, 4), F(1, 2)):
            yield pr_signaling_family(delta, epsilon)


def _seeded_systems(count):
    for kind, seed in (("bell", 131), ("lg", 137)):
        for i in range(count):
            constraint = ("none", "no_signaling", "signaling_only")[i % 3]
            yield random_system(kind, split_seed(seed, i), constraint)


class TestPureProjection:
    """The projection keeps its rows small by merging parallel rows alone."""

    def test_no_lp_on_the_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the projection route built or solved an LP")

        monkeypatch.setattr(fme, "LinearProgram", refuse)
        monkeypatch.setattr(fme, "solve", refuse)
        for sys in itertools.chain(_seeded_systems(12), _degenerate_systems()):
            assert derive_delta_bounds(sys) == cyclic.delta_interval(sys)

    def test_row_counts_per_step(self, monkeypatch):
        counts = []

        def recording(step):
            def wrapped(*args):
                out = step(*args)
                counts.append(len(out.rows))
                return out
            return wrapped

        monkeypatch.setattr(fme, "substitute_equality", recording(substitute_equality))
        monkeypatch.setattr(fme, "eliminate", recording(eliminate))
        for sys in itertools.chain(_seeded_systems(30), _degenerate_systems()):
            counts.clear()
            projected = project_to_delta(sys)
            rank = len(cyclic.connection_marginal_pairs(sys))
            assert len(counts) == rank
            assert max(counts) <= (24 if rank == 4 else 14), counts
            assert counts[-1] == len(projected.rows) == 2, counts
