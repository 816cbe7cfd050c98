import operator
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.ratlp import (
    CertificateError,
    LinearProgram,
    LPConstructionError,
    LPOutcome,
    SolverError,
    _pivot,
    check_certificate,
    compile_start,
    solve,
)
from helpers import atom_rows, brute_force_lp, reference_check_certificate

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"


def box(names, lo=-5, hi=5):
    n = len(names)
    rows = []
    for j in range(n):
        unit = tuple(F(k == j) for k in range(n))
        rows.append((unit, "<=", F(hi)))
        rows.append((unit, ">=", F(lo)))
    return rows


class TestSolveBasics:
    def test_min_between_bounds(self):
        lp = LinearProgram(("x",), (((1,), ">=", 3), ((1,), "<=", 5)), objective=(1,), sense="min")
        out = solve(lp)
        assert out.status == "optimal" and out.optimum == 3
        assert out.witness == {"x": F(3)}
        check_certificate(lp, out)

    def test_infeasible_pair(self):
        lp = LinearProgram(("x",), (((1,), ">=", 1), ((1,), "<=", 0)))
        out = solve(lp)
        assert out.status == "infeasible"
        assert out.farkas is not None
        check_certificate(lp, out)

    def test_max_simplex_face(self):
        lp = LinearProgram(
            ("x", "y"),
            (((1, 1), "<=", F(7, 3)),),
            objective=(1, 1),
            sense="max",
            nonneg=frozenset({"x", "y"}),
        )
        out = solve(lp)
        assert out.status == "optimal" and out.optimum == F(7, 3)
        check_certificate(lp, out)

    def test_unbounded(self):
        lp = LinearProgram(("x",), (), objective=(1,), sense="max")
        assert solve(lp).status == "unbounded"
        # an unbounded outcome carries no certificate to check
        assert check_certificate(lp, LPOutcome(status="unbounded")) is None

    def test_native_equalities(self):
        lp = LinearProgram(
            ("x", "y"),
            (((1, 1), "==", 2), ((2, 2), "==", 4), ((1, -1), "==", 0)),
            objective=(1, 0),
            sense="min",
            nonneg=frozenset({"x", "y"}),
        )
        out = solve(lp)
        assert out.optimum == 1 and out.witness == {"x": F(1), "y": F(1)}
        check_certificate(lp, out)

    def test_free_variable_goes_negative(self):
        lp = LinearProgram(("x",), (((1,), ">=", F(-5, 2)),), objective=(1,), sense="min")
        assert solve(lp).optimum == F(-5, 2)


class TestFeasibility:
    def test_empty_constraints_feasible(self):
        assert solve(LinearProgram(("x",), ())).status != "infeasible"

    def test_conflicting_equalities(self):
        lp = LinearProgram(("x",), (((1,), "==", 1), ((1,), "==", 2)))
        assert solve(lp).status == "infeasible"

    def test_random_consistent_boxes(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            names = tuple(f"x{i}" for i in range(n))
            rows = []
            midpoint = {}
            for j, name in enumerate(names):
                lo = F(rng.randint(-6, 6), rng.randint(1, 4))
                hi = lo + F(rng.randint(0, 8), rng.randint(1, 4))
                unit = tuple(F(k == j) for k in range(n))
                rows.append((unit, ">=", lo))
                rows.append((unit, "<=", hi))
                midpoint[name] = (lo + hi) / 2
            lp = LinearProgram(names, tuple(rows))
            # the midpoint is a hand-constructed witness, so this must be feasible
            out = solve(lp)
            assert out.status != "infeasible"
            for (coeffs, rel, bound) in lp.constraints:
                value = sum(c * out.witness[nm] for c, nm in zip(coeffs, names))
                assert value <= bound if rel == "<=" else value >= bound


class TestConstruction:
    def test_duplicate_names(self):
        with pytest.raises(LPConstructionError):
            LinearProgram(("x", "x"), ())

    def test_length_mismatch(self):
        with pytest.raises(LPConstructionError):
            LinearProgram(("x", "y"), (((1,), "<=", 0),))

    def test_unknown_relation(self):
        with pytest.raises(LPConstructionError):
            LinearProgram(("x",), (((1,), "<", 0),))

    def test_objective_required_for_min(self):
        with pytest.raises(LPConstructionError):
            LinearProgram(("x",), (), sense="min")

    def test_objective_forbidden_for_feasibility(self):
        with pytest.raises(LPConstructionError):
            LinearProgram(("x",), (), objective=(1,), sense="feasibility")

    def test_unknown_nonneg_name(self):
        with pytest.raises(LPConstructionError):
            LinearProgram(("x",), (), nonneg=frozenset({"z"}))

    @pytest.mark.parametrize("item", [((1,), "<="), 5])
    def test_constraint_not_a_triple(self, item):
        with pytest.raises(LPConstructionError, match=r"constraint 0: expected \(coefficients"):
            LinearProgram(("x",), (item,))

    def test_unknown_sense(self):
        with pytest.raises(LPConstructionError, match="unknown sense 'maximize'"):
            LinearProgram(("x",), (), objective=(1,), sense="maximize")

    def test_objective_length_mismatch(self):
        with pytest.raises(LPConstructionError, match="objective has 1 coefficients for 2 variables"):
            LinearProgram(("x", "y"), (), objective=(1,), sense="min")


class TestDeterminismAndCertificates:
    def test_identical_programs_identical_outcomes(self):
        lp = LinearProgram(
            ("x", "y"),
            (((1, 1), "<=", 3), ((1, -1), ">=", F(1, 2))),
            objective=(2, 1),
            sense="max",
            nonneg=frozenset({"x", "y"}),
        )
        assert solve(lp) == solve(lp)

    def test_randomized_against_vertex_enumeration(self):
        rng = random.Random(7)
        solved = infeasible = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            names = tuple(f"x{i}" for i in range(n))
            rows = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                rel = rng.choice(["<=", ">=", "=="])
                rows.append((coeffs, rel, F(rng.randint(-4, 4), rng.randint(1, 3))))
            rows += box(names)
            sense = rng.choice(["min", "max", "feasibility"])
            objective = (
                tuple(F(rng.randint(-3, 3)) for _ in range(n)) if sense != "feasibility" else None
            )
            nonneg = frozenset(nm for nm in names if rng.random() < 0.5)
            lp = LinearProgram(names, tuple(rows), objective=objective, sense=sense, nonneg=nonneg)
            out = solve(lp)
            check_certificate(lp, out)
            feasible, best = brute_force_lp(lp)
            if not feasible:
                assert out.status == "infeasible"
                infeasible += 1
            else:
                assert out.status == "optimal"
                if best is not None:
                    assert out.optimum == best
                solved += 1
        assert solved > 50 and infeasible > 10  # the sampler hit both branches

    def test_certificate_checker_rejects_tampering(self):
        lp = LinearProgram(("x",), (((1,), ">=", 3),), objective=(1,), sense="min")
        out = solve(lp)
        forged = type(out)(
            status="optimal",
            optimum=out.optimum + 1,
            witness=out.witness,
            dual=out.dual,
        )
        with pytest.raises(CertificateError):
            check_certificate(lp, forged)

    @pytest.mark.parametrize(
        "rows, objective, sense, nonneg, forged",
        [
            # each forgery keeps the bound y.b and the free reduced costs
            # right, so exactly one sign rule has to reject it
            ((((1,), ">=", 3), ((1,), "<=", 3)), (1,), "min", (), (0, 1)),
            ((((1,), ">=", 3), ((1,), "<=", 3)), (1,), "max", (), (1, 0)),
            ((((1,), "==", 0),), (0,), "min", ("x",), (1,)),
            ((((1,), "==", 0),), (0,), "max", ("x",), (-1,)),
            ((((1,), ">=", 1), ((1,), "<=", 0), ((2,), ">=", 2)), None, "feasibility", (), (3, -1, -1)),
        ],
    )
    def test_certificate_checker_rejects_wrong_multiplier_signs(
        self, rows, objective, sense, nonneg, forged
    ):
        lp = LinearProgram(("x",), rows, objective=objective, sense=sense, nonneg=frozenset(nonneg))
        out = solve(lp)
        check_certificate(lp, out)
        field = "farkas" if out.status == "infeasible" else "dual"
        with pytest.raises(CertificateError):
            check_certificate(lp, replace(out, **{field: tuple(F(y) for y in forged)}))

    @pytest.mark.parametrize("kind, sense", [("bell", "min"), ("bell", "max"), ("lg", "min"), ("lg", "max")])
    def test_certificates_on_polytope_scale_programs(self, kind, sense):
        # equality-heavy programs over hundreds of nonnegative atoms, with
        # redundant rows (each pair block implies the same normalization):
        # the dual read-off must survive inert artificial rows
        from contextuality import oracle
        from contextuality.generators import random_system

        sys = random_system(kind, 3141)
        matrix = atom_rows(kind)
        p = oracle.observed_vector(sys)
        names = tuple(f"q{k}" for k in range(len(matrix[0])))
        base = len(matrix) // 2
        rows = tuple((matrix[r], "==", p[r]) for r in range(base))
        n_conn = (len(matrix) - base) // 4
        weights = [0] * len(matrix[0])
        for c in range(n_conn):
            for r in (base + 4 * c + 1, base + 4 * c + 2):
                weights = [w + e for w, e in zip(weights, matrix[r])]
        lp = LinearProgram(names, rows, objective=tuple(weights), sense=sense, nonneg=frozenset(names))
        out = solve(lp)
        assert out.status == "optimal"
        check_certificate(lp, out)

    @pytest.mark.parametrize("seed", [34, 45, 61])
    def test_certificates_after_bland_fallback(self, seed):
        # cone rows a.x <= 0 make the origin a highly degenerate vertex: on
        # these seeds Dantzig pricing stalls long enough to switch to Bland's
        # rule before the optimum is reached. On 45 the switch changes the
        # pivots (see the test below); on 34 and 61 Bland's rule picks the
        # pivots Dantzig's would have
        lp = _cone_program(seed)
        out = solve(lp)
        assert out.status == "optimal"
        check_certificate(lp, out)

    @pytest.mark.parametrize("seed", [0, 24, 27, 45])
    def test_bland_fallback_changes_the_pivots(self, seed, monkeypatch):
        from contextuality import ratlp

        lp = _cone_program(seed)
        pivots = []
        pivot = ratlp._pivot

        def recorded(tab, den, r, s):
            pivots.append((r, s))
            return pivot(tab, den, r, s)

        monkeypatch.setattr(ratlp, "_pivot", recorded)
        expected = solve(lp)
        with_bland = pivots[:]
        pivots.clear()
        monkeypatch.setattr(ratlp, "_STALL_LIMIT", 10**9)  # Dantzig's rule throughout
        assert solve(lp).optimum == expected.optimum
        assert pivots != with_bland


def _cone_program(seed):
    """Cone rows a.x <= 0 in the box [-1, 1]^n, maximized."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    m = rng.randint(8, 20)
    names = tuple(f"x{j}" for j in range(n))
    cone = [(tuple(rng.randint(-3, 3) for _ in range(n)), "<=", 0) for _ in range(m)]
    objective = tuple(rng.randint(-3, 3) for _ in range(n))
    return LinearProgram(names, tuple(cone + box(names, -1, 1)), objective=objective, sense="max")


# Bound denominators from 1 to a 61-bit prime, so that the rhs factor L, the
# lcm of the parts d_k / gcd(s_k, d_k), ranges from 1 to very large.
_DENOMINATORS = (1, 2, 3, 7, 64, 97, 10**6 + 3, 2**61 - 1)
_coefficients = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5)))
_bounds = st.one_of(
    st.just(F(0)),  # degenerate: rows through the origin
    st.builds(F, st.integers(-9, 9), st.sampled_from(_DENOMINATORS)),
)
_box_halves = st.builds(F, st.integers(0, 12), st.sampled_from(_DENOMINATORS))


@st.composite
def bounded_programs(draw):
    """Small programs over 1-3 variables, every variable boxed so that the
    optimum sits at a vertex ``brute_force_lp`` enumerates."""
    n = draw(st.integers(1, 3))
    names = tuple(f"x{j}" for j in range(n))
    rows = draw(
        st.lists(
            st.tuples(
                st.tuples(*[_coefficients] * n),
                st.sampled_from(("<=", "==", ">=")),
                _bounds,
            ),
            min_size=1,
            max_size=4,
        )
    )
    for j in range(n):
        unit = tuple(F(k == j) for k in range(n))
        rows.append((unit, "<=", draw(_box_halves)))
        rows.append((unit, ">=", -draw(_box_halves)))
    sense = draw(st.sampled_from(("min", "max", "feasibility")))
    objective = None if sense == "feasibility" else draw(st.tuples(*[_coefficients] * n))
    nonneg = frozenset(draw(st.sets(st.sampled_from(names))))
    return LinearProgram(names, tuple(rows), objective=objective, sense=sense, nonneg=nonneg)


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(bounded_programs())
    def test_status_and_optimum(self, lp):
        out = solve(lp)
        feasible, best = brute_force_lp(lp)
        assert out.status == ("optimal" if feasible else "infeasible")
        if best is not None:
            assert out.optimum == best

    @settings(max_examples=100, deadline=None)
    @given(
        bounded_programs(),
        st.integers(0, 10**6),
        st.builds(F, st.integers(1, 10**6), st.sampled_from(_DENOMINATORS)),
    )
    def test_row_scale_invariance(self, lp, pick, factor):
        k = pick % len(lp.constraints)
        coeffs, relation, bound = lp.constraints[k]
        rows = list(lp.constraints)
        rows[k] = (tuple(factor * c for c in coeffs), relation, factor * bound)
        scaled = replace(lp, constraints=tuple(rows))
        out, scaled_out = solve(lp), solve(scaled)
        assert (scaled_out.status, scaled_out.optimum) == (out.status, out.optimum)


@st.composite
def template_programs(draw):
    """An oracle template (``bell`` or ``lg``, any sense) with nonnegative
    bounds: either anything, or pairs of one mass over mostly zero separator
    rows. Both are nearly always infeasible, as the separator and mismatch
    bounds are drawn apart from the pairs' cells; ``feasible_template_programs``
    draws feasible ones."""
    from contextuality import oracle
    from contextuality.core import KINDS

    kind = draw(st.sampled_from(("bell", "lg")))
    template = oracle._template(kind, draw(st.sampled_from(("min", "max", "feasibility"))))
    m = len(template.constraints)
    if draw(st.booleans()):
        return template.with_bounds(draw(st.lists(_box_halves, min_size=m, max_size=m)))
    bounds = []
    for _ in KINDS[kind].PAIRS:
        cells = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
        bounds += [F(c, sum(cells)) for c in cells]
    quarters = st.sampled_from((0, 0, 0, F(1, 4), F(1, 2), 1))
    bounds += draw(st.lists(quarters, min_size=m - len(bounds), max_size=m - len(bounds)))
    return template.with_bounds(bounds)


@st.composite
def feasible_template_programs(draw):
    """An oracle template (``bell`` or ``lg``, any sense) at the bounds its
    rows take at a drawn point with 0 to 3 in each cell: feasible by
    construction, and bounded, as each cell lies in an observed row."""
    from contextuality import oracle

    kind = draw(st.sampled_from(("bell", "lg")))
    template = oracle._template(kind, draw(st.sampled_from(("min", "max", "feasibility"))))
    n = len(template.variables)
    point = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rows = (a for a, _, _ in template.constraints)
    return template.with_bounds(sum(c * x for c, x in zip(a, point)) for a in rows)


def _lg_feasibility(cells, masses=(1, 1, 1), mismatch=F(0)):
    """``lg``'s "feasibility" template at pairs with ``cells`` times each of
    ``masses``, zero separators and every mismatch ``mismatch``."""
    from contextuality import oracle

    template = oracle._template("lg", "feasibility")
    observed = [F(mass) * c for mass in masses for c in cells]
    rest = len(template.constraints) - len(observed) - 3
    return template.with_bounds(observed + [F(0)] * rest + [mismatch] * 3)


class TestSolveExtrema:
    """``solve`` finds both extrema and every verdict of a program derived
    from a compiled template by the dual simplex from the template's start,
    and they equal a cold solve's, on a copy that carries no start."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(template_programs(), feasible_template_programs()))
    def test_equals_solve_on_min_and_max(self, lp):
        warm = solve(lp)
        check_certificate(lp, warm)
        primal = solve(replace(lp))
        assert (warm.status, warm.optimum) == (primal.status, primal.optimum)

    @settings(max_examples=200, deadline=None)
    @given(bounded_programs(), st.data())
    def test_general_programs_from_their_own_start(self, lp, data):
        # inequality rows, free variables and dependent rows, started at
        # the program's own optimum and solved at other bounds
        if solve(lp).status != "optimal":
            with pytest.raises(LPConstructionError):
                compile_start(lp)
            return
        m = len(lp.constraints)
        other = compile_start(lp).with_bounds(data.draw(st.lists(_bounds, min_size=m, max_size=m)))
        warm, primal = solve(other), solve(replace(other))
        check_certificate(other, warm)
        assert (warm.status, warm.optimum) == (primal.status, primal.optimum)

    def test_infeasible_gives_one_certified_farkas_vector(self, monkeypatch):
        from contextuality import ratlp

        checks = []
        check = ratlp.check_certificate

        def counted(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(ratlp, "check_certificate", counted)
        uniform = (F(1, 4),) * 4
        anti = (F(0), F(1, 2), F(1, 2), F(0))
        # Pairs of unequal mass leave a dependent separator row's artificial
        # basic at a nonzero value. Three anticorrelated pairs with identical
        # connections leave the dual simplex a negative row with no negative
        # entry.
        for lp in (_lg_feasibility(uniform, masses=(1, 1, 2)), _lg_feasibility(anti)):
            out = solve(lp)
            assert out.status == "infeasible" and len(checks) == 1
            assert solve(replace(lp)).status == "infeasible"
            checks.clear()
        assert solve(_lg_feasibility(anti, mismatch=F(1))).status == "optimal"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_unbounded_in_one_direction(self, sign):
        # x >= 0, y in [-1, 2]: sign * x + y is bounded on one side only,
        # and only that side has a start
        lp = LinearProgram(
            ("x", "y"),
            (((0, 1), "<=", 2), ((0, 1), ">=", -1)),
            objective=(sign, 1),
            sense="min" if sign == 1 else "max",
            nonneg=frozenset({"x"}),
        )
        started = compile_start(lp)
        with pytest.raises(LPConstructionError, match="bound the objective"):
            compile_start(replace(lp, sense="max" if sign == 1 else "min"))
        for bounds in ((2, -1), (F(1, 3), F(-1, 2)), (0, 0), (-1, 0)):
            other = started.with_bounds(bounds)
            warm, primal = solve(other), solve(replace(other))
            assert (warm.status, warm.optimum) == (primal.status, primal.optimum)

    def test_max_is_certified_against_its_own_sense(self):
        from contextuality import oracle
        from contextuality.generators import random_system

        high = oracle._program(random_system("bell", 7), "max")
        out = solve(high)
        check_certificate(high, out)
        with pytest.raises(CertificateError):
            check_certificate(replace(high, sense="min"), out)

    def test_requires_a_start(self):
        # bounds that admit no point fix no start
        empty = LinearProgram(("x",), (((1,), "<=", -1),), sense="feasibility", nonneg=frozenset({"x"}))
        with pytest.raises(LPConstructionError, match="admit a point"):
            compile_start(empty)


def _mixed_program():
    rows = (
        ((1, F(1, 2), 0), "<=", 4),
        ((F(2, 3), -1, 1), ">=", F(-1, 7)),
        ((1, 1, 1), "==", F(5, 2)),
        ((0, F(3, 4), -2), "<=", 0),
    )
    return LinearProgram(
        ("x", "y", "z"), rows, objective=(1, -2, F(1, 3)), sense="max", nonneg=frozenset("xy")
    )


class TestWithBounds:
    @pytest.mark.parametrize(
        "bounds",
        [(4, F(-1, 7), F(5, 2), 0), ("1/3", 0, 2, F(-1, 10**6 + 3)), (0, 0, 0, 0), (-1, 9, 1, 1)],
    )
    def test_equals_a_fresh_program(self, bounds):
        lp = _mixed_program()
        derived = lp.with_bounds(bounds)
        fresh = LinearProgram(
            lp.variables,
            tuple((c, r, b) for (c, r, _), b in zip(lp.constraints, bounds)),
            objective=lp.objective,
            sense=lp.sense,
            nonneg=lp.nonneg,
        )
        assert derived == fresh
        assert repr(solve(derived)) == repr(solve(fresh))
        # the template itself is left as it was
        assert lp == _mixed_program()

    @pytest.mark.parametrize(
        "bounds", [(4, F(-1, 7), F(5, 2), 0), ("1/3", 0, 2, F(-1, 10**6 + 3)), (-1, 9, 1, 1)]
    )
    def test_solve_starts_from_a_start_compiled_before_deriving(self, bounds, monkeypatch):
        # only the program ``compile_start`` returns, and those derived from
        # it, skip the elimination tableau of a cold solve; the template it
        # started from, programs derived from that before or after the call,
        # and copies build one; all at the same bounds reach one optimum
        from contextuality import ratlp

        template = _mixed_program()
        before = template.with_bounds(bounds)
        started = compile_start(template)
        after = template.with_bounds(bounds)
        derived = started.with_bounds(bounds)
        built, eliminated = [], ratlp._eliminated

        def counted(lp):
            built.append(lp)
            return eliminated(lp)

        monkeypatch.setattr(ratlp, "_eliminated", counted)
        reached = {}
        for program, tableaus in (
            (started, 0), (derived, 0),
            (template, 1), (before, 1), (after, 1), (replace(derived), 1),
        ):
            built.clear()
            out = solve(program)
            assert len(built) == tableaus
            reached.setdefault(program.constraints, set()).add((out.status, out.optimum))
        assert all(len(outcomes) == 1 for outcomes in reached.values())

    @pytest.mark.parametrize("kind", ["bell", "lg"])
    def test_polytope_template(self, kind):
        from contextuality import oracle
        from contextuality.generators import random_system

        matrix = atom_rows(kind)
        names = tuple(f"q{k}" for k in range(len(matrix[0])))
        rows = matrix[: len(matrix) // 2]
        template = LinearProgram(
            names, tuple((row, "==", 0) for row in rows), nonneg=frozenset(names)
        )
        for seed in (3, 5):
            p = oracle.observed_vector(random_system(kind, seed))
            fresh = LinearProgram(
                names, tuple(zip(rows, ("==",) * len(rows), p)), nonneg=frozenset(names)
            )
            derived = template.with_bounds(p)
            assert derived == fresh
            assert repr(solve(derived)) == repr(solve(fresh))

    @pytest.mark.parametrize("count", [3, 5, 0])
    def test_rejects_wrong_length(self, count):
        with pytest.raises(LPConstructionError, match=f"{count} bounds for 4 constraints"):
            _mixed_program().with_bounds((0,) * count)

    @pytest.mark.parametrize("bad", ["three", "1/0", None, object()])
    def test_rejects_unreadable_bound_as_the_constructor_does(self, bad):
        lp = _mixed_program()
        with pytest.raises(Exception) as built:
            LinearProgram(lp.variables, (((1, 0, 0), "<=", bad),))
        with pytest.raises(built.type):
            lp.with_bounds((0, bad, 0, 0))


def _leaves_as_it_was(call, lp, *args):
    """``call(lp, *args)``, asserting that it leaves ``lp.__dict__`` with the
    same keys bound to the same objects."""
    before = dict(lp.__dict__)
    result = call(lp, *args)
    assert lp.__dict__.keys() == before.keys()
    assert all(lp.__dict__[key] is value for key, value in before.items())
    return result


class TestProgramIsAValue:
    def test_calls_leave_their_program_as_it_was(self):
        # a started, derived program also solves alike after a pickle round
        # trip, from its start, as parallel workers receive it
        import pickle

        from contextuality import oracle, ratlp

        for lp in (_mixed_program(), oracle._template("bell", "min")):
            bounds = [b for _, _, b in lp.constraints]
            for program in (lp, _leaves_as_it_was(compile_start, lp)):
                _leaves_as_it_was(check_certificate, program, _leaves_as_it_was(solve, program))
                derived = _leaves_as_it_was(LinearProgram.with_bounds, program, bounds)
                _leaves_as_it_was(solve, derived)
            copy = pickle.loads(pickle.dumps(derived))
            built, eliminated = [], ratlp._eliminated
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ratlp, "_eliminated", lambda lp: built.append(lp) or eliminated(lp))
                assert repr(solve(copy)) == repr(solve(derived)) and not built


def _message(check, lp, outcome):
    """The ``CertificateError`` message ``check`` raises, or None if it passes."""
    try:
        check(lp, outcome)
    except CertificateError as exc:
        return str(exc)
    return None


# Single-entry forgeries: a fresh value, the old one moved by a step down to
# 1 / (2^61 - 1), or the old one scaled by a nonnegative factor, which keeps
# its sign and so reaches the later conditions.
_steps = st.builds(F, st.integers(-3, 3), st.sampled_from(_DENOMINATORS))
_forgeries = st.tuples(
    st.sampled_from((lambda old, v: v, operator.add, lambda old, v: old * abs(v))), _steps
)


@st.composite
def forged_outcomes(draw):
    """A bounded program, its outcome from ``solve``, and that outcome with
    at most one entry of its witness, optimum, dual or Farkas vector changed."""
    lp = draw(bounded_programs())
    out = solve(lp)
    fields = ("witness", "optimum", "dual") if out.status == "optimal" else ("farkas",)
    field = draw(st.sampled_from((None,) + fields))
    if field is None:
        return lp, out
    forge, step = draw(_forgeries)
    if field == "witness":
        name = draw(st.sampled_from(lp.variables))
        value = {**out.witness, name: forge(out.witness[name], step)}
    elif field == "optimum":
        value = forge(out.optimum, step)
    else:
        value = list(getattr(out, field))
        k = draw(st.integers(0, len(value) - 1))
        value[k] = forge(value[k], step)
        value = tuple(value)
    return lp, replace(out, **{field: value})


class TestIntegerCertificates:
    """``check_certificate`` compares integers over one common denominator
    per vector and raises exactly where the ``Fraction`` reference does."""

    @settings(max_examples=400, deadline=None)
    @given(forged_outcomes())
    def test_same_verdict_and_message_as_the_reference(self, case):
        lp, out = case
        assert _message(check_certificate, lp, out) == _message(reference_check_certificate, lp, out)

    def test_forgeries_on_scaled_rows_and_free_variables(self):
        # rows scaled by s_k = 2, 3, 1 and 4, z free: every forgery
        # is refused with the reference's message, and the answer passes
        lp = _mixed_program()
        out = solve(lp)
        assert out.status == "optimal" and _message(check_certificate, lp, out) is None
        forgeries = [replace(out, optimum=out.optimum + F(1, 2**61 - 1))]
        forgeries += [
            replace(out, witness={**out.witness, name: out.witness[name] + F(1, 7)})
            for name in lp.variables
        ]
        forgeries += [
            replace(out, dual=out.dual[:k] + (out.dual[k] - F(1, 3),) + out.dual[k + 1 :])
            for k in range(len(out.dual))
        ]
        for forged in forgeries:
            message = _message(check_certificate, lp, forged)
            assert message is not None
            assert message == _message(reference_check_certificate, lp, forged)

    @pytest.mark.parametrize(
        "rows, nonneg, field, forged, message",
        [
            ((((1,), ">=", 3),), "x", "dual", (F(1, 2),), "dual objective 3/2 differs"),
            ((((1,), "<=", -1),), "x", "farkas", (0,), "Farkas combination does not"),
            ((((1,), ">=", 3),), "", "dual", (F(1, 2),), "reduced cost nonzero on free"),
            ((((1,), ">=", 3),), "x", "dual", (F(3, 2),), "reduced cost condition"),
            ((((1,), ">=", 3),), "x", "dual", (-1,), "multiplier sign condition"),
            ((((1,), ">=", 3),), "x", "optimum", F(7, 2), "witness attains 3, claimed 7/2"),
            ((((1,), ">=", 3),), "x", "witness", {"x": F(-1)}, "witness violates x >= 0"),
            ((((1,), ">=", 3),), "", "witness", {"x": F(2)}, "constraint 0: 2 >= 3"),
        ],
    )
    def test_each_condition_as_the_reference(self, rows, nonneg, field, forged, message):
        objective, sense = ((1,), "min") if field != "farkas" else (None, "feasibility")
        lp = LinearProgram(("x",), rows, objective=objective, sense=sense, nonneg=frozenset(nonneg))
        out = solve(lp)
        check_certificate(lp, out)
        forged = replace(out, **{field: forged})
        with pytest.raises(CertificateError, match=message):
            check_certificate(lp, forged)
        assert _message(check_certificate, lp, forged) == _message(
            reference_check_certificate, lp, forged
        )

    def _optimal(self):
        lp = LinearProgram(("x",), (((1,), ">=", 3),), objective=(1,), sense="min")
        out = solve(lp)
        assert (out.optimum, out.witness, out.dual) == (3, {"x": 3}, (1,))
        return lp, out

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"witness": {}}, "witness keys"),
            ({"witness": {"x": F(3), "y": F(0)}}, "witness keys"),
            ({"witness": {"x": 3.0}, "optimum": 3.0}, "witness holds a value"),
            ({"optimum": 3.0}, "optimum holds a value"),
            ({"dual": (1.0,)}, "multiplier vector holds"),
            ({"dual": ("1",)}, "multiplier vector holds"),
            ({"dual": None}, "missing or mis-sized multipliers"),
            ({"dual": (1, 0)}, "missing or mis-sized multipliers"),
            ({"witness": None}, "must carry witness, dual, and optimum"),
            ({"optimum": None}, "must carry witness, dual, and optimum"),
            ({"status": "optimum"}, "unknown status 'optimum'"),
        ],
    )
    def test_malformed_optimal_certificates(self, changes, message):
        lp, out = self._optimal()
        with pytest.raises(CertificateError, match=message):
            check_certificate(lp, replace(out, **changes))

    def test_malformed_farkas_vector(self):
        lp = LinearProgram(("x",), (((1,), ">=", 1), ((1,), "<=", 0)))
        out = solve(lp)
        assert out.status == "infeasible"
        check_certificate(lp, replace(out, farkas=tuple(int(y) for y in out.farkas)))
        with pytest.raises(CertificateError, match="multiplier vector holds"):
            check_certificate(lp, replace(out, farkas=tuple(float(y) for y in out.farkas)))
        for farkas in (None, out.farkas[:1]):
            with pytest.raises(CertificateError, match="missing or mis-sized multipliers"):
                check_certificate(lp, replace(out, farkas=farkas))

    def test_failed_certificate_raises_solver_error(self, monkeypatch):
        from contextuality import ratlp

        def refuse(lp, outcome):
            raise CertificateError("forged refusal")

        monkeypatch.setattr(ratlp, "check_certificate", refuse)
        with pytest.raises(SolverError, match="optimal outcome fails its certificate: forged refusal"):
            solve(_mixed_program())
        with pytest.raises(SolverError, match="infeasible outcome fails its certificate"):
            solve(LinearProgram(("x",), (((1,), ">=", 1), ((1,), "<=", 0))))

    def test_nonnegativity_is_checked_in_variable_order(self):
        # with x and y both negative the message names x, whatever order
        # the string hash gives the nonneg frozenset
        script = (
            "from contextuality.ratlp import CertificateError, LinearProgram, LPOutcome,"
            " check_certificate\n"
            "lp = LinearProgram(('x', 'y', 'z'), (), nonneg=frozenset('xyz'))\n"
            "witness = {'x': -1, 'y': -1, 'z': 0}\n"
            "try:\n"
            "    check_certificate(lp, LPOutcome('optimal', 0, witness, ()))\n"
            "except CertificateError as exc:\n"
            "    print(exc)\n"
        )
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout == "witness violates x >= 0\n"

    def test_ints_are_exact(self):
        lp, out = self._optimal()
        check_certificate(lp, replace(out, witness={"x": 3}, optimum=3, dual=(1,)))

    def test_derived_programs_share_the_integer_rows(self):
        from contextuality import oracle
        from contextuality.generators import random_connection_means, random_system

        lp = _mixed_program()
        for (coeffs, _, _), (s, nonzeros) in zip(lp.constraints, lp._form.rows):
            assert s == lcm(*(c.denominator for c in coeffs))
            assert nonzeros == tuple((j, int(s * c)) for j, c in enumerate(coeffs) if c)
            assert all(type(c) is int for _, c in nonzeros)
        assert lp.with_bounds((0, 0, 0, 0))._form is lp._form
        for kind in ("bell", "lg"):
            for sense in ("min", "max", "feasibility"):
                form = oracle._template(kind, sense)._form
                for seed in range(3):
                    sys = random_system(kind, seed)
                    mismatches = ()
                    if sense == "feasibility":
                        means = random_connection_means(sys, seed, True)
                        mismatches = [(1 - t) / 2 for t in means]
                    program = oracle._program(sys, sense, mismatches)
                    solve(program)
                    assert program._form is form

    def test_checks_are_reached_through_module_globals(self, monkeypatch):
        # counting wrappers on the module attributes see every check, as
        # tracers and the oracle tests rely on
        from contextuality import oracle, ratlp
        from contextuality.generators import random_system

        calls = []
        for name in ("check_certificate", "_check_witness"):
            inner = getattr(ratlp, name)

            def counted(*args, inner=inner, name=name):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(ratlp, name, counted)
        assert solve(_mixed_program()).status == "optimal"
        assert calls == ["check_certificate", "_check_witness"]
        calls.clear()
        assert solve(oracle._program(random_system("bell", 3), "min")).status == "optimal"
        assert calls == ["check_certificate", "_check_witness"]
        calls.clear()
        assert solve(LinearProgram(("x",), (((1,), ">=", 1), ((1,), "<=", 0)))).status == "infeasible"
        assert calls == ["check_certificate"]


def _signed_bareiss(tab, den, r, s):
    """One fraction-free pivot on (r, s) that leaves the pivot row as it is
    and lets the new denominator take the pivot entry's sign."""
    prow, p = tab[r], tab[r][s]
    rows = [prow if i == r else [(e * p - row[s] * q) // den for e, q in zip(row, prow)]
            for i, row in enumerate(tab)]
    return rows, p


@st.composite
def pivot_sequences(draw):
    """A small integer tableau (denominator 1) and picks among its nonzero
    entries, one per pivot."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    tab = draw(st.lists(row, min_size=m, max_size=m))
    return tab, draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6))


class TestPositiveDenominator:
    """``_pivot`` keeps the tableau's denominator positive, and each entry
    over it the value a signed Bareiss step gives."""

    @settings(max_examples=150, deadline=None)
    @given(bounded_programs(), template_programs(), st.data())
    def test_every_denominator_is_positive(self, lp, template, data):
        from contextuality import ratlp

        dens, pivot = [], ratlp._pivot

        def recording(*args):
            dens.append(pivot(*args))
            return dens[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratlp, "_pivot", recording)
            solve(replace(template))
            solve(template)
            if solve(lp).status == "optimal":
                m = len(lp.constraints)
                bounds = data.draw(st.lists(_bounds, min_size=m, max_size=m))
                solve(compile_start(lp).with_bounds(bounds))
        assert dens and all(den > 0 for den in dens)

    @settings(max_examples=300, deadline=None)
    @given(pivot_sequences())
    def test_same_values_as_a_signed_bareiss_step(self, case):
        tab, picks = case
        ours, den, ref, ref_den = [list(row) for row in tab], 1, tab, 1
        for pick in picks:
            nonzero = [(r, s) for r, row in enumerate(ref) for s, v in enumerate(row) if v]
            if not nonzero:
                break
            r, s = nonzero[pick % len(nonzero)]
            den = _pivot(ours, den, r, s)
            ref, ref_den = _signed_bareiss(ref, ref_den, r, s)
            assert den == abs(ref_den) > 0
            assert [[F(v, den) for v in row] for row in ours] == [
                [F(v, ref_den) for v in row] for row in ref
            ]


def _carried(lp, first, rhs, replay):
    """``first``, a tableau before any pivot, with ``lp``'s bounds written
    into its rhs column ``rhs`` as the scaled rows state them, then pivoted
    along ``replay`` by ``_signed_bareiss``: ``(rows, den, L)``."""
    scaled = []
    for coeffs, relation, bound in lp.constraints:
        s = lcm(*(F(c).denominator for c in coeffs))
        scaled.append((-s if relation == ">=" else s) * bound)
    L = lcm(*(v.denominator for v in scaled))
    rows, den = [list(row) for row in first], 1
    for row, v in zip(rows, scaled):
        row[rhs] = int(v * L)
    for r, s in replay:
        rows, den = _signed_bareiss(rows, den, r, s)
    return rows, den, L


class TestOneEntryForBounds:
    """The bounds enter a tableau in ``_dual_simplex`` alone, as one product
    with its unit columns, and give the values that writing them into the
    rows first and carrying them through the same pivots gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(bounded_programs(), template_programs()), st.data())
    def test_entered_bounds_equal_carried_bounds(self, lp, data):
        from contextuality import ratlp

        m, n = len(lp.constraints), len(lp.variables)
        other = lp.with_bounds(data.draw(st.lists(_bounds, min_size=m, max_size=m)))
        # bounds a point attains, which every dependent row agrees with
        point = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        reached = lp.with_bounds([sum(c * x for c, x in zip(a, point)) for a, _, _ in lp.constraints])
        # every start below is pivoted from the same tableau, before elimination
        firsts, pivots = [], []
        drive_out, pivot = ratlp._drive_out, ratlp._pivot

        def recording_drive_out(tab, *args):
            firsts.append([list(row) for row in tab])
            return drive_out(tab, *args)

        def recording_pivot(tab, den, r, s):
            pivots.append((r, s))
            return pivot(tab, den, r, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratlp, "_drive_out", recording_drive_out)
            mp.setattr(ratlp, "_pivot", recording_pivot)
            # phase 1's start, and optimal ones a warm solve could start from
            starts = [(ratlp._eliminated(lp), list(pivots))]
            for program in (lp, lp.with_bounds([0] * m)):
                pivots.clear()
                solved = ratlp._solved(program)
                if not isinstance(solved, LPOutcome):
                    starts.append((solved, list(pivots)))
            # with no pivot, the dual simplex hands back the tableau it filled
            mp.setattr(ratlp, "_run", lambda tab, basis, den, *args, **kwargs: (-1, den))
            for t, replay in starts:
                before, rhs = [list(row) for row in t.tab], lp._form.n_real
                for program in (lp, other, reached):
                    rows, den, L = _carried(program, firsts[0], rhs, replay)
                    entered = ratlp._dual_simplex(program, t, -1)
                    values = [[F(v, den) for v in row] for row in rows]
                    k = next((i for i, b in enumerate(t.basis) if b > rhs and rows[i][rhs]), -1)
                    if k < 0:
                        assert entered.L == L
                        assert [[F(v, entered.den) for v in row] for row in entered.tab] == values
                    else:
                        sign = 1 if values[k][rhs] > 0 else -1
                        units = zip(lp._form.units, lp._form.restate)
                        expected = tuple(sign * values[k][u] * r for u, r in units)
                        assert entered.farkas == expected
                assert [list(row) for row in t.tab] == before
