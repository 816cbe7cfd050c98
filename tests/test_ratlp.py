import operator
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.ratlp import (
    CertificateError,
    LinearProgram,
    LPConstructionError,
    check_certificate,
    compile_start,
    solve,
    solve_warm,
)
from helpers import atom_rows, brute_force_lp, reference_check_certificate

F = Fraction


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
        # rule before the optimum is reached
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        m = rng.randint(8, 20)
        names = tuple(f"x{j}" for j in range(n))
        cone = [(tuple(rng.randint(-3, 3) for _ in range(n)), "<=", 0) for _ in range(m)]
        objective = tuple(rng.randint(-3, 3) for _ in range(n))
        lp = LinearProgram(
            names, tuple(cone + box(names, -1, 1)), objective=objective, sense="max"
        )
        out = solve(lp)
        assert out.status == "optimal"
        check_certificate(lp, out)


# Bound denominators from 1 to a 61-bit prime, so that the rhs factor L and
# the phase-1 costs c_k = lcm(s_k, d_k) / s_k range from 1 to very large.
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
    bounds: either anything, which is mostly infeasible, or pairs of one
    mass over mostly zero separator rows, which is mostly feasible."""
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


def _lg_feasibility(cells, masses=(1, 1, 1), mismatch=F(0)):
    """``lg``'s "feasibility" template at pairs with ``cells`` times each of
    ``masses``, zero separators and every mismatch ``mismatch``."""
    from contextuality import oracle

    template = oracle._template("lg", "feasibility")
    observed = [F(mass) * c for mass in masses for c in cells]
    rest = len(template.constraints) - len(observed) - 3
    return template.with_bounds(observed + [F(0)] * rest + [mismatch] * 3)


class TestSolveExtrema:
    """Both extrema and every verdict of a compiled program come from the
    warm dual simplex, and equal ``solve``'s."""

    @settings(max_examples=300, deadline=None)
    @given(template_programs())
    def test_equals_solve_on_min_and_max(self, lp):
        warm = solve_warm(lp)
        check_certificate(lp, warm)
        primal = solve(lp)
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
        compile_start(lp)
        m = len(lp.constraints)
        other = lp.with_bounds(data.draw(st.lists(_bounds, min_size=m, max_size=m)))
        warm, primal = solve_warm(other), solve(other)
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
            out = solve_warm(lp)
            assert out.status == "infeasible" and len(checks) == 1
            assert solve(lp).status == "infeasible"
            checks.clear()
        assert solve_warm(_lg_feasibility(anti, mismatch=F(1))).status == "optimal"

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
        compile_start(lp)
        with pytest.raises(LPConstructionError, match="bound the objective"):
            compile_start(replace(lp, sense="max" if sign == 1 else "min"))
        for bounds in ((2, -1), (F(1, 3), F(-1, 2)), (0, 0), (-1, 0)):
            other = lp.with_bounds(bounds)
            warm, primal = solve_warm(other), solve(other)
            assert (warm.status, warm.optimum) == (primal.status, primal.optimum)

    def test_max_is_certified_against_its_own_sense(self):
        from contextuality import oracle
        from contextuality.generators import random_system

        high = oracle._program(random_system("bell", 7), "max")
        out = solve_warm(high)
        check_certificate(high, out)
        with pytest.raises(CertificateError):
            check_certificate(replace(high, sense="min"), out)

    def test_requires_a_start(self):
        lp = _mixed_program()
        with pytest.raises(LPConstructionError, match="start"):
            solve_warm(lp.with_bounds((0, 0, 0, 0)))
        # a base whose rows do not lead the program's
        compile_start(lp)
        with pytest.raises(LPConstructionError, match="base"):
            compile_start(replace(lp, constraints=lp.constraints[1:]), lp)


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

    def test_ints_are_exact(self):
        lp, out = self._optimal()
        check_certificate(lp, replace(out, witness={"x": 3}, optimum=3, dual=(1,)))

    def test_derived_programs_share_the_integer_rows(self):
        from contextuality import oracle, ratlp
        from contextuality.generators import random_connection_means, random_system

        lp = _mixed_program()
        cols, rows = ratlp._compiled(lp)
        for (coeffs, _, _), (s, _, nonzeros) in zip(lp.constraints, rows):
            assert s == lcm(*(c.denominator for c in coeffs))
            assert nonzeros == tuple((j, int(s * c)) for j, c in enumerate(coeffs) if c)
            assert all(type(c) is int for _, c in nonzeros)
        assert lp.with_bounds((0, 0, 0, 0)).__dict__["_compiled"] is ratlp._compiled(lp)
        for kind in ("bell", "lg"):
            for sense in ("min", "max", "feasibility"):
                compiled = oracle._template(kind, sense).__dict__["_compiled"]
                for seed in range(3):
                    sys = random_system(kind, seed)
                    mismatches = ()
                    if sense == "feasibility":
                        means = random_connection_means(sys, seed, True)
                        mismatches = [(1 - t) / 2 for t in means]
                    program = oracle._program(sys, sense, mismatches)
                    solve_warm(program)
                    assert program.__dict__["_compiled"] is compiled

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
        assert solve_warm(oracle._program(random_system("bell", 3), "min")).status == "optimal"
        assert calls == ["check_certificate", "_check_witness"]
        calls.clear()
        assert solve(LinearProgram(("x",), (((1,), ">=", 1), ((1,), "<=", 0)))).status == "infeasible"
        assert calls == ["check_certificate"]
