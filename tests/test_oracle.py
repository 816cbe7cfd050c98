import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest

from contextuality import bell, cyclic, lg, oracle, ratlp
from contextuality.core import KINDS, PairDistribution, BellSystem, CausalityViolationError, validate
from contextuality.generators import (
    DENOMINATOR_BOUND,
    deterministic_bell,
    deterministic_lg,
    lg_anticorrelated,
    pr_signaling_family,
    random_connection_means,
    random_system,
    split_seed,
)
from helpers import atom_rows

F = Fraction


def _assert_minimal_coupling(sys, result, label):
    """``result.witness_joint`` is a joint over all atoms that reproduces the
    observed pairs of ``sys`` with total mismatch ``result.delta_min``."""
    rows = atom_rows(sys.KIND)
    witness = result.witness_joint
    assert all(w >= 0 for w in witness) and sum(witness) == 1, label
    cells = [sum((w for m, w in zip(row, witness) if m), F(0)) for row in rows]
    assert tuple(cells[: len(rows) // 2]) == oracle.observed_vector(sys), label
    connection = cells[len(rows) // 2 :]
    assert sum(connection[1::4]) + sum(connection[2::4]) == result.delta_min, label


class TestVertexMatrix:
    """The atom reference of ``helpers.atom_rows``."""

    @pytest.mark.parametrize("kind, rows, atoms", [("bell", 32, 256), ("lg", 24, 64)])
    def test_dimensions(self, kind, rows, atoms):
        matrix = atom_rows(kind)
        assert (len(matrix), len(matrix[0])) == (rows, atoms)

    @pytest.mark.parametrize("kind, groups", [("bell", 8), ("lg", 6)])
    def test_column_sums_equal_group_count(self, kind, groups):
        for column in zip(*atom_rows(kind)):
            assert sum(column) == groups

    @pytest.mark.parametrize("kind", ["bell", "lg"])
    def test_one_hit_per_group_per_column(self, kind):
        matrix = atom_rows(kind)
        for g in range(len(matrix) // 4):
            for column in zip(*matrix[4 * g : 4 * g + 4]):
                assert sum(column) == 1


class TestCompatible:
    def test_deterministic_system_at_zero_mismatch(self):
        assert oracle.compatible(deterministic_bell(1, 1), (0, 0, 0, 0))

    def test_independent_uniform_system_at_zero_mismatch(self):
        # witness: draw A1, A2, B1, B2 independently and copy per condition
        uniform = PairDistribution.from_expectations(0, 0, 0)
        sys = BellSystem(uniform, uniform, uniform, uniform)
        assert oracle.compatible(sys, (0, 0, 0, 0))

    def test_pr_box_incompatible_with_identity(self):
        assert not oracle.compatible(pr_signaling_family(1, 0), (0, 0, 0, 0))

    def test_pr_box_compatible_at_quarter_mismatch(self):
        assert oracle.compatible(pr_signaling_family(1, 0), (F(1, 4),) * 4)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            oracle.compatible(deterministic_bell(1, 1), (0, 0, 0))


class TestDeltaExtrema:
    def test_pr_box(self):
        assert oracle.delta_extrema(pr_signaling_family(1, 0)) == (1, 3)

    def test_all_zero_bell(self):
        uniform = PairDistribution.from_expectations(0, 0, 0)
        assert oracle.delta_extrema(BellSystem(uniform, uniform, uniform, uniform)) == (0, 4)

    def test_lg_anticorrelated(self):
        assert oracle.delta_extrema(lg_anticorrelated()) == (1, 3)

    def test_matches_closed_form(self):
        for i in range(15):
            sysb = random_system("bell", split_seed(71, i), "none" if i % 2 else "no_signaling")
            assert oracle.delta_extrema(sysb) == bell.delta_interval(sysb)
            sysl = random_system("lg", split_seed(73, i), "none" if i % 2 else "no_signaling")
            assert oracle.delta_extrema(sysl) == lg.delta_interval(sysl)

    def test_invalid_input_is_a_bug_signal(self):
        broken = BellSystem(
            PairDistribution(F(-1, 4), F(3, 4), F(1, 4), F(1, 4)),
            *(PairDistribution.from_expectations(0, 0, 0),) * 3,
        )
        with pytest.raises(oracle.InternalInconsistencyError):
            oracle.delta_extrema(broken)


class TestDegree:
    def test_near_tsirelson(self):
        sys = pr_signaling_family(F(17, 24), 0)
        assert oracle.degree(sys) == 2 * F(17, 24) - 1 == F(5, 12)

    def test_solves_only_the_min_program(self, monkeypatch):
        solve, senses = oracle.solve, []

        def counting(program):
            senses.append(program.sense)
            return solve(program)

        monkeypatch.setattr(oracle, "solve", counting)
        oracle.degree(pr_signaling_family(F(17, 24), 0))
        assert senses == ["min"]

    def test_no_signaling_classical_zero(self):
        assert oracle.degree(pr_signaling_family(F(1, 4), 0)) == 0

    def test_signaling_discrepancy_arbiter(self):
        assert oracle.degree(pr_signaling_family(1, F(1, 5))) == F(4, 5)


class TestCompatibilityVerdicts:
    def test_deterministic_with_identity_connections(self):
        assert oracle.compatibility_verdicts(deterministic_bell(1, 1), (1, 1, 1, 1)) == (
            True,
            True,
        )

    def test_pr_box_with_identity_connections(self):
        assert oracle.compatibility_verdicts(pr_signaling_family(1, 0), (1, 1, 1, 1)) == (
            False,
            False,
        )

    def test_lg_all_correlated(self):
        assert oracle.compatibility_verdicts(deterministic_lg(1), (1, 1, 1)) == (True, True)

    def test_lg_anticorrelated_identity_connections(self):
        assert oracle.compatibility_verdicts(lg_anticorrelated(), (1, 1, 1)) == (False, False)

    @pytest.mark.parametrize("kind, seed", [("bell", 83), ("lg", 89)])
    def test_random_agreement(self, kind, seed):
        both = {True: 0, False: 0}
        for i in range(60):
            sys = random_system(kind, split_seed(seed, i))
            means = random_connection_means(sys, split_seed(seed, 1000 + i), bool(i % 2))
            closed, by_lp = oracle.compatibility_verdicts(sys, means)
            assert closed == by_lp, (i, means)
            both[closed] += 1
        assert both[True] and both[False]


class TestFullTableReference:
    """The LP verdict pins one mismatch row per connection. Pinning all four
    cells of every connection over all atoms must decide the same."""

    @staticmethod
    def full_table_feasible(sys, means):
        rows = atom_rows(sys.KIND)
        cells = [
            (1 + x * m1 + y * m2 + x * y * t) / 4
            for (m1, m2), t in zip(cyclic.connection_marginal_pairs(sys), means)
            for x in (1, -1)
            for y in (1, -1)
        ]
        values = oracle.observed_vector(sys) + tuple(cells)
        names = tuple(f"q{k}" for k in range(len(rows[0])))
        program = ratlp.LinearProgram(
            names, tuple(zip(rows, ("==",) * len(rows), values)), nonneg=frozenset(names)
        )
        return ratlp.solve(program).status != "infeasible"

    @pytest.mark.parametrize("kind, seed", [("bell", 601), ("lg", 607)])
    def test_same_feasibility_as_full_tables(self, kind, seed):
        seen, beyond_one = set(), 0
        for i in range(16):
            sys = random_system(kind, split_seed(seed, i), ("none", "no_signaling")[i % 2])
            means = random_connection_means(sys, split_seed(seed, 100 + i), i % 4 < 2)
            if i % 4 == 3:
                means = tuple(2 * t for t in means)
            beyond_one += any(abs(t) > 1 for t in means)
            full = self.full_table_feasible(sys, means)
            assert oracle.compatibility_verdicts(sys, means)[1] == full, (i, means)
            seen.add(full)
        assert seen == {True, False} and beyond_one


class TestOracleReport:
    def test_witness_reproduces_observations(self):
        sys = pr_signaling_family(1, F(1, 5))
        _assert_minimal_coupling(sys, oracle.report(sys), "signaling box")

    @pytest.mark.parametrize("kind, seed", [("bell", 211), ("lg", 223)])
    def test_witness_mismatch_identity(self, kind, seed):
        # total mismatch on the witness equals (one minus each connection
        # expectation)/2 summed: Pr[X != X'] = (1 - <X X'>)/2 per connection,
        # so delta = n_conn/2 - (sum of connection expectations)/2
        sys = random_system(kind, seed)
        result = oracle.report(sys, causal=False)
        rows = atom_rows(kind)
        witness = result.witness_joint
        base = len(rows) // 2
        n_conn = (len(rows) - base) // 4
        total_mismatch = F(0)
        expectation_sum = F(0)
        for c in range(n_conn):
            block = rows[base + 4 * c : base + 4 * c + 4]
            cells = [
                sum((m * w for m, w in zip(row, witness) if m), F(0)) for row in block
            ]
            total_mismatch += cells[1] + cells[2]
            expectation_sum += cells[0] - cells[1] - cells[2] + cells[3]
        assert total_mismatch == result.delta_min
        assert total_mismatch == F(n_conn, 2) - expectation_sum / 2

    def test_feasibility_flag_tracks_criterion(self):
        assert not oracle.report(pr_signaling_family(1, 0)).feasible_at_c0
        assert oracle.report(pr_signaling_family(F(1, 4), 0)).feasible_at_c0

    def test_causal_violation_raises_before_solving(self, monkeypatch):
        sys = KINDS["lg"](
            PairDistribution.from_expectations(F(1, 2), 0, 0),
            *(PairDistribution.from_expectations(0, 0, 0),) * 2,
        )
        solved = []
        monkeypatch.setattr(oracle, "solve", lambda program: solved.append(program))
        for route in (oracle.report, oracle.degree):
            with pytest.raises(CausalityViolationError):
                route(sys)
        assert not solved


class TestCertifiedAnswers:
    def test_every_solve_is_certified(self, monkeypatch):
        from contextuality import ratlp

        calls = {"solve": 0, "check": 0}

        def counted(module, name, key):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # oracle solves through its own name; ratlp.solve would count a
        # second solve if anything reached it
        counted(oracle, "solve", "solve")
        counted(ratlp, "solve", "solve")
        counted(ratlp, "check_certificate", "check")

        # one solve per extremum, each extremum certified
        oracle.delta_extrema(random_system("bell", 5))
        assert calls == {"solve": 2, "check": 2}
        assert oracle.compatible(pr_signaling_family(F(1, 4), 0), (F(1, 16),) * 4)
        assert calls == {"solve": 3, "check": 3}
        verdicts = oracle.compatibility_verdicts(lg_anticorrelated(), (1, 1, 1))
        assert verdicts == (False, False)
        assert calls == {"solve": 4, "check": 4}


class TestCompiledPrograms:
    def test_no_program_built_per_system(self, monkeypatch):
        def run(kind, seed):
            sys = random_system(kind, seed)
            oracle.delta_extrema(sys)
            oracle.compatible(sys, cyclic.minimal_connections(sys).components())
            oracle.compatibility_verdicts(sys, random_connection_means(sys, seed, False))

        for kind in ("bell", "lg"):
            run(kind, 1)  # warm-up: one template per program shape
        built = []
        post_init = ratlp.LinearProgram.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ratlp.LinearProgram, "__post_init__", counted)
        ratlp.LinearProgram(("x",), ())
        assert len(built) == 1  # the counter sees a constructor call
        for kind in ("bell", "lg"):
            for seed in (2, 3):
                run(kind, seed)
        assert len(built) == 1


def _edge_pair(rng: random.Random, mode: str) -> PairDistribution:
    """A pair with one to three zero cells ("zeros"), with every cell count
    near the sampler's bound ("near"), or perfectly correlated ("box") or
    anticorrelated ("anti") with near-bound counts on the two cells left."""
    near = [DENOMINATOR_BOUND - rng.randint(0, 5) for _ in range(4)]
    if mode == "zeros":
        counts = [rng.randint(1, DENOMINATOR_BOUND) for _ in range(4)]
        for i in rng.sample(range(4), rng.randint(1, 3)):
            counts[i] = 0
    elif mode == "near":
        counts = near
    else:
        counts = [0, near[1], near[2], 0] if mode == "anti" else [near[0], 0, 0, near[3]]
    total = sum(counts)
    return PairDistribution(*(Fraction(c, total) for c in counts))


class TestDegenerateInputs:
    # zero cells make ties in the ratio test and redundant rows; near-bound
    # denominators (up to 4 * DENOMINATOR_BOUND) make the rhs factor L large;
    # one anticorrelated pair among correlated ones makes the system contextual
    @pytest.mark.parametrize("kind, seed", [("bell", 401), ("lg", 409)])
    def test_report_matches_closed_forms(self, kind, seed):
        rng = random.Random(seed)
        n = len(KINDS[kind].PAIRS)
        contextual = 0
        for i in range(12):
            if i % 3 == 2:
                modes = ["box"] * (n - 1) + ["anti"]
            else:
                modes = [("zeros", "near")[(i + j) % 2] for j in range(n)]
            sys = KINDS[kind](*(_edge_pair(rng, mode) for mode in modes))
            assert not validate(sys)
            result = oracle.report(sys, causal=False)
            assert (result.delta_min, result.delta_max) == cyclic.delta_interval(sys), i
            assert result.feasible_at_c0 == cyclic.is_noncontextual(sys), i
            contextual += not result.feasible_at_c0
            for inside in (True, False):
                means = random_connection_means(sys, 1000 * seed + i, inside)
                closed, by_lp = oracle.compatibility_verdicts(sys, means)
                assert closed == by_lp, (i, means)
        assert 0 < contextual < 12


def _degenerate_systems(kind, seed):
    """The zero-cell, near-bound, box and anti systems of ``TestDegenerateInputs``."""
    rng = random.Random(seed)
    n = len(KINDS[kind].PAIRS)
    for i in range(12):
        if i % 3 == 2:
            modes = ["box"] * (n - 1) + ["anti"]
        else:
            modes = [("zeros", "near")[(i + j) % 2] for j in range(n)]
        yield KINDS[kind](*(_edge_pair(rng, mode) for mode in modes))


@lru_cache(maxsize=None)
def _atom_template(kind, sense):
    """The coupling program over all 2^(2n) atoms, bounds 0: the observed rows,
    plus each connection's mismatch row for "feasibility" or their sum as the
    objective for "min" and "max"."""
    matrix = atom_rows(kind)
    names = tuple(f"q{k}" for k in range(len(matrix[0])))
    cells = matrix[len(matrix) // 2 :]  # (+,+), (+,-), (-,+), (-,-) per connection
    unequal = tuple(tuple(map(add, pm, mp)) for pm, mp in zip(cells[1::4], cells[2::4]))
    rows = matrix[: len(matrix) // 2] + (unequal if sense == "feasibility" else ())
    return ratlp.LinearProgram(
        names,
        tuple((row, "==", 0) for row in rows),
        objective=None if sense == "feasibility" else tuple(map(sum, zip(*unequal))),
        sense=sense,
        nonneg=frozenset(names),
    )


def _atom_outcome(sys, sense, mismatches=()):
    program = _atom_template(sys.KIND, sense)
    return ratlp.solve(program.with_bounds(oracle.observed_vector(sys) + tuple(mismatches)))


class TestAtomReference:
    """The chordal program decides what the program over all atoms decides."""

    @pytest.mark.parametrize("kind, seed", [("bell", 613), ("lg", 617)])
    def test_same_extrema_and_compatibility(self, kind, seed):
        systems = [
            random_system(kind, split_seed(seed, i), ("none", "no_signaling")[i % 2])
            for i in range(12)
        ]
        systems += _degenerate_systems(kind, seed)
        seen = set()
        for i, sys in enumerate(systems):
            extrema = tuple(_atom_outcome(sys, sense).optimum for sense in ("min", "max"))
            assert oracle.delta_extrema(sys) == extrema, i
            c0 = cyclic.minimal_connections(sys).components()
            fits = _atom_outcome(sys, "feasibility", c0).status == "optimal"
            assert oracle.compatible(sys, c0) == fits, i
            seen.add(fits)
        assert seen == {True, False}

    @pytest.mark.parametrize("kind", ["bell", "lg"])
    def test_pairs_of_unequal_mass_fit_no_joint(self, kind):
        # every atom hits one cell of each pair, so pairs whose cells sum to
        # different totals fit no q >= 0; the chordal program needs every
        # separator row to carry one total across each chord
        uniform = PairDistribution.from_expectations(0, 0, 0)
        half = PairDistribution(*(c / 2 for c in uniform.cells()))
        n = len(KINDS[kind].PAIRS)
        for mask in range(1, 2**n - 1):
            sys = KINDS[kind](*(half if mask >> k & 1 else uniform for k in range(n)))
            assert _atom_outcome(sys, "min").status == "infeasible"
            with pytest.raises(oracle.InternalInconsistencyError):
                oracle.delta_extrema(sys)
            assert not oracle.compatible(sys, (F(1, 2),) * n), mask


class TestDegenerateWitness:
    @pytest.mark.parametrize("kind, seed", [("bell", 401), ("lg", 409)])
    def test_witness_is_a_minimal_coupling(self, kind, seed):
        # box and zero-cell pairs leave zero separator marginals, where the
        # rebuilt joint takes 0/0 as 0
        for i, sys in enumerate(_degenerate_systems(kind, seed)):
            _assert_minimal_coupling(sys, oracle.report(sys, causal=False), i)


def _seeded_and_degenerate(kind, seed):
    for i in range(12):
        yield random_system(kind, split_seed(seed, i), ("none", "no_signaling")[i % 2])
    yield from _degenerate_systems(kind, seed)


class TestSharedPhaseOne:
    """The extrema from each kind's "min" and "max" starts equal two cold
    ``ratlp.solve`` calls, on programs that carry no start."""

    @pytest.mark.parametrize("kind, seed", [("bell", 401), ("lg", 409)])
    def test_equal_to_two_solves(self, kind, seed):
        # on degenerate systems the solve from a start may end at another
        # optimal vertex than a cold one: the witness is checked, not compared
        for i, sys in enumerate(_seeded_and_degenerate(kind, seed)):
            low = oracle._program(sys, "min")
            lo = ratlp.solve(replace(low))
            hi = ratlp.solve(replace(low, sense="max"))
            assert repr(oracle.delta_extrema(sys)) == repr((lo.optimum, hi.optimum)), i
            result = oracle.report(sys, causal=False)
            assert repr((result.delta_min, result.delta_max)) == repr((lo.optimum, hi.optimum)), i
            _assert_minimal_coupling(sys, result, i)

    def test_three_templates_per_kind(self):
        for kind in ("bell", "lg"):
            sys = random_system(kind, 1)
            oracle.report(sys, causal=False)
            oracle.degree(sys, causal=False)
            oracle.compatibility_verdicts(sys, random_connection_means(sys, 1, False))
        assert oracle._template.cache_info().currsize == 6  # "min", "max", "feasibility"

    def test_results_unchanged_with_wrapped_module_names(self, monkeypatch):
        # a tracer swaps oracle.LinearProgram and the solve names for plain
        # functions; the oracle must not rely on those names being the class
        # or the solver itself
        systems = [random_system(kind, seed) for kind in ("bell", "lg") for seed in (3, 4)]
        systems.append(pr_signaling_family(1, 0))

        def answers():
            return [
                (
                    oracle.delta_extrema(sys),
                    oracle.report(sys, causal=False),
                    oracle.compatible(sys, cyclic.minimal_connections(sys).components()),
                )
                for sys in systems
            ]

        expected = answers()

        def wrapped(fn):
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)

            return wrapper

        for module, name in ((oracle, "LinearProgram"), (oracle, "solve"), (ratlp, "solve")):
            monkeypatch.setattr(module, name, wrapped(getattr(module, name)))
        oracle._template.cache_clear()  # templates are built through the wrapper
        assert repr(answers()) == repr(expected)


def _answers(systems):
    """Every oracle answer on ``systems``, the witness included."""
    out = []
    for sys in systems:
        c0 = cyclic.minimal_connections(sys).components()
        means = random_connection_means(sys, 7, False)
        out.append(
            (
                oracle.delta_extrema(sys),
                oracle.report(sys, causal=False),
                oracle.compatible(sys, c0),
                oracle.compatibility_verdicts(sys, means),
                oracle.degree(sys, causal=False),
            )
        )
    return out


@pytest.fixture
def fresh_templates():
    """Templates compiled inside the test, and again after it."""
    oracle._template.cache_clear()
    yield
    oracle._template.cache_clear()


def _values(answers):
    """``answers`` without the witnesses, which may be other optimal vertices."""
    return repr(
        [(e, r.delta_min, r.delta_max, r.feasible_at_c0, c, v, d) for e, r, c, v, d in answers]
    )


class TestWarmStart:
    @pytest.mark.parametrize("kind, seed", [("bell", 401), ("lg", 409)])
    def test_bland_from_the_first_dual_pivot(self, kind, seed, monkeypatch, fresh_templates):
        systems = list(_seeded_and_degenerate(kind, seed))
        expected = _values(_answers(systems))
        monkeypatch.setattr(ratlp, "_STALL_LIMIT", 0)
        assert _values(_answers(systems)) == expected
        oracle._template.cache_clear()  # starts compiled under Bland's rule too
        assert _values(_answers(systems)) == expected

    def test_call_order_does_not_matter(self, fresh_templates):
        systems = [sys for kind in ("bell", "lg") for sys in _seeded_and_degenerate(kind, 431)]
        expected = _answers(systems)
        oracle._template.cache_clear()
        assert repr(_answers(systems[::-1])[::-1]) == repr(expected)

    def test_each_start_is_its_own_primal_end(self, fresh_templates):
        # at the template's own bounds the dual simplex makes no pivot, so a
        # start read out there is a cold solve's answer on the template
        for kind in ("bell", "lg"):
            for sense in ("min", "max", "feasibility"):
                t = oracle._template(kind, sense)
                own = t.with_bounds(bound for _, _, bound in t.constraints)
                assert repr(ratlp.solve(own)) == repr(ratlp.solve(replace(t))), (kind, sense)
        # a temporal verdict solves only the feasibility program, and compiles
        # no other template for it
        oracle._template.cache_clear()
        sys = random_system("lg", 1)
        oracle.compatibility_verdicts(sys, random_connection_means(sys, 1, False))
        assert oracle._template.cache_info().currsize == 1
