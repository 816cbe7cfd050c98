from fractions import Fraction

import pytest

from contextuality import bell, oracle
from contextuality.core import max_signed_sum_odd
from contextuality.generators import (
    deterministic_bell,
    pr_signaling_family,
    random_system,
    split_seed,
)
from contextuality.ratlp import LinearProgram, solve
from helpers import bell_from_expectations

F = Fraction
ZEROS = (0, 0, 0, 0)


def all_zero_system():
    return bell_from_expectations(ZEROS, ZEROS, ZEROS)


def random_systems(count, seed, constraint="none"):
    return [random_system("bell", split_seed(seed, i), constraint) for i in range(count)]


class TestMinimalConnections:
    def test_no_signaling_gives_zeros(self):
        assert bell.minimal_connections(all_zero_system()).components() == (0, 0, 0, 0)

    def test_signaling_family_epsilon(self):
        sys = pr_signaling_family(F(1, 2), F(1, 5))
        assert bell.minimal_connections(sys).components() == (0, F(1, 10), 0, F(1, 10))

    def test_first_component_from_alice_marginals(self):
        sys = bell_from_expectations((F(3, 5), F(1, 5), 0, 0), ZEROS, ZEROS)
        assert bell.minimal_connections(sys)[0] == F(1, 5)

    def test_matches_per_connection_lp_minimum(self):
        # independent derivation: minimize Pr[X != X'] over 2x2 distributions
        # with the two fixed marginals, one tiny LP per connection
        for i in range(20):
            sys = random_system("bell", split_seed(21, i))
            total = F(0)
            for m1, m2 in bell.connection_marginal_pairs(sys):
                names = ("pp", "pm", "mp", "mm")
                lp = LinearProgram(
                    names,
                    (
                        ((1, 1, 1, 1), "==", 1),
                        ((1, 1, -1, -1), "==", m1),  # <X>
                        ((1, -1, 1, -1), "==", m2),  # <X'>
                    ),
                    objective=(0, 1, 1, 0),
                    sense="min",
                    nonneg=frozenset(names),
                )
                total += solve(lp).optimum
            assert total == bell.delta0(sys)


class TestDelta0:
    def test_no_signaling(self):
        assert bell.delta0(all_zero_system()) == 0

    def test_family_epsilon_fifth(self):
        assert bell.delta0(pr_signaling_family(F(1, 2), F(1, 5))) == F(1, 5)

    @pytest.mark.parametrize("eps", [F(0), F(1, 10), F(-1, 4), F(3, 5)])
    def test_family_general_epsilon(self, eps):
        sys = pr_signaling_family(F(1, 4), eps)
        assert bell.delta0(sys) == abs(eps)
        # oracle route: the delta LP minimum can never sit below delta0
        assert oracle.delta_extrema(sys)[0] >= abs(eps)


class TestChshStatistic:
    def test_pr_box(self):
        assert bell.chsh_statistic(pr_signaling_family(1, 0)) == 4

    def test_all_ones(self):
        assert bell.chsh_statistic(deterministic_bell(1, 1)) == 2

    def test_seven_tenths(self):
        assert bell.chsh_statistic(pr_signaling_family(F(7, 10), 0)) == F(14, 5)

    def test_equals_odd_parity_maximum(self):
        for sys in random_systems(40, 31):
            assert bell.chsh_statistic(sys) == max_signed_sum_odd(sys.product_means())


class TestCriterionAndDegree:
    def test_pr_box_contextual(self):
        assert not bell.is_noncontextual(pr_signaling_family(1, 0))

    def test_large_signaling_never_contextual(self):
        # independent cells, Alice's marginal flips sign across settings
        sys = bell_from_expectations(
            (F(3, 4), F(-3, 4), F(3, 4), F(-3, 4)), ZEROS, ZEROS
        )
        assert bell.delta0(sys) > 1
        assert bell.is_noncontextual(sys)
        assert bell.degree(sys) == 0

    def test_zero_products_noncontextual(self):
        assert bell.is_noncontextual(all_zero_system())

    def test_degree_examples(self):
        assert bell.degree(pr_signaling_family(F(3, 4), 0)) == F(1, 2)
        assert bell.degree(pr_signaling_family(1, 0)) == 1

    def test_degree_with_signaling_resolved_by_oracle(self):
        # two candidate closed forms differ at delta=1, eps=1/5: one charges
        # the signaling allowance once (4/5), the other twice (3/5); the LP
        # minimum settles it at 4/5
        sys = pr_signaling_family(1, F(1, 5))
        assert oracle.degree(sys) == F(4, 5)
        assert bell.degree(sys) == F(4, 5)

    def test_degree_equals_interval_route(self):
        for sys in random_systems(40, 37):
            lo, _ = bell.delta_interval(sys)
            assert bell.degree(sys) == max(F(0), lo - bell.delta0(sys))

    def test_criterion_equivalences(self):
        for sys in random_systems(40, 41):
            nc = bell.is_noncontextual(sys)
            assert nc == (bell.degree(sys) == 0)
            assert nc == (bell.delta_interval(sys)[0] == bell.delta0(sys))

    @pytest.mark.parametrize("eps", [F(0), F(1, 7), F(2, 5)])
    def test_exactly_on_the_criterion_boundary(self, eps):
        # statistic == 2 (1 + delta0) exactly: still noncontextual, and the
        # polytope admits the minimal connection vector right on the facet
        delta = (1 + eps) / 2
        sys = pr_signaling_family(delta, eps)
        assert bell.chsh_statistic(sys) == 2 * (1 + bell.delta0(sys))
        assert bell.is_noncontextual(sys)
        assert bell.degree(sys) == 0
        assert oracle.compatible(sys, bell.minimal_connections(sys).components())
        # one step past the boundary flips everything
        nudged = pr_signaling_family(delta + F(1, 64), eps)
        assert not bell.is_noncontextual(nudged)
        assert bell.degree(nudged) == F(1, 32)
        assert not oracle.compatible(nudged, bell.minimal_connections(nudged).components())


class TestDeltaInterval:
    def test_pr_box(self):
        assert bell.delta_interval(pr_signaling_family(1, 0)) == (1, 3)

    def test_all_zero(self):
        assert bell.delta_interval(all_zero_system()) == (0, 4)

    def test_deterministic(self):
        assert bell.delta_interval(deterministic_bell(1, 1)) == (0, 0)

    def test_ordered_on_random_systems(self):
        for sys in random_systems(60, 43):
            lo, hi = bell.delta_interval(sys)
            assert lo <= hi


class TestClassicChecks:
    def test_near_tsirelson_point(self):
        # no-signaling but violates the classic bound
        assert bell.classic_checks(pr_signaling_family(F(17, 24), 0)) == (True, False)

    def test_signaling_family(self):
        no_signaling, _ = bell.classic_checks(pr_signaling_family(F(1, 2), F(1, 5)))
        assert not no_signaling

    def test_all_zero(self):
        assert bell.classic_checks(all_zero_system()) == (True, True)

    def test_reduction_under_no_signaling(self):
        for sys in random_systems(50, 47, "no_signaling"):
            no_signaling, classic = bell.classic_checks(sys)
            assert no_signaling
            assert bell.is_noncontextual(sys) == classic


class TestReport:
    def test_fields_consistent(self):
        sys = pr_signaling_family(1, F(1, 5))
        report = bell.analyze(sys)
        assert report.degree == max(F(0), report.delta_min - report.delta0)
        assert report.noncontextual == (report.degree == 0)
        assert report.delta_min <= report.delta_max
        assert report.signaling
        assert not report.classic_satisfied

    @pytest.mark.parametrize(
        "name", ["minimal_connections", "delta0", "is_noncontextual", "degree", "analyze"]
    )
    def test_causal_changes_nothing(self, name):
        # a Bell-type system pins no connection, signaling or not
        fn = getattr(bell, name)
        systems = random_systems(20, 83) + [pr_signaling_family(1, F(1, 5))]
        for i, sys in enumerate(systems):
            assert fn(sys, causal=True) == fn(sys, causal=False), i
