import random
from fractions import Fraction

import pytest

from contextuality import cyclic, lg, oracle
from contextuality.core import CausalityViolationError, max_signed_sum_odd
from contextuality.generators import (
    deterministic_lg,
    lg_anticorrelated,
    random_system,
    split_seed,
)
from helpers import lg_from_expectations

F = Fraction
ZEROS = (0, 0, 0)
# the five closed forms that read the time-ordered flag
FLAGGED = ("minimal_connections", "delta0", "is_noncontextual", "degree", "analyze")


def all_zero_system():
    return lg_from_expectations(ZEROS, ZEROS, ZEROS)


def random_systems(count, seed, constraint="none"):
    return [random_system("lg", split_seed(seed, i), constraint) for i in range(count)]


def causal_systems(count, seed):
    """Valid temporal systems with <Q_12> = <Q_13> and arbitrary other
    marginals, each product drawn between its two Frechet bounds."""
    rng = random.Random(seed)
    eighths = lambda: F(rng.randint(-8, 8), 8)
    systems = []
    for _ in range(count):
        q12, q21, q23, q31, q32 = (eighths() for _ in range(5))
        first, second = (q12, q12, q23), (q21, q31, q32)
        products = []
        for x, y in zip(first, second):
            lo, hi = -1 + abs(x + y), 1 - abs(x - y)
            products.append(lo + (hi - lo) * F(rng.randint(0, 4), 4))
        systems.append(lg_from_expectations(first, second, products))
    return systems


def causality_violating_system():
    # <Q_12> = 1/2 != <Q_13> = 0
    return lg_from_expectations((F(1, 2), 0, 0), ZEROS, ZEROS)


class TestMinimalConnections:
    def test_no_signaling(self):
        assert lg.minimal_connections(all_zero_system()).components() == (0, 0, 0)

    def test_causal_second_component(self):
        sys = lg_from_expectations((0, 0, 0), (F(1, 2), 0, 0), ZEROS)
        # <Q21> = 1/2 (second slot of pair (1,2)), <Q23> = 0
        assert lg.minimal_connections(sys, causal=True).components() == (0, F(1, 4), 0)

    def test_generalized_first_component(self):
        sys = lg_from_expectations((F(1, 2), 0, 0), ZEROS, ZEROS)
        assert lg.minimal_connections(sys, causal=False)[0] == F(1, 4)

    def test_causal_violation_raises(self):
        sys = lg_from_expectations((F(1, 2), 0, 0), ZEROS, ZEROS)
        with pytest.raises(CausalityViolationError):
            lg.minimal_connections(sys, causal=True)


class TestDelta0:
    def test_no_signaling(self):
        assert lg.delta0(all_zero_system()) == 0

    def test_causal_half(self):
        sys = lg_from_expectations((0, 0, 0), (F(1, 2), 0, F(1, 2)), ZEROS)
        # <Q21> - <Q23> = 1/2 and <Q31> - <Q32> = -1/2
        assert lg.delta0(sys, causal=True) == F(1, 2)

    def test_generalized_adds_first(self):
        sys = lg_from_expectations((F(1, 2), 0, 0), (F(1, 2), 0, F(1, 2)), ZEROS)
        assert lg.delta0(sys, causal=False) == F(3, 4)


class TestStatistic:
    def test_all_anticorrelated(self):
        assert lg.lgsz_statistic(lg_anticorrelated()) == 3

    def test_all_correlated(self):
        assert lg.lgsz_statistic(deterministic_lg(1)) == 1

    def test_mixed(self):
        sys = lg_from_expectations(ZEROS, ZEROS, (F(1, 2), F(1, 2), F(-1, 2)))
        assert lg.lgsz_statistic(sys) == F(3, 2)


class TestCriterionAndDegree:
    def test_anticorrelated_contextual(self):
        sys = lg_anticorrelated()
        assert not lg.is_noncontextual(sys)
        assert not oracle.compatible(sys, (0, 0, 0))

    def test_all_correlated_noncontextual(self):
        assert lg.is_noncontextual(deterministic_lg(1))

    def test_enough_signaling_saves_anticorrelation(self):
        # products (-1,-1,-1) with delta0 = 1: statistic 3 <= 1 + 2
        sys = lg_from_expectations((-1, -1, -1), (1, 1, 1), (-1, -1, -1))
        assert lg.delta0(sys, causal=True) == 1
        assert lg.is_noncontextual(sys, causal=True)

    def test_degree_anticorrelated(self):
        sys = lg_anticorrelated()
        assert lg.degree(sys) == 1
        assert oracle.degree(sys) == 1

    def test_degree_zero_for_correlated(self):
        assert lg.degree(deterministic_lg(1)) == 0

    def test_degree_with_partial_signaling(self):
        # products all -1, delta0 = 1/2 from <Q23> = 1/2, <Q32> = -1/2
        sys = lg_from_expectations((0, 0, F(1, 2)), (0, 0, F(-1, 2)), (-1, -1, -1))
        assert lg.delta0(sys, causal=True) == F(1, 2)
        assert lg.degree(sys, causal=True) == F(1, 2)

    def test_statistic_form_equals_two_sided_form(self):
        for i, sys in enumerate(random_systems(60, 53)):
            d0 = lg.delta0(sys, causal=False)
            prods = sys.product_means()
            total = sum(prods, F(0))
            two_sided = (-1 - 2 * d0 <= total) and (total <= 1 + 2 * d0 + 2 * min(prods))
            assert lg.is_noncontextual(sys, causal=False) == two_sided, i

    def test_degree_equals_interval_route(self):
        for sys in random_systems(40, 59):
            lo, _ = lg.delta_interval(sys)
            assert lg.degree(sys, causal=False) == max(F(0), lo - lg.delta0(sys, causal=False))

    def test_exactly_on_the_criterion_boundary(self):
        # statistic == 1 + 2 delta0 exactly (products (-q, -q, -q) give
        # statistic 3q for q >= 1/3; delta0 = 0): boundary sits at q = 1/3
        q = F(1, 3)
        sys = lg_from_expectations(ZEROS, ZEROS, (-q, -q, -q))
        assert lg.lgsz_statistic(sys) == 1
        assert lg.is_noncontextual(sys)
        assert lg.degree(sys) == 0
        assert oracle.compatible(sys, lg.minimal_connections(sys).components())
        nudged = lg_from_expectations(ZEROS, ZEROS, (-q - F(1, 60),) * 3)
        assert not lg.is_noncontextual(nudged)
        assert lg.degree(nudged) == F(1, 40)
        assert not oracle.compatible(nudged, lg.minimal_connections(nudged).components())


class TestDeltaInterval:
    def test_all_zero(self):
        assert lg.delta_interval(all_zero_system()) == (0, 3)

    def test_deterministic(self):
        assert lg.delta_interval(deterministic_lg(1)) == (0, 0)

    def test_anticorrelated_upper_bound_is_three(self):
        # the odd-parity form of the statistic bound would cap this at 2;
        # the correct even-parity form gives 3, and the witness coupling
        # with every connection mismatching almost surely is admissible
        sys = lg_anticorrelated()
        assert lg.delta_interval(sys) == (1, 3)
        assert oracle.compatible(sys, (1, 1, 1))

    def test_matches_oracle_on_anticorrelated_profiles(self):
        # adversarial corner: strongly negative products expose the parity
        # of the statistic-driven upper bound
        sys = lg_from_expectations(
            (F(1, 2), F(-1, 2), F(-1, 2)),
            (F(-1, 2), F(1, 2), F(1, 2)),
            (-1, -1, -1),
        )
        assert lg.delta_interval(sys) == oracle.delta_extrema(sys)

    def test_ordered_on_random_systems(self):
        for sys in random_systems(60, 61):
            lo, hi = lg.delta_interval(sys)
            assert lo <= hi


class TestClassicChecks:
    def test_anticorrelated(self):
        assert lg.classic_checks(lg_anticorrelated()) == (True, False)

    def test_all_zero(self):
        assert lg.classic_checks(all_zero_system()) == (True, True)

    def test_signaling_detected(self):
        sys = lg_from_expectations((0, 0, 0), (F(1, 2), 0, 0), ZEROS)
        assert lg.classic_checks(sys)[0] is False

    def test_reduction_under_no_signaling(self):
        for sys in random_systems(50, 67, "no_signaling"):
            no_signaling, classic = lg.classic_checks(sys)
            assert no_signaling
            assert lg.is_noncontextual(sys, causal=True) == classic


class TestReport:
    def test_fields_consistent(self):
        report = lg.analyze(lg_anticorrelated())
        assert report.degree == max(F(0), report.delta_min - report.delta0)
        assert not report.noncontextual
        assert report.statistic == max_signed_sum_odd((-1, -1, -1))

    def test_causal_flag_threaded(self):
        sys = lg_from_expectations((F(1, 2), 0, 0), ZEROS, ZEROS)
        with pytest.raises(CausalityViolationError):
            lg.analyze(sys, causal=True)
        report = lg.analyze(sys, causal=False)
        assert report.delta0 == F(1, 4)

    @pytest.mark.parametrize("name", FLAGGED)
    def test_cyclic_causal_raises_on_unequal_first_marginals(self, name):
        sys = causality_violating_system()
        with pytest.raises(CausalityViolationError):
            getattr(cyclic, name)(sys, causal=True)
        getattr(cyclic, name)(sys)  # the generalized reading is cyclic's default

    @pytest.mark.parametrize("name", FLAGGED)
    def test_cyclic_causal_changes_nothing_on_valid_systems(self, name):
        systems = causal_systems(30, 71) + random_systems(10, 73, "no_signaling")
        assert any(cyclic.delta0(sys) for sys in systems)  # some of them signal
        fn = getattr(cyclic, name)
        for i, sys in enumerate(systems):
            assert fn(sys, causal=True) == fn(sys, causal=False), i

    @pytest.mark.parametrize("name", FLAGGED)
    def test_defaults_stay_time_ordered(self, name):
        fn, closed = getattr(lg, name), getattr(cyclic, name)
        sys = causality_violating_system()
        with pytest.raises(CausalityViolationError):
            fn(sys)
        assert fn(sys, False) == closed(sys)
        valid = causal_systems(1, 79)[0]
        assert fn(valid) == closed(valid, causal=True)
