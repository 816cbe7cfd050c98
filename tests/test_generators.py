from fractions import Fraction

import pytest

from contextuality import bell, lg, oracle
from contextuality.core import FrechetViolationError, PairDistribution, validate
from contextuality.generators import (
    GenerationError,
    deterministic_bell,
    deterministic_lg,
    lg_anticorrelated,
    pr_signaling_family,
    random_connection_means,
    random_system,
    split_seed,
)

F = Fraction


class TestPrSignalingFamily:
    def test_maximal_box(self):
        sys = pr_signaling_family(1, 0)
        assert bell.chsh_statistic(sys) == 4
        assert not bell.analyze(sys).signaling
        assert validate(sys) == []

    def test_near_tsirelson(self):
        sys = pr_signaling_family(F(17, 24), 0)
        assert bell.chsh_statistic(sys) == F(17, 6)
        assert bell.degree(sys) == F(5, 12)

    def test_weak_correlations_noncontextual(self):
        sys = pr_signaling_family(F(1, 4), 0)
        assert bell.chsh_statistic(sys) == 1
        assert bell.is_noncontextual(sys)

    def test_no_signaling_iff_epsilon_zero(self):
        assert bell.classic_checks(pr_signaling_family(F(1, 2), 0))[0]
        assert not bell.classic_checks(pr_signaling_family(F(1, 2), F(1, 100)))[0]

    def test_infeasible_parameters_name_the_cell(self):
        with pytest.raises(FrechetViolationError) as err:
            pr_signaling_family(2, 0)
        assert "cell" in str(err.value)

    def test_epsilon_beyond_box(self):
        with pytest.raises(FrechetViolationError):
            pr_signaling_family(0, F(3, 4))  # needs 2|eps| <= 1 + delta


class TestDeterministicSystems:
    def test_constant_plus(self):
        sys = deterministic_bell(1, 1)
        assert sys.product_means() == (1, 1, 1, 1)
        assert bell.degree(sys) == 0

    def test_anticorrelated_outputs(self):
        sys = deterministic_bell(1, -1)
        assert sys.product_means() == (-1, -1, -1, -1)
        assert bell.chsh_statistic(sys) == 2
        assert bell.degree(sys) == 0

    def test_lg_constant(self):
        sys = deterministic_lg(1)
        assert sys.product_means() == (1, 1, 1)
        assert lg.degree(sys) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            deterministic_bell(0, 1)
        with pytest.raises(ValueError):
            deterministic_lg(2)


class TestLgAnticorrelated:
    def test_statistic(self):
        assert lg.lgsz_statistic(lg_anticorrelated()) == 3

    def test_degree_with_oracle_cross_check(self):
        sys = lg_anticorrelated()
        assert lg.degree(sys) == 1
        assert oracle.degree(sys) == 1

    def test_classic_checks(self):
        assert lg.classic_checks(lg_anticorrelated()) == (True, False)


class TestRandomSystem:
    def test_same_seed_same_system(self):
        assert random_system("bell", 123) == random_system("bell", 123)
        assert random_system("lg", 123) == random_system("lg", 123)

    def test_different_seeds_differ(self):
        assert random_system("bell", 1) != random_system("bell", 2)

    def test_no_signaling_is_exact(self):
        for i in range(30):
            sysb = random_system("bell", split_seed(3, i), "no_signaling")
            assert all(m1 == m2 for m1, m2 in bell.connection_marginal_pairs(sysb))
            sysl = random_system("lg", split_seed(4, i), "no_signaling")
            assert all(m1 == m2 for m1, m2 in lg.connection_marginal_pairs(sysl))

    def test_signaling_only(self):
        for i in range(20):
            sys = random_system("bell", split_seed(5, i), "signaling_only")
            assert any(m1 != m2 for m1, m2 in bell.connection_marginal_pairs(sys))

    @pytest.mark.parametrize("kind", ["bell", "lg"])
    def test_samples_are_valid(self, kind):
        for i in range(200):
            assert validate(random_system(kind, split_seed(6, i))) == []

    def test_signaling_only_resamples_a_no_signaling_draw(self, monkeypatch):
        from contextuality import generators

        draws, draw = [], generators._random_pair
        uniform = PairDistribution(*(F(1, 4),) * 4)

        def uniform_first(rng):
            draws.append(rng)
            return uniform if len(draws) <= 4 else draw(rng)

        monkeypatch.setattr(generators, "_random_pair", uniform_first)
        sys = random_system("bell", 3, "signaling_only")
        assert len(draws) > 4
        assert any(m1 != m2 for m1, m2 in bell.connection_marginal_pairs(sys))

    def test_gives_up_after_max_attempts(self, monkeypatch):
        from contextuality import generators

        monkeypatch.setattr(generators, "_random_pair", lambda rng: PairDistribution(*(F(1, 4),) * 4))
        monkeypatch.setattr(generators, "MAX_ATTEMPTS", 3)
        message = "no valid lg system with constraint 'signaling_only' in 3 attempts"
        with pytest.raises(GenerationError, match=message):
            random_system("lg", 0, "signaling_only")

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError):
            random_system("ghz", 0)
        with pytest.raises(ValueError):
            random_system("bell", 0, "smooth")


class TestSeedSplitting:
    def test_deterministic(self):
        assert split_seed(7, 3) == split_seed(7, 3)

    def test_children_differ(self):
        children = {split_seed(7, i) for i in range(100)}
        assert len(children) == 100


class TestRandomConnectionMeans:
    def test_inside_bounds_respects_cells(self):
        for i in range(30):
            sys = random_system("bell", split_seed(8, i))
            means = random_connection_means(sys, split_seed(9, i), inside_bounds=True)
            for (m1, m2), t in zip(bell.connection_marginal_pairs(sys), means):
                assert -1 + abs(m1 + m2) <= t <= 1 - abs(m1 - m2)

    def test_unconstrained_mode_hits_infeasible_points(self):
        hits = 0
        for i in range(40):
            sys = random_system("lg", split_seed(10, i))
            means = random_connection_means(sys, split_seed(11, i), inside_bounds=False)
            ok = all(
                -1 + abs(m1 + m2) <= t <= 1 - abs(m1 - m2)
                for (m1, m2), t in zip(lg.connection_marginal_pairs(sys), means)
            )
            hits += not ok
        assert hits > 0
