import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.core import (
    BellSystem,
    FrechetViolationError,
    InvalidArityError,
    LGSystem,
    PairDistribution,
    as_fraction,
    max_signed_sum_even,
    max_signed_sum_odd,
    validate,
)
from helpers import enumerated_signed_max

F = Fraction

fractions_st = st.fractions(min_value=-2, max_value=2, max_denominator=12)


def valid_pair_st():
    return st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(
        lambda cells: sum(cells) > 0
    ).map(lambda cells: PairDistribution(*(F(c, sum(cells)) for c in cells)))


class TestSignedSumMaxima:
    def test_even_all_ones(self):
        assert max_signed_sum_even([1, 1, 1, 1]) == 4

    def test_even_matches_negatives(self):
        assert max_signed_sum_even([1, -1, 1, -1]) == 4

    def test_even_random_instance_matches_enumeration(self):
        xs = [F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
        assert max_signed_sum_even(xs) == enumerated_signed_max(xs, 0)

    def test_odd_all_ones(self):
        assert max_signed_sum_odd([1, 1, 1, 1]) == 2

    def test_odd_one_negative(self):
        d = F(3, 4)
        assert max_signed_sum_odd([d, d, d, -d]) == 3

    def test_odd_all_negative(self):
        assert max_signed_sum_odd([-1, -1, -1]) == 3

    def test_even_arity_errors(self):
        with pytest.raises(InvalidArityError):
            max_signed_sum_even([])
        with pytest.raises(InvalidArityError):
            max_signed_sum_even([1, 2, 3])

    def test_odd_arity_error(self):
        with pytest.raises(InvalidArityError):
            max_signed_sum_odd([])

    @settings(max_examples=300)
    @given(st.lists(fractions_st, min_size=1, max_size=7))
    def test_odd_equals_enumeration(self, xs):
        assert max_signed_sum_odd(xs) == enumerated_signed_max(xs, 1)

    @settings(max_examples=300)
    @given(st.lists(fractions_st, min_size=2, max_size=6).filter(lambda xs: len(xs) % 2 == 0))
    def test_even_equals_enumeration(self, xs):
        assert max_signed_sum_even(xs) == enumerated_signed_max(xs, 0)

    @given(st.lists(fractions_st, min_size=1, max_size=6))
    def test_piecewise_closed_form_odd(self, xs):
        total = sum(abs(x) for x in xs)
        negatives = sum(1 for x in xs if x < 0)
        has_zero = any(x == 0 for x in xs)
        expected = total if (negatives % 2 == 1 or has_zero) else total - 2 * min(abs(x) for x in xs)
        assert max_signed_sum_odd(xs) == expected

    @given(st.lists(fractions_st, min_size=2, max_size=6).filter(lambda xs: len(xs) % 2 == 0))
    def test_piecewise_closed_form_even(self, xs):
        total = sum(abs(x) for x in xs)
        negatives = sum(1 for x in xs if x < 0)
        has_zero = any(x == 0 for x in xs)
        expected = total if (negatives % 2 == 0 or has_zero) else total - 2 * min(abs(x) for x in xs)
        assert max_signed_sum_even(xs) == expected

    @given(st.lists(fractions_st, min_size=4, max_size=4))
    def test_odd_four_args_equals_flip_one_form(self, xs):
        # odd-parity max == max over one flipped entry and a global sign
        total = sum(xs)
        alt = max(s * (total - 2 * x) for x in xs for s in (1, -1))
        assert max_signed_sum_odd(xs) == alt


class TestPairDistribution:
    def test_uniform(self):
        pd = PairDistribution.from_expectations(0, 0, 0)
        assert pd.cells() == (F(1, 4),) * 4

    def test_perfect_correlation(self):
        pd = PairDistribution.from_expectations(0, 0, 1)
        assert (pd.pp, pd.pm, pd.mp, pd.mm) == (F(1, 2), 0, 0, F(1, 2))

    def test_infeasible_expectations_rejected(self):
        # cells evaluate to (1/2, 1/2, -1/2, 1/2)/...: the (-1,+1) cell fails
        with pytest.raises(FrechetViolationError) as err:
            PairDistribution.from_expectations(1, -1, 1)
        assert "(-1,+1)" in str(err.value)
        assert "<XY>" in str(err.value)

    def test_error_names_the_binding_side(self):
        with pytest.raises(FrechetViolationError) as err:
            PairDistribution.from_expectations(F(1, 2), F(1, 2), -1)
        assert ">= -1 + |<X>+<Y>|" in str(err.value)

    @given(valid_pair_st())
    def test_expectation_round_trip(self, pd):
        rebuilt = PairDistribution.from_expectations(pd.x_mean, pd.y_mean, pd.xy_mean)
        assert rebuilt == pd

    @given(valid_pair_st())
    def test_derived_expectations_in_range(self, pd):
        for value in (pd.x_mean, pd.y_mean, pd.xy_mean):
            assert -1 <= value <= 1
        assert -1 + abs(pd.x_mean + pd.y_mean) <= pd.xy_mean <= 1 - abs(pd.x_mean - pd.y_mean)

    def test_cell_accessor(self):
        pd = PairDistribution(F(1, 2), F(1, 4), F(1, 8), F(1, 8))
        assert pd.cell(1, 1) == F(1, 2)
        assert pd.cell(1, -1) == F(1, 4)
        assert pd.cell(-1, 1) == F(1, 8)
        assert pd.cell(-1, -1) == F(1, 8)

    def test_string_cells_coerced(self):
        pd = PairDistribution("1/2", "0.25", "1/8", "1/8")
        assert pd.pp == F(1, 2) and pd.pm == F(1, 4)


class TestValidate:
    def test_valid_bell(self):
        corr = PairDistribution.from_expectations(0, 0, 1)
        anti = PairDistribution.from_expectations(0, 0, -1)
        assert validate(BellSystem(corr, corr, corr, anti)) == []

    def test_negative_cell_reported_once(self):
        bad = PairDistribution(F(-1, 10), F(1, 2), F(1, 2), F(1, 10))
        uniform = PairDistribution.from_expectations(0, 0, 0)
        violations = validate(BellSystem(bad, uniform, uniform, uniform))
        assert len(violations) == 1
        assert violations[0].pair == "(1,1)"
        assert "-1/10" in violations[0].description

    def test_normalization_reported(self):
        short = PairDistribution(F(1, 10), F(2, 10), F(3, 10), F(3, 10))
        uniform = PairDistribution.from_expectations(0, 0, 0)
        violations = validate(LGSystem(uniform, short, uniform))
        assert len(violations) == 1
        assert violations[0].pair == "(1,3)"
        assert "sum to 9/10" in violations[0].description

    def test_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            validate(42)


class TestAsFraction:
    @pytest.mark.parametrize(
        "raw, expected",
        [("0.25", F(1, 4)), ("3/4", F(3, 4)), (2, F(2)), (0.1, F(1, 10)), (F(5, 7), F(5, 7))],
    )
    def test_coercions(self, raw, expected):
        assert as_fraction(raw) == expected

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            as_fraction(object())

    def test_rejects_huge_decimal_exponent_promptly(self):
        start = time.perf_counter()
        for raw in ("1e1000000000", "2.5E-1000000000", "1e4301"):
            with pytest.raises(ValueError):
                as_fraction(raw)
        assert time.perf_counter() - start < 1

    def test_exponents_within_the_limit_parse(self):
        assert as_fraction("2.5e-3") == F(1, 400)
        assert as_fraction("1e4300") == 10**4300
        assert as_fraction("-1E-4300") == F(-1, 10**4300)
