from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpos.permutations import DomainError
from permpos.series import BivariateSeries, TruncatedSeries

F = Fraction

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series(coeffs):
    return TruncatedSeries.from_coeffs(coeffs)


series_strategy = st.lists(small_fracs, min_size=1, max_size=8).map(series)


class TestUnivariate:
    def test_mul_example(self):
        s = series([0, 1, 2, 0])  # x + 2x^2
        x = TruncatedSeries.monomial(1, 3)
        assert (s * x).coeffs == (F(0), F(0), F(1), F(2))

    def test_order_mixing_truncates_to_min(self):
        a = series([1, 1, 1])
        b = series([1, 1, 1, 1, 1])
        assert (a + b).order == 2
        assert (a * b).order == 2

    def test_dx(self):
        assert TruncatedSeries.monomial(3, 4).dx() == \
            TruncatedSeries.monomial(2, 3, 3)
        s = series([0, 1, 1])  # x + x^2 (stands in for x*f at low order)
        assert s.dx().coeff(1) == 2
        assert series([5]).dx() == TruncatedSeries.zero(0)

    def test_shift(self):
        s = series([1, 2])
        assert s.shift(2).coeffs == (F(0), F(0), F(1), F(2))
        assert s.shift(2).order == 3

    def test_integer_extraction(self):
        assert series([1, 2]).integer_coeffs() == (1, 2)
        with pytest.raises(DomainError):
            series([F(1, 2)]).integer_coeffs()

    def test_coeff_bounds(self):
        with pytest.raises(ValueError):
            series([1]).coeff(1)

    def test_text_form(self):
        s = series([F(1, 2), 0, 3])
        assert s.to_text() == "1/2 + 0*x + 3*x^2"

    def test_integral_coefficients_are_ints(self):
        half = series([F(1, 2), 0, F(3, 1)])
        assert [type(c) for c in half.coeffs] == [F, int, int]
        x2 = TruncatedSeries.monomial(2, 2, F(1, 2))
        results = [half + half, half - half.scale(3), half.scale(4), half * series([2, 0, 0]),
                   x2.dx(), half.scale(2).shift(1), TruncatedSeries.monomial(1, 2, F(6, 3))]
        for s in results:
            assert all(type(c) is int for c in s.coeffs), s
        assert (half + half).coeffs == (1, 0, 6)

    @given(series_strategy, series_strategy, series_strategy)
    def test_ring_laws(self, a, b, c):
        order = min(a.order, b.order, c.order)
        a, b, c = a.truncate(order), b.truncate(order), c.truncate(order)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(series_strategy, series_strategy)
    def test_dx_is_a_derivation(self, a, b):
        order = min(a.order, b.order)
        a, b = a.truncate(order), b.truncate(order)
        lhs = (a * b).dx()
        rhs = a.dx() * b.truncate(max(order - 1, 0)) + \
            a.truncate(max(order - 1, 0)) * b.dx()
        assert lhs == rhs


class TestBivariate:
    def test_columns_match_rows(self):
        x_plus_2x2 = series([0, 1, 2])
        x2 = TruncatedSeries.monomial(2, 3)
        b = BivariateSeries.from_columns([TruncatedSeries.zero(2), x_plus_2x2, x2], 2)
        assert b == BivariateSeries(2, 2, ((F(0), F(0), F(0)), (F(0), F(1), F(0)),
                                           (F(0), F(2), F(1))))
        assert BivariateSeries.from_columns([x2], 3).coeff(2, 0) == 1
        with pytest.raises(ValueError):
            BivariateSeries.from_columns([x_plus_2x2], 3)  # a column too short
        with pytest.raises(ValueError):
            BivariateSeries.from_columns([], 2)

    def test_integer_extraction(self):
        b = BivariateSeries(0, 0, ((F(1, 2),),))
        with pytest.raises(DomainError):
            b.integer_coeffs()
