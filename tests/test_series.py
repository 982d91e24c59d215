from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpos.series import BivariateSeries, TruncatedSeries

small_ints = st.integers(min_value=-6, max_value=6)


def series(coeffs):
    return TruncatedSeries.from_coeffs(coeffs)


series_strategy = st.lists(small_ints, min_size=1, max_size=8).map(series)


class TestUnivariate:
    def test_mul_example(self):
        s = series([0, 1, 2, 0])  # x + 2x^2
        x = TruncatedSeries.monomial(1, 3)
        assert (s * x).coeffs == (0, 0, 1, 2)

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
        assert s.shift(2).coeffs == (0, 0, 1, 2)
        assert s.shift(2).order == 3

    def test_integer_extraction(self):
        assert series([1, 2]).integer_coeffs() == (1, 2)

    def test_non_int_coefficients_are_refused(self):
        for bad in (Fraction(1, 2), Fraction(3), 1.0, True):
            with pytest.raises(TypeError):
                TruncatedSeries(1, (0, bad))
            with pytest.raises(TypeError):
                series([1, bad])
            with pytest.raises(TypeError):
                TruncatedSeries.monomial(1, 2, bad)
            with pytest.raises(TypeError):
                series([1, 2]).scale(bad)
            with pytest.raises(TypeError):
                BivariateSeries(1, 0, ((0,), (bad,)))

    def test_halve(self):
        assert series([0, 2, -4, 6]).halve() == series([0, 1, -2, 3])
        with pytest.raises(ArithmeticError, match="x\\^2 is odd: -3"):
            series([0, 2, -3, 6]).halve()

    def test_coeff_bounds(self):
        with pytest.raises(ValueError):
            series([1]).coeff(1)

    def test_text_form(self):
        s = series([-1, 0, 3])
        assert s.to_text() == "-1 + 0*x + 3*x^2"

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
        assert b == BivariateSeries(2, 2, ((0, 0, 0), (0, 1, 0), (0, 2, 1)))
        assert BivariateSeries.from_columns([x2], 3).coeff(2, 0) == 1
        with pytest.raises(ValueError):
            BivariateSeries.from_columns([x_plus_2x2], 3)  # a column too short
        with pytest.raises(ValueError):
            BivariateSeries.from_columns([], 2)

    def test_integer_extraction(self):
        assert BivariateSeries(1, 0, ((1,), (2,))).integer_coeffs() == ((1,), (2,))
