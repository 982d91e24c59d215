import random
from fractions import Fraction
from math import comb

import pytest

from permpos.enumeration import iter_class_members
from permpos.genfun import (
    a_nk_recurrence,
    conjecture_check,
    expansion,
    f_power,
    f_series,
    g1_series,
    g2_series,
    g_identity_check,
    primitive_count_closed_form,
    t1k_series,
    t2k_series,
    t_ak_bruteforce,
)
from permpos.series import TruncatedSeries


class TestFSeries:
    def test_known_coefficients(self):
        assert f_series(8).integer_coeffs() == (0, 1, 2, 6, 22, 91, 408, 1938, 9614)

    def test_closed_form(self):
        assert primitive_count_closed_form(5) == 22
        assert primitive_count_closed_form(2) == 1
        with pytest.raises(ValueError):
            primitive_count_closed_form(1)

    def test_integrality_through_order_16(self):
        f_series(16).integer_coeffs()  # raises if any division is inexact

    def test_powers_table(self):
        assert f_power(0, 5) == TruncatedSeries.one(5)
        assert f_power(1, 5) == f_series(5)
        assert f_power(3, 5).coeff(5) == 30  # (x + 2x^2 + 6x^3)^3
        assert f_power(5, 5) == TruncatedSeries.monomial(5, 5)
        assert f_power(6, 5) == TruncatedSeries.zero(5)
        with pytest.raises(ValueError):
            f_power(-1, 5)


class TestRecurrence:
    def test_examples(self):
        assert a_nk_recurrence(4, 2) == 4
        assert a_nk_recurrence(4, 3) == 1
        assert a_nk_recurrence(6, 3) == 30

    def test_range_checks(self):
        with pytest.raises(ValueError):
            a_nk_recurrence(4, 1)
        with pytest.raises(ValueError):
            a_nk_recurrence(4, 4)
        with pytest.raises(ValueError):
            a_nk_recurrence(2, 2)

    def test_against_enumeration(self, tables8):
        for n in range(3, 9):
            for k in range(2, n):
                assert a_nk_recurrence(n, k) == tables8[n].count(1, k)


class TestT1k:
    def test_examples(self, tables8):
        assert t1k_series(1, 4).coeff(2) == 1
        assert t1k_series(2, 4).coeff(4) == 4
        assert t1k_series(3, 4).coeff(4) == 1
        # the k = 0 convention of t_ak_bruteforce: the one permutation 1
        assert t1k_series(0, 8) == TruncatedSeries.monomial(1, 8) == \
            t_ak_bruteforce(1, 0, 8, tables8)
        with pytest.raises(ValueError):
            t1k_series(-1, 4)

    def test_against_enumeration(self, tables8):
        for k in range(1, 8):
            s = t1k_series(k, 8)
            for n in range(1, 9):
                assert s.coeff(n) == tables8[n].count(1, k)


class TestG1:
    def test_examples(self):
        g1 = g1_series(8, 8)
        assert g1.coeff(2, 1) == 1
        assert g1.coeff(4, 2) == 4

    def test_closed_form_equals_power_sum(self):
        # g1 and t1k_series read one table of powers of f, so g1 is checked
        # against x t f / (1 - t f) as (1 - t f) g1 = x t f, column by column
        g1, f = g1_series(8, 8), f_series(8)
        cols = [TruncatedSeries.from_coeffs([g1.coeff(n, k) for n in range(9)])
                for k in range(9)]
        assert cols[0] == TruncatedSeries.zero(8)
        assert cols[1] - f * cols[0] == f.shift(1).truncate(8)
        for k in range(2, 9):
            assert cols[k] - f * cols[k - 1] == TruncatedSeries.zero(8)

    def test_full_table_matches_enumeration(self, tables8):
        g1 = g1_series(8, 8)
        for n in range(1, 9):
            for k in range(1, 9):
                assert g1.coeff(n, k) == tables8[n].count(1, k)


class TestG2AndT2k:
    def test_examples(self, tables8):
        g2 = g2_series(8, 8)
        assert g2.coeff(3, 1) == 1
        assert g2.coeff(4, 1) == 3
        assert g2_series(7, 7).coeff(7, 3) == 60
        for n in range(1, 9):
            for k in range(1, 9):
                assert g2.coeff(n, k) == tables8[n].count(2, k)

    def test_t2k_examples(self):
        assert t2k_series(0, 4) == TruncatedSeries.monomial(2, 4)
        assert t2k_series(1, 4).coeff(3) == 1
        assert t2k_series(3, 8).coeff(7) == 60
        with pytest.raises(ValueError):
            t2k_series(-1, 4)
        # the tuple expansion at k = 1 is T21 = x^2 (x f)' / 2 itself
        for order in range(1, 16):
            xf = f_series(order).shift(1).truncate(order)
            t21 = xf.dx().shift(2).truncate(order).scale(Fraction(1, 2))
            assert t2k_series(1, order) == t21, order

    def test_t2k_against_enumeration(self, tables8):
        for k in range(0, 8):
            s = t2k_series(k, 8)
            brute = t_ak_bruteforce(2, k, 8, tables8)
            assert s == brute

    def test_closed_forms_match_their_direct_formulas(self):
        # x f^k by a shift, and the tuple expansion as the paper states it,
        # f^k T20 + k f^(k-1) (T21 - f T20), computed here without expansion
        order = 14
        f = f_series(order)
        t20 = TruncatedSeries.monomial(2, order)
        t21 = f.shift(1).truncate(order).dx().shift(2).truncate(order).scale(Fraction(1, 2))
        for k in range(order + 1):
            assert t1k_series(k, order) == f_power(k, order).shift(1).truncate(order), k
            direct = t20 if k == 0 else f_power(k, order) * t20 + \
                f_power(k - 1, order) * (t21 - f * t20).scale(k)
            assert t2k_series(k, order) == direct, k

    def test_halving_identity(self, tables8):
        for n in range(3, 9):
            for k in range(1, n):
                lhs = 2 * tables8[n].count(2, k)
                assert lhs == (n - k) * tables8[n - 1].count(1, k)


class TestBruteForceSeries:
    def test_k_zero_convention(self, tables8):
        assert t_ak_bruteforce(1, 0, 5, tables8) == TruncatedSeries.monomial(1, 5)
        assert t_ak_bruteforce(2, 0, 5, tables8) == TruncatedSeries.monomial(2, 5)
        assert t_ak_bruteforce(3, 0, 5, tables8) == \
            TruncatedSeries.monomial(3, 5, 2)
        assert t_ak_bruteforce(4, 0, 5, tables8) == \
            TruncatedSeries.monomial(4, 5, 6)
        # x^a is beyond the order, so no table is read
        assert t_ak_bruteforce(5, 0, 3, {}) == TruncatedSeries.zero(3)

    def test_matches_member_streams(self, tables8):
        s = t_ak_bruteforce(3, 2, 8, tables8)
        for n in range(1, 9):
            assert s.coeff(n) == sum(1 for _ in iter_class_members(n, 3, 2))

    def test_bad_arguments(self, tables8):
        with pytest.raises(ValueError):
            t_ak_bruteforce(0, 1, 8, tables8)


class TestConjectureAndGIdentity:
    def test_a1_collapses(self, tables8):
        for k in range(1, 6):
            r = conjecture_check(1, k, 8, tables8)
            assert r.passed and r.residual == []

    def test_a2_matches_proved_formula(self, tables8):
        for k in range(2, 6):
            assert conjecture_check(2, k, 8, tables8).passed

    def test_a3_small(self, tables8):
        for k in (3, 4, 5):
            r = conjecture_check(3, k, 8, tables8)
            assert r.passed

    def test_scope_errors(self, tables8):
        with pytest.raises(ValueError):
            conjecture_check(3, 2, 8, tables8)
        with pytest.raises(ValueError):
            conjecture_check(0, 1, 8, tables8)

    def test_report_serialization(self, tables8):
        r = conjecture_check(3, 3, 8, tables8)
        d = r.to_json_dict()
        assert d["identity"] == "conjecture-expansion"
        assert d["pass"] is True and d["residual"] == []
        assert "millis" in d

    def test_residual_pinpoints_failures(self, tables8):
        # corrupt one count and the residual must locate it
        import copy
        bad = copy.deepcopy(tables8)
        bad[6].counts[(3, 3)] += 1
        r = conjecture_check(3, 3, 8, bad)
        assert not r.passed
        assert r.residual == [(6, 3, -1)]

    def test_the_three_forms_agree_on_any_input(self):
        # form 2, sum_j C(k, j) f^(k-j) sum_i (-1)^i C(j, i) f^i T_{j-i} over
        # j < a, equals form 3 for every input, and form 1, the alternating
        # sum of (-1)^j C(k, j) f^j T_{k-j}, vanishes once every T_k with
        # k >= a is the prediction; so the check reports form 3 alone. The
        # expansion is the paper's theorems for a = 1 and a = 2
        rng = random.Random(1324)
        order = 12
        for a in range(1, 6):
            T = [TruncatedSeries.from_coeffs([rng.randint(-50, 50) for _ in range(order + 1)])
                 for _ in range(a)]
            for k in range(a):
                assert expansion(a, k, order, T) == T[k]
            T += [expansion(a, k, order, T[:a]) for k in range(a, 9)]
            for k in range(a, 9):
                form2 = TruncatedSeries.zero(order)
                for j in range(a):
                    inner = TruncatedSeries.zero(order)
                    for i in range(j + 1):
                        inner = inner + (f_power(i, order) * T[j - i]).scale(
                            (-1) ** i * comb(j, i))
                    form2 = form2 + (f_power(k - j, order) * inner).scale(comb(k, j))
                assert form2 == T[k], (a, k)
                form1 = TruncatedSeries.zero(order)
                for j in range(k + 1):
                    form1 = form1 + (f_power(j, order) * T[k - j]).scale((-1) ** j * comb(k, j))
                assert form1 == TruncatedSeries.zero(order), (a, k)

    def test_g_identity(self, tables8):
        r = g_identity_check(8, tables8)
        assert r.passed
        assert g_identity_check(4, tables8).passed

    def test_g_identity_catches_a_total_the_partition_misses(self, tables8):
        # the top total and one class count off by one together keep the
        # partition identity; only the OEIS A061552 comparison sees it
        import copy
        from fractions import Fraction
        bad = copy.deepcopy(tables8)
        bad[8].total += 1
        bad[8].counts[(1, 1)] += 1
        r = g_identity_check(8, bad)
        assert not r.passed
        assert r.residual == [(8, 1, Fraction(1))]
        assert r.to_json_dict()["params"] == {"order": 8}
        # a total off by one alone also breaks the partition at n and n + 1
        bad = copy.deepcopy(tables8)
        bad[6].total += 1
        assert g_identity_check(8, bad).residual == [
            (6, 0, Fraction(1)), (7, 0, Fraction(-1)), (6, 1, Fraction(1))]


class TestIntegrality:
    def test_assembled_series_are_integral(self):
        # halves appear along the way, never in the assembled coefficients
        for k in range(0, 10):
            t2k_series(k, 11).integer_coeffs()
        g2_series(9, 9).integer_coeffs()
        g1_series(9, 9).integer_coeffs()

    def test_integer_series_hold_ints(self, tables11):
        # an integral coefficient is stored as an int, so these series take
        # no Fraction arithmetic
        rows = [f_series(14).coeffs, f_power(5, 14).coeffs, t2k_series(3, 11).coeffs,
                t_ak_bruteforce(3, 4, 11, tables11).coeffs]
        rows += g1_series(11, 10).coeffs + g2_series(11, 10).coeffs
        for row in rows:
            assert all(type(c) is int for c in row), row
