"""Generating functions for the positional classes and the identity checks
that pin them against the enumeration oracle.

f(x) counts primitives by size shifted down one (coefficient of x^m is the
number of primitives of size m + 1), with the closed form
2(3m)!/((2m+1)!(m+1)!). Every power of f is read from one cached table of
f^0..f^order per order. ``expansion`` builds every class-(a, k) series from
its first a series (form 3): x f(x)^k for a = 1 and the a = 2 series, the
paper's theorems, and the conjectured a >= 3 series from table inputs. The
bivariate x t f / (1 - t f) is assembled from the class-(1, k) series as its
t^k columns. The a = 2 series follows either from the halving identity
|class(2, k) at n| = (n-k)/2 * a_{n-1,k} or from the marked-tuple
expansion; both assemblies are computed column by column and must agree
exactly.

Every series is an integer series. The two places that divide, T21 and
g2, each build twice the series and halve it once, exactly: an odd
coefficient raises ArithmeticError, which a suite reports as its failure.

Every check returns an IdentityReport carrying the full residual series,
never just a boolean, so a counterexample order would be pinpointed. One
rule, ``_nonzero``, builds the residual of every identity that compares
two routes cell by cell, here and in ``verify``: a difference per (n, k)
cell, kept when nonzero, in cell order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from numbers import Rational
from typing import Iterable, Sequence

from .enumeration import ClassCountTable
from .series import BivariateSeries, TruncatedSeries

Tables = dict[int, ClassCountTable]
Scalar = Rational  # a residual cell: an int, or a Fraction where it is a half


@dataclass
class IdentityReport:
    """Outcome of one identity check: pass iff the residual is identically
    zero. Residual entries are (n, k, coefficient); k is 0 for univariate
    residuals. Only nonzero coefficients are listed. A suite that raised
    is reported as one failing report with no residual, named after the
    suite, with the exception in params."""

    identity: str
    params: dict
    passed: bool
    residual: list[tuple[int, int, Scalar]] = field(default_factory=list)
    millis: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "pass": self.passed,
            "residual": [[n, k, str(c)] for n, k, c in self.residual],
            "millis": round(self.millis, 3),
        }


def _report(identity: str, params: dict,
            residual: list[tuple[int, int, Scalar]], start: float) -> IdentityReport:
    return IdentityReport(identity=identity, params=params,
                          passed=not residual, residual=residual,
                          millis=(time.monotonic() - start) * 1000.0)


def _nonzero(cells: Iterable[tuple[int, int, Scalar]]) -> list[tuple[int, int, Scalar]]:
    """The residual rule: the (n, k, d) cells whose difference d is nonzero,
    in the order given."""
    return [cell for cell in cells if cell[2]]


def primitive_count_closed_form(n: int) -> int:
    """2(3n-3)!/((2n-1)!n!) -- the number of primitives of size n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    num = 2 * factorial(3 * n - 3)
    den = factorial(2 * n - 1) * factorial(n)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"closed form not integral at n={n}")
    return q


@lru_cache(maxsize=None)
def f_series(order: int) -> TruncatedSeries:
    """Primitive-count series: coefficient of x^m is the number of
    primitives of size m + 1 (1, 2, 6, 22, 91, 408, ...)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries.from_coeffs(
        [0] + [primitive_count_closed_form(m + 1) for m in range(1, order + 1)])


@lru_cache(maxsize=None)
def _a_nk(n: int, k: int) -> int:
    if k == 1:
        return primitive_count_closed_form(n)
    return sum(_a_nk(m, 1) * _a_nk(n - m + 1, k - 1) for m in range(2, n - k + 2))


def a_nk_recurrence(n: int, k: int) -> int:
    """Class-(1, k) count at size n via the convolution recurrence
    a_{n,k} = sum_m a_{m,1} a_{n-m+1,k-1}, grounded in the closed form."""
    if n < 3 or not 2 <= k <= n - 1:
        raise ValueError(f"recurrence needs n >= 3 and 2 <= k <= n-1, got ({n},{k})")
    return _a_nk(n, k)


@lru_cache(maxsize=None)
def _f_powers(order: int) -> tuple[TruncatedSeries, ...]:
    f = f_series(order)
    powers = [TruncatedSeries.one(order)]
    for _ in range(order):
        powers.append(powers[-1] * f)
    return tuple(powers)


def f_power(j: int, order: int) -> TruncatedSeries:
    """f^j cut at x^order, read from the table f^0..f^order of that order;
    f has no constant term, so f^j is zero there for j > order."""
    if j < 0:
        raise ValueError("the power of f must be >= 0")
    powers = _f_powers(order)
    return powers[j] if j <= order else TruncatedSeries.zero(order)


def expansion(a: int, k: int, order: int, T: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Class-(a, k) size series from the inputs T[j] = T_{a,j}, j < a: T[k]
    for k < a, else form 3, the sum over j < a of
    (-1)^(a-j-1) C(k, j) C(k-j-1, a-j-1) f^(k-j) T[j].

    The coefficient is the Lagrange basis polynomial of the node j among
    0..a-1, evaluated at k: the product over i != j of (k - i)/(j - i) is
    k!/(k-j)! * (k-j-1)!/(k-a)! over j! * (-1)^(a-j-1) (a-j-1)!. So form 3
    says that T_{a,k} f^(-k), as a function of k, is the polynomial of
    degree < a through the values T_{a,j} f^(-j) at j < a: T_{a,k} is
    fixed by its first a series. For a = 1, with T = (x,), that is
    x f^k, and for a = 2, with T = (T20, T21), the marked-tuple expansion:
    the paper's two theorems. For a >= 3 it is the paper's conjecture."""
    if a < 1 or k < 0 or len(T) != a:
        raise ValueError(f"need a >= 1, k >= 0 and a inputs, got a={a}, k={k}, {len(T)}")
    if k < a:
        return T[k]
    out = TruncatedSeries.zero(order)
    for j in range(a):
        c = (-1) ** (a - j - 1) * comb(k, j) * comb(k - j - 1, a - j - 1)
        out = out + (T[j] * f_power(k - j, order)).scale(c)
    return out


def t1k_series(k: int, order: int) -> TruncatedSeries:
    """Class-(1, k) size series: x f(x)^k, so x for the k = 0 convention
    (the one permutation 1)."""
    return expansion(1, k, order, (TruncatedSeries.monomial(1, order),))


def _g1_columns(order: int, torder: int) -> list[TruncatedSeries]:
    """The t^k columns of g1 = x t f / (1 - t f) = sum_{k>=1} x f^k t^k."""
    return [t1k_series(k, order) if k else TruncatedSeries.zero(order)
            for k in range(torder + 1)]


def g1_series(order: int, torder: int) -> BivariateSeries:
    """Bivariate class-(1, k) series, closed form x t f / (1 - t f)."""
    return BivariateSeries.from_columns(_g1_columns(order, torder), order)


def g2_series(order: int, torder: int) -> BivariateSeries:
    """Bivariate a = 2 series, computed two independent ways --
    (x^2 dg1/dx - g1^2)/2 and (x^2 dg1/dx + x g1 - t x dg1/dt)/2 --
    which must agree exactly. Both are built one power of t at a time:
    the t^k column of g1^2 is sum_{i+j=k} g1_i g1_j, and that of
    t x dg1/dt is k x g1_k. The routes are compared doubled, and the
    agreed columns halved once."""
    g1 = _g1_columns(order, torder)
    route1, route2 = [], []  # each column doubled
    for k, col in enumerate(g1):
        x2dx = col.dx().shift(2).truncate(order)
        square = sum((g1[i] * g1[k - i] for i in range(k + 1)),
                     TruncatedSeries.zero(order))
        route1.append(x2dx - square)
        route2.append(x2dx + col.shift(1).truncate(order).scale(1 - k))
    if route1 != route2:
        raise ArithmeticError("the two g2 assemblies disagree")
    return BivariateSeries.from_columns([col.halve() for col in route1], order)


def t2k_series(k: int, order: int) -> TruncatedSeries:
    """a = 2 size series by distance k: the expansion of T20 = x^2 and
    T21 = x^2 (x f)' / 2, which is f^k T20 + k f^{k-1} (T21 - f T20) for
    k >= 1."""
    xf = f_series(order).shift(1).truncate(order)
    t21 = xf.dx().shift(2).truncate(order).halve()
    return expansion(2, k, order, (TruncatedSeries.monomial(2, order), t21))


def t_ak_bruteforce(a: int, k: int, order: int, tables: Tables) -> TruncatedSeries:
    """Class-(a, k) size series straight from the enumeration tables; the
    k = 0 convention counts the size-a permutations that start with a,
    i.e. |S_{a-1}(1324)| x^a."""
    if a < 1 or k < 0:
        raise ValueError("need a >= 1 and k >= 0")
    if k == 0:
        # x^a lies beyond the order when a > order, so no table is read
        coeff = tables[a - 1].total if 1 < a <= order else 1
        return TruncatedSeries.monomial(a, order, coeff)
    return TruncatedSeries.from_coeffs(
        [tables[n].count(a, k) if n >= 1 else 0 for n in range(order + 1)])


def conjecture_check(a: int, k: int, order: int, tables: Tables) -> IdentityReport:
    """Compare the conjectured class-(a, k) series, in its explicit form 3
    with every T_{a,j} input (j < a) taken from brute force, with the
    brute-force T_{a,k}.

    Residual entries are (n, 3, c), c the x^n coefficient of the prediction
    minus the table; the 3 names the form. The alternating binomial sum
    (form 1) and the expansion by differences (form 2) follow from form 3
    for every input, so they would check nothing more. Pass means the
    residual is identically zero.
    """
    if k < a:
        raise ValueError(f"conjecture scope is k >= a, got a={a}, k={k}")
    start = time.monotonic()
    T = [t_ak_bruteforce(a, j, order, tables) for j in range(a)]
    diff = expansion(a, k, order, T) - t_ak_bruteforce(a, k, order, tables)
    residual = _nonzero((n, 3, c) for n, c in enumerate(diff.coeffs))
    return _report("conjecture-expansion", {"a": a, "k": k, "order": order},
                   residual, start)


# |S_n(1324)| for n = 1..15 (OEIS A061552; to n = 20 in the table of
# Marinov & Radoicic, "Counting 1324-avoiding permutations", EJC 2003), a
# route the tables did not take
_A061552 = (1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112,
            25431452, 173453058, 1209639642, 8604450011)


def g_identity_check(order: int, tables: Tables) -> IdentityReport:
    """Coefficientwise total-count identity: for 2 <= n <= order,
    |S_n(1324)| = |S_{n-1}(1324)| + sum of all class counts at n (the
    permutations starting with n are counted by the size-(n-1) total).
    Any count of the tree meets it by construction, so each total up to
    n = 15 is also compared with A061552, as residual (n, 1, difference)."""
    start = time.monotonic()
    residual = _nonzero(
        [(n, 0, tables[n].total - tables[n - 1].total - tables[n].classified_total())
         for n in range(2, order + 1)]
        + [(n, 1, tables[n].total - known)
           for n, known in enumerate(_A061552[:order], start=1)])
    return _report("total-count-partition", {"order": order}, residual, start)
