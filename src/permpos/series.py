"""Exact truncated formal power series over arbitrary-precision rationals.

Univariate series live in x, bivariate ones in (x, t). Arithmetic never
rounds: coefficients are fractions.Fraction throughout, and operations on
operands of different orders truncate to the smaller order rather than
silently padding. Derivatives drop the order by one in the differentiated
variable; shifts (multiplication by a monomial) raise it, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .permutations import DomainError

Scalar = Union[int, Fraction]


def _frac(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 x + ... + c_N x^N with exact rational coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar], order: int | None = None) -> "TruncatedSeries":
        cs = [_frac(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs[:order + 1]))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, (Fraction(0),) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: Scalar = 1) -> "TruncatedSeries":
        cs = [Fraction(0)] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = _frac(coeff)
        return cls(order, tuple(cs))

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(order, self.coeffs[:order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(order, tuple(
            self.coeffs[i] + other.coeffs[i] for i in range(order + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(order, tuple(
            self.coeffs[i] - other.coeffs[i] for i in range(order + 1)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (order + 1)
        for i in range(min(len(a) - 1, order) + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(min(len(b) - 1, order - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return TruncatedSeries(order, tuple(out))

    def scale(self, c: Scalar) -> "TruncatedSeries":
        c = _frac(c)
        return TruncatedSeries(self.order, tuple(c * x for x in self.coeffs))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        result = TruncatedSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def dx(self) -> "TruncatedSeries":
        """Formal derivative; the output order drops by one."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(self.order - 1, tuple(
            i * self.coeffs[i] for i in range(1, self.order + 1)))

    def shift(self, exponent: int) -> "TruncatedSeries":
        """Multiply by x^exponent; the output order rises by exponent."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return TruncatedSeries(self.order + exponent,
                               (Fraction(0),) * exponent + self.coeffs)

    def geometric_inverse(self) -> "TruncatedSeries":
        """1/(1 - u) = sum u^j for a series u with zero constant term."""
        if self.coeffs[0] != 0:
            raise DomainError("geometric_inverse needs a zero constant term")
        result = TruncatedSeries.one(self.order)
        for _ in range(self.order):
            result = TruncatedSeries.one(self.order) + self * result
        return result

    def integer_coeffs(self) -> tuple[int, ...]:
        """Coefficients as ints; raises if any is not an integer."""
        out = []
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise DomainError(f"coefficient of x^{i} is not an integer: {c}")
            out.append(c.numerator)
        return tuple(out)

    def to_text(self) -> str:
        """"c0 + c1*x + c2*x^2 + ..." with exact rationals "p/q"."""
        parts = [str(self.coeffs[0])]
        for i in range(1, self.order + 1):
            var = "x" if i == 1 else f"x^{i}"
            parts.append(f"{self.coeffs[i]}*{var}")
        return " + ".join(parts)


@dataclass(frozen=True)
class BivariateSeries:
    """sum c_{n,k} x^n t^k, truncated at xorder in x and torder in t."""

    xorder: int
    torder: int
    coeffs: tuple[tuple[Fraction, ...], ...]  # [n][k]

    def __post_init__(self):
        if self.xorder < 0 or self.torder < 0:
            raise ValueError("orders must be >= 0")
        if len(self.coeffs) != self.xorder + 1 or any(
                len(row) != self.torder + 1 for row in self.coeffs):
            raise ValueError("coefficient matrix does not match orders")

    @classmethod
    def zero(cls, xorder: int, torder: int) -> "BivariateSeries":
        row = (Fraction(0),) * (torder + 1)
        return cls(xorder, torder, (row,) * (xorder + 1))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], xorder: int, torder: int) -> "BivariateSeries":
        out = []
        for n in range(xorder + 1):
            row = rows[n] if n < len(rows) else ()
            out.append(tuple(_frac(row[k]) if k < len(row) else Fraction(0)
                             for k in range(torder + 1)))
        return cls(xorder, torder, tuple(out))

    @classmethod
    def from_univariate(cls, s: TruncatedSeries, torder: int) -> "BivariateSeries":
        return cls.from_rows([[c] for c in s.coeffs], s.order, torder)

    def coeff(self, n: int, k: int) -> Fraction:
        if not (0 <= n <= self.xorder and 0 <= k <= self.torder):
            raise ValueError(f"coefficient ({n},{k}) beyond truncation "
                             f"({self.xorder},{self.torder})")
        return self.coeffs[n][k]

    def truncate(self, xorder: int, torder: int) -> "BivariateSeries":
        if xorder > self.xorder or torder > self.torder:
            raise ValueError("cannot extend truncation orders")
        return BivariateSeries(xorder, torder, tuple(
            row[:torder + 1] for row in self.coeffs[:xorder + 1]))

    def _common(self, other: "BivariateSeries") -> tuple[int, int]:
        return min(self.xorder, other.xorder), min(self.torder, other.torder)

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        N, K = self._common(other)
        return BivariateSeries(N, K, tuple(
            tuple(self.coeffs[n][k] + other.coeffs[n][k] for k in range(K + 1))
            for n in range(N + 1)))

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        N, K = self._common(other)
        return BivariateSeries(N, K, tuple(
            tuple(self.coeffs[n][k] - other.coeffs[n][k] for k in range(K + 1))
            for n in range(N + 1)))

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        N, K = self._common(other)
        out = [[Fraction(0)] * (K + 1) for _ in range(N + 1)]
        for n1 in range(min(self.xorder, N) + 1):
            row1 = self.coeffs[n1]
            for k1 in range(min(self.torder, K) + 1):
                c1 = row1[k1]
                if c1 == 0:
                    continue
                for n2 in range(min(other.xorder, N - n1) + 1):
                    row2 = other.coeffs[n2]
                    for k2 in range(min(other.torder, K - k1) + 1):
                        if row2[k2]:
                            out[n1 + n2][k1 + k2] += c1 * row2[k2]
        return BivariateSeries(N, K, tuple(tuple(row) for row in out))

    def scale(self, c: Scalar) -> "BivariateSeries":
        c = _frac(c)
        return BivariateSeries(self.xorder, self.torder, tuple(
            tuple(c * v for v in row) for row in self.coeffs))

    def dx(self) -> "BivariateSeries":
        if self.xorder == 0:
            return BivariateSeries.zero(0, self.torder)
        return BivariateSeries(self.xorder - 1, self.torder, tuple(
            tuple(n * c for c in self.coeffs[n]) for n in range(1, self.xorder + 1)))

    def dt(self) -> "BivariateSeries":
        if self.torder == 0:
            return BivariateSeries.zero(self.xorder, 0)
        return BivariateSeries(self.xorder, self.torder - 1, tuple(
            tuple(k * row[k] for k in range(1, self.torder + 1)) for row in self.coeffs))

    def shift_x(self, exponent: int) -> "BivariateSeries":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        zero_row = (Fraction(0),) * (self.torder + 1)
        return BivariateSeries(self.xorder + exponent, self.torder,
                               (zero_row,) * exponent + self.coeffs)

    def shift_t(self, exponent: int) -> "BivariateSeries":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        pad = (Fraction(0),) * exponent
        return BivariateSeries(self.xorder, self.torder + exponent, tuple(
            pad + row for row in self.coeffs))

    def geometric_inverse(self) -> "BivariateSeries":
        """1/(1 - u); u must have zero (0,0) coefficient. Every monomial of
        u has total degree >= 1, so xorder + torder powers suffice."""
        if self.coeffs[0][0] != 0:
            raise DomainError("geometric_inverse needs a zero constant term")
        one = BivariateSeries.from_rows([[1]], self.xorder, self.torder)
        result = one
        for _ in range(self.xorder + self.torder):
            result = one + self * result
        return result

    def eval_t_one(self) -> TruncatedSeries:
        """Substitute t = 1: c_n = sum_k c_{n,k}."""
        return TruncatedSeries(self.xorder, tuple(
            sum(row, Fraction(0)) for row in self.coeffs))

    def integer_coeffs(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for n, row in enumerate(self.coeffs):
            ints = []
            for k, c in enumerate(row):
                if c.denominator != 1:
                    raise DomainError(
                        f"coefficient of x^{n} t^{k} is not an integer: {c}")
                ints.append(c.numerator)
            out.append(tuple(ints))
        return tuple(out)

    def to_csv(self) -> str:
        """Coefficient table as CSV: rows are x-exponents, columns t-exponents."""
        header = "n\\k," + ",".join(str(k) for k in range(self.torder + 1))
        lines = [header]
        for n, row in enumerate(self.coeffs):
            lines.append(f"{n}," + ",".join(str(c) for c in row))
        return "\n".join(lines) + "\n"
