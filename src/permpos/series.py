"""Exact truncated formal power series over arbitrary-precision rationals.

All arithmetic is on univariate series in x. It never rounds: every
constructor and operation stores an integral coefficient as an int and any
other as a fractions.Fraction, so integer series such as the generating
functions stay in int arithmetic. Operations on operands of different
orders truncate to the smaller order rather than silently padding. The
derivative drops the order by one; a shift (multiplication by a power of
x) raises it, exactly.

A bivariate series in (x, t) is only a coefficient grid. It is built from
its t^k columns, each a univariate series, so it carries no arithmetic of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .permutations import DomainError

Scalar = Union[int, Fraction]  # an int when integral, else a Fraction


def _exact(c: Scalar) -> Scalar:
    """c as an int if it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = c if type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 x + ... + c_N x^N with exact rational coefficients."""

    order: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar]) -> "TruncatedSeries":
        cs = tuple(map(_exact, coeffs))
        return cls(len(cs) - 1, cs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: Scalar = 1) -> "TruncatedSeries":
        cs = [0] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = _exact(coeff)
        return cls(order, tuple(cs))

    def coeff(self, n: int) -> Scalar:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(order, self.coeffs[:order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(order, tuple(map(
            _exact, (self.coeffs[i] + other.coeffs[i] for i in range(order + 1)))))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(order, tuple(map(
            _exact, (self.coeffs[i] - other.coeffs[i] for i in range(order + 1)))))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (order + 1)
        for i in range(min(len(a) - 1, order) + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(min(len(b) - 1, order - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return TruncatedSeries(order, tuple(map(_exact, out)))

    def scale(self, c: Scalar) -> "TruncatedSeries":
        c = _exact(c)
        return TruncatedSeries(self.order, tuple(map(_exact, (c * x for x in self.coeffs))))

    def dx(self) -> "TruncatedSeries":
        """Formal derivative; the output order drops by one."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(self.order - 1, tuple(map(
            _exact, (i * self.coeffs[i] for i in range(1, self.order + 1)))))

    def shift(self, exponent: int) -> "TruncatedSeries":
        """Multiply by x^exponent; the output order rises by exponent."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return TruncatedSeries(self.order + exponent,
                               (0,) * exponent + tuple(map(_exact, self.coeffs)))

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
    coeffs: tuple[tuple[Scalar, ...], ...]  # [n][k]

    def __post_init__(self):
        if self.xorder < 0 or self.torder < 0:
            raise ValueError("orders must be >= 0")
        if len(self.coeffs) != self.xorder + 1 or any(
                len(row) != self.torder + 1 for row in self.coeffs):
            raise ValueError("coefficient matrix does not match orders")

    @classmethod
    def from_columns(cls, columns: Sequence[TruncatedSeries], xorder: int) -> "BivariateSeries":
        """The series whose t^k coefficient is columns[k], cut at x^xorder."""
        return cls(xorder, len(columns) - 1, tuple(
            tuple(col.coeff(n) for col in columns) for n in range(xorder + 1)))

    def coeff(self, n: int, k: int) -> Scalar:
        if not (0 <= n <= self.xorder and 0 <= k <= self.torder):
            raise ValueError(f"coefficient ({n},{k}) beyond truncation "
                             f"({self.xorder},{self.torder})")
        return self.coeffs[n][k]

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

