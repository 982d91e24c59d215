"""Exact truncated formal power series with integer coefficients.

All arithmetic is on univariate series in x. Every generating function
here has integer coefficients, so a series holds ints only: a coefficient
of any other type (a Fraction, a float, a bool) is refused with TypeError,
and no operation normalises a coefficient. The one division, ``halve``, is
exact and raises ArithmeticError on an odd coefficient. Operations on
operands of different orders truncate to the smaller order rather than
silently padding. The derivative drops the order by one; a shift
(multiplication by a power of x) raises it, exactly.

A bivariate series in (x, t) is only a coefficient grid. It is built from
its t^k columns, each a univariate series, so it carries no arithmetic of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub
from typing import Iterable, Sequence


def _check_ints(coeffs: Iterable[int]) -> None:
    """Raise TypeError unless every coefficient's type is int."""
    if set(map(type, coeffs)) - {int}:
        bad = next(c for c in coeffs if type(c) is not int)
        raise TypeError(f"coefficients must be ints, got {type(bad).__name__} {bad!r}")


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 x + ... + c_N x^N with int coefficients."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}")
        _check_ints(self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        cs = tuple(coeffs)
        return cls(len(cs) - 1, cs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        _check_ints((coeff,))
        cs = [0] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = coeff
        return cls(order, tuple(cs))

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(order, self.coeffs[:order + 1])

    # map stops at the shorter tuple, which truncates to the smaller order
    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(min(self.order, other.order),
                               tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(min(self.order, other.order),
                               tuple(map(sub, self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (order + 1)
        for i in range(order + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(order - i + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return TruncatedSeries(order, tuple(out))

    def scale(self, c: int) -> "TruncatedSeries":
        _check_ints((c,))
        return TruncatedSeries(self.order, tuple([c * x for x in self.coeffs]))

    def halve(self) -> "TruncatedSeries":
        """The series divided by 2, exactly; raises ArithmeticError if a
        coefficient is odd."""
        for n, c in enumerate(self.coeffs):
            if c & 1:
                raise ArithmeticError(f"coefficient of x^{n} is odd: {c}")
        return TruncatedSeries(self.order, tuple(c >> 1 for c in self.coeffs))

    def dx(self) -> "TruncatedSeries":
        """Formal derivative; the output order drops by one."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(self.order - 1,
                               tuple(map(mul, range(1, self.order + 1), self.coeffs[1:])))

    def shift(self, exponent: int) -> "TruncatedSeries":
        """Multiply by x^exponent; the output order rises by exponent."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return TruncatedSeries(self.order + exponent, (0,) * exponent + self.coeffs)

    def integer_coeffs(self) -> tuple[int, ...]:
        """The coefficients, every one an int."""
        return self.coeffs

    def to_text(self) -> str:
        """The text "c0 + c1*x + c2*x^2 + ..."."""
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
    coeffs: tuple[tuple[int, ...], ...]  # [n][k]

    def __post_init__(self):
        if self.xorder < 0 or self.torder < 0:
            raise ValueError("orders must be >= 0")
        if len(self.coeffs) != self.xorder + 1 or any(
                len(row) != self.torder + 1 for row in self.coeffs):
            raise ValueError("coefficient matrix does not match orders")
        for row in self.coeffs:
            _check_ints(row)

    @classmethod
    def from_columns(cls, columns: Sequence[TruncatedSeries], xorder: int) -> "BivariateSeries":
        """The series whose t^k coefficient is columns[k], cut at x^xorder."""
        return cls(xorder, len(columns) - 1, tuple(
            tuple(col.coeff(n) for col in columns) for n in range(xorder + 1)))

    def coeff(self, n: int, k: int) -> int:
        if not (0 <= n <= self.xorder and 0 <= k <= self.torder):
            raise ValueError(f"coefficient ({n},{k}) beyond truncation "
                             f"({self.xorder},{self.torder})")
        return self.coeffs[n][k]

    def integer_coeffs(self) -> tuple[tuple[int, ...], ...]:
        """The coefficient grid, every entry an int."""
        return self.coeffs
