"""Exact arithmetic in the truncated ring Q[h]/(h^(N+1)).

This is the value type for every intersection-theoretic computation in the
package: ``h`` is the hyperplane class of a projective space of dimension N,
and every product is truncated at degree N because higher classes vanish.
Coefficients are exact rationals throughout; floats are rejected outright,
since a single rounded coefficient would corrupt every Chern number computed
downstream.

The truncation order is part of the value.  Combining series of different
orders is a hard error rather than a silent re-truncation: a mismatched
order means a wrong ambient dimension, which must not pass unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Arithmetic attempted between series truncated at different orders."""


class NonUnitError(ZeroDivisionError):
    """Inversion (or a negative power) of a series with zero constant term."""


def _exact(value: Rational) -> Fraction:
    # an exact type test: isinstance(value, Fraction) goes through ABCMeta
    # and costs an int coefficient as much as building its Fraction
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(value)


@dataclass(frozen=True)
class TruncatedSeries:
    """c0 + c1*h + ... + cN*h^N with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of h^k; the tuple always has exactly
    ``order + 1`` entries.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        coeffs = tuple(_exact(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "TruncatedSeries":
        return cls(order, (value,) + (0,) * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def from_polynomial(
        cls, coefficients: Sequence[Rational], order: int
    ) -> "TruncatedSeries":
        """Truncate polynomial coefficients (degree-ascending) to ``order``."""
        padded = list(coefficients[: order + 1])
        padded += [0] * (order + 1 - len(padded))
        return cls(order, tuple(padded))

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise ValueError(f"degree {k} outside 0..{self.order}")
        return self.coeffs[k]

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return mul(self, other)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return int_pow(self, exponent)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if k > 0 and c == 0:
                continue
            mono = "1" if k == 0 else ("h" if k == 1 else f"h^{k}")
            if k == 0:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(f"- {mono}" if c < 0 else f"+ {mono}")
            else:
                parts.append(f"- {-c}*{mono}" if c < 0 else f"+ {c}*{mono}")
        return " ".join(parts)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product of two series truncated at their (common) order."""
    if a.order != b.order:
        raise OrderMismatchError(
            f"cannot multiply series of orders {a.order} and {b.order}"
        )
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b.coeffs[j]
    return TruncatedSeries(n, tuple(out))


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit series: mul(a, invert(a)) == 1."""
    c0 = a.coeffs[0]
    if c0 == 0:
        raise NonUnitError("series with zero constant term has no inverse")
    n = a.order
    inv0 = 1 / c0
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += a.coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return TruncatedSeries(n, tuple(out))


def int_pow(a: TruncatedSeries, exponent: int) -> TruncatedSeries:
    """Integer power of a series; negative exponents require a unit."""
    if exponent < 0:
        return int_pow(invert(a), -exponent)
    result = TruncatedSeries.one(a.order)
    base = a
    e = exponent
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def binomial_series(c: int, e: int, order: int) -> TruncatedSeries:
    """The truncation of (1 + c*h)**e for any integer exponent ``e``.

    Coefficient of h^k is binom(e, k) * c**k with the generalized binomial
    coefficient, so negative exponents expand into the full binomial series.
    binom(e, k) is an integer for every integer ``e``, so it is carried as a
    plain int; a non-integer exponent is rejected rather than floored.
    """
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, got {type(e).__name__}")
    coeffs: list[Rational] = [1]
    binom = 1
    c_power = 1
    for k in range(1, order + 1):
        binom = binom * (e - k + 1) // k
        c_power *= c
        coeffs.append(binom * c_power)
    return TruncatedSeries(order, tuple(coeffs))
