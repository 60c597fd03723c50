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

from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .k3 import _shown

Rational = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Arithmetic attempted between series truncated at different orders."""


class NonUnitError(ZeroDivisionError):
    """Inversion (or a negative power) of a series with zero constant term."""


def _exact(value: Rational) -> Fraction:
    if isinstance(value, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(value)


# A NamedTuple body cannot define __new__ or _make, so a record that checks
# its input subclasses its fields; its _make, and so _replace, calls cls().
class _SeriesFields(NamedTuple):
    order: int
    coeffs: tuple[Fraction, ...]


class TruncatedSeries(_SeriesFields):
    """c0 + c1*h + ... + cN*h^N with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of h^k; the tuple always has exactly
    ``order + 1`` entries.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, order: int, coeffs: Sequence[Rational]
    ) -> "TruncatedSeries":
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {_shown(order)}")
        # exact type tests, inline: isinstance goes through ABCMeta, and a
        # call per coefficient costs a third of building its Fraction
        coeffs = tuple([c if type(c) is Fraction else Fraction(c)
                        if type(c) is int else _exact(c) for c in coeffs])
        if len(coeffs) != order + 1:
            raise ValueError(
                f"order {_shown(order)} needs {_shown(order + 1)} "
                f"coefficients, got {len(coeffs)}"
            )
        return super().__new__(cls, order, coeffs)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,) + (0,) * order)

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
            raise ValueError(f"degree {_shown(k)} outside 0..{self.order}")
        return self.coeffs[k]

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product of two series truncated at their (common) order."""
    if a.order != b.order:
        raise OrderMismatchError(
            f"cannot multiply series of orders {a.order} and {b.order}"
        )
    n, b_coeffs = a.order, b.coeffs
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b_coeffs[j]
    return TruncatedSeries(n, tuple(out))


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit series: mul(a, invert(a)) == 1."""
    coeffs = a.coeffs
    c0 = coeffs[0]
    if c0 == 0:
        raise NonUnitError("series with zero constant term has no inverse")
    n = a.order
    inv0 = 1 / c0
    out = [inv0]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += coeffs[j] * out[k - j]
        out.append(-inv0 * acc)
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

    Coefficient of h^k is the integer binom(e, k) * c**k (generalized, so a
    negative ``e`` gives the full binomial series), carried as a plain int
    and stepped as term(k) = term(k-1) * c*(e-k+1) // k; the ``//`` is exact
    because binom(e, k-1) * (e-k+1) == k * binom(e, k).  A non-integer
    root or exponent is rejected rather than floored.
    """
    if not isinstance(c, int):
        raise TypeError(f"root must be an int, got {type(c).__name__}")
    if not isinstance(e, int):
        raise TypeError(f"exponent must be an int, got {type(e).__name__}")
    coeffs: list[Rational] = [1]
    term, factor = 1, c * e
    for k in range(1, order + 1):
        term = term * factor // k
        factor -= c
        coeffs.append(term)
    return TruncatedSeries(order, tuple(coeffs))
