"""Chern-class evaluation for formal bundles on projective space.

By the splitting principle (Fulton, *Intersection Theory* 3.2) a bundle is
a multiset of Chern roots ``{c: e}`` with total class ``prod (1 + c*h)^e``:
``O(k)`` is the root ``k`` once, ``O_D`` for a hyperplane D is the root
``-1`` with exponent ``-1`` (twisting sequence), and a formally subtracted
summand negates its exponents.  ``Omega^1`` on P^l is the root ``-1`` with
exponent ``l+1`` (Euler sequence); as that depends on the dimension, a
bundle keeps its signed multiplicity of ``Omega^1`` beside its roots.
On top of the evaluator sit the three counting routines: the excess-bundle
integral, its independent binomial counterpart, and the Thom-Porteous node
count used to cross-check the embedding table.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

from .k3 import _shown
from .series import Rational, TruncatedSeries, binomial_series, mul

# The largest ell * n.bit_length() a count problem may have, about the bit
# size of its largest series coefficient: the CLI's largest input,
# n = 10000 (14 bits) with ell = 9998, sits exactly on it.
COUNT_WORK_BOUND = 9998 * 14


class HypothesisError(ValueError):
    """Node count and dimension violate the requirement n >= ell + 2."""


class WorkBoundError(ValueError):
    """A count problem whose ell * n.bit_length() exceeds COUNT_WORK_BOUND."""


class InvalidEmbeddingError(ValueError):
    """Multidegree pair cannot describe a K3 surface inside a threefold."""


def _fold(roots: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Normal form of a root multiset: exponents of equal roots summed, the
    root 0 and zero exponents dropped, sorted by root."""
    merged: dict[int, int] = {}
    for c, e in roots:
        merged[c] = merged.get(c, 0) + e
    return tuple(sorted(filter(all, merged.items())))


class _BundleFields(NamedTuple):
    roots: tuple[tuple[int, int], ...]
    cotangents: int


class BundleExpr(_BundleFields):
    """A virtual bundle: ``(c, e)`` root pairs, folded to normal form, and
    the signed multiplicity of ``Omega^1``.  Both are dimension-free, and
    the normal form makes ``==`` compare virtual classes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, roots: Iterable[tuple[int, int]] = (), cotangents: int = 0
    ) -> "BundleExpr":
        return tuple.__new__(cls, (_fold(roots), cotangents))

    @classmethod
    def sum_of_line_twists(cls, twists: Sequence[int]) -> "BundleExpr":
        return cls(tuple((k, 1) for k in twists))

    def __add__(self, other: "BundleExpr") -> "BundleExpr":
        return BundleExpr(
            self.roots + other.roots, self.cotangents + other.cotangents
        )

    def __sub__(self, other: "BundleExpr") -> "BundleExpr":
        negated = tuple((c, -e) for c, e in other.roots)
        return self + BundleExpr(negated, -other.cotangents)


def LineTwist(k: int) -> BundleExpr:
    """The line bundle O(k) on the ambient projective space."""
    return BundleExpr(((k, 1),))


def ProjectiveCotangent() -> BundleExpr:
    """The cotangent bundle of the ambient projective space."""
    return BundleExpr(cotangents=1)


def HyperplaneSheaf() -> BundleExpr:
    """The structure sheaf of a hyperplane, as a sheaf on the ambient space."""
    return BundleExpr(((-1, -1),))


def total_chern(expr: BundleExpr, ell: int) -> TruncatedSeries:
    """Total Chern class of ``expr`` on P^ell, truncated at order ell.

    The cotangents become the root ``-1`` with exponent
    ``cotangents * (ell + 1)``; each distinct root then contributes one
    binomial series ``(1 + c*h)^e``, exact by Whitney multiplicativity.
    """
    if ell < 0:
        raise ValueError(
            f"ambient dimension must be nonnegative, got {_shown(ell)}")
    roots = _fold(expr.roots + ((-1, expr.cotangents * (ell + 1)),))
    factors = [binomial_series(c, e, ell) for c, e in roots]
    return reduce(mul, factors) if factors else TruncatedSeries.one(ell)


class _ExcessFields(NamedTuple):
    n: int
    ell: int


class ExcessProblem(_ExcessFields):
    """Input to the excess-bundle integral: n nodes on the surface, an
    ell-dimensional linear system of curves through them.  Its work is
    bounded: a problem past COUNT_WORK_BOUND is refused before any series
    is built."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, ell: int) -> "ExcessProblem":
        if ell < 0:
            raise ValueError(f"ell must be nonnegative, got {_shown(ell)}")
        if n < ell + 2:
            raise HypothesisError(
                f"need n >= ell + 2, got n={_shown(n)}, ell={_shown(ell)}")
        if ell * n.bit_length() > COUNT_WORK_BOUND:
            raise WorkBoundError(
                f"ell * n.bit_length() must be at most {COUNT_WORK_BOUND}, "
                f"got n={_shown(n)}, ell={_shown(ell)}")
        return tuple.__new__(cls, (n, ell))


def excess_bundle(n: int) -> BundleExpr:
    """The excess normal bundle: cotangent of the linear system extended by
    one hyperplane structure sheaf per node, folded to the single root
    ``-1`` with exponent ``-n``."""
    if n < 0:
        raise ValueError(
            f"node count must be nonnegative, got {_shown(n)}")
    return BundleExpr(((-1, -n),), cotangents=1)


def _as_integer(value: Rational, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {value}")
    return value.numerator


def excess_count(problem: ExcessProblem) -> int:
    """Integral of the top Chern class of the excess bundle over P^ell.

    Evaluated through the series engine: the total class collapses to
    (1-h)^(ell+1-n), and the coefficient of h^ell is the count.  Always
    strictly positive on the valid domain.
    """
    series = total_chern(excess_bundle(problem.n), problem.ell)
    return _as_integer(series.coeffs[problem.ell], "excess count")


def rigid_count(n: int, ell: int) -> int:
    """Rigid-curve count C(n-2, ell), by big-integer combinatorics alone.

    This is the independent counterpart of :func:`excess_count`: no series
    arithmetic is involved, so the two routes cross-check each other.
    """
    ExcessProblem(n, ell)  # the input checks of excess_count
    return math.comb(n - 2, ell)


def _degrees(degrees: tuple[int, ...]) -> str:
    """``str(degrees)``, each entry printed through :func:`_shown`."""
    shown = ", ".join(map(_shown, degrees))
    return f"({shown},)" if len(degrees) == 1 else f"({shown})"


def degeneracy_count(
    cicy_degrees: Sequence[int], k3_degrees: Sequence[int]
) -> int:
    """Expected number of nodes on a threefold of type ``cicy_degrees``
    containing a K3 surface of type ``k3_degrees``.

    The nodes form the rank-drop locus of the coefficient matrix relating
    the two sets of defining equations; Thom-Porteous evaluates its class
    as c1^2 - c2 of the virtual bundle (sum of O(b_i)) - (sum of O(a_j)),
    integrated over the K3 via its degree prod(a_j).
    """
    b = tuple(sorted(cicy_degrees, reverse=True))
    a = tuple(sorted(k3_degrees, reverse=True))
    if len(a) != len(b) + 1:
        raise InvalidEmbeddingError(
            f"K3 type must have one more degree than the threefold type, "
            f"got {len(a)} vs {len(b)}"
        )
    if any(x < 1 for x in a + b):
        raise InvalidEmbeddingError("all degrees must be at least 1")
    if any(bi < ai for bi, ai in zip(b, a)):
        raise InvalidEmbeddingError(
            f"threefold degrees {_degrees(b)} do not dominate K3 degrees "
            f"{_degrees(a)}"
        )
    expr = BundleExpr.sum_of_line_twists(b) - BundleExpr.sum_of_line_twists(a)
    _, c1, c2 = total_chern(expr, 2).coeffs
    surface_degree = math.prod(a)
    return _as_integer((c1 * c1 - c2) * surface_degree, "node count")
