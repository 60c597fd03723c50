"""Chern-class evaluation for formal bundles on projective space.

By the splitting principle every bundle here is a multiset of Chern roots
``{c: e}`` with total class ``prod (1 + c*h)^e``:

* ``O(k)`` is the root ``k`` once,
* ``Omega^1`` on P^l is the root ``-1`` with exponent ``l+1`` (Euler sequence),
* ``O_D`` for a hyperplane D is the root ``-1`` with exponent ``-1``
  (twisting sequence),

and a formally subtracted summand negates its exponents.
On top of the evaluator sit the three counting routines: the excess-bundle
integral, its independent binomial counterpart, and the Thom-Porteous node
count used to cross-check the embedding table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

from .series import TruncatedSeries, binomial_series, mul


class HypothesisError(ValueError):
    """Node count and dimension violate the requirement n >= ell + 2."""


class InvalidEmbeddingError(ValueError):
    """Multidegree pair cannot describe a K3 surface inside a threefold."""


@dataclass(frozen=True)
class LineTwist:
    """The line bundle O(k) on the ambient projective space."""

    twist: int


@dataclass(frozen=True)
class ProjectiveCotangent:
    """The cotangent bundle of the ambient projective space."""


@dataclass(frozen=True)
class HyperplaneSheaf:
    """The structure sheaf of a hyperplane, as a sheaf on the ambient space."""


Atom = Union[LineTwist, ProjectiveCotangent, HyperplaneSheaf]
_ATOM_TYPES = (LineTwist, ProjectiveCotangent, HyperplaneSheaf)


@dataclass(frozen=True)
class BundleExpr:
    """Formal signed sum of bundle atoms (sign -1 = virtual subtraction).

    The atom multiset is dimension-free; the ambient dimension is supplied
    only when the total Chern class is evaluated.
    """

    terms: tuple[tuple[int, Atom], ...]

    def __post_init__(self) -> None:
        terms = tuple((sign, atom) for sign, atom in self.terms)
        for sign, atom in terms:
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
            if not isinstance(atom, _ATOM_TYPES):
                raise TypeError(f"not a bundle atom: {atom!r}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def sum_of_line_twists(cls, twists: Sequence[int]) -> "BundleExpr":
        return cls(tuple((1, LineTwist(k)) for k in twists))

    def __add__(self, other: "BundleExpr") -> "BundleExpr":
        return BundleExpr(self.terms + other.terms)

    def __sub__(self, other: "BundleExpr") -> "BundleExpr":
        flipped = tuple((-sign, atom) for sign, atom in other.terms)
        return BundleExpr(self.terms + flipped)


def total_chern(expr: BundleExpr, ell: int) -> TruncatedSeries:
    """Total Chern class of ``expr`` on P^ell, truncated at order ell.

    Each atom is a Chern root with a signed exponent; the exponents of equal
    roots are summed and each remaining root contributes one binomial series
    ``(1 + c*h)^e``.  Whitney multiplicativity makes the grouping exact.
    """
    if ell < 0:
        raise ValueError(f"ambient dimension must be nonnegative, got {ell}")
    roots: Counter[int] = Counter()
    for sign, atom in expr.terms:
        if isinstance(atom, LineTwist):
            roots[atom.twist] += sign
        elif isinstance(atom, ProjectiveCotangent):
            roots[-1] += sign * (ell + 1)
        else:
            roots[-1] -= sign
    factors = [binomial_series(c, e, ell) for c, e in roots.items() if c and e]
    return reduce(mul, factors) if factors else TruncatedSeries.one(ell)


@dataclass(frozen=True)
class ExcessProblem:
    """Input to the excess-bundle integral: n nodes on the surface, an
    ell-dimensional linear system of curves through them."""

    n: int
    ell: int

    def __post_init__(self) -> None:
        if self.ell < 0:
            raise ValueError(f"ell must be nonnegative, got {self.ell}")
        if self.n < self.ell + 2:
            raise HypothesisError(
                f"need n >= ell + 2, got n={self.n}, ell={self.ell}"
            )


def excess_bundle(n: int) -> BundleExpr:
    """The excess normal bundle: cotangent of the linear system extended by
    one hyperplane structure sheaf per node."""
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    terms = ((1, ProjectiveCotangent()),)
    terms += tuple((1, HyperplaneSheaf()) for _ in range(n))
    return BundleExpr(terms)


def _as_integer(value: Fraction, what: str) -> int:
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
    return _as_integer(series.coefficient(problem.ell), "excess count")


def rigid_count(n: int, ell: int) -> int:
    """Rigid-curve count C(n-2, ell), by big-integer combinatorics alone.

    This is the independent counterpart of :func:`excess_count`: no series
    arithmetic is involved, so the two routes cross-check each other.
    """
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    if n < ell + 2:
        raise HypothesisError(f"need n >= ell + 2, got n={n}, ell={ell}")
    return math.comb(n - 2, ell)


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
            f"threefold degrees {b} do not dominate K3 degrees {a}"
        )
    expr = BundleExpr.sum_of_line_twists(b) - BundleExpr.sum_of_line_twists(a)
    c = total_chern(expr, 2)
    c1 = c.coefficient(1)
    c2 = c.coefficient(2)
    surface_degree = math.prod(a)
    return _as_integer((c1 * c1 - c2) * surface_degree, "node count")
