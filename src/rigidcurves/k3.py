"""Rank-2 Picard lattices of polarized K3 surfaces.

The lattice is spanned by the polarization H (with H.H = 2m) and a curve
class C (with C.C = 2g - 2, H.C = d).  On top of the intersection form sit
the two decision procedures the certifier needs: Knutsen's existence
criterion for a curve of degree d and genus g on a complete intersection K3,
and the non-speciality tests for the restricted polarization O_C(1).

All inequalities are evaluated over the integers (g < d^2/4m becomes
4mg < d^2); nothing here touches floating point.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class UnsupportedPolarizationError(ValueError):
    """Half-degree m outside the complete-intersection range {2, 3, 4}."""


class LatticeCorruptionError(ArithmeticError):
    """Odd self-intersection on a K3 lattice; indicates an invariant bug."""


class DegreeRangeError(ValueError):
    """Degree/genus pair outside the supported region d >= 2g - 3."""


class DivisorClass(NamedTuple):
    """alpha*H + beta*C in the rank-2 lattice."""

    alpha: int
    beta: int

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.alpha - other.alpha, self.beta - other.beta)

    def __rmul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(scalar * self.alpha, scalar * self.beta)

    __mul__ = __rmul__


HYPERPLANE = DivisorClass(1, 0)
CURVE = DivisorClass(0, 1)


class _LatticeFields(NamedTuple):
    m: int
    d: int
    g: int


class PicardLattice(_LatticeFields):
    """Gram matrix [[2m, d], [d, 2g-2]] on Z*H + Z*C."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, m: int, d: int, g: int) -> "PicardLattice":
        if m < 2:
            raise ValueError(f"polarization needs H.H = 2m >= 4, got m={m}")
        if d < 1:
            raise ValueError(f"degree d = H.C must be positive, got {d}")
        if g < 0:
            raise ValueError(f"genus must be nonnegative, got {g}")
        return super().__new__(cls, m, d, g)

    @property
    def gram(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((2 * self.m, self.d), (self.d, 2 * self.g - 2))


def pair(lattice: PicardLattice, d1: DivisorClass, d2: DivisorClass) -> int:
    """Symmetric bilinear intersection form via the Gram matrix."""
    (hh, hc), (ch, cc) = lattice.gram
    return (hh * d1.alpha * d2.alpha + hc * d1.alpha * d2.beta
            + ch * d1.beta * d2.alpha + cc * d1.beta * d2.beta)


def euler_char(lattice: PicardLattice, divisor: DivisorClass) -> int:
    """Riemann-Roch on a K3: chi(O(D)) = D.D/2 + 2."""
    square = pair(lattice, divisor, divisor)
    if square % 2 != 0:
        raise LatticeCorruptionError(
            f"odd self-intersection {square} on a K3 lattice"
        )
    return square // 2 + 2


# (d, g) pairs realizable despite failing the open degree bound.
_EXCEPTIONAL_PAIRS = {3: (3, 1), 4: (4, 1)}


class KnutsenVerdict(NamedTuple):
    """Outcome of the existence test, with the clause that decided it."""

    exists: bool
    clause: str
    extrapolated: bool

    def to_dict(self) -> dict:
        return {
            "exists": self.exists,
            "clause": self.clause,
            "extrapolated": self.extrapolated,
        }


def knutsen_exists(m: int, d: int, g: int) -> KnutsenVerdict:
    """Does some complete intersection K3 of degree 2m with rank-2 Picard
    group carry a smooth curve of degree d and genus g?

    Exists iff g < d^2/(4m) and (d, g) != (2m+1, m+1), or (d, g) is the
    exceptional pair for m.  The criterion is stated for d >= 2g - 2; below
    that the same test is applied but flagged ``extrapolated``.
    """
    if m not in (2, 3, 4):
        raise UnsupportedPolarizationError(
            f"half-degree m must be 2, 3 or 4, got {m}"
        )
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    extrapolated = d < 2 * g - 2
    if _EXCEPTIONAL_PAIRS.get(m) == (d, g):
        return KnutsenVerdict(True, "exceptional-pair", extrapolated)
    if not 4 * m * g < d * d:
        return KnutsenVerdict(False, "genus-degree-bound-failed", extrapolated)
    if (d, g) == (2 * m + 1, m + 1):
        return KnutsenVerdict(False, "forbidden-pair", extrapolated)
    return KnutsenVerdict(True, "genus-degree-bound", extrapolated)


class NonspecialStatus(Enum):
    NONSPECIAL = "applies-and-nonspecial"
    INCONCLUSIVE = "applies-and-inconclusive"
    NOT_APPLICABLE = "hypotheses-not-met"


# Hypotheses of the lattice criterion that hold by construction for the
# embeddings in the node table and are not re-verified computationally.
_CITED_LATTICE_HYPOTHESES = ("very-ample-polarization", "picard-rank-two")


class NonspecialVerdict(NamedTuple):
    status: NonspecialStatus
    reason: str
    assumed: tuple[str, ...] = _CITED_LATTICE_HYPOTHESES

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "reason": self.reason,
            "assumed_by_citation": list(self.assumed),
        }


def lattice_nonspecial(m: int, d: int, g: int) -> NonspecialVerdict:
    """Non-speciality of O_C(1) in the low-degree range, by lattice arithmetic.

    Applicable when g > m + 2; conclusive when d > max(2g-4, m+g).  Inputs
    outside the applicability range get a distinct not-applicable verdict,
    never an error.
    """
    if m < 2 or g <= m + 2:
        return NonspecialVerdict(
            NonspecialStatus.NOT_APPLICABLE,
            f"requires m >= 2 and g > m + 2, got m={m}, g={g}",
        )
    floor = max(2 * g - 4, m + g)
    if d > floor:
        return NonspecialVerdict(
            NonspecialStatus.NONSPECIAL,
            f"d={d} > max(2g-4, m+g) = {floor}",
        )
    return NonspecialVerdict(
        NonspecialStatus.INCONCLUSIVE,
        f"d={d} <= max(2g-4, m+g) = {floor}",
    )


class NonspecialityRoute(Enum):
    RIEMANN_ROCH = "riemann-roch"
    LATTICE_BOUND = "lattice-bound"
    FAIL = "fail"


class RouteResult(NamedTuple):
    route: NonspecialityRoute
    lattice: NonspecialVerdict | None

    def to_dict(self) -> dict:
        return {
            "route": self.route.value,
            "riemann_roch_applies":
                self.route is NonspecialityRoute.RIEMANN_ROCH,
            "lattice": self.lattice.to_dict() if self.lattice else None,
        }


def nonspeciality_route(m: int, d: int, g: int) -> RouteResult:
    """Pick the argument forcing H^1(C, O_C(1)) = 0, or report failure.

    d >= 2g - 1 settles it by Riemann-Roch; otherwise the lattice criterion
    must apply and be conclusive.  Requires d >= 2g - 3.
    """
    if d < 2 * g - 3:
        raise DegreeRangeError(
            f"degree {d} below the supported floor 2g-3 = {2 * g - 3}"
        )
    if d >= 2 * g - 1:
        return RouteResult(NonspecialityRoute.RIEMANN_ROCH, None)
    verdict = lattice_nonspecial(m, d, g)
    if verdict.status is NonspecialStatus.NONSPECIAL:
        return RouteResult(NonspecialityRoute.LATTICE_BOUND, verdict)
    return RouteResult(NonspecialityRoute.FAIL, verdict)
