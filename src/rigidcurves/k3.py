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


# A reporting record's JSON shape has one definition, its ``members()``:
# ``(key, value)`` pairs in key order, each value a scalar (``str``, ``int``,
# ``bool``, None), a record, or a tuple of these, written as a list.
def _document(value: object) -> object:
    if type(value) is tuple:
        return [_document(item) for item in value]
    if isinstance(value, tuple):  # a record: every one is a NamedTuple
        return {key: _document(item) for key, item in value.members()}
    return value


class _Object(NamedTuple):  # a JSON object that is no library record
    pairs: tuple

    def members(self) -> tuple:
        return self.pairs


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
            raise ValueError(
                f"polarization needs H.H = 2m >= 4, got m={_shown(m)}")
        if d < 1:
            raise ValueError(
                f"degree d = H.C must be positive, got {_shown(d)}")
        if g < 0:
            raise ValueError(f"genus must be nonnegative, got {_shown(g)}")
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

    def members(self) -> tuple:
        return (("exists", self.exists), ("clause", self.clause),
                ("extrapolated", self.extrapolated))

    to_dict = _document


# knutsen_exists returns one of these eight verdicts, built once and shared;
# each pair is indexed by ``extrapolated``
_EXCEPTIONAL, _BOUND_FAILED, _FORBIDDEN, _BOUND_HOLDS = (
    tuple(KnutsenVerdict(exists, clause, flag) for flag in (False, True))
    for exists, clause in ((True, "exceptional-pair"),
                           (False, "genus-degree-bound-failed"),
                           (False, "forbidden-pair"),
                           (True, "genus-degree-bound")))


def knutsen_exists(m: int, d: int, g: int) -> KnutsenVerdict:
    """Does some complete intersection K3 of degree 2m with rank-2 Picard
    group carry a smooth curve of degree d and genus g?

    Exists iff g < d^2/(4m) and (d, g) != (2m+1, m+1), or (d, g) is the
    exceptional pair for m.  The criterion is stated for d >= 2g - 2; below
    that the same test is applied but flagged ``extrapolated``.
    """
    if m not in (2, 3, 4):
        raise UnsupportedPolarizationError(
            f"half-degree m must be 2, 3 or 4, got {_shown(m)}"
        )
    if d < 1:
        raise ValueError(f"degree must be positive, got {_shown(d)}")
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {_shown(g)}")
    extrapolated = d < 2 * g - 2
    if _EXCEPTIONAL_PAIRS.get(m) == (d, g):
        return _EXCEPTIONAL[extrapolated]
    if not 4 * m * g < d * d:
        return _BOUND_FAILED[extrapolated]
    if d == 2 * m + 1 and g == m + 1:
        return _FORBIDDEN[extrapolated]
    return _BOUND_HOLDS[extrapolated]


def _shown(n: int) -> str:  # so that a reason or message never raises
    """``str(n)``, or past the int-to-str limit its sign and bit length."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


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
    assumed = _CITED_LATTICE_HYPOTHESES  # a class constant, not a field

    def members(self) -> tuple:
        return (("status", self.status.value), ("reason", self.reason),
                ("assumed_by_citation", self.assumed))

    to_dict = _document


def lattice_nonspecial(m: int, d: int, g: int) -> NonspecialVerdict:
    """Non-speciality of O_C(1) in the low-degree range, by lattice arithmetic.

    Applicable when g > m + 2; conclusive when d > max(2g-4, m+g).  Inputs
    outside the applicability range get a distinct not-applicable verdict,
    never an error.
    """
    if m < 2 or g <= m + 2:
        return NonspecialVerdict(
            NonspecialStatus.NOT_APPLICABLE,
            f"requires m >= 2 and g > m + 2, got m={_shown(m)}, "
            f"g={_shown(g)}",
        )
    floor = max(2 * g - 4, m + g)
    status, sign = ((NonspecialStatus.NONSPECIAL, ">") if d > floor
                    else (NonspecialStatus.INCONCLUSIVE, "<="))
    return NonspecialVerdict(
        status, f"d={_shown(d)} {sign} max(2g-4, m+g) = {_shown(floor)}")


class NonspecialityRoute(Enum):
    RIEMANN_ROCH = "riemann-roch"
    LATTICE_BOUND = "lattice-bound"
    FAIL = "fail"


class RouteResult(NamedTuple):
    lattice: NonspecialVerdict | None

    @property
    def route(self) -> NonspecialityRoute:
        if self.lattice is None:
            return NonspecialityRoute.RIEMANN_ROCH
        if self.lattice.status is NonspecialStatus.NONSPECIAL:
            return NonspecialityRoute.LATTICE_BOUND
        return NonspecialityRoute.FAIL

    def members(self) -> tuple:
        route = self.route
        return (("route", route.value),
                ("riemann_roch_applies",
                 route is NonspecialityRoute.RIEMANN_ROCH),
                ("lattice", self.lattice))

    to_dict = _document


_RIEMANN_ROCH = RouteResult(None)  # built once: this route holds no lattice


def nonspeciality_route(m: int, d: int, g: int) -> RouteResult:
    """Pick the argument forcing H^1(C, O_C(1)) = 0, or report failure.

    d >= 2g - 1 settles it by Riemann-Roch; otherwise the lattice criterion
    must apply and be conclusive.  Requires d >= 2g - 3.
    """
    if d < 2 * g - 3:
        raise DegreeRangeError(
            f"degree {_shown(d)} below the supported floor 2g-3 = "
            f"{_shown(2 * g - 3)}"
        )
    return (_RIEMANN_ROCH if d >= 2 * g - 1
            else RouteResult(lattice_nonspecial(m, d, g)))
