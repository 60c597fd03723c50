"""Certification of rigid-curve existence on the five Calabi-Yau families.

Two independent decision modes are run side by side:

* ``stated_conditions`` transcribes the per-family case conditions literally
  (degree bound, genus cap, forbidden pair, exceptional pair, degree slack);
* ``derived_conditions`` reconstructs the hypothesis chain through the node
  table: a K3 embedding must exist whose curve class is realizable, whose
  node count satisfies n >= g + 2, and for which non-speciality holds.

The two modes do not always agree; certificates report both verdicts and
flag disagreements instead of adjudicating them.  The rigid-curve count of
an accepted certificate is C(n - 2, g) for the chosen embedding row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .chern import degeneracy_count, rigid_count
from .k3 import (
    KnutsenVerdict,
    NonspecialityRoute,
    RouteResult,
    knutsen_exists,
    nonspeciality_route,
)

ENUMERATION_GUARD = 10_000

WARN_DISAGREEMENT = "stated-derived-disagreement"
WARN_EXTRAPOLATED = "knutsen-extrapolated"
WARN_TABLE_DISCREPANCY = "node-table-discrepancy"


class CicyType(Enum):
    """The five families of Calabi-Yau complete intersection threefolds."""

    QUINTIC = (5,)
    QUARTIC_QUADRIC = (4, 2)
    BICUBIC = (3, 3)
    CUBIC_TWO_QUADRICS = (3, 2, 2)
    FOUR_QUADRICS = (2, 2, 2, 2)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.value

    def type_string(self) -> str:
        return ",".join(str(b) for b in self.degrees)

    @classmethod
    def from_string(cls, text: str) -> "CicyType":
        try:
            degrees = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse multidegree {text!r}") from None
        try:
            return cls(degrees)
        except ValueError:
            raise ValueError(
                f"{text!r} is not one of the five families "
                "(5; 4,2; 3,3; 3,2,2; 2,2,2,2)"
            ) from None


class _RowFields(NamedTuple):
    cicy: CicyType
    k3_degrees: tuple[int, ...]
    nodes: int


class EmbeddingRow(_RowFields):
    """One admissible (threefold family, K3 type) pair with its node count."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, cicy: CicyType, k3_degrees: tuple[int, ...], nodes: int
    ) -> "EmbeddingRow":
        product = math.prod(k3_degrees)
        if product % 2 != 0 or product // 2 not in (2, 3, 4):
            raise ValueError(
                f"K3 type {k3_degrees} has degree {product}, "
                "expected 4, 6 or 8"
            )
        return super().__new__(cls, cicy, k3_degrees, nodes)

    @property
    def m(self) -> int:  # half the K3 degree: H.H = 2m
        return math.prod(self.k3_degrees) // 2

    def to_dict(self) -> dict:
        return {
            "cicy": list(self.cicy.degrees),
            "k3": list(self.k3_degrees),
            "n": self.nodes,
            "m": self.m,
        }


_NODE_TABLE = (
    EmbeddingRow(CicyType.QUINTIC, (4, 1), 16),
    EmbeddingRow(CicyType.QUINTIC, (3, 2), 36),
    EmbeddingRow(CicyType.QUARTIC_QUADRIC, (4, 1, 1), 4),
    EmbeddingRow(CicyType.QUARTIC_QUADRIC, (3, 2, 1), 18),
    EmbeddingRow(CicyType.QUARTIC_QUADRIC, (2, 2, 2), 32),
    EmbeddingRow(CicyType.BICUBIC, (3, 2, 1), 12),
    EmbeddingRow(CicyType.BICUBIC, (2, 2, 2), 32),
    EmbeddingRow(CicyType.CUBIC_TWO_QUADRICS, (3, 2, 1, 1), 6),
    EmbeddingRow(CicyType.CUBIC_TWO_QUADRICS, (2, 2, 2, 1), 16),
    EmbeddingRow(CicyType.FOUR_QUADRICS, (2, 2, 2, 1, 1), 8),
)
_FAMILY_ROWS = {cicy: tuple(row for row in _NODE_TABLE if row.cicy is cicy)
                for cicy in CicyType}  # family -> its rows, in table order


def node_table() -> list[EmbeddingRow]:
    """The known node counts for a general threefold of each family that
    contains a smooth complete intersection K3 of the given type."""
    return list(_NODE_TABLE)


# family -> (half-degree m, genus cap, forbidden pair, exceptional pair)
_STATED_CASES = {
    CicyType.QUINTIC: (2, 35, (5, 3), None),
    CicyType.QUARTIC_QUADRIC: (2, 31, (5, 3), None),
    CicyType.BICUBIC: (3, 31, (7, 4), (3, 1)),
    CicyType.CUBIC_TWO_QUADRICS: (3, 15, (7, 4), (3, 1)),
    CicyType.FOUR_QUADRICS: (4, 9, (9, 5), (4, 1)),
}


class Clause(NamedTuple):
    name: str
    holds: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


class StatedVerdict(NamedTuple):
    accept: bool
    reason: str
    clauses: tuple[Clause, ...]

    def to_dict(self) -> dict:
        return {
            "accept": self.accept,
            "reason": self.reason,
            "clauses": [c.to_dict() for c in self.clauses],
        }


def stated_conditions(cicy: CicyType, d: int, g: int) -> StatedVerdict:
    """Literal per-family case conditions, with every clause traced."""
    m, genus_cap, forbidden, exceptional = _STATED_CASES[cicy]

    # Each rule is (clause, the ``holds`` value on which it decides, the
    # reason it then gives); the first rule that decides sets the reason.
    rules = [
        (Clause("genus-nonnegative", g >= 0, f"g={g}"), False, "genus-negative"),
        (Clause("degree-range", d >= 2 * g - 3, f"d={d} >= 2g-3={2 * g - 3}"),
         False, "degree-out-of-range"),
    ]
    if exceptional is not None:
        rules.append((Clause("exceptional-pair", (d, g) == exceptional,
                             f"(d,g)={exceptional}"),
                      True, "exceptional-pair"))
    rules += [
        (Clause("genus-degree-bound", 4 * m * g < d * d,
                f"{4 * m}*g={4 * m * g} < d^2={d * d}"),
         False, "genus-degree-bound-failed"),
        (Clause("genus-cap", g < genus_cap, f"g={g} < {genus_cap}"),
         False, "genus-cap-exceeded"),
        (Clause("forbidden-pair-avoided", (d, g) != forbidden,
                f"(d,g) != {forbidden}"),
         False, "forbidden-pair"),
        (Clause("degree-dominates", d > 2 * g - 2 or d > g + m,
                f"d > 2g-2={2 * g - 2} or d > g+{m}={g + m}"),
         False, "degree-too-small"),
    ]
    reason = next(
        (given for clause, decides, given in rules if clause.holds == decides),
        "accepted",
    )
    accept = reason in ("accepted", "exceptional-pair")
    return StatedVerdict(accept, reason, tuple(c for c, _, _ in rules))


class RowAssessment(NamedTuple):
    """Evaluation of one embedding row against the derived hypothesis chain."""

    row: EmbeddingRow
    knutsen: KnutsenVerdict
    node_margin_ok: bool
    route: RouteResult
    viable: bool
    count: int | None
    failure: str | None

    def to_dict(self) -> dict:
        return {
            **self.row.to_dict(),
            "knutsen": self.knutsen.to_dict(),
            "node_margin_ok": self.node_margin_ok,
            "route": self.route.to_dict(),
            "viable": self.viable,
            "count": str(self.count) if self.count is not None else None,
            "failure": self.failure,
        }


# Construction facts that hold for every table embedding and are recorded
# rather than recomputed: they are properties of the embeddings themselves,
# not of the (d, g) input.
_CITED_CONSTRUCTION_FACTS = (
    "k-trivial-threefold",
    "linear-system-universality",
    "node-smoothing-section-exists",
)


class DerivedVerdict(NamedTuple):
    accept: bool
    reason: str
    ell: int
    chosen: RowAssessment | None
    rows: tuple[RowAssessment, ...]
    assumed: tuple[str, ...]

    @property
    def count(self) -> int | None:
        return self.chosen.count if self.chosen is not None else None

    def to_dict(self) -> dict:
        return {
            "accept": self.accept,
            "reason": self.reason,
            "ell": self.ell,
            "chosen": self.chosen.to_dict() if self.chosen else None,
            "rows": [a.to_dict() for a in self.rows],
            "assumed_by_citation": list(self.assumed),
        }


def _assess_row(row: EmbeddingRow, d: int, g: int) -> RowAssessment:
    m = row.m
    verdict = knutsen_exists(m, d, g)
    margin_ok = row.nodes >= g + 2
    route = nonspeciality_route(m, d, g)
    failure = ("k3-existence" if not verdict.exists
               else "node-margin" if not margin_ok
               else "nonspeciality" if route.route is NonspecialityRoute.FAIL
               else None)
    viable = failure is None
    count = rigid_count(row.nodes, g) if viable else None
    return RowAssessment(row, verdict, margin_ok, route, viable, count, failure)


def derived_conditions(cicy: CicyType, d: int, g: int) -> DerivedVerdict:
    """Hypothesis chain through the node table: the linear system of genus-g
    curves has dimension ell = g, so an embedding row is viable when the
    curve exists on its K3, n >= g + 2, and non-speciality holds.

    The chosen row maximizes n (ties broken by table order); the count is
    C(n - 2, g) for the chosen row.  Outside the chain's domain (g < 0,
    d < 1, d < 2g - 3) the verdict is an "out-of-range: ..." rejection with
    no rows and nothing assumed.
    """
    out_of_range = (
        f"genus must be nonnegative, got {g}" if g < 0
        else f"degree must be positive, got {d}" if d < 1
        else f"degree {d} below the supported floor 2g-3 = {2 * g - 3}"
        if d < 2 * g - 3 else None
    )
    if out_of_range is not None:
        return DerivedVerdict(
            False, f"out-of-range: {out_of_range}", max(g, 0), None, (), ()
        )
    rows = tuple(_assess_row(row, d, g) for row in _FAMILY_ROWS[cicy])
    # max keeps the first of equal rows, in table order
    chosen = max((a for a in rows if a.viable), key=lambda a: a.row.nodes,
                 default=None)
    accept = chosen is not None
    reason = "accepted" if accept else "no-viable-embedding"
    return DerivedVerdict(
        accept, reason, g, chosen, rows, _CITED_CONSTRUCTION_FACTS
    )


class Certificate(NamedTuple):
    """Verdicts of both modes for one (family, d, g) input, plus warnings."""

    cicy: CicyType
    d: int
    g: int
    stated: StatedVerdict
    derived: DerivedVerdict
    warnings: tuple[str, ...]

    @property
    def count(self) -> int | None:
        return self.derived.count

    def to_dict(self) -> dict:
        return {
            "input": {
                "type": self.cicy.type_string(),
                "degrees": list(self.cicy.degrees),
                "d": self.d,
                "g": self.g,
            },
            "stated": self.stated.to_dict(),
            "derived": self.derived.to_dict(),
            "count": str(self.count) if self.count is not None else None,
            "warnings": list(self.warnings),
        }


def certify(cicy: CicyType, d: int, g: int) -> Certificate:
    """Run both decision modes and cross-flag their disagreements; inputs
    outside the derived chain's domain are rejections with a reason."""
    stated = stated_conditions(cicy, d, g)
    derived = derived_conditions(cicy, d, g)
    warnings = []
    if stated.accept != derived.accept:
        warnings.append(WARN_DISAGREEMENT)
    if any(a.knutsen.extrapolated for a in derived.rows):
        warnings.append(WARN_EXTRAPOLATED)
    if any(a.viable and a.row in _DISCREPANT_ROWS for a in derived.rows):
        warnings.append(WARN_TABLE_DISCREPANCY)
    return Certificate(cicy, d, g, stated, derived, tuple(warnings))


class TableCheck(NamedTuple):
    """Tabulated node count next to its independent Thom-Porteous value."""

    row: EmbeddingRow
    computed: int

    @property
    def agree(self) -> bool:
        return self.computed == self.row.nodes

    def to_dict(self) -> dict:
        return {
            **self.row.to_dict(),
            "computed_n": self.computed,
            "agree": self.agree,
        }


# The Porteous count depends only on the fixed table, so every row is checked
# once, here; certificates and ``table --verify`` read these checks.
_TABLE_CHECKS = tuple(
    TableCheck(row, degeneracy_count(row.cicy.degrees, row.k3_degrees))
    for row in _NODE_TABLE
)
_DISCREPANT_ROWS = frozenset(c.row for c in _TABLE_CHECKS if not c.agree)


def verify_node_table() -> list[TableCheck]:
    """Every node count next to its degeneracy-locus value.

    Both values are reported side by side; the table itself is never
    altered, even where the computation disagrees with it.
    """
    return list(_TABLE_CHECKS)


def enumerate_region(
    cicy: CicyType, d_max: int, g_max: int
) -> Iterator[Certificate]:
    """Certificates for 0 <= g <= g_max, max(1, 2g-3) <= d <= d_max in
    (g asc, d asc) order, one at a time from a one-pass iterator (wrap it in
    ``list()`` to reuse it); the bounds are checked at the call."""
    if d_max < 0 or g_max < 0:
        raise ValueError(
            f"bounds must be nonnegative, got d_max={d_max}, g_max={g_max}"
        )
    if d_max > ENUMERATION_GUARD:
        raise ValueError(
            f"d_max={d_max} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    # rows with 2g - 3 > d_max are empty
    return (certify(cicy, d, g)
            for g in range(min(g_max, (d_max + 3) // 2) + 1)
            for d in range(max(1, 2 * g - 3), d_max + 1))
