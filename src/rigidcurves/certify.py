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

import itertools
import math
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .chern import _degrees, degeneracy_count, rigid_count
from .k3 import (
    KnutsenVerdict,
    NonspecialityRoute,
    RouteResult,
    knutsen_exists,
    nonspeciality_route,
    _document,
    _Object,
    _shown,
)

ENUMERATION_GUARD = 10_000

WARN_DISAGREEMENT = "stated-derived-disagreement"
WARN_EXTRAPOLATED = "knutsen-extrapolated"
WARN_TABLE_DISCREPANCY = "node-table-discrepancy"
# ``Certificate.warnings`` by its three flags, built once and shared
_WARNINGS = {flags: tuple(itertools.compress(
    (WARN_DISAGREEMENT, WARN_EXTRAPOLATED, WARN_TABLE_DISCREPANCY), flags))
    for flags in itertools.product((False, True), repeat=3)}

# ``Cls(*fields)`` for a NamedTuple whose ``__new__`` is the generated one,
# without its Python frame; a record with a ``__new__`` of its own needs that
_record = tuple.__new__


class CicyType(Enum):
    """The five families of Calabi-Yau complete intersection threefolds."""

    QUINTIC = (5,)
    QUARTIC_QUADRIC = (4, 2)
    BICUBIC = (3, 3)
    CUBIC_TWO_QUADRICS = (3, 2, 2)
    FOUR_QUADRICS = (2, 2, 2, 2)

    def __init__(self, *degrees: int) -> None:
        self._type_string = ",".join(map(str, degrees))  # once per member

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._value_

    def type_string(self) -> str:
        return self._type_string

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
                f"K3 type {_degrees(k3_degrees)} has degree "
                f"{_shown(product)}, expected 4, 6 or 8"
            )
        return super().__new__(cls, cicy, k3_degrees, nodes)

    @property
    def m(self) -> int:  # half the K3 degree: H.H = 2m
        return math.prod(self.k3_degrees) // 2

    def members(self) -> tuple:
        return (("cicy", self.cicy.degrees), ("k3", self.k3_degrees),
                ("n", self.nodes), ("m", self.m))

    to_dict = _document


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


class Clause(NamedTuple):
    name: str
    holds: bool
    template: str = ""
    values: tuple = ()

    @property
    def detail(self) -> str:  # formatted on read: CSV never reads it
        return self.template % self.values

    def members(self) -> tuple:
        return (("name", self.name), ("holds", self.holds),
                ("detail", self.detail))

    to_dict = _document


class StatedVerdict(NamedTuple):
    reason: str
    clauses: tuple[Clause, ...]

    @property
    def accept(self) -> bool:
        return self.reason in ("accepted", "exceptional-pair")

    def members(self) -> tuple:
        return (("accept", self.accept), ("reason", self.reason),
                ("clauses", self.clauses))

    to_dict = _document


def _pair_clauses(name: str, template: str, pair: tuple[int, int] | None
                  ) -> tuple[Clause, ...] | None:
    """The clause ``name`` on ``pair``, indexed by ``holds``."""
    return None if pair is None else tuple(
        Clause(name, holds, template, (pair,)) for holds in (False, True))


# family -> (half-degree m, genus cap, forbidden pair, exceptional pair), and
# each pair's clauses, shared by every certificate of the family
_STATED_CASES = {
    cicy: (m, cap, forbidden, exceptional,
           _pair_clauses("forbidden-pair-avoided", "(d,g) != %s", forbidden),
           _pair_clauses("exceptional-pair", "(d,g)=%s", exceptional))
    for cicy, (m, cap, forbidden, exceptional) in {
        CicyType.QUINTIC: (2, 35, (5, 3), None),
        CicyType.QUARTIC_QUADRIC: (2, 31, (5, 3), None),
        CicyType.BICUBIC: (3, 31, (7, 4), (3, 1)),
        CicyType.CUBIC_TWO_QUADRICS: (3, 15, (7, 4), (3, 1)),
        CicyType.FOUR_QUADRICS: (4, 9, (9, 5), (4, 1)),
    }.items()
}


def stated_conditions(cicy: CicyType, d: int, g: int) -> StatedVerdict:
    """Literal per-family case conditions, with every clause traced."""
    return _Column(cicy, g).stated(d)


def _decimal(count: int | None) -> str | None:  # counts go out as strings
    return str(count) if count is not None else None


class RowAssessment(NamedTuple):
    """Evaluation of one embedding row against the derived hypothesis chain."""

    row: EmbeddingRow
    knutsen: KnutsenVerdict
    node_margin_ok: bool
    route: RouteResult
    count: int | None
    failure: str | None

    @property
    def viable(self) -> bool:
        return self.failure is None

    def members(self) -> tuple:
        return self.row.members() + (
            ("knutsen", self.knutsen), ("node_margin_ok", self.node_margin_ok),
            ("route", self.route), ("viable", self.viable),
            ("count", _decimal(self.count)), ("failure", self.failure))

    to_dict = _document


# Construction facts that hold for every table embedding and are recorded
# rather than recomputed: they are properties of the embeddings themselves,
# not of the (d, g) input.
_CITED_CONSTRUCTION_FACTS = (
    "k-trivial-threefold",
    "linear-system-universality",
    "node-smoothing-section-exists",
)


class DerivedVerdict(NamedTuple):
    reason: str
    ell: int
    chosen: RowAssessment | None
    rows: tuple[RowAssessment, ...]

    @property
    def accept(self) -> bool:
        return self.chosen is not None

    @property
    def assumed(self) -> tuple[str, ...]:
        return _CITED_CONSTRUCTION_FACTS if self.rows else ()

    @property
    def count(self) -> int | None:
        return self.chosen.count if self.chosen is not None else None

    def members(self) -> tuple:
        return (("accept", self.accept), ("reason", self.reason),
                ("ell", self.ell), ("chosen", self.chosen), ("rows", self.rows),
                ("assumed_by_citation", self.assumed))

    to_dict = _document


def derived_conditions(cicy: CicyType, d: int, g: int) -> DerivedVerdict:
    """Hypothesis chain through the node table: the linear system of genus-g
    curves has dimension ell = g, so an embedding row is viable when the
    curve exists on its K3, n >= g + 2, and non-speciality holds.

    The chosen row maximizes n (ties broken by table order); the count is
    C(n - 2, g) for the chosen row.  Outside the chain's domain (g < 0,
    d < 1, d < 2g - 3) the verdict is an "out-of-range: ..." rejection with
    no rows and nothing assumed.
    """
    return _Column(cicy, g).derived(d)


class Certificate(NamedTuple):
    """Verdicts of both modes for one (family, d, g) input, plus warnings."""

    cicy: CicyType
    d: int
    g: int
    stated: StatedVerdict
    derived: DerivedVerdict

    @property
    def count(self) -> int | None:
        return self.derived.count

    @property
    def warnings(self) -> tuple[str, ...]:
        extrapolated = discrepant = False
        for a in self.derived.rows:  # viable is read for a discrepant row only
            extrapolated |= a.knutsen.extrapolated
            discrepant |= a.row in _DISCREPANT_ROWS and a.viable
        return _WARNINGS[self.stated.accept != self.derived.accept,
                         extrapolated, discrepant]

    def members(self) -> tuple:
        """The members of ``to_dict()``, as ``_document`` reads them."""
        cicy, d, g, stated, derived = self
        given = (("type", cicy.type_string()), ("degrees", cicy.degrees),
                 ("d", d), ("g", g))
        return (("input", _record(_Object, (given,))),
                ("stated", stated), ("derived", derived),
                ("count", _decimal(derived.count)),
                ("warnings", self.warnings))

    to_dict = _document


class _Column:
    """What the certificates of ``cicy`` at genus ``g`` share, built once: the
    clauses that do not read ``d`` and the numbers the rest compare ``d``
    against (2g-3, 4m and 4mg, min(2g-2, g+m)); each row's m, margin and
    count; and the verdicts by the rows' Knutsen verdicts and, below 2g-1, d.
    A point decides its stated reason from the five facts that read ``d`` and
    the two constant clauses, in clause order, so it builds only two clauses,
    its ``StatedVerdict`` and its ``Certificate``, through ``_record``.  A
    derived verdict is built, and its rows routed, once per distinct key, and
    the column's certificates share it; a one-point column (``certify`` and
    the two modes) routes each row once, at its own ``d``."""

    def __init__(self, cicy: CicyType, g: int) -> None:
        self.cicy, self.g, self.case = cicy, g, _STATED_CASES[cicy]
        m, genus_cap = self.case[:2]
        self.floor, self.bound = 2 * g - 3, (4 * m, 4 * m * g)
        # d > 2g-2 or d > g+m holds exactly when d > min(2g-2, g+m)
        self.threshold = min(2 * g - 2, g + m)
        dominates = ("d > 2g-2=%s or d > g+%s=%s", (2 * g - 2, m, g + m))
        # genus-nonnegative, genus-cap, and degree-dominates by ``holds``
        self.clauses = (Clause("genus-nonnegative", g >= 0, "g=%s", (g,)),
                        Clause("genus-cap", g < genus_cap, "g=%s < %s",
                               (g, genus_cap)),
                        (Clause("degree-dominates", False, *dominates),
                         Clause("degree-dominates", True, *dominates)))
        self.verdicts: dict[tuple, DerivedVerdict] = {}
        self.rows = []  # (row, m, margin, count); no count below genus 0
        for row in _FAMILY_ROWS[cicy] if g >= 0 else ():
            margin = row.nodes >= g + 2
            self.rows.append((row, row.m, margin,
                              rigid_count(row.nodes, g) if margin else None))

    def stated(self, d: int) -> StatedVerdict:
        g, (_, _, forbidden, exceptional, avoided, is_exceptional) = (
            self.g, self.case)
        (nonnegative, capped, dominates), (four_m, four_mg) = (
            self.clauses, self.bound)
        # the five facts that read d
        in_range, pair = d >= self.floor, (d, g) == exceptional
        bounded, avoids = four_mg < d * d, (d, g) != forbidden
        dominant = d > self.threshold
        ranged = _record(Clause, ("degree-range", in_range,
                                  "d=%s >= 2g-3=%s", (d, self.floor)))
        bound = _record(Clause, ("genus-degree-bound", bounded,
                                 "%s*g=%s < d^2=%s", (four_m, four_mg, d * d)))
        clauses = ((nonnegative, ranged, bound, capped, avoided[avoids],
                    dominates[dominant]) if exceptional is None
                   else (nonnegative, ranged, is_exceptional[pair], bound,
                         capped, avoided[avoids], dominates[dominant]))
        # the first clause to decide gives the reason: the exceptional pair
        # (never held without one) when it holds, every other when it fails
        reason = ("genus-negative" if not nonnegative.holds
                  else "degree-out-of-range" if not in_range
                  else "exceptional-pair" if pair
                  else "genus-degree-bound-failed" if not bounded
                  else "genus-cap-exceeded" if not capped.holds
                  else "forbidden-pair" if not avoids
                  else "degree-too-small" if not dominant
                  else "accepted")
        return _record(StatedVerdict, (reason, clauses))

    def derived(self, d: int) -> DerivedVerdict:
        g, at = self.g, d - self.floor
        out_of_range = (
            f"genus must be nonnegative, got {_shown(g)}" if g < 0
            else f"degree must be positive, got {_shown(d)}" if d < 1
            else f"degree {_shown(d)} below the supported floor 2g-3 = "
                 f"{_shown(self.floor)}" if at < 0 else None
        )
        if out_of_range is not None:
            return DerivedVerdict(f"out-of-range: {out_of_range}", max(g, 0),
                                  None, ())
        key = []  # each row's Knutsen verdict, then d or None
        for _, m, _, _ in self.rows:
            key.append(knutsen_exists(m, d, g))
        key.append(d if at < 2 else None)  # below 2g-1 a route reads d
        verdict = self.verdicts.get(key := tuple(key))
        if verdict is not None:
            return verdict
        rows, chosen = [], None
        for (row, m, margin, count), knutsen in zip(self.rows, key):
            route = nonspeciality_route(m, d, g)
            failure = ("k3-existence" if not knutsen.exists
                       else "node-margin" if not margin
                       else "nonspeciality" if route.route
                       is NonspecialityRoute.FAIL else None)
            viable = failure is None
            rows.append(RowAssessment(row, knutsen, margin, route,
                                      count if viable else None, failure))
            # a later row must have more nodes: the first of equal rows wins
            if viable and (chosen is None or row.nodes > chosen.row.nodes):
                chosen = rows[-1]
        reason = "accepted" if chosen is not None else "no-viable-embedding"
        self.verdicts[key] = DerivedVerdict(reason, g, chosen, tuple(rows))
        return self.verdicts[key]

    def certify(self, d: int) -> Certificate:
        return _record(Certificate, (self.cicy, d, self.g, self.stated(d),
                                     self.derived(d)))


def certify(cicy: CicyType, d: int, g: int) -> Certificate:
    """Both decision modes side by side; inputs outside the derived chain's
    domain are rejections with a reason.  The warnings are not stored: the
    ``Certificate.warnings`` property reads them off the two verdicts."""
    return _Column(cicy, g).certify(d)


class TableCheck(NamedTuple):
    """Tabulated node count next to its independent Thom-Porteous value."""

    row: EmbeddingRow
    computed: int

    @property
    def agree(self) -> bool:
        return self.computed == self.row.nodes

    def members(self) -> tuple:
        return self.row.members() + (("computed_n", self.computed),
                                     ("agree", self.agree))

    to_dict = _document


# The Porteous count depends only on the fixed table, so every row is checked
# once, here; certificates and ``table --verify`` read these checks.
_TABLE_CHECKS = tuple(
    TableCheck(row, degeneracy_count(row.cicy.degrees, row.k3_degrees))
    for row in _NODE_TABLE
)
_DISCREPANT_ROWS = tuple(c.row for c in _TABLE_CHECKS if not c.agree)


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
        raise ValueError(f"bounds must be nonnegative, got d_max="
                         f"{_shown(d_max)}, g_max={_shown(g_max)}")
    if d_max > ENUMERATION_GUARD:
        raise ValueError(f"d_max={_shown(d_max)} exceeds the enumeration "
                         f"guard {ENUMERATION_GUARD}")
    # rows with 2g - 3 > d_max are empty
    return (column.certify(d)
            for g in range(min(g_max, (d_max + 3) // 2) + 1)
            for column in (_Column(cicy, g),)
            for d in range(max(1, 2 * g - 3), d_max + 1))
