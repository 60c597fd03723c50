"""The contract every public record keeps: an immutable value with
attribute access, ``==`` and ``hash`` by value, and copies that survive
``pickle`` and ``copy.deepcopy``."""

import copy
import pickle

import pytest

from rigidcurves import (
    CURVE,
    HYPERPLANE,
    BundleExpr,
    CicyType,
    Certificate,
    Clause,
    DerivedVerdict,
    DivisorClass,
    EmbeddingRow,
    ExcessProblem,
    HypothesisError,
    KnutsenVerdict,
    NonspecialityRoute,
    NonspecialStatus,
    NonspecialVerdict,
    PicardLattice,
    RouteResult,
    RowAssessment,
    StatedVerdict,
    TableCheck,
    TruncatedSeries,
    certify,
    derived_conditions,
    node_table,
    stated_conditions,
)

# (a field to assign, a call that builds the record afresh each time)
RECORDS = {
    "TruncatedSeries": ("order", lambda: TruncatedSeries(2, (1, 2, 3))),
    "BundleExpr": ("roots", lambda: BundleExpr(((3, 1), (-1, -2)), 1)),
    "ExcessProblem": ("n", lambda: ExcessProblem(36, 2)),
    "DivisorClass": ("alpha", lambda: DivisorClass(1, 2)),
    "PicardLattice": ("g", lambda: PicardLattice(2, 9, 6)),
    "KnutsenVerdict": (
        "exists", lambda: KnutsenVerdict(True, "genus-degree-bound", False)),
    "NonspecialVerdict": (
        "reason",
        lambda: NonspecialVerdict(NonspecialStatus.NONSPECIAL, "d=9 > 8")),
    "RouteResult": ("lattice", lambda: RouteResult(None)),
    "EmbeddingRow": (
        "nodes", lambda: EmbeddingRow(CicyType.QUINTIC, (3, 2), 36)),
    "Clause": ("holds", lambda: Clause("genus-cap", True, "g=2 < 35")),
    "StatedVerdict": (
        "reason", lambda: stated_conditions(CicyType.QUINTIC, 6, 2)),
    "RowAssessment": (
        "failure", lambda: derived_conditions(CicyType.QUINTIC, 6, 2).rows[1]),
    "DerivedVerdict": (
        "ell", lambda: derived_conditions(CicyType.BICUBIC, 7, 4)),
    "Certificate": ("d", lambda: certify(CicyType.QUINTIC, 6, 2)),
    "TableCheck": (
        "computed",
        lambda: TableCheck(EmbeddingRow(CicyType.BICUBIC, (2, 2, 2), 32), 24)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_value(name):
    field, build = RECORDS[name]
    record, again = build(), build()
    assert type(record).__name__ == name
    assert record is not again
    assert record == again and hash(record) == hash(again)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        if hasattr(record, "to_dict"):
            assert clone.to_dict() == record.to_dict()


def test_keyword_constructors_and_defaults():
    assert PicardLattice(m=2, d=9, g=6) == PicardLattice(2, 9, 6)
    assert ExcessProblem(n=36, ell=2) == ExcessProblem(36, 2)
    assert BundleExpr(cotangents=1) == BundleExpr((), 1)
    assert BundleExpr().roots == () and BundleExpr().cotangents == 0
    assert Clause("genus-cap", True).detail == ""
    verdict = NonspecialVerdict(NonspecialStatus.NONSPECIAL, "d=9 > 8")
    assert verdict.assumed == ("very-ample-polarization", "picard-rank-two")


def test_scalar_multiple_of_a_class():
    assert 2 * CURVE == DivisorClass(0, 2)
    assert type(2 * CURVE) is DivisorClass
    assert CURVE * 2 == 2 * CURVE and type(CURVE * 2) is DivisorClass
    # only an int scales a class: no nested records, no float fields
    for left, right in ((CURVE, CURVE), (CURVE, HYPERPLANE),
                        (2.5, CURVE), (CURVE, 2.5)):
        with pytest.raises(TypeError):
            left * right


def test_embedding_row_holds_only_its_arguments():
    row = EmbeddingRow(CicyType.QUINTIC, (3, 2), 36)
    assert EmbeddingRow._fields == ("cicy", "k3_degrees", "nodes")
    assert "m=" not in repr(row)
    assert EmbeddingRow._make(row) == row
    assert row.m == 3
    assert all(r.m in (2, 3, 4) for r in node_table())


# A verdict stores only the facts it is built from; accept, viable, route,
# warnings and assumed are properties read off them.
FIELDS = {
    StatedVerdict: ("reason", "clauses"),
    RowAssessment: ("row", "knutsen", "node_margin_ok", "route", "count",
                    "failure"),
    DerivedVerdict: ("reason", "ell", "chosen", "rows"),
    Certificate: ("cicy", "d", "g", "stated", "derived"),
    RouteResult: ("lattice",),
    NonspecialVerdict: ("status", "reason"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_verdict_stores_each_fact_once(record):
    assert record._fields == FIELDS[record]


def test_replace_cannot_make_an_inconsistent_verdict():
    derived = derived_conditions(CicyType.QUINTIC, 6, 2)
    assert derived.accept and derived.rows[0].viable
    assert derived._replace(chosen=None).accept is False
    assert derived.rows[0]._replace(failure="node-margin").viable is False
    assert derived._replace(rows=()).assumed == ()
    stated = stated_conditions(CicyType.QUINTIC, 5, 3)
    assert stated._replace(reason="accepted").accept is True
    assert RouteResult(None).route is NonspecialityRoute.RIEMANN_ROCH
    lattice = NonspecialVerdict(NonspecialStatus.INCONCLUSIVE, "d=7 <= 8")
    assert RouteResult(lattice).route is NonspecialityRoute.FAIL
    certificate = certify(CicyType.QUINTIC, 6, 2)
    assert certificate.warnings == ()
    assert certificate._replace(derived=derived._replace(chosen=None)
                                ).warnings == ("stated-derived-disagreement",)


# _replace builds through the constructor: it checks and normalises the new
# fields and recomputes a derived one.  (a call, what it raises or returns)
REPLACED = {
    "ExcessProblem": (lambda: ExcessProblem(36, 2)._replace(n=1),
                      HypothesisError),
    "TruncatedSeries": (lambda: TruncatedSeries.one(2)._replace(order=-1),
                        ValueError),
    "PicardLattice": (lambda: PicardLattice(2, 9, 6)._replace(m=0),
                      ValueError),
    "BundleExpr": (lambda: BundleExpr()._replace(roots=((1, 1), (1, 1))),
                   BundleExpr(((1, 2),))),
    "EmbeddingRow": (
        lambda: EmbeddingRow(CicyType.QUINTIC, (4, 1), 16)._replace(
            k3_degrees=(2, 2, 2)).m,
        4),
}


@pytest.mark.parametrize("name", REPLACED)
def test_replace_goes_through_the_constructor(name):
    replace, expected = REPLACED[name]
    if isinstance(expected, type):
        with pytest.raises(expected):
            replace()
    else:
        assert replace() == expected
