"""The contract every public record keeps: an immutable value with
attribute access, ``==`` and ``hash`` by value, and copies that survive
``pickle`` and ``copy.deepcopy``."""

import copy
import pickle

import pytest

from rigidcurves import (
    CURVE,
    BundleExpr,
    CicyType,
    Clause,
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
    TableCheck,
    TruncatedSeries,
    certify,
    derived_conditions,
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
    "RouteResult": (
        "route", lambda: RouteResult(NonspecialityRoute.RIEMANN_ROCH, None)),
    "EmbeddingRow": (
        "nodes", lambda: EmbeddingRow(CicyType.QUINTIC, (3, 2), 36)),
    "Clause": ("holds", lambda: Clause("genus-cap", True, "g=2 < 35")),
    "StatedVerdict": (
        "accept", lambda: stated_conditions(CicyType.QUINTIC, 6, 2)),
    "RowAssessment": (
        "viable", lambda: derived_conditions(CicyType.QUINTIC, 6, 2).rows[1]),
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
