import itertools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidcurves.certify import (
    Certificate,
    CicyType,
    Clause,
    DerivedVerdict,
    EmbeddingRow,
    StatedVerdict,
    WARN_DISAGREEMENT,
    WARN_EXTRAPOLATED,
    WARN_TABLE_DISCREPANCY,
    _DISCREPANT_ROWS,
    _WARNINGS,
    _Column,
    certify,
    derived_conditions,
    enumerate_region,
    node_table,
    stated_conditions,
    verify_node_table,
)
from rigidcurves.chern import (
    BundleExpr,
    ExcessProblem,
    HypothesisError,
    InvalidEmbeddingError,
    degeneracy_count,
    excess_bundle,
    excess_count,
    rigid_count,
    total_chern,
)
from rigidcurves.cli import _certificate_row
from rigidcurves.k3 import (
    DegreeRangeError,
    KnutsenVerdict,
    NonspecialityRoute,
    PicardLattice,
    RouteResult,
    UnsupportedPolarizationError,
    _Object,
    knutsen_exists,
    nonspeciality_route,
)

EXPECTED_TABLE = [
    ((5,), (4, 1), 16),
    ((5,), (3, 2), 36),
    ((4, 2), (4, 1, 1), 4),
    ((4, 2), (3, 2, 1), 18),
    ((4, 2), (2, 2, 2), 32),
    ((3, 3), (3, 2, 1), 12),
    ((3, 3), (2, 2, 2), 32),
    ((3, 2, 2), (3, 2, 1, 1), 6),
    ((3, 2, 2), (2, 2, 2, 1), 16),
    ((2, 2, 2, 2), (2, 2, 2, 1, 1), 8),
]

FORBIDDEN_PAIRS = {
    CicyType.QUINTIC: (5, 3),
    CicyType.QUARTIC_QUADRIC: (5, 3),
    CicyType.BICUBIC: (7, 4),
    CicyType.CUBIC_TWO_QUADRICS: (7, 4),
    CicyType.FOUR_QUADRICS: (9, 5),
}
EXCEPTIONAL_PAIRS = {
    CicyType.BICUBIC: (3, 1),
    CicyType.CUBIC_TWO_QUADRICS: (3, 1),
    CicyType.FOUR_QUADRICS: (4, 1),
}

# the kinds of row the derived literal oracle's box reaches, as (failure,
# route, Knutsen clause, extrapolated, lattice status), and those each family
# does not reach
_FAIL, _LATTICE, _RR = "fail", "lattice-bound", "riemann-roch"
_BOUND, _FAILED = "genus-degree-bound", "genus-degree-bound-failed"
_UNMET, _INCONCLUSIVE, _NONSPECIAL = ("hypotheses-not-met",
                                      "applies-and-inconclusive",
                                      "applies-and-nonspecial")
ROW_KINDS = {
    ("k3-existence", _FAIL, _FAILED, False, _UNMET),
    ("k3-existence", _FAIL, _FAILED, True, _UNMET),
    ("k3-existence", _RR, "forbidden-pair", False, None),
    ("k3-existence", _RR, _FAILED, False, None),
    ("node-margin", _FAIL, _BOUND, False, _UNMET),
    ("node-margin", _FAIL, _BOUND, True, _INCONCLUSIVE),
    ("node-margin", _LATTICE, _BOUND, False, _NONSPECIAL),
    ("node-margin", _LATTICE, _BOUND, True, _NONSPECIAL),
    ("node-margin", _RR, _BOUND, False, None),
    ("nonspeciality", _FAIL, _BOUND, False, _UNMET),
    ("nonspeciality", _FAIL, _BOUND, True, _INCONCLUSIVE),
    (None, _LATTICE, _BOUND, False, _NONSPECIAL),
    (None, _LATTICE, _BOUND, True, _NONSPECIAL),
    (None, _RR, "exceptional-pair", False, None),
    (None, _RR, _BOUND, False, None),
}
_NO_MARGIN_FAIL = {("node-margin", _FAIL, _BOUND, False, _UNMET),
                   ("node-margin", _FAIL, _BOUND, True, _INCONCLUSIVE)}
MISSING_KINDS = {
    CicyType.QUINTIC: _NO_MARGIN_FAIL,
    CicyType.BICUBIC: _NO_MARGIN_FAIL,
    CicyType.FOUR_QUADRICS: {
        ("node-margin", _FAIL, _BOUND, False, _UNMET),
        ("nonspeciality", _FAIL, _BOUND, True, _INCONCLUSIVE),
        (None, _LATTICE, _BOUND, False, _NONSPECIAL),
        (None, _LATTICE, _BOUND, True, _NONSPECIAL)},
}


def floor_edges(test):
    """Add ``@example``s at d = 2g - 3 and d = 2g - 4 (g = 5, 8) for every
    family to a ``(cicy, d, g)`` property."""
    for cicy in CicyType:
        for g in (5, 8):
            for d in (2 * g - 3, 2 * g - 4):
                test = example(cicy, d, g)(test)
    return test


def count_builds(monkeypatch, classes, built):
    """Append to ``built`` each record of ``classes`` built from here on,
    by its constructor or by ``_record``, which skips ``__new__``."""
    for cls in classes:
        def new(klass, *args, _new=cls.__new__, **kwargs):
            built.append(_new(klass, *args, **kwargs))
            return built[-1]
        monkeypatch.setattr(cls, "__new__", staticmethod(new))

    def record(klass, fields):
        made = tuple.__new__(klass, fields)
        if klass in classes:
            built.append(made)
        return made
    monkeypatch.setattr(sys.modules["rigidcurves.certify"], "_record", record)


class TestCicyType:
    def test_exactly_five_families(self):
        assert len(CicyType) == 5

    @pytest.mark.parametrize(
        "text, member",
        [
            ("5", CicyType.QUINTIC),
            ("4,2", CicyType.QUARTIC_QUADRIC),
            ("3,3", CicyType.BICUBIC),
            ("3,2,2", CicyType.CUBIC_TWO_QUADRICS),
            ("2,2,2,2", CicyType.FOUR_QUADRICS),
        ],
    )
    def test_from_string(self, text, member):
        assert CicyType.from_string(text) is member
        assert member.type_string() == text

    @pytest.mark.parametrize("text", ["6", "5,5", "abc", "", "3;3"])
    def test_from_string_rejects_non_members(self, text):
        with pytest.raises(ValueError):
            CicyType.from_string(text)

    @pytest.mark.parametrize("text", ["abc", "", "3;3"])
    def test_unparsable_text_is_named_in_the_error(self, text):
        # not int()'s own message, which the CLI would print in its place
        with pytest.raises(ValueError) as info:
            CicyType.from_string(text)
        assert str(info.value) == f"cannot parse multidegree {text!r}"


class TestNodeTable:
    def test_matches_expected_rows(self):
        rows = node_table()
        assert len(rows) == 10
        listed = [(r.cicy.degrees, r.k3_degrees, r.nodes) for r in rows]
        assert listed == EXPECTED_TABLE

    def test_half_degrees_in_range(self):
        assert all(row.m in (2, 3, 4) for row in node_table())

    def test_row_validation(self):
        with pytest.raises(ValueError):
            EmbeddingRow(CicyType.QUINTIC, (5, 1), 2)  # degree 10, not a K3 here
        with pytest.raises(ValueError):
            EmbeddingRow(CicyType.QUINTIC, (3, 1), 2)  # odd degree product

    def test_table_holds_every_dominated_k3_type(self):
        # every K3 type with one more degree than its family, each degree at
        # least 1 and summing to the family's 4 + len: degeneracy_count
        # accepts exactly the tabulated ones, so the derived mode's largest
        # n is taken over every candidate
        rejected = set()
        for cicy in CicyType:
            total, length = 4 + len(cicy.degrees), len(cicy.degrees) + 1
            types = {k3 for k3 in itertools.combinations_with_replacement(
                range(total, 0, -1), length) if sum(k3) == total}
            tabulated = {row.k3_degrees for row in node_table()
                         if row.cicy is cicy}
            assert tabulated <= types
            for k3 in types - tabulated:
                with pytest.raises(InvalidEmbeddingError):
                    degeneracy_count(cicy.degrees, k3)
                rejected.add((cicy.degrees, k3))
            for k3 in tabulated:
                degeneracy_count(cicy.degrees, k3)
        assert rejected == {((3, 3), (4, 1, 1)), ((3, 2, 2), (4, 1, 1, 1)),
                            ((2, 2, 2, 2), (4, 1, 1, 1, 1)),
                            ((2, 2, 2, 2), (3, 2, 1, 1, 1))}

    @pytest.mark.parametrize("k3, message", [
        ((10**5000, 1), "K3 type (<16610-bit integer>, 1) has degree "
                        "<16610-bit integer>, expected 4, 6 or 8"),
        ((5,), "K3 type (5,) has degree 5, expected 4, 6 or 8"),
        ((5, 2), "K3 type (5, 2) has degree 10, expected 4, 6 or 8"),
    ], ids=["past-the-limit", "one-degree", "two-degrees"])
    def test_row_messages(self, k3, message):
        # past the int-to-str limit the message names sign and bit length,
        # where it carried Python's "Exceeds the limit" text
        with pytest.raises(ValueError) as raised:
            EmbeddingRow(CicyType.QUINTIC, k3, 3)
        assert str(raised.value) == message


class TestStatedConditions:
    def test_quintic_generic_accept(self):
        verdict = stated_conditions(CicyType.QUINTIC, 6, 2)
        assert verdict.accept and verdict.reason == "accepted"
        held = {c.name: c.holds for c in verdict.clauses}
        assert held["genus-degree-bound"]  # 8*2 = 16 < 36
        assert held["degree-dominates"]    # 6 > 2g-2 = 2
        assert "exceptional-pair" not in held  # no exceptional pair for the quintic

    def test_quintic_forbidden_pair(self):
        verdict = stated_conditions(CicyType.QUINTIC, 5, 3)
        assert not verdict.accept
        assert verdict.reason == "forbidden-pair"

    def test_four_quadrics_exceptional_pair(self):
        verdict = stated_conditions(CicyType.FOUR_QUADRICS, 4, 1)
        assert verdict.accept and verdict.reason == "exceptional-pair"

    def test_genus_cap(self):
        verdict = stated_conditions(CicyType.QUINTIC, 100, 35)
        assert not verdict.accept and verdict.reason == "genus-cap-exceeded"

    def test_degree_gate(self):
        verdict = stated_conditions(CicyType.QUINTIC, 4, 5)
        assert not verdict.accept and verdict.reason == "degree-out-of-range"

    @pytest.mark.parametrize(
        "pair, reason",
        [
            ((5, -1), "genus-negative"),
            ((3, 2), "genus-degree-bound-failed"),  # 8*2 = 16 >= 9
            ((7, 5), "degree-too-small"),  # 7 <= 2g-2 = 8 and 7 <= g+2 = 7
        ],
    )
    def test_quintic_rejection_reasons(self, pair, reason):
        d, g = pair
        verdict = stated_conditions(CicyType.QUINTIC, d, g)
        assert not verdict.accept and verdict.reason == reason

    @pytest.mark.parametrize("cicy, pair", FORBIDDEN_PAIRS.items())
    def test_forbidden_pairs_all_families(self, cicy, pair):
        d, g = pair
        verdict = stated_conditions(cicy, d, g)
        assert not verdict.accept and verdict.reason == "forbidden-pair"

    @pytest.mark.parametrize("cicy, pair", EXCEPTIONAL_PAIRS.items())
    def test_exceptional_pairs_all_families(self, cicy, pair):
        d, g = pair
        assert stated_conditions(cicy, d, g).accept

    @pytest.mark.parametrize("cicy", list(CicyType))
    def test_literal_oracle(self, cicy):
        # every clause against its inequality as its template writes it, and
        # the reason from the first clause that decides, over a box that
        # reaches every genus cap, both pairs and both sides of 2g-3
        m, cap = {CicyType.QUINTIC: (2, 35), CicyType.QUARTIC_QUADRIC: (2, 31),
                  CicyType.BICUBIC: (3, 31),
                  CicyType.CUBIC_TWO_QUADRICS: (3, 15),
                  CicyType.FOUR_QUADRICS: (4, 9)}[cicy]
        forbidden, exceptional = (FORBIDDEN_PAIRS[cicy],
                                  EXCEPTIONAL_PAIRS.get(cicy))
        # the exceptional pair decides (accepts) when it holds; every other
        # clause decides when it fails, with its reason
        rejections = {"genus-nonnegative": "genus-negative",
                      "degree-range": "degree-out-of-range",
                      "genus-degree-bound": "genus-degree-bound-failed",
                      "genus-cap": "genus-cap-exceeded",
                      "forbidden-pair-avoided": "forbidden-pair",
                      "degree-dominates": "degree-too-small"}
        reasons = set()
        for g in range(-3, 61):
            for d in range(-3, 130):
                literal = [("genus-nonnegative", g >= 0),
                           ("degree-range", d >= 2 * g - 3)]
                if exceptional is not None:
                    literal.append(("exceptional-pair", (d, g) == exceptional))
                literal += [("genus-degree-bound", 4 * m * g < d ** 2),
                            ("genus-cap", g < cap),
                            ("forbidden-pair-avoided", (d, g) != forbidden),
                            ("degree-dominates", d > 2 * g - 2 or d > g + m)]
                reason = "accepted"
                for name, holds in literal:
                    if holds == (name == "exceptional-pair"):
                        reason = rejections.get(name, name)
                        break
                verdict = stated_conditions(cicy, d, g)
                assert [(c.name, c.holds) for c in verdict.clauses] == literal
                assert verdict.reason == reason, (d, g)
                assert verdict.accept == (reason in ("accepted",
                                                     "exceptional-pair"))
                reasons.add(reason)
        # the box reaches every reason the family can give
        assert reasons == {"accepted", *rejections.values()} | (
            set() if exceptional is None else {"exceptional-pair"})


class TestDerivedConditions:
    def test_quintic_picks_larger_node_count(self):
        verdict = derived_conditions(CicyType.QUINTIC, 6, 2)
        assert verdict.accept
        assert verdict.chosen.row.k3_degrees == (3, 2)
        assert verdict.chosen.row.nodes == 36
        assert verdict.count == 561
        by_k3 = {a.row.k3_degrees: a for a in verdict.rows}
        assert by_k3[(4, 1)].viable and by_k3[(4, 1)].count == 91

    @pytest.mark.parametrize("first, second", [((4, 1), (3, 2)),
                                               ((3, 2), (4, 1))])
    def test_equal_node_counts_keep_table_order(self, monkeypatch,
                                                first, second):
        # both rows are viable at (6, 2); with equal n the first row wins
        rows = tuple(EmbeddingRow(CicyType.QUINTIC, k3, 36)
                     for k3 in (first, second))
        monkeypatch.setitem(sys.modules["rigidcurves.certify"]._FAMILY_ROWS,
                            CicyType.QUINTIC, rows)
        verdict = derived_conditions(CicyType.QUINTIC, 6, 2)
        assert [a.viable for a in verdict.rows] == [True, True]
        assert verdict.chosen.row is rows[0]
        assert verdict.count == 561  # C(34, 2)

    def test_four_quadrics_node_margin_failure(self):
        verdict = derived_conditions(CicyType.FOUR_QUADRICS, 13, 8)
        assert not verdict.accept
        assert verdict.rows[0].failure == "node-margin"

    def test_quintic_forbidden_pair_fails_both_rows(self):
        verdict = derived_conditions(CicyType.QUINTIC, 5, 3)
        assert not verdict.accept
        assert [a.failure for a in verdict.rows] == ["k3-existence", "k3-existence"]
        by_m = {a.row.m: a.knutsen.clause for a in verdict.rows}
        assert by_m[2] == "forbidden-pair"
        assert by_m[3] == "genus-degree-bound-failed"

    def test_lattice_route_at_degree_floor(self):
        # d = 2g - 3: Riemann-Roch unavailable, lattice criterion decides
        verdict = derived_conditions(CicyType.QUINTIC, 9, 6)
        assert verdict.accept
        chosen = verdict.chosen
        assert chosen.row.k3_degrees == (4, 1)
        assert chosen.route.route is NonspecialityRoute.LATTICE_BOUND
        assert chosen.count == 3003  # C(14, 6)
        other = next(a for a in verdict.rows if a.row.k3_degrees == (3, 2))
        assert other.failure == "nonspeciality"

    def test_gate_errors(self):
        cases = [
            ((1, 5), "degree 1 below the supported floor 2g-3 = 7", 5),
            ((0, 0), "degree must be positive, got 0", 0),
            ((3, -1), "genus must be nonnegative, got -1", 0),
        ]
        for (d, g), message, ell in cases:
            verdict = derived_conditions(CicyType.QUINTIC, d, g)
            assert verdict.accept is False
            assert verdict.reason == f"out-of-range: {message}"
            assert verdict.ell == ell
            assert verdict.chosen is None
            assert verdict.rows == verdict.assumed == ()

    # small values where verdicts change, values far outside the domain,
    # and every family on both sides of the floor: d = 2g - 3 and 2g - 4
    @floor_edges
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(CicyType)),
        st.one_of(st.integers(-5, 60), st.integers(-(10**6), 10**6)),
        st.one_of(st.integers(-5, 40), st.integers(-(10**6), 10**6)),
    )
    def test_total_over_integers(self, cicy, d, g):
        verdict = derived_conditions(cicy, d, g)
        assert certify(cicy, d, g).derived == verdict
        assert verdict.accept == (verdict.reason == "accepted")

    def test_construction_facts_recorded(self):
        verdict = derived_conditions(CicyType.QUINTIC, 6, 2)
        assert "k-trivial-threefold" in verdict.assumed

    @pytest.mark.parametrize("cicy", list(CicyType))
    def test_literal_oracle(self, cicy):
        # the hypothesis chain written out row by row over the stated literal
        # oracle's box: Knutsen's criterion as the k3 docstring states it, the
        # node margin, the route, the chosen row, the count, the warnings and
        # the out-of-range reasons; only the stated verdict is the program's
        # (its own oracle is TestStatedConditions::test_literal_oracle)
        rows = {  # (K3 type, n, m, tabulated n disagrees with Porteous)
            CicyType.QUINTIC: [((4, 1), 16, 2, False), ((3, 2), 36, 3, False)],
            CicyType.QUARTIC_QUADRIC: [((4, 1, 1), 4, 2, False),
                                       ((3, 2, 1), 18, 3, False),
                                       ((2, 2, 2), 32, 4, False)],
            CicyType.BICUBIC: [((3, 2, 1), 12, 3, False),
                               ((2, 2, 2), 32, 4, True)],
            CicyType.CUBIC_TWO_QUADRICS: [((3, 2, 1, 1), 6, 3, False),
                                          ((2, 2, 2, 1), 16, 4, False)],
            CicyType.FOUR_QUADRICS: [((2, 2, 2, 1, 1), 8, 4, False)],
        }[cicy]
        facts = ("k-trivial-threefold", "linear-system-universality",
                 "node-smoothing-section-exists")
        kinds = set()  # (failure, route, Knutsen clause, extrapolated, status)
        for g in range(-3, 61):
            for d in range(-3, 130):
                certificate = certify(cicy, d, g)
                verdict = certificate.derived
                out_of_range = (
                    f"genus must be nonnegative, got {g}" if g < 0
                    else f"degree must be positive, got {d}" if d < 1
                    else f"degree {d} below the supported floor 2g-3 = "
                         f"{2 * g - 3}" if d < 2 * g - 3 else None)
                if out_of_range is not None:
                    assert (verdict.reason, verdict.ell, verdict.chosen,
                            verdict.rows, verdict.assumed) == (
                        "out-of-range: " + out_of_range, max(g, 0), None, (),
                        ())
                    assert certificate.warnings == (
                        (WARN_DISAGREEMENT,) if certificate.stated.accept
                        else ())
                    continue
                extrapolated = d < 2 * g - 2
                expected, chosen, discrepant = [], None, False
                for k3, n, m, disagrees in rows:
                    if (d, g) == {3: (3, 1), 4: (4, 1)}.get(m):
                        clause = "exceptional-pair"
                    elif not 4 * m * g < d * d:
                        clause = "genus-degree-bound-failed"
                    elif (d, g) == (2 * m + 1, m + 1):
                        clause = "forbidden-pair"
                    else:
                        clause = "genus-degree-bound"
                    exists = clause in ("exceptional-pair",
                                        "genus-degree-bound")
                    margin = n >= g + 2
                    floor = max(2 * g - 4, m + g)
                    if d >= 2 * g - 1:
                        route, lattice = "riemann-roch", None
                    elif g <= m + 2:
                        route, lattice = "fail", (
                            "hypotheses-not-met",
                            f"requires m >= 2 and g > m + 2, got m={m}, "
                            f"g={g}")
                    elif d > floor:
                        route, lattice = "lattice-bound", (
                            "applies-and-nonspecial",
                            f"d={d} > max(2g-4, m+g) = {floor}")
                    else:
                        route, lattice = "fail", (
                            "applies-and-inconclusive",
                            f"d={d} <= max(2g-4, m+g) = {floor}")
                    failure = ("k3-existence" if not exists
                               else "node-margin" if not margin
                               else "nonspeciality" if route == "fail"
                               else None)
                    count = None if failure else math.comb(n - 2, g)
                    expected.append((k3, n, m, exists, clause, extrapolated,
                                     margin, route, lattice, count, failure))
                    kinds.add((failure, route, clause, extrapolated,
                               lattice and lattice[0]))
                    if failure is None:
                        discrepant |= disagrees
                        # the largest n; of equal ones, the first in order
                        if chosen is None or n > expected[chosen][1]:
                            chosen = len(expected) - 1
                assert [(a.row.k3_degrees, a.row.nodes, a.row.m,
                         a.knutsen.exists, a.knutsen.clause,
                         a.knutsen.extrapolated, a.node_margin_ok,
                         a.route.route.value,
                         a.route.lattice and (a.route.lattice.status.value,
                                              a.route.lattice.reason),
                         a.count, a.failure) for a in verdict.rows] == expected
                accept = chosen is not None
                assert (verdict.reason, verdict.ell, verdict.assumed) == (
                    "accepted" if accept else "no-viable-embedding", g, facts)
                assert verdict.chosen is (verdict.rows[chosen] if accept
                                          else None)
                assert certificate.count == (expected[chosen][9] if accept
                                             else None)
                flags = (certificate.stated.accept != accept, extrapolated,
                         discrepant)
                assert certificate.warnings == tuple(name for name, on in zip(
                    (WARN_DISAGREEMENT, WARN_EXTRAPOLATED,
                     WARN_TABLE_DISCREPANCY), flags) if on)
        # the box reaches 15 row kinds; (4,2) and (3,2,2) reach all of them
        assert len(ROW_KINDS) == 15
        assert kinds == ROW_KINDS - MISSING_KINDS.get(cicy, set())


class TestCertify:
    def test_returns_past_the_int_to_str_limit(self):
        # d^2 has 4301 digits, one past Python's default int-to-str limit;
        # clause details are formatted on read, so only to_dict() prints it
        certificate = certify(CicyType.QUINTIC, 10**2150, 1)
        assert certificate.stated.accept and certificate.derived.accept
        assert _certificate_row(certificate)[:4] == [
            str(10**2150), "1", "accept", "accept"]
        with pytest.raises(ValueError):
            certificate.to_dict()

    # each raised ValueError at the int-to-str limit while a reason printed
    # the number; a stored reason now names its sign and bit length instead
    @pytest.mark.parametrize("d, g, reason", [
        (1, 10**5000, "out-of-range: degree 1 below the supported floor "
                      "2g-3 = <16611-bit integer>"),
        (-(10**5000), 1,
         "out-of-range: degree must be positive, got -<16610-bit integer>"),
        (5, -(10**5000),
         "out-of-range: genus must be nonnegative, got -<16610-bit integer>"),
        (2 * 10**4300 - 3, 10**4300, "no-viable-embedding"),
        (2 * 10**4300 - 2, 10**4300, "no-viable-embedding"),
    ], ids=["d-below-floor", "d-negative", "g-negative", "lattice-2g-3",
            "lattice-2g-2"])
    def test_total_past_the_int_to_str_limit(self, d, g, reason):
        certificate = certify(CicyType.QUINTIC, d, g)
        assert not certificate.stated.accept
        assert certificate.derived.reason == reason
        for row in certificate.derived.rows:  # a lattice reason per row
            assert row.route.lattice.reason == (
                "d=<14286-bit integer> > max(2g-4, m+g) = <14286-bit integer>")
        with pytest.raises(ValueError):  # the input member prints d and g
            certificate.to_dict()

    # each raised a plain ValueError at the int-to-str limit while its own
    # message printed the number
    @pytest.mark.parametrize("call, args, error", [
        (nonspeciality_route, (2, 1, 10**5000), DegreeRangeError),
        (knutsen_exists, (10**5000, 1, 1), UnsupportedPolarizationError),
        (ExcessProblem, (1, 10**5000), HypothesisError),
        (rigid_count, (1, 10**5000), HypothesisError),
        (degeneracy_count, ((1,), (10**5000, 1)), InvalidEmbeddingError),
        (excess_bundle, (-(10**5000),), ValueError),
        (total_chern, (BundleExpr(), -(10**5000)), ValueError),
        (PicardLattice, (-(10**5000), 1, 1), ValueError),
        (enumerate_region, (CicyType.QUINTIC, 1, -(10**5000)), ValueError),
    ], ids=["route-floor", "knutsen-m", "excess-problem", "rigid-count",
            "degeneracy-count", "excess-bundle", "total-chern",
            "picard-lattice", "enumerate-region"])
    def test_errors_keep_their_class_past_the_limit(self, call, args, error):
        with pytest.raises(error, match="-bit integer>"):
            call(*args)

    def test_quintic_accept_end_to_end(self):
        certificate = certify(CicyType.QUINTIC, 6, 2)
        assert certificate.stated.accept and certificate.derived.accept
        assert certificate.count == 561
        assert certificate.warnings == ()

    def test_forbidden_pair_rejected_by_both_modes(self):
        certificate = certify(CicyType.QUINTIC, 5, 3)
        assert not certificate.stated.accept
        assert not certificate.derived.accept
        assert WARN_DISAGREEMENT not in certificate.warnings

    def test_mode_disagreement_flagged(self):
        certificate = certify(CicyType.FOUR_QUADRICS, 13, 8)
        assert certificate.stated.accept
        assert not certificate.derived.accept
        assert WARN_DISAGREEMENT in certificate.warnings

    def test_extrapolation_flagged_at_degree_floor(self):
        certificate = certify(CicyType.QUINTIC, 9, 6)
        assert certificate.derived.accept
        assert WARN_EXTRAPOLATED in certificate.warnings
        assert WARN_DISAGREEMENT not in certificate.warnings

    def test_discrepant_table_row_flagged(self):
        certificate = certify(CicyType.BICUBIC, 10, 3)
        assert certificate.derived.accept
        assert certificate.derived.chosen.row.k3_degrees == (2, 2, 2)
        assert certificate.count == 4060  # C(30, 3)
        assert WARN_TABLE_DISCREPANCY in certificate.warnings

    def test_warnings_keep_their_order(self):
        # (13, 8) on (3,3): d = 2g - 3 and the discrepant (2,2,2) row is
        # chosen; the forbidden pair's stated verdict makes the modes differ
        certificate = certify(CicyType.BICUBIC, 13, 8)._replace(
            stated=stated_conditions(CicyType.BICUBIC, 7, 4))
        assert certificate.derived.chosen.row.k3_degrees == (2, 2, 2)
        assert certificate.warnings == (
            WARN_DISAGREEMENT, WARN_EXTRAPOLATED, WARN_TABLE_DISCREPANCY)

    def test_discrepant_row_warned_only_when_viable(self):
        # at (9, 5) the forbidden pair of m = 4 rules the (2,2,2) row out
        certificate = certify(CicyType.BICUBIC, 9, 5)
        by_k3 = {a.row.k3_degrees: a for a in certificate.derived.rows}
        assert by_k3[(2, 2, 2)].failure == "k3-existence"
        assert by_k3[(3, 2, 1)].viable
        assert certificate.warnings == ()

    def test_gate_error_becomes_rejection(self):
        for d in (1, 6):  # below the floor 2g - 3 = 7; 6 is just below
            certificate = certify(CicyType.QUINTIC, d, 5)
            assert not certificate.derived.accept
            assert certificate.derived.reason.startswith("out-of-range")
            assert not certificate.stated.accept
            assert certificate.stated.reason == "degree-out-of-range"

    def test_chain_error_is_not_out_of_range(self, monkeypatch):
        def boom(*args):
            raise DegreeRangeError("boom")

        monkeypatch.setattr(
            sys.modules["rigidcurves.certify"], "nonspeciality_route", boom
        )
        with pytest.raises(DegreeRangeError, match="boom"):
            certify(CicyType.QUINTIC, 6, 2)

    def test_count_present_iff_accept(self):
        for cicy in CicyType:
            for g in range(0, 7):
                for d in range(max(1, 2 * g - 3), 13):
                    certificate = certify(cicy, d, g)
                    assert (certificate.count is not None) == certificate.derived.accept

    def test_three_way_count_agreement(self):
        for cicy in CicyType:
            for g in range(0, 7):
                for d in range(max(1, 2 * g - 3), 13):
                    certificate = certify(cicy, d, g)
                    if not certificate.derived.accept:
                        continue
                    chosen = certificate.derived.chosen
                    n, g_ = chosen.row.nodes, certificate.g
                    assert certificate.count == rigid_count(n, g_)
                    assert certificate.count == excess_count(ExcessProblem(n, g_))

    def test_accept_trace_obeys_hypotheses(self):
        for cicy in CicyType:
            for g in range(0, 7):
                for d in range(max(1, 2 * g - 3), 13):
                    certificate = certify(cicy, d, g)
                    if not certificate.derived.accept:
                        continue
                    chosen = certificate.derived.chosen
                    assert chosen.knutsen.exists
                    assert chosen.row.nodes >= certificate.g + 2
                    assert chosen.route.route is not NonspecialityRoute.FAIL


class TestSharedRecords:
    def test_sweep_builds_no_fixed_record(self, monkeypatch):
        # Knutsen verdicts, the Riemann-Roch route and the pair clauses take
        # a few fixed values, built at import; a sweep builds none of them,
        # and each one it returns equals a fresh record for its point
        built = []
        count_builds(monkeypatch, (KnutsenVerdict, RouteResult, Clause), built)
        certificates = [certificate for cicy in CicyType
                        for certificate in enumerate_region(cicy, 40, 8)]
        monkeypatch.undo()
        pair_clauses = ("forbidden-pair-avoided", "exceptional-pair")
        assert [record for record in built
                if type(record) is KnutsenVerdict
                or type(record) is RouteResult and record.lattice is None
                or type(record) is Clause and record.name in pair_clauses
                ] == []
        # the count sees what is still built per column or point
        assert {type(record) for record in built} == {RouteResult, Clause}
        exists = {"exceptional-pair": True, "genus-degree-bound": True,
                  "genus-degree-bound-failed": False, "forbidden-pair": False}
        for certificate in certificates:
            cicy, d, g = certificate.cicy, certificate.d, certificate.g
            for a in certificate.derived.rows:
                clause = a.knutsen.clause
                assert a.knutsen == KnutsenVerdict(exists[clause], clause,
                                                   d < 2 * g - 2)
                # a column's verdicts hold routes equal to fresh ones
                assert a.route == nonspeciality_route(a.row.m, d, g)
                if d >= 2 * g - 1:
                    assert a.route == RouteResult(None)
            clauses = {c.name: c for c in certificate.stated.clauses}
            forbidden = FORBIDDEN_PAIRS[cicy]
            assert clauses["forbidden-pair-avoided"] == Clause(
                "forbidden-pair-avoided", (d, g) != forbidden, "(d,g) != %s",
                (forbidden,))
            if cicy in EXCEPTIONAL_PAIRS:
                exceptional = EXCEPTIONAL_PAIRS[cicy]
                assert clauses["exceptional-pair"] == Clause(
                    "exceptional-pair", (d, g) == exceptional, "(d,g)=%s",
                    (exceptional,))


    def test_each_column_builds_its_constants_once(self, monkeypatch):
        # enumerate_region walks d through one column per genus: the column
        # builds the clauses that do not read d, each row's count, and one
        # derived verdict per distinct (knutsen, route) of its rows, with
        # each row's route; a point builds its degree-range and
        # genus-degree-bound clauses
        module = sys.modules["rigidcurves.certify"]
        for cicy in CicyType:
            built, counted, routed = [], [], []
            count_builds(monkeypatch, (Clause, DerivedVerdict, RouteResult),
                         built)

            def count(n, ell):
                counted.append((n, ell))
                return rigid_count(n, ell)

            def route(m, d, g):
                routed.append((m, d, g))
                return nonspeciality_route(m, d, g)
            monkeypatch.setattr(module, "rigid_count", count)
            monkeypatch.setattr(module, "nonspeciality_route", route)
            certificates = list(enumerate_region(cicy, 40, 8))
            monkeypatch.undo()
            columns = len({c.g for c in certificates})
            rows = sum(1 for row in node_table() if row.cicy is cicy)
            assert len(counted) == len(set(counted)) <= columns * rows
            assert Counter(record.name for record in built
                           if type(record) is Clause) == {
                "genus-nonnegative": columns, "genus-cap": columns,
                "degree-dominates": 2 * columns,
                "degree-range": len(certificates),
                "genus-degree-bound": len(certificates)}
            shared = {}
            for c in certificates:
                key = c.g, tuple((a.knutsen, a.route) for a in c.derived.rows)
                assert shared.setdefault(key, c.derived) is c.derived
            assert sum(type(record) is DerivedVerdict for record in built) == (
                len(shared))
            assert len(shared) < len(certificates) / 3
            # a point that reuses a verdict calls no route: each verdict built
            # asks once per row, and only d = 2g - 3 and 2g - 2 build a record
            assert len(routed) == len(set(routed)) == rows * len(shared)
            assert sum(type(record) is RouteResult for record in built) <= (
                2 * rows * columns)

    def test_single_calls_count_each_row_once(self, monkeypatch):
        # a column builds each row's count when it is built, so every
        # single call counts each row at most once; a negative genus, none
        module = sys.modules["rigidcurves.certify"]
        counted = []

        def count(n, ell):
            counted.append((n, ell))
            return rigid_count(n, ell)
        monkeypatch.setattr(module, "rigid_count", count)
        total = 0
        for cicy in CicyType:
            rows = sum(1 for row in node_table() if row.cicy is cicy)
            for d, g in ((6, 2), (40, 8), (3, 1), (20, 30), (1, 0), (0, 2),
                         (5, 9)):
                for call in (stated_conditions, certify, derived_conditions):
                    call(cicy, d, g)
                    assert len(counted) == len(set(counted)) <= rows
                    total += len(counted)
                    counted.clear()
            certify(cicy, 6, -1)
            assert counted == []
        assert total > 0

    def test_columns_gain_no_attribute_once_built(self):
        # every attribute is set in ``__init__``: one added on first use
        # would make each later attribute load slower on CPython 3.11
        for cicy in CicyType:
            for g in (-1, 0, 5, 8):
                column = _Column(cicy, g)
                built = set(vars(column))
                for d in (-3, 0, 2 * g - 3, 2 * g - 2, 40):
                    column.certify(d)
                    assert set(vars(column)) == built, (cicy, g, d)

    def test_single_calls_route_each_row_once(self, monkeypatch):
        # a column routes each row where it builds a derived verdict, so a
        # one-point column routes each row once, at its point
        module = sys.modules["rigidcurves.certify"]
        routed = []

        def route(m, d, g):
            routed.append((m, d, g))
            return nonspeciality_route(m, d, g)
        monkeypatch.setattr(module, "nonspeciality_route", route)
        for cicy in CicyType:
            ms = [row.m for row in node_table() if row.cicy is cicy]
            for d, g in ((13, 8), (14, 8), (15, 8), (40, 8), (6, 2), (1, 0)):
                for call in (certify, derived_conditions):
                    call(cicy, d, g)
                    assert routed == [(m, d, g) for m in ms]
                    routed.clear()
            for d, g in ((0, 2), (5, 9), (6, -1)):
                certify(cicy, d, g)
                assert routed == []

    def test_fast_built_records_equal_constructed_ones(self, monkeypatch):
        # over the box of the stated literal oracle, each record that a point
        # builds with ``_record`` (the degree-range and genus-degree-bound
        # clauses, the stated verdict, the certificate and its input object)
        # has the type and the fields its constructor gives
        built = []

        def record(klass, fields):
            built.append(tuple.__new__(klass, fields))
            return built[-1]
        monkeypatch.setattr(sys.modules["rigidcurves.certify"], "_record",
                            record)
        points = 0
        for cicy in CicyType:
            for g in range(-3, 61):
                for d in range(-3, 130):
                    certify(cicy, d, g).members()
                    points += 1
        monkeypatch.undo()
        assert Counter(type(record) for record in built) == {
            Clause: 2 * points, StatedVerdict: points, Certificate: points,
            _Object: points}
        for made in built:
            fresh = type(made)(*made)
            assert type(fresh) is type(made) and fresh == made

    def test_warnings_are_shared(self):
        # Certificate.warnings returns one of eight tuples built at import:
        # each equals the tuple built from its flags, in their order
        names = (WARN_DISAGREEMENT, WARN_EXTRAPOLATED, WARN_TABLE_DISCREPANCY)
        assert len(_WARNINGS) == len(set(_WARNINGS.values())) == 8
        for flags, warnings in _WARNINGS.items():
            assert warnings == tuple([name for name, on in zip(names, flags)
                                      if on])
        reached = set()
        for cicy in CicyType:
            for c in enumerate_region(cicy, 60, 12):
                rows = c.derived.rows
                flags = (c.stated.accept != c.derived.accept,
                         any(a.knutsen.extrapolated for a in rows),
                         any(a.viable and a.row in _DISCREPANT_ROWS
                             for a in rows))
                assert c.warnings is _WARNINGS[flags]
                reached.add(flags)
        assert len(reached) == 6  # as on the stated literal oracle's box

    def test_columns_answer_alike_in_any_order(self):
        # a column builds its derived verdicts on first need: read in a
        # shuffled order of d, each certificate of a column equals a fresh one
        # for its point
        rng, points = random.Random(2026), 0
        for cicy in CicyType:
            for g in range(-3, 20):
                column, ds = _Column(cicy, g), list(range(-3, 60))
                rng.shuffle(ds)
                for d in ds:
                    certificate, fresh = column.certify(d), certify(cicy, d, g)
                    assert certificate == fresh, (cicy, d, g)
                    assert certificate.warnings == fresh.warnings
                    points += 1
        assert points == 7245

    def test_single_calls_return_new_records(self):
        # each call builds a one-point column
        for call in (certify, stated_conditions, derived_conditions):
            first, second = (call(CicyType.QUINTIC, 20, 2) for _ in "ab")
            assert first == second and first is not second
        first, second = (certify(CicyType.QUINTIC, 20, 2) for _ in "ab")
        assert first.stated is not second.stated
        assert first.derived is not second.derived
        assert all(a is not b for a, b in zip(first.derived.rows,
                                              second.derived.rows))


class TestVerifyNodeTable:
    def test_exactly_ten_records(self):
        assert len(verify_node_table()) == 10

    def test_single_known_discrepancy(self):
        checks = verify_node_table()
        disagreements = [c for c in checks if not c.agree]
        assert len(disagreements) == 1
        check = disagreements[0]
        assert check.row.cicy is CicyType.BICUBIC
        assert check.row.k3_degrees == (2, 2, 2)
        assert check.row.nodes == 32
        assert check.computed == 24

    def test_table_not_mutated(self):
        before = [(r.cicy, r.k3_degrees, r.nodes) for r in node_table()]
        verify_node_table()
        after = [(r.cicy, r.k3_degrees, r.nodes) for r in node_table()]
        assert before == after

    def test_porteous_count_never_recomputed(self, monkeypatch):
        expected = verify_node_table()

        def refuse(*args):
            raise AssertionError("degeneracy_count called after import")

        monkeypatch.setattr("rigidcurves.chern.degeneracy_count", refuse)
        monkeypatch.setattr(
            sys.modules["rigidcurves.certify"], "degeneracy_count", refuse,
            raising=False,
        )
        certificate = certify(CicyType.BICUBIC, 6, 2)
        assert certificate.derived.chosen.row.k3_degrees == (2, 2, 2)
        assert WARN_TABLE_DISCREPANCY in certificate.warnings
        checks = verify_node_table()
        assert checks == expected
        checks.clear()
        assert verify_node_table() == expected


class TestEnumerate:
    def test_rational_sweep_on_quintic(self):
        certificates = list(enumerate_region(CicyType.QUINTIC, 4, 0))
        assert len(certificates) == 4
        assert all(c.derived.accept and c.count == 1 for c in certificates)

    def test_bicubic_sweep_includes_exceptional_pair(self):
        certificates = list(enumerate_region(CicyType.BICUBIC, 3, 1))
        accepted = {(c.d, c.g) for c in certificates if c.derived.accept}
        assert (3, 1) in accepted

    def test_empty_region(self):
        assert list(enumerate_region(CicyType.QUINTIC, 0, 0)) == []

    def test_region_cardinality(self):
        d_max, g_max = 9, 4
        certificates = list(
            enumerate_region(CicyType.QUARTIC_QUADRIC, d_max, g_max)
        )
        expected = sum(
            max(0, d_max - max(1, 2 * g - 3) + 1) for g in range(g_max + 1)
        )
        assert len(certificates) == expected

    def test_deterministic_order_and_content(self):
        first = list(enumerate_region(CicyType.CUBIC_TWO_QUADRICS, 6, 3))
        second = list(enumerate_region(CicyType.CUBIC_TWO_QUADRICS, 6, 3))
        assert first == second
        coords = [(c.g, c.d) for c in first]
        assert coords == sorted(coords)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            enumerate_region(CicyType.QUINTIC, -1, 0)
        with pytest.raises(ValueError):
            enumerate_region(CicyType.QUINTIC, 0, -2)
        with pytest.raises(ValueError):
            enumerate_region(CicyType.QUINTIC, 10_001, 0)
        assert next(enumerate_region(CicyType.QUINTIC, 10_000, 0)).d == 1

    def test_last_genus_within_degree_reach_kept(self):
        # g = 21 is the largest genus with 2g - 3 <= 40
        last = list(enumerate_region(CicyType.QUINTIC, 40, 21))[-2:]
        assert [(c.d, c.g) for c in last] == [(39, 21), (40, 21)]

    def test_genus_beyond_degree_reach_adds_nothing(self, monkeypatch):
        # g > (d_max + 3) // 2 has no d with 2g - 3 <= d <= d_max
        assert list(enumerate_region(CicyType.QUINTIC, 10, 10**9)) == list(
            enumerate_region(CicyType.QUINTIC, 10, 6)
        )
        # nor is a column built for it: at an even d_max the genus one past
        # the reach has 2g - 3 = d_max + 1, so only the columns built show it
        module = sys.modules["rigidcurves.certify"]
        for d_max in (10, 40):
            built = []

            class Column(_Column):
                def __init__(self, cicy, g):
                    built.append(g)
                    super().__init__(cicy, g)
            monkeypatch.setattr(module, "_Column", Column)
            certificates = list(enumerate_region(CicyType.QUINTIC, d_max,
                                                 10**9))
            monkeypatch.undo()
            assert built == sorted({c.g for c in certificates})

    @pytest.mark.parametrize("cicy", list(CicyType))
    def test_region_equals_pointwise_calls(self, cicy):
        # the box holds every genus's lattice-route floor d = 2g - 3, 2g - 2,
        # every exceptional and forbidden pair, and the (2,2,2,2) rays
        # {g = 7, d >= 12} and {g = 8, d >= 13}
        points = [(d, g) for g in range(21)
                  for d in range(max(1, 2 * g - 3), 61)]
        assert {*FORBIDDEN_PAIRS.values(), *EXCEPTIONAL_PAIRS.values(),
                (12, 7), (13, 8)} <= set(points)
        region = list(enumerate_region(cicy, 60, 20))
        pointwise = [certify(cicy, d, g) for d, g in points]
        assert region == pointwise
        assert [c.to_dict() for c in region] == [
            c.to_dict() for c in pointwise]
        for c in pointwise:
            assert stated_conditions(cicy, c.d, c.g) == c.stated
            assert derived_conditions(cicy, c.d, c.g) == c.derived
        ray = [c for c in region if c.g in (7, 8) and c.d >= c.g + 5]
        assert all(c.stated.accept != c.derived.accept for c in ray) == (
            cicy is CicyType.FOUR_QUADRICS)

    @pytest.mark.parametrize(
        "cicy, disagreements",
        [
            (CicyType.QUINTIC, 0),
            (CicyType.QUARTIC_QUADRIC, 4),
            (CicyType.BICUBIC, 0),
            (CicyType.CUBIC_TWO_QUADRICS, 3),
            (CicyType.FOUR_QUADRICS, 377),
        ],
    )
    def test_disagreement_oracle(self, cicy, disagreements):
        # regression oracle for both modes: over d <= 200, g <= 40 every
        # disagreement is stated-accept / derived-reject, and is warned about
        certificates = list(enumerate_region(cicy, 200, 40))
        split = [
            c for c in certificates if c.stated.accept != c.derived.accept
        ]
        assert len(split) == disagreements
        assert all(c.stated.accept and not c.derived.accept for c in split)
        warned = [c for c in certificates if WARN_DISAGREEMENT in c.warnings]
        assert warned == split
