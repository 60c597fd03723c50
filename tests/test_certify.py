import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidcurves.certify import (
    CicyType,
    EmbeddingRow,
    WARN_DISAGREEMENT,
    WARN_EXTRAPOLATED,
    WARN_TABLE_DISCREPANCY,
    certify,
    derived_conditions,
    enumerate_region,
    node_table,
    stated_conditions,
    verify_node_table,
)
from rigidcurves.chern import ExcessProblem, excess_count, rigid_count
from rigidcurves.k3 import DegreeRangeError, NonspecialityRoute

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


def floor_edges(test):
    """Add ``@example``s at d = 2g - 3 and d = 2g - 4 (g = 5, 8) for every
    family to a ``(cicy, d, g)`` property."""
    for cicy in CicyType:
        for g in (5, 8):
            for d in (2 * g - 3, 2 * g - 4):
                test = example(cicy, d, g)(test)
    return test


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

    @pytest.mark.parametrize(
        "cicy, pair",
        [
            (CicyType.QUINTIC, (5, 3)),
            (CicyType.QUARTIC_QUADRIC, (5, 3)),
            (CicyType.BICUBIC, (7, 4)),
            (CicyType.CUBIC_TWO_QUADRICS, (7, 4)),
            (CicyType.FOUR_QUADRICS, (9, 5)),
        ],
    )
    def test_forbidden_pairs_all_families(self, cicy, pair):
        d, g = pair
        verdict = stated_conditions(cicy, d, g)
        assert not verdict.accept and verdict.reason == "forbidden-pair"

    @pytest.mark.parametrize(
        "cicy, pair",
        [
            (CicyType.BICUBIC, (3, 1)),
            (CicyType.CUBIC_TWO_QUADRICS, (3, 1)),
            (CicyType.FOUR_QUADRICS, (4, 1)),
        ],
    )
    def test_exceptional_pairs_all_families(self, cicy, pair):
        d, g = pair
        assert stated_conditions(cicy, d, g).accept


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


class TestCertify:
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

    def test_genus_beyond_degree_reach_adds_nothing(self):
        # g > (d_max + 3) // 2 has no d with 2g - 3 <= d <= d_max
        assert list(enumerate_region(CicyType.QUINTIC, 10, 10**9)) == list(
            enumerate_region(CicyType.QUINTIC, 10, 6)
        )

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
