import random

import pytest

from rigidcurves.chern import (
    BundleExpr,
    ExcessProblem,
    HyperplaneSheaf,
    HypothesisError,
    InvalidEmbeddingError,
    LineTwist,
    ProjectiveCotangent,
    degeneracy_count,
    excess_bundle,
    excess_count,
    rigid_count,
    total_chern,
)
from rigidcurves.certify import node_table
from rigidcurves.series import TruncatedSeries, mul


def series(*coeffs):
    return TruncatedSeries(len(coeffs) - 1, tuple(coeffs))


class TestTotalChern:
    def test_cotangent_on_plane(self):
        assert total_chern(ProjectiveCotangent(), 2) == series(1, -3, 3)

    def test_hyperplane_sheaf_on_plane(self):
        assert total_chern(HyperplaneSheaf(), 2) == series(1, 1, 1)

    def test_virtual_difference_of_twists(self):
        expr = BundleExpr.sum_of_line_twists([5]) - BundleExpr.sum_of_line_twists([4, 1])
        assert total_chern(expr, 2) == series(1, 0, -4)

    def test_cancellation_of_opposite_terms(self):
        expr = BundleExpr.sum_of_line_twists([3]) - BundleExpr.sum_of_line_twists([3])
        assert total_chern(expr, 5).is_one()

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(777)
        atoms = [LineTwist(-2), LineTwist(1), LineTwist(4),
                 ProjectiveCotangent(), HyperplaneSheaf()]

        def random_bundle():
            expr = BundleExpr()
            for _ in range(rng.randint(0, 5)):
                atom = rng.choice(atoms)
                expr = expr + atom if rng.random() < 0.5 else expr - atom
            return expr

        for _ in range(40):
            ell = rng.randint(0, 8)
            e1, e2 = random_bundle(), random_bundle()
            combined = total_chern(e1 + e2, ell)
            assert combined == mul(total_chern(e1, ell), total_chern(e2, ell))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            total_chern(BundleExpr(()), -1)


class TestExcessCount:
    def test_minimal_pair(self):
        assert excess_count(ExcessProblem(4, 2)) == 1

    def test_zero_dimensional_system(self):
        for n in range(2, 11):
            assert excess_count(ExcessProblem(n, 0)) == 1

    def test_pascal_value(self):
        assert excess_count(ExcessProblem(16, 3)) == 364

    def test_hypothesis_enforced_at_construction(self):
        with pytest.raises(HypothesisError):
            ExcessProblem(3, 2)
        with pytest.raises(ValueError):
            ExcessProblem(4, -1)

    def test_excess_bundle_shape(self):
        # one cotangent and n hyperplane sheaves fold to the root -1 once
        expr = excess_bundle(3)
        assert (expr.roots, expr.cotangents) == (((-1, -3),), 1)
        assert expr == ProjectiveCotangent() + HyperplaneSheaf() + (
            HyperplaneSheaf() + HyperplaneSheaf()
        )
        assert excess_bundle(0) == ProjectiveCotangent()

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            excess_bundle(-1)

    def test_agrees_with_rigid_count_on_grid(self):
        for ell in range(0, 11):
            for n in range(ell + 2, 25):
                assert excess_count(ExcessProblem(n, ell)) == rigid_count(n, ell)

    def test_strictly_positive(self):
        for ell in range(0, 11):
            for n in range(ell + 2, 25):
                assert excess_count(ExcessProblem(n, ell)) > 0


class TestRigidCount:
    def test_boundary_is_one(self):
        assert rigid_count(8, 6) == 1

    def test_handmade_values(self):
        assert rigid_count(36, 2) == 561
        assert rigid_count(16, 3) == 364

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            rigid_count(5, 4)

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError):
            rigid_count(5, -1)

    def test_large_count_is_exact(self):
        # C(34, 17) = 2333606220 exceeds 32-bit and a float's exact range
        assert rigid_count(36, 17) == 2333606220
        assert rigid_count(36, 15) == rigid_count(36, 19)  # C(34,k) symmetry


class TestDegeneracyCount:
    def test_quintic_with_quartic_k3(self):
        assert degeneracy_count((5,), (4, 1)) == 16

    def test_quartic_quadric_with_sextic_k3(self):
        assert degeneracy_count((4, 2), (3, 2, 1)) == 18

    def test_bicubic_with_octic_k3(self):
        # the tabulated value for this row is 32; the computation says 24
        assert degeneracy_count((3, 3), (2, 2, 2)) == 24

    def test_all_table_rows(self):
        expected = [16, 36, 4, 18, 32, 12, 24, 6, 16, 8]
        rows = node_table()
        computed = [
            degeneracy_count(row.cicy.degrees, row.k3_degrees) for row in rows
        ]
        assert computed == expected

    def test_first_chern_class_vanishes_on_table_rows(self):
        # sum(b) == sum(a) on every row, so the h-coefficient must cancel
        for row in node_table():
            expr = BundleExpr.sum_of_line_twists(row.cicy.degrees)
            expr = expr - BundleExpr.sum_of_line_twists(row.k3_degrees)
            assert total_chern(expr, 2).coefficient(1) == 0

    def test_pair_off_the_table_with_nonzero_first_chern_class(self):
        # total class 1 + h - 7h^2, so (1 + 7) * 3 = 24; c1 = 1 here
        assert degeneracy_count((5,), (3, 1)) == 24

    def test_sorting_is_input_order_independent(self):
        assert degeneracy_count((2, 4), (1, 3, 2)) == degeneracy_count(
            (4, 2), (3, 2, 1)
        )

    @pytest.mark.parametrize(
        "b, a",
        [
            ((5,), (4,)),          # K3 list must be one longer
            ((3, 3), (2, 2, 2, 2)),
            ((2, 2), (3, 1, 1)),   # threefold degrees must dominate
            ((3, 0), (2, 1, 1)),   # degrees must be positive
        ],
    )
    def test_shape_violations(self, b, a):
        with pytest.raises(InvalidEmbeddingError):
            degeneracy_count(b, a)

    @pytest.mark.parametrize("b, a, shown", [
        ((1,), (2, 1), "(1,) do not dominate K3 degrees (2, 1)"),
        ((2, 2), (1, 3, 1), "(2, 2) do not dominate K3 degrees (3, 1, 1)"),
    ], ids=["one-degree", "two-degrees"])
    def test_dominance_message_prints_sorted_tuples(self, b, a, shown):
        with pytest.raises(InvalidEmbeddingError) as raised:
            degeneracy_count(b, a)
        assert str(raised.value) == "threefold degrees " + shown
