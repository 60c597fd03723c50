import random
from fractions import Fraction

import pytest

from rigidcurves.k3 import (
    CURVE,
    HYPERPLANE,
    DegreeRangeError,
    DivisorClass,
    LatticeCorruptionError,
    NonspecialStatus,
    NonspecialityRoute,
    PicardLattice,
    UnsupportedPolarizationError,
    euler_char,
    knutsen_exists,
    lattice_nonspecial,
    nonspeciality_route,
    pair,
)


class TestLattice:
    def test_gram_matrix(self):
        L = PicardLattice(2, 5, 3)
        assert L.gram == ((4, 5), (5, 4))

    def test_hyperplane_curve_pairing_is_degree(self):
        L = PicardLattice(2, 5, 3)
        assert pair(L, HYPERPLANE, CURVE) == 5

    def test_difference_class_square(self):
        L = PicardLattice(3, 12, 7)
        D = CURVE - HYPERPLANE
        assert pair(L, D, D) == -6  # 2m - 2g + 2

    def test_difference_subtracts_both_coordinates(self):
        assert DivisorClass(2, 3) - DivisorClass(1, 1) == DivisorClass(1, 2)

    def test_pair_symmetric_random(self):
        rng = random.Random(11)
        for _ in range(100):
            L = PicardLattice(rng.randint(2, 4), rng.randint(1, 50), rng.randint(0, 20))
            D1 = DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5))
            D2 = DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5))
            assert pair(L, D1, D2) == pair(L, D2, D1)

    def test_pair_bilinear_random(self):
        rng = random.Random(12)
        for _ in range(100):
            L = PicardLattice(rng.randint(2, 4), rng.randint(1, 50), rng.randint(0, 20))
            D1 = DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5))
            D2 = DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5))
            E = DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5))
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            assert pair(L, x * D1 + y * D2, E) == x * pair(L, D1, E) + y * pair(L, D2, E)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PicardLattice(1, 5, 3)
        with pytest.raises(ValueError):
            PicardLattice(2, 0, 3)
        with pytest.raises(ValueError):
            PicardLattice(2, 5, -1)


class TestEulerChar:
    def test_trivial_class(self):
        L = PicardLattice(2, 5, 3)
        assert euler_char(L, DivisorClass(0, 0)) == 2

    def test_curve_class_gives_genus_plus_one(self):
        L = PicardLattice(2, 5, 3)
        assert euler_char(L, CURVE) == 4

    def test_polarization_class(self):
        L = PicardLattice(2, 7, 1)
        assert euler_char(L, HYPERPLANE) == 4  # 2m/2 + 2 with m = 2

    def test_odd_square_is_lattice_corruption(self):
        # an integral class has an even square; H/2 has square m/2 = 1
        L = PicardLattice(2, 9, 6)
        with pytest.raises(LatticeCorruptionError):
            euler_char(L, DivisorClass(Fraction(1, 2), 0))

    def test_lattice_identities_random(self):
        rng = random.Random(13)
        for _ in range(200):
            m = rng.randint(2, 4)
            g = rng.randint(0, 40)
            d = rng.randint(1, 100)
            L = PicardLattice(m, d, g)
            assert pair(L, CURVE, CURVE) == 2 * g - 2
            assert euler_char(L, CURVE) == g + 1
            D = CURVE - HYPERPLANE
            assert pair(L, D, D) == 2 * m + 2 * g - 2 - 2 * d

    def test_difference_class_square_at_critical_degree(self):
        # (C-H).(C-H) collapses to 2m - 2g + 2 exactly when d = 2g - 2
        rng = random.Random(15)
        for _ in range(200):
            m = rng.randint(2, 4)
            g = rng.randint(2, 40)
            L = PicardLattice(m, 2 * g - 2, g)
            D = CURVE - HYPERPLANE
            assert pair(L, D, D) == 2 * m - 2 * g + 2


class TestKnutsenExists:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_forbidden_pair(self, m):
        verdict = knutsen_exists(m, 2 * m + 1, m + 1)
        assert not verdict.exists
        assert verdict.clause == "forbidden-pair"

    def test_exceptional_pairs(self):
        # (3,1) and (4,1) fail the open bound at their half-degrees and are
        # rescued by the exceptional clause only there
        v3 = knutsen_exists(3, 3, 1)
        assert v3.exists and v3.clause == "exceptional-pair"
        v4 = knutsen_exists(4, 4, 1)
        assert v4.exists and v4.clause == "exceptional-pair"
        assert not knutsen_exists(4, 3, 1).exists
        # at m=2 the pair (3,1) passes the open bound outright: 8 < 9
        v2 = knutsen_exists(2, 3, 1)
        assert v2.exists and v2.clause == "genus-degree-bound"

    def test_strict_boundary(self):
        # 4mg = d^2 exactly: the strict inequality must fail
        verdict = knutsen_exists(2, 4, 2)
        assert not verdict.exists
        assert verdict.clause == "genus-degree-bound-failed"

    def test_generic_acceptance(self):
        verdict = knutsen_exists(2, 6, 2)
        assert verdict.exists and verdict.clause == "genus-degree-bound"
        assert not verdict.extrapolated

    def test_extrapolation_flag(self):
        assert knutsen_exists(2, 9, 6).extrapolated      # d = 2g - 3
        assert not knutsen_exists(2, 10, 6).extrapolated  # d = 2g - 2

    def test_rational_curves_allowed(self):
        for m in (2, 3, 4):
            assert knutsen_exists(m, 1, 0).exists

    def test_input_validation(self):
        with pytest.raises(UnsupportedPolarizationError):
            knutsen_exists(5, 10, 3)
        with pytest.raises(ValueError):
            knutsen_exists(2, 0, 3)
        with pytest.raises(ValueError):
            knutsen_exists(2, 5, -1)


class TestLatticeNonspecial:
    def test_conclusive(self):
        verdict = lattice_nonspecial(2, 9, 6)
        assert verdict.status is NonspecialStatus.NONSPECIAL

    def test_boundary_is_inconclusive(self):
        verdict = lattice_nonspecial(2, 8, 6)
        assert verdict.status is NonspecialStatus.INCONCLUSIVE

    def test_genus_floor(self):
        verdict = lattice_nonspecial(3, 9, 5)  # g = m + 2 exactly
        assert verdict.status is NonspecialStatus.NOT_APPLICABLE

    def test_small_polarization_not_applicable(self):
        assert lattice_nonspecial(1, 9, 6).status is NonspecialStatus.NOT_APPLICABLE

    def test_cited_hypotheses_recorded(self):
        verdict = lattice_nonspecial(2, 9, 6)
        assert "picard-rank-two" in verdict.assumed


class TestNonspecialityRoute:
    def test_riemann_roch(self):
        result = nonspeciality_route(2, 11, 5)
        assert result.route is NonspecialityRoute.RIEMANN_ROCH
        assert result.lattice is None

    def test_lattice_bound(self):
        result = nonspeciality_route(2, 9, 6)
        assert result.route is NonspecialityRoute.LATTICE_BOUND
        assert result.lattice.status is NonspecialStatus.NONSPECIAL

    def test_fail(self):
        result = nonspeciality_route(4, 9, 6)  # g = m + 2: lattice test inapplicable
        assert result.route is NonspecialityRoute.FAIL

    def test_out_of_range(self):
        for d in (5, 6):  # below the floor 2g - 3 = 7
            with pytest.raises(DegreeRangeError):
                nonspeciality_route(2, d, 5)

    def test_never_fails_above_riemann_roch_floor(self):
        rng = random.Random(14)
        for _ in range(200):
            m = rng.randint(2, 4)
            g = rng.randint(m + 3, 40)
            d = rng.randint(2 * g - 1, 2 * g + 30)
            result = nonspeciality_route(m, d, g)
            assert result.route is not NonspecialityRoute.FAIL
