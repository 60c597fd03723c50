"""The Chern-root evaluator against an atom-by-atom reference, large counts,
and the independence of the two count routes."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidcurves.chern
from rigidcurves.chern import (
    BundleExpr,
    ExcessProblem,
    HyperplaneSheaf,
    LineTwist,
    ProjectiveCotangent,
    excess_count,
    total_chern,
)
from rigidcurves.series import (
    TruncatedSeries,
    binomial_series,
    int_pow,
    invert,
    mul,
)


def _reference_atom_chern(atom, ell):
    one_minus_h = TruncatedSeries.from_polynomial((1, -1), ell)
    if isinstance(atom, LineTwist):
        return TruncatedSeries.from_polynomial((1, atom.twist), ell)
    if isinstance(atom, ProjectiveCotangent):
        return int_pow(one_minus_h, ell + 1)
    return invert(one_minus_h)


def reference_total_chern(expr, ell):
    """Atom-by-atom evaluation: each atom's own series raised to its net
    multiplicity by powering, then multiplied together."""
    net = Counter()
    for sign, atom in expr.terms:
        net[atom] += sign
    result = TruncatedSeries.one(ell)
    for atom, exponent in net.items():
        if exponent:
            result = mul(result, int_pow(_reference_atom_chern(atom, ell), exponent))
    return result


atoms = st.one_of(
    st.builds(LineTwist, st.integers(-4, 5)),
    st.sampled_from((LineTwist(0), LineTwist(-1),
                     ProjectiveCotangent(), HyperplaneSheaf())),
)
exprs = st.lists(
    st.tuples(st.sampled_from((1, -1)), atoms), max_size=8
).map(lambda terms: BundleExpr(tuple(terms)))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(exprs, st.integers(0, 12))
    def test_matches_atom_by_atom_evaluation(self, expr, ell):
        assert total_chern(expr, ell) == reference_total_chern(expr, ell)

    @settings(max_examples=100, deadline=None)
    @given(exprs, exprs, st.integers(0, 12))
    def test_cancelling_pairs_drop_out(self, expr, extra, ell):
        padded = expr + extra - extra
        assert total_chern(padded, ell) == total_chern(expr, ell)
        assert total_chern(padded, ell) == reference_total_chern(padded, ell)

    def test_zero_twist_is_trivial(self):
        expr = BundleExpr.sum_of_line_twists([0, 0]) - BundleExpr.sum_of_line_twists([0])
        assert total_chern(expr, 4).is_one()

    def test_coefficients_are_fractions(self):
        expr = BundleExpr.sum_of_line_twists([3, -1]) - BundleExpr(
            ((1, HyperplaneSheaf()),)
        )
        for series in (total_chern(expr, 5), reference_total_chern(expr, 5)):
            assert all(type(c) is Fraction for c in series.coeffs)


class TestLargeExcessCount:
    @pytest.mark.parametrize("ell", [150, 300, 540, 600])
    def test_fixed_points(self, ell):
        for n in (ell + 2, 2 * ell):
            assert excess_count(ExcessProblem(n, ell)) == math.comb(n - 2, ell)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_up_to_ell_400(self, data):
        ell = data.draw(st.integers(0, 400), label="ell")
        n = data.draw(st.integers(ell + 2, 2 * ell + 2), label="n")
        assert excess_count(ExcessProblem(n, ell)) == math.comb(n - 2, ell)


def test_count_routes_are_independent(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("excess_count must not use the combinatorial route")

    monkeypatch.setattr(math, "comb", forbidden)
    monkeypatch.setattr(rigidcurves.chern, "rigid_count", forbidden)
    assert excess_count(ExcessProblem(36, 17)) == 2333606220


@pytest.mark.parametrize("exponent", [Fraction(1, 2), Fraction(3), 2.0, "2"])
def test_binomial_series_rejects_non_integer_exponent(exponent):
    with pytest.raises(TypeError):
        binomial_series(-1, exponent, 4)
