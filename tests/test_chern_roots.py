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
    _fold,
    excess_bundle,
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

# A bundle is drawn as a list of (sign, atom kind) pairs; an atom kind is
# ("twist", k), ("cotangent",) or ("hyperplane",).  The reference evaluates
# that list atom by atom; the library gets the same bundle through its
# public constructors.


def _reference_atom_chern(kind, ell):
    one_minus_h = TruncatedSeries.from_polynomial((1, -1), ell)
    if kind[0] == "twist":
        return TruncatedSeries.from_polynomial((1, kind[1]), ell)
    if kind[0] == "cotangent":
        return int_pow(one_minus_h, ell + 1)
    return invert(one_minus_h)


def reference_total_chern(terms, ell):
    """Atom-by-atom evaluation: each atom's own series raised to its net
    multiplicity by powering, then multiplied together."""
    net = Counter()
    for sign, kind in terms:
        net[kind] += sign
    result = TruncatedSeries.one(ell)
    for kind, exponent in net.items():
        if exponent:
            result = mul(result, int_pow(_reference_atom_chern(kind, ell), exponent))
    return result


_CONSTRUCTORS = {
    "twist": LineTwist,
    "cotangent": ProjectiveCotangent,
    "hyperplane": HyperplaneSheaf,
}


def build(terms):
    expr = BundleExpr()
    for sign, kind in terms:
        atom = _CONSTRUCTORS[kind[0]](*kind[1:])
        expr = expr + atom if sign == 1 else expr - atom
    return expr


def negated(terms):
    return [(-sign, kind) for sign, kind in terms]


kinds = st.one_of(
    st.integers(-4, 5).map(lambda k: ("twist", k)),
    st.sampled_from((("twist", 0), ("twist", -1),
                     ("cotangent",), ("hyperplane",))),
)
term_lists = st.lists(st.tuples(st.sampled_from((1, -1)), kinds), max_size=8)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(term_lists, st.integers(0, 12))
    def test_matches_atom_by_atom_evaluation(self, terms, ell):
        assert total_chern(build(terms), ell) == reference_total_chern(terms, ell)

    @settings(max_examples=100, deadline=None)
    @given(term_lists, term_lists, st.integers(0, 12))
    def test_cancelling_pairs_drop_out(self, terms, extra, ell):
        padded = build(terms) + build(extra) - build(extra)
        padded_terms = terms + extra + negated(extra)
        assert total_chern(padded, ell) == total_chern(build(terms), ell)
        assert total_chern(padded, ell) == reference_total_chern(padded_terms, ell)

    def test_zero_twist_is_trivial(self):
        expr = BundleExpr.sum_of_line_twists([0, 0]) - BundleExpr.sum_of_line_twists([0])
        assert total_chern(expr, 4).is_one()

    def test_coefficients_are_fractions(self):
        terms = [(1, ("twist", 3)), (1, ("twist", -1)), (-1, ("hyperplane",))]
        expr = BundleExpr.sum_of_line_twists([3, -1]) - HyperplaneSheaf()
        assert expr == build(terms)
        for series in (total_chern(expr, 5), reference_total_chern(terms, 5)):
            assert all(type(c) is Fraction for c in series.coeffs)


def reference_fold(roots):
    """The normal form of a root multiset, summed in a Counter."""
    merged = Counter()
    for c, e in roots:
        merged[c] += e
    return tuple(sorted((c, e) for c, e in merged.items() if c and e))


# small ranges, so that root 0, zero exponents and repeated roots are common
root_lists = st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                      max_size=10)


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(root_lists, root_lists, st.randoms(use_true_random=False))
    def test_matches_counter_reference(self, roots, pairs, rng):
        roots = roots + pairs + [(c, -e) for c, e in pairs]
        rng.shuffle(roots)
        assert _fold(iter(roots)) == reference_fold(roots)

    def test_normal_form(self):
        roots = [(0, 5), (2, 0), (3, 1), (-1, 2), (3, -1), (-1, 1), (4, 2)]
        assert _fold(roots) == ((-1, 3), (4, 2))
        assert _fold([]) == ()


class TestSemanticEquality:
    """Equal virtual classes compare equal, however they were built."""

    @settings(max_examples=100, deadline=None)
    @given(term_lists, term_lists)
    def test_adding_and_subtracting_cancels(self, a_terms, b_terms):
        a, b = build(a_terms), build(b_terms)
        assert a + b - b == a
        assert hash(a + b - b) == hash(a)
        assert a + b == b + a

    def test_trivial_bundles_are_the_zero_bundle(self):
        assert LineTwist(0) == BundleExpr()
        assert HyperplaneSheaf() - HyperplaneSheaf() == BundleExpr()
        assert ProjectiveCotangent() - ProjectiveCotangent() == BundleExpr()


class TestLargeExcessCount:
    @pytest.mark.parametrize("ell", [150, 300, 540, 600])
    def test_fixed_points(self, ell):
        for n in (ell + 2, 2 * ell):
            assert excess_count(ExcessProblem(n, ell)) == math.comb(n - 2, ell)

    def test_largest_count_the_cli_admits(self):
        # --n stops at ENUMERATION_GUARD = 10000, and C(9998, ell) peaks at
        # ell = 4999, so the recurrence carries its largest integers here
        assert excess_count(ExcessProblem(10000, 4999)) == math.comb(9998, 4999)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_up_to_ell_400(self, data):
        ell = data.draw(st.integers(0, 400), label="ell")
        n = data.draw(st.integers(ell + 2, 2 * ell + 2), label="n")
        assert excess_count(ExcessProblem(n, ell)) == math.comb(n - 2, ell)

    def test_work_does_not_grow_with_node_count(self):
        # the excess bundle is one folded root whatever n is, so a huge n
        # at small ell costs no more than a small one
        assert excess_count(ExcessProblem(10**6, 2)) == math.comb(10**6 - 2, 2)
        assert total_chern(excess_bundle(10**12), 3) == binomial_series(
            -1, 4 - 10**12, 3
        )


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


# the step ``term * factor // k`` is exact only for an int root: a fractional
# one would be floored, (1 + h/2)**2 read as 1 + h
@pytest.mark.parametrize("root", [Fraction(1, 2), Fraction(3), 0.5])
def test_binomial_series_rejects_non_integer_root(root):
    with pytest.raises(TypeError, match="root must be an int"):
        binomial_series(root, 2, 3)
    with pytest.raises(TypeError, match="root must be an int"):
        binomial_series(root, -1, 3)
    with pytest.raises(TypeError, match="root must be an int"):
        total_chern(BundleExpr(((root, 1),)), 3)
