"""The Chern-root evaluator against an atom-by-atom reference, large counts,
and the independence of the two count routes."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidcurves.chern
import rigidcurves.series
from rigidcurves.chern import (
    COUNT_WORK_BOUND,
    BundleExpr,
    ExcessProblem,
    HyperplaneSheaf,
    HypothesisError,
    LineTwist,
    ProjectiveCotangent,
    WorkBoundError,
    _fold,
    degeneracy_count,
    excess_bundle,
    excess_count,
    rigid_count,
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

    def test_coefficient_types_of_each_route(self):
        # binomial series and their products stay int; the reference's
        # invert makes Fractions, and the two are equal all the same
        terms = [(1, ("twist", 3)), (1, ("twist", -1)), (-1, ("hyperplane",))]
        expr = BundleExpr.sum_of_line_twists([3, -1]) - HyperplaneSheaf()
        assert expr == build(terms)
        library, reference = total_chern(expr, 5), reference_total_chern(terms, 5)
        assert [type(c) for c in library.coeffs] == [int] * 6
        assert [type(c) for c in reference.coeffs] == [Fraction] * 6
        assert library == reference


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

    def test_counts_are_exact_ints(self):
        for count in (excess_count(ExcessProblem(36, 17)),
                      excess_count(ExcessProblem(10**6, 2)),
                      degeneracy_count((5,), (4, 1)),
                      degeneracy_count((2, 2, 2, 2), (2, 2, 2, 1, 1))):
            assert type(count) is int


class TestWorkBound:
    # n = 16383 is the largest 14-bit count: ell = 9998 sits on the bound
    # and holds a series of about 14 MB, ell = 9999 is the first past it
    def test_bound_is_the_largest_cli_input(self):
        assert COUNT_WORK_BOUND == 9998 * (10000).bit_length()

    def test_count_at_the_bound(self):
        assert 9998 * (16383).bit_length() == COUNT_WORK_BOUND
        assert excess_count(ExcessProblem(16383, 9998)) == math.comb(16381, 9998)

    @pytest.mark.parametrize("count", [
        lambda n, ell: excess_count(ExcessProblem(n, ell)), rigid_count,
    ], ids=["excess-count", "rigid-count"])
    @pytest.mark.parametrize("n, ell", [
        (16383, 9999), (16384, 9332), (2**3322, 43), (10**5000, 10**4999),
    ], ids=["first-past", "15-bit", "3323-bit", "past-int-to-str-limit"])
    def test_past_the_bound_builds_no_series(self, count, n, ell):
        assert ell * n.bit_length() > COUNT_WORK_BOUND
        tracemalloc.start()
        try:
            with pytest.raises(WorkBoundError, match=(
                    rf"^ell \* n.bit_length\(\) must be at most "
                    rf"{COUNT_WORK_BOUND}, got n=")):
                count(n, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one coefficient list at order 9332 alone takes 75 KB
        assert peak < 2**14

    def test_hypothesis_check_runs_first(self):
        # n < ell + 2 and far past the bound: the older error is kept
        with pytest.raises(HypothesisError):
            ExcessProblem(2**3322, 2**3322)


def test_count_routes_are_independent(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("excess_count must not use the combinatorial route")

    monkeypatch.setattr(math, "comb", forbidden)
    monkeypatch.setattr(rigidcurves.chern, "rigid_count", forbidden)
    assert excess_count(ExcessProblem(36, 17)) == 2333606220


def test_count_route_makes_no_constructor_or_conversion_call(monkeypatch):
    # binomial_series builds the one series of a count past
    # TruncatedSeries.__new__, and so past its conversion of coefficients
    new, exact, calls = TruncatedSeries.__new__, rigidcurves.series._exact, []

    def counted_new(cls, *args):
        calls.append("__new__")
        return new(cls, *args)

    def counted_exact(value):
        calls.append("_exact")
        return exact(value)

    monkeypatch.setattr(TruncatedSeries, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(rigidcurves.series, "_exact", counted_exact)
    assert excess_count(ExcessProblem(1000, 520)) == math.comb(998, 520)
    assert calls == []
    TruncatedSeries(1, (True, 2))  # the counters see what they count
    assert calls == ["__new__", "_exact"]


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
