import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidcurves.series
from rigidcurves.series import (
    NonUnitError,
    OrderMismatchError,
    TruncatedSeries,
    binomial_series,
    int_pow,
    invert,
    mul,
)


def series(*coeffs):
    return TruncatedSeries(len(coeffs) - 1, tuple(coeffs))


class _Int(int):
    pass


class _Float(float):
    pass


class _Fraction(Fraction):
    pass


def random_series(rng, order, unit=False):
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(order + 1)
    ]
    if unit:
        sign = 1 if rng.random() < 0.5 else -1
        coeffs[0] = Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))
    return TruncatedSeries(order, tuple(coeffs))


class TestConstruction:
    def test_coefficient_count_must_match_order(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, (1, 2))
        with pytest.raises(ValueError):
            TruncatedSeries(1, (1, 2, 3))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(-1, ())

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries(1, (1.0, 2))

    def test_integers_kept_as_is(self):
        big = 10**40
        s = series(1, 2, big)
        assert [type(c) for c in s.coeffs] == [int] * 3
        assert s.coeffs == (1, 2, big)
        assert s.coeffs[2] is big

    def test_fraction_coefficients_kept_as_is(self):
        f, g = Fraction(1, 3), Fraction(2)
        s = TruncatedSeries(1, (f, g))
        assert s.coeffs[0] is f
        assert s.coeffs[1] is g

    def test_every_other_exact_coefficient_becomes_a_fraction(self):
        s = series(3, True, False, _Int(4), Fraction(1, 3), _Fraction(2),
                   "1/5")
        assert [type(c) for c in s.coeffs] == [int] + [Fraction] * 6
        assert s.coeffs == (3, 1, 0, 4, Fraction(1, 3), 2, Fraction(1, 5))

    def test_ints_equal_and_hash_as_the_equal_fractions(self):
        ints = series(1, -3, 10**40, 0)
        fractions = series(*map(Fraction, (1, -3, 10**40, 0)))
        assert [type(c) for c in ints.coeffs] == [int] * 4
        assert [type(c) for c in fractions.coeffs] == [Fraction] * 4
        assert ints == fractions
        assert hash(ints) == hash(fractions)

    @pytest.mark.parametrize("value", [_Float(2.0), float("nan")],
                             ids=["float-subclass", "nan"])
    def test_float_and_float_subclass_rejected(self, value):
        with pytest.raises(TypeError, match="not floats"):
            TruncatedSeries(1, (1, value))

    def test_ints_and_fractions_make_no_conversion_call(self, monkeypatch):
        exact, calls = rigidcurves.series._exact, []

        def counted(value):
            calls.append(value)
            return exact(value)

        monkeypatch.setattr(rigidcurves.series, "_exact", counted)
        a = TruncatedSeries(3, (1, Fraction(1, 2), -4, Fraction(5)))
        int_pow(mul(a, invert(a)), -3)
        binomial_series(-1, -40, 30)
        assert calls == []
        series(True, _Int(2))  # every other value still goes through it
        assert calls == [True, 2]

    def test_from_polynomial_pads_and_truncates(self):
        assert TruncatedSeries.from_polynomial((1, 5), 3) == series(1, 5, 0, 0)
        assert TruncatedSeries.from_polynomial((1, 5), 0) == series(1)

    def test_coefficient_past_order_rejected(self):
        s = series(1, 2, 3)
        assert s.coefficient(2) == 3
        with pytest.raises(ValueError):
            s.coefficient(3)

    # each message printed the number and so carried Python's "Exceeds the
    # limit" text past the int-to-str limit; it names sign and bit length
    @pytest.mark.parametrize("call, message", [
        (lambda: TruncatedSeries(-(10**5000), ()),
         "order must be nonnegative, got -<16610-bit integer>"),
        (lambda: TruncatedSeries(10**5000, ()),
         "order <16610-bit integer> needs <16610-bit integer> coefficients, "
         "got 0"),
        (lambda: TruncatedSeries.one(2).coefficient(10**5000),
         "degree <16610-bit integer> outside 0..2"),
        (lambda: TruncatedSeries(-1, ()), "order must be nonnegative, got -1"),
        (lambda: TruncatedSeries(2, (1, 2)),
         "order 2 needs 3 coefficients, got 2"),
        (lambda: series(1, 2, 3).coefficient(-1), "degree -1 outside 0..2"),
    ], ids=["negative-order", "order-count", "coefficient",
            "small-negative-order", "small-order-count", "small-coefficient"])
    def test_messages_past_the_int_to_str_limit(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message

    # an integral float or Fraction order would pass the coefficient-count
    # check, and the series would fail later, in mul, with an unrelated
    # TypeError
    @pytest.mark.parametrize("build", [
        lambda order: TruncatedSeries(order, (1, 2, 3)),
        lambda order: binomial_series(1, 2, order),
    ], ids=["constructor", "binomial-series"])
    @pytest.mark.parametrize("order, error, message", [
        (2.0, TypeError, "order must be an int, got float"),
        (Fraction(2), TypeError, "order must be an int, got Fraction"),
        (-1, ValueError, "order must be nonnegative, got -1"),
        (-(10**5000), ValueError,
         "order must be nonnegative, got -<16610-bit integer>"),
    ], ids=["float", "fraction", "negative", "past-int-to-str-limit"])
    def test_order_checked_by_both_builders(self, build, order, error,
                                            message):
        with pytest.raises(error) as raised:
            build(order)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_bool_order_is_an_int(self):
        assert TruncatedSeries(True, (1, 2)) == series(1, 2)
        assert binomial_series(1, 2, True) == series(1, 2)


class TestIsOne:
    def test_linear_term_counts(self):
        assert not TruncatedSeries(1, (1, 1)).is_one()


class TestMul:
    def test_difference_of_squares(self):
        assert mul(series(1, 2, 0), series(1, -2, 0)) == series(1, 0, -4)

    def test_geometric_telescoping(self):
        assert mul(series(1, -1, 0), series(1, 1, 1)) == series(1, 0, 0)

    def test_binomial_square(self):
        half = Fraction(1, 2)
        sq = mul(series(1, half, 0), series(1, half, 0))
        assert sq == series(1, 1, Fraction(1, 4))

    def test_order_mismatch_is_an_error(self):
        with pytest.raises(OrderMismatchError):
            mul(series(1, 1), series(1, 1, 1))

    def test_commutative_and_associative(self):
        rng = random.Random(101)
        for _ in range(50):
            order = rng.randint(0, 12)
            a = random_series(rng, order)
            b = random_series(rng, order)
            c = random_series(rng, order)
            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_integral_input_gives_ints(self):
        product = mul(series(1, 2, 3), series(4, 5, 6))
        assert product.coeffs == (4, 13, 28)
        assert [type(c) for c in product.coeffs] == [int] * 3


class TestInvert:
    def test_identity(self):
        assert invert(series(1, 0, 0, 0)) == series(1, 0, 0, 0)

    def test_geometric_series(self):
        assert invert(series(1, -1, 0, 0, 0)) == series(1, 1, 1, 1, 1)

    def test_long_division_case(self):
        inv = invert(series(1, 6, 12))
        assert inv == series(1, -6, 24)
        assert mul(series(1, 6, 12), inv).is_one()

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            invert(series(0, 1, 0))

    def test_inverse_property_random(self):
        rng = random.Random(202)
        for _ in range(100):
            a = random_series(rng, rng.randint(0, 12), unit=True)
            assert mul(a, invert(a)).is_one()

    def test_integral_input_gives_fractions(self):
        inverse = invert(series(1, 3, 0))
        assert inverse == series(1, -3, 9)
        assert all(type(c) is Fraction for c in inverse.coeffs)

    def test_int_unit_inverse_has_no_float(self):
        a = TruncatedSeries(2, (3, 1, 0))
        inverse = invert(a)
        assert [type(c) for c in inverse.coeffs] == [Fraction] * 3
        assert inverse.coeffs == (Fraction(1, 3), Fraction(-1, 9),
                                  Fraction(1, 27))
        assert mul(a, inverse).is_one()


class TestIntPow:
    def test_binomial_square(self):
        assert int_pow(series(1, 1, 0), 2) == series(1, 2, 1)

    def test_power_one_is_identity(self):
        rng = random.Random(303)
        for _ in range(20):
            a = random_series(rng, rng.randint(0, 8))
            assert int_pow(a, 1) == a

    def test_power_zero_is_one(self):
        assert int_pow(series(2, 3, 4), 0).is_one()

    def test_negative_power_binomial_series(self):
        assert int_pow(series(1, -1, 0), -2) == series(1, 2, 3)

    def test_negative_power_of_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            int_pow(series(0, 1), -1)

    def test_exponent_addition_random(self):
        rng = random.Random(404)
        for _ in range(60):
            a = random_series(rng, rng.randint(0, 10), unit=True)
            e1 = rng.randint(-6, 6)
            e2 = rng.randint(-6, 6)
            lhs = int_pow(a, e1 + e2)
            rhs = mul(int_pow(a, e1), int_pow(a, e2))
            assert lhs == rhs


class TestBinomialSeries:
    def test_zeroth_power(self):
        assert binomial_series(1, 0, 2) == series(1, 0, 0)

    def test_cube_of_one_plus_2h(self):
        assert binomial_series(2, 3, 2) == series(1, 6, 12)

    def test_geometric_series(self):
        assert binomial_series(-1, -1, 3) == series(1, 1, 1, 1)

    def test_agrees_with_int_pow(self):
        for c in range(-5, 6):
            for e in range(-5, 6):
                for order in (0, 3, 7, 10):
                    direct = binomial_series(c, e, order)
                    base = TruncatedSeries.from_polynomial((1, c), order)
                    assert direct == int_pow(base, e), (c, e, order)

    # the result is built past the constructor's scan, so nothing at run
    # time checks its length or its coefficient types
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-5, 5), st.integers(-60, 60), st.integers(0, 80))
    def test_result_is_what_the_constructor_builds(self, c, e, order):
        s = binomial_series(c, e, order)
        assert type(s) is TruncatedSeries
        assert s == TruncatedSeries(order, s.coeffs)
        assert len(s.coeffs) == order + 1
        assert [type(k) for k in s.coeffs] == [int] * (order + 1)

    @pytest.mark.parametrize("order", [0, 1, 64, 520])
    def test_closed_form_at_large_order(self, order):
        # an inexact // in the recurrence would first show at large order
        for c in (-3, -2, -1, 0, 1, 2, 5):
            for e in (-600, -37, -1, 0, 1, 7, 600):
                expected = tuple(
                    (comb(e, k) if e >= 0
                     else (-1) ** k * comb(k - e - 1, k)) * c**k
                    for k in range(order + 1))
                assert binomial_series(c, e, order).coeffs == expected, (c, e)
