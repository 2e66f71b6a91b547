"""Extended-range scalar arithmetic against exact rational oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from growthlab.erfloat import (ER_ZERO, ExponentOverflowError, ExtendedReal,
                               ec_arg, ec_from_log_polar, ec_ln_abs, ec_mul,
                               er_add, er_cmp, er_exp, er_from_float, er_ln,
                               er_mul, er_sub, er_to_float, format_extended)


def ER(sig, exp):
    return ExtendedReal(sig, exp)


def exact(a: ExtendedReal) -> Fraction:
    return Fraction(a.significand) * Fraction(2) ** a.exponent


def exact_cmp(a: ExtendedReal, b: ExtendedReal) -> int:
    """The exact order of a and b, by integer cross-multiplication: the
    significands are ratios of integers, and both sides are shifted to the
    smaller exponent."""
    na, da = a.significand.as_integer_ratio()
    nb, db = b.significand.as_integer_ratio()
    e = min(a.exponent, b.exponent)
    x = (na * db) << (a.exponent - e)
    y = (nb * da) << (b.exponent - e)
    return (x > y) - (x < y)


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300)
wide_exponents = st.integers(min_value=-40000, max_value=40000)


@st.composite
def extended_reals(draw):
    sig = draw(st.floats(min_value=1.0, max_value=2.0, exclude_max=True))
    if draw(st.booleans()):
        sig = -sig
    return ER(sig, draw(wide_exponents))


class TestConstruction:
    def test_round_trip(self):
        for x in [1.0, -3.75, 1e-300, 2.2250738585072014e-308, 123456.789]:
            assert er_to_float(er_from_float(x)) == x

    def test_canonical_zero(self):
        z = er_from_float(0.0)
        assert z == ER_ZERO and z.exponent == 0

    def test_normalized_invariant(self):
        a = er_from_float(0.3)
        assert 1.0 <= abs(a.significand) < 2.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            er_from_float(float("nan"))


class TestAdd:
    def test_identity_case(self):
        # (1*2^0) + (1*2^0) = 1*2^1
        assert er_add(ER(1.0, 0), ER(1.0, 0)) == ER(1.0, 1)

    def test_zero_neutral(self):
        a = ER(1.5, 4000)
        assert er_add(a, ER_ZERO) == a
        assert er_add(ER_ZERO, a) == a

    def test_absorption_below_precision(self):
        assert er_add(ER(1.5, 4000), ER(1.5, 10)) == ER(1.5, 4000)

    @given(extended_reals(), extended_reals())
    @settings(max_examples=400)
    def test_against_rational_oracle(self, a, b):
        got = er_add(a, b)
        want = exact(a) + exact(b)
        if want == 0:
            assert abs(exact(got)) <= Fraction(2) ** (
                max(a.exponent, b.exponent) - 50)
            return
        err = abs(exact(got) - want)
        # relative 4 eps, or absolute 4 eps * max under cancellation
        bound = 4 * Fraction(2) ** -52 * max(abs(exact(a)), abs(exact(b)),
                                             abs(want))
        assert err <= bound

    @given(extended_reals(), extended_reals())
    @settings(max_examples=200)
    def test_commutative_bit_for_bit(self, a, b):
        assert er_add(a, b) == er_add(b, a)


class TestMul:
    def test_exponents_add(self):
        assert er_mul(ER(1.0, 3), ER(1.0, 4)) == ER(1.0, 7)

    def test_zero_annihilates(self):
        assert er_mul(ER(1.7, 999), ER_ZERO) == ER_ZERO

    def test_log_of_product_of_giants(self):
        a, b = ER(1.1, 5000), ER(1.3, 5000)
        got = er_ln(er_mul(a, b))
        want = er_ln(a) + er_ln(b)
        assert abs(got - want) <= 1e-12 * abs(want)

    @given(extended_reals(), extended_reals())
    @settings(max_examples=400)
    def test_against_rational_oracle(self, a, b):
        got = er_mul(a, b)
        want = exact(a) * exact(b)
        assert abs(exact(got) - want) <= 2 * Fraction(2) ** -52 * abs(want)

    @given(extended_reals(), extended_reals())
    @settings(max_examples=200)
    def test_commutative_bit_for_bit(self, a, b):
        assert er_mul(a, b) == er_mul(b, a)

    def test_overflow_is_hard_error(self):
        with pytest.raises(ExponentOverflowError):
            er_mul(ER(1.0, 2**62), ER(1.0, 2**62))


class TestLnExp:
    def test_ln_one(self):
        assert er_ln(ER(1.0, 0)) == 0.0

    def test_ln_power_of_two(self):
        got = er_ln(ER(1.0, 100))
        assert abs(got - 100 * math.log(2)) < 1e-13 * abs(got)

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            er_ln(ER_ZERO)
        with pytest.raises(ValueError):
            er_ln(ER(-1.0, 5))

    def test_exp_small_cases(self):
        assert er_exp(0.0) == ER(1.0, 0)
        assert er_exp(math.log(2.0)) == ER(1.0, 1)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=500)
    def test_round_trip_ln_exp(self, x):
        assert abs(er_ln(er_exp(x)) - x) < 1e-10

    def test_round_trip_large(self):
        x = 12345.678
        assert abs(er_ln(er_exp(x)) - x) < 1e-8

    def test_round_trip_gigantic(self):
        # beyond the two-part reduction, through the exact rational path
        for x in [3.7e11, -2.9e14]:
            assert abs(er_ln(er_exp(x)) - x) < 1e-4 * abs(x) * 1e-12 + 1e-2

    def test_exp_overflow(self):
        with pytest.raises(ExponentOverflowError):
            er_exp(7e18)

    @given(extended_reals(), extended_reals())
    @settings(max_examples=300)
    def test_ln_additivity(self, a, b):
        a, b = abs_er(a), abs_er(b)
        got = er_ln(er_mul(a, b))
        assert abs(got - (er_ln(a) + er_ln(b))) <= 1e-10 * max(
            1.0, abs(er_ln(a)) + abs(er_ln(b)))


def abs_er(a):
    return ER(abs(a.significand), a.exponent)


class TestOrdering:
    @given(extended_reals(), extended_reals())
    @settings(max_examples=1000)
    def test_cmp_matches_rationals(self, a, b):
        want = (exact(a) > exact(b)) - (exact(a) < exact(b))
        assert er_cmp(a, b) == want

    def test_cmp_matches_rationals_bulk(self):
        # 1e5 deterministic random pairs against the exact order
        import numpy as np
        rng = np.random.default_rng(2718)
        sigs = rng.uniform(1.0, 2.0, (100_000, 2)) \
            * np.where(rng.random((100_000, 2)) < 0.5, -1.0, 1.0)
        exps = rng.integers(-30_000, 30_000, (100_000, 2))
        for i in range(0, 100_000, 1):
            a = ER(float(sigs[i, 0]), int(exps[i, 0]))
            b = ER(float(sigs[i, 1]), int(exps[i, 1]))
            want = exact_cmp(a, b)
            if i % 1000 == 0:  # the integer order is the rational order
                assert want == (exact(a) > exact(b)) - (exact(a) < exact(b))
            if er_cmp(a, b) != want:
                raise AssertionError(f"ordering mismatch at pair {i}: "
                                     f"{a} vs {b}")

    @given(extended_reals())
    @settings(max_examples=100)
    def test_sub_gives_zero(self, a):
        assert er_sub(a, a) == ER_ZERO


class TestComplex:
    def test_ln_abs_via_components(self):
        z = ec_from_log_polar(1000.0, 0.7)
        assert abs(ec_ln_abs(z) - 1000.0) < 1e-9
        assert abs(ec_arg(z) - 0.7) < 1e-12

    def test_mul_adds_args(self):
        z1 = ec_from_log_polar(500.0, 0.3)
        z2 = ec_from_log_polar(700.0, 0.4)
        z = ec_mul(z1, z2)
        assert abs(ec_ln_abs(z) - 1200.0) < 1e-9
        assert abs(ec_arg(z) - 0.7) < 1e-10


class TestFormat:
    def test_format_is_signed_log(self):
        assert format_extended(er_exp(12.5)).startswith("+12.5")
        assert format_extended(ER(-1.0, 0)) == "-0"
        assert format_extended(ER_ZERO) == "0"
