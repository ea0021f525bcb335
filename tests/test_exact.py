from __future__ import annotations

import decimal
import gc
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from machinpi.exact import (
    _DIV_CROSSOVER,
    _SPLIT_BITS,
    _exact_context,
    decimal_gaussian_power,
    decimal_head,
    gaussian_power,
    gaussian_product,
    int_divmod,
    int_to_text,
    kept_power,
    parse_rational,
    text_to_int,
)
from machinpi.radicals import eval_radicals, select_u1
from machinpi.series import _triple_product

from oracles import big_int_text, gi_mul_naive, gi_pow_naive, int_text_cap


small_ints = st.integers(min_value=-30, max_value=30)


class TestGaussianPower:
    def test_pow_matches_hand_expansion(self):
        assert gaussian_power(5, 1, 4) == (476, 480)
        assert gaussian_power(24, 10, 2) == (476, 480)
        assert gaussian_power(0, 1, 2) == (-1, 0)

    def test_pow_zero_is_one(self):
        assert gaussian_power(7, -3, 0) == (1, 0)

    @given(small_ints, small_ints, st.integers(min_value=0, max_value=64))
    def test_pow_agrees_with_repeated_multiplication(self, a, b, n):
        assert gaussian_power(a, b, n) == gi_pow_naive((a, b), n)

    @given(st.integers(), st.integers())
    def test_square_matches_multiplication(self, a, b):
        assert gaussian_power(a, b, 2) == gi_mul_naive((a, b), (a, b))

    @given(small_ints, small_ints, st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=40))
    def test_powers_add(self, a, b, m, n):
        assert gaussian_power(a, b, m + n) == gi_mul_naive(gaussian_power(a, b, m),
                                                          gaussian_power(a, b, n))

    @given(small_ints, small_ints, st.integers(min_value=0, max_value=40))
    def test_power_of_conjugate_is_conjugate_of_power(self, a, b, n):
        # verify_formula takes (p, -q) for a negative alpha
        re, im = gaussian_power(a, b, n)
        assert gaussian_power(a, -b, n) == (re, -im)

    @given(small_ints, small_ints, small_ints, small_ints,
           st.integers(min_value=0, max_value=30))
    def test_power_of_product_is_product_of_powers(self, a, b, c, d, n):
        assert gaussian_power(*gi_mul_naive((a, b), (c, d)), n) == gi_mul_naive(
            gaussian_power(a, b, n), gaussian_power(c, d, n))

    @given(small_ints, small_ints, st.integers(min_value=0, max_value=40))
    def test_norm_of_power_is_power_of_norm(self, a, b, n):
        # |(p + qi)**n / (p - qi)**n| = 1: the rotations stay on the unit circle
        re, im = gaussian_power(a, b, n)
        assert re * re + im * im == (a * a + b * b) ** n


@given(st.integers(), st.integers(), st.integers(), st.integers())
@example(-(2 ** 4000) + 1, 3 ** 2000, 2 ** 3999, -(5 ** 1500))
def test_gauss_product_is_the_four_product_form(ar, ai, br, bi):
    assert gaussian_product(ar, ai, br, bi) == gi_mul_naive((ar, ai), (br, bi))


class TestDecimalGaussianPower:
    @given(small_ints, small_ints, st.integers(min_value=1, max_value=40))
    def test_matches_naive_power(self, a, b, n):
        re, im = decimal_gaussian_power(a, b, n, _exact_context())
        assert (re, im) == gi_pow_naive((a, b), n)
        assert re.as_tuple().exponent == im.as_tuple().exponent == 0

    def test_rounding_is_trapped(self):
        # A context that may round must not pass a rounded power off as
        # exact; the exact context makes any rounding an error.
        ctx = _exact_context()
        ctx.prec = 20
        with pytest.raises(decimal.Rounded):
            decimal_gaussian_power(5, 1, 64, ctx)

    # Production shapes: generate's n = 2**(k-1) on k = 13's selected u1,
    # and an odd n, where every bit below the top multiplies by the base.
    @pytest.mark.parametrize("n", [1 << 12, 3001])
    def test_matches_int_power_at_record_sizes(self, n):
        u1 = select_u1(eval_radicals(13, 26), 1).u1
        re, im = decimal_gaussian_power(u1.numerator, u1.denominator, n, _exact_context())
        assert (int(re), int(im)) == gaussian_power(u1.numerator, u1.denominator, n)

    def test_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            decimal_gaussian_power(5, 1, 0, _exact_context())


def _check_codec(n: int, text: str | None = None) -> None:
    if text is None:
        with big_int_text():
            text = str(n)
    with int_text_cap(640):
        assert int_to_text(n) == text
        assert text_to_int(text) == n


class TestIntText:
    """The codec equals str() and int() at the lowest digit cap CPython
    allows, so it works whatever cap the process has."""

    @given(st.integers() | st.integers(-(10 ** 3000), 10 ** 3000)
           | st.integers(-(2 ** 70_000), 2 ** 70_000))  # across the switch
    @example(0)
    @example(1)
    @example(-1)
    @example(10 ** 640 - 1)
    @example(10 ** 640)
    @example(-(10 ** 1280 + 1))
    @example(7 * 10 ** 69_999 + 123_456_789)  # 70,000 digits
    def test_matches_str_and_int(self, n):
        _check_codec(n)

    # Both sides of int_to_text's switch from chunks to binary splits
    # (about 18,000 digits), a 70,000-digit u2 part (depth 15) and a
    # 320,000-digit one (depth 17), at 10**m - 1, 10**m and 10**m + 1,
    # where a dropped or doubled leading digit or a lost carry would
    # show.  The expected text is spelled out, not taken from str().
    @pytest.mark.parametrize("m", [10_000, 18_061, 18_062, 70_000, 320_000])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_powers_of_ten_across_the_sizes(self, m, sign):
        unit = -1 if sign else 1
        _check_codec(unit * (10 ** m - 1), sign + "9" * m)
        _check_codec(unit * 10 ** m, sign + "1" + "0" * m)
        _check_codec(unit * (10 ** m + 1), sign + "1" + "0" * (m - 1) + "1")

    def test_conversion_leaves_no_cyclic_garbage(self):
        # A reference cycle would keep the text and the powers of a
        # conversion alive until the cyclic collector runs.
        n = 7 * 10 ** 69_999 + 123_456_789
        gc.collect()
        gc.disable()
        try:
            assert text_to_int(int_to_text(n)) == n
            assert gc.collect() == 0
        finally:
            gc.enable()

    # At 2**b - 1 and 2**b a split's low half is all ones or all zeros.
    @pytest.mark.parametrize("bits", [_SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1,
                                      2 * _SPLIT_BITS + 1])
    def test_powers_of_two_across_the_switch(self, bits):
        for n in (2 ** bits - 1, 2 ** bits, -(2 ** bits + 1),
                  7 ** int(bits / math.log2(7))):
            _check_codec(n)

    def test_uses_no_process_decimal_context(self, monkeypatch):
        # The conversion calls none of decimal's functions that read or
        # set the thread's context; it works in a private one.
        def refuse(*args):
            raise AssertionError("the thread's decimal context was used")

        monkeypatch.setattr(decimal, "getcontext", refuse)
        monkeypatch.setattr(decimal, "setcontext", refuse)
        monkeypatch.setattr(decimal, "localcontext", refuse)
        _check_codec(3 ** 200_000)


class TestKeptPower:
    """kept_power is the plain power in each arithmetic that keeps one:
    ints (the powers of 5 and of M = m**2), exact decimal (the powers of
    2) and the conjugate split's triples (Re G**n, Im G**n, A**n)."""

    requests = st.lists(st.integers(0, 300), min_size=1, max_size=12)

    @given(requests, st.integers(2, 7))
    def test_ints_and_decimals_in_any_order(self, requests, base):
        ctx = _exact_context()
        ints = {0: 1, 1: base}
        decimals = {0: ctx.create_decimal(1), 1: ctx.create_decimal(base)}
        for n in requests:
            assert kept_power(ints, n, operator.mul) == base ** n
            assert ctx.to_sci_string(kept_power(decimals, n, ctx.multiply)) == str(base ** n)

    @given(requests, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    def test_split_triples_in_any_order(self, requests, a, b):
        # G = (a + 2bi)**2 and A = a**2, seeded as _lcm_split seeds them.
        g = (a * a - 4 * b * b, 4 * a * b)
        powers = {0: (1, 0, 1), 1: (*g, a * a)}
        for n in requests:
            assert kept_power(powers, n, _triple_product) == (*gaussian_power(*g, n), (a * a) ** n)

    @given(requests)
    @example([99_999, 1])
    def test_products_per_request(self, requests):
        # A fresh nth power takes at most 2 bits(n) products, whatever is
        # kept already; a power next to or double a kept one takes one.
        products = []

        def mul(x, y):
            products.append((x, y))
            return x * y

        powers = {0: 1, 1: 3}
        for n in requests:
            products.clear()
            assert kept_power(powers, n, mul) == 3 ** n
            assert len(products) <= 2 * n.bit_length()
            for near in (n + 1, 2 * n + 2):
                products.clear()
                kept_power(powers, near, mul)
                assert len(products) <= 1


@st.composite
def division_operands(draw) -> tuple[int, int]:
    """(a, b) with a >= 0 < b: a divisor of n = 1 to 70,000 bits, random,
    all ones (where 3-by-2 steps take the capped estimate 2**n - 1) or a
    power of two, and a dividend below b, equal to b * 2**n - 1 (the
    largest one 2n-by-n division takes), random up to 2n bits, or of
    2n + 1 to 5n + 1 bits, with a quotient longer than n bits."""
    n = draw(st.integers(1, 70_000) | st.sampled_from(
        [_DIV_CROSSOVER, _DIV_CROSSOVER + 1, 2 * _DIV_CROSSOVER + 1, 33_333, 69_999]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    b = draw(st.sampled_from([
        rng.getrandbits(n) | 1 << (n - 1), (1 << n) - 1, 1 << (n - 1)]))
    a = draw(st.sampled_from([
        rng.randrange(b), (b << n) - 1, rng.getrandbits(2 * n),
        rng.getrandbits(2 * n + rng.randrange(1, 3 * n + 2))]))
    return a, b


class TestIntDivmod:
    """int_divmod is divmod, checked against divmod itself."""

    @given(division_operands())
    @example(((((1 << 9001) - 1) << 9001) - 1, (1 << 9001) - 1))  # all ones, odd n
    @example(((1 << 140_000) - 1, 1 << 69_999))
    @example(((1 << 30_000) - 1, (1 << 8_000) + 1))  # quotient of 22,000 bits
    @example((0, 3 ** 10_000))
    def test_matches_divmod(self, operands):
        a, b = operands
        assert int_divmod(a, b) == divmod(a, b)


class TestSerialization:
    def test_parse_rational_forms(self):
        assert parse_rational("24/10") == Fraction(12, 5)
        assert parse_rational("-239") == -239
        assert parse_rational("2.4") == Fraction(12, 5)
        with pytest.raises(ValueError):
            parse_rational("abc")

    def test_fixed_text(self):
        assert decimal_head("1", "4") == "0.25000000000000000000"
        assert decimal_head("-239", "1") == "-239.00000000000000000000"
        # Truncation toward zero, never rounding.
        assert decimal_head("-2", "3") == "-0.66666666666666666666"
        assert decimal_head("-1", "10" + "0" * 25) == "-0.00000000000000000000"

    def test_sci_text(self):
        assert decimal_head("1234567", "1") == "1.23456700000000000000e6"
        assert decimal_head("-" + "9" * 30, "7") == "-1.42857142857142857142e29"

    def test_decimal_head_switches_to_scientific(self):
        assert decimal_head("-999999", "1") == "-999999.00000000000000000000"
        assert decimal_head("-1999999", "2") == "-999999.50000000000000000000"
        assert decimal_head("1000000", "1") == "1.00000000000000000000e6"
        head = decimal_head("-3964322", "1")
        assert head.startswith("-3.9643") and head.endswith("e6")

    @given(st.integers(-10 ** 60, 10 ** 60).filter(bool), st.integers(1, 10 ** 60))
    @example(10 ** 6, 1)
    @example(-10 ** 40 + 1, 10 ** 34)
    def test_decimal_head_matches_fraction_truncation(self, num, den):
        # The head from the exact quotient of the two Fractions, with the
        # exponent found by stepping; the parts need not be coprime.
        value = abs(Fraction(num, den))
        sign = "-" if num < 0 else ""
        if value < 10 ** 6:
            scaled = math.floor(value * 10 ** 20)
            expected = f"{sign}{scaled // 10 ** 20}.{scaled % 10 ** 20:020d}"
        else:
            exp = 6
            while value >= 10 ** (exp + 1):
                exp += 1
            scaled = math.floor(value / Fraction(10) ** exp * 10 ** 20)
            expected = f"{sign}{scaled // 10 ** 20}.{scaled % 10 ** 20:020d}e{exp}"
        assert decimal_head(str(num), str(den)) == expected


def test_every_public_name_resolves():
    import machinpi

    assert all(hasattr(machinpi, name) for name in machinpi.__all__)
