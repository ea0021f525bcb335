from __future__ import annotations

import math
import random
from fractions import Fraction
from math import isqrt
from os.path import commonprefix

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from machinpi import realnum
from machinpi.errors import PrecisionExhausted
from machinpi.radicals import eval_radicals
from machinpi.realnum import (
    _SQRTREM_CROSSOVER,
    FixedReal,
    _common_prefix_length,
    _div_nearest,
    _shift_nearest,
    _sqrt_floor,
    _sqrt_step,
    _sqrtrem,
)

from oracles import (
    decimal_text_reference,
    sqrt_digits,
    sqrt_two_roots_reference,
    valid_decimal_digits_reference,
)


fractions_mid = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
fractions_pos = st.fractions(
    min_value=Fraction(1, 1000), max_value=50, max_denominator=1000
)
scales = st.integers(min_value=16, max_value=96)


@st.composite
def narrow_intervals(draw):
    """(m, e, s) with e > 0, 16 e <= m and e**4 2**s <= m**3: intervals
    narrow against their root, where the one-root square root is within
    an ulp of the two-root reference."""
    s = draw(st.integers(min_value=0, max_value=160))
    m = draw(st.integers(min_value=16, max_value=1 << 200))
    e_max = min(m // 16, isqrt(isqrt((m ** 3) >> s)))
    assume(e_max >= 1)
    return m, draw(st.integers(min_value=1, max_value=e_max)), s


@st.composite
def sized_naturals(draw):
    """n >= 0 of every bit length up to four times the crossover, so the
    recursion runs up to three levels and meets both normalisation
    shifts (t = 0 and t = 1)."""
    bits = draw(st.integers(min_value=0, max_value=4 * _SQRTREM_CROSSOVER))
    if bits == 0:
        return 0
    return draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))


def isqrt_rem(n: int) -> tuple[int, int]:
    """The reference: math.isqrt and its remainder."""
    s = isqrt(n)
    return s, n - s * s


def exactly(fr: Fraction, scale: int = 128) -> FixedReal:
    """Fixed-point image of a rational with its conversion error tracked."""
    return FixedReal.from_fraction(fr, scale)


class TestSqrt:
    def test_sqrt_two_twenty_digits(self):
        root = FixedReal.from_int(2, 256).sqrt()
        assert root.to_decimal(20) == (sqrt_digits(2, 20), True)

    def test_sqrt_two_at_scale_128_gives_38_digits(self):
        root = FixedReal.from_int(2, 128).sqrt()
        # The midpoint reads all 38 digits right ...
        midpoint = FixedReal(root.mantissa, root.scale)
        assert midpoint.to_decimal(38) == (sqrt_digits(2, 38), True)
        # ... and one ulp at scale 128 certifies at least 37 of them.
        text, _ = root.to_decimal(38)
        assert len(text) >= len("1.") + 37
        assert sqrt_digits(2, 38).startswith(text)

    def test_sqrt_zero(self):
        assert FixedReal.from_int(0, 64).sqrt() == FixedReal(0, 64, 0)

    def test_sqrt_perfect_square_exact(self):
        root = FixedReal.from_int(4, 64).sqrt()
        assert root.mantissa == 2 << 64 and root.err_ulp == 0

    def test_sqrt_rejects_negative_interval(self):
        with pytest.raises(PrecisionExhausted, match="entirely negative interval"):
            FixedReal.from_int(-1, 64).sqrt()

    def test_sqrt_clamps_straddling_interval(self):
        # value 0 +/- 4 ulps: still allowed, root interval starts at 0
        x = FixedReal(0, 64, 4)
        root = x.sqrt()
        assert root.lower <= 0 <= root.upper
        # hi = 4 ulps is 2**66 at double scale, a square: [0, 2**33]
        # exactly.  One more ulp has a remainder and rounds the top up.
        assert root == FixedReal(1 << 32, 64, 1 << 32)
        assert FixedReal(0, 64, 5).sqrt().upper * (1 << 64) == isqrt(5 << 64) + 1

    @given(fractions_pos, scales)
    def test_sqrt_contains_true_root(self, fr, scale):
        root = exactly(fr, scale).sqrt()
        # lower**2 <= fr <= upper**2 brackets sqrt(fr) without irrationals
        assert max(root.lower, 0) ** 2 <= fr
        assert root.upper ** 2 >= fr

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 200),
           st.integers(min_value=0, max_value=1 << 80),
           st.integers(min_value=0, max_value=160))
    @example(3 << 64, 5, 64)  # e > 0: the one-root bound on both ends
    @example(65, 1, 12)  # the lower end 64 * 2**12 is 512**2
    @example(5, 9, 64)  # straddles zero
    @example(7, 7, 0)  # touches zero
    @example(10 << 88, 2, 128)  # 2 - a_(k-1) ~ 2**-2k at k = 20
    def test_sqrt_contains_interval_root(self, m, e, s):
        assume(m + e >= 0)
        x = FixedReal(m, s, e)
        root = x.sqrt()
        # Every root of the clamped input interval lies in the result.
        assert root.lower <= 0 or root.lower ** 2 <= x.lower
        assert root.upper ** 2 >= x.upper

    @given(narrow_intervals())
    @example((65, 1, 12))  # 5 against 4; a root without guard bits gives 6
    @example((3 << 64, 5, 64))
    @example((10 << 88, 2, 128))
    def test_sqrt_within_an_ulp_of_two_roots(self, mes):
        # With A = m 2**s and D = e 2**s the reference's err is at least
        # the half-width H = D / (sqrt(A + D) + sqrt(A - D)).  The
        # tangent-line bound q of FixedReal.sqrt exceeds H by at most
        # (D**2 + D d) / (3.75 A**1.5), d = (4r + 2) 4**-g, when 16 e <= m;
        # e**4 2**s <= m**3 keeps that below 1/2 - 2**-g, so
        # ceil(1/2 + 2**-g + q) is at most one over the reference.
        m, e, s = mes
        x = FixedReal(m, s, e)
        assert x.sqrt().err_ulp <= sqrt_two_roots_reference(x).err_ulp + 1


class TestSqrtRem:
    @given(sized_naturals())
    def test_matches_isqrt(self, n):
        assert _sqrtrem(n) == isqrt_rem(n)

    @pytest.mark.parametrize("bits", [
        _SQRTREM_CROSSOVER - 1, _SQRTREM_CROSSOVER, _SQRTREM_CROSSOVER + 1,
        _SQRTREM_CROSSOVER + 2, _SQRTREM_CROSSOVER + 3,
        2 * _SQRTREM_CROSSOVER + 1, 2 * _SQRTREM_CROSSOVER + 2,
        4 * _SQRTREM_CROSSOVER, 69_000,
    ])
    def test_squares_and_their_neighbours(self, bits):
        # r**2 has remainder 0, r**2 - 1 the root below, r**2 + 2r the
        # largest remainder a root r can have.
        r = (1 << (bits // 2)) | 0x9E3779B97F4A7C15
        for n in (0, 1, r * r, r * r - 1, r * r + 2 * r,
                  (1 << bits) - 1, 1 << (bits - 1)):
            assert _sqrtrem(n) == isqrt_rem(n)
        assert _sqrtrem(r * r) == (r, 0)
        assert _sqrtrem(r * r + 2 * r) == (r, 2 * r)

    def test_powers_of_four(self):
        c = _SQRTREM_CROSSOVER
        for j in [*range(64), c // 2 - 1, c // 2, c // 2 + 1, c - 1, c, c + 1,
                  2 * c - 1, 2 * c, 2 * c + 1]:
            assert _sqrtrem(4 ** j) == (2 ** j, 0)
            assert _sqrtrem(4 ** j - 1) == isqrt_rem(4 ** j - 1)

    @pytest.mark.parametrize("bits", [0, 5 * _SQRTREM_CROSSOVER])
    def test_negative_raises_like_isqrt(self, bits):
        n = -(1 << bits)
        with pytest.raises(ValueError):
            isqrt(n)
        with pytest.raises(ValueError):
            _sqrtrem(n)

    def test_deep_tower_unchanged_from_isqrt(self, monkeypatch):
        # Every root of a 10,000-digit, depth-400 tower is tens of
        # thousands of bits wide; the same tower with math.isqrt alone
        # must give the same intervals, bit for bit.
        fast = eval_radicals(400, 10000)
        monkeypatch.setattr(realnum, "_sqrt_floor", isqrt)
        assert eval_radicals(400, 10000) == fast


class TestSqrtFloor:
    """_sqrt_floor is _sqrtrem's root without its remainder: the top
    step's one correction is read off 64-bit heads, and q is squared
    only when they cannot decide."""

    @given(sized_naturals())
    def test_matches_isqrt(self, n):
        assert _sqrt_floor(n) == isqrt(n)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_squares_and_their_neighbours(self, levels):
        # Operands of up to _SQRTREM_CROSSOVER * 2**levels bits take
        # `levels` Karatsuba steps.  On r**2 the remainder is 0, and just
        # below it is negative by little, so 64-bit heads cannot tell
        # x from q**2 and the square decides.
        bits = _SQRTREM_CROSSOVER << levels
        r = random.Random(levels).getrandbits(bits // 2) | 1 << (bits // 2 - 1)
        for n in (r * r - 1, r * r, r * r + 1, r * r + 2 * r, (r + 1) ** 2,
                  (1 << bits) - 1, 1 << (bits - 1)):
            assert _sqrt_floor(n) == isqrt(n)
        for n in (r * r, r * r - 1):
            _, x, q, _ = _sqrt_step(n)
            h = q.bit_length() - 64
            assert (q >> h) ** 2 <= x >> 2 * h < ((q >> h) + 1) ** 2

    @pytest.mark.parametrize("bits", [0, 5 * _SQRTREM_CROSSOVER])
    def test_negative_raises_like_isqrt(self, bits):
        with pytest.raises(ValueError):
            _sqrt_floor(-(1 << bits))


class TestArithmetic:
    def test_cancellation_example(self):
        two = FixedReal.from_int(2, 256)
        diff = two - two.sqrt()
        text, ok = diff.to_decimal(20)
        assert ok
        # 2 - sqrt(2) digits derived from the integer-root expansion
        assert text == "0." + str(2 * 10 ** 20 - int(sqrt_digits(2, 20).replace(".", "")) - 1)[-20:]

    def test_self_division(self):
        three = FixedReal.from_int(3, 128)
        quotient = three / three
        assert quotient.lower <= 1 <= quotient.upper

    def test_division_by_straddling_interval(self):
        with pytest.raises(PrecisionExhausted, match="divisor interval contains zero"):
            FixedReal.from_int(1, 64) / FixedReal(3, 64, 5)

    @given(fractions_mid, fractions_mid, scales)
    def test_add_sub_contain_exact(self, a, b, scale):
        fa, fb = exactly(a, scale), exactly(b, scale)
        total, difference = fa + fb, fa - fb
        assert total.lower <= a + b <= total.upper
        assert difference.lower <= a - b <= difference.upper

    @given(fractions_mid, fractions_mid, scales)
    def test_div_contains_exact(self, a, b, scale):
        assume(abs(b) > Fraction(1, 100))
        fb = exactly(b, scale)
        quotient = exactly(a, scale) / fb
        assert quotient.lower <= a / b <= quotient.upper

    @given(fractions_mid, fractions_mid)
    def test_add_then_subtract_recovers(self, a, b):
        fa, fb = exactly(a), exactly(b)
        back = (fa + fb) - fb
        assert back.lower <= a <= back.upper
        assert back.err_ulp <= 2 * (fa.err_ulp + fb.err_ulp) + 4

    @given(fractions_mid, st.integers(min_value=0, max_value=40))
    def test_shift_is_exact(self, a, bits):
        shifted = exactly(a).shift(bits)
        assert shifted.lower <= a * Fraction(2) ** bits <= shifted.upper

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            FixedReal.from_int(1, 64).shift(-1)

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x / y,
    ], ids=["add", "sub", "div"])
    def test_mismatched_scales_rejected(self, op):
        x, y = FixedReal.from_int(3, 64), FixedReal.from_int(2, 65)
        with pytest.raises(ValueError):
            op(x, y)
        with pytest.raises(ValueError):
            op(y, x)


class TestErrorPropagationThroughChains:
    @given(fractions_pos, fractions_pos, fractions_pos)
    def test_compound_pipeline_contains_exact(self, a, b, c):
        # (a + b + c) / (a + 1): compare against exact rational arithmetic.
        scale = 160
        fa, fb, fc = (exactly(v, scale) for v in (a, b, c))
        one = FixedReal.from_int(1, scale)
        got = (fa + fb + fc) / (fa + one)
        assert got.lower <= (a + b + c) / (a + 1) <= got.upper

    def test_monotone_refinement(self):
        # The same pipeline at a higher scale lands inside the coarse interval.
        def pipeline(scale: int) -> FixedReal:
            two = FixedReal.from_int(2, scale)
            a1 = two.sqrt()
            a2 = (two + a1).sqrt()
            return a2 / (two - a1).sqrt()

        coarse = pipeline(96)
        fine = pipeline(256)
        assert coarse.lower <= fine.value <= coarse.upper
        assert fine.upper - fine.lower < coarse.upper - coarse.lower


class TestDecimal:
    def test_exact_quarter(self):
        assert exactly(Fraction(1, 4)).to_decimal(3) == ("0.250", True)

    def test_negative_truncates_toward_zero(self):
        assert exactly(Fraction(-1, 4)).to_decimal(3) == ("-0.250", True)
        assert exactly(Fraction(-1999, 1000)).to_decimal(2)[0] == "-1.99"
        assert exactly(Fraction(-1, 11)).to_decimal(1) == ("-0.0", True)

    def test_uncertain_digit_flagged(self):
        root = FixedReal.from_int(2, 256).sqrt()
        blurred = root.widened(math.ceil(Fraction(1, 10 ** 10) * 2 ** 256))
        text, ok = blurred.to_decimal(20)
        assert not ok
        _, ok9 = blurred.to_decimal(9)
        assert ok9

    def test_valid_decimal_digits(self):
        # Blurred by 1e-10, sqrt(2) keeps 9 certain places of 40.
        root = FixedReal.from_int(2, 256).sqrt()
        blurred = root.widened(math.ceil(Fraction(1, 10 ** 10) * 2 ** 256))
        assert blurred.to_decimal(40) == (sqrt_digits(2, 9), False)

    # The limit starts at 0 only for the @example below: a request for
    # no places is a ValueError.
    @given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
           st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=14))
    @example(-123456789, 1000, 30, 8)  # negative
    @example(5, 10, 20, 6)  # straddles zero
    @example(-3 << 20, 0, 20, 12)  # exact: -3.0
    @example(10 << 20, 1, 20, 10)  # whole parts 9 and 10
    @example(-(10 << 20), 1, 20, 10)  # whole parts -10 and -9
    @example(-11, 9, 0, 1)  # whole parts -20 and -2
    @example(7, 3, 4, 0)  # no places asked for
    def test_valid_decimal_digits_matches_brute_force(self, m, err, scale, limit):
        x = FixedReal(m, scale, err)
        if limit == 0:
            with pytest.raises(ValueError):
                x.to_decimal(limit)
            return
        text, _ = x.to_decimal(limit)
        places = len(text.partition(".")[2])
        assert places == valid_decimal_digits_reference(x, limit)

    def test_straddling_zero_invalid_unless_tiny(self):
        wobbling = FixedReal(1, 64, 100)  # interval about +/- 5.4e-18
        assert wobbling.to_decimal(20) == ("", False)
        # Twelve zero places on both ends, but the sign is uncertain:
        # nothing is certified.
        assert wobbling.to_decimal(12) == ("", False)
        # Off zero by more than its radius, [5.4e-20, 1.09e-17] certifies
        # 16 zero places.
        tiny = FixedReal(101, 64, 100)
        assert tiny.to_decimal(20) == ("0." + "0" * 16, False)

    @given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
           st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=0, max_value=60),
           st.integers(min_value=1, max_value=14))
    @example(5, 10, 20, 6)  # straddles zero
    @example(-10, 10, 20, 6)  # upper end at zero: signs differ
    @example(10, 10, 20, 6)  # lower end at zero: both non-negative
    @example(-123456789, 1000, 30, 8)  # negative, partly certain
    @example(10 << 20, 1, 20, 10)  # whole parts 9 and 10
    @example(-3 << 20, 0, 20, 12)  # exact
    def test_text_is_what_both_ends_agree_on(self, m, err, scale, digits):
        x = FixedReal(m, scale, err)
        text, ok = x.to_decimal(digits)
        lo = decimal_text_reference(x.lower, digits)
        hi = decimal_text_reference(x.upper, digits)
        # Every character is both ends' own, sign included ...
        assert lo.startswith(text) and hi.startswith(text)
        if text:
            assert (x.lower < 0) == (x.upper < 0) == text.startswith("-")
            assert "." in text and not text.endswith(".")
        if x.lower < 0 <= x.upper:
            assert (text, ok) == ("", False)
        # ... the next place is not, and ok means every place is there.
        assert ok == (text == lo == hi)
        if not ok and text:
            assert lo[len(text)] != hi[len(text)]

    @given(fractions_mid, st.integers(min_value=1, max_value=25))
    @example(Fraction(-1, 11), 1)
    def test_valid_rendering_matches_exact_truncation(self, a, digits):
        text, ok = exactly(a, 160).to_decimal(digits)
        if ok:
            sign = "-" if a < 0 else ""
            scaled = abs(a.numerator) * 10 ** digits // a.denominator
            whole, frac = divmod(scaled, 10 ** digits)
            assert text == f"{sign}{whole}.{frac:0{digits}d}"


class TestValidation:
    def test_scale_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FixedReal(1, -1)

    def test_err_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FixedReal(1, 8, -2)


class TestShiftRounding:
    """The square root and the measurement's term stream round by a
    shift, which must equal the division by 2**bits it replaced, bit for
    bit."""

    @given(st.integers(min_value=-(1 << 300), max_value=1 << 300),
           st.integers(min_value=0, max_value=320))
    @example(5, 1)
    @example(-5, 1)
    @example(-3, 1)
    @example(-(1 << 40), 40)
    def test_shift_helpers_match_division(self, n, bits):
        assert _shift_nearest(n, bits) == _div_nearest(n, 1 << bits)


class TestFromRatio:
    """A rational enters rounded to nearest, ties away from zero, and is
    exact only when the scaled value is an integer; the pair need not be
    in lowest terms."""

    @given(st.integers(min_value=-(1 << 200), max_value=1 << 200),
           st.integers(min_value=1, max_value=1 << 100),
           st.integers(min_value=0, max_value=160))
    @example(1, 2, 0)  # tie: 1/2 -> 1
    @example(-3, 2, 0)  # negative tie: -3/2 -> -2
    @example(-1, 4, 1)  # negative tie after scaling: -1/2 -> -1
    @example(6, 3, 0)  # exact, not in lowest terms
    @example(-5, 8, 3)  # exact and negative
    @example(0, 7, 10)  # zero
    def test_matches_fraction_rounding(self, num, den, scale):
        scaled = Fraction(num, den) * 2 ** scale
        q = int(abs(scaled) + Fraction(1, 2))  # floor of a non-negative
        expected = FixedReal(-q if scaled < 0 else q, scale,
                             0 if scaled.denominator == 1 else 1)
        assert FixedReal._from_ratio(num, den, scale) == expected


@given(st.text("3.14159-", max_size=40), st.text("3.14159-", max_size=40))
@example("3.14159", "3.14159")
@example("3.14159", "3.1416")
@example("", "3.1")
def test_common_prefix_length_is_commonprefix(x, y):
    # the prefix count of to_decimal and of the convergence samples
    assert _common_prefix_length(x, y) == len(commonprefix([x, y]))
