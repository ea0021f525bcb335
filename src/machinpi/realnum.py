"""Arbitrary-precision fixed-point reals with tracked absolute error.

A FixedReal holds an integer mantissa m at a binary scale s together with
an integer error counter e; the true real value is guaranteed to lie in

    [(m - e) * 2**-s, (m + e) * 2**-s].

All arithmetic is integer-only (binary fixed point internally, decimal
only at the I/O boundary) and every operation widens e conservatively,
so containment of the true value is an invariant, not a heuristic.
to_decimal, the one way out to text, prints only the places both ends
of the interval agree on, so every printed digit and sign is certain.

Binary operations take two operands at the same scale s and return one
at s; mixing scales raises ValueError.  Per-operation error growth, in
ulps of 2**-s:

* add/sub: exact; e_out = e_x + e_y.
* div:     e_out <= ceil((e_x |m_y| + |m_x| e_y) * 2**s
                          / (|m_y| (|m_y| - e_y))) + 1, requiring the
           divisor interval to exclude zero.
* sqrt:    one integer floor root per call (_sqrt_floor: _sqrtrem's
           Karatsuba square root, its top step without the remainder;
           each level's half-size division is exact.int_divmod's).  The
           root of the midpoint, taken with _SQRT_GUARD extra bits and
           rounded to nearest, is the mantissa; tangent-line bounds on
           both ends give
           e_out <= ceil(e / (2 sqrt(value)) + 1/2 + small), derived in
           FixedReal.sqrt.  Exact inputs give e_out in {0, 1}, exact
           when the remainder is 0; an interval reaching zero gives
           [0, ceil(sqrt(hi))].
* rational conversion: nearest rounding, at most 1 ulp.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PrecisionExhausted
from .exact import int_divmod, int_to_text


# Extra bits in the interval square root's one root: they place the
# midpoint's root within 2**-_SQRT_GUARD ulps, so rounding it costs half
# an ulp of error instead of one.
_SQRT_GUARD = 32


# Operands up to this many bits take math.isqrt directly; above it,
# _sqrtrem recurses.  Timed on random operands with Python 3.11:
# math.isqrt is faster below about 3000 bits, the two are within noise
# up to about 6000, and the recursion is 1.9x faster at 8192 bits.
# With exact.int_divmod doing each level's division, crossovers of 2048
# to 8192 bits all took 0.60-0.61 ms on 69k-bit roots, the tower's at
# 10^4 digits (best of 40 alternating rounds, 2-vCPU Xeon VM).  On 5k-
# to 15k-bit roots 2048 to 4096 were within 10% of each other, and
# 6144 and 8192 up to 1.6x slower.
_SQRTREM_CROSSOVER = 4096


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, r) with s = isqrt(n) and r = n - s**2, by Zimmermann's
    Karatsuba square root (INRIA RR-3805, 1999; Brent and Zimmermann,
    Modern Computer Arithmetic, Alg. 1.12).

    With n shifted left by 2t bits (t in {0, 1}) to 4k bits or 4k - 1
    and split as a3 b**3 + a2 b**2 + a1 b + a0 with b = 2**k, the top
    limb a3 is at least b/4.  The root s' of a3 b + a2 with remainder r'
    then gives q, u = divmod(r' b + a1, 2s'), s = s' b + q and
    r = u b + a0 - q**2, and one step s -= 1 corrects a negative r
    (_sqrt_step).  The shift comes off as s = S 2**t + s0, with n - S**2
    = (r + 2 s0 s - s0**2) / 4**t.  Each level costs one half-size
    division, by exact.int_divmod's recursion, and one half-size square,
    both subquadratic, and the recursion is linear, so the one isqrt
    call is at the bottom.  A negative n raises ValueError.
    """
    if n.bit_length() <= _SQRTREM_CROSSOVER:
        s = isqrt(n)
        return s, n - s * s
    if n < 0:
        raise ValueError("_sqrtrem() argument must be nonnegative")
    s, x, q, t = _sqrt_step(n)
    r = x - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    if t:
        s0 = s & ((1 << t) - 1)
        r = (r + (2 * s - s0) * s0) >> (2 * t)
        s >>= t
    return s, r


def _sqrt_step(n: int) -> tuple[int, int, int, int]:
    """(s, x, q, t) for _sqrtrem's top level on n << 2t: its root is s,
    or s - 1 when x = u b + a0 is below q**2."""
    k = (n.bit_length() + 3) >> 2
    t = (4 * k - n.bit_length()) >> 1
    n <<= 2 * t
    mask = (1 << k) - 1
    s, r = _sqrtrem(n >> 2 * k)
    q, u = int_divmod((r << k) | ((n >> k) & mask), s << 1)
    return (s << k) + q, (u << k) + (n & mask), q, t


def _sqrt_floor(n: int) -> int:
    """isqrt(n), ValueError for n < 0: _sqrt_step's correction, x < q**2,
    is read off 64-bit heads of q and x, and q is squared only when they
    cannot decide (a 69k-bit root spent 0.136 of 1.02 ms on that square)."""
    if n.bit_length() <= _SQRTREM_CROSSOVER:
        return isqrt(n)
    s, x, q, t = _sqrt_step(n)
    h = max(0, q.bit_length() - 64)
    head, top = q >> h, x >> 2 * h
    # x < head**2 4**h <= q**2 corrects; x >= (head + 1)**2 4**h > q**2 does not
    low = top < head * head or (top < (head + 1) ** 2 and x < q * q)
    return (s - low) >> t


def _common_prefix_length(x: str, y: str) -> int:
    """Length of the longest common prefix of two ASCII strings: their
    first difference is the top nonzero byte of the XOR of their bytes."""
    n = min(len(x), len(y))
    diff = int.from_bytes(x[:n].encode(), "big") ^ int.from_bytes(y[:n].encode(), "big")
    return n - (diff.bit_length() + 7) // 8


def _div_nearest(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties away from zero; b > 0."""
    if a >= 0:
        return int_divmod(2 * a + b, 2 * b)[0]
    return -int_divmod(-2 * a + b, 2 * b)[0]


def _ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for a >= 0 < b."""
    q, r = int_divmod(a, b)
    return q + (r > 0)


def _shift_nearest(n: int, bits: int) -> int:
    """n / 2**bits rounded to nearest, ties away from zero; bits >= 0.
    Equals _div_nearest(n, 1 << bits) without a long division."""
    if bits == 0:
        return n
    half = 1 << (bits - 1)
    if n >= 0:
        return (n + half) >> bits
    return -((half - n) >> bits)


@dataclass(frozen=True)
class FixedReal:
    """Immutable fixed-point real: value = mantissa * 2**-scale, with the
    true quantity within err_ulp output ulps of it."""

    mantissa: int
    scale: int
    err_ulp: int = 0

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if self.err_ulp < 0:
            raise ValueError("err_ulp must be non-negative")

    # -- construction -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, scale: int) -> "FixedReal":
        return cls(n << scale, scale, 0)

    @classmethod
    def from_fraction(cls, fr: Fraction, scale: int) -> "FixedReal":
        return cls._from_ratio(fr.numerator, fr.denominator, scale)

    @classmethod
    def _from_ratio(cls, num: int, den: int, scale: int) -> "FixedReal":
        """num/den (den > 0) rounded to nearest, ties away from zero; the
        pair need not be in lowest terms.  q, r = int_divmod(2 |num|
        2**scale + den, 2 den) gives the magnitude q, exact iff r == den."""
        q, r = int_divmod((abs(num) << (scale + 1)) + den, den << 1)
        return cls(-q if num < 0 else q, scale, 0 if r == den else 1)

    # -- exact views ---------------------------------------------------

    @property
    def value(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.scale)

    @property
    def lower(self) -> Fraction:
        return Fraction(self.mantissa - self.err_ulp, 1 << self.scale)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.mantissa + self.err_ulp, 1 << self.scale)

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.mantissa, self.scale, self.err_ulp)

    def __abs__(self) -> "FixedReal":
        # | |x| - |m| | <= |x - m|, so the error bound carries over.
        return FixedReal(abs(self.mantissa), self.scale, self.err_ulp)

    def _same_scale(self, other: "FixedReal") -> int:
        if self.scale != other.scale:
            raise ValueError(f"mixed scales {self.scale} and {other.scale}")
        return self.scale

    def __add__(self, other: "FixedReal") -> "FixedReal":
        s = self._same_scale(other)
        return FixedReal(
            self.mantissa + other.mantissa, s, self.err_ulp + other.err_ulp
        )

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return self + (-other)

    def __truediv__(self, other: "FixedReal") -> "FixedReal":
        s = self._same_scale(other)
        my, ey = other.mantissa, other.err_ulp
        if abs(my) <= ey:
            raise PrecisionExhausted(
                "divisor interval contains zero; raise the working scale"
            )
        num = self.mantissa << s
        m = _div_nearest(num if my > 0 else -num, abs(my))
        raw = (self.err_ulp * abs(my) + abs(self.mantissa) * ey) << s
        e = _ceil_div(raw, abs(my) * (abs(my) - ey)) + 1
        return FixedReal(m, s, e)

    def sqrt(self) -> "FixedReal":
        """Square root at the input scale, with one integer floor root
        (_sqrt_floor); the two branches that need its remainder form it.

        The input interval must reach non-negative values; a strictly
        negative interval means upstream cancellation destroyed the value.
        The part of the interval below zero, if any, is clamped away,
        which is sound whenever the true quantity is non-negative (the
        caller's contract for taking a square root).

        sqrt(m * 2**-s) = sqrt(m * 2**s) * 2**-s, so with A = m * 2**s
        and D = e * 2**s the root's mantissa interval must cover
        [sqrt(A - D), sqrt(A + D)].  An exact input (e = 0) gives r =
        isqrt(A): exact when the remainder A - r**2 is 0, [r, r + 1]
        otherwise.  An interval reaching zero gives [0, ceil(sqrt(A + D))],
        rounded up when the remainder is positive.  Otherwise, with g =
        _SQRT_GUARD, r = isqrt(A * 4**g) and p = r * 2**-g, so that
        sqrt(A) - 2**-g < p <= sqrt(A):

        * the mantissa is p rounded to nearest, within 1/2 + 2**-g of
          sqrt(A);
        * upper end: sqrt(A + D) <= sqrt(A) + D/(2 sqrt(A)) <= sqrt(A) + D/(2p);
        * lower end: sqrt(A - D) >= (p**2 - D)/p, so sqrt(A) - sqrt(A - D)
          = D/(sqrt(A) + sqrt(A - D)) <= D p/(2p**2 - D);
        * (r + 1)**2 > A * 4**g gives (2p**2 - D) * 4**g > den =
          (2m - e) * 2**(s + 2g) - 4r - 2, and den >= (m - e) * 2**(s + 2g)
          - 6 > 0 because (r - 2)**2 >= 0.

        So q = D r 2**g / den exceeds both D p/(2p**2 - D) and D/(2p),
        and err = ceil(1/2 + 2**-g + q) covers both ends: about
        e/(2 sqrt(value)) + 1/2 ulps.  The powers of two enter by shifts
        and e is the only factor on r, so everything but the one root
        is linear in the operand size.
        """
        m, e, s = self.mantissa, self.err_ulp, self.scale
        lo, hi = m - e, m + e
        if hi < 0:
            raise PrecisionExhausted(
                "square root of an entirely negative interval"
            )
        if e == 0:
            r = _sqrt_floor(m << s)
            return FixedReal(r, s, int(r * r != m << s))
        if lo <= 0:
            r_hi = _sqrt_floor(hi << s)
            r_hi += r_hi * r_hi < hi << s
            mid = r_hi // 2
            return FixedReal(mid, s, r_hi - mid)
        g = _SQRT_GUARD
        r = _sqrt_floor(m << (s + 2 * g))
        den = ((2 * m - e) << (s + 2 * g)) - 4 * r - 2
        half_plus = (1 << (g - 1)) + 1  # (1/2 + 2**-g) * 2**g
        err = _ceil_div(((e * r) << (s + 2 * g)) + half_plus * den, den << g)
        return FixedReal(_shift_nearest(r, g), s, err)

    def shift(self, bits: int) -> "FixedReal":
        """Multiply by 2**bits exactly; bits >= 0."""
        if bits < 0:
            raise ValueError("shift takes a non-negative bit count")
        return FixedReal(self.mantissa << bits, self.scale, self.err_ulp << bits)

    def widened(self, extra_ulp: int) -> "FixedReal":
        return FixedReal(self.mantissa, self.scale, self.err_ulp + extra_ulp)

    # -- decimal I/O ----------------------------------------------------

    def to_decimal(self, digits: int) -> tuple[str, bool]:
        """The longest expansion of at most `digits` places on which both
        interval ends, each truncated toward zero, agree character for
        character, sign included, and whether all `digits` places are
        there.  A negative interval prints "-" even when every shown
        digit is zero; one straddling zero gives ("", False).  Each
        distinct end is truncated once: a zero-width interval, certified
        by construction, costs one multiplication.
        """
        if digits < 1:
            raise ValueError("digits must be at least 1")
        unit = 10 ** digits
        m, e = self.mantissa, self.err_ulp
        ends = {(end < 0, (abs(end) * unit) >> self.scale) for end in {m - e, m + e}}
        texts = []
        for negative, n in ends:
            body = int_to_text(n).zfill(digits + 1)
            texts.append(f"{'-' if negative else ''}{body[:-digits]}.{body[-digits:]}")
        if len(texts) == 1:
            return texts[0], True
        # Distinct truncations print distinct texts, so some place is
        # missing; a common prefix that stops at or before the point
        # certifies none.
        text = texts[0][:_common_prefix_length(*texts)]
        return (text if "." in text[:-1] else ""), False
