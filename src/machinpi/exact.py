"""Exact integer, rational, and Gaussian-integer arithmetic.

Rationals are `fractions.Fraction` (always reduced, positive denominator,
zero canonically 0/1).  The only complex type is GaussianInt, an
immutable pair of ints; every operation is exact, no floating point
anywhere.  A rotation (p + qi)/(p - qi) is never formed as a quotient:
callers keep the Gaussian integer (p + qi)**n and its norm apart, and
divide once, as Fractions, only where a rational result is wanted.
int_to_text and text_to_int convert big integers to and from decimal
text without changing CPython's process-wide int <-> str digit cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_LOG10_2 = math.log10(2)


# CPython checks an int <-> decimal-text conversion against its digit cap
# (sys.int_info.str_digits_check_threshold) only above 640 digits, so
# chunks of at most this many digits convert whatever the cap is set to.
_TEXT_CHUNK = 640


def int_to_text(n: int) -> str:
    """str(n) for an int of any size, built from chunks of _TEXT_CHUNK
    digits."""
    if n < 0:
        return "-" + int_to_text(-n)
    unit, chunks = 10 ** _TEXT_CHUNK, []
    while n >= unit:
        n, low = divmod(n, unit)
        chunks.append(f"{low:0{_TEXT_CHUNK}d}")
    return str(n) + "".join(reversed(chunks))


def text_to_int(text: str) -> int:
    """int(text) for text as int_to_text writes it (ASCII digits after an
    optional minus), split in halves down to _TEXT_CHUNK digits."""
    if text.startswith("-"):
        return -text_to_int(text[1:])
    if len(text) <= _TEXT_CHUNK:
        return int(text)
    half = len(text) // 2
    return text_to_int(text[:-half]) * 10 ** half + text_to_int(text[-half:])


@dataclass(frozen=True)
class GaussianInt:
    """Complex number with arbitrary-precision integer parts."""

    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianInt(a * c - b * d, a * d + b * c)

    def __pow__(self, n: int) -> "GaussianInt":
        """Square-and-multiply; O(log n) multiplications."""
        if n < 0:
            raise ValueError("negative exponent on a Gaussian integer")
        result = GaussianInt(1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.square()
        return result

    def square(self) -> "GaussianInt":
        """(a + bi)**2 with two big multiplications instead of four."""
        a, b = self.re, self.im
        return GaussianInt((a + b) * (a - b), (a * b) << 1)

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def scaled(self, n: int) -> "GaussianInt":
        """Product with the rational integer n."""
        return GaussianInt(self.re * n, self.im * n)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im


def parse_rational(text: str) -> Fraction:
    """Parse "5", "-239", "24/10", or "2.4" into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def fraction_sharing_only_twos(num: int, den: int) -> Fraction:
    """num/den in lowest terms, for a pair whose gcd is a power of two.

    The common power of two is the smaller count of trailing zero bits,
    so one shift reduces the pair; no gcd of the big values is run.

    The second-term solve needs this for num = A + B, den = A - B, where
    A + Bi = (p + qi)**n and gcd(p, q) = 1.  An odd prime l dividing
    A + B and A - B divides 2A and 2B, hence A and B, hence (p + qi)**n
    in Z[i].  If l = 3 (mod 4) it is a Gaussian prime, so it divides
    p + qi; if l = 1 (mod 4) it splits as a conjugate pair of
    non-associate primes that both divide p + qi.  Either way l divides
    p and q, which are coprime.  Only the ramified prime 1 + i can be
    shared, so the gcd is a power of two.  The caller vouches for that
    precondition; this helper does not check it.
    """
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num == 0:
        return Fraction(0)
    shift = min(_trailing_zero_bits(num), _trailing_zero_bits(den))
    num >>= shift
    den >>= shift
    if den < 0:
        num, den = -num, -den
    return _coprime_fraction(num, den)


def _trailing_zero_bits(n: int) -> int:
    return (n & -n).bit_length() - 1


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction from a coprime pair with den > 0, skipping Fraction's
    normalising gcd (the constructor spelling changed in Python 3.12)."""
    if hasattr(Fraction, "_from_coprime_ints"):
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)


def decimal_digit_count(n: int) -> int:
    """Number of decimal digits of |n| without a full str() conversion.

    bit_length brackets the answer to two candidates; one big-integer
    comparison settles it.
    """
    n = abs(n)
    if n == 0:
        return 1
    e = int(n.bit_length() * _LOG10_2)
    # e <= log10(n) + 1, and 10**e > n happens only when the estimate
    # overshoots by the float slack; correct with exact comparisons.
    while 10 ** e > n:
        e -= 1
    while 10 ** (e + 1) <= n:
        e += 1
    return e + 1


def fraction_to_fixed_text(fr: Fraction, digits: int) -> str:
    """Render fr with `digits` digits after the point, truncated toward zero."""
    if digits < 0:
        raise ValueError("digits must be non-negative")
    sign = "-" if fr < 0 else ""
    scaled = abs(fr.numerator) * 10 ** digits // fr.denominator
    whole, frac = divmod(scaled, 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def fraction_to_sci_text(fr: Fraction, digits: int) -> str:
    """Scientific form d.<digits>e<exp>, mantissa truncated toward zero."""
    if fr == 0:
        return f"0.{'0' * digits}e0"
    # Digit-count difference brackets the exponent to within one.
    exp = decimal_digit_count(fr.numerator) - decimal_digit_count(fr.denominator)
    mantissa = abs(fr) / Fraction(10) ** exp
    while mantissa >= 10:
        mantissa /= 10
        exp += 1
    while mantissa < 1:
        mantissa *= 10
        exp -= 1
    sign = "-" if fr < 0 else ""
    return f"{sign}{fraction_to_fixed_text(mantissa, digits)}e{exp}"


def format_decimal_head(fr: Fraction) -> str:
    """Leading decimal expansion of a rational, 20 digits after the point:
    plain fixed-point for magnitudes below 10**6, scientific above."""
    if abs(fr) < 10 ** 6:
        return fraction_to_fixed_text(fr, 20)
    return fraction_to_sci_text(fr, 20)
