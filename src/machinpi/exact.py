"""Exact integer, rational, and Gaussian-integer arithmetic.

Rationals are `fractions.Fraction` (always reduced, positive denominator,
zero canonically 0/1).  A Gaussian integer is a plain (re, im) pair of
ints: gaussian_product multiplies two in three multiplications, and
gaussian_power raises one to a power; every operation is exact, no
floating point anywhere.  A rotation (p + qi)/(p - qi) is never formed
as a quotient: callers keep the Gaussian integer (p + qi)**n and its
norm apart, and divide once, as Fractions, only where a rational result
is wanted.

The record path works in exact decimal instead: decimal_gaussian_power
forms (p + qi)**n in a private libmpdec context in which every integer
operation is exact, so its decimal text costs linear time, and
decimal_head reads the leading digits of a quotient of two such texts.
Both powers share one square-and-multiply loop.  int_to_text and
text_to_int convert big integers to and from decimal text in
subquadratic time where an int is still wanted, splitting by powers of
2 and 5 that kept_power forms once per call, as it forms the series
splits' powers; none of them changes CPython's process-wide int <-> str
digit cap or the thread's decimal context.  int_divmod is divmod in
subquadratic time, for every division of working-scale operands.
"""

from __future__ import annotations

import decimal
import operator
from fractions import Fraction


# CPython checks an int <-> decimal-text conversion against its digit cap
# (sys.int_info.str_digits_check_threshold) only above 640 digits, so
# chunks of at most this many digits convert whatever the cap is set to.
_TEXT_CHUNK = 640

# int_to_text peels _TEXT_CHUNK-digit chunks off by division up to this
# many bits and splits by powers of two above it.  On a 2-vCPU Xeon with
# Python 3.11 the chunks were 5% faster at 10,000 digits, and both ways
# took the same time at about 18,000 digits.  Splitting at every size
# instead, in 10 alternating pairs of perfbench runs, made `rates` (343
# conversions of 100 to 600 digits a pass) 0.0340 -> 0.0350 s and the
# peak RSS of `tower` (10,000-digit output) 21.14 -> 21.41 MB, worse in
# every pair.  Only certified output over about 18,000 digits splits.
_SPLIT_BITS = 60_000

# Parts of at most this many bits enter decimal directly, converted by
# libmpdec; of 128 to 2048 bits, 1024 was fastest from 10,000 to 320,000
# digits on the same host.
_LEAF_BITS = 1024


def _exact_context() -> decimal.Context:
    """A private decimal context in which integer arithmetic is exact:
    unbounded precision and exponents, with any rounding trapped.  The
    thread's current context is neither read nor changed."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    return ctx


def int_to_text(n: int) -> str:
    """str(n) for an int of any size, in subquadratic time.

    Up to _SPLIT_BITS bits the digits come off in chunks of _TEXT_CHUNK
    by division.  Above, n = hi * 2**w + lo is split in halves down to
    _LEAF_BITS bits, and the halves are recombined as hi * 2**w + lo in
    exact decimal arithmetic, whose multiplication is fast at this size
    (the method of CPython 3.12's Lib/_pylong.py); decimal text then
    comes out of the result in linear time.  Each power 2**w is formed
    once per call.
    """
    if n < 0:
        return "-" + int_to_text(-n)
    if n.bit_length() <= _SPLIT_BITS:
        unit, chunks = 10 ** _TEXT_CHUNK, []
        while n >= unit:
            n, low = divmod(n, unit)
            chunks.append(f"{low:0{_TEXT_CHUNK}d}")
        return str(n) + "".join(reversed(chunks))
    ctx = _exact_context()
    powers = {0: ctx.create_decimal(1), 1: ctx.create_decimal(2)}
    return ctx.to_sci_string(_to_decimal(n, n.bit_length(), ctx, powers))


# Module functions, not closures: a recursive closure is a reference cycle
# that keeps its text and powers alive until the cyclic collector runs.

def _to_decimal(m: int, bits: int, ctx: decimal.Context, powers: dict) -> decimal.Decimal:
    if bits <= _LEAF_BITS:
        return ctx.create_decimal(m)
    w = bits >> 1
    hi = m >> w
    return ctx.fma(_to_decimal(hi, bits - w, ctx, powers), kept_power(powers, w, ctx.multiply),
                   _to_decimal(m - (hi << w), w, ctx, powers))


def kept_power(powers: dict, n: int, mul):
    """The nth power in the arithmetic mul, `powers` a dict by exponent
    that holds the 0th and the 1st: mul(powers[n - 1], powers[1]) if the
    (n - 1)th is kept, else mul of the halves' powers.  Each power formed
    is kept, so a fresh nth power takes at most 2 bits(n) products."""
    result = powers.get(n)
    if result is None:
        if n - 1 in powers:
            result = mul(powers[n - 1], powers[1])
        else:
            h = n >> 1
            result = mul(kept_power(powers, h, mul), kept_power(powers, n - h, mul))
        powers[n] = result
    return result


# int_divmod and its recursion hand a divisor or quotient of at most
# this many bits to divmod.  Timed with Python 3.11.7 on a 2-vCPU Xeon
# VM, best of 12 alternating rounds: crossovers of 3000 to 8000 bits
# were within 9% of each other on the tower's 69k-bit roots (0.60-0.65
# ms each) and on 2s-by-s roundings at s = 33,300 (0.86-0.89 ms); 2000
# was 15-19% slower, and plain divmod took 0.88 and 1.91 ms.  4000 is
# also CPython 3.12's _pylong limit.
_DIV_CROSSOVER = 4000


def int_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 < b, in subquadratic time.

    A divisor or a quotient of at most _DIV_CROSSOVER bits goes straight
    to divmod, whose cost is the product of the two lengths.  Above, with
    n the divisor's bits, a is cut into a top part below b * 2**n and
    n-bit blocks under it.  The top is divided first and then each block
    under the running remainder, each by Burnikel and Ziegler's 2n-by-n
    recursion (Fast Recursive Division, MPI-I-98-1-022, 1998; the method
    of CPython 3.12's Lib/_pylong.py), so a quotient longer than n bits
    comes off in n-bit chunks.  Quotient and remainder are exactly
    divmod's.
    """
    n = b.bit_length()
    if n <= _DIV_CROSSOVER or a.bit_length() - n <= _DIV_CROSSOVER:
        return divmod(a, b)
    # a >> shift has at most 2n - 1 bits, so it is below b * 2**n.
    shift = (a.bit_length() - n) // n * n
    q, r = _div2n1n(a >> shift, b, n)
    mask = (1 << n) - 1
    while shift:
        shift -= n
        digit, r = _div2n1n((r << n) | ((a >> shift) & mask), b, n)
        q = (q << n) | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2**n: an odd
    n is padded by one bit, and the two halves of the quotient each come
    from a 3-by-2 division by b's halves (_div3n2n)."""
    if a.bit_length() - n <= _DIV_CROSSOVER:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return (q1 << half) | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 * 2**n + a3, b) for b = b1 * 2**n + b2, b1 of exactly n
    bits, a3 < 2**n and a12 < b, so that the quotient has at most n bits.
    Its estimate min(a12 // b1, 2**n - 1) exceeds it by at most 2, as
    b1's top bit is set, so the remainder is corrected at most twice."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = ((r << n) | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def text_to_int(text: str) -> int:
    """int(text) for text as int_to_text writes it (ASCII digits after an
    optional minus), split in halves down to _TEXT_CHUNK digits.  A split
    at m digits recombines as (hi * 5**m << m) + lo, and each 5**m is
    formed once per call."""
    if text.startswith("-"):
        return -text_to_int(text[1:])
    return _parse_digits(text, 0, len(text), {0: 1, 1: 5})


def _parse_digits(text: str, start: int, end: int, powers: dict[int, int]) -> int:
    if end - start <= _TEXT_CHUNK:
        return int(text[start:end])
    m = (end - start) >> 1
    return ((_parse_digits(text, start, end - m, powers) * kept_power(powers, m, operator.mul) << m)
            + _parse_digits(text, end - m, end, powers))


def gaussian_product(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    """The parts of (ar + ai i)(br + bi i) from three multiplications in
    Gauss's form: k = br (ar + ai), then k - ai (br + bi) and k + ar (bi -
    br).  Of big parts, that is three quarters of the four products."""
    k = br * (ar + ai)
    return k - ai * (br + bi), k + ar * (bi - br)


def gaussian_power(re: int, im: int, n: int) -> tuple[int, int]:
    """The parts of (re + im i)**n for n >= 0 as a pair of ints, (1, 0)
    for n = 0."""
    return _square_and_multiply(re, im, n, operator.mul, operator.add, operator.sub)


def decimal_gaussian_power(re: int, im: int, n: int,
                           ctx: decimal.Context) -> tuple[decimal.Decimal, decimal.Decimal]:
    """The parts of (re + im i)**n for n >= 1 as integer Decimals
    (exponent 0), computed in ctx, which must be an _exact_context(), so
    that any rounding raises instead of passing."""
    if n < 1:
        raise ValueError("the exponent of a decimal Gaussian power must be positive")
    return _square_and_multiply(ctx.create_decimal(re), ctx.create_decimal(im), n,
                                ctx.multiply, ctx.add, ctx.subtract)


def _square_and_multiply(re, im, n: int, mul, add, sub):
    """(re + im i)**n for n >= 0 in the arithmetic mul, add and sub, by
    square-and-multiply from the top bit of n: each square takes two
    multiplications, (a + b)(a - b) and ab, and each multiply is by the
    base, which also starts the loop for n >= 1."""
    if not n:
        return 1, 0
    a, b = re, im
    for i in reversed(range(n.bit_length() - 1)):
        ab = mul(a, b)
        a, b = mul(add(a, b), sub(a, b)), add(ab, ab)
        if n >> i & 1:
            a, b = sub(mul(a, re), mul(b, im)), add(mul(a, im), mul(b, re))
    return a, b


def parse_rational(text: str) -> Fraction:
    """Parse "5", "-239", "24/10", or "2.4" into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction from a coprime pair with den > 0, skipping Fraction's
    normalising gcd (the constructor spelling changed in Python 3.12)."""
    if hasattr(Fraction, "_from_coprime_ints"):
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)


def fraction_from_text(num: str, den: str) -> Fraction:
    """The Fraction num/den from decimal integer text of a coprime pair
    with den > 0, as the second-term solver returns it; no gcd runs."""
    return _coprime_fraction(text_to_int(num), text_to_int(den))


def decimal_head(num: str, den: str) -> str:
    """Leading decimal expansion of num/den, given as integer text with
    den > 0: 20 digits after the point, truncated toward zero, in plain
    fixed point below 10**6 in magnitude and as d.<20 digits>e<exp> above.

    With a and b the digit counts of |num| and den, |num/den| lies in
    [10**(a-b-1), 10**(a-b+1)), so floor(|num/den| * 10**(21-a+b)) has
    21 or 22 digits; its length gives the exponent, and its first 21
    digits are the truncated mantissa, since dropping an integer's last
    digit truncates once more.  Both quotients are exact divide_int
    calls with small results; nothing of the parts' size is converted.
    """
    ctx = _exact_context()
    sign = "-" if num.startswith("-") else ""
    magnitude, divisor = ctx.create_decimal(num[len(sign):]), ctx.create_decimal(den)
    shift = len(num) - len(sign) - len(den)
    mantissa = str(ctx.divide_int(ctx.scaleb(magnitude, 21 - shift), divisor))
    exp = shift - 22 + len(mantissa)
    if exp >= 6:
        return f"{sign}{mantissa[0]}.{mantissa[1:21]}e{exp}"
    fixed = str(ctx.divide_int(ctx.scaleb(magnitude, 20), divisor)).zfill(21)
    return f"{sign}{fixed[:-20]}.{fixed[-20:]}"
