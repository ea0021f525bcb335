"""Exact construction and verification of two-term arctangent identities.

A term alpha * arctan(1/beta) corresponds to the unit-modulus rotation
((beta + i)/(beta - i)) ** alpha, and a formula for pi/4 is exactly valid
iff the product of its rotations equals i.  With beta = p/q in lowest
terms the rotation is (p + qi)**2 / |p + qi|**2, so everything reduces to
Gaussian integers: with

    G = product over the terms of (p + qi) ** |alpha|
        (the conjugate p - qi where alpha < 0),

the rotations multiply to G**2 / |G|**2, which is i exactly when
G.re == G.im != 0.  No rational reduction and no gcd is needed.  That
pins the sum of alpha * arctan(1/beta) only modulo pi, so a float
estimate of the sum, with a stated error bound, fixes the branch: the
sum is pi/4 + n*pi for an integer n, and only n = 0 is a formula for pi.
verify_formula forms G as a pair of ints (exact.gaussian_power) and
raises UnverifiedFormula when either check fails.

Solving for the closing second term: with beta1 = p/q in lowest terms and
A + Bi = (p + qi) ** alpha1,

    ((beta1 + i)/(beta1 - i)) ** alpha1 = (A + Bi)/(A - Bi),

and demanding the product equal i gives beta2 = (A + B)/(A - B).  The
only common factor of A + B and A - B is a power of two (README,
"(A + B)/(A - B) is reduced by a shift"), and its exponent follows from
the parities of p and q alone (second_term_text), so beta2 comes out in
lowest terms with nothing divided.  The solver works in exact decimal
and returns beta2's parts as decimal text, which is what a record
stores.  The same value falls out of the direct rearrangement

    beta2 = 2 / (z - i) - i,      z = ((beta1 + i)/(beta1 - i)) ** alpha1,

which solve_second_term_direct evaluates on one int Gaussian power as an
independent cross-check path; the README records the algebra connecting
the two.  A stored second term is compared with the closed form as text
(check_second_term), so no product with it is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSecondTerm, NotExactlyVerifiable, UnverifiedFormula
from .exact import (_exact_context, decimal_gaussian_power, fraction_from_text,
                    gaussian_power, gaussian_product)

# Error of a term's float estimate alpha * atan(1/beta) per unit of
# |alpha|.  The atan is off by at most 2**-50 + 2**-54: 4 ulps of
# |atan| <= pi/2 for libm, and 2**-54 for rounding y = 1/beta to a float,
# since atan'(y) <= 1/(1 + y**2).  Beyond |y| = 2**64 the float pi/2
# stands in, off by at most 2**-53 + 2**-64.  The float product and the
# correctly rounded fsum add 2**-52 each.  The total is 0.79 * 2**-49,
# below 2**-49.
_ATAN_ERROR = 2.0 ** -49

# Largest Gaussian power formed, in bits of its parts.  Depth 23's second
# term needs about 1.08e8 bits; a power past 2**30 bits would run for
# hours or exhaust memory, so it is refused before it is formed.
MAX_POWER_BITS = 1 << 30


def check_tower_depth(k: int) -> None:
    """ValueError when no u1 the tower can select at depth k has a closing
    power within MAX_POWER_BITS (k >= 27): u1 > 9/10 c_k > 2**(k-1), so
    (p + qi)**(2**(k-1)) has over 2**(k-1) * (k-1) bits, bounded in logs
    with k capped at MAX_POWER_BITS, so that no huge int meets a float."""
    n = min(k, MAX_POWER_BITS) - 1
    log2_bits = n + math.log2(n) if n >= 1 else 0.0
    if log2_bits > math.log2(MAX_POWER_BITS):
        raise ValueError(f"depth {k} needs a Gaussian power of at least "
                         f"2**{log2_bits:.1f} bits, over the limit of "
                         f"{MAX_POWER_BITS:.3g} bits")


@dataclass(frozen=True)
class MachinFormula:
    """pi/4 = sum of alpha * arctan(1/beta) over the terms, held as (int
    alpha, Fraction beta != 0).  alpha must be an int or an integral
    Fraction, else ValueError; a Fraction beta is copied with no gcd."""

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a formula needs at least one term")
        terms = tuple((_integer(alpha), Fraction(beta)) for alpha, beta in self.terms)
        if any(beta == 0 for _, beta in terms):
            raise ValueError("every cotangent argument must be nonzero")
        object.__setattr__(self, "terms", terms)

    @functools.cached_property
    def proof(self) -> None:
        """verify_formula(self), kept on this instance once it passes."""
        verify_formula(self)

    @classmethod
    def two_term(cls, k: int, u1: Fraction, u2: Fraction) -> "MachinFormula":
        return cls(((1 << (k - 1), u1), (1, u2)))

    @classmethod
    def single(cls, alpha: int, beta: Fraction) -> "MachinFormula":
        return cls(((alpha, beta),))


def _integer(value) -> int:
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        return int(value)
    raise ValueError("formula coefficients must be integers")


def power_bits(alpha: int, beta: Fraction) -> float:
    """Bits in the parts of (p + qi) ** |alpha| with beta = p/q, that is
    |alpha| log2(p**2 + q**2) / 2, from the leading 64 bits of p and q.

    |alpha| is capped at 2**64 to keep the float finite; past that every
    power is over MAX_POWER_BITS anyway, since log2(p**2 + q**2) >= 1.
    """
    p, q = abs(beta.numerator), beta.denominator
    drop = max(0, p.bit_length() - 64, q.bit_length() - 64)
    p, q = p >> drop, q >> drop
    return min(abs(alpha), 1 << 64) * (math.log2(p * p + q * q) / 2 + drop)


def _check_power_size(bits: float, error: type[Exception]) -> None:
    if bits > MAX_POWER_BITS:
        raise error(f"a Gaussian power of {bits:.3g} bits is over the "
                    f"limit of {MAX_POWER_BITS:.3g} bits")


def term_text(alpha: int, beta: Fraction) -> str:
    """alpha*arctan(1/beta) as messages print it, with a non-integer beta
    in parentheses: 3*arctan(1/(1/2)), not 3*arctan(1/1/2)."""
    cot = beta if beta.denominator == 1 else f"({beta})"
    return f"{alpha}*arctan(1/{cot})"


def second_term_text(alpha1: int, beta1: Fraction) -> tuple[str, str]:
    """Exact beta2 with alpha1*arctan(1/beta1) + arctan(1/beta2) equal to
    pi/4 modulo pi, as the decimal text (num, den) of its lowest terms
    with den > 0; the sum may be pi/4 + n*pi, and closing_turns gives n.

    With beta1 = p/q and A + Bi = (p + qi)**n, n = alpha1, beta2 is
    (A + B)/(A - B) over the power of two the two share (the only common
    factor: README, "(A + B)/(A - B) is reduced by a shift"), and that
    power is known from the parities of p and q:

    - p + q odd: the norm p**2 + q**2 is odd, so is A**2 + B**2, so A
      and B have opposite parity and A + B, A - B are odd: nothing is
      shared, and beta2 = (A + B)/(A - B) as it stands.
    - p, q both odd: p + qi = (1 + i) h with h = ((p + q) + (q - p) i)/2,
      whose norm (p**2 + q**2)/2 is odd, so h**n = C + Di has C, D of
      opposite parity.  As (1 + i)**2 = 2i, (p + qi)**n = 2**m i**m
      (1 + i)**(n - 2m) (C + Di) with m = floor(n/2).  Let x + yi =
      i**m (C + Di), again of opposite parity; i**2 = -1 scales A and B
      alike and leaves beta2 unchanged, so only m mod 2 matters.  For
      even n, A + B = 2**m (x + y) and A - B = 2**m (x - y), with x +- y
      odd; for odd n the factor 1 + i makes them 2**(m+1) x and
      -2**(m+1) y, with x, y of opposite parity.  So 2**ceil(n/2) is all
      they share, and beta2 is (x + y)/(x - y) or x/(-y).

    The power is formed in exact decimal (exact.decimal_gaussian_power),
    whose text costs linear time.  ValueError for a power over
    MAX_POWER_BITS, checked before it is formed.  DegenerateSecondTerm
    when the first term alone is pi/4 modulo pi (A = B: the rotation is
    already i) or is pi/4 plus a right angle (A = -B: beta2 would be
    zero, and arctan(1/beta2) undefined).
    """
    if alpha1 < 1:
        raise ValueError("first coefficient must be a positive integer")
    beta1 = Fraction(beta1)
    if beta1 == 0:
        raise ValueError("first cotangent argument must be nonzero")
    _check_power_size(power_bits(alpha1, beta1), ValueError)
    return _second_term_text(alpha1, beta1)


def _second_term_text(alpha1: int, beta1: Fraction) -> tuple[str, str]:
    """second_term_text for alpha1 >= 1 and a nonzero Fraction beta1
    whose power the caller has already sized."""
    p, q = beta1.numerator, beta1.denominator
    ctx = _exact_context()
    if (p + q) & 1:
        a, b = decimal_gaussian_power(p, q, alpha1, ctx)
        num, den = ctx.add(a, b), ctx.subtract(a, b)
    else:
        x, y = decimal_gaussian_power((p + q) >> 1, (q - p) >> 1, alpha1, ctx)
        if alpha1 & 2:  # times i**m up to a sign, which cancels in the quotient
            x, y = y.copy_negate(), x
        if alpha1 & 1:
            num, den = x, y.copy_negate()
        else:
            num, den = ctx.add(x, y), ctx.subtract(x, y)
    if den.is_zero():
        turns = sum_turns(MachinFormula.single(alpha1, beta1))
        raise DegenerateSecondTerm(f"{term_text(alpha1, beta1)} is already pi/4"
                                   f"{f' {turns:+d}*pi' if turns else ''}; no second term")
    if num.is_zero():
        raise DegenerateSecondTerm(
            f"{term_text(alpha1, beta1)} differs from pi/4 by a right "
            "angle; the second argument degenerates to zero"
        )
    if den.is_signed():
        num, den = num.copy_negate(), den.copy_negate()
    return str(num), str(den)


def solve_second_term(alpha1: int, beta1: Fraction) -> Fraction:
    """second_term_text's beta2 as a Fraction, for callers that compute
    with it; its parts are converted from the text."""
    return fraction_from_text(*second_term_text(alpha1, beta1))


def solve_u2(u1: Fraction, k: int) -> Fraction:
    """Second argument closing pi/4 = 2**(k-1) * arctan(1/u1) + arctan(1/u2)."""
    u1 = Fraction(u1)
    if u1 <= 0:
        raise ValueError("u1 must be positive")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return solve_second_term(1 << (k - 1), u1)


def check_second_term(k: int, u1: Fraction, u2: tuple[str, str]) -> bool:
    """Exact check of pi/4 = 2**(k-1) arctan(1/u1) + arctan(1/u2), k >= 1
    and u1 a nonzero Fraction, u2 = r/s given as the decimal text (r, s) a
    record stores, s > 0, r != 0:
    G = (p + qi)**(2**(k-1)) (r + si) has G.re == G.im != 0 iff r/s is
    the solved closing term, which is in lowest terms (README, "Checking a
    record by re-solving u2").  So equal text proves the product check and
    lowest terms at once.  Text that differs is told apart by one exact
    decimal cross-multiplication: the same value unreduced, or another
    value.  Returns whether (r, s) is the solved text; UnverifiedFormula
    if a check fails, NotExactlyVerifiable for a power over
    MAX_POWER_BITS, checked once before the power is formed."""
    n = 1 << (k - 1)
    _check_power_size(power_bits(n, u1), NotExactlyVerifiable)
    try:
        solved = _second_term_text(n, u1)
    except DegenerateSecondTerm as exc:  # closing it needs r = 0 or s = 0
        raise UnverifiedFormula(f"exact product check failed: {exc}") from exc
    reduced = u2 == solved
    if not reduced:
        ctx = _exact_context()
        r, s, r0, s0 = (ctx.create_decimal(part) for part in (*u2, *solved))
        if ctx.multiply(r, s0) != ctx.multiply(s, r0):
            raise UnverifiedFormula("exact product check failed: u2 is not the closing "
                                    "term (A + B)/(A - B), A + Bi = (p + qi)**2**(k-1)")
    turns = closing_turns(n, u1, solved)
    if turns:
        raise UnverifiedFormula(f"branch check failed: the sum is pi/4 {turns:+d}*pi")
    return reduced


def solve_second_term_direct(alpha1: int, beta1: Fraction) -> Fraction:
    """Same value as solve_second_term via the rearrangement 2/(z - i) - i;
    cross-check path.  With beta1 = p/q, X + Yi = (p + qi)**(2*alpha1) and
    n = (p**2 + q**2)**alpha1, z = (X + Yi)/n and

        2/(z - i) - i = 2n (X - (Y - n) i) / (X**2 + (Y - n)**2) - i,

    real because X**2 + Y**2 = n**2.  Fraction reduces it by gcd, so the
    check does not rely on the closed form's shift reduction.
    """
    if alpha1 < 1:
        raise ValueError("first coefficient must be a positive integer")
    beta1 = Fraction(beta1)
    _check_power_size(power_bits(2 * alpha1, beta1), ValueError)
    p, q = beta1.numerator, beta1.denominator
    x, y = gaussian_power(p, q, 2 * alpha1)
    n = (p * p + q * q) ** alpha1
    y -= n
    if x == 0 and y == 0:
        raise DegenerateSecondTerm(
            f"{term_text(alpha1, beta1)} is already pi/4; no second term"
        )
    denom = x * x + y * y
    assert -2 * n * y == denom, "second argument must come out real"
    if x == 0:
        raise DegenerateSecondTerm(
            f"{term_text(alpha1, beta1)} differs from pi/4 by a right "
            "angle; the second argument degenerates to zero"
        )
    return Fraction(2 * n * x, denom)


def verify_formula(formula: MachinFormula) -> None:
    """Exact check that the rotations multiply to i, on Gaussian integers,
    and that the sum of the terms is pi/4 itself, not pi/4 + n*pi.
    UnverifiedFormula names the check that fails and the sizes of G's
    parts, however large G is.

    Coefficients too large for the float estimate to tell the branches
    apart raise NotExactlyVerifiable rather than guessing a branch, and so
    does a product over MAX_POWER_BITS, checked once on the power_bits
    summed over the terms, a sum that bounds every factor as well."""
    # Exact comparison: the divisor is a power of two; no float overflow.
    weight = sum(abs(alpha) for alpha, _ in formula.terms)
    if weight >= math.pi / 8 / _ATAN_ERROR:
        raise NotExactlyVerifiable(f"coefficients summing to a {weight.bit_length()}-bit "
                                   "magnitude are too large for the branch check")
    bits = sum(power_bits(alpha, beta) for alpha, beta in formula.terms)
    _check_power_size(bits, NotExactlyVerifiable)
    re, im = 1, 0
    for alpha, beta in formula.terms:
        q = beta.denominator if alpha >= 0 else -beta.denominator
        c, d = gaussian_power(beta.numerator, q, abs(alpha))
        re, im = gaussian_product(re, im, c, d)
    sizes = f"G.re ({re.bit_length()} bits) {{}} G.im ({im.bit_length()} bits)"
    if not re == im != 0:
        raise UnverifiedFormula("exact product check failed: " + sizes.format("!="))
    turns = sum_turns(formula)
    if turns:
        raise UnverifiedFormula(f"branch check failed: the sum is pi/4 {turns:+d}*pi "
                                "(the product check holds: " + sizes.format("==") + ")")


def sum_turns(formula: MachinFormula) -> int:
    """n with sum of alpha * arctan(1/beta) = pi/4 + n*pi, for a formula
    whose product check holds.  The float estimate is within
    sum(|alpha|) * _ATAN_ERROR < pi/8 of the sum, so rounding picks n."""
    estimate = math.fsum(float(alpha) * _atan_inverse(beta.numerator, beta.denominator)
                         for alpha, beta in formula.terms)
    return round((estimate - math.pi / 4) / math.pi)


def closing_turns(alpha1: int, beta1: Fraction, beta2: tuple[str, str]) -> int:
    """n with alpha1*arctan(1/beta1) + arctan(1/beta2) = pi/4 + n*pi, for
    the text beta2 = (num, den) that second_term_text returns; only num's
    sign is read.  arctan(1/beta2) is in (0, pi/2) or (-pi/2, 0) as beta2
    is positive or negative, so theta = alpha1*arctan(1/beta1) has theta/pi
    within 1/4 of n or n + 1/2: an estimate within pi/4 of theta rounds to
    n with the half taken off.  Callers size the power first, so alpha1 <=
    2**31 (MAX_POWER_BITS) and theta's float error is under 2**-17."""
    theta = float(alpha1) * _atan_inverse(beta1.numerator, beta1.denominator)
    return round(theta / math.pi - 0.5 * beta2[0].startswith("-"))


def _atan_inverse(p: int, q: int) -> float:
    """atan(q/p) as a float for q > 0.  q / p is rounded once from the
    integers however large they are; beyond |q/p| = 2**64 the result is
    +-pi/2, within 2**-64 of the arctangent."""
    if q > abs(p) << 64:
        return math.copysign(math.pi / 2, p)
    return math.atan(q / p)
