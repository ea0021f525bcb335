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

Solving for the closing second term: with beta1 = p/q in lowest terms and
A + Bi = (p + qi) ** alpha1,

    ((beta1 + i)/(beta1 - i)) ** alpha1 = (A + Bi)/(A - Bi),

and demanding the product equal i gives beta2 = (A + B)/(A - B).  The
only common factor of A + B and A - B is a power of two (see
exact.fraction_sharing_only_twos), so one shift puts beta2 in lowest
terms.  The same value falls out of the direct rearrangement

    beta2 = 2 / (z - i) - i,      z = ((beta1 + i)/(beta1 - i)) ** alpha1,

which solve_second_term_direct evaluates on one Gaussian power as an
independent cross-check path; the README records the algebra connecting
the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSecondTerm, NotExactlyVerifiable
from .exact import GaussianInt, fraction_sharing_only_twos

# Error of a term's float estimate alpha * atan(1/beta) per unit of
# |alpha|.  The atan is off by at most 2**-50 + 2**-54: 4 ulps of
# |atan| <= pi/2 for libm, and 2**-54 for rounding y = 1/beta to a float,
# since atan'(y) <= 1/(1 + y**2).  Beyond |y| = 2**64 the float pi/2
# stands in, off by at most 2**-53 + 2**-64.  The float product and the
# correctly rounded fsum add 2**-52 each; the total is below 2**-49.
_ATAN_ERROR = 2.0 ** -49

# Largest Gaussian power formed, in bits of its parts.  Depth 23's second
# term needs about 1.08e8 bits; a power past 2**30 bits would run for
# hours or exhaust memory, so it is refused before it is formed.
MAX_POWER_BITS = 1 << 30


@dataclass(frozen=True)
class MachinFormula:
    """pi/4 = sum of alpha * arctan(1/beta) over the listed terms."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a formula needs at least one term")
        for _, beta in self.terms:
            if beta == 0:
                raise ValueError("every cotangent argument must be nonzero")

    @classmethod
    def two_term(cls, k: int, u1: Fraction, u2: Fraction) -> "MachinFormula":
        return cls(((Fraction(1 << (k - 1)), Fraction(u1)), (Fraction(1), Fraction(u2))))

    @classmethod
    def single(cls, alpha: Fraction, beta: Fraction) -> "MachinFormula":
        return cls(((Fraction(alpha), Fraction(beta)),))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the check.  The Gaussian-integer product G certifies the
    angle modulo pi (G.re == G.im != 0); when it does, `turns` is the n in
    sum = pi/4 + n*pi, and the formula is valid iff n = 0."""

    ok: bool
    product: GaussianInt
    turns: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """Which test decided, in a few words, however large G is."""
        re, im = self.product.re, self.product.im
        sizes = f"G.re ({re.bit_length()} bits) {{}} G.im ({im.bit_length()} bits)"
        if not re == im != 0:
            return "exact product check failed: " + sizes.format("!=")
        if self.turns:
            return (f"branch check failed: the sum is pi/4 {self.turns:+d}*pi "
                    "(the product check holds: " + sizes.format("==") + ")")
        return sizes.format("==") + " and the sum is pi/4"


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


def _term_factor(alpha: int, beta: Fraction) -> GaussianInt:
    """(p + qi) ** |alpha| with beta = p/q, conjugated when alpha < 0.

    The rotation ((beta + i)/(beta - i)) ** alpha is this factor squared
    over its norm.  ValueError when the power is over MAX_POWER_BITS.
    """
    beta = Fraction(beta)
    _check_power_size(power_bits(alpha, beta), ValueError)
    g = GaussianInt(beta.numerator, beta.denominator) ** abs(alpha)
    return g.conjugate() if alpha < 0 else g


def solve_second_term(alpha1: int, beta1: Fraction) -> Fraction:
    """Exact beta2 with pi/4 = alpha1*arctan(1/beta1) + arctan(1/beta2).

    Raises DegenerateSecondTerm when the first term alone is pi/4 (the
    rotation is already i) or is pi/4 plus a right angle (beta2 would be
    zero, and arctan(1/beta2) undefined).
    """
    if alpha1 < 1:
        raise ValueError("first coefficient must be a positive integer")
    beta1 = Fraction(beta1)
    if beta1 == 0:
        raise ValueError("first cotangent argument must be nonzero")
    g = _term_factor(alpha1, beta1)
    a, b = g.re, g.im
    if a == b:
        raise DegenerateSecondTerm(
            f"{alpha1}*arctan(1/{beta1}) is already pi/4; no second term"
        )
    if a == -b:
        raise DegenerateSecondTerm(
            f"{alpha1}*arctan(1/{beta1}) differs from pi/4 by a right "
            "angle; the second argument degenerates to zero"
        )
    return fraction_sharing_only_twos(a + b, a - b)


def solve_u2(u1: Fraction, k: int) -> Fraction:
    """Second argument closing pi/4 = 2**(k-1) * arctan(1/u1) + arctan(1/u2)."""
    u1 = Fraction(u1)
    if u1 <= 0:
        raise ValueError("u1 must be positive")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return solve_second_term(1 << (k - 1), u1)


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
    g = GaussianInt(beta1.numerator, beta1.denominator)
    power = g ** (2 * alpha1)
    n = g.norm() ** alpha1
    x, y = power.re, power.im - n
    if x == 0 and y == 0:
        raise DegenerateSecondTerm(
            f"{alpha1}*arctan(1/{beta1}) is already pi/4; no second term"
        )
    denom = x * x + y * y
    assert -2 * n * y == denom, "second argument must come out real"
    if x == 0:
        raise DegenerateSecondTerm(
            f"{alpha1}*arctan(1/{beta1}) differs from pi/4 by a right "
            "angle; the second argument degenerates to zero"
        )
    return Fraction(2 * n * x, denom)


def verify_formula(formula: MachinFormula) -> VerificationResult:
    """Exact check that the rotations multiply to i, on Gaussian integers,
    and that the sum of the terms is pi/4 itself, not pi/4 + n*pi.

    Only integer coefficients admit an exact algebraic check; rational
    coefficients raise NotExactlyVerifiable rather than guessing a branch,
    and so do coefficients too large for the float estimate to tell the
    branches apart, and a product over MAX_POWER_BITS.
    """
    for alpha, _ in formula.terms:
        if alpha.denominator != 1:
            raise NotExactlyVerifiable(
                f"coefficient {alpha} is not an integer"
            )
    # Exact comparison: the divisor is a power of two; no float overflow.
    weight = sum(abs(alpha) for alpha, _ in formula.terms)
    if weight >= math.pi / 8 / _ATAN_ERROR:
        raise NotExactlyVerifiable(
            f"coefficients summing to a {int(weight).bit_length()}-bit "
            "magnitude are too large for the branch check"
        )
    bits = sum(power_bits(int(alpha), beta) for alpha, beta in formula.terms)
    _check_power_size(bits, NotExactlyVerifiable)
    product = GaussianInt(1, 0)
    for alpha, beta in formula.terms:
        product = product * _term_factor(int(alpha), beta)
    if not product.re == product.im != 0:
        return VerificationResult(ok=False, product=product)
    turns = _turns(formula)
    return VerificationResult(ok=turns == 0, product=product, turns=turns)


def _turns(formula: MachinFormula) -> int:
    """n with sum of alpha * arctan(1/beta) = pi/4 + n*pi, for a formula
    whose product check holds.  The float estimate is within
    sum(|alpha|) * _ATAN_ERROR < pi/8 of the sum, so rounding picks n."""
    estimate = math.fsum(float(alpha) * _atan_inverse(beta)
                         for alpha, beta in formula.terms)
    return round((estimate - math.pi / 4) / math.pi)


def _atan_inverse(beta: Fraction) -> float:
    """atan(1/beta) as a float.  q / p is float(Fraction(q, p)), rounded
    once from the integers however large they are; beyond |1/beta| = 2**64
    the result is +-pi/2, within 2**-64 of the arctangent."""
    p, q = beta.numerator, beta.denominator
    if q > abs(p) << 64:
        return math.copysign(math.pi / 2, p)
    return math.atan(q / p)


def check_relation_pair(
    a: tuple[int, Fraction], b: tuple[int, Fraction]
) -> bool:
    """True iff the two weighted arctangent terms are exactly equal,
    i.e. their rotations G_a/conj(G_a) and G_b/conj(G_b) coincide, which
    holds iff G_a * conj(G_b) is real."""
    cross = _term_factor(*a) * _term_factor(*b).conjugate()
    return cross.im == 0
