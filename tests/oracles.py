"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code with the paths under test: powers are repeated
multiplication, rotations are reduced pairs of Fractions, decimal
expansions come from integer square roots, and arctangent references are
alternating partial sums with their classical remainder bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from machinpi.exact import GaussianInt


def gi_mul_naive(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    return GaussianInt(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def gi_pow_naive(g: GaussianInt, n: int) -> GaussianInt:
    acc = GaussianInt(1, 0)
    for _ in range(n):
        acc = gi_mul_naive(acc, g)
    return acc


def sqrt_digits(n: int, digits: int) -> str:
    """Decimal expansion of sqrt(n) truncated to `digits` fractional
    digits, via a single integer square root."""
    scaled = isqrt(n * 10 ** (2 * digits))
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{whole}.{frac:0{digits}d}"


def arctan_bracket(x: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """(midpoint, bound) with |arctan(x) - midpoint| <= bound < tol,
    from the alternating odd-power series; needs |x| <= 1/2."""
    assert abs(x) <= Fraction(1, 2)
    total = Fraction(0)
    p = x
    n = 1
    while True:
        term = p / (2 * n - 1)
        total += term
        p *= -x * x
        n += 1
        bound = abs(p) / (2 * n - 1)
        if bound < tol:
            return total, bound


def cot_tower_digits(k: int, digits: int, scale: int = 0) -> str:
    """cot(pi / 2**(k+1)) truncated to `digits` fractional digits via the
    half-angle recurrence cot(t/2) = cot(t) + sqrt(1 + cot(t)**2),
    starting from cot(pi/4) = 1; integer fixed point throughout."""
    if scale <= 0:
        scale = 64 + 4 * digits + 2 * k
    c = 1 << scale
    for _ in range(k - 1):
        c += isqrt((1 << 2 * scale) + c * c)
    whole, frac = divmod((c * 10 ** digits) >> scale, 10 ** digits)
    return f"{whole}.{frac:0{digits}d}"


def rotation_power_reference(beta: Fraction, alpha: int) -> tuple[Fraction, Fraction]:
    """((beta + i)/(beta - i)) ** alpha as an exact (re, im) pair of
    Fractions: (p + qi) ** |alpha| by repeated multiplication with
    beta = p/q, then one reduction over its norm; negative exponents
    conjugate (the rotation has unit modulus)."""
    beta = Fraction(beta)
    g = gi_pow_naive(GaussianInt(beta.numerator, beta.denominator), abs(alpha))
    a, b = g.re, g.im
    n = a * a + b * b
    re, im = Fraction(a * a - b * b, n), Fraction(2 * a * b, n)
    return (re, -im) if alpha < 0 else (re, im)


def rotation_product_reference(terms) -> tuple[Fraction, Fraction]:
    """Product of the rotations of (alpha, beta) terms over Gaussian
    rationals; the formula is valid iff this equals i, i.e. (0, 1)."""
    re, im = Fraction(1), Fraction(0)
    for alpha, beta in terms:
        c, d = rotation_power_reference(beta, int(alpha))
        re, im = re * c - im * d, re * d + im * c
    return re, im
