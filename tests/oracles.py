"""Independent brute-force oracles used to freeze expected test values.

Gaussian powers are repeated multiplication of (re, im) int pairs,
rotations are reduced pairs of Fractions, decimal expansions and
interval square roots come from integer square roots, and arctangent
references are alternating partial sums with their classical remainder
bound.  Decimal text is the exact truncation of a Fraction.  The series
references at the end run on (mantissa, err) int pairs with their own
rounding; they take c_k from machinpi's eval_radicals and the working
scale from its scale_for_digits.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from math import isqrt

from machinpi.radicals import eval_radicals
from machinpi.realnum import FixedReal
from machinpi.series import scale_for_digits


@contextlib.contextmanager
def int_text_cap(limit: int):
    """Set CPython's int <-> str digit cap to `limit` for a block (0 lifts
    it), restoring the previous cap on exit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def big_int_text():
    """Lift the digit cap for a block; the oracles' own conversions do
    not lean on machinpi's."""
    return int_text_cap(0)


def gi_mul_naive(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + bi)(c + di) for Gaussian integers held as (re, im) pairs."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def gi_pow_naive(g: tuple[int, int], n: int) -> tuple[int, int]:
    acc = (1, 0)
    for _ in range(n):
        acc = gi_mul_naive(acc, g)
    return acc


def sqrt_digits(n: int, digits: int) -> str:
    """Decimal expansion of sqrt(n) truncated to `digits` fractional
    digits, via a single integer square root."""
    scaled = isqrt(n * 10 ** (2 * digits))
    whole, frac = divmod(scaled, 10 ** digits)
    with big_int_text():
        return f"{whole}.{frac:0{digits}d}"


def sqrt_two_roots_reference(x: FixedReal) -> FixedReal:
    """Interval square root from one integer square root per end: the
    floor root of the lower end clamped at zero and the ceiling root of
    the upper end, with the mantissa at their midpoint.  Tight, at two
    isqrt calls per root."""
    s = x.scale
    r_lo = isqrt(max(x.mantissa - x.err_ulp, 0) << s)
    hi = (x.mantissa + x.err_ulp) << s
    r_hi = isqrt(hi)
    if r_hi * r_hi < hi:
        r_hi += 1
    mid = (r_lo + r_hi) // 2
    return FixedReal(mid, s, r_hi - mid)


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


def gregory_partial_sum_reference(m: int, terms: int) -> tuple[Fraction, Fraction]:
    """(S, t): S the sum of the first `terms` terms of Gregory's series
    arctan(1/m) = sum (-1)**n / ((2n + 1) m**(2n + 1)), added one Fraction
    per term, and t the first omitted term.  For m >= 1 the terms
    alternate and fall, so arctan(1/m) lies between S and
    S + (-1)**terms t."""
    total = Fraction(0)
    for n in range(terms):
        total += Fraction((-1) ** n, (2 * n + 1) * m ** (2 * n + 1))
    return total, Fraction(1, (2 * terms + 1) * m ** (2 * terms + 1))


def conjugate_rate_reference(m: int, terms: int) -> float:
    """Measured digits per term of the conjugate series for arctan(1/m)
    over `terms` >= 2 terms: log10 of its first term over its last, per
    added term.  Term n is -2 Im(v**(2n - 1)) / (2n - 1) for
    v = x/(x + 2i) = x(x - 2i)/(x**2 + 4), x = 1/m, the power formed by
    repeated multiplication of Fraction pairs."""
    x = Fraction(1, m)
    v_re, v_im = x * x / (x * x + 4), -2 * x / (x * x + 4)
    sq_re, sq_im = v_re * v_re - v_im * v_im, 2 * v_re * v_im
    w_re, w_im = v_re, v_im
    for _ in range(terms - 1):
        w_re, w_im = w_re * sq_re - w_im * sq_im, w_re * sq_im + w_im * sq_re
    first, last = -2 * v_im, -2 * w_im / (2 * terms - 1)
    return (approx_log10(abs(first)) - approx_log10(abs(last))) / (terms - 1)


def arctan_enclosure(y: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """(midpoint, bound) with |arctan(y) - midpoint| <= bound < 3 tol for
    any rational y, from arctan_bracket and exact rational folds:
    arctan(-y) = -arctan(y); for y > 1, arctan(y) = pi/2 - arctan(1/y)
    with pi = 16 arctan(1/5) - 4 arctan(1/239); for 1/2 < y <= 1,
    arctan(y) = arctan(1/2) + arctan((y - 1/2)/(1 + y/2)), an argument
    <= 1/3."""
    y = Fraction(y)
    if y < 0:
        mid, bound = arctan_enclosure(-y, tol)
        return -mid, bound
    if y > 1:
        fifth, fifth_bound = arctan_bracket(Fraction(1, 5), tol / 32)
        far, far_bound = arctan_bracket(Fraction(1, 239), tol / 32)
        mid, bound = arctan_enclosure(1 / y, tol)
        return 8 * fifth - 2 * far - mid, 8 * fifth_bound + 2 * far_bound + bound
    if y > Fraction(1, 2):
        half, half_bound = arctan_bracket(Fraction(1, 2), tol)
        rest, rest_bound = arctan_bracket((y - Fraction(1, 2)) / (1 + y / 2), tol)
        return half + rest, half_bound + rest_bound
    return arctan_bracket(y, tol)


# 333/106 < pi < 355/113, both within 10**-4 of it.
PI_APPROX = Fraction(355, 113)


def arctan_estimate(y: Fraction) -> Fraction:
    """arctan(y) within 10**-5 for any rational y: |y| > 1 folds to
    +-pi/2 - arctan(1/y), and 1/2 < |y| <= 1 to
    arctan(1/2) + arctan((|y| - 1/2)/(1 + |y|/2)), an argument <= 1/3."""
    y = Fraction(y)
    if abs(y) > 1:
        return (PI_APPROX if y > 0 else -PI_APPROX) / 2 - arctan_estimate(1 / y)
    tol = Fraction(1, 10 ** 9)
    if abs(y) > Fraction(1, 2):
        folded = (abs(y) - Fraction(1, 2)) / (1 + abs(y) / 2)
        value = arctan_bracket(Fraction(1, 2), tol)[0] + arctan_bracket(folded, tol)[0]
        return value if y > 0 else -value
    return arctan_bracket(y, tol)[0]


def branch_turns(terms) -> int:
    """n with sum of alpha * arctan(1/beta) = pi/4 + n*pi, for terms whose
    rotation product is i; the estimate's error is far below pi/8 for
    small coefficients."""
    total = sum(alpha * arctan_estimate(1 / Fraction(beta)) for alpha, beta in terms)
    return round((total - PI_APPROX / 4) / PI_APPROX)


def pi_digits(digits: int) -> str:
    """pi truncated to `digits` fractional digits from Machin's
    16 arctan(1/5) - 4 arctan(1/239), in integer fixed point with 20 guard
    digits; every floor division is off by less than one unit."""
    guard = 20
    unit = 10 ** (digits + guard)

    def arccot(x: int) -> tuple[int, int]:
        total, power, n, sign, steps = 0, unit // x, 1, 1, 1
        while power:
            total += sign * (power // n)
            power //= x * x
            n, sign, steps = n + 2, -sign, steps + 1
        return total, 2 * steps

    a, err_a = arccot(5)
    b, err_b = arccot(239)
    scaled, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
    lo, hi = (scaled - err) // 10 ** guard, (scaled + err) // 10 ** guard
    assert lo == hi, "guard digits too few to pin the last digit"
    whole, frac = divmod(lo, 10 ** digits)
    with big_int_text():
        return f"{whole}.{frac:0{digits}d}"


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
    with big_int_text():
        return f"{whole}.{frac:0{digits}d}"


def rotation_power_reference(beta: Fraction, alpha: int) -> tuple[Fraction, Fraction]:
    """((beta + i)/(beta - i)) ** alpha as an exact (re, im) pair of
    Fractions: (p + qi) ** |alpha| by repeated multiplication with
    beta = p/q, then one reduction over its norm; negative exponents
    conjugate (the rotation has unit modulus)."""
    beta = Fraction(beta)
    a, b = gi_pow_naive((beta.numerator, beta.denominator), abs(alpha))
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


def decimal_text_reference(fr: Fraction, digits: int) -> str:
    """fr truncated toward zero to `digits` fractional digits, "-" for
    any negative fr even when every shown digit is zero."""
    whole, frac = divmod(abs(fr.numerator) * 10 ** digits // fr.denominator, 10 ** digits)
    with big_int_text():
        return f"{'-' if fr < 0 else ''}{whole}.{frac:0{digits}d}"


def valid_decimal_digits_reference(x: FixedReal, limit: int) -> int:
    """Largest d <= limit at which the exact ends x.lower and x.upper
    truncate to the same signed text, 0 when there is none: every d is
    tried, assuming nothing about how agreement varies with d."""
    return max((d for d in range(1, limit + 1)
                if decimal_text_reference(x.lower, d) == decimal_text_reference(x.upper, d)),
               default=0)



# -- series references ------------------------------------------------
#
# The conjugate-pair series in its plainest forms: a start formed from
# reduced Fractions, a separate loop for the tower value, and a
# convergence measurement that re-evaluates pi from scratch for every
# truncation.  The shared production core must match them bit for bit.
# The two series references return (mantissa, err_ulp, terms, rate).
#
# A value at scale s is a pair (m, e): the true quantity lies within
# [(m - e) 2**-s, (m + e) 2**-s].  Every quotient rounds to nearest,
# ties away from zero, and every error bound rounds up.

_LOG10_2 = math.log10(2)


def _log10_int(v: int) -> float:
    e = max(0, v.bit_length() - 53)
    return math.log10(v >> e) + e * _LOG10_2


def approx_log10(fr: Fraction) -> float:
    """Float log10 of a positive rational of any size."""
    if fr <= 0:
        raise ValueError("approx_log10 needs a positive value")
    return _log10_int(fr.numerator) - _log10_int(fr.denominator)


def digits_per_term(beta: Fraction) -> float:
    """log10(1 + 4*beta**2): digits per conjugate-series term for 1/beta."""
    return approx_log10(1 + 4 * Fraction(beta) ** 2)


def _cap_upper(fr: Fraction, bits: int = 64) -> Fraction:
    """Upper bound keeping `bits` significant bits of each side."""
    num, den = fr.numerator, fr.denominator
    tn = max(0, num.bit_length() - bits)
    td = max(0, den.bit_length() - bits)
    num_top = (num >> tn) + (1 if tn else 0)
    return Fraction(num_top, den >> td) * Fraction(2) ** (tn - td)


def _tail_bound(rho: Fraction, terms: int) -> Fraction:
    """Bound on the omitted tail: 2 |v|**(2*terms+1) / (2*terms+1) for
    the first omitted term, |v| = sqrt(rho), then geometric in rho."""
    rho_ub = _cap_upper(rho)
    if rho_ub >= 1:
        rho_ub = rho
    p, q = rho_ub.numerator, rho_ub.denominator
    sqrt_ub = Fraction(isqrt(p * q) + 1, q)
    lead = rho_ub ** terms * sqrt_ub
    return 2 * lead / ((2 * terms + 1) * (1 - rho_ub))


def _measured_rate(first: Fraction, last: Fraction, terms: int, fallback: float) -> float:
    if terms < 2 or first == 0 or last == 0:
        return fallback
    return (approx_log10(abs(first)) - approx_log10(abs(last))) / (terms - 1)


def _nearest(a: int, b: int) -> int:
    """a/b rounded to nearest, ties away from zero; b > 0."""
    q = (2 * abs(a) + b) // (2 * b)
    return -q if a < 0 else q


def _ceil(a: int, b: int) -> int:
    """Ceiling of a/b for b > 0."""
    return -(-a // b)


def _pair(fr: Fraction, scale: int) -> tuple[int, int]:
    """fr rounded to nearest at `scale`; the error is 0 only when exact."""
    num = fr.numerator << scale
    return _nearest(num, fr.denominator), 0 if num % fr.denominator == 0 else 1


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] + y[1]


def _shift(x, bits: int):
    return x[0] << bits, x[1] << bits


def _mul(x, y, scale: int):
    """Product rounded to nearest: the cross terms of the error bound are
    rounded up, plus 1 for the rounding."""
    (mx, ex), (my, ey) = x, y
    err = abs(mx) * ey + abs(my) * ex + ex * ey
    return _nearest(mx * my, 1 << scale), _ceil(err, 1 << scale) + 1


def _div(x, y, scale: int):
    """Quotient rounded to nearest, for a divisor interval clear of zero:
    the error is (ex |my| + |mx| ey) / (|my| (|my| - ey)), rounded up,
    plus 1 for the rounding."""
    (mx, ex), (my, ey) = x, y
    assert abs(my) > ey, "divisor interval contains zero"
    num = mx << scale
    err = (ex * abs(my) + abs(mx) * ey) << scale
    return (_nearest(num if my > 0 else -num, abs(my)),
            _ceil(err, abs(my) * (abs(my) - ey)) + 1)


def _scaled(x, fr: Fraction):
    """x times an exact rational, rounded to nearest: 1 more ulp."""
    p, q = fr.numerator, fr.denominator
    return _nearest(x[0] * p, q), _ceil(x[1] * abs(p), q) + 1


def _conjugate_loop(wr, wi, r_re, r_im, rho, terms, scale):
    total = (0, 0)
    first = last = Fraction(0)
    for m in range(1, terms + 1):
        term = _scaled(wi, Fraction(-2, 2 * m - 1))
        total = _add(total, term)
        if m == 1:
            first = Fraction(term[0], 1 << scale)
        last = Fraction(term[0], 1 << scale)
        if m < terms:
            wr, wi = (_sub(_mul(wr, r_re, scale), _mul(wi, r_im, scale)),
                      _add(_mul(wr, r_im, scale), _mul(wi, r_re, scale)))
    tail = _tail_bound(rho, terms)
    err = total[1] + _ceil(tail.numerator << scale, tail.denominator)
    rate = _measured_rate(first, last, terms, approx_log10(1 / rho))
    return total[0], err, terms, rate


def arctan_conjugate_reference(x: Fraction, terms: int, scale: int):
    a, b = x.numerator, x.denominator
    d = a * a + 4 * b * b
    v_re, v_im = Fraction(a * a, d), Fraction(-2 * a * b, d)
    r_re = v_re * v_re - v_im * v_im
    r_im = 2 * v_re * v_im
    start = (_pair(part, scale) for part in (v_re, v_im, r_re, r_im))
    return _conjugate_loop(*start, Fraction(a * a, d), terms, scale)


def pi_from_radicals_reference(k: int, terms: int, scale: int):
    c_k = eval_radicals(k, math.ceil(scale * math.log10(2)) + 4).c_k
    c, s = (c_k.mantissa, c_k.err_ulp), c_k.scale
    one = (1 << s, 0)
    denom = _add(one, _shift(_mul(c, c, s), 2))
    v_re = _div(one, denom, s)
    v_im = _div(_shift((-c[0], c[1]), 1), denom, s)
    r_re = _sub(_mul(v_re, v_re, s), _mul(v_im, v_im, s))
    r_im = _shift(_mul(v_re, v_im, s), 1)
    c_lo = Fraction(c[0] - c[1], 1 << s)
    rho = 1 / (1 + 4 * c_lo * c_lo)
    m, e, n, rate = _conjugate_loop(v_re, v_im, r_re, r_im, rho, terms, s)
    return m << (k + 1), e << (k + 1), n, rate


def convergence_samples_reference(formula, max_terms: int, reference_pi):
    """(m, correct digits after "3.") for m = 1..max_terms, re-evaluating
    every arctangent from scratch at each m."""
    u1 = min(abs(beta) for _, beta in formula.terms)
    ceiling = int(digits_per_term(u1) * (max_terms + 1)) + 8
    ref_digits = valid_decimal_digits_reference(reference_pi, ceiling)
    ref_text = decimal_text_reference(reference_pi.lower, ref_digits)
    scale = scale_for_digits(ceiling)
    samples = []
    for m in range(1, max_terms + 1):
        total = 0
        for alpha, beta in formula.terms:
            mantissa = arctan_conjugate_reference(1 / beta, m, scale)[0]
            total += _scaled((mantissa, 0), alpha)[0]
        text = decimal_text_reference(Fraction(total << 2, 1 << scale), ref_digits)
        same = 0
        while same < len(text) and text[same] == ref_text[same]:
            same += 1
        samples.append((m, max(0, same - 2)))
    return samples
