"""Arctangent series and pi evaluation at arbitrary precision.

Three series are provided:

* arctan_gregory: the alternating odd-power Maclaurin series.
* arctan_euler: the all-positive series in powers of x**2/(1+x**2), with
  the factorial ratio folded into a per-term multiplicative recurrence.
* arctan_conjugate: the expansion of arctan(x) in odd powers of the
  complex number v = x/(x + 2i).  Writing w_m = v**(2m-1), the two
  conjugate streams collapse to

      arctan(x) = -2 * sum_m Im(w_m) / (2m - 1),

  which is real by construction, so no imaginary residue is ever
  discarded.  Successive terms pick up a factor v**2, so the error
  contracts by |v|**2 = x**2 / (x**2 + 4) per term: about
  log10(1 + 4/x**2) decimal digits per added term.

pi comes either from a verified two-term formula (4 * sum of coefficient
times arctan of the reciprocal argument) or, with no rational arguments
at all, from the radical tower: pi = 2**(k+1) * arctan(1/c_k) evaluated
by the conjugate series directly on the fixed-point c_k.  Both argument
kinds share one fixed-point term stream with one start: v = 1/(1 + 2ci)
and v**2 built in interval arithmetic from a fixed-point cotangent c,
the tower's c_k or b/a rounded once for x = a/b (see _cot_start).
Certified digits from either source go through one driver that turns a
digit target or a term budget into terms, scale, retries and the
certified prefix (see _certified_pi).

A rational x = a/b whose numerator is small enough skips the stream: its
partial sum is formed exactly by binary splitting over Gaussian integers
and rounded once (see _split_conjugate).  arctan_conjugate picks the path
from the argument, the term count and the scale alone.

Terms for all series are generated by multiplicative recurrences; no
powers or factorials are recomputed per term.  Each result's error bound
covers rounding and truncation; the stated per-term contraction is also
measured from the actual term magnitudes and reported.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice

from .errors import (
    DivergentArgument,
    PrecisionExhausted,
    UnverifiedFormula,
    ZeroArgument,
)
from .exact import GaussianInt, fraction_sharing_only_twos
from .machin import MachinFormula, verify_formula
from .radicals import eval_radicals
from .realnum import FixedReal

_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)
_GUARD_BITS = 64


@dataclass(frozen=True)
class SeriesResult:
    """A partial sum with its term count and measured convergence.

    For pi from a formula, terms_used and per_term_log10 belong to the
    slowest arctangent and term_counts lists every arctangent's own count
    in formula order; a single series leaves term_counts empty.
    """

    value: FixedReal
    terms_used: int
    per_term_log10: float
    term_counts: tuple[int, ...] = ()


def approx_log10(fr: Fraction) -> float:
    """Float log10 of a positive rational of any size."""
    if fr <= 0:
        raise ValueError("approx_log10 needs a positive value")
    return _log10_int(fr.numerator) - _log10_int(fr.denominator)


def _log10_int(v: int) -> float:
    """Float log10 of a positive integer of any size."""
    e = max(0, v.bit_length() - 53)
    return math.log10(v >> e) + e * _LOG10_2


def digits_per_term(beta: Fraction) -> float:
    """Decimal digits of pi gained per added conjugate-series term for
    the argument 1/beta: log10(1 + 4*beta**2).  beta = 0 is ValueError."""
    if beta == 0:
        raise ValueError("the cotangent argument must be nonzero")
    return approx_log10(1 + 4 * Fraction(beta) ** 2)


def scale_for_digits(digits: int) -> int:
    return math.ceil(digits * _LOG2_10) + _GUARD_BITS


def terms_for_digits(digits: int, rate: float) -> int:
    return math.ceil(digits / rate) + 2


def _cap_upper(fr: Fraction) -> Fraction:
    """Cheap upper bound on a non-negative rational with huge components:
    keep 64 significant bits of each side, rounding the ratio up."""
    num, den = fr.numerator, fr.denominator
    tn = max(0, num.bit_length() - 64)
    td = max(0, den.bit_length() - 64)
    num_top = (num >> tn) + (1 if tn else 0)
    return Fraction(num_top, den >> td) * Fraction(2) ** (tn - td)


def _sqrt_upper(fr: Fraction) -> Fraction:
    """Cheap upper bound on the square root of a non-negative rational."""
    p, q = fr.numerator, fr.denominator
    return Fraction(math.isqrt(p * q) + 1, q)


def _tail_bound(rho: Fraction, terms: int) -> Fraction:
    """Truncated-tail bound for the conjugate-pair series.

    The first omitted term has magnitude at most
    2 |v|**(2*terms+1) / (2*terms+1) with |v| = sqrt(rho), and the rest
    decay geometrically with ratio rho.
    """
    rho_ub = _cap_upper(rho)
    if rho_ub >= 1:
        rho_ub = rho  # huge near-one operands: fall back to the exact ratio
    lead = rho_ub ** terms * _sqrt_upper(rho_ub)
    return 2 * lead / ((2 * terms + 1) * (1 - rho_ub))


def _measured_rate(first: Fraction, last: Fraction, terms: int, fallback: float) -> float:
    if terms < 2 or first == 0 or last == 0:
        return fallback
    return (approx_log10(abs(first)) - approx_log10(abs(last))) / (terms - 1)


def arctan_gregory(x: Fraction, terms: int, scale: int) -> SeriesResult:
    """Alternating odd-power partial sum; |x| < 1 for convergence.

    Truncation is bounded by the first omitted term.
    """
    x = Fraction(x)
    if abs(x) >= 1:
        raise DivergentArgument(f"|{x}| >= 1 diverges in the odd-power series")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    total = FixedReal.zero(scale)
    p = x
    first = last = Fraction(0)
    for n in range(1, terms + 1):
        term = p / (2 * n - 1)
        total = total + FixedReal.from_fraction(term, scale)
        if n == 1:
            first = term
        last = term
        p *= -x * x
    tail = abs(x) ** (2 * terms + 1) / (2 * terms + 1)
    total = total.widened_by_fraction(tail)
    rate = _measured_rate(first, last, terms, 2 * approx_log10(1 / abs(x)) if x else 0.0)
    return SeriesResult(total, terms, rate)


def arctan_euler(x: Fraction, terms: int, scale: int) -> SeriesResult:
    """All-positive series in q = x**2/(1+x**2); converges for every real x.

    t_0 = x/(1+x**2) and t_(n+1) = t_n * q * 2(n+1)/(2n+3); the tail after
    the last term is at most |t_terms| / (1 - q).
    """
    x = Fraction(x)
    if terms < 1:
        raise ValueError("terms must be at least 1")
    one_plus = 1 + x * x
    q = x * x / one_plus
    t = x / one_plus
    total = FixedReal.zero(scale)
    first = last = Fraction(0)
    for n in range(terms):
        total = total + FixedReal.from_fraction(t, scale)
        if n == 0:
            first = t
        last = t
        t *= q * Fraction(2 * (n + 1), 2 * n + 3)
    tail = abs(t) * one_plus  # 1/(1-q) = 1 + x**2
    total = total.widened_by_fraction(tail)
    fallback = approx_log10(1 / q) if x else 0.0
    return SeriesResult(total, terms, _measured_rate(first, last, terms, fallback))


def _conjugate_terms(v_re, v_im, r_re, r_im) -> Iterator[FixedReal]:
    """The terms -2 * Im(v**(2m-1)) / (2m-1) for m = 1, 2, ...; each step
    multiplies the running power by r = v**2 in complex fixed point."""
    wr, wi = v_re, v_im
    for m in count(1):
        yield wi.mul_fraction(Fraction(-2, 2 * m - 1))
        wr, wi = wr * r_re - wi * r_im, wr * r_im + wi * r_re


def _conjugate_sum(start: tuple, rho: Fraction, terms: int) -> SeriesResult:
    """The first `terms` terms from start = (Re v, Im v, Re v**2, Im v**2)
    summed, widened by the truncated tail for |v|**2 <= rho, with the rate
    measured from the first and last term."""
    stream = islice(_conjugate_terms(*start), terms)
    total = first = last = next(stream)
    for last in stream:
        total = total + last
    total = total.widened_by_fraction(_tail_bound(rho, terms))
    rate = _measured_rate(first.value, last.value, terms, approx_log10(1 / rho))
    return SeriesResult(total, terms, rate)


def _cot_start(c: FixedReal) -> tuple:
    """Start (Re v, Im v, Re v**2, Im v**2) of the series for arctan(1/c):
    v = 1/(1 + 2ci) = (1 - 2ci)/(1 + 4c**2) in interval arithmetic at c's
    scale, so each part contains its exact value for every c in c's
    interval."""
    one = FixedReal.from_int(1, c.scale)
    denom = one + (c * c).shift(2)
    v_re = one / denom
    v_im = -c.shift(1) / denom
    return v_re, v_im, v_re * v_re - v_im * v_im, (v_re * v_im).shift(1)


def _split(a2: int, g2: GaussianInt, lo: int, hi: int):
    """Binary splitting of the term ratios p(j)/q(j), p(j) = a2 (2j - 1)
    and q(j) = g2 (2j + 1), over j in [lo, hi): returns (P, Q, T) with P
    and Q their products and T/Q = sum over n in [lo, hi) of the products
    of p(j)/q(j) for j = lo..n (Haible and Papanikolaou, 1998)."""
    if hi - lo == 1:
        p = a2 * (2 * lo - 1)
        return p, g2.scaled(2 * lo + 1), GaussianInt(p, 0)
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(a2, g2, lo, mid)
    p2, q2, t2 = _split(a2, g2, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + t2.scaled(p1)


def _split_conjugate(a: int, b: int, rho: Fraction, terms: int,
                     scale: int) -> SeriesResult:
    """The first `terms` terms for x = a/b summed exactly and rounded once.

    With g = a + 2bi, v = a/g, so the sum is S = sum of
    a**(2m-1) / ((2m-1) g**(2m-1)) and arctan(x) = -2 Im(S); term m+1 is
    term m times a**2 (2m-1) / (g**2 (2m+1)).  Splitting gives
    S = a (Q + T) / (g Q) as Gaussian integers, so the only rounding is
    the final division (at most 1 ulp) and the error bound is that plus
    the truncated tail.  The rate comes from the exact first and last
    terms, the last read off the split's own products: term `terms` of S
    is a P / (g Q).
    """
    g = GaussianInt(a, 2 * b)
    if terms == 1:
        p, q, t = 1, GaussianInt(1, 0), GaussianInt(0, 0)
    else:
        p, q, t = _split(a * a, g.square(), 1, terms)
    z = g * q
    w = q + t
    norm = z.norm()
    # -2 Im(a w / z) = -2a Im(w conj(z)) / |z|**2
    value = FixedReal._from_ratio(-2 * a * (w.im * z.re - w.re * z.im), norm, scale)
    rate = approx_log10(1 / rho)
    if terms > 1 and z.im:
        # The last term is -2 Im(a p / z) = 2 a p Im(z) / |z|**2.
        log_first = _log10_int(abs(4 * a * b)) - _log10_int(a * a + 4 * b * b)
        log_last = _log10_int(abs(2 * a * p)) + _log10_int(abs(z.im)) - _log10_int(norm)
        rate = (log_first - log_last) / (terms - 1)
    value = value.widened_by_fraction(_tail_bound(rho, terms))
    return SeriesResult(value, terms, rate)


def arctan_conjugate(x: Fraction, terms: int, scale: int) -> SeriesResult:
    """Conjugate-pair series; fastest of the three, defined for all x != 0.

    With x = a/b the partial sum is exact by binary splitting while the
    growth of the split products in a**2 per term fits the precision,
    2 * terms * bits(a) <= scale; huge numerators (the second argument of
    a deep formula) take the fixed-point stream instead, started from the
    cotangent b/a rounded once.  Both bound the tail with the exact
    rho = |v|**2 = a**2 / (a**2 + 4 b**2), which shares at most a power
    of two (see exact.fraction_sharing_only_twos); a rho taken from the
    rounded cotangent would reach 1 once |x| passes about 2**scale.
    """
    x = Fraction(x)
    if x == 0:
        raise ZeroArgument("the conjugate-pair series needs a nonzero argument")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    a, b = x.numerator, x.denominator
    a2 = a * a
    rho = fraction_sharing_only_twos(a2, a2 + 4 * b * b)
    if 2 * terms * a.bit_length() <= scale:
        return _split_conjugate(a, b, rho, terms, scale)
    c = FixedReal.from_fraction(1 / x, scale)
    return _conjugate_sum(_cot_start(c), rho, terms)


def pi_from_formula(
    formula: MachinFormula,
    terms: int,
    scale: int,
    assume_verified: bool = False,
) -> SeriesResult:
    """pi = 4 * sum of alpha * arctan(1/beta) over the formula's terms,
    every arctangent through the conjugate-pair series.

    The slowest arctangent gets `terms` terms; each faster one gets the
    count that reaches the same digits at its own predicted rate (see
    _term_budgets).  The formula must verify exactly unless the caller
    explicitly vouches for it; each term's truncation bound enters the
    total error scaled by |alpha|.
    """
    if not assume_verified:
        outcome = verify_formula(formula)
        if not outcome.ok:
            raise UnverifiedFormula(
                f"formula failed verification: {outcome.summary()}"
            )
    total = FixedReal.zero(scale)
    slowest_beta = min(abs(beta) for _, beta in formula.terms)
    counts = _term_budgets(formula, terms)
    rate = 0.0
    for (alpha, beta), count in zip(formula.terms, counts):
        part = arctan_conjugate(1 / beta, count, scale)
        total = total + part.value.mul_fraction(alpha)
        if abs(beta) == slowest_beta:
            rate = part.per_term_log10
    return SeriesResult(total.shift(2), terms, rate, counts)


def _term_budgets(formula: MachinFormula, terms: int) -> tuple[int, ...]:
    """Term count of each arctangent when the slowest one runs `terms`.

    The slowest budget terms_for_digits(D, r_min) = ceil(D/r_min) + 2
    reaches about D = (terms - 2) * r_min digits; every other arctangent
    gets terms_for_digits(D, r_j) for its own rate r_j, never more than
    `terms`.
    """
    rates = [digits_per_term(beta) for _, beta in formula.terms]
    target = (terms - 2) * min(rates)
    return tuple(min(terms, terms_for_digits(target, rate)) for rate in rates)


def pi_from_radicals(k: int, terms: int, scale: int) -> SeriesResult:
    """pi = 2**(k+1) * arctan(1/c_k) evaluated without any rational
    rounding: the conjugate-pair series runs directly on the fixed-point
    tower value, so the argument stays irrational.

    Needs no second term; the per-term gain is log10(1 + 4*c_k**2).
    """
    if k < 2:
        raise ValueError("depth k must be at least 2")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    c = eval_radicals(k, math.ceil(scale * _LOG10_2) + 4).c_k
    part = _conjugate_sum(_cot_start(c), 1 / (1 + 4 * c.lower ** 2), terms)
    return SeriesResult(part.value.shift(k + 1), terms, part.per_term_log10)


def _radical_rate(k: int) -> float:
    """Predicted digits per term for the tower argument at depth k, from
    c_k = cot(x) = (1/x) / (tan(x)/x) with x = pi / 2**(k+1).  The factor
    tan(x)/x matters only at small k, and is 1 once x underflows."""
    x = math.ldexp(math.pi, -(k + 1))
    correction = math.log10(math.tan(x) / x) if x else 0.0
    c_log10 = (k + 1) * _LOG10_2 - math.log10(math.pi) - correction
    if c_log10 < 120:
        c = 10.0 ** c_log10
        return math.log10(1 + 4 * c * c)
    return math.log10(4) + 2 * c_log10


def pi_digits_from_formula(
    formula: MachinFormula,
    digits: int | None = None,
    terms: int | None = None,
    assume_verified: bool = False,
) -> tuple[str, SeriesResult]:
    """Certified decimal digits of pi from a formula, for exactly one of
    a digit target or a term budget of the slowest arctangent (see
    _certified_pi)."""
    rate = min(digits_per_term(beta) for _, beta in formula.terms)
    evaluate = partial(pi_from_formula, formula, assume_verified=assume_verified)
    return _certified_pi(evaluate, rate, digits, terms)


def pi_digits_from_radicals(
    k: int, digits: int | None = None, terms: int | None = None
) -> tuple[str, SeriesResult]:
    """Certified decimal digits of pi through the tower path at depth k,
    for exactly one of a digit target or a term budget."""
    if k < 2:
        raise ValueError("depth k must be at least 2")
    return _certified_pi(partial(pi_from_radicals, k), _radical_rate(k), digits, terms)


def _certified_pi(evaluate, rate: float, digits: int | None,
                  terms: int | None) -> tuple[str, SeriesResult]:
    """The budget rule for certified pi.  evaluate(terms, scale) returns
    pi with its error bound; rate is the predicted digits per term of the
    slowest series.

    A digit target prints exactly `digits` digits, every one certified:
    the first run uses terms_for_digits at scale_for_digits, and each of
    up to four retries adds 3 terms and 128, 256, ... bits of scale.  A
    term budget runs those terms once, at the scale of the digits they
    could reach, and prints the certified prefix (at least one digit).
    """
    if (digits is None) == (terms is None):
        raise ValueError("exactly one of digits or terms is required")
    if terms is not None:
        if terms < 1:
            raise ValueError("terms must be at least 1")
        limit = int(rate * terms) + 10
        result = evaluate(terms, scale_for_digits(limit + 6))
        valid = result.value.valid_decimal_digits(limit)
        return result.value.to_decimal(max(1, valid))[0], result
    if digits < 1:
        raise ValueError("digits must be at least 1")
    terms = terms_for_digits(digits, rate)
    scale = scale_for_digits(digits)
    for attempt in range(5):
        result = evaluate(terms, scale)
        text, ok = result.value.to_decimal(digits)
        if ok:
            return text, result
        scale += 128 << attempt
        terms += 3
    raise PrecisionExhausted(f"could not validate {digits} digits of pi")
