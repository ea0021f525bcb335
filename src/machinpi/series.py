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
times arctan of the reciprocal argument) or, with no second term, from
the radical tower: pi = 2**(k+1) * arccot(c_k).  Certified digits from
either source go through one driver that turns a digit target or a term
budget into terms, scale, retries and the certified prefix (see
_certified_pi).

A rational x = a/b is split on int pairs and rounded from operands cut
to the scale, within the proved ulp plus the tail (arctan_conjugate).
Every cotangent of pi, a formula's or the tower's, first becomes a chain
of integer cotangents, each split with numerator 1 (_arctan_inverse).
The irrational c_k enters the chain as the integer pair (M, 2**s) of its
interval's midpoint, and its own error widens the result once
(pi_from_radicals).  Every evaluator here certifies an error bound; the
convergence measurement walks its own integer term stream (analysis).

Terms for all series are generated by multiplicative recurrences; no
powers or factorials are recomputed per term.  Each result's error bound
covers rounding and truncation; the stated per-term contraction is also
measured from the actual term magnitudes and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import (
    DivergentArgument,
    PrecisionExhausted,
    UnverifiedFormula,
    ZeroArgument,
)
from .machin import MAX_POWER_BITS, MachinFormula, verify_formula
from .radicals import eval_radicals
from .realnum import FixedReal

_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)
_GUARD_BITS = 64


@dataclass(frozen=True)
class SeriesResult:
    """A partial sum with its term count and measured convergence.

    term_counts holds the terms each arctangent summed, over its chain of
    integer cotangents where it has one.  For pi, from a formula or the
    tower, terms_used is the slowest arctangent's budget and
    per_term_log10 is measured on its first integer cotangent.
    """

    value: FixedReal
    terms_used: int
    per_term_log10: float
    term_counts: tuple[int, ...]


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
    the argument 1/beta: log10(1 + 4*beta**2).  beta = 0 is ValueError.
    With beta = p/q in lowest terms, (q**2 + 4p**2)/q**2 shares only
    gcd(4, q**2), so one shift reduces it with no gcd of the big parts."""
    beta = Fraction(beta)
    p, q = beta.numerator, beta.denominator
    if p == 0:
        raise ValueError("the cotangent argument must be nonzero")
    shift = 0 if q & 1 else 2
    return _log10_squares(q, 2 * abs(p), shift) - _log10_squares(q, 0, shift)


def _log10_squares(x: int, y: int, shift: int) -> float:
    """_log10_int((x**2 + y**2) >> shift), x > 0 <= y, with no big square
    when 128-bit heads put the sum in [lo, hi) * 4**t and both ends share
    the 53 leading bits _log10_int reads (squaring a depth-17 u2: 0.27 s)."""
    t = max(0, x.bit_length() - 128, y.bit_length() - 128)
    if t:
        xh, yh = x >> t, y >> t
        lo, hi = xh * xh + yh * yh, (xh + 1) ** 2 + (yh + 1) ** 2
        drop = lo.bit_length() - 53
        if hi.bit_length() == lo.bit_length() and lo >> drop == hi >> drop:
            return math.log10(lo >> drop) + (drop + 2 * t - shift) * _LOG10_2
    return _log10_int((x * x + y * y) >> shift)


def scale_for_digits(digits: int) -> int:
    """Working bits for `digits` decimals; ValueError over MAX_POWER_BITS
    (digits capped there first, so that no huge int meets a float)."""
    scale = math.ceil(min(digits, MAX_POWER_BITS) * _LOG2_10) + _GUARD_BITS
    if scale > MAX_POWER_BITS:
        raise ValueError(f"{digits} digits need over {MAX_POWER_BITS:.3g} working bits")
    return scale


def terms_for_digits(digits: int, rate: float) -> int:
    return math.ceil(digits / rate) + 2


def _tail_ulps(num: int, den: int, terms: int, scale: int) -> int:
    """Truncated-tail bound for the conjugate-pair series in ulps at
    `scale`, rounded up, for rho = |v|**2 = num/den < 1, a pair in lowest
    terms or not.  The first omitted term is at most
    2 |v|**(2*terms+1) / (2*terms+1), and the rest decay by rho.  rho is
    capped by p/q from 64 leading bits of each part, num rounded up and
    2**(td - tn) shifted onto q; a cap of 1 or more takes num/den.  With
    sqrt(p/q) <= (isqrt(pq) + 1)/q the bound is formed on integers."""
    tn = max(0, num.bit_length() - 64)
    td = max(0, den.bit_length() - 64)
    p, q = (num >> tn) + (tn > 0), (den >> td) << (td - tn)
    if p >= q:
        p, q = num, den  # huge near-one operands: the exact ratio
    bound = (2 * p ** terms * (math.isqrt(p * q) + 1)) << scale
    return -(-bound // (q ** terms * (2 * terms + 1) * (q - p)))


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
    return SeriesResult(total, terms, rate, (terms,))


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
    return SeriesResult(total, terms, _measured_rate(first, last, terms, fallback), (terms,))


def _split(a2: int, gr: int, gi: int, lo: int, hi: int):
    """Binary splitting on plain ints of p(j)/q(j), p(j) = a2 (2j - 1) and
    q(j) = (gr + gi i)(2j + 1), over j in [lo, hi): (P, Qr, Qi, Tr, Ti)
    for P and Q = Qr + Qi i the products and T/Q = sum over n of the
    products of p(j)/q(j), j = lo..n (Haible and Papanikolaou, 1998)."""
    if hi - lo == 1:
        p = a2 * (2 * lo - 1)
        return p, gr * (2 * lo + 1), gi * (2 * lo + 1), p, 0
    mid = (lo + hi) // 2
    p1, qr1, qi1, tr1, ti1 = _split(a2, gr, gi, lo, mid)
    p2, qr2, qi2, tr2, ti2 = _split(a2, gr, gi, mid, hi)
    return (p1 * p2, qr1 * qr2 - qi1 * qi2, qr1 * qi2 + qi1 * qr2,
            tr1 * qr2 - ti1 * qi2 + p1 * tr2, tr1 * qi2 + ti1 * qr2 + p1 * ti2)


def _rounded_sum(a: int, zr: int, zi: int, wr: int, wi: int, terms: int, scale: int):
    """-2 Im(a w / z) = -2a Im(w conj(z)) / |z|**2 at `scale`, rounded to
    nearest from operands cut to the scale, for a w / z = S the partial
    sum of `terms` terms of arctan_conjugate.  As |a/g| < 1, |S| <= terms,
    so |w/z| <= terms/|a|.

    * z and w lose their low t = bits(z) - scale - 66 - bits(|a| + terms)
      bits together, bits(z) the longer part's.  With z = 2**t (z' + e)
      and w = 2**t (w' + h), each part of e and h in [0, 1), w'/z' - w/z
      = (e w/z - h) / z' and |z'| >= 2**(bits(z) - 1 - t), so the value
      moves by at most 2 |a| sqrt(2) (terms/|a| + 1) / |z'|: under
      2**-63.5 ulp.
    * The cut cross product N and norm D then lose their low u =
      bits(D) - scale - 64 - c bits, c = max(0, bits(N) - bits(D)), so
      that |N/D| < 2**(c + 1) and D'' = D >> u >= 2**(scale + 63 + c).
      With N = 2**u N'' + r and D = 2**u D'' + r', 0 <= r, r' < 2**u,
      N/D - N''/D'' = (r - (N/D) r') / (2**u D''), under
      (1 + 2**(c + 1)) 2**-(scale + 63 + c): at most 3 * 2**-63 ulp.

    Rounding N''/D'' to nearest adds half an ulp, so after any cut the
    midpoint is within 1/2 + 2**-61 ulp of S's value: one ulp of error.
    With nothing cut, the rounding's own exact flag stands.
    """
    t = max(0, max(abs(zr), abs(zi)).bit_length() - scale - 66
            - (abs(a) + terms).bit_length())
    zr, zi, wr, wi = zr >> t, zi >> t, wr >> t, wi >> t
    num, den = -2 * a * (wi * zr - wr * zi), zr * zr + zi * zi
    u = max(0, den.bit_length() - scale - 64 - max(0, num.bit_length() - den.bit_length()))
    value = FixedReal._from_ratio(num >> u, den >> u, scale)
    return FixedReal(value.mantissa, scale, 1) if t or u else value


def arctan_conjugate(x: Fraction, terms: int, scale: int) -> SeriesResult:
    """The first `terms` terms of the conjugate-pair series for x != 0,
    split on int pairs and rounded once from operands cut to the scale.

    With x = a/b and g = a + 2bi, arctan(x) = -2 Im(S) for S = sum of
    a**(2m-1) / ((2m-1) g**(2m-1)), whose term ratio is a**2 (2m-1) /
    (g**2 (2m+1)).  Splitting gives S = a w / z, z = g Q and w = Q + T,
    so the bound is the final rounding (1 ulp, _rounded_sum) plus the
    tail for rho = |v|**2 = a**2 / (a**2 + 4b**2), whose parts share 4
    for even a and nothing for odd a.  The rate comes from the exact
    first and last terms, off the uncut z; the last term is a P / (g Q).
    """
    x = Fraction(x)
    if x == 0:
        raise ZeroArgument("the conjugate-pair series needs a nonzero argument")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    a, b = x.numerator, x.denominator
    a2 = a * a
    shift = 0 if a & 1 else 2
    rho_num, rho_den = a2 >> shift, (a2 + 4 * b * b) >> shift
    p, qr, qi, tr, ti = (_split(a2, a2 - 4 * b * b, 4 * a * b, 1, terms) if terms > 1
                         else (1, 1, 0, 0, 0))
    zr, zi = a * qr - 2 * b * qi, a * qi + 2 * b * qr
    if terms > 1 and zi:
        # The last term is -2 Im(a p / z) = 2 a p Im(z) / |z|**2.
        log_first = _log10_int(abs(4 * a * b)) - _log10_int(a2 + 4 * b * b)
        log_last = (_log10_int(abs(2 * a * p)) + _log10_int(abs(zi))
                    - _log10_squares(abs(zi), abs(zr), 0))
        rate = (log_first - log_last) / (terms - 1)
    else:
        rate = _log10_int(rho_den) - _log10_int(rho_num)
    value = _rounded_sum(a, zr, zi, qr + tr, qi + ti, terms, scale)
    value = value.widened(_tail_ulps(rho_num, rho_den, terms, scale))
    return SeriesResult(value, terms, rate, (terms,))


# Fractional bits past the scale when a huge cotangent is rounded to a
# dyadic one, which then moves its arctangent by < 3 * 2**-(scale + 8).
_CHAIN_GUARD = 8


def _cotangent_chain(p: int, q: int, scale: int) -> tuple[list[int], int, int]:
    """Lehmer's reduction of arccot(p/q), p >= 0 < q: integers m_j >= 1
    and a residual p'/q' with arccot(p/q) = sum arccot(m_j) + arccot(p'/q')
    exactly, stopping at q' = 0 (no residual) or p'/q' >= 2**scale.

    Each step takes m = max(1, ceil(p/q)) and p/q -> (pm + q)/(mq - p):
    (m + i)(p' + q'i) = (m**2 + 1)(p + qi).  The new cotangent exceeds
    the square of the old, so the chain has about log2(scale) steps; an
    integer cotangent is a one-step chain.
    """
    chain = []
    while True:
        m = max(1, -(-p // q))
        chain.append(m)
        p, q = p * m + q, m * q - p
        if q == 0 or p >> scale >= q:
            return chain, p, q


def _arctan_inverse(num: int, den: int, digits: float, terms: int,
                    scale: int) -> SeriesResult:
    """arctan(den/num) for num != 0 < den at `scale`, summed by
    arctan_conjugate over the integer cotangents of the chain of
    beta = num/den (_cotangent_chain), sign folded out.  The pair may share
    a factor g: the chain's m_j stay the same and its later pairs scale by g.

    A denominator over w = scale + _CHAIN_GUARD bits is first rounded down
    to a dyadic beta' with w fractional bits, from the top w + 64 bits of
    each part: beta - beta' < (2 + beta) 2**-w moves arccot by under an
    ulp, and the dropped residual arccot(p'/q') <= 2**-scale is one more.
    Cotangent m sums min(terms, terms_for_digits(digits, its rate)) terms.
    """
    p, q = abs(num), den
    w = scale + _CHAIN_GUARD
    rounded = q.bit_length() > w
    if rounded:
        drop = max(0, q.bit_length() - w - 64)
        p, q = ((p >> drop) << w) // ((q >> drop) + 1), 1 << w
    chain, _, residual_den = _cotangent_chain(p, q, scale)
    parts = [arctan_conjugate(Fraction(1, m), min(terms, terms_for_digits(
        digits, digits_per_term(m))), scale) for m in chain]
    value = sum((part.value for part in parts[1:]), parts[0].value)
    value = value.widened(rounded + (residual_den > 0))
    used = sum(part.terms_used for part in parts)
    return SeriesResult(-value if num < 0 else value, used, parts[0].per_term_log10, (used,))


def pi_from_formula(
    formula: MachinFormula,
    terms: int,
    scale: int,
    assume_verified: bool = False,
) -> SeriesResult:
    """pi = 4 * sum of alpha * arctan(1/beta) over the formula's terms.

    The slowest arctangent's `terms` reach D = (terms - 2) * r_min digits
    at its predicted rate r_min; every integer cotangent of every chain
    runs what reaches D at its own rate, at most `terms` (_arctan_inverse).
    The formula must verify exactly unless the caller vouches for it;
    each arctangent's error bound enters the total scaled by |alpha|.
    """
    if not assume_verified:
        outcome = verify_formula(formula)
        if not outcome.ok:
            raise UnverifiedFormula(
                f"formula failed verification: {outcome.summary()}"
            )
    rates = [digits_per_term(beta) for _, beta in formula.terms]
    target = (terms - 2) * min(rates)
    parts = [_arctan_inverse(beta.numerator, beta.denominator, target, terms, scale)
             for _, beta in formula.terms]
    total = FixedReal.zero(scale)
    for (alpha, _), part in zip(formula.terms, parts):
        total = total + part.value.mul_fraction(alpha)
    rate = parts[rates.index(min(rates))].per_term_log10
    counts = tuple(part.terms_used for part in parts)
    return SeriesResult(total.shift(2), terms, rate, counts)


def pi_from_radicals(k: int, terms: int, scale: int) -> SeriesResult:
    """pi = 2**(k+1) * arccot(c_k), with no second term.

    c_k's midpoint is the exact dyadic M / 2**s, so its arccot is summed
    like any cotangent of a formula, from the pair (M, 2**s) unreduced
    (_arctan_inverse, at c_k's scale), for D = (terms - 2) * r_k digits at
    the predicted rate r_k.  arccot is 1/(1 + c**2)-Lipschitz, so c_k's own
    error of e ulps moves it by under e / 4**j ulps for 2**j <= c_k's lower
    end: one widening of (e >> 2j) + 1.
    """
    c = eval_radicals(k, math.ceil(scale * _LOG10_2) + 4).c_k
    digits = (terms - 2) * _radical_rate(k)
    part = _arctan_inverse(c.mantissa, 1 << c.scale, digits, terms, c.scale)
    j = max(0, (c.mantissa - c.err_ulp).bit_length() - 1 - c.scale)
    value = part.value.widened((c.err_ulp >> 2 * j) + 1).shift(k + 1)
    return SeriesResult(value, terms, part.per_term_log10, (part.terms_used,))


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
    # eval_radicals refuses any k over MAX_POWER_BITS; capped, k meets no float
    rate = _radical_rate(min(k, MAX_POWER_BITS))
    return _certified_pi(partial(pi_from_radicals, k), rate, digits, terms)


def _certified_pi(evaluate, rate: float, digits: int | None,
                  terms: int | None) -> tuple[str, SeriesResult]:
    """The budget rule for certified pi.  evaluate(terms, scale) returns
    pi with its error bound; rate is the predicted digits per term of the
    slowest series.

    A digit target prints exactly `digits` digits, every one certified:
    the first run uses terms_for_digits at scale_for_digits, and each of
    up to four retries adds 3 terms and 128, 256, ... bits of scale.  A
    term budget runs those terms once, at the scale of the digits they
    could reach, and prints to_decimal's certified text for that many
    digits, PrecisionExhausted if it is empty.  A scale over
    MAX_POWER_BITS is ValueError (scale_for_digits), and so are more
    terms: each multiplies Q by g**2, |g|**2 >= 5 (_split).
    """
    if (digits is None) == (terms is None):
        raise ValueError("exactly one of digits or terms is required")
    if terms is not None:
        if terms < 1:
            raise ValueError("terms must be at least 1")
        if terms > MAX_POWER_BITS:
            raise ValueError(f"terms must be at most {MAX_POWER_BITS}")
        limit = int(rate * terms) + 10
        result = evaluate(terms, scale_for_digits(limit + 6))
        text, _ = result.value.to_decimal(limit)
        if not text:
            raise PrecisionExhausted(f"{terms} terms certify no digit of pi")
        return text, result
    if digits < 1:
        raise ValueError("digits must be at least 1")
    scale = scale_for_digits(digits)
    terms = terms_for_digits(digits, rate)
    for attempt in range(5):
        result = evaluate(terms, scale)
        text, ok = result.value.to_decimal(digits)
        if ok:
            return text, result
        scale += 128 << attempt
        terms += 3
    raise PrecisionExhausted(f"could not validate {digits} digits of pi")
