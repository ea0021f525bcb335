"""Arctangent series and pi evaluation at arbitrary precision.

arctan_conjugate sums the expansion of arctan(x) in odd powers of the
complex number v = x/(x + 2i).  Writing w_m = v**(2m-1), the two
conjugate streams collapse to

    arctan(x) = -2 * sum_m Im(w_m) / (2m - 1),

which is real by construction, so no imaginary residue is ever
discarded.  Successive terms pick up a factor v**2, so the error
contracts by |v|**2 = x**2 / (x**2 + 4) per term: about
log10(1 + 4/x**2) decimal digits per added term.

pi comes either from a formula or record (4 * sum of integer coefficient
times arctan of the reciprocal argument), proved once per instance by
its type's own proof, or, with no second term, from the radical tower:
pi = 2**(k+1) * arccot(c_k).  Certified digits from either source go
through one driver that turns a digit target or a term budget into
terms, scale, retries and the certified prefix (see _certified_pi).

A rational x = a/b is split on int pairs over the lcm of the series'
odd denominators, not their product (_lcm_split), and rounded from
operands cut to the scale, within the proved ulp plus the tail
(arctan_conjugate).  Every cotangent of pi, a formula's or the tower's,
first becomes a chain of integer cotangents m_j (_arctan_inverse); a
record's u2 arrives as its decimal text, which _dyadic_floor alone reads,
from its leading digits, for its chain and its rate (_term_rate).  A
chain's first link is summed by arctan_conjugate, the paper's series,
whose rate is the one reported.  Every later link has m_j >= 2 and takes
Gregory's real series for arctan(1/m), with 2 log10(m) digits per term
(_arccot_gregory): the same lcm split (_lcm_blocks) on one part where
the conjugate series has two, and one division with no cross product or
norm.  The irrational c_k enters the chain as the integer pair (M, 2**s)
of its interval's midpoint, and its own error widens the result once
(pi_from_radicals).  Every evaluator here certifies an error bound at a
working scale; the convergence measurement walks its own integer term
stream, and the exact comparison series sit beside it (analysis).

Terms come from a multiplicative recurrence; no power is recomputed per
term.  Each result's error bound covers rounding and truncation; the
stated per-term contraction is also measured from the actual term
magnitudes and reported.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import PrecisionExhausted
from .exact import gaussian_product, int_divmod, kept_power, text_to_int
from .machin import MAX_POWER_BITS, MachinFormula
from .radicals import eval_radicals
from .realnum import FixedReal, _ceil_div

_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)
_GUARD_BITS = 64


@dataclass(frozen=True)
class SeriesResult:
    """A partial sum with its term count and measured convergence.

    term_counts holds the terms each arctangent summed, over its chain of
    integer cotangents where it has one: the conjugate series' on the
    first and Gregory's on each later one.  For pi, from a formula or the
    tower, terms_used is the slowest arctangent's budget and
    per_term_log10 is measured on its first integer cotangent, by the
    conjugate series; a Gregory link reports its predicted 2 log10(m).
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


def digits_per_term(beta: Fraction | int) -> float:
    """Decimal digits of pi gained per added conjugate-series term for
    the argument 1/beta: log10(1 + 4*beta**2), for a Fraction or an int;
    beta = 0 is ValueError.  With beta = p/q in lowest terms,
    (q**2 + 4p**2)/q**2 shares only gcd(4, q**2), so one shift reduces it
    with no gcd of the squares."""
    p, q = beta.numerator, beta.denominator
    if p == 0:
        raise ValueError("the cotangent argument must be nonzero")
    shift = 0 if q & 1 else 2
    return _log10_int((q * q + 4 * p * p) >> shift) - _log10_int((q * q) >> shift)


def _term_rate(beta) -> float:
    """digits_per_term of a Fraction, or of a record's text u2 floored to
    64 fractional bits (_dyadic_floor): under 2**-60 low, relatively, and
    never the min, as a record's |u2| is 1.309 u1 or more (k = 2..16).
    Floored at 2 log10(2), the slowest chain link's rate (m_1 = 1 gains
    log10(5), m_j >= 2 gains 2 log10(m_j)); a tiny |beta|'s cancels to 0."""
    if isinstance(beta, tuple):
        beta = Fraction(*_dyadic_floor(*beta, 64))
    return max(digits_per_term(beta), 2 * _LOG10_2)


def _parts(beta) -> tuple:
    """(num, den) of a cotangent: a Fraction's or an int's, or a text pair."""
    return beta if isinstance(beta, tuple) else (beta.numerator, beta.denominator)


def _drop(x, bits: int) -> int:
    """The bits (an int) or digits (text) of |x| past a `bits`-bit head."""
    if isinstance(x, str):
        return len(x) - x.startswith("-") - math.ceil(bits * _LOG10_2) - 1
    return abs(x).bit_length() - bits


def _head(x, d: int) -> int:
    """|x| with its low d >= 0 bits (an int) or digits (decimal text) cut:
    |x| lies in [h, h + 1) * 2**d or 10**d.  Only the head is converted."""
    if isinstance(x, int):
        return abs(x) >> d
    start = x.startswith("-")
    return text_to_int(x[start:len(x) - d]) if len(x) - d > start else 0


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
    sqrt(p/q) <= (isqrt(pq) + 1)/q the bound is formed on integers.

    Only a chain's first link comes here, as (1, 1 + 4m**2); later links
    take Gregory's tail (_gregory_tail_ulps).  A large first m, as the
    tower's at k = 400, puts the bound far below one ulp.  So when
    bits(p) + 2 <= bits(q), the bit lengths bound it first:
    2 p**terms (isqrt(pq) + 1) is under
    2**(1 + terms bits(p) + ceil(bits(pq)/2)), q**terms (2 terms + 1)
    (q - p) is at least 2**(terms (bits(q) - 1) + bits(2 terms + 1) - 1 +
    bits(q) - 2), and a positive bound of at most one ulp rounds up to 1
    with no isqrt and no power (for a 25,711-bit m, the last link of
    compute-pi --k 400 at 10^4 digits while every link took this series:
    1.24 ms for the full bound, 1 us this way; Python 3.11.7 on a 2-vCPU
    Xeon VM)."""
    tn = max(0, num.bit_length() - 64)
    td = max(0, den.bit_length() - 64)
    p, q = (num >> tn) + (tn > 0), (den >> td) << (td - tn)
    if p >= q:
        p, q = num, den  # huge near-one operands: the exact ratio
    bp, bq = p.bit_length(), q.bit_length()
    if p and bp + 2 <= bq and (1 + terms * bp + (bp + bq + 1) // 2 + scale
                               <= terms * (bq - 1) + (2 * terms + 1).bit_length() + bq - 3):
        return 1
    bound = (2 * p ** terms * (math.isqrt(p * q) + 1)) << scale
    return _ceil_div(bound, q ** terms * (2 * terms + 1) * (q - p))


# Blocks of at most this many terms are summed term by term, not split.
# Of 8, 12, 16 and 24, 12 and 16 were within 3% of the fastest at m = 5
# from 300 to 49,895 terms and at m = 239 with 21,000 (best of 3, Python
# 3.11.7 on a 2-vCPU Xeon VM); 24 doubled the conjugate series' 19-term
# link of --k 40 at 10^5 digits, which Gregory's series sums now.
_LEAF_TERMS = 12


def _lcm_split(a: int, b: int, terms: int) -> tuple[int, int, int, int, int]:
    """(p, zr, zi, wr, wi) for x = a/b: S = a w / z, z = zr + zi i and w =
    wr + wi i, is the sum of the first `terms` terms of arctan_conjugate,
    and a p / z, p an int, is the last of them.

    With g = a + 2bi, G = g**2 and A = a**2, term n + 1 is term n times
    r(n) = A (2n - 1) / (G (2n + 1)).  Over a block [lo, hi) of n, the sum
    of r(lo) ... r(n) is (2lo - 1) B / (L G**len), for len = hi - lo, L
    the lcm of the block's odd denominators 2n + 1 and the Gaussian
    integer B = sum of A**(n - lo + 1) G**(hi - 1 - n) L / (2n + 1); the
    products of the odd numbers 2n - 1 telescope away.  Halves of lengths
    n1 and n2 merge as B = B1 (L/L1) G**n2 + B2 (L/L2) A**n1 (Cheng,
    Hanrot, Thome, Zima and Zimmermann, ISSAC 2007, on Haible and
    Papanikolaou's binary splitting; _lcm_blocks).  Over [1, terms) this
    gives S = (a/g)(1 + B/(L G**(terms - 1))), so z = g L G**(terms - 1),
    w = L G**(terms - 1) + B and p = A**(terms - 1) L / (2 terms - 1), all
    off the triples (Re G**n, Im G**n, A**n) kept by n (_triple_product).
    """
    a2 = a * a
    powers = {0: (1, 0, 1), 1: (a2 - 4 * b * b, 4 * a * b, a2)}
    lcm, (br, bi) = _lcm_blocks(_conjugate_leaf, _conjugate_merge, powers, 1, terms)
    gr, gi, ar = kept_power(powers, terms - 1, _triple_product)
    qr, qi = lcm * gr, lcm * gi
    return (ar * (lcm // (2 * terms - 1)), a * qr - 2 * b * qi,
            a * qi + 2 * b * qr, qr + br, qi + bi)


def _gregory_split(m: int, terms: int) -> tuple[int, int, int]:
    """(b, d, power) with b / d exactly the sum of the first `terms` terms
    of Gregory's series arctan(1/m) = sum (-1)**n / ((2n + 1) m**(2n + 1)),
    and power = M**(terms - 1) for M = m**2.

    Over a block [lo, hi) of n, the sum of (-1)**n / ((2n + 1) M**n) is
    (-1)**lo B / (L M**(hi - 1)), L the lcm of the block's 2n + 1 and
    B = sum of (-1)**(n - lo) M**(hi - 1 - n) L / (2n + 1).  Halves of
    lengths n1 and n2 merge as B = B1 (L/L1) M**n2 + (-1)**n1 B2 (L/L2),
    the conjugate split's recursion on one real part (_lcm_blocks).  Over
    [0, terms) the partial sum is B / (m L M**(terms - 1)).
    """
    powers = {0: 1, 1: m * m}
    lcm, b = _lcm_blocks(_gregory_leaf, _gregory_merge, powers, 0, terms)
    power = kept_power(powers, terms - 1, operator.mul)
    return b, m * lcm * power, power


# Module functions, not closures: a recursive closure is a reference cycle
# that keeps its operands alive until the cyclic collector runs.

def _lcm_blocks(leaf, merge, powers: dict, lo: int, hi: int) -> tuple:
    """(L, B) of the block [lo, hi) of a split over the lcm L of the odd
    denominators 2n + 1 of its terms (_lcm_split, _gregory_split).  Up to
    _LEAF_TERMS terms, B = leaf(powers, lo, hi, L).  Longer blocks halve,
    and halves of lengths n1 and n2 merge as merge(powers, B1, B2, L/L1,
    L/L2, n1, n2), where L/L1 and L/L2 are L2 and L1 over gcd(L1, L2)."""
    if hi - lo <= _LEAF_TERMS:
        lcm = math.lcm(*range(2 * lo + 1, 2 * hi, 2))
        return lcm, leaf(powers, lo, hi, lcm)
    mid = (lo + hi) >> 1
    lcm1, b1 = _lcm_blocks(leaf, merge, powers, lo, mid)
    lcm2, b2 = _lcm_blocks(leaf, merge, powers, mid, hi)
    common = math.gcd(lcm1, lcm2)
    f1, f2 = int_divmod(lcm2, common)[0], int_divmod(lcm1, common)[0]
    return lcm1 * f1, merge(powers, b1, b2, f1, f2, mid - lo, hi - mid)


def _conjugate_leaf(powers: dict, lo: int, hi: int, lcm: int) -> tuple[int, int]:
    """B of _lcm_split's block [lo, hi), term by term on the kept powers
    of G and A, which every leaf and merge shares.  (A Horner loop in G measured the same at
    m = 5 and 35% slower on the 4-term link of --k 40 at 10^5 digits,
    whose G has 328k bits, before Gregory's series summed that link.)"""
    br = bi = 0
    for n in range(lo, hi):
        gr, gi, _ = kept_power(powers, hi - 1 - n, _triple_product)
        c = kept_power(powers, n - lo + 1, _triple_product)[2] * (lcm // (2 * n + 1))
        br, bi = br + c * gr, bi + c * gi
    return br, bi


def _conjugate_merge(powers: dict, b1: tuple, b2: tuple, f1: int, f2: int,
                     n1: int, n2: int) -> tuple[int, int]:
    """B1 (L/L1) G**n2 + B2 (L/L2) A**n1, for f1 = L/L1 and f2 = L/L2."""
    gr, gi, _ = kept_power(powers, n2, _triple_product)
    br, bi = gaussian_product(b1[0], b1[1], gr * f1, gi * f1)
    if powers[1][2] != 1:
        f2 *= kept_power(powers, n1, _triple_product)[2]
    return br + b2[0] * f2, bi + b2[1] * f2


def _gregory_leaf(powers: dict, lo: int, hi: int, lcm: int) -> int:
    """B of _gregory_split's block [lo, hi), term by term on the cached
    powers of M."""
    b = 0
    for n in range(lo, hi):
        c = lcm // (2 * n + 1)
        b += (-c if (n - lo) & 1 else c) * kept_power(powers, hi - 1 - n, operator.mul)
    return b


def _gregory_merge(powers: dict, b1: int, b2: int, f1: int, f2: int,
                   n1: int, n2: int) -> int:
    """B1 (L/L1) M**n2 + (-1)**n1 B2 (L/L2), for f1 = L/L1 and f2 = L/L2."""
    b2 *= f2
    return b1 * (kept_power(powers, n2, operator.mul) * f1) + (-b2 if n1 & 1 else b2)


def _triple_product(x: tuple, y: tuple) -> tuple[int, int, int]:
    """kept_power's mul on _lcm_split's triples (Re G**n, Im G**n, A**n):
    a square (x is y) takes two multiplications for G's parts, (xr +
    xi)(xr - xi) and 2 xr xi, and any other product three."""
    if x is y:
        xr, xi, xa = x
        return (xr + xi) * (xr - xi), 2 * xr * xi, xa * xa
    return (*gaussian_product(x[0], x[1], y[0], y[1]), x[2] * y[2])


def _rounded_sum(a: int, zr: int, zi: int, wr: int, wi: int, terms: int, scale: int):
    """-2 Im(a w / z) = -2a Im(w conj(z)) / |z|**2 at `scale`, rounded to
    nearest from operands cut to the scale, for a w / z = S the partial
    sum of `terms` terms of arctan_conjugate.  As |a/g| < 1, |S| <= terms,
    so |w/z| <= terms/|a|.

    z and w lose their low t = bits(z) - scale - 66 - bits(|a| + terms)
    bits together, bits(z) the longer part's.  With z = 2**t (z' + e) and
    w = 2**t (w' + h), each part of e and h in [0, 1), w'/z' - w/z =
    (e w/z - h) / z' and |z'| >= 2**(bits(z) - 1 - t), so the value moves
    by at most 2 |a| sqrt(2) (terms/|a| + 1) / |z'|: under 2**-63.5 ulp.
    The cut cross product and norm are rounded by _rounded_quotient, so
    after any cut the midpoint is within 1/2 + 2**-61 ulp of S's value:
    one ulp of error.
    """
    t = max(0, max(abs(zr), abs(zi)).bit_length() - scale - 66
            - (abs(a) + terms).bit_length())
    zr, zi, wr, wi = zr >> t, zi >> t, wr >> t, wi >> t
    return _rounded_quotient(-2 * a * (wi * zr - wr * zi), zr * zr + zi * zi, scale, t > 0)


def _rounded_quotient(num: int, den: int, scale: int, cut: bool = False) -> FixedReal:
    """num/den at `scale`, den > 0, rounded to nearest once both lose their
    low u = bits(den) - scale - 64 - c bits, c = max(0, bits(num) -
    bits(den)), so that |num/den| < 2**(c + 1) and D'' = den >> u >=
    2**(scale + 63 + c).  With num = 2**u N'' + r and den = 2**u D'' + r',
    0 <= r, r' < 2**u, num/den - N''/D'' = (r - (num/den) r') / (2**u D''),
    under (1 + 2**(c + 1)) 2**-(scale + 63 + c): at most 3 * 2**-63 ulp.
    Rounding N''/D'' to nearest adds half an ulp, so the error is one ulp;
    with nothing cut, here or by the caller (`cut`), the rounding's own
    exact flag stands."""
    u = max(0, den.bit_length() - scale - 64 - max(0, num.bit_length() - den.bit_length()))
    value = FixedReal._from_ratio(num >> u, den >> u, scale)
    return FixedReal(value.mantissa, scale, 1) if cut or u else value


def arctan_conjugate(x: Fraction, terms: int, scale: int) -> SeriesResult:
    """The first `terms` terms of the conjugate-pair series for x != 0,
    split on int pairs and rounded once from operands cut to the scale.

    With x = a/b and g = a + 2bi, arctan(x) = -2 Im(S) for S = sum of
    a**(2m-1) / ((2m-1) g**(2m-1)).  Splitting over the lcm of the odd
    denominators gives S = a w / z and the last term a p / z
    (_lcm_split), so the bound is the final rounding (1 ulp,
    _rounded_sum) plus the tail for rho = |v|**2 = a**2 / (a**2 + 4b**2),
    whose parts share 4 for even a and nothing for odd a.  The rate comes
    from the exact first and last terms, |z|**2 off 64-bit heads of z.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("the conjugate-pair series needs a nonzero argument")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    a, b = x.numerator, x.denominator
    a2 = a * a
    shift = 0 if a & 1 else 2
    rho_num, rho_den = a2 >> shift, (a2 + 4 * b * b) >> shift
    p, zr, zi, wr, wi = _lcm_split(a, b, terms)
    if terms > 1 and zi:
        # The last term is -2 Im(a p / z) = 2 a p Im(z) / |z|**2.
        log_first = _log10_int(abs(4 * a * b)) - _log10_int(a2 + 4 * b * b)
        cut = max(0, max(abs(zr), abs(zi)).bit_length() - 64)
        norm = (abs(zr) >> cut) ** 2 + (abs(zi) >> cut) ** 2
        log_last = (_log10_int(abs(2 * a * p)) + _log10_int(abs(zi))
                    - _log10_int(norm) - 2 * cut * _LOG10_2)
        rate = (log_first - log_last) / (terms - 1)
    else:
        rate = _log10_int(rho_den) - _log10_int(rho_num)
    value = _rounded_sum(a, zr, zi, wr, wi, terms, scale)
    value = value.widened(_tail_ulps(rho_num, rho_den, terms, scale))
    return SeriesResult(value, terms, rate, (terms,))


def _arccot_gregory(m: int, terms: int, scale: int) -> SeriesResult:
    """The first `terms` terms of Gregory's series for arctan(1/m), m >= 2,
    split exactly (_gregory_split) and rounded once from operands cut to
    the scale (_rounded_quotient: 1 ulp, as the sum lies in (0, 1/m]),
    plus the tail (_gregory_tail_ulps).  The rate is the predicted one,
    2 log10(m) digits per term.
    """
    num, den, power = _gregory_split(m, terms)
    value = _rounded_quotient(num, den, scale)
    tail = _gregory_tail_ulps(m, power, terms, scale)
    return SeriesResult(value.widened(tail), terms, 2 * _log10_int(m), (terms,))


def _gregory_tail_ulps(m: int, power: int, terms: int, scale: int) -> int:
    """Gregory's tail after N = `terms` terms of arctan(1/m) in ulps at
    `scale`, rounded up, for power = m**(2N - 2).  The series alternates
    with falling terms, so the tail is at most the first omitted term
    1/((2N + 1) m**(2N + 1)).  When the bit lengths put that under one
    ulp, (2N + 1)(bits(m) - 1) + bits(2N + 1) - 1 >= scale, the bound is
    1 with no product; otherwise the term is formed from m**(2N + 1) =
    m**3 power and rounded up."""
    odd = 2 * terms + 1
    if odd * (m.bit_length() - 1) + odd.bit_length() - 1 >= scale:
        return 1
    return _ceil_div(1 << scale, odd * m ** 3 * power)


def _gregory_terms(m: int, digits: float, scale: int) -> int:
    """Terms for arccot(m), m >= 2, to reach `digits` at `scale`:
    terms_for_digits at 2 log10(m) digits per term, or fewer once bit
    lengths alone put the first omitted term under one ulp, as
    _gregory_tail_ulps checks first: (2N + 1)(bits(m) - 1) >= scale.  The
    last links of a chain, with m near 2**scale, then sum one term where
    terms_for_digits gives at least three."""
    bits = m.bit_length() - 1
    return min(terms_for_digits(digits, 2 * _log10_int(m)),
               max(1, -(-(scale - bits) // (2 * bits))))


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
        m = max(1, _ceil_div(p, q))
        chain.append(m)
        p, q = p * m + q, m * q - p
        if q == 0 or p >> scale >= q:
            return chain, p, q


def _arctan_inverse(num, den, digits: float, terms: int,
                    scale: int) -> SeriesResult:
    """arctan(den/num) for num != 0 < den at `scale`, summed over the
    integer cotangents of the chain of beta = num/den (_cotangent_chain),
    sign folded out.  The pair, ints or decimal text, may share a factor
    g: the chain's m_j stay the same and its later pairs scale by g.

    The first cotangent m_1 is summed by arctan_conjugate, the paper's
    series, for min(terms, terms_for_digits(digits, its rate)) terms, and
    its measured rate is the result's.  Every later one has m_j >= 2, as
    the chain's cotangents after the first exceed 1, and Gregory's real
    series sums it (_arccot_gregory) for min(terms, _gregory_terms(m_j,
    digits, scale)) terms: one part where the conjugate series has two, at
    2 log10(m) digits per term against log10(1 + 4m**2).

    A denominator over w = scale + _CHAIN_GUARD bits is first rounded down
    to the dyadic beta' = floor(|beta| 2**w) / 2**w (_dyadic_floor):
    |beta| - beta' < 2**-w moves arccot by under an ulp, and the dropped
    residual arccot(p'/q') <= 2**-scale is one more.
    """
    w = scale + _CHAIN_GUARD
    p, q = _dyadic_floor(num, den, w)
    rounded = q == 1 << w  # an unrounded den has at most w bits
    (first, *later), _, residual_den = _cotangent_chain(p, q, scale)
    parts = [arctan_conjugate(Fraction(1, first), min(terms, terms_for_digits(
        digits, digits_per_term(first))), scale)]
    parts += [_arccot_gregory(m, min(terms, _gregory_terms(m, digits, scale)), scale)
              for m in later]
    value = sum((part.value for part in parts[1:]), parts[0].value)
    value = value.widened(rounded + (residual_den > 0))
    used = sum(part.terms_used for part in parts)
    negative = num.startswith("-") if isinstance(num, str) else num < 0
    return SeriesResult(-value if negative else value, used, parts[0].per_term_log10, (used,))


def _dyadic_floor(num, den, w: int) -> tuple[int, int]:
    """(|num|, den) as ints when den has at most w bits, else
    (floor(|num/den| 2**w), 2**w).  Past w + 64 bits it reads heads P, Q
    of |num| and den (_head): |num/den| is in (P/(Q + 1), (P + 1)/Q), so
    f = floor(P 2**w / (Q + 1)) is the floor if (f + 1) Q > (P + 1) 2**w.
    Otherwise, or for a shorter den, both parts are converted whole."""
    d = _drop(den, w + 64)
    if d > 0:
        head_p, head_q = _head(num, d), _head(den, d)
        floor = int_divmod(head_p << w, head_q + 1)[0]
        if (floor + 1) * head_q > (head_p + 1) << w:
            return floor, 1 << w
    p, q = _head(num, 0), _head(den, 0)
    return (p, q) if q.bit_length() <= w else (int_divmod(p << w, q)[0], 1 << w)


def pi_from_formula(formula: MachinFormula, terms: int, scale: int) -> SeriesResult:
    """pi = 4 * sum of alpha * arctan(1/beta) over formula.terms: a
    MachinFormula's, or a record's, whose u2 stays decimal text
    (FormulaRecord.terms) and is rated by _term_rate.

    The slowest arctangent's `terms` reach D = (terms - 2) * r_min digits
    at its predicted rate r_min; every integer cotangent of every chain
    runs what reaches D at its own rate, at most `terms` (_arctan_inverse).
    The formula must hold: its proof runs unless this instance passed it
    already (MachinFormula.proof, FormulaRecord.proof; they raise on
    failure).  Its integer coefficients scale each mantissa and error
    bound exactly.
    """
    formula.proof  # run once per instance
    rates = [_term_rate(beta) for _, beta in formula.terms]
    target = (terms - 2) * min(rates)
    parts = [_arctan_inverse(*_parts(beta), target, terms, scale)
             for _, beta in formula.terms]
    scaled = [(alpha, part.value) for (alpha, _), part in zip(formula.terms, parts)]
    total = FixedReal(sum(a * v.mantissa for a, v in scaled) << 2, scale,
                      sum(abs(a) * v.err_ulp for a, v in scaled) << 2)
    rate = parts[rates.index(min(rates))].per_term_log10
    counts = tuple(part.terms_used for part in parts)
    return SeriesResult(total, terms, rate, counts)


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
) -> tuple[str, SeriesResult]:
    """Certified decimal digits of pi from a formula or record (see
    pi_from_formula), proved before the first run and once per instance,
    for exactly one of a digit target or a term budget of the slowest
    arctangent (see _certified_pi)."""
    formula.proof  # run once per instance
    rate = min(_term_rate(beta) for _, beta in formula.terms)
    evaluate = partial(pi_from_formula, formula)
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
    terms: each multiplies z by g**2, |g|**2 >= 5 (_lcm_split).
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
