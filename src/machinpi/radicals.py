"""Nested square-root tower and rational first-argument selection.

The tower a_1 = sqrt(2), a_j = sqrt(2 + a_(j-1)) climbs toward 2; the
target quantity is c_k = a_k / sqrt(2 - a_(k-1)), the exact cotangent of
pi / 2**(k+1).  Rounding c_k onto a rational grid gives the first
arctangent argument u1 = n/d together with the irrational residual
eps = u1 - c_k that the exactly-solved second term absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousRounding, EpsilonTooLarge
from .machin import MAX_POWER_BITS
from .realnum import FixedReal

_LOG2_10 = math.log2(10)


@dataclass(frozen=True)
class RadicalState:
    """Tower evaluation at depth k: a_k, a_(k-1) and c_k as intervals at
    one scale, each with its certified error bound."""

    k: int
    a_k: FixedReal
    a_km1: FixedReal
    c_k: FixedReal


@dataclass(frozen=True)
class U1Selection:
    """Rational rounding of c_k with its signed residual.

    eps = u1 - c_k, so the residual is negative when rounding went down.
    |eps| <= 1/(2d) under nearest rounding, and |eps|/u1 < 1/10 is
    enforced.
    """

    u1: Fraction
    epsilon: FixedReal


def eval_radicals(k: int, decimal_digits: int) -> RadicalState:
    """Evaluate the tower once, at decimal_digits digits after the point
    plus 3k + 64 guard bits.  2 - a_(k-1) ~= (pi / 2**k)**2 loses about 2k
    bits and dividing by its root k more, so c_k's error is about
    2**(3k - 4) ulps.  Each a_j carries at most 2 ulps (a root maps e ulps
    to about e/4 + 1, as a_j ~= 2), and at scale s >= 3k + 68 the
    difference 2 - a_(k-1) is at least 2**(s - 2k + 3) ulps, so nothing
    here straddles zero.  Callers certify the digits they print from c_k's
    error bound; nothing is certified or retried here.  A scale over
    MAX_POWER_BITS is ValueError, before the first root.
    """
    if k < 2:
        raise ValueError("depth k must be at least 2")
    if decimal_digits < 1:
        raise ValueError("decimal_digits must be at least 1")
    scale = math.ceil(decimal_digits * _LOG2_10) + 3 * k + 64
    if scale > MAX_POWER_BITS:
        raise ValueError(f"the depth-{k} tower needs over {MAX_POWER_BITS:.3g} working bits")
    two = FixedReal.from_int(2, scale)
    a = two.sqrt()
    for _ in range(2, k + 1):
        a_prev = a
        a = (two + a_prev).sqrt()
    c = a / (two - a_prev).sqrt()
    return RadicalState(k=k, a_k=a, a_km1=a_prev, c_k=c)


def select_u1(
    state: RadicalState,
    denominator_policy: int = 1,
    rounding: str = "nearest",
) -> U1Selection:
    """Round c_k onto the grid of multiples of 1/d.

    "nearest" follows the documented contract; "floor" is available to
    reproduce published constructions that truncated instead.
    """
    d = denominator_policy
    if d < 1:
        raise ValueError("denominator policy must be a positive integer")
    if rounding not in ("nearest", "floor"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    c = state.c_k
    lo = (c.mantissa - c.err_ulp) * d
    hi = (c.mantissa + c.err_ulp) * d
    # floor(x + 1/2) or floor(x) on mantissas scaled by d; a shift floors.
    # The rounding is monotone, so ends that round alike pin c_k's n.
    half = 1 << (c.scale - 1) if rounding == "nearest" else 0
    n, n_hi = ((v + half) >> c.scale for v in (lo, hi))
    if n != n_hi:
        raise AmbiguousRounding(
            f"c_{state.k} interval straddles a {rounding} boundary at "
            f"denominator {d}; raise precision"
        )
    u1 = Fraction(n, d)
    epsilon = FixedReal.from_fraction(u1, c.scale) - c
    if abs(epsilon).upper * 10 >= u1:
        raise EpsilonTooLarge(
            f"residual {float(epsilon.value):+.4f} is not small against "
            f"u1 = {u1}; use a finer denominator policy"
        )
    return U1Selection(u1=u1, epsilon=epsilon)
