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

from .errors import (
    AmbiguousRounding,
    DivisorStraddlesZero,
    EpsilonTooLarge,
    NegativeOperand,
    PrecisionExhausted,
)
from .realnum import FixedReal

_LOG2_10 = math.log2(10)

# Working scale = requested digits + guard.  The subtraction 2 - a_(k-1)
# ~= (pi / 2**k)**2 loses about 2k bits, and dividing by its square root
# ~= pi / 2**k costs k more, so c_k's error bound is about 2**(3k - 4)
# ulps; guard_bits covers that with 64 bits to spare.  Retries double the
# guard, so a short cap suffices.
_MAX_RETRIES = 4


@dataclass(frozen=True)
class RadicalState:
    """Validated tower evaluation at depth k."""

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
    k: int
    denominator_policy: int
    rounding: str = "nearest"


def guard_bits(k: int) -> int:
    return 3 * k + 64


def eval_radicals(k: int, decimal_digits: int) -> RadicalState:
    """Evaluate the tower so that c_k is correct to >= decimal_digits
    digits after the point.

    Starts from guard_bits(k) and retries with doubled guard bits when
    cancellation in 2 - a_(k-1) invalidates digits; raises
    PrecisionExhausted after _MAX_RETRIES retries.
    """
    if k < 2:
        raise ValueError("depth k must be at least 2")
    if decimal_digits < 1:
        raise ValueError("decimal_digits must be at least 1")
    base = math.ceil(decimal_digits * _LOG2_10)
    guard = guard_bits(k)
    for _ in range(_MAX_RETRIES + 1):
        scale = base + guard
        try:
            state = _eval_at_scale(k, scale)
        except (NegativeOperand, DivisorStraddlesZero):
            guard = max(2 * guard, 16)
            continue
        if state.c_k.to_decimal(decimal_digits)[1]:
            return state
        guard = max(2 * guard, 16)
    raise PrecisionExhausted(
        f"c_{k} still uncertain at {decimal_digits} digits after "
        f"{_MAX_RETRIES} retries"
    )


def _eval_at_scale(k: int, scale: int) -> RadicalState:
    two = FixedReal.from_int(2, scale)
    a = two.sqrt()
    a_prev = a
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
    mid = c.mantissa * d
    one = 1 << c.scale
    if rounding == "nearest":
        # floor(x + 1/2) on mantissas scaled by d.
        n_lo, n_hi, n = (
            (2 * v + one) // (2 * one) for v in (lo, hi, mid)
        )
    else:
        n_lo, n_hi, n = (v // one for v in (lo, hi, mid))
    if n_lo != n_hi:
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
    return U1Selection(
        u1=u1,
        epsilon=epsilon,
        k=state.k,
        denominator_policy=d,
        rounding=rounding,
    )
