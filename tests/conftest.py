from __future__ import annotations

import decimal
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

from machinpi import MachinFormula, solve_u2, validated_pi_reference

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def int_text_cap_unchanged():
    """Fail any test that leaves CPython's int <-> str digit cap changed:
    it is process-wide, so machinpi never sets it and a test that does
    must put it back."""
    before = sys.get_int_max_str_digits()
    yield
    assert sys.get_int_max_str_digits() == before, "int <-> str digit cap left changed"


def _decimal_settings() -> tuple:
    ctx = decimal.getcontext()
    return (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp,
            dict(ctx.traps), dict(ctx.flags))


@pytest.fixture(autouse=True)
def decimal_context_unchanged():
    """Fail any test that leaves the thread's decimal context changed
    (precision, traps or flags): machinpi computes exactly in a private
    context, never in the one every other decimal user in the process
    shares."""
    before = _decimal_settings()
    yield
    assert _decimal_settings() == before, "decimal context left changed"


@pytest.fixture(scope="session")
def pi_reference_300():
    """pi as a FixedReal validated to >= 300 decimals by two independent
    formulas; see analysis.validated_pi_reference."""
    return validated_pi_reference(300)


@pytest.fixture(scope="session")
def pi_text_300(pi_reference_300):
    text, ok = pi_reference_300.to_decimal(300)
    assert ok
    return text


@pytest.fixture(scope="session")
def machin_formula():
    return MachinFormula.two_term(3, Fraction(5), Fraction(-239))


@pytest.fixture(scope="session")
def k10_formula():
    u1 = Fraction(651)
    return MachinFormula.two_term(10, u1, solve_u2(u1, 10))
