"""The conjugate-series core against the loops it replaced.

Only the convergence measurement walks a term stream, on plain integers
(analysis._term_mantissas); its samples must reproduce the loops it
replaced bit for bit, with no FixedReal arithmetic on either side
(tests/oracles.py keeps those loops as references, on their own int
pairs), and a stream started from a rounded rational cotangent must
give the reference's partial-sum mantissa.  Rational arguments are summed exactly by binary
splitting, which must agree with the reference loop within both error
bounds, never claim a wider bound, and contain an independent bracket of
the true arctangent; its exact sum must be the term-by-term one, over the
lcm of the odd denominators, not their product.  Its one rounding, from
operands cut to the working scale, must stay within half an ulp plus 2**-61 of the exact partial sum
summed term by term, and no chain link may divide by more than scale +
64 bits.  The tail bound on rho's integer pair must be the
reference's for a = 1 and never looser for any a.  Every chain link
after the first takes Gregory's real series: its split must be the exact
partial sum over the lcm, its interval must hold the partial sums of N
and N + 1 terms, and its tail bound must be the first omitted term
rounded up.  Every cotangent, of a
formula or the tower's c_k, first becomes a chain of integer cotangents:
the chain must be an exact Gaussian-integer identity that a common
factor of the pair does not change, its certified sum must contain an
independent bracket, and pi from either source must never reach the
stream.  The
tower's result must contain pi even when c_k's midpoint is moved within
a widened interval, and its bound must stay within 0.1% of the former
stream's.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from machinpi import analysis, cli, series
from machinpi.analysis import KNOWN_DIGITS_PER_TERM, RATE_BAND, measure_convergence
from machinpi.cli import generate_record
from machinpi.machin import MachinFormula, solve_u2
from machinpi.radicals import eval_radicals
from machinpi.realnum import FixedReal
from machinpi.series import (
    _arccot_gregory,
    _arctan_inverse,
    _cotangent_chain,
    _gregory_split,
    _gregory_tail_ulps,
    _lcm_split,
    _radical_rate,
    _tail_ulps,
    arctan_conjugate,
    digits_per_term,
    pi_digits_from_formula,
    pi_from_radicals,
    scale_for_digits,
    terms_for_digits,
)

from oracles import (
    _tail_bound,
    arctan_bracket,
    arctan_conjugate_reference,
    arctan_enclosure,
    convergence_samples_reference,
    gi_mul_naive,
    gregory_partial_sum_reference,
    pi_digits,
    pi_from_radicals_reference,
)


@pytest.fixture(scope="module")
def small_u2_arguments():
    """1/u2 at depths 10 and 13: second arguments of 1,364 and about
    15,000 digits."""
    return {k: 1 / solve_u2(u1, k) for k, u1 in ((10, Fraction(651)), (13, Fraction(5215)))}


@pytest.mark.parametrize("terms", [1, 3, 12])
@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(1, 5), Fraction(-1, 239), Fraction(2, 7), 10, 13],
    ids=["1/2", "1/5", "-1/239", "2/7", "1/u2@k10", "1/u2@k13"],
)
def test_measurement_stream_matches_fraction_start(x, terms, small_u2_arguments):
    if isinstance(x, int):
        x = small_u2_arguments[x]
    scale = 512
    total = sum(islice(analysis._term_mantissas(1 / x, scale), terms))
    assert total == arctan_conjugate_reference(x, terms, scale)[0]


def test_only_measurement_starts_a_stream(monkeypatch, machin_formula, pi_reference_300):
    starts = []
    term_mantissas = analysis._term_mantissas

    def spy(beta, scale):
        starts.append(beta)
        return term_mantissas(beta, scale)

    monkeypatch.setattr(analysis, "_term_mantissas", spy)
    pi_from_radicals(3, 4, 256)  # the tower sums through its chain
    arctan_conjugate(Fraction(1, 5), 200, 256)  # rational arguments always split
    series.pi_from_formula(machin_formula, 200, 256)
    assert starts == []
    measure_convergence(machin_formula, 3, pi_reference_300)
    assert starts == [Fraction(5), Fraction(-239)]


def test_tower_sums_c_k_through_the_chain(monkeypatch):
    def no_stream(*args):
        raise AssertionError("the tower took the measurement's term stream")

    calls = []

    def spy(num, den, digits, terms, scale):
        calls.append((num, den, scale))
        return _arctan_inverse(num, den, digits, terms, scale)

    monkeypatch.setattr(analysis, "_term_mantissas", no_stream)
    monkeypatch.setattr(series, "_arctan_inverse", spy)
    result = pi_from_radicals(3, 4, 256)
    # one chain, from c_k's exact dyadic midpoint at c_k's own scale,
    # entered as the integer pair (M, 2**s) with nothing reduced
    c = eval_radicals(3, math.ceil(256 * math.log10(2)) + 4).c_k
    assert calls == [(c.mantissa, 1 << c.scale, c.scale)]
    assert result.value.scale == c.scale


def test_formula_never_reaches_the_stream(monkeypatch, k10_formula, pi_text_300):
    def no_stream(*args):
        raise AssertionError("pi from a formula took the measurement's term stream")

    monkeypatch.setattr(analysis, "_term_mantissas", no_stream)
    k14 = MachinFormula.two_term(14, Fraction(10430), solve_u2(Fraction(10430), 14))
    k2 = MachinFormula.two_term(2, Fraction(12, 5), Fraction(-239))
    for formula in (k10_formula, k14, k2):
        for budget in ({"digits": 290}, {"terms": 30}):
            text, _ = pi_digits_from_formula(formula, **budget)
            assert pi_text_300.startswith(text)
            assert len(text) > 40


@pytest.mark.parametrize("x", [Fraction(2 ** 600 + 1, 3), Fraction(5 << 512, 6)],
                         ids=["c=0+-1ulp", "c=1+-1ulp"])
def test_cotangent_rounding_to_zero_keeps_exact_rho(x, pi_reference_300):
    # b/a = 3/(2**600 + 1) rounds to 0 at scale 512 and 6/(5 * 2**512) to
    # 1 ulp, and rho = a**2/(a**2 + 4b**2) is within 2**-1000 of 1, so its
    # 64-bit cap is 1; the tail bound must take the exact rho and still
    # give a valid (wide) interval.
    value = arctan_conjugate(x, 5, 512).value
    # pi/2 - 1/x <= arctan(x) < pi/2
    assert value.lower <= pi_reference_300.lower / 2 - 1 / x
    assert pi_reference_300.upper / 2 <= value.upper


SPLIT_SCALE = 3328


@lru_cache(maxsize=None)
def bracket(x):
    """arctan(x) to a quarter ulp at SPLIT_SCALE."""
    return arctan_bracket(x, Fraction(1, 1 << (SPLIT_SCALE + 2)))


@pytest.mark.parametrize("terms", [1, 2, 3, 12, 805])
@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(1, 5), Fraction(-1, 239), Fraction(2, 7), Fraction(1, 651)],
    ids=["1/2", "1/5", "-1/239", "2/7", "1/651"],
)
def test_split_sum_agrees_with_reference_loop(x, terms, monkeypatch):
    def no_stream(*args):
        raise AssertionError("a rational argument took the measurement's term stream")

    monkeypatch.setattr(analysis, "_term_mantissas", no_stream)
    split = arctan_conjugate(x, terms, SPLIT_SCALE)
    mantissa, err_ulp, used, _ = arctan_conjugate_reference(x, terms, SPLIT_SCALE)
    value = split.value
    assert used == split.terms_used == terms
    assert value.scale == SPLIT_SCALE
    assert value.mantissa - value.err_ulp <= mantissa + err_ulp
    assert mantissa - err_ulp <= value.mantissa + value.err_ulp
    assert value.err_ulp <= err_ulp
    mid, bound = bracket(x)
    assert value.lower <= mid - bound and mid + bound <= value.upper


def exact_term(x, m):
    """-2 Im(v**(2m-1)) / (2m-1) for v = x/(x + 2i), from Fractions."""
    a, b = x.numerator, x.denominator
    d = a * a + 4 * b * b
    vr, vi = Fraction(a * a, d), Fraction(-2 * a * b, d)
    wr, wi = vr, vi
    for _ in range(2 * m - 2):
        wr, wi = wr * vr - wi * vi, wr * vi + wi * vr
    return -2 * wi / (2 * m - 1)


@pytest.mark.parametrize("terms", [2, 12])
@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(2, 7), Fraction(-1, 239)])
def test_split_rate_measured_from_exact_terms(x, terms):
    first, last = exact_term(x, 1), exact_term(x, terms)
    expected = (math.log10(abs(first)) - math.log10(abs(last))) / (terms - 1)
    rate = arctan_conjugate(x, terms, 512).per_term_log10
    assert rate == pytest.approx(expected, rel=1e-12)
    # measured, not the prediction: the 1/(2m-1) factors shift it
    assert abs(rate - digits_per_term(1 / x)) > 0.01


def exact_partial_sum(x: Fraction, terms: int) -> tuple[int, int]:
    """(N, D) with N/D the first `terms` terms -2 Im(v**(2m-1)) / (2m-1),
    v = x/(x + 2i), summed term by term over the common denominator
    lcm(1, 3, ..., 2 terms - 1) d**(2 terms - 1), d = |a + 2bi|**2: the
    sum of exact_term with no gcd of the 10**5-bit parts."""
    a, b = x.numerator, x.denominator
    d = a * a + 4 * b * b
    vr, vi = a * a, -2 * a * b  # d v
    v2r, v2i = vr * vr - vi * vi, 2 * vr * vi
    lcm = math.lcm(*range(1, 2 * terms, 2))
    num, wr, wi = 0, vr, vi  # w = d**(2m-1) v**(2m-1)
    for m in range(1, terms + 1):
        num = num * d * d - 2 * wi * (lcm // (2 * m - 1))
        wr, wi = wr * v2r - wi * v2i, wr * v2i + wi * v2r
    return num, lcm * d ** (2 * terms - 1)


# The split runs over the terms - 1 ratios after the first term, in leaf
# blocks of up to series._LEAF_TERMS = 12: 13 terms are one full leaf, 14
# split once, 25 fill two leaves, and 26 split one half again.
@given(st.integers(-2 ** 20, 2 ** 20).filter(bool), st.integers(1, 2 ** 200),
       st.integers(1, 200))
@example(1, 5, 1)
@example(1, 5, 2)
@example(1, 5, 13)
@example(1, 5, 14)
@example(-2, 7, 25)
@example(3, 2 ** 200, 26)
@example(1, 239, 200)
def test_lcm_split_is_the_exact_partial_sum(a, b, terms):
    # The split's S = a w / z gives the term-by-term partial sum exactly,
    # and a p / z is its last term a**(2N-1) / ((2N-1) g**(2N-1)).
    x = Fraction(a, b)
    a, b = x.numerator, x.denominator
    p, zr, zi, wr, wi = _lcm_split(a, b, terms)
    num, den = exact_partial_sum(x, terms)
    assert -2 * a * (wi * zr - wr * zi) * den == num * (zr * zr + zi * zi)
    power = (1, 0)
    for _ in range(2 * terms - 1):
        power = gi_mul_naive(power, (a, 2 * b))
    lhs, rhs = a * p * (2 * terms - 1), a ** (2 * terms - 1)
    assert (lhs * power[0], lhs * power[1]) == (rhs * zr, rhs * zi)


def test_lcm_split_carries_the_lcm_not_the_product():
    # At m = 5 and 2000 terms z = g L G**1999, for L = lcm(1, 3, ..., 3999)
    # and |g| = sqrt(101); the product of the odd numbers 3 .. 3999 in
    # its place would make z 34,360 bits.
    bound = (math.lcm(*range(1, 4000, 2)).bit_length()
             + math.ceil(3999 * math.log2(101) / 2) + 2)
    assert bound == 19_061
    _, zr, zi, _, _ = _lcm_split(1, 5, 2000)
    assert max(zr.bit_length(), zi.bit_length()) <= bound


@given(st.integers(2, 2 ** 64), st.integers(1, 60))
@example(2, 1)
@example(4, 13)
@example(5, 14)
@example(239, 25)
@example(2 ** 64 + 1, 26)
def test_gregory_split_is_the_exact_partial_sum(m, terms):
    # b / d is the term-by-term partial sum, d carries the lcm of the odd
    # denominators (not their product), and power is M**(terms - 1).
    b, d, power = _gregory_split(m, terms)
    assert Fraction(b, d) == gregory_partial_sum_reference(m, terms)[0]
    assert power == m ** (2 * terms - 2)
    assert d == m * math.lcm(*range(1, 2 * terms, 2)) * power


# (m, terms): small cotangents with many terms, huge ones with few
gregory_links = st.one_of(
    st.tuples(st.just(2), st.integers(1, 60)),
    st.tuples(st.integers(2, 2 ** 64), st.integers(1, 60)),
    st.tuples(st.integers(2 ** 64, 2 ** 3000), st.integers(1, 4)),
)


@given(gregory_links, st.integers(8, 4000))
@example((2, 1), 8)
@example((2, 60), 4000)
@example(((1 << 20_000) + 12345, 1), 40_000)  # a 20k-bit m with one term
def test_gregory_interval_contains_the_oracle_bracket(link, scale):
    m, terms = link
    # arctan(1/m) lies between the partial sums of terms and terms + 1
    # terms, both exact; the certified interval holds them both.
    value = _arccot_gregory(m, terms, scale).value
    partial, omitted = gregory_partial_sum_reference(m, terms)
    following = partial + (-1) ** terms * omitted
    for end in (partial, following):
        assert value.lower <= end <= value.upper


@given(gregory_links, st.integers(8, 40_000))
@example((2, 1), 8)
@example((3, 2), 64)
@example((1 << 25_710, 1), 34_564)
def test_gregory_tail_is_never_below_the_first_omitted_term(link, scale):
    # The bound is the exact first omitted term in ulps, rounded up, or 1
    # when bit lengths alone put it under one ulp.
    m, terms = link
    exact = Fraction(2 ** scale, (2 * terms + 1) * m ** (2 * terms + 1))
    got = _gregory_tail_ulps(m, m ** (2 * terms - 2), terms, scale)
    assert got >= exact
    assert got == max(1, math.ceil(exact))


def test_a_cotangent_under_one_reaches_gregory_at_two(monkeypatch):
    # arccot(1/3) = arccot(1) + arccot(2): the first link is 1, the only
    # way to a later link of 2, which Gregory's series sums.
    seen = []

    def spy(m, terms, scale):
        seen.append(m)
        return _arccot_gregory(m, terms, scale)

    monkeypatch.setattr(series, "_arccot_gregory", spy)
    assert_chain_sum_contains_bracket(Fraction(1, 3))
    assert seen == [2]


def _cut_case(seed: int) -> tuple[Fraction, int, int]:
    """(x, terms, scale) with x = a/b, |a| up to 2**400 and the cotangent
    b/|a| between 2**(scale/3) and 2**scale, so that the split's z outgrows
    the scale from two terms on, and |z|**2 for large cotangents from one."""
    rng = random.Random(seed)
    scale = rng.randint(64, 2048)
    a = rng.randint(1, 2 ** 400) * rng.choice((1, -1))
    bits = rng.randint(scale // 3, scale)
    b = rng.randint(abs(a) << (bits - 1), abs(a) << bits)
    return Fraction(a, b), rng.randint(1, 30), scale


# drawn by seed, so that the sizes spread evenly over their ranges
@given(st.integers(0, 2 ** 32).map(_cut_case))
@example((Fraction(1, 5), 1, 64))  # nothing cut: the rounding's own flag
@example((Fraction(-1, 3 << 2047), 30, 2048))
@example((Fraction(-(2 ** 400 - 1), 2 ** 700 + 1), 30, 900))
def test_cut_rounding_contains_the_exact_partial_sum(case):
    x, terms, scale = case
    value = arctan_conjugate(x, terms, scale).value
    num, den = exact_partial_sum(x, terms)
    # |S - midpoint| < 1/2 + 2**-61 ulp: the proved bound of the cuts
    # plus the final rounding, inside err_ulp with the tail on top
    gap = abs((num << scale) - value.mantissa * den)
    assert gap << 61 < ((1 << 60) + 1) * den
    assert gap <= value.err_ulp * den
    assert value.err_ulp >= 1 or gap == 0
    assert abs(value.mantissa - FixedReal._from_ratio(num, den, scale).mantissa) <= 1


@pytest.fixture
def divisor_sizes(monkeypatch):
    """Every rounding's (divisor bits, scale) while the fixture is live."""
    sizes = []
    from_ratio = FixedReal._from_ratio.__func__

    def spy(cls, num, den, scale):
        sizes.append((den.bit_length(), scale))
        return from_ratio(cls, num, den, scale)

    monkeypatch.setattr(FixedReal, "_from_ratio", classmethod(spy))
    return sizes


@pytest.fixture
def evaluator_calls(monkeypatch):
    """(evaluator, 1/m, terms) of every chain link summed while the fixture
    is live: the conjugate series' and Gregory's."""
    calls = []

    def conjugate(x, terms, scale):
        calls.append(("conjugate", x, terms))
        return arctan_conjugate(x, terms, scale)

    def gregory(m, terms, scale):
        calls.append(("gregory", Fraction(1, m), terms))
        return _arccot_gregory(m, terms, scale)

    monkeypatch.setattr(series, "arctan_conjugate", conjugate)
    monkeypatch.setattr(series, "_arccot_gregory", gregory)
    return calls


@pytest.mark.parametrize("source, links, first_links", [(["--k", "40"], 8, 1),
                                                        (None, 11, 2)],
                         ids=["k40", "k10floor"])
def test_every_link_divides_at_the_working_scale(source, links, first_links, divisor_sizes,
                                                 evaluator_calls, tmp_path, capsys,
                                                 pi_text_300):
    # Each chain link rounds once, from a divisor cut to scale + 64 bits;
    # uncut, |z|**2 has 2-6 times the scale's bits.  Each chain's first
    # link takes the conjugate series, every later one Gregory's.
    if source is None:
        path = str(tmp_path / "k10.json")
        assert cli.main(["generate", "10", "--round", "floor", "--out", path]) == 0
        source = ["--formula", path]
    divisor_sizes.clear()
    evaluator_calls.clear()
    capsys.readouterr()
    assert cli.main(["compute-pi", *source, "--digits", "2000"]) == 0
    assert capsys.readouterr().out.startswith(pi_text_300)
    assert len(divisor_sizes) == links == len(evaluator_calls)
    kinds = [kind for kind, _, _ in evaluator_calls]
    assert kinds.count("conjugate") == first_links
    assert kinds.count("gregory") == links - first_links
    assert all(bits <= scale + 64 for bits, scale in divisor_sizes)
    assert max(bits - scale for bits, scale in divisor_sizes) == 64


@pytest.mark.parametrize("k, u1, digits, second_terms, cotangents", [
    (10, 651, 5000, 1482, 11),  # floor u1: u2 ~ -922.9 with 1,364-digit parts
    (14, 10430, 1000, 215, 8),  # u2 with about 32,000-digit parts
])
def test_huge_second_argument_chains_with_own_budgets(
    k, u1, digits, second_terms, cotangents, evaluator_calls, pi_text_300
):
    formula = MachinFormula.two_term(k, Fraction(u1), solve_u2(Fraction(u1), k))
    text, result = pi_digits_from_formula(formula, digits)
    assert text.startswith(pi_text_300)
    first, *chain = evaluator_calls
    assert first == ("conjugate", Fraction(1, u1), result.terms_used)
    # Every split of the second arctangent has numerator 1; its first
    # link takes the conjugate series, every later one Gregory's.
    assert len(chain) == cotangents
    assert [kind for kind, _, _ in chain] == ["conjugate"] + ["gregory"] * (cotangents - 1)
    assert all(x.numerator == 1 for _, x, _ in chain)
    # Each integer cotangent runs what reaches the slowest one's digits at
    # its own rate; a Gregory link stops sooner once bit lengths put its
    # first omitted term 1/((2N + 1) m**(2N + 1)) under one ulp.
    target = (result.terms_used - 2) * digits_per_term(Fraction(u1))
    scale = scale_for_digits(digits)
    (_, x, terms), *later = chain
    assert terms == min(result.terms_used, terms_for_digits(target, digits_per_term(1 / x)))
    for _, x, terms in later:
        bits = x.denominator.bit_length() - 1
        under_an_ulp = next(n for n in range(1, scale) if (2 * n + 1) * bits >= scale)
        assert terms == min(result.terms_used, under_an_ulp,
                            terms_for_digits(target, 2 * math.log10(x.denominator)))
    assert later[-1][2] == 1  # m near 2**scale: one term, where the rate's count is 3
    assert result.term_counts == (result.terms_used, second_terms)
    assert second_terms == sum(terms for _, _, terms in chain)


@given(st.integers(0, 10 ** 40), st.integers(1, 10 ** 40), st.integers(8, 600))
def test_cotangent_chain_is_an_exact_identity(p, q, scale):
    chain, p_rest, q_rest = _cotangent_chain(p, q, scale)
    # (p + qi) * prod(m**2 + 1) = prod(m + i) * (p' + q'i) in Z[i]
    rhs = (p_rest, q_rest)
    for m in chain:
        rhs = gi_mul_naive(rhs, (m, 1))
    n = math.prod(m * m + 1 for m in chain)
    assert (p * n, q * n) == rhs
    assert all(m >= 1 for m in chain)
    assert q_rest == 0 or p_rest >= q_rest << scale
    # the cotangent's bits double per step once it passes 2
    assert len(chain) <= scale.bit_length() + 3


@given(st.integers(0, 10 ** 40), st.integers(1, 10 ** 40), st.integers(1, 2 ** 80),
       st.integers(8, 600))
@example(3 << 300, 1 << 300, 2 ** 80, 8)  # the tower's (M, 2**s) shape
def test_cotangent_chain_ignores_a_common_factor(p, q, g, scale):
    # The tower enters its chain as (M, 2**s) unreduced: scaling the pair
    # by g must keep every m_j and scale the residual pair by g.
    chain, p_rest, q_rest = _cotangent_chain(p, q, scale)
    assert _cotangent_chain(g * p, g * q, scale) == (chain, g * p_rest, g * q_rest)


@given(st.integers(1, 2 ** 200), st.integers(1, 60), st.integers(8, 600))
@example(1, 1, 8)
@example(2 ** 40, 3, 64)  # 1 + 4m**2 has 83 bits: the cap shifts q back up
def test_tail_ulps_of_a_unit_argument_is_the_reference_bound(m, terms, scale):
    # Every production series has a = 1, so rho = 1/(1 + 4m**2) is its own
    # lowest terms and the bound must be the reference's to the ulp.
    expected = _tail_bound(Fraction(1, 1 + 4 * m * m), terms) * 2 ** scale
    assert _tail_ulps(1, 1 + 4 * m * m, terms, scale) == math.ceil(expected)


@given(st.integers(-2 ** 200, 2 ** 200).filter(bool), st.integers(1, 2 ** 200),
       st.integers(1, 60), st.integers(8, 600))
@example(2 ** 100 + 2, 5 ** 40, 4, 64)  # even a: the parts share 4, then capped
def test_tail_ulps_of_any_rho_pair_is_sound_and_never_looser(a, b, terms, scale):
    # arctan_conjugate's pair (a**2, a**2 + 4b**2) >> shift is capped
    # without a gcd, so its bound may come out tighter than the
    # reference's, never looser, and never under the exact
    # 2 rho**(terms + 1/2) / ((2 terms + 1)(1 - rho)) in ulps.
    x = Fraction(a, b)
    a, b = x.numerator, x.denominator
    shift = 0 if a & 1 else 2
    got = _tail_ulps(a * a >> shift, (a * a + 4 * b * b) >> shift, terms, scale)
    rho = Fraction(a * a, a * a + 4 * b * b)
    assert got <= math.ceil(_tail_bound(rho, terms) * 2 ** scale)
    exact = 2 ** (scale + 1) * rho ** terms / ((2 * terms + 1) * (1 - rho))
    assert got > 0 and got * got >= exact * exact * rho


@given(st.integers(1, 2 ** 2000), st.integers(1, 60), st.integers(8, 40_000))
@example(1 << 25_710, 3, 34_564)  # compute-pi --k 400's last link at 10**4 digits
def test_tail_ulps_under_an_ulp_takes_no_root_or_power(m, terms, scale):
    # Deep chain links put the tail far below one ulp.  There the bit
    # lengths settle the bound at 1, with no isqrt of the full-size cap,
    # whenever it is under 2**-(2 terms + 5) ulp; the result is the
    # reference's either way.
    bound = _tail_bound(Fraction(1, 1 + 4 * m * m), terms) * 2 ** scale
    with mock.patch.object(math, "isqrt", wraps=math.isqrt) as isqrt:
        got = _tail_ulps(1, 1 + 4 * m * m, terms, scale)
    assert got == math.ceil(bound)
    if bound < Fraction(1, 2 ** (2 * terms + 5)):
        assert not isqrt.called


@pytest.mark.parametrize("beta, scale, extra_ulp", [
    (Fraction(12, 5), 512, 0),  # chain 3, 14, 577 ends exactly
    (Fraction(-239), 512, 0),  # one step
    (10, 8000, 1),  # k = 10 u2, 4,500-bit parts under 8000 bits: residual only
    (10, 512, 2),  # rounded to a dyadic first, then a residual
])
def test_chain_bound_counts_rounding_and_residual(beta, scale, extra_ulp, monkeypatch,
                                                   small_u2_arguments):
    if isinstance(beta, int):
        beta = 1 / small_u2_arguments[beta]
    pieces = []

    def spy(evaluator):
        def summed(*args):
            pieces.append(evaluator(*args))
            return pieces[-1]
        return summed

    monkeypatch.setattr(series, "arctan_conjugate", spy(arctan_conjugate))
    monkeypatch.setattr(series, "_arccot_gregory", spy(_arccot_gregory))
    got = _arctan_inverse(beta.numerator, beta.denominator, 1000, 10 ** 6, scale).value
    assert got.err_ulp == sum(piece.value.err_ulp for piece in pieces) + extra_ulp


def _huge_cotangent(seed: int) -> Fraction:
    """A cotangent with two parts of over 10**4 digits, of either sign
    and magnitude between about 2**-6 and 2**20."""
    rng = random.Random(seed)
    q_bits = 34_000
    p_bits = q_bits + rng.randint(-6, 20)
    p = rng.getrandbits(p_bits) | 1 << (p_bits - 1)
    q = rng.getrandbits(q_bits) | 1 << (q_bits - 1)
    return Fraction(-p if seed & 1 else p, q)


def assert_chain_sum_contains_bracket(beta: Fraction) -> None:
    scale = 160
    got = _arctan_inverse(beta.numerator, beta.denominator, 50, 10 ** 6, scale).value
    # 1/beta replaced by a dyadic within 2**-200, the gap joining the bound
    x = 1 / beta
    near = Fraction(round(x * (1 << 200)), 1 << 200)
    mid, bound = arctan_enclosure(near, Fraction(1, 1 << (scale + 4)))
    bound += abs(x - near)
    assert got.lower <= mid - bound and mid + bound <= got.upper
    assert got.err_ulp <= 64


cotangents_any_sign = st.one_of(
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
    st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 9),
    st.integers(-10 ** 9, 10 ** 9).map(Fraction),
).filter(lambda beta: beta != 0)


@given(cotangents_any_sign)
@example(Fraction(-239))
@example(Fraction(1, 3))
@example(Fraction(-7, 10 ** 9))
@example(Fraction(1))
def test_chain_sum_contains_independent_bracket(beta):
    assert_chain_sum_contains_bracket(beta)


@given(st.integers(0, 2 ** 32))
def test_chain_sum_of_huge_parts_contains_independent_bracket(seed):
    # drawn by seed: hypothesis could not print the 10,000-digit parts
    assert_chain_sum_contains_bracket(_huge_cotangent(seed))


def assert_contains_pi(value: FixedReal) -> None:
    """value contains pi's bracket [t, t + 10**-n] for t = pi truncated
    to n digits, with 10**-n under a tenth of value's ulp."""
    n = math.ceil(value.scale * math.log10(2)) + 1
    whole, frac = pi_digits(n).split(".")
    low = Fraction(int(whole + frac), 10 ** n)
    assert value.lower <= low and low + Fraction(1, 10 ** n) <= value.upper


@pytest.mark.parametrize("k, terms, digits", [
    (2, 30, 50), (3, 12, 40), (40, 6, 170), (10, 1, 40), (10, 4, 60), (65, 3, 120),
])
def test_tower_matches_its_former_loop(k, terms, digits):
    # The chain replaced the fixed-point stream: same scale, an
    # independent pi bracket inside, and a bound within 0.1% of the
    # stream's (1.0003x at worst, k = 10 with one term).
    scale = scale_for_digits(digits)
    got = pi_from_radicals(k, terms, scale).value
    _, err_ulp, _, _ = pi_from_radicals_reference(k, terms, scale)
    assert_contains_pi(got)
    assert got.err_ulp * 1000 <= err_ulp * 1001


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [2, 3, 40, 400])
def test_tower_widens_for_c_k_error(k, sign, monkeypatch):
    # A c_k interval whose midpoint sits delta ulps off, with the bound
    # grown by delta, still contains c_k; arccot moves the midpoint by
    # about delta / c_k**2 = 2**17 ulps, which only the widening covers.
    delta = 1 << (2 * k + 16)

    def moved(k, digits):
        state = eval_radicals(k, digits)
        c = state.c_k
        c = FixedReal(c.mantissa + sign * delta, c.scale, c.err_ulp + delta)
        return state._replace(c_k=c)

    scale = scale_for_digits(60)
    # enough terms that truncation stays under an ulp at c_k's scale
    c_scale = eval_radicals(k, math.ceil(scale * math.log10(2)) + 4).c_k.scale
    terms = terms_for_digits(c_scale * math.log10(2), _radical_rate(k))
    monkeypatch.setattr(series, "eval_radicals", moved)
    assert_contains_pi(pi_from_radicals(k, terms, scale).value)


@pytest.mark.parametrize("k, den", [(2, 10), (3, 1), (5, 1), (10, 1)])
def test_one_pass_samples_match_per_truncation_rebuild(k, den, pi_reference_300):
    formula = generate_record(k, den, "nearest").formula()
    report = measure_convergence(formula, 40, pi_reference_300)
    assert report.samples == convergence_samples_reference(formula, 40, pi_reference_300)


def test_one_pass_samples_single_term_formula(pi_reference_300):
    formula = MachinFormula.single(Fraction(1), Fraction(1))
    report = measure_convergence(formula, 40, pi_reference_300)
    assert report.samples == convergence_samples_reference(formula, 40, pi_reference_300)


FIXED_REAL_ARITHMETIC = ("__add__", "__sub__", "__truediv__", "sqrt", "shift", "widened")


def forbid_fixed_real_arithmetic(monkeypatch, who):
    def interval_arithmetic(*args):
        raise AssertionError(f"{who} did FixedReal arithmetic")

    for name in FIXED_REAL_ARITHMETIC:
        monkeypatch.setattr(FixedReal, name, interval_arithmetic)


def test_measurement_does_no_fixed_real_arithmetic(monkeypatch, k10_formula,
                                                  pi_reference_300):
    expected = convergence_samples_reference(k10_formula, 40, pi_reference_300)
    forbid_fixed_real_arithmetic(monkeypatch, "the measurement")
    report = measure_convergence(k10_formula, 40, pi_reference_300)
    assert report.samples == expected


def test_series_references_do_no_fixed_real_arithmetic(monkeypatch, k10_formula,
                                                      pi_reference_300):
    # The references must not lean on the arithmetic of the code they
    # check; pi_reference_300 is built before the patch.
    forbid_fixed_real_arithmetic(monkeypatch, "a series reference")
    assert arctan_conjugate_reference(Fraction(1, 5), 12, 512)[2] == 12
    samples = convergence_samples_reference(k10_formula, 10, pi_reference_300)
    assert [m for m, _ in samples] == list(range(1, 11))


def test_measurement_never_rebuilds_pi(monkeypatch, machin_formula, pi_reference_300):
    def rebuild(*args, **kwargs):
        raise AssertionError("measure_convergence re-evaluated pi_from_formula")

    monkeypatch.setattr(series, "pi_from_formula", rebuild)
    report = measure_convergence(machin_formula, 20, pi_reference_300)
    assert len(report.samples) == 20


def test_depth_seventeen_rate_measured(pi_reference_300):
    # The published ~10 digits per term at depth 17, counted against the
    # reference rather than predicted (measured 10.53, predicted 10.44);
    # the second argument has about 312,000 digits.
    u1 = Fraction(83443)
    formula = MachinFormula.two_term(17, u1, solve_u2(u1, 17))
    report = measure_convergence(formula, 20, pi_reference_300)
    assert abs(report.measured_digits_per_term - KNOWN_DIGITS_PER_TERM[17]) < 1
    assert abs(report.measured_digits_per_term - report.predicted_digits_per_term) \
        < RATE_BAND * report.predicted_digits_per_term
    assert report.samples[-1][1] >= 200
