import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptfwitness.brackets import (
    e_brackets,
    inv_sqrt_brackets,
    ln_brackets_rational,
    log2_brackets,
    one_plus_ln_brackets,
    pow2_brackets,
    sqrt_brackets,
    sqrt_lower,
    sqrt_upper,
)
from ptfwitness.errors import PreconditionError

F = Fraction


def test_sqrt_exact_square():
    lo, hi = sqrt_brackets(F(49))
    assert lo <= 7 <= hi and hi - lo <= F(1, 2**30)


def test_e_brackets():
    lo, hi = e_brackets()
    assert lo < hi
    assert float(lo) <= math.e <= float(hi)
    assert hi - lo < F(1, 10**12)


@given(st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_ln_brackets(n):
    lo, hi = ln_brackets_rational(n)
    assert lo <= hi
    assert float(lo) - 1e-12 <= math.log(n) <= float(hi) + 1e-12
    assert hi - lo < F(1, 10**6)


@given(st.integers(-256, 256), st.integers(1, 32))
@settings(max_examples=40, deadline=None)
def test_pow2_brackets(num, den):
    q = F(num, den)
    lo, hi = pow2_brackets(q)
    v = 2.0 ** float(q)
    assert float(lo) <= v * (1 + 1e-9) and v * (1 - 1e-9) <= float(hi)
    assert lo > 0


def test_negative_bits_rejected():
    calls = [
        lambda: sqrt_brackets(2, bits=-1),
        lambda: sqrt_lower(F(2), bits=-1),
        lambda: sqrt_upper(F(2), bits=-1),
        lambda: inv_sqrt_brackets(3, bits=-1),
    ]
    for call in calls:
        with pytest.raises(PreconditionError):
            call()


def test_floats_rejected():
    calls = [
        lambda: sqrt_lower(0.5),
        lambda: sqrt_upper(0.5),
        lambda: sqrt_brackets(2.0),
        lambda: inv_sqrt_brackets(2.5),
        lambda: pow2_brackets(0.1),
        lambda: pow2_brackets(-0.1),
        lambda: ln_brackets_rational(0.5),
        lambda: log2_brackets(3.0),
    ]
    for call in calls:
        with pytest.raises(PreconditionError):
            call()


def test_cached_brackets_keep_the_exact_input_gate():
    # 3.0 == 3 and True == 1 hash alike, so a gate behind the cache would
    # hand them the cached brackets of 3 and 1
    three, one = one_plus_ln_brackets(3), one_plus_ln_brackets(1)
    assert one == (1, 1)
    assert float(three[0]) - 1e-12 <= 1 + math.log(3) <= float(three[1]) + 1e-12
    for bad in (3.0, True):
        with pytest.raises(PreconditionError):
            one_plus_ln_brackets(bad)
    assert one_plus_ln_brackets(F(3)) is three
    assert e_brackets() is e_brackets()


def test_ints_and_fractions_accepted():
    assert sqrt_lower(4) == sqrt_upper(F(4)) == 2
    assert pow2_brackets(3) == (8, 8)
    assert ln_brackets_rational(1) == (0, 0)


# pow2_brackets as it was before its integer rewrite, with the helpers it
# called: Fraction accumulators, rounded through Fraction at every step


def _round_down(x, bits):
    scale = 1 << bits
    return Fraction(x.numerator * scale // x.denominator, scale)


def _round_up(x, bits):
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def _sqrt_lower(x, bits=32):
    k = math.isqrt(x.numerator * (1 << (2 * bits)) // x.denominator)
    return Fraction(k, 1 << bits)


def _sqrt_upper(x, bits=32):
    t = -((-x.numerator * (1 << (2 * bits))) // x.denominator)
    k = math.isqrt(t)
    if k * k < t:
        k += 1
    return Fraction(k, 1 << bits)


def _pow2_reference(exponent, bits=24):
    e = Fraction(exponent)
    if e < 0:
        lo, hi = _pow2_reference(-e, bits)
        return 1 / hi, 1 / lo
    k = e.numerator // e.denominator
    frac = e - k
    base = Fraction(1 << k)
    if frac == 0:
        return base, base
    work = 2 * bits + 8
    lo_acc, hi_acc = Fraction(1), Fraction(1)
    r_lo, r_hi = Fraction(2), Fraction(2)  # brackets of 2^(1/2^j)
    f = frac
    for _ in range(bits):
        r_lo = _sqrt_lower(r_lo, work)
        r_hi = _sqrt_upper(r_hi, work)
        f *= 2
        if f >= 1:
            f -= 1
            lo_acc = _round_down(lo_acc * r_lo, work)
            hi_acc = _round_up(hi_acc * r_hi, work)
        if f == 0:
            break
    if f != 0:
        # unresolved tail exponent is below 2^-bits; absorb one more factor
        hi_acc = _round_up(hi_acc * r_hi, work)
    return base * lo_acc, base * hi_acc


exponents = st.one_of(
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(F, st.integers(-64, 64), st.sampled_from([1, 2, 4, 8, 1 << 20, 1 << 40])),
)


@given(exponents)
@settings(max_examples=300, deadline=None)
def test_pow2_matches_fraction_reference(e):
    assert pow2_brackets(e) == _pow2_reference(e, 24)
