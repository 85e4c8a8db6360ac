"""Two-sided rational enclosures for the irrational quantities the
constructions compare against (ln n, e, square roots, powers of two).

Every function returns a pair (lo, hi) of Fractions with lo <= value <= hi,
except `pow2_bound`, which returns the one side of a power-of-two bracket
that its caller needs.  Callers pick the adverse side, so a check that
passes against a bracket is sound even though the bracket is not tight.
All internal rounding is directed and all comparisons are exact integer
comparisons.  The square roots and the power-of-two digit loop run on
integer numerators over a fixed power-of-two denominator, and build a
Fraction only for each returned value.  Inputs are
ints or Fractions; anything else, a float included, raises
PreconditionError.  Only the square-root family takes a precision, `bits`,
because its callers use two; the series and the powers of two each run at
one fixed precision (LN_TERMS, E_TERMS, POW2_BITS).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt

from .core import as_int, as_rat
from .errors import PreconditionError

Bracket = tuple[Fraction, Fraction]

LN_TERMS = 24   # atanh series terms behind every logarithm
E_TERMS = 20    # factorial series terms behind e
POW2_BITS = 24  # square roots of 2 chained by pow2_brackets


def _check_bits(bits: int) -> None:
    if bits < 0:
        raise PreconditionError("bits must be >= 0")


def sqrt_lower(x: Fraction, bits: int = 32) -> Fraction:
    """Largest dyadic k/2^bits with (k/2^bits)^2 <= x."""
    _check_bits(bits)
    x = as_rat(x)
    if x < 0:
        raise PreconditionError("sqrt of a negative number")
    k = isqrt(x.numerator * (1 << (2 * bits)) // x.denominator)
    return Fraction(k, 1 << bits)


def sqrt_upper(x: Fraction, bits: int = 32) -> Fraction:
    """Smallest dyadic k/2^bits with (k/2^bits)^2 >= x."""
    _check_bits(bits)
    x = as_rat(x)
    if x < 0:
        raise PreconditionError("sqrt of a negative number")
    t = -((-x.numerator * (1 << (2 * bits))) // x.denominator)
    k = isqrt(t)
    if k * k < t:
        k += 1
    return Fraction(k, 1 << bits)


def sqrt_brackets(x, bits: int = 32) -> Bracket:
    return sqrt_lower(x, bits), sqrt_upper(x, bits)


def inv_sqrt_brackets(n: int, bits: int = 32) -> Bracket:
    """Enclose 1/sqrt(n) for a positive integer n."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    lo, hi = sqrt_brackets(n, bits)
    return 1 / hi, 1 / lo


def _ln_atanh(y: Fraction, terms: int) -> Bracket:
    """Enclose ln(y) for rational y in [1, 2] via 2 atanh((y-1)/(y+1)).

    The argument stays <= 1/3, so the positive-term series converges
    geometrically and its tail is bounded by a geometric series.
    """
    x = (y - 1) / (y + 1)
    if x == 0:
        return Fraction(0), Fraction(0)
    x2 = x * x
    acc = Fraction(0)
    power = x
    for k in range(terms):
        acc += power / (2 * k + 1)
        power *= x2
    tail = power / ((2 * terms + 1) * (1 - x2))
    return 2 * acc, 2 * (acc + tail)


@cache
def _ln2() -> Bracket:
    """The ln 2 bracket, computed once on first use."""
    return _ln_atanh(Fraction(2), LN_TERMS)


def ln_brackets_rational(x: Fraction) -> Bracket:
    """Enclose ln(x) for a positive rational x by power-of-two reduction."""
    x = as_rat(x)
    if x <= 0:
        raise PreconditionError("ln of a nonpositive number")
    if x < 1:
        lo, hi = ln_brackets_rational(1 / x)
        return -hi, -lo
    # floor(x) < 2^(k + 1), so m = x / 2^k lies in [1, 2)
    k = (x.numerator // x.denominator).bit_length() - 1
    m = x / (1 << k)
    ln2_lo, ln2_hi = _ln2()
    m_lo, m_hi = _ln_atanh(m, LN_TERMS)
    return k * ln2_lo + m_lo, k * ln2_hi + m_hi


def one_plus_ln_brackets(n: int) -> Bracket:
    """Enclose 1 + ln(n) for a positive rational n, computed once per n.
    The exact-input gate runs before the cache, so 3.0 or True raises even
    when the bracket of 3 or 1 is cached."""
    return _one_plus_ln(as_rat(n))


@cache
def _one_plus_ln(x: Fraction) -> Bracket:
    lo, hi = ln_brackets_rational(x)
    return 1 + lo, 1 + hi


def log2_brackets(x: Fraction) -> Bracket:
    """Enclose log2(x) = ln(x)/ln(2) for positive rational x."""
    ln_lo, ln_hi = ln_brackets_rational(x)
    l2_lo, l2_hi = _ln2()
    lo = ln_lo / l2_hi if ln_lo >= 0 else ln_lo / l2_lo
    hi = ln_hi / l2_lo if ln_hi >= 0 else ln_hi / l2_hi
    return lo, hi


@cache
def e_brackets() -> Bracket:
    """Enclose Euler's number by the factorial series with its tail bound,
    computed once on first use."""
    acc = Fraction(0)
    fact = 1
    for k in range(E_TERMS + 1):
        if k:
            fact *= k
        acc += Fraction(1, fact)
    tail = Fraction(2, fact * (E_TERMS + 1))
    return acc, acc + tail


@cache
def _root_chain() -> tuple[tuple[int, int], ...]:
    """Brackets (r_lo, r_hi) of 2^(1/2^j) for j = 1 .. POW2_BITS, as
    integer numerators over 2^(2 POW2_BITS + 8): each is the
    directed-rounded square root of the one before, an isqrt of r << work,
    rounded up for r_hi.  Computed once on first use."""
    work = 2 * POW2_BITS + 8
    r_lo = r_hi = 2 << work
    chain = []
    for _ in range(POW2_BITS):
        r_lo = isqrt(r_lo << work)
        t = r_hi << work
        r_hi = isqrt(t)
        if r_hi * r_hi < t:
            r_hi += 1
        chain.append((r_lo, r_hi))
    return tuple(chain)


def pow2_bound(num: int, den: int, *, upper: bool) -> Fraction:
    """One side of the bracket of 2**(num/den): the lower side, or the upper
    side when `upper` is set, for integers num and den >= 1 (the pair need
    not be in lowest terms).

    Works digit by digit on the binary expansion of the fractional part f/q
    (read in integers: double f, subtract q once it reaches q), multiplying
    in directed-rounded dyadic square roots of 2 (`_root_chain`).  The
    chain and the accumulated product are integer numerators over the
    fixed denominator 2^work, and a rounded product is (a * b) >> work,
    floor or ceiling.  A negative exponent is the reciprocal of the
    opposite side for -num/den.  One Fraction is built, for the returned
    value, so arbitrary exponent denominators stay cheap.
    """
    num, den = as_int(num), as_int(den)
    if den < 1:
        raise PreconditionError("need den >= 1")
    flip = num < 0
    if flip:
        num, upper = -num, not upper
    work = 2 * POW2_BITS + 8
    one = 1 << work
    k, f = divmod(num, den)
    acc = one  # numerator over 2^work
    if f:
        for r_lo, r_hi in _root_chain():
            f *= 2
            if f >= den:
                f -= den
                acc = -((-acc * r_hi) >> work) if upper else (acc * r_lo) >> work
            if f == 0:
                break
        if f and upper:
            # unresolved tail exponent is below 2^-POW2_BITS; absorb one more factor
            acc = -((-acc * r_hi) >> work)
    return Fraction(one, acc << k) if flip else Fraction(acc << k, one)


def pow2_brackets(exponent) -> Bracket:
    """Enclose 2**exponent for any rational exponent: both sides of
    `pow2_bound`."""
    e = as_rat(exponent)
    n, d = e.numerator, e.denominator
    return pow2_bound(n, d, upper=False), pow2_bound(n, d, upper=True)
