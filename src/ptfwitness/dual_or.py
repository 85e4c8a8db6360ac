"""Univariate dual objects for the OR function.

`build_omega` produces a function on {0..n} that alternates in sign,
concentrates more than (1-eps)/2 of its l1 mass at 0, and is orthogonal
to all low-degree polynomials.  `build_psi` spreads shifted and reflected
copies of omega over {0..N} to obtain a unit-l1 dual object that is
nonzero with sign (-1)^t at every point and keeps the orthogonality.

The shift weights and the mixing constant delta are exact positive
rationals.  Orthogonality, the sign pattern, and the mass at zero hold
for any such choice; the envelope constants are computed from the result
rather than assumed.

psi is computed in integers: the shift weights and omega's values are
each cleared once to numerators over one denominator, every unnormalized
psi(t) is an integer over their product, and the sign pattern, the l1
total and the envelope constant c' are read from those integers by exact
integer comparisons and cross-multiplication.  Each envelope bracket is
two one-sided `pow2_bound` calls whose exponents t/sqrt(n) are passed as
integer numerators over the denominator of the 1/sqrt(n) bracket.  A
Fraction is built only for each returned value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .brackets import inv_sqrt_brackets, pow2_bound
from .core import FnTable, as_int, as_rat, box, cleared, orth
from .errors import ConstructionError, PreconditionError

F = Fraction


@dataclass(frozen=True)
class OmegaSpec:
    n: int
    eps: Fraction
    delta_param: int  # the odd modulus used for the support layout
    d: int
    support: tuple[int, ...] | None  # None in the fallback regime

    @property
    def fallback(self) -> bool:
        return self.support is None


@dataclass
class OmegaCertificate:
    spec: OmegaSpec
    l1: Fraction
    at_zero: Fraction
    heavy_at_zero: bool  # omega(0) > (1-eps)/2 * l1
    sign_ok: bool
    orth_claimed: int
    orth_value: int


def _omega_spec(n: int, eps: Fraction) -> OmegaSpec:
    n, eps = as_int(n), as_rat(eps)
    if n < 1:
        raise PreconditionError("need n >= 1")
    if not (0 < eps < 1):
        raise PreconditionError("eps must lie strictly between 0 and 1")
    inv = 1 / eps
    ceil_inv = -(-inv.numerator // inv.denominator)
    big_delta = 8 * ceil_inv + 3
    if n <= big_delta:
        return OmegaSpec(n=n, eps=eps, delta_param=big_delta, d=0, support=None)
    d = 1
    while (d + 1) * (d + 1) * big_delta <= n:
        d += 1
    pts = sorted({1, (big_delta + 1) // 2} | {i * i * big_delta for i in range(d + 1)})
    return OmegaSpec(n=n, eps=eps, delta_param=big_delta, d=d, support=tuple(pts))


def omega_values(spec: OmegaSpec) -> dict[int, Fraction]:
    if spec.fallback:
        return {0: F(1), 1: F(-1)}
    S = spec.support
    out: dict[int, Fraction] = {}
    for t in S:
        below = sum(1 for i in S if i < t)
        prod = F(1)
        for i in S:
            if i != t:
                prod *= abs(t - i)
        out[t] = F((-1) ** below) / prod
    return out


def build_omega(n: int, eps) -> tuple[FnTable, OmegaCertificate]:
    spec = _omega_spec(n, eps)
    vals = omega_values(spec)
    table = FnTable(box([n]), {(t,): v for t, v in vals.items()})
    l1 = table.l1()
    at_zero = table((0,))
    heavy = at_zero > (1 - spec.eps) / 2 * l1
    sign_ok = all((v > 0) == (t % 2 == 0) for (t,), v in table.entries.items())
    claimed = 1 if spec.fallback else spec.d + 2
    r = orth(table)
    if r is None:
        raise ConstructionError("omega unexpectedly orthogonal to everything")
    cert = OmegaCertificate(spec=spec, l1=l1, at_zero=at_zero, heavy_at_zero=heavy,
                            sign_ok=sign_ok, orth_claimed=claimed, orth_value=r)
    if not heavy or not sign_ok or r < claimed:
        raise ConstructionError(f"omega failed its own certificate: {cert}")
    return table, cert


def default_delta(eps: Fraction) -> Fraction:
    """A rational stand-in just below 5 eps / (pi^2 (1 - eps))."""
    eps = as_rat(eps)
    return eps / (2 * (1 - eps))


def default_weights(n: int, N: int) -> list[Fraction]:
    """Positive shift weights decaying like 1/(i^2 2^(i/sqrt(n)))."""
    n, N = as_int(n), as_int(N)
    if n < 1:
        raise PreconditionError("need n >= 1")
    s = isqrt(n)
    if s * s < n:
        s += 1
    return [F(1, i * i * 2 ** (-(-i // s))) for i in range(1, N + 1)]


@dataclass
class PsiCertificate:
    n: int
    N: int
    eps: Fraction
    delta: Fraction
    l1: Fraction
    at_zero: Fraction
    sign_ok: bool
    orth_claimed: int
    orth_value: int
    c_prime: Fraction
    c_double_prime: Fraction
    envelope_brackets: list[tuple[int, Fraction, Fraction]]
    omega_cert: OmegaCertificate
    psi_values: dict[int, Fraction] | None = None

    def envelope_holds(self) -> bool:
        """c'/((t+1)^2 B_t) <= |psi(t)| <= 1/(c'(t+1)^2 B_t) against the
        adverse side of each stored bracket lo <= B_t <= hi for
        B_t = 2^(c'' t / sqrt(n)): |psi(t)| >= c'/((t+1)^2 lo) and
        |psi(t)| <= 1/(c'(t+1)^2 hi), both cross-multiplied out in the
        stored numerators and (positive) denominators."""
        cn, cd = self.c_prime.numerator, self.c_prime.denominator
        if cn <= 0:
            return False
        for t, lo, hi in self.envelope_brackets:
            a = self.psi_values[t]
            an, ad, s = abs(a.numerator), a.denominator, (t + 1) ** 2
            if an * cd * s * lo.numerator < cn * lo.denominator * ad:
                return False
            if an * cn * s * hi.numerator > cd * hi.denominator * ad:
                return False
        return True


def build_psi(n: int, N: int | None = None, eps=F(1, 3)) -> tuple[FnTable, PsiCertificate]:
    """A unit-l1 dual object for OR on {0..N} with strict sign pattern
    (-1)^t, mass more than (1-eps)/2 at zero, and certified orthogonality.

    The inner omega lives on {0..ceil(n/2)} so that shifted and reflected
    copies cover all of {0..N}, mixed in with `default_delta(eps)` and
    `default_weights(n, N)`; the envelope exponent c'' is 1.  Fails loudly
    when delta is too large to keep the mass at zero above the threshold.
    """
    n, eps = as_int(n), as_rat(eps)
    N = n if N is None else as_int(N)
    if not (N >= n >= 1):
        raise PreconditionError("need N >= n >= 1")
    if not (0 < eps < 1):
        raise PreconditionError("eps must lie strictly between 0 and 1")
    half = -(-n // 2)
    omega_t, omega_cert = build_omega(half, eps / 6)
    delta = default_delta(eps)
    wnums, wden = cleared(default_weights(n, N))
    onums, _ = cleared(list(omega_t.entries.values()))
    om = dict(zip([t for (t,) in omega_t.entries], onums))

    # psi_raw(t) = omega(t) + sum_{1 <= i <= cut} c_i omega(t - i)
    #                        + sum_{cut < i <= N} c_i omega(i - t),
    # c_i = delta (-1)^i w_i, summed over omega's few support points u:
    # i = t - u in the first sum, i = t + u in the second.  At u = 0 both
    # are i = t, which lies in only one of the two ranges.
    # In integers: omega(u) = onums(u) / oden, w_i = wnums[i - 1] / wden and
    # delta = p / q, so raw[t] = q wden oden psi_raw(t)
    #                          = q wden onums(t) + p sum (-1)^i wnums[i - 1] onums(u).
    cut = N - half
    c = [0] + [w if i % 2 == 0 else -w for i, w in enumerate(wnums, start=1)]
    scale = delta.denominator * wden
    raw = []
    for t in range(N + 1):
        acc = 0
        for u, v in om.items():
            if 1 <= t - u <= cut:
                acc += c[t - u] * v
            if cut < t + u <= N:
                acc += c[t + u] * v
        raw.append(scale * om.get(t, 0) + delta.numerator * acc)

    total = sum(map(abs, raw))
    psi_vals = {t: F(v, total) for t, v in enumerate(raw)}
    table = FnTable(box([N]), {(t,): v for t, v in psi_vals.items() if v})

    sign_ok = all(v != 0 and (v > 0) == (t % 2 == 0) for t, v in enumerate(raw))
    at_zero = psi_vals[0]
    if at_zero <= (1 - eps) / 2:
        raise ConstructionError(
            f"psi(0) = {at_zero} <= (1-eps)/2; delta {delta} too large, retry smaller")
    claimed = omega_cert.orth_claimed
    r = orth(table)
    if r is None or r < claimed:
        raise ConstructionError("psi lost the orthogonality of omega")

    # envelope constants, with per-t dyadic brackets for 2^(c'' t / sqrt(n)), c'' = 1:
    # lo is the lower side of 2^(t inv_lo) and hi the upper side of 2^(t inv_hi),
    # each exponent passed as an integer numerator over inv_*'s denominator;
    # c' = min_t min(a s lo, 1 / (a s hi)) for a = |raw[t]| / total, s = (t+1)^2,
    # kept as the integer pair (cn, cd) and compared by cross-multiplication
    inv_lo, inv_hi = inv_sqrt_brackets(n, 24)
    brackets: list[tuple[int, Fraction, Fraction]] = []
    cn, cd = 1, 0  # +infinity
    for t, v in enumerate(raw):
        lo = pow2_bound(t * inv_lo.numerator, inv_lo.denominator, upper=False)
        hi = pow2_bound(t * inv_hi.numerator, inv_hi.denominator, upper=True)
        brackets.append((t, lo, hi))
        a, s = abs(v), (t + 1) ** 2
        for xn, xd in ((a * s * lo.numerator, total * lo.denominator),
                       (total * hi.denominator, a * s * hi.numerator)):
            if xn * cd < cn * xd:
                cn, cd = xn, xd
    c_prime = F(cn, cd)

    pnums, pden = cleared(list(psi_vals.values()))
    l1 = F(sum(map(abs, pnums)), pden)
    cert = PsiCertificate(n=n, N=N, eps=eps, delta=delta, l1=l1,
                          at_zero=at_zero, sign_ok=sign_ok,
                          orth_claimed=claimed, orth_value=r,
                          c_prime=c_prime, c_double_prime=F(1),
                          envelope_brackets=brackets, omega_cert=omega_cert,
                          psi_values=psi_vals)
    if l1 != 1 or not sign_ok or not cert.envelope_holds():
        raise ConstructionError(f"psi failed its own certificate: {cert}")
    return table, cert

