"""ptfwitness.dual_or.build_psi and ptfwitness.corrector.build_zeta_u
against the code they replaced.

The reference below is the earlier implementation, kept verbatim with an
`old_` prefix: build_psi with its Fraction accumulate loop over omega's
support and its Fraction c' loop, the certificate class with its Fraction
`envelope_holds` (the class keeps its name, since serialized certificates
record it), and build_zeta_u with its recursive Fraction accumulate (its
levels come from the library's corrector_levels, which
test_closed_forms_reference checks against the moment solve).  Every call
must serialize to the same bytes as the reference.

The reference envelope check compared |psi(t)| with the favourable side
of each bracket; the library's compares with the adverse side.  So on
certificates whose c' or one psi value was moved, the library's check may
only be the stricter of the two, and the mutation tests below check that
raising c', or pushing one |psi(t)| out of its envelope, fails it.
"""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ptfwitness import serialize
from ptfwitness.brackets import inv_sqrt_brackets, pow2_brackets
from ptfwitness.core import FnTable, as_rat, box, orth
from ptfwitness.corrector import CorrectorCertificate, build_zeta_u, corrector_levels
from ptfwitness.dual_or import (
    OmegaCertificate,
    build_omega,
    build_psi,
    default_delta,
    default_weights,
)
from ptfwitness.errors import ConstructionError, PreconditionError

F = Fraction

Point = tuple[int, ...]


# ---------------------------------------------------------------- reference


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
        adverse side of each stored bracket for B_t = 2^(c'' t / sqrt(n))."""
        if self.c_prime <= 0:
            return False
        for t, lo, hi in self.envelope_brackets:
            a = abs(self.psi_values[t])
            if a < self.c_prime / ((t + 1) ** 2 * hi):
                return False
            if a > 1 / (self.c_prime * (t + 1) ** 2 * lo):
                return False
        return True


def old_build_psi(n: int, N: int | None = None, eps=F(1, 3)) -> tuple[FnTable, PsiCertificate]:
    """A unit-l1 dual object for OR on {0..N} with strict sign pattern
    (-1)^t, mass more than (1-eps)/2 at zero, and certified orthogonality.

    The inner omega lives on {0..ceil(n/2)} so that shifted and reflected
    copies cover all of {0..N}, mixed in with `default_delta(eps)` and
    `default_weights(n, N)`; the envelope exponent c'' is 1.  Fails loudly
    when delta is too large to keep the mass at zero above the threshold.
    """
    eps = as_rat(eps)
    if N is None:
        N = n
    if not (N >= n >= 1):
        raise PreconditionError("need N >= n >= 1")
    if not (0 < eps < 1):
        raise PreconditionError("eps must lie strictly between 0 and 1")
    half = -(-n // 2)
    omega_t, omega_cert = build_omega(half, eps / 6)
    scale = 1 / omega_cert.l1
    om = {t: v * scale for (t,), v in omega_t.entries.items()}

    delta = default_delta(eps)
    weights = default_weights(n, N)

    # psi_raw(t) = omega(t) + sum_{1 <= i <= cut} c_i omega(t - i)
    #                        + sum_{cut < i <= N} c_i omega(i - t),
    # c_i = delta (-1)^i w_i, summed over omega's few support points u:
    # i = t - u in the first sum, i = t + u in the second.  At u = 0 both
    # are i = t, which lies in only one of the two ranges.
    cut = N - half
    c = [F(0)] + [delta * w if i % 2 == 0 else -delta * w
                  for i, w in enumerate(weights, start=1)]
    psi_raw: dict[int, Fraction] = {}
    for t in range(N + 1):
        acc = om.get(t, F(0))
        for u, v in om.items():
            if 1 <= t - u <= cut:
                acc += c[t - u] * v
            if cut < t + u <= N:
                acc += c[t + u] * v
        psi_raw[t] = acc

    total = sum(abs(v) for v in psi_raw.values())
    psi_vals = {t: v / total for t, v in psi_raw.items()}
    table = FnTable(box([N]), {(t,): v for t, v in psi_vals.items() if v})

    sign_ok = all(psi_vals[t] != 0 and (psi_vals[t] > 0) == (t % 2 == 0)
                  for t in range(N + 1))
    at_zero = psi_vals[0]
    if at_zero <= (1 - eps) / 2:
        raise ConstructionError(
            f"psi(0) = {at_zero} <= (1-eps)/2; delta {delta} too large, retry smaller")
    claimed = omega_cert.orth_claimed
    r = orth(table)
    if r is None or r < claimed:
        raise ConstructionError("psi lost the orthogonality of omega")

    # envelope constants, with per-t dyadic brackets for 2^(c'' t / sqrt(n)), c'' = 1
    inv_lo, inv_hi = inv_sqrt_brackets(n, 24)
    brackets: list[tuple[int, Fraction, Fraction]] = []
    c_prime: Fraction | None = None
    for t in range(N + 1):
        lo = pow2_brackets(t * inv_lo)[0]
        hi = pow2_brackets(t * inv_hi)[1]
        brackets.append((t, lo, hi))
        a = abs(psi_vals[t])
        cand = min(a * (t + 1) ** 2 * lo, 1 / (a * (t + 1) ** 2 * hi))
        c_prime = cand if c_prime is None else min(c_prime, cand)

    l1 = table.l1()
    cert = PsiCertificate(n=n, N=N, eps=eps, delta=delta, l1=l1,
                          at_zero=at_zero, sign_ok=sign_ok,
                          orth_claimed=claimed, orth_value=r,
                          c_prime=c_prime, c_double_prime=F(1),
                          envelope_brackets=brackets, omega_cert=omega_cert,
                          psi_values=psi_vals)
    if l1 != 1 or not sign_ok or not cert.envelope_holds():
        raise ConstructionError(f"psi failed its own certificate: {cert}")
    return table, cert


def old_build_zeta_u(u: Point, d: int) -> tuple[FnTable, CorrectorCertificate]:
    """Anchored corrector on the box below u: value 1 at u, support
    otherwise on {v <= u, |v| <= d}.  The value at v is the weight-level
    value times the number of cube points mapping onto v blockwise."""
    u = tuple(u)
    total = sum(u)
    if not (0 <= d < total):
        raise PreconditionError("need d < |u|")
    levels, det = corrector_levels(total, d)
    dom = box(u)
    entries: dict[Point, Fraction] = {u: F(1)}

    def rec(i: int, rem: int, prefix: Point):
        if i == len(u):
            w = sum(prefix)
            val = levels[w]
            if val:
                mult = 1
                for ui, vi in zip(u, prefix):
                    mult *= comb(ui, vi)
                entries[prefix] = entries.get(prefix, F(0)) + val * mult
            return
        for vi in range(0, min(u[i], rem) + 1):
            rec(i + 1, rem - vi, prefix + (vi,))

    rec(0, d, ())
    table = FnTable(dom, entries)
    l1 = table.l1()
    bound = 1 + F(2 ** d * comb(total, d))
    cert = CorrectorCertificate(n=len(u), d=d, levels=levels, l1=l1,
                                l1_bound=bound, determinant=det, anchor=u)
    if table(u) != 1:
        raise ConstructionError("anchored corrector lost its anchor value")
    if l1 > bound:
        raise ConstructionError("anchored corrector l1 exceeds its bound")
    if orth(table, cap=d) is not None:
        raise ConstructionError("anchored corrector failed orthogonality")
    return table, cert


# ---------------------------------------------------------------- comparisons


def _bytes(obj) -> str:
    return serialize.dumps(obj, indent=1)


EPS = (F(1, 2), F(1, 3), F(1, 4), F(1, 50))


@given(st.integers(1, 200), st.sampled_from(("n", "n+3", "2n")), st.sampled_from(EPS))
@settings(max_examples=40, deadline=None)
def test_psi_matches_reference_bytes(n, size, eps):
    N = {"n": n, "n+3": n + 3, "2n": 2 * n}[size]
    assert _bytes(build_psi(n, N, eps)) == _bytes(old_build_psi(n, N, eps))


@st.composite
def small_boxes(draw):
    u = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    if sum(u) == 0:
        u = u[:-1] + (1,)
    return u, draw(st.integers(0, sum(u) - 1))


@given(small_boxes())
@settings(max_examples=80, deadline=None)
def test_zeta_u_matches_reference_bytes(case):
    u, d = case
    assert _bytes(build_zeta_u(u, d)) == _bytes(old_build_zeta_u(u, d))


def _as_reference(cert):
    """The same certificate as an instance of the reference class."""
    return PsiCertificate(**{f.name: getattr(cert, f.name)
                             for f in dataclasses.fields(cert)})


NUDGES = (F(0), F(1, 10 ** 30), F(-1, 10 ** 30), F(1, 1000), F(-1, 1000), F(1, 2), F(-1, 2))


@given(st.integers(1, 60), st.sampled_from(EPS), st.data())
@settings(max_examples=60, deadline=None)
def test_envelope_check_is_at_least_as_strict_as_reference(n, eps, data):
    # reference: c'/((t+1)^2 hi) <= |psi(t)| <= 1/(c'(t+1)^2 lo); library:
    # the same with lo and hi swapped, which implies the reference's bounds
    _, cert = build_psi(n, n, eps)
    assert cert.envelope_holds() and _as_reference(cert).envelope_holds()
    t = data.draw(st.integers(0, n))
    psi = dict(cert.psi_values)
    psi[t] *= 1 + data.draw(st.sampled_from(NUDGES))
    moved = dataclasses.replace(cert, psi_values=psi,
                                c_prime=cert.c_prime * (1 + data.draw(st.sampled_from(NUDGES))))
    if moved.envelope_holds():
        assert _as_reference(moved).envelope_holds()


# ---------------------------------------------------------------- mutations


def _envelope(cert, t):
    """The two sides of t's envelope against the adverse side of its bracket."""
    _, lo, hi = cert.envelope_brackets[t]
    s = (t + 1) ** 2
    return cert.c_prime / (s * lo), 1 / (cert.c_prime * s * hi)


def _with_value(cert, t, magnitude):
    psi = dict(cert.psi_values)
    psi[t] = magnitude if t % 2 == 0 else -magnitude
    return dataclasses.replace(cert, psi_values=psi)


@pytest.mark.parametrize("n, eps", [(1, F(1, 3)), (12, F(1, 2)), (40, F(1, 4)), (150, F(1, 4))])
def test_raising_c_prime_fails_envelope(n, eps):
    # c' is the least of the per-t constants, so the t attaining it has no slack
    _, cert = build_psi(n, n, eps)
    assert cert.envelope_holds()
    raised = dataclasses.replace(cert, c_prime=cert.c_prime + F(1, 10 ** 40))
    assert not raised.envelope_holds()
    assert not dataclasses.replace(cert, c_prime=2 * cert.c_prime).envelope_holds()
    assert not _as_reference(dataclasses.replace(cert, c_prime=2 * cert.c_prime)).envelope_holds()


@pytest.mark.parametrize("n, eps", [(3, F(1, 3)), (12, F(1, 2)), (40, F(1, 50))])
def test_psi_value_outside_envelope_fails(n, eps):
    _, cert = build_psi(n, n, eps)
    for t in range(n + 1):
        low, high = _envelope(cert, t)
        assert low <= high
        assert _with_value(cert, t, low).envelope_holds()
        assert _with_value(cert, t, high).envelope_holds()
        assert not _with_value(cert, t, low * (1 - F(1, 10 ** 30))).envelope_holds()
        assert not _with_value(cert, t, high * (1 + F(1, 10 ** 30))).envelope_holds()
