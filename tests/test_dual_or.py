from fractions import Fraction
from math import comb

import pytest

from exact_references import inner_product
from ptfwitness import dual_or
from ptfwitness.core import FnTable, box
from ptfwitness.dual_or import (
    _omega_spec,
    build_omega,
    build_psi,
    default_delta,
    default_weights,
    omega_values,
)
from ptfwitness.errors import ConstructionError

F = Fraction


def test_omega_fallback_small_n():
    table, cert = build_omega(3, F(1, 2))
    assert cert.spec.fallback
    assert table((0,)) == 1 and table((1,)) == -1 and table((2,)) == 0
    assert cert.at_zero / cert.l1 == F(1, 2)
    assert cert.orth_value >= 1


def test_omega_n20_layout():
    table, cert = build_omega(20, F(1, 2))
    spec = cert.spec
    assert spec.delta_param == 19 and spec.d == 1
    assert spec.support == (0, 1, 10, 19)
    assert cert.orth_value >= 3
    one = FnTable(box([20]), {(t,): F(1) for t in range(21)})
    assert inner_product(table, one) == 0


def omega_binomial_form(spec):
    """Test-side reference: the equivalent binomial-weighted product formula
    for omega_values above the fallback regime."""
    n, S = spec.n, set(spec.support)
    out = {}
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    for t in range(n + 1):
        if t not in S:
            continue
        prod = 1
        for i in range(n + 1):
            if i not in S:
                prod *= t - i
        val = F((-1) ** (n + t + len(S) + 1) * comb(n, t) * prod, fact)
        if val:
            out[t] = val
    return out


def test_omega_closed_form_matches_binomial_formula():
    for n, eps in ((20, F(1, 2)), (30, F(1, 2)), (60, F(2, 3))):
        spec = _omega_spec(n, eps)
        assert not spec.fallback
        assert omega_values(spec) == omega_binomial_form(spec)


def test_omega_orthogonal_to_constants_generally():
    for n, eps in ((1, F(1, 3)), (5, F(1, 2)), (40, F(1, 2))):
        table, cert = build_omega(n, eps)
        one = FnTable(box([n]), {(t,): F(1) for t in range(n + 1)})
        assert inner_product(table, one) == 0


def test_psi_small_exact_properties():
    psi, cert = build_psi(4, 4, F(1, 3))
    assert cert.l1 == 1
    signs = [psi((t,)) for t in range(5)]
    assert all(v != 0 for v in signs)
    assert [v > 0 for v in signs] == [True, False, True, False, True]
    assert cert.at_zero > F(1, 3)
    assert cert.orth_value >= cert.orth_claimed >= 1


def test_psi_16():
    psi, cert = build_psi(16, 16, F(1, 3))
    assert cert.at_zero > F(1, 3)
    assert psi.l1() == 1
    one = FnTable(box([16]), {(t,): F(1) for t in range(17)})
    assert inner_product(psi, one) == 0


def test_psi_pos_neg_split_by_parity():
    psi, _ = build_psi(8, 8, F(1, 3))
    pos = {p: v for p, v in psi.entries.items() if v > 0}
    neg = {p: -v for p, v in psi.entries.items() if v < 0}
    assert all(t % 2 == 0 for (t,) in pos)
    assert all(t % 2 == 1 for (t,) in neg)
    assert sum(pos.values()) == sum(neg.values()) == F(1, 2)


def test_psi_padded_domain():
    psi, cert = build_psi(4, 9, F(1, 3))
    assert psi.domain.bounds == (9,)
    assert all(psi((t,)) != 0 for t in range(10))
    assert cert.envelope_holds()


def test_psi_delta_too_large_fails(monkeypatch):
    monkeypatch.setattr(dual_or, "default_delta", lambda eps: F(50))
    with pytest.raises(ConstructionError, match="delta 50 too large"):
        build_psi(4, 4, F(1, 3))


def test_psi_tiny_eps_for_heavy_zero():
    psi, cert = build_psi(4, 4, F(1, 50))
    assert cert.at_zero > F(49, 100)


def test_psi_envelope_constant_positive():
    _, cert = build_psi(8, 8, F(1, 3))
    assert cert.c_prime > 0
    assert cert.envelope_holds()


def test_psi_inner_sparse_regime():
    # at n = 296 the inner object leaves its fallback regime: the sparse
    # product-formula layout kicks in and the verified orthogonality rises
    spec = _omega_spec(148, F(1, 18))
    assert not spec.fallback and spec.support == (0, 1, 74, 147)
    psi, cert = build_psi(296, 296, F(1, 3))
    assert cert.orth_claimed == 3
    assert cert.orth_value >= 3
    assert cert.at_zero > F(1, 3)
    assert psi.l1() == 1


def _psi_reference(n, N, eps):
    """psi as build_psi computed it before summing over omega's support:
    every shift i = 1..N looked up for every t."""
    half = -(-n // 2)
    omega_t, omega_cert = build_omega(half, eps / 6)
    scale = 1 / omega_cert.l1
    om = {t: v * scale for (t,), v in omega_t.entries.items()}
    delta = default_delta(eps)
    weights = default_weights(n, N)

    def om_at(t: int) -> Fraction:
        return om.get(t, F(0))

    cut = N - half
    psi_raw = {}
    for t in range(N + 1):
        acc = om_at(t)
        for i in range(1, cut + 1):
            v = om_at(t - i)
            if v:
                acc += delta * (-1) ** i * weights[i - 1] * v
        for i in range(cut + 1, N + 1):
            v = om_at(i - t)
            if v:
                acc += delta * (-1) ** i * weights[i - 1] * v
        psi_raw[t] = acc
    total = sum(abs(v) for v in psi_raw.values())
    return {t: v / total for t, v in psi_raw.items()}


def test_psi_matches_quadratic_reference():
    eps = F(1, 3)
    for n in range(1, 41):
        for N in sorted({n, n + 3, 2 * n}):
            _, cert = build_psi(n, N, eps)
            assert cert.psi_values == _psi_reference(n, N, eps), (n, N)
