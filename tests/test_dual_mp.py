from fractions import Fraction

import pytest

from exact_references import inner_product
from ptfwitness.circuits import mp_star_table, mp_table
from ptfwitness.core import FnTable, box, hypercube, orth, smoothness_constant
from ptfwitness.dual_mp import (
    build_mp_smooth_witness,
    build_mp_witness,
    build_or_gadget,
    build_rs_smooth,
)
from ptfwitness.errors import PreconditionError
from ptfwitness.oracles import twist

F = Fraction


def mp_cube_sign(m: int, r: int) -> FnTable:
    """(-1)^MP on ({0,1}^r)^m."""
    dom = hypercube(m * r)
    out = {}
    for p in dom.points():
        blocks = [p[i * r:(i + 1) * r] for i in range(m)]
        val = all(any(b) for b in blocks)
        out[p] = F(-1) if val else F(1)
    return FnTable(dom, out, _trusted=True)


def test_mp_sign_table_matches_cube_sign_reference():
    # the twist of the constant 1 is the sign table (-1)^MP
    for m in range(1, 13):
        for r in range(1, 12 // m + 1):
            dom = hypercube(m * r)
            one = FnTable(dom, dict.fromkeys(dom.points(), F(1)))
            got, want = twist(one, mp_table(m, r)), mp_cube_sign(m, r)
            assert got.domain == want.domain
            assert list(got.entries.items()) == list(want.entries.items())


def test_gadget_supports_and_identity():
    lam0, lam1, lam2, cert = build_or_gadget(4, 4, F(1, 2))
    assert set(lam0.entries) == {(0,)}
    assert set(lam1.entries) == set(lam2.entries) == {(t,) for t in range(1, 5)}
    one = FnTable(box([4]), {(t,): F(1) for t in range(5)})
    assert inner_product(lam0 - lam1, one) == 0
    assert inner_product(lam1 - lam2, one) == 0
    assert cert.d_gadget >= 1
    assert 0 <= cert.delta < F(1, 4)


def test_gadget_r9():
    lam0, lam1, lam2, cert = build_or_gadget(9, 9, F(1, 2))
    combo = lam0.scale(F(1, 2)) + lam2.scale(F(1, 2)) - lam1
    assert orth(combo) == cert.d_gadget


def test_gadget_R_bigger_than_r():
    lam0, lam1, lam2, cert = build_or_gadget(7, 3, F(1, 6))
    assert set(lam1.entries) == {(t,) for t in range(1, 8)}
    assert cert.membership_ok


def test_mp_witness_m1_degenerate():
    mix0, mix1, cert = build_mp_witness(1, 3)
    d0, d1 = mix0.densify(), mix1.densify()
    lam0, lam1, lam2, _ = build_or_gadget(3, 3, F(1, 2))
    assert d0 == lam0 and d1 == lam1


def test_mp_witness_2_4():
    mix0, mix1, cert = build_mp_witness(2, 4)
    assert cert.orth_value is not None
    assert cert.orth_value >= cert.orth_claimed >= min(2, cert.gadget.d_gadget)
    assert cert.supports_ok and cert.convex_ok
    d0 = mix0.densify()
    d1 = mix1.densify()
    mp = mp_star_table(2, 4)
    assert all(mp(p) == 0 for p in d0.entries)
    assert all(mp(p) == 1 for p in d1.entries)
    assert d0.is_distribution() and d1.is_distribution()
    one = FnTable(d0.domain, {p: F(1) for p in d0.domain.points()})
    assert inner_product(d1 - d0, one) == 0


def test_mp_smooth_witness_m1():
    lam_0, lam_1, cert = build_mp_smooth_witness(1, 1, 1)
    d0 = lam_0.densify()
    assert set(d0.entries) == {(0,)}
    assert d0((0,)) == 1


def test_mp_smooth_witness_2_4():
    lam_0, lam_1, cert = build_mp_smooth_witness(2, 4, 4)
    assert cert.supports_equal
    assert cert.orth_value >= cert.orth_claimed
    assert cert.k_actual <= cert.k_claimed <= 25 * cert.k_gadget * cert.m
    assert cert.sandwiches_ok and cert.convex_ok
    d0, d1 = lam_0.densify(), lam_1.densify()
    half = (d0 + d1).scale(F(1, 2))
    assert smoothness_constant(half) == cert.k_actual
    one = FnTable(d0.domain, {p: F(1) for p in d0.domain.points()})
    assert inner_product(d0 - d1, one) == 0


def test_mp_smooth_witness_padded_R():
    lam_0, lam_1, cert = build_mp_smooth_witness(2, 2, 3)
    assert cert.supports_equal
    mp = mp_star_table(2, 3)
    d0 = lam_0.densify()
    assert set(d0.entries) == {p for p in d0.domain.points() if mp(p) == 0}


def test_rs_smooth_m1_r2():
    lam, cert = build_rs_smooth(1, 2)
    assert cert.is_distribution and cert.floor_ok
    assert lam((0, 0)) >= F(1, 48)
    assert lam((0, 0)) == F(1, 2)  # exact evaluation of the construction
    assert all(v > 0 for v in lam.entries.values())


def test_rs_smooth_2_4():
    lam, cert = build_rs_smooth(2, 4)
    assert cert.is_distribution
    assert cert.floor == F(1, 4) * F(1, 12 * 16) ** 2
    assert cert.floor_ok
    assert cert.orth_value >= min(cert.d_psi, 2)
    assert orth(twist(lam, mp_table(2, 4)), cap=cert.orth_claimed - 1) is None


def test_rs_smooth_guard():
    with pytest.raises(PreconditionError):
        build_rs_smooth(4, 4)
