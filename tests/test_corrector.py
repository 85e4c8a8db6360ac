from fractions import Fraction
from math import comb

import pytest

from ptfwitness.core import FnTable, orth
from ptfwitness.corrector import build_zeta_cube, build_zeta_u, build_zeta_uv
from ptfwitness.errors import PreconditionError

F = Fraction


def linf(z: FnTable) -> Fraction:
    """Test-side reference: the sup norm of a table."""
    return max((abs(v) for v in z.entries.values()), default=F(0))


def test_cube_n2_d0():
    z, cert = build_zeta_cube(2, 0)
    assert z((1, 1)) == 1 and z((0, 0)) == -1
    assert z((0, 1)) == 0 and z((1, 0)) == 0


def test_cube_n2_d1():
    z, cert = build_zeta_cube(2, 1)
    assert z((1, 1)) == 1
    assert z((0, 0)) == 1
    assert z((0, 1)) == z((1, 0)) == -1
    assert cert.l1 == 4 and cert.l1_bound == 5


def test_cube_n6_d2_l1_bound():
    z, cert = build_zeta_cube(6, 2)
    assert cert.l1 <= 1 + F(2 ** 2 * comb(6, 2)) == 61


def test_cube_symmetry_under_permutation():
    z, _ = build_zeta_cube(4, 2)
    for p, v in z.entries.items():
        assert v == z(tuple(sorted(p)))


def test_cube_rejects_d_ge_n():
    with pytest.raises(PreconditionError):
        build_zeta_cube(3, 3)


def test_zeta_u_simple_pushforwards():
    z, cert = build_zeta_u((2, 0), 0)
    assert z((2, 0)) == 1 and z((0, 0)) == -1
    assert len(z.entries) == 2

    z2, _ = build_zeta_u((1, 1), 1)
    cube, _ = build_zeta_cube(2, 1)
    assert {p: v for p, v in z2.entries.items()} == {p: v for p, v in cube.entries.items()}


def test_zeta_u_31():
    z, cert = build_zeta_u((3, 1), 1)
    assert cert.l1 <= 1 + 2 * comb(4, 1) == 9
    assert z((3, 1)) == 1
    for p in z.entries:
        assert p == (3, 1) or sum(p) <= 1
    assert orth(z, cap=1) is None


def test_zeta_u_linf_chain():
    # sup norm <= max(1, l1 - 1) <= 2^d C(|u|, d)
    for u, d in (((3, 1), 1), ((2, 2, 2), 2), ((5,), 2)):
        z, cert = build_zeta_u(u, d)
        assert linf(z) <= max(F(1), cert.l1 - 1) <= F(2 ** d * comb(sum(u), d))


def test_zeta_uv_reflection_identity_at_origin():
    direct, _ = build_zeta_u((2, 1), 1)
    via, _ = build_zeta_uv((2, 1), (0, 0), 1)
    assert {p: v for p, v in direct.entries.items()} == {p: v for p, v in via.entries.items()}


def test_zeta_uv_support_and_orth():
    u, v, d = (0, 0), (2, 0), 1
    z, cert = build_zeta_uv(u, v, d)
    assert z(u) == 1
    for p in z.entries:
        assert p == u or sum(abs(a - b) for a, b in zip(p, v)) <= d
    one = FnTable(z.domain, {p: F(1) for p in z.domain.points()})
    from exact_references import inner_product

    assert inner_product(z, one) == 0


def test_grid_properties():
    for n in range(2, 8):
        for d in range(0, min(3, n - 1) + 1):
            z, cert = build_zeta_cube(n, d)
            assert z((1,) * n) == 1
            for p in z.entries:
                assert sum(p) <= d or p == (1,) * n
            assert orth(z, cap=d) is None
            assert cert.l1 <= cert.l1_bound
            assert linf(z) <= max(F(1), cert.l1 - 1)
