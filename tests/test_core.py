import gc
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import chi, fourier, inner_product
from monomial_tables import monomial_table
from ptfwitness.core import (
    Domain,
    FnTable,
    as_rat,
    box,
    eval_monomial,
    hypercube,
    least_poly_degree,
    lift_symmetric_to_cube,
    monomials,
    orth,
    weight_slice,
)
from ptfwitness.errors import PreconditionError
from ptfwitness.mixtures import ProductMixture

F = Fraction


def tensor(*tables):
    """f (x) g (x) ..., as one ProductMixture term expanded by densify."""
    factors = {str(i): t for i, t in enumerate(tables)}
    return ProductMixture(factors, [(F(1), tuple(factors))]).densify()


def char_table(n, S):
    dom = hypercube(n)
    return FnTable(dom, {p: F(chi(frozenset(S), p)) for p in dom.points()})


def test_as_rat_rejects_bool():
    with pytest.raises(PreconditionError, match="not an exact rational"):
        as_rat(True)


def test_domain_enumeration_lex():
    d = box([2, 1])
    assert list(d.points()) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert d.size() == 6


def test_weight_slice():
    d = weight_slice(box([3, 3]), 3, 3)
    pts = list(d.points())
    assert all(sum(p) == 3 for p in pts)
    assert len(pts) == d.size() == 4


def test_inner_product_characters():
    f = char_table(2, [0, 1])
    assert inner_product(f, f) == 4
    g = char_table(2, [1])
    assert inner_product(char_table(2, [0]), g) == 0


def test_inner_product_omega_fallback_vs_one():
    dom = box([3])
    omega = FnTable(dom, {(0,): F(1), (1,): F(-1)})
    one = FnTable(dom, {(t,): F(1) for t in range(4)})
    assert inner_product(omega, one) == 0


def test_inner_product_dim_mismatch():
    f = FnTable(box([1]), {(0,): F(1)})
    g = FnTable(box([1, 1]), {(0, 0): F(1)})
    with pytest.raises(PreconditionError):
        inner_product(f, g)


def test_orth_simple():
    f = FnTable(hypercube(1), {(0,): F(1), (1,): F(-1)})
    assert orth(f) == 1
    parity = char_table(2, [0, 1])
    assert orth(parity) == 2
    zero = FnTable(hypercube(2), {})
    assert orth(zero) is None


def test_orth_cap():
    parity = char_table(3, [0, 1, 2])
    assert orth(parity, cap=1) is None
    assert orth(parity, cap=3) == orth(parity) == 3
    for f in (parity, FnTable(hypercube(3), {})):
        with pytest.raises(PreconditionError):
            orth(f, cap=-1)


def test_tensor_orth_additivity_parity():
    f = FnTable(hypercube(1), {(0,): F(1), (1,): F(-1)})
    assert orth(tensor(f, f)) == 2
    zero = FnTable(hypercube(1), {})
    assert orth(tensor(f, zero)) is None


def test_fourier_characters_and_constant():
    f = char_table(2, [0])
    coeffs = fourier(f)
    assert coeffs[frozenset([0])] == 1
    assert all(v == 0 for S, v in coeffs.items() if S != frozenset([0]))
    one = FnTable(hypercube(2), {p: F(1) for p in hypercube(2).points()})
    c1 = fourier(one)
    assert c1[frozenset()] == 1


def test_fourier_and2_sign_table():
    # (-1)^{AND2}: enumeration over the four points fixes the coefficients
    dom = hypercube(2)
    f = FnTable(dom, {p: F(-1) if p == (1, 1) else F(1) for p in dom.points()})
    c = fourier(f)
    assert c[frozenset()] == F(1, 2)
    assert c[frozenset([0])] == F(1, 2)
    assert c[frozenset([1])] == F(1, 2)
    assert c[frozenset([0, 1])] == F(-1, 2)


def test_fourier_rejects_box():
    with pytest.raises(PreconditionError):
        fourier(FnTable(box([2]), {(2,): F(1)}))


def test_lift_of_or_dual_preserves_orth():
    from ptfwitness.dual_or import build_psi

    psi, cert = build_psi(4, 4, F(1, 3))
    lifted = lift_symmetric_to_cube(psi, ((0, 1, 2, 3),))
    assert lifted.l1() == psi.l1() == 1
    assert orth(lifted) == orth(psi) == cert.orth_value


def test_lift_symmetric_to_cube():
    phi = FnTable(box([3]), {(0,): F(1), (1,): F(-1)})
    lifted = lift_symmetric_to_cube(phi, ((0, 1, 2),))
    assert lifted((0, 0, 0)) == 1
    assert lifted((1, 0, 0)) == F(-1, 3)
    assert lifted.l1() == phi.l1()
    assert orth(lifted) == orth(phi)
    zero = FnTable(box([2]), {})
    assert lift_symmetric_to_cube(zero, ((0, 1),)).is_zero()


def pos_neg_parts(f: FnTable) -> tuple[FnTable, FnTable]:
    """Test-side reference: the positive and negative parts of a table."""
    pos = {p: v for p, v in f.entries.items() if v > 0}
    neg = {p: -v for p, v in f.entries.items() if v < 0}
    return FnTable(f.domain, pos), FnTable(f.domain, neg)


def test_pos_neg_parts():
    f = FnTable(box([2]), {(0,): F(1), (1,): F(-2)})
    pos, neg = pos_neg_parts(f)
    assert pos((0,)) == 1 and pos((1,)) == 0
    assert neg((1,)) == 2
    assert (pos - neg) == f
    g = FnTable(box([2]), {(0,): F(3)})
    p2, n2 = pos_neg_parts(g)
    assert n2.is_zero() and p2 == g


small_tables = st.builds(
    lambda vals: FnTable(
        box([1, 1]),
        {p: F(v) for p, v in zip([(0, 0), (0, 1), (1, 0), (1, 1)], vals)},
    ),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)


@given(small_tables, small_tables)
@settings(max_examples=60, deadline=None)
def test_inner_product_symmetric_bilinear(f, g):
    assert inner_product(f, g) == inner_product(g, f)
    assert inner_product(f + g, g) == inner_product(f, g) + inner_product(g, g)


@given(small_tables, small_tables)
@settings(max_examples=40, deadline=None)
def test_orth_tensor_additive(f, g):
    rf, rg, rt = orth(f), orth(g), orth(tensor(f, g))
    if rf is None or rg is None:
        assert rt is None
    else:
        assert rt == rf + rg


@given(small_tables, small_tables, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_orth_power_difference(f, g, n):
    d = orth(f - g)
    if f.is_zero() or g.is_zero():
        return
    # f^(x)n - g^(x)n as a two-term mixture
    diff = ProductMixture({"f": f, "g": g}, [(F(1), ("f",) * n), (F(-1), ("g",) * n)]).densify()
    if d is None:
        assert orth(diff) is None
    else:
        assert orth(diff) is None or orth(diff) >= d


def from_fourier(coeffs, n):
    """Test-side reference: the table with the given character coefficients."""
    dom = hypercube(n)
    out = {}
    for p in dom.points():
        acc = Fraction(0)
        for S, c in coeffs.items():
            if c:
                acc += c * chi(S, p)
        if acc != 0:
            out[p] = acc
    return FnTable(dom, out)


@given(small_tables)
@settings(max_examples=40, deadline=None)
def test_fourier_roundtrip(f):
    assert from_fourier(fourier(f), 2) == f


@given(small_tables)
@settings(max_examples=40, deadline=None)
def test_fourier_coefficient_bound(f):
    coeffs = fourier(f)
    bound = f.l1() / 4  # 2^-n at n = 2
    assert all(abs(c) <= bound for c in coeffs.values())


def test_monomial_caps():
    assert list(monomials((1, 1), 2)) == [(1, 1)]
    assert list(monomials((2,), 2)) == [(2,)]
    assert list(monomials((1,), 2)) == []


def recursive_monomials(bounds, degree):
    """Test-side reference: the earlier recursive enumeration."""
    n = len(bounds)

    def rec(i, rem):
        if i == n - 1:
            if rem <= bounds[i]:
                yield (rem,)
            return
        for a in range(0, min(rem, bounds[i]) + 1):
            for rest in rec(i + 1, rem - a):
                yield (a,) + rest

    yield from rec(0, degree)


def test_monomials_match_recursive_reference():
    rng = random.Random(296)
    for _ in range(500):
        bounds = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 6)))
        degree = rng.randint(0, sum(bounds) + 2)
        assert list(monomials(bounds, degree)) == list(recursive_monomials(bounds, degree))


def test_monomials_leave_no_garbage_cycles():
    gc.collect()
    gc.disable()
    try:
        for degree in range(10):
            for _ in monomials((2, 3, 1, 4), degree):
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_least_poly_degree_univariate():
    dom = box([3])
    f = FnTable(dom, {(t,): F(t * t) for t in range(4)})
    assert least_poly_degree(f) == 2


def test_least_poly_degree_rejects_weight_window():
    dom = weight_slice(hypercube(3), 1, 2)
    f = FnTable(dom, {p: F(1) for p in dom.points()})
    with pytest.raises(PreconditionError):
        least_poly_degree(f)


def test_orth_capped_exponents_match_uncapped():
    # the per-coordinate exponent caps rely on reduction modulo the box's
    # vanishing ideal; compare against a scan over unrestricted exponents
    import itertools
    import random

    from ptfwitness.core import Domain, eval_monomial

    rng = random.Random(42)
    for _ in range(80):
        n = rng.randint(1, 3)
        bounds = tuple(rng.randint(0, 2) for _ in range(n))
        offset = tuple(rng.randint(0, 2) for _ in range(n))
        dom = Domain(bounds, offset)
        entries = {}
        for p in dom.points():
            v = rng.randint(-3, 3)
            if v and rng.random() < 0.6:
                entries[p] = F(v)
        f = FnTable(dom, entries)
        if f.is_zero():
            continue
        cap = sum(bounds) + 2
        capped = orth(f, cap=cap)
        uncapped = None
        for d in range(cap + 1):
            for a in itertools.product(range(d + 1), repeat=n):
                if sum(a) != d:
                    continue
                if sum(v * eval_monomial(p, a) for p, v in f.entries.items()) != 0:
                    uncapped = d
                    break
            if uncapped is not None:
                break
        assert capped == uncapped


def _orth_reference(f, cap=None):
    """orth as it was before its integer rewrite: a Fraction sum per monomial,
    with the least degree found, or None, in place of its result object."""
    if f.is_zero():
        return None
    if cap is None:
        cap = f.domain.n * max(f.domain.bounds) if max(f.domain.bounds) else f.domain.n
    if cap < 0:
        raise PreconditionError("cap must be >= 0")
    items = list(f.entries.items())
    bounds = f.domain.bounds
    for d in range(cap + 1):
        for alpha in monomials(bounds, d):
            acc = Fraction(0)
            for p, v in items:
                acc += v * eval_monomial(p, alpha)
            if acc != 0:
                return d
    return None


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def box_tables(draw):
    """Random rational tables on small boxes.  Half of them are the
    alternating binomial kernel prod_i (-1)^k_i C(b_i, k_i), orthogonal to
    every polynomial of degree < sum(b), times a random polynomial of degree
    <= 1, so the scan often runs past the low degrees."""
    n = draw(st.integers(1, 3))
    bounds = tuple(draw(st.integers(0, 3)) for _ in range(n))
    offset = tuple(draw(st.integers(0, 2)) for _ in range(n))
    dom = Domain(bounds, offset)
    pts = list(dom.points())
    if draw(st.booleans()):
        return FnTable(dom, {p: draw(rationals) for p in pts if draw(st.booleans())})
    q = [draw(rationals) for _ in range(n + 1)]
    entries = {}
    for p in pts:
        kernel = 1
        for x, o, b in zip(p, offset, bounds):
            kernel *= (-1) ** (x - o) * comb(b, x - o)
        entries[p] = kernel * (q[0] + sum(c * x for c, x in zip(q[1:], p)))
    return FnTable(dom, entries)


@st.composite
def cube_tables(draw):
    """Random rational tables on hypercubes of up to 8 bits: either sparse
    random values, or parity times a random polynomial of degree <= 1,
    orthogonal to every polynomial of degree < n - 1."""
    n = draw(st.integers(1, 8))
    dom = hypercube(n)
    if draw(st.booleans()):
        return FnTable(dom, {p: draw(rationals) for p in dom.points()
                             if draw(st.integers(0, 3)) == 0})
    q = [draw(rationals) for _ in range(n + 1)]
    return FnTable(dom, {p: (-1) ** sum(p) * (q[0] + sum(c * x for c, x in zip(q[1:], p)))
                         for p in dom.points()})


@st.composite
def line_tables(draw):
    """Alternating tables on 1-D boxes of up to 65 points, like psi: either
    (-1)^t C(N, t) q(t) / den for a random positive q of degree <= 3, which
    is orthogonal to every polynomial of degree < N - deg q, or values of
    alternating sign and random magnitude on a random subset of points."""
    bound = draw(st.integers(1, 64))
    if draw(st.booleans()):
        q = [draw(st.integers(1, 9)) for _ in range(draw(st.integers(0, 3)) + 1)]
        den = draw(st.integers(1, 10**6))
        return FnTable(box([bound]), {
            (t,): F((-1) ** t * comb(bound, t) * sum(c * t ** k for k, c in enumerate(q)), den)
            for t in range(bound + 1)})
    support = sorted(draw(st.sets(st.integers(0, bound), min_size=1)))
    return FnTable(box([bound]), {(t,): (-1) ** i * F(draw(st.integers(1, 99)), draw(st.integers(1, 99)))
                                  for i, t in enumerate(support)})


@given(st.one_of(box_tables(), cube_tables(), line_tables()),
       st.one_of(st.none(), st.integers(0, 10), st.integers(0, 64)))
@settings(max_examples=300, deadline=None)
def test_orth_matches_fraction_reference(f, cap):
    assert orth(f, cap) == _orth_reference(f, cap)


def test_orth_moved_corrector_entry():
    # the n = 8 corrector is orthogonal through degree 2; moving one of its
    # values to a point outside its support breaks that at degree 1
    from ptfwitness.corrector import build_zeta_cube

    z, _ = build_zeta_cube(8, 2)
    assert orth(z, cap=2) is None and orth(z) == _orth_reference(z) == 3
    entries = dict(z.entries)
    p = (1, 1, 0, 0, 0, 0, 0, 0)
    entries[(1, 1, 1, 0, 0, 0, 0, 0)] = entries.pop(p)
    moved = FnTable(z.domain, entries)
    assert orth(moved, cap=2) == _orth_reference(moved, 2) == 1


def _monomial_table_reference(domain, points):
    """monomial_table as it was before rows were built from their parents:
    one eval_monomial per point per monomial."""
    alphas, table = [], []
    for d in range(sum(domain.bounds) + 1):
        for a in monomials(domain.bounds, d):
            alphas.append(a)
            table.append([eval_monomial(p, a) for p in points])
        yield alphas, table


def _assert_monomial_table_matches(domain, points):
    got = monomial_table(domain, points)
    want = _monomial_table_reference(domain, points)
    for (a1, t1), (a2, t2) in itertools.zip_longest(got, want, fillvalue=(None, None)):
        assert a1 == a2 and t1 == t2


def test_monomial_table_matches_reference_on_boxes():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 4)
        dom = Domain(tuple(rng.randint(0, 3) for _ in range(n)),
                     tuple(rng.randint(0, 3) for _ in range(n)))
        points = list(dom.points())
        rng.shuffle(points)
        _assert_monomial_table_matches(dom, points[:rng.randint(0, len(points))])


def test_monomial_table_matches_reference_on_cubes():
    for n in range(1, 9):
        dom = hypercube(n)
        _assert_monomial_table_matches(dom, list(dom.points()))
