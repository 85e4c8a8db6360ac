import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import check_concentration, inner_product, verify_cap_ball
from ptfwitness.brackets import one_plus_ln_brackets
from ptfwitness.core import (
    Domain,
    FnTable,
    box,
    orth,
    smoothness_constant,
    uniform,
)
from ptfwitness.errors import PreconditionError
from ptfwitness.mixtures import FamilySpec, ProductMixture
from ptfwitness.smooth_ops import (
    build_Zu,
    redistribute,
    select_heavy_set,
    weight_reduce,
    zero_out_heavy,
)

F = Fraction


def brute_force_heavy_sets(v, theta):
    """All subsets satisfying the three dominant-set inequalities, with the
    log factor on its adverse (upper-bracket) side."""
    n = len(v)
    _, log_hi = one_plus_ln_brackets(n)
    total = sum(abs(x) for x in v)
    vinf = max(abs(x) for x in v)
    good = []
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            if (len(S) * 2 * vinf >= total
                    and min(abs(v[i]) for i in S) * len(S) * 2 * log_hi >= theta
                    and sum(abs(v[i]) for i in range(n) if i not in S) < theta):
                good.append(frozenset(S))
    return good


def test_heavy_set_examples():
    hs = select_heavy_set([5, 1, 1, 1], 4)
    assert hs.indices in set(brute_force_heavy_sets([5, 1, 1, 1], 4))
    hs2 = select_heavy_set([4, 0, 0], 4)
    assert hs2.indices == frozenset([0])
    hs3 = select_heavy_set([2, 2, 2, 2], 4)
    assert sum(2 for i in range(4) if i not in hs3.indices) < 4


def test_heavy_set_rejects_small_vector():
    with pytest.raises(PreconditionError):
        select_heavy_set([1, 1], 3)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_heavy_set_matches_brute_force(v, theta):
    if sum(abs(x) for x in v) < theta:
        return
    hs = select_heavy_set(v, theta)
    assert hs.indices in set(brute_force_heavy_sets(v, theta))


def test_heavy_set_brute_force_n12():
    v = [9, 7, 7, 5, 4, 4, 3, 2, 2, 1, 1, 1]
    hs = select_heavy_set(v, 10)
    assert hs.indices in set(brute_force_heavy_sets(v, 10))
    # determinism: same vector, same set
    assert select_heavy_set(v, 10).indices == hs.indices


def test_concentration_point_mass():
    lam = FnTable(box([3]), {(0,): F(1)})
    rep = check_concentration([lam], C=F(1), alpha=F(1, 2), theta=60)
    assert rep.tail == 0 and rep.passed


def test_concentration_two_factor_exact_tail():
    lam = FnTable(box([2]), {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
    rep = check_concentration([lam, lam], C=F(2), alpha=F(1, 2), theta=3)
    # exact tail of the convolution: weight >= 3 has mass 2*(1/4*1/4) + ...
    assert rep.tail == F(1, 4) * F(1, 4) + 2 * F(1, 4) * F(1, 4)
    assert not rep.precondition_ok  # theta far below the concentration regime


def geometric_table(r, ratio=F(1, 2)):
    vals = [ratio ** t for t in range(r + 1)]
    tot = sum(vals)
    return FnTable(box([r]), {(t,): v / tot for t, v in enumerate(vals)})


def test_cap_ball_uniform():
    dom = Domain((2, 2))
    lam = uniform(dom)
    rep = verify_cap_ball(lam, theta=3, d=1, K=F(1))
    assert rep.smooth_ok and rep.cap_ok and rep.ball_ok


def test_cap_ball_theta_below_d():
    lam = uniform(Domain((2, 2)))
    with pytest.raises(PreconditionError):
        verify_cap_ball(lam, theta=0, d=1)


def test_cap_ball_negative_d():
    lam = uniform(Domain((2, 2)))
    with pytest.raises(PreconditionError):
        verify_cap_ball(lam, theta=3, d=-1)


def test_build_zu_univariate():
    lam = geometric_table(4)
    zu, cert = build_Zu(lam, (4,), d=1, theta=4)
    assert cert.at_u == 1
    assert cert.orth_ok
    assert cert.support_ok
    assert cert.outside_factor <= cert.outside_factor_bound
    assert zu.l1() <= cert.l1_bound
    one = FnTable(zu.domain, {p: F(1) for p in zu.domain.points()})
    assert inner_product(zu, one) == 0
    spikeless = zu - FnTable(zu.domain, {(4,): F(1)})
    assert inner_product(spikeless, one) == -1


def test_build_zu_2d():
    dom = Domain((2, 2))
    vals = {}
    for p in dom.points():
        vals[p] = F(2) ** (-sum(p))
    tot = sum(vals.values())
    lam = FnTable(dom, {p: v / tot for p, v in vals.items()})
    zu, cert = build_Zu(lam, (2, 2), d=1, theta=4)
    assert cert.at_u == 1 and cert.orth_ok and cert.support_ok


def test_zero_out_heavy_trivial():
    phi = geometric_table(3)
    out, cert = zero_out_heavy(phi, d=1, theta=5)
    assert cert.trivial and out == phi


def test_zero_out_heavy_real():
    # one heavy point above the cap on a univariate box
    base = geometric_table(6)
    out, cert = zero_out_heavy(base, d=1, theta=4)
    assert not cert.trivial
    assert all(sum(p) <= 4 for p in out.entries)
    assert orth(base - out, cap=1) is None
    assert cert.distance_factor <= cert.distance_factor_bound


def test_redistribute_uniform_target():
    phi = geometric_table(4)
    target = uniform(box([4]))
    out, cert = redistribute(phi, target, d=1, theta=4)
    assert cert.orth_ok and cert.l1_ok and cert.sign_ok
    assert cert.min_smooth_factor_actual >= cert.min_smooth_factor > 0
    for p in box([4]).points():
        assert abs(out(p)) >= cert.min_smooth_factor * target(p)


def test_redistribute_zero_function():
    phi = FnTable(box([4]), {})
    out, cert = redistribute(phi, uniform(box([4])), d=1, theta=4)
    assert out.is_zero()


def test_redistribute_own_abs_target():
    phi = geometric_table(4)
    target = FnTable(phi.domain, {p: abs(v) for p, v in phi.entries.items()})
    out, cert = redistribute(phi, target, d=1, theta=4)
    assert cert.sign_ok
    assert all(out(p) * phi(p) > 0 for p in box([4]).points())


def bounded_factor():
    # a member of bounded(2, 1/2, 0)
    return FnTable(box([2]), {(0,): F(1, 2), (1,): F(3, 10), (2,): F(1, 5)})


def test_weight_reduce_trivial_admissible():
    lam = bounded_factor()
    spec = FamilySpec(kind="bounded", r=2, c=F(1, 2), alpha=F(0))
    assert spec.member(lam)
    mix = ProductMixture({"lam": lam}, [(F(1), ("lam",) * 3)])
    reduced, zeta, cert = weight_reduce(mix, d=1, theta=274, family=spec)
    assert cert.preconditions_ok
    assert zeta.is_zero() and cert.heavy_points == 0
    assert reduced.is_distribution()
    assert cert.statistical_factor == 0 <= cert.statistical_bound_lower


def test_weight_reduce_forced_small_theta():
    lam = bounded_factor()
    spec = FamilySpec(kind="bounded", r=2, c=F(1, 2), alpha=F(0))
    mix = ProductMixture({"lam": lam}, [(F(1), ("lam",) * 3)])
    reduced, zeta, cert = weight_reduce(mix, d=1, theta=2, family=spec,
                                        enforce_preconditions=False)
    assert cert.heavy_points > 0
    assert not cert.preconditions_ok
    assert cert.support_ok and cert.orth_ok
    assert all(sum(p) < 4 for p in reduced.entries)
    dense = mix.densify()
    assert orth(dense - reduced, cap=1) is None


def test_weight_reduce_convex_translated_factors():
    from ptfwitness.smooth_ops import weight_reduce_convex

    # a factor whose support sits one step above the origin, so the convex
    # wrapper must shift it to base form before transferring weight
    shifted = FnTable(box([3]), {(1,): F(1, 2), (2,): F(3, 10), (3,): F(1, 5)})
    spec = FamilySpec(kind="bounded", r=2, c=F(1, 2), alpha=F(0), delta=1)
    assert spec.member(shifted)
    mix = ProductMixture({"s": shifted}, [(F(1), ("s", "s"))])
    reduced, cert = weight_reduce_convex(mix, d=1, theta=2, family=spec,
                                         enforce_preconditions=False)
    assert cert.heavy_points > 0
    assert all(sum(p) < 2 * 2 + 2 for p in reduced.entries)
    dense = mix.densify()
    assert orth(dense - reduced, cap=1) is None
    assert reduced.total() == 1


def test_smoothness_adjacent_equals_all_pairs_tiny():
    dom = Domain((2, 1))
    vals = {p: F(2) ** (-2 * sum(p)) for p in dom.points()}
    f = FnTable(dom, vals)
    k = smoothness_constant(f)
    worst = F(1)
    pts = list(dom.points())
    for i, p in enumerate(pts):
        for q in pts:
            dist = sum(abs(a - b) for a, b in zip(p, q))
            if dist:
                ratio = abs(f(p)) / abs(f(q))
                root = ratio if dist == 1 else None
                # all-pairs: |f(p)| <= k^dist |f(q)| must hold
                assert abs(f(p)) <= k ** dist * abs(f(q))
    assert k == F(4)
