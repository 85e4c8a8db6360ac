import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import chi, evaluate
from ptfwitness.amplification import (
    CompressionMap,
    amplify_circuit_once,
    booleanize,
    build_G,
    build_g,
    compose_table,
    min_smooth_amplify,
    z_degree_of_expectations,
)
from ptfwitness.circuits import literal, mp, parity2_circuit
from ptfwitness.core import FnTable, box, hypercube, least_poly_degree, orth, uniform, weight_slice
from ptfwitness.dual_mp import build_mp_witness
from ptfwitness.errors import PreconditionError
from ptfwitness.oracles import bool_table, eval_poly, smooth_threshold_degree, twist

F = Fraction

Point = tuple[int, ...]


def test_build_g_n1_layout():
    g, cert = build_g(1)
    assert g.width == 6 and g.k == 1
    assert g.rows == ((0, 1),)
    # labels come from the parity of the first two bits
    assert g.label((1, 1, 0, 0, 0, 0)) == 0
    assert g.label((1, 0, 0, 0, 0, 0)) == 1
    assert cert.surjective and cert.moments_ok


def test_build_g_n2_n3():
    for n in (2, 3):
        g, cert = build_g(n)
        assert g.width == 12 and cert.moments_ok and cert.surjective


def test_build_G_theta2_surjective():
    G, cert = build_G(1, 2)
    sizes = G.preimage_sizes()
    assert set(sizes) == {(0,), (1,), (2,)}
    assert sum(sizes.values()) == 2 ** 12
    assert all(c > 0 for c in sizes.values())
    # the convolution agrees with direct enumeration of all 2^12 inputs
    direct = {}
    for p in hypercube(12).points():
        v = G.evaluate(p)
        direct[v] = direct.get(v, 0) + 1
    assert direct == sizes


def test_build_G_theta1_is_g():
    G, _ = build_G(2, 1)
    g, _ = build_g(2)
    for p in hypercube(6 * g.k).points():
        lab = g.label(p)
        vec = tuple(1 if i + 1 == lab else 0 for i in range(2))
        assert G.evaluate(p) == vec
        break  # spot check one point; full agreement is structural


def random_poly(rng, width, degree, terms=6):
    coeffs = {}
    for _ in range(terms):
        alpha = [0] * width
        for _ in range(degree):
            alpha[rng.randrange(width)] += 1
        coeffs[tuple(alpha)] = F(rng.randint(-3, 3))
    return {a: c for a, c in coeffs.items() if c}


def test_G_degree_division_n1_theta2():
    G, _ = build_G(1, 2)
    rng = random.Random(7)
    dom = hypercube(12)
    pts_by_v = {}
    for p in dom.points():
        pts_by_v.setdefault(G.evaluate(p), []).append(p)
    for trial in range(4):
        poly = random_poly(rng, 12, degree=1)
        values = {}
        for v, pts in pts_by_v.items():
            s = sum(eval_poly(poly, p) for p in pts)
            values[v] = s / len(pts)
        table = FnTable(box([2]), {v: val for v, val in values.items() if val})
        # degree-1 polynomials average to a constant across the fibers
        assert least_poly_degree(table) == 0


def test_booleanize_trivial_weight_cut():
    wit = build_mp_witness(2, 2)
    tables = {}
    for z in hypercube(2).points():
        t, cert = booleanize(z, 2, 2, d=1, theta=6, enforce_preconditions=False,
                             witnesses=wit)
        assert cert.support_ok and cert.is_distribution
        tables[z] = t
    rng = random.Random(3)
    for _ in range(3):
        poly = random_poly(rng, 4, degree=1)
        assert z_degree_of_expectations(tables, poly) <= 1


def test_booleanize_preconditions_reject():
    with pytest.raises(PreconditionError):
        booleanize((0, 1), 2, 2, d=1, theta=4)


# multilinear_coeffs as it was before z_degree_of_expectations went through
# least_poly_degree, and build_g's moment loop before it went through orth


def multilinear_coeffs(values: dict[Point, Fraction]) -> dict[frozenset[int], Fraction]:
    """Exact multilinear interpolation over the hypercube by inclusion
    and exclusion over subcubes."""
    if not values:
        raise PreconditionError("no values to interpolate")
    n = len(next(iter(values)))
    coeffs: dict[frozenset[int], Fraction] = {}
    for S in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)):
        S = frozenset(S)
        acc = F(0)
        for T in itertools.chain.from_iterable(
                itertools.combinations(sorted(S), k) for k in range(len(S) + 1)):
            T = frozenset(T)
            point = tuple(1 if i in T else 0 for i in range(n))
            acc += (-1) ** (len(S) - len(T)) * values[point]
        if acc:
            coeffs[S] = acc
    return coeffs


def chi_moments_ok(label, n, k, width):
    """Every character of degree 1..k has equal averages over the preimages
    of the labels 0..n under `label`."""
    moments_ok = True
    dom = hypercube(width)
    counts: dict[int, int] = {}
    subsets = [frozenset(c) for size in range(1, k + 1)
               for c in itertools.combinations(range(width), size)]
    per_label = {lab: [F(0)] * len(subsets) for lab in range(n + 1)}
    for p in dom.points():
        lab = label(p)
        counts[lab] = counts.get(lab, 0) + 1
        row = per_label[lab]
        for idx, S in enumerate(subsets):
            row[idx] += chi(S, p)
    for idx in range(len(subsets)):
        avgs = {per_label[lab][idx] / counts[lab] for lab in range(n + 1)}
        if len(avgs) != 1:
            moments_ok = False
    return moments_ok


def orth_moments_ok(label, n, k, width):
    """build_g's route: u_lab - u_0 orthogonal to every monomial of degree
    <= k, u_lab uniform on the preimage of lab."""
    dom = hypercube(width)
    preimages = {}
    for p in dom.points():
        preimages.setdefault(label(p), []).append(p)
    u = {lab: FnTable(dom, dict.fromkeys(pts, F(1, len(pts)))) for lab, pts in preimages.items()}
    return all(orth(u[lab] - u[0], cap=k) is None for lab in range(1, n + 1))


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-4, 4), min_size=2 ** n, max_size=2 ** n)),
    st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_z_degree_matches_multilinear_reference(coeffs, d):
    # coeffs[mask] is the coefficient of prod_{i in mask} z_i, kept for
    # |mask| <= d; a point mass of weight v_z per z, against the constant
    # polynomial, has expectation v_z, so the z-degree is the interpolant's
    n = (len(coeffs) - 1).bit_length()
    values = {}
    for z in hypercube(n).points():
        zmask = sum(b << i for i, b in enumerate(z))
        values[z] = F(sum(c for mask, c in enumerate(coeffs)
                          if mask & zmask == mask and bin(mask).count("1") <= d))
    tables = {z: FnTable(box([1]), {(0,): v}) for z, v in values.items()}
    old = max((len(S) for S in multilinear_coeffs(values)), default=0)
    assert z_degree_of_expectations(tables, {(0,): F(1)}) == old <= d


def test_build_g_moments_match_chi_reference():
    for n in (1, 2, 3):
        g, cert = build_g(n)
        assert cert.moments_exhaustive
        assert cert.moments_ok and chi_moments_ok(g.label, n, g.k, g.width)
        assert orth_moments_ok(g.label, n, g.k, g.width)
        # move one point of label 1's preimage to label 0
        moved = next(p for p in hypercube(g.width).points() if g.label(p) == 1)

        def label(p, moved=moved):
            return 0 if p == moved else g.label(p)

        assert not orth_moments_ok(label, n, g.k, g.width)


def test_multilinear_coeffs_parity():
    values = {p: F(chi(frozenset([0, 1]), p)) for p in hypercube(2).points()}
    coeffs = multilinear_coeffs(values)
    # (-1)^(x0+x1) = 1 - 2x0 - 2x1 + 4x0x1
    assert coeffs[frozenset()] == 1
    assert coeffs[frozenset([0])] == -2
    assert coeffs[frozenset([0, 1])] == 4


def test_compose_table_mp_star_identity_m1():
    f = bool_table(hypercube(1), [(1,)])
    table = compose_table(f, 1, 1, theta=1)
    assert table.domain.bounds == (1,)
    assert table((1,)) == 1 and table((0,)) == 0


def test_compose_table_mp_star_and2():
    f = bool_table(hypercube(2), [(1, 1)])
    table = compose_table(f, 1, 1, theta=2)
    assert table((1, 1)) == 1
    assert table((1, 0)) == 0
    assert table.domain.size() == 4


def test_compose_table_rejects_non_hypercube_outer_function():
    with pytest.raises(PreconditionError, match="hypercube"):
        compose_table(bool_table(box([2]), [(1,)]), 1, 2, 2)


def test_empty_inputs_raise_precondition_errors():
    with pytest.raises(PreconditionError):
        z_degree_of_expectations({}, {(0,): F(1)})
    one = FnTable(box([1]), {(0,): F(1)})
    with pytest.raises(PreconditionError):
        z_degree_of_expectations({(0, 0): one, (1, 1): one}, {(0,): F(1)})
    with pytest.raises(PreconditionError, match="z is empty"):
        booleanize((), 1, 1, d=1, theta=2, enforce_preconditions=False)


def test_surjectivity_domain_count():
    # weight-n slice of a box has a stars-and-bars point count
    from math import comb

    dom = weight_slice(box([4] * 2), 4, 4)
    assert dom.size() == comb(4 + 2 - 1, 2 - 1)


def test_min_smooth_amplify_smallest():
    f = bool_table(hypercube(1), [(1,)])
    mu = uniform(hypercube(1))
    lam, cert = min_smooth_amplify(f, mu, m=1, r=1, R=4, theta=5, gamma=F(1), d=1)
    assert cert.d_f == 1 and cert.d_mp >= 1
    assert cert.orth_verified >= cert.d
    assert cert.min_smooth_factor > 0
    assert lam.is_distribution()
    table = compose_table(f, 1, 4, theta=5)
    assert orth(twist(lam, table), cap=cert.orth_verified - 1) is None
    ans = smooth_threshold_degree(table, cert.min_smooth_factor)
    assert ans.value >= cert.d


def test_min_smooth_amplify_with_live_tail_stage():
    # R exceeds theta, so the support-restriction stage genuinely moves
    # mass below the cap before the redistribution runs
    f = bool_table(hypercube(1), [(1,)])
    mu = uniform(hypercube(1))
    lam, cert = min_smooth_amplify(f, mu, m=1, r=1, R=7, theta=6, gamma=F(1), d=1)
    assert lam.is_distribution()
    assert max(sum(p) for p in lam.entries) <= 6
    table = compose_table(f, 1, 7, theta=6)
    assert orth(twist(lam, table), cap=cert.orth_verified - 1) is None
    lp = smooth_threshold_degree(table, cert.min_smooth_factor)
    assert lp.value >= cert.d


def test_min_smooth_amplify_gamma_zero():
    f = bool_table(hypercube(1), [(1,)])
    mu = uniform(hypercube(1))
    lam, cert = min_smooth_amplify(f, mu, m=1, r=1, R=4, theta=5, gamma=F(0), d=1)
    assert lam.is_distribution()
    assert cert.orth_verified >= 1


def test_amplify_circuit_once_identity():
    f = literal(1)
    circ, info = amplify_circuit_once(f, m=1, theta=2)
    assert circ.depth() <= 3
    assert info.width == 12
    table = circ.truth_table()
    rng = random.Random(11)
    for _ in range(100):
        x = tuple(rng.randint(0, 1) for _ in range(info.width))
        assert table(x) == info.h_value(x)[0]


def test_amplify_circuit_once_depth_accounting():
    f = mp(2, 2)  # monotone depth 2 with an AND on top of ORs
    circ, info = amplify_circuit_once(f, m=1, theta=2)
    assert circ.depth() <= f.depth() + 2 + 1
    rng = random.Random(5)
    G = CompressionMap(g=info.gmap, theta=info.theta, n=f.n_inputs * info.m)
    for _ in range(40):
        x = tuple(rng.randint(0, 1) for _ in range(info.width))
        assert evaluate(circ, x) == evaluate(f, info.h_value(x))


def test_amplify_depth_merges_and_bottom():
    # a monotone circuit whose bottom layer is AND merges into the layer's
    # top AND gates: composed depth stays within depth + 2
    from ptfwitness.circuits import CircuitDesc

    f = CircuitDesc(4)
    a = f.add_gate("and", [("lit", 0, False), ("lit", 1, False)])
    b = f.add_gate("and", [("lit", 2, False), ("lit", 3, False)])
    f.output = f.add_gate("or", [a, b])
    assert f.depth() == 2 and f.is_monotone()
    circ, info = amplify_circuit_once(f, m=1, theta=2)
    assert circ.depth() <= f.depth() + 2
    rng = random.Random(23)
    for _ in range(30):
        x = tuple(rng.randint(0, 1) for _ in range(info.width))
        assert evaluate(circ, x) == evaluate(f, info.h_value(x))


def test_amplify_negated_input_path():
    f = parity2_circuit()  # uses negated literals
    circ, info = amplify_circuit_once(f, m=1, theta=2)
    rng = random.Random(13)
    for _ in range(40):
        x = tuple(rng.randint(0, 1) for _ in range(info.width))
        assert evaluate(circ, x) == evaluate(f, info.h_value(x))
