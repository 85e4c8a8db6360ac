import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exact_references import PatternMatrix, chi, fourier, fraction_pattern_spectral_norm
from ptfwitness import matrix_bounds
from ptfwitness.core import FnTable, box, cleared, hypercube
from ptfwitness.errors import PreconditionError, VerificationError
from ptfwitness.matrix_bounds import (
    _walsh_hadamard,
    forster_bound,
    pattern_spectral_norm,
    signrank_lb_pattern,
    signrank_le_1,
    staircase_matrices,
    staircase_realizations,
    verify_realization,
)
from ptfwitness.oracles import (
    and_table,
    bool_table,
    parity_table,
    smooth_threshold_degree,
    twist,
)

F = Fraction


def const_one(n):
    dom = hypercube(n)
    return FnTable(dom, {p: F(1) for p in dom.points()})


def test_pattern_norm_constant():
    res = pattern_spectral_norm(const_one(1), 2, 1)
    assert res.norm_sq == F(2 ** 3 * 2)


def test_pattern_norm_single_variable_sign():
    dom = hypercube(1)
    phi = FnTable(dom, {(0,): F(1), (1,): F(-1)})
    res = pattern_spectral_norm(phi, 2, 1)
    # the only surviving coefficient sits at the full set: 2^3*2 * (1/2) = 8
    assert res.norm_sq == 8


def test_pattern_norm_block_mismatch():
    with pytest.raises(PreconditionError):
        pattern_spectral_norm(const_one(2), 3, 2)
    with pytest.raises(PreconditionError):  # no blocks at all
        pattern_spectral_norm(const_one(2), 0, 2)


def test_pattern_matrix_shape():
    pm = PatternMatrix(4, 2, const_one(2))
    assert pm.shape == (16, 16)


def test_pattern_norm_too_large():
    # 2^22 rows by 44 columns: refused before any arithmetic
    with pytest.raises(PreconditionError):
        pattern_spectral_norm(const_one(1), 22, 1)


def test_pattern_norm_mismatch_raises(monkeypatch):
    monkeypatch.setattr(matrix_bounds, "_pattern_spectrum_max",
                        lambda g, den, N, n: F(2 ** 3 * 2) + F(1, 10 ** 9))
    with pytest.raises(VerificationError):
        pattern_spectral_norm(const_one(1), 2, 1)


@st.composite
def signed_tables(draw, n):
    """A table on the n-cube with few distinct values, so that several
    character coefficients often tie."""
    pts = list(hypercube(n).points())
    values = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4)])
    return FnTable(hypercube(n), {p: v for p, v in zip(pts, draw(st.lists(
        values, min_size=len(pts), max_size=len(pts))))})


@given(st.integers(1, 4).flatmap(signed_tables))
@settings(max_examples=60, deadline=None)
def test_walsh_hadamard_matches_fraction_fourier(phi):
    n = phi.domain.n
    nums, den = cleared(phi.entries.values())
    g = [0] * (1 << n)
    for p, v in zip(phi.entries, nums):
        g[sum(bit << i for i, bit in enumerate(p))] = v
    ghat = _walsh_hadamard(g)
    for S, c in fourier(phi).items():
        assert ghat[sum(1 << i for i in S)] == c * den * 2 ** n


@st.composite
def pattern_inputs(draw):
    """(phi, N, n), mostly valid, sometimes breaking one precondition:
    n not dividing N, phi on another domain, or too many entries."""
    n = draw(st.integers(1, 3))
    N = n * draw(st.integers(1, 6 // n))
    phi = draw(signed_tables(n))
    broken = draw(st.sampled_from(["none"] * 4 + ["divides", "domain", "box", "size"]))
    if broken == "divides" and n > 1:
        N += 1
    elif broken == "domain":
        phi = draw(signed_tables(n % 3 + 1))
    elif broken == "box":
        phi = FnTable(box([2] * n), {(2,) * n: F(1)})
    elif broken == "size":
        N = n * (22 // n + 1)
    return phi, N, n


chi_0_plus_chi_1 = FnTable(hypercube(2), {(0, 0): F(2), (1, 1): F(-2)})


@given(pattern_inputs())
@example((chi_0_plus_chi_1, 4, 2))  # phi_hat ties at {0} and {1}; argmax is {0}
@example((FnTable(hypercube(2)), 2, 2))  # every coefficient ties at 0
@settings(max_examples=120, deadline=None)
def test_pattern_norm_matches_fraction_closed_form(case):
    phi, N, n = case
    try:
        want = fraction_pattern_spectral_norm(phi, N, n)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            pattern_spectral_norm(phi, N, n)
        return
    got = pattern_spectral_norm(phi, N, n)
    assert (got.norm_sq, got.argmax) == (want.norm_sq, want.argmax)


def test_forster_character_matrix():
    n = 3
    dom = hypercube(n)
    mat = [[chi(frozenset(S), p) for S in _subsets(n)] for p in dom.points()]
    b = forster_bound(mat)
    assert abs(float(b.lower) - 2 ** (n / 2)) < 1e-6


def _subsets(n):
    import itertools

    return [frozenset(c) for k in range(n + 1)
            for c in itertools.combinations(range(n), k)]


def test_forster_all_ones():
    b = forster_bound([[1, 1], [1, 1]])
    assert abs(float(b.lower) - 1.0) < 1e-6


def test_signrank_le_1():
    assert signrank_le_1([[1, 1], [1, 1]])
    # the 2x2 pattern with a single minus cannot factor: three pluses force
    # the fourth entry positive in any outer product
    assert signrank_le_1([[1, 1], [1, -1]]) is False
    # the 2x2 alternating pattern, by contrast, is (+,-) x (+,-)
    assert signrank_le_1([[1, -1], [-1, 1]]) is True
    u, v = [1, -1, 1], [1, 1, -1]
    assert signrank_le_1([[a * b for b in v] for a in u])


def test_staircase_sanity():
    first, second = staircase_matrices(4)
    r1, r2 = staircase_realizations(4)
    assert verify_realization(first, r1, 2)
    assert verify_realization(second, r2, 3)
    assert forster_bound(first).lower <= 2
    assert forster_bound(second).lower <= 3


def test_forster_rejects_bad_entries():
    for bad in ([], [[]], [[1, 0]], [[1, 1], [1]], [[1.0, 1]], [["1", 1]],
                [[True, 1], [1, -1]]):
        with pytest.raises(PreconditionError):
            forster_bound(bad)


def test_forster_rational_entries():
    # a third of a 2x2 Hadamard matrix: ||A||^2 = 2/9, and the bound
    # sqrt(4 / (2/9)) * 1/3 = sqrt(2) is that of the unscaled matrix
    b = forster_bound([[F(1, 3), F(-1, 3)], [F(1, 3), F(1, 3)]])
    assert F(2, 9) <= b.norm_sq_upper <= F(2, 9) * (1 + F(1, 2 ** 32))
    assert b.lower ** 2 <= 2 and float(b.lower) > 2 ** 0.5 - 1e-8


def test_signrank_lb_pattern_parity():
    f = parity_table(2)
    ans = smooth_threshold_degree(f, F(1))
    assert ans.value == 2
    res = signrank_lb_pattern(f, ans, T=2)
    assert res.bound_lower == 2  # gamma = 1, T^(d/2) = 2
    # re-derive through Forster on the witness pattern matrix: the witness is
    # orthogonal below its level, and sqrt(rows cols) / ||A|| * min mu >= bound
    n, T = f.domain.n, 2
    mu = ans.dual
    phi = twist(mu, f)
    assert all(c == 0 for S, c in fourier(phi).items() if len(S) < ans.value)
    norm_sq = pattern_spectral_norm(phi, T * n, n).norm_sq
    rows, cols = PatternMatrix(T * n, n, phi).shape
    min_mu = min(mu(p) for p in f.domain.points())
    assert rows * cols * min_mu ** 2 >= res.bound_lower ** 2 * norm_sq


def test_signrank_lb_trivial_level():
    f = parity_table(2)
    ans = smooth_threshold_degree(f, F(1))
    ans.value = 0  # level-0 certificates give the trivial bound gamma
    res = signrank_lb_pattern(f, ans, T=2)
    assert res.bound_lower == 1 and res.bound_is_exact


def test_signrank_lb_rejects_zero_gamma():
    f = parity_table(2)
    ans = smooth_threshold_degree(f, F(0))
    with pytest.raises(PreconditionError):
        signrank_lb_pattern(f, ans, T=2)


def test_signrank_lb_rejects_witness_of_other_domain():
    ans = smooth_threshold_degree(parity_table(2), F(1))
    with pytest.raises(PreconditionError):
        signrank_lb_pattern(parity_table(3), ans, T=2)


def test_signrank_lift_relation():
    # the two-party lift of f at block size m contains the pattern matrix
    # with T = floor(m/2): the lifted bound is the pattern bound at that T
    f = parity_table(2)
    ans = smooth_threshold_degree(f, F(1))
    for m in (4, 6):
        lifted = signrank_lb_pattern(f, ans, T=m // 2)
        assert lifted.bound_lower == ans.gamma * F(m // 2) ** (ans.value // 2)


def test_signrank_lb_rejects_witness_of_another_function():
    # parity's witness is orthogonal through degree 3, AND's twist of it is not
    ans = smooth_threshold_degree(parity_table(4), F(1, 2))
    with pytest.raises(VerificationError):
        signrank_lb_pattern(and_table(4), ans, T=4)


def _witness_holds(f: FnTable, mu: FnTable, gamma, d: int) -> bool:
    """Test-side re-check: mu is a distribution with floor gamma / 2^n whose
    twist by (-1)^f has zero correlation with every character of degree < d."""
    pts = list(f.domain.points())
    if sum(mu(p) for p in pts) != 1 or any(mu(p) < gamma / len(pts) for p in pts):
        return False
    twisted = {p: mu(p) * (-1 if f(p) == 1 else 1) for p in pts}
    return all(sum(v * chi(frozenset(S), p) for p, v in twisted.items()) == 0
               for k in range(d) for S in itertools.combinations(range(f.domain.n), k))


@st.composite
def table_pairs(draw):
    n = draw(st.integers(3, 4))
    pts = list(hypercube(n).points())
    f_bits = draw(st.lists(st.booleans(), min_size=2 ** n, max_size=2 ** n))
    g_bits = draw(st.one_of(st.just(f_bits),
                            st.lists(st.booleans(), min_size=2 ** n, max_size=2 ** n)))
    f = bool_table(hypercube(n), [p for p, b in zip(pts, f_bits) if b])
    g = bool_table(hypercube(n), [p for p, b in zip(pts, g_bits) if b])
    return f, g


@given(table_pairs(), st.sampled_from([F(1, 2), F(1)]))
@settings(max_examples=60, deadline=None)
def test_signrank_bound_exactly_when_witness_holds_for_f(pair, gamma):
    f, g = pair
    ans = smooth_threshold_degree(g, gamma)
    if ans.dual is None:
        with pytest.raises(PreconditionError):
            signrank_lb_pattern(f, ans, T=2)
    elif _witness_holds(f, ans.dual, gamma, ans.value):
        res = signrank_lb_pattern(f, ans, T=2)
        assert res.d == ans.value and res.gamma == gamma
    else:
        with pytest.raises(VerificationError):
            signrank_lb_pattern(f, ans, T=2)
