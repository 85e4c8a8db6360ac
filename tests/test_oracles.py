import random
from fractions import Fraction

import pytest

from ptfwitness import oracles
from ptfwitness.core import Domain, FnTable, eval_monomial, hypercube, orth
from ptfwitness.errors import PreconditionError, VerificationError
from ptfwitness.oracles import (
    DegreeAnswer,
    Interval,
    THRESHOLD_INTERVALS,
    and_table,
    approx_intervals,
    bool_table,
    discrepancy_2party,
    eval_poly,
    iii_approx_degree,
    or_table,
    parity_table,
    smooth_threshold_degree,
    threshold_degree,
    threshold_density,
    total_fn,
    twist,
)

F = Fraction


def negate_inputs(f):
    """Test-side reference: f with every input bit flipped."""
    return FnTable(f.domain, {tuple(1 - b for b in p): v for p, v in f.entries.items()})


def negate_output(f):
    """Test-side reference: the Boolean complement of a 0/1 table."""
    out = {p: F(1) for p in f.domain.points() if f(p) == 0}
    return FnTable(f.domain, out)


def one_sided_intervals(eps):
    """Test-side reference: the one-sided approximation bands."""
    e = F(eps)
    return (Interval.closed(-e, e), Interval(F(1) - e, None), Interval.everything())


def check_answer(f, ans: DegreeAnswer):
    if ans.primal is not None:
        for p in f.domain.points():
            assert (-1) ** f(p) * eval_poly(ans.primal, p) >= 1
    if ans.value > 0:
        assert ans.dual is not None
        assert twist(ans.dual, f).is_nonnegative()
        assert orth(ans.dual, cap=ans.value - 1) is None


def test_bool_table_checks_every_point():
    dom = Domain((1, 1))
    f = bool_table(dom, [[1, 0], (1, 1), (1, 0)])  # lists become points, repeats collapse
    assert f == FnTable(dom, {(1, 0): F(1), (1, 1): F(1)})
    assert all(type(v) is Fraction for v in f.entries.values())
    for outside in ((2, 0), (1,), (0, 1, 0), (-1, 0)):
        with pytest.raises(PreconditionError, match="outside domain"):
            bool_table(dom, [(0, 0), outside])
    with pytest.raises(PreconditionError, match="outside domain"):
        bool_table(Domain((1, 1), window=(0, 1)), [(1, 1)])


def test_and_or_degree_one():
    for n in (1, 2, 3):
        a = threshold_degree(and_table(n))
        assert a.value == 1
        check_answer(and_table(n), a)
        o = threshold_degree(or_table(n))
        assert o.value == 1


def test_parity_degree_full():
    for n in (1, 2, 3):
        ans = threshold_degree(parity_table(n))
        assert ans.value == n
        check_answer(parity_table(n), ans)


def test_constant_function_degree_zero():
    dom = hypercube(2)
    const = bool_table(dom, dom.points())
    ans = threshold_degree(const)
    assert ans.value == 0 and ans.dual is None
    assert ans.primal is not None


def test_negation_invariance():
    f = or_table(2)
    d = threshold_degree(f).value
    assert threshold_degree(negate_output(f)).value == d
    assert threshold_degree(negate_inputs(f)).value == d


def test_negation_invariance_smooth_and_iii():
    for f in (or_table(2), parity_table(2)):
        g = F(1, 3)
        base = smooth_threshold_degree(f, g).value
        assert smooth_threshold_degree(negate_output(f), g).value == base
        assert smooth_threshold_degree(negate_inputs(f), g).value == base
        spec = approx_intervals(F(1, 3))
        d = iii_approx_degree(total_fn(f), *spec, margin=F(0)).value
        assert iii_approx_degree(total_fn(negate_inputs(f)), *spec, margin=F(0)).value == d


def test_one_sided_specialization():
    f = total_fn(or_table(2))
    one_sided = iii_approx_degree(f, *one_sided_intervals(F(1, 3)), margin=F(0))
    two_sided = iii_approx_degree(f, *approx_intervals(F(1, 3)), margin=F(0))
    assert one_sided.value <= two_sided.value
    assert one_sided.value >= 1  # a constant cannot sit in both bands


def test_smooth_equals_threshold_at_gamma_zero():
    for f in (and_table(2), parity_table(2)):
        assert smooth_threshold_degree(f, F(0)).value == threshold_degree(f).value


def test_smooth_nonconstant_at_half():
    for f in (and_table(2), or_table(2), parity_table(2)):
        assert smooth_threshold_degree(f, F(1, 2)).value >= 1


def test_smooth_monotone_in_gamma():
    f = parity_table(2)
    vals = [smooth_threshold_degree(f, g).value for g in (F(0), F(1, 4), F(1, 2), F(1))]
    assert vals == sorted(vals, reverse=True)


def test_smooth_parity_uniform_witness():
    # the uniform distribution already floors at gamma=1 and twists to parity
    ans = smooth_threshold_degree(parity_table(2), F(1))
    assert ans.value == 2


def test_smooth_rejects_bad_gamma():
    with pytest.raises(PreconditionError):
        smooth_threshold_degree(and_table(1), F(3, 2))


def test_degree_oracles_reject_empty_domain():
    empty = FnTable(Domain((1, 1), window=(5, 5)), {})
    with pytest.raises(PreconditionError):
        threshold_degree(empty)
    with pytest.raises(PreconditionError):
        smooth_threshold_degree(empty, F(1, 2))


def test_degree_and_density_oracles_reject_non_boolean_tables():
    # a value other than 1 used to be read as 0: this table gave degree 0
    for entries in ({(0, 0): F(1, 2), (1, 1): F(3)}, {(0, 1): F(1), (1, 0): F(-1)}):
        f = FnTable(hypercube(2), entries)
        with pytest.raises(PreconditionError):
            threshold_degree(f)
        with pytest.raises(PreconditionError):
            smooth_threshold_degree(f, F(1, 2))
        with pytest.raises(PreconditionError):
            threshold_density(f, cap=2)


@pytest.mark.parametrize("n", [3, 4])
def test_smooth_primal_certifies_upper_bound(n):
    # q of degree <= value with (gamma/|X|) sum s q + (1 - gamma) min s q >= 1:
    # no distribution with floor gamma/|X| twists orthogonally to q
    rng = random.Random(n)
    dom = hypercube(n)
    pts = list(dom.points())
    for _ in range(6):
        f = bool_table(dom, [p for p in pts if rng.random() < 0.5])
        for gamma in (F(0), F(1, 1728), F(1, 4), F(1, 2), F(1)):
            ans = smooth_threshold_degree(f, gamma)
            assert ans.primal
            assert max(sum(a) for a in ans.primal) <= ans.value
            sq = [(-1 if f(p) == 1 else 1)
                  * sum(c * eval_monomial(p, a) for a, c in ans.primal.items()) for p in pts]
            assert gamma / len(pts) * sum(sq) + (1 - gamma) * min(sq) >= 1
            if gamma == 0:
                assert ans.primal == threshold_degree(f).primal


def test_margin_recheck_rejects_short_polynomial():
    # f(x) = x on one bit: s = (1, -1); q = 1 - 2x has s q = (1, 1), while
    # q = 1 - x has s q = (1, 0), short of margin 1 at every gamma
    rows = [[1, -1], [0, -1]]
    ends = [F(1), F(1)]
    for gamma in (F(0), F(1, 2), F(1)):
        oracles._check_primal([F(1), F(-2)], rows, ends, gamma)
        with pytest.raises(VerificationError):
            oracles._check_primal([F(1), F(-1)], rows, ends, gamma)


def test_primal_recheck_reads_interval_ends():
    # one point with interval [1/3, 1/2]: columns (p, +1, 1/3) and (p, -1, -1/2)
    rows = [[1, -1]]
    ends = [F(1, 3), F(-1, 2)]
    for c in (F(1, 3), F(2, 5), F(1, 2)):
        oracles._check_primal([c], rows, ends, F(0))
    for c in (F(1, 4), F(3, 5)):
        with pytest.raises(VerificationError):
            oracles._check_primal([c], rows, ends, F(0))


def random_tables(seed, sizes, count):
    rng = random.Random(seed)
    for n in sizes:
        dom = hypercube(n)
        pts = list(dom.points())
        for _ in range(count):
            yield bool_table(dom, [p for p in pts if rng.random() < 0.5])


def test_iii_threshold_intervals_match_threshold_degree():
    # margin 1 on the threshold intervals gives the columns (p, s_p, 1) of
    # threshold_degree, so both oracles solve the same programs
    for f in random_tables(5, (2, 3, 4), 5):
        iii = iii_approx_degree(total_fn(f), *THRESHOLD_INTERVALS)
        thr = threshold_degree(f)
        assert (iii.value, iii.primal, iii.dual) == (thr.value, thr.primal, thr.dual)


def test_primal_recheck_rejects_perturbed_coefficient(monkeypatch):
    # every gamma = 0 primal from the four oracles is tight on some column v;
    # moving one coefficient q_k against sigma_v B_k(p_v) breaks the margin there
    calls = []
    check = oracles._check_primal
    monkeypatch.setattr(oracles, "_check_primal",
                        lambda *args: calls.append(args) or check(*args))
    found = 0
    for f in random_tables(7, (2, 3), 3):
        threshold_degree(f)
        smooth_threshold_degree(f, F(0))
        for spec in (approx_intervals(F(1, 3)), one_sided_intervals(F(1, 4))):
            iii_approx_degree(total_fn(f), *spec, margin=F(0))
        found += not threshold_density(f, cap=3).exceeded_cap
    assert found and len(calls) == 6 * 4 + found
    for q, rows, ends, gamma in calls:
        assert gamma == 0
        slack = [sum(c * row[v] for c, row in zip(q, rows)) - e for v, e in enumerate(ends)]
        v = slack.index(min(slack))
        assert slack[v] == 0
        k = next(k for k, row in enumerate(rows) if row[v])
        bad = list(q)
        bad[k] -= F(1, 7) if rows[k][v] > 0 else F(-1, 7)
        with pytest.raises(VerificationError):
            check(bad, rows, ends, gamma)


def test_iii_single_variable():
    dom = hypercube(1)
    f = total_fn(bool_table(dom, [(1,)]))
    ans = iii_approx_degree(f, *approx_intervals(F(1, 3)), margin=F(0))
    assert ans.value == 1


def test_iii_or2_approx_degree_one():
    f = total_fn(or_table(2))
    ans = iii_approx_degree(f, *approx_intervals(F(1, 3)), margin=F(0))
    assert ans.value == 1


def test_iii_threshold_specialization():
    f = total_fn(and_table(2))
    ans = iii_approx_degree(f, *THRESHOLD_INTERVALS)
    assert ans.value == threshold_degree(and_table(2)).value == 1


def test_iii_empty_interval_rejected():
    f = total_fn(and_table(1))
    bad = Interval(F(0), F(1, 2), lo_open=True, hi_open=True)
    with pytest.raises(PreconditionError):
        iii_approx_degree(f, bad, Interval.everything(), Interval.everything(), margin=F(1))


def test_iii_empty_domain_rejected():
    f = total_fn(FnTable(Domain((1, 1), window=(5, 5)), {}))
    with pytest.raises(PreconditionError):
        iii_approx_degree(f, *approx_intervals(F(1, 3)), margin=F(0))


def test_iii_dual_rechecked(monkeypatch):
    checked = []
    check = oracles._check_approx_dual
    monkeypatch.setattr(oracles, "_check_approx_dual",
                        lambda *args: checked.append(args) or check(*args))
    rng = random.Random(11)
    dom = hypercube(3)
    pts = list(dom.points())
    for _ in range(6):
        f = total_fn(bool_table(dom, [p for p in pts if rng.random() < 0.5]))
        for spec in (approx_intervals(F(1, 3)), one_sided_intervals(F(1, 4))):
            ans = iii_approx_degree(f, *spec, margin=F(0))
            assert all(sum(a) <= ans.value for a in ans.primal)
            if ans.value == 0:
                assert ans.dual is None
                continue
            ends = {p: (spec[1] if p in f.ones else spec[0]).realized(F(0)) for p in pts}
            assert checked.pop() == (ans.dual, ans.value, ends)


def test_iii_dual_check_rejects_altered_weight():
    f = total_fn(or_table(3))
    ans = iii_approx_degree(f, *approx_intervals(F(1, 3)), margin=F(0))
    assert ans.value >= 1
    ends = {p: approx_intervals(F(1, 3))[f.value(p) == "1"].realized(F(0))
            for p in f.domain.points()}
    oracles._check_approx_dual(ans.dual, ans.value, ends)
    p, w = next(iter(ans.dual.entries.items()))
    for altered in (2 * w, w + 1, -w):
        bad = FnTable(ans.dual.domain, {**ans.dual.entries, p: altered})
        with pytest.raises(VerificationError):
            oracles._check_approx_dual(bad, ans.value, ends)
    # orthogonal but with the interval ends on the wrong side
    flipped = FnTable(ans.dual.domain, {q: -v for q, v in ans.dual.entries.items()})
    with pytest.raises(VerificationError):
        oracles._check_approx_dual(flipped, ans.value, ends)
    # orthogonal to everything, but certifies nothing
    with pytest.raises(VerificationError):
        oracles._check_approx_dual(FnTable(ans.dual.domain, {}), ans.value, ends)
    # a weight on an unbounded interval end
    open_ends = {**ends, p: (None, None)}
    with pytest.raises(VerificationError):
        oracles._check_approx_dual(ans.dual, ans.value, open_ends)


def test_discrepancy_1x1():
    ans = discrepancy_2party([[1]])
    assert ans.value == 1


def test_discrepancy_2x2_sign_identity():
    # singleton rectangles force max >= 1/4 for every distribution, and the
    # uniform distribution achieves 1/4 on every rectangle: disc = 1/4
    ans = discrepancy_2party([[1, -1], [-1, 1]])
    assert ans.value == F(1, 4)
    assert sum(sum(r) for r in ans.distribution) == 1


def test_discrepancy_parity_4x4():
    m = [[(-1) ** (bin(x & y).count("1")) for y in range(4)] for x in range(4)]
    ans = discrepancy_2party(m)
    # lower bound by singleton rectangles: 1/16; hadamard structure keeps it small
    assert F(1, 16) <= ans.value <= F(1, 2)


def test_discrepancy_mixture_pays_value_on_every_cell():
    rng = random.Random(3)
    for rows, cols in ((1, 1), (2, 2), (2, 3), (3, 3)):
        m = [[rng.choice((1, -1)) for _ in range(cols)] for _ in range(rows)]
        ans = discrepancy_2party(m)
        assert ans.mixture and all(w > 0 for w in ans.mixture.values())
        assert sum(ans.mixture.values()) == 1
        for x in range(rows):
            for y in range(cols):
                pay = sum(w * sgn * m[x][y] for ((A, B), sgn), w in ans.mixture.items()
                          if x in A and y in B)
                assert pay >= ans.value


def test_discrepancy_mixture_check_rejects_mutated_weight():
    # the uniform distribution is the only optimum of the 2x2 sign identity,
    # so the mixture pays exactly the value on every cell
    m = [[1, -1], [-1, 1]]
    ans = discrepancy_2party(m)
    oracles._check_mixture(m, ans.mixture, ans.value)
    col, w = next(iter(ans.mixture.items()))
    (rect, sgn) = col
    for bad in ({**ans.mixture, col: 2 * w},
                {**ans.mixture, col: -w},
                {**{c: v for c, v in ans.mixture.items() if c != col}, (rect, -sgn): w},
                {c: F(c == col) for c in ans.mixture}):
        with pytest.raises(VerificationError):
            oracles._check_mixture(m, bad, ans.value)


def test_discrepancy_size_guard():
    big = [[1] * 9 for _ in range(9)]
    with pytest.raises(PreconditionError):
        discrepancy_2party(big)


def test_discrepancy_rejects_empty_matrix():
    with pytest.raises(PreconditionError):
        discrepancy_2party([])
    with pytest.raises(PreconditionError):
        discrepancy_2party([[]])


def test_density_constant_and_parity():
    dom = hypercube(2)
    const = bool_table(dom, dom.points())
    assert threshold_density(const, cap=2).value == 1
    assert threshold_density(parity_table(2), cap=2).value == 1


def test_density_sentinel():
    # two-bit parity needs the full parity character; families drawn only
    # from low masks cannot do it at size 1, but cap=0 forces the sentinel
    ans = threshold_density(parity_table(2), cap=0)
    assert ans.value == 1 and ans.exceeded_cap


def test_density_rejects_negative_cap():
    with pytest.raises(PreconditionError):
        threshold_density(parity_table(2), cap=-3)
