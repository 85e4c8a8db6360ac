"""The degree and density oracles against the programs they replaced.

Three references are kept verbatim, each with an `old_` prefix:

- The point-by-point ladder, `old_ladder` and `old_weigh` (the library's
  `_ladder` and `_weigh` before the orbit reduction, with the LP names
  qualified as `lp.LPProblem` and `lp.solve`, and its equality rows posed
  without a relation).  It solves every point of the
  cube.  The library now solves one column per orbit of the twin classes
  and lifts both answers back to the cube.  Values must be equal, the
  lifted primal and dual must pass test-side checks on every point, and a
  table without twins must pose the same programs, row for row.
- The coefficient-variable ladder of iii_approx_degree, which folded the
  previous level's Farkas multipliers into its dual.
- The coefficient LP of threshold_density, one row pattern . c >= 1 per
  sign pattern.

The last two posed free variables and inequalities.  The LP layer now
takes nonnegative variables and equality rows only, so they run on the
test-side LPProblem and solve below, which split each free x_j into
x+_j - x-_j in adjacent columns and add one slack column per inequality row
after them (lp_forms.standard_form), the column layout of the earlier LP
layer.  Values, and density families, must be equal; primal, dual and coefficients may differ, since the library now
reads them from the point-weight program of oracles._weigh.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import chi
from lp_forms import standard_form
from monomial_tables import monomial_table
from ptfwitness import lp, oracles
from ptfwitness.circuits import mp_table
from ptfwitness.core import Domain, FnTable, hypercube, weight_slice
from ptfwitness.errors import ArtifactError, PreconditionError, VerificationError
from ptfwitness.lp import LPCertificate
from ptfwitness.oracles import (
    MAX_DENSITY_VARS,
    Column,
    DegreeAnswer,
    DensityAnswer,
    Interval,
    PartialFn,
    Point,
    _check_approx_dual,
    _check_primal,
    approx_intervals,
    eval_poly,
    iii_approx_degree,
    smooth_threshold_degree,
    threshold_degree,
    threshold_density,
    total_fn,
)

F = Fraction


class LPProblem:
    """A free-variable LP: rows (coeffs, rel, rhs) over unconstrained x."""

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.rows = []

    def add(self, coeffs, rel, rhs):
        self.rows.append((list(coeffs), rel, rhs))


def solve(problem: LPProblem) -> LPCertificate:
    """Solve with x_j = x+_j - x-_j, the two columns adjacent, and the slack
    columns after them."""
    n = 2 * problem.n_vars
    split = standard_form(n, [([v for c in coeffs for v in (c, -c)], rel, rhs)
                              for coeffs, rel, rhs in problem.rows])
    cert = lp.solve(split)
    if cert.x is not None:
        x = cert.x[:n]
        cert.x = [a - b for a, b in zip(x[::2], x[1::2])]
    return cert


# ------------------------------------------------------------ reference

def old_weigh(rows: list[list[int]], ends: list[Fraction], gamma: Fraction
              ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """The program of the module docstring, rows[k][v] = sigma_v B_k(p_v)
    and ends[v] = e_v.  Returns (x, None) when it is feasible, and else
    (None, q) with q[k] the coefficient of B_k, re-checked by _check_primal."""
    floor = F(gamma, len(ends) or 1)
    prob = lp.LPProblem(len(ends))
    for row in rows:
        prob.add(row, -floor * sum(row))
    prob.add(ends, 1 - gamma)
    cert = lp.solve(prob)
    if cert.status != "infeasible":
        return cert.x, None
    # y = (z, w): sigma_v z(p_v) + e_v w <= 0 and r = sum_i y_i b_i, so q = -z/r
    # has sigma_v q(p_v) >= e_v w/r and (gamma/N) sum_v sigma_v q(p_v) = 1 - (1 - gamma) w/r
    r = sum((y * F(b, d) for y, (_, b, d) in zip(cert.farkas, prob.rows) if y), F(0))
    q = [-z / r for z in cert.farkas[:-1]]
    _check_primal(q, rows, ends, gamma)
    return None, q


def old_ladder(domain: Domain, columns: list[Column], gamma: Fraction):
    """_weigh against the monomials of degree < L at levels L = 1, 2, ...

    Returns the value, the primal q of the first infeasible level, and the
    weights x of the last feasible level (None when the value is 0).
    """
    rows: list[list[int]] = []
    ends = [e for _, _, e in columns]
    x = None
    for level, (alphas, table) in enumerate(
            monomial_table(domain, [p for p, _, _ in columns]), start=1):
        rows += [[s * v for (_, s, _), v in zip(columns, vals)] for vals in table[len(rows):]]
        weights, q = old_weigh(rows, ends, gamma)
        if q is not None:
            primal = {a: c for a, c in zip(alphas, q) if c}
            return level - 1, primal, x
        x = weights
    raise ArtifactError("the full-degree level cannot be feasible")


def old_sign_columns(f: FnTable) -> list[Column]:
    return [(p, -1 if f(p) == 1 else 1, F(1)) for p in f.domain.points()]


def old_band_columns(f: PartialFn, spec, margin: Fraction) -> list[Column]:
    i0, i1, istar = spec
    bands = {"0": i0.realized(margin), "1": i1.realized(margin), "*": istar.realized(margin)}
    columns: list[Column] = []
    for p in f.domain.points():
        lo, hi = bands[f.value(p)]
        if lo is not None:
            columns.append((p, 1, lo))
        if hi is not None:
            columns.append((p, -1, -hi))
    return columns


def old_iii_approx_degree(f: PartialFn, i0: Interval, i1: Interval, istar: Interval,
                          margin: Fraction = F(1)) -> DegreeAnswer:
    """Least degree of a polynomial mapping the 0-, 1-, and star-points of f
    into the three intervals.  Threshold degree, eps-approximate degree and
    one-sided approximate degree are instances of this oracle.  The dual
    (the previous level's Farkas multipliers folded per point) is re-checked
    before being returned.
    """
    margin = F(margin)
    bands = {"0": i0.realized(margin), "1": i1.realized(margin), "*": istar.realized(margin)}
    dom = f.domain
    points = list(dom.points())
    if not points:
        raise PreconditionError("empty domain")
    ends = {p: bands[f.value(p)] for p in points}
    prev_cert: LPCertificate | None = None
    for d, (alphas, table) in enumerate(monomial_table(dom, points)):
        prob = LPProblem(len(alphas))
        for i, p in enumerate(points):
            lo, hi = ends[p]
            row = [vals[i] for vals in table]
            if lo is not None:
                prob.add(row, ">=", lo)
            if hi is not None:
                prob.add(row, "<=", hi)
        cert = solve(prob)
        if cert.status == "feasible":
            coeffs = {a: c for a, c in zip(alphas, cert.x) if c}
            dual = None
            if prev_cert is not None:
                # Farkas multipliers of the previous level, folded to one
                # signed weight per point: the dual approximation witness
                weights: dict[Point, Fraction] = {}
                k = 0
                for p in points:
                    lo, hi = ends[p]
                    w = F(0)
                    if lo is not None:
                        w += prev_cert.farkas[k]
                        k += 1
                    if hi is not None:
                        w += prev_cert.farkas[k]
                        k += 1
                    if w:
                        weights[p] = w
                dual = FnTable(dom, weights)
                _check_approx_dual(dual, d, ends)
            return DegreeAnswer(value=d, primal=coeffs, dual=dual)
        prev_cert = cert
    raise VerificationError("no approximant up to the full interpolation degree")


def old_threshold_density(f: FnTable, cap: int) -> DensityAnswer:
    """Minimum number of parities whose weighted sign sum represents f.

    Searches set families in increasing size; each candidate family is a
    tiny exact LP over its coefficient vector.  Returns cap+1 with
    exceeded_cap=True when every family of size <= cap fails.
    """
    if cap < 0:
        raise PreconditionError("cap must be nonnegative")
    dom = f.domain
    if not dom.is_hypercube:
        raise PreconditionError("threshold density defined on the hypercube")
    n = dom.n
    if n > MAX_DENSITY_VARS:
        raise PreconditionError(f"hypercube too large (n={n} > {MAX_DENSITY_VARS})")
    points = list(dom.points())
    targets = [(-1 if f(p) == 1 else 1) for p in points]
    masks = sorted(range(2 ** n), key=lambda m: (bin(m).count("1"), m))
    # twisted[s][i] = target_i * chi_s(point_i)
    twisted = {}
    for s in masks:
        vec = []
        for p, t in zip(points, targets):
            bits = sum(p[j] for j in range(n) if s >> j & 1)
            vec.append(t * (-1 if bits % 2 else 1))
        twisted[s] = tuple(vec)

    npts = len(points)
    for k in range(1, cap + 1):
        for family in itertools.combinations(masks, k):
            vecs = [twisted[s] for s in family]
            patterns = {tuple(v[i] for v in vecs) for i in range(npts)}
            if any(tuple(-c for c in pat) in patterns for pat in patterns):
                continue  # antipodal pattern pair: no margin possible
            prob = LPProblem(k)
            for pat in sorted(patterns):
                prob.add(pat, ">=", 1)
            cert = solve(prob)
            if cert.status == "feasible":
                return DensityAnswer(value=k, family=family,
                                     coefficients=cert.x, exceeded_cap=False)
    return DensityAnswer(value=cap + 1, family=None, coefficients=None, exceeded_cap=True)


# ------------------------------------------------------------ comparison

def one_sided_intervals(eps):
    e = F(eps)
    return (Interval.closed(-e, e), Interval(F(1) - e, None), Interval.everything())


@st.composite
def partial_fns(draw, stars: bool):
    n = draw(st.integers(1, 4))
    dom = hypercube(n)
    labels = draw(st.lists(st.sampled_from("01*" if stars else "01"),
                           min_size=2 ** n, max_size=2 ** n))
    pts = list(dom.points())
    return PartialFn(dom, frozenset(p for p, c in zip(pts, labels) if c == "1"),
                     frozenset(p for p, c in zip(pts, labels) if c == "*"))


@given(partial_fns(stars=True), st.sampled_from([F(1, 3), F(1, 4)]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_iii_same_value_as_coefficient_ladder(f, eps, one_sided):
    spec = one_sided_intervals(eps) if one_sided else approx_intervals(eps)
    old = old_iii_approx_degree(f, *spec, margin=F(0))
    assert iii_approx_degree(f, *spec, margin=F(0)).value == old.value


@given(partial_fns(stars=False), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_density_same_value_and_family_as_coefficient_lp(f, cap):
    table = FnTable(f.domain, {p: F(1) for p in f.ones})
    old = old_threshold_density(table, cap)
    new = threshold_density(table, cap)
    assert (new.value, new.family, new.exceeded_cap) == (old.value, old.family, old.exceeded_cap)


# ------------------------------------------------- orbit-reduced ladder

GAMMAS = (F(1, 1728), F(1, 2), F(1))
EPSILONS = (F(1, 3), F(1, 4))


def _low_characters(n: int, d: int):
    return [frozenset(S) for k in range(d) for S in itertools.combinations(range(n), k)]


def _orthogonal_below(w: dict[Point, Fraction], n: int, d: int) -> bool:
    return all(sum(v * chi(S, p) for p, v in w.items()) == 0 for S in _low_characters(n, d))


def _degree(primal) -> int:
    return max((sum(a) for a in primal), default=0)


def check_threshold_on_cube(f: FnTable, ans: DegreeAnswer) -> None:
    """Margin-1 sign representation of degree <= value, and a sign-agreeing
    unit-l1 weighting orthogonal below the value, at every point."""
    pts = list(f.domain.points())
    sign = {p: -1 if f(p) == 1 else 1 for p in pts}
    assert _degree(ans.primal) <= ans.value
    assert all(sign[p] * eval_poly(ans.primal, p) >= 1 for p in pts)
    if ans.value > 0:
        w = ans.dual.entries
        assert sum(abs(v) for v in w.values()) == 1
        assert all(sign[p] * v > 0 for p, v in w.items())
        assert _orthogonal_below(w, f.domain.n, ans.value)


def check_smooth_on_cube(f: FnTable, gamma: Fraction, ans: DegreeAnswer) -> None:
    """(gamma/|X|) sum s q + (1 - gamma) min s q >= 1 with deg q <= value, and
    a distribution with floor gamma/|X| whose twist is orthogonal below the value."""
    pts = list(f.domain.points())
    sign = {p: -1 if f(p) == 1 else 1 for p in pts}
    assert _degree(ans.primal) <= ans.value
    sq = [sign[p] * eval_poly(ans.primal, p) for p in pts]
    assert gamma / len(pts) * sum(sq) + (1 - gamma) * min(sq) >= 1
    if ans.value > 0:
        mu = ans.dual
        assert sum(mu(p) for p in pts) == 1
        assert all(mu(p) >= gamma / len(pts) for p in pts)
        assert _orthogonal_below({p: sign[p] * mu(p) for p in pts}, f.domain.n, ans.value)


def check_iii_on_cube(f: PartialFn, spec, ans: DegreeAnswer) -> None:
    """q maps every point into its interval, deg q <= value; the dual is
    orthogonal below the value and sum_p w_p (lo_p if w_p > 0 else hi_p) > 0."""
    bands = dict(zip("01*", (i.realized(F(0)) for i in spec)))
    assert _degree(ans.primal) <= ans.value
    for p in f.domain.points():
        lo, hi = bands[f.value(p)]
        v = eval_poly(ans.primal, p)
        assert (lo is None or v >= lo) and (hi is None or v <= hi)
    if ans.value > 0:
        w = ans.dual.entries
        assert _orthogonal_below(w, f.domain.n, ans.value)
        assert sum(v * bands[f.value(p)][0 if v > 0 else 1] for p, v in w.items()) > 0


def compare_with_reference(labels: PartialFn) -> None:
    """Every degree oracle on the labels (stars read as 0 by the threshold
    oracles) against the point-by-point ladder, and its answer on the cube."""
    f = FnTable(labels.domain, {p: F(1) for p in labels.ones - labels.stars})
    ans = threshold_degree(f)
    assert ans.value == old_ladder(f.domain, old_sign_columns(f), F(0))[0]
    check_threshold_on_cube(f, ans)
    for gamma in GAMMAS:
        ans = smooth_threshold_degree(f, gamma)
        assert ans.value == old_ladder(f.domain, old_sign_columns(f), gamma)[0]
        check_smooth_on_cube(f, gamma, ans)
    for eps in EPSILONS:
        spec = approx_intervals(eps)
        ans = iii_approx_degree(labels, *spec, margin=F(0))
        assert ans.value == old_ladder(labels.domain, old_band_columns(labels, spec, F(0)),
                                       F(0))[0]
        check_iii_on_cube(labels, spec, ans)


def _weights(p: Point, blocks) -> Point:
    return tuple(sum(p[i] for i in blk) for blk in blocks)


@st.composite
def planted_twin_labels(draw):
    """Labels that are a function of the weights of random coordinate classes."""
    n = draw(st.integers(2, 5))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = [tuple(i for i in range(n) if owner[i] == c) for c in sorted(set(owner))]
    counts = list(itertools.product(*[range(len(b) + 1) for b in blocks]))
    marks = dict(zip(counts, draw(st.lists(st.sampled_from("01*"), min_size=len(counts),
                                           max_size=len(counts)))))
    dom = hypercube(n)
    pts = list(dom.points())
    return PartialFn(dom, frozenset(p for p in pts if marks[_weights(p, blocks)] == "1"),
                     frozenset(p for p in pts if marks[_weights(p, blocks)] == "*"))


@given(planted_twin_labels())
@settings(max_examples=60, deadline=None)
def test_orbit_ladder_matches_reference_on_planted_twins(labels):
    compare_with_reference(labels)


@given(partial_fns(stars=True))
@settings(max_examples=40, deadline=None)
def test_orbit_ladder_matches_reference_on_random_tables(labels):
    compare_with_reference(labels)


@pytest.mark.parametrize("domain", [weight_slice(hypercube(4), 1, 3), Domain((1, 1, 2, 1))])
def test_orbit_ladder_matches_reference_off_the_cube(domain):
    # coordinates 0 and 1 are twins; on the box, coordinate 2 (bound 2)
    # stays a class of its own
    pts = list(domain.points())
    labels = PartialFn(domain, frozenset(p for p in pts if (p[0] + p[1] + 2 * p[2]) % 3 == 1),
                       frozenset(p for p in pts if p[0] + p[1] + p[3] == 3))
    f = FnTable(domain, {p: F(1) for p in labels.ones - labels.stars})
    assert oracles._twin_classes(f)[0] == (0, 1)
    pts_sign = {p: -1 if f(p) == 1 else 1 for p in pts}
    ans = threshold_degree(f)
    assert ans.value == old_ladder(domain, old_sign_columns(f), F(0))[0]
    assert all(pts_sign[p] * eval_poly(ans.primal, p) >= 1 for p in pts)
    for gamma in GAMMAS:
        ans = smooth_threshold_degree(f, gamma)
        assert ans.value == old_ladder(domain, old_sign_columns(f), gamma)[0]
        assert ans.value == 0 or (ans.dual.domain == domain and ans.dual.total() == 1)
    for eps in EPSILONS:
        spec = approx_intervals(eps)
        ans = iii_approx_degree(labels, *spec, margin=F(0))
        assert ans.value == old_ladder(domain, old_band_columns(labels, spec, F(0)), F(0))[0]


def _recorded(monkeypatch, module, run) -> list[lp.LPProblem]:
    seen = []
    solve = lp.solve

    def record(problem):
        seen.append(problem)
        return solve(problem)

    monkeypatch.setattr(module, "solve", record)
    run()
    monkeypatch.undo()
    return seen


def test_twin_free_table_poses_the_reference_programs(monkeypatch):
    dom = hypercube(4)
    f = FnTable(dom, {p: F(1) for p in [(0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1),
                                         (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 1, 1)]})
    assert oracles._twin_classes(f) == ((0,), (1,), (2,), (3,))
    labels = total_fn(f)
    spec = approx_intervals(F(1, 3))
    runs = [
        (lambda: threshold_degree(f),
         lambda: old_ladder(dom, old_sign_columns(f), F(0))),
        (lambda: smooth_threshold_degree(f, F(1, 1728)),
         lambda: old_ladder(dom, old_sign_columns(f), F(1, 1728))),
        (lambda: iii_approx_degree(labels, *spec, margin=F(0)),
         lambda: old_ladder(dom, old_band_columns(labels, spec, F(0)), F(0))),
    ]
    for new, old in runs:
        got = _recorded(monkeypatch, oracles, new)
        want = _recorded(monkeypatch, lp, old)
        assert len(got) == len(want) >= 2
        for a, b in zip(got, want):
            assert (a.n_vars, a.rows, a.objective) == (b.n_vars, b.rows, b.objective)


def test_twin_classes_shrink_the_programs(monkeypatch):
    # MP(2, 3) has two classes of three twins: 4 x 4 orbits, not 64 points
    got = _recorded(monkeypatch, oracles, lambda: threshold_degree(mp_table(2, 3)))
    assert {p.n_vars for p in got} == {16}
