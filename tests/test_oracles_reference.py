"""iii_approx_degree and threshold_density against the programs they replaced.

The reference below is the earlier implementation, kept verbatim with an
`old_` prefix: the coefficient-variable ladder of iii_approx_degree, which
folded the previous level's Farkas multipliers into its dual, and the
coefficient LP of threshold_density, one row pattern . c >= 1 per sign
pattern.  Both posed free variables.  The LP layer now takes nonnegative
variables only, so the reference runs on the test-side LPProblem and solve
below, which split each free x_j into x+_j - x-_j in adjacent columns, the
column layout of the earlier LP layer.  Values, and density families, must
be equal; primal, dual and coefficients may differ, since the library now
reads them from the point-weight program of oracles._weigh.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ptfwitness import lp
from ptfwitness.core import FnTable, hypercube, monomial_table
from ptfwitness.errors import PreconditionError, VerificationError
from ptfwitness.lp import LPCertificate
from ptfwitness.oracles import (
    MAX_DENSITY_VARS,
    DegreeAnswer,
    DensityAnswer,
    Interval,
    PartialFn,
    Point,
    _check_approx_dual,
    approx_intervals,
    iii_approx_degree,
    threshold_density,
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
    """Solve with x_j = x+_j - x-_j, the two columns adjacent."""
    split = lp.LPProblem(2 * problem.n_vars)
    for coeffs, rel, rhs in problem.rows:
        split.add([v for c in coeffs for v in (c, -c)], rel, rhs)
    cert = lp.solve(split)
    if cert.x is not None:
        cert.x = [a - b for a, b in zip(cert.x[::2], cert.x[1::2])]
    return cert


# ------------------------------------------------------------ reference

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
