"""Degree oracles: ground truth for every constructed witness.

Threshold degree (gamma = 0) and gamma-smooth threshold degree share one
ladder of exact feasibility programs: with s = (-1)^f, level L asks for
nu >= 0 of total 1 - gamma with s (gamma/|X| + nu) orthogonal to all
monomials of degree < L.  The last feasible level, L = value, gives the
dual witness; the first infeasible level's Farkas multipliers give the
primal q, of degree <= value, with (gamma/|X|) sum_p s_p q(p) +
(1 - gamma) min_p s_p q(p) >= 1 (margin-1 sign representation at gamma = 0),
so no distribution with floor gamma/|X| twists orthogonally to q.  Both
artifacts are re-checked before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .core import (
    Domain,
    FnTable,
    eval_monomial,
    hypercube,
    monomials,
    orth,
)
from .errors import ArtifactError, PreconditionError, VerificationError
from .lp import LPCertificate, LPProblem, solve

F = Fraction

Point = tuple[int, ...]


def bool_table(domain: Domain, ones: Iterable[Point]) -> FnTable:
    """A Boolean function as an FnTable storing its 1-points."""
    return FnTable(domain, {tuple(p): F(1) for p in ones})


def sign_table(f: FnTable) -> FnTable:
    """(-1)^f over the whole domain of a Boolean table."""
    out = {}
    for p in f.domain.points():
        out[p] = F(-1) if f(p) == 1 else F(1)
    return FnTable(f.domain, out, _trusted=True)


def negate_inputs(f: FnTable) -> FnTable:
    if not f.domain.is_hypercube:
        raise PreconditionError("input negation defined on the hypercube")
    flip = lambda p: tuple(1 - b for b in p)
    return FnTable(f.domain, {flip(p): v for p, v in f.entries.items()}, _trusted=True)


@dataclass
class DegreeAnswer:
    value: int
    # exponent vector -> coefficient of q, deg q <= value.  Threshold and smooth:
    # (gamma/|X|) sum_p s_p q(p) + (1 - gamma) min_p s_p q(p) >= 1, gamma None
    # read as 0; iii: q maps each point into its interval
    primal: dict[Point, Fraction] | None
    dual: FnTable | None
    gamma: Fraction | None = None


def _monomial_table(domain: Domain, points: list[Point]
                    ) -> Iterator[tuple[list[Point], list[list[int]]]]:
    """For d = 0 .. sum(bounds), the monomials alphas of degree <= d and
    their values table[k][i] = points[i]^alphas[k]; each yield extends the
    same two lists.  At the last d they span every function on the domain."""
    alphas: list[Point] = []
    table: list[list[int]] = []
    for d in range(sum(domain.bounds) + 1):
        for a in monomials(domain.bounds, d):
            alphas.append(a)
            table.append([eval_monomial(p, a) for p in points])
        yield alphas, table


def eval_poly(coeffs: dict[Point, Fraction], p: Point) -> Fraction:
    acc = F(0)
    for alpha, c in coeffs.items():
        if c:
            acc += c * eval_monomial(p, alpha)
    return acc


def poly_degree(coeffs: dict[Point, Fraction]) -> int:
    degs = [sum(a) for a, c in coeffs.items() if c]
    return max(degs) if degs else 0


def _check_margin(primal: dict[Point, Fraction], alphas: list[Point],
                  rows: list[list[int]], gamma: Fraction) -> None:
    """Re-check (gamma/|X|) sum_p s_p q(p) + (1 - gamma) min_p s_p q(p) >= 1
    in integers, over the common denominator of q's coefficients."""
    den = lcm(*[c.denominator for c in primal.values()])
    n_pts = len(rows[0])
    sq = [0] * n_pts  # den * s_p * q(p)
    for alpha, row in zip(alphas, rows):
        c = primal.get(alpha)
        if c:
            k = c.numerator * (den // c.denominator)
            sq = [a + k * v for a, v in zip(sq, row)]
    g, h = gamma.numerator, gamma.denominator
    if g * sum(sq) + (h - g) * n_pts * min(sq) < den * n_pts * h:
        raise VerificationError("recovered polynomial lacks margin")


def _ladder(f: FnTable, gamma: Fraction):
    """The ladder of threshold_degree (gamma = 0) and smooth_threshold_degree.

    Returns the value, the re-checked primal q, and the point nu of the
    last feasible level keyed by domain point (None when the value is 0).
    """
    dom = f.domain
    points = list(dom.points())
    if not points:
        raise PreconditionError("empty domain")
    signs = [(-1 if f(p) == 1 else 1) for p in points]
    n_pts = len(points)
    floor = gamma / n_pts
    rows: list[list[int]] = []  # rows[k][i] = signs[i] * table[k][i]
    nu = None
    for level, (alphas, table) in enumerate(_monomial_table(dom, points), start=1):
        rows += [[s * v for s, v in zip(signs, vals)] for vals in table[len(rows):]]
        prob = LPProblem(n_pts, nonneg=[True] * n_pts)
        for row in rows:
            prob.add(row, "==", -floor * sum(row))
        prob.add([1] * n_pts, "==", 1 - gamma)
        cert = solve(prob)
        if cert.status == "infeasible":
            # y = (z, w): s_p z(p) + w <= 0 and r = floor sum_p -s_p z(p) + (1 - gamma) w,
            # so q = -z/r has s_p q(p) >= w/r and 1 = floor sum_p s_p q(p) + (1 - gamma) w/r
            r = sum((y * F(b, d) for y, (_, _, b, d) in zip(cert.farkas, prob.rows) if y), F(0))
            primal = {a: -z / r for a, z in zip(alphas, cert.farkas) if z}
            value = level - 1
            if poly_degree(primal) > value:
                raise VerificationError("primal witness degree too high")
            _check_margin(primal, alphas, rows, gamma)
            return value, primal, nu
        nu = dict(zip(points, cert.x))
    raise ArtifactError("the full-degree level cannot be feasible")


def threshold_degree(f: FnTable) -> DegreeAnswer:
    """Least degree of a polynomial agreeing in sign with (-1)^f.

    Returns the exact value together with a margin-1 sign-representing
    polynomial at that degree and, when the value is positive, a dual
    witness: a sign-agreeing probability weighting orthogonal to every
    polynomial of lower degree.
    """
    value, primal, nu = _ladder(f, F(0))
    dual_witness: FnTable | None = None
    if nu is not None:
        dual_witness = FnTable(f.domain, nu).hadamard(sign_table(f))
        if not orth(dual_witness, cap=value - 1).ge(value):
            raise VerificationError("dual witness orthogonality failed re-check")
    return DegreeAnswer(value=value, primal=primal, dual=dual_witness)


def smooth_threshold_degree(f: FnTable, gamma: Fraction) -> DegreeAnswer:
    """Largest d witnessed by a distribution with pointwise floor gamma/|X|.

    Maximizes orth((-1)^f mu) over distributions mu >= gamma/|X| on the
    domain, by the ladder of threshold_degree; at gamma = 0 both return the
    same value, primal and dual.  The primal q certifies that no such mu does better.
    """
    gamma = F(gamma)
    if gamma < 0 or gamma > 1:
        raise PreconditionError("gamma must lie in [0, 1]")
    value, primal, nu = _ladder(f, gamma)
    best_mu: FnTable | None = None
    if nu is not None:
        floor = gamma / len(nu)
        best_mu = FnTable(f.domain, {p: floor + v for p, v in nu.items()})
        if best_mu.total() != 1 or any(best_mu(p) < floor for p in nu):
            raise VerificationError("smooth witness failed distribution re-check")
        twisted = best_mu.hadamard(sign_table(f))
        if not orth(twisted, cap=value - 1).ge(value):
            raise VerificationError("smooth witness orthogonality failed re-check")
    return DegreeAnswer(value=value, primal=primal, dual=best_mu, gamma=gamma)


@dataclass(frozen=True)
class Interval:
    """A convex subset of the line; open endpoints are realized as closed
    endpoints shifted inward by the margin parameter."""

    lo: Fraction | None = None  # None = unbounded below
    hi: Fraction | None = None
    lo_open: bool = False
    hi_open: bool = False

    def realized(self, margin: Fraction) -> tuple[Fraction | None, Fraction | None]:
        lo = self.lo + margin if (self.lo is not None and self.lo_open) else self.lo
        hi = self.hi - margin if (self.hi is not None and self.hi_open) else self.hi
        if lo is not None and hi is not None and lo > hi:
            raise PreconditionError("interval became empty after margin adjustment")
        return lo, hi

    @staticmethod
    def closed(lo, hi) -> "Interval":
        return Interval(F(lo), F(hi))

    @staticmethod
    def greater_than(a) -> "Interval":
        return Interval(F(a), None, lo_open=True)

    @staticmethod
    def less_than(a) -> "Interval":
        return Interval(None, F(a), hi_open=True)

    @staticmethod
    def everything() -> "Interval":
        return Interval(None, None)


THRESHOLD_INTERVALS = (Interval.greater_than(0), Interval.less_than(0), Interval.everything())


def approx_intervals(eps) -> tuple[Interval, Interval, Interval]:
    e = F(eps)
    return (Interval.closed(-e, e), Interval.closed(1 - e, 1 + e), Interval.closed(-e, 1 + e))


@dataclass
class PartialFn:
    """A Boolean function with don't-care points, all on a finite domain."""

    domain: Domain
    ones: frozenset[Point]
    stars: frozenset[Point] = frozenset()

    def value(self, p: Point) -> str:
        if p in self.stars:
            return "*"
        return "1" if p in self.ones else "0"


def total_fn(f: FnTable) -> PartialFn:
    return PartialFn(f.domain, frozenset(f.entries.keys()))


def _check_approx_dual(dual: FnTable, value: int,
                       ends: dict[Point, tuple[Fraction | None, Fraction | None]]) -> None:
    """Re-check the folded dual w of iii_approx_degree: orthogonal to every
    monomial of degree < value, and sum_p w_p * (lo_p if w_p > 0 else hi_p)
    > 0, so no polynomial of degree < value maps each p into [lo_p, hi_p]."""
    if not orth(dual, cap=value - 1).ge(value):
        raise VerificationError("approximation dual not orthogonal below the value")
    total = F(0)
    for p, w in dual.entries.items():
        end = ends[p][0 if w > 0 else 1]
        if end is None:
            raise VerificationError(f"approximation dual weights an unbounded end at {p}")
        total += w * end
    if total <= 0:
        raise VerificationError("approximation dual does not certify the lower bound")


def iii_approx_degree(f: PartialFn, i0: Interval, i1: Interval, istar: Interval,
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
    for d, (alphas, table) in enumerate(_monomial_table(dom, points)):
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


# ---------------------------------------------------------------- discrepancy

# rows + cols above this would make the game's rectangle enumeration too large
MAX_GAME_SIDE_SUM = 16


@dataclass
class DiscrepancyAnswer:
    value: Fraction
    distribution: list[list[Fraction]]
    best_rectangle: tuple[tuple[int, ...], tuple[int, ...]]
    rectangle_mixture_support: int


def _nonempty_subsets(k: int):
    for mask in range(1, 2 ** k):
        yield tuple(i for i in range(k) if mask >> i & 1)


def discrepancy_2party(matrix: Sequence[Sequence[int]]) -> DiscrepancyAnswer:
    """Exact minimax rectangle correlation of a sign matrix.

    Solved as a matrix game: the distribution player minimizes, the
    rectangle player (rectangles with a sign) maximizes.  The optimum is
    certified on both sides: the returned distribution is re-checked by
    enumerating every rectangle, and the rectangle mixture certifies that
    no distribution does better.
    """
    if not matrix or not matrix[0]:
        raise PreconditionError("empty matrix")
    rows = len(matrix)
    cols = len(matrix[0])
    if any(len(r) != cols for r in matrix):
        raise PreconditionError("ragged matrix")
    if any(v not in (1, -1) for r in matrix for v in r):
        raise PreconditionError("entries must be +-1")
    if rows + cols > MAX_GAME_SIDE_SUM:
        raise PreconditionError(
            "matrix too large for exact rectangle enumeration; "
            "use the closed-form evaluators in matrix_bounds instead")
    cells = [(x, y) for x in range(rows) for y in range(cols)]
    rects = [(A, B) for A in _nonempty_subsets(rows) for B in _nonempty_subsets(cols)]
    columns: list[tuple[tuple[tuple[int, ...], tuple[int, ...]], int]] = []
    for rect in rects:
        columns.append((rect, +1))
        columns.append((rect, -1))

    def payoff(col, cell) -> int:
        (A, B), sgn = col
        x, y = cell
        if x in A and y in B:
            return sgn * matrix[x][y]
        return 0

    nq = len(columns)
    prob = LPProblem(nq + 1, nonneg=[True] * nq + [False])
    for cell in cells:
        prob.add([payoff(c, cell) for c in columns] + [-1], ">=", 0)
    prob.add([1] * nq + [0], "==", 1)
    prob.objective = [0] * nq + [-1]
    cert = solve(prob)
    if cert.status != "optimal":
        raise VerificationError("game LP did not reach an optimum")
    value = cert.x[-1]
    duals = cert.duals[: len(cells)]
    total = sum(duals, F(0))
    if total == 0:
        raise VerificationError("degenerate dual distribution")
    p_flat = [d / total for d in duals]
    if any(p < 0 for p in p_flat):
        raise VerificationError("dual distribution has negative mass")
    dist = [[F(0)] * cols for _ in range(rows)]
    for (x, y), pv in zip(cells, p_flat):
        dist[x][y] = pv
    # re-check: the distribution must achieve the game value over every rectangle
    best = F(0)
    best_rect = rects[0]
    for A, B in rects:
        s = sum(dist[x][y] * matrix[x][y] for x in A for y in B)
        if abs(s) > best:
            best, best_rect = abs(s), (A, B)
    if best != value:
        raise VerificationError(f"distribution re-check mismatch: {best} vs {value}")
    support = sum(1 for q in cert.x[:nq] if q)
    return DiscrepancyAnswer(value=value, distribution=dist,
                             best_rectangle=best_rect,
                             rectangle_mixture_support=support)


# ------------------------------------------------------------------- density

# hypercube dimension above which the parity-family search is refused
MAX_DENSITY_VARS = 6


@dataclass
class DensityAnswer:
    value: int
    family: tuple[int, ...] | None  # parity supports as bitmasks
    coefficients: list[Fraction] | None
    exceeded_cap: bool


def threshold_density(f: FnTable, cap: int) -> DensityAnswer:
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


# ------------------------------------------------------- named test functions


def parity_table(n: int) -> FnTable:
    dom = hypercube(n)
    return bool_table(dom, (p for p in dom.points() if sum(p) % 2))


def and_table(n: int) -> FnTable:
    dom = hypercube(n)
    return bool_table(dom, [(1,) * n])


def or_table(n: int) -> FnTable:
    dom = hypercube(n)
    return bool_table(dom, (p for p in dom.points() if any(p)))
