"""Degree oracles: ground truth for every constructed witness.

Every oracle poses one linear program, built by _weigh: nonnegative weights
x_v on columns v = (p_v, sigma_v, e_v), each a point with a sign and an end,
and against basis functions B_k

    sum_v sigma_v B_k(p_v) x_v = -(gamma/N) sum_v sigma_v B_k(p_v)   for every k,
    sum_v e_v x_v = 1 - gamma,

N the number of columns.  A solution is the dual witness, a weighting with
floor gamma/N, twisted by the signs, orthogonal to the basis.  Otherwise
the Farkas vector (z, w) gives q = -z/r, r > 0 its combination of the
right-hand sides, with

    (gamma/N) sum_v sigma_v q(p_v) + (1 - gamma) min_v (sigma_v q(p_v) - e_v) >= gamma,

re-checked in integers; at gamma = 0 it reads sigma_v q(p_v) >= e_v.

- Threshold degree (gamma = 0) and gamma-smooth threshold degree: one
  column (p, s_p, 1) per point, s = (-1)^f, and at level L of the ladder
  the monomials of degree < L as the basis.  The last feasible level,
  L = value, gives the dual witness, the first infeasible one a q of degree
  <= value (a margin-1 sign representation at gamma = 0).
- Interval approximate degree: the same ladder at gamma = 0, with columns
  (p, +1, lo_p) and (p, -1, -hi_p) for the finite ends of p's interval, so
  q maps every point into its interval; the dual sums sigma_v x_v per point.
- Threshold density: per parity family, one column (pattern, +1, 1) per
  distinct sign pattern against the family's characters, so q is a
  coefficient vector with pattern . q >= 1.

Both artifacts of every answer are re-checked before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .core import (
    Domain,
    FnTable,
    eval_monomial,
    hypercube,
    monomial_table,
    orth,
)
from .errors import ArtifactError, PreconditionError, VerificationError
from .lp import LPProblem, solve

F = Fraction

Point = tuple[int, ...]

# (point, sign, end) of one weight in _weigh's program
Column = tuple[Point, int, Fraction]


def bool_table(domain: Domain, ones: Iterable[Point]) -> FnTable:
    """A Boolean function as an FnTable storing its 1-points."""
    return FnTable(domain, {tuple(p): F(1) for p in ones})


def sign_table(f: FnTable) -> FnTable:
    """(-1)^f over the whole domain of a Boolean table."""
    out = {}
    for p in f.domain.points():
        out[p] = F(-1) if f(p) == 1 else F(1)
    return FnTable(f.domain, out, _trusted=True)


@dataclass
class DegreeAnswer:
    value: int
    # exponent vector -> coefficient of q, deg q <= value.  Threshold and smooth:
    # (gamma/|X|) sum_p s_p q(p) + (1 - gamma) min_p s_p q(p) >= 1, gamma None
    # read as 0; iii: q maps each point into its interval
    primal: dict[Point, Fraction] | None
    dual: FnTable | None
    gamma: Fraction | None = None


def eval_poly(coeffs: dict[Point, Fraction], p: Point) -> Fraction:
    acc = F(0)
    for alpha, c in coeffs.items():
        if c:
            acc += c * eval_monomial(p, alpha)
    return acc


def _check_primal(q: list[Fraction], rows: list[list[int]], ends: list[Fraction],
                  gamma: Fraction) -> None:
    """Re-check (gamma/N) sum_v sigma_v q(p_v) + (1 - gamma) min_v (sigma_v
    q(p_v) - e_v) >= gamma in integers, with rows[k][v] = sigma_v B_k(p_v):
    sq_v = den * sigma_v q(p_v) and e_v = es_v / de over common denominators."""
    den = lcm(*[c.denominator for c in q])
    sq = [0] * len(ends)
    for c, row in zip(q, rows):
        if c:
            k = c.numerator * (den // c.denominator)
            sq = [a + k * v for a, v in zip(sq, row)]
    de = lcm(*[e.denominator for e in ends])
    es = [e.numerator * (de // e.denominator) for e in ends]
    g, h = gamma.numerator, gamma.denominator
    n = len(ends) or 1
    slack = min((de * a - den * e for a, e in zip(sq, es)), default=0)
    if g * de * sum(sq) + (h - g) * n * slack < g * n * den * de:
        raise VerificationError("recovered polynomial lacks margin")


def _weigh(rows: list[list[int]], ends: list[Fraction], gamma: Fraction
           ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """The program of the module docstring, rows[k][v] = sigma_v B_k(p_v)
    and ends[v] = e_v.  Returns (x, None) when it is feasible, and else
    (None, q) with q[k] the coefficient of B_k, re-checked by _check_primal."""
    floor = F(gamma, len(ends) or 1)
    prob = LPProblem(len(ends))
    for row in rows:
        prob.add(row, "==", -floor * sum(row))
    prob.add(ends, "==", 1 - gamma)
    cert = solve(prob)
    if cert.status != "infeasible":
        return cert.x, None
    # y = (z, w): sigma_v z(p_v) + e_v w <= 0 and r = sum_i y_i b_i, so q = -z/r
    # has sigma_v q(p_v) >= e_v w/r and (gamma/N) sum_v sigma_v q(p_v) = 1 - (1 - gamma) w/r
    r = sum((y * F(b, d) for y, (_, _, b, d) in zip(cert.farkas, prob.rows) if y), F(0))
    q = [-z / r for z in cert.farkas[:-1]]
    _check_primal(q, rows, ends, gamma)
    return None, q


def _ladder(domain: Domain, columns: list[Column], gamma: Fraction):
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
        weights, q = _weigh(rows, ends, gamma)
        if q is not None:
            primal = {a: c for a, c in zip(alphas, q) if c}
            return level - 1, primal, x
        x = weights
    raise ArtifactError("the full-degree level cannot be feasible")


def _points(domain: Domain) -> list[Point]:
    points = list(domain.points())
    if not points:
        raise PreconditionError("empty domain")
    return points


def _sign_columns(f: FnTable) -> list[Column]:
    return [(p, -1 if f(p) == 1 else 1, F(1)) for p in _points(f.domain)]


def _fold(domain: Domain, columns: list[Column], x: list[Fraction]) -> FnTable:
    """sum_v sigma_v x_v at each point."""
    out: dict[Point, Fraction] = {}
    for (p, s, _), w in zip(columns, x):
        out[p] = out.get(p, F(0)) + s * w
    return FnTable(domain, out)


def threshold_degree(f: FnTable) -> DegreeAnswer:
    """Least degree of a polynomial agreeing in sign with (-1)^f.

    Returns the exact value together with a margin-1 sign-representing
    polynomial at that degree and, when the value is positive, a dual
    witness: a sign-agreeing probability weighting orthogonal to every
    polynomial of lower degree.
    """
    columns = _sign_columns(f)
    value, primal, x = _ladder(f.domain, columns, F(0))
    dual_witness: FnTable | None = None
    if x is not None:
        dual_witness = _fold(f.domain, columns, x)
        if orth(dual_witness, cap=value - 1) is not None:
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
    columns = _sign_columns(f)
    value, primal, x = _ladder(f.domain, columns, gamma)
    best_mu: FnTable | None = None
    if x is not None:
        floor = gamma / len(columns)
        best_mu = FnTable(f.domain, {p: floor + v for (p, _, _), v in zip(columns, x)})
        if best_mu.total() != 1 or any(best_mu(p) < floor for p, _, _ in columns):
            raise VerificationError("smooth witness failed distribution re-check")
        twisted = best_mu.hadamard(sign_table(f))
        if orth(twisted, cap=value - 1) is not None:
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
    if orth(dual, cap=value - 1) is not None:
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
    (the last feasible level's weights summed per point) is re-checked
    before being returned.
    """
    margin = F(margin)
    bands = {"0": i0.realized(margin), "1": i1.realized(margin), "*": istar.realized(margin)}
    ends = {p: bands[f.value(p)] for p in _points(f.domain)}
    columns: list[Column] = []
    for p, (lo, hi) in ends.items():
        if lo is not None:
            columns.append((p, 1, lo))
        if hi is not None:
            columns.append((p, -1, -hi))
    value, primal, x = _ladder(f.domain, columns, F(0))
    dual = None
    if x is not None:
        dual = _fold(f.domain, columns, x)
        _check_approx_dual(dual, value, ends)
    return DegreeAnswer(value=value, primal=primal, dual=dual)


# ---------------------------------------------------------------- discrepancy

# rows + cols above this would make the game's rectangle enumeration too large
MAX_GAME_SIDE_SUM = 16


Rectangle = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class DiscrepancyAnswer:
    value: Fraction
    distribution: list[list[Fraction]]
    best_rectangle: Rectangle
    # (rectangle, sign) -> weight: pays at least value on every cell
    mixture: dict[tuple[Rectangle, int], Fraction]


def _nonempty_subsets(k: int):
    for mask in range(1, 2 ** k):
        yield tuple(i for i in range(k) if mask >> i & 1)


def _check_mixture(matrix: Sequence[Sequence[int]],
                   mixture: dict[tuple[Rectangle, int], Fraction], value: Fraction) -> None:
    """Re-check that the mixture is a distribution over signed rectangles
    paying at least value on every cell, sum w * sign * matrix[x][y] over the
    rectangles holding (x, y).  Averaging over it, every distribution on the
    cells has a signed rectangle of correlation >= value."""
    if any(w < 0 for w in mixture.values()) or sum(mixture.values()) != 1:
        raise VerificationError("rectangle mixture is not a distribution")
    for x, row in enumerate(matrix):
        for y, m in enumerate(row):
            pay = sum(w * sgn for ((A, B), sgn), w in mixture.items() if x in A and y in B)
            if pay * m < value:
                raise VerificationError(f"rectangle mixture pays less than the value at {(x, y)}")


def discrepancy_2party(matrix: Sequence[Sequence[int]]) -> DiscrepancyAnswer:
    """Exact minimax rectangle correlation of a sign matrix.

    Solved as a matrix game: the distribution player minimizes, the
    rectangle player (rectangles with a sign) maximizes.  The optimum is
    certified on both sides: the returned distribution is re-checked by
    enumerating every rectangle, and the returned rectangle mixture, which
    pays at least the value on every cell, is re-checked to certify that no
    distribution does better.  The value is positive (the uniform mixture of
    singletons signed like the matrix pays on every cell), so the LP
    variable v that holds it is nonnegative like the weights.
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
    columns: list[tuple[Rectangle, int]] = []
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
    prob = LPProblem(nq + 1)
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
    mixture = {col: w for col, w in zip(columns, cert.x) if w}
    _check_mixture(matrix, mixture, value)
    return DiscrepancyAnswer(value=value, distribution=dist,
                             best_rectangle=best_rect, mixture=mixture)


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

    Searches set families in increasing size.  A family without an
    antipodal pair of sign patterns is tested by _weigh, one column per
    distinct pattern against the family's characters; its Farkas vector, if
    any, gives the coefficients.  Returns cap+1 with exceeded_cap=True when
    every family of size <= cap fails.
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
            cols = sorted(patterns)
            _, q = _weigh([*zip(*cols)], [F(1)] * len(cols), F(0))
            if q is not None:
                return DensityAnswer(value=k, family=family,
                                     coefficients=q, exceeded_cap=False)
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
