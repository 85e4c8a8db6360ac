"""Degree oracles: ground truth for every constructed witness.

Every oracle poses one linear program, built by _weigh: nonnegative weights
x_v on columns v = (p_v, sigma_v, e_v), each a point with a sign and an end
and a size m_v >= 1, and against basis functions B_k

    sum_v sigma_v B_k(p_v) x_v = -(gamma/M) sum_v m_v sigma_v B_k(p_v)   for every k,
    sum_v e_v x_v = 1 - gamma,

M = sum_v m_v.  A solution is the dual witness, a weighting with floor
gamma m_v/M on column v, twisted by the signs, orthogonal to the basis.
Otherwise the Farkas vector (z, w) gives q = -z/r, r > 0 its combination of
the right-hand sides, with

    (gamma/M) sum_v m_v sigma_v q(p_v) + (1 - gamma) min_v (sigma_v q(p_v) - e_v) >= gamma,

re-checked in integers; at gamma = 0 it reads sigma_v q(p_v) >= e_v.

The degree oracles share one ladder, run on the orbits of the table's twin
coordinates (Minsky-Papert symmetrization).  Only coordinates of bound 1
and offset 0 can be twins: i and j are twins when swapping them leaves the
table's labels unchanged.  Twins form classes, and the orbit of a point is
the set of points with the same weight on every class.  A column is an
orbit with its size, m_v = |orbit|, so its floor is gamma |orbit|/|X|, and
the basis is the monomials in the class weights.  Averaging a cube witness
or polynomial over the class permutations gives one on the orbits of no
larger degree, so every level is that of the cube.  A table without twins
has one-point orbits and poses the cube's programs.  Each answer is lifted
back and re-checked on the cube: the dual spreads each orbit's weight
evenly over it, and q is expanded through k^b = sum_j S(b, j) j! e_j(x)
over each class's coordinates and re-checked by _check_primal on the cube.

- Threshold degree (gamma = 0) and gamma-smooth threshold degree: one
  column (p, s_p, 1) per point, s = (-1)^f, and at level L of the ladder
  the monomials of degree < L as the basis.  The last feasible level,
  L = value, gives the dual witness, the first infeasible one a q of degree
  <= value (a margin-1 sign representation at gamma = 0).
- Interval approximate degree: the same ladder at gamma = 0, with columns
  (p, +1, lo_p) and (p, -1, -hi_p) for the finite ends of p's interval, so
  q maps every point into its interval; the dual sums sigma_v x_v per point.
- Threshold density: per parity family, one column (pattern, +1, 1) of size
  1 per distinct sign pattern against the family's characters, so q is a
  coefficient vector with pattern . q >= 1.

Both artifacts of every answer are re-checked before being returned.  The
degree and density oracles take Boolean tables, which store only the value 1.
`twist` is the one sign twist (-1)^f mu of a table by a Boolean table: it
flips mu's sign at f's 1-points and builds no +-1 table.  Every witness
re-check in the library reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .core import (
    Domain,
    FnTable,
    _monomial_rows,
    as_rat,
    cleared,
    eval_monomial,
    hypercube,
    lift_symmetric_to_cube,
    orbit_sizes,
    orth,
)
from .errors import ArtifactError, PreconditionError, VerificationError
from .lp import LPProblem, solve

F = Fraction

Point = tuple[int, ...]

# (point, sign, end) of one weight in _weigh's program
Column = tuple[Point, int, Fraction]

Blocks = tuple[tuple[int, ...], ...]

# a Boolean table's (sign, end) columns at its 0- and 1-points
_SIGN_COLUMNS = ([(1, F(1))], [(-1, F(1))])


def bool_table(domain: Domain, ones: Iterable[Point]) -> FnTable:
    """A Boolean function as an FnTable storing its 1-points, which share
    one value 1; a point outside the domain raises PreconditionError."""
    entries = dict.fromkeys(map(tuple, ones), F(1))
    for p in entries:
        if not domain.contains(p):
            raise PreconditionError(f"point {p} outside domain {domain}")
    return FnTable(domain, entries, _trusted=True)


def _boolean(f: FnTable) -> FnTable:
    if any(v != 1 for v in f.entries.values()):
        raise PreconditionError("a Boolean table stores only the value 1")
    return f


def twist(mu: FnTable, f: FnTable) -> FnTable:
    """(-1)^f mu on mu's domain: mu with its sign flipped at the 1-points of
    the Boolean table f.  Support of mu outside f's domain raises
    PreconditionError."""
    ones = _boolean(f).entries
    if mu.domain != f.domain and not all(map(f.domain.contains, mu.entries)):
        raise PreconditionError("support outside the domain of the Boolean table")
    return FnTable(mu.domain, {p: -v if p in ones else v for p, v in mu.entries.items()},
                   _trusted=True)


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
    return sum((c * eval_monomial(p, alpha) for alpha, c in coeffs.items() if c), F(0))


def _check_primal(q: list[Fraction], rows: list[list[int]], ends: list[Fraction],
                  gamma: Fraction) -> None:
    """Re-check (gamma/N) sum_v sigma_v q(p_v) + (1 - gamma) min_v (sigma_v
    q(p_v) - e_v) >= gamma in integers, with rows[k][v] = sigma_v B_k(p_v):
    sq_v = den * sigma_v q(p_v) and e_v = es_v / de over common denominators."""
    qs, den = cleared(q)
    sq = [0] * len(ends)
    for k, row in zip(qs, rows):
        if k:
            sq = [a + k * v for a, v in zip(sq, row)]
    es, de = cleared(ends)
    g, h = gamma.numerator, gamma.denominator
    n = len(ends) or 1
    slack = min((de * a - den * e for a, e in zip(sq, es)), default=0)
    if g * de * sum(sq) + (h - g) * n * slack < g * n * den * de:
        raise VerificationError("recovered polynomial lacks margin")


def _weigh(rows: list[list[int]], rhs: list[Fraction], ends: list[Fraction], gamma: Fraction
           ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """The program of the module docstring, rows[k][v] = sigma_v B_k(p_v),
    rhs[k] = -(gamma/M) sum_v m_v rows[k][v] and ends[v] = e_v.  Returns
    (x, None) when it is feasible, and else (None, q) with q[k] the
    coefficient of B_k; the caller re-checks q by _check_primal."""
    prob = LPProblem(len(ends))
    for row, b in zip(rows, rhs):
        prob.add(row, b)
    prob.add(ends, 1 - gamma)
    cert = solve(prob)
    if cert.status != "infeasible":
        return cert.x, None
    # y = (z, w): sigma_v z(p_v) + e_v w <= 0 and r = sum_i y_i b_i, so q = -z/r
    # has sigma_v q(p_v) >= e_v w/r and (gamma/M) sum_v m_v sigma_v q(p_v) = 1 - (1 - gamma) w/r
    r = sum((y * F(b, d) for y, (_, b, d) in zip(cert.farkas, prob.rows) if y), F(0))
    return None, [-z / r for z in cert.farkas[:-1]]


def _twin_classes(labels: FnTable) -> Blocks:
    """The classes of twin coordinates of a table (module docstring), each
    ascending, ordered by their least coordinate."""
    dom = labels.domain
    groups: dict[tuple[int, int], set[Point]] = {}
    for p, v in labels.entries.items():
        groups.setdefault((v.numerator, v.denominator), set()).add(p)

    def twins(i: int, j: int) -> bool:
        # the swap maps every label's points into themselves
        for group in groups.values():
            for p in group:
                if p[i] != p[j]:
                    q = list(p)
                    q[i], q[j] = p[j], p[i]
                    if tuple(q) not in group:
                        return False
        return True

    binary = [b == 1 and o == 0 for b, o in zip(dom.bounds, dom.offset)]
    classes: list[list[int]] = []
    for i in range(dom.n):
        for c in classes:
            if binary[i] and binary[c[0]] and twins(c[0], i):
                c.append(i)
                break
        else:
            classes.append([i])
    return tuple(map(tuple, classes))


@cache
def _power_terms(blk: tuple[int, ...], b: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """k^b = sum_j S(b, j) j! e_j(x) for the weight k of the 0/1 coordinates
    blk, as (coordinates of one term of e_j, S(b, j) j!) pairs; S(b, j) j!
    counts the maps from b things onto j things."""
    terms = []
    for j in range(min(b, len(blk)) + 1):
        onto = sum((-1) ** i * comb(j, i) * (j - i) ** b for i in range(j + 1))
        if onto:
            terms += [(ones, onto) for ones in itertools.combinations(blk, j)]
    return tuple(terms)


def _expand(coeffs: dict[Point, Fraction], classes: Blocks, n: int) -> dict[Point, Fraction]:
    """A polynomial in the class weights as one in the n coordinates: a
    class of one coordinate keeps its exponent, and a class of several is
    expanded by _power_terms."""
    single = [(k, blk[0]) for k, blk in enumerate(classes) if len(blk) == 1]
    multi = [(k, blk) for k, blk in enumerate(classes) if len(blk) > 1]
    out: dict[Point, Fraction] = {}
    for alpha, c in coeffs.items():
        base = [0] * n
        for k, i in single:
            base[i] = alpha[k]
        for pick in itertools.product(*[_power_terms(blk, alpha[k]) for k, blk in multi]):
            e = base[:]
            m = 1
            for ones, onto in pick:
                m *= onto
                for i in ones:
                    e[i] = 1
            e = tuple(e)
            term = c * m if m != 1 else c
            prev = out.get(e)
            out[e] = term if prev is None else prev + term
    return {e: c for e, c in out.items() if c}


def _columns(labels: FnTable, points: Iterable[Point],
             label_columns: Sequence[list[tuple[int, Fraction]]]) -> list[Column]:
    """The columns (p, sign, end) of each point p: those of label_columns[a]
    at a point labelled a (labels are small nonnegative integers)."""
    columns = []
    for p in points:
        label = labels.entries.get(p)
        columns += [(p, s, e) for s, e in label_columns[0 if label is None else label.numerator]]
    return columns


def _ladder(labels: FnTable, label_columns: Sequence[list[tuple[int, Fraction]]],
            gamma: Fraction) -> tuple[int, dict[Point, Fraction], FnTable | None]:
    """_weigh against the monomials of degree < L at levels L = 1, 2, ...,
    on the orbits of the twin classes of labels; an orbit labelled a has
    the columns (sign, end) of label_columns[a].

    Returns the value, the primal q of the first infeasible level expanded
    to the coordinates and re-checked at every point, and the dual
    sum_v sigma_v x_v of the last feasible level spread evenly over each
    orbit (None when the value is 0).
    """
    dom = labels.domain
    points = _points(dom)
    classes = _twin_classes(labels)
    # twins leave the labels unchanged, so every point of an orbit has one
    # label: the orbit table looks it up at the orbit's class weights
    out: dict[Point, Fraction] = {}
    for p, v in labels.entries.items():
        out.setdefault(tuple([sum([p[i] for i in blk]) for blk in classes]), v)
    wdom = Domain(tuple(sum(dom.bounds[i] for i in blk) for blk in classes),
                  tuple(sum(dom.offset[i] for i in blk) for blk in classes), dom.window)
    orbits = FnTable(wdom, out, _trusted=True)
    counts = list(orbits.domain.points())
    size = dict(zip(counts, orbit_sizes(classes, counts)))
    columns = _columns(orbits, counts, label_columns)
    sizes = [size[t] for t, _, _ in columns]
    ends = [e for _, _, e in columns]
    floor = F(gamma, sum(sizes) or 1)
    alphas: list[Point] = []
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    x = None
    monomial_rows = _monomial_rows(wdom.bounds, [t for t, _, _ in columns],
                                   [s for _, s, _ in columns], sum(wdom.bounds))
    for level, (_, group) in enumerate(itertools.groupby(monomial_rows, key=itemgetter(0)),
                                       start=1):
        for _, alpha, row in group:
            alphas.append(alpha)
            rows.append(row)
            rhs.append(-floor * sum(map(mul, sizes, row)) if floor else 0)
        weights, q = _weigh(rows, rhs, ends, gamma)
        if q is not None:
            primal = _expand({a: c for a, c in zip(alphas, q) if c}, classes, dom.n)
            cube = _columns(labels, points, label_columns)
            found = {a: row for _, a, row in _monomial_rows(
                dom.bounds, [p for p, _, _ in cube], [s for _, s, _ in cube],
                max(map(sum, primal), default=0)) if a in primal}
            _check_primal(list(primal.values()), [found[a] for a in primal],
                          [e for _, _, e in cube], gamma)
            dual = None
            if x is not None:
                dual = lift_symmetric_to_cube(_fold(orbits.domain, columns, x), classes)
            return level - 1, primal, dual
        x = weights
    raise ArtifactError("the full-degree level cannot be feasible")


def _points(domain: Domain) -> list[Point]:
    points = list(domain.points())
    if not points:
        raise PreconditionError("empty domain")
    return points


def _fold(domain: Domain, columns: list[Column], x: list[Fraction]) -> FnTable:
    """sum_v sigma_v x_v at each point, the points those of the columns."""
    out: dict[Point, Fraction] = {}
    for (p, s, _), w in zip(columns, x):
        if w:
            w = w if s > 0 else -w
            prev = out.get(p)
            out[p] = w if prev is None else prev + w
    return FnTable(domain, {p: w for p, w in out.items() if w}, _trusted=True)


def threshold_degree(f: FnTable) -> DegreeAnswer:
    """Least degree of a polynomial agreeing in sign with (-1)^f.

    Returns the exact value together with a margin-1 sign-representing
    polynomial at that degree and, when the value is positive, a dual
    witness: a sign-agreeing probability weighting orthogonal to every
    polynomial of lower degree.
    """
    value, primal, dual = _ladder(_boolean(f), _SIGN_COLUMNS, F(0))
    if dual is not None and orth(dual, cap=value - 1) is not None:
        raise VerificationError("dual witness orthogonality failed re-check")
    return DegreeAnswer(value=value, primal=primal, dual=dual)


def check_smooth_witness(f: FnTable, mu: FnTable, gamma: Fraction, d: int) -> None:
    """Re-check that mu witnesses gamma-smooth threshold degree >= d for the
    Boolean table f: a probability distribution on f's domain with floor
    gamma/|X| at every point, whose twist by (-1)^f is orthogonal to every
    polynomial of degree < d.  Raises VerificationError otherwise."""
    _boolean(f)
    points = _points(mu.domain)
    floor = gamma / len(points)
    w = mu.entries
    if sum(w.values()) != 1 or any(w.get(p, 0) < floor for p in points):
        raise VerificationError("smooth witness failed distribution re-check")
    if d > 0 and orth(twist(mu, f), cap=d - 1) is not None:
        raise VerificationError("smooth witness orthogonality failed re-check")


def smooth_threshold_degree(f: FnTable, gamma: Fraction) -> DegreeAnswer:
    """Largest d witnessed by a distribution with pointwise floor gamma/|X|.

    Maximizes orth((-1)^f mu) over distributions mu >= gamma/|X| on the
    domain, by the ladder of threshold_degree; at gamma = 0 both return the
    same value, primal and dual.  The primal q certifies that no such mu does better.
    """
    gamma = as_rat(gamma)
    if gamma < 0 or gamma > 1:
        raise PreconditionError("gamma must lie in [0, 1]")
    value, primal, dual = _ladder(_boolean(f), _SIGN_COLUMNS, gamma)
    best_mu: FnTable | None = None
    if dual is not None:
        points = _points(f.domain)
        floor = gamma / len(points)
        # dual = s_p x_p with x_p >= 0, and mu = floor + x
        w = dual.entries
        mu = {p: floor - w.get(p, 0) if p in f.entries else floor + w.get(p, 0) for p in points}
        best_mu = FnTable(f.domain, {p: v for p, v in mu.items() if v}, _trusted=True)
        check_smooth_witness(f, best_mu, gamma, value)
    return DegreeAnswer(value=value, primal=primal, dual=best_mu, gamma=gamma)


@dataclass(frozen=True)
class Interval:
    """A convex subset of the line; open endpoints are realized as closed
    endpoints shifted inward by the margin parameter."""

    lo: Fraction | None = None  # None = unbounded below
    hi: Fraction | None = None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        for end in ("lo", "hi"):
            if getattr(self, end) is not None:
                object.__setattr__(self, end, as_rat(getattr(self, end)))

    def realized(self, margin: Fraction) -> tuple[Fraction | None, Fraction | None]:
        lo = self.lo + margin if (self.lo is not None and self.lo_open) else self.lo
        hi = self.hi - margin if (self.hi is not None and self.hi_open) else self.hi
        if lo is not None and hi is not None and lo > hi:
            raise PreconditionError("interval became empty after margin adjustment")
        return lo, hi

    @staticmethod
    def closed(lo, hi) -> "Interval":
        return Interval(lo, hi)

    @staticmethod
    def greater_than(a) -> "Interval":
        return Interval(a, None, lo_open=True)

    @staticmethod
    def less_than(a) -> "Interval":
        return Interval(None, a, hi_open=True)

    @staticmethod
    def everything() -> "Interval":
        return Interval(None, None)


THRESHOLD_INTERVALS = (Interval.greater_than(0), Interval.less_than(0), Interval.everything())


def approx_intervals(eps) -> tuple[Interval, Interval, Interval]:
    e = as_rat(eps)
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
    margin = as_rat(margin)
    bands = {"0": i0.realized(margin), "1": i1.realized(margin), "*": istar.realized(margin)}
    ends = {p: bands[f.value(p)] for p in _points(f.domain)}
    # label 0, 1, 2 at the 0-, 1- and star-points: a column per finite end
    label_columns = []
    for lo, hi in (bands["0"], bands["1"], bands["*"]):
        label_columns.append(([(1, lo)] if lo is not None else [])
                             + ([(-1, -hi)] if hi is not None else []))
    labels = FnTable(f.domain, {**dict.fromkeys(f.ones, 1), **dict.fromkeys(f.stars, 2)})
    value, primal, dual = _ladder(labels, label_columns, F(0))
    if dual is not None:
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
    variable v that holds it is nonnegative like the weights, and at most 1,
    so the objective -v is bounded.
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
            "matrix too large for exact rectangle enumeration: rows + columns = "
            f"{rows + cols} exceeds {MAX_GAME_SIDE_SUM}")
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

    # variables: the column weights, v at nq, and one surplus per cell, so
    # that cell i's row reads pay_i - v - surplus_i == 0
    nq, nc = len(columns), len(cells)
    prob = LPProblem(nq + 1 + nc)
    for i, cell in enumerate(cells):
        surplus = [0] * nc
        surplus[i] = -1
        prob.add([payoff(c, cell) for c in columns] + [-1] + surplus, 0)
    prob.add([1] * nq + [0] * (1 + nc), 1)
    prob.objective = [0] * nq + [-1] + [0] * nc
    cert = solve(prob)
    if cert.status != "optimal":
        raise VerificationError("game LP did not reach an optimum")
    value = cert.x[nq]
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
    dom = _boolean(f).domain
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
            rows, ends = [*zip(*cols)], [F(1)] * len(cols)
            _, q = _weigh(rows, [0] * len(rows), ends, F(0))
            if q is not None:
                _check_primal(q, rows, ends, F(0))
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
