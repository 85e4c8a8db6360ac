"""Exact arithmetic core.

Finite integer domains (boxes, hypercubes, weight slices), finitely
supported rational-valued tables on them, orthogonal content, and
symmetrization.  Everything is exact: values are `fractions.Fraction`
and no operation rounds.  Every linear combination of tables, `scale`,
`+` and `-` included, is one `combine`: each term is cleared once to
integer numerators over its least common denominator (`cleared`), each
point sums ints over the lcm of the term denominators, and one Fraction
is built per point that does not cancel.  Totals and l1 norms clear
their table once too.  Tensor products are `mixtures.ProductMixture`
terms, expanded by its `densify`; sign twists are `oracles.twist`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul, sub
from typing import Iterable, Iterator, Mapping

from .errors import PreconditionError

Point = tuple[int, ...]

_ZERO = Fraction(0)  # an FnTable's value at every absent point


def as_rat(x) -> Fraction:
    """x as a Fraction; only ints and Fractions are exact inputs, and
    anything else (a float or a bool in particular) raises
    PreconditionError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise PreconditionError(f"not an exact rational: {x!r}")


def as_int(x) -> int:
    """x itself when it is an int; anything else, a bool or a float
    included, raises PreconditionError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise PreconditionError(f"not an integer: {x!r}")


@dataclass(frozen=True)
class Domain:
    """A finite set of integer points.

    Coordinate i ranges over offset[i] .. offset[i] + bounds[i].  When a
    weight window (lo, hi) is present, only points whose coordinate sum
    lies in [lo, hi] belong to the domain.  Enumeration is lexicographic
    on the point vectors, so iteration order is deterministic.
    """

    bounds: tuple[int, ...]
    offset: tuple[int, ...] = ()
    window: tuple[int, int] | None = None

    def __post_init__(self):
        if not self.bounds:
            raise PreconditionError("domain needs at least one coordinate")
        if any(b < 0 for b in self.bounds):
            raise PreconditionError("coordinate bounds must be nonnegative")
        if not self.offset:
            object.__setattr__(self, "offset", (0,) * len(self.bounds))
        if len(self.offset) != len(self.bounds):
            raise PreconditionError("offset/bounds dimension mismatch")
        if any(o < 0 for o in self.offset):
            raise PreconditionError("offsets must be nonnegative")
        if self.window is not None:
            lo, hi = self.window
            if lo > hi:
                raise PreconditionError("empty weight window")

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def is_hypercube(self) -> bool:
        return (
            all(b == 1 for b in self.bounds)
            and all(o == 0 for o in self.offset)
            and self.window is None
        )

    def contains(self, p: Point) -> bool:
        if len(p) != self.n:
            return False
        for x, o, b in zip(p, self.offset, self.bounds):
            if x < o or x > o + b:
                return False
        if self.window is not None:
            w = sum(p)
            if w < self.window[0] or w > self.window[1]:
                return False
        return True

    def points(self) -> Iterator[Point]:
        ranges = [range(o, o + b + 1) for o, b in zip(self.offset, self.bounds)]
        if self.window is None:
            yield from itertools.product(*ranges)
        else:
            lo, hi = self.window
            for p in itertools.product(*ranges):
                if lo <= sum(p) <= hi:
                    yield p

    def size(self) -> int:
        """Exact point count, via a weight-profile convolution when sliced."""
        if self.window is None:
            n = 1
            for b in self.bounds:
                n *= b + 1
            return n
        # counts[w] = number of points of weight w, built coordinate by coordinate
        counts = {0: 1}
        for o, b in zip(self.offset, self.bounds):
            nxt: dict[int, int] = {}
            for w, c in counts.items():
                for v in range(o, o + b + 1):
                    nxt[w + v] = nxt.get(w + v, 0) + c
            counts = nxt
        lo, hi = self.window
        return sum(c for w, c in counts.items() if lo <= w <= hi)


def hypercube(n: int) -> Domain:
    return Domain((1,) * n)


def box(bounds: Iterable[int]) -> Domain:
    return Domain(tuple(bounds))


def weight_slice(base: Domain, lo: int, hi: int) -> Domain:
    """Restrict a box or hypercube to points of weight in [lo, hi]."""
    if base.window is not None:
        lo, hi = max(lo, base.window[0]), min(hi, base.window[1])
    return Domain(base.bounds, base.offset, (lo, hi))


def cleared(values) -> tuple[list[int], int]:
    """Integer numerators of rationals (ints or Fractions), in order, over
    their least common positive denominator: (nums, den), each value being
    its num / den.  `values` is read twice, so it must not be an iterator."""
    # unpack a list: a generator would leave odd-sized tuples in CPython's free lists
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def combine(domain: Domain, terms: Iterable[tuple[object, Mapping[Point, Fraction]]]) -> "FnTable":
    """The table sum_i c_i * entries_i on `domain`, for (c_i, entries_i) in
    `terms`; each c_i passes `as_rat`.  Points are not checked against the
    domain: callers that need the check construct a validating FnTable.

    Each term c * entries is cleared once to integer numerators over one
    denominator, every point accumulates an int over the lcm of the term
    denominators, and exactly one Fraction is built per point that does
    not cancel to zero."""
    parts = []
    for c, entries in terms:
        c = as_rat(c)
        if c and entries:
            nums, den = cleared(list(entries.values()))
            parts.append((entries, c.numerator, c.denominator * den, nums))
    den = lcm(*[d for _, _, d, _ in parts])
    acc: dict[Point, int] = {}
    get = acc.get
    for entries, cn, d, nums in parts:
        k = cn * (den // d)
        for p, v in zip(entries, nums):
            acc[p] = get(p, 0) + k * v
    return FnTable(domain, {p: Fraction(v, den) for p, v in acc.items() if v}, _trusted=True)


class FnTable:
    """A finitely supported map from domain points to exact rationals.

    Absent points are zero.  Stored values are nonzero.  Instances are
    treated as immutable; all operations return new tables.
    """

    __slots__ = ("domain", "entries")

    def __init__(self, domain: Domain, entries: Mapping[Point, Fraction] | None = None,
                 *, _trusted: bool = False):
        self.domain = domain
        if entries is None:
            entries = {}
        if _trusted:
            self.entries = dict(entries)
        else:
            clean: dict[Point, Fraction] = {}
            for p, v in entries.items():
                p = tuple(p)
                v = as_rat(v)
                if v == 0:
                    continue
                if not domain.contains(p):
                    raise PreconditionError(f"point {p} outside domain {domain}")
                clean[p] = v
            self.entries = clean

    def __call__(self, p: Point) -> Fraction:
        return self.entries.get(tuple(p), _ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FnTable)
            and self.domain == other.domain
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("FnTable is not hashable")

    def __repr__(self) -> str:
        return f"FnTable(dim={self.domain.n}, support={len(self.entries)})"

    def is_zero(self) -> bool:
        return not self.entries

    def l1(self) -> Fraction:
        nums, den = cleared(list(self.entries.values()))
        return Fraction(sum(map(abs, nums)), den)

    def total(self) -> Fraction:
        nums, den = cleared(list(self.entries.values()))
        return Fraction(sum(nums), den)

    def is_nonnegative(self) -> bool:
        return all(v > 0 for v in self.entries.values())

    def is_distribution(self) -> bool:
        return self.is_nonnegative() and self.total() == 1

    def scale(self, a) -> "FnTable":
        return combine(self.domain, [(a, self.entries)])

    def __neg__(self) -> "FnTable":
        return self.scale(-1)

    def _merge(self, other: "FnTable", sign: int) -> "FnTable":
        if self.domain.n != other.domain.n:
            raise PreconditionError("dimension mismatch")
        dom = self.domain if self.domain == other.domain else merge_domains(self.domain, other.domain)
        out = combine(dom, [(1, self.entries), (sign, other.entries)])
        if dom is not self.domain:
            for p in out.entries:
                if not dom.contains(p):
                    raise PreconditionError(f"point {p} outside merged domain")
        return out

    def __add__(self, other: "FnTable") -> "FnTable":
        return self._merge(other, +1)

    def __sub__(self, other: "FnTable") -> "FnTable":
        return self._merge(other, -1)

    def restrict_weight(self, lo: int | None = None, hi: int | None = None) -> "FnTable":
        """Keep only support points whose weight lies in [lo, hi]."""
        out = {p: v for p, v in self.entries.items()
               if (lo is None or sum(p) >= lo) and (hi is None or sum(p) <= hi)}
        return FnTable(self.domain, out, _trusted=True)

    def mass(self, lo: int | None = None, hi: int | None = None) -> Fraction:
        """Sum of values over support points with weight in [lo, hi]."""
        return self.restrict_weight(lo, hi).total()


def merge_domains(a: Domain, b: Domain) -> Domain:
    """Smallest common box for tables that live on different boxes."""
    if a.n != b.n:
        raise PreconditionError("dimension mismatch")
    off = tuple(min(x, y) for x, y in zip(a.offset, b.offset))
    top = tuple(max(ao + ab, bo + bb)
                for ao, ab, bo, bb in zip(a.offset, a.bounds, b.offset, b.bounds))
    return Domain(tuple(t - o for t, o in zip(top, off)), off, None)


def eval_monomial(p: Point, alpha: Point) -> int:
    out = 1
    for x, a in zip(p, alpha):
        if a:
            out *= x ** a
    return out


def monomials(bounds: tuple[int, ...], degree: int) -> Iterator[Point]:
    """All exponent vectors of total degree `degree` with alpha_i <= bounds_i,
    in lexicographic order.

    Exponents above the per-coordinate bound are omitted: on a box the
    function x_i^k with k > bounds_i agrees with a lower-degree polynomial,
    so dropping those monomials does not change any span of restricted
    polynomials of a given degree.
    """
    n = len(bounds)
    room = [0] * (n + 1)  # room[i] = sum(bounds[i:])
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + bounds[i]
    if not 0 <= degree <= room[0]:
        return
    alpha = [0] * n
    i, rem = 0, degree
    while True:
        # the lexicographically least completion of alpha[:i] to total degree
        for j in range(i, n):
            alpha[j] = max(0, rem - room[j + 1])
            rem -= alpha[j]
        yield tuple(alpha)
        # the rightmost exponent that can grow by one, taking it from its suffix
        i = n - 1
        while i >= 0 and (alpha[i] == bounds[i] or rem == 0):
            rem += alpha[i]
            i -= 1
        if i < 0:
            return
        alpha[i] += 1
        rem -= 1
        i += 1


def _monomial_rows(bounds: tuple[int, ...], points: list[Point], base: list[int],
                   top: int) -> Iterator[tuple[int, Point, list[int]]]:
    """(d, alpha, row) for every monomial alpha of degree d <= top, in
    `monomials` order, with row[i] = base[i] * points[i]^alpha.

    Each row is its parent's row times one coordinate, one multiply per
    point: the parent of alpha is alpha with its last nonzero exponent
    lowered by one, a monomial of the previous degree.  Only the previous
    degree's rows are kept."""
    n = len(bounds)
    cols = list(zip(*points)) or [()] * n  # cols[j][i] = points[i][j]
    zero = (0,) * n
    prev = {zero: base}
    yield 0, zero, base
    for d in range(1, top + 1):
        rows: dict[Point, list[int]] = {}
        for alpha in monomials(bounds, d):
            j = n - 1
            while not alpha[j]:
                j -= 1
            parent = prev[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]]
            rows[alpha] = row = list(map(mul, parent, cols[j]))
            yield d, alpha, row
        prev = rows


def orth(f: FnTable, cap: int | None = None) -> int | None:
    """Least total degree d <= cap of a monomial with nonzero inner product
    against f, or None when there is none.

    Monomials of degree < d span every polynomial of degree < d on the box,
    so scanning them in degree order decides the least degree exactly:
    `orth(f, cap=d) is None` says f is orthogonal to every polynomial of
    degree <= d, and `orth(f)` is the exact orthogonal content, None only
    for the zero table.  Without a cap the scan stops at sum(bounds), above
    which there are no monomials.

    The scan runs in integers: the table is scaled once by the lcm `den` of
    its denominators to weights w_p = den * f(p), and each inner product
    sum_p w_p * p^alpha is the sum of a Python int row, nonzero exactly
    when <f, x^alpha> is.  Each row is its parent monomial's row times one
    coordinate (see `_monomial_rows`), so a monomial costs one multiply
    per support point.
    """
    top = sum(f.domain.bounds)
    if cap is not None:
        if cap < 0:
            raise PreconditionError("cap must be >= 0")
        top = min(cap, top)
    if f.is_zero():
        return None
    weights, _ = cleared(f.entries.values())
    for d, _, row in _monomial_rows(f.domain.bounds, list(f.entries), weights, top):
        if sum(row):
            return d
    return None


def _check_partition(blocks: tuple[tuple[int, ...], ...], n: int) -> None:
    if sorted(i for blk in blocks for i in blk) != list(range(n)):
        raise PreconditionError("blocks must partition the coordinates")


def orbit_sizes(blocks: tuple[tuple[int, ...], ...], weights: Iterable[Point]) -> list[int]:
    """For each vector t of block weights, the number of points with those
    weights: prod_k C(|block_k|, t_k) over the blocks of several coordinates."""
    multi = [(k, len(blk)) for k, blk in enumerate(blocks) if len(blk) > 1]
    sizes = []
    for t in weights:
        size = 1
        for k, m in multi:
            size *= comb(m, t[k])
        sizes.append(size)
    return sizes


def lift_symmetric_to_cube(phi: FnTable, blocks: tuple[tuple[int, ...], ...]) -> FnTable:
    """Spread a table on a box of block weights uniformly over each orbit:
    phi(t) / |orbit(t)| at every point whose k-th block has weight t_k.

    Coordinate k of phi becomes the coordinates blocks[k]: 0/1 coordinates
    when the block has several (phi's coordinate must then range over
    0..|block|), and a copy of phi's coordinate when it has one.  The
    window is kept.  A table constant on orbits is the lift of its orbit
    sums, and the lift preserves the l1 norm and the orthogonal content.
    """
    bdom = phi.domain
    if len(blocks) != bdom.n:
        raise PreconditionError("one block per coordinate of the table")
    n = sum(len(blk) for blk in blocks)
    _check_partition(blocks, n)
    bounds, offset = [1] * n, [0] * n
    for blk, b, o in zip(blocks, bdom.bounds, bdom.offset):
        if len(blk) == 1:
            bounds[blk[0]], offset[blk[0]] = b, o
        elif b != len(blk) or o:
            raise PreconditionError("a block of k coordinates lifts a weight in 0..k")
    dom = Domain(tuple(bounds), tuple(offset), bdom.window)
    single = [(k, blk[0]) for k, blk in enumerate(blocks) if len(blk) == 1]
    multi = [(k, blk) for k, blk in enumerate(blocks) if len(blk) > 1]
    out = {}
    for (t, v), size in zip(phi.entries.items(), orbit_sizes(blocks, phi.entries)):
        share = v / size if size > 1 else v
        base = [0] * n
        for k, i in single:
            base[i] = t[k]
        # the points of the orbit: t_k ones among the coordinates of block k
        for pick in itertools.product(*[itertools.combinations(blk, t[k]) for k, blk in multi]):
            p = base[:]
            for ones in pick:
                for i in ones:
                    p[i] = 1
            out[tuple(p)] = share
    return FnTable(dom, out, _trusted=True)


def point_mass(domain: Domain, p: Point) -> FnTable:
    if not domain.contains(p):
        raise PreconditionError(f"point {p} outside domain")
    return FnTable(domain, {tuple(p): Fraction(1)}, _trusted=True)


def uniform(domain: Domain, exclude: Iterable[Point] = ()) -> FnTable:
    skip = set(map(tuple, exclude))
    pts = [p for p in domain.points() if p not in skip]
    if not pts:
        raise PreconditionError("uniform distribution over empty set")
    w = Fraction(1, len(pts))
    return FnTable(domain, {p: w for p in pts}, _trusted=True)


def tighten_domain(f: FnTable) -> FnTable:
    """Re-home a table onto the bounding box of its support (same points)."""
    if f.is_zero():
        return f
    pts = list(f.entries)
    n = len(pts[0])
    lo = tuple(min(p[i] for p in pts) for i in range(n))
    hi = tuple(max(p[i] for p in pts) for i in range(n))
    dom = Domain(tuple(b - a for a, b in zip(lo, hi)), lo)
    return FnTable(dom, f.entries, _trusted=True)


def smoothness_constant(f: FnTable, weight_cap: int | None = None) -> Fraction | None:
    """Minimal K >= 1 with |f(x)| <= K^{|x-x'|} |f(x')| on the region of the
    domain with weight <= weight_cap (whole domain when None).

    Checked over adjacent pairs only.  On a box, any two region points are
    joined by a lattice path of length |x - x'| that stays in the region
    (walk down to the coordinatewise minimum, then up), so the adjacent
    bound composes into the all-pairs bound with the same K.

    Returns None when the region mixes zero and nonzero values, in which
    case no K works; the all-zero region gets K = 1.
    """
    region = [p for p in f.domain.points()
              if weight_cap is None or sum(p) <= weight_cap]
    if not region:
        raise PreconditionError("empty region")
    values = {p: f(p) for p in region}
    nonzero = [p for p, v in values.items() if v != 0]
    if not nonzero:
        return Fraction(1)
    if len(nonzero) != len(region):
        return None
    pset = set(region)
    best = Fraction(1)
    for p in region:
        vp = abs(values[p])
        for i in range(len(p)):
            q = p[:i] + (p[i] + 1,) + p[i + 1:]
            if q in pset:
                vq = abs(values[q])
                ratio = vp / vq if vp > vq else vq / vp
                if ratio > best:
                    best = ratio
    return best


def least_poly_degree(f: FnTable) -> int:
    """Least d such that some polynomial of total degree <= d agrees with f
    everywhere on its box; a domain with a weight window raises
    PreconditionError.

    Reducing such a polynomial modulo the box's vanishing ideal keeps its
    degree and leaves the box's one interpolant with exponents alpha_i <=
    bounds_i.  In the tensor Newton basis on the nodes offset_i ..
    offset_i + bounds_i, the coefficient of the element with leading
    monomial x^alpha is the forward difference Delta^alpha f(offset) over
    alpha!, so the answer is the largest |alpha| with Delta^alpha f(offset)
    != 0, and 0 for the zero table.  The differences run in integers over
    one common denominator, one axis at a time.
    """
    dom = f.domain
    if dom.window is not None:
        raise PreconditionError("least_poly_degree needs a box without a weight window")
    pts = list(dom.points())
    nums, _ = cleared([f(p) for p in pts])
    # points are lexicographic: along axis i, neighbours lie `stride` apart
    stride = len(nums)
    for b in dom.bounds:
        stride //= b + 1
        block = stride * (b + 1)
        for start in range(0, len(nums), block):
            rows = [nums[start + j * stride:start + (j + 1) * stride] for j in range(b + 1)]
            for k in range(1, b + 1):
                for j in range(b, k - 1, -1):
                    rows[j] = list(map(sub, rows[j], rows[j - 1]))
            nums[start:start + block] = [v for row in rows for v in row]
    low = sum(dom.offset)
    return max((sum(p) - low for p, v in zip(pts, nums) if v), default=0)
