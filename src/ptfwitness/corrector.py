"""Corrector objects: functions that equal 1 at an anchor point, are
otherwise supported on low-weight points, and are orthogonal to all
polynomials of degree at most d.  They let l1 mass move between regions
without any low-degree polynomial noticing.

The weight-level values are Lagrange weights: with the top level n
pinned to 1, level k <= d carries -L_k(n) / C(n, k), where L_k is the
Lagrange basis polynomial of the nodes 0..d, so every polynomial of degree
<= d sums to zero against the table.  That value is the integer
(-1)^(d-k+1) C(n-k-1, d-k), so every corrector table is integer-valued:
the builders multiply integer levels by integer multiplicities and build a
Fraction only for each returned value.  Pushed forward blockwise they give
the anchored corrector on the box below a point u; the hypercube corrector
is the anchored one below the all-ones point (its value depends only on
the Hamming weight), and reflecting around a second point gives the
two-point variant on the cube spanned by a pair of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .core import Domain, FnTable, as_int, box, orth
from .errors import ConstructionError, PreconditionError

F = Fraction

Point = tuple[int, ...]


@dataclass
class CorrectorCertificate:
    n: int
    d: int
    levels: tuple[Fraction, ...]  # value on each weight level 0..d
    l1: Fraction
    l1_bound: Fraction
    determinant: Fraction
    anchor: Point | None = None
    base: Point | None = None


def corrector_levels(n: int, d: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weight-level values z_0..z_d with sum_k z_k C(n,k) k^j = -n^j for
    j = 0..d, so that the table (levels, top level = 1) kills all degree-d
    moments.  Returns (levels, determinant of the moment system).

    With w_k = z_k C(n, k) the system reads sum_k w_k p(k) = -p(n) for
    every polynomial p of degree <= d, so w_k = -L_k(n) for the Lagrange
    basis L_k(t) = prod_{i != k} (t - i) / (k - i) on the nodes 0..d.
    Writing the products as factorials, k! C(n, k) L_k(n) =
    (-1)^(d-k) (n-k-1)! / ((n-d-1)! (d-k)!), so each level is the integer
    z_k = (-1)^(d-k+1) C(n-k-1, d-k).  The moment matrix [C(n, k) k^j] is
    the Vandermonde matrix of 0..d, of determinant prod_k k!, times the
    diagonal of the C(n, k)."""
    n, d = as_int(n), as_int(d)
    if not (0 <= d < n):
        raise PreconditionError("need 0 <= d < n")
    levels = tuple(F((-1) ** (d - k + 1) * comb(n - k - 1, d - k)) for k in range(d + 1))
    det = 1
    for k in range(d + 1):
        det *= comb(n, k) * factorial(k)
    return levels, F(det)


def build_zeta_cube(n: int, d: int) -> tuple[FnTable, CorrectorCertificate]:
    """Symmetric corrector on {0,1}^n: the anchored corrector below the
    all-ones point, so value 1 there, support otherwise within weight <= d,
    orthogonal beyond degree d, and l1 norm at most 1 + 2^d C(n,d)."""
    return build_zeta_u((1,) * as_int(n), d)


def build_zeta_u(u: Point, d: int) -> tuple[FnTable, CorrectorCertificate]:
    """Anchored corrector on the box below u: value 1 at u, support
    otherwise on {v <= u, |v| <= d}.  The value at v is the weight-level
    value times the number of cube points mapping onto v blockwise, the
    product of the C(u_i, v_i), an integer."""
    u, d = tuple(map(as_int, u)), as_int(d)
    total = sum(u)
    if not (0 <= d < total):
        raise PreconditionError("need d < |u|")
    levels, det = corrector_levels(total, d)
    lnums = [z.numerator for z in levels]  # integers, see corrector_levels
    dom = box(u)
    # (v, d - |v|, multiplicity of v), one coordinate at a time
    layer: list[tuple[Point, int, int]] = [((), d, 1)]
    for ui in u:
        layer = [(v + (vi,), rem - vi, mult * comb(ui, vi))
                 for v, rem, mult in layer for vi in range(min(ui, rem) + 1)]
    nums = {v: lnums[d - rem] * mult for v, rem, mult in layer}
    entries = {u: F(1)}
    entries.update((v, F(num)) for v, num in nums.items())
    table = FnTable(dom, entries)
    l1 = F(1 + sum(map(abs, nums.values())))
    bound = 1 + F(2 ** d * comb(total, d))
    cert = CorrectorCertificate(n=len(u), d=d, levels=levels, l1=l1,
                                l1_bound=bound, determinant=det, anchor=u)
    if table(u) != 1:
        raise ConstructionError("anchored corrector lost its anchor value")
    if l1 > bound:
        raise ConstructionError("anchored corrector l1 exceeds its bound")
    if orth(table, cap=d) is not None:
        raise ConstructionError("anchored corrector failed orthogonality")
    return table, cert


def build_zeta_uv(u: Point, v: Point, d: int) -> tuple[FnTable, CorrectorCertificate]:
    """Two-point corrector on cube(u, v): value 1 at u, support otherwise
    within distance d of v.  Obtained by reflecting the anchored corrector
    coordinatewise around v."""
    u, v = tuple(map(as_int, u)), tuple(map(as_int, v))
    if len(u) != len(v):
        raise PreconditionError("dimension mismatch")
    ustar = tuple(abs(a - b) for a, b in zip(u, v))
    if not (0 <= d < sum(ustar)):
        raise PreconditionError("need d < |u - v|")
    base_table, base_cert = build_zeta_u(ustar, d)
    offset = tuple(min(a, b) for a, b in zip(u, v))
    dom = Domain(ustar, offset)
    entries: dict[Point, Fraction] = {}
    for w, val in base_table.entries.items():
        x = tuple(vi + (1 if ui >= vi else -1) * wi for wi, ui, vi in zip(w, u, v))
        entries[x] = val
    table = FnTable(dom, entries)
    l1 = table.l1()
    cert = CorrectorCertificate(n=len(u), d=d, levels=base_cert.levels,
                                l1=l1, l1_bound=base_cert.l1_bound,
                                determinant=base_cert.determinant, anchor=u, base=v)
    if table(u) != 1 or l1 > cert.l1_bound:
        raise ConstructionError("two-point corrector failed its metric checks")
    if orth(table, cap=d) is not None:
        raise ConstructionError("two-point corrector failed orthogonality")
    return table, cert
