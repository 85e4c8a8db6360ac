"""Dual distributions for the Minsky-Papert function.

Four constructions, each returning exact tables or lazy products plus a
certificate whose every claim was re-checked during the build:

  build_or_gadget      the triple (lambda0, lambda1, lambda2) obtained by
                       splitting the univariate OR dual into its point mass
                       at zero, its odd part, and its remaining even part
  build_mp_witness     the bounded pair (Lambda0, Lambda1) supported on the
                       two preimages of the symmetric Minsky-Papert function
  build_mp_smooth_witness
                       the locally smooth pair with full-preimage supports
  build_rs_smooth      the globally min-smooth hypercube witness
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .brackets import inv_sqrt_brackets
from .circuits import mp_star_table, mp_table
from .core import (
    Domain,
    FnTable,
    Point,
    as_rat,
    hypercube,
    lift_symmetric_to_cube,
    orth,
    point_mass,
    smoothness_constant,
    tighten_domain,
    uniform,
)
from .dual_or import PsiCertificate, build_psi
from .errors import ConstructionError, PreconditionError
from .mixtures import DENSIFY_LIMIT, FamilySpec, ProductMixture, expand_power
from .oracles import twist

F = Fraction


def _split_dual(psi: FnTable, zero: Point) -> tuple[Fraction, FnTable, FnTable, FnTable]:
    """Split a unit-l1 dual psi at the point zero: delta = 1 - 2 psi(zero),
    the point mass at zero, mu1 = -2 times the negative part of psi, and
    mu2 = (2/delta) times its positive part off zero (empty when delta = 0)."""
    dom = psi.domain
    delta = 1 - 2 * psi(zero)
    mu1 = FnTable(dom, {p: -2 * v for p, v in psi.entries.items() if v < 0})
    pos = {p: 2 * v / delta for p, v in psi.entries.items() if v > 0 and p != zero} if delta else {}
    return delta, point_mass(dom, zero), mu1, FnTable(dom, pos)


@dataclass
class GadgetCertificate:
    R: int
    r: int
    eps: Fraction
    delta: Fraction
    d_gadget: int  # exact orthogonal content of (1-eps)l0 + eps*l2 - l1
    c1: Fraction  # best bounded_star envelope constant over lambda1, lambda2
    c2: Fraction  # the exponent constant in alpha = c2 / sqrt(r)
    psi_cert: PsiCertificate
    supports_ok: bool
    membership_ok: bool


def build_or_gadget(R: int, r: int, eps) -> tuple[FnTable, FnTable, FnTable, GadgetCertificate]:
    """Split the univariate OR dual on {0..R} into three probability
    distributions: a point mass at zero and two distributions on {1..R}
    whose fixed signed combination reproduces the dual exactly, hence
    inherits its orthogonality."""
    eps = as_rat(eps)
    if not (R >= r >= 1):
        raise PreconditionError("need R >= r >= 1")
    if not (0 < eps < 1):
        raise PreconditionError("eps must lie strictly between 0 and 1")
    psi, psi_cert = build_psi(r, R, eps / 2)
    delta, lam0, mu1, mu2 = _split_dual(psi, (0,))
    if delta < 0 or delta >= eps / 2:
        raise ConstructionError(
            f"delta = {delta} outside [0, eps/2); psi(0) too small, rebuild with smaller eps")
    a11 = (1 - eps * delta) / (1 - delta * delta)
    a12 = delta * (eps - delta) / (1 - delta * delta)
    a21 = (eps - delta) / (eps * (1 - delta * delta))
    a22 = delta * (1 - eps * delta) / (eps * (1 - delta * delta))
    lam1 = mu1.scale(a11) + mu2.scale(a12)
    lam2 = mu1.scale(a21) + mu2.scale(a22)

    for lam in (lam0, lam1, lam2):
        if not lam.is_distribution():
            raise ConstructionError("gadget component is not a distribution")
    supports_ok = (
        set(lam0.entries) == {(0,)}
        and set(lam1.entries) == {(t,) for t in range(1, R + 1)}
        and set(lam2.entries) == {(t,) for t in range(1, R + 1)}
    )
    if not supports_ok:
        raise ConstructionError("gadget supports are not the stated sets")

    combo = lam0.scale(1 - eps) + lam2.scale(eps) - lam1
    expected = psi.scale(2 * (1 - eps) / (1 - delta))
    if combo != expected:
        raise ConstructionError("gadget combination does not reproduce the dual")
    d_gadget = psi_cert.orth_value

    c2 = psi_cert.c_double_prime
    inv_lo, _ = inv_sqrt_brackets(r)
    alpha = c2 * inv_lo  # rational stand-in; the exact exponent is bracketed
    spec = FamilySpec(kind="bounded_star", r=R, c=F(1), alpha=alpha, delta=1)
    c_candidates = [spec.best_bounded_c(lam) for lam in (lam1, lam2)]
    if any(c is None or c <= 0 for c in c_candidates):
        raise ConstructionError("gadget envelope constant collapsed")
    c1 = min(c_candidates)
    member_spec = FamilySpec(kind="bounded_star", r=R, c=c1, alpha=alpha, delta=1)
    membership_ok = all(member_spec.member(lam) for lam in (lam0, lam1, lam2))
    if not membership_ok:
        raise ConstructionError("gadget membership re-check failed")

    cert = GadgetCertificate(R=R, r=r, eps=eps, delta=delta, d_gadget=d_gadget,
                             c1=c1, c2=c2, psi_cert=psi_cert,
                             supports_ok=supports_ok, membership_ok=membership_ok)
    return lam0, lam1, lam2, cert


@dataclass
class MPWitnessCertificate:
    m: int
    r: int
    gadget: GadgetCertificate
    orth_claimed: int  # min(m * orth(l2 - l0), d_gadget)
    orth_value: int | None  # exact, when densification was feasible
    supports_ok: bool
    convex_ok: bool


def build_mp_witness(m: int, r: int
                     ) -> tuple[ProductMixture, ProductMixture, MPWitnessCertificate]:
    """The bounded dual pair for the symmetric Minsky-Papert function on
    {0..r}^m: Lambda1 puts all blocks on the nonzero range, Lambda0
    averages odd patterns of zero blocks."""
    if m < 1 or r < 1:
        raise PreconditionError("need m, r >= 1")
    lam0, lam1, lam2, gadget = build_or_gadget(r, r, F(1, 2))
    factors = {"l0": lam0, "l1": lam1, "l2": lam2}
    coeff = F(1, 2 ** (m - 1))
    terms = []
    for pattern in itertools.product("02", repeat=m):
        if sum(1 for ch in pattern if ch == "0") % 2 == 1:
            terms.append((coeff, tuple("l" + ch for ch in pattern)))
    mix0 = ProductMixture(factors, terms)
    mix1 = ProductMixture(factors, [(F(1), ("l1",) * m)])

    claimed = min(gadget.d_gadget, m * orth(lam2 - lam0))
    mp_star = mp_star_table(m, r)
    orth_value = None
    supports_ok = True
    dense_dom = Domain((r,) * m)
    if dense_dom.size() <= DENSIFY_LIMIT:
        d0 = mix0.densify()
        d1 = mix1.densify()
        for dist, want in ((d0, 0), (d1, 1)):
            if not dist.is_distribution():
                raise ConstructionError("witness component is not a distribution")
            for p in dist.entries:
                if mp_star(p) != want:
                    supports_ok = False
        orth_value = orth(d1 - d0)
        if orth_value is None:
            raise ConstructionError("witness difference unexpectedly zero")
        if orth_value < claimed:
            raise ConstructionError(
                f"dense orthogonality {orth_value} below claimed {claimed}")
    convex_ok = mix0.coefficients_convex() and mix1.coefficients_convex()
    if not (supports_ok and convex_ok):
        raise ConstructionError("witness support or convexity re-check failed")
    cert = MPWitnessCertificate(m=m, r=r, gadget=gadget, orth_claimed=claimed,
                                orth_value=orth_value, supports_ok=supports_ok,
                                convex_ok=convex_ok)
    return mix0, mix1, cert


@dataclass
class MPSmoothCertificate:
    m: int
    r: int
    R: int
    gadget: GadgetCertificate
    orth_claimed: int
    orth_value: int | None
    supports_equal: bool
    k_actual: Fraction  # exact smoothness of (Lambda0 + Lambda1)/2 on the box
    k_claimed: Fraction
    k_gadget: Fraction
    k_factor: Fraction  # smoothness constant of the individual gadget factors
    factor_family_ok: bool  # each factor is a translate-smooth distribution
    sandwiches_ok: bool
    convex_ok: bool


def build_mp_smooth_witness(m: int, r: int, R: int
                            ) -> tuple[ProductMixture, ProductMixture, MPSmoothCertificate]:
    """The locally smooth dual pair on {0..R}^m.  Supports are the full
    preimages of the symmetric Minsky-Papert function (equality, not just
    containment), and the average of the two distributions is K-smooth on
    the whole box with an exactly computed K."""
    if not (R >= r >= 1) or m < 1:
        raise PreconditionError("need R >= r >= 1 and m >= 1")
    eps = F(1, 6)
    lam0, lam1, lam2, gadget = build_or_gadget(R, r, eps)
    factors = {"l0": lam0, "l1": lam1, "l2": lam2}
    mm = F(m, m + 1)
    one_m = F(1, m + 1)

    psi1 = expand_power(factors, {"l0": one_m, "l1": mm}, m).combined(
        ProductMixture(factors, [(F(-2), ("l1",) * m)]))
    mix02 = {"l0": 1 - eps, "l2": eps}
    psi2 = (
        expand_power(factors, mix02, m).scale(2)
        .combined(expand_power(factors, {"l0": -eps, "l2": eps}, m).scale(-2))
        .combined(expand_power(
            factors, {"l0": one_m + mm * (1 - eps), "l2": mm * eps}, m).scale(-1))
    )
    psi = psi1.combined(psi2)

    # support classes are indexed by the zero pattern, so positive and
    # negative parts split along the sign of each term coefficient
    pos_terms = [(c, labs) for c, labs in psi.terms if c > 0]
    neg_terms = [(-c, labs) for c, labs in psi.terms if c < 0]
    for c, labs in psi.terms:
        all_nonzero = all(lab in ("l1", "l2") for lab in labs)
        if all_nonzero != (c < 0):
            raise ConstructionError("term sign does not follow its support class")
    z = psi1.l1_if_disjoint() + psi2.l1_if_disjoint()
    lam_0 = ProductMixture(factors, pos_terms).scale(2 / z)
    lam_1 = ProductMixture(factors, neg_terms).scale(2 / z)

    claimed = min(gadget.d_gadget, m * orth(lam2 - lam0))
    mp_star = mp_star_table(m, R)

    dense_dom = Domain((R,) * m)
    if dense_dom.size() > DENSIFY_LIMIT:
        raise PreconditionError("smooth witness verification needs the dense table")
    d0 = lam_0.densify()
    d1 = lam_1.densify()
    for dist, want in ((d0, 0), (d1, 1)):
        if not dist.is_distribution():
            raise ConstructionError("smooth witness is not a distribution")
    supports_equal = (
        set(d0.entries) == {p for p in dense_dom.points() if mp_star(p) == 0}
        and set(d1.entries) == {p for p in dense_dom.points() if mp_star(p) == 1}
    )
    if not supports_equal:
        raise ConstructionError("smooth witness supports are not the full preimages")
    value = orth(d0 - d1)
    if value is None or value < claimed:
        raise ConstructionError("smooth witness lost its orthogonality")

    half = (d0 + d1).scale(F(1, 2))
    k_actual = smoothness_constant(half)
    if k_actual is None:
        raise ConstructionError("smooth witness average vanishes somewhere")

    table_mix1 = lam0.scale(one_m) + lam1.scale(mm)
    table_mix2 = lam0.scale(1 - eps) + lam2.scale(eps)
    k1 = smoothness_constant(table_mix1)
    k2 = smoothness_constant(table_mix2)
    if k1 is None or k2 is None:
        raise ConstructionError("gadget mixtures vanish somewhere on the box")
    k_claimed = max(5 * k1, 9 * k2)
    k_gadget = max(k2, k1 / m)
    if k_actual > k_claimed or k_claimed > 25 * k_gadget * m:
        raise ConstructionError("smoothness accounting failed")

    dense_psi1 = psi1.densify()
    dense_psi2 = psi2.densify()
    t1 = ProductMixture({"t": table_mix1}, [(F(1), ("t",) * m)]).densify()
    t2 = ProductMixture({"t": table_mix2}, [(F(1), ("t",) * m)]).densify()
    sandwiches_ok = True
    for p in dense_dom.points():
        a1, b1 = abs(dense_psi1(p)), t1(p)
        if not (a1 / 5 <= b1 <= a1):
            sandwiches_ok = False
        a2, b2 = abs(dense_psi2(p)), t2(p)
        if not (a2 / 3 <= b2 <= 3 * a2):
            sandwiches_ok = False
    if not sandwiches_ok:
        raise ConstructionError("tensor sandwich re-check failed")

    convex_ok = lam_0.coefficients_convex() and lam_1.coefficients_convex()
    k_factor = max(
        smoothness_constant(tighten_domain(lam)) for lam in (lam0, lam1, lam2))
    fam = FamilySpec(kind="smooth", n=1, K=k_factor, delta=1)
    factor_family_ok = all(fam.member(lam) for lam in (lam0, lam1, lam2))
    if not factor_family_ok:
        raise ConstructionError("gadget factor left its translate-smooth family")
    cert = MPSmoothCertificate(m=m, r=r, R=R, gadget=gadget, orth_claimed=claimed,
                               orth_value=value, supports_equal=supports_equal,
                               k_actual=k_actual, k_claimed=k_claimed,
                               k_gadget=k_gadget, k_factor=k_factor,
                               factor_family_ok=factor_family_ok,
                               sandwiches_ok=sandwiches_ok,
                               convex_ok=convex_ok)
    return lam_0, lam_1, cert


@dataclass
class RsSmoothCertificate:
    m: int
    r: int
    delta: Fraction
    d_psi: int
    orth_claimed: int
    orth_value: int
    floor: Fraction
    floor_ok: bool
    is_distribution: bool
    psi_cert: PsiCertificate


def build_rs_smooth(m: int, r: int) -> tuple[FnTable, RsSmoothCertificate]:
    """A globally min-smooth dual distribution for the Minsky-Papert
    function on the hypercube: a probability distribution with an explicit
    pointwise floor whose sign twist is orthogonal to low degrees."""
    if m * r > 12:
        raise PreconditionError("dense hypercube construction limited to m*r <= 12")
    psi_uni, psi_cert = build_psi(r, r, F(1, 50))
    if psi_cert.at_zero <= F(49, 100):
        raise ConstructionError("psi(0) <= 0.49; rebuild with smaller eps")
    psi = lift_symmetric_to_cube(psi_uni, (tuple(range(r)),))
    d_psi = psi_cert.orth_value

    zero = (0,) * r
    delta, lam0, mu1, mu2 = _split_dual(psi, zero)
    if not (0 <= delta < F(1, 50)):
        raise ConstructionError("mass split outside its range")
    ups = uniform(hypercube(r), exclude=[zero])
    w1 = F(2, 3) / (1 - delta)
    lam1 = mu1.scale(w1) + ups.scale(1 - w1)
    if delta > 0:
        w2 = 2 * delta / (1 - delta)
        lam2 = mu2.scale(w2) + ups.scale(1 - w2)
    else:
        lam2 = ups

    for lam in (lam0, lam1, lam2):
        if not lam.is_distribution():
            raise ConstructionError("hypercube gadget component not a distribution")
    combo = lam0.scale(F(2, 3)) + lam2.scale(F(1, 3)) - lam1
    if combo != psi.scale(F(4, 3) / (1 - delta)):
        raise ConstructionError("hypercube combination does not reproduce the dual")
    for lam in (lam1, lam2):
        for p, v in lam.entries.items():
            if v < ups(p) / 4:
                raise ConstructionError("gadget lost its uniform floor")

    a = lam0.scale(F(2, 3)) + lam2.scale(F(1, 3))
    b = lam0.scale(F(-1, 3)) + lam2.scale(F(1, 3))
    # (a^(x)m - b^(x)m + lam1^(x)m) / 2 in one integer pass
    lam = ProductMixture({"a": a, "b": b, "l1": lam1},
                         [(F(1, 2), ("a",) * m), (F(-1, 2), ("b",) * m), (F(1, 2), ("l1",) * m)]
                         ).densify()
    floor = F(1, 4) * F(1, 12 * 2 ** r) ** m
    dom = hypercube(m * r)
    floor_ok = all(lam(p) >= floor for p in dom.points())
    is_dist = lam.is_distribution()
    claimed = min(d_psi, m)
    value = orth(twist(lam, mp_table(m, r)))
    if value is None or value < claimed:
        raise ConstructionError("min-smooth witness lost its orthogonality")
    if not (floor_ok and is_dist):
        raise ConstructionError("min-smooth witness failed floor or norm checks")
    cert = RsSmoothCertificate(m=m, r=r, delta=delta, d_psi=d_psi,
                               orth_claimed=claimed, orth_value=value,
                               floor=floor, floor_ok=floor_ok,
                               is_distribution=is_dist, psi_cert=psi_cert)
    return lam, cert
