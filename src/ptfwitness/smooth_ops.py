"""Manipulation toolkit for locally smooth functions on integer boxes.

Dominant-coordinate selection, weight transfer (moving all mass below a
weight threshold without low-degree polynomials noticing), anchored
zeroizers, heavy-tail removal, and min-smooth redistribution.  The
concentration and cap/ball mass comparisons enter only through the closed
forms they justify: the family preconditions of weight transfer and the
zeroizer bound.  Heavy-tail removal and weight transfer on convex
combinations of products share one per-term loop: each term is moved to
the zero corner of its support, reduced there, shifted back and
recombined, and the difference from the dense mixture is checked to be
orthogonal beyond degree d.

Every operation returns a certificate whose inequalities were re-checked
by an independent pass over the dense table.  Irrational thresholds
(factors of e, 1 + ln n, powers of two) are handled through stored
two-sided rational brackets; a check passes only when it passes against
the adverse side of its bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .brackets import e_brackets, one_plus_ln_brackets, pow2_bound
from .core import (
    Domain,
    FnTable,
    as_rat,
    cleared,
    combine,
    orth,
    smoothness_constant,
    tighten_domain,
)
from .corrector import build_zeta_u, build_zeta_uv
from .errors import ConstructionError, PreconditionError
from .mixtures import FamilySpec, ProductMixture

F = Fraction

Point = tuple[int, ...]


# ------------------------------------------------------------- heavy sets


@dataclass(frozen=True)
class HeavySet:
    indices: frozenset[int]
    theta: Fraction
    large_ok: bool      # |S| >= ||v||_1 / (2 ||v||_inf)
    area_ok: bool       # min_S |v_i| * |S| >= theta / (2 * upper(1 + ln n))
    outside_ok: bool    # sum off S of |v_i| < theta
    log_bracket_hi: Fraction


def select_heavy_set(v, theta) -> HeavySet:
    """A deterministic set of dominant coordinates.

    Grows prefixes of the magnitude-sorted coordinate order until the
    off-set mass drops below theta; each grown prefix keeps the size and
    area guarantees.  Ties are broken by coordinate index so the output is
    reproducible.
    """
    nums, den = cleared([as_rat(x) for x in v])
    theta = as_rat(theta)
    n = len(nums)
    # every mass below is an integer over den: m >= theta is m tq >= tp den
    tp, tq = theta.numerator, theta.denominator
    mags = [abs(x) for x in nums]
    total = sum(mags)
    if not (total * tq >= tp * den and theta > 0):
        raise PreconditionError("need ||v||_1 >= theta > 0")
    _, log_hi = one_plus_ln_brackets(n)
    lp, lq = log_hi.numerator, log_hi.denominator
    order = sorted(range(n), key=lambda i: (-mags[i], i))
    mags = [mags[i] for i in order]

    def grow(start: int) -> int:
        """Smallest prefix length k > start of the remaining suffix order
        meeting both regularity conditions for the remaining vector:
        k >= rem_total / (2 rem_inf) and k rem[k-1] 2 log_hi >= rem_total."""
        rem = mags[start:]
        rem_total = sum(rem)
        rem_inf = rem[0] if rem else 0
        if rem_inf == 0:
            raise ConstructionError("cannot grow a heavy set over zeros")
        for k in range(1, len(rem) + 1):
            if 2 * k * rem_inf >= rem_total and k * rem[k - 1] * 2 * lp >= rem_total * lq:
                return start + k
        raise ConstructionError("no regular prefix found; bracket too loose")

    chosen = grow(0)  # prefix length of `order` selected so far
    while sum(mags[chosen:]) * tq >= tp * den:
        chosen = grow(chosen)

    S = frozenset(order[:chosen])
    large_ok = len(S) * 2 * mags[0] >= total
    area_ok = mags[chosen - 1] * len(S) * 2 * lp * tq >= tp * den * lq
    outside_ok = sum(mags[chosen:]) * tq < tp * den
    hs = HeavySet(indices=S, theta=theta, large_ok=large_ok, area_ok=area_ok,
                  outside_ok=outside_ok, log_bracket_hi=log_hi)
    if not (large_ok and area_ok and outside_ok):
        raise ConstructionError(f"heavy set failed its certificate: {hs}")
    return hs


# ------------------------------------------------------------- zeroizers


def _ball_points(dom: Domain, u: Point, d: int):
    for p in dom.points():
        if sum(abs(a - b) for a, b in zip(p, u)) <= d:
            yield p


def _diam(points) -> int:
    pts = list(points)
    if len(pts) > 5000:
        raise PreconditionError("support too large for exact diameter scan")
    best = 0
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            dd = sum(abs(a - b) for a, b in zip(p, q))
            if dd > best:
                best = dd
    return best


def _zeroizer_bound(K: Fraction, n: int, d: int, diam: int) -> Fraction:
    """2^(3d+1) K^(4d+1) C(n+d,d)^3 C(diam,d): the pointwise factor by which
    an anchored zeroizer may exceed a K-smooth distribution off its anchor."""
    return F(2 ** (3 * d + 1)) * K ** (4 * d + 1) * comb(n + d, d) ** 3 * comb(diam, d)


def _cap_profile(phi: FnTable, theta: int) -> tuple[FnTable, Fraction, Fraction]:
    """(|phi| / ||phi||_1, ||phi||_1, K) for phi supported on the weight cap,
    with K the smoothness constant of the normalised profile there."""
    l1 = phi.l1()
    lam = FnTable(phi.domain, {p: abs(v) / l1 for p, v in phi.entries.items()},
                  _trusted=True)
    K = smoothness_constant(lam, weight_cap=theta)
    if K is None:
        raise PreconditionError("function is not locally smooth on the cap")
    return lam, l1, K


@dataclass
class ZuCertificate:
    u: Point
    d: int
    theta: int
    K: Fraction
    support_ok: bool
    at_u: Fraction
    orth_ok: bool
    l1: Fraction
    l1_bound: Fraction
    outside_factor: Fraction       # max |Z_u(x)| / Lambda(x) over x != u
    outside_factor_bound: Fraction


def build_Zu(lam: FnTable, u: Point, d: int, theta: int) -> tuple[FnTable, ZuCertificate]:
    """An anchored zeroizer for a locally smooth distribution: value 1 at u,
    orthogonal beyond degree d, supported in the weight cap plus the anchor,
    and pointwise dominated by a computed multiple of the distribution."""
    dom = lam.domain
    if any(dom.offset) or dom.window is not None:
        raise PreconditionError("zeroizer expects a zero-based box domain")
    u = tuple(u)
    if not dom.contains(u):
        raise PreconditionError("anchor outside the box")
    total_r = sum(dom.bounds)
    if not (3 * d < min(theta, total_r)):
        raise PreconditionError("need d < min(theta, sum r_i) / 3")
    if not lam.is_distribution() or any(sum(p) > theta for p in lam.entries):
        raise PreconditionError("need a probability distribution on the weight cap")
    K = smoothness_constant(lam, weight_cap=theta)
    if K is None:
        raise PreconditionError("distribution vanishes inside the region")
    return _anchored_zeroizer(lam, u, d, theta, K, _diam(lam.entries))


def _anchored_zeroizer(lam: FnTable, u: Point, d: int, theta: int, K: Fraction,
                       lam_diam: int) -> tuple[FnTable, ZuCertificate]:
    """build_Zu once its checks on lam have passed: lam is a distribution on
    the weight cap of a zero-based box, K its smoothness constant there and
    lam_diam the l1 diameter of its support, so callers that anchor many
    zeroizers at one lam compute both once.  The diameter with the anchor
    added is one more pass over the support."""
    dom = lam.domain
    if not dom.contains(u):
        raise PreconditionError("anchor outside the box")
    ball = set(_ball_points(dom, u, d))
    targets = [p for p in dom.points() if sum(p) <= theta - d and p not in ball]
    weights = [(vpt, lam(vpt)) for vpt in targets if lam(vpt)]
    mass = sum((w for _, w in weights), F(0))
    if mass == 0:
        raise ConstructionError("no mass outside the ball; cap/ball bounds violated")
    zu = FnTable(dom, combine(dom, [(w / mass, build_zeta_uv(u, vpt, d)[0].entries)
                                    for vpt, w in weights]).entries)

    diam = max(lam_diam, max(sum(abs(a - b) for a, b in zip(p, u)) for p in lam.entries))
    support_ok = all(sum(p) <= theta or p == u for p in zu.entries)
    at_u = zu(u)
    orth_ok = orth(zu, cap=d) is None
    l1_bound = F(2 ** d * comb(diam, d) + 1)
    outside = F(0)
    for p, v in zu.entries.items():
        if p != u:
            outside = max(outside, abs(v) / lam(p))
    factor_bound = _zeroizer_bound(K, dom.n, d, diam)
    cert = ZuCertificate(u=u, d=d, theta=theta, K=K, support_ok=support_ok,
                         at_u=at_u, orth_ok=orth_ok, l1=zu.l1(), l1_bound=l1_bound,
                         outside_factor=outside, outside_factor_bound=factor_bound)
    if not (support_ok and at_u == 1 and orth_ok and zu.l1() <= l1_bound
            and outside <= factor_bound):
        raise ConstructionError(f"zeroizer failed its certificate: {cert}")
    return zu, cert


@dataclass
class ZeroOutCertificate:
    d: int
    theta: int
    K: Fraction
    trivial: bool
    support_ok: bool
    orth_ok: bool
    distance_factor: Fraction
    distance_factor_bound: Fraction


def zero_out_heavy(phi: FnTable, d: int, theta: int) -> tuple[FnTable, ZeroOutCertificate]:
    """Remove all support above the weight cap without low-degree
    polynomials noticing, at a pointwise cost proportional to the removed
    mass.  Trivial when nothing lies above the cap."""
    dom = phi.domain
    if any(dom.offset) or dom.window is not None:
        raise PreconditionError("expected a zero-based box domain")
    if not (3 * d < theta):
        raise PreconditionError("need d < theta / 3")
    low = phi.restrict_weight(hi=theta)
    if low.is_zero():
        raise PreconditionError("function vanishes on the weight cap")
    heavy = {p: v for p, v in phi.entries.items() if sum(p) > theta}
    if not heavy or theta > sum(dom.bounds):
        cert = ZeroOutCertificate(d=d, theta=theta, K=F(1), trivial=True,
                                  support_ok=True, orth_ok=True,
                                  distance_factor=F(0),
                                  distance_factor_bound=F(0))
        return phi, cert
    lam, low_l1, K = _cap_profile(low, theta)
    lam_diam = _diam(lam.entries)
    phi_t = combine(dom, [(1, phi.entries)] + [
        (-val, _anchored_zeroizer(lam, u, d, theta, K, lam_diam)[0].entries)
        for u, val in sorted(heavy.items())])
    support_ok = all(sum(p) <= theta for p in phi_t.entries)
    diff = phi - phi_t
    orth_ok = orth(diff, cap=d) is None
    heavy_l1 = sum((abs(v) for v in heavy.values()), F(0))
    factor = F(0)
    for p in dom.points():
        if sum(p) <= theta and phi(p):
            factor = max(factor, abs(diff(p)) / abs(phi(p)))
        elif sum(p) <= theta and diff(p):
            raise ConstructionError("difference escaped the support of phi")
    bound = _zeroizer_bound(K, dom.n, d, _diam(phi.entries)) * heavy_l1 / low_l1
    cert = ZeroOutCertificate(d=d, theta=theta, K=K, trivial=False,
                              support_ok=support_ok, orth_ok=orth_ok,
                              distance_factor=factor,
                              distance_factor_bound=bound)
    if not (support_ok and orth_ok and factor <= bound):
        raise ConstructionError(f"heavy-tail removal failed its certificate: {cert}")
    return phi_t, cert


def _moved(p: Point, shift: Point, sign: int) -> Point:
    return tuple(a + sign * s for a, s in zip(p, shift))


def _reduce_terms(mix: ProductMixture, d: int, reduce_term):
    """The per-term loop of the convex weight-transfer steps.

    Every term of the convex combination `mix` is moved to the zero corner
    of its support (each factor shifted down by its least support point),
    reduced there by `reduce_term(labels, base, shift)`, which returns the
    reduced table on the base box and a certificate, shifted back by
    `shift`, and recombined with its coefficient.  Returns the recombined
    table and the dense mixture, both on the mixture's ambient box, the
    per-term (shift, certificate) pairs, and whether the difference of the
    two tables is orthogonal beyond degree d.
    """
    if not mix.coefficients_convex():
        raise PreconditionError("expected a convex combination")
    total, dense, done = [], [], []
    for coeff, labels in mix.terms:
        factors: dict[str, FnTable] = {}
        shift: Point = ()
        for lab in labels:
            t = tighten_domain(mix.factors[lab])
            a = t.domain.offset
            factors[lab] = FnTable(Domain(t.domain.bounds),
                                   {_moved(p, a, -1): v for p, v in t.entries.items()},
                                   _trusted=True)
            shift += a
        base = ProductMixture(factors, [(F(1), labels)])
        reduced, cert = reduce_term(labels, base, shift)
        done.append((shift, cert))
        total.append((coeff, {_moved(p, shift, 1): v for p, v in reduced.entries.items()}))
        dense.append((coeff, {_moved(p, shift, 1): v for p, v in base.densify().entries.items()}))
    ambient = mix.ambient_domain()
    total_t = combine(ambient, total)
    dense_t = combine(ambient, dense)
    orth_ok = orth(dense_t - total_t, cap=d) is None
    return total_t, dense_t, done, orth_ok


@dataclass
class ConvexZeroOutCertificate:
    d: int
    theta: int
    delta_tail: Fraction  # max per-term tail mass above theta
    orth_ok: bool
    support_ok: bool
    pointwise_factor: Fraction
    is_distribution: bool
    term_certs: list[ZeroOutCertificate]


def zero_out_heavy_convex(mix: ProductMixture, d: int, theta: int
                          ) -> tuple[FnTable, ConvexZeroOutCertificate]:
    """Remove the heavy tail of every term of a convex combination of
    product distributions at the zero corner of its support, and
    recombine."""
    tails = []  # each term's mass above theta

    def reduce_term(labels, base, shift):
        lift = sum(shift)
        if 3 * d >= theta - lift:
            raise PreconditionError("need d < (theta - sum offsets) / 3")
        term = base.densify()
        tails.append(term.mass(lo=theta - lift + 1))
        return zero_out_heavy(term, d, theta - lift)

    total, dense, done, orth_ok = _reduce_terms(mix, d, reduce_term)
    support_ok = all(sum(p) <= theta and p in dense.entries for p in total.entries)
    factor = max((abs(v - total(p)) / abs(v) for p, v in dense.entries.items()
                  if sum(p) <= theta and v != total(p)), default=F(0))
    cert = ConvexZeroOutCertificate(d=d, theta=theta, delta_tail=max(tails),
                                    orth_ok=orth_ok, support_ok=support_ok,
                                    pointwise_factor=factor,
                                    is_distribution=total.is_distribution(),
                                    term_certs=[c for _, c in done])
    if not (orth_ok and support_ok):
        raise ConstructionError("convex zeroizer failed its certificate")
    return total, cert


# ---------------------------------------------------------- redistribution


@dataclass
class RedistributeCertificate:
    d: int
    theta: int
    K: Fraction
    N: Fraction
    orth_ok: bool
    l1_ok: bool
    sign_ok: bool
    min_smooth_factor: Fraction        # the guaranteed ||phi||_1 / N
    min_smooth_factor_actual: Fraction  # exact min of |phi*| / Lambda*


def redistribute(phi: FnTable, lam_star: FnTable, d: int, theta: int
                 ) -> tuple[FnTable, RedistributeCertificate]:
    """Make a locally smooth function globally min-smooth relative to a
    target distribution, preserving signs and low-degree indistinguishability.
    """
    dom = phi.domain
    if any(dom.offset) or dom.window is not None:
        raise PreconditionError("expected a zero-based box domain")
    if phi.is_zero():
        cert = RedistributeCertificate(d=d, theta=theta, K=F(1), N=F(1),
                                       orth_ok=True, l1_ok=True, sign_ok=True,
                                       min_smooth_factor=F(0),
                                       min_smooth_factor_actual=F(0))
        return phi, cert
    total_r = sum(dom.bounds)
    if not (3 * d < min(theta, total_r)):
        raise PreconditionError("need d < min(theta, sum r_i) / 3")
    region = [p for p in dom.points() if sum(p) <= theta]
    if set(phi.entries) != set(region):
        raise PreconditionError("function must be supported on the whole cap region")
    if not lam_star.is_distribution() or any(sum(p) > theta for p in lam_star.entries):
        raise PreconditionError("target must be a distribution on the cap region")
    lam, l1, K = _cap_profile(phi, theta)
    diam = _diam(phi.entries)  # lam has phi's support
    N = _zeroizer_bound(K, dom.n, d, diam)
    phi_star = combine(dom, [(1, phi.entries)] + [
        (l1 / N * (1 if phi(u) >= 0 else -1) * w,
         _anchored_zeroizer(lam, u, d, theta, K, diam)[0].entries)
        for u, w in sorted(lam_star.entries.items())])
    orth_ok = orth(phi - phi_star, cap=d) is None
    l1_ok = phi_star.l1() <= 2 * l1
    sign_ok = all(phi(p) * phi_star(p) >= 0 for p in region)
    guaranteed = l1 / N
    actual = min((abs(phi_star(p)) / w for p, w in lam_star.entries.items()), default=F(0))
    cert = RedistributeCertificate(d=d, theta=theta, K=K, N=N, orth_ok=orth_ok,
                                   l1_ok=l1_ok, sign_ok=sign_ok,
                                   min_smooth_factor=guaranteed,
                                   min_smooth_factor_actual=actual)
    ok = orth_ok and l1_ok and sign_ok and actual >= guaranteed
    if not ok:
        raise ConstructionError(f"redistribution failed its certificate: {cert}")
    return phi_star, cert


# ---------------------------------------------------------- weight transfer


@dataclass
class WeightReduceCertificate:
    d: int
    theta: int
    support_ok: bool
    orth_ok: bool
    statistical_factor: Fraction | None
    statistical_bound_lower: Fraction | None
    preconditions_ok: bool
    heavy_points: int
    is_distribution: bool


def weight_reduce(mix: ProductMixture, d: int, theta: int, family: FamilySpec,
                  enforce_preconditions: bool = True
                  ) -> tuple[FnTable, FnTable, WeightReduceCertificate]:
    """Weight transfer for a single product of bounded univariate
    distributions: returns (reduced table, correction, certificate).

    The correction is orthogonal beyond degree d and removes exactly the
    support above weight 2 theta.  When the family preconditions hold, the
    pointwise size of the correction below 2 theta is also certified
    against the closed-form factor.
    """
    if len(mix.terms) != 1 or mix.terms[0][0] != 1:
        raise PreconditionError("weight_reduce expects a single unit product term")
    if not (theta >= 2 * d >= 2):
        raise PreconditionError("need theta >= 2d and d >= 1")
    labels = mix.terms[0][1]
    n = len(labels)
    preconditions_ok = all([family.member(mix.factors[lab]) for lab in labels])
    _, e_hi = e_brackets()
    _, log_hi = one_plus_ln_brackets(n)
    if F(theta) * family.c ** 2 < 4 * e_hi * n * log_hi:
        preconditions_ok = False
    if enforce_preconditions and not preconditions_ok:
        raise PreconditionError("family preconditions for weight transfer not met")

    dense = mix.densify()
    if not dense.is_distribution():
        raise PreconditionError("expected a probability distribution")
    heavy = {p: v for p, v in dense.entries.items() if sum(p) >= 2 * theta}
    terms = []
    built: dict[Point, FnTable] = {}  # one anchored corrector per distinct u
    for vpt, mass_v in sorted(heavy.items()):
        hs = select_heavy_set(vpt, theta)
        S = sorted(hs.indices)
        u = tuple(vpt[i] for i in S)
        if u not in built:
            built[u] = build_zeta_u(u, d)[0]
        zu_table = built[u]
        placed = {}
        for w, val in zu_table.entries.items():
            p = list(vpt)
            for idx, coord in zip(S, w):
                p[idx] = coord
            placed[tuple(p)] = val
        terms.append((mass_v, placed))
    zeta_t = combine(dense.domain, terms)
    reduced = dense - zeta_t
    support_ok = all(sum(p) < 2 * theta and p in dense.entries
                     for p in reduced.entries)
    orth_ok = (not heavy) or orth(zeta_t, cap=d) is None
    statistical_factor = max((abs(zeta_t(p)) / v for p, v in dense.entries.items()
                              if sum(p) < 2 * theta and zeta_t(p)), default=F(0))
    r, c, alpha = family.r, family.c, family.alpha or F(0)
    exponent = as_rat(-(-theta // r) + alpha * -(-theta // 2) - 2)
    pow2_hi = pow2_bound(exponent.numerator, exponent.denominator, upper=True)
    bound_lower = F(8 * n * r, 1) ** d / c ** d / pow2_hi
    cert = WeightReduceCertificate(
        d=d, theta=theta, support_ok=support_ok, orth_ok=orth_ok,
        statistical_factor=statistical_factor,
        statistical_bound_lower=bound_lower,
        preconditions_ok=preconditions_ok,
        heavy_points=len(heavy),
        is_distribution=reduced.is_distribution())
    if not (support_ok and orth_ok):
        raise ConstructionError(f"weight transfer failed its certificate: {cert}")
    if preconditions_ok and statistical_factor > bound_lower:
        raise ConstructionError("pointwise correction exceeded the closed-form factor")
    return reduced, zeta_t, cert


def weight_reduce_convex(mix: ProductMixture, d: int, theta: int, family: FamilySpec,
                         enforce_preconditions: bool = True
                         ) -> tuple[FnTable, WeightReduceCertificate]:
    """Weight transfer for convex combinations of translated products of
    univariate factors: each term is reduced at the zero corner of its
    support and shifted back."""
    base_family = FamilySpec(kind=family.kind, r=family.r, c=family.c,
                             alpha=family.alpha, delta=0)

    def reduce_term(labels, base, shift):
        if any(a - mix.factors[lab].domain.offset[0] > family.delta
                                      for lab, a in zip(labels, shift)):
            raise PreconditionError("factor translated beyond the family's range")
        reduced, _, cert = weight_reduce(base, d, theta, family=base_family,
                                         enforce_preconditions=enforce_preconditions)
        return reduced, cert

    total, _, done, orth_ok = _reduce_terms(mix, d, reduce_term)
    max_shift = max(sum(shift) for shift, _ in done)
    support_ok = all(sum(p) < 2 * theta + max_shift for p in total.entries)
    certs = [cert for _, cert in done]
    # report the last term whose reduction is not a distribution, else the first
    worst = next((c for c in reversed(certs) if not c.is_distribution), certs[0])
    cert = WeightReduceCertificate(
        d=d, theta=theta, support_ok=support_ok, orth_ok=orth_ok,
        statistical_factor=None, statistical_bound_lower=None,
        preconditions_ok=worst.preconditions_ok, heavy_points=worst.heavy_points,
        is_distribution=total.is_distribution())
    if not (support_ok and orth_ok):
        raise ConstructionError("convex weight transfer failed its certificate")
    return total, cert
