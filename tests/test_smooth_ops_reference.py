"""The weight-transfer steps of ptfwitness.smooth_ops and
ptfwitness.corrector against the code they replaced.

The reference below is the earlier implementation, kept verbatim with an
`old_` prefix: build_Zu, zero_out_heavy with its translated and convex
wrappers, redistribute, weight_reduce and weight_reduce_convex (each with
its own accumulate loop, zeroizer bound and cap-smoothness step, and the
`K` parameters the library no longer takes), and the separate body of
build_zeta_cube.  Every call must give the same entries and the same
serialized certificate as the reference, or raise the same exception type
with the same message.  zero_out_heavy_convex may return its table on the
mixture's ambient box instead of the bounding box of the term supports, so
there only the entries are compared.  build_zeta_cube is now the anchored
corrector below the all-ones point, whose certificate also records the
anchor; everything else it returns is compared.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from ptfwitness import serialize
from ptfwitness.brackets import e_brackets, inv_sqrt_brackets, one_plus_ln_brackets, pow2_brackets
from ptfwitness.core import Domain, FnTable, hypercube, orth, smoothness_constant
from ptfwitness.corrector import (
    CorrectorCertificate,
    build_zeta_cube,
    build_zeta_u,
    build_zeta_uv,
    corrector_levels,
)
from ptfwitness.dual_mp import build_mp_smooth_witness, build_mp_witness
from ptfwitness.errors import ConstructionError, PreconditionError
from ptfwitness.mixtures import FamilySpec, ProductMixture
from ptfwitness.smooth_ops import (
    ConvexZeroOutCertificate,
    RedistributeCertificate,
    WeightReduceCertificate,
    ZeroOutCertificate,
    ZuCertificate,
    _ball_points,
    _diam,
    build_Zu,
    redistribute,
    select_heavy_set,
    weight_reduce,
    weight_reduce_convex,
    zero_out_heavy,
    zero_out_heavy_convex,
)

F = Fraction

Point = tuple[int, ...]


# ---------------------------------------------------------------- reference


def old_build_Zu(lam: FnTable, u: Point, d: int, theta: int,
             K=None) -> tuple[FnTable, ZuCertificate]:
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
    k_actual = smoothness_constant(lam, weight_cap=theta)
    if k_actual is None:
        raise PreconditionError("distribution vanishes inside the region")
    K = k_actual if K is None else F(K)
    if k_actual > K:
        raise PreconditionError("distribution is not K-smooth at the given K")

    ball = set(_ball_points(dom, u, d))
    targets = [p for p in dom.points() if sum(p) <= theta - d and p not in ball]
    mass = sum((lam(p) for p in targets if lam(p)), F(0))
    if mass == 0:
        raise ConstructionError("no mass outside the ball; cap/ball bounds violated")
    acc: dict[Point, Fraction] = {}
    for vpt in targets:
        w = lam(vpt)
        if not w:
            continue
        zeta, _ = build_zeta_uv(u, vpt, d)
        for p, val in zeta.entries.items():
            cur = acc.get(p, F(0)) + w * val
            if cur == 0:
                acc.pop(p, None)
            else:
                acc[p] = cur
    zu = FnTable(dom, {p: v / mass for p, v in acc.items()})

    n = dom.n
    diam = _diam(set(lam.entries) | {u})
    support_ok = all(sum(p) <= theta or p == u for p in zu.entries)
    at_u = zu(u)
    orth_ok = orth(zu, cap=d) is None
    l1_bound = F(2 ** d * comb(diam, d) + 1)
    outside = F(0)
    for p, v in zu.entries.items():
        if p != u:
            outside = max(outside, abs(v) / lam(p))
    factor_bound = (F(2 ** (3 * d + 1)) * K ** (4 * d + 1)
                    * comb(n + d, d) ** 3 * comb(diam, d))
    cert = ZuCertificate(u=u, d=d, theta=theta, K=K, support_ok=support_ok,
                         at_u=at_u, orth_ok=orth_ok, l1=zu.l1(), l1_bound=l1_bound,
                         outside_factor=outside, outside_factor_bound=factor_bound)
    if not (support_ok and at_u == 1 and orth_ok and zu.l1() <= l1_bound
            and outside <= factor_bound):
        raise ConstructionError(f"zeroizer failed its certificate: {cert}")
    return zu, cert


def old_zero_out_heavy(phi: FnTable, d: int, theta: int,
                   K=None) -> tuple[FnTable, ZeroOutCertificate]:
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
    low_l1 = low.l1()
    lam = FnTable(dom, {p: abs(v) / low_l1 for p, v in low.entries.items()},
                  _trusted=True)
    k_actual = smoothness_constant(lam, weight_cap=theta)
    if k_actual is None:
        raise PreconditionError("function is not locally smooth on the cap")
    K = k_actual if K is None else F(K)
    acc: dict[Point, Fraction] = dict(phi.entries)
    worst_zu_factor = F(0)
    for u, val in sorted(heavy.items()):
        zu, zu_cert = old_build_Zu(lam, u, d, theta, K=K)
        worst_zu_factor = max(worst_zu_factor, zu_cert.outside_factor)
        for p, zv in zu.entries.items():
            cur = acc.get(p, F(0)) - val * zv
            if cur == 0:
                acc.pop(p, None)
            else:
                acc[p] = cur
    phi_t = FnTable(dom, acc, _trusted=True)
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
    n = dom.n
    diam = _diam(phi.entries)
    bound = (F(2 ** (3 * d + 1)) * K ** (4 * d + 1) * comb(n + d, d) ** 3
             * comb(diam, d) * heavy_l1 / low_l1)
    cert = ZeroOutCertificate(d=d, theta=theta, K=K, trivial=False,
                              support_ok=support_ok, orth_ok=orth_ok,
                              distance_factor=factor,
                              distance_factor_bound=bound)
    if not (support_ok and orth_ok and factor <= bound):
        raise ConstructionError(f"heavy-tail removal failed its certificate: {cert}")
    return phi_t, cert


def old_zero_out_heavy_translated(phi: FnTable, d: int, theta: int,
                              K=None) -> tuple[FnTable, ZeroOutCertificate]:
    """Same as zero_out_heavy for a function living on a translated box."""
    dom = phi.domain
    shift = dom.offset
    base = sum(shift)
    if 3 * d >= theta - base:
        raise PreconditionError("need d < (theta - sum offsets) / 3")
    base_dom = Domain(dom.bounds)
    moved = FnTable(base_dom,
                    {tuple(a - s for a, s in zip(p, shift)): v
                     for p, v in phi.entries.items()}, _trusted=True)
    out, cert = old_zero_out_heavy(moved, d, theta - base, K=K)
    back = FnTable(dom, {tuple(a + s for a, s in zip(p, shift)): v
                         for p, v in out.entries.items()}, _trusted=True)
    return back, cert


def old_zero_out_heavy_convex(mix: ProductMixture, d: int, theta: int
                          ) -> tuple[FnTable, ConvexZeroOutCertificate]:
    """Apply the translated zeroizer to every term of a convex combination
    of product distributions and recombine."""
    if not mix.coefficients_convex():
        raise PreconditionError("expected a convex combination")
    from ptfwitness.core import tighten_domain

    total: FnTable | None = None
    dense_total: FnTable | None = None
    term_certs = []
    delta_tail = F(0)
    for coeff, labels in mix.terms:
        term = tighten_domain(ProductMixture(mix.factors, [(F(1), labels)]).densify())
        tail = term.mass(lo=theta + 1)
        delta_tail = max(delta_tail, tail)
        reduced, cert = old_zero_out_heavy_translated(term, d, theta)
        term_certs.append(cert)
        scaled = reduced.scale(coeff)
        dense_term = term.scale(coeff)
        total = scaled if total is None else total + scaled
        dense_total = dense_term if dense_total is None else dense_total + dense_term
    diff = dense_total - total
    orth_ok = orth(diff, cap=d) is None
    support_ok = all(sum(p) <= theta for p in total.entries) and \
        all(p in dense_total.entries for p in total.entries)
    factor = F(0)
    for p, v in dense_total.entries.items():
        if sum(p) <= theta and diff(p):
            factor = max(factor, abs(diff(p)) / abs(v))
    is_dist = total.is_distribution()
    cert = ConvexZeroOutCertificate(d=d, theta=theta, delta_tail=delta_tail,
                                    orth_ok=orth_ok, support_ok=support_ok,
                                    pointwise_factor=factor,
                                    is_distribution=is_dist,
                                    term_certs=term_certs)
    if not (orth_ok and support_ok):
        raise ConstructionError("convex zeroizer failed its certificate")
    return total, cert


# ---------------------------------------------------------- redistribution


def old_redistribute(phi: FnTable, lam_star: FnTable, d: int, theta: int,
                 K=None) -> tuple[FnTable, RedistributeCertificate]:
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
    l1 = phi.l1()
    lam = FnTable(dom, {p: abs(v) / l1 for p, v in phi.entries.items()}, _trusted=True)
    k_actual = smoothness_constant(lam, weight_cap=theta)
    if k_actual is None:
        raise PreconditionError("function is not locally smooth on the cap")
    K = k_actual if K is None else F(K)
    n = dom.n
    diam = _diam(phi.entries)
    N = (F(2 ** (3 * d + 1)) * K ** (4 * d + 1) * comb(n + d, d) ** 3
         * comb(diam, d))
    acc: dict[Point, Fraction] = dict(phi.entries)
    for u in sorted(lam_star.entries):
        w = lam_star(u)
        zu, _ = old_build_Zu(lam, u, d, theta, K=K)
        sgn = 1 if phi(u) >= 0 else -1
        scale = l1 / N * sgn * w
        for p, zv in zu.entries.items():
            cur = acc.get(p, F(0)) + scale * zv
            if cur == 0:
                acc.pop(p, None)
            else:
                acc[p] = cur
    phi_star = FnTable(dom, acc, _trusted=True)
    orth_ok = orth(phi - phi_star, cap=d) is None
    l1_ok = phi_star.l1() <= 2 * l1
    sign_ok = all(phi(p) * phi_star(p) >= 0 for p in region)
    guaranteed = l1 / N
    actual = None
    for p, w in lam_star.entries.items():
        ratio = abs(phi_star(p)) / w
        actual = ratio if actual is None else min(actual, ratio)
    actual = actual if actual is not None else F(0)
    cert = RedistributeCertificate(d=d, theta=theta, K=K, N=N, orth_ok=orth_ok,
                                   l1_ok=l1_ok, sign_ok=sign_ok,
                                   min_smooth_factor=guaranteed,
                                   min_smooth_factor_actual=actual)
    ok = orth_ok and l1_ok and sign_ok and actual >= guaranteed
    if not ok:
        raise ConstructionError(f"redistribution failed its certificate: {cert}")
    return phi_star, cert


# ---------------------------------------------------------- weight transfer


def old_weight_reduce(mix: ProductMixture, d: int, theta: int,
                  family: FamilySpec | None = None,
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
    factors = [mix.factors[lab] for lab in labels]
    preconditions_ok = True
    if family is not None:
        for f in factors:
            if not family.member(f):
                preconditions_ok = False
        e_lo, e_hi = e_brackets()
        _, log_hi = one_plus_ln_brackets(n)
        if F(theta) * family.c ** 2 < 4 * e_hi * n * log_hi:
            preconditions_ok = False
    else:
        preconditions_ok = False
    if enforce_preconditions and not preconditions_ok:
        raise PreconditionError("family preconditions for weight transfer not met")

    dense = mix.densify()
    if not dense.is_distribution():
        raise PreconditionError("expected a probability distribution")
    heavy = {p: v for p, v in dense.entries.items() if sum(p) >= 2 * theta}
    zeta: dict[Point, Fraction] = {}
    for vpt, mass_v in sorted(heavy.items()):
        hs = select_heavy_set(vpt, theta)
        S = sorted(hs.indices)
        u = tuple(vpt[i] for i in S)
        zu_table, _ = build_zeta_u(u, d)
        for w, val in zu_table.entries.items():
            p = list(vpt)
            for idx, coord in zip(S, w):
                p[idx] = coord
            p = tuple(p)
            cur = zeta.get(p, F(0)) + mass_v * val
            if cur == 0:
                zeta.pop(p, None)
            else:
                zeta[p] = cur
    zeta_t = FnTable(dense.domain, zeta, _trusted=True)
    reduced = dense - zeta_t
    support_ok = all(sum(p) < 2 * theta and p in dense.entries
                     for p in reduced.entries)
    orth_ok = (not heavy) or orth(zeta_t, cap=d) is None
    statistical_factor = None
    bound_lower = None
    if family is not None:
        statistical_factor = F(0)
        for p, v in dense.entries.items():
            if sum(p) < 2 * theta and zeta_t(p):
                statistical_factor = max(statistical_factor, abs(zeta_t(p)) / v)
        r, c, alpha = family.r, family.c, family.alpha or F(0)
        exponent = -(-theta // r) + alpha * -(-theta // 2) - 2
        bound_lower = F(8 * n * r, 1) ** d / c ** d / pow2_brackets(exponent)[1]
    cert = WeightReduceCertificate(
        d=d, theta=theta, support_ok=support_ok, orth_ok=orth_ok,
        statistical_factor=statistical_factor,
        statistical_bound_lower=bound_lower,
        preconditions_ok=preconditions_ok,
        heavy_points=len(heavy),
        is_distribution=reduced.is_distribution())
    if not (support_ok and orth_ok):
        raise ConstructionError(f"weight transfer failed its certificate: {cert}")
    if preconditions_ok and statistical_factor is not None \
            and bound_lower is not None and statistical_factor > bound_lower:
        raise ConstructionError("pointwise correction exceeded the closed-form factor")
    return reduced, zeta_t, cert


def old_weight_reduce_convex(mix: ProductMixture, d: int, theta: int,
                         family: FamilySpec | None = None,
                         enforce_preconditions: bool = True
                         ) -> tuple[FnTable, WeightReduceCertificate]:
    """Weight transfer for convex combinations of translated products: each
    term is shifted to the base box, reduced, and shifted back."""
    if not mix.coefficients_convex():
        raise PreconditionError("expected a convex combination")
    base_family = None
    if family is not None:
        base_family = FamilySpec(kind=family.kind, r=family.r, c=family.c,
                                 alpha=family.alpha, delta=0)
    total: FnTable | None = None
    dense_total: FnTable | None = None
    worst: WeightReduceCertificate | None = None
    max_shift = 0
    for coeff, labels in mix.terms:
        shifts = []
        base_factors = {}
        base_labels = []
        for i, lab in enumerate(labels):
            t = mix.factors[lab]
            # translate each factor to base form by its least support point
            a = min((p[0] for p in t.entries), default=t.domain.offset[0])
            if family is not None and a - t.domain.offset[0] > family.delta:
                raise PreconditionError("factor translated beyond the family's range")
            shifts.append(a)
            base = FnTable(Domain(t.domain.bounds),
                           {(p[0] - a,): v for p, v in t.entries.items()},
                           _trusted=True)
            base_lab = f"{lab}@0"
            base_factors[base_lab] = base
            base_labels.append(base_lab)
        max_shift = max(max_shift, sum(shifts))
        sub = ProductMixture(base_factors, [(F(1), tuple(base_labels))])
        reduced, _, cert = old_weight_reduce(sub, d, theta, family=base_family,
                                         enforce_preconditions=enforce_preconditions)
        if worst is None or not cert.is_distribution:
            worst = cert
        shifted = FnTable(
            mix.ambient_domain(),
            {tuple(a + s for a, s in zip(p, shifts)): coeff * v
             for p, v in reduced.entries.items()})
        dense_term = ProductMixture(mix.factors, [(coeff, labels)]).densify()
        total = shifted if total is None else total + shifted
        dense_total = dense_term if dense_total is None else dense_total + dense_term
    diff = dense_total - total
    orth_ok = diff.is_zero() or orth(diff, cap=d) is None
    support_ok = all(sum(p) < 2 * theta + max_shift for p in total.entries)
    cert = WeightReduceCertificate(
        d=d, theta=theta, support_ok=support_ok, orth_ok=orth_ok,
        statistical_factor=None, statistical_bound_lower=None,
        preconditions_ok=worst.preconditions_ok if worst else False,
        heavy_points=worst.heavy_points if worst else 0,
        is_distribution=total.is_distribution())
    if not (support_ok and orth_ok):
        raise ConstructionError("convex weight transfer failed its certificate")
    return total, cert


def old_build_zeta_cube(n: int, d: int) -> tuple[FnTable, CorrectorCertificate]:
    """Symmetric corrector on {0,1}^n: value 1 at the all-ones point,
    support otherwise within weight <= d, orthogonal beyond degree d, and
    l1 norm at most 1 + 2^d C(n,d)."""
    levels, det = corrector_levels(n, d)
    dom = hypercube(n)
    entries: dict[Point, Fraction] = {(1,) * n: F(1)}
    for p in dom.points():
        w = sum(p)
        if w <= d and levels[w] != 0:
            entries[p] = levels[w]
    table = FnTable(dom, entries)
    l1 = table.l1()
    bound = 1 + F(2 ** d * comb(n, d))
    cert = CorrectorCertificate(n=n, d=d, levels=levels, l1=l1, l1_bound=bound,
                                determinant=det)
    if l1 > bound:
        raise ConstructionError(f"corrector l1 {l1} exceeds {bound}; solver bug")
    if orth(table, cap=d) is not None:
        raise ConstructionError("corrector failed its orthogonality check")
    return table, cert


# --------------------------------------------------------------- comparison


def outcome(fn, *args, ambient_ok=False, **kw):
    """What a call returned, in comparable form: tables as their domain and
    sorted entries (entries only when ambient_ok), everything else as its
    serialized JSON; or the exception's type and message."""
    try:
        out = fn(*args, **kw)
    except Exception as exc:  # any type: the type and message are part of the outcome
        return ("raised", type(exc).__name__, str(exc))
    parts = []
    for item in out:
        if isinstance(item, FnTable):
            entries = sorted(item.entries.items())
            parts.append(entries if ambient_ok else (item.domain, entries))
        else:
            parts.append(serialize.dumps(item))
    return ("returned", parts)


def same(new, old, *args, ambient_ok=False, **kw):
    got = outcome(new, *args, ambient_ok=ambient_ok, **kw)
    want = outcome(old, *args, ambient_ok=ambient_ok, **kw)
    assert got == want, (new.__name__, args, kw)
    return got[0] == "returned"


# a loose family (tiny c, wide translates) whose weight precondition
# theta c^2 >= 4 e n (1 + ln n) fails at every theta these tests use
LOOSE = FamilySpec(kind="bounded", r=3, c=F(1, 10**6), alpha=F(0), delta=9)


def random_factor(rng, r):
    vals = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r + 1)]
    tot = sum(vals)
    return FnTable(Domain((r,)), {(t,): v / tot for t, v in enumerate(vals)})


def random_product(rng, n):
    factors = {f"f{i}": random_factor(rng, rng.randint(1, 3)) for i in range(n)}
    return ProductMixture(factors, [(F(1), tuple(factors))]).densify()


@pytest.fixture(scope="module")
def smooth_mixtures():
    out = []
    for m, r, R in itertools.product((1, 2), (1, 2), range(1, 6)):
        if R >= r:
            lam_0, lam_1, _ = build_mp_smooth_witness(m, r, R)
            out.append((m, R, lam_0, lam_1))
    return out


def test_zero_out_heavy_convex_matches_reference(smooth_mixtures):
    returned = 0
    for m, R, lam_0, lam_1 in smooth_mixtures:
        for mix, theta, d in itertools.product((lam_0, lam_1), range(3, m * R + 2), (0, 1)):
            returned += same(zero_out_heavy_convex, old_zero_out_heavy_convex, mix, d, theta,
                             ambient_ok=True)
    assert returned > 100


def test_zero_out_heavy_convex_tensor_mixtures_match_reference(smooth_mixtures):
    # the z-indexed products that min_smooth_amplify hands to the tails stage
    for m, R, lam_0, lam_1 in smooth_mixtures:
        if m == 1 and R >= 3:
            for a, b in itertools.product((lam_0, lam_1), repeat=2):
                for theta in (R, R + 1):
                    same(zero_out_heavy_convex, old_zero_out_heavy_convex,
                         a.tensor_with(b), 1, theta, ambient_ok=True)


def booleanize_mixture(z, witnesses):
    mix0, mix1, _ = witnesses
    mix = None
    for zi in z:
        part = mix1 if zi else mix0
        mix = part if mix is None else mix.tensor_with(part)
    return mix


def test_weight_reduce_convex_matches_reference():
    returned = 0
    for m, r in itertools.product((1, 2), (1, 2)):
        witnesses = build_mp_witness(m, r)
        gadget = witnesses[2].gadget
        family = FamilySpec(kind="bounded", r=r, c=gadget.c1,
                            alpha=gadget.c2 * inv_sqrt_brackets(r)[0], delta=1)
        for n in (1, 2):
            for z in itertools.product((0, 1), repeat=n):
                mix = booleanize_mixture(z, witnesses)
                for theta, d, fam in itertools.product((2, 3, 4), (1, 2), (family, LOOSE)):
                    returned += same(weight_reduce_convex, old_weight_reduce_convex,
                                     mix, d, theta, family=fam, enforce_preconditions=False)
                same(weight_reduce_convex, old_weight_reduce_convex, mix, 1, 2,
                     family=family)
    assert returned > 50


def test_weight_reduce_convex_translated_factors_match_reference():
    rng = random.Random(7)
    for _ in range(40):
        factors = {}
        for k in range(3):
            r = rng.randint(1, 3)
            lo = rng.randint(0, 2)
            off = rng.randint(0, lo)  # the factor's box starts at or below its support
            vals = [F(rng.randint(1, 9)) for _ in range(r + 1)]
            tot = sum(vals)
            factors[f"f{k}"] = FnTable(Domain((r + lo - off,), (off,)),
                                       {(lo + t,): v / tot for t, v in enumerate(vals)})
        labels = sorted(factors)
        terms = [tuple(rng.choice(labels) for _ in range(2)) for _ in range(rng.randint(1, 3))]
        weights = [F(rng.randint(0, 4)) for _ in terms]
        if not sum(weights):
            weights[0] = F(1)
        mix = ProductMixture(factors, [(w / sum(weights), t) for w, t in zip(weights, terms)])
        family = FamilySpec(kind="bounded", r=3, c=F(1, 50), alpha=F(0), delta=rng.randint(0, 2))
        for fam in (family, LOOSE):
            same(weight_reduce_convex, old_weight_reduce_convex, mix, 1, rng.randint(2, 4),
                 family=fam, enforce_preconditions=False)


def test_weight_reduce_matches_reference():
    rng = random.Random(3)
    for _ in range(30):
        lam = random_factor(rng, rng.randint(1, 3))
        mix = ProductMixture({"lam": lam}, [(F(1), ("lam",) * rng.randint(1, 4))])
        family = FamilySpec(kind="bounded", r=3, c=F(1, 50), alpha=F(0))
        for fam, enforce in ((family, False), (family, True), (LOOSE, False)):
            same(weight_reduce, old_weight_reduce, mix, 1, rng.randint(2, 4),
                 family=fam, enforce_preconditions=enforce)


def test_zero_out_heavy_matches_reference():
    rng = random.Random(1)
    returned = 0
    for _ in range(60):
        phi = random_product(rng, rng.randint(1, 3))
        if rng.random() < 0.3:
            phi = FnTable(phi.domain, {p: v * rng.choice((1, -1)) for p, v in phi.entries.items()})
        for d in (0, 1):
            returned += same(zero_out_heavy, old_zero_out_heavy, phi, d, rng.randint(1, 7))
    assert returned > 30


def cap_function(rng, n, theta, signed):
    phi = random_product(rng, n)
    return FnTable(phi.domain, {p: v * (rng.choice((1, -1)) if signed else 1)
                                for p, v in phi.entries.items() if sum(p) <= theta})


def test_redistribute_matches_reference():
    rng = random.Random(2)
    returned = 0
    for _ in range(60):
        n, theta, d = rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 1)
        phi = cap_function(rng, n, theta, signed=rng.random() < 0.5)
        region = [p for p in phi.domain.points() if sum(p) <= theta]
        picked = rng.sample(region, rng.randint(1, len(region)))
        weights = [F(rng.randint(1, 5)) for _ in picked]
        lam_star = FnTable(phi.domain, {p: w / sum(weights) for p, w in zip(picked, weights)})
        returned += same(redistribute, old_redistribute, phi, lam_star, d, theta)
    assert returned > 10


def test_build_zu_matches_reference():
    rng = random.Random(4)
    returned = 0
    for _ in range(40):
        n, theta, d = rng.randint(1, 3), rng.randint(2, 6), rng.randint(0, 1)
        lam = cap_function(rng, n, theta, signed=False)
        lam = lam.scale(1 / lam.total())
        u = rng.choice(list(lam.domain.points()))
        returned += same(build_Zu, old_build_Zu, lam, u, d, theta)
    assert returned > 10


def test_build_zeta_cube_matches_reference():
    for n in range(0, 12):
        for d in range(-1, 4):
            try:
                want_table, want = old_build_zeta_cube(n, d)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    build_zeta_cube(n, d)
                continue
            table, cert = build_zeta_cube(n, d)
            assert table == want_table
            assert (cert.n, cert.d, cert.levels, cert.l1, cert.l1_bound, cert.determinant) == (
                want.n, want.d, want.levels, want.l1, want.l1_bound, want.determinant)
            assert cert.anchor == (1,) * n and cert.base is None
