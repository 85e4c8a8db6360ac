"""Exact references that the tests compare the library against, kept here
because no library code calls them: the concentration and cap/ball mass
comparisons applied to concrete tables, the plain inner product, and the
pointwise value of a product mixture."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ptfwitness.brackets import e_brackets, one_plus_ln_brackets, sqrt_lower
from ptfwitness.core import FnTable, as_int, as_rat, smoothness_constant
from ptfwitness.errors import PreconditionError
from ptfwitness.mixtures import ProductMixture
from ptfwitness.smooth_ops import _ball_points

F = Fraction


def inner_product(f: FnTable, g: FnTable) -> Fraction:
    """Sum of f(x) g(x) over the intersection of supports."""
    if f.domain.n != g.domain.n:
        raise PreconditionError("dimension mismatch")
    small, big = (f, g) if len(f.entries) <= len(g.entries) else (g, f)
    acc = Fraction(0)
    for p, v in small.entries.items():
        w = big.entries.get(p)
        if w is not None:
            acc += v * w
    return acc


def mixture_value(mix: ProductMixture, point: tuple[int, ...]) -> Fraction:
    """The mixture at one point: the point is cut into the blocks of the
    mixture's positions and each term's factors are read there."""
    blocks: list[tuple[int, ...]] = []
    k = 0
    for i in range(mix.width):
        d = mix.position_domain(i)
        blocks.append(tuple(point[k:k + d.n]))
        k += d.n
    if k != len(point):
        raise PreconditionError("point length mismatch")
    acc = F(0)
    for c, labs in mix.terms:
        prod = c
        for lab, blk in zip(labs, blocks):
            prod *= mix.factors[lab](blk)
            if prod == 0:
                break
        acc += prod
    return acc


@dataclass
class ConcentrationReport:
    theta: int
    precondition_ok: bool
    envelope_ok: bool
    tail: Fraction
    bound_lower: Fraction
    passed: bool


def check_concentration(lambdas: list[FnTable], C, alpha, theta: int) -> ConcentrationReport:
    """Exact tail mass of a product of univariate distributions against the
    alpha^(theta/2) target, for an integer theta.

    The envelope and the tail are exact; alpha^(theta/2) is compared on its
    adverse (lower) side when theta is odd, alpha^((theta-1)/2) times
    sqrt_lower(alpha), and the precondition involving e and ln n is checked
    against upper brackets.
    """
    C, alpha, theta = as_rat(C), as_rat(alpha), as_int(theta)
    if not (0 <= alpha <= 1) or C < 0:
        raise PreconditionError("need 0 <= alpha <= 1 and C >= 0")
    n = len(lambdas)
    envelope_ok = True
    for lam in lambdas:
        if lam.domain.n != 1 or not lam.is_distribution():
            raise PreconditionError("factors must be univariate distributions")
        for (t,), val in lam.entries.items():
            if val * (t + 1) ** 2 > C * alpha ** t:
                envelope_ok = False
    _, e_hi = e_brackets()
    _, log_hi = one_plus_ln_brackets(n)
    precondition_ok = theta >= 8 * C * e_hi * n * log_hi
    # exact weight-sum distribution by convolution
    weight_mass: dict[int, Fraction] = {0: F(1)}
    for lam in lambdas:
        nxt: dict[int, Fraction] = {}
        for w, p in weight_mass.items():
            for (t,), val in lam.entries.items():
                nxt[w + t] = nxt.get(w + t, F(0)) + p * val
        weight_mass = nxt
    tail = sum((p for w, p in weight_mass.items() if w >= theta), F(0))
    half, odd = divmod(theta, 2)
    bound_lower = alpha ** half * (sqrt_lower(alpha, 24) if odd else 1)
    passed = envelope_ok and precondition_ok and tail <= bound_lower
    return ConcentrationReport(theta=theta, precondition_ok=precondition_ok,
                               envelope_ok=envelope_ok, tail=tail,
                               bound_lower=bound_lower, passed=passed)


@dataclass
class CapBallReport:
    theta: int
    d: int
    K: Fraction
    smooth_ok: bool
    cap_ok: bool
    ball_ok: bool
    checked_anchors: int


def verify_cap_ball(lam: FnTable, theta: int, d: int, K=None) -> CapBallReport:
    """Exact checks of the two mass-comparison inequalities for a K-smooth
    distribution on the weight-capped box, the ball one at every anchor."""
    dom = lam.domain
    if any(dom.offset):
        raise PreconditionError("cap/ball checks expect a zero-based box")
    if not 0 <= d <= theta:
        raise PreconditionError("need 0 <= d <= theta")
    k_actual = smoothness_constant(lam, weight_cap=theta)
    if k_actual is None:
        raise PreconditionError("function vanishes inside the region")
    K = k_actual if K is None else as_rat(K)
    smooth_ok = k_actual <= K
    n = dom.n
    cap_mass = lam.mass(hi=theta)
    cap_ok = cap_mass <= K ** d * comb(n + d, d) * lam.mass(hi=theta - d)
    ball_ok = True
    total_r = sum(dom.bounds)
    if not (2 * d < min(theta, total_r)):
        raise PreconditionError("ball comparison needs d < min(theta, sum r_i) / 2")
    factor = 2 ** (d + 1) * K ** (2 * d + 1) * comb(n + d, d)
    for u in dom.points():
        ball = set(_ball_points(dom, u, d))
        outside = sum((v for p, v in lam.entries.items()
                       if sum(p) <= theta and p not in ball), F(0))
        if cap_mass > factor * outside:
            ball_ok = False
    return CapBallReport(theta=theta, d=d, K=K, smooth_ok=smooth_ok,
                         cap_ok=cap_ok, ball_ok=ball_ok,
                         checked_anchors=dom.size())
