"""Exact references that the tests compare the library against, kept here
because no library code calls them: the concentration and cap/ball mass
comparisons applied to concrete tables, the plain inner product, the
pointwise value of a product mixture, and the code that the integer table
arithmetic replaced.

The last group is the earlier library code, kept verbatim as free
functions: FnTable's integer pointwise product `hadamard` and the dense
+-1 table `sign_table`, whose composition `hadamard(mu, sign_table(f))`
was the sign twist; FnTable's scale, total and l1, add_scaled, tensor (with
the Domain method `weight_range` that only it read) and
ProductMixture.densify, each one Fraction operation at a time;
pow2_brackets with both sides in one integer digit loop;
select_heavy_set on Fraction magnitudes; and serialize's two-step
writer, which copied each object into a tree of dicts, lists and "p/q"
strings (`to_jsonable`) and passed that tree to `json.dumps` with sorted
keys (`tree_dumps`); the per-point circuit evaluation `evaluate`, which
truth tables called once per point, and the De Morgan dual `negated`,
both CircuitDesc methods; and the Fraction Fourier transform (`chi`,
`fourier`) with the pattern-matrix closed form that read it
(`PatternMatrix`, `fraction_pattern_spectral_norm`)."""

import dataclasses
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from ptfwitness.brackets import (
    POW2_BITS,
    Bracket,
    _root_chain,
    e_brackets,
    one_plus_ln_brackets,
    sqrt_lower,
)
from ptfwitness.circuits import CircuitDesc, Gate, Ref
from ptfwitness.core import Domain, FnTable, Point, as_int, as_rat, cleared, smoothness_constant
from ptfwitness.errors import ConstructionError, PreconditionError
from ptfwitness.matrix_bounds import MAX_PATTERN_ENTRIES, SpectralResult
from ptfwitness.mixtures import DENSIFY_LIMIT, ProductMixture
from ptfwitness.serialize import SCHEMA_VERSION, frac_str
from ptfwitness.smooth_ops import HeavySet, _ball_points

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


# ------------------------------------------- Fraction-at-a-time table arithmetic


def fraction_add_scaled(acc: dict[Point, Fraction], c, entries: Mapping[Point, Fraction]) -> None:
    """acc += c * entries, in place, dropping every point that cancels to zero."""
    for p, v in entries.items():
        w = acc.get(p, Fraction(0)) + c * v
        if w == 0:
            acc.pop(p, None)
        else:
            acc[p] = w


def fraction_l1(self: FnTable) -> Fraction:
    return sum((abs(v) for v in self.entries.values()), Fraction(0))


def fraction_total(self: FnTable) -> Fraction:
    return sum(self.entries.values(), Fraction(0))


def fraction_scale(self: FnTable, a) -> FnTable:
    a = as_rat(a)
    if a == 0:
        return FnTable(self.domain, {}, _trusted=True)
    return FnTable(self.domain, {p: a * v for p, v in self.entries.items()},
                   _trusted=True)


def hadamard(self: FnTable, other: FnTable) -> FnTable:
    """Pointwise product over the common support."""
    if self.domain.n != other.domain.n:
        raise PreconditionError("dimension mismatch")
    small, big = (self, other) if len(self.entries) <= len(other.entries) else (other, self)
    common = [p for p in small.entries if p in big.entries]
    vs, vden = cleared([small.entries[p] for p in common])
    ws, wden = cleared([big.entries[p] for p in common])
    den = vden * wden
    return FnTable(self.domain, {p: Fraction(v * w, den) for p, v, w in zip(common, vs, ws)},
                   _trusted=True)


def sign_table(f: FnTable) -> FnTable:
    """(-1)^f over the whole domain of a Boolean table."""
    out = {}
    for p in f.domain.points():
        out[p] = F(-1) if f(p) == 1 else F(1)
    return FnTable(f.domain, out, _trusted=True)


def weight_range(self: Domain) -> tuple[int, int]:
    lo = sum(self.offset)
    hi = lo + sum(self.bounds)
    if self.window is not None:
        lo, hi = max(lo, self.window[0]), min(hi, self.window[1])
    return lo, hi


def fraction_tensor(f: FnTable, g: FnTable) -> FnTable:
    """(f (x) g)(x, y) = f(x) g(y) on the product domain."""
    fa, ga = f.domain, g.domain
    window = None
    if fa.window is not None or ga.window is not None:
        flo, fhi = weight_range(fa)
        glo, ghi = weight_range(ga)
        window = (flo + glo, fhi + ghi)
    dom = Domain(fa.bounds + ga.bounds, fa.offset + ga.offset, window)
    out = {}
    for p, v in f.entries.items():
        for q, w in g.entries.items():
            out[p + q] = v * w
    return FnTable(dom, out, _trusted=True)


def fraction_densify(self: ProductMixture) -> FnTable:
    dom = self.ambient_domain()
    if dom.size() > DENSIFY_LIMIT:
        raise PreconditionError(
            f"dense table would have {dom.size()} points (limit {DENSIFY_LIMIT})")
    out: dict[tuple[int, ...], Fraction] = {}
    for c, labs in self.terms:
        if c == 0:
            continue
        supports = [list(self.factors[lab].entries.items()) for lab in labs]
        for combo in itertools.product(*supports):
            pt = tuple(x for blk, _ in combo for x in blk)
            val = c
            for _, v in combo:
                val *= v
            prev = out.get(pt, F(0)) + val
            if prev == 0:
                out.pop(pt, None)
            else:
                out[pt] = prev
    return FnTable(dom, out, _trusted=True)


# ------------------------------------------------ two-sided power-of-two loop


def two_sided_pow2_brackets(exponent) -> Bracket:
    """Enclose 2**exponent for any rational exponent.

    Works digit by digit on the binary expansion of the fractional part f/q
    (read in integers: double f, subtract q once it reaches q), multiplying
    in directed-rounded dyadic square roots of 2 (`_root_chain`).  The
    chain and the two accumulated products are integer numerators over the
    fixed denominator 2^work, and a rounded product is (a * b) >> work,
    floor or ceiling.  Fractions are built only for the returned pair, so
    arbitrary exponent denominators stay cheap.
    """
    e = as_rat(exponent)
    if e < 0:
        lo, hi = two_sided_pow2_brackets(-e)
        return 1 / hi, 1 / lo
    q = e.denominator
    k, f = divmod(e.numerator, q)
    if f == 0:
        base = Fraction(1 << k)
        return base, base
    work = 2 * POW2_BITS + 8
    one = 1 << work
    lo_acc, hi_acc = one, one  # numerators over 2^work
    for r_lo, r_hi in _root_chain():
        f *= 2
        if f >= q:
            f -= q
            lo_acc = (lo_acc * r_lo) >> work
            hi_acc = -((-hi_acc * r_hi) >> work)
        if f == 0:
            break
    if f != 0:
        # unresolved tail exponent is below 2^-POW2_BITS; absorb one more factor
        hi_acc = -((-hi_acc * r_hi) >> work)
    return Fraction(lo_acc << k, one), Fraction(hi_acc << k, one)


# ------------------------------------------------- heavy sets on Fractions


def fraction_select_heavy_set(v, theta) -> HeavySet:
    """A deterministic set of dominant coordinates.

    Grows prefixes of the magnitude-sorted coordinate order until the
    off-set mass drops below theta; each grown prefix keeps the size and
    area guarantees.  Ties are broken by coordinate index so the output is
    reproducible.
    """
    v = [as_rat(x) for x in v]
    theta = as_rat(theta)
    n = len(v)
    total = sum(abs(x) for x in v)
    if not (total >= theta > 0):
        raise PreconditionError("need ||v||_1 >= theta > 0")
    _, log_hi = one_plus_ln_brackets(n)
    order = sorted(range(n), key=lambda i: (-abs(v[i]), i))
    mags = [abs(v[i]) for i in order]

    def grow(start: int) -> int:
        """Smallest prefix length k > start of the remaining suffix order
        meeting both regularity conditions for the remaining vector."""
        rem = mags[start:]
        rem_total = sum(rem)
        rem_inf = rem[0] if rem else F(0)
        if rem_inf == 0:
            raise ConstructionError("cannot grow a heavy set over zeros")
        need_size = rem_total / (2 * rem_inf)
        for k in range(1, len(rem) + 1):
            if k >= need_size and k * rem[k - 1] * (2 * log_hi) >= rem_total:
                return start + k
        raise ConstructionError("no regular prefix found; bracket too loose")

    chosen = grow(0)  # prefix length of `order` selected so far
    while sum(mags[chosen:]) >= theta:
        chosen = grow(chosen)

    S = frozenset(order[:chosen])
    vinf = max(abs(x) for x in v)
    large_ok = len(S) * 2 * vinf >= total
    min_s = min(abs(v[i]) for i in S)
    area_ok = min_s * len(S) * 2 * log_hi >= theta
    outside_ok = sum(abs(v[i]) for i in range(n) if i not in S) < theta
    hs = HeavySet(indices=S, theta=theta, large_ok=large_ok, area_ok=area_ok,
                  outside_ok=outside_ok, log_bracket_hi=log_hi)
    if not (large_ok and area_ok and outside_ok):
        raise ConstructionError(f"heavy set failed its certificate: {hs}")
    return hs


# ------------------------------------------------ two-step JSON writer


def to_jsonable(obj):
    """Recursive encoder: fractions to "p/q", tuples to lists, dataclasses
    to tagged dicts, tables and domains to their schemas.  A float, like any
    other unknown type, raises PreconditionError."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Domain):
        return domain_to_json(obj)
    if isinstance(obj, FnTable):
        return table_to_json(obj)
    if isinstance(obj, ProductMixture):
        return mixture_to_json(obj)
    if isinstance(obj, CircuitDesc):
        return circuit_to_json(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, tuple):
                k = ",".join(map(str, k))
            elif isinstance(k, frozenset):
                k = ",".join(map(str, sorted(k)))
            out[str(k)] = to_jsonable(v)
        return out
    if dataclasses.is_dataclass(obj):
        body = {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
        body["_type"] = type(obj).__name__
        return body
    raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def tree_dumps(obj, **kw) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, **kw)


def domain_to_json(d: Domain) -> dict:
    out = {"bounds": list(d.bounds), "offset": list(d.offset)}
    if d.window is not None:
        out["window"] = list(d.window)
    return out


def table_to_json(t: FnTable) -> dict:
    entries = [[list(p), frac_str(v)] for p, v in sorted(t.entries.items())]
    return {"schema": f"fntable/{SCHEMA_VERSION}",
            "domain": domain_to_json(t.domain), "entries": entries}


def mixture_to_json(m: ProductMixture) -> dict:
    return {"schema": f"mixture/{SCHEMA_VERSION}",
            "factors": {lab: table_to_json(t) for lab, t in sorted(m.factors.items())},
            "terms": [[frac_str(c), list(labels)] for c, labels in m.terms]}


def circuit_to_json(c: CircuitDesc) -> dict:
    return {"schema": f"circuit/{SCHEMA_VERSION}",
            "n_inputs": c.n_inputs,
            "gates": [[g.op, [list(r) for r in g.children]] for g in c.gates],
            "output": list(c.output)}


def evaluate(self: CircuitDesc, x: Sequence[int]) -> int:
    if len(x) != self.n_inputs:
        raise PreconditionError("arity mismatch")
    vals: list[int] = []

    def ref_val(ref: Ref) -> int:
        if ref[0] == "lit":
            _, var, neg = ref
            return 1 - x[var] if neg else x[var]
        return vals[ref[1]]

    for g in self.gates:
        bits = [ref_val(r) for r in g.children]
        vals.append(int(all(bits)) if g.op == "and" else int(any(bits)))
    return ref_val(self.output)


def negated(self: CircuitDesc) -> CircuitDesc:
    """De Morgan dual: same DAG with ops swapped and literals negated."""
    out = CircuitDesc(self.n_inputs)
    for g in self.gates:
        kids = tuple(("lit", r[1], not r[2]) if r[0] == "lit" else r for r in g.children)
        out.gates.append(Gate("or" if g.op == "and" else "and", kids))
    if self.output[0] == "lit":
        out.output = ("lit", self.output[1], not self.output[2])
    else:
        out.output = self.output
    return out


def chi(S: frozenset[int], p: Point) -> int:
    s = sum(p[i] for i in S)
    return -1 if s % 2 else 1


def fourier(f: FnTable) -> dict[frozenset[int], Fraction]:
    """All 2^n character coefficients of a function on the full hypercube."""
    if not f.domain.is_hypercube:
        raise PreconditionError("fourier transform requires a full hypercube domain")
    n = f.domain.n
    scale = Fraction(1, 2 ** n)
    out: dict[frozenset[int], Fraction] = {}
    for comb_S in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        S = frozenset(comb_S)
        acc = Fraction(0)
        for p, v in f.entries.items():
            acc += v * chi(S, p)
        out[S] = acc * scale
    return out


@dataclass(frozen=True)
class PatternMatrix:
    """The (N, n, phi)-pattern matrix: rows indexed by strings x of length
    N, columns by (one position per block V, shift mask w) pairs, entries
    phi(x_V xor w)."""

    N: int
    n: int
    phi: FnTable

    def __post_init__(self):
        if self.N % self.n:
            raise PreconditionError("block structure needs n | N")
        if not self.phi.domain.is_hypercube or self.phi.domain.n != self.n:
            raise PreconditionError("phi must live on the n-dimensional hypercube")

    @property
    def shape(self) -> tuple[int, int]:
        b = self.N // self.n
        return 2 ** self.N, b ** self.n * 2 ** self.n


def fraction_pattern_spectral_norm(phi: FnTable, N: int, n: int) -> SpectralResult:
    """The closed form of pattern_spectral_norm over `fourier`, without its
    comparison against the spectrum of A A^T."""
    pm = PatternMatrix(N, n, phi)
    rows, cols = pm.shape
    if rows * cols > MAX_PATTERN_ENTRIES:
        raise PreconditionError(f"pattern matrix of size {rows}x{cols} too large")
    coeffs = fourier(phi)
    b = F(N, n)
    best = None
    best_S = frozenset()
    for S, c in coeffs.items():
        val = c * c / b ** len(S)
        if best is None or val > best:
            best, best_S = val, S
    norm_sq = F(2 ** (N + n)) * b ** n * best
    return SpectralResult(norm_sq=norm_sq, argmax=best_S)
