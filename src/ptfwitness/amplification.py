"""Composition and amplification pipelines.

build_g / build_G     the input compression maps: a balanced encoding of
                      n+1 labels into 6*ceil(log2(n+1)) bits whose
                      preimages agree on all low-degree moments, and its
                      blockwise sum onto weight-capped integer vectors
booleanize            weight-reduced product witnesses indexed by a Boolean
                      string, with the certified degree-drop property
compose_table         truth tables of f composed blockwise with the
                      symmetric Minsky-Papert function on {0..R}^m,
                      optionally weight-capped
min_smooth_amplify    the four-stage pipeline that turns a min-smooth dual
                      witness for f into one for the composition, signed
                      by compose_table's table
amplify_circuit_once  the explicit AND-OR-AND circuit realization of one
                      amplification step
build_fkn             the recursive monotone circuit family

Every step reads a point's blocks through `circuits.mp_star_blocks`, and
the witnesses indexed by z are the products `_z_product` builds: the
second component on the blocks with z_i = 1, the first on the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .brackets import (
    e_brackets,
    inv_sqrt_brackets,
    log2_brackets,
    one_plus_ln_brackets,
    sqrt_brackets,
)
from .circuits import CircuitDesc, literal, mp, mp_star_blocks
from .core import (
    Domain,
    FnTable,
    as_rat,
    box,
    combine,
    hypercube,
    least_poly_degree,
    orth,
    smoothness_constant,
    weight_slice,
)
from .dual_mp import build_mp_smooth_witness, build_mp_witness
from .errors import ConstructionError, PreconditionError
from .mixtures import FamilySpec, ProductMixture
from .oracles import bool_table, eval_poly, twist
from .smooth_ops import redistribute, weight_reduce_convex, zero_out_heavy_convex

F = Fraction

Point = tuple[int, ...]


# ------------------------------------------------------------- compression


@dataclass
class GMap:
    """A surjection {0,1}^(6k) -> {0, e_1, .., e_n} constant on cosets of a
    linear code whose nonzero words all have weight above k.  Characters of
    degree at most k then sum to zero over every coset, which makes all the
    label preimages agree on low-degree moments."""

    n: int
    k: int
    width: int
    rows: tuple[tuple[int, ...], ...]  # disjoint parity supports
    label_of_syndrome: dict[tuple[int, ...], int]  # 0 = zero label, i = e_i

    def syndrome(self, x: Point) -> tuple[int, ...]:
        return tuple(sum(x[i] for i in row) % 2 for row in self.rows)

    def label(self, x: Point) -> int:
        return self.label_of_syndrome[self.syndrome(x)]


@dataclass
class CompressionCertificate:
    n: int
    k: int
    surjective: bool
    moments_ok: bool
    code_distance: int
    moments_exhaustive: bool = False


def build_g(n: int) -> tuple[GMap, CompressionCertificate]:
    """Deterministic label encoding for n+1 labels on 6 ceil(log2(n+1)) bits.

    Verifies that all labels occur and, on at most 12 bits, exhaustively
    that every label preimage has the same moments of degree at most k as
    label 0's, through `orth`.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    k = n.bit_length()  # ceil(log2(n + 1))
    width = 6 * k
    j = k  # 2^k >= n+1 syndromes suffice
    if j * (k + 1) > width:
        raise PreconditionError("code construction needs k <= 5 (n <= 31)")
    rows = tuple(tuple(range(t * (k + 1), (t + 1) * (k + 1))) for t in range(j))
    label_of = {}
    for mask in range(2 ** j):
        syn = tuple(mask >> (j - 1 - b) & 1 for b in range(j))
        label_of[syn] = mask if mask <= n else 0
    g = GMap(n=n, k=k, width=width, rows=rows, label_of_syndrome=label_of)

    # structural verification: every nonzero word of the row space has
    # weight above k, so every character of degree <= k is balanced on
    # every coset and all label averages agree
    distance = None
    for mask in range(1, 2 ** j):
        support = set()
        for b in range(j):
            if mask >> b & 1:
                support ^= set(rows[b])
        distance = len(support) if distance is None else min(distance, len(support))
    moments_ok = distance > k
    surjective = set(label_of.values()) == set(range(n + 1))

    exhaustive = width <= 12
    if exhaustive:
        # additionally verify the moment equalities point by point: u_lab - u_0,
        # u_lab uniform on label lab's preimage, is orthogonal to every
        # monomial of degree <= k, which span the characters of degree <= k
        dom = hypercube(width)
        preimages: dict[int, list[Point]] = {}
        for p in dom.points():
            preimages.setdefault(g.label(p), []).append(p)
        surjective = surjective and len(preimages) == n + 1
        u = {lab: FnTable(dom, dict.fromkeys(pts, F(1, len(pts))), _trusted=True)
             for lab, pts in preimages.items()}
        moments_ok = moments_ok and all(orth(u[lab] - u[0], cap=k) is None
                                        for lab in u if lab)
    cert = CompressionCertificate(n=n, k=k, surjective=surjective,
                                  moments_ok=moments_ok, code_distance=distance,
                                  moments_exhaustive=exhaustive)
    if not (surjective and moments_ok):
        raise ConstructionError("compression map failed its moment certificate")
    return g, cert


@dataclass
class CompressionMap:
    g: GMap
    theta: int
    n: int

    @property
    def width(self) -> int:
        return self.g.width * self.theta

    def evaluate(self, x: Point) -> Point:
        if len(x) != self.width:
            raise PreconditionError("arity mismatch")
        out = [0] * self.n
        for b in range(self.theta):
            lab = self.g.label(x[b * self.g.width:(b + 1) * self.g.width])
            if lab:
                out[lab - 1] += 1
        return tuple(out)

    def preimage_sizes(self) -> dict[Point, int]:
        """|G^{-1}(v)| for every v, by convolving the per-block label counts."""
        per_label = [0] * (self.n + 1)
        gdom = hypercube(self.g.width)
        for p in gdom.points():
            per_label[self.g.label(p)] += 1
        counts: dict[Point, int] = {(0,) * self.n: 1}
        for _ in range(self.theta):
            nxt: dict[Point, int] = {}
            for v, c in counts.items():
                for lab in range(self.n + 1):
                    w = tuple(a + (1 if i + 1 == lab else 0) for i, a in enumerate(v))
                    nxt[w] = nxt.get(w, 0) + c * per_label[lab]
            counts = nxt
        return counts


def build_G(n: int, theta: int) -> tuple[CompressionMap, CompressionCertificate]:
    """Blockwise sum of theta copies of g: a surjection onto the vectors of
    weight at most theta."""
    if theta < 1:
        raise PreconditionError("need theta >= 1")
    g, cert = build_g(n)
    G = CompressionMap(g=g, theta=theta, n=n)
    sizes = G.preimage_sizes()
    target = set(weight_slice(box([theta] * n), 0, theta).points())
    surjective = target == {v for v, c in sizes.items() if c > 0}
    if not surjective:
        raise ConstructionError("blockwise sum is not surjective onto the weight cap")
    return G, CompressionCertificate(n=n, k=g.k, surjective=True,
                                     moments_ok=cert.moments_ok,
                                     code_distance=cert.code_distance)


# -------------------------------------------------------------- booleanize


def _z_product(z: Point, mix0: ProductMixture, mix1: ProductMixture) -> ProductMixture:
    """The product over the blocks of z: mix1 where z_i = 1, mix0 where z_i = 0."""
    mix = None
    for zi in z:
        part = mix1 if zi else mix0
        mix = part if mix is None else mix.tensor_with(part)
    return mix


@dataclass
class BooleanizeCertificate:
    z: Point
    m: int
    r: int
    d: int
    theta: int
    preconditions_ok: bool
    support_ok: bool
    orth_ok: bool
    is_distribution: bool
    divisor: int  # the certified degree-drop divisor


def booleanize_preconditions(n: int, m: int, r: int, d: int, theta: int,
                             c1: Fraction, c2: Fraction) -> bool:
    """The three threshold inequalities, with irrational pieces replaced by
    their adverse bracket sides."""
    if theta < 2 * d:
        return False
    _, e_hi = e_brackets()
    _, log_hi = one_plus_ln_brackets(n * m)
    if F(theta) * c1 ** 2 < 4 * e_hi * n * m * log_hi:
        return False
    _, sq_hi = sqrt_brackets(F(r))
    _, l2_hi = log2_brackets(F(8 * n * m * r) / c1)
    if F(theta) * c2 < 2 * sq_hi * (d * l2_hi + 2):
        return False
    return True


def booleanize(z: Point, m: int, r: int, d: int, theta: int,
               enforce_preconditions: bool = True,
               witnesses=None) -> tuple[FnTable, BooleanizeCertificate]:
    """The weight-reduced product witness for the Boolean string z.

    Blocks with z_i = 1 use the all-nonzero component, blocks with z_i = 0
    the zero-averaging component; the convex weight transfer then confines
    the support below 2 theta + nm without moving any low-degree moment.
    """
    n = len(z)
    if n == 0:
        raise PreconditionError("z is empty")
    if witnesses is None:
        witnesses = build_mp_witness(m, r)
    mix0, mix1, wit_cert = witnesses
    gadget = wit_cert.gadget
    pre_ok = booleanize_preconditions(n, m, r, d, theta, gadget.c1, gadget.c2)
    if enforce_preconditions and not pre_ok:
        raise PreconditionError("booleanize thresholds not met at these parameters")
    mix = _z_product(z, mix0, mix1)
    inv_lo, _ = inv_sqrt_brackets(r)
    family = FamilySpec(kind="bounded", r=r, c=gadget.c1,
                        alpha=gadget.c2 * inv_lo, delta=1)
    reduced, red_cert = weight_reduce_convex(mix, d, theta, family=family,
                                             enforce_preconditions=False)
    support_ok = all(sum(p) < 2 * theta + n * m and mp_star_blocks(p, m) == tuple(z)
                     for p in reduced.entries)
    divisor = wit_cert.orth_claimed
    cert = BooleanizeCertificate(z=tuple(z), m=m, r=r, d=d, theta=theta,
                                 preconditions_ok=pre_ok, support_ok=support_ok,
                                 orth_ok=red_cert.orth_ok,
                                 is_distribution=reduced.is_distribution(),
                                 divisor=divisor)
    if not (support_ok and cert.orth_ok and cert.is_distribution):
        raise ConstructionError(f"booleanize failed its certificate: {cert}")
    return reduced, cert


def z_degree_of_expectations(tables: dict[Point, FnTable],
                             poly: dict[Point, Fraction]) -> int:
    """Degree, in z, of z -> expectation of the polynomial under the z-indexed
    distributions, over every z of a hypercube.  The multilinear interpolant
    is unique, so its degree is the least degree of a fitting polynomial."""
    if not tables:
        raise PreconditionError("no values to interpolate")
    cube = hypercube(len(next(iter(tables))))
    if len(tables) != cube.size() or not all(cube.contains(z) for z in tables):
        raise PreconditionError("expectations must cover the whole hypercube")
    values = {z: sum((w * eval_poly(poly, p) for p, w in table.entries.items()), F(0))
              for z, table in tables.items()}
    return least_poly_degree(FnTable(cube, values))


# ------------------------------------------------------------- composition


def compose_table(f: FnTable, m: int, R: int, theta: int | None = None) -> FnTable:
    """f composed with the symmetric Minsky-Papert function on {0..R}^m per
    block, optionally weight-capped."""
    if not f.domain.is_hypercube:
        raise PreconditionError("outer function must live on a hypercube")
    n = f.domain.n
    base = box([R] * (n * m))
    dom = base if theta is None else weight_slice(base, 0, theta)
    return bool_table(dom, (p for p in dom.points() if f(mp_star_blocks(p, m)) == 1))


# ------------------------------------------------- min-smooth amplification


@dataclass
class AmplifyCertificate:
    n: int
    m: int
    r: int
    R: int
    theta: int
    gamma: Fraction
    d: int
    d_f: int                 # orthogonality level of the outer witness
    d_mp: int                # orthogonality of the inner witness pair
    orth_claimed: int
    orth_verified: int
    min_smooth_factor: Fraction
    stage_notes: dict = field(default_factory=dict)


def min_smooth_amplify(f: FnTable, mu: FnTable, m: int, r: int, R: int,
                       theta: int, gamma, d: int
                       ) -> tuple[FnTable, AmplifyCertificate]:
    """Turn a min-smooth dual witness for f into one for the composition of
    f with the symmetric Minsky-Papert function.

    Stages: build the locally smooth witness pair, restrict the supports to
    the weight cap, redistribute into global min-smoothness relative to the
    uniform distribution on the cap region, then mix with the outer
    witness.  Every stage aborts with its name if a precondition
    or an exact check fails.
    """
    gamma = as_rat(gamma)
    if not f.domain.is_hypercube:
        raise PreconditionError("stage mu-check: outer function must be Boolean on a hypercube")
    n = f.domain.n
    if not (0 <= gamma <= 1):
        raise PreconditionError("stage mu-check: gamma outside [0, 1]")
    if not mu.is_distribution():
        raise PreconditionError("stage mu-check: mu is not a distribution")
    floor = gamma / 2 ** n
    for p in f.domain.points():
        if mu(p) < floor:
            raise PreconditionError("stage mu-check: mu misses its pointwise floor")
    d_f = orth(twist(mu, f))
    if d_f is None or d_f < 1:
        raise PreconditionError("stage mu-check: mu witnesses nothing")

    try:
        lam_0, lam_1, wit_cert = build_mp_smooth_witness(m, r, R)
    except (PreconditionError, ConstructionError) as exc:
        raise type(exc)(f"stage witness: {exc}") from exc
    d_mp = wit_cert.orth_value
    big = Domain((R,) * (n * m))
    if not (1 <= d <= d_f * d_mp):
        raise PreconditionError("stage witness: requested d above the certified level")

    # stage tails: restrict each z-indexed product witness to the weight cap
    tilde: dict[Point, FnTable] = {}
    for z in hypercube(n).points():
        mix = _z_product(z, lam_0, lam_1)
        dense = FnTable(big, mix.densify().entries)
        if dense.mass(lo=theta + 1) == 0:
            tilde[z] = dense
            continue
        try:
            reduced, _ = zero_out_heavy_convex(mix, d, theta)
        except (PreconditionError, ConstructionError) as exc:
            raise type(exc)(f"stage tails: {exc}") from exc
        if not reduced.is_distribution():
            raise ConstructionError(
                "stage tails: restriction did not stay a distribution at this scale")
        tilde[z] = FnTable(big, reduced.entries)
    for z, table in tilde.items():
        for p in table.entries:
            if sum(p) > theta:
                raise ConstructionError("stage tails: support escaped the cap")
            if mp_star_blocks(p, m) != z:
                raise ConstructionError("stage tails: support escaped its preimage")

    # stage phi: the signed average must be nonzero on the whole cap region
    phi = FnTable(big, combine(big, [(F((-1) ** f(z), 2 ** n), table.entries)
                                     for z, table in tilde.items()]).entries)
    region = [p for p in big.points() if sum(p) <= theta]
    if any(phi(p) == 0 for p in region):
        raise ConstructionError("stage phi: signed average vanishes inside the cap")
    if phi.l1() != 1:
        raise ConstructionError("stage phi: averaged witness lost unit mass")
    k_phi = smoothness_constant(phi, weight_cap=theta)
    if k_phi is None:
        raise ConstructionError("stage phi: lost local smoothness")

    lam_star = FnTable(big, {p: F(1, len(region)) for p in region}, _trusted=True)
    try:
        phi_star, rd_cert = redistribute(phi, lam_star, d, theta)
    except (PreconditionError, ConstructionError) as exc:
        raise type(exc)(f"stage redistribute: {exc}") from exc

    # stage final: mix the outer witness in and normalize
    final = combine(big, [(mu(z) * (-1) ** f(z), table.entries) for z, table in tilde.items()]
                    + [(-gamma, phi.entries), (gamma, phi_star.entries)])
    twisted_final = twist(final, compose_table(f, m, R, theta))
    if not twisted_final.is_nonnegative():
        raise ConstructionError("stage final: sign agreement failed")
    norm = final.l1()
    if norm == 0 or norm > 1 + 3 * gamma:
        raise ConstructionError("stage final: mass bound failed")
    lam = twisted_final.scale(1 / norm)
    if not lam.is_distribution():
        raise ConstructionError("stage final: result is not a distribution")

    claimed = min(d_f * d_mp, d + 1)
    if orth(final, cap=claimed - 1) is not None:
        raise ConstructionError("stage final: orthogonality fell short")
    factor = min(lam(p) / w for p, w in lam_star.entries.items())
    guaranteed = gamma * rd_cert.min_smooth_factor / norm
    if factor < guaranteed:
        raise ConstructionError("stage final: min-smoothness fell short")
    cert = AmplifyCertificate(
        n=n, m=m, r=r, R=R, theta=theta, gamma=gamma, d=d, d_f=d_f, d_mp=d_mp,
        orth_claimed=claimed, orth_verified=claimed, min_smooth_factor=factor,
        stage_notes={
            "k_phi": k_phi,
            "redistribute_N": rd_cert.N,
            "witness_k_actual": wit_cert.k_actual,
            "guaranteed_factor": guaranteed,
        })
    return lam, cert


# --------------------------------------------------- circuit amplification


@dataclass
class AmplifyCircuitInfo:
    n: int
    m: int
    theta: int
    width: int
    gmap: GMap
    h_gates: list  # gate refs of the per-output AND gates
    size: int
    depth: int
    bottom_fanin: int

    def h_value(self, x: Point) -> Point:
        """Mathematical evaluation path: sum the labels blockwise, then the
        symmetric Minsky-Papert function per output block."""
        G = CompressionMap(g=self.gmap, theta=self.theta, n=self.n * self.m)
        return mp_star_blocks(G.evaluate(x), self.m)


def _coset_terms(g: GMap, syndrome: tuple[int, ...], block_offset: int):
    """DNF terms (literal lists) for the indicator of a code coset inside
    one block: all sign assignments of the row supports with the given
    parities."""
    per_row_choices = []
    for row, want in zip(g.rows, syndrome):
        opts = []
        for bits in itertools.product((0, 1), repeat=len(row)):
            if sum(bits) % 2 == want:
                opts.append([("lit", block_offset + pos, bit == 0)
                             for pos, bit in zip(row, bits)])
        per_row_choices.append(opts)
    for combo in itertools.product(*per_row_choices):
        yield [lit for part in combo for lit in part]


def amplify_circuit_once(f_circuit: CircuitDesc, m: int, theta: int
                         ) -> tuple[CircuitDesc, AmplifyCircuitInfo]:
    """Compose a circuit with one hardness-amplification layer: every input
    becomes an AND of m DNFs, each DNF checking that some block of the
    compressed input encodes the matching basis label.
    """
    n = f_circuit.n_inputs
    g, _ = build_g(n * m)
    width = g.width * theta
    out = CircuitDesc(width)

    dnf_refs: list = []   # per coordinate c in [n*m]
    not_dnf_refs: list = []
    for c in range(n * m):
        syndromes = [syn for syn, lab in g.label_of_syndrome.items() if lab == c + 1]
        terms = []
        neg_terms = []
        for b in range(theta):
            off = b * g.width
            for syn in syndromes:
                for lits in _coset_terms(g, syn, off):
                    terms.append(out.add_gate("and", lits))
                    neg_terms.append(
                        out.add_gate("or", [("lit", v, not neg) for _, v, neg in lits]))
        dnf_refs.append(out.add_gate("or", terms))
        not_dnf_refs.append(out.add_gate("and", neg_terms))

    h_gates = []
    not_h_gates = []
    for i in range(n):
        kids = [dnf_refs[i * m + j] for j in range(m)]
        h_gates.append(out.add_gate("and", kids))
        not_h_gates.append(out.add_gate("or", [not_dnf_refs[i * m + j] for j in range(m)]))

    out.output = out.substitute(f_circuit, h_gates, not_h_gates)
    out.validate()
    merged = out.merge_like_gates()
    info = AmplifyCircuitInfo(n=n, m=m, theta=theta, width=width, gmap=g,
                              h_gates=h_gates, size=merged.size(),
                              depth=merged.depth(),
                              bottom_fanin=merged.bottom_fanin())
    return merged, info


def _floor_cbrt(n: int) -> int:
    """The largest s with s^3 <= n (0 for n < 1), one bit at a time."""
    s = 0
    for b in reversed(range(n.bit_length() // 3 + 1)):
        if (s | 1 << b) ** 3 <= n:
            s |= 1 << b
    return s


def _round_sqrt(n: int) -> int:
    """sqrt(n) rounded to the nearest integer, for n >= 0 (no tie occurs)."""
    r = isqrt(n)
    return r + (n - r * r > r)


def build_fkn(k: int, n: int) -> CircuitDesc:
    """The recursive monotone family: a single literal at depth one, the
    Minsky-Papert circuit at depth two, and one amplification step on top
    of the k-2 member after that.  Toy-scale parameters."""
    if k < 1 or n < 0:
        raise PreconditionError("need k >= 1 and n >= 0")
    if k == 1:
        return literal(max(n, 1))
    if k == 2:
        s = _floor_cbrt(n)
        if s < 1:
            raise PreconditionError(f"degenerate parameters: n={n} too small for depth 2")
        return mp(s, s * s)
    if k == 3:
        inner = literal(1)
        m = max(1, _round_sqrt(n))
        theta = max(2, n // max(1, m))
        circ, _ = amplify_circuit_once(inner, m, theta)
        return circ if circ.is_monotone() else circ.monotonized()
    raise PreconditionError("toy recursion implemented for k <= 3")
