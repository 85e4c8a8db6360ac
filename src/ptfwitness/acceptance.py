"""The acceptance suite: every headline property of the artifact, each
verified at its stated tolerance.  The numbered criteria run as plain
functions returning (passed, detail) so both the test suite and the
`repro` CLI subcommand share them.

All checks are exact rational comparisons.  The spectral-norm criterion
passes when every closed-form norm equals the exact spectrum that
pattern_spectral_norm computes (it raises VerificationError otherwise),
and the Forster criterion compares certified rational bounds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .amplification import (
    booleanize,
    build_G,
    build_g,
    compose_table,
    min_smooth_amplify,
    z_degree_of_expectations,
)
from .brackets import e_brackets, one_plus_ln_brackets
from .circuits import krause_pudlak, literal, mp_table, parity2_circuit
from .core import (
    FnTable,
    box,
    hypercube,
    least_poly_degree,
    orth,
    uniform,
)
from .corrector import build_zeta_cube
from .dual_mp import build_mp_witness, build_rs_smooth
from .dual_or import build_psi
from .matrix_bounds import (
    forster_bound,
    pattern_spectral_norm,
    staircase_matrices,
    staircase_realizations,
    verify_realization,
)
from .mixtures import FamilySpec, ProductMixture
from .oracles import (
    and_table,
    bool_table,
    eval_poly,
    parity_table,
    smooth_threshold_degree,
    threshold_degree,
    threshold_density,
    twist,
)
from .smooth_ops import weight_reduce

F = Fraction


def criterion_1_oracle_exactness():
    """threshold degree of n-bit parity is n and of n-bit AND is 1, n <= 4"""
    details = []
    ok = True
    for n in range(1, 5):
        p = threshold_degree(parity_table(n)).value
        a = threshold_degree(and_table(n)).value
        details.append(f"n={n}: parity={p} and={a}")
        ok = ok and p == n and a == 1
    return ok, "; ".join(details)


def criterion_2_mp_cross_check():
    """dense orthogonality of the bounded witness pair at (2, 4) matches the
    LP threshold degree of the 8-variable Minsky-Papert table"""
    mix0, mix1, cert = build_mp_witness(2, 4)
    bound = min(2, cert.gadget.d_gadget)
    dense_ok = cert.orth_value is not None and cert.orth_value >= bound
    lp = threshold_degree(mp_table(2, 4))
    ok = dense_ok and lp.value >= bound
    return ok, (f"d_gadget={cert.gadget.d_gadget} dense orth={cert.orth_value} "
                f"bound={bound} lp degthr={lp.value}")


def criterion_3_psi_certificates():
    """unit l1, strict alternating sign, heavy mass at zero, and verified
    orthogonality for the OR dual at n = 8, 16, 32, 64"""
    ok = True
    details = []
    for n in (8, 16, 32, 64):
        psi, cert = build_psi(n, n, F(1, 3))
        sign_strict = all(psi((t,)) != 0 and (psi((t,)) > 0) == (t % 2 == 0)
                          for t in range(n + 1))
        here = (cert.l1 == 1 and sign_strict and cert.at_zero > F(1, 3)
                and cert.orth_value >= cert.orth_claimed)
        # exhaustive monomial re-check at the claimed level
        here = here and orth(psi, cap=cert.orth_claimed - 1) is None
        ok = ok and here
        details.append(f"n={n}: psi(0)={cert.at_zero} orth>={cert.orth_claimed}")
    return ok, "; ".join(details)


def criterion_4_corrector_suite():
    """anchor value, support, orthogonality, and the l1 bound for all
    correctors with n <= 10 and d <= 3"""
    ok = True
    count = 0
    for n in range(1, 11):
        for d in range(0, min(3, n - 1) + 1):
            z, cert = build_zeta_cube(n, d)
            good = (z((1,) * n) == 1
                    and all(sum(p) <= d or p == (1,) * n for p in z.entries)
                    and orth(z, cap=d) is None
                    and cert.l1 <= cert.l1_bound)
            ok = ok and good
            count += 1
    return ok, f"{count} (n, d) pairs checked exactly"


def criterion_5_weight_transfer():
    """the three weight-transfer conclusions on a 3-factor bounded product
    at the smallest admissible threshold"""
    lam = FnTable(box([2]), {(0,): F(1, 2), (1,): F(3, 10), (2,): F(1, 5)})
    spec = FamilySpec(kind="bounded", r=2, c=F(1, 2), alpha=F(0))
    _, e_hi = e_brackets()
    _, log_hi = one_plus_ln_brackets(3)
    theta_min = 4 * e_hi * 3 * log_hi / spec.c ** 2
    theta = -(-theta_min.numerator // theta_min.denominator)
    mix = ProductMixture({"lam": lam}, [(F(1), ("lam",) * 3)])
    reduced, zeta, cert = weight_reduce(mix, d=1, theta=theta, family=spec)
    ok = (cert.preconditions_ok and cert.support_ok and cert.orth_ok
          and cert.statistical_factor <= cert.statistical_bound_lower
          and reduced.is_distribution())
    return ok, (f"theta={theta} heavy_points={cert.heavy_points} "
                f"factor={cert.statistical_factor}")


def criterion_6_rs_smooth():
    """the hypercube witness at (2, 4): exact distribution, pointwise floor,
    verified orthogonality, and the LP smooth-degree cross-check"""
    lam, cert = build_rs_smooth(2, 4)
    floor = F(1, 4) * F(1, 12 * 2 ** 4) ** 2
    floor_ok = all(lam(p) >= floor for p in hypercube(8).points())
    bound = min(cert.d_psi, 2)
    orth_ok = orth(twist(lam, mp_table(2, 4)), cap=bound - 1) is None
    lp = smooth_threshold_degree(mp_table(2, 4), F(1, 12 ** 3))
    ok = (cert.is_distribution and floor_ok and orth_ok and lp.value >= bound)
    return ok, (f"floor={floor} d_psi={cert.d_psi} bound={bound} "
                f"lp smooth degthr={lp.value}")


def criterion_7_pattern_matrices():
    """closed-form spectral norm equal to the exact spectrum of A A^T, for
    three block shapes and 20 random sparse tables each; a mismatch raises
    VerificationError inside pattern_spectral_norm"""
    rng = random.Random(20260808)
    count = 0
    for (N, n) in ((2, 1), (4, 2), (6, 3)):
        dom = hypercube(n)
        pts = list(dom.points())
        for _ in range(20):
            entries = {}
            for p in rng.sample(pts, k=min(3, len(pts))):
                entries[p] = F(rng.randint(-8, 8), rng.randint(1, 5))
            if all(v == 0 for v in entries.values()):
                entries[pts[0]] = F(1)
            phi = FnTable(dom, entries)
            if phi.is_zero():
                phi = FnTable(dom, {pts[0]: F(1)})
            pattern_spectral_norm(phi, N, n)
            count += 1
    return True, f"{count} closed-form norms equal to the exact spectrum"


def criterion_8_signrank_sanity():
    """the two order-4 sign matrices admit rank-2 and rank-3 realizations,
    and the certified Forster bound stays below each realization rank"""
    first, second = staircase_matrices(4)
    r1, r2 = staircase_realizations(4)
    ok = verify_realization(first, r1, 2) and verify_realization(second, r2, 3)
    b1 = forster_bound(first).lower
    b2 = forster_bound(second).lower
    ok = ok and b1 <= 2 and b2 <= 3
    return ok, f"forster bounds {float(b1):.6f} <= 2, {float(b2):.6f} <= 3"


def criterion_9_booleanize_degree_drop():
    """interpolated degree of z -> expectation under the weight-reduced
    witnesses divides by the certified level, for 10 random polynomials"""
    rng = random.Random(909)
    n, m, r, theta = 2, 2, 4, 20
    wit = build_mp_witness(m, r)
    divisor = min(m, wit[2].gadget.d_gadget)
    tables = {}
    for z in hypercube(n).points():
        t, cert = booleanize(z, m, r, d=2, theta=theta,
                             enforce_preconditions=False, witnesses=wit)
        tables[z] = t
    ok = True
    details = []
    width = n * m
    for trial in range(10):
        d = 1 if trial < 5 else 2
        poly = {}
        for _ in range(5):
            alpha = [0] * width
            for _ in range(d):
                alpha[rng.randrange(width)] += 1
            poly[tuple(alpha)] = F(rng.randint(-3, 3))
        poly = {a: c for a, c in poly.items() if c} or {(0,) * width: F(1)}
        zdeg = z_degree_of_expectations(tables, poly)
        bound = max(deg // divisor for deg in [max(sum(a) for a in poly)])
        ok = ok and zdeg <= bound
        details.append(f"d={max(sum(a) for a in poly)}:zdeg={zdeg}<= {bound}")
    return ok, f"divisor={divisor}; " + " ".join(details[:5]) + " ..."


def criterion_10_compression():
    """moment equalities of the label encodings for n <= 3, and the
    degree-division property of the blockwise sum by interpolation"""
    ok = True
    for n in (1, 2, 3):
        _, cert = build_g(n)
        ok = ok and cert.moments_ok and cert.surjective and cert.moments_exhaustive
    G, _ = build_G(1, 2)
    rng = random.Random(1010)
    pts_by_v: dict = {}
    for p in hypercube(12).points():
        pts_by_v.setdefault(G.evaluate(p), []).append(p)
    checked = []
    for trial in range(10):
        d = 1 + trial % 3
        poly = {}
        for _ in range(5):
            alpha = [0] * 12
            for _ in range(d):
                alpha[rng.randrange(12)] += 1
            poly[tuple(alpha)] = F(rng.randint(-3, 3))
        poly = {a: c for a, c in poly.items() if c} or {(0,) * 12: F(1)}
        deg_p = max(sum(a) for a in poly)
        values = {}
        for v, pts in pts_by_v.items():
            values[v] = sum(eval_poly(poly, p) for p in pts) / len(pts)
        table = FnTable(box([2]), {v: val for v, val in values.items() if val})
        fit = least_poly_degree(table)
        bound = deg_p // 2  # ceil(log2(n+1)) + 1 = 2 at n = 1
        ok = ok and fit <= bound
        checked.append(f"deg {deg_p}->{fit}<={bound}")
    return ok, "; ".join(checked)


def criterion_11_krause_pudlak():
    """threshold density of the selector lift is at least 2^(threshold
    degree) for the single variable and two-bit parity"""
    results = []
    ok = True
    for name, circ, base_table in (
        ("x1", literal(1), bool_table(hypercube(1), [(1,)])),
        ("parity2", parity2_circuit(), parity_table(2)),
    ):
        d = threshold_degree(base_table).value
        lifted = krause_pudlak(circ).truth_table()
        target = 2 ** d
        ans = threshold_density(lifted, cap=target - 1)
        ok = ok and ans.value >= target and ans.exceeded_cap
        results.append(f"{name}: degthr={d} density>={ans.value}")
    return ok, "; ".join(results)


def criterion_12_amplification_end_to_end():
    """the smallest admissible min-smooth amplification re-verifies and the
    LP confirms the smooth threshold degree of the composed table"""
    f = bool_table(hypercube(1), [(1,)])
    mu = uniform(hypercube(1))
    lam, cert = min_smooth_amplify(f, mu, m=1, r=1, R=4, theta=5, gamma=F(1), d=1)
    table = compose_table(f, 1, 4, theta=5)
    orth_ok = orth(twist(lam, table), cap=cert.orth_verified - 1) is None
    lp = smooth_threshold_degree(table, cert.min_smooth_factor)
    ok = (lam.is_distribution() and orth_ok
          and cert.min_smooth_factor > 0 and lp.value >= cert.d)
    return ok, (f"orth verified {cert.orth_verified}, min-smooth factor "
                f"{cert.min_smooth_factor}, lp smooth degthr {lp.value}")


CRITERIA = [
    (1, "oracle exactness (parity and AND)", criterion_1_oracle_exactness),
    (2, "Minsky-Papert witness vs LP cross-check", criterion_2_mp_cross_check),
    (3, "OR dual certificates at n = 8..64", criterion_3_psi_certificates),
    (4, "corrector suite n <= 10, d <= 3", criterion_4_corrector_suite),
    (5, "weight transfer on a bounded 3-factor product", criterion_5_weight_transfer),
    (6, "min-smooth hypercube witness at (2, 4)", criterion_6_rs_smooth),
    (7, "pattern matrix spectral norms", criterion_7_pattern_matrices),
    (8, "sign-rank sanity on the order-4 matrices", criterion_8_signrank_sanity),
    (9, "booleanize degree drop", criterion_9_booleanize_degree_drop),
    (10, "compression moment equalities and degree division", criterion_10_compression),
    (11, "Krause-Pudlak density lift", criterion_11_krause_pudlak),
    (12, "end-to-end smooth amplification", criterion_12_amplification_end_to_end),
]


def run_all(report=print):
    """Run every acceptance criterion, printing one pass/fail line each."""
    all_ok = True
    for num, title, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        report(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title} -- {detail}")
    return all_ok
