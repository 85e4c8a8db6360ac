"""Consistency checks that tie independent computation paths together."""

import json
from fractions import Fraction

import pytest

from exact_references import check_concentration, fourier, mixture_value, negated, verify_cap_ball
from ptfwitness.amplification import booleanize, min_smooth_amplify
from ptfwitness.brackets import pow2_brackets
from ptfwitness.core import FnTable, box, hypercube, orth, point_mass, uniform
from ptfwitness.dual_mp import build_mp_smooth_witness, build_or_gadget
from ptfwitness.corrector import build_zeta_cube, build_zeta_u, corrector_levels
from ptfwitness.dual_or import build_omega, build_psi, default_delta, default_weights
from ptfwitness.errors import PreconditionError
from ptfwitness.lp import LPProblem
from ptfwitness.mixtures import FamilySpec, ProductMixture
from ptfwitness.oracles import (
    Interval,
    approx_intervals,
    iii_approx_degree,
    parity_table,
    smooth_threshold_degree,
    threshold_degree,
    total_fn,
    twist,
)
from ptfwitness.serialize import dumps
from ptfwitness.smooth_ops import select_heavy_set, weight_reduce

F = Fraction


def test_mixture_densify_matches_symbolic_evaluation():
    lam0, lam1, lam2, _ = build_or_gadget(3, 3, F(1, 2))
    mix = ProductMixture(
        {"l0": lam0, "l1": lam1, "l2": lam2},
        [(F(1, 3), ("l0", "l1")), (F(2, 3), ("l2", "l2"))],
    )
    dense = mix.densify()
    for p in dense.domain.points():
        assert dense(p) == mixture_value(mix, p)


def test_fourier_orth_consistency():
    # the least size of a set with nonzero character coefficient equals the
    # monomial-scan orthogonal content, for the twisted smooth witness
    f = parity_table(2)
    mu = smooth_threshold_degree(f, F(1)).dual
    phi = twist(mu, f)
    coeffs = fourier(phi)
    by_fourier = min(len(S) for S, c in coeffs.items() if c != 0)
    by_monomials = orth(phi)
    assert by_fourier == by_monomials == 2


def test_cap_ball_on_smooth_witness():
    lam_0, lam_1, cert = build_mp_smooth_witness(2, 2, 3)
    half = (lam_0.densify() + lam_1.densify()).scale(F(1, 2))
    rep = verify_cap_ball(half, theta=4, d=1, K=cert.k_actual)
    assert rep.smooth_ok and rep.cap_ok and rep.ball_ok


def test_concentration_on_gadget_factors():
    lam0, lam1, lam2, cert = build_or_gadget(4, 4, F(1, 2))
    C = 1 / cert.c1
    # smallest power-of-two alpha satisfying the pointwise premise exactly
    alpha = None
    for cand in (F(1, 2), F(3, 4), F(7, 8), F(15, 16), F(1)):
        if all(v * (t + 1) ** 2 <= C * cand ** t
               for lam in (lam1, lam2) for (t,), v in lam.entries.items()):
            alpha = cand
            break
    assert alpha is not None
    from ptfwitness.brackets import e_brackets, one_plus_ln_brackets

    _, e_hi = e_brackets()
    _, log_hi = one_plus_ln_brackets(2)
    theta_min = 8 * C * e_hi * 2 * log_hi
    theta = -(-theta_min.numerator // theta_min.denominator)
    rep = check_concentration([lam1, lam2], C=C, alpha=alpha, theta=theta)
    assert rep.passed


def test_weight_reduce_point_mass():
    lam = FnTable(box([0]), {(0,): F(1)})
    mix = ProductMixture({"pt": lam}, [(F(1), ("pt", "pt"))])
    spec = FamilySpec(kind="bounded", r=1, c=F(1, 2))
    reduced, zeta, cert = weight_reduce(mix, d=1, theta=2, family=spec,
                                        enforce_preconditions=False)
    assert zeta.is_zero() and reduced == mix.densify()


def test_booleanize_single_block_support():
    t, cert = booleanize((1,), 1, 2, d=1, theta=6, enforce_preconditions=False)
    assert all(p[0] >= 1 for p in t.entries)  # inside the 1-preimage slice
    t0, _ = booleanize((0,), 1, 2, d=1, theta=6, enforce_preconditions=False)
    assert set(t0.entries) == {(0,)}


def test_gadget_level_frozen_small_r():
    # at desk scale the inner construction sits in its fallback regime, so
    # the gadget's exact orthogonality level is 1; the identity with the
    # dual object is what the certificate actually guarantees
    for r in (4, 9):
        lam0, lam1, lam2, cert = build_or_gadget(r, r, F(1, 2))
        assert cert.d_gadget == 1
        combo = lam0.scale(F(1, 2)) + lam2.scale(F(1, 2)) - lam1
        assert orth(combo) == cert.d_gadget


def test_circuit_de_morgan_dual_preserves_degthr():
    from ptfwitness.circuits import mp
    from ptfwitness.oracles import bool_table

    c = mp(2, 2)
    table = c.truth_table()
    complement = negated(c).truth_table()  # compose with input flip for the dual
    dom = hypercube(4)
    dual_table = bool_table(
        dom, (p for p in dom.points() if complement(tuple(1 - b for b in p))))
    assert threshold_degree(table).value == threshold_degree(dual_table).value


def test_lp_problem_serializes():
    p = LPProblem(2)
    p.add([F(1), F(-1)], F(1, 2))
    text = dumps(p)
    data = json.loads(text)
    assert data["_type"] == "LPProblem" and data["rows"] == [[[2, -2], 1, 2]]


FLOAT_INPUTS = {
    "FnTable": lambda: FnTable(box([1]), {(0,): 0.5}),
    "smooth_threshold_degree": lambda: smooth_threshold_degree(parity_table(2), 0.5),
    "approx_intervals": lambda: approx_intervals(0.3),
    "iii_approx_degree": lambda: iii_approx_degree(
        total_fn(parity_table(2)), *approx_intervals(F(1, 3)), margin=0.1),
    "Interval": lambda: Interval(0.5, 1),
    "Interval.closed": lambda: Interval.closed(0, 0.5),
    "select_heavy_set": lambda: select_heavy_set([0.5, 0.25], 0.1),
    "build_psi": lambda: build_psi(8, 8, 0.3),
    "build_omega": lambda: build_omega(4, 0.3),
    "default_delta": lambda: default_delta(0.3),
    "ProductMixture.scale": lambda: ProductMixture(
        {"l": point_mass(box([1]), (0,))}, [(F(1), ("l",))]).scale(0.1),
    "build_or_gadget": lambda: build_or_gadget(4, 4, 0.5),
    "min_smooth_amplify": lambda: min_smooth_amplify(
        parity_table(1), uniform(hypercube(1)), m=1, r=1, R=4, theta=5, gamma=0.5, d=1),
    "pow2_brackets": lambda: pow2_brackets(0.5),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_INPUTS))
def test_float_input_raises_precondition_error(entry):
    with pytest.raises(PreconditionError, match="not an exact rational"):
        FLOAT_INPUTS[entry]()


BAD_SIZES = {
    "build_psi_float_n": lambda: build_psi(5.0),
    "build_psi_bool_n": lambda: build_psi(True),
    "build_zeta_u_float_d": lambda: build_zeta_u((2, 2), 1.0),
    "build_zeta_u_float_u": lambda: build_zeta_u((2.0, 2), 1),
    "build_zeta_cube_float_d": lambda: build_zeta_cube(3, 1.5),
    "corrector_levels_float_d": lambda: corrector_levels(3, 1.0),
    "default_weights_n0": lambda: default_weights(0, 3),
}


@pytest.mark.parametrize("entry", sorted(BAD_SIZES))
def test_bad_size_raises_precondition_error(entry):
    with pytest.raises(PreconditionError):
        BAD_SIZES[entry]()
