"""Seeded job mixes for the benchmark workloads, and their execution.

A job is plain data: a kind and its parameters.  `execute` turns it into
the library calls the `ptfwitness` command makes for the same request and
returns the answer together with the serialized artifacts, if the kind
produces any.  Library functions are looked up on their modules at call
time, so a tracer that replaces module attributes sees every call.

Each run is a sequence of rounds ("decks").  A deck has a fixed
composition of job kinds and size classes; the seed only draws the inputs
inside each class and the order.  A run always executes whole decks, so
two seeds measure the same mix and differ only in the drawn inputs.  Jobs
whose inputs are random and whose cost has a long tail (4x4 games, OR
duals with n from 384 to 512) appear once per run, in deck 0, so that one
draw cannot swing a run.  Heavy jobs with fixed inputs (mp_table(2, 4),
the LP-heavy density table, the parity2 selector lift) cost the same on
every seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from ptfwitness import (
    amplification,
    circuits,
    core,
    corrector,
    dual_mp,
    dual_or,
    matrix_bounds,
    mixtures,
    oracles,
    serialize,
    smooth_ops,
)

F = Fraction

WORKLOADS = ("oracle-ladder", "witness-build", "density-search")


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict


# ------------------------------------------------------------------ inputs


def cube_points(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


def random_ones(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    return [p for p in cube_points(n) if rng.random() < 0.5]


def random_sign_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.choice((1, -1)) for _ in range(cols)] for _ in range(rows)]


def parity_sign_ones(n: int, masks, weights) -> list[tuple[int, ...]]:
    """Points where sum_i weights[i] * chi_{masks[i]} is negative."""
    ones = []
    for p in cube_points(n):
        total = sum(w * (-1) ** sum(p[j] for j in range(n) if s >> j & 1)
                    for s, w in zip(masks, weights))
        if total < 0:
            ones.append(p)
    return ones


def planted_ones(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    """Sign of a weighted sum of k random parities on n bits, so the
    threshold density is at most k.  Weights are +-1 with one +-2 when k is
    even, which makes every sum odd and never zero."""
    masks = rng.sample(range(2 ** n), k)
    weights = [rng.choice((1, -1)) for _ in masks]
    if k % 2 == 0:
        weights[0] *= 2
    return parity_sign_ones(n, masks, weights)


# Alternating-sign majority of the parities {}, x1, x1x2, x1x3, x1x4 on
# four bits.  Its density is 5, and the search reaches that family only
# after screening every smaller family and 200 families of five, solving
# 122 small LPs on the way.  Random 4-bit tables need from 0.5 s to over
# 30 s for the same search, so a fixed instance carries this cost.
LP_HEAVY_ONES = parity_sign_ones(4, (0, 1, 3, 5, 9), (1, -1, 1, -1, 1))


def random_distribution(rng: random.Random, size: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(size)]
    return [F(v, sum(raw)) for v in raw]


# ------------------------------------------------------------------- decks


def _oracle_deck(rng: random.Random, first: bool) -> list[Job]:
    jobs = []
    tables = [(4, random_ones(rng, 4)) for _ in range(10)]
    tables += [(5, random_ones(rng, 5)) for _ in range(3)]
    for i, (n, ones) in enumerate(tables):
        tid = f"t{i}"
        jobs.append(Job("degthr", {"n": n, "ones": ones, "table_id": tid}))
        gamma = F(1, 2) if i % 2 else F(1, 1728)
        jobs.append(Job("smooth", {"n": n, "ones": ones, "gamma": gamma, "table_id": tid}))
    jobs.append(Job("degthr_named", {"fn": "parity", "n": rng.randint(2, 4)}))
    jobs.append(Job("degthr_named", {"fn": "and", "n": rng.randint(2, 5)}))
    jobs.append(Job("degthr_mp", {"m": 2, "r": 3}))
    jobs.append(Job("degthr_mp", {"m": 2, "r": 4}))
    for n in (3, 3, 3, 3, 4):
        jobs.append(Job("iii", {"n": n, "ones": random_ones(rng, n), "eps": F(1, 3)}))
    shapes = [(3, 3), (3, 3), (3, 3), rng.choice([(3, 4), (4, 3)])]
    if first:
        shapes.append((4, 4))
    for rows, cols in shapes:
        jobs.append(Job("disc", {"matrix": random_sign_matrix(rng, rows, cols)}))
    return jobs


def _witness_deck(rng: random.Random, first: bool) -> list[Job]:
    # the four slowest jobs of a deck have similar cost, so that p90 falls
    # inside one block of jobs rather than between two
    jobs = [Job("psi", {"n": rng.randint(128, 160), "eps": rng.choice((F(1, 3), F(1, 4)))})
            for _ in range(2)]
    jobs += [Job("zeta_cube", {"n": rng.randint(10, 11), "d": 3}) for _ in range(2)]
    jobs.append(Job("psi", {"n": rng.randint(64, 80), "eps": rng.choice((F(1, 2), F(1, 3)))}))
    jobs += [Job("zeta_cube", {"n": rng.randint(5, 11), "d": rng.randint(1, 2)})
             for _ in range(2)]
    if first:
        jobs.append(Job("psi", {"n": rng.randint(384, 512), "eps": F(1, 3)}))
    for _ in range(2):
        r = rng.randint(2, 8)
        jobs.append(Job("or_gadget", {"R": rng.randint(r, 2 * r), "r": r,
                                      "eps": rng.choice((F(1, 2), F(1, 3), F(1, 6)))}))
    for _ in range(2):
        m = rng.choice((2, 3))
        jobs.append(Job("mp_witness", {"m": m, "r": rng.randint(2, 6 if m == 2 else 3)}))
    for _ in range(2):
        m = rng.choice((2, 3))
        r = rng.randint(2, 3)
        jobs.append(Job("mp_smooth", {"m": m, "r": r, "R": rng.randint(r, 4 if m == 2 else 3)}))
    for _ in range(2):
        m, r = rng.choice(((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
        jobs.append(Job("rs_smooth", {"m": m, "r": r}))
    for _ in range(2):
        jobs.append(Job("weight_reduce", {"lam": random_distribution(rng, 3),
                                          "k": rng.randint(3, 4),
                                          "theta": rng.randint(2, 4)}))
    jobs.append(Job("build_g", {"n": rng.choice((1, 4, 5, 6, 7))}))
    jobs.append(Job("build_G", {"n": 1, "theta": rng.randint(2, 4)}))
    for _ in range(2):
        jobs.append(Job("booleanize", {"z": tuple(rng.randint(0, 1) for _ in range(2)),
                                       "m": 2, "r": rng.randint(2, 4), "d": 1,
                                       "theta": rng.randint(4, 8)}))
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    R = rng.randint(2, 3)
    jobs.append(Job("compose", {"n": n, "ones": random_ones(rng, n), "m": m, "R": R,
                                "theta": rng.choice((None, n * m * R - 1))}))
    for N, n in rng.sample(((2, 1), (4, 2), (6, 3)), 2):
        pts = cube_points(n)
        phi = {p: F(rng.randint(-8, 8) or 1, rng.randint(1, 5))
               for p in rng.sample(pts, min(3, len(pts)))}
        jobs.append(Job("pattern", {"N": N, "n": n, "phi": phi}))
    return jobs


def _density_deck(rng: random.Random, first: bool) -> list[Job]:
    jobs = []
    for n, count in ((2, 8), (3, 8)):
        for _ in range(count):
            jobs.append(Job("density", {"n": n, "ones": random_ones(rng, n),
                                        "cap": rng.randint(4, 6)}))
    # random 3-bit tables cost either ~1 ms (density 3) or ~5 ms (density
    # 4); the planted k = 3 block keeps the median away from that gap
    for k in (3, 3, 4) * 8:
        jobs.append(Job("density", {"n": 4, "ones": planted_ones(rng, 4, k),
                                    "cap": rng.randint(4, 6), "planted": k}))
    jobs.append(Job("density", {"n": 4, "ones": LP_HEAVY_ONES, "cap": 5, "planted": 5}))
    jobs += [Job("kp_lift", {"base": "x1", "cap": 1}) for _ in range(2)]
    if first:
        jobs.append(Job("kp_lift", {"base": "parity2", "cap": 3}))
    return jobs


_DECKS = {
    "oracle-ladder": _oracle_deck,
    "witness-build": _witness_deck,
    "density-search": _density_deck,
}

# a fixed, seed-independent job per workload, run once before timing starts
WARMUP = {
    "oracle-ladder": Job("degthr_named", {"fn": "parity", "n": 3}),
    "witness-build": Job("psi", {"n": 64, "eps": F(1, 3)}),
    "density-search": Job("density", {"n": 3, "ones": [(0, 0, 1), (1, 1, 0)], "cap": 6}),
}


def deck(workload: str, seed: int, index: int) -> list[Job]:
    """Deck `index` of a run: the same (workload, seed, index) always gives
    the same jobs in the same order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = _DECKS[workload](rng, index == 0)
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------- execution


def _table(n, ones):
    return oracles.bool_table(core.hypercube(n), ones)


def _emit(*items) -> dict[str, str]:
    """Artifacts as the command line writes them: one JSON document per
    object, certificates wrapped with their schema tag."""
    out = {}
    for name, obj in items:
        if name.endswith(".cert.json"):
            obj = {"schema": f"certificate/{serialize.SCHEMA_VERSION}", "body": obj}
        out[name] = serialize.dumps(obj, indent=1)
    return out


def _degthr(p):
    return oracles.threshold_degree(_table(p["n"], p["ones"])), None


def _degthr_named(p):
    make = {"parity": oracles.parity_table, "and": oracles.and_table}[p["fn"]]
    return oracles.threshold_degree(make(p["n"])), None


def _degthr_mp(p):
    return oracles.threshold_degree(circuits.mp_table(p["m"], p["r"])), None


def _smooth(p):
    return oracles.smooth_threshold_degree(_table(p["n"], p["ones"]), p["gamma"]), None


def _iii(p):
    f = oracles.total_fn(_table(p["n"], p["ones"]))
    return oracles.iii_approx_degree(f, *oracles.approx_intervals(p["eps"]), margin=F(0)), None


def _disc(p):
    return oracles.discrepancy_2party(p["matrix"]), None


def _psi(p):
    psi, cert = dual_or.build_psi(p["n"], p["n"], p["eps"])
    return None, _emit(("psi.json", psi), ("psi.cert.json", cert))


def _zeta_cube(p):
    zeta, cert = corrector.build_zeta_cube(p["n"], p["d"])
    return None, _emit(("zeta.json", zeta), ("zeta.cert.json", cert))


def _or_gadget(p):
    lam0, lam1, lam2, cert = dual_mp.build_or_gadget(p["R"], p["r"], p["eps"])
    return None, _emit(("lambda0.json", lam0), ("lambda1.json", lam1),
                       ("lambda2.json", lam2), ("gadget.cert.json", cert))


def _mp_witness(p):
    mix0, mix1, cert = dual_mp.build_mp_witness(p["m"], p["r"])
    return None, _emit(("Lambda0.json", mix0), ("Lambda1.json", mix1), ("mp.cert.json", cert))


def _mp_smooth(p):
    lam0, lam1, cert = dual_mp.build_mp_smooth_witness(p["m"], p["r"], p["R"])
    return None, _emit(("Lambda0.json", lam0), ("Lambda1.json", lam1),
                       ("mp-smooth.cert.json", cert))


def _rs_smooth(p):
    lam, cert = dual_mp.build_rs_smooth(p["m"], p["r"])
    return None, _emit(("Lambda.json", lam), ("rs-smooth.cert.json", cert))


def _weight_reduce(p):
    lam = core.FnTable(core.box([len(p["lam"]) - 1]),
                       {(i,): v for i, v in enumerate(p["lam"])})
    mix = mixtures.ProductMixture({"lam": lam}, [(F(1), ("lam",) * p["k"])])
    family = mixtures.FamilySpec(kind="bounded", r=len(p["lam"]) - 1, c=F(1, 2), alpha=F(0))
    reduced, zeta, cert = smooth_ops.weight_reduce(mix, d=1, theta=p["theta"], family=family,
                                                   enforce_preconditions=False)
    return None, _emit(("reduced.json", reduced), ("correction.json", zeta),
                       ("weight-reduce.cert.json", cert))


def _build_g(p):
    g, cert = amplification.build_g(p["n"])
    return None, _emit(("g.json", g), ("g.cert.json", cert))


def _build_G(p):
    G, cert = amplification.build_G(p["n"], p["theta"])
    return None, _emit(("G.json", G), ("G.cert.json", cert))


def _booleanize(p):
    table, cert = amplification.booleanize(p["z"], p["m"], p["r"], d=p["d"], theta=p["theta"],
                                           enforce_preconditions=False)
    return None, _emit(("booleanized.json", table), ("booleanize.cert.json", cert))


def _compose(p):
    table = amplification.compose_table(_table(p["n"], p["ones"]), p["m"], p["R"], p["theta"])
    return None, _emit(("composed.json", table))


def _pattern(p):
    phi = core.FnTable(core.hypercube(p["n"]), p["phi"])
    res = matrix_bounds.pattern_spectral_norm(phi, p["N"], p["n"])
    return None, _emit(("pattern.cert.json", res))


def _density(p):
    return oracles.threshold_density(_table(p["n"], p["ones"]), cap=p["cap"]), None


def _kp_lift(p):
    base = circuits.literal(1) if p["base"] == "x1" else circuits.parity2_circuit()
    table = circuits.krause_pudlak(base).truth_table()
    return (table, oracles.threshold_density(table, cap=p["cap"])), None


RUNNERS = {
    "degthr": _degthr,
    "degthr_named": _degthr_named,
    "degthr_mp": _degthr_mp,
    "smooth": _smooth,
    "iii": _iii,
    "disc": _disc,
    "psi": _psi,
    "zeta_cube": _zeta_cube,
    "or_gadget": _or_gadget,
    "mp_witness": _mp_witness,
    "mp_smooth": _mp_smooth,
    "rs_smooth": _rs_smooth,
    "weight_reduce": _weight_reduce,
    "build_g": _build_g,
    "build_G": _build_G,
    "booleanize": _booleanize,
    "compose": _compose,
    "pattern": _pattern,
    "density": _density,
    "kp_lift": _kp_lift,
}


def execute(job: Job):
    """Run one job through the library: returns (answer, artifacts)."""
    return RUNNERS[job.kind](job.params)
