"""Independent checkers for every job kind.

A checker recomputes what it verifies with its own arithmetic from the
job's plain inputs, the returned answer's fields and the parsed JSON
artifacts.  It calls no ptfwitness function, so a defect in the library
cannot hide itself by also corrupting the check.  A failed check raises
CheckFailed; the benchmark counts the job as failed.

Cross-job relations (a smooth threshold degree never exceeds the
threshold degree of the same table) are checked through a per-deck
context dict: whichever of the two jobs finishes second does the check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np

F = Fraction


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- helpers


def cube(n: int):
    return itertools.product((0, 1), repeat=n)


def box_points(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def exponents_below(bounds, degree: int):
    """Exponent vectors alpha <= bounds of total degree < degree."""
    for alpha in box_points([min(b, degree) for b in bounds]):
        if sum(alpha) < degree:
            yield alpha


def monomial(p, alpha) -> int:
    out = 1
    for x, a in zip(p, alpha):
        if a:
            out *= x ** a
    return out


def poly_value(coeffs, p) -> Fraction:
    return sum((c * monomial(p, a) for a, c in coeffs.items()), F(0))


def orthogonal_below(values: dict, bounds, degree: int) -> bool:
    """True when sum_p values[p] * p^alpha == 0 for every |alpha| < degree."""
    items = list(values.items())
    if all(b == 1 for b in bounds):
        # on the hypercube p^alpha is 1 exactly when p covers alpha's support
        masks = [(sum(x << i for i, x in enumerate(p)), v) for p, v in items]
        for alpha in exponents_below(bounds, degree):
            a = sum(x << i for i, x in enumerate(alpha))
            if sum((v for pm, v in masks if pm & a == a), F(0)) != 0:
                return False
        return True
    for alpha in exponents_below(bounds, degree):
        if sum((v * monomial(p, alpha) for p, v in items), F(0)) != 0:
            return False
    return True


def is_distribution(values: dict) -> bool:
    return all(v >= 0 for v in values.values()) and sum(values.values(), F(0)) == 1


def signs(n: int, ones) -> dict:
    ones = {tuple(p) for p in ones}
    return {p: (-1 if p in ones else 1) for p in cube(n)}


def parse_table(data: dict) -> tuple[dict, dict]:
    """(domain, {point: value}) from an fntable artifact."""
    require(data.get("schema", "").startswith("fntable/"), "not an fntable artifact")
    return data["domain"], {tuple(p): F(v) for p, v in data["entries"]}


def load(artifacts: dict, name: str):
    require(name in artifacts, f"missing artifact {name}")
    try:
        return json.loads(artifacts[name])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name} is not valid JSON: {exc}") from None


def load_cert(artifacts: dict, name: str) -> dict:
    data = load(artifacts, name)
    require(data.get("schema", "").startswith("certificate/"), f"{name}: bad schema tag")
    return data["body"]


def densify(mixture: dict, bounds) -> dict:
    """Dense values of a serialized product mixture on the box."""
    require(mixture.get("schema", "").startswith("mixture/"), "not a mixture artifact")
    factors = {lab: parse_table(t)[1] for lab, t in mixture["factors"].items()}
    terms = [(F(c), labels) for c, labels in mixture["terms"]]
    out = {}
    for p in box_points(bounds):
        acc = F(0)
        for c, labels in terms:
            term = c
            for x, lab in zip(p, labels):
                term *= factors[lab].get((x,), 0)
                if not term:
                    break
            acc += term
        if acc:
            out[p] = acc
    return out


def mixture_convex(mixture: dict) -> bool:
    coeffs = [F(c) for c, _ in mixture["terms"]]
    return all(c >= 0 for c in coeffs) and sum(coeffs) == 1


# ---------------------------------------------------------- oracle-ladder


def check_degree_answer(n: int, ones, ans) -> None:
    """Primal: margin-1 sign representation of degree <= value.  Dual: a
    sign-agreeing unit-l1 weighting orthogonal below the value.  Together
    they pin the threshold degree exactly."""
    sgn = signs(n, ones)
    v = ans.value
    primal = ans.primal
    require(primal is not None, "no primal polynomial")
    deg = max((sum(a) for a, c in primal.items() if c), default=0)
    require(deg <= v, f"primal degree {deg} above value {v}")
    for p, s in sgn.items():
        require(s * poly_value(primal, p) >= 1, f"primal lacks margin 1 at {p}")
    if v > 0:
        require(ans.dual is not None, "no dual witness")
        dual = dict(ans.dual.entries)
        require(sum(abs(x) for x in dual.values()) == 1, "dual l1 != 1")
        require(all(sgn[p] * x > 0 for p, x in dual.items()), "dual disagrees in sign")
        require(orthogonal_below(dual, (1,) * n, v), "dual not orthogonal below value")


def _record_degree(ctx: dict, table_id: str, kind: str, value) -> None:
    """Smooth values never exceed the threshold degree of the same table."""
    entry = ctx.setdefault(table_id, {"degthr": None, "smooth": []})
    if kind == "degthr":
        entry["degthr"] = value
    else:
        entry["smooth"].append(value)
    if entry["degthr"] is not None:
        for s in entry["smooth"]:
            require(s <= entry["degthr"], f"smooth value {s} > threshold degree {entry['degthr']}")


def check_degthr(p, ans, artifacts, ctx):
    check_degree_answer(p["n"], p["ones"], ans)
    _record_degree(ctx, p["table_id"], "degthr", ans.value)


def check_degthr_named(p, ans, artifacts, ctx):
    n = p["n"]
    if p["fn"] == "parity":
        ones, expected = [q for q in cube(n) if sum(q) % 2], n
    else:
        ones, expected = [(1,) * n], 1
    require(ans.value == expected, f"{p['fn']}({n}) threshold degree {ans.value} != {expected}")
    check_degree_answer(n, ones, ans)


def check_degthr_mp(p, ans, artifacts, ctx):
    m, r = p["m"], p["r"]
    ones = [q for q in cube(m * r) if all(any(q[i * r:(i + 1) * r]) for i in range(m))]
    check_degree_answer(m * r, ones, ans)


def check_smooth(p, ans, artifacts, ctx):
    n, gamma = p["n"], p["gamma"]
    require(ans.gamma == gamma, "gamma not echoed")
    v = ans.value
    require(v >= 0, "negative value")
    if v > 0:
        require(ans.dual is not None, "no smooth witness")
        sgn = signs(n, p["ones"])
        mu = dict(ans.dual.entries)
        floor = gamma / 2 ** n
        require(set(mu) == set(sgn), "smooth witness not fully supported")
        require(all(x >= floor for x in mu.values()), "smooth witness below floor")
        require(sum(mu.values()) == 1, "smooth witness total != 1")
        twisted = {q: sgn[q] * x for q, x in mu.items()}
        require(orthogonal_below(twisted, (1,) * n, v), "smooth witness not orthogonal")
    _record_degree(ctx, p["table_id"], "smooth", v)


def check_iii(p, ans, artifacts, ctx):
    """Primal: an eps-approximant of degree <= value.  Dual: the folded
    Farkas weights, orthogonal below the value and with a positive
    combination of the interval ends (which proves degree value-1 fails)."""
    n, eps = p["n"], p["eps"]
    ones = {tuple(q) for q in p["ones"]}
    v = ans.value
    deg = max((sum(a) for a, c in ans.primal.items() if c), default=0)
    require(deg <= v, "approximant degree above value")
    for q in cube(n):
        target = 1 if q in ones else 0
        require(abs(poly_value(ans.primal, q) - target) <= eps, f"approximation fails at {q}")
    if v > 0:
        w = dict(ans.dual.entries)
        require(orthogonal_below(w, (1,) * n, v), "dual weights not orthogonal")
        rhs = F(0)
        for q, x in w.items():
            target = 1 if q in ones else 0
            rhs += x * (target - eps if x > 0 else target + eps)
        require(rhs > 0, "dual weights do not certify the lower bound")


def _rectangles(k: int):
    for mask in range(1, 2 ** k):
        yield tuple(i for i in range(k) if mask >> i & 1)


def check_disc(p, ans, artifacts, ctx):
    """The returned distribution attains the value over every rectangle."""
    matrix = p["matrix"]
    rows, cols = len(matrix), len(matrix[0])
    dist = ans.distribution
    require(len(dist) == rows and all(len(r) == cols for r in dist), "distribution shape")
    flat = [x for r in dist for x in r]
    require(all(x >= 0 for x in flat) and sum(flat) == 1, "not a distribution")

    def corr(A, B):
        return abs(sum(dist[x][y] * matrix[x][y] for x in A for y in B))

    best = max(corr(A, B) for A in _rectangles(rows) for B in _rectangles(cols))
    require(best == ans.value, f"rectangle maximum {best} != value {ans.value}")
    require(corr(*ans.best_rectangle) == ans.value, "best rectangle does not attain value")
    require(ans.value > 0, "zero discrepancy value")


# ---------------------------------------------------------- density-search


def check_density_answer(n: int, ones, ans) -> None:
    require(not ans.exceeded_cap and ans.family is not None, "no family returned")
    require(ans.value == len(ans.family) == len(ans.coefficients), "family size != value")
    for q, t in signs(n, ones).items():
        total = F(0)
        for s, c in zip(ans.family, ans.coefficients):
            total += c * (-1) ** sum(q[j] for j in range(n) if s >> j & 1)
        require(t * total >= 1, f"parity sum lacks margin at {q}")


def check_density(p, ans, artifacts, ctx):
    check_density_answer(p["n"], p["ones"], ans)
    require(ans.value <= p["cap"], "value above cap")
    if "planted" in p:
        require(ans.value <= p["planted"], f"value {ans.value} above planted {p['planted']}")


def check_kp_lift(p, answer, artifacts, ctx):
    """The selector lift's truth table, and density >= 2^(threshold degree
    of the base), which exceeds the cap used here."""
    table, ans = answer
    n = 1 if p["base"] == "x1" else 2
    expected = set()
    for q in cube(3 * n):
        sel = [q[n + i] if q[2 * n + i] else q[i] for i in range(n)]
        if (sel[0] if n == 1 else sel[0] ^ sel[1]):
            expected.add(q)
    require(set(table.entries) == expected, "lift truth table mismatch")
    require(all(v == 1 for v in table.entries.values()), "lift table not Boolean")
    require(ans.exceeded_cap and ans.value == p["cap"] + 1, "lift density below 2^degthr")


# ----------------------------------------------------------- witness-build


def check_psi(p, answer, artifacts, ctx):
    n, eps = p["n"], p["eps"]
    dom, psi = parse_table(load(artifacts, "psi.json"))
    cert = load_cert(artifacts, "psi.cert.json")
    require(dom["bounds"] == [n], "psi domain")
    require(set(psi) == {(t,) for t in range(n + 1)}, "psi not nonzero everywhere")
    require(sum(abs(v) for v in psi.values()) == 1, "psi l1 != 1")
    require(all((v > 0) == (t % 2 == 0) for (t,), v in psi.items()), "psi sign pattern")
    require(psi[(0,)] > (1 - eps) / 2, "psi(0) <= (1-eps)/2")
    require(F(cert["l1"]) == 1 and F(cert["eps"]) == eps, "certificate fields")
    require(cert["orth_value"] >= cert["orth_claimed"], "orth_value < orth_claimed")
    require(orthogonal_below(psi, [n], cert["orth_value"]), "psi not orthogonal")
    require(sum(v * t ** cert["orth_value"] for (t,), v in psi.items()) != 0,
            "orth_value not exact")


def check_zeta_cube(p, answer, artifacts, ctx):
    n, d = p["n"], p["d"]
    _, zeta = parse_table(load(artifacts, "zeta.json"))
    cert = load_cert(artifacts, "zeta.cert.json")
    top = (1,) * n
    require(zeta.get(top) == 1, "anchor value != 1")
    require(all(q == top or sum(q) <= d for q in zeta), "support above weight d")
    l1 = sum(abs(v) for v in zeta.values())
    require(l1 == F(cert["l1"]) and l1 <= 1 + 2 ** d * math.comb(n, d), "l1 bound")
    require(orthogonal_below(zeta, (1,) * n, d + 1), "corrector not orthogonal")


def check_or_gadget(p, answer, artifacts, ctx):
    R, eps = p["R"], p["eps"]
    lam = [parse_table(load(artifacts, f"lambda{i}.json"))[1] for i in range(3)]
    cert = load_cert(artifacts, "gadget.cert.json")
    require(all(is_distribution(t) for t in lam), "component not a distribution")
    require(set(lam[0]) == {(0,)}, "lambda0 not the point mass at 0")
    nonzero = {(t,) for t in range(1, R + 1)}
    require(set(lam[1]) == nonzero and set(lam[2]) == nonzero, "lambda1/2 supports")
    require(cert["supports_ok"] and cert["membership_ok"], "certificate flags")
    combo = {}
    for c, t in ((1 - eps, lam[0]), (eps, lam[2]), (F(-1), lam[1])):
        for q, v in t.items():
            combo[q] = combo.get(q, 0) + c * v
    require(cert["d_gadget"] >= 1 and orthogonal_below(combo, [R], cert["d_gadget"]),
            "gadget combination not orthogonal")


def _check_mp_pair(d0, d1, bounds, claimed, full_support: bool) -> None:
    for dist, want in ((d0, 0), (d1, 1)):
        require(is_distribution(dist), "witness component not a distribution")
        require(all(int(all(x >= 1 for x in q)) == want for q in dist),
                "witness support crosses the preimage")
        if full_support:
            preimage = {q for q in box_points(bounds) if int(all(x >= 1 for x in q)) == want}
            require(set(dist) == preimage, "witness support is not the full preimage")
    diff = {q: d1.get(q, 0) - d0.get(q, 0) for q in set(d0) | set(d1)}
    require(orthogonal_below(diff, bounds, claimed), "witness pair not orthogonal")


def check_mp_witness(p, answer, artifacts, ctx):
    bounds = [p["r"]] * p["m"]
    mix0, mix1 = load(artifacts, "Lambda0.json"), load(artifacts, "Lambda1.json")
    cert = load_cert(artifacts, "mp.cert.json")
    require(mixture_convex(mix0) and mixture_convex(mix1), "coefficients not convex")
    require(cert["orth_value"] is None or cert["orth_value"] >= cert["orth_claimed"],
            "orth_value < orth_claimed")
    _check_mp_pair(densify(mix0, bounds), densify(mix1, bounds), bounds,
                   cert["orth_claimed"], full_support=False)


def check_mp_smooth(p, answer, artifacts, ctx):
    bounds = [p["R"]] * p["m"]
    mix0, mix1 = load(artifacts, "Lambda0.json"), load(artifacts, "Lambda1.json")
    cert = load_cert(artifacts, "mp-smooth.cert.json")
    require(mixture_convex(mix0) and mixture_convex(mix1), "coefficients not convex")
    require(cert["orth_value"] >= cert["orth_claimed"], "orth_value < orth_claimed")
    require(F(cert["k_actual"]) <= F(cert["k_claimed"]), "smoothness above its claim")
    require(cert["supports_equal"] and cert["sandwiches_ok"], "certificate flags")
    _check_mp_pair(densify(mix0, bounds), densify(mix1, bounds), bounds,
                   cert["orth_claimed"], full_support=True)


def check_rs_smooth(p, answer, artifacts, ctx):
    m, r = p["m"], p["r"]
    _, lam = parse_table(load(artifacts, "Lambda.json"))
    cert = load_cert(artifacts, "rs-smooth.cert.json")
    floor = F(cert["floor"])
    require(floor == F(1, 4) * F(1, 12 * 2 ** r) ** m, "floor is not the stated constant")
    require(set(lam) == set(cube(m * r)), "witness not fully supported")
    require(is_distribution(lam) and all(v >= floor for v in lam.values()), "floor or norm")
    require(cert["orth_claimed"] == min(cert["d_psi"], m), "claimed level")
    require(cert["orth_value"] >= cert["orth_claimed"], "orth_value < orth_claimed")
    twisted = {}
    for q, v in lam.items():
        mp = all(any(q[i * r:(i + 1) * r]) for i in range(m))
        twisted[q] = -v if mp else v
    require(orthogonal_below(twisted, (1,) * (m * r), cert["orth_claimed"]),
            "twisted witness not orthogonal")


def check_weight_reduce(p, answer, artifacts, ctx):
    lam, k, theta = p["lam"], p["k"], p["theta"]
    _, reduced = parse_table(load(artifacts, "reduced.json"))
    _, corr = parse_table(load(artifacts, "correction.json"))
    cert = load_cert(artifacts, "weight-reduce.cert.json")
    bounds = [len(lam) - 1] * k
    for q in box_points(bounds):
        dense = math.prod((lam[x] for x in q), start=F(1))
        require(reduced.get(q, 0) + corr.get(q, 0) == dense, f"reduced + correction != product at {q}")
    require(all(sum(q) < 2 * theta for q in reduced), "support above 2 theta")
    require(sum(reduced.values()) == 1, "reduced total != 1")
    require(cert["is_distribution"] == all(v >= 0 for v in reduced.values()), "distribution flag")
    require(orthogonal_below(corr, bounds, 2), "correction not orthogonal beyond degree 1")


def _check_gmap(g: dict, n: int) -> int:
    k = n.bit_length()
    require(g["n"] == n and g["k"] == k and g["width"] == 6 * k, "g parameters")
    rows = [set(r) for r in g["rows"]]
    require(sum(len(r) for r in g["rows"]) == len(set().union(*rows)), "rows overlap")
    require(all(0 <= i < g["width"] for r in rows for i in r), "row index out of range")
    require(set(g["label_of_syndrome"].values()) == set(range(n + 1)), "labels not surjective")
    distance = min(len(set().union(*(rows[b] for b in range(len(rows)) if mask >> b & 1)))
                   for mask in range(1, 2 ** len(rows)))
    require(distance > k, "code distance too small for the moment equalities")
    return distance


def check_build_g(p, answer, artifacts, ctx):
    distance = _check_gmap(load(artifacts, "g.json"), p["n"])
    cert = load_cert(artifacts, "g.cert.json")
    require(cert["code_distance"] == distance, "certificate distance")
    require(cert["moments_ok"] and cert["surjective"], "certificate flags")


def check_build_G(p, answer, artifacts, ctx):
    G = load(artifacts, "G.json")
    distance = _check_gmap(G["g"], p["n"])
    cert = load_cert(artifacts, "G.cert.json")
    require(G["theta"] == p["theta"] and G["n"] == p["n"], "G parameters")
    require(cert["code_distance"] == distance and cert["surjective"], "certificate fields")


def check_booleanize(p, answer, artifacts, ctx):
    z, m, r, theta = p["z"], p["m"], p["r"], p["theta"]
    _, table = parse_table(load(artifacts, "booleanized.json"))
    cert = load_cert(artifacts, "booleanize.cert.json")
    n = len(z)
    require(is_distribution(table), "not a distribution")
    for q in table:
        require(sum(q) < 2 * theta + n * m, "support above the weight cap")
        for i, zi in enumerate(z):
            block = q[i * m:(i + 1) * m]
            require(int(all(x >= 1 for x in block)) == zi, "block disagrees with z")
            require(all(x <= r for x in block), "coordinate above r")
    require(cert["orth_ok"] and cert["support_ok"], "certificate flags")


def check_compose(p, answer, artifacts, ctx):
    n, m, R, theta = p["n"], p["m"], p["R"], p["theta"]
    dom, table = parse_table(load(artifacts, "composed.json"))
    ones = {tuple(q) for q in p["ones"]}
    expected = set()
    for q in box_points([R] * (n * m)):
        if theta is not None and sum(q) > theta:
            continue
        zvec = tuple(int(all(x >= 1 for x in q[i * m:(i + 1) * m])) for i in range(n))
        if zvec in ones:
            expected.add(q)
    require(dom["bounds"] == [R] * (n * m), "composed domain")
    require(set(table) == expected and all(v == 1 for v in table.values()),
            "composed truth table mismatch")


def check_pattern(p, answer, artifacts, ctx):
    """Closed form from our own Fourier transform, and the numeric norm of
    our own materialization of the pattern matrix."""
    N, n, phi = p["N"], p["n"], p["phi"]
    res = load_cert(artifacts, "pattern.cert.json")
    b = N // n
    best = F(0)
    for S in itertools.chain.from_iterable(itertools.combinations(range(n), k)
                                           for k in range(n + 1)):
        hat = sum((v * (-1) ** sum(q[i] for i in S) for q, v in phi.items()), F(0)) / 2 ** n
        best = max(best, hat * hat / F(b) ** len(S))
    norm_sq = F(2 ** (N + n)) * F(b) ** n * best
    require(F(res["norm_sq"]) == norm_sq, "closed-form norm mismatch")
    cols = [(V, w) for V in itertools.product(*(range(i * b, (i + 1) * b) for i in range(n)))
            for w in cube(n)]
    mat = np.array([[float(phi.get(tuple(x[v] ^ wi for v, wi in zip(V, w)), 0))
                     for V, w in cols] for x in cube(N)])
    numeric = float(np.linalg.norm(mat, 2))
    exact = math.sqrt(float(norm_sq))
    require(abs(exact - numeric) <= 1e-9 * max(exact, numeric, 1e-12), "numeric norm mismatch")


CHECKERS = {
    "degthr": check_degthr,
    "degthr_named": check_degthr_named,
    "degthr_mp": check_degthr_mp,
    "smooth": check_smooth,
    "iii": check_iii,
    "disc": check_disc,
    "psi": check_psi,
    "zeta_cube": check_zeta_cube,
    "or_gadget": check_or_gadget,
    "mp_witness": check_mp_witness,
    "mp_smooth": check_mp_smooth,
    "rs_smooth": check_rs_smooth,
    "weight_reduce": check_weight_reduce,
    "build_g": check_build_g,
    "build_G": check_build_G,
    "booleanize": check_booleanize,
    "compose": check_compose,
    "pattern": check_pattern,
    "density": check_density,
    "kp_lift": check_kp_lift,
}


def check(job, answer, artifacts, ctx: dict) -> None:
    """Raise CheckFailed unless the job's output verifies.  Output too
    malformed to inspect fails the check too."""
    try:
        CHECKERS[job.kind](job.params, answer, artifacts, ctx)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None


# ------------------------------------------------------------ determinism


def _canonical(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, int, str, float)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return sorted((json.dumps(_canonical(k)), _canonical(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_canonical(x) for x in obj]
        return sorted(items, key=json.dumps) if isinstance(obj, (set, frozenset)) else items
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__, {f.name: _canonical(getattr(obj, f.name))
                                     for f in dataclasses.fields(obj)}]
    if hasattr(obj, "domain") and hasattr(obj, "entries"):
        return ["table", _canonical(obj.domain), _canonical(obj.entries)]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(answer, artifacts) -> str:
    """SHA-256 of the answer (in the benchmark's own canonical encoding)
    and of every artifact byte."""
    h = hashlib.sha256(json.dumps(_canonical(answer), sort_keys=True).encode())
    for name in sorted(artifacts or {}):
        h.update(name.encode() + b"\0" + artifacts[name].encode() + b"\0")
    return h.hexdigest()
