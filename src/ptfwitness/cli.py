"""Command-line orchestration.

Subcommands: witness (build dual objects), oracle (exact degree and
discrepancy queries), bounds (pattern matrices, Forster, sign-rank),
amplify (one circuit amplification step), circuits (constructors and
exports), verify (parse and validate a stored table, mixture or circuit;
a stored certificate is not re-checked yet, so it fails), repro (the acceptance
suite).  Exit code 0 means every requested certificate passed.

Rationals on the command line are "p/q" strings; floats are not accepted
on exact paths.  Artifacts embed the schema version and reruns produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .acceptance import run_all
from .amplification import amplify_circuit_once, build_fkn
from .circuits import krause_pudlak, literal, mp, mp_table, parity2_circuit, surj_table
from .core import FnTable, hypercube
from .dual_mp import build_mp_smooth_witness, build_mp_witness, build_or_gadget, build_rs_smooth
from .dual_or import build_psi
from .errors import ArtifactError, PreconditionError
from .matrix_bounds import (
    forster_bound,
    pattern_spectral_norm,
    signrank_lb_pattern,
    signrank_le_1,
)
from .oracles import (
    and_table,
    approx_intervals,
    discrepancy_2party,
    iii_approx_degree,
    or_table,
    parity_table,
    smooth_threshold_degree,
    threshold_degree,
    threshold_density,
    total_fn,
)
from .serialize import (
    SCHEMA_VERSION,
    circuit_from_json,
    dumps,
    frac_str,
    matrix_from_csv,
    mixture_from_json,
    parse_frac,
    table_from_json,
)

F = Fraction


def _read(path: str | None, option: str, parse=json.loads):
    """parse(text) of the file at `path`, named on the command line by
    `option`.  A missing option, a file that cannot be read and text that
    parse rejects each raise PreconditionError."""
    if path is None:
        raise PreconditionError(f"{option} is required")
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise PreconditionError(f"cannot read {option} {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise PreconditionError(f"cannot parse {option} {path}: {exc}") from None


def _named_table(args) -> FnTable:
    name = args.fn
    if name == "parity":
        return parity_table(args.n)
    if name == "and":
        return and_table(args.n)
    if name == "or":
        return or_table(args.n)
    if name == "mp":
        return mp_table(args.m, args.r)
    if name == "surj":
        return surj_table(args.n, args.r)
    if name == "table":
        return table_from_json(_read(args.table, "--table"))
    raise ArtifactError(f"unknown function {name!r}")


class Emitter:
    """Writes artifacts and accumulates the run manifest."""

    def __init__(self, out_dir: str | None, command: str, parameters: dict):
        self.dir = Path(out_dir) if out_dir else None
        params = {}
        for k, v in parameters.items():
            if isinstance(v, Fraction):
                params[k] = frac_str(v)
            elif v is None or isinstance(v, (str, int, float, bool)):
                params[k] = v
        self.manifest = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "parameters": params,
            "artifacts": {},
        }
        self.started = time.time()

    def emit(self, name: str, obj, kind: str | None = None) -> None:
        if kind is not None:
            obj = {"schema": f"{kind}/{SCHEMA_VERSION}", "body": obj}
        payload = dumps(obj, indent=1)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        self.manifest["artifacts"][name] = digest
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)
            (self.dir / name).write_text(payload)

    def close(self) -> None:
        self.manifest["wall_clock_seconds"] = round(time.time() - self.started, 3)
        if self.dir:
            (self.dir / "manifest.json").write_text(
                json.dumps(self.manifest, sort_keys=True, indent=1))


def cmd_oracle(args) -> int:
    if args.operation == "degthr":
        ans = threshold_degree(_named_table(args))
        print(ans.value)
        return 0
    if args.operation == "smooth-degthr":
        ans = smooth_threshold_degree(_named_table(args), parse_frac(args.gamma))
        print(ans.value)
        return 0
    if args.operation == "iii":
        f = total_fn(_named_table(args))
        ans = iii_approx_degree(f, *approx_intervals(parse_frac(args.eps)), margin=F(0))
        print(ans.value)
        return 0
    if args.operation == "disc2":
        ans = discrepancy_2party(_read(args.csv, "--csv", matrix_from_csv))
        print(frac_str(ans.value))
        return 0
    if args.operation == "density":
        ans = threshold_density(_named_table(args), cap=args.cap)
        print(ans.value if not ans.exceeded_cap else f">{args.cap}")
        return 0
    raise ArtifactError(f"unknown oracle operation {args.operation!r}")


def cmd_witness(args) -> int:
    em = Emitter(args.out, f"witness build {args.kind}", vars(args))
    try:
        if args.kind == "dual-or":
            n = args.n
            N = args.N or n
            psi, cert = build_psi(n, N, parse_frac(args.eps))
            em.emit("psi.json", psi)
            em.emit("psi.cert.json", cert, kind="certificate")
            print(f"PASS dual-or witness: psi(0)={frac_str(cert.at_zero)} "
                  f"orth>={cert.orth_claimed} (exact {cert.orth_value})")
        elif args.kind == "or-gadget":
            lam0, lam1, lam2, cert = build_or_gadget(args.R or args.r, args.r,
                                                     parse_frac(args.eps))
            for name, t in (("lambda0", lam0), ("lambda1", lam1), ("lambda2", lam2)):
                em.emit(f"{name}.json", t)
            em.emit("gadget.cert.json", cert, kind="certificate")
            print(f"PASS or-gadget: d_gadget={cert.d_gadget} c1={frac_str(cert.c1)}")
        elif args.kind == "mp":
            mix0, mix1, cert = build_mp_witness(args.m, args.r)
            em.emit("Lambda0.json", mix0)
            em.emit("Lambda1.json", mix1)
            em.emit("mp.cert.json", cert, kind="certificate")
            print(f"PASS mp witness: orth claimed {cert.orth_claimed} "
                  f"exact {cert.orth_value}")
        elif args.kind == "mp-smooth":
            lam_0, lam_1, cert = build_mp_smooth_witness(args.m, args.r,
                                                         args.R or args.r)
            em.emit("Lambda0.json", lam_0)
            em.emit("Lambda1.json", lam_1)
            em.emit("mp-smooth.cert.json", cert, kind="certificate")
            print(f"PASS mp-smooth witness: orth {cert.orth_value}, "
                  f"K={frac_str(cert.k_actual)}")
        elif args.kind == "rs-smooth":
            lam, cert = build_rs_smooth(args.m, args.r)
            em.emit("Lambda.json", lam)
            em.emit("rs-smooth.cert.json", cert, kind="certificate")
            print(f"PASS rs-smooth witness: floor {frac_str(cert.floor)}, "
                  f"orth {cert.orth_value}")
        else:
            raise ArtifactError(f"unknown witness kind {args.kind!r}")
    except ArtifactError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        em.close()
    return 0


def cmd_bounds(args) -> int:
    if args.operation == "pattern":
        if args.phi:
            phi = table_from_json(_read(args.phi, "--phi"))
        else:
            dom = hypercube(args.n)
            phi = FnTable(dom, {p: F(1) for p in dom.points()})
        res = pattern_spectral_norm(phi, args.N, args.n)
        print(f"norm^2 = {frac_str(res.norm_sq)}")
        return 0
    if args.operation == "forster":
        matrix = _read(args.csv, "--csv", matrix_from_csv)
        b = forster_bound(matrix)
        print(f"sign-rank >= {float(b.lower):.9f}")
        rank1 = signrank_le_1(matrix)
        print(f"rank-1 sign pattern: {rank1}")
        return 0
    if args.operation == "signrank":
        f = _named_table(args)
        ans = smooth_threshold_degree(f, parse_frac(args.gamma))
        res = signrank_lb_pattern(f, ans, T=args.T)
        print(f"level d={ans.value}; sign-rank >= {frac_str(res.bound_lower)}"
              f"{' (exact)' if res.bound_is_exact else ' (lower bracket)'}")
        return 0
    raise ArtifactError(f"unknown bounds operation {args.operation!r}")


def cmd_amplify(args) -> int:
    em = Emitter(args.out, "amplify", vars(args))
    try:
        base = literal(args.n) if args.f == "x1" else parity2_circuit()
        circ, info = amplify_circuit_once(base, args.m, args.theta)
        em.emit("circuit.json", circ)
        em.emit("amplify.cert.json", {
            "width": info.width, "size": info.size, "depth": info.depth,
            "bottom_fanin": info.bottom_fanin,
        }, kind="certificate")
        print(f"PASS amplified circuit: {info.width} inputs, size {info.size}, "
              f"depth {info.depth}, bottom fan-in {info.bottom_fanin}")
    except ArtifactError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        em.close()
    return 0


def cmd_circuits(args) -> int:
    if args.kind == "mp":
        circ = mp(args.m, args.r)
    elif args.kind == "kp":
        base = literal(args.n) if args.n == 1 else parity2_circuit()
        circ = krause_pudlak(base)
    elif args.kind == "fkn":
        circ = build_fkn(args.k, args.n)
    else:
        raise ArtifactError(f"unknown circuit kind {args.kind!r}")
    em = Emitter(args.out, f"circuits build {args.kind}", vars(args))
    em.emit("circuit.json", circ)
    em.close()
    if args.dot:
        Path(args.dot).write_text(circ.to_dot())
    print(f"size={circ.size()} depth={circ.depth()} "
          f"bottom_fanin={circ.bottom_fanin()} monotone={circ.is_monotone()}")
    return 0


def cmd_verify(args) -> int:
    data = _read(args.artifact, "artifact")
    if not isinstance(data, dict):
        raise PreconditionError("artifact is not a JSON object")
    schema = str(data.get("schema", ""))
    if schema.startswith("fntable/"):
        table = table_from_json(data)
        print(f"PASS fntable: {len(table.entries)} entries, "
              f"l1 = {frac_str(table.l1())}, "
              f"distribution = {table.is_distribution()}")
        return 0
    if schema.startswith("circuit/"):
        circ = circuit_from_json(data)
        print(f"PASS circuit: size {circ.size()}, depth {circ.depth()}")
        return 0
    if schema.startswith("mixture/"):
        mix = mixture_from_json(data)
        print(f"PASS mixture: {len(mix.terms)} terms, {len(mix.factors)} factors")
        return 0
    if schema.startswith("certificate/"):
        # no certificate type is re-derived yet, so none may pass
        body = data.get("body")
        kind = body.get("_type", "unknown") if isinstance(body, dict) else "unknown"
        print(f"FAIL no re-check for certificate type {kind}", file=sys.stderr)
        return 1
    print(f"FAIL unknown artifact schema {schema!r}", file=sys.stderr)
    return 1


def cmd_repro(args) -> int:
    ok = run_all()
    print("acceptance suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptfwitness",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_fn_args(sp):
        sp.add_argument("--fn", default="parity",
                        choices=["parity", "and", "or", "mp", "surj", "table"])
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--r", type=int, default=2)
        sp.add_argument("--table", help="path to an fntable JSON artifact")

    o = sub.add_parser("oracle", help="exact degree and discrepancy queries")
    o.add_argument("operation",
                   choices=["degthr", "smooth-degthr", "iii", "disc2", "density"])
    add_fn_args(o)
    o.add_argument("--gamma", default="0/1")
    o.add_argument("--eps", default="1/3")
    o.add_argument("--cap", type=int, default=4)
    o.add_argument("--csv")
    o.set_defaults(run=cmd_oracle)

    w = sub.add_parser("witness", help="build dual witnesses with certificates")
    w.add_argument("action", choices=["build"])
    w.add_argument("kind",
                   choices=["dual-or", "or-gadget", "mp", "mp-smooth", "rs-smooth"])
    w.add_argument("--n", type=int, default=8)
    w.add_argument("--N", type=int)
    w.add_argument("--m", type=int, default=2)
    w.add_argument("--r", type=int, default=2)
    w.add_argument("--R", type=int)
    w.add_argument("--eps", default="1/3")
    w.add_argument("--out")
    w.set_defaults(run=cmd_witness)

    b = sub.add_parser("bounds", help="pattern matrices and sign-rank bounds")
    b.add_argument("operation", choices=["pattern", "forster", "signrank"])
    add_fn_args(b)
    b.add_argument("--N", type=int, default=2)
    b.add_argument("--phi", help="path to an fntable JSON artifact")
    b.add_argument("--csv")
    b.add_argument("--gamma", default="1/1")
    b.add_argument("--T", type=int, default=2)
    b.set_defaults(run=cmd_bounds)

    a = sub.add_parser("amplify", help="one circuit amplification step")
    a.add_argument("--f", default="x1", choices=["x1", "parity2"])
    a.add_argument("--n", type=int, default=1)
    a.add_argument("--m", type=int, default=1)
    a.add_argument("--theta", type=int, default=2)
    a.add_argument("--out")
    a.set_defaults(run=cmd_amplify)

    c = sub.add_parser("circuits", help="explicit circuit constructors")
    c.add_argument("action", choices=["build"])
    c.add_argument("kind", choices=["mp", "kp", "fkn"])
    c.add_argument("--m", type=int, default=2)
    c.add_argument("--r", type=int, default=2)
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--dot")
    c.add_argument("--out")
    c.set_defaults(run=cmd_circuits)

    v = sub.add_parser("verify", help="parse and validate a stored table, mixture or circuit")
    v.add_argument("artifact")
    v.set_defaults(run=cmd_verify)

    r = sub.add_parser("repro", help="run the acceptance suite")
    r.add_argument("scope", choices=["all"])
    r.set_defaults(run=cmd_repro)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ArtifactError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
