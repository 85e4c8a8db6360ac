"""Certified-answer throughput benchmark for ptfwitness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from this
checkout's src/ and from nowhere else.  One process, one thread, one
client in a closed loop: each job is sent when the previous answer is
back.  The loop executes whole decks (see workloads.py) until the time
spent inside library calls reaches --seconds.  Every answer is checked
by checks.py outside the timed region, and hashed; a job that raises,
fails its check or hashes differently on a rerun counts as failed.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
set-up time (median over fresh interpreters started between decks),
certified jobs per wall-clock second, p50 and p90 job latency, and peak
RSS.  --trace 1 first runs the decks untraced for half of --seconds,
then runs the same decks again with every library function wrapped by
tracing.py, and prints the per-layer metrics.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 9  # fresh-interpreter set-ups per run, spread over the run
RECHECKED_JOBS = 3  # cheap jobs of deck 0 re-executed after the timed loop
RECHECK_MAX_S = 0.1


def import_library() -> None:
    """Put this checkout's src/ and the benchmark package first on the
    path, and refuse to run against any other copy of the library.
    numpy's BLAS would start a thread per core; the benchmark runs on one
    thread."""
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = ROOT / "src"
    if not (src / "ptfwitness" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {src / 'ptfwitness'}")
    sys.path[:0] = [str(src), str(ROOT)]
    import ptfwitness

    if Path(ptfwitness.__file__).resolve().parent != (src / "ptfwitness").resolve():
        raise SystemExit(f"perfbench: imported ptfwitness from {ptfwitness.__file__}")


@dataclass
class Pass:
    """What one closed-loop pass over whole decks produced."""

    latencies: list = field(default_factory=list)  # seconds, one per job
    digests: list = field(default_factory=list)  # None for a failed job
    errors: dict = field(default_factory=dict)  # job index -> message
    decks: int = 0
    wall_s: float = 0.0
    own_s: float = 0.0  # the benchmark's own work: decks, checks, hashes, probes
    setup: list = field(default_factory=list)  # seconds, one per set-up probe

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        """Jobs that passed their check per second of wall time, not
        counting the benchmark's own work."""
        passed = len(self.latencies) - len(self.errors)
        return passed / (self.wall_s - self.own_s)


def run_pass(workload: str, seed: int, seconds: float | None = None,
             decks: int | None = None, recorder=None, setup_probes: int = 0) -> Pass:
    """Run whole decks until `seconds` of busy time, or exactly `decks`.
    The `setup_probes` set-up probes are taken between decks, spread
    evenly over the busy time, so they see the machine the jobs see."""
    from perfbench import checks, workloads

    out = Pass()
    start = time.perf_counter()
    while out.decks < decks if decks is not None else out.busy_s < seconds:
        t_own = time.perf_counter()
        while len(out.setup) < setup_probes and \
                out.busy_s >= len(out.setup) * seconds / setup_probes:
            out.setup.append(probe_setup(workload, seed))
        jobs = workloads.deck(workload, seed, out.decks)
        out.own_s += time.perf_counter() - t_own
        ctx: dict = {}
        for job in jobs:
            index = len(out.latencies)
            if recorder is not None:
                recorder.job_id = index
                span = recorder.open("bench.job")
            t0 = time.perf_counter()
            try:
                answer, artifacts = workloads.execute(job)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{job.kind} raised {exc!r}"
            out.latencies.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.close(span)
                span = recorder.open("bench.check")
            digest = None
            t_own = time.perf_counter()
            if error is None:
                try:
                    checks.check(job, answer, artifacts, ctx)
                    digest = checks.digest(answer, artifacts)
                except checks.CheckFailed as exc:
                    error = f"{job.kind} failed its check: {exc}"
            out.own_s += time.perf_counter() - t_own
            if recorder is not None:
                recorder.close(span)
            out.digests.append(digest)
            if error is not None:
                out.errors[index] = error
        out.decks += 1
    t_own = time.perf_counter()
    while len(out.setup) < setup_probes:  # runs shorter than the probe spacing
        out.setup.append(probe_setup(workload, seed))
    out.wall_s = time.perf_counter() - start
    out.own_s += time.perf_counter() - t_own
    return out


def recheck(workload: str, seed: int, result: Pass) -> None:
    """Re-execute a few cheap jobs of deck 0; a different hash is a failure."""
    from perfbench import checks, workloads

    done = 0
    for index, job in enumerate(workloads.deck(workload, seed, 0)):
        if done == RECHECKED_JOBS:
            break
        if result.digests[index] is None or result.latencies[index] > RECHECK_MAX_S:
            continue
        done += 1
        if checks.digest(*workloads.execute(job)) != result.digests[index]:
            result.errors[index] = f"{job.kind} hashed differently when re-executed"


def code_fingerprint() -> str:
    """The library and benchmark sources, and the Python, numpy and BLAS
    they ran on: floats in the artifacts may differ in their last bits
    when those change."""
    import numpy

    h = hashlib.sha256()
    stack = numpy.show_config(mode="dicts")["Build Dependencies"]
    h.update(json.dumps([sys.version, numpy.__version__, stack], sort_keys=True,
                        default=str).encode())
    for path in sorted([*ROOT.glob("src/ptfwitness/*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_with_earlier_runs(workload: str, seed: int, result: Pass) -> None:
    """Digests of earlier runs of the same code on the same seed must match
    job for job; the longer list is kept for later runs."""
    path = STATE / "hashes" / f"{workload}-{seed}.json"
    code = code_fingerprint()
    earlier: list = []
    if path.is_file():
        data = json.loads(path.read_text())
        if data.get("code") == code:
            earlier = data["digests"]
    for index, (old, new) in enumerate(zip(earlier, result.digests)):
        if old is not None and new is not None and old != new:
            result.errors[index] = f"job {index} hashed differently than an earlier run"
    if len(result.digests) > len(earlier):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"code": code, "digests": result.digests}))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to send
    its first timed job (library import, deck generation, warm-up job)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def _metric_units(bench: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[section]}


def end_to_end(workload: str, seed: int, seconds: float, bench: dict):
    from perfbench import workloads

    workloads.deck(workload, seed, 0)
    workloads.execute(workloads.WARMUP[workload])
    gc.collect()
    result = run_pass(workload, seed, seconds=seconds, setup_probes=SETUP_PROBES)
    recheck(workload, seed, result)
    compare_with_earlier_runs(workload, seed, result)
    lat_ms = [1000 * t for t in result.latencies]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(result.setup),
        "jobs_per_s": result.jobs_per_s,
        "job_p50_ms": deciles[4],
        "job_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{len(lat_ms)} jobs in {result.decks} decks, busy {result.busy_s:.2f} s, "
        f"wall {result.wall_s:.2f} s, of which the benchmark's own {result.own_s:.2f} s",
        f"set-up samples (s): {' '.join(f'{t:.4f}' for t in result.setup)}",
        f"samples beyond p90: {sum(1 for t in lat_ms if t > deciles[8])}",
    ]
    return result, values, _metric_units(bench, "end_to_end"), notes


def per_layer(workload: str, seed: int, seconds: float, bench: dict):
    from perfbench import tracing, workloads

    workloads.execute(workloads.WARMUP[workload])
    gc.collect()
    plain = run_pass(workload, seed, seconds=seconds / 2)
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    try:
        gc.collect()
        traced = run_pass(workload, seed, decks=plain.decks, recorder=recorder)
    finally:
        tracing.uninstall(patches)
    for index, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a is not None and b is not None and a != b:
            traced.errors[index] = f"job {index} hashed differently when traced"
    traced.errors.update(plain.errors)
    compare_with_earlier_runs(workload, seed, traced)
    recorder.write_spans(STATE / f"spans-{workload}-{seed}.csv")

    units = _metric_units(bench, "per_layer")
    stats = recorder.layer_stats()
    counters = recorder.counters
    solves = stats.get("lp.solve", {}).get("calls", 0)
    orths = stats.get("core.orth", {}).get("calls", 0)
    dumps = stats.get("serialize.dumps", {}).get("calls", 0)
    self_total = sum(s["self_s"] for name, s in stats.items() if "." in name)
    derived = {
        "lp.solve.rows_x_vars": counters["lp.solve.rows_x_vars"] / solves if solves else 0,
        "lp.solve.feasible_ratio": counters["lp.solve.feasible"] / solves if solves else 0,
        "core.orth.support_pts": counters["core.orth.support_pts"] / orths if orths else 0,
        "serialize.dumps.bytes": counters["serialize.dumps.bytes"] / dumps if dumps else 0,
        "trace.overhead_ratio": plain.jobs_per_s / traced.jobs_per_s,
        "trace.jobs": len(traced.latencies),
        "trace.wall_s": traced.wall_s,
        "trace.accounted_ratio": self_total / traced.wall_s,
    }
    values = {}
    for name in units:
        if name in derived:
            values[name] = derived[name]
        else:
            layer, _, field_name = name.rpartition(".")
            values[name] = stats.get(layer, {}).get(field_name, 0)
    notes = [
        f"{len(traced.latencies)} jobs in {traced.decks} decks; untraced busy "
        f"{plain.busy_s:.2f} s, traced busy {traced.busy_s:.2f} s, {len(recorder.names)} spans",
    ]
    return traced, values, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        raise SystemExit(f"perfbench: {bench_file} not found")
    bench = json.loads(bench_file.read_text())
    import_library()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    measure = per_layer if args.trace else end_to_end
    result, values, units, notes = measure(args.workload, args.seed, args.seconds, bench)

    attempted = len(result.latencies)
    failed = len(result.errors)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    for index, message in sorted(result.errors.items())[:10]:
        print(f"  FAILED job {index}: {message}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
