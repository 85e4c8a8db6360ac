"""Run the benchmark on several seeds and keep each run's result.

    python3 perfbench/runs.py OUT_DIR [--seeds 1-10]

Runs `perfbench/run.py --trace 0` once per workload of BENCHMARK.json and
seed, one after another, with the run length from BENCHMARK.json, and
stores the JSON result line as OUT_DIR/<workload>/seed-<n>.json and the
full output next to it as seed-<n>.log.  Feed one or two such directories to compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)

    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            out = args.out_dir / workload
            out.mkdir(parents=True, exist_ok=True)
            (out / f"seed-{seed}.log").write_text(proc.stdout + proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            (out / f"seed-{seed}.json").write_text(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {lines[-1]}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
