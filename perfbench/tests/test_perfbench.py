"""Tests of the benchmark itself: tiny runs print exactly the metrics that
BENCHMARK.json names, and every checker rejects a corrupted output."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from perfbench import run

run.import_library()

from perfbench import checks, workloads  # noqa: E402  (needs the library path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
F = Fraction


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_benchmark_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_decks_depend_only_on_seed_and_index():
    for workload in workloads.WORKLOADS:
        a = workloads.deck(workload, 7, 3)
        assert a == workloads.deck(workload, 7, 3)
        assert a != workloads.deck(workload, 8, 3)


# --------------------------------------------------------- corrupted outputs


def first_job(kind: str):
    for workload in workloads.WORKLOADS:
        for index in range(3):
            for job in workloads.deck(workload, 1, index):
                if job.kind == kind and job.params.get("base") != "parity2" \
                        and job.params.get("n", 0) < 300:
                    return job
    raise LookupError(kind)


def assert_rejected(job, answer, artifacts):
    with pytest.raises(checks.CheckFailed):
        checks.check(job, answer, artifacts, {})


def corrupt_answer(job, answer):
    """A deliberately wrong copy of a verified answer."""
    kind = job.kind
    answer = copy.deepcopy(answer)
    if kind in ("degthr", "degthr_named", "degthr_mp"):
        answer.primal = {a: -c for a, c in answer.primal.items()}
    elif kind == "iii":
        constant = (0,) * job.params["n"]
        answer.primal[constant] = answer.primal.get(constant, 0) + 1
    elif kind == "smooth":
        if answer.dual is None:
            answer.value += 1
        else:
            point = next(iter(answer.dual.entries))
            answer.dual.entries[point] += F(1, 7)
    elif kind == "disc":
        answer.distribution[0][0] += 1
    elif kind == "density":
        answer.coefficients = [-c for c in answer.coefficients]
    elif kind == "kp_lift":
        table, _ = answer
        del table.entries[next(iter(table.entries))]
    return answer


@pytest.mark.parametrize("kind", ["degthr", "degthr_named", "degthr_mp", "smooth", "iii",
                                  "disc", "density", "kp_lift"])
def test_checker_rejects_corrupted_answer(kind):
    job = first_job(kind)
    answer, artifacts = workloads.execute(job)
    ctx: dict = {}
    checks.check(job, answer, artifacts, ctx)
    assert_rejected(job, corrupt_answer(job, answer), artifacts)


def test_smooth_above_threshold_degree_is_rejected():
    ctx: dict = {}
    checks._record_degree(ctx, "t0", "degthr", 2)
    with pytest.raises(checks.CheckFailed):
        checks._record_degree(ctx, "t0", "smooth", 3)


def bump_table_entry(table: dict) -> None:
    point, value = table["entries"][0]
    table["entries"][0] = [point, str(F(value) + 1)]


# one corruption of a parsed artifact per witness kind: (artifact, edit)
ARTIFACT_EDITS = {
    "psi": ("psi.json", bump_table_entry),
    "zeta_cube": ("zeta.json", bump_table_entry),
    "or_gadget": ("lambda1.json", bump_table_entry),
    "mp_witness": ("Lambda1.json", lambda m: bump_table_entry(m["factors"]["l1"])),
    "mp_smooth": ("Lambda0.json", lambda m: m["terms"].pop()),
    "rs_smooth": ("Lambda.json", bump_table_entry),
    "weight_reduce": ("reduced.json", bump_table_entry),
    "build_g": ("g.json", lambda g: g["rows"][0].append(g["rows"][0][0])),
    "build_G": ("G.json", lambda G: G["g"]["rows"][0].append(G["g"]["rows"][0][0])),
    "booleanize": ("booleanized.json", bump_table_entry),
    "compose": ("composed.json",
                lambda t: t["entries"].append([[9] * len(t["domain"]["bounds"]), "1/1"])),
    "pattern": ("pattern.cert.json", lambda c: c["body"].update(norm_sq="7/3")),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACT_EDITS))
def test_checker_rejects_corrupted_artifact(kind):
    job = first_job(kind)
    answer, artifacts = workloads.execute(job)
    checks.check(job, answer, artifacts, {})
    name, edit = ARTIFACT_EDITS[kind]
    data = json.loads(artifacts[name])
    edit(data)
    assert_rejected(job, answer, {**artifacts, name: json.dumps(data)})


def test_checker_rejects_altered_artifact_byte():
    job = first_job("psi")
    answer, artifacts = workloads.execute(job)
    text = artifacts["psi.json"]
    at = text.index('"', text.index('"entries"') + len('"entries"')) + 1  # psi(0)'s numerator
    for byte in ("2" if text[at] != "2" else "3", "x"):
        altered = {**artifacts, "psi.json": text[:at] + byte + text[at + 1:]}
        assert_rejected(job, answer, altered)


def test_corrupted_outputs_raise_fail_ratio(monkeypatch):
    clean = run.run_pass("witness-build", 1, decks=1)
    assert clean.latencies and not clean.errors
    original = workloads.RUNNERS["zeta_cube"]

    def corrupted(params):
        answer, artifacts = original(params)
        data = json.loads(artifacts["zeta.json"])
        bump_table_entry(data)
        return answer, {**artifacts, "zeta.json": json.dumps(data)}

    monkeypatch.setitem(workloads.RUNNERS, "zeta_cube", corrupted)
    bad = run.run_pass("witness-build", 1, decks=1)
    zetas = sum(1 for job in workloads.deck("witness-build", 1, 0) if job.kind == "zeta_cube")
    assert len(bad.errors) == zetas > 0


def test_nondeterministic_output_is_a_failure(monkeypatch):
    result = run.run_pass("witness-build", 1, decks=1)
    assert not result.errors
    original = workloads.execute
    calls = iter(range(1000))

    def drifting(job):
        answer, artifacts = original(job)
        return answer, {**(artifacts or {}), "call": str(next(calls))}

    monkeypatch.setattr(workloads, "execute", drifting)
    run.recheck("witness-build", 1, result)
    assert result.errors
