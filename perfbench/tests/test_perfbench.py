"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

Each workload runs one pass at its smallest size, and a corrupted recorded
answer (an LP digest, the reference optimum) must make a run fail, while a
solve that stops at its time limit is measured, not fatal.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def corrupted_reference(edit) -> dict:
    reference = json.loads(json.dumps(REFERENCE))
    edit(reference)
    return reference


def test_instances_are_the_acceptance_suite_instances():
    spec = importlib.util.spec_from_file_location("suite_conftest",
                                                  ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    for seed in range(20):
        assert workloads.small_random_instance(seed) == suite.small_random_instance(seed)


def _minimum(name: str):
    workload = workloads.make(name, ROOT, 0)
    if name == "differential-small":
        workload.instances = workload.instances[:1]
    elif name == "build-tsplib":
        workload.cells = workload.cells[:2]
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_gates_at_minimum_size(name):
    workload = _minimum(name)
    runner = workloads.Runner(ROOT, REFERENCE)
    workload.run_pass(runner)
    assert runner.failed == 0
    assert all(s.proven for s in runner.samples)
    assert any(s.kind == workload.op_kind for s in runner.samples)


def test_traced_pass_records_spans_and_restores_functions():
    from ppdsp import harness
    original = harness.solve
    workload = _minimum("differential-small")
    tracer = tracing.Tracer()
    runner = workloads.Runner(ROOT, REFERENCE, tracer)
    tracer.install()
    try:
        workload.run_pass(runner)
    finally:
        tracer.uninstall()
    assert harness.solve is original
    names = {s.name for s in tracer.spans}
    assert {"harness.solve", "harness.run_adapter", "mipir.emit_lp",
            "enc_request.decode", "bench.replay"} <= names
    solve_spans = [s for s in tracer.spans if s.name == "harness.solve"]
    for span in solve_spans:  # every child of a solve carries the solve's op id
        children = [s for s in tracer.spans if s.parent is not None
                    and tracer.spans[s.parent] is span]
        assert children and all(c.op == span.op for c in children)
    total, self_time = tracer.totals(tracer.spans)
    assert 0.0 < self_time["harness.solve"] < total["harness.solve"]


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("ppdsp.mipir", "no_such_function", "mipir.no_such"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ppdsp.mipir.no_such_function"]
    assert tracer.absent_layers() == ["mipir.no_such"]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 20) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)


def test_corrupted_lp_digest_fails_the_gate():
    def edit(reference):
        digests = reference["build-tsplib"]["lp_sha256"]["0"]
        digests["burma14-k1-m2-location"] = "0" * 64
    workload = _minimum("build-tsplib")
    with pytest.raises(workloads.GateFailure, match="digest"):
        workload.run_pass(workloads.Runner(ROOT, corrupted_reference(edit)))


def test_corrupted_reference_optimum_fails_the_gate():
    def edit(reference):
        reference["solve-tsplib"]["optimum"] *= 1 + 1e-5
    workload = workloads.make("solve-tsplib", ROOT, 0)
    with pytest.raises(workloads.GateFailure, match="recorded optimum"):
        workload.run_pass(workloads.Runner(ROOT, corrupted_reference(edit)))


def _outcome(status: str):
    from ppdsp import harness
    return harness.SolveOutcome(status=status, objective=None, solution=None,
                                wall_time_s=0.0)


@pytest.mark.parametrize("status, failed", [("TimeLimit", 0), ("Error", 2)])
def test_unanswered_solve_is_measured_not_fatal(monkeypatch, status, failed):
    monkeypatch.setattr(workloads.harness, "solve", lambda *a, **k: _outcome(status))
    runner = workloads.Runner(ROOT, REFERENCE)
    workloads.make("solve-tsplib", ROOT, 0).run_pass(runner)
    assert runner.failed == failed
    assert [s.proven for s in runner.samples] == [False, False]


def test_infeasible_declaration_fails_the_gate(monkeypatch):
    monkeypatch.setattr(workloads.harness, "solve",
                        lambda *a, **k: _outcome("Infeasible"))
    with pytest.raises(workloads.GateFailure, match="infeasible"):
        workloads.make("solve-tsplib", ROOT, 0).run_pass(
            workloads.Runner(ROOT, REFERENCE))


def test_cli_prints_declared_metrics():
    proc = bench("--workload", "build-tsplib", "--seed", "3", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 16
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cli_traced_run_prints_per_layer_metrics():
    proc = bench("--workload", "build-tsplib", "--seed", "0", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    census = REFERENCE["build-tsplib"]["census"].values()
    assert metrics["mipir.vars"]["value"] == sum(v for v, _ in census)
    assert metrics["mipir.rows"]["value"] == sum(r for _, r in census)
    assert metrics["harness.spawns"]["value"] == 0
    assert (ROOT / ".perfbench_out" / "trace-build-tsplib-seed0.json").is_file()


def test_fails_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "build-tsplib", "--seed", "0", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_commit_is_unknown_outside_a_git_work_tree(monkeypatch, tmp_path):
    assert len(run.git_commit()) in (40, len("unknown"))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() == "unknown"
