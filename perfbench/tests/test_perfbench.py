"""Self-tests of the benchmark.  From the root of a checkout:

    python3 -m pytest perfbench/tests -q

The workloads are cut down to small cells here so the tests take seconds;
the cell lists are module constants, patched per test.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cells  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Cut every workload down to cells that run in well under a second."""
    monkeypatch.setattr(workloads, "VERIFY_CHECKS", (
        "system_solution_counts", "translation_clearing", "automorphism_membership",
        "dual_support_families", "file_round_trip"))
    monkeypatch.setattr(workloads, "VERIFY_CELLS", ("H2q2", "H3q2"))
    monkeypatch.setattr(workloads, "MINDIST_CELLS", ("H2q2", "H2q3", "A2q3"))
    monkeypatch.setattr(workloads, "DUAL_CELLS", ("H2q2", "H2q3"))
    monkeypatch.setattr(workloads, "GEN_CELLS", ("H3q2",))
    monkeypatch.setattr(workloads, "PERM_CELL", "H2q3")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A working directory whose src is the package under test, so the
    run's output files land in tmp_path."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def answers(workload, seed, workdir):
    ops = workloads.build_ops(workload, seed, NullTracer(), str(workdir))
    return [(r["op"], r["ok"], r["error"], r["answer"])
            for r in workloads.run_pass(ops, NullTracer())]


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_cell_reference_values():
    assert cells.parse("H2q3x") == ("hermitian", 2, 3, "exhaustive")
    assert cells.parse("A3q2") == ("affine", 3, 2, "exhaustive")
    assert cells.min_distance("H3q2") == 192
    assert cells.min_distance("H2q8") == 4096 - 512 - 8
    assert cells.min_distance("A2q3") == (9 - 1) * (9 - 3)
    assert cells.message_space("H2q3x") == 9**6 - 1
    assert cells.message_space("H3q2") == 2**20 - 1
    assert [cells.dual_distance(c) for c in ("H2q2", "H3q2", "H2q5")] == [4, 4, 3]


def test_wrong_expectation_fails_the_operation_and_the_run(small, checkout, monkeypatch,
                                                           capsys):
    real = cells.min_distance
    monkeypatch.setattr(cells, "min_distance", lambda cell: real(cell) + (cell == "H2q3"))
    code = run.main(["--workload", "mindist-walk", "--seed", "1", "--seconds", "0"])
    captured = capsys.readouterr()
    result = last_json(captured.out)
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert "FAIL cli.mindist.H2q3: Mismatch" in captured.err


def test_missing_or_raising_check_is_a_failed_operation(small, monkeypatch, tmp_path):
    def boom(seed):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads.verify, "checks_for",
                        lambda suite: [("translation_clearing", boom)])
    records = answers("verify-all", 1, tmp_path)
    assert [ok for _, ok, _, _ in records] == [False] * len(workloads.VERIFY_CHECKS)
    assert "RuntimeError: broken" in records[1][2]
    assert "no check named 'system_solution_counts'" in records[0][2]


def test_same_seed_gives_identical_answers(small, tmp_path):
    for workload in workloads.WORKLOADS:
        first = answers(workload, 7, tmp_path)
        assert all(ok for _, ok, _, _ in first), first
        assert answers(workload, 7, tmp_path) == first


def test_seed_changes_the_random_inputs(monkeypatch):
    assert workloads.duals_inputs(1) != workloads.duals_inputs(2)
    assert workloads.duals_inputs(1) == workloads.duals_inputs(1)
    seen = []
    monkeypatch.setattr(workloads.verify, "checks_for", lambda suite: [
        (name, lambda seed: seen.append(seed) or "ok") for name in workloads.VERIFY_CHECKS])
    for seed in (1, 2):
        workloads.run_pass(workloads.verify_ops(seed), NullTracer())
    n = len(workloads.VERIFY_CHECKS)
    assert seen == [1] * n + [2] * n


def test_traced_run_reports_every_per_layer_metric(small, checkout, capsys):
    code = run.main(["--workload", "duals-automorphisms", "--seed", "3", "--seconds", "0",
                     "--trace", "1"])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"]
    spec = workloads.per_layer_spec()
    assert list(result["metrics"]) == [name for name, _, _ in spec]
    assert result["metrics"]["verify.checks_failed"]["value"] == 0
    assert result["metrics"]["analysis.walk_searched_ratio.H2q3"]["value"] == 1
    assert result["metrics"]["codebuild.membership_calls"]["value"] == 16
    spans = json.loads((checkout / ".perfbench/spans/duals-automorphisms-seed3.json").read_text())
    assert spans["summary"]["linalg.rref"]["count"] >= 1
    assert not (checkout / ".perfbench/tmp").exists() or not any(
        (checkout / ".perfbench/tmp").iterdir())


def test_per_layer_spec_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == workloads.per_layer_spec()


def test_spans_self_time_and_patch_restore():
    tracer = Tracer("t")
    original = cells.length
    with tracer.patched([(cells, "length", "cells.length")]):
        with tracer.span("outer"):
            assert cells.length("H2q2") == 16
    assert cells.length is original
    outer, inner = tracer.records()
    assert inner["parent"] == outer["id"] and inner["name"] == "cells.length"
    assert outer["self_s"] == pytest.approx(outer["seconds"] - inner["seconds"])
    assert tracer.durations("cells.length", within="outer") == [inner["seconds"]]


def test_normalize_scales_by_kernel_speed_and_drops_kernel_time():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_S
    # one kernel run at nominal speed, one at half speed, both inside the interval
    sampler.runs = [(0.0, nominal), (0.05, 2 * nominal), (9.0, nominal)]
    assert sampler.normalize(0.0, 0.1) == pytest.approx((0.1 - 3 * nominal) * 0.75)
    assert sampler.normalize(0.11, 0.12) == pytest.approx((0.01) * 0.5)
    with pytest.raises(RuntimeError):
        sampler.normalize(5.0, 5.1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
