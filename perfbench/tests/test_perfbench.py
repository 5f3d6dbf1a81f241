"""The benchmark's own tests, on tiny variants of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "transfer_n10": {"n": 4},
    "evolve_cli_n8": {"n": 4, "points": 9},
    "verify_n5": {"n": 3, "trials": 5, "combos": 5},
    "cascade_n10": {"n": 4},
}


@pytest.fixture(autouse=True)
def fewer_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)


def tiny_run(workload, trace=False, **extra):
    record = run.run_benchmark(workload, 3, 0, trace, **{**TINY[workload], **extra})
    return record, run.report(record)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_runner_completes_every_workload(workload, trace):
    record, result = tiny_run(workload, trace)
    assert result["correct"], record["errors"] + [r["failures"] for r in record["reps"]]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    assert all(m["unit"] == names[k] for k, m in result["metrics"].items())


def test_wrong_transfer_reference_counts_as_failed():
    record, result = tiny_run("transfer_n10", reference_offset=1e-6)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(record["reps"])


def test_wrong_expected_counts_count_as_failed(monkeypatch):
    honest = workloads.expected

    def off_by_one(name, p):
        out = honest(name, p)
        out["checks_run"] = [c + 1 for c in out["checks_run"]]
        return out

    monkeypatch.setattr(workloads, "expected", off_by_one)
    _, result = tiny_run("verify_n5")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_memory_preflight_refuses_without_running(monkeypatch):
    monkeypatch.setattr(workloads, "available_memory", lambda: 2**20)
    record, result = tiny_run("cascade_n10")
    assert record["reps"] == []
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"] and "refused" in record["errors"][0]


@pytest.mark.parametrize("workload", ["evolve_cli_n8", "cascade_n10"])
def test_span_self_times_are_non_negative_and_nest(workload):
    record, _ = tiny_run(workload, trace=True)
    traced = [r for r in record["reps"] if r["mode"] == "traced"]
    assert traced
    for rep in traced:
        tree = rep["spans"]
        assert tree
        for s, own in zip(tree, spans.self_times(tree)):
            assert s["start"] <= s["end"]
            assert own >= -1e-9
            if s["parent"] is not None:
                parent = tree[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_missing_binding_reports_zero_calls():
    tracer = spans.Tracer({"gone.layer": [("json", "no_such_function")]})
    tracer.install()
    tracer.uninstall()
    assert tracer.spans == []
    assert spans.layer_metrics(tracer.spans).get("gone.layer_calls", 0) == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "cascade_n10", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *command[1:], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
