"""The benchmark's own tests: `python3 -m pytest perfbench/check_bench.py`.

They run every workload at tiny size, so they take well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("main-corpus", "stream-1e5", "exact-small", "patrol")
METRICS = json.loads((HERE / "metrics.json").read_text())


def _run(*args, python_flags=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *python_flags, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _tiny(workload, seed=3, trace=0):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0", "--tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    record, result = _tiny(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = METRICS["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    for key in ("python", "numpy", "nproc", "commit", "seed", "workload", "traced", "item_samples"):
        assert key in record


def test_benchmark_json_matches_metrics_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[kind]] == [
            (m["name"], m["unit"], m["better"]) for m in METRICS[kind]
        ]


def test_oracle_refusal_counts_but_does_not_fail():
    record, result = _tiny("exact-small")
    assert record["refused"] == ["opt-over-budget"]
    assert result["correct"] is True
    assert result["metrics"]["completed_ratio"]["value"] < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests(workload):
    a, _ = _tiny(workload, seed=7)
    b, _ = _tiny(workload, seed=7)
    c, _ = _tiny(workload, seed=8)
    assert (a["input_digest"], a["output_digest"]) == (b["input_digest"], b["output_digest"])
    assert a["input_digest"] != c["input_digest"]


def _swap_first_and_last(schedule_and_diag):
    sched, diag = schedule_and_diag
    pairs = list(sched.pairs)
    pairs[0], pairs[-1] = pairs[-1], pairs[0]
    return type(sched)(tuple(pairs), certified_disjoint=True), diag


def _retarget_one_cut(schedule_and_cert):
    sched, cert = schedule_and_cert
    period = list(sched.period)
    k = next(i for i, c in enumerate(period) if c == 1)
    period[k] = 2
    return type(sched)(sched.preamble, tuple(period), sched.n), cert


@pytest.mark.parametrize(
    "workload, function, corrupt",
    (
        ("main-corpus", "main_algorithm", _swap_first_and_last),
        ("exact-small", "eight_fifths", _retarget_one_cut),
    ),
)
def test_corrupted_schedule_is_caught(workload, function, corrupt, monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bgt
    import run

    original = getattr(bgt, function)
    monkeypatch.setattr(bgt, function, lambda *a, **k: corrupt(original(*a, **k)))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_reference_mismatch_fails_the_gate(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    from workloads import Pass

    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    recorded = Pass(None, False)
    recorded.out("schedule")
    recorded.opt = {"opt-1": "4/3"}
    assert run._gate("w", "1", [recorded], {"inputs"}, True) == ([], "matched")
    changed = Pass(None, False)
    changed.out("other schedule")
    changed.opt = {"opt-1": "3/2"}
    errors, status = run._gate("w", "1", [changed], {"inputs"}, False)
    assert status == "mismatch" and len(errors) == 2
    # a newly solved oracle item is not a mismatch; a refused one is no error
    solved = Pass(None, False)
    solved.out("schedule")
    solved.opt = {"opt-1": "4/3", "opt-2": "2"}
    assert run._gate("w", "1", [solved], {"inputs"}, False) == ([], "matched")
    refused = Pass(None, False)
    refused.out("schedule")
    assert run._gate("w", "1", [refused], {"inputs"}, False) == ([], "matched")


def test_refuses_python_O():
    proc = _run("--workload", "patrol", "--seed", "1", "--seconds", "0", "--tiny", python_flags=("-O",))
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "patrol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout
