"""Tests of the benchmark itself: its metric list, its output checks, its exact counts.

Run from the root of the repository with `python -m pytest bench`.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import CheckFailed
from workloads import cycle

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _rewrite_csv(path: Path, column: str, change):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row[column] = repr(change(float(row[column])))
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _tamper_verify(out: Path):
    _rewrite_csv(Path(str(out) + ".trials.csv"), "power", lambda p: p * (1.0 + 1e-6) + 1e-9)


def _tamper_trajectory(out: Path):
    _rewrite_csv(out, "power", lambda p: p + 1e-6)


def _tamper_search(out: Path):
    doc = json.loads(out.read_text())
    dim = doc["v"]["dim"]
    doc["v"]["re"] = [[float(i == j) for j in range(dim)] for i in range(dim)]
    doc["v"]["im"] = [[0.0] * dim for _ in range(dim)]
    out.write_text(json.dumps(doc))


@pytest.mark.parametrize("workload, op_index, tamper", [
    ("sweep-small", 1, _tamper_verify),
    ("trajectory", 0, _tamper_trajectory),
    ("search", 0, _tamper_search),
    ("search", 1, _tamper_search),
])
def test_tampered_payload_fails_its_check(tmp_path, workload, op_index, tamper):
    runner = run.Runner(workload, 7, tmp_path)
    op = cycle(workload, 7, 0)[op_index]
    _, items, facts = runner.run_op(op)
    assert (items, runner.failed) == (op.items, 0)
    tamper(runner.out)
    with pytest.raises(CheckFailed):
        runner._check(op)


def test_tampered_output_raises_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(run.cli, "_g17", lambda x: "%.17g" % (x * (1.0 + 1e-6) + 1e-9))
    runner = run.Runner("sweep-small", 7, tmp_path)
    phase = runner.measure(0.1)
    assert runner.attempted == len(cycle("sweep-small", 7, 0))
    assert runner.failed == runner.attempted
    assert [items for items, _, _ in phase.cycles] == [0]


def _payload_bytes(out: Path) -> list:
    return [p.read_bytes() for p in (out, Path(str(out) + ".trials.csv")) if p.exists()]


@pytest.mark.parametrize("workload, op_index", [
    ("sweep-small", 4), ("sweep-wide", 0), ("trajectory", 0), ("search", 1),
])
def test_tracing_leaves_payload_bytes_unchanged(tmp_path, workload, op_index):
    op = cycle(workload, 3, 0)[op_index]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = run.Runner(workload, 3, tmp_path / "plain")
    traced = run.Runner(workload, 3, tmp_path / "traced")
    plain.run_op(op)
    tracer = run.Tracer()
    tracer.install()
    try:
        traced.run_op(op, tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0
    assert tracer.spans
    assert _payload_bytes(plain.out) == _payload_bytes(traced.out)


def _traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["sweep-small", "search"])
def test_two_traced_runs_give_identical_counts(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    if workload == "sweep-small":
        assert first["moments.verify_instance.eigh_calls"] > 0
        assert first["cli.verify.compute_moments_calls_per_trial"] > 0
    else:
        assert first["search.evaluations.zero-power"] > 0
        assert first["search.evaluations.saturation"] > 0
