import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from qbattery.cli import TRIAL_COLUMNS, _LeastSlack, main
from qbattery.dynamics import TRAJECTORY_COLUMNS, builtin_exchange_scenario


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------- verify

def test_verify_summary_schema(tmp_path):
    out = tmp_path / "sweep.json"
    code = run("verify", "--dims", "2,2,1,1", "--trials", "50", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"trials", "violations", "max_power_sq", "min_slack",
                        "mean_saturation_ratio", "worst_case"}
    assert doc["trials"] == 50
    assert doc["violations"] == 0
    assert doc["min_slack"] >= -1e-9
    assert 0.0 <= doc["mean_saturation_ratio"] <= 1.0
    worst = doc["worst_case"]
    assert set(worst) == {"trial", "kind", "rho", "f", "v", "report"}
    assert worst["report"]["slack"] == doc["min_slack"]


def test_verify_trials_csv(tmp_path):
    out = tmp_path / "sweep.json"
    code = run("verify", "--dims", "2,1,1,1", "--trials", "20",
               "--format", "csv", "--out", str(out))
    assert code == 0
    lines = (tmp_path / "sweep.json.trials.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRIAL_COLUMNS)
    assert len(lines) == 21
    cols = lines[3].split(",")
    assert len(cols) == len(TRIAL_COLUMNS)
    power, power_sq = float(cols[2]), float(cols[3])
    assert power_sq == pytest.approx(power ** 2, rel=1e-12, abs=1e-300)


def test_verify_zero_trials(tmp_path):
    out = tmp_path / "none.json"
    assert run("verify", "--dims", "2,1,1,1", "--trials", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 0
    assert doc["worst_case"] is None
    assert doc["max_power_sq"] is None


def test_verify_manifest_sidecar(tmp_path):
    out = tmp_path / "m.json"
    run("verify", "--dims", "2,1,1,1", "--trials", "5", "--seed", "9", "--out", str(out))
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert set(manifest) == {"subcommand", "config", "seed", "version",
                             "input_digests", "duration_seconds"}
    assert manifest["subcommand"] == "verify"
    assert manifest["seed"] == 9
    assert manifest["config"]["trials"] == 5
    assert manifest["duration_seconds"] >= 0.0


@pytest.mark.parametrize("ensemble", ["haar", "ginibre", "gue-ops"])
def test_verify_ensembles(tmp_path, ensemble):
    out = tmp_path / f"{ensemble}.json"
    assert run("verify", "--dims", "2,2,1,1", "--trials", "10",
               "--ensemble", ensemble, "--out", str(out)) == 0


def test_verify_rank_restricted(tmp_path):
    out = tmp_path / "rank1.json"
    assert run("verify", "--dims", "2,2,1,1", "--trials", "10",
               "--ensemble", "ginibre", "--rank", "1", "--out", str(out)) == 0


def test_verify_thread_invariant_bytes(tmp_path):
    cases = [
        ("--dims", "2,2,1,1", "--trials", "40"),
        # D = 64 batches hold 4 trials, so 13 trials span four batches
        ("--dims", "2,2,4,4", "--ensemble", "ginibre", "--rank", "4", "--trials", "13"),
    ]
    for n, case in enumerate(cases):
        payloads = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"c{n}t{threads}.json"
            args = ["verify", *case, "--format", "csv", "--threads", threads, "--out", str(out)]
            assert run(*args) == 0
            payloads.append((out.read_bytes(), Path(f"{out}.trials.csv").read_bytes()))
        assert payloads[1] == payloads[0]
        assert payloads[2] == payloads[0]


def test_least_slack_case_survives_concurrent_offers():
    # Chunks offer their least-slack trial from worker threads. Here eight
    # threads offer interleaved cases, each better than the ones before it,
    # so every offer writes; a lost update would leave a case other than the
    # minimum of (slack, trial).
    cases = [{"trial": i, "report": {"slack": float(20000 - i)}} for i in range(20000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            least = _LeastSlack()

            def offer_every_eighth(k):
                for case in cases[k::8]:
                    least.offer(case)

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(offer_every_eighth, range(8), timeout=60))
            assert least.case is cases[-1]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("argv", [
    ("verify", "--dims", "2,2,1", "--out", "x.json"),
    ("verify", "--dims", "a,b,c,d", "--out", "x.json"),
    ("verify", "--dims", "2,1,1,1", "--trials", "-5", "--out", "x.json"),
    ("verify", "--dims", "2,2,1,1", "--rank", "99", "--out", "x.json"),
    ("verify", "--dims", "2,1,1,1", "--ensemble", "bogus", "--out", "x.json"),
    ("verify", "--dims", "2,1,1,1"),  # --out is required
])
def test_verify_bad_inputs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2


# ---------------------------------------------------------------- evolve

def test_evolve_builtin_csv(tmp_path):
    out = tmp_path / "traj.csv"
    assert run("evolve", "--config", "exchange", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 1002  # header + 1001 grid points
    # finite-difference column is empty at both endpoints, filled inside
    assert lines[1].endswith(",")
    assert lines[-1].endswith(",")
    assert not lines[2].endswith(",")


def test_evolve_ignores_seed_and_threads(tmp_path, capsys, monkeypatch):
    plain, other = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("evolve", "--config", "exchange", "--out", str(plain)) == 0
    assert run("evolve", "--config", "exchange", "--seed", "7", "--threads", "3",
               "--out", str(other)) == 0
    assert plain.read_bytes() == other.read_bytes()
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    assert run("evolve", "--help") == 0
    assert capsys.readouterr().out.count("accepted and ignored") == 2


def test_evolve_scenario_file_json(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(builtin_exchange_scenario(g=1.0, steps=10)))
    out = tmp_path / "traj.json"
    assert run("evolve", "--config", str(cfg), "--format", "json", "--out", str(out)) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 11
    assert set(docs[0]) == set(TRAJECTORY_COLUMNS)
    assert docs[0]["dFdt_fd"] is None and docs[-1]["dFdt_fd"] is None
    assert docs[5]["dFdt_fd"] is not None
    manifest = json.loads((tmp_path / "traj.json.manifest.json").read_text())
    assert str(cfg) in manifest["input_digests"]
    assert manifest["input_digests"][str(cfg)].startswith("sha256:")


def test_evolve_missing_file(tmp_path):
    assert run("evolve", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "t.csv")) == 2


def test_evolve_not_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run("evolve", "--config", str(bad), "--out", str(tmp_path / "t.csv")) == 2


def test_evolve_invalid_scenario(tmp_path):
    doc = builtin_exchange_scenario(steps=10)
    del doc["grid"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("evolve", "--config", str(bad), "--out", str(tmp_path / "t.csv")) == 2


# ---------------------------------------------------------------- search

def test_search_zero_power_cli(tmp_path):
    out = tmp_path / "zp.json"
    code = run("search", "--mode", "zero-power", "--dims", "2,1,1,1",
               "--min-var-f", "0.5", "--min-abs-cov", "0.5", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["succeeded"] is True
    assert abs(doc["report"]["power"]) <= 1e-8
    assert doc["moments"]["var_f"] >= 0.5


def test_search_infeasible_exits_one(tmp_path):
    out = tmp_path / "hopeless.json"
    code = run("search", "--mode", "zero-power", "--dims", "2,1,1,1",
               "--min-var-f", "2.0", "--max-abs-power", "0.0",
               "--budget", "400", "--restarts", "2", "--out", str(out))
    assert code == 1
    assert json.loads(out.read_text())["succeeded"] is False


def test_search_budget_zero_rejected(tmp_path):
    assert run("search", "--mode", "saturation", "--dims", "2,1,1,1",
               "--budget", "0", "--out", str(tmp_path / "x.json")) == 2


def test_search_help_says_threads_ignored(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    assert run("search", "--help") == 0
    assert "--threads THREADS     accepted and ignored" in capsys.readouterr().out


def test_demo_help_says_threads_ignored(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    assert run("demo", "--help") == 0
    assert "--threads THREADS     accepted and ignored" in capsys.readouterr().out


def test_search_thread_invariant_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["search", "--mode", "saturation", "--dims", "2,1,1,1",
            "--budget", "4000", "--restarts", "4", "--seed", "7"]
    assert run(*args, "--threads", "1", "--out", str(a)) == 0
    assert run(*args, "--threads", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- demo

@pytest.mark.parametrize("case", ["eigenstate", "saturating", "real-cov"])
def test_demo_cases_pass(capsys, case):
    assert run("demo", "--case", case) == 0
    text = capsys.readouterr().out
    assert "result: PASS" in text
    assert "FAIL" not in text


def test_demo_json_output(capsys):
    assert run("demo", "--case", "saturating", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert doc["report"]["saturation_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_demo_writes_payload(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert run("demo", "--case", "real-cov", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "real-cov"
    assert (tmp_path / "demo.json.manifest.json").exists()


def test_demo_unknown_case():
    assert run("demo", "--case", "perpetual-motion") == 2


# ---------------------------------------------------------------- top level

def test_version_flag():
    assert run("--version") == 0


def test_no_subcommand():
    assert run() == 2


def test_unwritable_out(tmp_path):
    assert run("verify", "--dims", "2,1,1,1", "--trials", "1",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")) == 2

