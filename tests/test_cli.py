import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import cli, dynamics, ensembles, moments
from qbattery.cli import TRIAL_COLUMNS, build_parser, main
from qbattery.dynamics import TRAJECTORY_COLUMNS, builtin_exchange_scenario
from qbattery.ensembles import draw_instance
from qbattery.operators import RejectedInputError, TensorStructure, to_matrix_literal


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
    assert set(manifest) == {"subcommand", "config", "seed", "version", "input_digests",
                             "duration_seconds", "stage_seconds", "chunking", "resources"}
    assert manifest["subcommand"] == "verify"
    assert manifest["seed"] == 9
    assert manifest["config"]["trials"] == 5
    assert manifest["duration_seconds"] >= 0.0
    # the pool phase and the report after it, both inside the whole command's time;
    # the chunks' seconds drawing and in the kernel, on one thread inside the pool phase
    stages = manifest["stage_seconds"]
    assert set(stages) == {"chunks", "draw", "kernel", "report"}
    assert all(type(x) is float and x >= 0.0 for x in stages.values())
    assert stages["chunks"] + stages["report"] <= manifest["duration_seconds"]
    assert stages["draw"] + stages["kernel"] <= stages["chunks"]
    assert stages["draw"] > 0.0 and stages["kernel"] > 0.0
    # the rows per chunk at D = 2 and the number of chunks, which the payload never shows
    assert manifest["chunking"] == {"rows": 8192, "count": 1}
    # the command's minor page faults and the process's peak RSS, from getrusage
    resources = manifest["resources"]
    assert set(resources) == {"minor_page_faults", "peak_rss_mb"}
    assert type(resources["minor_page_faults"]) is int and resources["minor_page_faults"] >= 0
    assert type(resources["peak_rss_mb"]) is float and resources["peak_rss_mb"] > 0.0


_CHUNKED = {
    "verify-json-rank4": ("verify", "--dims", "2,2,4,4", "--ensemble", "ginibre", "--rank", "4",
                          "--trials", "20", "--format", "json"),
    "verify-json-haar64": ("verify", "--dims", "2,2,4,4", "--ensemble", "haar",
                           "--trials", "20", "--format", "json"),
    "verify-csv-gue-ops": ("verify", "--dims", "2,2,2,2", "--ensemble", "gue-ops",
                           "--trials", "300", "--format", "csv"),
    "evolve-csv": ("evolve", "--config", "exchange", "--format", "csv"),
}


@pytest.mark.parametrize("argv", _CHUNKED.values(), ids=_CHUNKED)
def test_chunk_size_never_changes_the_payload(tmp_path, monkeypatch, argv):
    # from one D = 64 trial per chunk (2**10 entries) to every trial in one chunk (2**18)
    payloads = []
    for entries in (moments.BATCH_ENTRIES, 2**10, 2**18):
        monkeypatch.setattr(moments, "BATCH_ENTRIES", entries)
        out = tmp_path / f"c{entries}.out"
        assert run(*argv, "--out", str(out)) == 0
        files = [out, Path(f"{out}.trials.csv")]
        payloads.append([p.read_bytes() for p in files if p.exists()])
    assert payloads[1] == payloads[0]
    assert payloads[2] == payloads[0]


_ROWS_PER_CHUNK = {
    # D = 64: 2**16 // (D (D + r)) trials, r the widest factor the ensemble draws
    "rank4-64": (("--dims", "2,2,4,4", "--ensemble", "ginibre", "--rank", "4"), 15),
    "haar-64": (("--dims", "2,2,4,4", "--ensemble", "haar"), 15),
    "gue-ops-rank4-64": (("--dims", "2,2,4,4", "--ensemble", "gue-ops", "--rank", "4"), 15),
    "ginibre-64": (("--dims", "2,2,4,4", "--ensemble", "ginibre"), 8),
    "gue-ops-64": (("--dims", "2,2,4,4", "--ensemble", "gue-ops"), 8),
    # full rank at D = 16 and D = 2 keeps the rows of chunks sized by D alone
    "gue-ops-16": (("--dims", "2,2,2,2", "--ensemble", "gue-ops"), 128),
    "haar-2": (("--dims", "2,1,1,1", "--ensemble", "haar"), 10922),
    "ginibre-2": (("--dims", "2,1,1,1", "--ensemble", "ginibre"), 8192),
}


@pytest.mark.parametrize("argv, rows", _ROWS_PER_CHUNK.values(), ids=_ROWS_PER_CHUNK)
def test_rows_per_chunk(tmp_path, argv, rows):
    # one trial more than a chunk holds is two chunks, as the manifest records
    out = tmp_path / "o.json"
    assert run("verify", *argv, "--trials", str(rows + 1), "--out", str(out)) == 0
    chunking = json.loads(Path(f"{out}.manifest.json").read_text())["chunking"]
    assert chunking == {"rows": rows, "count": 2}


def test_small_sweeps_and_the_exchange_trajectory_are_one_chunk(tmp_path, monkeypatch):
    # the benchmark's sweep-small commands, 100 gue-ops trials each, and the
    # exchange scenario's 1001 grid points, a ket at D = 4, each run one chunk
    for dims in ("2,1,1,1", "2,2,1,1", "2,2,2,1", "3,2,1,1", "2,2,2,2"):
        out = tmp_path / "o.json"
        assert run("verify", "--dims", dims, "--trials", "100", "--format", "csv", "--out", str(out)) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["chunking"]["count"] == 1, dims
    real, batches = dynamics._verify_checked, []
    monkeypatch.setattr(dynamics, "_verify_checked", lambda q, *args: batches.append(len(q)) or real(q, *args))
    assert run("evolve", "--config", "exchange", "--out", str(tmp_path / "t.csv")) == 0
    assert batches == [1001]


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
        # one trial past three rank-4 D = 64 batches spans four of them
        ("--dims", "2,2,4,4", "--ensemble", "ginibre", "--rank", "4",
         "--trials", str(3 * moments.batch_rows(64, 4) + 1)),
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


def test_verify_worst_case_is_least_slack_over_chunks(tmp_path):
    # 2500 trials at D = 4 span two chunks; each offers its own least-slack
    # trial, and the summary keeps the least (slack, trial) of them
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}.json"
        assert run("verify", "--dims", "2,2,1,1", "--trials", "2500", "--format", "csv",
                   "--threads", threads, "--out", str(out)) == 0
        rows = Path(f"{out}.trials.csv").read_text().splitlines()[1:]
        slack = TRIAL_COLUMNS.index("slack")
        want = min((float(r.split(",")[slack]), int(r.split(",")[0])) for r in rows)
        summary = json.loads(out.read_text())
        assert (summary["min_slack"], summary["worst_case"]["trial"]) == want


def plant_saturation_violation(monkeypatch):
    """A saturation-ratio check that allows only 0.3: it falsifies the claim on some rows."""
    *rest, (stage, residual, _, message) = moments._CHECKS
    assert "saturation ratio" in message
    monkeypatch.setattr(moments, "_CHECKS", (*rest, (stage, residual, lambda x: 0.3, message)))


def test_verify_reports_the_first_violation_from_its_chunk(tmp_path, monkeypatch):
    plant_saturation_violation(monkeypatch)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"v{threads}.json"
        assert run("verify", "--dims", "2,2,1,1", "--trials", "2500", "--format", "csv",
                   "--threads", threads, "--out", str(out)) == 1
        outputs.append((out.read_bytes(), Path(f"{out}.trials.csv").read_bytes()))
    assert outputs[1] == outputs[0]
    summary = json.loads(outputs[0][0])
    clean = [int(r.split(",")[0]) for r in outputs[0][1].decode().splitlines()[1:]]
    assert 0 < summary["violations"] == 2500 - len(clean)
    # every violation is counted, and the first one is reported
    worst = summary["worst_case"]
    first = min(set(range(2500)) - set(clean))
    assert worst["trial"] == first
    assert "saturation ratio" in worst["violation"]
    # its matrices are the rows its chunk drew, bit for bit those of draw_instance
    rho, f, v, kind = draw_instance(TensorStructure.from_dims([2, 2, 1, 1]), "mix", 42, first)
    assert worst["kind"] == kind
    assert worst["instance"] == {"rho": to_matrix_literal(rho), "f": to_matrix_literal(f),
                                 "v": to_matrix_literal(v)}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_reports_a_violation_at_trial_zero(tmp_path, monkeypatch, threads):
    # a "chain" row that fails row 0 of every kernel call: with --ensemble haar
    # each chunk is one kernel call, so the first row of every chunk fails, and
    # trial 0, a failure at index 0 of its chunk and of the command, is reported
    planted = ("chain", lambda x: (np.arange(len(x.power)) == 0) * 1.0, lambda x: 0.5,
               "planted failure of row 0")
    monkeypatch.setattr(moments, "_CHECKS", (*moments._CHECKS, planted))
    trials = 4000
    chunks = cli._trial_chunks(trials, 4, 1)
    assert len(chunks) == 2 and len(chunks[0]) == moments.batch_rows(4, 1)
    out = tmp_path / "z.json"
    assert run("verify", "--dims", "2,2,1,1", "--ensemble", "haar", "--trials", str(trials),
               "--threads", threads, "--out", str(out)) == 1
    summary = json.loads(out.read_text())
    assert summary["violations"] == len(chunks)
    worst = summary["worst_case"]
    assert (worst["trial"], worst["violation"]) == (0, "planted failure of row 0")
    rho, f, v, kind = draw_instance(TensorStructure.from_dims([2, 2, 1, 1]), "haar", 42, 0)
    assert worst["kind"] == kind
    assert worst["instance"] == {"rho": to_matrix_literal(rho), "f": to_matrix_literal(f),
                                 "v": to_matrix_literal(v)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reported_trial_is_the_candidate_of_the_chunk_that_holds_it(data):
    n = data.draw(st.integers(1, 24))
    failure = ValueError("failed")
    errors = data.draw(st.lists(st.sampled_from([None, None, None, failure]), min_size=n, max_size=n))
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.0, 1e-300, 2.0, math.inf, math.nan])
    slack = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    whole = cli._reported(errors, slack)
    # the rule itself: the first failure, else the first NaN, else the first least slack
    failed = [k for k, err in enumerate(errors) if err is not None]
    nans = np.flatnonzero(np.isnan(slack)).tolist()
    assert whole == (failed or nans or [min(range(n), key=lambda k: (slack[k], k))])[0]
    # the chunk that holds it picks it from its own rows
    a, b = next((a, b) for a, b in zip(bounds, bounds[1:]) if a <= whole < b)
    assert a + cli._reported(errors[a:b], slack[a:b]) == whole


def test_verify_rejects_trials_beyond_the_seeds_streams_before_chunking(tmp_path, capsys, monkeypatch):
    # trial t owns streams 4t .. 4t + 2, so trial 2**62 has no stream below
    # 2**64; chunking 2**62 + 1 trials first would list about 5.6e14 ranges
    def chunked(*args):
        raise AssertionError("the trials were chunked")

    monkeypatch.setattr(cli, "_trial_chunks", chunked)
    out = tmp_path / "streams.json"
    assert run("verify", "--dims", "2,1,1,1", "--trials", str(2**62 + 1), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --trials must be at most {2**62}, got {2**62 + 1}"]
    assert not out.exists()
    # the limit is the draws': the last trial it allows has its streams, the next has not
    assert ensembles.MAX_TRIALS == 2**62
    s = TensorStructure.from_dims([2, 1, 1, 1])
    ensembles.draw_batch(s, "haar", 2**64 - 1, [ensembles.MAX_TRIALS - 1])
    with pytest.raises(RejectedInputError, match="stream_index"):
        ensembles.draw_batch(s, "haar", 2**64 - 1, [ensembles.MAX_TRIALS])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_keeps_one_candidates_rows_per_thread(tmp_path, monkeypatch, threads):
    # copies of a candidate's drawn rows are kept per thread, not per chunk:
    # 36 full-rank trials at D = 64 are 5 chunks of 8 rows
    assert len(cli._trial_chunks(36, 64, 64)) == 5
    calls, real = [], cli._verify_chunk

    def chunk(*args):
        calls.append((args[4], real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "_verify_chunk", chunk)
    out = tmp_path / "held.json"
    assert run("verify", "--dims", "2,2,4,4", "--trials", "36", "--threads", threads,
               "--out", str(out)) == 0
    held = calls[0][0]
    assert len(calls) == 5 and all(h is held for h, _ in calls)
    assert 1 <= len(held) <= int(threads)
    # a chunk returns its kinds, errors, values and seconds, and no drawn rows
    for _, (kinds, errors, values, seconds) in calls:
        assert values.shape == (len(kinds), len(cli.TRIAL_COLUMNS) - 2) and len(seconds) == 2
    trial = json.loads(out.read_text())["worst_case"]["trial"]
    assert trial in [t for _, _, t, _ in held.values()]


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_draws_each_trials_streams_once(tmp_path, monkeypatch, threads, planted):
    # trial i owns streams 4i (its state), 4i + 1 (F) and 4i + 2 (V); the
    # reported trial is not drawn again, whether it is clean or failed
    if planted:
        plant_saturation_violation(monkeypatch)
    drawn = []
    real = ensembles._Streams.normals

    def counted(self, streams, shape, *out):
        drawn.extend(streams)
        return real(self, streams, shape, *out)

    monkeypatch.setattr(ensembles._Streams, "normals", counted)
    out = tmp_path / "o.json"
    trials = 2500  # two chunks at D = 4
    assert run("verify", "--dims", "2,2,1,1", "--trials", str(trials), "--threads", threads,
               "--out", str(out)) == (1 if planted else 0)
    assert (json.loads(out.read_text())["violations"] > 0) == planted
    assert sorted(drawn) == [4 * i + j for i in range(trials) for j in range(3)]


@pytest.mark.parametrize("planted", [False, True])
def test_verify_reports_the_least_offer_whatever_order_chunks_finish(tmp_path, monkeypatch, planted):
    # every chunk offers one trial to report, from its own thread; more threads
    # than cores and a short switch interval vary the order the offers arrive in
    if planted:
        plant_saturation_violation(monkeypatch)
    trials = 4000
    assert len(cli._trial_chunks(trials, 8, 8)) == 8
    outputs = set()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in ("1", "8", "8", "3"):
            out = tmp_path / f"o{threads}.json"
            assert run("verify", "--dims", "2,2,2,1", "--trials", str(trials), "--format", "csv",
                       "--threads", threads, "--out", str(out)) == (1 if planted else 0)
            outputs.add((out.read_bytes(), Path(f"{out}.trials.csv").read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs) == 1
    (summary, table), = outputs
    summary = json.loads(summary)
    assert (summary["violations"] > 0) == planted
    if not planted:
        slack = TRIAL_COLUMNS.index("slack")
        rows = [r.split(",") for r in table.decode().splitlines()[1:]]
        assert summary["worst_case"]["trial"] == min((float(r[slack]), int(r[0])) for r in rows)[1]


def literal(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


@pytest.mark.parametrize("dims", ["2,2,1,1", "2,2,4,4"])
@pytest.mark.parametrize("ensemble, rank", [("haar", None), ("ginibre", 4), ("gue-ops", None)])
def test_clean_worst_case_is_draw_instances_matrices(tmp_path, dims, ensemble, rank):
    # the writer forms the one D x D state of a verify command, as draw_instance
    # does: its literals are draw_instance's matrices bit for bit
    out = tmp_path / "w.json"
    extra = ["--rank", str(rank)] if rank is not None else []
    assert run("verify", "--dims", dims, "--trials", "9", "--ensemble", ensemble, *extra,
               "--seed", "5", "--out", str(out)) == 0
    worst = json.loads(out.read_text())["worst_case"]
    s = TensorStructure.from_dims([int(d) for d in dims.split(",")])
    rho, f, v, kind = draw_instance(s, cli.ENSEMBLES[ensemble], 5, worst["trial"], rank)
    assert worst["kind"] == kind
    for name, op in (("rho", rho), ("f", f), ("v", v)):
        assert np.array_equal(literal(worst[name]), op.mat), name
        assert literal(worst[name]).tobytes() == op.mat.tobytes(), name


class _FreshArrays(ensembles.Workspace):
    """A Workspace that hands out a new array for every request: draws without buffers."""

    def __call__(self, name, shape, dtype=float):
        return np.empty(shape, dtype)


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_verify_chunks_reuse_their_threads_buffers_bit_for_bit(tmp_path, monkeypatch, threads):
    # 36 gue-ops trials at D = 64 are five chunks, of 8 rows and then 4, each
    # with a haar and a ginibre stack live at once: more chunks than threads,
    # so each worker thread draws its chunks into one Workspace. Every drawn
    # row must be the one a draw without buffers gives, and so must the
    # payload and the CSV
    s = TensorStructure.from_dims([2, 2, 4, 4])
    argv = ["verify", "--dims", "2,2,4,4", "--trials", "36", "--format", "csv", "--threads", threads]
    assert len(cli._trial_chunks(36, s.dim, s.dim)) == 5
    real, drawn = cli.draw_batch, []

    def kept(*args, workspace):
        assert isinstance(workspace, ensembles.Workspace)
        groups, kinds = real(*args, workspace=workspace)
        (_, *haar), (_, *ginibre) = groups
        assert not any(np.shares_memory(a, b) for a in haar for b in ginibre)
        drawn.append((args[3], threading.get_ident(), [x.copy() for _, *stacks in groups for x in stacks],
                      [x.__array_interface__["data"][0] for _, *stacks in groups for x in stacks]))
        return groups, kinds

    monkeypatch.setattr(cli, "draw_batch", kept)
    out = tmp_path / "reused.json"
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # threads switch inside each other's draws and kernels
        assert run(*argv, "--out", str(out)) == 0
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == 5
    for trials, _, got, _ in drawn:
        groups, _ = ensembles.draw_batch(s, "mix", 42, trials)
        want = [x for _, *stacks in groups for x in stacks]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    # a thread's later chunks draw into the arrays of its first
    by_thread = {}
    for _, thread, _, addresses in drawn:
        by_thread.setdefault(thread, set()).add(tuple(addresses))
    assert all(len(seen) == 1 for seen in by_thread.values())

    monkeypatch.setattr(cli, "draw_batch", real)
    # each thread's Workspaces live for the process: the control run gets new
    # ones that hand out new arrays, not the ones earlier commands made
    monkeypatch.setattr(cli, "_WORKSPACES", threading.local())
    monkeypatch.setattr(cli, "Workspace", _FreshArrays)
    fresh = tmp_path / "fresh.json"
    assert run(*argv, "--out", str(fresh)) == 0
    for suffix in ("", ".trials.csv"):
        assert Path(f"{out}{suffix}").read_bytes() == Path(f"{fresh}{suffix}").read_bytes()


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_verify_writes_dv_into_its_threads_normals_bit_for_bit(tmp_path, monkeypatch, threads):
    # 36 gue-ops trials at D = 64 are five chunks, more than threads, each
    # with a haar and a ginibre stack live at once. Every kernel call writes
    # dV into its thread's normals array, apart from both kinds' Q, F and V;
    # the payload and CSV must be those of dV in a new array per call
    argv = ["verify", "--dims", "2,2,4,4", "--trials", "36", "--format", "csv", "--threads", threads]
    real_draw, real_kernel = cli.draw_batch, cli._verify_checked
    drawn, calls, lock = {}, [], threading.Lock()

    def draw(*args, workspace):
        groups, kinds = real_draw(*args, workspace=workspace)
        drawn[threading.get_ident()] = [x for _, *stacks in groups for x in stacks]
        return groups, kinds

    def kernel(q, f, v, s, dv):
        stacks = drawn[threading.get_ident()]
        normals = cli._WORKSPACES.workspace._flat["normals"]
        with lock:
            calls.append((np.shares_memory(dv, normals), any(np.shares_memory(dv, x) for x in stacks)))
        return real_kernel(q, f, v, s, dv)

    monkeypatch.setattr(cli, "draw_batch", draw)
    monkeypatch.setattr(cli, "_verify_checked", kernel)
    out = tmp_path / "normals.json"
    assert run(*argv, "--out", str(out)) == 0
    assert calls == [(True, False)] * 10  # five chunks of two kinds

    monkeypatch.setattr(cli, "draw_batch", real_draw)
    monkeypatch.setattr(cli, "_verify_checked", lambda q, f, v, s, dv: real_kernel(q, f, v, s))
    fresh = tmp_path / "fresh.json"
    assert run(*argv, "--out", str(fresh)) == 0
    for suffix in ("", ".trials.csv"):
        assert Path(f"{out}{suffix}").read_bytes() == Path(f"{fresh}{suffix}").read_bytes()


def test_verify_workspaces_carry_over_between_commands_of_other_dims(tmp_path, monkeypatch):
    # a thread's Workspace lives for the process, so one command's chunks draw
    # into arrays that an earlier command of another D shaped: D = 16 grows
    # the D = 64 haar factor stack (64 x 16 entries against 4 x 64) and D = 64
    # takes a prefix again. Each payload must be that of new arrays
    commands = [("2,2,4,4", "36"), ("2,2,2,2", "300"), ("2,2,4,4", "36")]
    assert [len(cli._trial_chunks(n, dim, dim)) for n, dim in ((36, 64), (300, 16))] == [5, 3]
    real, used = cli.draw_batch, []

    def recorded(*args, workspace):
        used.append((threading.get_ident(), workspace))
        return real(*args, workspace=workspace)

    def outputs(name):
        paths = []
        for i, (dims, trials) in enumerate(commands):
            out = tmp_path / f"{name}{i}.json"
            assert run("verify", "--dims", dims, "--trials", trials, "--format", "csv",
                       "--threads", "2", "--out", str(out)) == 0
            paths.append([Path(f"{out}{suffix}").read_bytes() for suffix in ("", ".trials.csv")])
        return paths

    monkeypatch.setattr(cli, "_WORKSPACES", threading.local())
    monkeypatch.setattr(cli, "draw_batch", recorded)
    kept = outputs("kept")
    by_thread = {}
    for thread, workspace in used:
        by_thread.setdefault(thread, set()).add(id(workspace))
    # the calling thread draws chunks of every command, all into one Workspace
    assert sum(thread == threading.get_ident() for thread, _ in used) >= len(commands)
    assert all(len(seen) == 1 for seen in by_thread.values()), by_thread

    monkeypatch.setattr(cli, "draw_batch", real)
    monkeypatch.setattr(cli, "_WORKSPACES", threading.local())
    monkeypatch.setattr(cli, "Workspace", _FreshArrays)
    assert kept == outputs("fresh")


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_map_ordered_raises_the_earliest_failure_once_no_item_runs(threads):
    # item 2 fails at once and item 1 later, while item 3 still runs: the
    # error is item 1's, raised after every item handed out has returned
    assert cli._map_ordered(lambda i: i * i, range(9), threads) == [i * i for i in range(9)]
    running, lock = set(), threading.Lock()

    def fn(i):
        with lock:
            running.add(i)
        try:
            time.sleep(0.05 if i in (1, 3) else 0.001)
            if i in (1, 2):
                raise ValueError(i)
            return i
        finally:
            with lock:
                running.discard(i)

    with pytest.raises(ValueError) as raised:
        cli._map_ordered(fn, range(12), threads)
    assert raised.value.args == (1,)
    assert not running


@pytest.mark.skipif(sys.platform != "linux", reason="forks the test process")
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_threaded_verify_runs_in_a_forked_child(tmp_path):
    # the helper threads of a threaded verify are not copied into a forked
    # child, which must start its own: without that its next threaded
    # command waits forever on a dead helper, and the alarm ends it
    argv = ["verify", "--dims", "2,2,4,4", "--trials", "36", "--threads", "2"]
    want, got = tmp_path / "parent.json", tmp_path / "child.json"
    assert run(*argv, "--out", str(want)) == 0
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            signal.alarm(20)
            code = run(*argv, "--out", str(got))
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("trials, threads", [("8", "1"), ("16", "2")])
def test_verify_draws_a_threads_only_chunk_into_its_workspace(tmp_path, monkeypatch, trials, threads):
    # where no thread runs a second chunk, each still draws into its Workspace,
    # and the next command's chunks on that thread draw into the same one
    real, used = cli.draw_batch, []

    def recorded(*args, workspace):
        used.append((threading.get_ident(), workspace))
        return real(*args, workspace=workspace)

    monkeypatch.setattr(cli, "_WORKSPACES", threading.local())
    monkeypatch.setattr(cli, "draw_batch", recorded)
    for _ in range(2):
        assert run("verify", "--dims", "2,2,4,4", "--trials", trials, "--threads", threads,
                   "--out", str(tmp_path / "o.json")) == 0
    assert len(used) == 2 * int(threads)
    assert all(isinstance(workspace, ensembles.Workspace) for _, workspace in used)
    by_thread = {}
    for thread, workspace in used:
        by_thread.setdefault(thread, set()).add(id(workspace))
    assert all(len(seen) == 1 for seen in by_thread.values()), by_thread
    if threads == "1":  # both commands' one chunk, on the calling thread
        assert list(by_thread) == [threading.get_ident()]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor page faults on Linux")
def test_verify_page_faults_do_not_grow_with_the_chunk_count(tmp_path):
    # each thread's chunks, of this command and of earlier ones, reuse its
    # arrays, the kernel writes dV into the draw's normals array and the
    # payload is written in pieces of at most one matrix row, so 16 rank-4
    # D = 64 chunks of 15 rows fault in about as many pages as 2 do, and a
    # repeated command hardly any; drawing every chunk into new arrays cost
    # about 290 faults per chunk, and Workspaces kept for one command only
    # about 350 (1 thread) and 800 (2 threads) per 60-trial command
    def faults(trials, threads):
        out = tmp_path / "f.json"
        assert run("verify", "--dims", "2,2,4,4", "--ensemble", "ginibre", "--rank", "4",
                   "--threads", threads, "--trials", str(trials), "--out", str(out)) == 0
        return json.loads(Path(f"{out}.manifest.json").read_text())["resources"]["minor_page_faults"]

    assert [len(cli._trial_chunks(n, 64, 4)) for n in (16, 60, 240)] == [2, 4, 16]
    for threads in ("1", "2"):
        for trials in (16, 240, 60):  # first touches of this process's heap and Workspaces
            faults(trials, threads)
        few, many, repeated = (faults(trials, threads) for trials in (16, 240, 60))
        # twice the 2-chunk count, or twice 64 pages (256 KiB, a quarter of a
        # 15-row D = 64 V stack) where a warm heap leaves that count near 0
        assert many <= 2 * max(few, 64), (threads, few, many)
        assert repeated <= 64, (threads, repeated)


@pytest.mark.parametrize("argv", [
    ("verify", "--dims", "2,2,1", "--out", "x.json"),
    ("verify", "--dims", "a,b,c,d", "--out", "x.json"),
    ("verify", "--dims", "2,1,1,1", "--trials", "-5", "--out", "x.json"),
    ("verify", "--dims", "2,2,1,1", "--rank", "99", "--out", "x.json"),
    ("verify", "--dims", "2,1,1,1", "--ensemble", "bogus", "--out", "x.json"),
    # the seed is checked before any draw, so with no trials too
    ("verify", "--dims", "2,1,1,1", "--trials", "0", "--seed", "-1", "--out", "x.json"),
    ("verify", "--dims", "2,1,1,1", "--trials", "0", "--seed", "18446744073709551616", "--out", "x.json"),
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
    assert manifest["input_digests"] == {str(cfg): "sha256:" + hashlib.sha256(cfg.read_bytes()).hexdigest()}


@pytest.mark.parametrize("drive, tracks", [(None, True), (np.kron([[0, 1], [1, 0]], np.eye(2)), False)],
                         ids=["exchange", "battery-drive"])
def test_evolve_manifest_says_whether_power_tracks_dfdt(tmp_path, drive, tracks):
    # the exchange model's H0 commutes with F (x) 1, so P is d<F>/dt; a drive
    # on the battery does not; the flag is the manifest's, not the payload's
    doc = builtin_exchange_scenario(g=1.0, steps=10)
    if drive is not None:
        doc["h0"] = to_matrix_literal(drive)
    cfg, out = tmp_path / "scenario.json", tmp_path / "traj.json"
    cfg.write_text(json.dumps(doc))
    assert run("evolve", "--config", str(cfg), "--format", "json", "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "traj.json.manifest.json").read_text())
    assert manifest["power_tracks_dfdt"] is tracks
    assert "power_tracks_dfdt" not in out.read_text()


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


def test_evolve_non_finite_operator_is_bad_input(tmp_path, capsys):
    doc = builtin_exchange_scenario(steps=10)
    doc["f"]["re"][1][1] = float("nan")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(doc))  # writes the NaN literal, which json.loads reads back
    assert run("evolve", "--config", str(cfg), "--out", str(tmp_path / "nan.csv")) == 2
    assert "non-finite entry" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "2,2,1,1", "--threads", "0"],
    ["verify", "--dims", "2,2,1,1", "--trials", "5", "--threads", "-3"],
    ["evolve", "--config", "exchange", "--threads", "-1"],
    ["search", "--mode", "saturation", "--dims", "2,1,1,1", "--threads", "0"],
    ["demo", "--case", "real-cov", "--threads", "0"],
    ["verify", "--dims", "2,2,1,1", "--threads", "two"],
])
def test_threads_below_one_rejected(tmp_path, capsys, argv):
    out = tmp_path / "t.json"
    assert run(*argv, "--out", str(out)) == 2
    assert "argument --threads: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("case", ["eigenstate", "saturating", "real-cov"])
def test_demo_json_stdout_is_the_payload(tmp_path, capsys, case):
    out = tmp_path / "demo.json"
    assert run("demo", "--case", case, "--format", "json", "--out", str(out)) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_demo_writes_payload(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert run("demo", "--case", "real-cov", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "real-cov"
    assert (tmp_path / "demo.json.manifest.json").exists()


def test_demo_unknown_case():
    assert run("demo", "--case", "perpetual-motion") == 2


@pytest.mark.parametrize("case", ["eigenstate", "saturating", "real-cov"])
def test_demo_runs_the_kernel_once(monkeypatch, capsys, case):
    calls = []

    def counted(stage, *args):
        calls.append(stage)
        return one_instance(stage, *args)

    def not_called(*args):
        raise AssertionError("a second pass over the instance")

    one_instance = cli._one_instance
    monkeypatch.setattr(cli, "_one_instance", counted)
    monkeypatch.setattr(cli, "_verify_checked", not_called)
    monkeypatch.setattr(cli, "verify_instance", not_called)
    monkeypatch.setattr(cli, "compute_moments", not_called)
    assert run("demo", "--case", case) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert calls == [moments._chain_stage]


# ---------------------------------------------------------------- top level

def test_version_flag():
    assert run("--version") == 0


def test_no_subcommand():
    assert run() == 2


def test_unwritable_out(tmp_path):
    assert run("verify", "--dims", "2,1,1,1", "--trials", "1",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")) == 2


def test_input_too_large_for_memory_is_bad_input(tmp_path, capsys):
    # D = 64^4 asks numpy for a 4 PiB normals array, which fails at once
    out = tmp_path / "huge.json"
    assert run("verify", "--dims", "64,64,64,64", "--ensemble", "ginibre", "--trials", "1",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("verify", "--dims", "2,1,1,1", "--trials", "3", "--ensemble", "ginibre", "--rank", "1"),
    ("evolve", "--config", "exchange", "--format", "json", "--threads", "2"),
    ("search", "--mode", "saturation", "--dims", "2,1,1,1", "--budget", "40", "--restarts", "1"),
    ("demo", "--case", "real-cov", "--format", "json", "--threads", "3"),
], ids=lambda argv: argv[0])
def test_manifest_config_is_every_parsed_argument(tmp_path, argv):
    out = tmp_path / "payload"
    argv = [*argv, "--seed", "5", "--out", str(out)]
    assert run(*argv) in (0, 1)  # a search may stop short of its goal
    manifest = json.loads((tmp_path / "payload.manifest.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    expected = {k: v for k, v in parsed.items() if k not in ("command", "out", "seed")}
    if argv[0] == "evolve":
        expected["config"] = "builtin:exchange"
    assert manifest["config"] == expected
    assert (manifest["subcommand"], manifest["seed"]) == (argv[0], 5)
