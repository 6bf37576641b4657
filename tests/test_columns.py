"""Trajectories and sweep tables written from the kernel's arrays.

The payloads must be the bytes a per-value ``f"{x:.17g}"`` formatting of
`verify_batch`'s results gives; the `Trajectory` sequence must behave as the
list of records it replaced; the kernel must not re-check stacks that a
boundary check has just passed.
"""

import dataclasses
import json
from collections.abc import Sequence

import numpy as np
import pytest

import qbattery.cli as cli
import qbattery.dynamics as dynamics
import qbattery.operators as operators
from qbattery.cli import TRIAL_COLUMNS, build_parser, main
from qbattery.dynamics import (
    TRAJECTORY_COLUMNS,
    HamiltonianSpec,
    Trajectory,
    TrajectoryRecord,
    builtin_exchange_scenario,
    exchange_interaction,
    ground_excited_state,
    parse_scenario,
    trajectory_report,
    trajectory_rows,
)
from qbattery.ensembles import SeedSpec, _draw_batch_eig, draw_batch, ginibre_mixed, gue_hermitian
from qbattery.moments import REPORT_FIELDS, batch_rows, verify_batch
from qbattery.operators import (
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    RowErrors,
    TensorStructure,
    density_stack,
    eig_decompose,
    to_matrix_literal,
)

SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                  0.1, 1.0 / 3.0, -2.5, 123456789.123456789, 1e-300, 7.0, float("inf")]


def g17(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------- evolve payloads

def random_scenario(dims, steps):
    s = TensorStructure.from_dims(dims)
    return {
        "structure": dims,
        "h0": to_matrix_literal(gue_hermitian(s.dim, 1.0, SeedSpec(31, 0))),
        "v": to_matrix_literal(gue_hermitian(s.dim, 1.0, SeedSpec(31, 1))),
        "f": to_matrix_literal(gue_hermitian(s.d_w, 1.0, SeedSpec(31, 2))),
        "rho0": to_matrix_literal(ginibre_mixed(s.dim, 3, SeedSpec(31, 3))),
        "grid": {"t0": 0.0, "t1": 2.0, "steps": steps},
    }


# the report columns of TRAJECTORY_COLUMNS, between t and mean_F
TABLE_REPORT_FIELDS = ("power", "power_sq", "corrected_bound", "loose_bound", "slack",
                       "saturation_ratio")


def reference_rows(doc) -> list[list[str]]:
    """The evolve table, value by value: states in batch_rows(D) chunks through verify_batch."""
    rho0, h, f, grid = parse_scenario(doc)
    s = h.structure
    dec = eig_decompose(h.total())
    times = [float(t) for t in grid]
    values = []
    size = batch_rows(s.dim)
    for start in range(0, len(times), size):
        block = np.array(times[start : start + size])
        n = len(block)
        rows = RowErrors(n)
        states, _, eig = density_stack(rows, dynamics._evolved(dec, rho0.mat, block))
        batch = verify_batch(states, np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                             np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s, rho_eig=eig)
        assert rows == batch.errors == [None] * n
        for i in range(n):
            values.append([float(getattr(batch, k)[i]) for k in TABLE_REPORT_FIELDS]
                          + [float(batch.moments.mean_f[i]), float(batch.moments.purity_w[i])])
    mean_f = [row[-2] for row in values]
    out = []
    for i, (t, row) in enumerate(zip(times, values)):
        if 0 < i < len(times) - 1:
            fd = g17((mean_f[i + 1] - mean_f[i - 1]) / (times[i + 1] - times[i - 1]))
        else:
            fd = ""
        out.append([g17(t)] + [g17(x) for x in row] + [fd])
    return out


@pytest.mark.parametrize("doc", [
    builtin_exchange_scenario(),
    random_scenario([2, 2, 2, 1], 600),  # three kernel chunks at D = 8
], ids=["exchange", "random-D8"])
def test_evolve_payloads_match_per_value_formatting(tmp_path, doc):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    rows = reference_rows(doc)

    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
    want_csv = "\n".join([",".join(TRAJECTORY_COLUMNS)] + [",".join(r) for r in rows]) + "\n"
    assert (tmp_path / "t.csv").read_bytes() == want_csv.encode()

    assert main(["evolve", "--config", str(cfg), "--format", "json",
                 "--out", str(tmp_path / "t.json")]) == 0
    docs = [dict(zip(TRAJECTORY_COLUMNS, (float(v) if v else None for v in r))) for r in rows]
    want_json = json.dumps(docs, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_bytes() == want_json.encode()


def test_row_formats_match_per_value_formatting():
    vals = SPECIAL_VALUES[: len(TRAJECTORY_COLUMNS)]
    assert dynamics._ROW % tuple(vals) == ",".join(g17(x) for x in vals)
    assert dynamics._ENDPOINT_ROW % tuple(vals[:-1]) == ",".join(g17(x) for x in vals[:-1]) + ","
    # the verify CSV writes each value through cli._g17
    assert [cli._g17(x) for x in SPECIAL_VALUES] == [g17(x) for x in SPECIAL_VALUES]


# ---------------------------------------------------------------- verify payload

def test_verify_csv_matches_per_value_formatting(tmp_path):
    dims, trials, seed = "2,2,1,1", 1500, 5  # two chunks at D = 4
    out = tmp_path / "sweep.json"
    assert main(["verify", "--dims", dims, "--trials", str(trials), "--seed", str(seed),
                 "--format", "csv", "--out", str(out)]) == 0
    s = TensorStructure.from_dims([int(d) for d in dims.split(",")])
    lines = [",".join(TRIAL_COLUMNS)]
    for chunk in cli._trial_chunks(trials, s.dim):
        rho, f, v, kinds, eig = _draw_batch_eig(s, "mix", seed, chunk, None, 1.0)
        batch = verify_batch(rho, f, v, s, rho_eig=eig)
        m = batch.moments
        columns = {k: getattr(batch, k) for k in REPORT_FIELDS}
        columns.update(mean_f=m.mean_f, mean_v=m.mean_v, var_f=m.var_f, var_v=m.var_v,
                       cov_re=m.cov.real, cov_im=m.cov.imag)
        for j, trial in enumerate(chunk):
            assert batch.errors[j] is None
            lines.append(",".join([str(trial), kinds[j]]
                                  + [g17(float(columns[k][j])) for k in TRIAL_COLUMNS[2:]]))
    want = "\n".join(lines) + "\n"
    assert (tmp_path / "sweep.json.trials.csv").read_bytes() == want.encode()


# ---------------------------------------------------------------- the Trajectory sequence

def exchange_trajectory(points=9):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
                        v=exchange_interaction(1.0, s), structure=s)
    f = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    return ground_excited_state(s), h, f, np.linspace(0.0, 1.0, points)


def test_trajectory_is_a_read_only_sequence_of_records():
    traj = trajectory_report(*exchange_trajectory(9))
    assert isinstance(traj, Trajectory) and isinstance(traj, Sequence)
    assert len(traj) == 9
    records = list(traj)
    assert len(records) == 9 and all(isinstance(r, TrajectoryRecord) for r in records)
    assert traj[-1] == traj[8] == records[-1]
    assert traj[-9] == traj[0]
    assert traj[1:-1] == records[1:-1] and len(traj[1:-1]) == 7
    assert traj[::-3] == records[::-3]
    assert traj[0].dfdt_fd is None and traj[-1].dfdt_fd is None
    assert traj[4].dfdt_fd == float(traj.dfdt_fd[3])
    for i, rec in enumerate(traj):
        assert rec.t == float(traj.t[i])
        assert rec.report.power == float(traj.report.power[i])
        assert rec.mean_f == float(traj.mean_f[i])
        assert rec.battery_purity == float(traj.battery_purity[i])
        assert rec.power_tracks_dfdt is True

    # equality is a list's: record by record, against a list or another trajectory
    assert traj == records and records == traj
    assert traj == trajectory_report(*exchange_trajectory(9))
    assert traj != records[:-1] and traj != trajectory_report(*exchange_trajectory(8))
    assert traj != tuple(records)
    with pytest.raises(TypeError):
        hash(traj)

    with pytest.raises(IndexError):
        traj[9]
    with pytest.raises(IndexError):
        traj[-10]
    with pytest.raises(TypeError):
        traj[1.0]
    with pytest.raises(TypeError):
        traj[0] = records[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.t = traj.t[::-1]
    for column in (traj.t, traj.dfdt_fd, traj.mean_f, traj.battery_purity,
                   *(getattr(traj.report, k) for k in REPORT_FIELDS)):
        with pytest.raises(ValueError):
            column[0] = 1.0


def test_trajectory_rows_read_the_columns():
    traj = trajectory_report(*exchange_trajectory(7))
    rows = trajectory_rows(traj)
    assert iter(rows) is rows  # a generator, as the benchmark's tracer drains it
    for i, row in enumerate(rows):
        rec = traj[i]
        fd = "" if rec.dfdt_fd is None else g17(rec.dfdt_fd)
        assert row == [g17(x) for x in (rec.t, rec.report.power, rec.report.power_sq,
                                         rec.report.corrected_bound, rec.report.loose_bound,
                                         rec.report.slack, rec.report.saturation_ratio,
                                         rec.mean_f, rec.battery_purity)] + [fd]


def test_record_purity_check_raises():
    rec = trajectory_report(*exchange_trajectory(5))[2]
    with pytest.raises(RejectedInputError, match="battery purity 1.5 above 1"):
        dataclasses.replace(rec, battery_purity=1.5)
    dataclasses.replace(rec, battery_purity=1.0 + 1e-10)  # inside the 1e-9 window


def with_purity(monkeypatch, purity_at, kernel_error_at=None):
    """Patch the trajectory's kernel call to report `purity_at` = {point: purity}."""
    real = dynamics._verify_checked

    def patched(rho, f, v, s, rho_eig=None):
        batch = real(rho, f, v, s, rho_eig=rho_eig)
        purity = batch.moments.purity_w.copy()
        for i, p in purity_at.items():
            purity[i] = p
        errors = RowErrors(len(purity))
        errors[:] = batch.errors
        if kernel_error_at is not None:
            errors[kernel_error_at] = NumericalIntegrityError("kernel check failed")
        return batch._replace(moments=batch.moments._replace(purity_w=purity, errors=errors))

    monkeypatch.setattr(dynamics, "_verify_checked", patched)


def test_trajectory_purity_check_raises(monkeypatch):
    with_purity(monkeypatch, {5: 1.0 + 1e-6, 3: 1.25})
    # the earliest point above 1 + 1e-9 raises, as building the records in order would
    with pytest.raises(RejectedInputError, match=r"battery purity 1\.25 above 1"):
        trajectory_report(*exchange_trajectory(9))


def test_trajectory_purity_within_window_passes(monkeypatch):
    with_purity(monkeypatch, {5: 1.0 + 1e-10})
    traj = trajectory_report(*exchange_trajectory(9))
    assert traj[5].battery_purity == 1.0 + 1e-10


def test_kernel_errors_outrank_the_purity_check(monkeypatch):
    with_purity(monkeypatch, {2: 1.5}, kernel_error_at=6)
    with pytest.raises(NumericalIntegrityError, match="kernel check failed"):
        trajectory_report(*exchange_trajectory(9))


# ---------------------------------------------------------------- Hermiticity re-checks

@pytest.fixture
def symmetrized_calls(monkeypatch):
    """Shapes of the stacks `operators._symmetrized` checks while the test runs."""
    calls = []
    real = operators._symmetrized

    def counted(rows, a, message):
        calls.append(a.shape)
        return real(rows, a, message)

    monkeypatch.setattr(operators, "_symmetrized", counted)
    return calls


def test_verify_chunk_checks_each_drawn_stack_once(tmp_path, symmetrized_calls):
    assert main(["verify", "--dims", "2,2,1,1", "--trials", "2500",
                 "--out", str(tmp_path / "o.json")]) == 0
    # per chunk: the draw's rho, F and V (3), then the kernel's reduced states,
    # F^2, V^2, F (x) 1, dF, dV and sqrt(rho) (7); not rho, F and V again
    assert len(cli._trial_chunks(2500, 4)) == 3
    assert len(symmetrized_calls) == 3 * 10


def test_trajectory_chunk_checks_each_state_once(symmetrized_calls):
    rho0, h, f, _ = exchange_trajectory()
    for points, chunks in ((1001, 1), (2100, 3)):
        symmetrized_calls.clear()
        trajectory_report(rho0, h, f, np.linspace(0.0, 3.0, points))
        # F (x) 1 and H0 + V once; per chunk the propagated states (1) and the kernel's 7
        assert len(symmetrized_calls) == 2 + 8 * chunks


def test_public_verify_batch_still_checks_its_inputs(symmetrized_calls):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, _ = draw_batch(s, "mix", 1, range(3))
    symmetrized_calls.clear()
    assert verify_batch(rho, f, v, s).errors == [None] * 3
    assert len(symmetrized_calls) == 3 + 7
    v = v.copy()
    v[1, 0, 1] += 1e-6
    errors = verify_batch(rho, f, v, s).errors
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], RejectedInputError) and "not Hermitian" in str(errors[1])


# the kernel's checks after the state's, at D = 4 and d_w = 2: reduced states,
# F^2, V^2, F, dF, dV and sqrt(rho); F (x) 1 and its shift are checked as F and
# F - <F>, which have the residuals of their lifts
KERNEL_CHECK_SHAPES = [(2, 2), (2, 2), (4, 4), (2, 2), (2, 2), (4, 4), (4, 4)]


def test_verify_chunk_checks_f_at_battery_size(tmp_path, symmetrized_calls):
    assert main(["verify", "--dims", "2,2,1,1", "--trials", "1100",
                 "--out", str(tmp_path / "o.json")]) == 0
    want = []
    for n in (1024, 76):  # two chunks; each draw checks its rho, F and V
        want += [(n, *shape) for shape in [(4, 4), (2, 2), (4, 4)] + KERNEL_CHECK_SHAPES]
    assert symmetrized_calls == want


def test_trajectory_chunk_checks_f_at_battery_size(symmetrized_calls):
    rho0, h, f, _ = exchange_trajectory()
    symmetrized_calls.clear()
    trajectory_report(rho0, h, f, np.linspace(0.0, 3.0, 1100))
    # F (x) 1 for the commutation gate and H0 + V, once; then per chunk the states
    want = [(1, 4, 4), (1, 4, 4)]
    for n in (1024, 76):
        want += [(n, *shape) for shape in [(4, 4)] + KERNEL_CHECK_SHAPES]
    assert symmetrized_calls == want


# ---------------------------------------------------------------- the cached parser

PARSE_SEQUENCE = [
    ["verify", "--dims", "2,2,1,1", "--trials", "10", "--format", "csv", "--out", "a.json"],
    ["evolve", "--config", "exchange", "--out", "t.csv"],
    ["demo", "--case", "eigenstate", "--seed", "3"],
    ["search", "--mode", "saturation", "--dims", "2,1,1,1", "--budget", "50", "--out", "s.json"],
    ["verify", "--dims", "2,1,1,1", "--out", "b.json"],
    ["evolve", "--config", "x.json", "--format", "json", "--threads", "2", "--out", "t.json"],
    ["demo", "--case", "real-cov"],
]


def test_parser_is_built_once_and_parses_like_a_fresh_one(capsys):
    assert build_parser() is build_parser()
    cached = build_parser()
    for argv in PARSE_SEQUENCE * 2:
        assert cached.parse_args(argv) == build_parser.__wrapped__().parse_args(argv)
    assert main(["verify", "--help"]) == 0
    assert main(["verify", "--dims", "2,1,1,1", "--bogus", "--out", "x.json"]) == 2
    assert main(["evolve", "--config", "exchange", "--format", "xml", "--out", "x"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
    for argv in PARSE_SEQUENCE:
        assert cached.parse_args(argv) == build_parser.__wrapped__().parse_args(argv)


def test_main_runs_the_subcommand_function_it_finds_at_call_time(monkeypatch):
    build_parser()
    monkeypatch.setattr(cli, "cmd_demo", lambda args: 7 if args.case == "saturating" else 8)
    assert main(["demo", "--case", "saturating"]) == 7


def test_demo_help_documents_seed(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    assert main(["demo", "--help"]) == 0
    assert "only the eigenstate case draws" in capsys.readouterr().out
