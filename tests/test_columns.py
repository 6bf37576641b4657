"""Trajectories and sweep tables written from the kernel's arrays.

The payloads must be the bytes a per-value ``f"{x:.17g}"`` formatting of
the kernel's results gives; a `Trajectory` holds read-only columns; the
kernel must not re-check stacks that a boundary check has just passed.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbattery.cli as cli
import qbattery.dynamics as dynamics
import qbattery.ensembles as ensembles
import qbattery.moments as moments
import qbattery.operators as operators
import qbattery.search as search
from qbattery.cli import TRIAL_COLUMNS, build_parser, main
from qbattery.dynamics import (
    TRAJECTORY_COLUMNS,
    HamiltonianSpec,
    Trajectory,
    builtin_exchange_scenario,
    exchange_interaction,
    ground_excited_state,
    parse_scenario,
    trajectory_report,
    trajectory_rows,
)
from qbattery.ensembles import SeedSpec, draw_batch, ginibre_mixed, gue_hermitian
from qbattery.moments import (
    REPORT_FIELDS,
    _verify_checked,
    batch_rows,
    compute_moments,
    decomposition_terms,
    verify_instance,
)
from qbattery.operators import (
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    RowErrors,
    TensorStructure,
    _one_row,
    density_stack,
    eig_stack,
    hermitian_stack,
    to_matrix_literal,
)

from draws import drawn_states

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
    """The evolve table, value by value: the states' factors in batch_rows(D) chunks through the kernel."""
    rho0, h, f, grid = parse_scenario(doc)
    s = h.structure
    (w,), (u,) = _one_row(eig_stack, h.total().mat)
    times = [float(t) for t in grid]
    values = []
    size = batch_rows(s.dim)
    for start in range(0, len(times), size):
        block = np.array(times[start : start + size])
        n = len(block)
        factors = dynamics._evolved(w, u, rho0.factor, block)
        batch = moments._verify_checked(factors, np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                                        np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s)
        assert batch.errors == [None] * n
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
    random_scenario([2, 2, 2, 1], batch_rows(8) + 88),  # two kernel chunks at D = 8
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
    dims, trials, seed = "2,2,1,1", batch_rows(4) + 476, 5  # two chunks at D = 4
    out = tmp_path / "sweep.json"
    assert main(["verify", "--dims", dims, "--trials", str(trials), "--seed", str(seed),
                 "--format", "csv", "--out", str(out)]) == 0
    s = TensorStructure.from_dims([int(d) for d in dims.split(",")])
    lines = [",".join(TRIAL_COLUMNS)]
    for chunk in cli._trial_chunks(trials, s.dim):
        groups, kinds = draw_batch(s, "mix", seed, chunk)
        text = [None] * len(chunk)
        for rows, q, f, v in groups:  # each kind's rows in one kernel call
            batch = moments._verify_checked(q, f, v, s)
            m = batch.moments
            columns = {k: getattr(batch, k) for k in REPORT_FIELDS}
            columns.update(mean_f=m.mean_f, mean_v=m.mean_v, var_f=m.var_f, var_v=m.var_v,
                           cov_re=m.cov.real, cov_im=m.cov.imag)
            for j, k in enumerate(rows):
                assert batch.errors[j] is None
                text[k] = [g17(float(columns[name][j])) for name in TRIAL_COLUMNS[2:]]
        lines += [",".join([str(trial), kinds[k]] + text[k]) for k, trial in enumerate(chunk)]
    want = "\n".join(lines) + "\n"
    assert (tmp_path / "sweep.json.trials.csv").read_bytes() == want.encode()


# ---------------------------------------------------------------- the Trajectory columns

def exchange_trajectory(points=9):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
                        v=exchange_interaction(1.0, s), structure=s)
    f = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    return ground_excited_state(s), h, f, np.linspace(0.0, 1.0, points)


def test_trajectory_is_a_frozen_record_of_read_only_columns():
    traj = trajectory_report(*exchange_trajectory(9))
    assert isinstance(traj, Trajectory)
    assert len(traj.t) == 9 and len(traj.dfdt_fd) == 7
    assert traj.dfdt_fd[3] == (traj.mean_f[5] - traj.mean_f[3]) / (traj.t[5] - traj.t[3])
    assert traj.mean_f is traj.report.moments.mean_f
    assert traj.battery_purity is traj.report.moments.purity_w
    assert traj.power_tracks_dfdt is True

    # a record, not a sequence: no length, no indexing, equal only to itself
    with pytest.raises(TypeError):
        len(traj)
    with pytest.raises(TypeError):
        traj[0]
    assert traj == traj and traj != trajectory_report(*exchange_trajectory(9))
    hash(traj)

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
    r = traj.report
    for i, row in enumerate(rows):
        fd = g17(traj.dfdt_fd[i - 1]) if 0 < i < 6 else ""
        assert row == [g17(x[i]) for x in (traj.t, r.power, r.power_sq, r.corrected_bound,
                                           r.loose_bound, r.slack, r.saturation_ratio,
                                           traj.mean_f, traj.battery_purity)] + [fd]


def test_trajectory_raises_the_earliest_kernel_error(monkeypatch):
    real = dynamics._verify_checked

    def patched(rho, f, v, s):
        batch = real(rho, f, v, s)
        for i in (6, 3):
            batch.errors[i] = NumericalIntegrityError(f"kernel check failed at {i}")
        return batch

    monkeypatch.setattr(dynamics, "_verify_checked", patched)
    with pytest.raises(NumericalIntegrityError, match="kernel check failed at 3"):
        trajectory_report(*exchange_trajectory(9))


def test_trajectory_raises_the_earliest_kernel_error_across_chunks(monkeypatch):
    # every chunk is verified, then the earliest failing point raises: the
    # first chunk fails at its last point, the second at its first
    real = dynamics._verify_checked
    chunks = []

    def patched(q, f, v, s):
        batch = real(q, f, v, s)
        chunks.append(batch)
        batch.errors[0 if len(chunks) > 1 else -1] = NumericalIntegrityError(
            f"kernel check failed in chunk {len(chunks)}")
        return batch

    monkeypatch.setattr(dynamics, "_verify_checked", patched)
    with pytest.raises(NumericalIntegrityError, match="failed in chunk 1"):
        trajectory_report(*exchange_trajectory(batch_rows(4) + 20))
    assert len(chunks) == 2


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


@pytest.fixture
def gue_builds(monkeypatch):
    """Shapes of the F and V stacks `ensembles._gue_stack` builds while the test runs."""
    shapes = []
    real = ensembles._gue_stack

    def counted(rows, parts, scale, *out):
        a = real(rows, parts, scale, *out)
        shapes.append(a.shape)
        return a

    monkeypatch.setattr(ensembles, "_gue_stack", counted)
    return shapes


def test_verify_chunk_checks_each_drawn_stack_once(tmp_path, symmetrized_calls, gue_builds):
    trials = 2 * batch_rows(4) + 452  # three chunks at D = 4
    assert main(["verify", "--dims", "2,2,1,1", "--trials", str(trials),
                 "--out", str(tmp_path / "o.json")]) == 0
    # per chunk: F and V of the draw's pure and of its mixed rows (4), each
    # built exactly Hermitian and checked for finite entries where it is
    # built; the reported instance is its chunk's own draw, not drawn again.
    # Nothing runs HermitianOperator's check: the states are checked on
    # their factors, F and V hold by construction, and the kernel checks
    # nothing it forms: not F and V again, nor dF and dV
    assert len(cli._trial_chunks(trials, 4)) == 3
    assert len(gue_builds) == 3 * 4
    assert symmetrized_calls == []


def test_trajectory_chunk_checks_each_state_once(symmetrized_calls, monkeypatch):
    rho0, h, f, _ = exchange_trajectory()
    size = batch_rows(4)
    verified = []
    real = dynamics._verify_checked
    monkeypatch.setattr(dynamics, "_verify_checked", lambda q, *args: verified.append(q.shape) or real(q, *args))
    for points, chunks in ((size - 47, 1), (2 * size + 52, 3)):
        symmetrized_calls.clear()
        verified.clear()
        trajectory_report(rho0, h, f, np.linspace(0.0, 3.0, points))
        # F (x) 1 and H0 + V once; rho0 was checked where it was built, and
        # no chunk checks its evolved factors U(t) rho0.factor, nor the kernel what it forms
        assert len(symmetrized_calls) == 2
        assert len(verified) == chunks and sum(n for n, *_ in verified) == points


def test_public_verify_batch_still_checks_its_inputs(symmetrized_calls):
    # stacks of rho, F and V enter the kernel through DensityMatrix's and
    # HermitianOperator's checks, once each; the kernel checks nothing it forms
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, _ = drawn_states(s, "mix", 1, range(3))

    def checked(v):
        rows = RowErrors(3)
        q = density_stack(rows, rho)[1]
        f_s, v_s = hermitian_stack(rows, f), hermitian_stack(rows, v)
        return rows, _verify_checked(q, f_s, v_s, s).errors

    symmetrized_calls.clear()
    rows, errors = checked(v)
    assert list(rows) == [None] * 3 and errors == [None] * 3
    assert len(symmetrized_calls) == 3  # the inputs, and nothing the kernel forms
    v = v.copy()
    v[1, 0, 1] += 1e-6
    rows, errors = checked(v)
    assert rows[0] is None and rows[2] is None
    assert isinstance(rows[1], RejectedInputError) and "not Hermitian" in str(rows[1])
    assert errors[0] is None and errors[2] is None


def test_one_instance_stages_check_only_what_they_form(symmetrized_calls):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho = ginibre_mixed(4, 4, SeedSpec(5, 0))
    f, v = gue_hermitian(2, 1.0, SeedSpec(5, 1)), gue_hermitian(4, 1.0, SeedSpec(5, 2))
    symmetrized_calls.clear()
    _one_row(lambda rows, q, fs, vs: moments._chain_stage(rows, q, fs, vs, s), rho.factor, f.mat, v.mat)
    assert symmetrized_calls == []  # F (x) 1, dF and dV are not checked again
    # not rho, F, V, rho_W, dF or dV
    for stage in (compute_moments, decomposition_terms, verify_instance):
        stage(rho, f, v, s)
        assert symmetrized_calls == [], stage.__name__


def test_verify_chunk_checks_f_at_battery_size(tmp_path, symmetrized_calls, gue_builds):
    size = batch_rows(4)
    assert main(["verify", "--dims", "2,2,1,1", "--trials", str(size + 76),
                 "--out", str(tmp_path / "o.json")]) == 0
    want = []
    for n in (size, 76):  # two chunks; each draw builds F and V of its pure, then of its mixed rows
        want += [(n // 2, 2, 2), (n // 2, 4, 4)] * 2
    assert gue_builds == want  # and no one-row redraw of the reported instance
    # and the kernel checks nothing it forms: dF and dV are exactly
    # Hermitian shifts of exactly Hermitian inputs
    assert symmetrized_calls == []


def test_trajectory_chunk_checks_f_at_battery_size(symmetrized_calls):
    rho0, h, f, _ = exchange_trajectory()
    symmetrized_calls.clear()
    size = batch_rows(4)
    trajectory_report(rho0, h, f, np.linspace(0.0, 3.0, size + 76))
    # F (x) 1 for the commutation gate and H0 + V, once; then nothing per
    # chunk: the states are factors, and the kernel checks nothing it forms
    assert symmetrized_calls == [(1, 4, 4), (1, 4, 4)]


def exactly_hermitian_stacks(seed, dims, n, scale, pure):
    """F and V stacks as the kernel is handed them: GUE draws, and the search's parameterization."""
    s = TensorStructure.from_dims(list(dims))
    rng = np.random.default_rng(seed)
    gue = [ensembles._gue_stack(RowErrors(n), rng.standard_normal((n, 2, d, d)), scale)
           for d in (s.d_w, s.dim)]
    param = search._Parameterization(s, pure_state=pure)
    _, f, v, _ = param.build(scale * rng.standard_normal((n, param.n_params)))
    return gue + [f, v]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.sampled_from([(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1)]),
       shifts=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       scale=st.floats(1e-3, 1e3), pure=st.booleans())
def test_real_shifts_of_exactly_hermitian_stacks_need_no_check(seed, dims, shifts, scale, pure):
    # why the kernel does not check dF = F - <F> and dV = V - <V>: the shift keeps
    # an exactly Hermitian stack exactly Hermitian, for any real shift
    c = np.array(shifts)
    for a in exactly_hermitian_stacks(seed, dims, len(c), scale, pure):
        assert np.abs(a - a.conj().swapaxes(-1, -2)).max() == 0.0
        shifted = moments._delta_stack(a, c)
        assert np.array_equal(np.diagonal(shifted, axis1=-2, axis2=-1),
                              np.diagonal(a, axis1=-2, axis2=-1) - c[:, None])
        assert np.abs(shifted - shifted.conj().swapaxes(-1, -2)).max() == 0.0
        rows = RowErrors(len(c))
        assert operators._symmetrized(rows, shifted, "{} {}") is shifted
        assert rows == [None] * len(c)


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
