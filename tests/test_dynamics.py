import json

import numpy as np
import pytest
from scipy.linalg import expm

from qbattery.dynamics import (
    HamiltonianSpec,
    _evolved,
    ScenarioError,
    builtin_exchange_scenario,
    exchange_interaction,
    ground_excited_state,
    parse_scenario,
    trajectory_report,
    trajectory_rows,
    TRAJECTORY_COLUMNS,
)
from qbattery.ensembles import SeedSpec, ginibre_mixed, gue_hermitian
from qbattery.operators import (
    DensityMatrix,
    HermitianOperator,
    RejectedInputError,
    TensorStructure,
    _one_row,
    eig_stack,
    to_matrix_literal,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def exchange_setup(g=1.0):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(
        h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
        v=exchange_interaction(g, s),
        structure=s,
    )
    rho0 = ground_excited_state(s)
    f = HermitianOperator(SZ)
    return s, h, rho0, f


# ---------------------------------------------------------------- propagate

def propagate(rho0, h, t):
    """rho(t) = U rho0 U^dag with U = exp(-i (H0 + V) t), as trajectory_report builds it."""
    (w,), (u,) = _one_row(eig_stack, h.total().mat)
    qt = _evolved(w, u, rho0.factor, np.array([t]))[0]
    return DensityMatrix.from_factor(qt)


def test_propagate_t0_is_identity():
    s, h, rho0, _ = exchange_setup()
    out = propagate(rho0, h, 0.0)
    assert np.abs(out.mat - rho0.mat).max() <= 1e-12


def test_propagate_preserves_spectrum():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho0 = ginibre_mixed(4, 4, SeedSpec(60))
    h = HamiltonianSpec(
        h0=gue_hermitian(4, 1.0, SeedSpec(61)),
        v=gue_hermitian(4, 1.0, SeedSpec(62)),
        structure=s,
    )
    base = np.sort(np.linalg.eigvalsh(rho0.mat))
    for t in (0.3, 1.7, 4.0):
        ev = np.sort(np.linalg.eigvalsh(propagate(rho0, h, t).mat))
        assert np.abs(ev - base).max() <= 1e-9


def test_propagate_conserves_energy():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho0 = ginibre_mixed(4, 2, SeedSpec(63))
    h = HamiltonianSpec(
        h0=gue_hermitian(4, 1.0, SeedSpec(64)),
        v=gue_hermitian(4, 0.5, SeedSpec(65)),
        structure=s,
    )
    total = h.h0.mat + h.v.mat
    e0 = np.trace(rho0.mat @ total).real
    for t in (0.5, 2.0):
        et = np.trace(propagate(rho0, h, t).mat @ total).real
        assert et == pytest.approx(e0, abs=1e-10)


@pytest.mark.parametrize("rank", [1, 3, 8])
def test_evolved_states_are_u_rho0_u_dag(rank):
    # U(t) rho0.factor, whatever rho0's rank, against scipy's expm
    s = TensorStructure.from_dims([2, 2, 2, 1])
    rho0 = ginibre_mixed(8, rank, SeedSpec(66))
    h = HamiltonianSpec(h0=gue_hermitian(8, 1.0, SeedSpec(67)), v=gue_hermitian(8, 1.0, SeedSpec(68)),
                        structure=s)
    (w,), (u,) = _one_row(eig_stack, h.total().mat)
    times = np.array([0.0, 0.4, 2.5])
    for t, qt in zip(times, _evolved(w, u, rho0.factor, times)):
        ev = expm(-1j * t * h.total().mat)
        state = qt @ qt.conj().T  # the state of the factor qt the kernel takes
        assert np.abs(state - ev @ rho0.mat @ ev.conj().T).max() <= 1e-13
        assert np.abs(qt - ev @ rho0.factor).max() <= 1e-13


# ---------------------------------------------------------------- exchange model

def test_exchange_matches_closed_form():
    # <sigma_z>_W(t) = -cos(2gt), purity_W(t) = 1 - sin^2(2gt)/2, P = 2g sin(2gt)
    g = 1.0
    s, h, rho0, f = exchange_setup(g)
    grid = np.linspace(0.0, np.pi, 201)
    traj = trajectory_report(rho0, h, f, grid)
    for t, mean_f, purity, power in zip(traj.t, traj.mean_f, traj.battery_purity,
                                        traj.report.power):
        want_mean = -np.cos(2 * g * t)
        want_purity = 1.0 - np.sin(2 * g * t) ** 2 / 2.0
        want_power = 2.0 * g * np.sin(2 * g * t)
        assert mean_f == pytest.approx(want_mean, abs=1e-12)
        assert purity == pytest.approx(want_purity, abs=1e-12)
        assert power == pytest.approx(want_power, abs=1e-12)


def test_exchange_quarter_period_values():
    g = 1.0
    s, h, rho0, f = exchange_setup(g)
    grid = np.linspace(0.0, np.pi, 5)  # includes pi/4 exactly
    traj = trajectory_report(rho0, h, f, grid)
    assert traj.t[1] == pytest.approx(np.pi / 4)
    assert traj.report.power[1] == pytest.approx(2.0, abs=1e-9)
    assert traj.battery_purity[1] == pytest.approx(0.5, abs=1e-9)


def test_exchange_initial_point_is_eigenstate():
    s, h, rho0, f = exchange_setup()
    traj = trajectory_report(rho0, h, f, np.linspace(0, 1, 11))
    assert abs(traj.report.power[0]) <= 1e-12
    assert traj.mean_f[0] == pytest.approx(-1.0, abs=1e-12)
    assert traj.battery_purity[0] == pytest.approx(1.0, abs=1e-12)


def test_exchange_entanglement_window():
    # strictly inside (0.1, pi/2) the battery is properly mixed
    s, h, rho0, f = exchange_setup()
    grid = np.linspace(0.0, np.pi, 1001)
    traj = trajectory_report(rho0, h, f, grid)
    inside = (0.1 < traj.t) & (traj.t < np.pi / 2)
    assert inside.any(), "window should contain grid points"
    assert np.all(traj.battery_purity[inside] < 1.0 - 1e-6)


def test_exchange_scale_sets_frequency():
    g = 2.5
    s, h, rho0, f = exchange_setup(g)
    t = 0.37
    traj = trajectory_report(rho0, h, f, [0.0, t, 2 * t])
    assert traj.mean_f[1] == pytest.approx(-np.cos(2 * g * t), abs=1e-12)


# ---------------------------------------------------------------- finite differences

def test_fd_tracks_power_and_converges():
    s, h, rho0, f = exchange_setup()

    def max_err(steps):
        grid = np.linspace(0.0, np.pi, steps + 1)
        traj = trajectory_report(rho0, h, f, grid)
        assert traj.power_tracks_dfdt
        # dfdt_fd holds the interior points only
        return np.abs(traj.report.power[1:-1] - traj.dfdt_fd).max()

    e400 = max_err(400)
    e800 = max_err(800)
    assert e400 < 1e-3
    assert 3.5 <= e400 / e800 <= 4.5  # second-order central differences


def test_fd_endpoints_are_absent():
    s, h, rho0, f = exchange_setup()
    traj = trajectory_report(rho0, h, f, np.linspace(0, 1, 9))
    assert len(traj.dfdt_fd) == len(traj.t) - 2
    fd = traj.columns()[-1]
    assert fd[0] is None
    assert fd[-1] is None
    assert all(x is not None for x in fd[1:-1])


def test_fd_flag_disabled_when_h0_moves_battery():
    # a drive on the battery itself decouples P from d<F>/dt
    s = TensorStructure.from_dims([2, 2, 1, 1])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    h = HamiltonianSpec(
        h0=HermitianOperator(np.kron(sx, np.eye(2))),
        v=exchange_interaction(1.0, s),
        structure=s,
    )
    traj = trajectory_report(ground_excited_state(s), h, HermitianOperator(SZ), np.linspace(0, 1, 9))
    assert not traj.power_tracks_dfdt


# ---------------------------------------------------------------- random scenarios

def test_bound_holds_along_random_trajectories():
    # structures with total dimensions 4, 8 and 16; verify_instance inside
    # trajectory_report raises if any grid point violated the bound
    cases = [((2, 2, 1, 1), 34), ((2, 2, 2, 1), 33), ((4, 2, 2, 1), 33)]
    for dims, n in cases:
        s = TensorStructure.from_dims(list(dims))
        for i in range(n):
            rho0 = ginibre_mixed(s.dim, s.dim, SeedSpec(7000 + s.dim, 3 * i))
            h = HamiltonianSpec(
                h0=gue_hermitian(s.dim, 1.0, SeedSpec(7000 + s.dim, 3 * i + 1)),
                v=gue_hermitian(s.dim, 1.0, SeedSpec(7000 + s.dim, 3 * i + 2)),
                structure=s,
            )
            f = gue_hermitian(s.d_w, 1.0, SeedSpec(8000 + s.dim, i))
            r = trajectory_report(rho0, h, f, np.linspace(0.0, 2.0, 5)).report
            assert np.all(r.power_sq <= r.corrected_bound + 1e-9 * (1 + r.corrected_bound))


# ---------------------------------------------------------------- grids and rows

def test_grid_validation():
    s, h, rho0, f = exchange_setup()
    with pytest.raises(RejectedInputError):
        trajectory_report(rho0, h, f, [0.0, 1.0])
    with pytest.raises(RejectedInputError):
        trajectory_report(rho0, h, f, [0.0, 1.0, 1.0])
    with pytest.raises(RejectedInputError):
        trajectory_report(rho0, h, f, [0.0, 2.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_grid_rejects_non_finite_times_before_evolving(bad, at, recwarn):
    # a NaN passes the strictly-increasing check, as every comparison with it
    # is false; it must be rejected as such, not evolved into a bad state
    s, h, rho0, f = exchange_setup()
    grid = np.linspace(0.0, 1.0, 5)
    grid[at] = bad
    with pytest.raises(RejectedInputError, match="^grid times must be finite$"):
        trajectory_report(rho0, h, f, grid)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_trajectory_rows_shape_and_format():
    s, h, rho0, f = exchange_setup()
    traj = trajectory_report(rho0, h, f, np.linspace(0, 1, 5))
    rows = list(trajectory_rows(traj))
    assert len(rows) == 5
    assert all(len(r) == len(TRAJECTORY_COLUMNS) for r in rows)
    assert rows[0][-1] == ""  # endpoint has no finite difference
    # 17-significant-digit floats survive a text round trip exactly
    assert float(rows[1][1]) == traj.report.power[1]


# ---------------------------------------------------------------- scenarios

def scenario_doc():
    return builtin_exchange_scenario(g=1.0, steps=10)


def test_builtin_scenario_parses():
    rho0, h, f, grid = parse_scenario(scenario_doc())
    assert h.structure.dim == 4
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(np.pi)
    assert len(grid) == 11


def test_scenario_matrix_literals_accepted():
    doc = scenario_doc()
    s = TensorStructure.from_dims([2, 2, 1, 1])
    doc["v"] = to_matrix_literal(exchange_interaction(1.0, s))
    doc["rho0"] = to_matrix_literal(ground_excited_state(s))
    doc["h0"] = to_matrix_literal(np.zeros((4, 4)))
    rho0, h, f, grid = parse_scenario(doc)
    traj = trajectory_report(rho0, h, f, grid)
    assert traj.report.power[1] == pytest.approx(2.0 * np.sin(2 * grid[1]), abs=1e-9)


def test_zero_h0_all_power_zero_when_v_commutes():
    # V acting on the battery alone commutes with F = same operator: flat line
    doc = {
        "structure": [2, 1, 1, 1],
        "h0": "zero",
        "v": {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "f": {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "rho0": {"dim": 2, "re": [[0.75, 0.1], [0.1, 0.25]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 4},
    }
    rho0, h, f, grid = parse_scenario(doc)
    traj = trajectory_report(rho0, h, f, grid)
    assert np.all(np.abs(traj.report.power) <= 1e-12)


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.pop("structure"), "structure"),
    (lambda d: d.update(structure=[2, 0, 1, 1]), "structure"),
    (lambda d: d.update(h0="bogus"), "h0"),
    (lambda d: d.update(v="exchange(oops)"), "v"),
    (lambda d: d.update(rho0="no-such-state"), "rho0"),
    (lambda d: d.update(f="zero"), "f"),
    (lambda d: d.update(grid={"t0": 0.0, "t1": 1.0}), "grid"),
    (lambda d: d.update(grid={"t0": 1.0, "t1": 0.0, "steps": 5}), "grid"),
    (lambda d: d.update(grid={"t0": 0.0, "t1": 1.0, "steps": 1}), "grid"),
    # values a conversion would accept: rejected, not converted
    pytest.param(lambda d: d.update(structure=[2, 2, 1, 1.9]), "structure", id="structure-float"),
    pytest.param(lambda d: d.update(structure=["2", "2", "1", "1"]), "structure",
                 id="structure-strings"),
    pytest.param(lambda d: d.update(structure="2211"), "structure", id="structure-string"),
    pytest.param(lambda d: d.update(structure=[2, 2, True, True]), "structure",
                 id="structure-bools"),
    pytest.param(lambda d: d.update(grid={"t0": 0.0, "t1": 1.0, "steps": 4.7}), "grid",
                 id="grid-steps-float"),
    pytest.param(lambda d: d.update(grid={"t0": "0", "t1": 1.0, "steps": 5}), "grid",
                 id="grid-t0-string"),
    pytest.param(lambda d: d.update(grid={"t0": 0.0, "t1": True, "steps": 5}), "grid",
                 id="grid-t1-bool"),
    pytest.param(lambda d: d["f"].update(dim=2.9), "f", id="f-dim-float"),
    pytest.param(lambda d: d["f"].update(dim=True), "f", id="f-dim-bool"),
    pytest.param(lambda d: d["f"].update(re=[["1.5", 0.0], [0.0, -1.0]]), "f",
                 id="f-entry-string"),
    pytest.param(lambda d: d["f"].update(im=[[False, False], [False, False]]), "f",
                 id="f-entry-bool"),
])
def test_scenario_errors_name_the_field(mutate, field):
    doc = scenario_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert field in str(err.value)


def _eye_literal(n, scale=1.0):
    return to_matrix_literal(scale * np.eye(n))


# the exact text of each rejection: how the fields are read must not change what a user sees
@pytest.mark.parametrize("change, message", [
    ({"structure": [2, 2, 1]}, "field 'structure': expected 4 dimensions (W,S,B,A), got 3"),
    ({"structure": [2, 0, 1, 1]}, "field 'structure': d_s must be a positive integer, got 0"),
    ({"structure": 5}, "field 'structure': 'int' object is not iterable"),
    ({"h0": "bogus"}, "field 'h0': matrix literal must be an object, got str"),
    ({"h0": to_matrix_literal(np.triu(np.ones((4, 4))))},
     "field 'h0': matrix is not Hermitian: max|A - A^dag| = 1.000e+00 > 1e-10"),
    ({"v": "exchange(oops)"}, "field 'v': coupling 'oops' is not a number"),
    ({"v": "ising(1)"}, "field 'v': unknown named model 'ising(1)', expected 'exchange(g)'"),
    ({"structure": [3, 2, 1, 1]}, "field 'v': exchange model needs d_w = d_s = 2"),
    ({"f": _eye_literal(4)}, "field 'f': dim 4 != battery dim 2"),
    ({"f": {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}}, "field 'f': malformed matrix literal: 'im'"),
    ({"f": dict(_eye_literal(2), dim=3)},
     "field 'f': matrix literal arrays must be 3x3, got re (2, 2) and im (2, 2)"),
    ({"f": _eye_literal(2, float("nan"))}, "field 'f': matrix has a non-finite entry"),
    ({"rho0": "no-such-state"}, "field 'rho0': matrix literal must be an object, got str"),
    ({"rho0": _eye_literal(2, 0.5)}, "field 'rho0': dim 2 != total dim 4"),
    ({"structure": [3, 2, 1, 1], "v": _eye_literal(6), "f": _eye_literal(3)},
     "field 'rho0': ground-excited state needs d_w = d_s = 2"),
    ({"grid": [0.0, 1.0, 5]}, "field 'grid': must be an object {t0, t1, steps}"),
    ({"grid": {"t0": 0.0, "t1": 1.0}}, "field 'grid': needs numeric t0, t1 and integer steps ('steps')"),
    ({"grid": {"t0": 1.0, "t1": 0.0, "steps": 5}}, "field 'grid.t1': need finite t0 < t1"),
    ({"grid": {"t0": float("nan"), "t1": 1.0, "steps": 5}}, "field 'grid.t1': need finite t0 < t1"),
    ({"grid": {"t0": 0.0, "t1": 1.0, "steps": 1}},
     "field 'grid.steps': need steps >= 2 (at least 3 grid points)"),
    ({"h0": _eye_literal(2)}, "field 'h0/v': Hamiltonian dims (2, 4) != structure dim 4"),
    ({"v": _eye_literal(2)}, "field 'h0/v': Hamiltonian dims (4, 2) != structure dim 4"),
])
def test_scenario_error_texts(change, message):
    doc = scenario_doc()
    doc.update(change)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == message


def test_scenario_error_texts_outside_the_fields():
    with pytest.raises(ScenarioError, match="^scenario must be a JSON object$"):
        parse_scenario([])
    doc = scenario_doc()
    del doc["grid"], doc["f"]
    with pytest.raises(ScenarioError, match="^field 'f': missing$"):
        parse_scenario(doc)


def test_exchange_named_model_parses_coupling():
    doc = scenario_doc()
    doc["v"] = "exchange(2.5)"
    _, h, _, _ = parse_scenario(doc)
    s = TensorStructure.from_dims([2, 2, 1, 1])
    assert np.allclose(h.v.mat, exchange_interaction(2.5, s).mat)


def test_exchange_requires_qubit_pair():
    s = TensorStructure.from_dims([3, 2, 1, 1])
    with pytest.raises(RejectedInputError):
        exchange_interaction(1.0, s)


def test_scenario_doc_is_json_serializable():
    json.dumps(scenario_doc())
