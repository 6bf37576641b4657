"""At most one eigendecomposition per state, and given eigenpairs are checked where they enter.

A drawn state is decomposed once: on its thin D x r factor where r < D
(the unit ket itself at r = 1), else by `eigvalsh`, with `eigh` only for a
row whose smallest eigenvalue is below 1e-12; the kernel decomposes
nothing. A trajectory decomposes only its initial state: U(t) carries rho0's
eigenpairs to every grid point. `density_stack` checks eigenpairs it is
given, the thin factors and the carried pairs, for reconstruction and
orthonormality, so a corrupted factor fails its row there.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import qbattery.dynamics as dynamics
import qbattery.ensembles as ensembles
from qbattery.cli import main
from qbattery.dynamics import (
    HamiltonianSpec,
    builtin_exchange_scenario,
    exchange_interaction,
    ground_excited_state,
    parse_scenario,
    trajectory_report,
)
from qbattery.ensembles import SeedSpec, draw_batch, ginibre_mixed, gue_hermitian
from qbattery.moments import REPORT_FIELDS, batch_rows, verify_batch
from qbattery.operators import (
    HermitianOperator,
    NotPositiveSemidefiniteError,
    NumericalIntegrityError,
    RowErrors,
    TensorStructure,
    _one_row,
    density_stack,
    eig_stack,
    to_matrix_literal,
)
from test_exact_terms import GATE_BOUNDS, exact, exact_columns

MOMENT_FIELDS = ("mean_f", "mean_v", "var_f", "var_v", "cov", "purity_w")


def counted_shapes(monkeypatch, name):
    """Shapes of the stacks (ndim 3) passed to numpy.linalg.`name` while the test runs."""
    shapes = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


@pytest.fixture
def eigh_shapes(monkeypatch):
    return counted_shapes(monkeypatch, "eigh")


@pytest.fixture
def svd_shapes(monkeypatch):
    return counted_shapes(monkeypatch, "svd")


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    return counted_shapes(monkeypatch, "eigvalsh")


def chunk_shapes(n, dim, width=None, trials=None):
    """The stack shape of each verify chunk's rows, or of its `trials` rows among them."""
    size = batch_rows(dim)
    chunks = [range(a, min(a + size, n)) for a in range(0, n, size)]
    return [(len(c if trials is None else [t for t in c if trials(t)]), dim, width or dim)
            for c in chunks]


@pytest.mark.parametrize("dims, trials, extra", [
    ("2,2,1,1", 2500, []),
    ("2,2,4,4", 10, ["--ensemble", "ginibre", "--rank", "4"]),
    ("2,2,1,1", 2500, ["--ensemble", "haar"]),
])
def test_verify_decomposes_each_state_once(tmp_path, eigh_shapes, svd_shapes, eigvalsh_shapes,
                                           dims, trials, extra):
    s = TensorStructure.from_dims([int(d) for d in dims.split(",")])
    out = tmp_path / "o.json"
    assert main(["verify", "--dims", dims, "--trials", str(trials), *extra, "--out", str(out)]) == 0
    # each chunk's states are decomposed in the draw's state check, then the
    # one-row redraw of the reported instance's; the kernel decomposes
    # nothing. No eigh runs: a drawn state's smallest eigenvalue is below
    # 1e-12 only where its factor is thin.
    assert eigh_shapes == []
    worst_kind = json.loads(out.read_text())["worst_case"]["kind"]
    redraw = [(1, s.dim, s.dim)] if worst_kind == "ginibre" else []
    if "--rank" in extra:
        # rank-deficient states: a thin SVD of their D x r factors
        width = int(extra[-1])
        assert svd_shapes == chunk_shapes(trials, s.dim, width) + [(1, s.dim, width)]
        assert eigvalsh_shapes == []
    elif extra:
        # pure states: their unit kets are their eigenvectors, no SVD runs
        assert svd_shapes == eigvalsh_shapes == []
    else:
        # gue-ops: the pure even trials as haar ones, the full-rank odd ones by eigenvalues alone
        assert svd_shapes == []
        assert eigvalsh_shapes == chunk_shapes(trials, s.dim, trials=lambda t: t % 2) + redraw


def test_trajectory_decomposes_each_state_once(eigh_shapes):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
                        v=exchange_interaction(1.0, s), structure=s)
    rho0, f = ground_excited_state(s), HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    grid = np.linspace(0.0, 3.0, 2100)
    eigh_shapes.clear()  # building rho0 checked it
    trajectory_report(rho0, h, f, grid)
    # H and rho0 once each; the propagated states carry rho0's eigenpairs, and
    # the kernel decomposes nothing
    assert eigh_shapes == [(1, 4, 4), (1, 4, 4)]


def batch_values(batch):
    values = {k: getattr(batch, k) for k in REPORT_FIELDS}
    values.update({k: getattr(batch.moments, k) for k in MOMENT_FIELDS})
    return values


def drawn_thin_factors(s, kind, n, rank=None):
    """The drawn states of `trials` 0..n-1 at seed 42, and the thin eigenpairs of their drawn K."""
    shape = (s.dim,) if kind == "haar" else (s.dim, rank)
    trials = [ensembles._STREAMS_PER_TRIAL * t for t in range(n)]
    k = ensembles._Streams(42).complex_normals(trials, shape)
    return draw_batch(s, kind, 42, range(n), rank)[0], ensembles._state_factors(k)


def state_errors(rho, factors):
    """Each row's first failed check of `density_stack` on the given factors."""
    rows = RowErrors(len(rho))
    density_stack(rows, rho, factors)
    return rows


def corrupt_swap_columns(w, u):
    u = u.copy()
    u[1, :, [0, -1]] = u[1, :, [-1, 0]]
    return w, u


def corrupt_eigenvalue(w, u):
    w = w.copy()
    w[1, -1] += 1e-6
    return w, u


@pytest.mark.parametrize("corrupt", [corrupt_swap_columns, corrupt_eigenvalue])
def test_corrupted_factor_fails_its_row_through_the_eig_checks(corrupt):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho = draw_batch(s, "ginibre", 42, range(3))[0]
    errors = state_errors(rho, corrupt(*np.linalg.eigh(rho)))
    assert isinstance(errors[1], NumericalIntegrityError)
    assert "eigendecomposition reconstruction" in str(errors[1])
    assert errors[0] is None and errors[2] is None


def thin_swap_columns(w, u):
    u = u.copy()
    u[1][:, [0, -1]] = u[1][:, [-1, 0]]
    return w, u


def thin_perturb_column(w, u):
    u = u.copy()
    u[1, :, 0] += 1e-6
    return w, u


def thin_rescale_column(w, u):
    # 2 u_0 with w_0 / 4 reconstructs the state bit for bit, but |2 u_0| = 2
    w, u = w.copy(), u.copy()
    u[1, :, 0] *= 2.0
    w[1, 0] /= 4.0
    return w, u


@pytest.mark.parametrize("corrupt, message", [
    (thin_swap_columns, "eigendecomposition reconstruction"),
    (thin_perturb_column, "eigendecomposition reconstruction"),
    (thin_rescale_column, "eigenvector columns not orthonormal"),
])
def test_corrupted_thin_factor_fails_its_row_through_the_eig_checks(corrupt, message):
    s = TensorStructure.from_dims([2, 2, 2, 1])
    rho, eig = drawn_thin_factors(s, "ginibre", 3, 3)
    assert eig[1].shape == (3, 8, 3)
    assert state_errors(rho, eig) == [None] * 3
    errors = state_errors(rho, corrupt(*eig))
    assert isinstance(errors[1], NumericalIntegrityError)
    assert message in str(errors[1])
    assert errors[0] is None and errors[2] is None


@pytest.mark.parametrize("corrupt, message", [
    (thin_perturb_column, "eigendecomposition reconstruction"),
    (thin_rescale_column, "eigenvector columns not orthonormal"),
])
def test_corrupted_unit_ket_factor_fails_its_row_through_the_eig_checks(corrupt, message):
    # a pure state's factor is its unit ket with weight 1, taken without an SVD
    s = TensorStructure.from_dims([2, 2, 2, 1])
    rho, eig = drawn_thin_factors(s, "haar", 3)
    assert eig[1].shape == (3, 8, 1) and np.array_equal(eig[0], np.ones((3, 1)))
    assert state_errors(rho, eig) == [None] * 3
    errors = state_errors(rho, corrupt(*eig))
    assert isinstance(errors[1], NumericalIntegrityError)
    assert message in str(errors[1])
    assert errors[0] is None and errors[2] is None


def test_eig_stack_checks_thin_factors_against_the_identity_of_their_width():
    s = TensorStructure.from_dims([2, 2, 2, 1])
    rho, (w, u) = drawn_thin_factors(s, "haar", 2)
    rows = RowErrors(2)
    assert eig_stack(rows, rho, (w, u))[1].shape == (2, 8, 1)
    assert rows == [None, None]
    # a D x D identity would take these columns for 7 missing ones
    rows = RowErrors(2)
    eig_stack(rows, rho, thin_rescale_column(w, u))
    assert rows[0] is None and "not orthonormal: 3.000e+00" in str(rows[1])


def test_eig_stack_takes_a_real_orthogonal_basis():
    state = np.diag([0.25, 0.75]).astype(complex)[None]
    rows = RowErrors(2)
    eig_stack(rows, np.concatenate([state, state]),
              (np.array([[0.25, 0.75]] * 2), np.stack([np.eye(2), np.eye(2)[:, ::-1]])))
    assert rows[0] is None
    assert isinstance(rows[1], NumericalIntegrityError)
    assert "eigendecomposition reconstruction" in str(rows[1])


# ---------------------------------------------------------------- eigenpairs carried through U(t)

def scenario(dims, rank, steps=40):
    s = TensorStructure.from_dims(dims)
    return parse_scenario({
        "structure": dims,
        "h0": to_matrix_literal(gue_hermitian(s.dim, 1.0, SeedSpec(17, 0))),
        "v": to_matrix_literal(gue_hermitian(s.dim, 1.0, SeedSpec(17, 1))),
        "f": to_matrix_literal(gue_hermitian(s.d_w, 1.0, SeedSpec(17, 2))),
        "rho0": to_matrix_literal(ginibre_mixed(s.dim, rank, SeedSpec(17, 3))),
        "grid": {"t0": 0.0, "t1": 3.0, "steps": steps},
    })


# name -> (dims, rank of rho0); the exchange scenario's rho0 is pure
CARRIED_SCENARIOS = {"exchange": None} | {
    f"D{np.prod(dims)}-rank{rank}": (dims, rank)
    for dims in ([2, 1, 1, 1], [2, 2, 1, 1], [3, 2, 1, 1], [2, 2, 2, 1], [2, 2, 2, 2])
    for rank in sorted({1, min(3, np.prod(dims)), np.prod(dims)})
}


def carried_scenario(name):
    found = CARRIED_SCENARIOS[name]
    return parse_scenario(builtin_exchange_scenario(steps=40)) if found is None else scenario(*found)


def exact_ratio_error(rho, f, v, s, ratio):
    """|ratio - the saturation ratio of (rho, F, V)|, the latter taken exactly in Fractions."""
    want = exact_columns(exact(rho), exact(f), exact(v), s.env_dim)["saturation_ratio"]
    return abs(float(Fraction(float(ratio)) - want))


@pytest.mark.parametrize("name", CARRIED_SCENARIOS)
def test_carried_eigenpairs_match_a_fresh_eigh_of_every_state(name):
    rho0, h, f, grid = carried_scenario(name)
    s = h.structure
    traj = trajectory_report(rho0, h, f, grid)

    # the reference: the same states, each decomposed again by density_stack's own eigh
    (w,), (vec,) = _one_row(eig_stack, h.total().mat)
    _, _, ((p0,), (q0,)) = _one_row(density_stack, rho0.mat)
    evolved = dynamics._evolved(w, vec, (p0, q0), grid)
    n = len(grid)
    rows = RowErrors(n)
    states = density_stack(rows, evolved[0])[0]
    want = verify_batch(states, np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                        np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s)
    assert rows == want.errors == [None] * n
    got = batch_values(traj.report)
    for field, values in batch_values(want).items():
        diff = np.abs(got[field] - values)
        close = diff <= 1e-12 * np.maximum(np.abs(values), 1.0)
        if field == "saturation_ratio" and s.dim <= 4:
            # The two routes normalise and clamp their states on different
            # eigenvalues, so the states differ in their last bits; at D <= 4
            # a ratio near 1 carries that into its 12th digit (at D2-rank1's
            # point 3 the two states' exact ratios differ by 6.9e-12). There
            # each route's ratio is held to its own state's exact value.
            carried = density_stack(RowErrors(n), *evolved)[0]
            for i in np.flatnonzero(~close):
                close[i] = all(exact_ratio_error(rho[i], f.mat, h.v.mat, s, ratio[i])
                               <= GATE_BOUNDS["saturation_ratio"][0]
                               for rho, ratio in ((carried, got[field]), (states, values)))
        assert np.all(close), field


def test_carried_spectrum_is_rho0s(monkeypatch):
    rho0, h, f, grid = scenario([2, 2, 1, 1], 3)
    seen = []
    real = dynamics.density_stack

    def spy(rows, a, factors=None):
        out = real(rows, a, factors)
        seen.append(out[2])
        return out

    monkeypatch.setattr(dynamics, "density_stack", spy)
    trajectory_report(rho0, h, f, grid)
    (p0, q0), *carried = seen  # rho0's own check first, then one stack per chunk
    assert len(carried) == 1
    w, u = carried[0]
    assert np.abs(w - p0).max() <= 1e-15
    assert np.count_nonzero(p0[0] > 1e-12) == 3 and p0.min() >= 0.0  # rank 3, clamped


def negate_column(u):
    u[:, 0] = -u[:, 0]


def swap_columns(u):
    u[:, [0, -1]] = u[:, [-1, 0]]


def corrupted_evolution(monkeypatch, corrupt, row):
    real = dynamics._evolved

    def evolved(w, vec, factors, times):
        states, (p, u) = real(w, vec, factors, times)
        u = u.copy()
        corrupt(u[row])
        return states, (p, u)

    monkeypatch.setattr(dynamics, "_evolved", evolved)


@pytest.mark.parametrize("name", ["exchange", "D8-rank3", "D16-rank16"])
def test_swapped_carried_eigenvectors_raise_the_reconstruction_error(monkeypatch, name):
    rho0, h, f, grid = carried_scenario(name)
    corrupted_evolution(monkeypatch, swap_columns, 5)
    with pytest.raises(NumericalIntegrityError, match="eigendecomposition reconstruction"):
        trajectory_report(rho0, h, f, grid)


def test_a_negated_carried_eigenvector_is_the_same_eigenpair(monkeypatch):
    # -u_k is an eigenvector wherever u_k is: the pairs still reconstruct the
    # state, and Tr(Q^dag X Q), a sum over k of w_k u_k^dag X u_k, does not change
    rho0, h, f, grid = carried_scenario("D8-rank8")
    want = trajectory_report(rho0, h, f, grid)
    corrupted_evolution(monkeypatch, negate_column, 5)
    got = trajectory_report(rho0, h, f, grid)
    for field, values in batch_values(want.report).items():
        diff = np.abs(batch_values(got.report)[field] - values)
        assert np.all(diff <= 1e-14 * np.maximum(np.abs(values), 1.0)), field


def test_density_stack_judges_psd_on_the_given_eigenvalues():
    state = np.diag([0.5, 0.5]).astype(complex)[None]  # PSD itself
    rows = RowErrors(1)
    density_stack(rows, state, (np.array([[-1e-9, 1.0 + 1e-9]]), np.eye(2)[None]))
    assert isinstance(rows[0], NotPositiveSemidefiniteError)
    assert "eigenvalue -1.000e-09" in str(rows[0])


def test_density_stack_returns_factors_of_the_returned_state():
    u = np.linalg.qr(np.array([[1.0, 2.0j, 0.5], [0.3, -1.0, 1.0j], [2.0, 0.1, 1.0]]))[0]
    for w in ([0.2, 0.3, 0.5 + 1e-9],  # trace 1 + 1e-9: divided by it
              [-5e-11, 0.4, 0.6 + 5e-11]):  # an eigenvalue in the clamp window
        w = np.array([w])
        state = ((u * w) @ u.conj().T)[None]
        rows = RowErrors(1)
        out, _, (w_out, u_out) = density_stack(rows, state, (w, u[None]))
        assert rows == [None]
        assert w_out.min() >= 0.0 and abs(w_out.sum() - 1.0) <= 1e-15
        assert np.abs((u_out * w_out[:, None, :]) @ u_out.conj().swapaxes(-1, -2) - out).max() <= 1e-15
        assert np.abs(np.trace(out[0]) - 1.0) <= 1e-15
