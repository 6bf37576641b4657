"""One eigendecomposition per state: the kernel's sandwich traces take the draw's checked (w, u).

With Q = U sqrt(w) (D x r) and U^dag U = I_r, Tr(sr X sr) = Tr(Q^dag X Q)
exactly, so the traces need no D x D sqrt(rho); Cov = Tr(rho dF dV) is taken
on rho itself, a route independent of the factors, which keeps the
decomposition identity a real check on them. A trajectory decomposes only its
initial state: U(t) carries rho0's eigenpairs to every grid point, where the
point's checks verify them.
"""

import numpy as np
import pytest

import qbattery.dynamics as dynamics
import qbattery.moments as moments
from qbattery.cli import main
from qbattery.dynamics import (
    HamiltonianSpec,
    builtin_exchange_scenario,
    exchange_interaction,
    ground_excited_state,
    parse_scenario,
    trajectory_report,
)
from qbattery.ensembles import SeedSpec, _draw_batch_eig, ginibre_mixed, gue_hermitian
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

KERNEL_DIMS = [(2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 4, 4)]
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


def chunk_shapes(n, dim, width=None):
    size = batch_rows(dim)
    return [(min(size, n - a), dim, width or dim) for a in range(0, n, size)]


@pytest.mark.parametrize("dims, trials, extra", [
    ("2,2,1,1", 2500, []),
    ("2,2,4,4", 10, ["--ensemble", "ginibre", "--rank", "4"]),
    ("2,2,1,1", 2500, ["--ensemble", "haar"]),
])
def test_verify_decomposes_each_state_once(tmp_path, eigh_shapes, svd_shapes, dims, trials, extra):
    s = TensorStructure.from_dims([int(d) for d in dims.split(",")])
    argv = ["verify", "--dims", dims, "--trials", str(trials), *extra, "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0
    # each chunk's states are decomposed in the draw's state check, then the
    # one-row redraw of the reported instance's; the rest are reduced battery states
    if extra:
        # rank-deficient states: a thin SVD of their D x r factors, no D x D eigh at all
        width = int(extra[-1]) if "--rank" in extra else 1
        assert [x for x in eigh_shapes if x[-1] == s.dim] == []
        assert svd_shapes == chunk_shapes(trials, s.dim, width) + [(1, s.dim, width)]
    else:
        # gue-ops mixes pure and full-rank states: one D x D eigh stack per chunk
        assert [x for x in eigh_shapes if x[-1] == s.dim] == (chunk_shapes(trials, s.dim)
                                                              + [(1, s.dim, s.dim)])
        assert svd_shapes == []


def test_trajectory_decomposes_each_state_once(eigh_shapes):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
                        v=exchange_interaction(1.0, s), structure=s)
    rho0, f = ground_excited_state(s), HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    grid = np.linspace(0.0, 3.0, 2100)
    eigh_shapes.clear()  # building rho0 checked it
    trajectory_report(rho0, h, f, grid)
    # H and rho0 once each; the propagated states carry rho0's eigenpairs
    assert [x for x in eigh_shapes if x[-1] == s.dim] == [(1, 4, 4), (1, 4, 4)]


def batch_values(batch):
    values = {k: getattr(batch, k) for k in REPORT_FIELDS}
    values.update({k: getattr(batch.moments, k) for k in MOMENT_FIELDS})
    return values


@pytest.mark.parametrize("kind", ["haar", "ginibre", "mix"])
@pytest.mark.parametrize("dims", KERNEL_DIMS)
def test_kernel_with_the_draws_factors_equals_the_kernel_without(dims, kind):
    s = TensorStructure.from_dims(list(dims))
    rank = max(1, s.dim // 2) if kind == "ginibre" else None  # Ginibre states below full rank
    n = 4 if s.dim == 64 else 12
    rho, f, v, _, eig = _draw_batch_eig(s, kind, 42, range(n), rank, 1.0)
    # a row density_stack left as it was carries eigh's own factors of that row
    w, u = np.linalg.eigh(rho)
    own = np.array([np.array_equal(w[i], eig[0][i]) and np.array_equal(u[i], eig[1][i])
                    for i in range(n)])
    with_factors = verify_batch(rho, f, v, s, rho_eig=eig)
    without = verify_batch(rho, f, v, s)
    assert with_factors.errors == without.errors == [None] * n
    got, want = batch_values(with_factors), batch_values(without)
    for name in want:
        assert np.array_equal(got[name][own], want[name][own]), name
        diff = np.abs(got[name] - want[name])
        assert np.all(diff <= 1e-12 * np.maximum(np.abs(want[name]), 1.0)), name
    if kind == "mix":
        assert own[1::2].all()  # full-rank Ginibre rows are never clamped
    else:
        # rank-deficient ensembles: the thin SVD factors of every state, r = 1 for Haar
        assert eig[1].shape == (n, s.dim, 1 if kind == "haar" else rank)
        assert eig[0].min() >= 0.0


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
    rho, f, v, _, eig = _draw_batch_eig(s, "ginibre", 42, range(3), None, 1.0)
    batch = verify_batch(rho, f, v, s, rho_eig=corrupt(*eig))
    assert isinstance(batch.errors[1], NumericalIntegrityError)
    assert "eigendecomposition reconstruction" in str(batch.errors[1])
    assert batch.errors[0] is None and batch.errors[2] is None


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
    rho, f, v, _, eig = _draw_batch_eig(s, "ginibre", 42, range(3), 3, 1.0)
    assert eig[1].shape == (3, 8, 3)
    batch = verify_batch(rho, f, v, s, rho_eig=corrupt(*eig))
    assert isinstance(batch.errors[1], NumericalIntegrityError)
    assert message in str(batch.errors[1])
    assert batch.errors[0] is None and batch.errors[2] is None


def test_eig_stack_checks_thin_factors_against_the_identity_of_their_width():
    s = TensorStructure.from_dims([2, 2, 2, 1])
    rho, _, _, _, (w, u) = _draw_batch_eig(s, "haar", 42, range(2), None, 1.0)
    rows = RowErrors(2)
    assert eig_stack(rows, rho, (w, u))[1].shape == (2, 8, 1)
    assert rows == [None, None]
    # a D x D identity would take these columns for 7 missing ones
    rows = RowErrors(2)
    eig_stack(rows, rho, thin_rescale_column(w, u))
    assert rows[0] is None and "not orthonormal: 3.000e+00" in str(rows[1])


@pytest.mark.parametrize("dims", [(2, 2, 1, 1), (2, 2, 2, 2)])
def test_decomposition_identity_has_a_route_independent_of_the_factors(monkeypatch, dims):
    # the sandwich traces are taken on rho's factors, Cov = Tr(rho dF dV) on
    # rho itself: factors with w**2 for w take |Tr(rho dF dV rho)|^2, and the
    # identity fails. Full-rank rows, since on a pure state w**2 == w.
    s = TensorStructure.from_dims(list(dims))
    rho, f, v, _, eig = _draw_batch_eig(s, "ginibre", 42, range(4), None, 1.0)
    real = moments.eig_stack

    def squared(rows, a, factors=None):
        w, u = real(rows, a, factors)
        return w**2, u

    monkeypatch.setattr(moments, "eig_stack", squared)
    for rho_eig in (eig, None):
        errors = verify_batch(rho, f, v, s, rho_eig=rho_eig).errors
        assert all(isinstance(e, NumericalIntegrityError) for e in errors)
        assert all("square-root decomposition identity violated" in str(e) for e in errors)


def test_factors_are_ignored_when_rho_is_symmetrized():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, _, eig = _draw_batch_eig(s, "ginibre", 42, range(3), None, 1.0)
    rho = rho.copy()
    rho[0, 0, 1] += 1e-13  # inside the Hermiticity window: the kernel symmetrizes it
    with_factors = verify_batch(rho, f, v, s, rho_eig=corrupt_eigenvalue(*eig))
    without = verify_batch(rho, f, v, s)
    assert with_factors.errors == without.errors == [None] * 3
    for name, values in batch_values(with_factors).items():
        assert np.array_equal(values, batch_values(without)[name]), name


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


@pytest.mark.parametrize("name", CARRIED_SCENARIOS)
def test_carried_eigenpairs_match_a_fresh_eigh_of_every_state(name):
    rho0, h, f, grid = carried_scenario(name)
    s = h.structure
    traj = trajectory_report(rho0, h, f, grid)

    # the reference: the same states, each decomposed again by density_stack's own eigh
    (w,), (vec,) = _one_row(eig_stack, h.total().mat)
    _, _, ((p0,), (q0,)) = _one_row(density_stack, rho0.mat)
    states, _ = dynamics._evolved(w, vec, (p0, q0), grid)
    n = len(grid)
    rows = RowErrors(n)
    states, _, eig = density_stack(rows, states)
    want = verify_batch(states, np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                        np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s, rho_eig=eig)
    assert rows == want.errors == [None] * n
    got = batch_values(traj.report)
    for field, values in batch_values(want).items():
        diff = np.abs(got[field] - values)
        assert np.all(diff <= 1e-12 * np.maximum(np.abs(values), 1.0)), field


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
