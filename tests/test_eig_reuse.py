"""One eigendecomposition per state: the draw's checked (w, u) feed sqrt(rho) in the kernel."""

import numpy as np
import pytest

from qbattery.cli import main
from qbattery.dynamics import HamiltonianSpec, exchange_interaction, ground_excited_state, trajectory_report
from qbattery.ensembles import _draw_batch_eig
from qbattery.moments import REPORT_FIELDS, batch_rows, verify_batch
from qbattery.operators import HermitianOperator, NumericalIntegrityError, TensorStructure

KERNEL_DIMS = [(2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 4, 4)]
MOMENT_FIELDS = ("mean_f", "mean_v", "var_f", "var_v", "cov", "purity_w")


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the stacks (ndim 3) passed to numpy.linalg.eigh while the test runs."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def chunk_shapes(n, dim):
    size = batch_rows(dim)
    return [(min(size, n - a), dim, dim) for a in range(0, n, size)]


@pytest.mark.parametrize("dims, trials, extra", [
    ("2,2,1,1", 2500, []),
    ("2,2,4,4", 10, ["--ensemble", "ginibre", "--rank", "4"]),
])
def test_verify_decomposes_each_state_once(tmp_path, eigh_shapes, dims, trials, extra):
    s = TensorStructure.from_dims([int(d) for d in dims.split(",")])
    argv = ["verify", "--dims", dims, "--trials", str(trials), *extra, "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0
    # one D x D stack per chunk, in the draw's state check; the rest are reduced battery states
    assert [x for x in eigh_shapes if x[-1] == s.dim] == chunk_shapes(trials, s.dim)


def test_trajectory_decomposes_each_state_once(eigh_shapes):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
                        v=exchange_interaction(1.0, s), structure=s)
    rho0, f = ground_excited_state(s), HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    grid = np.linspace(0.0, 3.0, 2100)
    eigh_shapes.clear()  # building rho0 checked it
    trajectory_report(rho0, h, f, grid)
    # H once, then one stack of propagated states per chunk
    assert [x for x in eigh_shapes if x[-1] == s.dim] == [(1, 4, 4)] + chunk_shapes(len(grid), 4)


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
    unclamped = np.array([np.array_equal(w[i], eig[0][i]) and np.array_equal(u[i], eig[1][i])
                          for i in range(n)])
    with_factors = verify_batch(rho, f, v, s, rho_eig=eig)
    without = verify_batch(rho, f, v, s)
    assert with_factors.errors == without.errors == [None] * n
    got, want = batch_values(with_factors), batch_values(without)
    for name in want:
        assert np.array_equal(got[name][unclamped], want[name][unclamped]), name
        diff = np.abs(got[name] - want[name])
        assert np.all(diff <= 1e-12 * np.maximum(np.abs(want[name]), 1.0)), name
    if kind == "haar":
        assert not unclamped.all()  # rank-1 states: round-off below 0 gets clamped
    if kind == "mix":
        assert unclamped[1::2].all()  # full-rank Ginibre rows are never clamped


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
