"""At most one eigendecomposition per state, where the state is built; the kernel takes its factor.

A drawn state is its factor Q = K / |K|_F, checked on Q itself: no
decomposition runs for it, in the chunks or in the writer, which forms the
reported state from its factor. A ket is its own factor, and so is a
battery eigenstate product, F's eigenvector (x) the rest's factor: neither
runs a D x D `eigh`. A state given as a matrix is decomposed once, by
`density_stack` when it is parsed. A trajectory decomposes only H: the
kernel takes U(t) rho0.factor at every grid point. `eig_stack` checks the
eigenpairs `eigh` gives it for reconstruction and orthonormality, so a
corrupted pair fails its row there, and H's fails the trajectory.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import qbattery.dynamics as dynamics
from qbattery.cli import main
from qbattery.dynamics import (
    HamiltonianSpec,
    builtin_exchange_scenario,
    exchange_interaction,
    ground_excited_state,
    parse_scenario,
    trajectory_report,
)
from qbattery.ensembles import (
    SeedSpec,
    battery_eigenstate_product,
    ginibre_mixed,
    gue_hermitian,
    haar_pure,
)
from qbattery.moments import REPORT_FIELDS, _verify_checked
from qbattery.operators import (
    DensityMatrix,
    HermitianOperator,
    NumericalIntegrityError,
    RowErrors,
    TensorStructure,
    _one_row,
    density_stack,
    eig_stack,
    factor_states,
    to_matrix_literal,
)
from draws import state_factors
from test_exact_terms import GATE_BOUNDS, exact, exact_columns, exact_state

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


@pytest.mark.parametrize("dims, trials, extra", [
    ("2,2,1,1", 2500, []),
    ("2,2,4,4", 10, ["--ensemble", "ginibre", "--rank", "4"]),
    ("2,2,1,1", 2500, ["--ensemble", "haar"]),
])
def test_verify_decomposes_each_state_once(tmp_path, eigh_shapes, svd_shapes, eigvalsh_shapes,
                                           dims, trials, extra):
    out = tmp_path / "o.json"
    assert main(["verify", "--dims", dims, "--trials", str(trials), *extra, "--out", str(out)]) == 0
    # every state, pure, rank-deficient or of full rank, is checked on its
    # factor and verified on it; the reported instance's state is formed from
    # its factor: no eigh, eigvalsh or SVD runs in the whole command
    assert json.loads(out.read_text())["worst_case"]["trial"] in range(trials)
    assert eigh_shapes == svd_shapes == eigvalsh_shapes == []


def test_trajectory_decomposes_each_state_once(eigh_shapes):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = HamiltonianSpec(h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
                        v=exchange_interaction(1.0, s), structure=s)
    rho0, f = ground_excited_state(s), HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    assert eigh_shapes == []  # a ket is its own factor
    trajectory_report(rho0, h, f, np.linspace(0.0, 3.0, 2100))
    # H once; the kernel takes U(t) rho0.factor and decomposes nothing
    assert eigh_shapes == [(1, 4, 4)]


@pytest.mark.parametrize("dims, rank", [([2, 2, 1, 1], 3), ([2, 2, 2, 2], 16)])
def test_literal_rho0_is_decomposed_once_at_parse(eigh_shapes, dims, rank):
    s = TensorStructure.from_dims(dims)
    doc_rho0 = to_matrix_literal(ginibre_mixed(s.dim, rank, SeedSpec(17, 3)))
    assert eigh_shapes == []  # a draw is its factor
    rho0, h, f, grid = parse_scenario({**builtin_exchange_scenario(steps=40), "structure": dims,
                                       "rho0": doc_rho0})
    assert eigh_shapes == [(1, s.dim, s.dim)]  # rho0, by density_stack
    eigh_shapes.clear()
    trajectory_report(rho0, h, f, grid)
    assert eigh_shapes == [(1, s.dim, s.dim)]  # H, and not rho0 again


def test_kets_and_eigenstate_products_run_no_state_decomposition(eigh_shapes):
    s = TensorStructure.from_dims([3, 2, 2, 1])
    ket = DensityMatrix.from_ket(np.arange(1.0, 13.0) + 0.5j)
    assert eigh_shapes == []
    assert ket.factor.shape == (12, 1)
    f = gue_hermitian(3, 1.0, SeedSpec(41))
    for rest in (haar_pure(4, SeedSpec(42)), ginibre_mixed(4, 3, SeedSpec(43))):
        eigh_shapes.clear()
        prod = battery_eigenstate_product(f, 1, rest, s)
        assert eigh_shapes == [(1, 3, 3)]  # F's eigenpairs only
        assert prod.state.factor.shape == (12, rest.factor.shape[1])


def batch_values(batch):
    values = {k: getattr(batch, k) for k in REPORT_FIELDS}
    values.update({k: getattr(batch.moments, k) for k in MOMENT_FIELDS})
    return values


def corrupt_swap_columns(w, u):
    u = u.copy()
    u[1, :, [0, -1]] = u[1, :, [-1, 0]]
    return w, u


def corrupt_eigenvalue(w, u):
    w = w.copy()
    w[1, -1] += 1e-6
    return w, u


@pytest.mark.parametrize("corrupt", [corrupt_swap_columns, corrupt_eigenvalue])
def test_corrupted_factor_fails_its_row_through_the_eig_checks(monkeypatch, corrupt):
    # eigh's own pairs, corrupted in one row as they leave eigh
    s = TensorStructure.from_dims([2, 2, 1, 1])
    h = np.stack([gue_hermitian(s.dim, 1.0, SeedSpec(42, k)).mat for k in range(3)])
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: corrupt(*real(a)))
    errors = RowErrors(3)
    eig_stack(errors, h)
    assert isinstance(errors[1], NumericalIntegrityError)
    assert "eigendecomposition reconstruction" in str(errors[1])
    assert errors[0] is None and errors[2] is None


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
    """|ratio - the saturation ratio of (rho, F, V)|, the latter taken exactly in Fractions; rho exact."""
    want = exact_columns(rho, exact(f), exact(v), s.env_dim)["saturation_ratio"]
    return abs(float(Fraction(float(ratio)) - want))


# The exact gate's ratio bound for a state taken as a matrix, by the trace
# route of rho itself, before the kernel took factors; a state given as a
# matrix now goes through its eigh factor, whose error is of that size.
MATRIX_RATIO_TOL = 5e-12


def carried_states(rho0, h, grid):
    """The states U(t) rho0 U(t)^dag as the trajectory carries them: (Q_t Q_t^dag, Q_t), Q_t = U(t) Q0."""
    (w,), (vec,) = _one_row(eig_stack, h.total().mat)
    q = dynamics._evolved(w, vec, rho0.factor, np.asarray(grid))
    return q @ q.conj().swapaxes(-1, -2), q


@pytest.mark.parametrize("name", CARRIED_SCENARIOS)
def test_carried_eigenpairs_match_a_fresh_eigh_of_every_state(name):
    rho0, h, f, grid = carried_scenario(name)
    s = h.structure
    traj = trajectory_report(rho0, h, f, grid)

    # the reference: the same states formed, then each decomposed again as a DensityMatrix
    carried = carried_states(rho0, h, grid)[0]
    n = len(grid)
    rows = RowErrors(n)
    states = density_stack(rows, carried)[0]
    want = _verify_checked(state_factors(states), np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                           np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s)
    assert rows == want.errors == [None] * n
    got = batch_values(traj.report)
    for field, values in batch_values(want).items():
        diff = np.abs(got[field] - values)
        close = diff <= 1e-12 * np.maximum(np.abs(values), 1.0)
        if field == "saturation_ratio" and s.dim <= 4:
            # The reference forms each state and takes a new eigh factor of
            # it, so the two routes' states differ in their last bits; at
            # D <= 4 a ratio near 1 carries that into its 12th digit. There
            # each route's ratio is held to its own state's exact value: the
            # trajectory's to its factor's, at the exact gate's bound, and
            # the reference's to the state it was given.
            factors = carried_states(rho0, h, grid)[1]
            for i in np.flatnonzero(~close):
                close[i] = (exact_ratio_error(exact_state(factors[i]), f.mat, h.v.mat, s, got[field][i])
                            <= GATE_BOUNDS["saturation_ratio"][0]
                            and exact_ratio_error(exact(states[i]), f.mat, h.v.mat, s, values[i])
                            <= MATRIX_RATIO_TOL)
        assert np.all(close), field


def test_carried_spectrum_is_rho0s(monkeypatch):
    rho0, h, f, grid = scenario([2, 2, 1, 1], 3)
    seen = []
    real = dynamics._verify_checked

    def spy(q, *args):
        seen.append(q)
        return real(q, *args)

    monkeypatch.setattr(dynamics, "_verify_checked", spy)
    trajectory_report(rho0, h, f, grid)
    assert len(seen) == 1  # one chunk
    # each point's factor U(t) rho0.factor has rho0's factor's Gram matrix,
    # diag(p0) with p0 rho0's eigenvalues, clamped at zero
    p0 = np.diag(rho0.factor.conj().T @ rho0.factor).real
    gram = seen[0].conj().swapaxes(-1, -2) @ seen[0]
    assert np.abs(gram - np.diag(p0)).max() <= 1e-15
    assert np.count_nonzero(p0 > 1e-12) == 3 and p0.min() >= 0.0  # rank 3, clamped


def test_pure_rho0_given_as_a_ket_saturates_at_every_point():
    # A pure state's bound saturates in D = 2. Given as a ket, rho0 is its
    # own D x 1 factor and stays pure along the trajectory; an eigh factor
    # of |psi><psi| would carry a column of round-off weight, and verify a
    # slightly mixed state.
    _, h, f, grid = scenario([2, 1, 1, 1], 1)
    rho0 = DensityMatrix.from_ket(ginibre_mixed(2, 1, SeedSpec(17, 3)).factor[:, 0])
    assert rho0.factor.shape == (2, 1)
    ratio = trajectory_report(rho0, h, f, grid).report.saturation_ratio
    assert len(ratio) == 41 and np.all(ratio == 1.0)


def negate_column(u):
    u[:, 0] = -u[:, 0]


def corrupted_evolution(monkeypatch, corrupt, row):
    real = dynamics._evolved

    def evolved(w, vec, q0, times):
        u = real(w, vec, q0, times).copy()
        corrupt(u[row])
        return u

    monkeypatch.setattr(dynamics, "_evolved", evolved)


@pytest.mark.parametrize("name", ["exchange", "D8-rank3", "D16-rank16"])
def test_corrupted_eigenvectors_of_h_raise_through_eig_stack(monkeypatch, name):
    # U(t) is unitary to eig_stack's tolerance: H's eigenvectors, rescaled in
    # one column as they leave eigh, fail its checks, and the trajectory raises
    rho0, h, f, grid = carried_scenario(name)
    real = np.linalg.eigh

    def rescaled(a):
        w, u = real(a)
        u = u.copy()
        u[..., 0] *= 1.0 + 1e-6
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", rescaled)
    with pytest.raises(NumericalIntegrityError, match="eigendecomposition reconstruction error"):
        trajectory_report(rho0, h, f, grid)


def test_a_negated_carried_eigenvector_is_the_same_eigenpair(monkeypatch):
    # -u_k is an eigenvector wherever u_k is: the factor's state, and every
    # inner product of the kernel, a sum over k of the columns' terms, does not change
    rho0, h, f, grid = carried_scenario("D8-rank8")
    want = trajectory_report(rho0, h, f, grid)
    corrupted_evolution(monkeypatch, negate_column, 5)
    got = trajectory_report(rho0, h, f, grid)
    for field, values in batch_values(want.report).items():
        diff = np.abs(batch_values(got.report)[field] - values)
        assert np.all(diff <= 1e-14 * np.maximum(np.abs(values), 1.0)), field


def test_eig_stack_checks_eigenvector_orthonormality(monkeypatch):
    # a column of a zero eigenvalue may be scaled without changing the
    # reconstruction; only the orthonormality check sees it
    u = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + 1j * np.eye(3))[0]
    a = np.stack([(u * np.array([0.0, 1.0, 2.0])) @ u.conj().T] * 2)
    real = np.linalg.eigh

    def scaled(m):
        w, vec = real(m)
        vec = vec.copy()
        vec[1, :, np.argmin(np.abs(w[1]))] *= 2.0
        return w, vec

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    rows = RowErrors(2)
    eig_stack(rows, a)
    assert rows[0] is None and "eigenvector columns not orthonormal: 3.0" in str(rows[1])


def test_density_stack_returns_factors_of_the_returned_state():
    u = np.linalg.qr(np.array([[1.0, 2.0j, 0.5], [0.3, -1.0, 1.0j], [2.0, 0.1, 1.0]]))[0]
    for w, clamped in (([0.2, 0.3, 0.5 + 1e-9], False),  # trace 1 + 1e-9: divided by it
                       ([-5e-11, 0.4, 0.6 + 5e-11], True)):  # an eigenvalue in the clamp window
        state = ((u * np.array(w)) @ u.conj().T)[None]
        rows = RowErrors(1)
        out, q = density_stack(rows, state)
        assert rows == [None]
        assert q.shape == (1, 3, 3)
        assert np.abs(np.trace(out[0]) - 1.0) <= 1e-15
        # the factor the kernel takes for a state given as a matrix: its
        # state Q Q^dag / |Q|^2 is the returned state, bit for bit where a
        # row was clamped, as it is built from its factor
        if clamped:
            assert np.array_equal(out, factor_states(q))
        assert np.abs(factor_states(q) - out).max() <= 1e-15
