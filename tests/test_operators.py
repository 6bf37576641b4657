import numpy as np
import pytest

from qbattery.moments import compute_moments
from qbattery.operators import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    NotPositiveSemidefiniteError,
    RejectedInputError,
    RowErrors,
    TensorStructure,
    _one_row,
    density_from_literal,
    eig_stack,
    embed_battery_op,
    hermitian_from_literal,
    hermitian_stack,
    matrix_from_literal,
    matrix_sqrt,
    to_matrix_literal,
)

RNG = np.random.default_rng(1234)


def expectation(rho, a):
    """Re Tr(rho A) as the kernel's mean of V = A, Tr(Q^dag A Q) / |Q|^2 on rho's factor Q."""
    return compute_moments(rho, a, a, TensorStructure(a.dim)).mean_v


def partial_trace_to_battery(rho, s):
    """The reduced battery state of `rho`, traced out by einsum and checked as a DensityMatrix."""
    r = rho.mat.reshape(s.d_w, s.env_dim, s.d_w, s.env_dim)
    return DensityMatrix(np.einsum("iaja->ij", r))


def random_hermitian(dim, rng=RNG):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_density(dim, rng=RNG):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / w.trace().real


# ---------------------------------------------------------------- structure

def test_tensor_structure_dims():
    s = TensorStructure.from_dims([2, 2, 2, 1])
    assert (s.d_w, s.d_s, s.d_b, s.d_a) == (2, 2, 2, 1)
    assert s.dim == 8
    assert s.env_dim == 4


def test_tensor_structure_battery_only():
    s = TensorStructure.from_dims([3, 1, 1, 1])
    assert s.dim == 3
    assert s.env_dim == 1


@pytest.mark.parametrize("dims", [
    [0, 1, 1, 1], [2, 0, 1, 1], [2, 1, -1, 1], [2, 1, 1],
    # not integers: rejected, not converted
    [2, 2, 1, 1.9], [2, 2, 1, 1.0], ["2", "2", "1", "1"], "2211", [2, 2, True, True],
])
def test_tensor_structure_rejects_bad_dims(dims):
    with pytest.raises(RejectedInputError):
        TensorStructure.from_dims(dims)


# ---------------------------------------------------------------- hermitian

def test_hermitian_accepts_and_symmetrizes():
    a = random_hermitian(4)
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 1] = 1e-12  # asymmetry below tolerance must be absorbed exactly
    op = HermitianOperator(a + bump)
    assert np.array_equal(op.mat, op.mat.conj().T)
    assert op.dim == 4


def test_hermitian_rejects_asymmetric():
    a = random_hermitian(3)
    a[0, 1] += 1e-6
    with pytest.raises(RejectedInputError):
        HermitianOperator(a)


def test_hermitian_stack_rejects_only_its_own_row():
    # a row of a stack outside the tolerance fails alone, with the error
    # HermitianOperator raises for it; the other rows come out as they are
    rng = np.random.default_rng(8)
    a = np.stack([random_hermitian(4, rng) for _ in range(3)])
    bad = a.copy()
    bad[1, 0, 1] += 1e-6
    rows = RowErrors(3)
    out = hermitian_stack(rows, bad)
    with pytest.raises(RejectedInputError, match="not Hermitian") as exc:
        HermitianOperator(bad[1])
    assert rows[0] is None and rows[2] is None
    assert type(rows[1]) is RejectedInputError and str(rows[1]) == str(exc.value)
    assert np.array_equal(np.delete(out, 1, axis=0), np.delete(a, 1, axis=0))


def test_hermitian_rejects_nonsquare():
    with pytest.raises(RejectedInputError):
        HermitianOperator(np.zeros((2, 3)))


def test_hermitian_matrix_is_readonly():
    op = HermitianOperator(np.eye(2, dtype=complex))
    with pytest.raises((ValueError, RuntimeError)):
        op.mat[0, 0] = 5.0


def test_hermitian_identity():
    op = HermitianOperator.identity(3)
    assert np.array_equal(op.mat, np.eye(3))


# ---------------------------------------------------------------- density

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
@pytest.mark.parametrize("cls", [HermitianOperator, DensityMatrix])
def test_non_finite_entries_are_rejected(cls, bad):
    # on the diagonal, off it, and in both mirrored places, where A - A^dag
    # takes inf - inf; a matrix of huge finite entries is still only not Hermitian
    a = np.eye(2, dtype=complex) / 2.0
    for places in ([(0, 0)], [(0, 1)], [(0, 1), (1, 0)]):
        b = a.copy()
        for i, j in places:
            b[i, j] = bad
        with pytest.raises(RejectedInputError, match="non-finite entry"):
            cls(b)
    with pytest.raises(RejectedInputError, match="not Hermitian"):
        cls(np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex))


def test_density_trace_renormalized_exactly():
    a = random_density(4)
    rho = DensityMatrix(a * (1 + 5e-9))  # inside the input tolerance
    assert abs(rho.mat.trace() - 1.0) <= 1e-12


def test_density_rejects_bad_trace():
    with pytest.raises(RejectedInputError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2


def test_density_clamps_tiny_negative_eigenvalue():
    # -5e-11 sits inside the repairable window
    d = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    rho = DensityMatrix(d)
    ev = np.linalg.eigvalsh(rho.mat)
    assert ev.min() >= -1e-15
    assert abs(rho.mat.trace() - 1.0) <= 1e-12


def test_density_rejects_negative_eigenvalue():
    d = np.diag([1.001, -0.001]).astype(complex)
    with pytest.raises(NotPositiveSemidefiniteError):
        DensityMatrix(d)


def test_density_purity_range():
    for dim in (2, 3, 4):
        rho = DensityMatrix(random_density(dim))
        assert 1.0 / dim - 1e-12 <= rho.purity() <= 1.0 + 1e-12


def test_density_from_ket_normalizes():
    rho = DensityMatrix.from_ket(np.array([3.0, 4.0j]))
    assert abs(rho.purity() - 1.0) <= 1e-12
    assert abs(rho.mat[0, 0] - 0.36) <= 1e-12


def test_maximally_mixed():
    rho = DensityMatrix.maximally_mixed(4)
    assert np.allclose(rho.mat, np.eye(4) / 4)
    assert abs(rho.purity() - 0.25) <= 1e-12


# ---------------------------------------------------------------- eigen

def test_eig_decompose_reconstructs():
    a = random_hermitian(5)
    (w,), (u,) = _one_row(eig_stack, HermitianOperator(a).mat)
    assert np.all(np.diff(w) >= 0)
    back = u @ np.diag(w) @ u.conj().T
    assert np.allclose(back, a, atol=1e-9)
    gram = u.conj().T @ u
    assert np.allclose(gram, np.eye(5), atol=1e-10)


# ---------------------------------------------------------------- tensor ops

def test_embed_battery_op_shape_and_action():
    s = TensorStructure.from_dims([2, 3, 1, 1])
    f = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
    emb = embed_battery_op(f, s)
    assert emb.mat.shape == (6, 6)
    assert np.allclose(emb.mat, np.kron(f.mat, np.eye(3)))


def test_embed_rejects_wrong_dim():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    f = HermitianOperator(np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        embed_battery_op(f, s)


def test_partial_trace_recovers_product_factor():
    s = TensorStructure.from_dims([2, 2, 2, 1])
    rho_w = random_density(2)
    rho_env = random_density(4)
    rho = DensityMatrix(np.kron(rho_w, rho_env))
    red = partial_trace_to_battery(rho, s)
    assert np.allclose(red.mat, rho_w, atol=1e-12)


def test_partial_trace_preserves_expectations():
    # <F x I> in the full state equals <F> in the reduced state
    s = TensorStructure.from_dims([3, 2, 1, 1])
    rho = DensityMatrix(random_density(6))
    f = HermitianOperator(random_hermitian(3))
    full = expectation(rho, embed_battery_op(f, s))
    red = expectation(partial_trace_to_battery(rho, s), f)
    assert abs(full - red) <= 1e-12


# ---------------------------------------------------------------- sqrt

def test_matrix_sqrt_diagonal_case():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    root = matrix_sqrt(rho)
    assert np.allclose(root.mat, np.diag([0.5, np.sqrt(0.75)]), atol=1e-14)


def test_matrix_sqrt_squares_back():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_density(4, rng))
        root = matrix_sqrt(rho).mat
        assert np.allclose(root @ root, rho.mat, atol=1e-10)
        assert np.allclose(root, root.conj().T, atol=1e-12)


# ---------------------------------------------------------------- scalars

def test_expectation_is_real():
    rho = DensityMatrix(random_density(4))
    a = HermitianOperator(random_hermitian(4))
    val = expectation(rho, a)
    assert isinstance(val, float)
    # against plain dense arithmetic
    assert abs(val - np.trace(rho.mat @ a.mat).real) <= 1e-12


# ---------------------------------------------------------------- literals

def test_matrix_literal_roundtrip():
    a = random_hermitian(3)
    lit = to_matrix_literal(a)
    assert lit["dim"] == 3
    assert np.allclose(matrix_from_literal(lit), a)


def test_hermitian_literal_roundtrip():
    op = HermitianOperator(random_hermitian(2))
    back = hermitian_from_literal(to_matrix_literal(op))
    assert np.allclose(back.mat, op.mat)


def test_density_literal_roundtrip():
    rho = DensityMatrix(random_density(2))
    back = density_from_literal(to_matrix_literal(rho))
    assert np.allclose(back.mat, rho.mat)


@pytest.mark.parametrize("bad", [
    {"dim": 2, "re": [[1, 0], [0, 1]]},                          # missing im
    {"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},  # dim mismatch
    {"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},     # ragged
    "not a dict",
    {"dim": 2, "re": "oops", "im": [[0, 0], [0, 0]]},
    # what a float conversion would accept: rejected, not converted
    {"dim": 2.9, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": 2.0, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": True, "re": [[1]], "im": [[0]]},
    {"dim": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": 2, "re": [["1.5", 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[False, False], [False, False]]},
    {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, False], [0, 0]]},
    {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, None], [None, 0]]},
])
def test_matrix_literal_rejects_malformed(bad):
    with pytest.raises(RejectedInputError):
        matrix_from_literal(bad)


# ---------------------------------------------------------------- property sweeps

def test_partial_trace_duality_sweep():
    # <F x I> in the full state equals <F> reduced, across structures
    for dims in [(2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1)]:
        s = TensorStructure.from_dims(list(dims))
        rng = np.random.default_rng(hash(dims) % 2**32)
        for _ in range(200):
            rho = DensityMatrix(random_density(s.dim, rng))
            f = HermitianOperator(random_hermitian(s.d_w, rng))
            lhs = expectation(partial_trace_to_battery(rho, s), f)
            rhs = expectation(rho, embed_battery_op(f, s))
            assert abs(lhs - rhs) <= 1e-10


def test_matrix_sqrt_idempotence_sweep():
    rng = np.random.default_rng(202)
    dims = [2, 3, 4, 6, 8, 12, 16]
    for i in range(200):
        d = dims[i % len(dims)]
        rho = DensityMatrix(random_density(d, rng))
        root = matrix_sqrt(rho).mat
        assert np.abs(root @ root - rho.mat).max() <= 1e-9


def test_embedding_spectrum_is_repeated():
    s = TensorStructure.from_dims([3, 2, 2, 1])
    f = HermitianOperator(random_hermitian(3))
    emb = embed_battery_op(f, s)
    want = np.sort(np.repeat(np.linalg.eigvalsh(f.mat), s.env_dim))
    got = np.sort(np.linalg.eigvalsh(emb.mat))
    assert np.abs(got - want).max() <= 1e-10


def test_commutator_trace_cyclicity():
    # Tr([rho, X] Y) = Tr(rho [X, Y]); lets the state move inside the bracket
    rng = np.random.default_rng(303)
    for _ in range(50):
        rho = random_density(4, rng)
        x = random_hermitian(4, rng)
        y = random_hermitian(4, rng)
        lhs = np.trace((rho @ x - x @ rho) @ y)
        rhs = np.trace(rho @ (x @ y - y @ x))
        assert abs(lhs - rhs) <= 1e-10


def test_expectation_known_values():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    ket0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    assert expectation(ket0, HermitianOperator(sz)) == pytest.approx(1.0, abs=1e-14)
    mixed = DensityMatrix.maximally_mixed(2)
    assert expectation(mixed, HermitianOperator(sx)) == pytest.approx(0.0, abs=1e-14)
    rho_y = DensityMatrix((np.eye(2) + sy) / 2)
    assert expectation(rho_y, HermitianOperator(sy)) == pytest.approx(1.0, abs=1e-14)
