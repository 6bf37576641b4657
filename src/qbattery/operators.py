"""Dense complex Hermitian operator algebra on a battery-first tensor product space.

The composite Hilbert space always factors as W (x) S (x) B (x) A with the
battery W as the *first* Kronecker factor, so lifting a battery operator to
the full space is a plain left Kronecker product, ``kron(F, eye(env_dim))``.

Everything here is dense and immutable after construction; the intended
scale is a total dimension D <= 64, where exact eigendecomposition is cheap.
Each check is written once, over stacks of matrices (N, D, D) that record the
first failure of every row in `RowErrors`; the one-instance classes and
functions run the same code on a one-row stack and raise that row's error.

A state is decomposed once: `density_stack` returns the eigenpairs its PSD
check computed, and `eig_stack` and `sqrt_stack` accept them in place of a
second `eigh`, running all of their own checks on them.
"""

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_INPUT_TOL = 1e-8


class RejectedInputError(ValueError):
    """Input fails a construction precondition."""


class DimensionMismatchError(RejectedInputError):
    """Operands live on Hilbert spaces of different dimension."""


class NotPositiveSemidefiniteError(RejectedInputError):
    """An eigenvalue sits below the -1e-10 repair window."""


class NumericalIntegrityError(RuntimeError):
    """A quantity that is exact in real arithmetic failed its tolerance check."""


def _as_complex_square(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise RejectedInputError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class TensorStructure:
    """Subsystem dimensions (battery, system, bath, ancilla), battery first."""

    d_w: int
    d_s: int = 1
    d_b: int = 1
    d_a: int = 1

    def __post_init__(self):
        for name in ("d_w", "d_s", "d_b", "d_a"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise RejectedInputError(f"{name} must be a positive integer, got {value!r}")

    @property
    def dim(self) -> int:
        """Total dimension D of the composite space."""
        return self.d_w * self.d_s * self.d_b * self.d_a

    @property
    def env_dim(self) -> int:
        """Dimension of everything but the battery (S, B and A together)."""
        return self.d_s * self.d_b * self.d_a

    @classmethod
    def from_dims(cls, dims) -> "TensorStructure":
        dims = tuple(int(d) for d in dims)
        if len(dims) != 4:
            raise RejectedInputError(f"expected 4 dimensions (W,S,B,A), got {len(dims)}")
        return cls(*dims)


class RowErrors(list):
    """The first failed check of each row of a stacked batch, or None for a clean row.

    Batched code runs every check over the whole stack, in the order the
    one-instance code runs them; a row keeps the error of the first check it
    fails, which is the exception the one-instance call raises for it.
    """

    def __init__(self, n: int):
        super().__init__([None] * n)

    def record(self, bad: np.ndarray, error) -> None:
        """Rows where `bad` holds fail with `error(i)`, unless an earlier check failed them."""
        if np.count_nonzero(bad):
            for i in np.flatnonzero(bad):
                if self[i] is None:
                    self[i] = error(i)

    def raise_first(self) -> None:
        for err in self:
            if err is not None:
                raise err


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _max_abs(a: np.ndarray) -> np.ndarray:
    """max |entry| of each matrix in a stack (0 for empty matrices)."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def _symmetrized(rows: RowErrors, a: np.ndarray, message: str) -> np.ndarray:
    """(A + A^dag)/2 per row after the residual check; `a` itself when it is exactly Hermitian."""
    adj = _adjoint(a)
    residual = _max_abs(a - adj)
    rows.record(residual > HERMITICITY_TOL,
                lambda i: RejectedInputError(message.format(residual[i], HERMITICITY_TOL)))
    if not np.count_nonzero(residual):
        return a  # (A + A^dag)/2 would reproduce A bit for bit
    return (a + adj) / 2.0


def hermitian_stack(rows: RowErrors, a: np.ndarray) -> np.ndarray:
    """HermitianOperator's check and symmetrization over a stack (N, D, D)."""
    return _symmetrized(rows, a, "matrix is not Hermitian: max|A - A^dag| = {:.3e} > {}")


def purity_stack(a: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of each state, as the squared Frobenius norm of its entries."""
    return (np.abs(a) ** 2).sum(axis=(-2, -1))


def density_stack(rows: RowErrors, a: np.ndarray):
    """DensityMatrix's checks and repairs over a stack; returns (states, purities, (w, u)).

    (w, u) are the eigenpairs of the returned states, for `eig_stack` to check
    and reuse: eigh's own for a row left as it was, and (clip(w) / t, u) for a
    row whose eigenvalues were clamped, t being the trace it was divided by.
    """
    a = _symmetrized(rows, a, "density matrix is not Hermitian: residual {:.3e} > {}")
    tr = np.trace(a, axis1=-2, axis2=-1).real
    bad_trace = np.abs(tr - 1.0) > TRACE_INPUT_TOL
    rows.record(bad_trace, lambda i: RejectedInputError(
        f"density matrix trace {tr[i]!r} is not 1 within {TRACE_INPUT_TOL}"))
    a = a / np.where(bad_trace, 1.0, tr)[:, None, None]
    w, u = np.linalg.eigh(a)
    w_min = w.min(axis=-1, initial=np.inf)
    rows.record(w_min < -PSD_TOL, lambda i: NotPositiveSemidefiniteError(
        f"density matrix has eigenvalue {w_min[i]:.3e} < -{PSD_TOL}"))
    clamp = w_min < 0.0
    if clamp.any():
        uc, wc = u[clamp], np.clip(w[clamp], 0.0, None)
        b = (uc * wc[:, None, :]) @ _adjoint(uc)
        b = (b + _adjoint(b)) / 2.0
        t = np.trace(b, axis1=-2, axis2=-1).real
        a[clamp] = b / t[:, None, None]
        w[clamp] = wc / t[:, None]
    p = purity_stack(a)
    dim = a.shape[-1]
    rows.record(~((1.0 / dim - 1e-10 <= p) & (p <= 1.0 + 1e-10)), lambda i: NumericalIntegrityError(
        f"purity {float(p[i])!r} outside [1/{dim}, 1]"))
    return a, p, (w, u)


def _one_row(stack_fn, *mats):
    """Run a stack function on one matrix per argument; raise its error or return row 0."""
    rows = RowErrors(1)
    out = stack_fn(rows, *(m[None] for m in mats))
    rows.raise_first()
    return out


class _CheckedMatrix:
    """An immutable matrix `mat` that passed the construction checks of its class."""

    __slots__ = ("mat",)

    def _freeze(self, a: np.ndarray) -> None:
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @classmethod
    def wrap_checked(cls, a: np.ndarray):
        """Wrap, as it is, a row that this class's stacked check has already passed."""
        obj = object.__new__(cls)
        obj._freeze(a)
        return obj

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class HermitianOperator(_CheckedMatrix):
    """A dim x dim complex matrix, checked and symmetrized at construction.

    The residual max|A - A^dag| must not exceed 1e-10; within that window the
    entries are replaced by (A + A^dag)/2 so downstream algebra never sees
    accumulated asymmetry.
    """

    __slots__ = ()

    def __init__(self, mat):
        # copied: hermitian_stack hands back exactly Hermitian input as it is
        self._freeze(_one_row(hermitian_stack, _as_complex_square(mat))[0].copy())

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=complex))

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class DensityMatrix(_CheckedMatrix):
    """Positive semidefinite, unit-trace Hermitian matrix.

    Construction symmetrizes, renormalizes the trace, and applies the PSD
    repair policy: eigenvalues in [-1e-10, 0) are clamped to zero (round-off
    from propagation), anything below -1e-10 is rejected as a genuine error.
    """

    __slots__ = ()

    def __init__(self, mat):
        self._freeze(_one_row(density_stack, _as_complex_square(mat))[0][0])

    def purity(self) -> float:
        """Tr(rho^2), computed as the squared Frobenius norm of the entries."""
        return float(purity_stack(self.mat))

    @classmethod
    def from_ket(cls, psi) -> "DensityMatrix":
        """Rank-1 projector |psi><psi| from a (normalizable) state vector."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise RejectedInputError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, purity={self.purity():.6f})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def eig_stack(rows: RowErrors, a: np.ndarray, factors=None) -> tuple[np.ndarray, np.ndarray]:
    """Checked Hermitian eigendecomposition of each matrix in a stack: (w, u).

    Verifies reconstruction to 1e-9*(1 + max|A|) and column orthonormality
    to 1e-10. `factors`, when given, are (w, u) computed earlier (as
    `density_stack` returns them) and take the place of a new `eigh`; they
    pass the same checks.
    """
    w, u = np.linalg.eigh(a) if factors is None else factors
    scale = 1.0 + _max_abs(a)
    recon = (u * w[..., None, :]) @ _adjoint(u)
    recon -= a  # in place: D = 64 stacks are large
    recon = _max_abs(recon)
    rows.record(recon > 1e-9 * scale, lambda i: NumericalIntegrityError(
        f"eigendecomposition reconstruction error {recon[i]:.3e}"))
    ortho = _adjoint(u) @ u
    ortho -= np.eye(a.shape[-1])
    ortho = _max_abs(ortho)
    rows.record(ortho > 1e-10, lambda i: NumericalIntegrityError(
        f"eigenvector columns not orthonormal: {ortho[i]:.3e}"))
    return w, u


def eig_decompose(op) -> EigenDecomposition:
    """Checked Hermitian eigendecomposition A = U diag(w) U^dag (see `eig_stack`).

    The checks run before returning, so callers can rely on the factors blindly.
    """
    a = op.mat if isinstance(op, _CheckedMatrix) else _as_complex_square(op)
    w, u = _one_row(eig_stack, a)
    w, u = w[0], u[0]
    w.setflags(write=False)
    u.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, vectors=u)


def kron_identity(f: np.ndarray, env_dim: int) -> np.ndarray:
    """F (x) identity(env_dim) for each F in a stack (N, d_w, d_w)."""
    n, d_w = f.shape[0], f.shape[-1]
    out = np.zeros((n, d_w, env_dim, d_w, env_dim), dtype=complex)
    for k in range(env_dim):
        out[:, :, k, :, k] = f
    return out.reshape(n, d_w * env_dim, d_w * env_dim)


def embed_battery_op(f: HermitianOperator, s: TensorStructure) -> HermitianOperator:
    """Lift a battery operator to the full space as F (x) identity on S,B,A."""
    if f.dim != s.d_w:
        raise DimensionMismatchError(f"battery operator dim {f.dim} != d_w {s.d_w}")
    return HermitianOperator(kron_identity(f.mat[None], s.env_dim)[0])


def partial_trace_stack(rho: np.ndarray, s: TensorStructure) -> np.ndarray:
    """Reduced battery matrix of each state in a stack, tracing out S, B and A."""
    r = rho.reshape(rho.shape[0], s.d_w, s.env_dim, s.d_w, s.env_dim)
    return np.einsum("niaja->nij", r)


def partial_trace_to_battery(rho: DensityMatrix, s: TensorStructure) -> DensityMatrix:
    """Reduced battery state, tracing out the S, B and A factors."""
    if rho.dim != s.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != structure dim {s.dim}")
    return DensityMatrix(partial_trace_stack(rho.mat[None], s)[0])


def sqrt_stack(rows: RowErrors, rho: np.ndarray, factors=None) -> np.ndarray:
    """Positive square root of each state in a stack via spectral decomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero; each root squares back to
    its state within 1e-9 in max norm (checked). `factors` are passed on to
    `eig_stack`.
    """
    w, u = eig_stack(rows, rho, factors)
    w_min = w.min(axis=-1, initial=np.inf)
    rows.record(w_min < -PSD_TOL, lambda i: NotPositiveSemidefiniteError(
        f"eigenvalue {w_min[i]:.3e} < -{PSD_TOL}"))
    root = (u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(u)
    root = hermitian_stack(rows, root)
    err = root @ root
    err -= rho
    err = _max_abs(err)
    rows.record(err > 1e-9, lambda i: NumericalIntegrityError(
        f"sqrt(rho)^2 deviates from rho by {err[i]:.3e}"))
    return root


def matrix_sqrt(rho: DensityMatrix) -> HermitianOperator:
    """Positive square root of a state (see `sqrt_stack`)."""
    return HermitianOperator(_one_row(sqrt_stack, rho.mat)[0])


def trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(A B) for each pair of matrices in two stacks."""
    return np.einsum("nij,nji->n", a, b)


def expectation_stack(rows: RowErrors, rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Re Tr(rho A) per row; the imaginary part must vanish to 1e-10 (both are Hermitian)."""
    t = trace_product(rho, a)
    rows.record(np.abs(t.imag) > 1e-10 * (1.0 + np.abs(t.real)), lambda i: NumericalIntegrityError(
        f"expectation has imaginary part {t.imag[i]:.3e}"))
    return t.real


def expectation(rho: DensityMatrix, a: HermitianOperator) -> float:
    """Re Tr(rho A) (see `expectation_stack`)."""
    if rho.dim != a.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != operator dim {a.dim}")
    return float(_one_row(expectation_stack, rho.mat, a.mat)[0])


def antihermitian_stack(rows: RowErrors, c: np.ndarray) -> np.ndarray:
    """Check that each commutator in a stack is anti-Hermitian to 1e-10*(1 + max|C|)."""
    scale = 1.0 + _max_abs(c)
    residual = _max_abs(c + _adjoint(c))
    rows.record(residual > 1e-10 * scale, lambda i: NumericalIntegrityError(
        f"commutator not anti-Hermitian: residual {residual[i]:.3e}"))
    return c


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA for Hermitian A, B; the result is checked to be anti-Hermitian."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dims differ: {a.dim} != {b.dim}")
    return _one_row(antihermitian_stack, a.mat @ b.mat - b.mat @ a.mat)[0]


def to_matrix_literal(mat) -> dict:
    """JSON-ready dict {dim, re, im} with row-major entry lists."""
    a = mat.mat if isinstance(mat, _CheckedMatrix) else _as_complex_square(mat)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_literal(obj) -> np.ndarray:
    """Parse the {dim, re, im} matrix literal format into a complex ndarray."""
    if not isinstance(obj, dict):
        raise RejectedInputError(f"matrix literal must be an object, got {type(obj).__name__}")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"malformed matrix literal: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise RejectedInputError(
            f"matrix literal arrays must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def hermitian_from_literal(obj) -> HermitianOperator:
    return HermitianOperator(matrix_from_literal(obj))


def density_from_literal(obj) -> DensityMatrix:
    return DensityMatrix(matrix_from_literal(obj))
