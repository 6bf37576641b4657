"""Dense complex Hermitian operator algebra on a battery-first tensor product space.

The composite Hilbert space always factors as W (x) S (x) B (x) A with the
battery W as the *first* Kronecker factor, so lifting a battery operator to
the full space is a plain left Kronecker product, ``kron(F, eye(env_dim))``.

Everything here is dense and immutable after construction; the intended
scale is a total dimension D <= 64, where exact eigendecomposition is cheap.
Each check is written once, over stacks of matrices (N, D, D) that record the
first failure of every row in `RowErrors`; `HermitianOperator` and
`DensityMatrix` run the same code on a one-row stack and raise that row's
error, and `_one_row` does the same for any stack function.

The Hermiticity check, which also rejects NaN and infinite entries, runs at
the boundaries, where a matrix enters: the classes' constructors, through
which every parsed input passes. A matrix that passed it is finite and
exactly Hermitian, since (A + A^dag)/2 is, and so is a real diagonal shift
or a real multiple of it; code that only shifts or scales such a matrix does
not check it again. The drawn F and V are built exactly Hermitian, so their
draw checks only that their entries are finite.

A state is decomposed at most once, where it enters. `density_stack` judges
a matrix on its `eigh` eigenpairs (w, u) and hands out only the factor
u sqrt(clip(w, 0)). A state built as Q Q^dag / Tr from a factor Q (D x r),
such as a draw or a ket, is Hermitian and positive semidefinite by
construction: `factor_stack` checks Q's entries, trace and purity, with
DensityMatrix's messages, and decomposes nothing. A `DensityMatrix` keeps
the factor it was checked on: the moment kernel takes every state as one.
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


def _is_integer(value) -> bool:
    """An integer as JSON or numpy writes one: not a bool, float or string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number as JSON or numpy writes one: not a bool or string."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


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
            if not _is_integer(value) or value < 1:
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
        """The structure of four integer dimensions (W, S, B, A); nothing is converted."""
        dims = tuple(dims)
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
    """(A + A^dag)/2 per row after the residual check; `a` itself when it is exactly Hermitian.

    A row with a NaN or infinite entry is rejected and comes back as zeros,
    which no later step of its batch can fail to decompose.
    """
    adj = _adjoint(a)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: handled below
        residual = _max_abs(a - adj)
    if not np.isfinite(residual).all():  # as a NaN or infinite entry makes it
        bad = ~np.isfinite(a).all(axis=(-2, -1))
        rows.record(bad, lambda i: RejectedInputError("matrix has a non-finite entry"))
        a = np.where(bad[:, None, None], 0.0, a)
        adj, residual = _adjoint(a), np.where(bad, 0.0, residual)
    rows.record(residual > HERMITICITY_TOL,
                lambda i: RejectedInputError(message.format(residual[i], HERMITICITY_TOL)))
    if not np.count_nonzero(residual):
        return a  # (A + A^dag)/2 would reproduce A bit for bit
    return (a + adj) / 2.0


def hermitian_stack(rows: RowErrors, a: np.ndarray) -> np.ndarray:
    """HermitianOperator's check and symmetrization over a stack (N, D, D)."""
    return _symmetrized(rows, a, "matrix is not Hermitian: max|A - A^dag| = {:.3e} > {}")


def norm_sq_stack(a: np.ndarray) -> np.ndarray:
    """|A|^2 = Tr(A^dag A) of each matrix in a stack, as the sum of its entries' squared moduli.

    Tr(rho^2) of a Hermitian rho, and Tr(Q Q^dag) of a factor Q.
    """
    return (a.real * a.real + a.imag * a.imag).sum(axis=(-2, -1))


def _check_purity(rows: RowErrors, p: np.ndarray, dim: int) -> None:
    rows.record(~((1.0 / dim - 1e-10 <= p) & (p <= 1.0 + 1e-10)), lambda i: NumericalIntegrityError(
        f"purity {float(p[i])!r} outside [1/{dim}, 1]"))


def _check_trace(rows: RowErrors, tr: np.ndarray) -> np.ndarray:
    """Record the rows whose trace is not 1 within TRACE_INPUT_TOL; returns the traces, 1 on those rows."""
    bad = np.abs(tr - 1.0) > TRACE_INPUT_TOL
    rows.record(bad, lambda i: RejectedInputError(
        f"density matrix trace {tr[i]!r} is not 1 within {TRACE_INPUT_TOL}"))
    return np.where(bad, 1.0, tr)


def density_stack(rows: RowErrors, a: np.ndarray):
    """DensityMatrix's checks and repairs over a stack; returns (states, factors).

    Each row is divided by its trace and decomposed once by `eigh`; its
    factor is u sqrt(clip(w, 0)) from those eigenpairs (w, u), D x D, and
    is what the moment kernel takes. A row with an eigenvalue in the clamp
    window [-PSD_TOL, 0) is replaced by the state of its factor,
    `factor_states`, so every returned state is its factor's.
    """
    a = _symmetrized(rows, a, "density matrix is not Hermitian: residual {:.3e} > {}")
    tr = _check_trace(rows, np.trace(a, axis1=-2, axis2=-1).real)
    a = a / tr[:, None, None]
    w, u = np.linalg.eigh(a)
    w_min = w.min(axis=-1, initial=np.inf)
    rows.record(w_min < -PSD_TOL, lambda i: NotPositiveSemidefiniteError(
        f"density matrix has eigenvalue {w_min[i]:.3e} < -{PSD_TOL}"))
    q = u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    clamp = w_min < 0.0
    if clamp.any():
        a[clamp] = factor_states(q[clamp])
    _check_purity(rows, norm_sq_stack(a), a.shape[-1])
    return a, q


def factor_stack(rows: RowErrors, q: np.ndarray) -> np.ndarray:
    """DensityMatrix's checks of the states Q Q^dag / Tr, over a stack of their factors q (N, D, r).

    Such a state is Hermitian and positive semidefinite by construction, so
    what is left is checked on Q itself: finite entries, Tr(Q Q^dag) = |Q|^2
    within TRACE_INPUT_TOL of 1, and the purity |Q^dag Q|^2 / |Q|^4 in
    [1/D, 1]. No D x D matrix is formed. Returns q, with zeros for a row
    that has a non-finite entry.
    """
    finite = np.isfinite(q).all(axis=(-2, -1))
    if not finite.all():
        rows.record(~finite, lambda i: RejectedInputError("matrix has a non-finite entry"))
        q = np.where(finite[:, None, None], q, 0.0)
    t = _check_trace(rows, norm_sq_stack(q))
    _check_purity(rows, norm_sq_stack(_adjoint(q) @ q) / (t * t), q.shape[-2])
    return q


def factor_states(q: np.ndarray) -> np.ndarray:
    """The states Q Q^dag / Tr of a stack of factors q (N, D, r), exactly Hermitian."""
    a = q @ _adjoint(q)
    a = (a + _adjoint(a)) / 2.0
    return a / np.trace(a, axis1=-2, axis2=-1).real[:, None, None]


def _one_row(stack_fn, *mats):
    """Run a stack function on one matrix per argument; raise the row's error or return its output."""
    rows = RowErrors(1)
    out = stack_fn(rows, *(m[None] for m in mats))
    rows.raise_first()
    return out


class _CheckedMatrix:
    """An immutable matrix `mat` that passed the construction checks of its class."""

    __slots__ = ("mat",)

    def _freeze(self, a: np.ndarray, name: str = "mat") -> None:
        a.setflags(write=False)
        object.__setattr__(self, name, a)

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
    """Positive semidefinite, unit-trace Hermitian matrix, and a factor of it.

    Construction from a matrix symmetrizes, renormalizes the trace, and
    applies the PSD repair policy of `density_stack`: eigenvalues in
    [-1e-10, 0) are clamped to zero (round-off from propagation), anything
    below -1e-10 is rejected as a genuine error. `factor` is the factor
    `density_stack` hands out, or the Q of `from_factor` and `from_ket`: a
    D x r matrix with factor factor^dag / |factor|^2 = mat to round-off,
    and what the moment kernel takes.
    """

    __slots__ = ("factor",)

    def __init__(self, mat):
        (a,), (q,) = _one_row(density_stack, _as_complex_square(mat))
        self._freeze(a)
        self._freeze(q, "factor")

    @classmethod
    def from_factor(cls, q) -> "DensityMatrix":
        """The state Q Q^dag / Tr of a factor Q (D x r), checked by `factor_stack`; Q is its factor."""
        q = _one_row(factor_stack, np.asarray(q, dtype=complex))[0].copy()
        obj = cls.wrap_checked(factor_states(q[None])[0])
        obj._freeze(q, "factor")
        return obj

    def purity(self) -> float:
        """Tr(rho^2), computed as the squared Frobenius norm of the entries."""
        return float(norm_sq_stack(self.mat))

    @classmethod
    def from_ket(cls, psi) -> "DensityMatrix":
        """Rank-1 projector |psi><psi| from a (normalizable) state vector, whose factor is psi / |psi|."""
        v = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise RejectedInputError("cannot build a state from the zero vector")
        return cls.from_factor((v / norm)[:, None])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, purity={self.purity():.6f})"


def eig_stack(rows: RowErrors, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked Hermitian eigendecomposition of each matrix in a stack: (w, u).

    Verifies reconstruction to 1e-9*(1 + max|A|) and column orthonormality
    to 1e-10.
    """
    w, u = np.linalg.eigh(a)
    recon = _max_abs((u * w[..., None, :]) @ _adjoint(u) - a)
    rows.record(recon > 1e-9 * (1.0 + _max_abs(a)), lambda i: NumericalIntegrityError(
        f"eigendecomposition reconstruction error {recon[i]:.3e}"))
    ortho = _max_abs(_adjoint(u) @ u - np.eye(u.shape[-1]))
    rows.record(ortho > 1e-10, lambda i: NumericalIntegrityError(
        f"eigenvector columns not orthonormal: {ortho[i]:.3e}"))
    return w, u


def embed_battery_op(f: HermitianOperator, s: TensorStructure) -> HermitianOperator:
    """Lift a battery operator to the full space as F (x) identity on S,B,A."""
    if f.dim != s.d_w:
        raise DimensionMismatchError(f"battery operator dim {f.dim} != d_w {s.d_w}")
    return HermitianOperator(np.kron(f.mat, np.eye(s.env_dim)))


def matrix_sqrt(rho: DensityMatrix) -> HermitianOperator:
    """Positive square root of a state via spectral decomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero; the root squares back to
    its state within 1e-9 in max norm (checked).
    """
    w, u = _one_row(eig_stack, rho.mat)
    if w.min() < -PSD_TOL:
        raise NotPositiveSemidefiniteError(f"eigenvalue {w.min():.3e} < -{PSD_TOL}")
    root = HermitianOperator(((u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(u))[0])
    err = _max_abs(root.mat @ root.mat - rho.mat)
    if err > 1e-9:
        raise NumericalIntegrityError(f"sqrt(rho)^2 deviates from rho by {err:.3e}")
    return root


def to_matrix_literal(mat) -> dict:
    """JSON-ready dict {dim, re, im} with row-major entry lists."""
    a = mat.mat if isinstance(mat, _CheckedMatrix) else _as_complex_square(mat)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_literal(obj) -> np.ndarray:
    """Parse the {dim, re, im} matrix literal format into a complex ndarray.

    `dim` must be an integer and every entry a number, as JSON writes them:
    a string, a bool or a fractional dim is rejected, not converted.
    """
    if not isinstance(obj, dict):
        raise RejectedInputError(f"matrix literal must be an object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"malformed matrix literal: {exc}") from exc
    if not _is_integer(dim):
        raise RejectedInputError(f"matrix literal dim must be an integer, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise RejectedInputError(
            f"matrix literal arrays must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    # the float conversion above reads "1.5", true and null; the entries themselves may not be those
    if not all(_is_number(x) for rows in (obj["re"], obj["im"]) for row in rows for x in row):
        raise RejectedInputError("matrix literal entries must be numbers")
    return re + 1j * im


def hermitian_from_literal(obj) -> HermitianOperator:
    return HermitianOperator(matrix_from_literal(obj))


def density_from_literal(obj) -> DensityMatrix:
    return DensityMatrix(matrix_from_literal(obj))
