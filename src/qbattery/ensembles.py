"""Seeded random states and operators for Monte Carlo verification.

Every draw is keyed by a (master_seed, stream_index) pair fed to a Philox
counter-based generator, so trials are independent of each other and of the
order in which they are evaluated. Identical keys give bit-identical draws
on any thread count; the generator choice is part of the package contract
and must not change between releases.

`draw_batch` draws a list of trials as stacks with one Philox generator,
re-keyed before each stream to counter 0, key (master_seed, stream_index)
and an empty buffer, which is the state of a fresh generator with that key;
it then checks each stack once. The other draws are one-row calls of the
same code.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    RejectedInputError,
    RowErrors,
    TensorStructure,
    density_stack,
    eig_decompose,
    hermitian_stack,
)


@dataclass(frozen=True)
class SeedSpec:
    """Key of one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not 0 <= int(value) < 2**64:
                raise RejectedInputError(f"{name} must fit in an unsigned 64-bit integer")

    def rng(self) -> np.random.Generator:
        """Fresh Philox generator keyed by (master_seed, stream_index)."""
        # a uint64 array: a plain list casts seeds >= 2**63 through float64, losing low bits
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, index: int) -> "SeedSpec":
        """Sibling stream with the same master seed."""
        return SeedSpec(self.master_seed, index)


class _Streams:
    """Standard normals of the streams of one master seed, from one re-keyed Philox generator.

    Each object owns its generator; callers do not share one between threads.
    """

    def __init__(self, master_seed: int):
        self._rng = SeedSpec(master_seed).rng()
        self._state = self._rng.bit_generator.state  # counter 0 and an empty buffer

    def complex_normals(self, streams, shape) -> np.ndarray:
        """re + 1j * im per stream, re and im its first two standard-normal arrays of `shape`."""
        parts = np.empty((len(streams), 2, *shape))
        for k, stream in enumerate(streams):
            self._state["state"]["key"][1] = stream
            self._rng.bit_generator.state = self._state
            self._rng.standard_normal(out=parts[k])  # re, then im: the generator fills in C order
        return parts[:, 0] + 1j * parts[:, 1]


def _one_stream(seed: SeedSpec, shape) -> np.ndarray:
    return _Streams(seed.master_seed).complex_normals([seed.stream_index], shape)


def _haar_states(z: np.ndarray) -> np.ndarray:
    """|psi><psi| per row of kets z (N, dim), normalized as DensityMatrix.from_ket does."""
    r, i = z.real[:, None, :], z.imag[:, None, :]
    # np.linalg.norm of one complex vector sums these two real dot products;
    # the same sums keep each row bit-identical to DensityMatrix.from_ket
    norm = np.sqrt(r @ r.swapaxes(-1, -2) + i @ i.swapaxes(-1, -2))[:, 0]
    v = z / norm
    return v[:, :, None] * v.conj()[:, None, :]


def _ginibre_states(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) per row of g (N, dim, rank)."""
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]


def _gue_operators(m: np.ndarray, scale: float) -> np.ndarray:
    """scale * (M + M^dag) / 2 per row of m (N, dim, dim)."""
    return scale * (m + m.conj().swapaxes(-1, -2)) / 2.0


def haar_pure(dim: int, seed: SeedSpec) -> DensityMatrix:
    """Haar-random pure state |psi><psi| (normalized complex Gaussian vector)."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    return DensityMatrix(_haar_states(_one_stream(seed, (dim,)))[0])


def ginibre_mixed(dim: int, rank: int, seed: SeedSpec) -> DensityMatrix:
    """Mixed state G G^dag / Tr(G G^dag) with a dim x rank complex Gaussian G."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    if not 1 <= rank <= dim:
        raise RejectedInputError(f"rank must be in [1, {dim}], got {rank}")
    return DensityMatrix(_ginibre_states(_one_stream(seed, (dim, rank)))[0])


def gue_hermitian(dim: int, scale: float, seed: SeedSpec) -> HermitianOperator:
    """Random Hermitian operator scale * (M + M^dag)/2, M complex standard normal."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    if not scale > 0:
        raise RejectedInputError(f"scale must be positive, got {scale}")
    return HermitianOperator(_gue_operators(_one_stream(seed, (dim, dim)), scale)[0])


@dataclass(frozen=True)
class BatteryEigenstateProduct:
    """Product state |j><j| (x) rest, with the chosen battery level recorded."""

    state: DensityMatrix
    eigenvalue: float
    index: int


def battery_eigenstate_product(
    f: HermitianOperator, j: int, rest: DensityMatrix, s: TensorStructure
) -> BatteryEigenstateProduct:
    """Battery in the j-th eigenvector of F (ascending order), tensored with `rest`.

    Such a state has vanishing battery variance and covariance for this F, and
    therefore zero charging power under any interaction. For degenerate F the
    index convention is whatever the eigendecomposition routine returns, which
    is why the chosen eigenvalue is part of the result.
    """
    if f.dim != s.d_w:
        raise DimensionMismatchError(f"battery operator dim {f.dim} != d_w {s.d_w}")
    if rest.dim != s.env_dim:
        raise DimensionMismatchError(f"rest-state dim {rest.dim} != env dim {s.env_dim}")
    if not 0 <= j < s.d_w:
        raise RejectedInputError(f"eigenvector index {j} out of range [0, {s.d_w})")
    dec = eig_decompose(f)
    vec = dec.vectors[:, j]
    proj = np.outer(vec, vec.conj())
    state = DensityMatrix(np.kron(proj, rest.mat))
    return BatteryEigenstateProduct(state=state, eigenvalue=float(dec.eigenvalues[j]), index=j)


# stream index layout: each trial owns four consecutive streams
_STREAMS_PER_TRIAL = 4

STATE_KINDS = ("haar", "ginibre", "mix")


def _draw_batch_eig(s: TensorStructure, kind: str, master_seed: int, trials: Sequence[int],
                    rank: int | None, scale: float):
    """`draw_batch`, plus the (w, u) eigenpairs of the states that `density_stack` checked."""
    if kind not in STATE_KINDS:
        raise RejectedInputError(f"unknown state ensemble {kind!r}, expected one of {STATE_KINDS}")
    bases = [t * _STREAMS_PER_TRIAL for t in trials]
    SeedSpec(master_seed, min(bases, default=0))
    SeedSpec(master_seed, max(bases, default=0) + 2)
    kinds = [("haar" if t % 2 == 0 else "ginibre") if kind == "mix" else kind for t in trials]
    rank = s.dim if rank is None else rank
    if "ginibre" in kinds and not 1 <= rank <= s.dim:
        raise RejectedInputError(f"rank must be in [1, {s.dim}], got {rank}")
    if not scale > 0:
        raise RejectedInputError(f"scale must be positive, got {scale}")

    streams = _Streams(master_seed)
    rho = np.empty((len(bases), s.dim, s.dim), dtype=complex)
    for used, states, shape in (("haar", _haar_states, (s.dim,)),
                                ("ginibre", _ginibre_states, (s.dim, rank))):
        rows = [k for k, u in enumerate(kinds) if u == used]
        if rows:
            rho[rows] = states(streams.complex_normals([bases[k] for k in rows], shape))
    f = _gue_operators(streams.complex_normals([b + 1 for b in bases], (s.d_w, s.d_w)), scale)
    v = _gue_operators(streams.complex_normals([b + 2 for b in bases], (s.dim, s.dim)), scale)

    errors = RowErrors(len(bases))
    rho, _, eig = density_stack(errors, rho)
    f, v = hermitian_stack(errors, f), hermitian_stack(errors, v)
    errors.raise_first()
    return rho, f, v, kinds, eig


def draw_batch(
    s: TensorStructure,
    kind: str,
    master_seed: int,
    trials: Sequence[int],
    rank: int | None = None,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The seeded instances of `trials` as stacks: (rho (N,D,D), F (N,d_w,d_w), V (N,D,D), kinds).

    Row k holds the matrices of ``draw_instance(s, kind, master_seed,
    trials[k], rank, scale)`` bit for bit, through DensityMatrix's and
    HermitianOperator's checks; kinds[k] is the state kind it used. A row
    that fails a check raises the error that drawing the trials one by one
    would raise first.
    """
    return _draw_batch_eig(s, kind, master_seed, trials, rank, scale)[:4]


def draw_instance(
    s: TensorStructure,
    kind: str,
    master_seed: int,
    trial: int,
    rank: int | None = None,
    scale: float = 1.0,
) -> tuple[DensityMatrix, HermitianOperator, HermitianOperator, str]:
    """One seeded (rho, F, V) verification instance; returns the state kind used.

    `kind` picks the state ensemble: "haar" (pure), "ginibre" (mixed, with
    `rank`, full by default), or "mix" (alternating per trial parity). F and V
    are always Gaussian Hermitian at the given scale. A one-row `draw_batch`.
    """
    rho, f, v, kinds = draw_batch(s, kind, master_seed, [trial], rank, scale)
    return (DensityMatrix.wrap_checked(rho[0]), HermitianOperator.wrap_checked(f[0]),
            HermitianOperator.wrap_checked(v[0]), kinds[0])
