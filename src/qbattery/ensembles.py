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

A state is drawn as K K^dag / Tr(K K^dag) from a complex Gaussian factor K:
D x 1 for Haar, D x r for Ginibre at rank r; `mix` draws trial t as `haar`
for even t and as `ginibre` for odd t. Each kind's rows are checked as a
stack of their own, on the cheapest exact decomposition of their factor, so
a `mix` row is its kind's ensemble row bit for bit. Where K is thin (r < D),
the state's eigenpairs come from the thin SVD K = U S W^dag, as
w = S^2 / sum(S^2) and u = U, which at r = 1 is w = 1 and u = K / |K|, no
SVD run; `density_stack` checks the state on them and checks that they
reconstruct it and are orthonormal: no D x D `eigh` runs, and no round-off
eigenvalue below zero is clamped. Where K is square, `eigvalsh` gives the
eigenvalues and `eigh` runs only for a state whose smallest one is below
1e-12, the only states its PSD check or clamp can act on. The route depends
on the trial's kind alone, never on which trials a batch holds.
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
    _EIGENVALUES_ONLY,
    _is_integer,
    _one_row,
    density_stack,
    eig_stack,
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
            if not (_is_integer(value) and 0 <= int(value) < 2**64):
                raise RejectedInputError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

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
        z = np.empty((len(streams), *shape), dtype=complex)
        z.real, z.imag = parts[:, 0], parts[:, 1]  # the bits of re + 1j * im, in one pass
        return z


def _one_stream(seed: SeedSpec, shape) -> np.ndarray:
    return _Streams(seed.master_seed).complex_normals([seed.stream_index], shape)


def _unit_kets(z: np.ndarray) -> np.ndarray:
    """z / |z| per row of kets z (N, dim), normalized as DensityMatrix.from_ket does."""
    r, i = z.real[:, None, :], z.imag[:, None, :]
    # np.linalg.norm of one complex vector sums these two real dot products;
    # the same sums keep each row bit-identical to DensityMatrix.from_ket
    return z / np.sqrt(r @ r.swapaxes(-1, -2) + i @ i.swapaxes(-1, -2))[:, 0]


def _haar_states(z: np.ndarray) -> np.ndarray:
    """|psi><psi| per row of kets z (N, dim), normalized as DensityMatrix.from_ket does."""
    v = _unit_kets(z)
    return v[:, :, None] * v.conj()[:, None, :]


def _ginibre_states(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) per row of g (N, dim, rank)."""
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]


def _gue_operators(m: np.ndarray, scale: float) -> np.ndarray:
    """scale * (M + M^dag) / 2 per row of m (N, dim, dim).

    Halving is exact, so one product by scale / 2 rounds as scale * X / 2 does.
    """
    return (m + m.conj().swapaxes(-1, -2)) * (scale / 2.0)


def _state_factors(k: np.ndarray):
    """What `density_stack` takes for the states K K^dag / Tr of the factors k.

    k holds one factor K per row: (N, D) for Haar kets, (N, D, r) for
    Ginibre. Where r < D, the states' eigenpairs (w, u) from the thin SVD
    K = U S W^dag, as w = S^2 / sum(S^2), never negative, and u = U, with r
    orthonormal columns; at r = 1 that is w = 1 and u = K / |K|, taken
    without the SVD. A square K's SVD costs no less than `eigh` of its
    state, and no caller keeps a drawn state's eigenvectors, so for a square
    K the states are checked on their eigenvalues alone.
    """
    k = k.reshape(*k.shape[:2], -1)
    if k.shape[-1] >= k.shape[-2]:
        return _EIGENVALUES_ONLY
    if k.shape[-1] == 1:
        return np.ones((len(k), 1)), _unit_kets(k[..., 0])[..., None]
    u, sv, _ = np.linalg.svd(k, full_matrices=False)
    w = sv * sv
    return w / w.sum(axis=-1, keepdims=True), u


def _one_state(states, k: np.ndarray) -> DensityMatrix:
    """The state of the one-row factor stack k, checked as a `draw_batch` row of its kind is."""
    rows = RowErrors(1)
    rho = density_stack(rows, states(k), _state_factors(k))[0][0]
    rows.raise_first()
    return DensityMatrix.wrap_checked(rho)


def haar_pure(dim: int, seed: SeedSpec) -> DensityMatrix:
    """Haar-random pure state |psi><psi| (normalized complex Gaussian vector)."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    return _one_state(_haar_states, _one_stream(seed, (dim,)))


def ginibre_mixed(dim: int, rank: int, seed: SeedSpec) -> DensityMatrix:
    """Mixed state G G^dag / Tr(G G^dag) with a dim x rank complex Gaussian G."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    if not 1 <= rank <= dim:
        raise RejectedInputError(f"rank must be in [1, {dim}], got {rank}")
    return _one_state(_ginibre_states, _one_stream(seed, (dim, rank)))


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
    (w,), (u,) = _one_row(eig_stack, f.mat)
    vec = u[:, j]
    proj = np.outer(vec, vec.conj())
    state = DensityMatrix(np.kron(proj, rest.mat))
    return BatteryEigenstateProduct(state=state, eigenvalue=float(w[j]), index=j)


# stream index layout: each trial owns four consecutive streams
_STREAMS_PER_TRIAL = 4

STATE_KINDS = ("haar", "ginibre", "mix")


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
    HermitianOperator's checks (each kind's states on their own factors; see
    the module docstring); kinds[k] is the state kind it used. A row that
    fails a check raises the error that drawing the trials one by one would
    raise first.
    """
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
    errors = RowErrors(len(bases))
    for used, states, shape in (("haar", _haar_states, (s.dim,)),
                                ("ginibre", _ginibre_states, (s.dim, rank))):
        rows = [k for k, u in enumerate(kinds) if u == used]
        if rows:
            normals = streams.complex_normals([bases[k] for k in rows], shape)
            checked = RowErrors(len(rows))
            rho[rows] = density_stack(checked, states(normals), _state_factors(normals))[0]
            for k, err in zip(rows, checked):
                errors[k] = err
    f = _gue_operators(streams.complex_normals([b + 1 for b in bases], (s.d_w, s.d_w)), scale)
    v = _gue_operators(streams.complex_normals([b + 2 for b in bases], (s.dim, s.dim)), scale)
    f, v = hermitian_stack(errors, f), hermitian_stack(errors, v)
    errors.raise_first()
    return rho, f, v, kinds


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
