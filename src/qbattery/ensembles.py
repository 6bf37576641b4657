"""Seeded random states and operators for Monte Carlo verification.

Every draw is keyed by a (master_seed, stream_index) pair fed to a Philox
counter-based generator, so trials are independent of each other and of the
order in which they are evaluated. Identical keys give bit-identical draws
on any thread count; the generator choice is part of the package contract
and must not change between releases.

`draw_batch` draws a list of trials as stacks with one Philox generator,
re-keyed before each stream to counter 0, key (master_seed, stream_index)
and an empty buffer, which is the state of a fresh generator with that key,
through the public state setter from a dict of plain ints; it then checks
each stack once. The other draws are one-row calls of the
same code. Given a `Workspace`, `draw_batch` draws into the arrays it
holds, which one thread reuses from call to call: `verify`'s chunks do, so
a D = 64 chunk draws into no freshly faulted pages.

A state is drawn as its factor Q = K / |K|_F from a complex Gaussian K:
D x 1 for Haar, D x r for Ginibre at rank r; `mix` draws trial t as `haar`
for even t and as `ginibre` for odd t. Its state Q Q^dag is Hermitian,
positive semidefinite and of trace |Q|^2 by construction, so `draw_batch`
checks Q itself (`factor_stack`: finite entries, trace and purity) and
forms no D x D state: the moment kernel takes Q. Each kind's rows are drawn
and checked as a stack of their own, so a `mix` row is its kind's ensemble
row bit for bit. Only `draw_instance` forms a state, Q Q^dag / Tr, through
`DensityMatrix.from_factor` (as `verify` does for the one trial it reports,
from the rows its chunk drew), as a battery eigenstate product is formed
from the factor u_j (x) Q_rest of F's eigenvector and the rest's state.

F and V are scale (M + M^dag) / 2 of a complex Gaussian M = re + 1j im,
formed by `_gue_stack` from the stream's re and im arrays: re + re^T and
im - im^T are written into the real and imaginary parts and scaled in
place, with no complex M, adjoint or sum formed. They are exactly Hermitian
by construction, so the draw checks only that their entries are finite,
which an overflowing scale breaks, with HermitianOperator's message.
`draw_batch`, `draw_instance` and `gue_hermitian` all build them this way.
"""

import math
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
    _is_integer,
    _one_row,
    eig_stack,
    factor_stack,
    norm_sq_stack,
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
        self._bits = self._rng.bit_generator
        # counter 0, key (master_seed, 0) and an empty buffer, held as plain ints:
        # the state setter reads the same bits from them as from its own uint64
        # arrays, in 0.5-0.6 us against 1.2 us (numpy 2.4.6)
        state = self._bits.state
        state["state"] = {name: v.tolist() for name, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        self._state, self._key = state, state["state"]["key"]

    def normals(self, streams, shape, out=None) -> np.ndarray:
        """(N, 2, *shape): each stream's first two standard-normal arrays of `shape`, re then im.

        Written into `out`, an (N, 2, *shape) float array, when one is given.
        """
        parts = np.empty((len(streams), 2, *shape)) if out is None else out
        for k, stream in enumerate(streams):
            self._key[1] = stream
            self._bits.state = self._state
            self._rng.standard_normal(out=parts[k])  # re, then im: the generator fills in C order
        return parts

    def complex_normals(self, streams, shape, scratch=None, out=None) -> np.ndarray:
        """re + 1j * im per stream, re and im its `normals`, drawn into `scratch`; written into `out` when given."""
        parts = self.normals(streams, shape, scratch)
        z = np.empty((len(streams), *shape), dtype=complex) if out is None else out
        z.real, z.imag = parts[:, 0], parts[:, 1]  # the bits of re + 1j * im, in one pass
        return z


class Workspace:
    """The arrays that successive `draw_batch` calls on one thread draw into, one per name.

    A call overwrites what the call before it drew into the same array, so
    a caller copies what it keeps of a call's stacks before its next call.
    Not for sharing between threads.
    """

    def __init__(self):
        self._flat = {}

    def __call__(self, name, shape, dtype=float) -> np.ndarray:
        """An uninitialised `shape` view of the array `name` as `dtype`, float or complex.

        The array grows when it is too small. It is kept as floats and
        viewed as `dtype`, so one name serves both dtypes: `verify` writes
        its kernel's complex dV into the normals array of a finished draw.
        """
        size = math.prod(shape) * np.dtype(dtype).itemsize // 8  # in floats
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].view(dtype).reshape(shape)


def _one_stream(seed: SeedSpec, shape) -> np.ndarray:
    return _Streams(seed.master_seed).complex_normals([seed.stream_index], shape)


def _unit_factors(k: np.ndarray) -> np.ndarray:
    """K / |K|_F per row of factors k (N, D, r), in place: the bits of k / s."""
    return np.divide(k, np.sqrt(norm_sq_stack(k))[:, None, None], out=k)


def _gue_stack(rows: RowErrors, parts: np.ndarray, scale: float, out=None) -> np.ndarray:
    """scale (M + M^dag) / 2 per row of M = re + 1j im, from `normals` parts (N, 2, d, d).

    re + re^T is written into the real part and im - im^T into the imaginary
    part, then the whole is scaled in place: the bits of
    (M + M^dag) * (scale / 2), as a + (-b) == a - b, and halving is exact,
    so one product by scale / 2 rounds as scale * X / 2 does. The result is
    exactly Hermitian by construction, so only its entries' finiteness is
    checked, with HermitianOperator's message: an overflowing scale is the
    only way to fail. Written into `out`, an (N, d, d) complex array, when
    one is given.
    """
    re, im = parts[:, 0], parts[:, 1]
    a = np.empty(re.shape, dtype=complex) if out is None else out
    np.add(re, re.swapaxes(-1, -2), out=a.real)
    np.subtract(im, im.swapaxes(-1, -2), out=a.imag)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is recorded below
        a *= scale / 2.0
    rows.record(~np.isfinite(a).all(axis=(-2, -1)),
                lambda i: RejectedInputError("matrix has a non-finite entry"))
    return a


def haar_pure(dim: int, seed: SeedSpec) -> DensityMatrix:
    """Haar-random pure state |psi><psi| (normalized complex Gaussian vector)."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    return DensityMatrix.from_factor(_unit_factors(_one_stream(seed, (dim, 1)))[0])


def ginibre_mixed(dim: int, rank: int, seed: SeedSpec) -> DensityMatrix:
    """Mixed state G G^dag / Tr(G G^dag) with a dim x rank complex Gaussian G."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    if not 1 <= rank <= dim:
        raise RejectedInputError(f"rank must be in [1, {dim}], got {rank}")
    return DensityMatrix.from_factor(_unit_factors(_one_stream(seed, (dim, rank)))[0])


def gue_hermitian(dim: int, scale: float, seed: SeedSpec) -> HermitianOperator:
    """Random Hermitian operator scale * (M + M^dag)/2, M complex standard normal."""
    if dim < 1:
        raise RejectedInputError(f"dim must be >= 1, got {dim}")
    if not scale > 0:
        raise RejectedInputError(f"scale must be positive, got {scale}")
    parts = _Streams(seed.master_seed).normals([seed.stream_index], (dim, dim))
    (a,) = _one_row(lambda rows, p: _gue_stack(rows, p, scale), parts[0])
    return HermitianOperator.wrap_checked(a)


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
    state = DensityMatrix.from_factor(np.kron(u[:, j : j + 1], rest.factor))
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
    workspace: Workspace | None = None,
) -> tuple[list, list[str]]:
    """The seeded instances of `trials`, one stack per state kind drawn: (groups, kinds).

    Each group is (rows, Q (n, D, r), F (n, d_w, d_w), V (n, D, D)) for the
    rows `rows` of `trials` that drew that kind, in trial order; kinds[k] is
    the state kind of trials[k]. Q is the factor of the state (see the module
    docstring), checked by `factor_stack`. F and V are scale (M + M^dag) / 2,
    formed from the stream's re and im arrays by `_gue_stack`: exactly
    Hermitian by construction, and checked for finite entries. A row that
    fails a check raises the error that drawing the trials one by one would
    raise first: its state's, then its F's, then its V's.

    With a `workspace`, the normals are drawn into one of its arrays, and
    each kind's Q, F and V stacks are written into arrays of their own,
    which the next call with that workspace overwrites; without one, the
    call takes a Workspace of its own, so every array it returns is new.
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
    take = Workspace() if workspace is None else workspace
    errors = RowErrors(len(bases))
    groups = []
    for used, width in (("haar", 1), ("ginibre", rank)):
        rows = [k for k, u in enumerate(kinds) if u == used]
        if rows:
            n, keys = len(rows), [bases[k] for k in rows]
            checked = RowErrors(n)
            # a mix draw's two kinds' stacks are live together, so each kind has
            # arrays of its own; the one normals array is read before it is drawn into again
            q = _unit_factors(streams.complex_normals(
                keys, (s.dim, width), take("normals", (n, 2, s.dim, width)),
                take(("q", used), (n, s.dim, width), complex)))
            q = factor_stack(checked, q)
            f, v = (_gue_stack(checked, streams.normals([b + i for b in keys], (d, d),
                                                        take("normals", (n, 2, d, d))),
                               scale, take((name, used), (n, d, d), complex))
                    for i, name, d in ((1, "f", s.d_w), (2, "v", s.dim)))
            groups.append((rows, q, f, v))
            for k, err in zip(rows, checked):
                errors[k] = err
    errors.raise_first()
    return groups, kinds


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
    are always Gaussian Hermitian at the given scale. A one-row `draw_batch`,
    whose state Q Q^dag / Tr is formed by `DensityMatrix.from_factor`.
    """
    groups, (used,) = draw_batch(s, kind, master_seed, [trial], rank, scale)
    (_, q, f, v), = groups
    return (DensityMatrix.from_factor(q[0]), HermitianOperator.wrap_checked(f[0]),
            HermitianOperator.wrap_checked(v[0]), used)
