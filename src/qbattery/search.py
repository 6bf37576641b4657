"""Derivative-free search for zero-power and bound-saturating instances.

Two targets: states with appreciable battery variance and covariance whose
charging power is nevertheless (numerically) zero, and instances that drive
the power squared against its corrected bound. Both run the same optimizer,
a random-restart pattern search over a flat real parameter vector: perturb
one coordinate at a time, keep improvements, and halve the step after ten
consecutive rejections at the current scale. Restarts use independent seeded
streams and run in lockstep rounds: each round scores the pending moves of
every live restart in one kernel call, and each restart takes back its own
rows, so every walk is the one it would take alone. The winner is chosen by
(objective, restart index), so a fixed config always returns the same result.

Battery and interaction operators are normalized to unit spectral radius
inside the parameterization; thresholds are therefore calibrated against
unit-scale operators (var_f can never exceed 1 on a qubit battery, for
instance), and scaling an operator up cannot game them.
"""

from dataclasses import dataclass

import numpy as np

from .ensembles import SeedSpec
from .moments import (  # noqa: F401  compute_moments, verify_instance: names bench/tracer.py patches here
    MomentBatch,
    MomentSet,
    PowerBoundReport,
    compute_moments,
    moment_batch,
    _verify_checked,
    saturation_ratio,
    verify_instance,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    TensorStructure,
    to_matrix_literal,
)

MODES = ("zero-power", "saturation")

ENTANGLED_PURITY_CAP = 1.0 - 1e-3
SATURATION_SUCCESS = 0.999

_STREAMS_PER_RESTART = 4


@dataclass(frozen=True)
class SearchThresholds:
    """Success requirements for the zero-power mode."""

    min_var_f: float = 0.0
    min_abs_cov: float = 0.0
    max_abs_power: float = 1e-8
    require_entangled: bool = False

    def __post_init__(self):
        for name in ("min_var_f", "min_abs_cov", "max_abs_power"):
            if getattr(self, name) < 0:
                raise RejectedInputError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SearchConfig:
    structure: TensorStructure
    mode: str
    thresholds: SearchThresholds = SearchThresholds()
    budget: int = 100_000
    seed: SeedSpec = SeedSpec(0)
    restarts: int = 8

    def __post_init__(self):
        if self.mode not in MODES:
            raise RejectedInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.budget < 1:
            raise RejectedInputError(f"budget must be positive, got {self.budget}")
        if self.restarts < 1:
            raise RejectedInputError(f"restarts must be positive, got {self.restarts}")


@dataclass(frozen=True)
class SearchResult:
    rho: DensityMatrix
    f: HermitianOperator
    v: HermitianOperator
    report: PowerBoundReport
    moments: MomentSet
    objective: float
    evaluations: int
    succeeded: bool
    battery_purity: float
    # manifest telemetry, not in the payload: per-restart summaries and lockstep rounds
    restarts: tuple = ()
    kernel_calls: int = 0

    def to_dict(self) -> dict:
        return {
            "rho": to_matrix_literal(self.rho),
            "f": to_matrix_literal(self.f),
            "v": to_matrix_literal(self.v),
            "report": self.report.to_dict(),
            "moments": self.moments.to_dict(),
            "objective": self.objective,
            "evaluations": self.evaluations,
            "succeeded": self.succeeded,
            "battery_purity": self.battery_purity,
        }


def _hermitian_from_params(x: np.ndarray, pack: tuple) -> np.ndarray:
    """Pack dim^2 reals into a Hermitian matrix: diagonal, then (re, im) per i<j pair.

    `x` may hold one vector or a stack of them (..., dim^2); `pack` is
    (dim, rows, columns) of the i<j pairs from `_pack`.
    """
    dim, iu, ju = pack
    h = np.zeros(x.shape[:-1] + (dim, dim), dtype=complex)
    diag = np.arange(dim)
    h[..., diag, diag] = x[..., :dim]
    upper = x[..., dim::2] + 1j * x[..., dim + 1 :: 2]
    h[..., iu, ju] = upper
    h[..., ju, iu] = upper.conj()
    return h


def _pack(dim: int) -> tuple:
    # np.triu_indices lists the i<j pairs row by row, the order the parameters use
    iu, ju = np.triu_indices(dim, k=1)
    return dim, iu, ju


def _unit_spectral(h: np.ndarray) -> np.ndarray:
    r = np.abs(np.linalg.eigvalsh(h)).max(axis=-1, initial=0.0)
    return h / np.where(r > 0.0, r, 1.0)[..., None, None]


class _Parameterization:
    """Flat real vectors <-> (rho, F, V) stacks over one structure.

    Layout: state parameters first (2D reals for a pure ket, 2*D*rank for a
    Ginibre factor), then d_w^2 for F, then D^2 for V. F and V come out with
    unit spectral radius.
    """

    def __init__(self, s: TensorStructure, pure_state: bool):
        self.s = s
        self.pure_state = pure_state
        d = s.dim
        self.n_state = 2 * d if pure_state else 2 * d * d
        self.n_f = s.d_w * s.d_w
        self.n_v = d * d
        self.n_params = self.n_state + self.n_f + self.n_v
        self.pack_f = _pack(s.d_w)
        self.pack_v = _pack(d)

    def build(self, xs: np.ndarray):
        """(rho, F, V, valid) for a stack of parameter vectors (K, n_params).

        Rows with a degenerate state parameterization have valid = False and
        placeholder matrices.
        """
        d = self.s.dim
        raw = xs[:, : self.n_state]
        z = raw[:, 0::2] + 1j * raw[:, 1::2]
        if self.pure_state:
            norm_sq = np.einsum("ki,ki->k", z.conj(), z).real
            valid = ~(norm_sq < 1e-24)
            z = z / np.sqrt(np.where(valid, norm_sq, 1.0))[:, None]
            mat = z[:, :, None] * z.conj()[:, None, :]
        else:
            g = z.reshape(-1, d, d)
            w = g @ g.conj().swapaxes(-1, -2)
            tr = np.trace(w, axis1=-2, axis2=-1).real
            valid = ~(tr < 1e-24)
            mat = w / np.where(valid, tr, 1.0)[:, None, None]
        f = _unit_spectral(_hermitian_from_params(xs[:, self.n_state : self.n_state + self.n_f], self.pack_f))
        v = _unit_spectral(_hermitian_from_params(xs[:, self.n_state + self.n_f :], self.pack_v))
        return mat, f, v, valid


def _moments(param: _Parameterization, xs: np.ndarray) -> tuple[MomentBatch, np.ndarray]:
    """Moments of the instances a stack of parameter vectors encodes, and which rows count.

    A row does not count when its state parameterization is degenerate or a
    check of the kernel's moment stage fails. Power is taken as 2 Im(cov);
    the final candidate is always re-verified by the whole kernel chain, which
    computes it by the commutator route as well.
    """
    mat, f, v, valid = param.build(xs)
    m = moment_batch(mat, f, v, param.s)
    return m, valid & np.array([err is None for err in m.errors])


# Moves scored per kernel call. Scoring the next few moves together costs
# little more than scoring one, because at these sizes the moment stage's
# time is per call, not per row.
_LOOKAHEAD = 8


def _pattern_search(x0: np.ndarray, rng: np.random.Generator, budget: int,
                    step0: float = 0.5, shrink: float = 0.5, patience: int = 10,
                    min_step: float = 1e-12):
    """Single-coordinate pattern search; returns (best_x, best_val, evals, hit_target).

    A generator: it yields stacks of parameter vectors and is sent back
    (values, success flags) for their rows. The walk keeps strict
    improvements only, so the best value is monotone non-increasing. The
    next `_LOOKAHEAD` moves are drawn and scored together as if each were
    rejected; the walk takes them in order, and after an acceptance it
    re-scores the moves it drew but did not take from the new point. Its
    draws, steps, result and evaluation count are therefore those of scoring
    one move at a time.
    """
    x = x0.copy()
    values, oks = yield x[None]
    value, ok = float(values[0]), bool(oks[0])
    evals = 1
    step = step0
    fails = 0
    moves = []  # drawn (coordinate, sign), not yet taken
    while not ok and evals < budget and step >= min_step:
        # the step of each of the next moves if every move before it is rejected
        steps, next_step, next_fails = [], step, fails
        while len(steps) < min(_LOOKAHEAD, budget - evals) and next_step >= min_step:
            steps.append(next_step)
            next_fails += 1
            if next_fails >= patience:
                next_step *= shrink
                next_fails = 0
        while len(moves) < len(steps):
            i = int(rng.integers(len(x)))
            moves.append((i, 1.0 if rng.random() < 0.5 else -1.0))
        ys = np.repeat(x[None], len(steps), axis=0)
        for k, ((i, sign), move_step) in enumerate(zip(moves, steps)):
            ys[k, i] += sign * move_step
        values, oks = yield ys
        taken = 0
        for y, candidate, ok_candidate in zip(ys, values.tolist(), oks.tolist()):
            taken += 1
            evals += 1
            if candidate < value:
                x, value, ok = y, candidate, ok_candidate
                fails = 0
                break
            fails += 1
            if fails >= patience:
                step *= shrink
                fails = 0
        del moves[:taken]
    return x, value, evals, ok


def _lockstep(walks, score):
    """Drive `_pattern_search` walks in rounds; returns (each walk's result, in order, rounds).

    A round scores the stacks of every live walk in one `score` call and
    sends each walk its own rows, so each walk is the one it would take alone.
    """
    results, rounds = [None] * len(walks), 0
    live = [(k, walk, next(walk)) for k, walk in enumerate(walks)]
    while live:
        values, oks = score(np.concatenate([stack for _, _, stack in live]))
        rounds += 1
        stepped, end = [], 0
        for k, walk, stack in live:
            start, end = end, end + len(stack)
            try:
                stepped.append((k, walk, walk.send((values[start:end], oks[start:end]))))
            except StopIteration as done:
                results[k] = done.value
        live = stepped
    return results, rounds


def _restart_starts(config: SearchConfig, n_params: int):
    """(x0, move generator, budget) of each restart, each on its own Philox streams."""
    # A one-evaluation budget degrades to a single restart that scores the
    # seeded start point; the total never exceeds the configured budget.
    effective = min(config.restarts, config.budget)
    seed = config.seed
    starts = []
    for r in range(effective):
        rngs = [seed.stream(seed.stream_index * _STREAMS_PER_RESTART * config.restarts
                            + r * _STREAMS_PER_RESTART + k).rng() for k in range(2)]
        starts.append((rngs[0].standard_normal(n_params), rngs[1], config.budget // effective))
    return starts


def _search(config: SearchConfig, param: _Parameterization, score) -> SearchResult:
    """Every restart in lockstep; the winner by (objective, restart index), verified in one kernel call."""
    walks = [_pattern_search(*start) for start in _restart_starts(config, param.n_params)]
    results, rounds = _lockstep(walks, score)
    best = min(range(len(results)), key=lambda r: (results[r][1], r))
    x, objective, _, succeeded = results[best]
    mat, f, v, valid = param.build(x[None])
    if not valid[0]:
        # The walk never accepts a degenerate point over a finite one, so this
        # would take a measure-zero initial draw.
        raise NumericalIntegrityError("search ended on a degenerate state parameterization")
    rho = DensityMatrix(mat[0])
    f_op = HermitianOperator(f[0])
    v_op = HermitianOperator(v[0])
    batch = _verify_checked(rho.mat[None], f_op.mat[None], v_op.mat[None], config.structure)
    batch.errors.raise_first()
    return SearchResult(
        rho=rho,
        f=f_op,
        v=v_op,
        report=batch.row(0),
        moments=batch.moments.row(0),
        objective=float(objective),
        evaluations=sum(evals for _, _, evals, _ in results),
        succeeded=bool(succeeded),
        battery_purity=float(batch.moments.purity_w[0]),
        restarts=tuple({"index": r, "objective": value, "evaluations": evals, "succeeded": ok}
                       for r, (_, value, evals, ok) in enumerate(results)),
        kernel_calls=rounds,
    )


def find_zero_power(config: SearchConfig) -> SearchResult:
    """Look for states with var_f and |cov| above thresholds but |power| below one.

    A successful result satisfies every threshold; an exhausted budget returns
    the best candidate found with ``succeeded=False`` rather than raising.
    Mixed states are searched by default; with ``require_entangled`` the state
    space is restricted to pure global states, where reduced-battery purity
    below one certifies entanglement across the battery cut.
    """
    if config.mode != "zero-power":
        raise RejectedInputError(f"config mode is {config.mode!r}, expected 'zero-power'")
    th = config.thresholds
    s = config.structure
    param = _Parameterization(s, pure_state=th.require_entangled)

    def score(xs: np.ndarray):
        m, counts = _moments(param, xs)
        power = np.abs(2.0 * m.cov.imag)
        abs_cov = np.abs(m.cov)
        value = (
            power
            + np.maximum(0.0, th.min_var_f - m.var_f)
            + np.maximum(0.0, th.min_abs_cov - abs_cov)
        )
        ok = (power <= th.max_abs_power) & (m.var_f >= th.min_var_f) & (abs_cov >= th.min_abs_cov)
        if th.require_entangled:
            value = value + np.maximum(0.0, m.purity_w - ENTANGLED_PURITY_CAP)
            ok &= m.purity_w <= ENTANGLED_PURITY_CAP
        return np.where(counts, value, np.inf), ok & counts

    return _search(config, param, score)


def find_saturating(config: SearchConfig) -> SearchResult:
    """Drive the saturation ratio power^2 / corrected_bound toward 1.

    Pure global states are searched (the known saturating instances are pure);
    success means a ratio of at least 0.999.
    """
    if config.mode != "saturation":
        raise RejectedInputError(f"config mode is {config.mode!r}, expected 'saturation'")
    s = config.structure
    param = _Parameterization(s, pure_state=True)

    def score(xs: np.ndarray):
        m, counts = _moments(param, xs)
        ratio = saturation_ratio((2.0 * m.cov.imag) ** 2, m, cap=1.0)
        return np.where(counts, -ratio, np.inf), (ratio >= SATURATION_SUCCESS) & counts

    return _search(config, param, score)
