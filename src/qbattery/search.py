"""Derivative-free search for zero-power and bound-saturating instances.

Two targets: states with appreciable battery variance and covariance whose
charging power is nevertheless (numerically) zero, and instances that drive
the power squared against its corrected bound. Both run the same optimizer,
a random-restart pattern search over a flat real parameter vector: perturb
one coordinate at a time, keep improvements, and halve the step after ten
consecutive rejections at the current scale. Restarts use independent seeded
streams and the winner is chosen by (objective, restart index), so a fixed
config always returns the same result regardless of thread count.

Battery and interaction operators are normalized to unit spectral radius
inside the parameterization; thresholds are therefore calibrated against
unit-scale operators (var_f can never exceed 1 on a qubit battery, for
instance), and scaling an operator up cannot game them.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensembles import SeedSpec
from .moments import (
    MomentBatch,
    MomentSet,
    PowerBoundReport,
    compute_moments,
    corrected_bound,
    moment_batch,
    saturation_ratio,
    verify_instance,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    TensorStructure,
    partial_trace_to_battery,
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
    the final candidate is always re-verified through `verify_instance`,
    which computes it by the commutator route as well.
    """
    mat, f, v, valid = param.build(xs)
    m = moment_batch(mat, f, v, param.s)
    return m, valid & np.array([err is None for err in m.errors])


@dataclass
class _RestartOutcome:
    index: int
    objective: float
    x: np.ndarray
    evaluations: int
    succeeded: bool


# Moves scored per kernel call. Scoring the next few moves together costs
# little more than scoring one, because at these sizes the moment stage's
# time is per call, not per row.
_LOOKAHEAD = 8


def _pattern_search(score, x0: np.ndarray, rng: np.random.Generator, budget: int,
                    step0: float = 0.5, shrink: float = 0.5, patience: int = 10,
                    min_step: float = 1e-12):
    """Single-coordinate pattern search; returns (best_x, best_val, evals, hit_target).

    `score` maps a stack of parameter vectors to (values, success flags); the
    walk keeps strict improvements only, so the best value is monotone
    non-increasing. The next `_LOOKAHEAD` moves are drawn and scored together
    as if each were rejected; the walk takes them in order, and after an
    acceptance it re-scores the moves it drew but did not take from the new
    point. Its draws, steps, result and evaluation count are therefore those
    of scoring one move at a time.
    """
    x = x0.copy()
    values, oks = score(x[None])
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
        values, oks = score(ys)
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


def _run_restarts(config: SearchConfig, param: _Parameterization, score, threads: int = 1):
    # A one-evaluation budget degrades to a single restart that scores the
    # seeded start point; the total never exceeds the configured budget.
    effective = min(config.restarts, config.budget)
    per_restart = config.budget // effective
    seed = config.seed

    def one(r: int) -> _RestartOutcome:
        rngs = [seed.stream(seed.stream_index * _STREAMS_PER_RESTART * config.restarts
                            + r * _STREAMS_PER_RESTART + k).rng() for k in range(2)]
        x0 = rngs[0].standard_normal(param.n_params)
        x, value, evals, ok = _pattern_search(score, x0, rngs[1], per_restart)
        return _RestartOutcome(index=r, objective=value, x=x, evaluations=evals, succeeded=ok)

    indices = range(effective)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, indices))
    else:
        outcomes = [one(r) for r in indices]
    winner = min(outcomes, key=lambda o: (o.objective, o.index))
    total_evals = sum(o.evaluations for o in outcomes)
    return winner, total_evals


def _finalize(config: SearchConfig, param: _Parameterization, winner_x: np.ndarray,
              evaluations: int, succeeded: bool, objective: float) -> SearchResult:
    mat, f, v, valid = param.build(winner_x[None])
    if not valid[0]:
        # The walk never accepts a degenerate point over a finite one, so this
        # would take a measure-zero initial draw.
        raise NumericalIntegrityError("search ended on a degenerate state parameterization")
    rho = DensityMatrix(mat[0])
    f_op = HermitianOperator(f[0])
    v_op = HermitianOperator(v[0])
    report = verify_instance(rho, f_op, v_op, config.structure)
    moments = compute_moments(rho, f_op, v_op, config.structure)
    purity_w = partial_trace_to_battery(rho, config.structure).purity()
    return SearchResult(
        rho=rho,
        f=f_op,
        v=v_op,
        report=report,
        moments=moments,
        objective=float(objective),
        evaluations=int(evaluations),
        succeeded=bool(succeeded),
        battery_purity=float(purity_w),
    )


def find_zero_power(config: SearchConfig, threads: int = 1) -> SearchResult:
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

    winner, total_evals = _run_restarts(config, param, score, threads)
    return _finalize(config, param, winner.x, total_evals, winner.succeeded, winner.objective)


def find_saturating(config: SearchConfig, threads: int = 1) -> SearchResult:
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
        ratio = saturation_ratio((2.0 * m.cov.imag) ** 2, corrected_bound(m), cap=1.0)
        return np.where(counts, -ratio, np.inf), (ratio >= SATURATION_SUCCESS) & counts

    winner, total_evals = _run_restarts(config, param, score, threads)
    return _finalize(config, param, winner.x, total_evals, winner.succeeded, winner.objective)
