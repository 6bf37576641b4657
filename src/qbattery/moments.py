"""Charging power, fluctuation moments, and the covariance-corrected power bound.

For a full state rho, a battery operator F and an interaction V, the
instantaneous charging power is

    P = -i Tr([rho, F (x) 1] V),

which is real for Hermitian inputs. Writing dF = F - <F>_W and dV = V - <V>,
the squared power decomposes through the explicit positive root of rho as

    P^2 = |Tr(sr dF dV sr)|^2 + |Tr(sr dV dF sr)|^2 - 2 Re[(Tr(rho dF dV))^2],

with sr = sqrt(rho), and is bounded by

    P^2 <= 2 (var_F * var_V - Re[Cov(F,V)^2]).

The covariance Cov(F,V) = <(F (x) 1) V> - <F>_W <V> is kept complex and
unsymmetrized; the two sandwich traces above are complex conjugates of each
other, which is exactly what the Re[Cov^2] term records. ``verify_instance``
recomputes every link of this chain and raises if any of them fails its
tolerance, so a clean report certifies the algebra numerically.

``verify_batch`` is the one implementation of the chain: it runs over stacks
of instances and records each row's first failed check instead of raising.
``verify_instance``, ``compute_moments``, ``charging_power`` and
``decomposition_terms`` each run the stage of it that they name on a one-row
stack, so each raises only for the checks of its own part of the chain.
Callers that checked the stacks themselves (the ensemble draws, the
trajectories) go through ``_verify_checked``, which skips the re-check of
their Hermiticity, and pass it the eigenpairs of their state check, so sr is
built without decomposing each state a second time; rho (F (x) 1) is formed
once, for the covariance, and reused for the power.

F (x) 1 itself is never formed: F stays a d_w x d_w stack, and each of the
four products with its lift, rho (F (x) 1), (F (x) 1) rho, dF dV and dV dF
(dF = (F - <F>_W) (x) 1), is a contraction over the battery index of the
battery-first space, with a d_w x d_w matrix instead of a D x D one. The
Hermiticity checks of F (x) 1 and dF run on F and F - <F>_W, whose residuals
are those of their lifts.
"""

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .operators import (  # noqa: F401  embed_battery_op, matrix_sqrt: names bench/tracer.py patches here
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    NumericalIntegrityError,
    RowErrors,
    TensorStructure,
    antihermitian_stack,
    density_stack,
    embed_battery_op,
    expectation_stack,
    hermitian_stack,
    matrix_sqrt,
    partial_trace_stack,
    sqrt_stack,
    trace_product,
)

VAR_CLAMP_TOL = 1e-10

# Callers stack instances in batches of at most this many complex entries per
# stacked (N, D, D) operand: large enough to amortise numpy's per-call cost at
# small D, small enough that D = 64 batches stay a few hundred kilobytes.
BATCH_ENTRIES = 2**14


def batch_rows(dim: int) -> int:
    """Instances per batch at total dimension `dim` (see BATCH_ENTRIES)."""
    return max(1, BATCH_ENTRIES // (dim * dim))


def _moment_checks(rows: RowErrors, var_f, var_v, cov):
    """MomentSet's checks over arrays; returns the variances with round-off below 0 clamped."""
    clamped = []
    for name, var in (("var_f", var_f), ("var_v", var_v)):
        rows.record(var < -VAR_CLAMP_TOL, lambda i: NumericalIntegrityError(
            f"{name} = {float(var[i])!r} below -{VAR_CLAMP_TOL}"))
        clamped.append(np.where(var < 0.0, 0.0, var))
    var_f, var_v = clamped
    product = var_f * var_v
    cov_sq = np.abs(cov) ** 2
    rows.record(product < cov_sq - 1e-9 * (1.0 + product), lambda i: NumericalIntegrityError(
        "covariance inequality violated: "
        f"var_f*var_v = {float(product[i])!r} < |cov|^2 = {float(cov_sq[i])!r}"))
    return var_f, var_v


def _report_checks(rows: RowErrors, power, power_sq, bound, slack, ratio) -> None:
    """PowerBoundReport's checks over arrays."""
    rows.record(np.abs(power_sq - power**2) > 1e-10 * (1.0 + power_sq),
                lambda i: NumericalIntegrityError("power_sq is not the square of power"))
    rows.record(slack < -1e-9 * (1.0 + bound), lambda i: NumericalIntegrityError(
        f"negative slack {float(slack[i])!r} against bound {float(bound[i])!r}"))
    rows.record(~((0.0 <= ratio) & (ratio <= 1.0 + 1e-9)), lambda i: NumericalIntegrityError(
        f"saturation ratio {float(ratio[i])!r} outside [0, 1]"))


def _row(*values) -> list:
    return [np.array([x]) for x in values]


def _checked_row(cls, **fields):
    """A `cls` holding one row of a stage whose checks it passed; its own checks are not rerun."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of (F, V): means, variances, complex covariance."""

    mean_f: float
    mean_v: float
    var_f: float
    var_v: float
    cov: complex

    def __post_init__(self):
        rows = RowErrors(1)
        var_f, var_v = _moment_checks(rows, *_row(self.var_f, self.var_v, self.cov))
        rows.raise_first()
        object.__setattr__(self, "var_f", float(var_f[0]))
        object.__setattr__(self, "var_v", float(var_v[0]))

    def to_dict(self) -> dict:
        return {
            "mean_f": self.mean_f,
            "mean_v": self.mean_v,
            "var_f": self.var_f,
            "var_v": self.var_v,
            "cov": {"re": self.cov.real, "im": self.cov.imag},
        }


@dataclass(frozen=True)
class PowerBoundReport:
    """Everything ``verify_instance`` establishes about one (rho, F, V) instance."""

    power: float
    power_sq: float
    term_fv: float
    term_vf: float
    term_cross: float
    corrected_bound: float
    loose_bound: float
    slack: float
    saturation_ratio: float

    def __post_init__(self):
        rows = RowErrors(1)
        _report_checks(rows, *_row(self.power, self.power_sq, self.corrected_bound,
                                   self.slack, self.saturation_ratio))
        rows.raise_first()

    def to_dict(self) -> dict:
        return asdict(self)


class MomentBatch(NamedTuple):
    """Moments of a stack of instances, one entry per row, and each row's first failed check.

    `purity_w` is Tr(rho_W^2) of the reduced battery state.
    """

    mean_f: np.ndarray
    mean_v: np.ndarray
    var_f: np.ndarray
    var_v: np.ndarray
    cov: np.ndarray
    purity_w: np.ndarray
    errors: RowErrors

    def row(self, i: int) -> MomentSet:
        """Row i as a MomentSet; only for a row with no error, whose checks already ran."""
        return _checked_row(MomentSet, mean_f=float(self.mean_f[i]), mean_v=float(self.mean_v[i]),
                            var_f=float(self.var_f[i]), var_v=float(self.var_v[i]),
                            cov=complex(self.cov[i]))


REPORT_FIELDS = ("power", "power_sq", "term_fv", "term_vf", "term_cross",
                 "corrected_bound", "loose_bound", "slack", "saturation_ratio")


class ReportBatch(NamedTuple):
    """`verify_batch` results: every PowerBoundReport field as an array, plus the moments.

    `errors[i]` is the exception ``verify_instance`` raises for row i alone,
    or None when every check passed; the values of a failed row mean nothing.
    """

    moments: MomentBatch
    power: np.ndarray
    power_sq: np.ndarray
    term_fv: np.ndarray
    term_vf: np.ndarray
    term_cross: np.ndarray
    corrected_bound: np.ndarray
    loose_bound: np.ndarray
    slack: np.ndarray
    saturation_ratio: np.ndarray

    @property
    def errors(self) -> RowErrors:
        return self.moments.errors

    def row(self, i: int) -> PowerBoundReport:
        """Row i as a PowerBoundReport; only for a row with no error, whose checks already ran."""
        return _checked_row(PowerBoundReport, **{k: float(getattr(self, k)[i]) for k in REPORT_FIELDS})


def delta_operator(a: HermitianOperator, mean: float) -> HermitianOperator:
    """Shift an operator by its mean: A - mean * identity."""
    return HermitianOperator(a.mat - mean * np.eye(a.dim, dtype=complex))


def _delta_stack(rows: RowErrors, a: np.ndarray, mean: np.ndarray) -> np.ndarray:
    return hermitian_stack(rows, a - mean[:, None, None] * np.eye(a.shape[-1], dtype=complex))


def _battery_left(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(F (x) 1) A per row, contracted over the battery index: F (N, d_w, d_w), A (N, D, D)."""
    n, d = a.shape[0], a.shape[-1]
    return (f @ a.reshape(n, f.shape[-1], -1)).reshape(n, d, d)


def _battery_right(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A (F (x) 1) per row, as ((F^T (x) 1) A^T)^T: from the transposes, not the adjoints, of A and F.

    The same arithmetic as `_battery_left`, so for exactly Hermitian operands
    the commutator of the two comes out exactly anti-Hermitian, as it did
    from the dense products. Returned C-contiguous, as the dense product was,
    so that the traces taken of it sum in the same order: as a transposed
    view, the raw and shifted powers of F, V + 1e6 I draws disagreed beyond
    their tolerance 24 times in 300 instead of 15.
    """
    at = _battery_left(np.ascontiguousarray(f.swapaxes(-1, -2)), a.swapaxes(-1, -2))
    return np.ascontiguousarray(at.swapaxes(-1, -2))


def _checked_stacks(rho, f, v, s: TensorStructure):
    """The three stacks as complex arrays, after the dimension checks."""
    rho, f, v = (np.asarray(x, dtype=complex) for x in (rho, f, v))
    if f.shape[1:] != (s.d_w, s.d_w):
        raise DimensionMismatchError(f"battery operator dim {f.shape[-1]} != d_w {s.d_w}")
    if rho.shape[1:] != (s.dim, s.dim) or v.shape[1:] != (s.dim, s.dim):
        raise DimensionMismatchError(
            f"state/interaction dims ({rho.shape[-1]}, {v.shape[-1]}) != structure dim {s.dim}"
        )
    if not rho.shape[0] == f.shape[0] == v.shape[0]:
        raise DimensionMismatchError(f"stack lengths differ: {rho.shape[0]}, {f.shape[0]}, {v.shape[0]}")
    return rho, f, v


def _moment_stage(rows: RowErrors, rho, f, v, s: TensorStructure):
    """The checks and arithmetic of `compute_moments`, in its order.

    Returns (moments, F, rho (F (x) 1)), F as the Hermiticity check hands it
    back; the power stage reuses the product.
    """
    rho_w, purity_w, _ = density_stack(rows, partial_trace_stack(rho, s))
    mean_f = expectation_stack(rows, rho_w, f)
    mean_f2 = expectation_stack(rows, rho_w, hermitian_stack(rows, f @ f))
    mean_v = expectation_stack(rows, rho, v)
    mean_v2 = expectation_stack(rows, rho, hermitian_stack(rows, v @ v))
    f = hermitian_stack(rows, f)  # embed_battery_op's check: F (x) 1 has F's residual
    rho_f = _battery_right(rho, f)
    cov = trace_product(rho_f, v) - mean_f * mean_v
    var_f, var_v = _moment_checks(rows, mean_f2 - mean_f**2, mean_v2 - mean_v**2, cov)
    moments = MomentBatch(mean_f=mean_f, mean_v=mean_v, var_f=var_f, var_v=var_v, cov=cov,
                          purity_w=purity_w, errors=rows)
    return moments, f, rho_f


def _power_stage(rows: RowErrors, rho, f, v, rho_f):
    """P = -i Tr([rho, F (x) 1] V) per row, asserted real to 1e-10; overwrites rho_f = rho (F (x) 1)."""
    lhs = rho_f
    lhs -= _battery_left(f, rho)
    raw = -1j * trace_product(lhs, v)
    rows.record(np.abs(raw.imag) > 1e-10 * (1.0 + np.abs(raw.real)), lambda i: NumericalIntegrityError(
        f"charging power has imaginary part {raw.imag[i]:.3e}"))
    return raw.real


def _shifted_products(rows: RowErrors, f, v, mean_f, mean_v):
    """(dF dV, dV dF) per row, with dF = (F - <F>_W) (x) 1 and dV = V - <V>."""
    df = _delta_stack(rows, f, mean_f)
    dv = _delta_stack(rows, v, mean_v)
    return _battery_left(df, dv), _battery_right(dv, df)


def _sqrt_terms(rows: RowErrors, rho, df_dv, dv_df, rho_eig=None):
    """The three decomposition terms, with sr = sqrt(rho) explicit (no cyclic-trace shortcut)."""
    sr = sqrt_stack(rows, rho, rho_eig)
    return (np.abs(trace_product(sr @ df_dv, sr)) ** 2,
            np.abs(trace_product(sr @ dv_df, sr)) ** 2,
            2.0 * (trace_product(rho, df_dv) ** 2).real)


def _terms_stage(rows: RowErrors, rho, f, v, s: TensorStructure):
    """The checks and arithmetic of `decomposition_terms`: the means, dF, dV and sqrt(rho)."""
    rho_w, _, _ = density_stack(rows, partial_trace_stack(rho, s))
    mean_f = expectation_stack(rows, rho_w, f)
    mean_v = expectation_stack(rows, rho, v)
    return _sqrt_terms(rows, rho, *_shifted_products(rows, hermitian_stack(rows, f), v, mean_f, mean_v))


def saturation_ratio(power_sq, m, cap=1.0 + 1e-9):
    """power^2 / corrected_bound(m), capped at `cap`, for a MomentBatch `m`.

    Defined as 0 where the bound is <= 1e-14 * min(1, <F^2> <V^2>), that is,
    within round-off of 0 at the scale of F and V: the cutoff shrinks with F
    and V, so scaling them down leaves the ratio as it is, and it is never
    above an absolute 1e-14.
    """
    bound = corrected_bound(m)
    scale = (m.var_f + m.mean_f**2) * (m.var_v + m.mean_v**2)
    degenerate = bound <= 1e-14 * np.minimum(1.0, scale)
    return np.where(degenerate, 0.0, np.minimum(power_sq / np.where(degenerate, 1.0, bound), cap))


def _verify_stage(rows: RowErrors, rho, f, v, s: TensorStructure, rho_eig=None) -> ReportBatch:
    """Every check of `verify_instance` over the rows, in its order and at its tolerance.

    The inputs' Hermiticity, then `_chain_stage`. `rho_eig` (see
    `verify_batch`) is used only if the Hermiticity pass hands rho back as it
    is; otherwise sqrt(rho) decomposes the symmetrized stack.
    """
    checked = hermitian_stack(rows, rho)
    if checked is not rho:
        rho, rho_eig = checked, None
    return _chain_stage(rows, rho, hermitian_stack(rows, f), hermitian_stack(rows, v), s, rho_eig)


def _chain_stage(rows: RowErrors, rho, f, v, s: TensorStructure, rho_eig=None) -> ReportBatch:
    """The checks of `_verify_stage` after the inputs' Hermiticity, on exactly Hermitian stacks."""
    m, f, rho_f = _moment_stage(rows, rho, f, v, s)
    power = _power_stage(rows, rho, f, v, rho_f)
    del rho_f  # keeps the peak memory of a D = 64 batch down to a few stacks

    # same power through the shifted-commutator route
    df_dv, dv_df = _shifted_products(rows, f, v, m.mean_f, m.mean_v)
    raw = -1j * trace_product(rho, antihermitian_stack(rows, df_dv - dv_df))
    power_delta = raw.real
    rows.record(np.abs(power - power_delta) > 1e-10 * (1.0 + np.abs(power)),
                lambda i: NumericalIntegrityError(
                    "commutator-shift power identity violated: "
                    f"{float(power[i])!r} vs {float(power_delta[i])!r}"))

    power_sq = power * power
    term_fv, term_vf, term_cross = _sqrt_terms(rows, rho, df_dv, dv_df, rho_eig)
    total = term_fv + term_vf - term_cross
    rows.record(np.abs(total - power_sq) > 1e-9 * (1.0 + np.maximum(np.abs(total), power_sq)),
                lambda i: NumericalIntegrityError(
                    "square-root decomposition identity violated: "
                    f"{float(total[i])!r} vs power^2 {float(power_sq[i])!r}"))
    rows.record(np.abs(term_fv - term_vf) > 1e-9 * (1.0 + np.maximum(term_fv, term_vf)),
                lambda i: NumericalIntegrityError(
                    f"conjugate-pair terms differ: {float(term_fv[i])!r} vs {float(term_vf[i])!r}"))
    rows.record(np.abs(power - 2.0 * m.cov.imag) > 1e-9 * (1.0 + np.abs(power)),
                lambda i: NumericalIntegrityError(
                    "power vs 2 Im(cov) identity violated: "
                    f"{float(power[i])!r} vs {float(2.0 * m.cov.imag[i])!r}"))

    bound = corrected_bound(m)
    rows.record(bound < -1e-9, lambda i: NumericalIntegrityError(
        f"corrected bound is negative: {float(bound[i])!r}"))
    lo = loose_bound(m)
    rows.record(lo < bound - 1e-9 * (1.0 + np.abs(bound)), lambda i: NumericalIntegrityError(
        f"loose bound {float(lo[i])!r} below corrected bound {float(bound[i])!r}"))
    rows.record(power_sq > bound + 1e-9 * (1.0 + bound), lambda i: NumericalIntegrityError(
        f"power bound violated: power^2 = {float(power_sq[i])!r} > bound = {float(bound[i])!r}"))
    ratio = saturation_ratio(power_sq, m)
    slack = bound - power_sq
    _report_checks(rows, power, power_sq, bound, slack, ratio)
    return ReportBatch(moments=m, power=power, power_sq=power_sq, term_fv=term_fv,
                       term_vf=term_vf, term_cross=term_cross, corrected_bound=bound,
                       loose_bound=lo, slack=slack, saturation_ratio=ratio)


def _batch(stage, rho, f, v, s: TensorStructure, **extra):
    rho, f, v = _checked_stacks(rho, f, v, s)
    return stage(RowErrors(rho.shape[0]), rho, f, v, s, **extra)


def moment_batch(rho, f, v, s: TensorStructure) -> MomentBatch:
    """`compute_moments` over stacks rho (N,D,D), F (N,d_w,d_w), V (N,D,D).

    The moment stage of `verify_batch`, for inputs known to be Hermitian (as
    the matrices of HermitianOperator and DensityMatrix are).
    """
    return _batch(_moment_stage, rho, f, v, s)[0]


def verify_batch(rho, f, v, s: TensorStructure, rho_eig=None) -> ReportBatch:
    """`verify_instance` over stacks rho (N,D,D), F (N,d_w,d_w), V (N,D,D).

    Checks the inputs are Hermitian, then runs every check of the
    one-instance chain, in its order and at its tolerance, as a mask over the
    rows: the moments, the power by the commutator route, the same power
    through the shifted commutator, the square-root decomposition and the
    bounds. Rows are independent: a row's values and error do not depend on
    what else is in the stack.

    `rho_eig`, internal, is the (w, u) that `density_stack` returned with
    `rho`: sqrt(rho) is then built from those factors, after `eig_stack`'s
    checks, instead of from a second eigendecomposition of each state.
    """
    return _batch(_verify_stage, rho, f, v, s, rho_eig=rho_eig)


def _verify_checked(rho, f, v, s: TensorStructure, rho_eig=None) -> ReportBatch:
    """`verify_batch` on stacks that DensityMatrix's and HermitianOperator's checks passed.

    Such stacks are exactly Hermitian: (A + A^dag)/2 is, and so is an exactly
    Hermitian matrix divided by a real trace. `verify_batch`'s input check
    would hand them back as they are, so it is skipped; every check of the
    chain after it runs. The draws, the trajectory states and the search's
    final candidate come this way.
    """
    return _batch(_chain_stage, rho, f, v, s, rho_eig=rho_eig)


def concat_batches(batches: list[ReportBatch]) -> ReportBatch:
    """The rows of `batches`, in order, as one ReportBatch (new arrays)."""
    # the moments' arrays come before their errors, the report's after its moments
    errors = RowErrors(0)
    errors.extend(e for b in batches for e in b.errors)
    moments = MomentBatch(*map(np.concatenate, zip(*(b.moments[:-1] for b in batches))), errors)
    return ReportBatch(moments, *map(np.concatenate, zip(*(b[1:] for b in batches))))


def _one_instance(stage, rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator,
                  s: TensorStructure):
    """`stage` on one-row stacks of the instance; raises the row's first failed check."""
    rows = RowErrors(1)
    out = stage(rows, *_checked_stacks(rho.mat[None], f.mat[None], v.mat[None], s), s)
    rows.raise_first()
    return out


def compute_moments(
    rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator, s: TensorStructure
) -> MomentSet:
    """Means, variances and the complex covariance of (F, V) in the given state.

    <F> and var_F are taken in the reduced battery state; <V>, var_V and the
    covariance in the full state. The covariance is deliberately *not*
    symmetrized.
    """
    return _one_instance(_moment_stage, rho, f, v, s)[0].row(0)


def charging_power(
    rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator, s: TensorStructure
) -> float:
    """P = -i Tr([rho, F (x) 1] V), asserted real to 1e-10."""
    def stage(rows, rho, f, v, s):
        f = hermitian_stack(rows, f)
        return _power_stage(rows, rho, f, v, _battery_right(rho, f))

    return float(_one_instance(stage, rho, f, v, s)[0])


def decomposition_terms(
    rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator, s: TensorStructure
) -> tuple[float, float, float]:
    """The three terms of the square-root decomposition of P^2.

    Returns (|Tr(sr dF dV sr)|^2, |Tr(sr dV dF sr)|^2, 2 Re[(Tr(rho dF dV))^2])
    with sr = sqrt(rho) computed explicitly by spectral decomposition; the
    cyclic-trace shortcut is deliberately not taken.
    """
    return tuple(float(t[0]) for t in _one_instance(_terms_stage, rho, f, v, s))


def corrected_bound(m):
    """Upper bound on P^2: 2 (var_F * var_V - Re[cov^2]), for a MomentSet or a MomentBatch."""
    return 2.0 * (m.var_f * m.var_v - (m.cov**2).real)


def loose_bound(m):
    """The weaker comparison bound 4 * var_F * var_V (never below the corrected one)."""
    return 4.0 * m.var_f * m.var_v


def verify_instance(
    rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator, s: TensorStructure
) -> PowerBoundReport:
    """Full verification of one instance: power, moments, decomposition, bounds.

    A one-row call of `verify_batch`. Raises NumericalIntegrityError naming
    the violated identity if any link of the chain fails; a returned report
    means every check passed.
    """
    return _one_instance(_verify_stage, rho, f, v, s).row(0)
