"""Charging power, fluctuation moments, and the covariance-corrected power bound.

For a full state rho, a battery operator F and an interaction V, the
instantaneous charging power is

    P = -i Tr([rho, F (x) 1] V),

which is real for Hermitian inputs. Writing dF = F - <F>_W and dV = V - <V>,
the squared power decomposes through the positive root of rho as

    P^2 = |Tr(sr dF dV sr)|^2 + |Tr(sr dV dF sr)|^2 - 2 Re[(Tr(rho dF dV))^2],

with sr = sqrt(rho), and is bounded by

    P^2 <= 2 (var_F * var_V - Re[Cov(F,V)^2]).

Every quantity is a trace of the centred operators, formed once: Cov(F,V) =
Tr(rho dF dV), kept complex and unsymmetrized; var_F = Re Tr(rho_W dF dF)
in the reduced state rho_W; var_V = Re Tr(rho dV dV); and
P = -i Tr([rho, dF (x) 1] dV), which is the paper's definition exactly, as
[rho, cI] = 0. A shift of F or V by a multiple of the identity enters no
product. P is checked against 2 Im Cov, its value by the covariance.

By the cyclic trace Tr(sr X sr) = Tr(rho X), so Tr(sr dF dV sr) = Cov and
Tr(sr dV dF sr) = conj(Cov): the decomposition's three terms are |Cov|^2,
|Cov|^2 and 2 Re[Cov^2], and are taken so. Their sum is 4 (Im Cov)^2, so
the decomposition holds exactly when P = 2 Im Cov, which the shift row of
the check table certifies. No square root or eigendecomposition of rho or
rho_W is taken. Every identity of the chain is a row of one table,
`_CHECKS`, checked where the chain reaches it; a clean report certifies the
algebra numerically.

``verify_batch`` is the one implementation of the chain: it runs over stacks
of instances and records each row's first failed check instead of raising.
``verify_instance``, ``compute_moments`` and ``decomposition_terms`` run the
stage of it that they name on a one-row stack, so each raises only for the
checks of its own part of the chain. ``MomentBatch.row`` and
``ReportBatch.row`` hand out a row that passed them as a plain ``MomentSet``
or ``PowerBoundReport``; those records check nothing themselves. Only
``verify_batch`` checks that its inputs are Hermitian: callers whose stacks
passed a boundary check (the one-instance classes, the ensemble draws, the
trajectories) call ``_verify_checked``, which skips it.

F (x) 1 itself is never formed: F stays a d_w x d_w stack, and its products
with rho and dV are contractions over the battery index.

The chain checks nothing it forms. rho's trace and positivity are checked
where states enter, and rho_W is rho's partial trace as it is; dF and dV are
real diagonal shifts of exactly Hermitian matrices, so exactly Hermitian.
"""

from dataclasses import dataclass, asdict
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .operators import (  # noqa: F401  embed_battery_op, matrix_sqrt: names bench/tracer.py patches here
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    NumericalIntegrityError,
    RowErrors,
    TensorStructure,
    embed_battery_op,
    expectation_stack,
    hermitian_stack,
    matrix_sqrt,
    partial_trace_stack,
    purity_stack,
    trace_product,
)

VAR_CLAMP_TOL = 1e-10

# Callers stack instances in batches of at most this many complex entries per
# stacked (N, D, D) operand: large enough to amortise numpy's per-call cost at
# small D, small enough that D = 64 batches stay half a megabyte. At D = 64 a
# batch is 8 rows, so a 60-trial verify runs 8 chunks, not 15 of 4 rows. That
# gains only at --threads 2, so it is in how the two pool threads share the
# chunks, not in per-call cost. Median pool phase of 40 `verify --dims 2,2,4,4
# --ensemble ginibre --rank 4 --trials 60` commands each, interleaved (2-core
# host, OPENBLAS_NUM_THREADS=1, numpy 2.4.6):
# - 2**14: 60.0 ms at --threads 1, 47.8 ms at --threads 2;
# - 2**15: 64.6 ms and 38.2 ms;
# - 2**16: 73.3 ms and 41.2 ms, and the sweep-wide benchmark's peak RSS rose
#   from 46.5-46.8 MB (2**14) to 53.2-53.5 MB, against 48.8-48.9 MB at 2**15.
# The few ms the pool loses at --threads 1 are about what cli._json_text's
# upper-triangle writer saves on the same command, so a whole --threads 1
# command is no slower: 71.2 ms at 2**14 writing every entry, 67.6 ms at
# 2**15 writing the upper triangle (in process, median of 16 alternating
# blocks of 15).
# The chunk size never changes a payload byte.
BATCH_ENTRIES = 2**15


def batch_rows(dim: int) -> int:
    """Instances per batch at total dimension `dim` (see BATCH_ENTRIES)."""
    return max(1, BATCH_ENTRIES // (dim * dim))


# Every identity of the chain, in the order it is checked: (stage, residual,
# allowed, message). A row fails where residual > allowed; both are functions
# of the stage's named arrays, and the message is formatted with the row's
# values. The report's values are named as its fields (REPORT_FIELDS).
_CHECKS = (
    # the moments: the variances before their clamp, then the inequality on the clamped ones
    ("moments", lambda x: -x.var_f, lambda x: VAR_CLAMP_TOL,
     f"var_f = {{var_f!r}} below -{VAR_CLAMP_TOL}"),
    ("moments", lambda x: -x.var_v, lambda x: VAR_CLAMP_TOL,
     f"var_v = {{var_v!r}} below -{VAR_CLAMP_TOL}"),
    ("moments", lambda x: x.cov_sq - x.product, lambda x: 1e-9 * (1.0 + x.product),
     "covariance inequality violated: var_f*var_v = {product!r} < |cov|^2 = {cov_sq!r}"),
    # P by the commutator is real
    ("power", lambda x: np.abs(x.power_imag), lambda x: 1e-10 * (1.0 + np.abs(x.power)),
     "charging power has imaginary part {power_imag:.3e}"),
    # the same P as 2 Im Cov, by the covariance
    ("shift", lambda x: np.abs(x.power - x.power_delta), lambda x: 1e-10 * (1.0 + np.abs(x.power)),
     "commutator-shift power identity violated: {power!r} vs {power_delta!r}"),
    # the bounds
    ("chain", lambda x: -x.corrected_bound, lambda x: 1e-9,
     "corrected bound is negative: {corrected_bound!r}"),
    ("chain", lambda x: x.corrected_bound - x.loose_bound,
     lambda x: 1e-9 * (1.0 + np.abs(x.corrected_bound)),
     "loose bound {loose_bound!r} below corrected bound {corrected_bound!r}"),
    ("chain", lambda x: x.power_sq - x.corrected_bound, lambda x: 1e-9 * (1.0 + x.corrected_bound),
     "power bound violated: power^2 = {power_sq!r} > bound = {corrected_bound!r}"),
    # the report: the ratio is its own residual; a negative or NaN ratio is out of range
    ("report", lambda x: np.where(x.saturation_ratio >= 0.0, x.saturation_ratio, np.inf),
     lambda x: 1.0 + 1e-9, "saturation ratio {saturation_ratio!r} outside [0, 1]"),
)


def _run_checks(rows: RowErrors, stage: str, **values) -> None:
    """Record the failures of `stage`'s rows of `_CHECKS` over the named arrays, in table order."""
    x = SimpleNamespace(**values)
    for tag, residual, allowed, message in _CHECKS:
        if tag == stage:
            rows.record(residual(x) > allowed(x), lambda i: NumericalIntegrityError(
                message.format(**{k: a[i].item() for k, a in values.items()})))


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of (F, V): means, variances, complex covariance."""

    mean_f: float
    mean_v: float
    var_f: float
    var_v: float
    cov: complex

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
        return MomentSet(mean_f=float(self.mean_f[i]), mean_v=float(self.mean_v[i]),
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
        return PowerBoundReport(**{k: float(getattr(self, k)[i]) for k in REPORT_FIELDS})


def _delta_stack(a: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """A - mean * identity per row: exactly Hermitian when A is, so not checked again."""
    return a - mean[:, None, None] * np.eye(a.shape[-1], dtype=complex)


def _battery_left(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(F (x) 1) A per row, contracted over the battery index: F (N, d_w, d_w), A (N, D, k)."""
    return (f @ a.reshape(a.shape[0], f.shape[-1], -1)).reshape(a.shape)


def _battery_right(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A (F (x) 1) per row, as ((F^T (x) 1) A^T)^T: from the transposes, not the adjoints, of A and F.

    The same arithmetic as `_battery_left`, so for exactly Hermitian operands
    the commutator of the two comes out exactly anti-Hermitian, as it did
    from the dense products. Returned C-contiguous, as the dense product was,
    so that the trace taken of it sums in the same order: as a transposed
    view, P moved in its last bits on 1,225 of 2,000 `mix` rows at D = 4, and
    its imaginary part at D = 64 grew from 8.0e-16 to 5.2e-15.
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


def _cov(rho, df, dv):
    """Cov = Tr(rho (dF (x) 1) dV) per row."""
    return trace_product(rho, _battery_left(df, dv))


def _moment_stage(rows: RowErrors, rho, f, v, s: TensorStructure):
    """The checks and arithmetic of `compute_moments`; returns the MomentBatch, dF and dV.

    var_F = Re Tr(rho_W dF dF), var_V = Re Tr(rho dV dV) and Cov = Tr(rho dF dV).
    """
    rho_w = partial_trace_stack(rho, s)
    mean_f = expectation_stack(rows, rho_w, f)
    mean_v = expectation_stack(rows, rho, v)
    df, dv = _delta_stack(f, mean_f), _delta_stack(v, mean_v)
    var_f = trace_product(rho_w, df @ df).real
    var_v = trace_product(rho, dv @ dv).real
    cov = _cov(rho, df, dv)
    clamped_f, clamped_v = (np.where(var < 0.0, 0.0, var) for var in (var_f, var_v))
    _run_checks(rows, "moments", var_f=var_f, var_v=var_v, product=clamped_f * clamped_v,
                cov_sq=np.abs(cov) ** 2)
    return MomentBatch(mean_f, mean_v, clamped_f, clamped_v, cov, purity_stack(rho_w), rows), df, dv


def _power_stage(rows: RowErrors, rho, df, dv):
    """P = -i Tr([rho, dF (x) 1] dV) per row, the paper's P exactly; asserted real to 1e-10."""
    lhs = _battery_right(rho, df)
    lhs -= _battery_left(df, rho)
    raw = -1j * trace_product(lhs, dv)
    _run_checks(rows, "power", power=raw.real, power_imag=raw.imag)
    return raw.real


def _cov_terms(cov):
    """The decomposition's three terms from Cov: |Cov|^2 twice, then 2 Re[Cov^2]."""
    fv = np.abs(cov) ** 2
    return fv, fv, 2.0 * (cov**2).real


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


def _chain_stage(rows: RowErrors, rho, f, v, s: TensorStructure) -> ReportBatch:
    """Every check of the chain after the inputs' Hermiticity, on exactly Hermitian stacks."""
    m, df, dv = _moment_stage(rows, rho, f, v, s)
    power = _power_stage(rows, rho, df, dv)
    _run_checks(rows, "shift", power=power, power_delta=2.0 * m.cov.imag)

    power_sq = power * power
    term_fv, term_vf, term_cross = _cov_terms(m.cov)
    bound = corrected_bound(m)
    report = ReportBatch(moments=m, power=power, power_sq=power_sq, term_fv=term_fv,
                         term_vf=term_vf, term_cross=term_cross, corrected_bound=bound,
                         loose_bound=loose_bound(m), slack=bound - power_sq,
                         saturation_ratio=saturation_ratio(power_sq, m))
    values = {k: getattr(report, k) for k in REPORT_FIELDS}
    _run_checks(rows, "chain", **values)
    _run_checks(rows, "report", **values)
    return report


def _batch(stage, rho, f, v, s: TensorStructure):
    rho, f, v = _checked_stacks(rho, f, v, s)
    return stage(RowErrors(rho.shape[0]), rho, f, v, s)


def moment_batch(rho, f, v, s: TensorStructure) -> MomentBatch:
    """`compute_moments` over stacks rho (N,D,D), F (N,d_w,d_w), V (N,D,D).

    The moment stage of `verify_batch`, with the same centred formulas.
    Precondition: rho, F and V are exactly Hermitian, and rho is a state, as
    the matrices of HermitianOperator and DensityMatrix and the draws are;
    nothing is checked again here, neither the inputs nor what the stage
    forms.
    """
    return _batch(_moment_stage, rho, f, v, s)[0]


def verify_batch(rho, f, v, s: TensorStructure) -> ReportBatch:
    """`verify_instance` over stacks rho (N,D,D), F (N,d_w,d_w), V (N,D,D).

    Checks the inputs are Hermitian, not rho's trace or positivity (a row of
    trace other than 1 is taken as it is), then runs every check of the
    chain, `_chain_stage`, in its order and at its tolerance, as a mask over
    the rows: the moments, the power by the commutator, the same power as
    2 Im Cov, which certifies the square-root decomposition, and the bounds.
    Rows are independent: a row's values and error do not depend on what
    else is in the stack.
    """
    rho, f, v = _checked_stacks(rho, f, v, s)
    rows = RowErrors(rho.shape[0])
    rho, f, v = (hermitian_stack(rows, x) for x in (rho, f, v))
    return _chain_stage(rows, rho, f, v, s)


def _verify_checked(rho, f, v, s: TensorStructure) -> ReportBatch:
    """`verify_batch` on stacks that DensityMatrix's and HermitianOperator's checks passed.

    Such stacks are exactly Hermitian: (A + A^dag)/2 is, and so is an exactly
    Hermitian matrix divided by a real trace. `verify_batch`'s input check
    would hand them back as they are, so it is skipped; every check of the
    chain after it runs. The draws, the trajectory states and the search's
    final candidate come this way.
    """
    return _batch(_chain_stage, rho, f, v, s)


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


def decomposition_terms(
    rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator, s: TensorStructure
) -> tuple[float, float, float]:
    """The three terms of the square-root decomposition of P^2.

    Returns (|Tr(sr dF dV sr)|^2, |Tr(sr dV dF sr)|^2, 2 Re[(Tr(rho dF dV))^2])
    with sr = sqrt(rho), taken from the moment stage's Cov = Tr(rho dF dV)
    as (|Cov|^2, |Cov|^2, 2 Re[Cov^2]) by the cyclic trace (see the module
    docstring); raises only for the moment stage's checks.
    """
    m = _one_instance(_moment_stage, rho, f, v, s)[0]
    return tuple(float(t[0]) for t in _cov_terms(m.cov))


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

    A one-row call of the chain `verify_batch` runs after its input check:
    DensityMatrix and HermitianOperator are exactly Hermitian by
    construction. Raises NumericalIntegrityError naming the violated identity
    if any link of the chain fails; a returned report means every check
    passed.
    """
    return _one_instance(_chain_stage, rho, f, v, s).row(0)
