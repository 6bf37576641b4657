"""Charging power, fluctuation moments, and the covariance-corrected power bound.

For a full state rho, a battery operator F and an interaction V, the
instantaneous charging power is

    P = -i Tr([rho, F (x) 1] V),

which is real for Hermitian inputs. Writing dF = F - <F>_W and dV = V - <V>,
the squared power decomposes through the positive root of rho as

    P^2 = |Tr(sr dF dV sr)|^2 + |Tr(sr dV dF sr)|^2 - 2 Re[(Tr(rho dF dV))^2],

with sr = sqrt(rho), and is bounded by

    P^2 <= 2 (var_F * var_V - Re[Cov(F,V)^2]).

The kernel takes each state as a factor Q (D x r) of rho = Q Q^dag / t,
t = |Q|^2, as every caller holds one: a draw's K / |K|_F, an evolved
U(t) Q0, a search's parameters, or a DensityMatrix's `factor`. With
A = (dF (x) 1) Q, B = dV Q and <X, Y> = Tr(X^dag Y), every moment is an inner product: var_F = |A|^2 / t,
var_V = |B|^2 / t and Cov(F,V) = Tr(rho dF dV) = <A, B> / t, kept complex
and unsymmetrized; <F> and the battery purity are taken on the reduced state
rho_W = Q_W Q_W^dag / t. That costs O(D^2 r) per row, D^3 only where r = D.
A shift of F or V by a multiple of the identity enters no product.

The bound is Cauchy-Schwarz for A and B: with mu = Cov / var_F,
var_F var_V - |Cov|^2 = var_F |B - mu A|^2 / t, so

    bound = (2 Im Cov)^2 + slack,    slack = 2 var_F |B - mu A|^2 / t,

and neither term is a difference of nearly equal numbers when the bound
saturates. P is reported as 2 Im Cov. By the cyclic trace Tr(sr X sr) =
Tr(rho X), so Tr(sr dF dV sr) = Cov and Tr(sr dV dF sr) = conj(Cov): the
decomposition's three terms are |Cov|^2, |Cov|^2 and 2 Re[Cov^2], and are
taken so. Their sum is 4 (Im Cov)^2, so the decomposition holds exactly
when P = 2 Im Cov, which the shift row of the check table certifies against
P by the commutator on Q, -i (<Q, (dF (x) 1) B> - <Q, dV A>) / t: a second
route to P that shares no product with <A, B>. No square root or
eigendecomposition is taken. Every identity of the chain is a row of one
table, `_CHECKS`, checked where the chain reaches it; a clean report
certifies the algebra numerically.

``verify_batch`` is the one implementation of the chain over stacks of
states: it checks them as DensityMatrix does, takes the factors
`density_stack` hands out and records each row's first failed check
instead of raising.
``_verify_checked`` and ``_moments_checked`` run the chain and its moment
stage on factor stacks whose states passed a boundary check (the draws, the
trajectories, the search, a DensityMatrix's factor). ``verify_instance``,
``compute_moments`` and ``decomposition_terms`` run the stage of it that
they name on a one-row stack of the DensityMatrix's factor, so each raises
only for the checks of its own part of the chain. ``MomentBatch.row`` and
``ReportBatch.row`` hand out a row that passed them as a plain ``MomentSet``
or ``PowerBoundReport``; those records check nothing themselves.

F (x) 1 itself is never formed: F stays a d_w x d_w stack, and its products
with Q and B are contractions over the battery index.
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
    _adjoint,
    density_stack,
    embed_battery_op,
    expectation_stack,
    hermitian_stack,
    matrix_sqrt,
    norm_sq_stack,
)

VAR_TOL = 1e-10

# Callers stack instances in batches of at most this many complex entries per
# stacked (N, D, D) operand: large enough to amortise numpy's per-call cost at
# small D, small enough that D = 64 batches stay half a megabyte. At D = 64 a
# batch is 8 rows, so a 60-trial verify runs 8 chunks. Median pool phase and
# whole command of 40 `verify --dims 2,2,4,4 --ensemble ginibre --rank 4
# --trials 60` commands each, interleaved in one process, with each verify
# thread reusing its chunk buffers and the payload written in 32 KiB blocks
# (2-core host, OPENBLAS_NUM_THREADS=1, numpy 2.4.6):
# - 2**14: 18.1 and 26.4 ms at --threads 1, 16.9 and 25.7 ms at --threads 2;
# - 2**15: 15.6 and 24.6 ms, 13.4 and 22.2 ms;
# - 2**16: 14.4 and 22.8 ms, 12.0 and 22.0 ms. The benchmark's sweep-wide read
#   2,756-2,789 items/s against 2,481-2,597 at 2**15 (8 s runs, seeds 1-3),
#   but its peak RSS rose from 45.2-45.3 MB to 49.1-49.4 MB, 10 % above the
#   44.6 MB of drawing every chunk into new arrays.
# So the half megabyte holds the batch at 2**15. The JSON writer no longer
# weighs in: cli._json_blocks writes a D = 64 payload in 32 KiB blocks at any
# batch size, where an upper-triangle writer once saved what 2**15 cost over
# 2**14 at --threads 1; 2**15 is now the faster of the two on both thread counts.
# The chunk size never changes a payload byte.
BATCH_ENTRIES = 2**15


def batch_rows(dim: int) -> int:
    """Instances per batch at total dimension `dim` (see BATCH_ENTRIES)."""
    return max(1, BATCH_ENTRIES // (dim * dim))


# Every identity of the chain, in the order it is checked: (stage, residual,
# allowed, message). A row fails where residual > allowed; both are functions
# of the stage's named arrays, and the message is formatted with the row's
# values. The report's values are named as its fields (REPORT_FIELDS);
# `commutator_sq` is the square of P by the commutator on Q, and
# `paper_bound` the bound by the paper's formula, 2 (var_F var_V - Re Cov^2).
# Two rows would hold by construction on the reported values, as the Gram
# bound is a sum of non-negative terms and at least (2 Im Cov)^2: the sign of
# the bound and P^2 <= bound. They take the other route's value instead.
_CHECKS = (
    # the moments: sums of squares, then Cauchy-Schwarz for the three inner products
    ("moments", lambda x: -x.var_f, lambda x: VAR_TOL,
     f"var_f = {{var_f!r}} below -{VAR_TOL}"),
    ("moments", lambda x: -x.var_v, lambda x: VAR_TOL,
     f"var_v = {{var_v!r}} below -{VAR_TOL}"),
    ("moments", lambda x: x.cov_sq - x.product, lambda x: 1e-9 * (1.0 + x.product),
     "covariance inequality violated: var_f*var_v = {product!r} < |cov|^2 = {cov_sq!r}"),
    # P by the commutator is real
    ("power", lambda x: np.abs(x.power_imag), lambda x: 1e-10 * (1.0 + np.abs(x.power)),
     "charging power has imaginary part {power_imag:.3e}"),
    # the same P as 2 Im Cov, by the covariance
    ("shift", lambda x: np.abs(x.power - x.power_delta), lambda x: 1e-10 * (1.0 + np.abs(x.power)),
     "commutator-shift power identity violated: {power!r} vs {power_delta!r}"),
    # the bounds
    ("chain", lambda x: -x.paper_bound, lambda x: 1e-9,
     "corrected bound is negative: {paper_bound!r}"),
    ("chain", lambda x: x.corrected_bound - x.loose_bound,
     lambda x: 1e-9 * (1.0 + np.abs(x.corrected_bound)),
     "loose bound {loose_bound!r} below corrected bound {corrected_bound!r}"),
    ("chain", lambda x: x.commutator_sq - x.corrected_bound, lambda x: 1e-9 * (1.0 + x.corrected_bound),
     "power bound violated: power^2 = {commutator_sq!r} > bound = {corrected_bound!r}"),
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

    `purity_w` is Tr(rho_W^2) of the reduced battery state, and `slack` the
    bound's Gram term 2 var_F |B - mu A|^2 / t (see the module docstring).
    """

    mean_f: np.ndarray
    mean_v: np.ndarray
    var_f: np.ndarray
    var_v: np.ndarray
    cov: np.ndarray
    purity_w: np.ndarray
    slack: np.ndarray
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
    """A - mean * identity per row: exactly Hermitian when A is, so not checked again.

    Only the diagonal is shifted, in a copy: on an 8-row D = 64 stack that
    takes 0.03 ms, and a broadcast product of the real means with a complex
    identity 0.54 ms.
    """
    d = a.copy()
    d.reshape(len(d), -1)[:, :: d.shape[-1] + 1] -= mean[:, None]
    return d


def _battery_left(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(F (x) 1) A per row, contracted over the battery index: F (N, d_w, d_w), A (N, D, k)."""
    return (f @ a.reshape(a.shape[0], f.shape[-1], -1)).reshape(a.shape)


def _times(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X Q per row, X (N, D, D) and factors q (N, D, r).

    A ket (r = 1) is multiplied by einsum's sums, not BLAS's matrix-vector
    kernel: on the exact gate's saturating D = 2 rows the AVX-512 kernel put
    P's largest error at 2.5e-15, einsum and the other OpenBLAS kernels at
    1.0e-15. At r = 1 the two cost about the same.
    """
    return np.einsum("nij,njk->nik", x, q) if q.shape[-1] == 1 else x @ q


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<A, B> = Tr(A^dag B) per row of two stacks of the same shape."""
    return np.einsum("nij,nij->n", a.conj(), b)


def _checked_stacks(q, f, v, s: TensorStructure):
    """The three stacks as complex arrays, after the dimension checks; q holds states or factors."""
    q, f, v = (np.asarray(x, dtype=complex) for x in (q, f, v))
    if f.shape[1:] != (s.d_w, s.d_w):
        raise DimensionMismatchError(f"battery operator dim {f.shape[-1]} != d_w {s.d_w}")
    if q.ndim != 3 or q.shape[1] != s.dim or v.shape[1:] != (s.dim, s.dim):
        raise DimensionMismatchError(
            f"state/interaction dims ({q.shape[-2]}, {v.shape[-1]}) != structure dim {s.dim}"
        )
    if not q.shape[0] == f.shape[0] == v.shape[0]:
        raise DimensionMismatchError(f"stack lengths differ: {q.shape[0]}, {f.shape[0]}, {v.shape[0]}")
    return q, f, v


def _gram(a, b, t):
    """(var_F, var_V, Cov) = (|A|^2, |B|^2, <A, B>) / t."""
    return norm_sq_stack(a) / t, norm_sq_stack(b) / t, _inner(a, b) / t


def _moment_stage(rows: RowErrors, q, f, v, s: TensorStructure):
    """The checks and arithmetic of `compute_moments` on factors q (N, D, r).

    Returns the MomentBatch and the power stage's operands. With t = |Q|^2,
    A = (dF (x) 1) Q and B = dV Q: var_F = |A|^2 / t, var_V = |B|^2 / t,
    Cov = <A, B> / t and slack = 2 var_F |B - mu A|^2 / t with
    mu = Cov / var_F (0 where var_F = 0, and so A = 0).
    """
    t = norm_sq_stack(q)
    t = np.where(t > 0.0, t, 1.0)  # a zero factor is a row rejected where it entered
    qw = q.reshape(len(q), s.d_w, -1)
    rho_w = qw @ _adjoint(qw) / t[:, None, None]
    mean_f = expectation_stack(rows, rho_w, f)
    mean_v = expectation_stack(rows, _adjoint(q), _times(v, q)) / t
    df, dv = _delta_stack(f, mean_f), _delta_stack(v, mean_v)
    a, b = _battery_left(df, q), _times(dv, q)
    var_f, var_v, cov = _gram(a, b, t)
    mu = cov / np.where(var_f > 0.0, var_f, 1.0)
    slack = 2.0 * var_f * norm_sq_stack(b - mu[:, None, None] * a) / t
    _run_checks(rows, "moments", var_f=var_f, var_v=var_v, product=var_f * var_v,
                cov_sq=np.abs(cov) ** 2)
    m = MomentBatch(mean_f, mean_v, var_f, var_v, cov, norm_sq_stack(rho_w), slack, rows)
    return m, (t, a, b, df, dv)


def _power_stage(rows: RowErrors, q, t, a, b, df, dv):
    """P = -i Tr([rho, dF (x) 1] dV) by the commutator on Q, -i (<Q, (dF (x) 1) B> - <Q, dV A>) / t.

    The paper's P exactly, as [rho, cI] = 0; asserted real to 1e-10.
    """
    raw = -1j * (_inner(q, _battery_left(df, b)) - _inner(q, _times(dv, a))) / t
    _run_checks(rows, "power", power=raw.real, power_imag=raw.imag)
    return raw.real


def _cov_terms(cov):
    """The decomposition's three terms from Cov: |Cov|^2 twice, then 2 Re[Cov^2]."""
    fv = np.abs(cov) ** 2
    return fv, fv, 2.0 * (cov**2).real


def gram_bound(m: MomentBatch):
    """The corrected bound as (2 Im Cov)^2 + slack, the Gram form, for a MomentBatch."""
    return (2.0 * m.cov.imag) ** 2 + m.slack


def saturation_ratio(power_sq, m: MomentBatch, cap=1.0 + 1e-9):
    """power^2 / gram_bound(m), capped at `cap`, for a MomentBatch `m`.

    Defined as 0 where the bound is <= 1e-14 * min(1, <F^2> <V^2>), that is,
    within round-off of 0 at the scale of F and V: the cutoff shrinks with F
    and V, so scaling them down leaves the ratio as it is, and it is never
    above an absolute 1e-14.
    """
    bound = gram_bound(m)
    scale = (m.var_f + m.mean_f**2) * (m.var_v + m.mean_v**2)
    degenerate = bound <= 1e-14 * np.minimum(1.0, scale)
    return np.where(degenerate, 0.0, np.minimum(power_sq / np.where(degenerate, 1.0, bound), cap))


def _chain_stage(rows: RowErrors, q, f, v, s: TensorStructure) -> ReportBatch:
    """Every check of the chain after the inputs' boundary checks, on factor stacks q."""
    m, operands = _moment_stage(rows, q, f, v, s)
    commutator = _power_stage(rows, q, *operands)
    power = 2.0 * m.cov.imag
    _run_checks(rows, "shift", power=commutator, power_delta=power)

    power_sq = power * power
    term_fv, term_vf, term_cross = _cov_terms(m.cov)
    report = ReportBatch(moments=m, power=power, power_sq=power_sq, term_fv=term_fv,
                         term_vf=term_vf, term_cross=term_cross, corrected_bound=gram_bound(m),
                         loose_bound=loose_bound(m), slack=m.slack,
                         saturation_ratio=saturation_ratio(power_sq, m))
    values = {k: getattr(report, k) for k in REPORT_FIELDS}
    _run_checks(rows, "chain", **values, paper_bound=corrected_bound(m),
                commutator_sq=commutator * commutator)
    _run_checks(rows, "report", **values)
    return report


def _batch(stage, q, f, v, s: TensorStructure):
    q, f, v = _checked_stacks(q, f, v, s)
    return stage(RowErrors(q.shape[0]), q, f, v, s)


def _states_batch(stage, rho, f, v, s: TensorStructure):
    """`stage` on stacks of states after DensityMatrix's and HermitianOperator's checks, on their factors."""
    rho, f, v = _checked_stacks(rho, f, v, s)
    if rho.shape[2] != s.dim:
        raise DimensionMismatchError(f"state dims {rho.shape[1:]} != structure dim {s.dim}")
    rows = RowErrors(rho.shape[0])
    q = density_stack(rows, rho)[1]
    return stage(rows, q, hermitian_stack(rows, f), hermitian_stack(rows, v), s)


def moment_batch(rho, f, v, s: TensorStructure) -> MomentBatch:
    """`compute_moments` over stacks rho (N,D,D), F (N,d_w,d_w), V (N,D,D).

    The moment stage of `verify_batch`, with its input checks: each row of
    rho passes DensityMatrix's checks and the kernel takes its factor
    u sqrt(clip(w, 0)); F and V pass HermitianOperator's.
    """
    return _states_batch(_moment_stage, rho, f, v, s)[0]


def verify_batch(rho, f, v, s: TensorStructure) -> ReportBatch:
    """`verify_instance` over stacks rho (N,D,D), F (N,d_w,d_w), V (N,D,D).

    Checks each state as DensityMatrix does (Hermiticity, trace, positivity,
    purity; a round-off eigenvalue below zero is clamped) and F and V as
    HermitianOperator does, then runs every check of the chain,
    `_chain_stage`, on the states' factors u sqrt(clip(w, 0)), in its order
    and at its tolerance, as a mask over the rows: the moments, the power by the
    commutator, the same power as 2 Im Cov, which certifies the square-root
    decomposition, and the bounds. Rows are independent: a row's values and
    error do not depend on what else is in the stack.
    """
    return _states_batch(_chain_stage, rho, f, v, s)


def _verify_checked(q, f, v, s: TensorStructure) -> ReportBatch:
    """The chain on factor stacks q (N, D, r) whose states, and F and V, passed a boundary check.

    `factor_stack`'s or DensityMatrix's for q (a trajectory's rho0, which a
    checked U(t) evolves), HermitianOperator's for F and V, which hands back
    exactly Hermitian matrices, or a draw's, whose F and V are exactly
    Hermitian by construction. Every check of the chain runs. The draws,
    the trajectory states, the search's final candidate and the demo come
    this way.
    """
    return _batch(_chain_stage, q, f, v, s)


def _moments_checked(q, f, v, s: TensorStructure) -> MomentBatch:
    """The moment stage on factor stacks that passed a boundary check, as in `_verify_checked`: the search's."""
    return _batch(_moment_stage, q, f, v, s)[0]


def concat_batches(batches: list[ReportBatch]) -> ReportBatch:
    """The rows of `batches`, in order, as one ReportBatch (new arrays)."""
    # the moments' arrays come before their errors, the report's after its moments
    errors = RowErrors(0)
    errors.extend(e for b in batches for e in b.errors)
    moments = MomentBatch(*map(np.concatenate, zip(*(b.moments[:-1] for b in batches))), errors)
    return ReportBatch(moments, *map(np.concatenate, zip(*(b[1:] for b in batches))))


def _one_instance(stage, rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator,
                  s: TensorStructure):
    """`stage` on one-row stacks of the instance, rho by its factor; raises the row's first failed check."""
    rows = RowErrors(1)
    out = stage(rows, *_checked_stacks(rho.factor[None], f.mat[None], v.mat[None], s), s)
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
    """Upper bound on P^2 by the paper's formula, 2 (var_F * var_V - Re[cov^2]), for a MomentSet or MomentBatch."""
    return 2.0 * (m.var_f * m.var_v - (m.cov**2).real)


def loose_bound(m):
    """The weaker comparison bound 4 * var_F * var_V (never below the corrected one)."""
    return 4.0 * m.var_f * m.var_v


def verify_instance(
    rho: DensityMatrix, f: HermitianOperator, v: HermitianOperator, s: TensorStructure
) -> PowerBoundReport:
    """Full verification of one instance: power, moments, decomposition, bounds.

    A one-row call of the chain on rho's factor: DensityMatrix and
    HermitianOperator passed their checks at construction. Raises
    NumericalIntegrityError naming the violated identity if any link of the
    chain fails; a returned report means every check passed.
    """
    return _one_instance(_chain_stage, rho, f, v, s).row(0)
