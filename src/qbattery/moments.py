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
table, `_CHECKS`, from the means (the traces Tr(rho_W F) and Tr(Q^dag V Q)
are real) to the saturation ratio, checked at two points: the five
"moments" rows on the moment stage's arrays, the six "chain" rows on the
report's. A clean report certifies the algebra numerically.

``_verify_checked`` and ``_moments_checked`` run the chain and its moment
stage on complex factor stacks of the right shapes whose states, and F and
V, passed a boundary check where the stacks were built: the draws, the
trajectories and the search's candidates; nothing here checks them again.
``_one_instance`` checks the dimensions of one DensityMatrix and two
HermitianOperators and runs a stage on a one-row stack of the state's
factor, so ``verify_instance``, ``compute_moments`` and
``decomposition_terms`` each raise only for the checks of the stage they
name; the search's final candidate and the demo run the chain so.
``MomentBatch.row`` and ``ReportBatch.row`` hand out a row that passed them
as a plain ``MomentSet`` or ``PowerBoundReport``; those records check
nothing themselves.

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
    _one_row,
    embed_battery_op,
    matrix_sqrt,
    norm_sq_stack,
)

VAR_TOL = 1e-10

# Callers stack instances in batches of at most this many complex entries,
# counting a row as D (D + r): D^2 for V and its D x D temporaries, and D r
# for the factor Q (D x r) and the factor-sized products A and B, r being
# the widest factor the batch can hold. At full rank that is 2 D^2, so a
# batch holds 2**15 // D^2 rows, as when batches were sized by D alone: 8192
# at D = 2, 128 at D = 16, 8 at D = 64. A rank-4 or a pure D = 64 batch
# holds 15. Each verify thread draws into its own Workspace, whose arrays
# outlive the chunk, and the kernel writes dV into the draw's normals array
# (see `_verify_checked`), so wider chunks fault in few new pages. Medians of
# 40 `verify --dims 2,2,4,4 --ensemble ginibre --rank 4 --trials 60` commands
# in one process, six interleaved runs (2-core host, OPENBLAS_NUM_THREADS=1,
# numpy 2.4.6): the pool phase ("chunks" in stage_seconds) took 14.3-19.2 ms
# at --threads 1 and 10.7-13.7 ms at --threads 2 in eight 8-row chunks, and
# 12.8-18.7 ms and 9.0-12.0 ms in four 15-row chunks; the benchmark's
# sweep-wide peak RSS went from 45.2 to 46.7 MB (10 pairs of 8 s runs). The
# gain is the cost each chunk adds on two threads (see cli._map_ordered),
# not arithmetic. The chunk size never changes a payload byte.
BATCH_ENTRIES = 2**16


def batch_rows(dim: int, width: int) -> int:
    """Instances per batch at total dimension `dim` with factors at most `width` wide (see BATCH_ENTRIES)."""
    return max(1, BATCH_ENTRIES // (dim * (dim + width)))


# Every identity of the chain, in the order it is checked: (stage, residual,
# allowed, message), the stage "moments" or "chain" (see the module
# docstring). A row fails where residual > allowed; both are functions of the
# stage's named arrays, and the message is formatted with the row's values.
# The report's values are named as its fields (REPORT_FIELDS); `commutator`
# and `commutator_imag` are the parts of P by the commutator on Q,
# `commutator_sq` the square of the first, and `paper_bound` the bound by the
# paper's formula, 2 (var_F var_V - Re Cov^2).
# Two rows would hold by construction on the reported values, as the Gram
# bound is a sum of non-negative terms and at least (2 Im Cov)^2: the sign of
# the bound and P^2 <= bound. They take the other route's value instead.
_CHECKS = (
    # the means: the traces Tr(rho_W F) and Tr(Q^dag V Q) of Hermitian products are real
    ("moments", lambda x: np.abs(x.trace_f.imag), lambda x: 1e-10 * (1.0 + np.abs(x.trace_f.real)),
     "mean_f has imaginary part {trace_f.imag:.3e}"),
    ("moments", lambda x: np.abs(x.trace_v.imag), lambda x: 1e-10 * (1.0 + np.abs(x.trace_v.real)),
     "mean_v has imaginary part {trace_v.imag:.3e}"),
    # the moments: sums of squares, then Cauchy-Schwarz for the three inner products
    ("moments", lambda x: -x.var_f, lambda x: VAR_TOL,
     f"var_f = {{var_f!r}} below -{VAR_TOL}"),
    ("moments", lambda x: -x.var_v, lambda x: VAR_TOL,
     f"var_v = {{var_v!r}} below -{VAR_TOL}"),
    ("moments", lambda x: x.cov_sq - x.product, lambda x: 1e-9 * (1.0 + x.product),
     "covariance inequality violated: var_f*var_v = {product!r} < |cov|^2 = {cov_sq!r}"),
    # P by the commutator is real
    ("chain", lambda x: np.abs(x.commutator_imag), lambda x: 1e-10 * (1.0 + np.abs(x.commutator)),
     "charging power has imaginary part {commutator_imag:.3e}"),
    # the same P as 2 Im Cov, by the covariance
    ("chain", lambda x: np.abs(x.commutator - x.power), lambda x: 1e-10 * (1.0 + np.abs(x.commutator)),
     "commutator-shift power identity violated: {commutator!r} vs {power!r}"),
    # the bounds
    ("chain", lambda x: -x.paper_bound, lambda x: 1e-9,
     "corrected bound is negative: {paper_bound!r}"),
    ("chain", lambda x: x.corrected_bound - x.loose_bound,
     lambda x: 1e-9 * (1.0 + np.abs(x.corrected_bound)),
     "loose bound {loose_bound!r} below corrected bound {corrected_bound!r}"),
    ("chain", lambda x: x.commutator_sq - x.corrected_bound, lambda x: 1e-9 * (1.0 + x.corrected_bound),
     "power bound violated: power^2 = {commutator_sq!r} > bound = {corrected_bound!r}"),
    # the report: the ratio is its own residual; a negative or NaN ratio is out of range
    ("chain", lambda x: np.where(x.saturation_ratio >= 0.0, x.saturation_ratio, np.inf),
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
    """The chain's results: every PowerBoundReport field as an array, plus the moments.

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


def _delta_stack(a: np.ndarray, mean: np.ndarray, out=None) -> np.ndarray:
    """A - mean * identity per row: exactly Hermitian when A is, so not checked again.

    Only the diagonal is shifted, in a copy, written into `out` when one is
    given, which must be C-contiguous: on an 8-row D = 64 stack that takes
    0.03 ms, and a broadcast product of the real means with a complex
    identity 0.54 ms.
    """
    if out is None:
        out = a.copy()
    else:
        out[...] = a
    out.reshape(len(out), -1)[:, :: out.shape[-1] + 1] -= mean[:, None]
    return out


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


def _gram(a, b, t):
    """(var_F, var_V, Cov) = (|A|^2, |B|^2, <A, B>) / t."""
    return norm_sq_stack(a) / t, norm_sq_stack(b) / t, _inner(a, b) / t


def _moment_stage(rows: RowErrors, q, f, v, s: TensorStructure, dv=None):
    """The checks and arithmetic of `compute_moments` on factors q (N, D, r).

    Returns the MomentBatch and the power stage's operands. With t = |Q|^2,
    A = (dF (x) 1) Q and B = dV Q: var_F = |A|^2 / t, var_V = |B|^2 / t,
    Cov = <A, B> / t and slack = 2 var_F |B - mu A|^2 / t with
    mu = Cov / var_F (0 where var_F = 0, and so A = 0). dV is written into
    `dv`, an (N, D, D) complex array, when one is given.
    """
    t = norm_sq_stack(q)
    t = np.where(t > 0.0, t, 1.0)  # a zero factor is a row rejected where it entered
    qw = q.reshape(len(q), s.d_w, -1)
    rho_w = qw @ _adjoint(qw) / t[:, None, None]
    trace_f = np.einsum("nij,nji->n", rho_w, f)
    trace_v = np.einsum("nij,nji->n", _adjoint(q), _times(v, q))
    mean_f, mean_v = trace_f.real, trace_v.real / t
    df, dv = _delta_stack(f, mean_f), _delta_stack(v, mean_v, dv)
    a, b = _battery_left(df, q), _times(dv, q)
    var_f, var_v, cov = _gram(a, b, t)
    mu = cov / np.where(var_f > 0.0, var_f, 1.0)
    slack = 2.0 * var_f * norm_sq_stack(b - mu[:, None, None] * a) / t
    _run_checks(rows, "moments", trace_f=trace_f, trace_v=trace_v, var_f=var_f, var_v=var_v,
                product=var_f * var_v, cov_sq=np.abs(cov) ** 2)
    m = MomentBatch(mean_f, mean_v, var_f, var_v, cov, norm_sq_stack(rho_w), slack, rows)
    return m, (t, a, b, df, dv)


def _power_stage(q, t, a, b, df, dv):
    """P = -i Tr([rho, dF (x) 1] dV) by the commutator on Q, -i (<Q, (dF (x) 1) B> - <Q, dV A>) / t.

    The paper's P exactly, as [rho, cI] = 0, kept complex: a "chain" row asserts it real to 1e-10.
    """
    return -1j * (_inner(q, _battery_left(df, b)) - _inner(q, _times(dv, a))) / t


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


def _chain_stage(rows: RowErrors, q, f, v, s: TensorStructure, dv=None) -> ReportBatch:
    """Every check of the chain after the inputs' boundary checks, on factor stacks q."""
    m, operands = _moment_stage(rows, q, f, v, s, dv)
    commutator = _power_stage(q, *operands)
    power = 2.0 * m.cov.imag
    power_sq = power * power
    term_fv, term_vf, term_cross = _cov_terms(m.cov)
    report = ReportBatch(moments=m, power=power, power_sq=power_sq, term_fv=term_fv,
                         term_vf=term_vf, term_cross=term_cross, corrected_bound=gram_bound(m),
                         loose_bound=loose_bound(m), slack=m.slack,
                         saturation_ratio=saturation_ratio(power_sq, m))
    _run_checks(rows, "chain", **{k: getattr(report, k) for k in REPORT_FIELDS},
                commutator=commutator.real, commutator_imag=commutator.imag,
                commutator_sq=commutator.real * commutator.real, paper_bound=corrected_bound(m))
    return report


def _verify_checked(q, f, v, s: TensorStructure, dv=None) -> ReportBatch:
    """The chain on complex factor stacks q (N, D, r), F (N, d_w, d_w) and V (N, D, D).

    Their states, and F and V, passed a boundary check where the stacks were
    built: `factor_stack`'s or DensityMatrix's for q (a trajectory's rho0,
    which a checked U(t) evolves), HermitianOperator's for F and V, which
    hands back exactly Hermitian matrices, or a draw's, whose F and V are
    exactly Hermitian by construction. Every check of the chain runs. The
    draws and the trajectory states come this way.

    dV = V - <V> I, the chain's one D x D temporary where r < D, is written
    into `dv`, an (N, D, D) complex array that shares no memory with q, F
    or V, when one is given; nothing returned is a view of it. Verify's
    chunks pass their draws' normals array, which the draw is done with.
    """
    return _chain_stage(RowErrors(len(q)), q, f, v, s, dv)


def _moments_checked(q, f, v, s: TensorStructure) -> MomentBatch:
    """The moment stage on stacks that passed a boundary check, as in `_verify_checked`: the search's."""
    return _moment_stage(RowErrors(len(q)), q, f, v, s)[0]


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
    if f.dim != s.d_w:
        raise DimensionMismatchError(f"battery operator dim {f.dim} != d_w {s.d_w}")
    if rho.dim != s.dim or v.dim != s.dim:
        raise DimensionMismatchError(f"state/interaction dims ({rho.dim}, {v.dim}) != structure dim {s.dim}")
    return _one_row(lambda rows, q, fs, vs: stage(rows, q, fs, vs, s), rho.factor, f.mat, v.mat)


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
