"""Exact closed-system evolution and per-time power-bound trajectories.

The composite evolves under H = H0 + V by unitary conjugation with
U(t) = exp(-i H t), built from one spectral decomposition of H; there is no
integrator error to disentangle from bound diagnostics. Power is always
evaluated with the interaction V alone. When H0 commutes with the embedded
battery operator the power equals d<F>/dt, and trajectories carry a central
finite-difference estimate of that derivative for cross-checking; when it
does not commute the comparison is meaningless and the records say so.

`trajectory_report` returns a `Trajectory`: the grid, the verification
kernel's arrays over it and the finite differences, kept as columns from the
kernel to the output. It is a read-only sequence of `TrajectoryRecord`s,
each built only when it is indexed; `trajectory_rows` formats the CSV rows
straight from the columns.
"""

import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .moments import PowerBoundReport, ReportBatch, _verify_checked, batch_rows, concat_batches
from .moments import verify_instance  # noqa: F401  a name bench/tracer.py patches here
from .operators import (
    DensityMatrix,
    DimensionMismatchError,
    EigenDecomposition,
    HermitianOperator,
    RejectedInputError,
    RowErrors,
    TensorStructure,
    density_from_literal,
    density_stack,
    eig_decompose,
    embed_battery_op,
    hermitian_from_literal,
)

COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class HamiltonianSpec:
    """Non-interacting part, interaction, and the space they act on."""

    h0: HermitianOperator
    v: HermitianOperator
    structure: TensorStructure

    def __post_init__(self):
        d = self.structure.dim
        if self.h0.dim != d or self.v.dim != d:
            raise DimensionMismatchError(
                f"Hamiltonian dims ({self.h0.dim}, {self.v.dim}) != structure dim {d}"
            )

    def total(self) -> HermitianOperator:
        return HermitianOperator(self.h0.mat + self.v.mat)


# TrajectoryRecord's bound on the battery purity
_PURITY_MAX = 1.0 + 1e-9


def _purity_error(purity: float) -> RejectedInputError:
    return RejectedInputError(f"battery purity {purity!r} above 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """State of the verification chain at one grid time."""

    t: float
    report: PowerBoundReport
    mean_f: float
    battery_purity: float
    dfdt_fd: float | None
    power_tracks_dfdt: bool

    def __post_init__(self):
        if self.battery_purity > _PURITY_MAX:
            raise _purity_error(self.battery_purity)


@dataclass(frozen=True, eq=False)
class Trajectory(Sequence):
    """A verified trajectory as columns, one entry per grid point.

    `t` is the grid, `report` the kernel's ReportBatch over it (its moments
    hold <F>_W and the battery purity), `dfdt_fd` the central differences of
    <F>_W at the interior points, and `power_tracks_dfdt` whether [F (x) 1, H0]
    vanishes, so that P is d<F>/dt. Every array is read-only. As a sequence it
    holds one TrajectoryRecord per grid point, built when it is indexed; a
    slice is a list of records, and it equals a list or Trajectory of equal
    records, as the list it replaced did.
    """

    t: np.ndarray
    report: ReportBatch
    dfdt_fd: np.ndarray
    power_tracks_dfdt: bool

    @property
    def mean_f(self) -> np.ndarray:
        return self.report.moments.mean_f

    @property
    def battery_purity(self) -> np.ndarray:
        return self.report.moments.purity_w

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError(f"trajectory index {index} out of range for {n} points")
        i %= n
        return TrajectoryRecord(
            t=float(self.t[i]),
            report=self.report.row(i),
            mean_f=float(self.mean_f[i]),
            battery_purity=float(self.battery_purity[i]),
            dfdt_fd=float(self.dfdt_fd[i - 1]) if 0 < i < n - 1 else None,
            power_tracks_dfdt=self.power_tracks_dfdt,
        )

    def __eq__(self, other):
        # equal, as the list of records it replaced, to a list or trajectory of equal records
        if isinstance(other, (list, Trajectory)):
            return list(self) == list(other)
        return NotImplemented

    def columns(self) -> list[list]:
        """The TRAJECTORY_COLUMNS as lists of floats; dFdt_fd is None at both endpoints."""
        r = self.report
        values = (self.t, r.power, r.power_sq, r.corrected_bound, r.loose_bound, r.slack,
                  r.saturation_ratio, self.mean_f, self.battery_purity)
        return [x.tolist() for x in values] + [[None, *self.dfdt_fd.tolist(), None]]


def _evolved(dec: EigenDecomposition, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Stack of U(t) rho0 U(t)^dag over `times`, with U(t) = exp(-i H t) from H's decomposition."""
    vec = dec.vectors
    core = vec.conj().T @ rho0 @ vec
    u = vec * np.exp(-1j * np.multiply.outer(times, dec.eigenvalues))[:, None, :]
    return u @ core @ u.conj().swapaxes(-1, -2)


def propagate(rho0: DensityMatrix, h: HamiltonianSpec, t: float) -> DensityMatrix:
    """rho(t) = U rho0 U^dag with U = exp(-i (H0 + V) t)."""
    if rho0.dim != h.structure.dim:
        raise DimensionMismatchError(f"state dim {rho0.dim} != structure dim {h.structure.dim}")
    if not math.isfinite(t):
        raise RejectedInputError(f"time must be finite, got {t!r}")
    return DensityMatrix(_evolved(eig_decompose(h.total()), rho0.mat, np.array([t]))[0])


def trajectory_report(
    rho0: DensityMatrix,
    h: HamiltonianSpec,
    f: HermitianOperator,
    grid,
) -> Trajectory:
    """Evolve rho0 along the time grid and verify the bound chain at every point.

    The grid must be strictly increasing with at least 3 points so the interior
    finite differences exist; endpoints carry dfdt_fd = None. The grid is
    evolved and verified in batches of `batch_rows(D)` points; every state
    passes DensityMatrix's checks before any point is verified, as if each
    were wrapped on its own, and the eigendecomposition those checks make is
    the one sqrt(rho) is built from. The first failed check of the earliest
    failing point raises; then a battery purity above 1 + 1e-9 does, as
    TrajectoryRecord's check would.

    Returns a `Trajectory`: the kernel's arrays over the whole grid, which
    index as one TrajectoryRecord per point.
    """
    times = np.array([float(t) for t in grid])
    if len(times) < 3:
        raise RejectedInputError(f"grid needs at least 3 points, got {len(times)}")
    if np.any(times[1:] <= times[:-1]):
        raise RejectedInputError("grid times must be strictly increasing")
    s = h.structure
    if rho0.dim != s.dim:
        raise DimensionMismatchError(f"state dim {rho0.dim} != structure dim {s.dim}")

    f_emb = embed_battery_op(f, s)
    gate = bool(np.abs(f_emb.mat @ h.h0.mat - h.h0.mat @ f_emb.mat).max() <= COMMUTE_TOL)
    dec = eig_decompose(h.total())

    size = batch_rows(s.dim)
    batches = []
    failed = None
    for start in range(0, len(times), size):
        block = times[start : start + size]
        n = len(block)
        rows = RowErrors(n)
        states, _, eig = density_stack(rows, _evolved(dec, rho0.mat, block))
        rows.raise_first()
        batch = _verify_checked(states, np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                                np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s, rho_eig=eig)
        # a later chunk's DensityMatrix error outranks this chunk's first
        # verification error (states are checked before points are verified)
        failed = failed or next((e for e in batch.errors if e is not None), None)
        batches.append(batch)
    if failed is not None:
        raise failed

    report = concat_batches(batches)
    purity = report.moments.purity_w
    over = np.flatnonzero(purity > _PURITY_MAX)
    if over.size:
        raise _purity_error(float(purity[over[0]]))
    mean_f = report.moments.mean_f
    fd = (mean_f[2:] - mean_f[:-2]) / (times[2:] - times[:-2])
    # every array: the report's fields after its moments, the moments' before their errors
    for a in (times, fd, *report[1:], *report.moments[:-1]):
        a.setflags(write=False)
    return Trajectory(t=times, report=report, dfdt_fd=fd, power_tracks_dfdt=gate)


# ---------------------------------------------------------------------------
# built-in models and scenario files


def exchange_interaction(g: float, s: TensorStructure) -> HermitianOperator:
    """Excitation-swap coupling g (s+ (x) s- + s- (x) s+) between battery and system."""
    if s.d_w != 2 or s.d_s != 2:
        raise RejectedInputError("exchange model needs d_w = d_s = 2")
    sp = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|, raises toward sigma_z = +1
    sm = sp.conj().T
    core = g * (np.kron(sp, sm) + np.kron(sm, sp))
    rest = s.d_b * s.d_a
    return HermitianOperator(np.kron(core, np.eye(rest, dtype=complex)))


def ground_excited_state(s: TensorStructure) -> DensityMatrix:
    """Battery in the sigma_z ground level, system excited, bath/ancilla in level 0."""
    if s.d_w != 2 or s.d_s != 2:
        raise RejectedInputError("ground-excited state needs d_w = d_s = 2")
    ket = np.zeros(s.dim, dtype=complex)
    # basis index of |w=1, s=0, b=0, a=0> under battery-first ordering
    ket[1 * s.env_dim] = 1.0
    return DensityMatrix.from_ket(ket)


class ScenarioError(RejectedInputError):
    """Malformed scenario document; message names the offending field."""


_EXCHANGE_RE = re.compile(r"^exchange\(([^)]+)\)$")


def _scenario_fail(field: str, why: str):
    raise ScenarioError(f"field '{field}': {why}")


def parse_scenario(doc: dict) -> tuple[DensityMatrix, HamiltonianSpec, HermitianOperator, np.ndarray]:
    """Validate a scenario document and build (rho0, hamiltonian, F, time grid).

    Expected shape::

        {"structure": [dW, dS, dB, dA],
         "h0": matrix-literal | "zero",
         "v": matrix-literal | "exchange(g)",
         "f": matrix-literal,
         "rho0": matrix-literal | "ground-excited",
         "grid": {"t0": float, "t1": float, "steps": int}}
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("structure", "h0", "v", "f", "rho0", "grid"):
        if key not in doc:
            _scenario_fail(key, "missing")

    try:
        s = TensorStructure.from_dims(doc["structure"])
    except (RejectedInputError, TypeError, ValueError) as exc:
        _scenario_fail("structure", str(exc))

    h0_doc = doc["h0"]
    if h0_doc == "zero":
        h0 = HermitianOperator(np.zeros((s.dim, s.dim), dtype=complex))
    else:
        try:
            h0 = hermitian_from_literal(h0_doc)
        except RejectedInputError as exc:
            _scenario_fail("h0", str(exc))

    v_doc = doc["v"]
    if isinstance(v_doc, str):
        match = _EXCHANGE_RE.match(v_doc)
        if not match:
            _scenario_fail("v", f"unknown named model {v_doc!r}, expected 'exchange(g)'")
        try:
            g = float(match.group(1))
        except ValueError:
            _scenario_fail("v", f"coupling {match.group(1)!r} is not a number")
        try:
            v = exchange_interaction(g, s)
        except RejectedInputError as exc:
            _scenario_fail("v", str(exc))
    else:
        try:
            v = hermitian_from_literal(v_doc)
        except RejectedInputError as exc:
            _scenario_fail("v", str(exc))

    try:
        f = hermitian_from_literal(doc["f"])
    except RejectedInputError as exc:
        _scenario_fail("f", str(exc))
    if f.dim != s.d_w:
        _scenario_fail("f", f"dim {f.dim} != battery dim {s.d_w}")

    rho_doc = doc["rho0"]
    if rho_doc == "ground-excited":
        try:
            rho0 = ground_excited_state(s)
        except RejectedInputError as exc:
            _scenario_fail("rho0", str(exc))
    else:
        try:
            rho0 = density_from_literal(rho_doc)
        except RejectedInputError as exc:
            _scenario_fail("rho0", str(exc))
    if rho0.dim != s.dim:
        _scenario_fail("rho0", f"dim {rho0.dim} != total dim {s.dim}")

    grid_doc = doc["grid"]
    if not isinstance(grid_doc, dict):
        _scenario_fail("grid", "must be an object {t0, t1, steps}")
    try:
        t0 = float(grid_doc["t0"])
        t1 = float(grid_doc["t1"])
        steps = int(grid_doc["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        _scenario_fail("grid", f"needs numeric t0, t1 and integer steps ({exc})")
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        _scenario_fail("grid.t1", "need finite t0 < t1")
    if steps < 2:
        _scenario_fail("grid.steps", "need steps >= 2 (at least 3 grid points)")
    grid = np.linspace(t0, t1, steps + 1)

    try:
        h = HamiltonianSpec(h0=h0, v=v, structure=s)
    except DimensionMismatchError as exc:
        _scenario_fail("h0/v", str(exc))
    return rho0, h, f, grid


def builtin_exchange_scenario(g: float = 1.0, steps: int = 1000) -> dict:
    """The stock swap-coupling scenario document on a (2,2,1,1) space."""
    sigma_z = {"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    return {
        "structure": [2, 2, 1, 1],
        "h0": "zero",
        "v": f"exchange({g})",
        "f": sigma_z,
        "rho0": "ground-excited",
        "grid": {"t0": 0.0, "t1": math.pi, "steps": steps},
    }


TRAJECTORY_COLUMNS = (
    "t",
    "power",
    "power_sq",
    "corrected_bound",
    "loose_bound",
    "slack",
    "saturation_ratio",
    "mean_F",
    "battery_purity",
    "dFdt_fd",
)


_ROW = ",".join(["%.17g"] * len(TRAJECTORY_COLUMNS))
_ENDPOINT_ROW = _ROW.rsplit(",", 1)[0] + ","  # dFdt_fd left empty


def _trajectory_lines(trajectory: Trajectory):
    """Yield the CSV lines of the trajectory's rows, one %-format per row (see `trajectory_rows`)."""
    last = len(trajectory) - 1
    for i, values in enumerate(zip(*trajectory.columns())):
        yield _ROW % values if 0 < i < last else _ENDPOINT_ROW % values[:-1]


def trajectory_rows(trajectory: Trajectory):
    """Yield CSV rows matching TRAJECTORY_COLUMNS, floats at 17 significant digits.

    Each row is a list of strings, formatted from the trajectory's columns
    with one %-format per row; dFdt_fd is "" at both endpoints.
    """
    for line in _trajectory_lines(trajectory):
        yield line.split(",")
