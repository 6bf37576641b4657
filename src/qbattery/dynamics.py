"""Exact closed-system evolution and per-time power-bound trajectories.

The composite evolves under H = H0 + V by unitary conjugation with
U(t) = exp(-i H t), built from one spectral decomposition of H; there is no
integrator error to disentangle from bound diagnostics. The initial state is
not decomposed here: it carries the factor Q0 of rho0 = Q0 Q0^dag it was
checked on when it was built, and the state at every grid point is handed
to the kernel as its factor U(t) Q0. Power is
always evaluated with the interaction V alone. When H0 commutes with the
embedded battery operator the power equals d<F>/dt, and trajectories carry a
central finite-difference estimate of that derivative for cross-checking;
when it does not commute the comparison is meaningless and the trajectory
says so (`Trajectory.power_tracks_dfdt`, which the evolve manifest records).

`trajectory_report` returns a `Trajectory`: the grid, the verification
kernel's arrays over it and the finite differences, kept as read-only
columns from the kernel to the output; `trajectory_rows` formats the CSV
rows straight from them.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .moments import REPORT_FIELDS, ReportBatch, _verify_checked, batch_rows, concat_batches
from .moments import verify_instance  # noqa: F401  a name bench/tracer.py patches here
from .operators import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    RejectedInputError,
    TensorStructure,
    _is_integer,
    _is_number,
    _one_row,
    density_from_literal,
    eig_stack,
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A verified trajectory as columns, one entry per grid point.

    `t` is the grid, `report` the kernel's ReportBatch over it (its moments
    hold <F>_W and the battery purity), `dfdt_fd` the central differences of
    <F>_W at the interior points, so one entry shorter at each end, and
    `power_tracks_dfdt` whether [F (x) 1, H0] vanishes, so that P is d<F>/dt.
    Every array is read-only.
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

    def columns(self) -> list[list]:
        """The TRAJECTORY_COLUMNS as lists of floats; dFdt_fd is None at both endpoints."""
        r = self.report
        values = (self.t, r.power, r.power_sq, r.corrected_bound, r.loose_bound, r.slack,
                  r.saturation_ratio, self.mean_f, self.battery_purity)
        return [x.tolist() for x in values] + [[None, *self.dfdt_fd.tolist(), None]]


def _evolved(w: np.ndarray, vec: np.ndarray, q0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """U(t) q0 over `times` for a factor q0 (D, r), with U(t) = exp(-i H t) from H = vec diag(w) vec^dag."""
    return (vec * np.exp(-1j * np.multiply.outer(times, w))[:, None, :]) @ (vec.conj().T @ q0)


def trajectory_report(
    rho0: DensityMatrix,
    h: HamiltonianSpec,
    f: HermitianOperator,
    grid,
) -> Trajectory:
    """Evolve rho0 along the time grid and verify the bound chain at every point.

    The grid must be finite and strictly increasing, with at least 3 points
    so the interior finite differences exist; `dfdt_fd` has none at the
    endpoints. Only H is decomposed, by `eig_stack`, whose checks keep U(t)
    unitary to 1e-10. rho0 is taken as the factor Q0 its DensityMatrix was
    checked on: the state at t is U(t) Q0 Q0^dag U(t)^dag, and the kernel
    takes its factor U(t) Q0, so no state is formed or decomposed. Any
    factor is a valid state, and every check of the chain runs at every
    point. The grid is evolved and verified in batches of
    `batch_rows(D, r)` points, r the width of Q0: 2048 at D = 4 for a full
    rank Q0, 3276 for a ket. The first failed check of the earliest failing
    point raises.

    Returns a `Trajectory`: the kernel's arrays over the whole grid.
    """
    times = np.array([float(t) for t in grid])
    if len(times) < 3:
        raise RejectedInputError(f"grid needs at least 3 points, got {len(times)}")
    if not np.isfinite(times).all():
        raise RejectedInputError("grid times must be finite")
    if np.any(times[1:] <= times[:-1]):
        raise RejectedInputError("grid times must be strictly increasing")
    s = h.structure
    if rho0.dim != s.dim:
        raise DimensionMismatchError(f"state dim {rho0.dim} != structure dim {s.dim}")

    f_emb = embed_battery_op(f, s)
    gate = bool(np.abs(f_emb.mat @ h.h0.mat - h.h0.mat @ f_emb.mat).max() <= COMMUTE_TOL)
    (w,), (vec,) = _one_row(eig_stack, h.total().mat)
    size = batch_rows(s.dim, rho0.factor.shape[-1])
    batches = []
    for start in range(0, len(times), size):
        block = times[start : start + size]
        n = len(block)
        batches.append(_verify_checked(_evolved(w, vec, rho0.factor, block),
                                       np.broadcast_to(f.mat, (n, s.d_w, s.d_w)),
                                       np.broadcast_to(h.v.mat, (n, s.dim, s.dim)), s))
    report = concat_batches(batches)
    report.errors.raise_first()
    mean_f = report.moments.mean_f
    fd = (mean_f[2:] - mean_f[:-2]) / (times[2:] - times[:-2])
    m = report.moments
    for a in (times, fd, *(getattr(report, k) for k in REPORT_FIELDS),
              *(getattr(m, k) for k in m._fields if k != "errors")):
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


def _field(name: str, build, *args):
    """build(*args), its rejection of the input raised as a ScenarioError naming `name`.

    `build` may raise a ScenarioError itself, to name a part of its field.
    """
    try:
        return build(*args)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:  # RejectedInputError is a ValueError
        raise ScenarioError(f"field '{name}': {exc}") from None


def _h0(doc, s: TensorStructure) -> HermitianOperator:
    if doc == "zero":
        return HermitianOperator(np.zeros((s.dim, s.dim), dtype=complex))
    return hermitian_from_literal(doc)


def _interaction(doc, s: TensorStructure) -> HermitianOperator:
    if not isinstance(doc, str):
        return hermitian_from_literal(doc)
    match = _EXCHANGE_RE.match(doc)
    if not match:
        raise ValueError(f"unknown named model {doc!r}, expected 'exchange(g)'")
    try:
        g = float(match.group(1))
    except ValueError:
        raise ValueError(f"coupling {match.group(1)!r} is not a number") from None
    return exchange_interaction(g, s)


def _battery_operator(doc, s: TensorStructure) -> HermitianOperator:
    f = hermitian_from_literal(doc)
    if f.dim != s.d_w:
        raise ValueError(f"dim {f.dim} != battery dim {s.d_w}")
    return f


def _initial_state(doc, s: TensorStructure) -> DensityMatrix:
    rho0 = ground_excited_state(s) if doc == "ground-excited" else density_from_literal(doc)
    if rho0.dim != s.dim:
        raise ValueError(f"dim {rho0.dim} != total dim {s.dim}")
    return rho0


def _grid(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise TypeError("must be an object {t0, t1, steps}")
    try:
        t0, t1, steps = doc["t0"], doc["t1"], doc["steps"]
        if not (_is_number(t0) and _is_number(t1) and _is_integer(steps)):
            raise TypeError(f"got t0 {t0!r}, t1 {t1!r}, steps {steps!r}")
    except (KeyError, TypeError) as exc:
        raise TypeError(f"needs numeric t0, t1 and integer steps ({exc})") from None
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        raise ScenarioError("field 'grid.t1': need finite t0 < t1")
    if steps < 2:
        raise ScenarioError("field 'grid.steps': need steps >= 2 (at least 3 grid points)")
    return np.linspace(t0, t1, steps + 1)


def parse_scenario(doc: dict) -> tuple[DensityMatrix, HamiltonianSpec, HermitianOperator, np.ndarray]:
    """Validate a scenario document and build (rho0, hamiltonian, F, time grid).

    Expected shape::

        {"structure": [dW, dS, dB, dA],
         "h0": matrix-literal | "zero",
         "v": matrix-literal | "exchange(g)",
         "f": matrix-literal,
         "rho0": matrix-literal | "ground-excited",
         "grid": {"t0": float, "t1": float, "steps": int}}

    Integers must be JSON integers and numbers JSON numbers: a string, a
    bool, or a float where an integer is wanted is rejected, never
    converted. Every error is a ScenarioError that names the field.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("structure", "h0", "v", "f", "rho0", "grid"):
        if key not in doc:
            raise ScenarioError(f"field '{key}': missing")
    s = _field("structure", TensorStructure.from_dims, doc["structure"])
    h0 = _field("h0", _h0, doc["h0"], s)
    v = _field("v", _interaction, doc["v"], s)
    f = _field("f", _battery_operator, doc["f"], s)
    rho0 = _field("rho0", _initial_state, doc["rho0"], s)
    grid = _field("grid", _grid, doc["grid"])
    return rho0, _field("h0/v", HamiltonianSpec, h0, v, s), f, grid


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
    last = len(trajectory.t) - 1
    for i, values in enumerate(zip(*trajectory.columns())):
        yield _ROW % values if 0 < i < last else _ENDPOINT_ROW % values[:-1]


def trajectory_rows(trajectory: Trajectory):
    """Yield CSV rows matching TRAJECTORY_COLUMNS, floats at 17 significant digits.

    Each row is a list of strings, formatted from the trajectory's columns
    with one %-format per row; dFdt_fd is "" at both endpoints.
    """
    for line in _trajectory_lines(trajectory):
        yield line.split(",")
