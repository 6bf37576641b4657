"""Output checks for the benchmark's commands, in raw numpy.

Nothing here calls `qbattery.moments`: power, moments and bounds are
recomputed from the matrices with plain numpy, the way
`tests/test_acceptance.py` does, so a defect in the moment layer cannot hide
itself. Each check raises `CheckFailed` with a reason, or returns the facts
the benchmark records about the output (search evaluation counts).
"""

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from qbattery.ensembles import draw_instance
from qbattery.operators import TensorStructure

from workloads import SEARCH_BUDGET, ZERO_POWER_MIN

# Same tolerances as the acceptance gate's raw-numpy cross-checks.
VALUE_TOL = 1e-9
# Round-off allowed between the search's own objective and this recomputation
# when a threshold is met with no margin to spare.
THRESHOLD_TOL = 1e-12
VERIFY_SAMPLES = 4
SATURATION_GOAL = 0.999
ENTANGLED_PURITY_CAP = 0.999
STATE_KIND = {"gue-ops": "mix", "ginibre": "ginibre", "haar": "haar"}


class CheckFailed(Exception):
    """A command's output does not match the independent recomputation."""


def _require(ok: bool, why: str):
    if not ok:
        raise CheckFailed(why)


def _close(a: float, b: float, what: str):
    _require(abs(a - b) <= VALUE_TOL * (1.0 + abs(b)), f"{what}: reported {a!r}, recomputed {b!r}")


def _literal(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def raw_stats(rho: np.ndarray, f: np.ndarray, v: np.ndarray) -> dict:
    """Power by the commutator trace, centred moments, the corrected bound, battery purity."""
    d_w = f.shape[0]
    env = rho.shape[0] // d_w
    eye = np.eye(rho.shape[0])
    fm = np.kron(f, np.eye(env))
    power = float((-1j * np.trace((rho @ fm - fm @ rho) @ v)).real)
    dfm = fm - np.trace(rho @ fm).real * eye
    dvm = v - np.trace(rho @ v).real * eye
    cov = complex(np.trace(rho @ dfm @ dvm))
    var_f = float(np.trace(rho @ dfm @ dfm).real)
    var_v = float(np.trace(rho @ dvm @ dvm).real)
    rho_w = np.einsum("iaja->ij", rho.reshape(d_w, env, d_w, env))
    return {
        "power": power,
        "var_f": var_f,
        "cov": cov,
        "bound": 2.0 * (var_f * var_v - (cov**2).real),
        "purity_w": float((np.abs(rho_w) ** 2).sum()),
    }


def _check_instance(op, trial: int, power: float, bound: float, kind: str,
                    literals: dict | None = None):
    s = TensorStructure.from_dims(int(d) for d in op.dims.split(","))
    rho, f, v, used = draw_instance(s, STATE_KIND[op.ensemble], op.seed, trial, rank=op.rank)
    _require(kind == used, f"trial {trial}: kind {kind!r}, drawn {used!r}")
    if literals is not None:
        for name, mat in (("rho", rho.mat), ("f", f.mat), ("v", v.mat)):
            _require(np.array_equal(_literal(literals[name]), mat),
                     f"trial {trial}: reported {name} differs from the re-drawn one")
    st = raw_stats(rho.mat, f.mat, v.mat)
    _close(power, st["power"], f"trial {trial} power")
    _close(bound, st["bound"], f"trial {trial} corrected bound")
    _require(st["power"] ** 2 <= st["bound"] + VALUE_TOL * (1.0 + st["bound"]),
             f"trial {trial}: recomputed power^2 exceeds the bound")


def check_verify(op, out: Path) -> dict:
    """Summary counts, the worst case and sampled CSV rows against re-drawn instances."""
    summary = json.loads(out.read_text())
    _require(summary["trials"] == op.trials, f"summary reports {summary['trials']} trials")
    _require(summary["violations"] == 0, f"summary reports {summary['violations']} violations")
    if op.trials:
        worst = summary["worst_case"]
        rep = worst["report"]
        _require(summary["min_slack"] == rep["slack"], "min_slack is not the worst case's slack")
        _check_instance(op, worst["trial"], rep["power"], rep["corrected_bound"],
                        worst["kind"], literals=worst)
    if "csv" in op.argv:
        with Path(str(out) + ".trials.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require([int(r["trial"]) for r in rows] == list(range(op.trials)),
                 f"CSV holds {len(rows)} rows, not trials 0..{op.trials - 1}")
        for i in random.Random(op.seed).sample(range(op.trials), min(VERIFY_SAMPLES, op.trials)):
            row = rows[i]
            _check_instance(op, i, float(row["power"]), float(row["corrected_bound"]),
                            row["kind"])
    return {}


def check_trajectory(out: Path, g: float, points: int) -> dict:
    """Every grid point against P(t) = 2g sin(2gt) and <F>(t) = -cos(2gt)."""
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == points, f"{len(rows)} grid points, expected {points}")
    for row in rows:
        t = float(row["t"])
        _close(float(row["power"]), 2.0 * g * math.sin(2.0 * g * t), f"power at t={t!r}")
        _close(float(row["mean_F"]), -math.cos(2.0 * g * t), f"<F> at t={t!r}")
        bound = float(row["corrected_bound"])
        _require(float(row["power_sq"]) <= bound + VALUE_TOL * (1.0 + bound),
                 f"power^2 exceeds the bound at t={t!r}")
    return {}


def check_search(op, out: Path) -> dict:
    """The returned instance meets the mode's goal, recomputed from its matrices."""
    doc = json.loads(out.read_text())
    _require(doc["succeeded"] is True, "search did not reach its goal")
    _require(1 <= doc["evaluations"] <= SEARCH_BUDGET,
             f"{doc['evaluations']} evaluations against a budget of {SEARCH_BUDGET}")
    st = raw_stats(_literal(doc["rho"]), _literal(doc["f"]), _literal(doc["v"]))
    if op.kind == "saturation":
        ratio = st["power"] ** 2 / st["bound"] if st["bound"] > 0.0 else 0.0
        _require(ratio >= SATURATION_GOAL - THRESHOLD_TOL, f"saturation ratio {ratio!r}")
    else:
        _require(abs(st["power"]) <= 1e-8, f"|power| = {abs(st['power'])!r} above 1e-8")
        _require(st["var_f"] >= ZERO_POWER_MIN - THRESHOLD_TOL, f"var_f = {st['var_f']!r}")
        _require(abs(st["cov"]) >= ZERO_POWER_MIN - THRESHOLD_TOL, f"|cov| = {abs(st['cov'])!r}")
        _require(st["purity_w"] <= ENTANGLED_PURITY_CAP + THRESHOLD_TOL,
                 f"battery purity {st['purity_w']!r} above {ENTANGLED_PURITY_CAP}")
    return {"evaluations": doc["evaluations"]}
