"""Batch command-line front end.

Four subcommands: ``verify`` (seeded Monte Carlo sweep of the power bound and
its identity chain), ``evolve`` (trajectory of a scenario under exact unitary
evolution), ``search`` (zero-power / saturation optimization), and ``demo``
(built-in worked cases with pass/fail checks).

Every file-writing subcommand stores its data payload at --out and a sidecar
manifest at <out>.manifest.json with the resolved configuration, seed, tool
version, input digests, and wall-clock duration. Payload bytes depend only on
configuration and seed — never on --threads or timing. Exit codes: 0 success,
1 a mathematical claim failed to hold (or a search goal was not reached),
2 bad input.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (  # noqa: F401  trajectory_rows: a name bench/tracer.py patches here
    TRAJECTORY_COLUMNS,
    ScenarioError,
    _trajectory_lines,
    builtin_exchange_scenario,
    parse_scenario,
    trajectory_report,
    trajectory_rows,
)
from .ensembles import (  # noqa: F401  draw_instance: a name bench/tracer.py patches here
    SeedSpec,
    _draw_batch_eig,
    battery_eigenstate_product,
    draw_instance,
    gue_hermitian,
    haar_pure,
)
from .moments import REPORT_FIELDS, _verify_checked, batch_rows, compute_moments, verify_instance
from .operators import (
    DensityMatrix,
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    TensorStructure,
    partial_trace_to_battery,
    to_matrix_literal,
)
from .search import (
    SearchConfig,
    SearchThresholds,
    find_saturating,
    find_zero_power,
)

ENSEMBLES = {"haar": "haar", "ginibre": "ginibre", "gue-ops": "mix"}

TRIAL_COLUMNS = (
    "trial",
    "kind",
    "power",
    "power_sq",
    "term_fv",
    "term_vf",
    "term_cross",
    "corrected_bound",
    "loose_bound",
    "slack",
    "saturation_ratio",
    "mean_f",
    "mean_v",
    "var_f",
    "var_v",
    "cov_re",
    "cov_im",
)


def _json_text(obj, newline: str) -> str:
    """`obj` as json.dumps(obj, indent=2, sort_keys=True) writes it, indented as `newline` is."""
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if type(obj) is str:
        return json.encoder.encode_basestring_ascii(obj)
    inner = newline + "  "
    if type(obj) in (list, tuple) and obj:
        try:
            # finite floats in one pass; "n" is in "nan" and "inf" only
            body = ("," + inner).join(map(float.__repr__, obj))
            if "n" in body:
                raise TypeError
        except TypeError:
            body = ("," + inner).join([_json_text(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = [json.encoder.encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # anything else as the stdlib writes it (its strings hold no raw newline)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _json_bytes(obj) -> bytes:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) + "\n", written faster.

    Byte-identical to the stdlib encoder for every value it accepts, and,
    like it, raises TypeError for anything else. A list of finite floats is
    written in one join over float.__repr__, where the stdlib's indenting
    encoder runs a Python generator per item; finite floats, strings, lists,
    tuples and dicts with string keys are written here, everything else by
    the stdlib.
    """
    return (_json_text(obj, "\n") + "\n").encode()


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: str, subcommand: str, config: dict, seed: int,
                    digests: dict, started: float, **telemetry) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "input_digests": digests,
        "duration_seconds": time.perf_counter() - started,
        **telemetry,
    }
    Path(out + ".manifest.json").write_bytes(_json_bytes(manifest))


def _parse_dims(text: str) -> TensorStructure:
    parts = text.split(",")
    if len(parts) != 4:
        raise RejectedInputError(f"--dims wants dW,dS,dB,dA (4 integers), got {text!r}")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise RejectedInputError(f"--dims entries must be integers, got {text!r}") from None
    return TensorStructure.from_dims(dims)


def _g17(x: float) -> str:
    return "%.17g" % x


# The verify pool pays at D = 64 only with single-threaded BLAS, which is how
# the benchmark runs it (OPENBLAS_NUM_THREADS=1). Wall time of `verify --dims
# 2,2,4,4 --ensemble ginibre --rank 4 --trials 600` on 2 cores (numpy 2.4.6,
# OpenBLAS 0.3.31), --threads 2 against --threads 1, in two sets of runs:
# - BLAS on 1 thread: 0.98-1.03 s against 1.49-1.86 s; 1.19-1.71 s against 1.66-2.02 s.
# - BLAS on 2 threads: 2.68-3.21 s against 1.59-2.85 s; 2.62-3.31 s against 1.75-2.11 s.
# A measurement with threaded BLAS therefore says nothing against the pool.
def _map_ordered(fn, items, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(i) for i in items]


# ---------------------------------------------------------------- verify

# TRIAL_COLUMNS after "trial" and "kind" are REPORT_FIELDS, these moments, then cov_re, cov_im
_MOMENT_COLUMNS = ("mean_f", "mean_v", "var_f", "var_v")
_POWER_SQ, _SLACK, _RATIO = (REPORT_FIELDS.index(k) for k in ("power_sq", "slack", "saturation_ratio"))
_MATRICES = ("rho", "f", "v")


def _trial_chunks(trials: int, dim: int) -> list[range]:
    size = batch_rows(dim)
    return [range(a, min(a + size, trials)) for a in range(0, trials, size)]


class _LeastSlack:
    """The clean trial of least slack over every chunk, with its matrices.

    Chunks may run on several threads and offer their own least-slack trial
    in any order; ties go to the lower trial, so the result is the same for
    any order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.case = None

    def offer(self, case: dict) -> None:
        key = (case["report"]["slack"], case["trial"])
        with self._lock:
            if self.case is None or key < (self.case["report"]["slack"], self.case["trial"]):
                self.case = case


def _verify_chunk(structure: TensorStructure, kind: str, seed: int, rank, trials: range,
                  least: _LeastSlack) -> dict:
    """Draw the chunk's trials as stacks, then verify them in one batch.

    The states' eigendecomposition from the draw's check is reused for
    sqrt(rho). Returns the clean rows as (trial, kind, values in TRIAL_COLUMNS
    order) and the violation rows; offers the chunk's clean trial of least
    slack to `least`.
    """
    *stacks, kinds, eig = _draw_batch_eig(structure, kind, seed, trials, rank, 1.0)
    batch = _verify_checked(*stacks, structure, rho_eig=eig)
    m = batch.moments
    columns = [getattr(batch, name) for name in REPORT_FIELDS]
    columns += [getattr(m, name) for name in _MOMENT_COLUMNS] + [m.cov.real, m.cov.imag]
    values = np.stack(columns, axis=1).tolist()
    clean, violations, worst = [], [], None
    for j, (trial, used, row, err) in enumerate(zip(trials, kinds, values, batch.errors)):
        if err is None:
            clean.append((trial, used, row))
            if worst is None or row[_SLACK] < values[worst][_SLACK]:
                worst = j
        elif isinstance(err, NumericalIntegrityError):
            violations.append({
                "trial": trial,
                "kind": used,
                "violation": str(err),
                "instance": {name: to_matrix_literal(x[j]) for name, x in zip(_MATRICES, stacks)},
            })
        else:
            raise err
    if worst is not None:
        least.offer({
            "trial": trials[worst],
            "kind": kinds[worst],
            "report": dict(zip(REPORT_FIELDS, values[worst])),
            # copies, so that the chunk's stacks can be freed
            **{name: x[worst].copy() for name, x in zip(_MATRICES, stacks)},
        })
    return {"clean": clean, "violations": violations}


def cmd_verify(args) -> int:
    structure = _parse_dims(args.dims)
    if args.trials < 0:
        raise RejectedInputError(f"--trials must be non-negative, got {args.trials}")
    if args.rank is not None and not 1 <= args.rank <= structure.dim:
        raise RejectedInputError(
            f"--rank must be in [1, {structure.dim}] for these dims, got {args.rank}"
        )
    kind = ENSEMBLES[args.ensemble]
    started = time.perf_counter()
    least = _LeastSlack()

    def one(trials: range) -> dict:
        return _verify_chunk(structure, kind, args.seed, args.rank, trials, least)

    chunks = _map_ordered(one, _trial_chunks(args.trials, structure.dim), args.threads)

    clean = [row for c in chunks for row in c["clean"]]
    violations = [row for c in chunks for row in c["violations"]]
    summary = {
        "trials": args.trials,
        "violations": len(violations),
        "max_power_sq": None,
        "min_slack": None,
        "mean_saturation_ratio": None,
        "worst_case": None,
    }
    if clean:
        worst = least.case
        summary["max_power_sq"] = max(row[_POWER_SQ] for _, _, row in clean)
        summary["min_slack"] = worst["report"]["slack"]
        summary["mean_saturation_ratio"] = math.fsum(row[_RATIO] for _, _, row in clean) / len(clean)
        summary["worst_case"] = {
            **worst,
            **{name: to_matrix_literal(worst[name]) for name in _MATRICES},
        }
    if violations:
        summary["worst_case"] = violations[0]

    Path(args.out).write_bytes(_json_bytes(summary))
    if args.format == "csv":
        lines = [",".join(TRIAL_COLUMNS)]
        for trial, used, row in clean:
            lines.append(",".join([str(trial), used] + [_g17(x) for x in row]))
        Path(args.out + ".trials.csv").write_bytes(("\n".join(lines) + "\n").encode())

    config = {
        "dims": args.dims,
        "trials": args.trials,
        "ensemble": args.ensemble,
        "rank": args.rank,
        "threads": args.threads,
        "format": args.format,
    }
    _write_manifest(args.out, "verify", config, args.seed, {}, started)

    print(f"verify: {args.trials} trials, {len(violations)} violations -> {args.out}")
    return 0 if not violations else 1


# ---------------------------------------------------------------- evolve

def cmd_evolve(args) -> int:
    started = time.perf_counter()
    digests = {}
    if args.config == "exchange" and not Path(args.config).exists():
        rho0, hspec, f, grid = parse_scenario(builtin_exchange_scenario())
        config_doc = "builtin:exchange"
    else:
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise RejectedInputError(f"config: cannot read {args.config!r}: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"config: not valid JSON: {exc}") from None
        digests[str(path)] = _sha256(path)
        rho0, hspec, f, grid = parse_scenario(doc)
        config_doc = str(path)

    trajectory = trajectory_report(rho0, hspec, f, grid)

    if args.format == "json":
        columns = trajectory.columns()
        payload = _json_bytes([dict(zip(TRAJECTORY_COLUMNS, values)) for values in zip(*columns)])
    else:
        lines = [",".join(TRAJECTORY_COLUMNS)]
        lines.extend(_trajectory_lines(trajectory))
        payload = ("\n".join(lines) + "\n").encode()
    Path(args.out).write_bytes(payload)

    config = {"config": config_doc, "format": args.format, "threads": args.threads}
    _write_manifest(args.out, "evolve", config, args.seed, digests, started)

    max_power = float(np.abs(trajectory.report.power).max())
    min_purity = float(trajectory.battery_purity.min())
    print(
        f"evolve: {len(trajectory)} points, max |power| = {max_power:.6g}, "
        f"min battery purity = {min_purity:.6g} -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------- search

def cmd_search(args) -> int:
    structure = _parse_dims(args.dims)
    started = time.perf_counter()
    thresholds = SearchThresholds(
        min_var_f=args.min_var_f,
        min_abs_cov=args.min_abs_cov,
        max_abs_power=args.max_abs_power,
        require_entangled=args.require_entangled,
    )
    config = SearchConfig(
        structure=structure,
        mode=args.mode,
        thresholds=thresholds,
        budget=args.budget,
        seed=SeedSpec(args.seed),
        restarts=args.restarts,
    )
    if args.mode == "zero-power":
        result = find_zero_power(config)
    else:
        result = find_saturating(config)

    Path(args.out).write_bytes(_json_bytes(result.to_dict()))
    cli_config = {
        "dims": args.dims,
        "mode": args.mode,
        "min_var_f": args.min_var_f,
        "min_abs_cov": args.min_abs_cov,
        "max_abs_power": args.max_abs_power,
        "require_entangled": args.require_entangled,
        "budget": args.budget,
        "restarts": args.restarts,
        "threads": args.threads,
    }
    _write_manifest(args.out, "search", cli_config, args.seed, {}, started,
                    restarts=result.restarts, kernel_calls=result.kernel_calls)

    status = "succeeded" if result.succeeded else "exhausted budget"
    print(
        f"search[{args.mode}]: {status} after {result.evaluations} evaluations, "
        f"objective {result.objective:.6g} -> {args.out}"
    )
    return 0 if result.succeeded else 1


# ---------------------------------------------------------------- demo

_SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
_SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]


def _demo_eigenstate(seed: int):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    spec = SeedSpec(seed)
    f = HermitianOperator(np.array(_SIGMA_Z, dtype=complex))
    rest = haar_pure(s.env_dim, spec.stream(0))
    rho = battery_eigenstate_product(f, 0, rest, s).state
    v = gue_hermitian(s.dim, 1.0, spec.stream(1))
    checks = [
        ("power is 0 within 1e-10", lambda rep, mom: abs(rep.power) <= 1e-10),
        ("var_f is 0 within 1e-10", lambda rep, mom: mom.var_f <= 1e-10),
        ("|cov| is 0 within 1e-10", lambda rep, mom: abs(mom.cov) <= 1e-10),
        ("saturation ratio defined as 0", lambda rep, mom: rep.saturation_ratio == 0.0),
    ]
    return s, rho, f, v, checks


def _demo_saturating(seed: int):
    s = TensorStructure.from_dims([2, 1, 1, 1])
    rho = DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    f = HermitianOperator(np.array(_SIGMA_Z, dtype=complex))
    v = HermitianOperator(np.array(_SIGMA_X, dtype=complex))
    checks = [
        ("power equals 2 within 1e-9", lambda rep, mom: abs(rep.power - 2.0) <= 1e-9),
        ("corrected bound equals 4 within 1e-9", lambda rep, mom: abs(rep.corrected_bound - 4.0) <= 1e-9),
        ("saturation ratio equals 1 within 1e-9", lambda rep, mom: abs(rep.saturation_ratio - 1.0) <= 1e-9),
        ("corrected bound does not exceed the loose bound", lambda rep, mom: rep.corrected_bound <= rep.loose_bound + 1e-12),
    ]
    return s, rho, f, v, checks


def _demo_real_cov(seed: int):
    s = TensorStructure.from_dims([2, 1, 1, 1])
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    f = HermitianOperator(np.array(_SIGMA_Z, dtype=complex))
    v = HermitianOperator(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
    checks = [
        ("power equals 0 within 1e-12", lambda rep, mom: abs(rep.power) <= 1e-12),
        ("var_f equals 0.75 within 1e-12", lambda rep, mom: abs(mom.var_f - 0.75) <= 1e-12),
        ("cov equals 0.75 within 1e-12", lambda rep, mom: abs(mom.cov - 0.75) <= 1e-12),
        ("corrected bound equals 1.5 within 1e-12", lambda rep, mom: abs(rep.corrected_bound - 1.5) <= 1e-12),
        ("slack equals 1.5 within 1e-12", lambda rep, mom: abs(rep.slack - 1.5) <= 1e-12),
    ]
    return s, rho, f, v, checks


_DEMO_CASES = {
    "eigenstate": _demo_eigenstate,
    "saturating": _demo_saturating,
    "real-cov": _demo_real_cov,
}


def cmd_demo(args) -> int:
    started = time.perf_counter()
    s, rho, f, v, checks = _DEMO_CASES[args.case](args.seed)
    report = verify_instance(rho, f, v, s)
    moments = compute_moments(rho, f, v, s)
    results = [(name, bool(fn(report, moments))) for name, fn in checks]
    all_passed = all(ok for _, ok in results)

    doc = {
        "case": args.case,
        "report": report.to_dict(),
        "moments": moments.to_dict(),
        "battery_purity": partial_trace_to_battery(rho, s).purity(),
        "checks": [{"name": name, "passed": ok} for name, ok in results],
        "passed": all_passed,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"demo case: {args.case}")
        for key in ("power", "power_sq", "corrected_bound", "loose_bound", "slack", "saturation_ratio"):
            print(f"  {key:<18} = {_g17(report.to_dict()[key])}")
        m = moments.to_dict()
        print(f"  {'var_f':<18} = {_g17(m['var_f'])}")
        print(f"  {'var_v':<18} = {_g17(m['var_v'])}")
        print(f"  {'cov':<18} = {_g17(m['cov']['re'])} + {_g17(m['cov']['im'])}i")
        for name, ok in results:
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        print(f"result: {'PASS' if all_passed else 'FAIL'}")
    if args.out:
        Path(args.out).write_bytes(_json_bytes(doc))
        _write_manifest(args.out, "demo", {"case": args.case, "format": args.format},
                        args.seed, {}, started)
    return 0 if all_passed else 1


# ---------------------------------------------------------------- wiring

def _add_common(sp, out_required: bool = True, formats=("json", "csv"), default_format="json",
                seed_help="master seed (default 42)", threads_help="worker threads (default 1)"):
    sp.add_argument("--seed", type=int, default=42, help=seed_help)
    sp.add_argument("--threads", type=int, default=1, help=threads_help)
    if out_required:
        sp.add_argument("--out", required=True, help="output payload path")
    else:
        sp.add_argument("--out", default=None, help="optional output payload path")
    sp.add_argument("--format", choices=formats, default=default_format,
                    help=f"payload format (default {default_format})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="qbattery",
        description="Charging-power bound verification, dynamics, and counterexample search.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="Monte Carlo sweep of the power bound and identities")
    sp.add_argument("--dims", required=True, help="tensor dims dW,dS,dB,dA, e.g. 2,2,1,1")
    sp.add_argument("--trials", type=int, default=1000, help="number of seeded trials")
    sp.add_argument("--ensemble", choices=sorted(ENSEMBLES), default="gue-ops",
                    help="state ensemble; operators are always GUE (default gue-ops)")
    sp.add_argument("--rank", type=int, default=None, help="Ginibre state rank (default full)")
    _add_common(sp)

    sp = sub.add_parser("evolve", help="integrate a scenario and write the trajectory table")
    sp.add_argument("--config", required=True,
                    help="scenario JSON path, or 'exchange' for the built-in model")
    ignored = "accepted and ignored: draws nothing, runs on one thread"
    _add_common(sp, formats=("csv", "json"), default_format="csv",
                seed_help=ignored, threads_help=ignored)

    sp = sub.add_parser("search", help="optimize for zero-power or bound-saturating instances")
    sp.add_argument("--mode", required=True, choices=["zero-power", "saturation"])
    sp.add_argument("--dims", required=True, help="tensor dims dW,dS,dB,dA")
    sp.add_argument("--min-var-f", type=float, default=0.0, dest="min_var_f")
    sp.add_argument("--min-abs-cov", type=float, default=0.0, dest="min_abs_cov")
    sp.add_argument("--max-abs-power", type=float, default=1e-8, dest="max_abs_power")
    sp.add_argument("--require-entangled", action="store_true", dest="require_entangled")
    sp.add_argument("--budget", type=int, default=100_000, help="max objective evaluations")
    sp.add_argument("--restarts", type=int, default=8)
    _add_common(sp, formats=("json",),
                threads_help="accepted and ignored: restarts run in lockstep on one thread")

    sp = sub.add_parser("demo", help="run a built-in worked case with pass/fail checks")
    sp.add_argument("--case", required=True, choices=sorted(_DEMO_CASES))
    _add_common(sp, out_required=False, formats=("text", "json"), default_format="text",
                seed_help="master seed (default 42); only the eigenstate case draws, "
                          "its environment state and V",
                threads_help="accepted and ignored: each case is one instance on one thread")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # looked up when it runs, not when the cached parser was built, so that
    # a cmd_* function patched later (bench/tracer.py wraps them) is the one called
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except RejectedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"claim falsified: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
