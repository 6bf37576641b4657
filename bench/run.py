"""qbattery benchmark: the CLI's commands in a closed loop, checked and timed.

Usage (from the root of a checkout):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One caller runs the workload's commands through `qbattery.cli.main`, each
starting after the previous one has finished. Every command's output is checked
against an independent raw-numpy recomputation (`checks.py`). With `--trace 0`
the run prints the end-to-end metrics; with `--trace 1` it measures half the
time untraced and half traced (`tracer.py`) and prints the per-layer metrics.
The last line of standard output is one JSON object; the line before it records
the environment, the failed ratio with its base and the tracing overhead.
See README.md in this directory for the workloads and every metric.
"""

import os

# Fixed before numpy is imported, so that BLAS runs one thread in this process
# and in the set-up probes it starts.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import qbattery.cli as cli
except ImportError as exc:
    raise SystemExit(f"bench: cannot import qbattery from {SRC}: {exc}")
if Path(cli.__file__).resolve().parent != SRC / "qbattery":
    raise SystemExit(f"bench: qbattery was imported from {cli.__file__}, not from {SRC}")

import numpy as np

import checks
from tracer import SpanIndex, Tracer
from workloads import SEARCH_STATED_EVALUATIONS, WORKLOADS, cycle, scenario_coupling_and_points

SETUP_PROBES = 11
DIMS = (2, 4, 6, 8, 16, 64)

# The host's speed drifts by up to 2x within minutes, and the drift does not
# come from this process. A fixed loop of small numpy and Python work, which
# never touches qbattery, is timed before and after every cycle and every
# set-up probe. Its time divided by CALIBRATION_REF_S, its time on the
# reference host in a fast phase, is the host's slowdown at that moment. Rates
# are multiplied by it and set-up times divided by it (see README.md).
CALIBRATION_REF_S = 6.3e-3
_CAL_MATRIX = np.array([[1.0, 0.5j, 0.2, 0.0], [-0.5j, 2.0, 0.1, 0.3],
                        [0.2, 0.1, -1.0, 0.4j], [0.0, 0.3, -0.4j, 0.5]])
_CAL_EIGH = np.linalg.eigh  # bound here, so the tracer's wrapper never runs in the loop

# Layers timed per total dimension D, and whether their p99 is reported too.
TIMED_LAYERS = (
    ("ensembles.draw_instance", True),
    ("operators.DensityMatrix", False),
    ("operators.matrix_sqrt", False),
    ("operators.embed_battery_op", False),
    ("moments.verify_instance", True),
    ("moments.compute_moments", False),
    ("moments.decomposition_terms", False),
)
# Calls counted per verify_instance call.
PER_INSTANCE_COUNTS = (
    ("eigh_calls", "numpy.linalg.eigh"),
    ("hermitian_wraps", "operators.HermitianOperator"),
    ("density_wraps", "operators.DensityMatrix"),
)
# Calls counted per trial of a verify command.
PER_TRIAL_COUNTS = (
    ("draw_calls_per_trial", "ensembles.draw_instance"),
    ("compute_moments_calls_per_trial", "moments.compute_moments"),
)
SEARCH_LAYERS = (("zero-power", "search.find_zero_power"), ("saturation", "search.find_saturating"))


def end_to_end_units() -> dict:
    return {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric name, in print order, with its unit."""
    units = {}
    for layer, tail in TIMED_LAYERS:
        for q in ("p50", "p99") if tail else ("p50",):
            for d in DIMS:
                units[f"{layer}.us_{q}.D{d}"] = "us"
    for name, _ in PER_INSTANCE_COUNTS:
        units[f"moments.verify_instance.{name}"] = "count"
    units["dynamics.trajectory_report.us_per_point"] = "us"
    units["dynamics.trajectory_rows.us_per_point"] = "us"
    for mode, _ in SEARCH_LAYERS:
        units[f"search.us_per_evaluation.{mode}"] = "us"
        units[f"search.evaluations.{mode}"] = "count"
    units["cli.verify.self_s"] = "s"
    units["cli.evolve.self_s"] = "s"
    for name, _ in PER_TRIAL_COUNTS:
        units[f"cli.verify.{name}"] = "count"
    units["cli.map_ordered.parallel_efficiency"] = "ratio"
    units["setup.import_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def host_slowdown() -> float:
    """Time of the calibration loop divided by its reference time."""
    t0 = time.perf_counter()
    for _ in range(300):
        m = _CAL_MATRIX.copy()
        w, u = _CAL_EIGH(m)
        r = (u * w) @ u.conj().T
        x = complex(np.einsum("ij,ji->", r, m))
        {"re": "%.17g" % x.real, "im": [x.imag]}
    return (time.perf_counter() - t0) / CALIBRATION_REF_S


class Phase:
    """One closed-loop measurement and its check facts.

    Per cycle: items, seconds in cli.main, and the host's slowdown (the mean
    of the calibrations just before and just after the cycle).
    """

    def __init__(self):
        self.cycles = []
        self.facts = []

    def items_per_s(self) -> float:
        """Median over cycles of the cycle's rate at the host's reference speed."""
        return statistics.median(items / secs * slow for items, secs, slow in self.cycles)

    def raw_items_per_s(self) -> float:
        """Median over cycles of the rate as measured."""
        return statistics.median(items / secs for items, secs, _ in self.cycles)


class Runner:
    """Runs a workload's commands one after another and checks every output."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out = out_dir / "payload"
        self.g, self.points = scenario_coupling_and_points()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _check(self, op) -> dict:
        if op.kind == "verify":
            return checks.check_verify(op, self.out)
        if op.kind == "evolve":
            return checks.check_trajectory(self.out, self.g, self.points)
        return checks.check_search(op, self.out)

    def run_op(self, op, tracer=None):
        """Time one command; returns (seconds, items credited, check facts or None)."""
        argv = list(op.argv) + ["--out", str(self.out)]
        sink = io.StringIO()
        self.attempted += 1
        elapsed = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            elapsed = time.perf_counter() - t0
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}: {sink.getvalue().strip()}")
            with tracer.paused() if tracer else contextlib.nullcontext():
                facts = self._check(op)
        except Exception as exc:  # any crash or bad payload is one failed operation
            self.failed += 1
            self.failures.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            return elapsed, 0, None
        return elapsed, op.items, facts

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Run whole cycles, from cycle 0, until `seconds` of wall time have passed."""
        phase = Phase()
        start = time.perf_counter()
        index = 0
        before = host_slowdown()
        while not phase.cycles or time.perf_counter() - start < seconds:
            items = secs = 0
            for op in cycle(self.workload, self.seed, index):
                elapsed, got, facts = self.run_op(op, tracer)
                if facts is not None and "evaluations" in facts:
                    # a search's time, scaled to the workload's stated search size
                    elapsed *= SEARCH_STATED_EVALUATIONS[op.kind] / facts["evaluations"]
                secs += elapsed
                items += got
                if facts is not None:
                    phase.facts.append((op, facts))
            after = host_slowdown()
            phase.cycles.append((items, secs, (before + after) / 2))
            before = after
            index += 1
        return phase


def measure_setup(workload: str) -> list:
    """Set-up probes in fresh processes, each with the host's slowdown around it."""
    probes = []
    before = host_slowdown()
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                              capture_output=True, text=True, check=True, timeout=120)
        after = host_slowdown()
        probes.append({**json.loads(done.stdout), "slowdown": (before + after) / 2})
        before = after
    return probes


def _setup_median(probes: list, key: str) -> float:
    """Median probe time at the host's reference speed."""
    return statistics.median(p[key] / p["slowdown"] for p in probes)


def _percentile(xs: list, q: float) -> float:
    """Nearest-rank percentile of sorted `xs`; 0 when the layer was never called."""
    if not xs:
        return 0.0
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def per_layer(spans, plain: Phase, traced: Phase, probes: list) -> dict:
    idx = SpanIndex(spans)
    out = {}
    for layer, tail in TIMED_LAYERS:
        by_dim = {}
        for s in idx.of(layer):
            by_dim.setdefault(s.dim, []).append((s.t1 - s.t0) * 1e6)
        for d in DIMS:
            xs = sorted(by_dim.get(d, []))
            out[f"{layer}.us_p50.D{d}"] = statistics.median(xs) if xs else 0.0
            if tail:
                out[f"{layer}.us_p99.D{d}"] = _percentile(xs, 99)

    instances = len(idx.of("moments.verify_instance"))
    for name, layer in PER_INSTANCE_COUNTS:
        inside = sum(1 for s in idx.of(layer) if idx.nearest(s, "moments.verify_instance"))
        out[f"moments.verify_instance.{name}"] = inside / instances if instances else 0.0

    for layer in ("dynamics.trajectory_report", "dynamics.trajectory_rows"):
        per_point = [(s.t1 - s.t0) / s.size * 1e6 for s in idx.of(layer) if s.size]
        out[f"{layer}.us_per_point"] = statistics.median(per_point) if per_point else 0.0

    for mode, layer in SEARCH_LAYERS:
        evals = [facts["evaluations"] for op, facts in traced.facts if op.kind == mode]
        busy = sum(s.t1 - s.t0 for s in idx.of(layer))
        out[f"search.us_per_evaluation.{mode}"] = busy / sum(evals) * 1e6 if evals else 0.0
        # the first search of each mode has the same seed in every run with this seed
        out[f"search.evaluations.{mode}"] = evals[0] if evals else 0

    for cmd in ("cli.verify", "cli.evolve"):
        self_s = [idx.self_time(s) for s in idx.of(cmd)]
        out[f"{cmd}.self_s"] = statistics.median(self_s) if self_s else 0.0
    trials = sum(s.size for s in idx.of("cli.verify"))
    for name, layer in PER_TRIAL_COUNTS:
        calls = sum(1 for s in idx.of(layer) if idx.nearest(s, "cli.verify"))
        out[f"cli.verify.{name}"] = calls / trials if trials else 0.0

    pools = idx.of("cli.map_ordered")
    busy = sum(c.cpu for p in pools for c in idx.children.get(p.sid, []))
    capacity = sum((p.t1 - p.t0) * p.size for p in pools)
    out["cli.map_ordered.parallel_efficiency"] = busy / capacity if capacity else 0.0

    out["setup.import_s"] = _setup_median(probes, "import_s")
    untraced = plain.items_per_s()
    out["trace.overhead"] = 1.0 - traced.items_per_s() / untraced if untraced else 0.0
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _openblas():
    """OpenBLAS version from numpy's build record, and the thread count it runs with."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = None
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return version, threads


def environment(workload: str) -> dict:
    version, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "openblas_threads": threads,
        "cli_threads": sorted({op.threads for op in cycle(workload, 0, 0)}),
        "pinning": "none; no CPU affinity, cgroup or machine setting is changed",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    probes = measure_setup(args.workload)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.workload)}
    with tempfile.TemporaryDirectory(prefix="bench-out-", dir=ROOT) as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp))
        runner.run_op(cycle(args.workload, args.seed, 0)[0])  # warm-up, checked but untimed
        if args.trace:
            plain = runner.measure(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            values = per_layer(tracer.spans, plain, traced, probes)
            units = per_layer_units()
            report["items_per_s"] = {"untraced": plain.items_per_s(),
                                     "traced": traced.items_per_s()}
            report["cycles"] = len(plain.cycles) + len(traced.cycles)
        else:
            phase = runner.measure(args.seconds)
            values = {
                "items_per_s": phase.items_per_s(),
                "setup_s": _setup_median(probes, "setup_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = end_to_end_units()
            report["cycles"] = len(phase.cycles)
            report["items_per_s_as_measured"] = phase.raw_items_per_s()
            report["setup_s_as_measured"] = statistics.median(p["setup_s"] for p in probes)
            report["host_slowdown"] = statistics.median(slow for _, _, slow in phase.cycles)
    assert values.keys() == units.keys()
    report["failed_ratio"] = {"value": runner.failed / runner.attempted,
                              "failed": runner.failed, "attempted": runner.attempted}
    for line in runner.failures[:20]:
        print(f"bench: failed: {line}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
