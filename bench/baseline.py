"""Reproduce the hand-measured baseline table in ROADMAP.md with the benchmark's runner.

Usage (from the root of a checkout): python3 bench/baseline.py

Times `verify` at `--threads 1` against `--threads 2` on (2,2,1,1) and on
(2,2,4,4), alternating the two settings, plus the built-in `evolve` exchange
model and one zero-power search. Every command's output is checked as in a
benchmark run. BLAS runs one thread, as in `run.py`. Prints one JSON object.
The per-D costs of `verify_instance` and `draw_instance` come from the traced
runs of `sweep-small` and `sweep-wide` instead.
"""

import json
import statistics
import tempfile
from pathlib import Path

import run
from workloads import Op, verify_op

REPEATS = 3
THREAD_CASES = (
    ("2,2,1,1", "gue-ops", None, 2000),
    ("2,2,4,4", "ginibre", 4, 300),
)


def _timed(runner: run.Runner, op: Op) -> tuple[float, dict]:
    elapsed, items, facts = runner.run_op(op)
    if items != op.items:
        raise SystemExit(f"baseline: {' '.join(op.argv)} failed: {runner.failures[-1]}")
    return elapsed, facts


def main() -> int:
    result = {"environment": run.environment("sweep-wide"), "threads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-out-", dir=run.ROOT) as tmp:
        runner = run.Runner("sweep-small", 0, Path(tmp))
        for dims, ensemble, rank, trials in THREAD_CASES:
            ops = {t: verify_op(dims, ensemble, rank, trials, t, "json", 42) for t in (1, 2)}
            _timed(runner, ops[1])  # warm-up
            times = {1: [], 2: []}
            for i in range(REPEATS):
                for t in ((1, 2) if i % 2 == 0 else (2, 1)):
                    times[t].append(_timed(runner, ops[t])[0])
            t1, t2 = statistics.median(times[1]), statistics.median(times[2])
            result["threads"][f"{dims} {ensemble} x{trials}"] = {
                "threads_1_s": t1, "threads_2_s": t2, "speedup_2_over_1": t1 / t2,
            }
        evolve = Op("evolve", ("evolve", "--config", "exchange", "--threads", "1"), 1001)
        runner.g, runner.points = 1.0, 1001  # what the check expects of the built-in model
        result["evolve_exchange_1001_points_s"] = statistics.median(
            _timed(runner, evolve)[0] for _ in range(REPEATS))
        search = Op("zero-power", ("search", "--mode", "zero-power", "--dims", "2,2,1,1",
                                   "--min-var-f", "0.5", "--min-abs-cov", "0.5",
                                   "--require-entangled", "--seed", "42"), 1)
        elapsed, facts = _timed(runner, search)
        result["search_zero_power_seed_42_s"] = elapsed
        result["search_zero_power_seed_42_evaluations"] = facts["evaluations"]
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
