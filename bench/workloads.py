"""The four benchmark workloads: the qbattery commands each one runs, in order.

A workload is an endless sequence of cycles. A cycle is a short, fixed list of
command invocations whose inputs come from the workload seed and the cycle
number alone, so the same seed always gives the same commands. Rates are
taken over whole cycles, so every run measures the same mix of inputs.

This module imports neither numpy nor qbattery: the set-up probe imports it
before it starts its clock.
"""

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCENARIO = BENCH_DIR / "exchange.json"

SWEEP_SMALL_DIMS = ("2,1,1,1", "2,2,1,1", "2,2,2,1", "3,2,1,1", "2,2,2,2")
SWEEP_SMALL_TRIALS = 100
SWEEP_WIDE_DIMS = "2,2,4,4"
SWEEP_WIDE_RANK = 4
SWEEP_WIDE_TRIALS = 60
SEARCH_BUDGET = 100_000  # the CLI default, stated so the check can hold results to it
ZERO_POWER_DIMS = "2,2,1,1"
ZERO_POWER_MIN = 0.5  # --min-var-f and --min-abs-cov
SATURATION_DIMS = "2,2,2,1"
# At the default 8 restarts about one zero-power search in a few hundred
# stagnates in every restart and exits 1 (seed 3975119328 does); with 16 none
# of 150 seeds did, so the workload asks for 16.
ZERO_POWER_RESTARTS = 16
# How many evaluations a search needs depends strongly on its seed (7,700 to
# 26,200 for zero-power over 150 seeds), so search rates are stated for
# searches of this size: each search's time is scaled by stated / actual
# evaluations. These are the medians over those 150 seeds, rounded.
SEARCH_STATED_EVALUATIONS = {"zero-power": 14300, "saturation": 2600}

WORKLOADS = ("sweep-small", "sweep-wide", "trajectory", "search")


@dataclass(frozen=True)
class Op:
    """One command invocation: its argv (without --out) and what it should produce."""

    kind: str  # "verify", "evolve", "zero-power" or "saturation"
    argv: tuple
    items: int  # items credited when the command and its output check pass
    dims: str = ""
    ensemble: str = ""
    rank: int | None = None
    trials: int = 0
    seed: int = 0

    @property
    def threads(self) -> int:
        return int(self.argv[self.argv.index("--threads") + 1])


def scenario_coupling_and_points() -> tuple[float, int]:
    """Coupling g of the scenario's exchange(g) model and its number of grid points."""
    doc = json.loads(SCENARIO.read_text())
    g = float(re.fullmatch(r"exchange\((.+)\)", doc["v"]).group(1))
    return g, int(doc["grid"]["steps"]) + 1


def verify_op(dims: str, ensemble: str, rank, trials: int, threads: int, fmt: str, seed: int) -> Op:
    argv = ["verify", "--dims", dims, "--trials", str(trials), "--ensemble", ensemble,
            "--format", fmt, "--threads", str(threads), "--seed", str(seed)]
    if rank is not None:
        argv += ["--rank", str(rank)]
    return Op("verify", tuple(argv), trials, dims=dims, ensemble=ensemble, rank=rank,
              trials=trials, seed=seed)


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """The commands of cycle `index` of `workload` under workload seed `seed`."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "sweep-small":
        return [verify_op(d, "gue-ops", None, SWEEP_SMALL_TRIALS, 1, "csv", rng.getrandbits(32))
                for d in SWEEP_SMALL_DIMS]
    if workload == "sweep-wide":
        return [verify_op(SWEEP_WIDE_DIMS, "ginibre", SWEEP_WIDE_RANK, SWEEP_WIDE_TRIALS, 2,
                        "json", rng.getrandbits(32))]
    if workload == "trajectory":
        # evolve draws nothing; the seed is passed through so every command carries one
        _, points = scenario_coupling_and_points()
        argv = ("evolve", "--config", str(SCENARIO), "--format", "csv", "--threads", "1",
                "--seed", str(rng.getrandbits(32)))
        return [Op("evolve", argv, points)]
    if workload == "search":
        zero, sat = rng.getrandbits(32), rng.getrandbits(32)
        return [
            Op("zero-power", ("search", "--mode", "zero-power", "--dims", ZERO_POWER_DIMS,
                              "--min-var-f", str(ZERO_POWER_MIN),
                              "--min-abs-cov", str(ZERO_POWER_MIN), "--require-entangled",
                              "--restarts", str(ZERO_POWER_RESTARTS),
                              "--threads", "1", "--seed", str(zero)), 1,
               dims=ZERO_POWER_DIMS, seed=zero),
            Op("saturation", ("search", "--mode", "saturation", "--dims", SATURATION_DIMS,
                              "--threads", "1", "--seed", str(sat)), 1,
               dims=SATURATION_DIMS, seed=sat),
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def build_inputs(workload: str, cli) -> list:
    """Parse what the workload's commands parse before their first layer call.

    `cli` is the imported `qbattery.cli` module. This is the work `setup_s`
    times in a fresh process, together with that import.
    """
    if workload == "sweep-small":
        return [cli._parse_dims(d) for d in SWEEP_SMALL_DIMS]
    if workload == "sweep-wide":
        return [cli._parse_dims(SWEEP_WIDE_DIMS)]
    if workload == "trajectory":
        return [cli.parse_scenario(json.loads(SCENARIO.read_text()))]
    if workload == "search":
        return [cli._parse_dims(ZERO_POWER_DIMS), cli._parse_dims(SATURATION_DIMS)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
