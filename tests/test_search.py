import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import search
from qbattery.cli import main
from qbattery.ensembles import SeedSpec
from qbattery.moments import verify_instance
from qbattery.operators import RejectedInputError, TensorStructure
from qbattery.search import (
    SearchConfig,
    SearchThresholds,
    _hermitian_from_params,
    _lockstep,
    _pack,
    _pattern_search,
    _restart_starts,
    find_saturating,
    find_zero_power,
)

QUBIT = TensorStructure.from_dims([2, 1, 1, 1])
PAIR = TensorStructure.from_dims([2, 2, 1, 1])

STANDARD = SearchThresholds(min_var_f=0.5, min_abs_cov=0.5, max_abs_power=1e-8)


def zero_power_config(**kw):
    base = dict(structure=QUBIT, mode="zero-power", thresholds=STANDARD,
                budget=100_000, seed=SeedSpec(42), restarts=8)
    base.update(kw)
    return SearchConfig(**base)


# ---------------------------------------------------------------- zero power

def test_zero_power_qubit_succeeds():
    res = find_zero_power(zero_power_config())
    assert res.succeeded
    assert abs(res.report.power) <= 1e-8
    assert res.moments.var_f >= 0.5
    assert abs(res.moments.cov) >= 0.5
    # second computation path for "power is zero"
    assert abs(res.report.power - 2.0 * res.moments.cov.imag) <= 1e-9


def test_zero_power_result_is_fully_verified():
    res = find_zero_power(zero_power_config())
    rep = verify_instance(res.rho, res.f, res.v, QUBIT)
    assert rep.power == pytest.approx(res.report.power, abs=1e-12)


def test_zero_power_deterministic():
    a = find_zero_power(zero_power_config())
    b = find_zero_power(zero_power_config())
    assert np.array_equal(a.rho.mat, b.rho.mat)
    assert np.array_equal(a.f.mat, b.f.mat)
    assert np.array_equal(a.v.mat, b.v.mat)
    assert a.objective == b.objective
    assert a.evaluations == b.evaluations


ZERO_POWER_ARGV = ("search", "--mode", "zero-power", "--dims", "2,1,1,1", "--min-var-f", "0.5",
                   "--min-abs-cov", "0.5", "--max-abs-power", "1e-8", "--seed", "42",
                   "--restarts", "8")


def test_zero_power_thread_invariant(tmp_path):
    outs = [tmp_path / f"t{threads}.json" for threads in (1, 2, 4)]
    for threads, out in zip((1, 2, 4), outs):
        assert main([*ZERO_POWER_ARGV, "--threads", str(threads), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_zero_power_entangled_pair():
    cfg = zero_power_config(
        structure=PAIR,
        thresholds=SearchThresholds(min_var_f=0.5, min_abs_cov=0.5,
                                    max_abs_power=1e-8, require_entangled=True),
    )
    res = find_zero_power(cfg)
    assert res.succeeded
    assert res.battery_purity <= 1.0 - 1e-3
    # the searched global state is pure, so reduced mixedness is entanglement
    assert res.rho.purity() == pytest.approx(1.0, abs=1e-9)
    assert res.moments.var_f >= 0.5
    assert abs(res.moments.cov) >= 0.5
    assert abs(res.report.power) <= 1e-8


def test_zero_power_infeasible_thresholds_fail_cleanly():
    # var_F of a unit-spectral-radius qubit operator never exceeds 1
    cfg = zero_power_config(
        thresholds=SearchThresholds(min_var_f=2.0, min_abs_cov=0.0, max_abs_power=0.0),
        budget=2000,
        restarts=2,
    )
    res = find_zero_power(cfg)
    assert not res.succeeded
    assert res.moments.var_f <= 1.0 + 1e-9


def test_single_evaluation_budget():
    cfg = zero_power_config(budget=1, restarts=8)
    res = find_zero_power(cfg)
    assert res.evaluations == 1
    assert not res.succeeded


def test_objective_improves_with_budget():
    small = find_zero_power(zero_power_config(budget=64, restarts=4))
    large = find_zero_power(zero_power_config(budget=2048, restarts=4))
    assert large.objective <= small.objective


# ---------------------------------------------------------------- saturation

def test_saturation_qubit_reaches_unity():
    cfg = SearchConfig(structure=QUBIT, mode="saturation", budget=100_000,
                       seed=SeedSpec(42), restarts=8)
    res = find_saturating(cfg)
    assert res.succeeded
    assert res.report.saturation_ratio >= 0.999
    assert res.evaluations <= 100_000


def test_saturation_deterministic():
    cfg = SearchConfig(structure=QUBIT, mode="saturation", budget=5000,
                       seed=SeedSpec(7), restarts=4)
    assert find_saturating(cfg).to_dict() == find_saturating(cfg).to_dict()


def test_the_lowest_succeeding_restart_wins_whatever_its_objective(tmp_path):
    # at seed 3 every restart reaches a ratio of 0.999, restart 3 the highest:
    # restart 0 is returned, so round-off in the objectives cannot pick the result
    out = tmp_path / "sat.json"
    assert main(["search", "--mode", "saturation", "--dims", "2,2,2,1", "--seed", "3",
                 "--out", str(out)]) == 0
    restarts = json.loads((tmp_path / "sat.json.manifest.json").read_text())["restarts"]
    assert len(restarts) == 8 and all(r["succeeded"] for r in restarts)
    assert min(r["objective"] for r in restarts) < restarts[0]["objective"]
    assert json.loads(out.read_text())["objective"] == restarts[0]["objective"]
    # where no restart succeeds, the least objective wins, the lowest index among equals
    cfg = zero_power_config(thresholds=SearchThresholds(min_var_f=2.0, max_abs_power=0.0),
                            budget=400, restarts=3)
    res = find_zero_power(cfg)
    assert not res.succeeded
    assert res.objective == min(r["objective"] for r in res.restarts)


def test_saturation_on_larger_space():
    cfg = SearchConfig(structure=PAIR, mode="saturation", budget=40_000,
                       seed=SeedSpec(42), restarts=8)
    res = find_saturating(cfg)
    # pure two-qubit instances can drive the ratio high; require clear progress
    assert res.report.saturation_ratio >= 0.9


# ---------------------------------------------------------------- config validation

def test_mode_mismatch_rejected():
    with pytest.raises(RejectedInputError):
        find_zero_power(SearchConfig(structure=QUBIT, mode="saturation",
                                     budget=10, seed=SeedSpec(1), restarts=1))
    with pytest.raises(RejectedInputError):
        find_saturating(zero_power_config(budget=10, restarts=1))


def test_bad_configs_rejected():
    with pytest.raises(RejectedInputError):
        SearchConfig(structure=QUBIT, mode="annealing", budget=10, seed=SeedSpec(1), restarts=1)
    with pytest.raises(RejectedInputError):
        SearchConfig(structure=QUBIT, mode="saturation", budget=0, seed=SeedSpec(1), restarts=1)
    with pytest.raises(RejectedInputError):
        SearchConfig(structure=QUBIT, mode="saturation", budget=10, seed=SeedSpec(1), restarts=0)
    with pytest.raises(RejectedInputError):
        SearchThresholds(min_var_f=-0.5)
    for name in ("min_var_f", "min_abs_cov", "max_abs_power"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(RejectedInputError, match=name):
                SearchThresholds(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("budget", 2.5), ("budget", np.float64(10.0)), ("budget", "7"), ("budget", True),
    ("restarts", 1.0), ("restarts", "2"), ("restarts", True), ("restarts", np.int64(0)),
])
def test_budget_and_restarts_take_positive_integers_only(name, value):
    # neither a float that `range` would reject later nor a bool read as 1
    config = {"budget": 10, "restarts": 1, name: value}
    with pytest.raises(RejectedInputError, match=name):
        SearchConfig(structure=QUBIT, mode="saturation", seed=SeedSpec(1), **config)


def test_budget_and_restarts_accept_numpy_integers():
    config = SearchConfig(structure=QUBIT, mode="saturation", budget=np.int64(10),
                          seed=SeedSpec(1), restarts=np.int64(2))
    assert find_saturating(config).evaluations <= 10


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_threshold_exits_2_before_searching(tmp_path, capsys, monkeypatch, value):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr(search, "_pattern_search", no_walk)
    out = tmp_path / "n.json"
    argv = ["search", "--mode", "zero-power", "--dims", "2,1,1,1", "--min-var-f", value,
            "--budget", "200", "--restarts", "2", "--out", str(out)]
    assert main(argv) == 2
    assert "min_var_f" in capsys.readouterr().err
    assert not out.exists()


def test_result_serializes():
    res = find_zero_power(zero_power_config(budget=256, restarts=2))
    doc = res.to_dict()
    json.dumps(doc)
    assert set(doc) >= {"rho", "f", "v", "report", "moments", "objective",
                        "evaluations", "succeeded", "battery_purity"}


# ---------------------------------------------------------------- manifest telemetry

PAYLOAD_KEYS = {"rho", "f", "v", "report", "moments", "objective", "evaluations", "succeeded",
                "battery_purity"}


def test_restart_telemetry_goes_to_the_manifest_only(tmp_path, monkeypatch):
    rounds = []  # rounds each restart's walk took part in: one per stack it yielded
    rows = []  # rows each restart's walk yielded, over all its stacks

    def counted(*args, **kwargs):
        walk = _pattern_search(*args, **kwargs)
        stack, n, m = next(walk), 0, 0
        while True:
            n, m = n + 1, m + len(stack)
            try:
                stack = walk.send((yield stack))
            except StopIteration as done:
                rounds.append(n)
                rows.append(m)
                return done.value

    monkeypatch.setattr(search, "_pattern_search", counted)
    out = tmp_path / "zp.json"
    assert main([*ZERO_POWER_ARGV, "--out", str(out)]) == 0
    result = find_zero_power(zero_power_config())
    assert out.read_bytes() == (json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n").encode()
    assert set(json.loads(out.read_text())) == PAYLOAD_KEYS

    manifest = json.loads((tmp_path / "zp.json.manifest.json").read_text())
    restarts = manifest["restarts"]
    assert [r["index"] for r in restarts] == list(range(8))
    assert all(set(r) == {"index", "objective", "evaluations", "succeeded"} for r in restarts)
    assert sum(r["evaluations"] for r in restarts) == result.evaluations
    assert any(r["succeeded"] and r["objective"] == result.objective for r in restarts)
    assert len(rounds) == 16  # the CLI run and the direct call, 8 restarts each
    assert manifest["kernel_calls"] == result.kernel_calls == max(rounds[:8]) == max(rounds[8:])
    # D = 2: each walk scores up to 16 moves per round
    assert manifest["lookahead"] == result.lookahead == 16
    assert manifest["rows_scored"] == result.rows_scored == sum(rows[:8]) == sum(rows[8:])
    assert result.rows_scored >= result.evaluations
    stages = manifest["stage_seconds"]
    assert set(stages) == {"rounds", "kernel", "report"} and all(t >= 0.0 for t in stages.values())
    assert stages["kernel"] <= stages["rounds"]


# the benchmark's saturation search, at D = 8
SATURATION_ARGV = ("search", "--mode", "saturation", "--dims", "2,2,2,1", "--seed", "1")


def test_the_lookahead_moves_rows_scored_and_no_payload(tmp_path, monkeypatch):
    # At D = 8 a walk scores 4 moves per round; the rows behind an acceptance
    # are thrown away, so fewer are scored than at the former fixed 8. Rows,
    # not seconds, are counted, so the host's load cannot move this test.
    out, old = tmp_path / "sat.json", tmp_path / "sat8.json"
    assert main([*SATURATION_ARGV, "--out", str(out)]) == 0
    monkeypatch.setattr(search, "_lookahead", lambda dim: 8)
    assert main([*SATURATION_ARGV, "--out", str(old)]) == 0
    assert out.read_bytes() == old.read_bytes()
    manifest = json.loads((tmp_path / "sat.json.manifest.json").read_text())
    old_manifest = json.loads((tmp_path / "sat8.json.manifest.json").read_text())
    assert manifest["restarts"] == old_manifest["restarts"]
    assert (manifest["lookahead"], old_manifest["lookahead"]) == (4, 8)
    evaluations = json.loads(out.read_text())["evaluations"]
    assert manifest["rows_scored"] <= 2.0 * evaluations < old_manifest["rows_scored"]


@pytest.mark.parametrize("dim, lookahead", [(1, 32), (2, 16), (4, 8), (8, 4), (16, 2), (64, 2)])
def test_the_lookahead_follows_the_dimension(dim, lookahead):
    assert search._lookahead(dim) == lookahead


# ---------------------------------------------------------------- internals

def hermitian_from_params_loop(x, dim):
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = x[:dim]
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            h[i, j] = x[k] + 1j * x[k + 1]
            h[j, i] = x[k] - 1j * x[k + 1]
            k += 2
    return h


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_hermitian_packing_matches_the_loop(dim):
    xs = np.random.default_rng(dim).standard_normal((5, dim * dim))
    packed = _hermitian_from_params(xs, _pack(dim))
    for x, h in zip(xs, packed):
        assert np.array_equal(h, hermitian_from_params_loop(x, dim))
        assert np.array_equal(_hermitian_from_params(x, _pack(dim)), h)


def pattern_search_one_at_a_time(score, x0, rng, budget, step0=0.5, shrink=0.5, patience=10,
                                 min_step=1e-12):
    x = x0.copy()
    values, oks = score(x[None])
    value, ok = float(values[0]), bool(oks[0])
    evals, step, fails = 1, step0, 0
    while not ok and evals < budget and step >= min_step:
        i = int(rng.integers(len(x)))
        y = x.copy()
        y[i] += step if rng.random() < 0.5 else -step
        values, oks = score(y[None])
        evals += 1
        if values[0] < value:
            x, value, ok = y, float(values[0]), bool(oks[0])
            fails = 0
        else:
            fails += 1
            if fails >= patience:
                step *= shrink
                fails = 0
    return x, value, evals, ok


def run_alone(walk, score):
    """Drive one `_pattern_search` walk, scoring each stack it yields; returns its result."""
    try:
        stack = next(walk)
        while True:
            stack = walk.send(score(stack))
    except StopIteration as done:
        return done.value


TARGET = np.linspace(-1.0, 1.0, 6)


def distance_score(goal):
    def score(xs):
        values = np.abs(xs - TARGET).sum(axis=1)
        return values, values < goal

    return score


def assert_same_walk(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


@pytest.mark.parametrize("budget, goal", [(1, 1e-3), (7, 1e-3), (100, 1e-3), (5000, 1e-3),
                                          (5000, 0.0)])
def test_lookahead_walk_equals_one_move_at_a_time(budget, goal):
    # Meeting the goal takes many rejections and step halvings; goal 0 is
    # never met, so that walk ends when its step falls below the minimum.
    score = distance_score(goal)
    x0 = np.zeros(6)
    want = pattern_search_one_at_a_time(score, x0, np.random.default_rng(3), budget)
    for lookahead in (1, 2, 3, 4, 8, 16):
        walk = _pattern_search(x0, np.random.default_rng(3), budget, lookahead=lookahead)
        assert_same_walk(run_alone(walk, score), want)


def test_lockstep_walks_of_unequal_length_equal_each_walk_alone():
    # (x0, budget, min_step): a success at the start point, a walk cut by its
    # budget, one that ends when its step falls below min_step (steps of at
    # least 1/8 cannot bring it within the goal), one that meets the goal
    # after many rounds, and one single-evaluation walk
    walks = [(TARGET.copy(), 5000, 1e-12), (np.zeros(6), 37, 1e-12), (np.zeros(6), 5000, 0.1),
             (np.full(6, 0.3), 5000, 1e-12), (np.ones(6), 1, 1e-12)]
    score = distance_score(1e-3)
    calls = []

    def counting_score(xs):
        calls.append(len(xs))
        return score(xs)

    got, (rounds, rows, _) = _lockstep(
        [_pattern_search(x0, np.random.default_rng(k), budget, lookahead=8, min_step=m)
         for k, (x0, budget, m) in enumerate(walks)], counting_score)
    want = [pattern_search_one_at_a_time(score, x0, np.random.default_rng(k), budget, min_step=m)
            for k, (x0, budget, m) in enumerate(walks)]
    for g, w in zip(got, want):
        assert_same_walk(g, w)
    assert [w[2] for w in want[:2]] == [1, 37] and want[0][3] and not want[1][3]
    assert not want[2][3] and want[2][2] < 5000
    assert want[3][3] and want[3][2] > 100
    assert rounds == len(calls) and calls[0] == len(walks) and rows == sum(calls)
    assert sum(calls) >= sum(w[2] for w in want)


def assert_restarts_equal_walks_alone(config, score, lookahead=8):
    results, _ = _lockstep([_pattern_search(*start, lookahead=lookahead)
                            for start in _restart_starts(config, 6)], score)
    starts = _restart_starts(config, 6)
    assert len(results) == len(starts) == min(config.restarts, config.budget)
    for got, (x0, rng, budget) in zip(results, starts):
        assert_same_walk(got, pattern_search_one_at_a_time(score, x0, rng, budget))
    assert sum(evals for _, _, evals, _ in results) <= config.budget


@pytest.mark.parametrize("budget, restarts", [(1, 8), (3, 8), (7, 16), (15, 16)])
def test_budget_below_restarts_runs_one_evaluation_walks(budget, restarts):
    assert_restarts_equal_walks_alone(
        zero_power_config(budget=budget, restarts=restarts), distance_score(1e-3))


@settings(max_examples=40, deadline=None)
@given(restarts=st.integers(1, 16), budget=st.integers(1, 5000), seed=st.integers(0, 2**64 - 1),
       goal=st.sampled_from([0.0, 1e-3, 0.5]), lookahead=st.integers(1, 32))
def test_lockstep_restarts_equal_each_walk_alone(restarts, budget, seed, goal, lookahead):
    config = zero_power_config(budget=budget, restarts=restarts, seed=SeedSpec(seed))
    assert_restarts_equal_walks_alone(config, distance_score(goal), lookahead)
