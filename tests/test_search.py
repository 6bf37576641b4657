import numpy as np
import pytest

from qbattery.ensembles import SeedSpec
from qbattery.moments import verify_instance
from qbattery.operators import RejectedInputError, TensorStructure, partial_trace_to_battery
from qbattery.search import (
    SearchConfig,
    SearchThresholds,
    _hermitian_from_params,
    _pack,
    _pattern_search,
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


def test_zero_power_thread_invariant():
    a = find_zero_power(zero_power_config(), threads=1)
    b = find_zero_power(zero_power_config(), threads=4)
    assert a.to_dict() == b.to_dict()


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


def test_result_serializes():
    import json

    res = find_zero_power(zero_power_config(budget=256, restarts=2))
    doc = res.to_dict()
    json.dumps(doc)
    assert set(doc) >= {"rho", "f", "v", "report", "moments", "objective",
                        "evaluations", "succeeded", "battery_purity"}


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


@pytest.mark.parametrize("budget, goal", [(1, 1e-3), (7, 1e-3), (100, 1e-3), (5000, 1e-3),
                                          (5000, 0.0)])
def test_lookahead_walk_equals_one_move_at_a_time(budget, goal):
    # Meeting the goal takes many rejections and step halvings; goal 0 is
    # never met, so that walk ends when its step falls below the minimum.
    target = np.linspace(-1.0, 1.0, 6)

    def score(xs):
        values = np.abs(xs - target).sum(axis=1)
        return values, values < goal

    x0 = np.zeros(6)
    got = _pattern_search(score, x0, np.random.default_rng(3), budget)
    want = pattern_search_one_at_a_time(score, x0, np.random.default_rng(3), budget)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
