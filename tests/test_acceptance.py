"""Acceptance gate: one test per shipped claim, run on frozen seeds.

Each test prints as its own pass/fail line under ``pytest -v``. The shared
Monte Carlo sweep draws 10^4 instances per tensor structure and recomputes
every reported quantity through raw numpy arithmetic, independent of the
library's own verification path.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from qbattery.cli import main
from qbattery.dynamics import (
    HamiltonianSpec,
    exchange_interaction,
    ground_excited_state,
    trajectory_report,
)
from qbattery.ensembles import (
    SeedSpec,
    battery_eigenstate_product,
    draw_batch,
    gue_hermitian,
    haar_pure,
)
from qbattery.moments import REPORT_FIELDS, _verify_checked, batch_rows, compute_moments, verify_instance
from qbattery.operators import DensityMatrix, HermitianOperator, TensorStructure
from qbattery.search import SearchConfig, SearchThresholds, find_saturating, find_zero_power

from draws import drawn_states

SEED = 42
TRIALS_PER_STRUCTURE = 10_000
STRUCTURES = [(2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1)]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _raw_sqrt(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    return (u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _tr(mats: np.ndarray) -> np.ndarray:
    return np.einsum("nii->n", mats)


def _verified_in_trial_order(s, trials):
    """The kernel's report fields over `trials`, each state kind's factors verified as one stack, as verify does."""
    groups, _ = draw_batch(s, "mix", SEED, trials)
    out = {}
    for rows, q, f, v in groups:
        batch = _verify_checked(q, f, v, s)
        batch.errors.raise_first()
        for name in REPORT_FIELDS:
            out.setdefault(name, np.empty(len(trials)))[rows] = getattr(batch, name)
    return SimpleNamespace(**out)


@pytest.fixture(scope="module")
def sweep():
    """Seeded sweep over all structures with raw-numpy cross-checks.

    Trials are drawn and verified in chunks of `batch_rows(D, D)`, the
    gue-ops chunk size; the raw-numpy
    recomputation runs over each chunk's stacked matrices.
    """
    agg = {
        "trials": 0,
        "bound_violations": 0,
        "max_route_gap": 0.0,        # library power vs raw commutator trace
        "max_delta_form_gap": 0.0,   # raw commutator vs centered-commutator form
        "max_imcov_gap": 0.0,        # power vs 2 Im(cov)
        "max_decomp_err": 0.0,       # scaled |sum of terms - power^2|
        "max_conjugate_err": 0.0,    # scaled |term_fv - term_vf|
        "max_term_rederive_err": 0.0,
        "min_schwarz_margin": np.inf,  # scaled var_f var_v - |cov|^2
        "min_bound": np.inf,
        "seconds": 0.0,
    }
    started = time.perf_counter()
    for dims in STRUCTURES:
        s = TensorStructure.from_dims(dims)
        eye_env = np.eye(s.env_dim)
        eye_full = np.eye(s.dim)
        size = batch_rows(s.dim, s.dim)
        for first in range(0, TRIALS_PER_STRUCTURE, size):
            trials = np.arange(first, min(first + size, TRIALS_PER_STRUCTURE))
            report = _verified_in_trial_order(s, trials.tolist())
            rm, f, vm, _ = drawn_states(s, "mix", SEED, trials.tolist())

            fm = np.kron(f, eye_env)  # F (x) 1 per row
            p_raw = (-1j * _tr((rm @ fm - fm @ rm) @ vm)).real
            dfm = fm - _tr(rm @ fm).real[:, None, None] * eye_full
            dvm = vm - _tr(rm @ vm).real[:, None, None] * eye_full
            p_delta = (-1j * _tr(rm @ (dfm @ dvm - dvm @ dfm))).real
            cov = _tr(rm @ dfm @ dvm)
            var_f = _tr(rm @ dfm @ dfm).real
            var_v = _tr(rm @ dvm @ dvm).real
            bound = 2.0 * (var_f * var_v - (cov**2).real)

            agg["bound_violations"] += int(np.count_nonzero(p_raw**2 > bound + 1e-9 * (1.0 + bound)))
            agg["max_route_gap"] = max(agg["max_route_gap"], np.abs(report.power - p_raw).max())
            agg["max_delta_form_gap"] = max(agg["max_delta_form_gap"], np.abs(p_raw - p_delta).max())
            agg["max_imcov_gap"] = max(
                agg["max_imcov_gap"], np.abs(report.power - 2.0 * cov.imag).max()
            )
            total = report.term_fv + report.term_vf - report.term_cross
            scale = np.maximum(1.0, report.power_sq)
            agg["max_decomp_err"] = max(
                agg["max_decomp_err"], (np.abs(total - report.power_sq) / scale).max()
            )
            agg["max_conjugate_err"] = max(
                agg["max_conjugate_err"],
                (np.abs(report.term_fv - report.term_vf)
                 / np.maximum(1.0, np.maximum(report.term_fv, report.term_vf))).max(),
            )
            agg["min_schwarz_margin"] = min(
                agg["min_schwarz_margin"],
                ((var_f * var_v - np.abs(cov) ** 2) / (1.0 + var_f * var_v)).min(),
            )
            agg["min_bound"] = min(agg["min_bound"], (bound / (1.0 + np.abs(bound))).min())

            k = np.flatnonzero(trials % 97 == 0)
            if k.size:
                sr = _raw_sqrt(rm[k])
                dfk, dvk = dfm[k], dvm[k]
                t_fv = np.abs(_tr(sr @ dfk @ dvk @ sr)) ** 2
                t_vf = np.abs(_tr(sr @ dvk @ dfk @ sr)) ** 2
                t_cross = 2.0 * (_tr(rm[k] @ dfk @ dvk) ** 2).real
                err = np.maximum.reduce([
                    np.abs(t_fv - report.term_fv[k]),
                    np.abs(t_vf - report.term_vf[k]),
                    np.abs(t_cross - report.term_cross[k]),
                ]) / np.maximum.reduce([np.ones_like(t_fv), t_fv, t_vf, np.abs(t_cross)])
                agg["max_term_rederive_err"] = max(agg["max_term_rederive_err"], err.max())

            agg["trials"] += len(trials)
    agg["seconds"] = time.perf_counter() - started
    return agg


def test_power_squared_never_exceeds_corrected_bound(sweep):
    assert sweep["trials"] == TRIALS_PER_STRUCTURE * len(STRUCTURES)
    assert sweep["bound_violations"] == 0
    assert sweep["seconds"] < 60.0


def test_power_identity_chain_holds_on_random_instances(sweep):
    assert sweep["max_route_gap"] <= 1e-10
    assert sweep["max_delta_form_gap"] <= 1e-10
    assert sweep["max_decomp_err"] <= 1e-9
    assert sweep["max_conjugate_err"] <= 1e-9
    assert sweep["max_imcov_gap"] <= 1e-9
    assert sweep["max_term_rederive_err"] <= 1e-8


def test_covariance_schwarz_consistency_on_random_instances(sweep):
    assert sweep["min_schwarz_margin"] >= -1e-9
    assert sweep["min_bound"] >= -1e-9


def test_battery_eigenstate_products_have_zero_power():
    structures = [(2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1)]
    worst = 0.0
    for i in range(100):
        s = TensorStructure.from_dims(structures[i % len(structures)])
        f = gue_hermitian(s.d_w, 1.0, SeedSpec(SEED, stream_index=3 * i))
        j = i % s.d_w
        rest = haar_pure(s.env_dim, SeedSpec(SEED, stream_index=3 * i + 1))
        rho = battery_eigenstate_product(f, j, rest, s).state
        v = gue_hermitian(s.dim, 1.0, SeedSpec(SEED, stream_index=3 * i + 2))
        report = verify_instance(rho, f, v, s)
        m = compute_moments(rho, f, v, s)
        worst = max(worst, abs(report.power), m.var_f, abs(m.cov))
    assert worst <= 1e-10


def test_known_instance_saturates_and_search_reaches_it():
    s = TensorStructure.from_dims([2, 1, 1, 1])
    rho = DensityMatrix(0.5 * (np.eye(2) + SIGMA_Y))
    report = verify_instance(rho, HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X), s)
    assert report.power == pytest.approx(2.0, abs=1e-9)
    assert report.corrected_bound == pytest.approx(4.0, abs=1e-9)
    assert report.saturation_ratio == pytest.approx(1.0, abs=1e-9)

    cfg = SearchConfig(structure=s, mode="saturation", budget=100_000,
                       seed=SeedSpec(SEED), restarts=8)
    res = find_saturating(cfg)
    assert res.succeeded
    assert res.evaluations <= 100_000
    assert res.report.saturation_ratio >= 0.999


def test_zero_power_with_spread_and_covariance_exists():
    s = TensorStructure.from_dims([2, 1, 1, 1])
    thresholds = SearchThresholds(min_var_f=0.5, min_abs_cov=0.5, max_abs_power=1e-8)
    res = find_zero_power(SearchConfig(structure=s, mode="zero-power",
                                       thresholds=thresholds, budget=100_000,
                                       seed=SeedSpec(SEED), restarts=8))
    assert res.succeeded
    assert abs(res.report.power) <= 1e-8
    assert res.moments.var_f >= 0.5 and abs(res.moments.cov) >= 0.5

    # hand-checkable instance: mixed qubit, diagonal state, tilted coupling
    rho = DensityMatrix(0.5 * (np.eye(2) + 0.5 * SIGMA_Z))
    f = HermitianOperator(SIGMA_Z)
    v = HermitianOperator(SIGMA_Z + SIGMA_X)
    report = verify_instance(rho, f, v, s)
    m = compute_moments(rho, f, v, s)
    assert report.power == pytest.approx(0.0, abs=1e-12)
    assert m.var_f == pytest.approx(0.75, abs=1e-12)
    assert m.cov.real == pytest.approx(0.75, abs=1e-12)
    assert m.cov.imag == pytest.approx(0.0, abs=1e-12)
    assert report.corrected_bound == pytest.approx(1.5, abs=1e-12)

    pair = TensorStructure.from_dims([2, 2, 1, 1])
    entangled = SearchThresholds(min_var_f=0.5, min_abs_cov=0.5,
                                 max_abs_power=1e-8, require_entangled=True)
    res2 = find_zero_power(SearchConfig(structure=pair, mode="zero-power",
                                        thresholds=entangled, budget=100_000,
                                        seed=SeedSpec(SEED), restarts=8))
    assert res2.succeeded
    assert res2.battery_purity <= 0.999


def test_exchange_model_power_tracks_work_derivative():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho0 = ground_excited_state(s)
    f = HermitianOperator(SIGMA_Z)
    h = HamiltonianSpec(
        h0=HermitianOperator(np.zeros((4, 4), dtype=complex)),
        v=exchange_interaction(1.0, s),
        structure=s,
    )

    steps = 3144  # dt = pi/3144 <= 1e-3, and pi/4 falls exactly on the grid
    started = time.perf_counter()
    traj = trajectory_report(rho0, h, f, np.linspace(0.0, np.pi, steps + 1))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0

    # dfdt_fd holds the interior points only
    max_err = np.abs(traj.report.power[1:-1] - traj.dfdt_fd).max()
    assert max_err <= 1e-5

    # halving the step shrinks the worst finite-difference error ~4x
    fine = trajectory_report(rho0, h, f, np.linspace(0.0, np.pi, 2 * steps + 1))
    max_err_fine = np.abs(fine.report.power[1:-1] - fine.dfdt_fd).max()
    assert 3.5 <= max_err / max_err_fine <= 4.5

    quarter = steps // 4
    assert traj.t[quarter] == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert traj.report.power[quarter] == pytest.approx(2.0, abs=1e-6)
    assert traj.battery_purity[quarter] == pytest.approx(0.5, abs=1e-6)

    r = traj.report
    assert np.all(r.power_sq <= r.corrected_bound + 1e-9 * (1.0 + r.corrected_bound))


def test_sweep_reports_identical_across_thread_counts(tmp_path):
    a, b = tmp_path / "t1.json", tmp_path / "t8.json"
    args = ["verify", "--dims", "2,2,1,1", "--trials", "300",
            "--seed", str(SEED), "--format", "csv"]
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "t1.json.trials.csv").read_bytes() == \
        (tmp_path / "t8.json.trials.csv").read_bytes()
