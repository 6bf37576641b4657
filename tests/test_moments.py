import numpy as np
import pytest

from qbattery.ensembles import (
    SeedSpec,
    battery_eigenstate_product,
    draw_instance,
    ginibre_mixed,
    gue_hermitian,
)
from qbattery.moments import (
    MomentSet,
    PowerBoundReport,
    charging_power,
    compute_moments,
    corrected_bound,
    decomposition_terms,
    delta_operator,
    loose_bound,
    verify_batch,
    verify_instance,
)
from qbattery.operators import (
    DensityMatrix,
    HermitianOperator,
    NumericalIntegrityError,
    RejectedInputError,
    TensorStructure,
    embed_battery_op,
    expectation,
)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])

QUBIT = TensorStructure.from_dims([2, 1, 1, 1])


def oracle_quantities(rho, f, v):
    """All derived quantities by direct dense arithmetic, no package calls.

    Battery-only layout (no environment), so reduced and full states agree.
    """
    mean_f = np.trace(rho @ f).real
    mean_v = np.trace(rho @ v).real
    var_f = np.trace(rho @ f @ f).real - mean_f**2
    var_v = np.trace(rho @ v @ v).real - mean_v**2
    cov = np.trace(rho @ f @ v) - mean_f * mean_v
    power = (-1j * np.trace((rho @ f - f @ rho) @ v)).real
    bound = 2.0 * (var_f * var_v - (cov**2).real)
    return mean_f, mean_v, var_f, var_v, complex(cov), float(power), float(bound)


# ---------------------------------------------------------- frozen oracles

def test_saturating_qubit_instance():
    # rho = (I + sigma_y)/2, F = sigma_z, V = sigma_x
    rho_m = (np.eye(2) + SY) / 2
    ora = oracle_quantities(rho_m, SZ, SX)
    assert ora[5] == pytest.approx(2.0, abs=1e-12)   # power
    assert ora[6] == pytest.approx(4.0, abs=1e-12)   # bound
    assert ora[4] == pytest.approx(1j, abs=1e-12)    # cov

    rho = DensityMatrix(rho_m)
    f, v = HermitianOperator(SZ), HermitianOperator(SX)
    rep = verify_instance(rho, f, v, QUBIT)
    assert rep.power == pytest.approx(2.0, abs=1e-9)
    assert rep.power_sq == pytest.approx(4.0, abs=1e-9)
    assert rep.corrected_bound == pytest.approx(4.0, abs=1e-9)
    assert rep.saturation_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.term_fv == pytest.approx(1.0, abs=1e-9)
    assert rep.term_vf == pytest.approx(1.0, abs=1e-9)
    assert rep.term_cross == pytest.approx(-2.0, abs=1e-9)
    assert rep.loose_bound == pytest.approx(4.0, abs=1e-9)


def test_real_covariance_zero_power_instance():
    # rho = (I + sigma_z/2)/2 = diag(0.75, 0.25), F = sigma_z, V = sigma_z + sigma_x
    rho_m = np.diag([0.75, 0.25]).astype(complex)
    v_m = SZ + SX
    ora = oracle_quantities(rho_m, SZ, v_m)
    assert ora[5] == pytest.approx(0.0, abs=1e-15)
    assert ora[2] == pytest.approx(0.75, abs=1e-15)
    assert ora[4] == pytest.approx(0.75, abs=1e-15)
    assert ora[6] == pytest.approx(1.5, abs=1e-15)

    rep = verify_instance(DensityMatrix(rho_m), HermitianOperator(SZ), HermitianOperator(v_m), QUBIT)
    m = compute_moments(DensityMatrix(rho_m), HermitianOperator(SZ), HermitianOperator(v_m), QUBIT)
    assert rep.power == pytest.approx(0.0, abs=1e-12)
    assert m.var_f == pytest.approx(0.75, abs=1e-12)
    assert m.var_v == pytest.approx(1.75, abs=1e-12)
    assert m.cov == pytest.approx(0.75 + 0j, abs=1e-12)
    assert rep.corrected_bound == pytest.approx(1.5, abs=1e-12)
    assert rep.loose_bound == pytest.approx(5.25, abs=1e-12)
    assert rep.slack == pytest.approx(1.5, abs=1e-12)
    assert rep.saturation_ratio == 0.0


def test_eigenstate_instance_all_zero():
    # battery in an F eigenstate tensored with anything: no variance, no covariance
    s = TensorStructure.from_dims([2, 2, 1, 1])
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0 / np.sqrt(2)
    ket[1] = 1.0j / np.sqrt(2)  # |0>_W x (|0> + i|1>)/sqrt(2)
    rho = DensityMatrix.from_ket(ket)
    f = HermitianOperator(SZ)
    rng = np.random.default_rng(5)
    m4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = HermitianOperator((m4 + m4.conj().T) / 2)
    rep = verify_instance(rho, f, v, s)
    m = compute_moments(rho, f, v, s)
    assert abs(rep.power) <= 1e-12
    assert m.var_f <= 1e-12
    assert abs(m.cov) <= 1e-12
    assert abs(rep.corrected_bound) <= 1e-12
    assert rep.saturation_ratio == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-6])
def test_saturation_ratio_does_not_depend_on_the_scale_of_f_and_v(scale):
    # the saturating qubit keeps ratio 1 when F and V shrink (bound 4e-16 at
    # 1e-4); a battery eigenstate product, whose bound is round-off, keeps 0
    f, v = HermitianOperator(scale * SZ), HermitianOperator(scale * SX)
    rep = verify_instance(DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]])), f, v, QUBIT)
    assert rep.corrected_bound == pytest.approx(4.0 * scale**4, rel=1e-9)
    assert rep.saturation_ratio == pytest.approx(1.0, abs=1e-9)

    s = TensorStructure.from_dims([3, 2, 1, 1])
    f = gue_hermitian(3, 1.0, SeedSpec(41))
    rest = ginibre_mixed(2, 2, SeedSpec(42))
    for j in range(3):
        prod = battery_eigenstate_product(f, j, rest, s)
        v = gue_hermitian(6, 1.0, SeedSpec(43, j))
        rep = verify_instance(prod.state, HermitianOperator(scale * f.mat),
                              HermitianOperator(scale * v.mat), s)
        assert rep.saturation_ratio == 0.0


# ---------------------------------------------------------- random sweeps

STRUCTURES = [(2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1)]


def random_instance(s, rng):
    d = s.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    rho = DensityMatrix(w / w.trace().real)
    mf = rng.standard_normal((s.d_w, s.d_w)) + 1j * rng.standard_normal((s.d_w, s.d_w))
    f = HermitianOperator((mf + mf.conj().T) / 2)
    mv = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v = HermitianOperator((mv + mv.conj().T) / 2)
    return rho, f, v


@pytest.mark.parametrize("dims", STRUCTURES)
def test_moments_match_dense_oracle(dims):
    s = TensorStructure.from_dims(list(dims))
    rng = np.random.default_rng(sum(dims))
    for _ in range(25):
        rho, f, v = random_instance(s, rng)
        m = compute_moments(rho, f, v, s)
        # raw dense recomputation with the embedded battery operator
        f_emb = np.kron(f.mat, np.eye(s.env_dim))
        mean_f = np.trace(rho.mat @ f_emb).real
        var_f = np.trace(rho.mat @ f_emb @ f_emb).real - mean_f**2
        mean_v = np.trace(rho.mat @ v.mat).real
        var_v = np.trace(rho.mat @ v.mat @ v.mat).real - mean_v**2
        cov = np.trace(rho.mat @ f_emb @ v.mat) - mean_f * mean_v
        assert m.mean_f == pytest.approx(mean_f, abs=1e-10)
        assert m.mean_v == pytest.approx(mean_v, abs=1e-10)
        assert m.var_f == pytest.approx(var_f, abs=1e-9)
        assert m.var_v == pytest.approx(var_v, abs=1e-9)
        assert m.cov == pytest.approx(complex(cov), abs=1e-9)


@pytest.mark.parametrize("dims", STRUCTURES)
def test_identity_chain_random(dims):
    s = TensorStructure.from_dims(list(dims))
    rng = np.random.default_rng(100 + sum(dims))
    for _ in range(25):
        rho, f, v = random_instance(s, rng)
        m = compute_moments(rho, f, v, s)
        p = charging_power(rho, f, v, s)
        rep = verify_instance(rho, f, v, s)

        assert abs(p - 2.0 * m.cov.imag) <= 1e-9 * (1 + abs(p))
        t_fv, t_vf, t_cross = decomposition_terms(rho, f, v, s)
        assert abs((t_fv + t_vf - t_cross) - p * p) <= 1e-9 * (1 + p * p)
        assert abs(t_fv - t_vf) <= 1e-9 * (1 + max(t_fv, t_vf))
        assert m.var_f * m.var_v >= abs(m.cov) ** 2 - 1e-9 * (1 + m.var_f * m.var_v)
        assert rep.corrected_bound >= -1e-9
        assert rep.loose_bound >= rep.corrected_bound - 1e-9 * (1 + abs(rep.corrected_bound))
        assert p * p <= rep.corrected_bound + 1e-9 * (1 + rep.corrected_bound)
        assert rep.slack == pytest.approx(rep.corrected_bound - rep.power_sq, abs=1e-12)


def test_power_formula_against_commutator_trace():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rng = np.random.default_rng(77)
    for _ in range(20):
        rho, f, v = random_instance(s, rng)
        p = charging_power(rho, f, v, s)
        f_emb = np.kron(f.mat, np.eye(s.env_dim))
        comm = rho.mat @ f_emb - f_emb @ rho.mat
        raw = -1j * np.trace(comm @ v.mat)
        assert abs(raw.imag) <= 1e-10 * (1 + abs(raw.real))
        assert p == pytest.approx(raw.real, abs=1e-10)


def test_delta_operator_centers_mean():
    rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = HermitianOperator((a + a.conj().T) / 2)
    mean = expectation(rho, op)
    shifted = delta_operator(op, mean)
    assert abs(expectation(rho, shifted)) <= 1e-12


def test_bounds_are_simple_functions_of_moments():
    m = MomentSet(mean_f=0.0, mean_v=0.0, var_f=0.75, var_v=1.75, cov=0.75 + 0j)
    assert corrected_bound(m) == pytest.approx(1.5, abs=1e-15)
    assert loose_bound(m) == pytest.approx(5.25, abs=1e-15)


# ---------------------------------------------------------- validation

def test_momentset_clamps_tiny_negative_variance():
    m = MomentSet(mean_f=0.0, mean_v=0.0, var_f=-5e-11, var_v=1.0, cov=0j)
    assert m.var_f == 0.0


def test_momentset_rejects_negative_variance():
    with pytest.raises(NumericalIntegrityError):
        MomentSet(mean_f=0.0, mean_v=0.0, var_f=-1e-6, var_v=1.0, cov=0j)


def test_momentset_rejects_covariance_inequality_breach():
    with pytest.raises(NumericalIntegrityError):
        MomentSet(mean_f=0.0, mean_v=0.0, var_f=0.1, var_v=0.1, cov=1.0 + 0j)


def test_report_rejects_inconsistent_square():
    with pytest.raises(NumericalIntegrityError):
        PowerBoundReport(
            power=1.0, power_sq=2.0, term_fv=1.0, term_vf=1.0, term_cross=0.0,
            corrected_bound=3.0, loose_bound=4.0, slack=1.0, saturation_ratio=0.5,
        )


def test_report_rejects_negative_slack():
    with pytest.raises(NumericalIntegrityError):
        PowerBoundReport(
            power=2.0, power_sq=4.0, term_fv=2.0, term_vf=2.0, term_cross=0.0,
            corrected_bound=3.0, loose_bound=5.0, slack=-1.0, saturation_ratio=1.0,
        )


def test_report_rejects_out_of_range_ratio():
    with pytest.raises(NumericalIntegrityError):
        PowerBoundReport(
            power=1.0, power_sq=1.0, term_fv=0.5, term_vf=0.5, term_cross=0.0,
            corrected_bound=2.0, loose_bound=3.0, slack=1.0, saturation_ratio=1.5,
        )


def test_report_to_dict_is_json_ready():
    import json

    rep = verify_instance(
        DensityMatrix((np.eye(2) + SY) / 2), HermitianOperator(SZ), HermitianOperator(SX), QUBIT
    )
    doc = rep.to_dict()
    json.dumps(doc)  # must not raise
    assert set(doc) == {
        "power", "power_sq", "term_fv", "term_vf", "term_cross",
        "corrected_bound", "loose_bound", "slack", "saturation_ratio",
    }


# ---------------------------------------------------------- more properties

def test_shift_invariance():
    # F -> F + cI and V -> cV' shifts leave power, variances, cov, bounds alone
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho, f, v = random_instance(s, rng)
        c = float(rng.standard_normal())
        f_shift = HermitianOperator(f.mat + c * np.eye(2))
        v_shift = HermitianOperator(v.mat + c * np.eye(4))
        base_m = compute_moments(rho, f, v, s)
        base_p = charging_power(rho, f, v, s)
        for f2, v2 in [(f_shift, v), (f, v_shift), (f_shift, v_shift)]:
            m = compute_moments(rho, f2, v2, s)
            p = charging_power(rho, f2, v2, s)
            assert p == pytest.approx(base_p, abs=1e-9)
            assert m.var_f == pytest.approx(base_m.var_f, abs=1e-9)
            assert m.var_v == pytest.approx(base_m.var_v, abs=1e-9)
            assert m.cov == pytest.approx(base_m.cov, abs=1e-9)
            assert corrected_bound(m) == pytest.approx(corrected_bound(base_m), abs=1e-9)
            assert loose_bound(m) == pytest.approx(loose_bound(base_m), abs=1e-9)


def test_chain_consistency_tightness():
    # corrected_bound >= 2(|cov|^2 - Re cov^2) and that quantity is 4 Im(cov)^2,
    # so the bound is tight exactly when the variance inequality is
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rng = np.random.default_rng(13)
    for _ in range(50):
        rho, f, v = random_instance(s, rng)
        m = compute_moments(rho, f, v, s)
        inner = 2.0 * (abs(m.cov) ** 2 - (m.cov**2).real)
        assert corrected_bound(m) >= inner - 1e-9
        assert inner == pytest.approx(4.0 * m.cov.imag**2, abs=1e-9 * (1 + inner))


def test_bound_validity_across_total_dimensions():
    # covers total dimensions 2, 4, 8 and 16
    for dims, trials in [((2, 1, 1, 1), 500), ((2, 2, 1, 1), 500), ((2, 2, 2, 1), 500), ((4, 2, 2, 1), 500)]:
        s = TensorStructure.from_dims(list(dims))
        rng = np.random.default_rng(1000 + s.dim)
        for _ in range(trials):
            rho, f, v = random_instance(s, rng)
            rep = verify_instance(rho, f, v, s)
            assert rep.power_sq <= rep.corrected_bound + 1e-9 * (1 + rep.corrected_bound)


def test_commuting_interaction_gives_zero_power():
    # V = F x I commutes with the embedded battery operator: P = 0 and the
    # decomposition collapses, term_cross = term_fv + term_vf
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rng = np.random.default_rng(17)
    mf = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = HermitianOperator((mf + mf.conj().T) / 2)
    v = embed_battery_op(f, s)
    rho = DensityMatrix.maximally_mixed(4)
    p = charging_power(rho, f, v, s)
    t_fv, t_vf, t_cross = decomposition_terms(rho, f, v, s)
    assert abs(p) <= 1e-12
    assert t_cross == pytest.approx(t_fv + t_vf, abs=1e-9 * (1 + abs(t_cross)))
    assert (t_fv + t_vf - t_cross) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------- batched kernel

KERNEL_DIMS = [(2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 4, 4)]
KERNEL_FIELDS = ("power", "power_sq", "term_fv", "term_vf", "term_cross", "corrected_bound",
                 "loose_bound", "slack", "saturation_ratio")
MOMENT_FIELDS = ("mean_f", "mean_v", "var_f", "var_v", "cov", "purity_w")


def reference_chain(rho, f, v, s):
    """Every quantity of the verification chain for one instance, in plain dense numpy."""
    env, eye = s.env_dim, np.eye(s.dim)
    rho_w = np.einsum("iaja->ij", rho.reshape(s.d_w, env, s.d_w, env))
    rho_w = rho_w / rho_w.trace().real
    mean_f = np.trace(rho_w @ f).real
    mean_v = np.trace(rho @ v).real
    var_f = max(np.trace(rho_w @ f @ f).real - mean_f**2, 0.0)
    var_v = max(np.trace(rho @ v @ v).real - mean_v**2, 0.0)
    f_emb = np.kron(f, np.eye(env))
    cov = np.trace(rho @ f_emb @ v) - mean_f * mean_v
    power = (-1j * np.trace((rho @ f_emb - f_emb @ rho) @ v)).real
    df, dv = f_emb - mean_f * eye, v - mean_v * eye
    w, u = np.linalg.eigh(rho)
    sr = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    bound = 2.0 * (var_f * var_v - (cov**2).real)
    return {
        "mean_f": mean_f, "mean_v": mean_v, "var_f": var_f, "var_v": var_v, "cov": cov,
        "purity_w": (np.abs(rho_w) ** 2).sum(),
        "power": power, "power_sq": power**2,
        "term_fv": abs(np.trace(sr @ df @ dv @ sr)) ** 2,
        "term_vf": abs(np.trace(sr @ dv @ df @ sr)) ** 2,
        "term_cross": 2.0 * (np.trace(rho @ df @ dv) ** 2).real,
        "corrected_bound": bound, "loose_bound": 4.0 * var_f * var_v,
        "slack": bound - power**2,
        "saturation_ratio": 0.0 if bound <= 1e-14 else min(power**2 / bound, 1.0 + 1e-9),
    }


def drawn_stacks(s, kind, n, seed=42, rank=None):
    drawn = [draw_instance(s, kind, seed, i, rank=rank) for i in range(n)]
    return [np.stack([d[k].mat for d in drawn]) for k in range(3)]


def kernel_fields(batch):
    fields = {k: getattr(batch, k) for k in KERNEL_FIELDS}
    fields.update({k: getattr(batch.moments, k) for k in MOMENT_FIELDS})
    return fields


@pytest.mark.parametrize("kind", ["haar", "ginibre", "mix"])
@pytest.mark.parametrize("dims", KERNEL_DIMS)
def test_kernel_matches_per_instance_reference(dims, kind):
    s = TensorStructure.from_dims(list(dims))
    rank = max(1, s.dim // 2) if kind != "haar" else None  # Ginibre states below full rank
    rho, f, v = drawn_stacks(s, kind, 4 if s.dim == 64 else 12, rank=rank)
    batch = verify_batch(rho, f, v, s)
    assert batch.errors == [None] * len(rho)
    got = kernel_fields(batch)
    for i in range(len(rho)):
        want = reference_chain(rho[i], f[i], v[i], s)
        for name, value in want.items():
            assert abs(got[name][i] - value) <= 1e-12 * max(abs(value), 1.0), (name, i)


@pytest.mark.parametrize("dims", [(2, 1, 1, 1), (3, 2, 1, 1), (2, 2, 4, 4)])
def test_kernel_rows_do_not_depend_on_the_batch(dims):
    s = TensorStructure.from_dims(list(dims))
    rho, f, v = drawn_stacks(s, "mix", 7, rank=2)
    whole = kernel_fields(verify_batch(rho, f, v, s))
    head = kernel_fields(verify_batch(rho[:3], f[:3], v[:3], s))
    tail = kernel_fields(verify_batch(rho[3:], f[3:], v[3:], s))
    for name in whole:
        assert np.array_equal(whole[name], np.concatenate([head[name], tail[name]])), name


def shifted_failing_instance(s):
    """A drawn instance, with F and V shifted by 1e6 I, that `verify_instance` rejects.

    The shift makes the commutator-shift identity fail on some draws through
    round-off in <A^2> - <A>^2. Returns (rho, F, V, the error message).
    """
    shift = 1e6
    for trial in range(100):
        rho, f, v, _ = draw_instance(s, "mix", 42, trial)
        f = HermitianOperator(f.mat + shift * np.eye(s.d_w))
        v = HermitianOperator(v.mat + shift * np.eye(s.dim))
        try:
            verify_instance(rho, f, v, s)
        except NumericalIntegrityError as exc:
            return rho, f, v, str(exc)
    pytest.fail("no draw failed")


def test_failing_row_reports_its_own_error_and_spares_the_others():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, message = shifted_failing_instance(s)
    rho_s, f_s, v_s = drawn_stacks(s, "mix", 5)
    clean = kernel_fields(verify_batch(rho_s, f_s, v_s, s))
    at = 2
    batch = verify_batch(np.insert(rho_s, at, rho.mat, axis=0), np.insert(f_s, at, f.mat, axis=0),
                         np.insert(v_s, at, v.mat, axis=0), s)
    assert isinstance(batch.errors[at], NumericalIntegrityError)
    assert str(batch.errors[at]) == message
    assert [e for i, e in enumerate(batch.errors) if i != at] == [None] * 5
    for name, values in kernel_fields(batch).items():
        assert np.array_equal(np.delete(values, at), clean[name]), name


def test_kernel_checks_its_inputs_are_hermitian():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v = drawn_stacks(s, "haar", 3)
    v[1, 0, 1] += 1e-6
    batch = verify_batch(rho, f, v, s)
    assert batch.errors[0] is None and batch.errors[2] is None
    with pytest.raises(RejectedInputError) as exc:
        HermitianOperator(v[1])
    assert type(batch.errors[1]) is RejectedInputError
    assert str(batch.errors[1]) == str(exc.value)


def test_power_and_terms_raise_only_for_their_own_checks():
    # The shifted instance fails an identity of the full chain, but none of
    # the checks charging_power and decomposition_terms make themselves.
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, message = shifted_failing_instance(s)
    assert "commutator-shift" in message
    want = reference_chain(rho.mat, f.mat, v.mat, s)
    assert abs(charging_power(rho, f, v, s) - want["power"]) <= 1e-6
    t_fv, t_vf, t_cross = decomposition_terms(rho, f, v, s)
    for got, name in ((t_fv, "term_fv"), (t_vf, "term_vf"), (t_cross, "term_cross")):
        assert abs(got - want[name]) <= 1e-9 * max(abs(want[name]), 1.0), name


def test_one_row_calls_run_each_check_once(monkeypatch):
    # the stage checks its values; the MomentSet and PowerBoundReport built
    # from them must not run the same checks a second time
    import qbattery.moments as moments

    calls = {"_moment_checks": 0, "_report_checks": 0}
    for name in calls:
        def counted(*args, _fn=getattr(moments, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(moments, name, counted)
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, _ = draw_instance(s, "mix", 42, 3)

    compute_moments(rho, f, v, s)
    assert calls == {"_moment_checks": 1, "_report_checks": 0}
    verify_instance(rho, f, v, s)
    assert calls == {"_moment_checks": 2, "_report_checks": 1}
    # direct construction stays checked
    MomentSet(mean_f=0.0, mean_v=0.0, var_f=1.0, var_v=1.0, cov=0j)
    PowerBoundReport(power=0.0, power_sq=0.0, term_fv=0.0, term_vf=0.0, term_cross=0.0,
                     corrected_bound=1.0, loose_bound=1.0, slack=1.0, saturation_ratio=0.0)
    assert calls == {"_moment_checks": 3, "_report_checks": 2}
