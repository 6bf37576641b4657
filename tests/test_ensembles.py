import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qbattery.ensembles import (
    STATE_KINDS,
    SeedSpec,
    battery_eigenstate_product,
    draw_batch,
    draw_instance,
    ginibre_mixed,
    gue_hermitian,
    haar_pure,
)
from qbattery.moments import compute_moments, verify_instance
from qbattery.operators import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    RejectedInputError,
    TensorStructure,
    partial_trace_to_battery,
)


# ---------------------------------------------------------------- seeds

def test_seedspec_reproducible():
    a = SeedSpec(42).rng().standard_normal(8)
    b = SeedSpec(42).rng().standard_normal(8)
    assert np.array_equal(a, b)


def test_seedspec_streams_differ():
    a = SeedSpec(42, 0).rng().standard_normal(8)
    b = SeedSpec(42, 1).rng().standard_normal(8)
    assert not np.allclose(a, b)


def test_seedspec_stream_is_order_insensitive():
    spec = SeedSpec(7)
    early = spec.stream(3).rng().standard_normal(4)
    spec.stream(1).rng().standard_normal(100)  # consuming another stream changes nothing
    late = SeedSpec(7).stream(3).rng().standard_normal(4)
    assert np.array_equal(early, late)


def test_seedspec_keeps_the_low_bits_of_seeds_from_2_63():
    assert not np.array_equal(SeedSpec(2**63).rng().standard_normal(8),
                              SeedSpec(2**63 + 1000).rng().standard_normal(8))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 2**63 - 1))
def test_seedspec_below_2_63_draws_as_a_list_key(seed, stream):
    # every payload drawn at a seed below 2**63 stays what it was
    want = np.random.Generator(np.random.Philox(key=[seed, stream])).standard_normal(8)
    assert SeedSpec(seed, stream).rng().standard_normal(8).tobytes() == want.tobytes()


def test_draw_batch_near_2_64_equals_draw_instance_without_warnings():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (2**64 - 1, 2**64 - 1001):
            rho, f, v, kinds = draw_batch(s, "mix", seed, range(4))
            for k in range(4):
                got = draw_instance(s, "mix", seed, k)
                assert _same_draws((got[0].mat, got[1].mat, got[2].mat, got[3]),
                                   (rho[k], f[k], v[k], kinds[k]))
                assert _same_draws((rho[k], f[k], v[k], kinds[k]),
                                   _reference_instance(s, "mix", seed, k))
        assert not np.array_equal(draw_batch(s, "mix", 2**64 - 1, [0])[0],
                                  draw_batch(s, "mix", 2**64 - 1001, [0])[0])


def test_seedspec_rejects_bad_values():
    with pytest.raises(RejectedInputError):
        SeedSpec(-1)
    with pytest.raises(RejectedInputError):
        SeedSpec(2**64)
    with pytest.raises(RejectedInputError):
        SeedSpec(1, -2)


# ---------------------------------------------------------------- haar

def test_haar_pure_is_pure_and_reproducible():
    rho = haar_pure(4, SeedSpec(11))
    again = haar_pure(4, SeedSpec(11))
    assert abs(rho.purity() - 1.0) <= 1e-12
    assert np.array_equal(rho.mat, again.mat)


def test_haar_pure_first_component_moments():
    # |<0|psi>|^2 under the unitarily invariant measure on C^4:
    # mean 1/4, second moment 2/(4*5)
    n, d = 3000, 4
    vals = np.array([haar_pure(d, SeedSpec(1000, i)).mat[0, 0].real for i in range(n)])
    assert abs(vals.mean() - 1.0 / d) < 0.015
    assert abs((vals**2).mean() - 2.0 / (d * (d + 1))) < 0.01


def test_haar_basis_invariance_ks():
    # overlap with |0> and with a fixed random unit vector must be
    # identically distributed; two-sample KS on disjoint seeded batches
    d, n = 4, 1500
    rng = np.random.default_rng(99)
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    phi /= np.linalg.norm(phi)
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n):
        rho1 = haar_pure(d, SeedSpec(2000, i)).mat
        rho2 = haar_pure(d, SeedSpec(3000, i)).mat
        a[i] = rho1[0, 0].real
        b[i] = (phi.conj() @ rho2 @ phi).real
    assert stats.ks_2samp(a, b).pvalue > 0.05


def test_haar_reduced_battery_purity_average():
    # qubit battery against a qubit environment: E[Tr rho_W^2] = 4/5
    s = TensorStructure.from_dims([2, 2, 1, 1])
    n = 1500
    acc = 0.0
    for i in range(n):
        rho = haar_pure(4, SeedSpec(4000, i))
        acc += partial_trace_to_battery(rho, s).purity()
    assert abs(acc / n - 0.8) < 0.01


# ---------------------------------------------------------------- ginibre

def test_ginibre_mixed_valid_state():
    rho = ginibre_mixed(4, 4, SeedSpec(21))
    assert abs(rho.mat.trace() - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.mat).min() >= -1e-12
    assert rho.purity() < 1.0 - 1e-3


def test_ginibre_rank_controls_spectrum():
    rho = ginibre_mixed(6, 2, SeedSpec(22))
    ev = np.sort(np.linalg.eigvalsh(rho.mat))
    assert np.all(ev[:-2] <= 1e-12)  # at most two nonzero eigenvalues
    assert ev[-2] > 1e-6


def test_ginibre_rank_one_is_pure():
    rho = ginibre_mixed(4, 1, SeedSpec(23))
    assert abs(rho.purity() - 1.0) <= 1e-10


def test_ginibre_rejects_bad_rank():
    with pytest.raises(RejectedInputError):
        ginibre_mixed(4, 0, SeedSpec(1))
    with pytest.raises(RejectedInputError):
        ginibre_mixed(4, 5, SeedSpec(1))


# ---------------------------------------------------------------- gue

def test_gue_hermitian_properties():
    op = gue_hermitian(5, 1.0, SeedSpec(31))
    assert np.array_equal(op.mat, op.mat.conj().T)
    doubled = gue_hermitian(5, 2.0, SeedSpec(31))
    assert np.allclose(doubled.mat, 2.0 * op.mat)


def test_gue_rejects_bad_scale():
    with pytest.raises(RejectedInputError):
        gue_hermitian(3, 0.0, SeedSpec(1))


# ---------------------------------------------------------------- eigenstate products

def test_battery_eigenstate_product_zeroes_everything():
    s = TensorStructure.from_dims([3, 2, 1, 1])
    f = gue_hermitian(3, 1.0, SeedSpec(41))
    rest = ginibre_mixed(2, 2, SeedSpec(42))
    for j in range(3):
        prod = battery_eigenstate_product(f, j, rest, s)
        v = gue_hermitian(6, 1.0, SeedSpec(43, j))
        m = compute_moments(prod.state, f, v, s)
        rep = verify_instance(prod.state, f, v, s)
        assert m.var_f <= 1e-10
        assert abs(m.cov) <= 1e-10
        assert abs(rep.power) <= 1e-10
        assert rep.saturation_ratio == 0.0


def test_battery_eigenstate_product_reduces_to_projector():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    f = HermitianOperator(np.diag([3.0, -1.0]).astype(complex))
    rest = haar_pure(2, SeedSpec(44))
    prod = battery_eigenstate_product(f, 0, rest, s)
    red = partial_trace_to_battery(prod.state, s)
    # ascending order: j = 0 is the eigenvalue -1 level, i.e. |1><1|
    assert prod.eigenvalue == pytest.approx(-1.0)
    assert np.allclose(red.mat, np.diag([0.0, 1.0]), atol=1e-12)


def test_battery_eigenstate_product_validates_inputs():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    f = HermitianOperator(np.eye(2, dtype=complex))
    rest = haar_pure(2, SeedSpec(45))
    with pytest.raises(RejectedInputError):
        battery_eigenstate_product(f, 2, rest, s)
    with pytest.raises(DimensionMismatchError):
        battery_eigenstate_product(f, 0, haar_pure(3, SeedSpec(46)), s)


# ---------------------------------------------------------------- instances

def test_draw_instance_deterministic():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    r1, f1, v1, k1 = draw_instance(s, "mix", 42, 5)
    r2, f2, v2, k2 = draw_instance(s, "mix", 42, 5)
    assert np.array_equal(r1.mat, r2.mat)
    assert np.array_equal(f1.mat, f2.mat)
    assert np.array_equal(v1.mat, v2.mat)
    assert k1 == k2


def test_draw_instance_trials_are_distinct():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    r1, _, _, _ = draw_instance(s, "haar", 42, 0)
    r2, _, _, _ = draw_instance(s, "haar", 42, 1)
    assert not np.allclose(r1.mat, r2.mat)


def test_draw_instance_mix_alternates():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho_even, _, _, kind_even = draw_instance(s, "mix", 42, 0)
    rho_odd, _, _, kind_odd = draw_instance(s, "mix", 42, 1)
    assert kind_even == "haar"
    assert kind_odd == "ginibre"
    assert abs(rho_even.purity() - 1.0) <= 1e-12
    assert rho_odd.purity() < 1.0 - 1e-6


def test_draw_instance_rejects_unknown_kind():
    s = TensorStructure.from_dims([2, 1, 1, 1])
    with pytest.raises(RejectedInputError):
        draw_instance(s, "uniform", 42, 0)


def test_draw_instance_operator_dims():
    s = TensorStructure.from_dims([3, 2, 1, 1])
    rho, f, v, _ = draw_instance(s, "haar", 7, 0)
    assert rho.dim == 6
    assert f.dim == 3
    assert v.dim == 6


def test_haar_conjugation_invariance_ks():
    # rotating every draw by a fixed unitary must not move the distribution
    # of Tr(rho sigma_z); compare empirical samples via the KS statistic
    sz = np.diag([1.0, -1.0]).astype(complex)
    rng = np.random.default_rng(55)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(m)
    n = 10_000
    plain = np.empty(n)
    rotated = np.empty(n)
    for i in range(n):
        rho1 = haar_pure(2, SeedSpec(5000, i)).mat
        rho2 = haar_pure(2, SeedSpec(6000, i)).mat
        plain[i] = np.trace(rho1 @ sz).real
        rotated[i] = np.trace(u @ rho2 @ u.conj().T @ sz).real
    assert stats.ks_2samp(plain, rotated).statistic < 0.05


# ---------------------------------------------------------------- batches

def _reference_instance(s, kind, seed, trial, rank=None, scale=1.0):
    """v0.1.0's draw of one trial: a fresh Philox per stream, one check per matrix."""
    def normals(stream, shape):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def gue(dim, stream):
        m = normals(stream, (dim, dim))
        return HermitianOperator(scale * (m + m.conj().T) / 2.0).mat

    base = 4 * trial
    used = ("haar" if trial % 2 == 0 else "ginibre") if kind == "mix" else kind
    if used == "haar":
        rho = DensityMatrix.from_ket(normals(base, s.dim))
    else:
        g = normals(base, (s.dim, rank if rank is not None else s.dim))
        w = g @ g.conj().T
        rho = DensityMatrix(w / w.trace().real)
    return rho.mat, gue(s.d_w, base + 1), gue(s.dim, base + 2), used


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_draws(x, y) -> bool:
    return all(_same_bits(a, b) for a, b in zip(x[:3], y[:3])) and x[3] == y[3]


@st.composite
def _batch_cases(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4)
                .filter(lambda d: math.prod(d) <= 16))
    s = TensorStructure.from_dims(dims)
    kind = draw(st.sampled_from(STATE_KINDS))
    rank = draw(st.none() | st.integers(1, s.dim))
    seed = draw(st.integers(0, 2**64 - 1))
    first = draw(st.integers(0, 10**6))
    n = draw(st.integers(0, 12))
    split = draw(st.integers(0, n))
    scale = draw(st.floats(1e-3, 1e3))
    return s, kind, rank, scale, seed, range(first, first + n), split


@settings(max_examples=60, deadline=None)
@given(_batch_cases())
def test_draw_batch_rows_match_fresh_generator_reference(case):
    s, kind, rank, scale, seed, trials, _ = case
    rho, f, v, kinds = draw_batch(s, kind, seed, trials, rank=rank, scale=scale)
    assert rho.shape == (len(trials), s.dim, s.dim)
    assert f.shape == (len(trials), s.d_w, s.d_w)
    assert v.shape == (len(trials), s.dim, s.dim)
    for k, trial in enumerate(trials):
        ref = _reference_instance(s, kind, seed, trial, rank, scale)
        assert _same_draws((rho[k], f[k], v[k], kinds[k]), ref)


@settings(max_examples=60, deadline=None)
@given(_batch_cases())
def test_draw_batch_equals_its_two_halves(case):
    s, kind, rank, scale, seed, trials, split = case
    whole = draw_batch(s, kind, seed, trials, rank=rank, scale=scale)
    head = draw_batch(s, kind, seed, trials[:split], rank=rank, scale=scale)
    tail = draw_batch(s, kind, seed, trials[split:], rank=rank, scale=scale)
    joined = tuple(np.concatenate([a, b]) for a, b in zip(head[:3], tail[:3])) + (head[3] + tail[3],)
    assert _same_draws(whole, joined)


def test_one_instance_draws_are_one_row_batches():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, kinds = draw_batch(s, "mix", 42, range(4))
    for k in range(4):
        got = draw_instance(s, "mix", 42, k)
        assert _same_draws((got[0].mat, got[1].mat, got[2].mat, got[3]), (rho[k], f[k], v[k], kinds[k]))
    assert _same_bits(haar_pure(4, SeedSpec(42, 0)).mat, rho[0])
    assert _same_bits(ginibre_mixed(4, 4, SeedSpec(42, 4)).mat, rho[1])
    assert _same_bits(gue_hermitian(2, 1.0, SeedSpec(42, 1)).mat, f[0])
    assert _same_bits(gue_hermitian(4, 1.0, SeedSpec(42, 2)).mat, v[0])


def test_draw_batch_rejects_bad_inputs():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    with pytest.raises(RejectedInputError):
        draw_batch(s, "uniform", 42, range(3))
    with pytest.raises(RejectedInputError):
        draw_batch(s, "mix", 42, range(3), rank=5)
    with pytest.raises(RejectedInputError):
        draw_batch(s, "haar", 42, range(3), scale=0.0)
    with pytest.raises(RejectedInputError):
        draw_batch(s, "haar", 2**64, range(3))
    with pytest.raises(RejectedInputError):
        draw_batch(s, "haar", 42, [-1, 0])
    # the rank of Ginibre states only matters where one is drawn, as per trial
    rho, _, _, kinds = draw_batch(s, "mix", 42, [0, 2], rank=5)
    assert kinds == ["haar", "haar"]


def test_draw_batch_from_concurrent_threads_matches_serial():
    # each call owns its generator; threads switching every microsecond
    # must not see each other's re-keyed state
    s = TensorStructure.from_dims([2, 2, 1, 1])
    chunks = [range(k * 40, (k + 1) * 40) for k in range(4)]
    serial = [draw_batch(s, "mix", 42, c) for c in chunks]
    results = {k: [] for k in range(len(chunks))}

    def work(k):
        for _ in range(5):
            results[k].append(draw_batch(s, "mix", 42, chunks[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(chunks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, want in enumerate(serial):
        assert len(results[k]) == 5
        assert all(_same_draws(got, want) for got in results[k])
