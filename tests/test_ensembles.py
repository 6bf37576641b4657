import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import qbattery.ensembles as ensembles
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
    NotPositiveSemidefiniteError,
    RejectedInputError,
    RowErrors,
    TensorStructure,
    density_stack,
    partial_trace_stack,
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


@pytest.mark.parametrize("value", [1.5, 1.9, 1.0, True, False, "7", None, np.float64(3.0)])
def test_seedspec_takes_integers_only(value):
    # a float, a bool or a string would otherwise key the stream of int(value)
    with pytest.raises(RejectedInputError, match="master_seed must be an unsigned 64-bit integer"):
        SeedSpec(value)
    with pytest.raises(RejectedInputError, match="stream_index must be an unsigned 64-bit integer"):
        SeedSpec(1, value)


def test_seedspec_accepts_numpy_unsigned_integers():
    big = np.uint64(2**64 - 1)
    assert SeedSpec(big, np.uint64(3)).rng().standard_normal(4).tobytes() == \
        SeedSpec(2**64 - 1, 3).rng().standard_normal(4).tobytes()


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
        acc += DensityMatrix(partial_trace_stack(rho.mat[None], s)[0]).purity()
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
    red = DensityMatrix(partial_trace_stack(prod.state.mat[None], s)[0])
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

def _fresh_normals(seed, stream, shape):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _raw_state(s, used, seed, trial, rank=None):
    """A trial's state K K^dag / Tr before its check, and its factor K (D, r), from a fresh Philox."""
    if used == "haar":
        k = _fresh_normals(seed, 4 * trial, s.dim)[:, None]
        v = k[:, 0] / np.linalg.norm(k)  # DensityMatrix.from_ket's state
        return np.outer(v, v.conj()), k
    k = _fresh_normals(seed, 4 * trial, (s.dim, rank if rank is not None else s.dim))
    w = k @ k.conj().T
    return w / w.trace().real, k


def _reference_instance(s, kind, seed, trial, rank=None, scale=1.0):
    """One trial drawn with a fresh Philox per stream and one check per matrix.

    v0.1.0's draw for full-rank states, `mix`'s odd rows among them. A pure
    state (`haar`, `mix`'s even rows) or a rank-deficient `ginibre` state
    K K^dag / Tr is checked on the thin SVD of its D x r factor K instead
    of an eigendecomposition.
    """
    def gue(dim, stream):
        m = _fresh_normals(seed, stream, (dim, dim))
        return HermitianOperator(scale * (m + m.conj().T) / 2.0).mat

    used = ("haar" if trial % 2 == 0 else "ginibre") if kind == "mix" else kind
    state, k = _raw_state(s, used, seed, trial, rank)
    if k.shape[1] == s.dim:
        rho = DensityMatrix(state).mat
    else:
        u, sv, _ = np.linalg.svd(k, full_matrices=False)
        rows = RowErrors(1)
        rho = density_stack(rows, state[None], ((sv**2 / (sv**2).sum())[None], u[None]))[0][0]
        rows.raise_first()
    return rho, gue(s.d_w, 4 * trial + 1), gue(s.dim, 4 * trial + 2), used


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
    # a pure state is a row of the haar ensemble, and so is a mix row of even trial
    assert _same_bits(haar_pure(4, SeedSpec(42, 0)).mat, draw_batch(s, "haar", 42, [0])[0][0])
    assert _same_bits(haar_pure(4, SeedSpec(42, 0)).mat, rho[0])
    assert _same_bits(ginibre_mixed(4, 4, SeedSpec(42, 4)).mat, rho[1])
    assert _same_bits(gue_hermitian(2, 1.0, SeedSpec(42, 1)).mat, f[0])
    assert _same_bits(gue_hermitian(4, 1.0, SeedSpec(42, 2)).mat, v[0])


@pytest.mark.parametrize("dims, rank", [([2, 1, 1, 1], 1), ([2, 2, 1, 1], 3), ([2, 2, 2, 2], 5),
                                        ([2, 2, 4, 4], 4), ([1, 1, 1, 1], 1)])
def test_one_state_draws_equal_their_ensembles_batch_rows(dims, rank):
    # rank-deficient states are checked on their thin factors in both; a
    # full-rank one (D = 1 here) on its eigenvalues in both
    s = TensorStructure.from_dims(dims)
    trials = [0, 3, 7]
    haar, ginibre = (draw_batch(s, kind, 99, trials, rank)[0] for kind in ("haar", "ginibre"))
    for k, trial in enumerate(trials):
        assert _same_bits(haar_pure(s.dim, SeedSpec(99, 4 * trial)).mat, haar[k])
        assert _same_bits(ginibre_mixed(s.dim, rank, SeedSpec(99, 4 * trial)).mat, ginibre[k])


@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("seed", [42, 2**64 - 1, 2**64 - 1001])
@pytest.mark.parametrize("dims", [[1, 1, 1, 1], [2, 1, 1, 1], [2, 2, 2, 2], [2, 2, 4, 4]])
def test_mix_rows_are_their_kinds_ensemble_rows(dims, seed, rank):
    # each kind's states are checked on their own factors, whatever else the batch holds
    s = TensorStructure.from_dims(dims)
    trials = range(5)
    mix, haar, ginibre = (draw_batch(s, kind, seed, trials, rank)
                          for kind in ("mix", "haar", "ginibre"))
    assert mix[3] == ["haar", "ginibre"] * 2 + ["haar"]
    for k, trial in enumerate(trials):
        want = haar if trial % 2 == 0 else ginibre
        assert _same_draws(tuple(x[k] for x in mix), tuple(x[k] for x in want))


@pytest.fixture
def eigh_minima(monkeypatch):
    """The smallest eigenvalue of each matrix numpy.linalg.eigh decomposes while the test runs."""
    minima = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        w, u = real(a, *args, **kwargs)
        minima.extend(np.atleast_2d(w)[:, 0].tolist())
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return minima


def test_square_factor_with_a_round_off_eigenvalue_is_clamped_as_density_matrix_clamps(
        monkeypatch, eigh_minima):
    s = TensorStructure.from_dims([2, 2, 2, 1])
    trials = range(12)
    real = ensembles._Streams.complex_normals

    def repeated(self, streams, shape):
        # every drawn D x D state factor repeats its first column: its state has rank D - 1
        z = real(self, streams, shape)
        if shape == (s.dim, s.dim) and streams[0] % 4 == 0:
            z[:, :, -1] = z[:, :, 0]
        return z

    monkeypatch.setattr(ensembles._Streams, "complex_normals", repeated)
    rho = draw_batch(s, "ginibre", 8, trials)[0]
    # each state's smallest eigenvalue is round-off of zero: eigh decomposed all of them
    assert len(eigh_minima) == len(trials) and max(map(abs, eigh_minima)) < 1e-15
    assert min(eigh_minima) < 0.0  # and some were clamped
    states = ensembles._ginibre_states(ensembles._Streams(8).complex_normals(
        [4 * t for t in trials], (s.dim, s.dim)))
    for k in range(len(trials)):
        assert _same_bits(DensityMatrix(states[k]).mat, rho[k])


def test_square_factor_runs_eigh_only_near_zero_and_keeps_the_psd_message(monkeypatch, eigh_minima):
    s = TensorStructure.from_dims([2, 2, 1, 1])
    draw_batch(s, "ginibre", 8, range(6))
    assert eigh_minima == []  # no drawn full-rank state has an eigenvalue near zero
    real = ensembles._ginibre_states

    def shifted(g):
        # row 1's smallest eigenvalue moves to -1e-6 before renormalising: not PSD
        a = real(g)
        a[1] -= (np.linalg.eigvalsh(a[1])[0] + 1e-6) * np.eye(s.dim)
        a[1] /= a[1].trace().real
        return a

    monkeypatch.setattr(ensembles, "_ginibre_states", shifted)
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        draw_batch(s, "ginibre", 8, range(6))
    assert len(eigh_minima) == 1
    state = shifted(ensembles._Streams(8).complex_normals([0, 4], (s.dim, s.dim)))[1]
    with pytest.raises(NotPositiveSemidefiniteError) as want:
        DensityMatrix(state)
    assert str(err.value) == str(want.value)


def _exact_distance(rho, k) -> float:
    """max |rho_ij - (K K^dag / Tr(K K^dag))_ij|, the state of factor k (D, r) taken in rationals."""
    re = [[Fraction(x) for x in row] for row in k.real]
    im = [[Fraction(x) for x in row] for row in k.imag]
    dim, width = k.shape
    tr = sum(re[i][c] ** 2 + im[i][c] ** 2 for i in range(dim) for c in range(width))
    worst = 0.0
    for i in range(dim):
        for j in range(dim):
            # (K K^dag)_ij = sum_c K_ic conj(K_jc)
            exact_re = sum(re[i][c] * re[j][c] + im[i][c] * im[j][c] for c in range(width)) / tr
            exact_im = sum(im[i][c] * re[j][c] - re[i][c] * im[j][c] for c in range(width)) / tr
            worst = max(worst, abs(complex(float(Fraction(rho[i, j].real) - exact_re),
                                           float(Fraction(rho[i, j].imag) - exact_im))))
    return worst


@pytest.mark.parametrize("kind, dims, rank", [
    ("haar", [2, 1, 1, 1], None), ("haar", [2, 2, 1, 1], None), ("haar", [2, 2, 2, 1], None),
    ("ginibre", [2, 2, 1, 1], 2), ("ginibre", [2, 2, 2, 1], 3), ("ginibre", [2, 2, 2, 2], 3),
])
def test_thin_factor_draws_are_no_further_from_the_exact_state(kind, dims, rank):
    # against the parent route: eigh of the drawn state, round-off eigenvalues
    # below zero clamped and the state rebuilt from the clamped eigenpairs
    s = TensorStructure.from_dims(dims)
    trials = range(0, 40, 5)
    rho = draw_batch(s, kind, 5, trials, rank)[0]
    for k, trial in enumerate(trials):
        state, g = _raw_state(s, kind, 5, trial, rank)
        rows = RowErrors(1)
        clamped = density_stack(rows, state[None])[0][0]
        assert rows == [None]
        assert _exact_distance(rho[k], g) <= _exact_distance(clamped, g)


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
