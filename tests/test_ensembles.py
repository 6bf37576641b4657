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
    RejectedInputError,
    RowErrors,
    TensorStructure,
    density_stack,
    factor_states,
    norm_sq_stack,
    partial_trace_stack,
)
from draws import drawn_rows


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
            rows = drawn_rows(s, "mix", seed, range(4))
            for k in range(4):
                got = draw_instance(s, "mix", seed, k)
                assert _same_draws((got[0].factor, got[1].mat, got[2].mat, got[3]), rows[k])
                assert _same_draws(rows[k], _reference_instance(s, "mix", seed, k))
        assert not np.array_equal(drawn_rows(s, "mix", 2**64 - 1, [0])[0][0],
                                  drawn_rows(s, "mix", 2**64 - 1001, [0])[0][0])


EDGE_KEYS = [0, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", EDGE_KEYS)
def test_plain_int_rekey_draws_as_a_fresh_generator(seed):
    # _Streams sets each stream's key through the public state setter from plain
    # ints; a numpy whose setter read them otherwise, or rejected them, fails here
    streams = ensembles._Streams(seed)
    assert type(streams._key[0]) is int and streams._key[0] == seed
    for stream in EDGE_KEYS:
        want = SeedSpec(seed, stream).rng().standard_normal((2, 3, 2))
        assert streams.normals([stream], (3, 2))[0].tobytes() == want.tobytes()
    # several streams in one call, and two re-keys in a row on one object
    want = [SeedSpec(seed, k).rng().standard_normal((2, 5)) for k in reversed(EDGE_KEYS)]
    for _ in range(2):
        got = streams.normals(list(reversed(EDGE_KEYS)), (5,))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


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
        # the state is F's eigenvector (x) rest's factor, not an eigh factor of
        # its D x D matrix, so (dF (x) 1) Q is round-off of F's eigenpair alone
        assert m.var_f <= 1e-30
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


def _raw_factor(s, used, seed, trial, rank=None):
    """A trial's Gaussian state factor K (D, r), from a fresh Philox."""
    width = 1 if used == "haar" else (rank if rank is not None else s.dim)
    return _fresh_normals(seed, 4 * trial, (s.dim, width))


def _reference_instance(s, kind, seed, trial, rank=None, scale=1.0):
    """One trial drawn with a fresh Philox per stream and one check per matrix: (Q, F, V, kind).

    Q = K / |K|_F, with |K|_F^2 taken by `norm_sq_stack`, as the draw takes it.
    """
    def gue(dim, stream):
        m = _fresh_normals(seed, stream, (dim, dim))
        return HermitianOperator(scale * (m + m.conj().T) / 2.0).mat

    used = ("haar" if trial % 2 == 0 else "ginibre") if kind == "mix" else kind
    k = _raw_factor(s, used, seed, trial, rank)
    q = k / np.sqrt(norm_sq_stack(k))
    return q, gue(s.d_w, 4 * trial + 1), gue(s.dim, 4 * trial + 2), used


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_draws(x, y) -> bool:
    return all(_same_bits(a, b) for a, b in zip(x[:3], y[:3])) and x[3] == y[3]


@st.composite
def _batch_cases(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4)
                .filter(lambda d: math.prod(d) <= 16)
                | st.sampled_from([[2, 2, 4, 4], [4, 4, 2, 2], [1, 4, 4, 4]]))  # D = 64
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
    groups, kinds = draw_batch(s, kind, seed, trials, rank=rank, scale=scale)
    # one stack per kind drawn, its rows in trial order
    assert sorted(k for rows, *_ in groups for k in rows) == list(range(len(trials)))
    for rows, q, f, v in groups:
        assert rows == sorted(rows) and len({kinds[k] for k in rows}) == 1
        assert q.shape[:2] == (len(rows), s.dim)
        assert f.shape == (len(rows), s.d_w, s.d_w)
        assert v.shape == (len(rows), s.dim, s.dim)
        for a in (f, v):  # exactly Hermitian as built, with no symmetrization after
            assert (a == a.conj().swapaxes(-1, -2)).all()
    for (q, f, v, used), trial in zip(drawn_rows(s, kind, seed, trials, rank, scale), trials):
        assert _same_draws((q, f, v, used), _reference_instance(s, kind, seed, trial, rank, scale))


@settings(max_examples=60, deadline=None)
@given(_batch_cases())
def test_draw_batch_equals_its_two_halves(case):
    s, kind, rank, scale, seed, trials, split = case
    whole = drawn_rows(s, kind, seed, trials, rank, scale)
    joined = (drawn_rows(s, kind, seed, trials[:split], rank, scale)
              + drawn_rows(s, kind, seed, trials[split:], rank, scale))
    assert len(whole) == len(joined)
    assert all(_same_draws(a, b) for a, b in zip(whole, joined))


def test_one_instance_draws_are_one_row_batches():
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rows = drawn_rows(s, "mix", 42, range(4))
    for k in range(4):
        got = draw_instance(s, "mix", 42, k)
        assert _same_draws((got[0].factor, got[1].mat, got[2].mat, got[3]), rows[k])
        assert _same_bits(got[0].mat, factor_states(rows[k][0][None])[0])
    # a pure state is a row of the haar ensemble, and so is a mix row of even trial
    assert _same_bits(haar_pure(4, SeedSpec(42, 0)).factor, drawn_rows(s, "haar", 42, [0])[0][0])
    assert _same_bits(haar_pure(4, SeedSpec(42, 0)).mat, draw_instance(s, "mix", 42, 0)[0].mat)
    assert _same_bits(ginibre_mixed(4, 4, SeedSpec(42, 4)).factor, rows[1][0])
    assert _same_bits(gue_hermitian(2, 1.0, SeedSpec(42, 1)).mat, rows[0][1])
    assert _same_bits(gue_hermitian(4, 1.0, SeedSpec(42, 2)).mat, rows[0][2])


@pytest.mark.parametrize("dims, rank", [([2, 1, 1, 1], 1), ([2, 2, 1, 1], 3), ([2, 2, 2, 2], 5),
                                        ([2, 2, 4, 4], 4), ([1, 1, 1, 1], 1)])
def test_one_state_draws_equal_their_ensembles_batch_rows(dims, rank):
    # the same factor, checked by the same factor_stack, and the same state formed from it
    s = TensorStructure.from_dims(dims)
    trials = [0, 3, 7]
    haar, ginibre = (drawn_rows(s, kind, 99, trials, rank) for kind in ("haar", "ginibre"))
    for k, trial in enumerate(trials):
        for one, row, kind in ((haar_pure(s.dim, SeedSpec(99, 4 * trial)), haar[k], "haar"),
                               (ginibre_mixed(s.dim, rank, SeedSpec(99, 4 * trial)), ginibre[k], "ginibre")):
            assert _same_bits(one.factor, row[0])
            assert _same_bits(one.mat, draw_instance(s, kind, 99, trial, rank)[0].mat)


@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("seed", [42, 2**64 - 1, 2**64 - 1001])
@pytest.mark.parametrize("dims", [[1, 1, 1, 1], [2, 1, 1, 1], [2, 2, 2, 2], [2, 2, 4, 4]])
def test_mix_rows_are_their_kinds_ensemble_rows(dims, seed, rank):
    # each kind's factors are drawn and checked as a stack of their own, whatever else the batch holds
    s = TensorStructure.from_dims(dims)
    trials = range(5)
    mix, haar, ginibre = (drawn_rows(s, kind, seed, trials, rank) for kind in ("mix", "haar", "ginibre"))
    assert [row[3] for row in mix] == ["haar", "ginibre"] * 2 + ["haar"]
    for k, trial in enumerate(trials):
        assert _same_draws(mix[k], (haar if trial % 2 == 0 else ginibre)[k])


@pytest.fixture
def decompositions(monkeypatch):
    """The shapes of the stacks numpy.linalg.eigh, eigvalsh or svd decomposes while the test runs."""
    shapes = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_square_factor_with_a_round_off_eigenvalue_is_clamped_as_density_matrix_clamps(
        monkeypatch, decompositions):
    # A square factor with a repeated column has a state of rank D - 1, whose
    # smallest eigenvalue a D x D eigh finds at round-off of zero, of either
    # sign, and DensityMatrix clamps to zero. The factor route needs no clamp:
    # Q Q^dag is positive semidefinite by construction, and no decomposition runs.
    s = TensorStructure.from_dims([2, 2, 2, 1])
    trials = range(12)
    real = ensembles._Streams.complex_normals

    def repeated(self, streams, shape, *buffers):
        z = real(self, streams, shape, *buffers)
        if shape == (s.dim, s.dim) and streams[0] % 4 == 0:
            z[:, :, -1] = z[:, :, 0]
        return z

    monkeypatch.setattr(ensembles._Streams, "complex_normals", repeated)
    rows = drawn_rows(s, "ginibre", 8, trials)
    assert decompositions == []
    minima = [np.linalg.eigvalsh(factor_states(q[None])[0])[0] for q, *_ in rows]
    assert max(map(abs, minima)) < 1e-15
    for q, *_ in rows:
        # the state DensityMatrix builds and clamps is the factor's state within round-off
        clamped = DensityMatrix(factor_states(q[None])[0])
        assert np.abs(clamped.mat - factor_states(q[None])[0]).max() <= 1e-15
        assert np.abs(clamped.factor @ clamped.factor.conj().T - clamped.mat).max() <= 1e-15


def test_drawn_factor_runs_no_decomposition_and_keeps_the_state_messages(monkeypatch, decompositions):
    # a drawn factor is checked without a decomposition, and one that fails
    # factor_stack raises the message DensityMatrix raises for its state
    s = TensorStructure.from_dims([2, 2, 1, 1])
    draw_batch(s, "ginibre", 8, range(6))
    assert decompositions == []
    real = ensembles._unit_factors
    for corrupt, message in ((lambda q: q * (1.0 + 1e-6), "density matrix trace"),
                             (lambda q: q * np.nan, "matrix has a non-finite entry")):
        def corrupted(k):
            q = real(k)
            q[1] = corrupt(q[1])
            return q

        monkeypatch.setattr(ensembles, "_unit_factors", corrupted)
        with pytest.raises(RejectedInputError, match=message) as err:
            draw_batch(s, "ginibre", 8, range(6))
        assert decompositions == []
        q = corrupted(ensembles._Streams(8).complex_normals([0, 4], (s.dim, s.dim)))[1]
        with pytest.raises(RejectedInputError, match=message) as want:
            DensityMatrix(q @ q.conj().T)
        decompositions.clear()
        # the same message, with the state's trace |Q|^2 taken as a sum of squares
        got, expected = (str(e.value).split() for e in (err, want))
        assert got[:3] == expected[:3] and got[4:] == expected[4:]
        if message == "density matrix trace":
            trace = [float(w.removeprefix("np.float64(").rstrip(")")) for w in (got[3], expected[3])]
            assert trace[0] == pytest.approx(trace[1], rel=1e-14)


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
    # the exact state is Q Q^dag / Tr of the drawn factor Q, the state the
    # kernel verifies; against the route of a state given as a matrix: eigh
    # of the drawn state, round-off eigenvalues below zero clamped and the
    # state rebuilt from the clamped eigenpairs
    # (where nothing is clamped, the two states differ only by a second
    # division by the trace, so they are compared over all trials, worst to worst)
    s = TensorStructure.from_dims(dims)
    drawn, rebuilt = [], []
    for trial in range(0, 40, 5):
        rho = draw_instance(s, kind, 5, trial, rank)[0]
        rows = RowErrors(1)
        clamped = density_stack(rows, rho.mat[None])[0][0]
        assert rows == [None]
        drawn.append(_exact_distance(rho.mat, rho.factor))
        rebuilt.append(_exact_distance(clamped, rho.factor))
    assert max(drawn) <= max(rebuilt)


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
    groups, kinds = draw_batch(s, "mix", 42, [0, 2], rank=5)
    assert kinds == ["haar", "haar"] and [rows for rows, *_ in groups] == [[0, 1]]


def test_overflowing_scale_raises_only_the_rejection(monkeypatch):
    # scale / 2 * (M + M^dag) overflows to inf: the draw rejects it as bad
    # input, with HermitianOperator's message and no numpy warning
    s = TensorStructure.from_dims([2, 2, 4, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for draw in (lambda: draw_batch(s, "mix", 42, range(8), scale=1e308),
                     lambda: draw_instance(s, "ginibre", 42, 3, scale=1e308),
                     lambda: gue_hermitian(64, 1e308, SeedSpec(42)),
                     lambda: gue_hermitian(2, float("inf"), SeedSpec(42))):
            with pytest.raises(RejectedInputError, match="matrix has a non-finite entry"):
                draw()

    # a row's F error comes before its V error: record what each build adds
    added = []
    real = ensembles._gue_stack

    def recording(rows, parts, scale, *out):
        before = list(rows)
        a = real(rows, parts, scale, *out)
        added.append([None if b is not None else e for b, e in zip(before, rows)])
        return a

    monkeypatch.setattr(ensembles, "_gue_stack", recording)
    with pytest.raises(RejectedInputError) as err:
        draw_batch(s, "haar", 42, range(1, 9), scale=1.79e308)
    f_errors, v_errors = added
    assert f_errors[0] is not None and err.value is f_errors[0]
    # every V overflows at D = 64, but a row whose F failed keeps F's error
    assert all((f is None) != (v is None) for f, v in zip(f_errors, v_errors))


def test_draw_batch_without_a_workspace_leaves_what_it_returned_alone():
    # draw_instance and the tests keep a call's arrays: a later call must not write into them
    s = TensorStructure.from_dims([2, 2, 4, 4])
    groups, _ = draw_batch(s, "mix", 42, range(8))
    kept = [x.copy() for _, *stacks in groups for x in stacks]
    draw_batch(s, "mix", 43, range(8))
    draw_instance(s, "mix", 42, 3)
    assert [x.tobytes() for _, *stacks in groups for x in stacks] == [x.tobytes() for x in kept]


def test_draw_batch_with_a_workspace_draws_into_its_arrays_bit_for_bit():
    # a call with a workspace overwrites the arrays the call before it returned,
    # each kind's own; its rows are the rows a call without one draws
    s = TensorStructure.from_dims([2, 2, 4, 4])
    workspace = ensembles.Workspace()
    first, _ = draw_batch(s, "mix", 42, range(8), workspace=workspace)
    for trials in (range(8, 16), range(16, 20)):
        groups, kinds = draw_batch(s, "mix", 42, trials, workspace=workspace)
        want, want_kinds = draw_batch(s, "mix", 42, trials)
        assert kinds == want_kinds
        for (rows, *got), (want_rows, *expected), (_, *before) in zip(groups, want, first):
            assert rows == want_rows
            assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]
            assert all(np.shares_memory(x, y) for x, y in zip(got, before))
        (_, *haar), (_, *ginibre) = groups
        assert not any(np.shares_memory(a, b) for a in haar for b in ginibre)


def test_draw_batch_from_concurrent_threads_matches_serial():
    # each call owns its generator; threads switching every microsecond
    # must not see each other's re-keyed state
    s = TensorStructure.from_dims([2, 2, 1, 1])
    chunks = [range(k * 40, (k + 1) * 40) for k in range(4)]
    serial = [drawn_rows(s, "mix", 42, c) for c in chunks]
    results = {k: [] for k in range(len(chunks))}

    def work(k):
        for _ in range(5):
            results[k].append(drawn_rows(s, "mix", 42, chunks[k]))

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
        assert all(all(_same_draws(a, b) for a, b in zip(got, want)) for got in results[k])
