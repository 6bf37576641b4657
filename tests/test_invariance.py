"""Invariances of the verification chain, on drawn instances.

In exact arithmetic P, the variances and the covariance do not change when F
or V is shifted by a multiple of the identity; they scale as a c, a^2, c^2
and a c when F -> aF and V -> cV, and the saturation ratio does not change;
and nothing changes under a unitary on the environment or a change of
battery basis. The kernel must show this in float64: within the ranges
below no row is rejected for the size of its operators, and no row is
falsified by round-off. (Of 80,000 rows with a and c log-uniform in
1e-6...1e6, and of 38,400 at its four corners, none failed a check.)

Round-off is measured against the scale of each quantity: <F^2> for var_F,
<V^2> for var_V, and sigma = sqrt(<F^2> <V^2>) for P and Cov.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.ensembles import draw_batch
from qbattery.moments import _verify_checked
from qbattery.operators import TensorStructure

ROWS = 16
instances = st.tuples(
    st.sampled_from([(2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1)]),
    st.sampled_from(["haar", "ginibre", "mix"]),
    st.integers(0, 2**32 - 1),
)


def drawn(case, rows=ROWS):
    """(structure, groups): seeded draws as `verify` takes them, one (rows, Q, F, V) stack per state kind."""
    dims, kind, seed = case
    s = TensorStructure(*dims)
    return s, draw_batch(s, kind, seed, range(rows))[0]


def verified(s, groups, change=lambda rows, q, f, v: (q, f, v)):
    """The kernel on each kind's stack after `change`, as `values` in trial order, and every row's error."""
    n = sum(len(rows) for rows, *_ in groups)
    out, errors = {}, [None] * n
    for rows, *stacks in groups:
        batch = _verify_checked(*change(rows, *stacks), s)
        for name, x in vars(values(batch)).items():
            out.setdefault(name, np.empty(n, dtype=x.dtype))[rows] = x
        for k, err in zip(rows, batch.errors):
            errors[k] = err
    return SimpleNamespace(**out), errors


def values(batch):
    """The values the invariances speak of, and the scales their round-off is measured against."""
    m = batch.moments
    f2, v2 = m.var_f + m.mean_f**2, m.var_v + m.mean_v**2
    return SimpleNamespace(power=batch.power, var_f=m.var_f, var_v=m.var_v, cov=m.cov,
                           bound=batch.corrected_bound, ratio=batch.saturation_ratio,
                           f2=f2, v2=v2, sigma=np.sqrt(f2 * v2))


def assert_close(got, want, tol):
    err = np.abs(got - want)
    tol = np.broadcast_to(tol, np.shape(got))
    assert np.all(err <= tol), f"worst excess {np.max(err / tol)} x tolerance"


def conjugated(u, a):
    return u @ a @ u.conj().swapaxes(-1, -2)


def unitaries(rng, n, d, haar):
    """n Haar-random d x d unitaries, or n identities."""
    if not haar:
        return np.broadcast_to(np.eye(d, dtype=complex), (n, d, d))
    z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return np.linalg.qr(z)[0]


@settings(max_examples=80, deadline=None)
@given(case=instances, log_a=st.floats(-6.0, 6.0), log_c=st.floats(-6.0, 6.0))
def test_scaling_f_and_v(case, log_a, log_c):
    s, groups = drawn(case)
    a, c = 10.0**log_a, 10.0**log_c
    x, base = verified(s, groups)
    y, scaled = verified(s, groups, lambda rows, q, f, v: (q, a * f, c * v))
    assert base == [None] * ROWS
    assert scaled == [None] * ROWS
    assert_close(y.power / (a * c), x.power, 1e-12 * x.sigma)
    assert_close(y.var_f / a**2, x.var_f, 1e-12 * x.f2)
    assert_close(y.var_v / c**2, x.var_v, 1e-12 * x.v2)
    assert_close(np.abs(y.cov) / (a * c), np.abs(x.cov), 1e-12 * x.sigma)
    # the ratio's round-off grows as the bound, a difference, cancels
    cancellation = np.divide(x.var_f * x.var_v + np.abs(x.cov) ** 2, x.bound,
                             out=np.full(ROWS, np.inf), where=x.bound > 0.0)
    assert_close(y.ratio, x.ratio, 1e-9 * (1.0 + cancellation))


def test_scaling_f_and_v_up_falsifies_no_row():
    # a and c log-uniform on [1, 1e6]: the decomposition's terms grow as
    # (a c)^2 and are taken from Cov, and none of these rows fails a check
    rng = np.random.default_rng(9)
    for dims in ((2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1)):
        s, groups = drawn((dims, "mix", 9), rows=2500)
        a, c = 10.0 ** rng.uniform(0.0, 6.0, (2, 2500, 1, 1))
        _, errors = verified(s, groups, lambda rows, q, f, v: (q, a[rows] * f, c[rows] * v))
        assert [(i, e) for i, e in enumerate(errors) if e is not None] == [], dims


@settings(max_examples=80, deadline=None)
@given(case=instances, b=st.floats(-1e10, 1e10), d=st.floats(-1e10, 1e10))
def test_shifting_f_and_v(case, b, d):
    # F + bI and V + dI round their diagonals at the scale of b and d, and
    # dF and dV keep that error: the worst of 80,000 rows, under three OpenBLAS
    # kernels, was 1.2e-15 (1 + |b| + |d|)
    s, groups = drawn(case)
    x, base = verified(s, groups)
    y, shifted = verified(s, groups, lambda rows, q, f, v: (q, f + b * np.eye(s.d_w), v + d * np.eye(s.dim)))
    assert base == [None] * ROWS
    assert shifted == [None] * ROWS
    rtol = 5e-15 * (1.0 + abs(b) + abs(d))
    assert_close(y.power, x.power, rtol * x.sigma)
    assert_close(y.var_f, x.var_f, rtol * x.f2)
    assert_close(y.var_v, x.var_v, rtol * x.v2)
    assert_close(y.cov, x.cov, rtol * x.sigma)


@settings(max_examples=60, deadline=None)
@given(case=instances, seed=st.integers(0, 2**32 - 1),
       moved=st.sampled_from(["battery", "environment", "both"]))
def test_local_unitaries(case, seed, moved):
    # W (x) E with W a change of battery basis and E a unitary on S, B and A:
    # Q -> U Q, so rho -> U rho U^dag, V -> U V U^dag, F -> W F W^dag, so F (x) 1 -> U (F (x) 1) U^dag
    s, groups = drawn(case)
    rng = np.random.default_rng(seed)
    w = unitaries(rng, ROWS, s.d_w, moved != "environment")
    e = unitaries(rng, ROWS, s.env_dim, moved != "battery")
    u = np.stack([np.kron(wi, ei) for wi, ei in zip(w, e)])
    x, base = verified(s, groups)
    y, turned = verified(s, groups, lambda rows, q, f, v: (u[rows] @ q, conjugated(w[rows], f),
                                                           conjugated(u[rows], v)))
    assert base == [None] * ROWS
    assert turned == [None] * ROWS
    assert_close(y.power, x.power, 1e-12 * x.sigma)
    assert_close(y.var_f, x.var_f, 1e-12 * x.f2)
    assert_close(y.var_v, x.var_v, 1e-12 * x.v2)
    assert_close(y.cov, x.cov, 1e-12 * x.sigma)
    assert_close(y.bound, x.bound, 1e-12 * x.sigma**2)
