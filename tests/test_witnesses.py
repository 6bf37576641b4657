"""Closed-form equality witnesses of the power bound, at every total dimension.

The bound P^2 <= 2 (var_F var_V - Re[Cov^2]) holds with equality exactly when
dV Q = mu (dF (x) 1) Q on a factor Q of rho. For a pure state psi put
phi = mu (dF (x) 1) psi, which is orthogonal to psi since <dF> = 0, and

    V = |phi><psi| + |psi><phi| + W,

with W Hermitian on the complement of span{psi, phi}. Then <V> = 0 and
dV psi = phi, so Cov = mu var_F, var_V = |mu|^2 var_F, P = 2 Im(mu) var_F and
the bound is 4 (Im mu)^2 var_F^2 = P^2. An imaginary part of mu saturates the
bound with P != 0, for any (entangled) psi; a real mu gives P = 0 and a zero
bound with |Cov| = |mu| var_F, nonzero fluctuation and covariance without
charging power.
"""

import numpy as np
import pytest

from qbattery.moments import _verify_checked
from qbattery.operators import TensorStructure

ROWS = 50
WITNESS_DIMS = [(2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 4, 4), (4, 4, 2, 2)]


def gaussian_hermitian(rng, n, d):
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def witnesses(s: TensorStructure, mu: complex, seed: int):
    """ROWS instances (psi, F, V) of the construction above, psi and F Gaussian; psi as a D x 1 factor."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((ROWS, s.dim)) + 1j * rng.standard_normal((ROWS, s.dim))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    f = gaussian_hermitian(rng, ROWS, s.d_w)
    f_psi = np.einsum("nij,njk->nik", f, psi.reshape(ROWS, s.d_w, s.env_dim)).reshape(ROWS, s.dim)
    mean_f = np.einsum("ni,ni->n", psi.conj(), f_psi).real
    phi = mu * (f_psi - mean_f[:, None] * psi)
    # the projector onto the complement of span{psi, phi}; phi is orthogonal to psi
    e = phi / np.linalg.norm(phi, axis=-1, keepdims=True)
    span = psi[:, :, None] * psi.conj()[:, None, :] + e[:, :, None] * e.conj()[:, None, :]
    perp = np.eye(s.dim) - span
    w = perp @ gaussian_hermitian(rng, ROWS, s.dim) @ perp
    v = phi[:, :, None] * psi.conj()[:, None, :] + psi[:, :, None] * phi.conj()[:, None, :] + w
    v = (v + v.conj().swapaxes(-1, -2)) / 2.0
    return psi[:, :, None], f, v


@pytest.mark.parametrize("mu", [1j, -2 + 1j])
@pytest.mark.parametrize("dims", WITNESS_DIMS)
def test_complex_mu_saturates_the_bound(dims, mu):
    s = TensorStructure.from_dims(list(dims))
    batch = _verify_checked(*witnesses(s, mu, 11), s)
    assert batch.errors == [None] * ROWS
    assert np.all(np.abs(batch.power) > 0.0)
    # the slack is the Gram term 2 var_F |B - mu A|^2 / t, B - mu A being
    # round-off: the largest slack / bound measured over five OpenBLAS
    # kernels was 2.2e-28, so the ratio P^2 / (P^2 + slack) rounds to 1
    assert np.all(batch.saturation_ratio == 1.0)
    assert (np.abs(batch.slack) / batch.corrected_bound).max() <= 3e-28


@pytest.mark.parametrize("dims", WITNESS_DIMS)
def test_real_mu_has_covariance_without_power(dims):
    s = TensorStructure.from_dims(list(dims))
    batch = _verify_checked(*witnesses(s, 0.7, 12), s)
    assert batch.errors == [None] * ROWS
    m = batch.moments
    assert np.all(m.var_f > 0.0)
    assert np.allclose(m.cov, 0.7 * m.var_f, rtol=1e-12, atol=0.0)
    assert batch.power_sq.max() <= 1e-28
    # the bound, zero in exact arithmetic, is (2 Im Cov)^2 plus the Gram
    # term, both squares of round-off: the largest bound / (var_F var_V)
    # measured over five OpenBLAS kernels was 9.5e-28, far below the ratio's
    # degenerate cutoff, so the ratio is 0 at every dimension
    assert (np.abs(batch.corrected_bound) / (m.var_f * m.var_v)).max() <= 2e-27
    assert np.all(batch.saturation_ratio == 0.0)
