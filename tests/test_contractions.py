"""Products with F (x) 1, contracted over the battery index instead of formed densely.

The kernel never builds the D x D matrix F (x) 1: each product with it is a
contraction of the d_w x d_w F over the battery index. These tests hold the
contractions to a dense `np.kron` reference and check that no kernel entry
point lifts F to the full space.
"""

import numpy as np
import pytest

import qbattery.moments as moments
import qbattery.operators as operators
from qbattery.ensembles import draw_batch, draw_instance
from qbattery.moments import decomposition_terms, moment_batch, verify_batch, verify_instance
from qbattery.operators import TensorStructure

CONTRACTIONS = {
    "(F x 1) A": (moments._battery_left, lambda f, a: f @ a),
    "A (F x 1)": (lambda f, a: moments._battery_right(a, f), lambda f, a: a @ f),
}


def complex_stack(rng, n, d):
    return rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))


@pytest.mark.parametrize("name", sorted(CONTRACTIONS))
@pytest.mark.parametrize("d_w", [2, 3])
@pytest.mark.parametrize("env", [1, 2, 8, 32])
def test_contraction_matches_dense_kron(name, d_w, env):
    contracted, dense = CONTRACTIONS[name]
    rng = np.random.default_rng([d_w, env])
    n, d = 3, d_w * env
    f, a = complex_stack(rng, n, d_w), complex_stack(rng, n, d)
    got = contracted(f, a)
    want = dense(np.stack([np.kron(x, np.eye(env)) for x in f]), a)
    assert got.shape == (n, d, d)
    scale = np.linalg.norm(f, axis=(1, 2)) * np.linalg.norm(a, axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-14 * scale)


@pytest.mark.parametrize("d_w", [2, 3])
@pytest.mark.parametrize("env", [1, 2, 8, 32])
def test_commutator_of_hermitian_operands_is_anti_hermitian(d_w, env):
    # both sides are computed, neither is taken as the other's adjoint; on
    # exactly Hermitian operands they still agree to the last bit
    rng = np.random.default_rng([d_w, env, 1])
    a = complex_stack(rng, 4, d_w * env)
    f = complex_stack(rng, 4, d_w) + 1e6 * np.eye(d_w)
    a, f = a + a.conj().swapaxes(1, 2), f + f.conj().swapaxes(1, 2)
    right = moments._battery_right(a, f)
    assert right.flags.c_contiguous
    c = right - moments._battery_left(f, a)
    assert np.array_equal(c, -c.conj().swapaxes(1, 2))


@pytest.fixture
def no_lift(monkeypatch):
    """Make every way of building F (x) 1 as a full-space matrix raise."""
    def lift(*args, **kwargs):
        raise AssertionError("F (x) 1 formed")

    monkeypatch.setattr(operators, "embed_battery_op", lift)
    monkeypatch.setattr(moments, "embed_battery_op", lift)
    monkeypatch.setattr(np, "kron", lift)


def test_kernel_never_forms_f_kron_identity(no_lift):
    s = TensorStructure.from_dims([2, 2, 4, 4])
    rho, f, v, _ = draw_batch(s, "ginibre", 3, range(4), rank=4)
    report = verify_batch(rho, f, v, s)
    assert report.errors == [None] * 4
    assert moment_batch(rho, f, v, s).errors == [None] * 4
    rho1, f1, v1, _ = draw_instance(s, "ginibre", 3, 0, rank=4)
    assert verify_instance(rho1, f1, v1, s).power == pytest.approx(report.power[0], rel=1e-12,
                                                                   abs=1e-14)
    terms = decomposition_terms(rho1, f1, v1, s)
    assert terms == pytest.approx((report.term_fv[0], report.term_vf[0], report.term_cross[0]),
                                  rel=1e-12, abs=1e-14)
