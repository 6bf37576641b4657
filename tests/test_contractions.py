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
from qbattery.ensembles import draw_instance
from qbattery.moments import (
    _moments_checked,
    _verify_checked,
    decomposition_terms,
    verify_instance,
)
from qbattery.operators import TensorStructure, _adjoint

from draws import drawn_factors, drawn_states, state_factors

CONTRACTIONS = {
    "(F x 1) A": (moments._battery_left, lambda f, a: f @ a),
    # the product on the right is the adjoint of one on the left, as
    # Cov = <(dF (x) 1) Q, B> takes Q^dag (dF (x) 1)
    "A (F x 1)": (lambda f, a: _adjoint(moments._battery_left(_adjoint(f), _adjoint(a))),
                  lambda f, a: a @ f),
}


def complex_stack(rng, n, d, k=None):
    shape = (n, d, d if k is None else k)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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
    # the kernel's commutator on a factor Q, Q^dag [F (x) 1, A] Q, taken as
    # Q^dag (F (x) 1) (A Q) - Q^dag A ((F (x) 1) Q): both sides are computed,
    # neither is taken as the other's adjoint, and for Hermitian operands
    # they are adjoints of each other to round-off, so P comes out real
    rng = np.random.default_rng([d_w, env, 1])
    a = complex_stack(rng, 4, d_w * env)
    f = complex_stack(rng, 4, d_w) + 1e6 * np.eye(d_w)
    a, f = a + a.conj().swapaxes(1, 2), f + f.conj().swapaxes(1, 2)
    q = complex_stack(rng, 4, d_w * env, 3)
    left = _adjoint(q) @ moments._battery_left(f, a @ q)
    right = _adjoint(q) @ (a @ moments._battery_left(f, q))
    c = left - right
    dense = [qi.conj().T @ (np.kron(fi, np.eye(env)) @ ai - ai @ np.kron(fi, np.eye(env))) @ qi
             for qi, fi, ai in zip(q, f, a)]
    scale = (np.linalg.norm(f, axis=(1, 2)) * np.linalg.norm(a, axis=(1, 2))
             * np.linalg.norm(q, axis=(1, 2)) ** 2)
    assert np.all(np.abs(c + _adjoint(c)).max(axis=(1, 2)) <= 1e-14 * scale)
    assert np.all(np.abs(c - np.stack(dense)).max(axis=(1, 2)) <= 1e-14 * scale)


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
    q, f, v = drawn_factors(s, "ginibre", 3, range(4), rank=4)
    report = _verify_checked(q, f, v, s)
    assert report.errors == [None] * 4
    # the states' full-rank D x D factors, as DensityMatrix takes them
    q = state_factors(drawn_states(s, "ginibre", 3, range(4), rank=4)[0])
    assert _verify_checked(q, f, v, s).errors == [None] * 4
    assert _moments_checked(q, f, v, s).errors == [None] * 4
    rho1, f1, v1, _ = draw_instance(s, "ginibre", 3, 0, rank=4)
    assert verify_instance(rho1, f1, v1, s).power == report.power[0]
    terms = decomposition_terms(rho1, f1, v1, s)
    assert terms == (report.term_fv[0], report.term_vf[0], report.term_cross[0])
