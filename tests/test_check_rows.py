"""One mutation per row of the kernel's check table: a wrong formula fails the row that guards it.

Each mutation replaces the formula of one quantity the chain computes with a
wrong one, and the rows of a batch that the mutation changes must fail with
the message of the `_CHECKS` row that checks that quantity, and with no other.
Every row of the table has a mutation here.
"""

import json

import numpy as np
import pytest

import qbattery.moments as moments
from qbattery.cli import main
from qbattery.moments import _verify_checked
from qbattery.operators import NumericalIntegrityError, TensorStructure

from draws import drawn_factors

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def drawn(dims, kind):
    """Eight drawn rows, as `verify` hands them to the kernel: factors Q, F and V."""
    s = TensorStructure.from_dims(list(dims))
    return (*drawn_factors(s, kind, 7, range(8)), s)


def with_environment(q, f, v, s):
    """Qubit instances with a second qubit in |0>, on which V acts as the identity: D = 4, d_w = 2.

    The moments, and so the bound's saturation, are the qubit's.
    """
    return (np.einsum("nik,j->nijk", q, [1.0, 0.0]).reshape(len(q), 4, -1), f,
            np.kron(v, np.eye(2)), TensorStructure.from_dims([2, 2, 1, 1]))


FAMILIES = {
    "generic": lambda: drawn((2, 2, 1, 1), "ginibre"),
    # pure D = 2 rows: dF psi and dV psi are both orthogonal to psi, so parallel, and P^2 = bound
    "saturating": lambda: drawn((2, 1, 1, 1), "haar"),
    # the same rows with an environment, so that the battery and the full space differ in size
    "saturating-env": lambda: with_environment(*drawn((2, 1, 1, 1), "haar")),
    # rho = (I + sigma_y)/2, the state of Q = (1, i) / sqrt(2); F = sigma_z, V = sigma_x: P = 2, P^2 = bound = 4
    "qubit": lambda: ((np.array([[1.0], [1.0j]]) / np.sqrt(2.0))[None], SZ[None], SX[None],
                      TensorStructure.from_dims([2, 1, 1, 1])),
}


def wrap(monkeypatch, name, wrong):
    """Replace moments.`name` by wrong(real), where real is the function it replaces."""
    monkeypatch.setattr(moments, name, wrong(getattr(moments, name)))


def gram(var_f=1.0, var_v=1.0, conjugate=False):
    """The inner products (var_F, var_V, Cov) with var_F and var_V scaled, Cov conjugated if asked."""
    def wrong(real):
        def moments_of(a, b, t):
            f, v, cov = real(a, b, t)
            return var_f * f, var_v * v, cov.conj() if conjugate else cov
        return moments_of
    return wrong


# the start of each _CHECKS row's message -> (the family, the mutation)
MUTATIONS = {
    # rho_W as Q_W Q_W^T, without the conjugate: Tr(rho_W F) is complex
    "mean_f has imaginary part": ("generic", lambda mp: wrap(
        mp, "_adjoint", lambda real: lambda a: a.swapaxes(-1, -2))),
    # V Q with a stray factor i: Tr(Q^dag V Q) is imaginary
    "mean_v has imaginary part": ("generic", lambda mp: wrap(
        mp, "_times", lambda real: lambda x, q: 1j * real(x, q))),
    # var_F negated
    "var_f = ": ("generic", lambda mp: wrap(mp, "_gram", gram(var_f=-1.0))),
    # var_V negated
    "var_v = ": ("generic", lambda mp: wrap(mp, "_gram", gram(var_v=-1.0))),
    # var_F halved, where |Cov|^2 = var_F var_V
    "covariance inequality violated": ("saturating-env", lambda mp: wrap(mp, "_gram", gram(var_f=0.5))),
    # the anticommutator for the commutator: <Q, (dF (x) 1) B> taken with -B
    "charging power has imaginary part": ("generic", lambda mp: wrap(
        mp, "_power_stage", lambda real: lambda q, t, a, b, df, dv: real(q, t, a, -b, df, dv))),
    # Cov as <B, A>, the conjugate of <A, B>: 2 Im Cov = -P
    "commutator-shift power identity violated": ("generic", lambda mp: wrap(
        mp, "_gram", gram(conjugate=True))),
    # the paper's form of the bound with its sign flipped
    "corrected bound is negative": ("generic",
                                    lambda mp: wrap(mp, "corrected_bound", lambda real: lambda m: -real(m))),
    # the loose bound without its factor 4
    "loose bound": ("generic",
                    lambda mp: wrap(mp, "loose_bound", lambda real: lambda m: m.var_f * m.var_v)),
    # the Gram form of the bound without its factor 2
    "power bound violated": ("saturating",
                             lambda mp: wrap(mp, "gram_bound", lambda real: lambda m: real(m) / 2.0)),
    # 2 P^2 / bound, uncapped
    "saturation ratio": ("saturating", lambda mp: wrap(
        mp, "saturation_ratio", lambda real: lambda power_sq, m: real(2.0 * power_sq, m, cap=np.inf))),
}


def test_the_table_is_checked_at_two_points():
    # the moment stage's five rows, then the six the report needs
    tags = [tag for tag, *_ in moments._CHECKS]
    assert tags == ["moments"] * 5 + ["chain"] * 6


def test_every_check_row_has_one_mutation():
    messages = [message for *_, message in moments._CHECKS]
    for key in MUTATIONS:
        assert sum(message.startswith(key) for message in messages) == 1, key
    assert all(sum(message.startswith(key) for key in MUTATIONS) == 1 for message in messages)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unmutated_families_are_clean(family):
    rho, f, v, s = FAMILIES[family]()
    assert _verify_checked(rho, f, v, s).errors == [None] * len(rho)


@pytest.mark.parametrize("key", MUTATIONS)
def test_a_wrong_formula_fails_its_own_row(monkeypatch, key):
    family, mutate = MUTATIONS[key]
    rho, f, v, s = FAMILIES[family]()
    mutate(monkeypatch)
    failed = [e for e in _verify_checked(rho, f, v, s).errors if e is not None]
    assert failed
    for err in failed:
        assert isinstance(err, NumericalIntegrityError) and str(err).startswith(key), str(err)


def test_a_wrong_formula_makes_verify_exit_1(monkeypatch, tmp_path):
    key = "commutator-shift power identity violated"
    MUTATIONS[key][1](monkeypatch)
    out = tmp_path / "v.json"
    assert main(["verify", "--dims", "2,2,1,1", "--trials", "20", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())
    assert summary["violations"] > 0 and summary["worst_case"]["violation"].startswith(key)
