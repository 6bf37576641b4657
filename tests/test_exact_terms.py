"""The decomposition's sandwich terms against an exact rational reference.

By the cyclic trace, Tr(sr dF dV sr) = Tr(rho dF dV), so term_fv is
|Tr(rho dF dV)|^2 and term_vf is |Tr(rho dV dF)|^2. Every float64 entry of a
drawn stack is an exact rational, and so is every sum and product of them:
the reference takes both traces, and the means <F>_W and <V> that centre
them, in `fractions.Fraction` arithmetic, a complex number being a pair of
Fractions. The kernel takes the terms on rho's factors instead, so this
checks that route against one that shares none of its arithmetic.
"""

from fractions import Fraction

import pytest

from qbattery.ensembles import _draw_batch_eig
from qbattery.moments import _verify_checked, verify_batch
from qbattery.operators import TensorStructure

ZERO = Fraction(0)


def exact(mat):
    """A complex float64 matrix as rows of (re, im) Fraction pairs."""
    return [[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in mat.tolist()]


def dot(pairs):
    """sum_k a_k b_k over pairs (a_k, b_k) of complex Fractions."""
    re = im = ZERO
    for (ar, ai), (br, bi) in pairs:
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def centred(a, mean):
    """A - mean * identity for a real Fraction `mean`."""
    return [[(x[0] - mean, x[1]) if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(a)]


def trace_product(a, b):
    """Tr(A B)."""
    return dot((a[i][j], b[j][i]) for i in range(len(a)) for j in range(len(a)))


def battery_left(f, a, env):
    """(F (x) 1) A on the battery-first space."""
    d_w, dim = len(f), len(a)
    return [[dot((f[p // env][c], a[c * env + p % env][q]) for c in range(d_w))
             for q in range(dim)] for p in range(dim)]


def battery_right(a, f, env):
    """A (F (x) 1) on the battery-first space."""
    d_w, dim = len(f), len(a)
    return [[dot((a[p][c * env + q % env], f[c][q // env]) for c in range(d_w))
             for q in range(dim)] for p in range(dim)]


def exact_terms(rho, f, v, env):
    """(|Tr(rho dF dV)|^2, |Tr(rho dV dF)|^2) of one instance, exactly."""
    d_w = len(f)
    rho_w = [[(sum(rho[i * env + e][j * env + e][0] for e in range(env)),
               sum(rho[i * env + e][j * env + e][1] for e in range(env)))
              for j in range(d_w)] for i in range(d_w)]
    df = centred(f, trace_product(rho_w, f)[0])
    dv = centred(v, trace_product(rho, v)[0])
    fv = trace_product(rho, battery_left(df, dv, env))
    vf = trace_product(rho, battery_right(dv, df, env))
    return fv[0] ** 2 + fv[1] ** 2, vf[0] ** 2 + vf[1] ** 2


@pytest.mark.parametrize("kind, rank", [("mix", None), ("haar", None), ("ginibre", 2)])
@pytest.mark.parametrize("dims", [(2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1)])
def test_sandwich_terms_match_the_exact_traces(dims, kind, rank):
    s = TensorStructure.from_dims(list(dims))
    rho, f, v, _, eig = _draw_batch_eig(s, kind, 2024, range(6), rank, 1.0)
    # the draws' own factors, as verify passes them, and a fresh eigh of each state
    for batch in (_verify_checked(rho, f, v, s, rho_eig=eig), verify_batch(rho, f, v, s)):
        assert batch.errors == [None] * 6
        for i in range(6):
            want = exact_terms(exact(rho[i]), exact(f[i]), exact(v[i]), s.env_dim)
            scale = max(float(max(want)), float(batch.moments.var_f[i] * batch.moments.var_v[i]))
            for got, term in zip((batch.term_fv[i], batch.term_vf[i]), want):
                assert abs(float(Fraction(float(got)) - term)) <= 1e-13 * scale, (i, got, float(term))
