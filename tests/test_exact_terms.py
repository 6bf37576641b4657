"""The kernel's columns against an exact rational reference.

Every float64 entry of a drawn stack is an exact rational, and so is every
sum and product of them: the reference takes the traces below in
`fractions.Fraction` arithmetic, a complex number being a pair of Fractions,
and so shares none of the kernel's arithmetic.

By the cyclic trace, Tr(sr dF dV sr) = Tr(rho dF dV), so term_fv is
|Tr(rho dF dV)|^2 and term_vf is |Tr(rho dV dF)|^2. The kernel takes both as
|Cov|^2 of its Cov = Tr(rho dF dV); the reference takes the two traces
separately, each as a trace of products with rho. The accuracy gate takes
var_F, var_V, Cov, P = 2 Im Cov, the corrected bound, the slack and the
saturation ratio of the state rho / Tr(rho), whose trace is exactly 1, from
the raw moments Tr(rho X) / Tr(rho): in exact arithmetic nothing cancels.
"""

from fractions import Fraction

import numpy as np
import pytest

from qbattery.ensembles import draw_batch
from qbattery.moments import moment_batch, verify_batch
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
    rho, f, v, _ = draw_batch(s, kind, 2024, range(6), rank)
    batch = verify_batch(rho, f, v, s)
    assert batch.errors == [None] * 6
    for i in range(6):
        want = exact_terms(exact(rho[i]), exact(f[i]), exact(v[i]), s.env_dim)
        scale = max(float(max(want)), float(batch.moments.var_f[i] * batch.moments.var_v[i]))
        for got, term in zip((batch.term_fv[i], batch.term_vf[i]), want):
            assert abs(float(Fraction(float(got)) - term)) <= 1e-13 * scale, (i, got, float(term))


def matmul(a, b):
    """A B."""
    return [[dot((a[i][k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def exact_columns(rho, f, v, env):
    """var_f, var_v, cov, power, corrected_bound, slack and saturation_ratio of rho / Tr(rho), exactly.

    cov is a (re, im) pair; power is P = 2 Im Cov, and saturation_ratio is P^2 / bound.
    """
    t = sum(rho[i][i][0] for i in range(len(rho)))
    d_w = len(f)
    rho_w = [[(sum(rho[i * env + e][j * env + e][0] for e in range(env)),
               sum(rho[i * env + e][j * env + e][1] for e in range(env)))
              for j in range(d_w)] for i in range(d_w)]
    mean_f = trace_product(rho_w, f)[0] / t
    mean_v = trace_product(rho, v)[0] / t
    var_f = trace_product(rho_w, matmul(f, f))[0] / t - mean_f**2
    var_v = trace_product(rho, matmul(v, v))[0] / t - mean_v**2
    fv = trace_product(rho, battery_left(f, v, env))
    cov = (fv[0] / t - mean_f * mean_v, fv[1] / t)
    bound = 2 * (var_f * var_v - (cov[0] ** 2 - cov[1] ** 2))
    power_sq = 4 * cov[1] ** 2
    return {"var_f": var_f, "var_v": var_v, "cov": cov, "power": 2 * cov[1], "corrected_bound": bound,
            "slack": bound - power_sq, "saturation_ratio": power_sq / bound}


def relative_error(got, want):
    """|got - want| / |want| for a float `got` and a Fraction `want`."""
    return abs(float(Fraction(float(got)) - want)) / abs(float(want))


def moment_errors(m, i, want):
    """The error of row i of MomentBatch `m` in each variance, relative to it, and in Cov, to sqrt(var_F var_V)."""
    cov = complex(m.cov[i])
    cov_err = abs(complex(float(Fraction(cov.real) - want["cov"][0]),
                          float(Fraction(cov.imag) - want["cov"][1])))
    return {"var_f": relative_error(m.var_f[i], want["var_f"]),
            "var_v": relative_error(m.var_v[i], want["var_v"]),
            "cov": cov_err / float(want["var_f"] * want["var_v"]) ** 0.5}


def column_errors(batch, i, want):
    """The kernel's error on row i per column, each relative to its own scale.

    The variances relative to themselves; Cov and P to sqrt(var_F var_V),
    the bound they obey (|P| <= 2 |Cov|); the corrected bound and the slack
    to var_F var_V, of which they are a cancelling difference; the ratio, in
    [0, 1], absolutely.
    """
    product = float(want["var_f"] * want["var_v"])
    return {
        **moment_errors(batch.moments, i, want),
        "power": abs(float(Fraction(float(batch.power[i])) - want["power"])) / product**0.5,
        **{k: abs(float(Fraction(float(getattr(batch, k)[i])) - want[k])) / product
           for k in ("corrected_bound", "slack")},
        "saturation_ratio": abs(float(Fraction(float(batch.saturation_ratio[i])) - want["saturation_ratio"])),
    }


# (dims, kind, rank, rows): seed-2024 draws at D = 2, 4 and 8, then Haar rows
# at D = 2, which saturate the bound
GATE_FAMILIES = ([(dims, kind, rank, 12) for dims in ((2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1))
                  for kind, rank in (("mix", None), ("haar", None), ("ginibre", 2))]
                 + [((2, 1, 1, 1), "haar", None, 200)])

# (max, mean) of each column's error over every row of GATE_FAMILIES, with
# every moment taken as a trace of the centred operators, Tr(rho_W dF dF),
# Tr(rho dV dV) and Tr(rho dF dV), and P as -i Tr([rho, dF] dV).
# Measured with numpy 2.4.6 and OpenBLAS 0.3.31, the
# largest over its default, Haswell, Sandybridge, Nehalem and Zen kernels
# (OPENBLAS_CORETYPE), rounded up to two digits:
#   var_f            5.9e-15 / 2.6e-16
#   var_v            8.6e-14 / 5.6e-16
#   cov              3.7e-15 / 1.9e-16
#   power            1.1e-15 / 1.7e-16
#   corrected_bound  1.7e-13 / 1.6e-15
#   slack            1.7e-13 / 1.7e-15
#   saturation_ratio 3.9e-12 / 2.6e-14
# Each bound is the smallest one-digit number at least 1.1 times its error.
# A bound may only get stricter.
GATE_BOUNDS = {
    "var_f": (7e-15, 3e-16),
    "var_v": (1e-13, 7e-16),
    "cov": (5e-15, 3e-16),
    "power": (2e-15, 2e-16),
    "corrected_bound": (2e-13, 2e-15),
    "slack": (2e-13, 2e-15),
    "saturation_ratio": (5e-12, 3e-14),
}


def gate_errors():
    """Each column's errors over the gate's rows."""
    errors = {k: [] for k in GATE_BOUNDS}
    for dims, kind, rank, n in GATE_FAMILIES:
        s = TensorStructure.from_dims(list(dims))
        rho, f, v, _ = draw_batch(s, kind, 2024, range(n), rank)
        batch = verify_batch(rho, f, v, s)
        assert batch.errors == [None] * n
        for i in range(n):
            want = exact_columns(exact(rho[i]), exact(f[i]), exact(v[i]), s.env_dim)
            assert want["corrected_bound"] > 0
            for k, e in column_errors(batch, i, want).items():
                errors[k].append(e)
    return errors


def test_moment_columns_stay_within_the_exact_reference_gate():
    errors = gate_errors()
    for name, (max_bound, mean_bound) in GATE_BOUNDS.items():
        e = np.array(errors[name])
        assert e.max() <= max_bound, (name, e.max())
        assert e.mean() <= mean_bound, (name, e.mean())


def test_moments_of_shifted_operators_match_the_exact_values():
    # F and V + 1e6 I: dF and dV are formed before any product, so var_F,
    # var_V and Cov keep to round-off of their own scale, not of the shift's
    s = TensorStructure.from_dims([2, 2, 1, 1])
    rho, f, v, _ = draw_batch(s, "mix", 42, range(24))
    f, v = f + 1e6 * np.eye(2), v + 1e6 * np.eye(4)
    m = moment_batch(rho, f, v, s)
    for i in range(24):
        want = exact_columns(exact(rho[i]), exact(f[i]), exact(v[i]), s.env_dim)
        for name, err in moment_errors(m, i, want).items():
            assert err <= 1e-13, (name, i, err)
