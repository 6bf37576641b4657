"""The kernel's columns against an exact rational reference.

Every float64 entry of a drawn stack is an exact rational, and so is every
sum and product of them: the reference takes the traces below in
`fractions.Fraction` arithmetic, a complex number being a pair of Fractions,
and so shares none of the kernel's arithmetic. It is taken on the state the
kernel verifies: Q Q^dag of the drawn factor Q, formed exactly.

By the cyclic trace, Tr(sr dF dV sr) = Tr(rho dF dV), so term_fv is
|Tr(rho dF dV)|^2 and term_vf is |Tr(rho dV dF)|^2. The kernel takes both as
|Cov|^2 of its Cov = <(dF (x) 1) Q, dV Q> / |Q|^2; the reference takes the
two traces separately, each as a trace of products with rho. The accuracy
gate takes var_F, var_V, Cov, P = 2 Im Cov, the corrected bound, the slack
and the saturation ratio of the state rho / Tr(rho), whose trace is exactly
1, from the raw moments Tr(rho X) / Tr(rho): in exact arithmetic nothing
cancels.
"""

from fractions import Fraction

import numpy as np
import pytest

from qbattery.ensembles import draw_batch
from qbattery.moments import _moments_checked, _verify_checked
from qbattery.operators import TensorStructure

from draws import drawn_states, state_factors

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


def exact_state(q):
    """Q Q^dag of a float64 factor Q (D, r), exactly: sum_k Q_ik conj(Q_jk)."""
    qe = exact(q)
    return [[dot((a, (b[0], -b[1])) for a, b in zip(qe[i], qe[j])) for j in range(len(qe))]
            for i in range(len(qe))]


def kernel_rows(s, kind, rank, n):
    """(batch, i, rho, F, V) for each of n seed-2024 draws, as `verify` verifies them.

    `batch` is the kernel's batch of the row's state kind and i the row's
    index in it; rho is the exact state Q Q^dag of its factor, and F and V
    are its float64 operators.
    """
    groups, _ = draw_batch(s, kind, 2024, range(n), rank)
    for rows, q, f, v in groups:
        batch = _verify_checked(q, f, v, s)
        assert batch.errors == [None] * len(rows)
        for i in range(len(rows)):
            yield batch, i, exact_state(q[i]), f[i], v[i]


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
    """(|Tr(rho dF dV)|^2, |Tr(rho dV dF)|^2) of one instance, rho taken as rho / Tr(rho), exactly."""
    t = sum(rho[i][i][0] for i in range(len(rho)))
    d_w = len(f)
    rho_w = [[(sum(rho[i * env + e][j * env + e][0] for e in range(env)),
               sum(rho[i * env + e][j * env + e][1] for e in range(env)))
              for j in range(d_w)] for i in range(d_w)]
    df = centred(f, trace_product(rho_w, f)[0] / t)
    dv = centred(v, trace_product(rho, v)[0] / t)
    fv = trace_product(rho, battery_left(df, dv, env))
    vf = trace_product(rho, battery_right(dv, df, env))
    return (fv[0] ** 2 + fv[1] ** 2) / t**2, (vf[0] ** 2 + vf[1] ** 2) / t**2


@pytest.mark.parametrize("kind, rank", [("mix", None), ("haar", None), ("ginibre", 2)])
@pytest.mark.parametrize("dims", [(2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1)])
def test_sandwich_terms_match_the_exact_traces(dims, kind, rank):
    s = TensorStructure.from_dims(list(dims))
    for batch, i, rho, f, v in kernel_rows(s, kind, rank, 6):
        want = exact_terms(rho, exact(f), exact(v), s.env_dim)
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
# at D = 2, which saturate the bound, then rank-4 Ginibre rows at D = 16
GATE_FAMILIES = ([(dims, kind, rank, 12) for dims in ((2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1))
                  for kind, rank in (("mix", None), ("haar", None), ("ginibre", 2))]
                 + [((2, 1, 1, 1), "haar", None, 200), ((2, 2, 2, 2), "ginibre", 4, 4)])

# (max, mean) of each column's error over every row of GATE_FAMILIES, with
# the state taken as its factor Q, every moment an inner product of
# A = (dF (x) 1) Q and B = dV Q divided by |Q|^2, the bound as
# (2 Im Cov)^2 + 2 var_F |B - mu A|^2 / |Q|^2 and P as 2 Im Cov.
# Measured with numpy 2.4.6 and OpenBLAS 0.3.31, the largest over its
# default (AVX-512), Haswell, Sandybridge, Nehalem and Zen kernels
# (OPENBLAS_CORETYPE), rounded up to three digits:
#   var_f            1.44e-15 / 1.48e-16
#   var_v            1.07e-15 / 1.36e-16
#   cov              1.03e-15 / 1.41e-16
#   power            1.03e-15 / 1.78e-16
#   corrected_bound  3.38e-15 / 5.30e-16
#   slack            1.24e-15 / 9.47e-17
#   saturation_ratio 3.37e-16 / 1.42e-17
# Each bound is the smallest one-digit number at least 1.1 times its error.
# A bound may only get stricter.
GATE_BOUNDS = {
    "var_f": (2e-15, 2e-16),
    "var_v": (2e-15, 2e-16),
    "cov": (2e-15, 2e-16),
    "power": (2e-15, 2e-16),
    "corrected_bound": (4e-15, 6e-16),
    "slack": (2e-15, 2e-16),
    "saturation_ratio": (4e-16, 2e-17),
}


def gate_errors():
    """Each column's errors over the gate's rows."""
    errors = {k: [] for k in GATE_BOUNDS}
    for dims, kind, rank, n in GATE_FAMILIES:
        s = TensorStructure.from_dims(list(dims))
        for batch, i, rho, f, v in kernel_rows(s, kind, rank, n):
            want = exact_columns(rho, exact(f), exact(v), s.env_dim)
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
    rho, f, v, _ = drawn_states(s, "mix", 42, range(24))
    f, v = f + 1e6 * np.eye(2), v + 1e6 * np.eye(4)
    m = _moments_checked(state_factors(rho), f, v, s)
    for i in range(24):
        want = exact_columns(exact(rho[i]), exact(f[i]), exact(v[i]), s.env_dim)
        for name, err in moment_errors(m, i, want).items():
            assert err <= 1e-13, (name, i, err)
