"""`draw_batch`'s rows in trial order, for tests that want whole stacks.

`draw_batch` returns one stack per state kind drawn; these helpers put the
rows back in trial order, with each state formed as `draw_instance` forms
it (`factor_states`, the code `DensityMatrix.from_factor` runs).
`state_factors` takes a stack of states back to factors the kernel takes,
as `DensityMatrix` checks and decomposes each state.
"""

import numpy as np

from qbattery.ensembles import draw_batch
from qbattery.operators import DensityMatrix, factor_states


def drawn_rows(s, kind, seed, trials, rank=None, scale=1.0):
    """(Q, F, V, kind) of each trial, in trial order."""
    groups, kinds = draw_batch(s, kind, seed, trials, rank, scale)
    out = [None] * len(kinds)
    for rows, q, f, v in groups:
        for j, k in enumerate(rows):
            out[k] = (q[j], f[j], v[j], kinds[k])
    return out


def drawn_factors(s, kind, seed, trials, rank=None, scale=1.0):
    """(Q (N, D, r), F, V) of a single-kind draw: `haar`, or `ginibre` at one rank."""
    (rows, q, f, v), = draw_batch(s, kind, seed, trials, rank, scale)[0]
    assert rows == list(range(len(rows)))
    return q, f, v


def drawn_states(s, kind, seed, trials, rank=None, scale=1.0):
    """(rho (N, D, D), F, V, kinds): each trial's state formed from its factor as draw_instance forms it."""
    groups, kinds = draw_batch(s, kind, seed, trials, rank, scale)
    n = len(kinds)
    rho = np.empty((n, s.dim, s.dim), dtype=complex)
    f = np.empty((n, s.d_w, s.d_w), dtype=complex)
    v = np.empty((n, s.dim, s.dim), dtype=complex)
    for rows, q, fg, vg in groups:
        rho[rows], f[rows], v[rows] = factor_states(q), fg, vg
    return rho, f, v, kinds


def state_factors(rho):
    """The factor of each state in a stack (N, D, D), as DensityMatrix checks and decomposes it: D x D."""
    return np.stack([DensityMatrix(r).factor for r in rho])
