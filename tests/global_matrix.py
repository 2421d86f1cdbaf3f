"""Global boundary matrix: the response kernel the impedance recursion replaced.

Every medium's six partial waves enter one (6L+3)-square system: free-surface
traction rows, displacement and traction continuity at each interface, and
the substrate's three accepted waves.  Kept here as the oracle of the
differential tests; the package itself no longer builds it.
"""

import math

import numpy as np

from sawkit import dispersion
from sawkit.dispersion import _masks, _wave_fields


def assemble(prep, waves, k):
    """Global boundary matrices for a batch of (v, k) points.

    ``waves`` holds per-medium ``_wave_fields`` output aligned with k
    row-for-row.
    Returns (M (m,n,n), surface displacement rows (m,6 or 3), valid (m,)).
    """
    n_layers = len(prep.thicknesses)
    n = 6 * n_layers + 3
    m = k.shape[0]
    mat = np.zeros((m, n, n), dtype=complex)
    valid = np.ones(m, dtype=bool)

    tops, bots = [], []
    for j in range(n_layers):
        alpha, _, flux, ok = waves[j]
        valid &= ok
        ref_top, _ = _masks(alpha, flux)
        phase = 1j * k[:, None] * alpha * prep.thicknesses[j]
        tops.append(np.exp(np.where(ref_top, 0.0, -phase)))
        bots.append(np.exp(np.where(ref_top, phase, 0.0)))

    alpha_s, w_s, flux_s, ok_s = waves[n_layers]
    a_s, b_s = w_s[:, :3], w_s[:, 3:]
    valid &= ok_s
    accept, _ = _masks(alpha_s, flux_s)
    valid &= accept.sum(axis=1) == 3
    sel = np.argsort(~accept, axis=1, kind="stable")[:, :3]
    a_sub = np.take_along_axis(a_s, sel[:, None, :], axis=2)
    b_sub = np.take_along_axis(b_s, sel[:, None, :], axis=2)

    if n_layers == 0:
        mat[:, 0:3, 0:3] = b_sub
        return mat, a_sub[:, 2, :], valid

    a0, b0 = waves[0][1][:, :3], waves[0][1][:, 3:]
    mat[:, 0:3, 0:6] = b0 * tops[0][:, None, :]
    surface_rows = a0[:, 2, :] * tops[0]
    for j in range(n_layers):
        r = 3 + 6 * j
        cols_j = slice(6 * j, 6 * j + 6)
        a_j, b_j = waves[j][1][:, :3], waves[j][1][:, 3:]
        mat[:, r : r + 3, cols_j] = a_j * bots[j][:, None, :]
        mat[:, r + 3 : r + 6, cols_j] = b_j * bots[j][:, None, :]
        if j + 1 < n_layers:
            cols_n = slice(6 * (j + 1), 6 * (j + 1) + 6)
            a_n, b_n = waves[j + 1][1][:, :3], waves[j + 1][1][:, 3:]
            mat[:, r : r + 3, cols_n] = -a_n * tops[j + 1][:, None, :]
            mat[:, r + 3 : r + 6, cols_n] = -b_n * tops[j + 1][:, None, :]
        else:
            cols_n = slice(6 * n_layers, 6 * n_layers + 3)
            mat[:, r : r + 3, cols_n] = -a_sub
            mat[:, r + 3 : r + 6, cols_n] = -b_sub
    return mat, surface_rows, valid


def solve_response(mat, surface_rows, valid):
    """Surface normal displacement per unit scaled normal surface stress."""
    m, n, _ = mat.shape
    rhs = np.zeros(n)
    rhs[2] = 1.0
    out = np.full(m, np.nan + 0j)
    if valid.any():
        sub = mat[valid]
        try:
            x = np.linalg.solve(sub, np.broadcast_to(rhs, sub.shape[:2])[..., None])[..., 0]
        except np.linalg.LinAlgError:
            x = np.empty(sub.shape[:2], dtype=complex)
            for i in range(sub.shape[0]):
                try:
                    x[i] = np.linalg.solve(sub[i], rhs)
                except np.linalg.LinAlgError:
                    x[i] = np.inf
        width = surface_rows.shape[1]
        out[valid] = np.einsum("mj,mj->m", surface_rows[valid], x[:, :width])
    return out


def full_wave_fields(med, v):
    """``dispersion._full_waves`` in the velocity-major ``_wave_fields``
    layout that ``assemble`` takes: (alpha (m,6), w (m,6,6), flux (m,6),
    valid (m,)), with flux = Re sum conj(a) b over each wave's rows."""
    alpha, w, valid = dispersion._full_waves(med, v)
    flux = (w[:3].conj() * w[3:]).real.sum(axis=0)
    return alpha.T, w.transpose(2, 0, 1), flux.T, valid


def g33(prep, v, k):
    """Drop-in for ``dispersion._g33``."""
    waves = [_wave_fields(med, v) for med in prep.media]
    return solve_response(*assemble(prep, waves, k))


def grid_indicator(prep, grid, freqs):
    """Drop-in for ``dispersion._grid_indicator``: partial waves once, one
    global matrix per point and frequency."""
    waves = [_wave_fields(med, grid) for med in prep.media]
    return np.stack(
        [dispersion._pole_indicator(
            solve_response(*assemble(prep, waves, 2.0 * math.pi * f / grid)))
         for f in freqs],
        axis=1,
    )
