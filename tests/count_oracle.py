"""The Wittrick-Williams mode count with every division done in full.

Each layer's up-going blocks P_u, Z_u P_u and Z_u are right divisions of
its own up-going waves, four divisions per layer, and each 2x2 inertia
reads the whole Hermitian part.  ``dispersion._mode_count`` takes a
closed-form layer's up-going blocks as sign flips of its down-going ones
and a 2x2 inertia from three entries instead.  Kept here as the oracle of
that count's differential test.
"""

import math

import numpy as np

from sawkit.dispersion import _matmul, _right_divide, _solve, _waves, _wavenumbers


def negative(d):
    """Negative eigenvalues of the Hermitian parts of entry-major 2x2 or 3x3
    matrices (n, n, ...), as floats, NaN where an entry is not finite."""
    h = 0.5 * (d + np.conj(np.swapaxes(d, 0, 1)))
    finite = np.isfinite(h).all(axis=(0, 1))
    if d.shape[0] == 2:
        det = h[0, 0].real * h[1, 1].real - np.abs(h[0, 1]) ** 2
        trace = h[0, 0].real + h[1, 1].real
        count = ((det < 0) | (trace < 0)) + ((det > 0) & (trace < 0)).astype(float)
    else:
        h = np.where(finite, h, 0.0)
        count = (np.linalg.eigvalsh(np.moveaxis(h, (0, 1), (-2, -1))) < 0).sum(axis=-1)
    return np.where(finite, count, np.nan)


def mode_count(prep, freqs, v):
    """Number of modes below v at the wavenumbers of (``freqs``, ``v``),
    shaped as ``dispersion._mode_count``'s."""
    k = _wavenumbers(prep, freqs, v)
    valid, waves = _waves(prep, v)
    hs, n = prep.thicknesses, waves[0][0].shape[0]
    w_sub = waves[-1][2][:, :n]
    below = -1j * _right_divide(w_sub[n:], w_sub[:n])
    count = np.zeros(np.broadcast_shapes(k.shape, below.shape[2:]))
    eye = np.eye(n).reshape(n, n, 1, 1)
    for j in range(len(hs) - 1, -1, -1):
        alpha_d, alpha_u, w = waves[j]
        slow = np.sqrt(np.maximum(v * v / prep.media[j].s2 - 1.0, 0.0))
        h = hs[j]
        parts = int(np.max(k * h * slow / math.pi, initial=0.0)) + 1
        ihk = 1j * (h / parts) * k
        e_d = np.exp(ihk * alpha_d)
        e_u = e_d if alpha_u is None else np.exp(-ihk * alpha_u)
        down = _right_divide(w[:, :n] * e_d, w[:n, :n])
        up = _right_divide(w[:, n:] * e_u, w[:n, n:])
        z_d = _right_divide(w[n:, :n], w[:n, :n])
        z_u = _right_divide(w[n:, n:], w[:n, n:])
        p_d, zp_d = down[:n], down[n:]
        p_u, zp_u = up[:n], up[n:]
        km = np.concatenate([-1j * (zp_u - _matmul(z_d, p_u)),
                             1j * (z_u - _matmul(zp_d, p_u))])
        kb = _right_divide(km, eye - _matmul(p_d, p_u))
        k_tb, k_bb = kb[:n], kb[n:]
        k_tt = -1j * z_d - _matmul(k_tb, p_d)
        k_bt = 1j * zp_d - _matmul(k_bb, p_d)
        for _ in range(parts):
            d = k_bb + below
            count += negative(d)
            below = k_tt - _matmul(k_tb, _solve(d, k_bt))
    count += negative(below)
    out = np.empty(np.broadcast_shapes(np.shape(freqs), valid.shape))
    out[...] = np.where(valid, count, np.nan)
    return out
