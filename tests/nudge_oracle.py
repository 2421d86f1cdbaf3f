"""The step off undefined points that ``dispersion._indicator`` replaced.

Every undefined entry was evaluated once more at v (1 + _NUDGE), k
recomputed, on the prep cut to those entries (``take``): its point axis, a
joined prep's one entry per pair, taken at them.  The package evaluates its
own batch once more instead, on its own prep, and keeps the undefined
entries only.  Kept here as the oracle of that path's differential test.
"""

from dataclasses import replace

import numpy as np

from sawkit import dispersion as dsp


def _at_points(a, sel):
    """``a`` at the points ``sel`` of its trailing point axis; a float, or a
    point axis of 1, serves every point and is returned as it is."""
    return a if np.ndim(a) == 0 or a.shape[-1] == 1 else a[..., sel]


def take(prep, sel):
    """``prep`` at the points ``sel`` of its point axis."""

    def cut(med):
        if med.closed is not None:
            return replace(med, closed=dsp._combine([med.closed], lambda a: _at_points(a[0], sel)))
        return replace(med, rho_scaled=_at_points(med.rho_scaled, sel),
                       n0=med.n0 if med.n0.ndim == 2 else med.n0[sel])

    media = tuple(map(cut, prep.media))
    return replace(prep, media=media, closed=dsp._medium_axis(media),
                   thicknesses=tuple(_at_points(h, sel) for h in prep.thicknesses))


def indicator(prep, freqs, v):
    """``dispersion._indicator`` with the undefined entries evaluated again
    on the prep taken at them."""
    q = dsp._pole_indicator(dsp._g33(prep, v, dsp._wavenumbers(prep, freqs, v)))
    nan = ~np.isfinite(q)
    if nan.any():
        bump = np.broadcast_to(v, q.shape)[nan] * (1.0 + dsp._NUDGE)
        f = np.broadcast_to(freqs, q.shape)[nan]
        q[nan] = dsp._pole_indicator(dsp._g33(take(prep, nan), bump,
                                              dsp._wavenumbers(prep, f, bump)))
    return q
