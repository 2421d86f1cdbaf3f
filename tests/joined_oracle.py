"""Per-stack joined prep: the construction ``inversion._jacobian`` replaced.

Each stencil set is realized as a ``LayerStack`` and prepared on its own
(``dispersion._prepare``), and ``joined`` joins the preps, each closed-form
medium's fields one ``np.repeat`` per medium and the medium axis once more
per joined prep.  Kept here as the oracle of the Jacobian's differential
test; the package builds the stencil's media from the template's members
and joins them once.
"""

import math
from dataclasses import replace

import numpy as np

from sawkit import dispersion as dsp
from sawkit import inversion as inv
from sawkit.errors import StackJoinError


def joined(preps, sizes):
    """One prep for a batch of pairs in which ``preps[i]`` owns the next
    ``sizes[i]`` pairs."""
    if len({len(prep.media) for prep in preps}) > 1:
        raise StackJoinError("stacks with different layer counts cannot share a batch")

    def join(arrays):
        return np.repeat(np.concatenate(arrays, axis=-1), sizes, axis=-1)

    media = []
    for i, meds in enumerate(zip(*(prep.media for prep in preps))):
        parts = [med.closed for med in meds]
        if None not in parts:
            media.append(replace(meds[0], closed=dsp._combine(parts, join)))
        elif all(st is None for st in parts):
            media.append(replace(meds[0], rho_scaled=join([[med.rho_scaled] for med in meds]),
                                 n0=np.repeat([med.n0 for med in meds], sizes, axis=0)))
        else:
            raise StackJoinError(f"medium {i} (surface-first) has a closed form "
                                 "in some of the stacks only")
    return dsp._Prepared(
        media=tuple(media),
        thicknesses=tuple(np.repeat(h, sizes) for h in zip(*(p.thicknesses for p in preps))),
        v_floor=math.nan,
        v_ceiling=math.nan,
        closed=dsp._medium_axis(media),
    )


def jacobian_prep(problem, values, size):
    """The joined prep of the Jacobian at ``values`` over ``size`` points:
    the fitted stack twice (the v-stencil), then each parameter's up and
    down stack, each realized and prepared on its own."""
    sets = [values, values] + [s for pair in inv._stencil(problem, values) for s in pair]
    return joined([dsp._prepare(problem.realize(s)) for s in sets], [size] * len(sets))


def jacobian(problem, values, model):
    """``inversion._jacobian`` over ``jacobian_prep``."""
    v = np.asarray(model, dtype=float)
    stencil = list(inv._stencil(problem, values))
    _, _, dq_dv, q_theta = inv._v_stencil(problem, jacobian_prep(problem, values, v.size), v,
                                          2 + 2 * len(stencil))
    cols = [-(q_p - q_m) / (up[p.name] - dn[p.name]) / dq_dv
            for p, (up, dn), q_p, q_m in zip(problem.free, stencil, q_theta[::2], q_theta[1::2])]
    return np.column_stack(cols) / problem.sigmas[:, None]
