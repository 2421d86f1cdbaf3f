"""Weighted least-squares fitting of stack parameters to a measured
dispersion curve, with identifiability diagnostics.

Free parameters address the stack template by name:

* ``c_ge`` — germanium fraction, coupled to the film's Young's modulus and
  density through the linear mixing rules (requires a coupling binding),
* ``layer<i>.thickness``, ``layer<i>.young_modulus``,
  ``layer<i>.poisson_ratio``, ``layer<i>.density`` — direct layer fields
  in SI units.

The minimizer is projected Gauss-Newton with a backtracking line search
(Nocedal & Wright, Numerical Optimization, 2nd ed., sections 10.3 and
3.1).  Each iteration solves one Gauss-Newton step -J^+ r, holding the
parameters that sit on a bound it points out of, and tries it whole, then
halved, clamped to the bounds, until the cost drops.  The difference and
Gauss-Newton steps, the covariance and the flags are all taken on
J diag(s), s = max(|theta|, 1e-3 (upper - lower)) per parameter, so no
parameter's units weigh on them (More, LNM 630, 1978).  One pseudo-inverse
of each Jacobian gives its step, and the one the fit ends on gives the
covariance.  A fit stops on the cost drop its Gauss-Newton step promises,
taking that step with no curve solve to confirm it; the Jacobian it ends
on also gives the identifiability flags, whose thresholds are the module
constants below.  The covariance takes given sigmas as absolute; without
sigmas it is scaled by chi^2/(N - p).

The Jacobian needs no curve solve.  Each model velocity v* the fit holds is
a root of the pole indicator q = Im(1/u3), accepted closed to 1e-12
relative, so by the implicit function theorem
dv*/dtheta = -(dq/dtheta)/(dq/dv) at (f, v*).  dq/dv is a central
difference at v*(1 +- 1e-7), 1e5 times the root's closure, and dq/dtheta
one over the parameter step at fixed v*.  All (2 + 2p) N pairs of N points
and p parameters, the v-stencil on the fitted stack and each parameter's
stepped stacks at v*, are one batched indicator evaluation over one joined
prep, one stack per group of pairs.  Each stencil stack is the template's
layers with only the fitted layers' material and thickness swapped in: its
media are made at its own c_ref as a stack's prep makes them, and all are
joined once, with no LayerStack realized and no prep per stack.  It is the
only Jacobian: where an entry is not finite, DegeneratePointError names
the points.  A problem realizes each parameter's two bounds when it is
made, so every point of its box, the stencil's included, is a valid stack.

Each trial step searches its model roots around the velocities that the
Jacobian predicts for it, measured + sigma * (r + J dtheta) with dtheta the
clamped step, so the narrowest hint windows hold them and few refinement
rounds close them.  ``residuals``, which starts each fit, hints from the
measured velocities moved one Newton step of its model's pole indicator,
taken from one batch over the Jacobian's v-stencil at those velocities, so
its windows hold the model roots wherever the measured curve lies near
them, with no scan.  The residual solves make no mode count.  At the
solution one count 1e-6 below the model velocities, each at its own
wavenumber, where the count is exact, certifies them:
``FitResult.lower_modes`` lists the points with a mode below, where the
model may follow a higher mode.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .dispersion import (
    DispersionCurve,
    _check_frequencies,
    _curve_roots,
    _indicator,
    _joined,
    _lower_modes,
    _prepare,
    _stack_media,
)
from .errors import DegeneratePointError, FitError, MaterialError
from .materials import IsotropicMaterial, Layer, LayerStack, mix_density, mix_young_modulus

WELL_DETERMINED = "well-determined"
WEAKLY_DETERMINED = "weakly-determined"
FIXED = "fixed"

_LAYER_FIELD = re.compile(
    r"^layer(\d+)\.(thickness|young_modulus|poisson_ratio|density)$"
)

# Central-difference step of the Jacobian, relative to each parameter's scale.
_FD_STEP = 1e-4
# Velocity step of dq/dv at a root, relative to the root.
_ROOT_STEP = 1e-7
# Relative sensitivity below which a parameter is weakly determined.
_SENSITIVITY_FLOOR = 1e-3
# Relative-scaled Jacobian condition number above which the smallest singular
# direction is treated as unconstrained.  Thick-oxide stacks condition near
# ~7 while the no-oxide thin-film case sits near ~90, so 30 separates them
# with margin on both sides.
_CONDITION_LIMIT = 30.0
# Largest cost drop (chi^2 units) the Gauss-Newton step a fit stops on may
# promise: one that small cannot be told from the model's rounding noise by
# a cost evaluation, so the step is taken without one.
_FINISH_DROP = 1e-6
# Accepted trial steps after which a fit ends unconverged.
_MAX_ITER = 200


@dataclass(frozen=True)
class FreeParam:
    """One fitted parameter with its starting value and bounds."""

    name: str
    initial: float
    lower: float
    upper: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.initial, self.lower, self.upper))):
            raise FitError(f"{self.name}: initial value and bounds must be finite")
        if not self.lower < self.upper:
            raise FitError(f"{self.name}: bounds must satisfy lower < upper")
        if not self.lower <= self.initial <= self.upper:
            raise FitError(
                f"{self.name}: initial {self.initial} outside [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class SiGeCoupling:
    """Binds (young_modulus, density) of one layer to the 'c_ge' parameter."""

    layer_index: int = 0


def apply_coupling(c_ge: float) -> tuple[float, float]:
    """(Young's modulus, density) of the film at the given germanium fraction."""
    return mix_young_modulus(c_ge), mix_density(c_ge)


@dataclass(frozen=True)
class FitProblem:
    """Template stack, free-parameter list, and the measured curve to match.

    A bound that makes an invalid stack (a germanium fraction outside
    [0, 1], a thickness, modulus or density <= 0, a Poisson ratio outside
    (-1, 0.5)) raises ``FitError`` naming its parameter.
    """

    template: LayerStack
    free: tuple[FreeParam, ...]
    measured: DispersionCurve
    coupling: SiGeCoupling | None = None

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        if not self.free:
            raise FitError("fit problem has no free parameters")
        names = [p.name for p in self.free]
        if len(set(names)) != len(names):
            raise FitError(f"duplicate free parameter names in {names}")
        for p in self.free:
            self._check_name(p.name)
        # each field's valid values are an interval, and no field's depend
        # on another's, so valid bounds make every point of the box valid
        for p in self.free:
            for bound in (p.lower, p.upper):
                try:
                    self.realize({p.name: bound})
                except MaterialError as exc:
                    raise FitError(str(exc), p.name) from None
        if len(self.measured) == 0:
            raise FitError("measured curve is empty")

    def _check_name(self, name: str) -> None:
        if name == "c_ge":
            if self.coupling is None:
                raise FitError("requires a SiGeCoupling binding", name)
            idx = self.coupling.layer_index
            if not 0 <= idx < len(self.template.layers):
                raise FitError(f"coupling layer index {idx} out of range", name)
            if not isinstance(self.template.layers[idx].material, IsotropicMaterial):
                raise FitError(f"coupled layer {idx} is not isotropic", name)
            for p in self.free:
                if p.name in (f"layer{idx}.young_modulus", f"layer{idx}.density"):
                    raise FitError("c_ge sets it too, through the coupling", p.name)
            return
        m = _LAYER_FIELD.match(name)
        if not m:
            raise FitError("unknown parameter name", name)
        idx = int(m.group(1))
        if not 0 <= idx < len(self.template.layers):
            raise FitError("layer index out of range", name)
        if m.group(2) != "thickness" and not isinstance(
            self.template.layers[idx].material, IsotropicMaterial
        ):
            raise FitError("material fields are fittable on isotropic layers only", name)

    @property
    def sigmas(self) -> np.ndarray:
        """Per-point velocity sigmas of the measured curve, 1 m/s if it has none."""
        if self.measured.sigmas is not None:
            return np.asarray(self.measured.sigmas)
        return np.ones(len(self.measured))

    def realize(self, params: Mapping[str, float]) -> LayerStack:
        """Stack with the named parameter values applied to the template."""
        materials, thicknesses = self._members(params)
        return replace(self.template, layers=tuple(map(Layer, materials, thicknesses)))

    def _members(self, params: Mapping[str, float]) -> tuple[list, list]:
        """(materials, thicknesses) of the template's layers, surface-first,
        with the named parameter values applied."""
        unknown = set(params) - {p.name for p in self.free}
        if unknown:
            raise FitError(f"unknown parameter(s) {sorted(unknown)}")
        materials = [layer.material for layer in self.template.layers]
        thicknesses = [layer.thickness for layer in self.template.layers]
        if "c_ge" in params:
            idx = self.coupling.layer_index
            e, rho = apply_coupling(params["c_ge"])
            materials[idx] = replace(materials[idx], young_modulus=e, density=rho)
        for name, value in params.items():
            m = _LAYER_FIELD.match(name)
            if not m:
                continue
            idx, attr = int(m.group(1)), m.group(2)
            if attr == "thickness":
                thicknesses[idx] = value
            else:
                materials[idx] = replace(materials[idx], **{attr: value})
        return materials, thicknesses


def residuals(problem: FitProblem, params: Mapping[str, float]) -> np.ndarray:
    """Weighted velocity residuals (model - measured)/sigma at the measured points.

    The model roots are searched around the measured velocities v moved one
    Newton step of the model's pole indicator q, v - q / (dq/dv), with q
    and dq/dv from one batch at v(1 +- 1e-7), the Jacobian's v-stencil.  A
    point whose step is not finite or leaves ``velocity_window`` keeps its
    measured velocity.  A model whose root lies near its measured point is
    then found in the narrow hint windows; a measured point on another
    branch leads to that branch's root, as any hint does.  A step that
    overshoots, where q is nearly flat or a pole lies close by, can lead to
    another branch's root, or to a scan, at a point whose measured velocity
    alone would have found the root in its windows.
    """
    for p in problem.free:
        if p.name in params and not p.lower <= params[p.name] <= p.upper:
            raise FitError(
                f"{p.name} = {params[p.name]} outside bounds [{p.lower}, {p.upper}]"
            )
    _check_frequencies(np.asarray(problem.measured.frequencies))
    stack = problem.realize(params)
    prep = _prepare(stack)
    v = np.asarray(problem.measured.velocities, dtype=float)
    q_up, q_dn, dq_dv, _ = _v_stencil(problem, prep, v, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        hints = v - 0.5 * (q_up + q_dn) / dq_dv
        inside = (prep.v_floor <= hints) & (hints <= prep.v_ceiling)  # False at NaN
    return _residuals(problem, stack, np.where(inside, hints, v))


def _residuals(problem: FitProblem, stack: LayerStack, hints) -> np.ndarray:
    """``residuals`` of the model ``stack`` with its roots searched around
    ``hints`` (m/s, one per point) and no mode count below the points it
    scans."""
    freqs = np.asarray(problem.measured.frequencies)
    roots, _ = _curve_roots(stack, freqs, hints)
    return (roots - np.asarray(problem.measured.velocities)) / problem.sigmas


def _v_stencil(problem: FitProblem, prep, v: np.ndarray, count: int):
    """One ``_indicator`` batch on ``prep``, one stack or ``count`` stacks
    joined along the measured points: at v(1 +- ``_ROOT_STEP``) on the first
    two, v (m/s) one velocity per point, and at v on the others.  Returns
    (q_up, q_dn, dq/dv, [q of each further stack])."""
    freqs = np.asarray(problem.measured.frequencies)
    stencil_v = [v * (1.0 + _ROOT_STEP), v * (1.0 - _ROOT_STEP)] + [v] * (count - 2)
    q = _indicator(prep, np.tile(freqs, count), np.concatenate(stencil_v))
    q_up, q_dn, *rest = q.reshape(count, v.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        return q_up, q_dn, (q_up - q_dn) / (2.0 * _ROOT_STEP * v), rest


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Per-parameter conditioning diagnostics of the weighted Jacobian."""

    flags: dict[str, str]
    sensitivities: dict[str, float]
    condition_number: float
    singular_values: tuple[float, ...]
    recommendation: str


@dataclass(frozen=True, eq=False)
class FitResult:
    """Estimates with covariance, convergence record, and identifiability flags."""

    estimates: dict[str, float]
    covariance: np.ndarray
    residuals: np.ndarray  # m/s, unweighted, model - measured per point
    residual_rms: float  # m/s, unweighted
    n_iterations: int
    identifiability: dict[str, str]
    converged: bool
    message: str
    bound_hits: tuple[str, ...] = ()
    # indices of the points with a mode counted below the final model
    # velocity: there the model may follow a higher mode
    lower_modes: tuple[int, ...] = ()

    def sigma(self, name: str) -> float:
        """1-sigma uncertainty of one estimate from the covariance diagonal."""
        if name not in self.estimates:
            raise FitError("unknown parameter", name)
        idx = list(self.estimates).index(name)
        return math.sqrt(max(self.covariance[idx, idx], 0.0))


def _values(free: tuple[FreeParam, ...], theta: np.ndarray) -> dict[str, float]:
    return {p.name: float(t) for p, t in zip(free, theta)}


def _scales(problem: FitProblem, theta) -> np.ndarray:
    """Scale s of each free parameter at ``theta``, its values in order:
    max(|theta|, 1e-3 (upper - lower)).  The fit works on J diag(s)."""
    return np.array([max(abs(t), 1e-3 * (p.upper - p.lower)) for p, t in zip(problem.free, theta)])


def _stencil(problem: FitProblem, values: dict[str, float]):
    """(up, down) parameter sets of each column's central difference, a
    step of ``_FD_STEP`` times the parameter's scale clamped at the bounds."""
    steps = _FD_STEP * _scales(problem, values.values())
    for p, h in zip(problem.free, steps):
        theta = values[p.name]
        yield (
            {**values, p.name: min(theta + h, p.upper)},
            {**values, p.name: max(theta - h, p.lower)},
        )


def _model(problem: FitProblem, r: np.ndarray) -> np.ndarray:
    """Model velocities (m/s) from the weighted residuals ``r``."""
    return np.asarray(problem.measured.velocities) + r * problem.sigmas


def _jacobian(
    problem: FitProblem, values: dict[str, float], model: np.ndarray
) -> np.ndarray:
    """Implicit Jacobian of the weighted residuals with respect to the
    parameters in their original units, at the model velocities ``model``
    (m/s) of ``values``.  Each must be a root that a curve solve accepted,
    closed to 1e-12 relative and so 1e5 times inside the v-stencil of
    +-1e-7, as the fit's start, trial steps and iteration cap and
    ``identifiability_report`` all pass.  ``_indicator`` may return NaN:
    DegeneratePointError names the points where an entry is not finite."""
    v = np.asarray(model, dtype=float)
    stencil = list(_stencil(problem, values))
    template = problem.template

    def members(params):
        materials, thicknesses = problem._members(params)
        return _stack_media(materials + [template.substrate], template.geometry), thicknesses

    # the v-stencil on the centre stack, then each parameter's up and down
    # stack at v, all in one batch
    centre = members(values)
    stacks = [centre, centre] + [members(s) for pair in stencil for s in pair]
    prep = _joined(stacks, [v.size] * len(stacks))
    _, _, dq_dv, q_theta = _v_stencil(problem, prep, v, len(stacks))
    cols = [-(q_p - q_m) / (up[p.name] - dn[p.name]) / dq_dv
            for p, (up, dn), q_p, q_m in zip(problem.free, stencil, q_theta[::2], q_theta[1::2])]
    jac = np.column_stack(cols) / problem.sigmas[:, None]
    bad = [int(j) for j in np.flatnonzero(~np.isfinite(jac).all(axis=1))]
    if bad:
        mhz = ", ".join(f"{problem.measured.frequencies[j] / 1e6:.6g}" for j in bad)
        raise DegeneratePointError(f"fit Jacobian not finite at {mhz} MHz (point indices {bad})")
    return jac


def identifiability_report(
    problem: FitProblem, params: Mapping[str, float]
) -> IdentifiabilityReport:
    """SVD-based flags for parameters the measured curve barely constrains.

    Columns of the weighted Jacobian are scaled to relative parameter
    changes before the SVD, so sensitivities compare fractional effects.
    A parameter is weakly determined when its relative sensitivity falls
    below 1e-3, or when the condition number exceeds 30: the near-null
    singular direction then marks one unconstrained parameter combination,
    and the least sensitive of its participants is flagged (repeatedly,
    until the remainder conditions).  ``params`` must name every free
    parameter and no other.
    """
    missing = [p.name for p in problem.free if p.name not in params]
    if missing:
        raise FitError(f"missing parameter(s) {missing}")
    values = {p.name: float(params[p.name]) for p in problem.free}
    jac = _jacobian(problem, values, _model(problem, residuals(problem, params)))
    return _identifiability(problem, jac * _scales(problem, values.values()))


def _identifiability(problem: FitProblem, jt: np.ndarray) -> IdentifiabilityReport:
    """The flags of ``identifiability_report`` from the Jacobian J diag(s)."""
    sens = np.linalg.norm(jt, axis=0)
    top = sens.max() if sens.size else 0.0
    rel = sens / top if top > 0 else np.zeros_like(sens)
    svals = np.linalg.svd(jt, compute_uv=False)
    cond = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])

    n = len(problem.free)
    flags = {p.name: WELL_DETERMINED for p in problem.free}
    active = [j for j in range(n)]
    for j, p in enumerate(problem.free):
        if rel[j] < _SENSITIVITY_FLOOR:
            flags[p.name] = WEAKLY_DETERMINED
            active.remove(j)
    while len(active) >= 2:
        _, s_act, vt_act = np.linalg.svd(jt[:, active], full_matrices=False)
        cond_act = float("inf") if s_act[-1] == 0 else float(s_act[0] / s_act[-1])
        if cond_act <= _CONDITION_LIMIT:
            break
        part = np.abs(vt_act[-1])
        cands = [
            active[pos]
            for pos in range(len(active))
            if part[pos] ** 2 > 1.0 / (2.0 * len(active))
        ] or list(active)
        drop = min(cands, key=lambda j: sens[j])
        flags[problem.free[drop].name] = WEAKLY_DETERMINED
        active.remove(drop)
    weak_names = [k for k, v in flags.items() if v == WEAKLY_DETERMINED]
    if weak_names:
        rec = (
            "fix weakly-determined parameter(s) "
            + ", ".join(weak_names)
            + " and refit the remainder"
        )
    else:
        rec = "all free parameters are well determined"
    return IdentifiabilityReport(
        flags=flags,
        sensitivities={p.name: float(rel[j]) for j, p in enumerate(problem.free)},
        condition_number=cond,
        singular_values=tuple(float(s) for s in svals),
        recommendation=rec,
    )


def _covariance_scaled(problem: FitProblem) -> bool:
    """True when the covariance is scaled by chi^2/(N - p): no sigmas, N > p.

    Given sigmas are taken as absolute.  Without them the weights assume
    sigma = 1 m/s, so the residual scatter sets the scale instead; at
    N = p there is no scatter to read and the covariance stays unscaled.
    """
    return problem.measured.sigmas is None and len(problem.measured) > len(problem.free)


def fit_parameters(problem: FitProblem) -> FitResult:
    """Projected Gauss-Newton minimization of the weighted residuals.

    Each iteration's Jacobian J is factored once, P = S (J S)^+ with S the
    diagonal of the parameter scales (module docstring), and gives the
    Gauss-Newton step -P r, re-solved with the parameters held that sit on a
    bound it points out of.  The fit converges on the first step whose
    promised cost drop ||J step||^2 is at most ``_FINISH_DROP``, which
    resolves the minimum to about sigma * rounding noise, where cost
    comparisons reach sigma * sqrt(noise); it takes that step with its
    residuals following it linearly.  Otherwise the trials are
    theta + 2^-k step for k = 0..29, clamped to the bounds, and the first
    that lowers the cost is taken; when none does, the fit ends unconverged,
    as it does after ``_MAX_ITER`` accepted trials.  The covariance is P P^T
    of the Jacobian the fit ends on.  Parameters left on a bound are
    reported in ``bound_hits``.  The start searches its model roots around
    the measured velocities moved one Newton step of the start model's pole
    indicator (``residuals``), and each trial around the velocities the
    Jacobian predicts for it.  At the solution one mode count just below the
    model velocities, at their own wavenumbers, lists the points with a
    lower mode in ``lower_modes``.
    """
    free = problem.free
    n = len(free)
    if len(problem.measured) < n:
        raise FitError(
            f"{len(problem.measured)} measured points cannot constrain {n} parameters"
        )
    lower = np.array([p.lower for p in free])
    upper = np.array([p.upper for p in free])
    theta = np.array([p.initial for p in free])
    r = residuals(problem, _values(free, theta))
    cost = float(r @ r)
    converged = False
    it = 0
    while True:
        jac = _jacobian(problem, _values(free, theta), _model(problem, r))
        s = _scales(problem, theta)
        pinv = s[:, None] * np.linalg.pinv(jac * s)
        if it == _MAX_ITER:
            message = "iteration cap reached"
            break
        it += 1
        delta = -pinv @ r
        held = ((theta == lower) & (delta < 0)) | ((theta == upper) & (delta > 0))
        if held.any():
            delta[held] = 0.0
            delta[~held] = s[~held] * np.linalg.lstsq(jac[:, ~held] * s[~held], -r, rcond=None)[0]
        drop = jac @ delta
        if drop @ drop <= _FINISH_DROP:
            theta_new = np.clip(theta + delta, lower, upper)
            r = r + jac @ (theta_new - theta)
            theta = theta_new
            converged = True
            message = f"converged (promised cost drop <= {_FINISH_DROP:g})"
            break
        for k in range(30):
            theta_new = np.clip(theta + 0.5**k * delta, lower, upper)
            r_new = _residuals(problem, problem.realize(_values(free, theta_new)),
                               _model(problem, r + jac @ (theta_new - theta)))
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                break
        else:
            message = "no step lowered the cost"
            break
        theta, r, cost = theta_new, r_new, cost_new

    values = _values(free, theta)
    model = _model(problem, r)
    bound_hits = tuple(
        p.name
        for p in free
        if values[p.name] in (p.lower, p.upper)
    )
    dv = r * problem.sigmas
    covariance = pinv @ pinv.T
    if _covariance_scaled(problem):
        covariance *= float(r @ r) / (len(problem.measured) - len(free))
    report = _identifiability(problem, jac * s)
    flags = dict(report.flags)
    for name in bound_hits:
        flags[name] = FIXED
    return FitResult(
        estimates=values,
        covariance=covariance,
        residuals=dv,
        residual_rms=float(np.sqrt(np.mean(dv**2))),
        n_iterations=it,
        identifiability=flags,
        converged=converged,
        message=message,
        bound_hits=bound_hits,
        lower_modes=_lower_modes(problem.realize(values),
                                 np.asarray(problem.measured.frequencies), model),
    )


# --- reporting -------------------------------------------------------------------


def format_fit_report(problem: FitProblem, result: FitResult) -> str:
    """Human-readable fit report: inputs, estimates, covariance, residual table."""
    lines = ["fit report", "=" * 10, "", "inputs"]
    lines.append(f"  measured points: {len(problem.measured)}")
    lo, hi = problem.measured.band
    lines.append(f"  frequency band: {lo / 1e6:.6g} .. {hi / 1e6:.6g} MHz")
    lines.append(f"  layers in template: {len(problem.template.layers)}")
    for p in problem.free:
        lines.append(
            f"  free: {p.name} start {p.initial:.6g} bounds [{p.lower:.6g}, {p.upper:.6g}]"
        )
    lines += ["", "estimates (+- 1 sigma)"]
    for name, value in result.estimates.items():
        lines.append(
            f"  {name} = {value:.8g} +- {result.sigma(name):.3g}"
            f"  [{result.identifiability.get(name, '?')}]"
        )
    lines += ["", f"residual rms: {result.residual_rms:.6g} m/s"]
    lines.append(f"degrees of freedom: {len(problem.measured) - len(problem.free)}")
    if problem.measured.sigmas is not None:
        mode = "absolute (measured sigmas)"
    elif _covariance_scaled(problem):
        mode = "scaled by chi^2/(N - p) (no measured sigmas)"
    else:
        mode = "unscaled, sigma = 1 m/s assumed (no measured sigmas, N = p)"
    lines.append(f"covariance mode: {mode}")
    lines.append(f"iterations: {result.n_iterations}")
    lines.append(f"status: {result.message}")
    lines += ["", "covariance"]
    names = list(result.estimates)
    lines.append("  " + " ".join(f"{n:>18s}" for n in names))
    for i, name in enumerate(names):
        row = " ".join(f"{result.covariance[i, j]:18.6e}" for j in range(len(names)))
        lines.append(f"  {row}  {name}")
    lines += ["", "residuals"]
    lines.append("  freq_mhz   measured_m_s      model_m_s     delta_m_s")
    dv = result.residuals
    for i, (f, v) in enumerate(
        zip(problem.measured.frequencies, problem.measured.velocities)
    ):
        lines.append(f"  {f / 1e6:8.3f} {v:14.4f} {v + dv[i]:14.4f} {dv[i]:13.4f}")
    weak = [n for n, f in result.identifiability.items() if f != WELL_DETERMINED]
    if weak:
        lines += ["", f"warning: parameter(s) {', '.join(weak)} are not well determined"]
    if result.lower_modes:
        mhz = ", ".join(f"{problem.measured.frequencies[j] / 1e6:.6g}"
                        for j in result.lower_modes)
        lines += ["", f"warning: a lower mode lies below the model at {mhz} MHz "
                      f"(point indices {list(result.lower_modes)}); the model may "
                      "follow a higher mode there"]
    return "\n".join(lines) + "\n"


def write_estimates_csv(result: FitResult, path: str | Path) -> None:
    lines = ["parameter,estimate,sigma,flag"]
    for name, value in result.estimates.items():
        lines.append(
            f"{name},{value!r},{result.sigma(name)!r},{result.identifiability.get(name, '')}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
