"""Weighted least-squares fitting of stack parameters to a measured
dispersion curve, with identifiability diagnostics.

Free parameters address the stack template by name:

* ``c_ge`` — germanium fraction, coupled to the film's Young's modulus and
  density through the linear mixing rules (requires a coupling binding),
* ``layer<i>.thickness``, ``layer<i>.young_modulus``,
  ``layer<i>.poisson_ratio``, ``layer<i>.density`` — direct layer fields
  in SI units.

The minimizer is a damped Gauss-Newton (Levenberg-style) iteration with
box bounds enforced by clamping.  One Jacobian, taken in the parameters'
original units, serves every purpose: the iteration steps in internal
coordinates z, which for a ``transform="log"`` parameter is log(theta), and
reaches them by the chain rule dr/dz = dr/dtheta * theta.  A converged fit
ends with one small undamped Gauss-Newton step (``_finish``).  At the
solution the same Jacobian is computed once and gives both the covariance
and the identifiability flags, whose thresholds are the module constants
below.  The covariance takes given sigmas as absolute; without sigmas it is
scaled by chi^2/(N - p).

The Jacobian needs no curve solve.  Each model velocity v* the fit holds is
a root of the pole indicator q = Im(1/u3), so by the implicit function
theorem dv*/dtheta = -(dq/dtheta)/(dq/dv) at (f, v*).  dq/dv is a central
difference at v*(1 +- 1e-7) and dq/dtheta one over the parameter step at
fixed v*: 1 + 2p batched indicator evaluations for p parameters.  Only when
q does not change sign across some root's v-stencil, or an entry is not
finite, is the whole Jacobian taken as central differences of re-solved
roots (2p curve solves).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .dispersion import DispersionCurve, dispersion_curve, pole_indicator_at
from .errors import FitError
from .materials import IsotropicMaterial, LayerStack, mix_density, mix_young_modulus

WELL_DETERMINED = "well-determined"
WEAKLY_DETERMINED = "weakly-determined"
FIXED = "fixed"

_LAYER_FIELD = re.compile(
    r"^layer(\d+)\.(thickness|young_modulus|poisson_ratio|density)$"
)

# Central-difference step of the Jacobian, relative to each parameter value.
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
# Largest cost drop (chi^2 units) the final Gauss-Newton step may promise:
# one that small cannot be told from the model's rounding noise by a cost
# evaluation, so it is taken without one.
_FINISH_DROP = 1e-6


@dataclass(frozen=True)
class FreeParam:
    """One fitted parameter with bounds and an optional log transform."""

    name: str
    initial: float
    lower: float
    upper: float
    transform: str = "linear"

    def __post_init__(self):
        if self.transform not in ("linear", "log"):
            raise FitError(f"{self.name}: transform must be 'linear' or 'log'")
        if not all(map(math.isfinite, (self.initial, self.lower, self.upper))):
            raise FitError(f"{self.name}: initial value and bounds must be finite")
        if not self.lower < self.upper:
            raise FitError(f"{self.name}: bounds must satisfy lower < upper")
        if not self.lower <= self.initial <= self.upper:
            raise FitError(
                f"{self.name}: initial {self.initial} outside [{self.lower}, {self.upper}]"
            )
        if self.transform == "log" and self.lower <= 0:
            raise FitError(f"{self.name}: log transform requires a positive lower bound")


@dataclass(frozen=True)
class SiGeCoupling:
    """Binds (young_modulus, density) of one layer to the 'c_ge' parameter."""

    layer_index: int = 0


def apply_coupling(c_ge: float) -> tuple[float, float]:
    """(Young's modulus, density) of the film at the given germanium fraction."""
    return mix_young_modulus(c_ge), mix_density(c_ge)


@dataclass(frozen=True)
class FitProblem:
    """Template stack, free-parameter list, and the measured curve to match."""

    template: LayerStack
    free: tuple[FreeParam, ...]
    measured: DispersionCurve
    coupling: SiGeCoupling | None = None

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        names = [p.name for p in self.free]
        if len(set(names)) != len(names):
            raise FitError(f"duplicate free parameter names in {names}")
        for p in self.free:
            self._check_name(p.name)
        if len(self.measured) == 0:
            raise FitError("measured curve is empty")

    def _check_name(self, name: str) -> None:
        if name == "c_ge":
            if self.coupling is None:
                raise FitError("'c_ge' requires a SiGeCoupling binding")
            if not 0 <= self.coupling.layer_index < len(self.template.layers):
                raise FitError(
                    f"coupling layer index {self.coupling.layer_index} out of range"
                )
            return
        m = _LAYER_FIELD.match(name)
        if not m:
            raise FitError(f"unknown parameter name {name!r}")
        idx = int(m.group(1))
        if not 0 <= idx < len(self.template.layers):
            raise FitError(f"{name!r}: layer index out of range")
        if m.group(2) != "thickness" and not isinstance(
            self.template.layers[idx].material, IsotropicMaterial
        ):
            raise FitError(f"{name!r}: material fields are fittable on isotropic layers only")

    @property
    def sigmas(self) -> np.ndarray:
        """Per-point velocity sigmas of the measured curve, 1 m/s if it has none."""
        if self.measured.sigmas is not None:
            return np.asarray(self.measured.sigmas)
        return np.ones(len(self.measured))

    def realize(self, params: Mapping[str, float]) -> LayerStack:
        """Stack with the named parameter values applied to the template."""
        unknown = set(params) - {p.name for p in self.free}
        if unknown:
            raise FitError(f"unknown parameter(s) {sorted(unknown)}")
        stack = self.template
        if "c_ge" in params:
            idx = self.coupling.layer_index
            e, rho = apply_coupling(params["c_ge"])
            layer = stack.layers[idx]
            mat = replace(layer.material, young_modulus=e, density=rho)
            stack = stack.with_layer(idx, replace(layer, material=mat))
        for name, value in params.items():
            m = _LAYER_FIELD.match(name)
            if not m:
                continue
            idx, attr = int(m.group(1)), m.group(2)
            layer = stack.layers[idx]
            if attr == "thickness":
                stack = stack.with_layer(idx, replace(layer, thickness=value))
            else:
                mat = replace(layer.material, **{attr: value})
                stack = stack.with_layer(idx, replace(layer, material=mat))
        return stack


def residuals(problem: FitProblem, params: Mapping[str, float]) -> np.ndarray:
    """Weighted velocity residuals (model - measured)/sigma at the measured points."""
    for p in problem.free:
        if p.name in params and not p.lower <= params[p.name] <= p.upper:
            raise FitError(
                f"{p.name} = {params[p.name]} outside bounds [{p.lower}, {p.upper}]"
            )
    stack = problem.realize(params)
    model = dispersion_curve(
        stack, problem.measured.frequencies, hints=problem.measured.velocities
    )
    dv = np.asarray(model.velocities) - np.asarray(problem.measured.velocities)
    return dv / problem.sigmas


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

    def sigma(self, name: str) -> float:
        """1-sigma uncertainty of one estimate from the covariance diagonal."""
        idx = list(self.estimates).index(name)
        return math.sqrt(max(self.covariance[idx, idx], 0.0))


def _to_internal(p: FreeParam, value: float) -> float:
    return math.log(value) if p.transform == "log" else value


def _from_internal(p: FreeParam, z: float) -> float:
    v = math.exp(z) if p.transform == "log" else float(z)
    return min(max(v, p.lower), p.upper)


def _values(free: tuple[FreeParam, ...], z: np.ndarray) -> dict[str, float]:
    return {p.name: _from_internal(p, z[i]) for i, p in enumerate(free)}


def _stencil(problem: FitProblem, values: dict[str, float]):
    """(up, down) parameter sets of each column's central difference, with
    the step clamped at the bounds."""
    for p in problem.free:
        theta = values[p.name]
        h = _FD_STEP * max(abs(theta), 1e-3 * (p.upper - p.lower))
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
    """Jacobian of the weighted residuals with respect to the parameters in
    their original units, at the model velocities ``model`` (m/s) of
    ``values``: implicit at the roots, or ``_fd_jacobian`` where the module
    docstring's fallback condition holds."""
    freqs = np.asarray(problem.measured.frequencies)
    v = np.asarray(model, dtype=float)
    n = v.size
    q = pole_indicator_at(
        problem.realize(values),
        np.tile(freqs, 2),
        np.concatenate([v * (1.0 + _ROOT_STEP), v * (1.0 - _ROOT_STEP)]),
    )
    q_up, q_dn = q[:n], q[n:]
    if not (q_up * q_dn < 0).all():
        return _fd_jacobian(problem, values)
    dq_dv = (q_up - q_dn) / (2.0 * _ROOT_STEP * v)
    cols = []
    for p, (up, dn) in zip(problem.free, _stencil(problem, values)):
        q_p = pole_indicator_at(problem.realize(up), freqs, v)
        q_m = pole_indicator_at(problem.realize(dn), freqs, v)
        cols.append(-(q_p - q_m) / (up[p.name] - dn[p.name]) / dq_dv)
    jac = np.column_stack(cols) / problem.sigmas[:, None]
    if not np.isfinite(jac).all():
        return _fd_jacobian(problem, values)
    return jac


def _fd_jacobian(problem: FitProblem, values: dict[str, float]) -> np.ndarray:
    """Central finite-difference Jacobian of the weighted residuals, two
    curve solves per column: the fallback of ``_jacobian``."""
    cols = []
    for p, (up, dn) in zip(problem.free, _stencil(problem, values)):
        denom = up[p.name] - dn[p.name]
        cols.append((residuals(problem, up) - residuals(problem, dn)) / denom)
    return np.column_stack(cols)


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
    until the remainder conditions).
    """
    values = {p.name: float(params[p.name]) for p in problem.free}
    model = _model(problem, residuals(problem, values))
    return _identifiability(problem, values, _jacobian(problem, values, model))


def _identifiability(
    problem: FitProblem, values: dict[str, float], jac: np.ndarray
) -> IdentifiabilityReport:
    """The flags of ``identifiability_report`` from a Jacobian at ``values``."""
    scales = np.array(
        [max(abs(values[p.name]), 1e-3 * (p.upper - p.lower)) for p in problem.free]
    )
    jt = jac * scales
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


def _finish(
    free: tuple[FreeParam, ...], values: dict[str, float], jac: np.ndarray, r: np.ndarray
) -> tuple[dict[str, float], np.ndarray]:
    """Estimates and weighted residuals after one undamped Gauss-Newton step.

    At the minimum the cost changes by less than the rounding noise of the
    roots, so comparing costs pins the estimates only to about
    sigma * sqrt(noise): two starts, or a linear and a log parameter, stop
    at points that differ by that much.  The step -J^+ r from the Jacobian
    in hand resolves the minimum to about sigma * noise.  It is taken only
    when it promises a cost drop below _FINISH_DROP; parameters at a bound
    stay there, and the residuals follow the step linearly.
    """
    theta = np.array([values[p.name] for p in free])
    movable = np.array([p.lower < t < p.upper for p, t in zip(free, theta)])
    if not movable.any():
        return values, r
    step = np.zeros(len(free))
    step[movable] = np.linalg.lstsq(jac[:, movable], -r, rcond=None)[0]
    drop = jac @ step
    if not drop @ drop <= _FINISH_DROP:
        return values, r
    new = np.clip(theta + step, [p.lower for p in free], [p.upper for p in free])
    return {p.name: float(t) for p, t in zip(free, new)}, r + jac @ (new - theta)


def _covariance_scaled(problem: FitProblem) -> bool:
    """True when the covariance is scaled by chi^2/(N - p): no sigmas, N > p.

    Given sigmas are taken as absolute.  Without them the weights assume
    sigma = 1 m/s, so the residual scatter sets the scale instead; at
    N = p there is no scatter to read and the covariance stays unscaled.
    """
    return problem.measured.sigmas is None and len(problem.measured) > len(problem.free)


def fit_parameters(
    problem: FitProblem,
    *,
    max_iter: int = 200,
    step_tol: float = 1e-6,
    cost_tol: float = 1e-10,
) -> FitResult:
    """Damped Gauss-Newton minimization of the weighted residuals.

    Damping adapts by factors of 10; bounds are enforced by clamping, and
    parameters pinned at a bound are reported in ``bound_hits``.
    Convergence requires a relative step below ``step_tol`` or a relative
    cost change below ``cost_tol``.
    """
    free = problem.free
    n = len(free)
    if len(problem.measured) < n:
        raise FitError(
            f"{len(problem.measured)} measured points cannot constrain {n} parameters"
        )
    z = np.array([_to_internal(p, p.initial) for p in free])
    r = residuals(problem, _values(free, z))
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    message = "iteration cap reached"
    it = 0
    for it in range(1, max_iter + 1):
        values = _values(free, z)
        dtheta_dz = [values[p.name] if p.transform == "log" else 1.0 for p in free]
        jac_theta = _jacobian(problem, values, _model(problem, r))
        jac = jac_theta * dtheta_dz
        jtj = jac.T @ jac
        jtr = jac.T @ r
        accepted = False
        for _ in range(30):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30))
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam = min(lam * 10.0, 1e12)
                continue
            z_new = z + delta
            vals_new = _values(free, z_new)
            # re-internalize after clamping so bound hits stay consistent
            z_new = np.array([_to_internal(p, vals_new[p.name]) for p in free])
            r_new = residuals(problem, vals_new)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                accepted = True
                lam = max(lam / 10.0, 1e-12)
                break
            lam = min(lam * 10.0, 1e12)
        if not accepted:
            # no strictly lower point found: accept as converged when the
            # residual is orthogonal to the Jacobian columns (at the minimum)
            col_norm = np.linalg.norm(jac, axis=0) * max(np.linalg.norm(r), 1e-300)
            g_rel = float((np.abs(jtr) / np.maximum(col_norm, 1e-300)).max())
            converged = g_rel < 1e-4
            message = (
                "converged (residual orthogonal to Jacobian)"
                if converged
                else "damping saturated without improvement"
            )
            break
        step = np.abs(z_new - z) / np.maximum(np.abs(z_new), 1.0)
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        z, r, cost = z_new, r_new, cost_new
        if step.max() < step_tol:
            converged = True
            message = f"converged (relative step < {step_tol:g})"
            break
        if rel_drop < cost_tol:
            converged = True
            message = f"converged (relative cost change < {cost_tol:g})"
            break

    values = _values(free, z)
    if converged:
        # the last iteration's Jacobian, at most one small step away
        values, r = _finish(free, values, jac_theta, r)
    jac = _jacobian(problem, values, _model(problem, r))
    bound_hits = tuple(
        p.name
        for p in free
        if values[p.name] in (p.lower, p.upper)
    )
    dv = r * problem.sigmas
    covariance = np.linalg.pinv(jac.T @ jac)
    covariance = 0.5 * (covariance + covariance.T)
    if _covariance_scaled(problem):
        covariance *= float(r @ r) / (len(problem.measured) - len(free))
    report = _identifiability(problem, values, jac)
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
    return "\n".join(lines) + "\n"


def write_estimates_csv(result: FitResult, path: str | Path) -> None:
    lines = ["parameter,estimate,sigma,flag"]
    for name, value in result.estimates.items():
        lines.append(
            f"{name},{value!r},{result.sigma(name)!r},{result.identifiability.get(name, '')}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
