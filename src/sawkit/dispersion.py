"""Forward SAW solver for layered half-spaces.

For fixed (omega, k) the depth dependence of harmonic fields in each medium
reduces to a 6-dimensional linear eigenproblem in the state vector
(displacement, scaled traction).  Partial waves of all media are assembled
into one global boundary matrix (free-surface source rows, interface
continuity rows, substrate decay selection), and the surface response to a
unit normal surface stress is solved directly.  Surface modes are the real
poles of that response along the velocity axis: the mode finder brackets
sign changes of Im(1/u3), from windows around velocity hints or from a
velocity scan, and refines them with Chandrupatla's bracketed
inverse-quadratic/bisection method.

Evaluating the response instead of a raw boundary determinant keeps the
mode indicator independent of eigenvector normalization, which is what
makes bracketed root finding reliable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CurveError, DegeneratePointError, FormatError, NoModeError
from .materials import (
    ElasticTensor,
    IsotropicMaterial,
    LayerStack,
    stiffness_of,
)

DEFAULT_SCAN_STEP = 5.0  # m/s
DEFAULT_REL_TOL = 1e-12  # relative bracket width at which a root is accepted
_PROP_TOL = 1e-8  # |Im alpha| below this (relative) counts as propagating
_RESIDUAL_TOL = 1e-8  # eigenpair residual above this marks a defective point
_CONTINUITY_JUMP = 0.05  # adjacent curve points differing more raise a flag

DECAYING = "decaying"
GROWING = "growing"
PROP_UP = "propagating-up"
PROP_DOWN = "propagating-down"


# --- curve container and CSV exchange format ---------------------------------

CSV_HEADER = "frequency_hz,phase_velocity_m_per_s"
CSV_HEADER_SIGMA = "frequency_hz,phase_velocity_m_per_s,sigma_m_per_s"


@dataclass(frozen=True)
class DispersionCurve:
    """Sampled (frequency, phase velocity) pairs with optional uncertainties."""

    frequencies: tuple[float, ...]
    velocities: tuple[float, ...]
    sigmas: tuple[float, ...] | None = None
    discontinuities: tuple[int, ...] = ()

    def __post_init__(self):
        f = tuple(float(x) for x in self.frequencies)
        v = tuple(float(x) for x in self.velocities)
        if len(f) != len(v):
            raise ValueError("frequencies and velocities must have equal length")
        if any(b <= a for a, b in zip(f, f[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if any(x <= 0 for x in v):
            raise ValueError("velocities must be positive")
        s = self.sigmas
        if s is not None:
            s = tuple(float(x) for x in s)
            if len(s) != len(f):
                raise ValueError("sigmas must match the number of points")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "velocities", v)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "discontinuities", tuple(self.discontinuities))

    def __len__(self) -> int:
        return len(self.frequencies)

    @property
    def band(self) -> tuple[float, float]:
        if not self.frequencies:
            raise ValueError("empty curve has no band")
        return self.frequencies[0], self.frequencies[-1]

    def interpolate(self, frequency: float) -> float:
        """Linear interpolation inside the sampled band."""
        lo, hi = self.band
        if not lo <= frequency <= hi:
            raise ValueError(
                f"frequency {frequency:.6g} Hz outside curve band [{lo:.6g}, {hi:.6g}]"
            )
        return float(np.interp(frequency, self.frequencies, self.velocities))


def dispersion_csv_text(curve: DispersionCurve) -> str:
    lines = [CSV_HEADER_SIGMA if curve.sigmas is not None else CSV_HEADER]
    for i, (f, v) in enumerate(zip(curve.frequencies, curve.velocities)):
        row = f"{f!r},{v!r}"
        if curve.sigmas is not None:
            row += f",{curve.sigmas[i]!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_dispersion_csv(curve: DispersionCurve, path: str | Path) -> None:
    Path(path).write_text(dispersion_csv_text(curve), encoding="utf-8", newline="\n")


def read_dispersion_csv(path: str | Path) -> DispersionCurve:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read dispersion CSV {path}: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file, expected header {CSV_HEADER!r}", line=1)
    header = lines[0].strip()
    if header == CSV_HEADER:
        with_sigma = False
    elif header == CSV_HEADER_SIGMA:
        with_sigma = True
    else:
        raise FormatError(
            f"{path}: bad header {header!r}, expected {CSV_HEADER!r} or {CSV_HEADER_SIGMA!r}",
            line=1,
        )
    freqs, vels, sigs = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != (3 if with_sigma else 2):
            raise FormatError(f"{path}: line {lineno}: expected "
                              f"{3 if with_sigma else 2} columns, got {len(parts)}",
                              line=lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric value in {raw!r}",
                              line=lineno) from None
        freqs.append(values[0])
        vels.append(values[1])
        if with_sigma:
            sigs.append(values[2])
    try:
        return DispersionCurve(
            frequencies=tuple(freqs),
            velocities=tuple(vels),
            sigmas=tuple(sigs) if with_sigma else None,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# --- partial waves ------------------------------------------------------------


def _qrt(cijkl: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, R, T) contractions of the stiffness tensor for x1 propagation, x3 depth."""
    return cijkl[:, 0, :, 0], cijkl[:, 0, :, 2], cijkl[:, 2, :, 2]


@dataclass(frozen=True, eq=False)
class _Medium:
    """Constant pieces of the depth-evolution operator for one medium."""

    n0: np.ndarray  # v-independent part of the 6x6 operator
    rho_scaled: float  # rho / c_ref, multiplies v^2 on the lower-left diagonal
    c_ref: float

    @classmethod
    def build(cls, tensor: ElasticTensor, rho: float, c_ref: float) -> "_Medium":
        q, r, t = _qrt(tensor.as_cijkl())
        t_inv = np.linalg.inv(t)
        n0 = np.zeros((6, 6))
        n0[:3, :3] = -t_inv @ r.T
        n0[:3, 3:] = t_inv * c_ref
        n0[3:, :3] = (-q + r @ t_inv @ r.T) / c_ref
        n0[3:, 3:] = -r @ t_inv
        return cls(n0=n0, rho_scaled=rho / c_ref, c_ref=c_ref)

    def operator(self, v: np.ndarray) -> np.ndarray:
        """Stacked 6x6 operators for velocities v (...,)."""
        v = np.asarray(v, dtype=float)
        n = np.broadcast_to(self.n0, v.shape + (6, 6)).copy()
        rv2 = self.rho_scaled * v * v
        for i in range(3):
            n[..., 3 + i, i] += rv2
        return n


def _eig_sorted(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of stacked operators, ordered by (Im, Re) of the eigenvalue."""
    vals, vecs = np.linalg.eig(n)
    order = np.argsort(vals.imag + 1j * vals.real, axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return vals, vecs


def _wave_fields(
    med: _Medium, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, displacement/traction rows, vertical flux and validity.

    Returns (alpha (m,6), a (m,3,6), b (m,3,6) scaled by 1/c_ref,
    flux (m,6), valid (m,)).  Rows failing the residual or independence
    check after one deterministic velocity nudge are marked invalid.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = med.operator(v)
    alpha, vecs = _eig_sorted(n)
    resid = np.linalg.norm(n @ vecs - vecs * alpha[:, None, :], axis=(1, 2))
    scale = np.linalg.norm(n, axis=(1, 2))
    bad = resid > _RESIDUAL_TOL * scale
    if not bad.any():
        dets = np.abs(np.linalg.det(vecs))
        bad |= dets < 1e-14
    if bad.any():
        # isolated degenerate points: nudge v by one part in 1e9 and re-solve
        n2 = med.operator(v[bad] * (1.0 + 1e-9))
        a2, v2 = _eig_sorted(n2)
        alpha[bad], vecs[bad] = a2, v2
        resid2 = np.linalg.norm(n2 @ v2 - v2 * a2[:, None, :], axis=(1, 2))
        still = np.zeros_like(bad)
        still[bad] = resid2 > _RESIDUAL_TOL * np.linalg.norm(n2, axis=(1, 2))
        valid = ~still
    else:
        valid = np.ones(v.shape, dtype=bool)
    a = vecs[:, :3, :]
    b = vecs[:, 3:, :]
    flux = np.real(np.einsum("mij,mij->mj", np.conj(a), b))
    return alpha, a, b, flux, valid


def _masks(alpha: np.ndarray, flux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(decaying-or-downgoing, propagating) masks used for referencing/selection."""
    tol = _PROP_TOL * np.maximum(1.0, np.abs(alpha))
    prop = np.abs(alpha.imag) <= tol
    decay = alpha.imag > tol
    down = prop & (flux > 0)
    return decay | down, prop


@dataclass(frozen=True, eq=False)
class PartialWaveSet:
    """Classified depth-decay eigenpairs of one medium at fixed (omega, k).

    ``tractions`` holds the traction factors b with physical traction
    t_i3 = i*k*b_i per unit wave amplitude.  ``operator`` and
    ``eigenvectors`` are the scaled 6x6 eigensystem (displacements over
    tractions/c_scale) used for residual checks.
    """

    eigenvalues: np.ndarray  # (6,) complex, sorted by (Im, Re)
    displacements: np.ndarray  # (3, 6)
    tractions: np.ndarray  # (3, 6), Pa per unit i*k
    classifications: tuple[str, ...]
    operator: np.ndarray  # (6, 6)
    eigenvectors: np.ndarray  # (6, 6)
    c_scale: float

    def residuals(self) -> np.ndarray:
        """Per-wave relative residual of the eigenproblem."""
        r = self.operator @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return np.linalg.norm(r, axis=0) / np.linalg.norm(self.eigenvectors, axis=0)


def partial_waves(
    tensor: ElasticTensor, rho: float, omega: float, k: float
) -> PartialWaveSet:
    """All six depth partial waves of a homogeneous medium at (omega, k)."""
    if not (omega > 0 and k > 0):
        raise ValueError("omega and k must be positive")
    if not rho > 0:
        raise ValueError("rho must be positive")
    c_ref = float(np.abs(tensor.voigt).max())
    med = _Medium.build(tensor, rho, c_ref)
    v = omega / k
    alpha, a, b, flux, valid = _wave_fields(med, np.array([v]))
    if not valid[0]:
        raise DegeneratePointError(
            f"defective partial-wave eigensystem at omega={omega:.6g}, k={k:.6g}; "
            "retry with k perturbed by one part in 1e9"
        )
    tol = _PROP_TOL * np.maximum(1.0, np.abs(alpha[0]))
    tags = []
    for m in range(6):
        if alpha[0, m].imag > tol[m]:
            tags.append(DECAYING)
        elif alpha[0, m].imag < -tol[m]:
            tags.append(GROWING)
        else:
            tags.append(PROP_DOWN if flux[0, m] > 0 else PROP_UP)
    vecs = np.vstack([a[0], b[0]])
    return PartialWaveSet(
        eigenvalues=alpha[0],
        displacements=a[0],
        tractions=b[0] * c_ref,
        classifications=tuple(tags),
        operator=med.operator(np.array([v]))[0],
        eigenvectors=vecs,
        c_scale=c_ref,
    )


# --- stack preparation ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Prepared:
    media: tuple[_Medium, ...]  # layers surface-first, substrate last
    thicknesses: tuple[float, ...]
    c_ref: float
    v_floor: float
    v_ceiling: float


def _substrate_ceiling(tensor: ElasticTensor, rho: float) -> float:
    """Slowest substrate bulk wave along x1 that couples to sagittal motion.

    Branches polarized purely along x2 are decoupled from the (x1, x3)
    surface-wave problem and do not cut the mode off.
    """
    q = tensor.as_cijkl()[:, 0, :, 0]
    vals, vecs = np.linalg.eigh(q / rho)
    best = None
    for i in range(3):
        pol = vecs[:, i]
        if math.hypot(pol[0], pol[2]) > 1e-8:
            vv = math.sqrt(vals[i])
            best = vv if best is None else min(best, vv)
    return best


@lru_cache(maxsize=64)
def _prepare(stack: LayerStack) -> _Prepared:
    geometry = stack.geometry
    tensors = [stiffness_of(layer.material, geometry) for layer in stack.layers]
    rhos = [layer.material.density for layer in stack.layers]
    sub_tensor = stiffness_of(stack.substrate, geometry)
    tensors.append(sub_tensor)
    rhos.append(stack.substrate.density)
    c_ref = max(float(np.abs(t.voigt).max()) for t in tensors)
    media = tuple(
        _Medium.build(t, rho, c_ref) for t, rho in zip(tensors, rhos)
    )
    shear = [m.material.shear_velocity for m in stack.layers]
    shear.append(stack.substrate.shear_velocity)
    v_floor = 0.5 * min(shear)
    v_ceiling = _substrate_ceiling(sub_tensor, stack.substrate.density)
    return _Prepared(
        media=media,
        thicknesses=tuple(layer.thickness for layer in stack.layers),
        c_ref=c_ref,
        v_floor=v_floor,
        v_ceiling=v_ceiling,
    )


# --- global boundary matrix -----------------------------------------------------


def _assemble(
    prep: _Prepared,
    waves: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global boundary matrices for a batch of (v, k) points.

    ``waves`` holds per-medium eigendata aligned with k row-for-row.
    Returns (M (m,n,n), surface displacement rows (m,6 or 3), valid (m,)).
    """
    n_layers = len(prep.thicknesses)
    n = 6 * n_layers + 3
    m = k.shape[0]
    mat = np.zeros((m, n, n), dtype=complex)
    valid = np.ones(m, dtype=bool)

    tops: list[np.ndarray] = []
    bots: list[np.ndarray] = []
    for j in range(n_layers):
        alpha, _, _, flux, ok = waves[j]
        valid &= ok
        ref_top, _ = _masks(alpha, flux)
        phase = 1j * k[:, None] * alpha * prep.thicknesses[j]
        tops.append(np.exp(np.where(ref_top, 0.0, -phase)))
        bots.append(np.exp(np.where(ref_top, phase, 0.0)))

    alpha_s, a_s, b_s, flux_s, ok_s = waves[n_layers]
    valid &= ok_s
    accept, _ = _masks(alpha_s, flux_s)
    valid &= accept.sum(axis=1) == 3
    # stable order keeps the (Im, Re) eigen ordering among the selected waves
    sel = np.argsort(~accept, axis=1, kind="stable")[:, :3]
    a_sub = np.take_along_axis(a_s, sel[:, None, :], axis=2)
    b_sub = np.take_along_axis(b_s, sel[:, None, :], axis=2)

    if n_layers == 0:
        mat[:, 0:3, 0:3] = b_sub
        surface_rows = a_sub[:, 2, :]
        return mat, surface_rows, valid

    _, a0, b0, _, _ = waves[0]
    mat[:, 0:3, 0:6] = b0 * tops[0][:, None, :]
    surface_rows = a0[:, 2, :] * tops[0]

    for j in range(n_layers):
        rows = slice(3 + 6 * j, 9 + 6 * j)
        cols_j = slice(6 * j, 6 * j + 6)
        _, a_j, b_j, _, _ = waves[j]
        mat[:, rows.start : rows.start + 3, cols_j] = a_j * bots[j][:, None, :]
        mat[:, rows.start + 3 : rows.stop, cols_j] = b_j * bots[j][:, None, :]
        if j + 1 < n_layers:
            cols_n = slice(6 * (j + 1), 6 * (j + 1) + 6)
            _, a_n, b_n, _, _ = waves[j + 1]
            mat[:, rows.start : rows.start + 3, cols_n] = -a_n * tops[j + 1][:, None, :]
            mat[:, rows.start + 3 : rows.stop, cols_n] = -b_n * tops[j + 1][:, None, :]
        else:
            cols_n = slice(6 * n_layers, 6 * n_layers + 3)
            mat[:, rows.start : rows.start + 3, cols_n] = -a_sub
            mat[:, rows.start + 3 : rows.stop, cols_n] = -b_sub
    return mat, surface_rows, valid


def _solve_response(
    mat: np.ndarray, surface_rows: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Surface normal displacement per unit scaled normal surface stress."""
    m, n, _ = mat.shape
    rhs = np.zeros(n)
    rhs[2] = 1.0
    out = np.full(m, np.nan + 0j)
    if valid.any():
        sub = mat[valid]
        try:
            x = np.linalg.solve(sub, np.broadcast_to(rhs, sub.shape[:1] + (n,))[..., None])
            x = x[..., 0]
        except np.linalg.LinAlgError:
            x = np.empty(sub.shape[:2], dtype=complex)
            for i in range(sub.shape[0]):
                try:
                    x[i] = np.linalg.solve(sub[i], rhs)
                except np.linalg.LinAlgError:
                    x[i] = np.inf
        width = surface_rows.shape[1]
        u3 = np.einsum("mj,mj->m", surface_rows[valid], x[:, :width])
        out[valid] = u3
    return out


def _g33(prep: _Prepared, v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Batched surface response u3 at the given (v, k) points."""
    waves = [_wave_fields(med, v) for med in prep.media]
    mat, surface_rows, valid = _assemble(prep, waves, k)
    return _solve_response(mat, surface_rows, valid)


def _pole_indicator(g33: np.ndarray) -> np.ndarray:
    """Im(1/u3), which crosses zero at surface-mode poles.

    Below the substrate threshold no energy radiates, so the displacement
    response is in phase with the stress source; with the source applied in
    scaled traction units (one factor of i*k absorbed) u3 comes out purely
    imaginary and Im(1/u3) is the real, continuous mode indicator.  It is
    NaN where the response is undefined.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.imag(1.0 / g33)


def boundary_matrix(stack: LayerStack, omega: float, k: float) -> "BoundaryMatrix":
    """Assembled global boundary matrix with determinant and conditioning."""
    if not (omega > 0 and k > 0):
        raise ValueError("omega and k must be positive")
    prep = _prepare(stack)
    v = np.array([omega / k])
    kk = np.array([k])
    waves = [_wave_fields(med, v) for med in prep.media]
    mat, _, valid = _assemble(prep, waves, kk)
    if not valid[0]:
        raise DegeneratePointError(
            f"degenerate partial-wave point at omega={omega:.6g}, k={k:.6g}"
        )
    m = mat[0]
    sign, logabs = np.linalg.slogdet(m)
    n = m.shape[0]
    rhs = np.zeros(n)
    rhs[2] = 1.0
    return BoundaryMatrix(
        matrix=m,
        rhs=rhs,
        determinant=sign * np.exp(min(logabs, 700.0)),
        log_abs_det=float(logabs),
        condition_number=float(np.linalg.cond(m)),
        n_layers=len(stack.layers),
    )


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Global continuity/boundary system at one (omega, k).

    The right-hand side carries the unit normal surface stress in scaled
    traction units; tractions inside the matrix share the same scale, so
    the determinant's zeros (not its absolute normalization) are physical.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    determinant: complex
    log_abs_det: float
    condition_number: float
    n_layers: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def surface_green_g33(stack: LayerStack, omega: float, k: float) -> complex:
    """Surface normal displacement for a unit normal surface stress.

    Scale is arbitrary but consistent for a given stack; only the pole
    locations in velocity are physical.  An exactly singular system returns
    complex infinity as the pole indicator instead of raising.
    """
    if not (omega > 0 and k > 0):
        raise ValueError("omega and k must be positive")
    prep = _prepare(stack)
    g = _g33(prep, np.array([omega / k]), np.array([k]))[0]
    if np.isnan(g):
        raise DegeneratePointError(
            f"degenerate partial-wave point at omega={omega:.6g}, k={k:.6g}"
        )
    return complex(g)


# --- mode search -----------------------------------------------------------------


def velocity_window(stack: LayerStack) -> tuple[float, float]:
    """(floor, ceiling) of the mode-search window for this stack.

    The floor is half the slowest shear speed in the stack; the ceiling is
    the substrate's slowest sagittally-coupled bulk threshold.
    """
    prep = _prepare(stack)
    return prep.v_floor, prep.v_ceiling


def _scan_grid(prep: _Prepared, scan_step: float) -> np.ndarray:
    hi = prep.v_ceiling * (1.0 - 1e-9)
    grid = np.arange(prep.v_floor, hi, scan_step)
    if grid.size < 2:
        grid = np.linspace(prep.v_floor, hi, 8)
    return grid


def _grid_indicator(
    prep: _Prepared, grid: np.ndarray, freqs: np.ndarray
) -> np.ndarray:
    """Pole indicator on the (velocity grid x frequencies) mesh, shape (nv, nf)."""
    waves = [_wave_fields(med, grid) for med in prep.media]
    nv, nf = grid.size, freqs.size
    out = np.empty((nv, nf))
    for jf in range(nf):
        k = 2.0 * math.pi * freqs[jf] / grid
        mat, rows, valid = _assemble(prep, waves, k)
        out[:, jf] = _pole_indicator(_solve_response(mat, rows, valid))
    return out


def _indicator(prep: _Prepared, freqs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pole indicator at (frequency, velocity) pairs in one batch.

    A point with no finite value is evaluated once more at v * (1 + 1e-9).
    """
    q = _pole_indicator(_g33(prep, v, 2.0 * math.pi * freqs / v))
    nan = ~np.isfinite(q)
    if nan.any():
        bump = v[nan] * (1.0 + 1e-9)
        q[nan] = _pole_indicator(_g33(prep, bump, 2.0 * math.pi * freqs[nan] / bump))
    return q


def pole_indicator_at(stack: LayerStack, frequencies, velocities) -> np.ndarray:
    """Pole indicator Im(1/u3) of ``stack`` at (frequency, velocity) pairs.

    One batch over all pairs; NaN where the response stays undefined after
    the 1e-9 nudge.  Its zeros along the velocity axis are the surface modes.
    """
    freqs = np.asarray(frequencies, dtype=float)
    return _indicator(_prepare(stack), freqs, np.asarray(velocities, dtype=float))


def _chandrupatla(
    prep: _Prepared, freqs: np.ndarray, v: np.ndarray, q: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the pole indicator in sign-changing brackets.

    ``v`` holds the ends of each bracket, shape (n, 2), and ``q`` the
    indicator there.  Chandrupatla's method (Adv. Eng. Software 28(3),
    145-149, 1997), vectorised over the brackets still open: an
    inverse-quadratic step where the last three points allow it, a bisection
    step otherwise.  A bracket closes when its width is at most
    max(rel_tol * v, 8 * spacing(v)).  Returns (roots, accepted).  A pole of
    q (a zero of u3) changes sign too, but |q| grows towards it, so a root is
    accepted only where |q| ended below its value at both starting ends.
    """
    roots = np.empty(len(v))
    accepted = np.zeros(len(v), dtype=bool)
    q_start = np.abs(q).min(axis=1)
    # x1 is the newest point, x2 the other end of the bracket and x3 the
    # point the last step dropped from it
    idx, (x1, x2), (f1, f2) = np.arange(len(v)), v.T, q.T
    t = np.full(len(v), 0.5)
    while idx.size:
        x = x1 + t * (x2 - x1)
        f = _indicator(prep, freqs[idx], x)
        same = (f > 0) == (f1 > 0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        width = np.abs(x2 - x1)
        hi = np.maximum(x1, x2)
        tol = np.maximum(rel_tol * hi, 8.0 * np.spacing(hi))
        done = width <= tol
        roots[idx[done]] = np.where(np.abs(f1) < np.abs(f2), x1, x2)[done]
        q_end = np.fmin(np.abs(f1), np.abs(f2))
        accepted[idx[done]] = q_end[done] < q_start[idx[done]]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(
                iqi,
                f1 / (f1 - f2) * f3 / (f3 - f2)
                - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
        t_min = 0.5 * tol / width
        t = np.clip(t, t_min, 1.0 - t_min)
        keep = ~done
        idx, x1, f1, x2, f2, t = (a[keep] for a in (idx, x1, f1, x2, f2, t))
    return roots, accepted


def _settle(
    prep: _Prepared,
    freqs: np.ndarray,
    roots: np.ndarray,
    owner: np.ndarray,
    v: np.ndarray,
    q: np.ndarray,
    rel_tol: float,
) -> None:
    """Set roots[j] to the lowest accepted root among frequency j's brackets.

    Candidate brackets (ends ``v`` and indicator ``q``, shape (n, 2)) come
    grouped by ascending ``owner``, an index into ``freqs``, each group in
    ascending velocity.  Those whose ends do not have strictly opposite
    signs are dropped.  Round r refines the r-th bracket of every frequency
    still without a root, all in one batch.
    """
    keep = np.sign(q).prod(axis=1) < 0
    owner, v, q = owner[keep], v[keep], q[keep]
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    for r in range(rank.max(initial=-1) + 1):
        sel = np.flatnonzero((rank == r) & np.isnan(roots[owner]))
        if not sel.size:
            break
        x, ok = _chandrupatla(prep, freqs[owner[sel]], v[sel], q[sel], rel_tol)
        roots[owner[sel[ok]]] = x[ok]


def _find_modes(
    stack: LayerStack,
    frequencies: np.ndarray,
    hints: np.ndarray | None,
    scan_step: float,
    rel_tol: float,
) -> tuple[np.ndarray, list[int], _Prepared, np.ndarray]:
    """Lowest accepted root per frequency, NaN where none.

    Brackets come from windows of half-width 0.5, 2 and 8 scan steps around
    the hints, then, for frequencies still open, from the scan's cells.
    """
    prep = _prepare(stack)
    freqs = np.asarray(frequencies, dtype=float)
    roots = np.full(freqs.size, np.nan)
    top = prep.v_ceiling * (1.0 - 1e-9)
    for half_width in () if hints is None else (0.5, 2.0, 8.0):
        idx = np.flatnonzero(np.isnan(roots))
        if not idx.size:
            break
        v = np.stack([np.maximum(hints[idx] - half_width * scan_step, prep.v_floor),
                      np.minimum(hints[idx] + half_width * scan_step, top)], axis=1)
        q = _indicator(prep, np.repeat(freqs[idx], 2), v.ravel()).reshape(-1, 2)
        _settle(prep, freqs, roots, idx, v, q, rel_tol)
    idx = np.flatnonzero(np.isnan(roots))
    grid = _scan_grid(prep, scan_step)
    if idx.size:
        cells = np.lib.stride_tricks.sliding_window_view(grid, 2)
        q = np.lib.stride_tricks.sliding_window_view(
            _grid_indicator(prep, grid, freqs[idx]).T, 2, axis=1
        )
        _settle(prep, freqs, roots, np.repeat(idx, len(cells)),
                np.tile(cells, (idx.size, 1)), q.reshape(-1, 2), rel_tol)
    failures = [int(j) for j in np.flatnonzero(np.isnan(roots))]
    return roots, failures, prep, grid


def saw_phase_velocity(
    stack: LayerStack,
    frequency: float,
    *,
    scan_step: float = DEFAULT_SCAN_STEP,
    rel_tol: float = DEFAULT_REL_TOL,
    hint: float | None = None,
) -> float:
    """Phase velocity of the lowest (Rayleigh-like) surface mode at one frequency."""
    if not frequency > 0:
        raise ValueError("frequency must be positive")
    hints = None if hint is None else np.array([hint], dtype=float)
    roots, failures, prep, grid = _find_modes(
        stack, np.array([frequency]), hints, scan_step, rel_tol
    )
    if failures:
        min_det = _min_abs_det(stack, prep, grid, frequency)
        raise NoModeError(
            f"no surface mode at {frequency:.6g} Hz in window "
            f"[{prep.v_floor:.1f}, {prep.v_ceiling:.1f}] m/s "
            f"(min |det| over scan: {min_det:.3e})",
            window=(prep.v_floor, prep.v_ceiling),
            min_abs_det=min_det,
        )
    return float(roots[0])


def _min_abs_det(
    stack: LayerStack, prep: _Prepared, grid: np.ndarray, frequency: float
) -> float:
    waves = [_wave_fields(med, grid) for med in prep.media]
    mat, _, valid = _assemble(prep, waves, 2.0 * math.pi * frequency / grid)
    _, logabs = np.linalg.slogdet(mat[valid])
    return float(np.exp(logabs.min())) if logabs.size else float("nan")


def dispersion_curve(
    stack: LayerStack,
    frequencies,
    *,
    hints=None,
    scan_step: float = DEFAULT_SCAN_STEP,
    rel_tol: float = DEFAULT_REL_TOL,
) -> DispersionCurve:
    """saw_phase_velocity evaluated over a sorted frequency grid.

    Adjacent points differing by more than 5 % are flagged as
    discontinuities on the returned curve rather than rejected.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0:
        return DispersionCurve(frequencies=(), velocities=())
    if np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequencies must be strictly increasing")
    hint_arr = None
    if hints is not None:
        hint_arr = np.asarray(list(hints), dtype=float)
        if hint_arr.shape != freqs.shape:
            raise ValueError("hints must match frequencies in length")
    roots, failures, prep, _ = _find_modes(stack, freqs, hint_arr, scan_step, rel_tol)
    if failures:
        raise CurveError(
            "no surface mode at frequency indices "
            f"{failures} (of {freqs.size}) in window "
            f"[{prep.v_floor:.1f}, {prep.v_ceiling:.1f}] m/s",
            indices=failures,
        )
    flags = tuple(
        i
        for i in range(1, freqs.size)
        if abs(roots[i] - roots[i - 1]) > _CONTINUITY_JUMP * roots[i - 1]
    )
    return DispersionCurve(
        frequencies=tuple(freqs),
        velocities=tuple(float(r) for r in roots),
        discontinuities=flags,
    )


# --- analytic Rayleigh oracle ------------------------------------------------------


def rayleigh_velocity_isotropic(m: IsotropicMaterial) -> float:
    """Subsonic Rayleigh root of (2 - x^2)^2 = 4 sqrt(1 - r x^2) sqrt(1 - x^2).

    Independent analytic reference for the boundary-matrix path; bisection on
    x = v/v_t to machine precision.
    """
    vt = m.shear_velocity
    vl = m.longitudinal_velocity
    r = (vt / vl) ** 2

    def f(x: float) -> float:
        x2 = x * x
        return (2.0 - x2) ** 2 - 4.0 * math.sqrt(1.0 - r * x2) * math.sqrt(1.0 - x2)

    lo, hi = 1e-9, 1.0 - 1e-15
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi) * vt
