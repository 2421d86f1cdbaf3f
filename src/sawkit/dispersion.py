"""Forward SAW solver for layered half-spaces.

For fixed (omega, k) the depth dependence of harmonic fields in each medium
is a sum of six partial waves e^{ik(x1 + alpha x3)}.  In a medium whose
stiffness is orthotropic in the propagation frame (every isotropic one, and
a cubic crystal cut along a symmetry plane, such as Si(001) along [110])
they split into an SH wave and two sagittal waves, whose vertical
slownesses alpha and polarizations are closed-form in v = omega/k.  Only a
medium without that symmetry solves for them as a 6-dimensional linear
eigenproblem in the state vector (displacement, scaled traction).  The
surface response to a unit normal surface stress comes from a
surface-impedance recursion (Rokhlin & Wang, J. Acoust. Soc. Am. 112(3),
822-834, 2002).  Every medium's waves come with the decaying or
downgoing ones first (``_full_waves``); the substrate's give its impedance
Z = B A^-1, and a layer's are referenced at its top (d), the rest at its
bottom (u).  Continuity with the impedance
below ties the u amplitudes to the d ones, and the traction and
displacement at the layer's top then give the impedance it presents to the
layer above.  When every medium is orthotropic in the frame the SH wave
decouples exactly, and since a normal stress does not excite it the
recursion keeps only the two sagittal waves per direction: its blocks are
2x2 and solved in closed form.  Otherwise they are 3x3.  Every layer
exponential is e^{ik alpha_d h} or e^{-ik alpha_u h}, at most one in
magnitude, so the recursion does not grow at large frequency-thickness
products the way the classical transfer matrix does; for a closed-form
medium alpha_u = -alpha_d exactly, and the two are one exponential.  The
substrate impedance and the bottom layer's coupling do not depend on k, so
a velocity scan computes them once per block of velocities and runs the
rest of the recursion for all its frequencies at once.  Every block of the
recursion is held entry-major, [row, column, frequency, velocity]: each
product, solve and determinant is a few whole-array operations over the
(frequency, velocity) mesh of a scan block or the points of a batch, not a
loop over thousands of tiny matrices.

Surface modes are the real poles of that response along the velocity axis:
the mode finder brackets sign changes of Im(1/u3), from windows around
velocity hints or from a velocity scan, and refines them with
Chandrupatla's bracketed inverse-quadratic/bisection method.  Every value
of Im(1/u3) comes from ``_indicator``, for a batch of (frequency,
velocity) pairs or a scan block's mesh.  Where a medium's waves are
degenerate (at a bulk speed along x1 its up and down waves coincide) the
wave producers only flag the velocity, and ``_indicator`` evaluates every
undefined point once more 1e-9 higher in velocity, k recomputed.
``dispersion_curve`` is its one public entry; the scan's 5 m/s step, the
hint windows and the root tolerance are fixed.  The scan walks up from the
window's floor in blocks of cells, and a frequency leaves it at the first
block that brackets a sign change, so the velocities above its lowest mode
are mostly never evaluated.  Evaluating
the response instead of a raw determinant keeps the mode indicator
independent of eigenvector normalization, which is what makes bracketed
root finding reliable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CurveError, DegeneratePointError, FormatError
from .materials import (
    ElasticMaterial,
    ElasticTensor,
    IsotropicMaterial,
    LayerStack,
    PropagationGeometry,
    stiffness_of,
)

_SCAN_STEP = 5.0  # m/s, velocity step of the cold scan's grid
_REL_TOL = 1e-12  # relative bracket width at which a root is accepted
_HINT_WINDOWS = (2.5, 10.0, 40.0)  # m/s, half-widths of the windows around hints
_PROP_TOL = 1e-8  # |Im alpha| below this (relative) counts as propagating
_RESIDUAL_TOL = 1e-8  # eigenpair residual above this marks a defective point
_NUDGE = 1e-9  # relative velocity step off a degenerate point, taken once
_ORTHOTROPIC_TOL = 1e-12  # couplings below this fraction of max|C| count as 0
# sign of each sagittal row a1, a3, b1, b3 from a closed-form +alpha wave to
# its -alpha twin
_FLIP = np.array([-1.0, 1.0, 1.0, -1.0])[:, None, None]
_CONTINUITY_JUMP = 0.05  # adjacent curve points differing more raise a flag
_SCAN_BLOCK = 64  # grid cells per block of the cold velocity scan
# rows a1, a3, b1, b3 and waves +alpha_1, +alpha_2, -alpha_1, -alpha_2 of the
# closed-form waves: the sagittal block, which the SH wave leaves exactly
_SAGITTAL_ROWS = np.array([0, 2, 3, 5])
_SAGITTAL_COLS = np.array([0, 1, 3, 4])
# signs of the cofactors (-Y_01, Y_00) of a 2x2 matrix's last row
_COFACTOR_SIGNS = np.array([-1.0, 1.0])[:, None, None]

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
        if not all(map(math.isfinite, f)) or any(b <= a for a, b in zip(f, f[1:])):
            raise ValueError("frequencies must be finite and strictly increasing")
        if not all(0 < x < math.inf for x in v):
            raise ValueError("velocities must be positive and finite")
        s = self.sigmas
        if s is not None:
            s = tuple(float(x) for x in s)
            if len(s) != len(f):
                raise ValueError("sigmas must match the number of points")
            if not all(0 < x < math.inf for x in s):
                raise ValueError("sigmas must be positive and finite")
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


def _csv_text(header: str, columns, meta: dict | None = None) -> str:
    """``# key=value`` lines, the header, then one ``%r,...,%r`` line per row
    zipped from ``columns`` (iterables of Python floats)."""
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(header)
    row = ",".join(["%r"] * (header.count(",") + 1))
    lines.extend(row % values for values in zip(*columns))
    return "\n".join(lines) + "\n"


def _parse_rows(rows: list[str], n: int, positive: bool) -> np.ndarray | None:
    """``rows`` as ``n`` columns, or None unless each holds n finite (positive) numbers."""
    if not rows:
        return np.empty((n, 0))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T
    except ValueError:
        return None
    ok = data.shape[0] == n and np.isfinite(data).all() and (not positive or (data > 0).all())
    return data if ok else None


def _read_table(path, headers: tuple[str, ...], positive: bool = False):
    """Read a CSV exchange file into ``(header, columns, meta, lines)``.

    Blank lines are skipped, and ``# key=value`` lines anywhere go into
    ``meta``.  The first other line must be one of ``headers``; each later
    one must hold as many finite numbers (positive ones if ``positive``) as
    the header has columns.  ``columns`` holds one array per column and
    ``lines`` the file line of each row.  Faults raise ``FormatError``
    naming ``path``; row faults carry the file line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    expected = " or ".join(map(repr, headers))
    meta: dict[str, str] = {}
    header = None
    rows, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif header is not None:
            rows.append(line)
            linenos.append(lineno)
        elif line in headers:
            header = line
        else:
            raise FormatError(f"{path}: line {lineno}: bad header {line!r}, expected {expected}",
                              line=lineno)
    if header is None:
        raise FormatError(f"{path}: no column header, expected {expected}")
    n = header.count(",") + 1
    columns = _parse_rows(rows, n, positive)
    if columns is None:  # find the first bad row, one line at a time
        i = next(i for i, row in enumerate(rows) if _parse_rows([row], n, positive) is None)
        kind = "positive finite" if positive else "finite"
        raise FormatError(f"{path}: line {linenos[i]}: expected {n} {kind} numbers, "
                          f"got {rows[i]!r}", line=linenos[i])
    return header, columns, meta, linenos


def dispersion_csv_text(curve: DispersionCurve) -> str:
    if curve.sigmas is None:
        return _csv_text(CSV_HEADER, (curve.frequencies, curve.velocities))
    return _csv_text(CSV_HEADER_SIGMA, (curve.frequencies, curve.velocities, curve.sigmas))


def write_dispersion_csv(curve: DispersionCurve, path: str | Path) -> None:
    Path(path).write_text(dispersion_csv_text(curve), encoding="utf-8", newline="\n")


def read_dispersion_csv(path: str | Path) -> DispersionCurve:
    header, columns, _, _ = _read_table(path, (CSV_HEADER, CSV_HEADER_SIGMA), positive=True)
    try:
        return DispersionCurve(
            frequencies=columns[0],
            velocities=columns[1],
            sigmas=columns[2] if header == CSV_HEADER_SIGMA else None,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# --- partial waves ------------------------------------------------------------


def _qrt(cijkl: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, R, T) contractions of the stiffness tensor for x1 propagation, x3 depth."""
    return cijkl[:, 0, :, 0], cijkl[:, 0, :, 2], cijkl[:, 2, :, 2]


@dataclass(frozen=True, eq=False)
class _Medium:
    """Constant pieces of the depth-evolution operator for one medium.

    Its partial waves come in closed form when the medium is orthotropic in
    the frame (``moduli`` set), and from the eigenproblem of ``operator``
    otherwise (``_full_waves``).  A medium with C13 + C55 = 0 takes the
    eigenproblem too: its closed-form sagittal polarization would vanish.
    """

    n0: np.ndarray  # v-independent part of the 6x6 operator
    rho_scaled: float  # rho / c_ref, multiplies v^2 on the lower-left diagonal
    c_ref: float
    # frame moduli (C11, C13, C33, C44, C55, C66) / c_ref of a medium
    # orthotropic in the frame, whose partial waves are closed-form; None
    # for one that needs the eigenproblem
    moduli: tuple[float, ...] | None = None

    @classmethod
    def build(cls, tensor: ElasticTensor, rho: float, c_ref: float) -> "_Medium":
        q, r, t = _qrt(tensor.as_cijkl())
        t_inv = np.linalg.inv(t)
        n0 = np.zeros((6, 6))
        n0[:3, :3] = -t_inv @ r.T
        n0[:3, 3:] = t_inv * c_ref
        n0[3:, :3] = (-q + r @ t_inv @ r.T) / c_ref
        n0[3:, 3:] = -r @ t_inv
        c = tensor.voigt
        moduli = None
        # C14-C16, C24-C26, C34-C36, C45, C46 and C56: the couplings that
        # vanish when the frame's coordinate planes are mirror planes
        couplings = np.abs(np.triu(c, 1)[:, 3:]).max()
        if couplings <= _ORTHOTROPIC_TOL * np.abs(c).max() and c[0, 2] + c[4, 4] != 0:
            moduli = tuple(float(c[i, j]) / c_ref
                           for i, j in ((0, 0), (0, 2), (2, 2), (3, 3), (4, 4), (5, 5)))
        return cls(n0=n0, rho_scaled=rho / c_ref, c_ref=c_ref, moduli=moduli)

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
    vals, vecs = np.linalg.eig(n)  # real arrays when every eigenvalue is real
    vals, vecs = vals.astype(complex, copy=False), vecs.astype(complex, copy=False)
    order = np.argsort(vals.imag + 1j * vals.real, axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return vals, vecs


def _defective(n: np.ndarray, alpha: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rows whose eigenpairs fail the residual or the independence check."""
    resid = np.linalg.norm(n @ vecs - vecs * alpha[:, None, :], axis=(1, 2))
    bad = resid > _RESIDUAL_TOL * np.linalg.norm(n, axis=(1, 2))
    return bad | (np.abs(np.linalg.det(vecs)) < 1e-14)


def _wave_fields(
    med: _Medium, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors, vertical flux and validity.

    Returns (alpha (m,6), w (m,6,6), flux (m,6), valid (m,)); the rows of
    w are the displacements a over the tractions b scaled by 1/c_ref.  Rows
    failing the residual or independence check are marked invalid, not
    solved again: ``_indicator`` is the one place that steps off them.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = med.operator(v)
    alpha, vecs = _eig_sorted(n)
    flux = np.real(np.einsum("mij,mij->mj", np.conj(vecs[:, :3]), vecs[:, 3:]))
    return alpha, vecs, flux, ~_defective(n, alpha, vecs)


def _slowness_squares(
    moduli: tuple[float, ...], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """alpha^2 of the two sagittal waves and the SH wave at x = rho v^2 / c_ref.

    Returns (y (3, m), degenerate (m,)), degenerate where some alpha^2 is 0
    or the two sagittal ones coincide.
    """
    c11, c13, c33, c44, c55, c66 = moduli
    pq = (c11 - x) * (c55 - x)
    b = (c55 * c55 + c33 * c11 - (c13 + c55) ** 2) - (c55 + c33) * x
    disc = b * b - (4.0 * c33 * c55) * pq
    r = np.sqrt(disc.astype(complex))
    np.negative(r, out=r, where=b < 0)
    s = -0.5 * (b + r)  # c33 c55 times the root of larger magnitude
    sh = x - c66
    y = np.empty((3, x.size), dtype=complex)
    np.divide(s, c33 * c55, out=y[0])
    np.divide(pq, s, out=y[1])
    np.divide(sh, c44, out=y[2])
    # y[1] is 0 where pq is, y[2] where sh is, and y[0] only where s and so
    # disc is, which is where the two sagittal roots coincide
    return y, pq * disc * sh == 0


def _closed_form(med: _Medium, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial waves of a medium orthotropic in the frame, in closed form.

    With X = rho v^2, the SH wave has alpha^2 = (X - C66)/C44 and the two
    sagittal waves solve C33 C55 alpha^4 + [C55 (C55 - X) + C33 (C11 - X)
    - (C13 + C55)^2] alpha^2 + (C11 - X)(C55 - X) = 0 (Stroh, J. Math.
    Phys. 41, 77-103, 1962), taken by the stable root formula.  alpha is
    the root with Im >= 0, paired with -alpha.  The displacements are a =
    ((C13 + C55) alpha, 0, -(C11 - X + C55 alpha^2)) for a sagittal wave
    and (0, 1, 0) for SH, and the tractions b = (R^T + alpha T) a, over
    c_ref like every modulus here.  For an isotropic medium these are the
    P, SV and SH waves, their columns scaled by (C13 + C55) alpha, (C13 +
    C55) and 1.  The columns are not normalized: the response does not
    depend on the basis.  Where some alpha is 0 (v at a bulk speed along
    x1) its up and down waves coincide, and where the sagittal alpha^2
    coincide their polarizations do; a sagittal polarization vanishes only
    where its alpha does, since ``_Medium.build`` requires C13 + C55 != 0.
    Such a point is marked invalid, not solved again: ``_indicator`` is the
    one place that steps off it.

    Returns alpha (3, m) of the two sagittal waves and SH, the sagittal
    block as [row, wave, velocity] (4, 4, m), and valid (m,).  The block
    holds rows a1, a3, b1, b3 (``_SAGITTAL_ROWS``) of the waves +alpha_1,
    +alpha_2, -alpha_1, -alpha_2 (``_SAGITTAL_COLS``).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    c11, c13, c33, _, c55, _ = med.moduli
    x = med.rho_scaled * v * v
    y, bad = _slowness_squares(med.moduli, x)
    alpha = np.sqrt(y)
    np.negative(alpha, out=alpha, where=alpha.imag < 0)
    g, y2, a2 = c13 + c55, y[:2], alpha[:2]
    w = np.empty((4, 4, v.size), dtype=complex)
    np.multiply(a2, g, out=w[0, :2])
    np.subtract(x - c11, c55 * y2, out=w[1, :2])
    np.multiply(w[1, :2] + g * y2, c55, out=w[2, :2])
    np.multiply(a2, c33 * w[1, :2] + c13 * g, out=w[3, :2])
    np.multiply(w[:, :2], _FLIP, out=w[:, 2:])
    return alpha, w, ~bad


def _sagittal_waves(
    med: _Medium, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sagittal part of ``_full_waves`` for a closed-form medium, n = 2:
    rows a1, a3, b1, b3 of the waves +alpha_1, +alpha_2, -alpha_1,
    -alpha_2, without the SH wave, which a normal surface stress does not
    excite."""
    alpha, w, valid = _closed_form(med, v)
    return np.concatenate([alpha[:2], -alpha[:2]]), w, valid


def _full_waves(
    med: _Medium, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All six partial waves of ``med`` at velocities v, n = 3.

    Both wave producers return entry-major (alpha (2n, m), w (2n, 2n, m),
    valid (m,)), the rows of w the displacements a over the tractions b /
    c_ref, with the decaying-or-downgoing waves (``_masks``), which the
    recursion references to a medium's top, in the first n columns.  In
    closed form (``_closed_form``) those are the +alpha waves: below the
    window's ceiling every sagittal alpha of the substrate has Im alpha >
    0, a propagating SH wave's +alpha carries flux C44 alpha > 0, and in a
    layer a propagating wave's twin carries exactly the negated flux and
    the same |E| = 1, so either labelling keeps the recursion bounded.  The
    eigenproblem (``_wave_fields``) orders by (Im, Re), growing waves
    first; a stable sort on ``_masks`` moves the decaying-or-downgoing ones
    ahead, and a velocity without exactly three of them is invalid.
    """
    if med.moduli is None:
        alpha, w, flux, valid = _wave_fields(med, v)
        down, _ = _masks(alpha, flux)
        order = np.argsort(~down, axis=1, kind="stable")
        alpha = np.take_along_axis(alpha, order, axis=1)
        w = np.take_along_axis(w, order[:, None], axis=2)
        return alpha.T, w.transpose(1, 2, 0), valid & (down.sum(axis=1) == 3)
    alpha, sagittal, valid = _closed_form(med, v)
    # rows a1, a2, a3, b1, b2, b3 of the +alpha waves, then the -alpha
    # ones, which flip the sign of a1, b2 and b3
    w = np.zeros((6, 6, valid.size), dtype=complex)
    w[_SAGITTAL_ROWS[:, None], _SAGITTAL_COLS] = sagittal
    w[1, 2] = w[1, 5] = 1.0
    np.multiply(alpha[2], med.moduli[3], out=w[4, 2])
    np.negative(w[4, 2], out=w[4, 5])
    return np.concatenate([alpha, -alpha]), w, valid


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
    alpha, vecs, flux, valid = _wave_fields(med, np.array([v]))
    if not valid[0]:
        raise DegeneratePointError(
            f"defective partial-wave eigensystem at omega={omega:.6g}, k={k:.6g}; "
            "retry with k perturbed by one part in 1e9"
        )
    down, prop = _masks(alpha[0], flux[0])
    tags = tuple((PROP_DOWN if p else DECAYING) if d else (PROP_UP if p else GROWING)
                 for d, p in zip(down, prop))
    return PartialWaveSet(
        eigenvalues=alpha[0],
        displacements=vecs[0, :3],
        tractions=vecs[0, 3:] * c_ref,
        classifications=tags,
        operator=med.operator(np.array([v]))[0],
        eigenvectors=vecs[0],
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


# Stacks realised during a fit share most of their materials, so what
# depends on one material and the geometry (plus c_ref for a medium) is
# cached by value across stacks, and ``_prepare`` only assembles it.


@lru_cache(maxsize=64)
def _frame_stiffness(material: ElasticMaterial, geometry: PropagationGeometry) -> ElasticTensor:
    return stiffness_of(material, geometry)


@lru_cache(maxsize=64)
def _medium(material: ElasticMaterial, geometry: PropagationGeometry, c_ref: float) -> _Medium:
    return _Medium.build(_frame_stiffness(material, geometry), material.density, c_ref)


@lru_cache(maxsize=64)
def _substrate_ceiling(material: ElasticMaterial, geometry: PropagationGeometry) -> float:
    """Top of the mode search: the substrate's limiting velocity.

    Bulk waves along x1 polarized purely along x2 are decoupled from the
    (x1, x3) surface-wave problem and do not cut the mode off, so the
    ceiling is at most the slowest sagittally coupled one.  A substrate
    orthotropic in the frame has it lower where its two sagittal alpha^2
    meet at a real value >= 0: from there up every sagittal partial wave
    propagates (Lothe & Barnett, J. Appl. Phys. 47, 428-433, 1976).  They
    meet where the discriminant of the quadratic in alpha^2 of
    ``_slowness_squares``, itself a quadratic in X = rho v^2, vanishes.
    Other substrates keep the bulk-speed ceiling.
    """
    tensor = _frame_stiffness(material, geometry)
    vals, vecs = np.linalg.eigh(tensor.as_cijkl()[:, 0, :, 0] / material.density)
    ceiling = min(math.sqrt(val) for val, pol in zip(vals, vecs.T)
                  if math.hypot(pol[0], pol[2]) > 1e-8)
    med = _Medium.build(tensor, material.density, float(np.abs(tensor.voigt).max()))
    if med.moduli is None:
        return ceiling
    c11, c13, c33, _, c55, _ = med.moduli
    # the alpha^2 coefficient is b0 - s X, and disc = (b0 - s X)^2
    # - 4 C33 C55 (C11 - X)(C55 - X); the coinciding alpha^2 is -b / (2 C33 C55)
    b0, s = c55 * c55 + c33 * c11 - (c13 + c55) ** 2, c55 + c33
    disc = ((c33 - c55) ** 2, 4.0 * c33 * c55 * (c11 + c55) - 2.0 * b0 * s,
            b0 * b0 - 4.0 * c33 * c55 * c11 * c55)
    for x in np.roots(disc):
        if x.imag == 0 and x.real > 0 and b0 - s * x.real <= 0:
            ceiling = min(ceiling, math.sqrt(x.real / med.rho_scaled))
    return ceiling


@lru_cache(maxsize=64)
def _prepare(stack: LayerStack) -> _Prepared:
    geometry = stack.geometry
    materials = [layer.material for layer in stack.layers] + [stack.substrate]
    c_ref = max(float(np.abs(_frame_stiffness(m, geometry).voigt).max()) for m in materials)
    return _Prepared(
        media=tuple(_medium(m, geometry, c_ref) for m in materials),
        thicknesses=tuple(layer.thickness for layer in stack.layers),
        c_ref=c_ref,
        v_floor=0.5 * min(m.shear_velocity for m in materials),
        v_ceiling=_substrate_ceiling(stack.substrate, geometry),
    )


# --- surface-impedance recursion -------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over entry-major stacks: a (p, q, ...) and b (q, r, ...) give
    (p, r, ...), their trailing axes broadcast."""
    out = a[:, 0, None] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[j]
    return out


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b over entry-major stacks of 2x2 or 3x3 systems.

    a is (n, n, ...) and b (n, r, ...), with equal trailing axes.  A 2x2
    system is solved by its adjugate over its determinant, which is forward
    stable for n = 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 1.10.1), in whole-array arithmetic; a 3x3 one
    by np.linalg.solve with the two matrix axes moved last, one system at a
    time on failure.  An exactly singular system makes only its own entry
    NaN, which then propagates to that entry's response and nothing else.
    """
    if a.shape[0] == 2:
        det = a[0, 0] * a[1, 1]
        det -= a[0, 1] * a[1, 0]
        zero = det == 0
        if zero.any():
            det[zero] = np.nan
        with np.errstate(invalid="ignore"):
            r = np.divide(1.0, det, out=det)
        out = np.empty(b.shape, dtype=complex)
        np.multiply(a[1, 1], b[0], out=out[0])
        out[0] -= a[0, 1] * b[1]
        np.multiply(a[0, 0], b[1], out=out[1])
        out[1] -= a[1, 0] * b[0]
        out *= r
        return out
    a, b = np.moveaxis(a, (0, 1), (-2, -1)), np.moveaxis(b, (0, 1), (-2, -1))
    try:
        out = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.empty(b.shape, dtype=complex)
        for i in np.ndindex(b.shape[:-2]):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                out[i] = np.nan
    return np.moveaxis(out, (-2, -1), (0, 1))


def _right_divide(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y x^-1 over entry-major stacks of 2x2 or 3x3 matrices."""
    return np.swapaxes(_solve(np.swapaxes(x, 0, 1), np.swapaxes(y, 0, 1)), 0, 1)


def _coupling(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """S = (B_u - Z A_u)^-1 (B_d - Z A_d) of a layer on a medium of impedance Z.

    Entry-major, like every block of the recursion: ``w`` (2n, 2n, ...)
    stacks the layer's n displacement rows A over its n traction rows B,
    with n the size of Z (n, n, ...); its first n columns are its
    top-referenced waves (d), the last n its bottom-referenced ones (u).
    Continuity with the medium below gives the bottom-referenced amplitudes
    as -S E_d times the top-referenced ones.
    """
    n = z.shape[0]
    g = _matmul(z, w[:n])
    np.subtract(w[n:], g, out=g)
    return _solve(g[:, n:], g[:, :n])


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The k-independent part of the surface response at a batch of velocities.

    Every array carries n = 2 waves per direction when all media of the
    stack take closed-form waves, whose sagittal block (``_SAGITTAL_ROWS``,
    ``_SAGITTAL_COLS``) is all the normal response sees, and n = 3 otherwise.
    ``valid`` marks the velocities where every medium's waves are valid
    (``_full_waves``).  The remaining fields hold those velocities
    only, entry-major: matrix rows and columns lead, and the velocities are
    the last axis, after a unit axis that broadcasts against the
    frequencies of a scan block.  Per layer, surface first, they are
    (alpha_d (n, 1, m), alpha_u, w (2n, 2n, 1, m), thickness): the
    slownesses of the top-referenced (d) and bottom-referenced (u) waves,
    and the displacement-over-traction wave matrix with the d waves in its
    first n columns.  alpha_u is None for a closed-form medium, where it is
    exactly -alpha_d.  ``bottom`` is the bottom layer's coupling
    S (n, n, 1, m) on the substrate, or for a half-space the substrate's
    wave matrix (2n, n, 1, m) of its accepted waves.
    """

    valid: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray, float], ...]
    bottom: np.ndarray


def _kernel(prep: _Prepared, v: np.ndarray) -> _Kernel:
    """Partial waves of every medium at velocities v, split n/n and coupled.

    When every medium is orthotropic in the frame, each takes only its two
    sagittal waves per direction (n = 2), built in closed form straight in
    entry-major layout (``_sagittal_waves``): the SH wave decouples from
    them exactly (Stroh 1962), so it does not enter the normal response.
    Otherwise all six waves stay (n = 3, ``_full_waves``): closed form
    where the medium allows it, from the eigenproblem where it does not.
    Either producer puts a medium's top-referenced waves, the decaying or
    downgoing ones, in its first n columns.
    """
    sagittal = all(med.moduli is not None for med in prep.media)
    waves = _sagittal_waves if sagittal else _full_waves
    split = []
    valid = np.ones(v.shape, dtype=bool)
    for med in prep.media:
        alpha, w, ok = waves(med, v)
        valid &= ok
        split.append((alpha, w, med.moduli is not None))  # alpha_u = -alpha_d
    n = alpha.shape[0] // 2
    if not valid.all():
        split = [(alpha[:, valid], w[:, :, valid], twin) for alpha, w, twin in split]
    # a unit axis before the velocities broadcasts against a scan's frequencies
    layers = tuple((alpha[:n, None], None if twin else alpha[n:, None], w[:, :, None], h)
                   for (alpha, w, twin), h in zip(split, prep.thicknesses))
    w_sub = split[-1][1][:, :n, None]
    if not layers:
        return _Kernel(valid, layers, w_sub)
    z_sub = _right_divide(w_sub[n:], w_sub[:n])
    return _Kernel(valid, layers, _coupling(z_sub, layers[-1][2]))


def _surface(kern: _Kernel, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Surface displacement X and traction Y per unit amplitude of the top medium.

    X and Y are n x n, with n the kernel's block size, entry-major: (n, n,
    F, m) for k of shape (F, m), and (n, n, 1, m) for one of shape (m,).
    Their rows are the displacement and traction components the kernel
    keeps, the normal one last, and their columns the amplitudes of the
    top layer's top-referenced waves (the substrate's accepted waves for a
    half-space), so the response to a unit normal surface stress is the
    last row of X Y^-1.  ``k`` holds wavenumbers along its last axis, one
    per velocity of the kernel, and a leading frequency axis (one row per
    frequency in a scan block) broadcasts through the recursion; the result
    covers the kernel's valid velocities only.  A half-space does not
    depend on k.  From the bottom layer up: T = E_u S E_d, X = A_d - A_u T
    and Y = B_d - B_u T, and Y X^-1 is the impedance under the next layer.
    E_d = exp(ik alpha_d h) and E_u = exp(-ik alpha_u h) are diagonal, and
    where the kernel has alpha_u = -alpha_d they are one exponential.
    """
    n = kern.bottom.shape[1]
    if not kern.layers:
        return kern.bottom[:n], kern.bottom[n:]
    if not kern.valid.all():
        k = k[..., kern.valid]
    s = kern.bottom
    for j in range(len(kern.layers) - 1, -1, -1):
        alpha_d, alpha_u, w, h = kern.layers[j]
        ihk = 1j * h * k
        e_d = np.exp(ihk * alpha_d)
        e_u = e_d if alpha_u is None else np.exp(-ihk * alpha_u)
        t = e_u[:, None] * s
        t *= e_d
        xy = _matmul(w[:, n:], t)
        np.subtract(w[:, :n], xy, out=xy)
        if j:
            s = _coupling(_right_divide(xy[n:], xy[:n]), kern.layers[j - 1][2])
    return xy[:n], xy[n:]


def _response(kern: _Kernel, k: np.ndarray) -> np.ndarray:
    """Surface normal displacement per unit scaled normal surface stress.

    Shaped like ``k`` (see ``_surface``); NaN at the kernel's invalid
    velocities.  The response is u3 = det(Y with its last row replaced by
    the last row of X) / det Y, the last row of X Y^-1 by Cramer's rule,
    from the cofactors c of Y's last row: (-Y_01, Y_00) for n = 2, the
    cross product of Y's first two rows for n = 3.  Where det Y is exactly
    0 (below the substrate threshold Y's rows are real and imaginary, so it
    can cancel to 0 at a mode) u3 is infinite and the pole indicator
    Im(1/u3) is 0 there, not NaN.
    """
    x, y = _surface(kern, k)
    if y.shape[0] == 2:
        c = y[0, ::-1] * _COFACTOR_SIGNS
    else:
        c = np.cross(y[0], y[1], axis=0)
    num = (x[-1] * c).sum(axis=0)
    den = (y[-1] * c).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u3 = num / den
    zero = den == 0
    if zero.any():
        u3[zero & (num != 0)] = np.inf
    out = np.full(k.shape, np.nan + 0j)
    out[..., kern.valid] = u3
    return out


def _g33(prep: _Prepared, v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Batched surface response u3 at the given (v, k) points."""
    return _response(_kernel(prep, v), k)


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
    """Surface-traction matrix Y of the impedance recursion at one (omega, k).

    2x2 when every medium of the stack is orthotropic in the frame, 3x3
    otherwise (see ``BoundaryMatrix``); taken out of the recursion's
    entry-major (n, n, 1, 1) block as a plain n x n matrix.
    """
    if not (omega > 0 and k > 0):
        raise ValueError("omega and k must be positive")
    kern = _kernel(_prepare(stack), np.array([omega / k]))
    if not kern.valid[0]:
        raise DegeneratePointError(
            f"degenerate partial-wave point at omega={omega:.6g}, k={k:.6g}"
        )
    y = _surface(kern, np.array([k]))[1]
    m = y.reshape(y.shape[:2])
    sign, logabs = np.linalg.slogdet(m)
    return BoundaryMatrix(
        matrix=m,
        rhs=np.eye(len(m))[-1],
        determinant=sign * np.exp(min(logabs, 700.0)),
        log_abs_det=float(logabs),
        condition_number=float(np.linalg.cond(m)),
        n_layers=len(stack.layers),
    )


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Surface-traction system Y c = rhs at one (omega, k).

    Y maps the amplitudes of the top layer's top-referenced partial waves
    (the substrate's accepted waves for a half-space) to the traction at
    the free surface, after the impedance recursion has imposed continuity
    at every interface below.  It is 2x2, the sagittal tractions (t13,
    t33) of the two sagittal waves, when every medium of the stack is
    orthotropic in the frame and its SH wave decouples; 3x3 otherwise.  The
    right-hand side is the unit normal surface stress in scaled traction
    units.  The determinant vanishes at surface modes; its absolute
    normalization is not physical.
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
    locations in velocity are physical.  A defective point, or one where
    the recursion below the surface meets an exactly singular system,
    raises DegeneratePointError; where the surface matrix itself is
    exactly singular the response is infinite.
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
    the substrate's limiting velocity, at most its slowest sagittally
    coupled bulk speed along x1.
    """
    prep = _prepare(stack)
    return prep.v_floor, prep.v_ceiling


def _scan_grid(prep: _Prepared) -> np.ndarray:
    hi = prep.v_ceiling * (1.0 - 1e-9)
    grid = np.arange(prep.v_floor, hi, _SCAN_STEP)
    if grid.size < 2:
        grid = np.linspace(prep.v_floor, hi, 8)
    return grid


def _indicator(prep: _Prepared, freqs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pole indicator at (frequency, velocity) pairs, or on a scan block's mesh.

    ``freqs`` and ``v`` are either both (m,), one point per pair, or a scan
    block's frequencies (F, 1) against its velocities (m,), which gives the
    (F, m) mesh; either way one kernel serves the whole call, and the layer
    recursion broadcasts over the frequencies.  This is the one place that
    steps off an undefined point: every non-finite entry is evaluated once
    more as the pair (f, v * (1 + _NUDGE)), k recomputed, and stays NaN if
    that is undefined too.
    """
    q = _pole_indicator(_g33(prep, v, 2.0 * math.pi * freqs / v))
    nan = ~np.isfinite(q)
    if nan.any():
        bump = np.broadcast_to(v, q.shape)[nan] * (1.0 + _NUDGE)
        f = np.broadcast_to(freqs, q.shape)[nan]
        q[nan] = _pole_indicator(_g33(prep, bump, 2.0 * math.pi * f / bump))
    return q


def pole_indicator_at(stack: LayerStack, frequencies, velocities) -> np.ndarray:
    """Pole indicator Im(1/u3) of ``stack`` at (frequency, velocity) pairs.

    One batch over all pairs; NaN where the response stays undefined after
    the 1e-9 nudge.  Its zeros along the velocity axis are the surface modes.
    """
    freqs = np.asarray(frequencies, dtype=float)
    return _indicator(_prepare(stack), freqs, np.asarray(velocities, dtype=float))


def _chandrupatla(
    prep: _Prepared, freqs: np.ndarray, v: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the pole indicator in sign-changing brackets.

    ``v`` holds the ends of each bracket, shape (n, 2), and ``q`` the
    indicator there.  Chandrupatla's method (Adv. Eng. Software 28(3),
    145-149, 1997), vectorised over the brackets still open: an
    inverse-quadratic step where the last three points allow it, a bisection
    step otherwise.  A bracket closes when its width is at most
    max(_REL_TOL * v, 8 * spacing(v)).  Returns (roots, accepted).  A pole of
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
        tol = np.maximum(_REL_TOL * hi, 8.0 * np.spacing(hi))
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
        x, ok = _chandrupatla(prep, freqs[owner[sel]], v[sel], q[sel])
        roots[owner[sel[ok]]] = x[ok]


def _scan(
    prep: _Prepared,
    freqs: np.ndarray,
    roots: np.ndarray,
    idx: np.ndarray,
    grid: np.ndarray,
) -> None:
    """Settle frequencies ``idx`` from the cells of the scan grid.

    The grid is walked upward in blocks of ``_SCAN_BLOCK`` cells, and one
    ``_indicator`` call per block evaluates the (frequency, velocity) mesh
    of every frequency still scanning, stepping off undefined points as a
    refinement batch does; q at a block's lowest velocity is carried from
    the block below.  A frequency stops after the first block that holds a
    sign change of q, and that block's cells become its brackets.  Once
    none is scanning, one ``_settle`` refines every frequency's brackets;
    one whose brackets were all rejected resumes at its next block in
    another pass.
    Each frequency's brackets are thus tried in ascending velocity order,
    as from a scan of the whole grid, and give the same root, but the
    blocks above the one holding it are never evaluated.
    """
    n_cells = grid.size - 1
    nxt = np.zeros(freqs.size, dtype=int)  # first cell not yet scanned
    edge = np.empty(freqs.size)  # q at grid[nxt], carried from the block below
    while idx.size:
        owner, cells, q_cells = [], [], []
        scanning = idx
        for lo in range(nxt[idx].min(), n_cells, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, n_cells)
            now = scanning[nxt[scanning] == lo]
            if not now.size:
                continue
            q = _indicator(prep, freqs[now, None], grid[lo + (lo > 0):hi + 1])
            if lo:
                q = np.concatenate([edge[now, None], q], axis=1)
            edge[now], nxt[now] = q[:, -1], hi
            q = np.lib.stride_tricks.sliding_window_view(q, 2, axis=1)
            hit = (np.sign(q).prod(axis=2) < 0).any(axis=1)
            owner.append(np.repeat(now[hit], hi - lo))
            cells.append(np.tile(np.lib.stride_tricks.sliding_window_view(
                grid[lo:hi + 1], 2), (hit.sum(), 1)))
            q_cells.append(q[hit].reshape(-1, 2))
            scanning = np.setdiff1d(scanning, now[hit])
            if not scanning.size:
                break
        owner = np.concatenate(owner)
        order = np.argsort(owner, kind="stable")
        _settle(prep, freqs, roots, owner[order], np.concatenate(cells)[order],
                np.concatenate(q_cells)[order])
        idx = idx[np.isnan(roots[idx]) & (nxt[idx] < n_cells)]


def _find_modes(
    stack: LayerStack, frequencies: np.ndarray, hints: np.ndarray | None
) -> np.ndarray:
    """Lowest accepted root per frequency, NaN where none.

    Brackets come from windows of the half-widths ``_HINT_WINDOWS`` around
    the hints, clipped to the search window, then, for frequencies still
    open, from the scan's cells (``_scan``).
    """
    if hints is not None and not np.isfinite(hints).all():
        raise ValueError("hints must be finite")
    prep = _prepare(stack)
    freqs = np.asarray(frequencies, dtype=float)
    roots = np.full(freqs.size, np.nan)
    top = prep.v_ceiling * (1.0 - 1e-9)
    for w in () if hints is None else _HINT_WINDOWS:
        v = np.clip(np.stack([hints - w, hints + w], axis=1), prep.v_floor, top)
        idx = np.flatnonzero(np.isnan(roots) & (v[:, 0] < v[:, 1]))
        if idx.size:
            q = _indicator(prep, np.repeat(freqs[idx], 2), v[idx].ravel()).reshape(-1, 2)
            _settle(prep, freqs, roots, idx, v[idx], q)
    _scan(prep, freqs, roots, np.flatnonzero(np.isnan(roots)), _scan_grid(prep))
    return roots


def dispersion_curve(stack: LayerStack, frequencies, *, hints=None) -> DispersionCurve:
    """Phase velocity of one surface mode per frequency.

    ``frequencies`` must be positive, finite and strictly increasing.
    Without ``hints`` the mode is the lowest (Rayleigh-like) one in
    ``velocity_window(stack)``, found by the scan.  ``hints``, one finite
    velocity per frequency, are tried first: the windows of half-width 2.5,
    10 and 40 m/s around a hint are each one bracket, and the root of the
    first whose ends change sign around an accepted root is returned,
    whether or not a lower mode lies below that window.  So a hint close to
    the lowest mode gives the scan's root, and a hint near a higher mode
    returns that mode.  A frequency whose hint windows hold no root falls
    back to the scan.  A frequency with no mode in the window raises
    ``CurveError``.  Adjacent points differing by more than 5 % are flagged
    as discontinuities on the returned curve rather than rejected.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0:
        return DispersionCurve(frequencies=(), velocities=())
    if not (np.isfinite(freqs).all() and (freqs > 0).all()):
        raise ValueError("frequencies must be positive and finite")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequencies must be strictly increasing")
    hint_arr = None
    if hints is not None:
        hint_arr = np.asarray(list(hints), dtype=float)
        if hint_arr.shape != freqs.shape:
            raise ValueError("hints must match frequencies in length")
    roots = _find_modes(stack, freqs, hint_arr)
    failures = [int(j) for j in np.flatnonzero(np.isnan(roots))]
    if failures:
        lo, hi = velocity_window(stack)
        mhz = ", ".join(f"{freqs[j] / 1e6:.6g}" for j in failures)
        raise CurveError(
            f"no surface mode at {mhz} MHz (frequency indices {failures} of "
            f"{freqs.size}) in window [{lo:.1f}, {hi:.1f}] m/s",
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

    Independent analytic reference for the solver's half-space roots;
    bisection on x = v/v_t to machine precision.
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
