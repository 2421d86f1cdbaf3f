"""Forward SAW solver for layered half-spaces.

For fixed (omega, k) the depth dependence of harmonic fields in each medium
is a sum of six partial waves e^{ik(x1 + alpha x3)}.  In a medium whose
stiffness is orthotropic in the propagation frame (every isotropic one, and
a cubic crystal cut along a symmetry plane, such as Si(001) along [110])
they split into an SH wave and two sagittal waves, whose vertical
slownesses alpha and polarizations are closed-form in v = omega/k
(``_closed_form``).  Such a medium's moduli are held once, as a one-medium
``_Stacked`` on ``_Medium.closed``, and a stack whose media all have one
joins them on ``_Prepared.closed``, so one call over the medium axis builds
every medium's waves.  Only a medium without that symmetry solves for them
as a 6-dimensional linear eigenproblem in the state vector (displacement,
scaled traction).  The surface response to a unit normal surface stress
(``_g33``) comes from a surface-impedance recursion (Rokhlin & Wang, J.
Acoust. Soc. Am. 112(3), 822-834, 2002), which ``_surface`` runs from a
batch of velocities to the surface matrices in one pass.  Every medium's
waves come with the decaying or downgoing ones first; the substrate's give
its impedance Z = B A^-1, and a layer's are referenced at its top (d), the
rest at its bottom (u).  Continuity with the impedance below ties the u
amplitudes to the d ones, and the traction and displacement at the layer's
top then give the impedance it presents to the layer above.  When every
medium is orthotropic in the frame the SH wave decouples exactly, and
since a normal stress does not excite it the recursion keeps only the two
sagittal waves per direction: its blocks are 2x2 and solved in closed
form.  Otherwise they are 3x3.  Every layer exponential is e^{ik alpha_d h}
or e^{-ik alpha_u h}, at most one in magnitude, so the recursion does not
grow at large frequency-thickness products the way the classical transfer
matrix does; for a closed-form medium alpha_u = -alpha_d exactly, and the
two are one exponential.  The
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
Chandrupatla's bracketed method, which opens with a regula-falsi step and
goes on by inverse-quadratic or bisection steps.  The windows' half-widths
run from 1 mm/s, which a hint from a model's own prediction lands within,
to 40 m/s; their ends are evaluated in one batch and the windows refined
in ascending order of width, so a hint returns what trying the windows one
after another gives.  A frequency none of whose windows changes sign
scans at once, and its cells join the windows in one refinement pass, so
a curve with some hints missed refines once, not twice; only a frequency
whose sign-changing windows were all rejected scans afterwards.  Every
value of Im(1/u3) comes from ``_indicator``,
for a batch of (frequency, velocity) pairs or a scan block's mesh.  Where
a medium's waves are degenerate (at a bulk speed along x1 its up and down
waves coincide) the wave producers only flag the velocity; every batch is
evaluated whole and its response masked NaN there, and ``_indicator``
evaluates its batch once more, 1e-9 higher at the velocities holding an
undefined entry, k recomputed, and keeps those entries.  A point holds f
fixed, or with ``_Prepared.fixed_k`` k, as synthesis does at a mask's k_n =
2 pi n / d.
``dispersion_curve`` is its one public entry; the scan's 5 m/s step, the
hint windows and the root tolerance are fixed.  The scan walks up in blocks
of cells, and a frequency leaves it at the first block that brackets a
sign change, so the velocities above its lowest mode are mostly never
evaluated.  Evaluating the response instead of a raw determinant keeps the
mode indicator independent of eigenvector normalization, which is what
makes bracketed root finding reliable here.

One batch of pairs may also span several stacks of one layer count, each
owning a consecutive group of pairs.  A stack's own prep holds each
medium's moduli with a point axis of 1, which serves every velocity.
``_joined`` takes each stack as its media and layer thicknesses, the
media made by ``_stack_media`` as ``_prepare`` makes them, with no
``LayerStack`` and no prep per stack.  It gives each medium's arrays and
each thickness a point axis of one entry per pair, taken from the pair's
own stack, so every pair gets exactly the value its stack's own batch
gives.  A batch costs nearly the same at 35 pairs as at 210, so a fit's
Jacobian evaluates its fitted stack and every stepped one in a single
``_indicator`` call, each stencil stack's media made from the template's
with only the fitted layers' swapped in.  Scan meshes and the mode count
take one stack's prep.

The velocities below the lowest mode are skipped with proof.
``_mode_count`` counts the modes below v at k = omega / v by the
Wittrick-Williams algorithm (Q. J. Mech. Appl. Math. 24, 263-284, 1971):
the negative eigenvalues of the Hermitian dynamic stiffness, which it
eliminates bottom-up from the same waves, each layer's i F U^-1 and the
substrate's -i B A^-1.  Each layer is split into floor(k h sqrt(v^2 / s^2
- 1) / pi) + 1 sublayers, s^2 = c_min / (2 rho) from its stiffness's
smallest Mandel eigenvalue, so that by Korn's and Poincare's inequalities
no clamped sublayer has a mode below v and the count needs no clamped-mode
term.  Before the scan one count on the (frequency x block) mesh, at the
midpoint of each block's first cell, starts each frequency at the highest
block whose count is 0, and at the floor where its ladder of counts is not
finite or decreases.  The count is taken at fixed k, so at fixed f this
holds while the lowest branch omega_1(k) increases with k; on every grid
checked the count was non-decreasing in v and first stepped at the scan's
root.  At fixed k it holds with no such assumption.  The
skipped cells hold only poles of the indicator that the root finder would
reject, so every root is the one a scan from the floor gives.  On a cold
35-point curve of stack 1A this takes the scan from 16 558 response points
in 14 batches to 2 414 in 10, plus 455 count points; one more count batch,
1e-6 below each cold root at the root's own wavenumber, where it needs no
such assumption, flags the points with a mode below
(``DispersionCurve.lower_modes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CurveError, DegeneratePointError, FormatError, StackJoinError
from .materials import (
    ElasticMaterial,
    ElasticTensor,
    IsotropicMaterial,
    LayerStack,
    PropagationGeometry,
    isotropic_voigt,
    stiffness_of,
)

_SCAN_STEP = 5.0  # m/s, velocity step of the cold scan's grid
_REL_TOL = 1e-12  # relative bracket width at which a root is accepted
_HINT_WINDOWS = (0.001, 0.05, 2.5, 10.0, 40.0)  # m/s, half-widths of the windows around hints
_PROP_TOL = 1e-8  # |Im alpha| below this (relative) counts as propagating
_RESIDUAL_TOL = 1e-8  # eigenpair residual above this marks a defective point
_NUDGE = 1e-9  # relative velocity step off a degenerate point, taken once
_ORTHOTROPIC_TOL = 1e-12  # couplings below this fraction of max|C| count as 0
# sign of each sagittal row a1, a3, b1, b3 from a closed-form +alpha wave to
# its -alpha twin
_FLIP = np.array([-1.0, 1.0, 1.0, -1.0])[:, None, None, None]
_CONTINUITY_JUMP = 0.05  # adjacent curve points differing more raise a flag
_BELOW_ROOT = 1e-6  # relative step below a cold root at which modes are counted
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
    # indices of the cold-scanned points with a mode counted below the
    # returned velocity (``dispersion_curve``)
    lower_modes: tuple[int, ...] = ()

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
        object.__setattr__(self, "lower_modes", tuple(self.lower_modes))

    def __len__(self) -> int:
        return len(self.frequencies)

    @property
    def band(self) -> tuple[float, float]:
        if not self.frequencies:
            raise ValueError("empty curve has no band")
        return self.frequencies[0], self.frequencies[-1]


def _csv_text(header: str, columns, meta: dict | None = None) -> str:
    """``# key=value`` lines, the header, then one line per row of ``columns``
    (iterables of Python floats), each float as its ``repr``, comma-joined."""
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(header)
    lines.extend(map(",".join, zip(*[map(repr, column) for column in columns])))
    return "\n".join(lines) + "\n"


def _parse_rows(rows: list[str], n: int, positive: bool) -> np.ndarray | None:
    """``rows`` as ``n`` columns, or None unless each non-empty one holds n
    finite (positive) numbers."""
    if not any(rows):
        return np.empty((n, 0))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T
    except ValueError:
        return None
    ok = data.shape[0] == n and np.isfinite(data).all() and (not positive or (data > 0).all())
    return data if ok else None


def _read_table(path, headers: tuple[str, ...], positive: bool = False):
    """Read a CSV exchange file into ``(header, columns, meta)``.

    Blank lines are skipped, and ``# key=value`` lines anywhere go into
    ``meta``.  The first other line must be one of ``headers``; each later
    one must hold as many finite numbers (positive ones if ``positive``) as
    the header has columns.  ``columns`` holds one array per column.  Faults
    raise ``FormatError`` naming ``path``; row faults carry the file line.

    Only the lines up to the header are read one by one; ``_parse_rows``
    takes the body whole.  A comment or whitespace-only line holds no
    number, so a body holding one, or a bad row, fails that parse, and only
    then is the body read line by line, as the head is.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    expected = " or ".join(map(repr, headers))
    meta: dict[str, str] = {}
    header = None
    rows, linenos = [], []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
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
            n = header.count(",") + 1
            columns = _parse_rows(lines[lineno:], n, positive)
            if columns is not None:
                return header, columns, meta
        else:
            raise FormatError(f"{path}: line {lineno}: bad header {line!r}, expected {expected}",
                              line=lineno)
    if header is None:
        raise FormatError(f"{path}: no column header, expected {expected}")
    columns = _parse_rows(rows, n, positive)
    if columns is None:  # find the first bad row, one line at a time
        i = next(i for i, row in enumerate(rows) if _parse_rows([row], n, positive) is None)
        kind = "positive finite" if positive else "finite"
        raise FormatError(f"{path}: line {linenos[i]}: expected {n} {kind} numbers, "
                          f"got {rows[i]!r}", line=linenos[i])
    return header, columns, meta


def dispersion_csv_text(curve: DispersionCurve) -> str:
    if curve.sigmas is None:
        return _csv_text(CSV_HEADER, (curve.frequencies, curve.velocities))
    return _csv_text(CSV_HEADER_SIGMA, (curve.frequencies, curve.velocities, curve.sigmas))


def write_dispersion_csv(curve: DispersionCurve, path: str | Path) -> None:
    Path(path).write_text(dispersion_csv_text(curve), encoding="utf-8", newline="\n")


def read_dispersion_csv(path: str | Path) -> DispersionCurve:
    header, columns, _ = _read_table(path, (CSV_HEADER, CSV_HEADER_SIGMA), positive=True)
    try:
        return DispersionCurve(
            frequencies=columns[0],
            velocities=columns[1],
            sigmas=columns[2] if header == CSV_HEADER_SIGMA else None,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# --- partial waves ------------------------------------------------------------


# Voigt indices of the index pairs (i, 1) and (i, 3), i = 1, 2, 3: the rows
# and columns of Q = C_i1k1, R = C_i1k3 and T = C_i3k3 in the 6x6 matrix
_X1, _X3 = [0, 5, 4], [4, 3, 2]
_QRT_ROWS = np.array([_X1, _X1, _X3])[:, :, None]
_QRT_COLS = np.array([_X1, _X3, _X3])[:, None, :]
# Voigt indices of C11, C13, C33, C44, C55 and C66
_MODULI = (np.array([0, 0, 2, 3, 4, 5]), np.array([0, 2, 2, 3, 4, 5]))


def _qrt(c: np.ndarray) -> np.ndarray:
    """(Q, R, T) = (C_i1k1, C_i1k3, C_i3k3) for x1 propagation and x3 depth,
    stacked (3, 3, 3) and read by index from the 6x6 Voigt matrix ``c``: the
    entries the full 3x3x3x3 tensor holds there."""
    return c[_QRT_ROWS, _QRT_COLS]


@dataclass(frozen=True, eq=False)
class _Stacked:
    """Closed-form media stacked along a medium axis, each array (..., media,
    points).  The point axis is 1, one medium for every velocity of a
    batch, or m, one per (frequency, velocity) pair (``_joined``)."""

    moduli: np.ndarray  # (6, media, points): C11, C13, C33, C44, C55, C66 over c_ref
    rho_scaled: np.ndarray  # rho / c_ref
    # C55^2 + C33 C11 - (C13 + C55)^2, the alpha^2 coefficient at X = 0, in
    # float arithmetic per medium: numpy's square of C13 + C55 can differ
    # from the float power in the last bit
    b0: np.ndarray


def _combine(parts: list[_Stacked], fn) -> _Stacked:
    """The ``_Stacked`` whose every array is ``fn`` of that array of each of ``parts``."""
    return _Stacked(**{name: fn([getattr(st, name) for st in parts])
                       for name in ("moduli", "rho_scaled", "b0")})


@dataclass(frozen=True, eq=False)
class _Medium:
    """Constant pieces of the depth-evolution operator for one medium.

    Its partial waves come in closed form when the medium is orthotropic in
    the frame (``closed`` set, a one-medium ``_Stacked`` for
    ``_closed_form``), and from the eigenproblem of ``operator`` otherwise
    (``_full_waves``).  A medium with C13 + C55 = 0 takes the eigenproblem
    too: its closed-form sagittal polarization would vanish.  ``build``
    reads every piece from the 6x6 Voigt matrix, with no 3x3x3x3 tensor,
    and for an isotropic medium with no linear algebra.  ``n0`` is built
    for a closed-form medium too: ``operator`` gives its eigenproblem, the
    reference its closed form is checked against.  In a joined prep
    (``_joined``) ``closed``, or else ``n0`` and ``rho_scaled``, hold one
    entry per (frequency, velocity) pair.
    """

    n0: np.ndarray  # v-independent part of the 6x6 operator, (6, 6) or (m, 6, 6)
    rho_scaled: float  # rho / c_ref, multiplies v^2 on the lower-left diagonal
    # s^2 = c_min / (2 rho), with c_min the smallest eigenvalue of the Mandel
    # stiffness: a slab of the medium clamped on both faces has no mode below
    # v while k h sqrt(v^2 / s^2 - 1) < pi (``_mode_count``)
    s2: float
    closed: _Stacked | None = None

    @classmethod
    def build(cls, c: np.ndarray, rho: float, c_ref: float,
              isotropic: bool = False) -> "_Medium":
        """The medium of Voigt stiffness ``c`` (6x6, Pa, in the frame) and
        density ``rho``, its moduli over ``c_ref``.

        An ``isotropic`` one (``c`` from ``isotropic_voigt``) takes no
        linear algebra: T^-1 is diagonal, so every entry of ``n0`` is at
        most one product, which is what the matrix products give; the
        Mandel stiffness has the eigenvalues 3 lambda + 2 mu and 2 mu; and
        the closed form always applies, since C13 + C55 = lambda + mu > 0.
        """
        if isotropic:
            lam, mu, c11 = c.item(0, 1), c.item(3, 3), c.item(0, 0)
            # T = diag(mu, mu, C11), Q = diag(C11, mu, mu), R_13 = lambda, R_31 = mu
            t1, t3 = 1.0 / mu, 1.0 / c11
            n0 = np.zeros((6, 6))
            n0[0, 2], n0[2, 0] = -(t1 * mu), -(t3 * lam)  # -T^-1 R^T
            n0[0, 3] = n0[1, 4] = t1 * c_ref  # T^-1 c_ref
            n0[2, 5] = t3 * c_ref
            n0[3, 0] = (-c11 + lam * t3 * lam) / c_ref  # (R T^-1 R^T - Q) / c_ref
            n0[4, 1] = -mu / c_ref
            n0[5, 2] = (-mu + mu * t1 * mu) / c_ref
            n0[3, 5], n0[5, 3] = -(lam * t3), -(mu * t1)  # -R T^-1
            c_min = min(2.0 * mu, 3.0 * lam + 2.0 * mu)
            orthotropic = True
        else:
            q, r, t = _qrt(c)
            t_inv = np.linalg.inv(t)
            n0 = np.zeros((6, 6))
            n0[:3, :3] = -t_inv @ r.T
            n0[:3, 3:] = t_inv * c_ref
            n0[3:, :3] = (-q + r @ t_inv @ r.T) / c_ref
            n0[3:, 3:] = -r @ t_inv
            mandel = np.sqrt([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
            c_min = float(np.linalg.eigvalsh(mandel[:, None] * c * mandel)[0])
            # C14-C16, C24-C26, C34-C36, C45, C46 and C56: the couplings that
            # vanish when the frame's coordinate planes are mirror planes
            couplings = np.abs(np.triu(c, 1)[:, 3:]).max()
            orthotropic = (couplings <= _ORTHOTROPIC_TOL * np.abs(c).max()
                           and c[0, 2] + c[4, 4] != 0)
        s2 = c_min / (2.0 * rho)
        closed = None
        if orthotropic:
            moduli = c[_MODULI] / c_ref
            c11, c13, c33, _, c55, _ = moduli.tolist()
            closed = _Stacked(moduli=moduli[:, None, None],
                              rho_scaled=np.array([[rho / c_ref]]),
                              b0=np.array([[c55 * c55 + c33 * c11 - (c13 + c55) ** 2]]))
        return cls(n0=n0, rho_scaled=rho / c_ref, s2=s2, closed=closed)

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


def _slowness_squares(st: _Stacked, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha^2 of the two sagittal waves and the SH wave at x = rho v^2 / c_ref.

    ``x`` is (media, m), one row per medium of ``st``.  Returns (y (3,
    media, m), degenerate (media, m)), degenerate where some alpha^2 is 0
    or the two sagittal ones coincide.
    """
    c11, c13, c33, c44, c55, c66 = st.moduli
    pq = (c11 - x) * (c55 - x)
    b = st.b0 - (c55 + c33) * x
    disc = b * b - (4.0 * c33 * c55) * pq
    r = np.sqrt(disc.astype(complex))
    np.negative(r, out=r, where=b < 0)
    s = -0.5 * (b + r)  # c33 c55 times the root of larger magnitude
    sh = x - c66
    y = np.empty((3,) + x.shape, dtype=complex)
    np.divide(s, c33 * c55, out=y[0])
    np.divide(pq, s, out=y[1])
    np.divide(sh, c44, out=y[2])
    # y[1] is 0 where pq is, y[2] where sh is, and y[0] only where s and so
    # disc is, which is where the two sagittal roots coincide
    return y, pq * disc * sh == 0


def _closed_form(st: _Stacked, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial waves of media orthotropic in the frame, in closed form.

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

    One call serves every medium of ``st`` at once, as whole-array
    arithmetic over (medium, velocity): ``_surface`` makes one over
    ``_Prepared.closed`` for an all-closed-form stack, and ``_full_waves``
    one over a single medium's ``_Medium.closed``.  Returns alpha (3,
    media, m) of the two sagittal waves and SH, +alpha only, the sagittal
    block as [row, wave, medium, velocity] (4, 4, media, m), and valid
    (media, m).  The block holds rows a1, a3, b1, b3 (``_SAGITTAL_ROWS``)
    of the waves +alpha_1, +alpha_2, -alpha_1, -alpha_2
    (``_SAGITTAL_COLS``).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    c11, c13, c33, _, c55, _ = st.moduli
    x = st.rho_scaled * v * v
    y, bad = _slowness_squares(st, x)
    alpha = np.sqrt(y)
    np.negative(alpha, out=alpha, where=alpha.imag < 0)
    g, y2, a2 = c13 + c55, y[:2], alpha[:2]
    w = np.empty((4, 4) + x.shape, dtype=complex)
    np.multiply(a2, g, out=w[0, :2])
    np.subtract(x - c11, c55 * y2, out=w[1, :2])
    np.multiply(w[1, :2] + g * y2, c55, out=w[2, :2])
    np.multiply(a2, c33 * w[1, :2] + c13 * g, out=w[3, :2])
    np.multiply(w[:, :2], _FLIP, out=w[:, 2:])
    return alpha, w, ~bad


def _full_waves(
    med: _Medium, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All six partial waves of ``med`` at velocities v, n = 3.

    Returns entry-major (alpha (2n, m), w (2n, 2n, m), valid (m,)), the
    rows of w the displacements a over the tractions b / c_ref, with the
    decaying-or-downgoing waves (``_masks``), which the recursion
    references to a medium's top, in the first n columns, as the sagittal
    block of ``_closed_form`` has them for n = 2.  In closed form (a
    one-medium ``_closed_form`` call) those are the +alpha waves: below the
    window's ceiling every sagittal alpha of the substrate has Im alpha >
    0, a propagating SH wave's +alpha carries flux C44 alpha > 0, and in a
    layer a propagating wave's twin carries exactly the negated flux and
    the same |E| = 1, so either labelling keeps the recursion bounded.  The
    eigenproblem (``_wave_fields``) orders by (Im, Re), growing waves
    first; a stable sort on ``_masks`` moves the decaying-or-downgoing ones
    ahead, and a velocity without exactly three of them is invalid.
    """
    if med.closed is None:
        alpha, w, flux, valid = _wave_fields(med, v)
        down, _ = _masks(alpha, flux)
        order = np.argsort(~down, axis=1, kind="stable")
        alpha = np.take_along_axis(alpha, order, axis=1)
        w = np.take_along_axis(w, order[:, None], axis=2)
        return alpha.T, w.transpose(1, 2, 0), valid & (down.sum(axis=1) == 3)
    alpha, sagittal, valid = (a[..., 0, :] for a in _closed_form(med.closed, v))
    # rows a1, a2, a3, b1, b2, b3 of the +alpha waves, then the -alpha
    # ones, which flip the sign of a1, b2 and b3
    w = np.zeros((6, 6, valid.size), dtype=complex)
    w[_SAGITTAL_ROWS[:, None], _SAGITTAL_COLS] = sagittal
    w[1, 2] = w[1, 5] = 1.0
    np.multiply(alpha[2], med.closed.moduli[3, 0], out=w[4, 2])
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
    med = _Medium.build(tensor.voigt, rho, c_ref)
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
    # a float per layer, or an (m,) array over a joined prep's pairs
    thicknesses: tuple
    v_floor: float
    v_ceiling: float
    # every medium's ``_Medium.closed`` joined in order, for one
    # ``_closed_form`` call over the stack; None when a medium needs the
    # eigenproblem
    closed: _Stacked | None
    fixed_k: bool = False  # a point holds k fixed, not f (``_wavenumbers``)


# Stacks realised during a fit share most of their materials, so what
# depends on one material and the geometry (plus c_ref for a medium) is
# cached by value across stacks, and ``_prepare`` only assembles it.  A fit
# step makes a new film material, whose miss costs little: an isotropic
# medium comes from its Lame constants with no ``ElasticTensor``, no
# 3x3x3x3 tensor and no linear algebra (``_Medium.build``).  The cubic
# substrate's rotation and validation are made once per geometry.


@lru_cache(maxsize=64)
def _frame_stiffness(material: ElasticMaterial, geometry: PropagationGeometry) -> np.ndarray:
    """The 6x6 Voigt stiffness (Pa) of ``material`` in the frame of ``geometry``."""
    if isinstance(material, IsotropicMaterial):
        return isotropic_voigt(material)
    return stiffness_of(material, geometry).voigt


@lru_cache(maxsize=64)
def _medium(material: ElasticMaterial, geometry: PropagationGeometry, c_ref: float) -> _Medium:
    return _Medium.build(_frame_stiffness(material, geometry), material.density, c_ref,
                         isinstance(material, IsotropicMaterial))


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
    c = _frame_stiffness(material, geometry)
    vals, vecs = np.linalg.eigh(_qrt(c)[0] / material.density)
    ceiling = min(math.sqrt(val) for val, pol in zip(vals, vecs.T)
                  if math.hypot(pol[0], pol[2]) > 1e-8)
    med = _medium(material, geometry, float(np.abs(c).max()))
    if med.closed is None:
        return ceiling
    c11, _, c33, _, c55, _ = med.closed.moduli.ravel().tolist()
    # the alpha^2 coefficient is b0 - s X, and disc = (b0 - s X)^2
    # - 4 C33 C55 (C11 - X)(C55 - X); the coinciding alpha^2 is -b / (2 C33 C55)
    b0, s = med.closed.b0.item(), c55 + c33
    disc = ((c33 - c55) ** 2, 4.0 * c33 * c55 * (c11 + c55) - 2.0 * b0 * s,
            b0 * b0 - 4.0 * c33 * c55 * c11 * c55)
    for x in np.roots(disc):
        if x.imag == 0 and x.real > 0 and b0 - s * x.real <= 0:
            ceiling = min(ceiling, math.sqrt(x.real / med.rho_scaled))
    return ceiling


def _stack_media(materials, geometry: PropagationGeometry) -> tuple[_Medium, ...]:
    """The media of a stack's ``materials`` (surface-first, substrate last),
    their moduli over the stack's c_ref, the largest |C_ij| of any of them."""
    c_ref = float(np.abs([_frame_stiffness(m, geometry) for m in materials]).max())
    return tuple(_medium(m, geometry, c_ref) for m in materials)


@lru_cache(maxsize=64)
def _prepare(stack: LayerStack) -> _Prepared:
    geometry = stack.geometry
    materials = [layer.material for layer in stack.layers] + [stack.substrate]
    media = _stack_media(materials, geometry)
    return _Prepared(
        media=media,
        thicknesses=tuple(layer.thickness for layer in stack.layers),
        v_floor=0.5 * min(m.shear_velocity for m in materials),
        v_ceiling=_substrate_ceiling(stack.substrate, geometry),
        closed=_medium_axis(media),
    )


def _medium_axis(media: tuple[_Medium, ...]) -> _Stacked | None:
    """Every medium's ``closed`` joined along the medium axis, None when a
    medium needs the eigenproblem."""
    parts = [med.closed for med in media]
    return None if None in parts else _combine(parts, lambda a: np.concatenate(a, axis=-2))


def _joined(stacks, sizes) -> _Prepared:
    """One prep for a batch of pairs in which ``stacks[i]``, its media
    (``_stack_media``) and layer thicknesses, owns the next ``sizes[i]``
    pairs, so that one ``_indicator`` call evaluates each stack at its own
    pairs.

    Each thickness and each medium gets a point axis, one entry per pair:
    the trailing axis of a closed-form medium's ``closed`` arrays, and for
    one without a closed form an (m, 6, 6) ``n0`` and an (m,)
    ``rho_scaled``, which ``_Medium.operator`` broadcasts.  Each field of
    the closed-form media is one concatenation over media x stacks and one
    ``np.repeat`` over the pairs, (..., media, m), and each medium's
    ``closed`` is its slice of the medium axis.  Every entry is its own
    stack's, so each pair gets the value its own stack's batch gives, even
    where the stacks' ``c_ref`` differ (a fitted isotropic layer that is the
    stiffest medium rescales it at every step).  Stacks that differ in
    layer count, or whose medium at one depth has a closed form in some of
    them only, raise ``StackJoinError``.  Only ``_indicator`` takes a
    joined prep, and its step off an undefined pair evaluates the whole
    batch again, so a joined prep is never cut to a subset of its pairs.
    Its velocity window is NaN, and a medium's ``s2`` (read by the mode
    count only) and a closed-form medium's unused eigenproblem pieces are
    the first stack's.
    """
    if len({len(media) for media, _ in stacks}) > 1:
        raise StackJoinError("stacks with different layer counts cannot share a batch")
    depths = list(zip(*(media for media, _ in stacks)))
    for i, meds in enumerate(depths):
        if len({med.closed is None for med in meds}) > 1:
            raise StackJoinError(f"medium {i} (surface-first) has a closed form "
                                 "in some of the stacks only")
    closed_depths = [meds for meds in depths if meds[0].closed is not None]

    def field(name):
        a = np.concatenate([getattr(med.closed, name) for meds in closed_depths for med in meds],
                           axis=-1)
        return np.repeat(a.reshape(a.shape[:-2] + (len(closed_depths), len(stacks))),
                         sizes, axis=-1)

    closed = (_Stacked(**{name: field(name) for name in ("moduli", "rho_scaled", "b0")})
              if closed_depths else None)
    media, j = [], 0
    for meds in depths:
        if meds[0].closed is None:
            media.append(replace(meds[0], n0=np.repeat([med.n0 for med in meds], sizes, axis=0),
                                 rho_scaled=np.repeat([med.rho_scaled for med in meds], sizes)))
        else:
            media.append(replace(meds[0], closed=_combine([closed],
                                                          lambda a: a[0][..., j:j + 1, :])))
            j += 1
    return _Prepared(
        media=tuple(media),
        thicknesses=tuple(np.repeat(h, sizes) for h in zip(*(hs for _, hs in stacks))),
        v_floor=math.nan,
        v_ceiling=math.nan,
        closed=closed if len(closed_depths) == len(depths) else None,
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


def _waves(prep: _Prepared, v: np.ndarray) -> tuple:
    """Every medium's partial waves at velocities ``v``, for ``_surface``
    and ``_mode_count``.

    Returns (valid, waves): ``valid`` (m,) marks the velocities where every
    medium's waves are valid, and ``waves`` holds one (alpha_d, alpha_u, w)
    per medium, surface-first, alpha_u None where it is -alpha_d exactly,
    at every velocity, the invalid ones too, whose response the caller
    masks.  Each array has a unit axis before the velocities, which
    broadcasts against a scan block's frequencies.  See ``_surface`` for n
    and the columns.
    """
    if prep.closed is not None:
        alpha, w, ok = _closed_form(prep.closed, v)
        valid = ok.all(axis=0)
        waves = [(alpha[:2, i], None, w[:, :, i]) for i in range(len(prep.media))]
    else:
        waves = []
        valid = np.ones(v.shape, dtype=bool)
        for med in prep.media:
            alpha, w, ok = _full_waves(med, v)
            valid &= ok
            waves.append((alpha[:3], None if med.closed is not None else alpha[3:], w))
    return valid, [[None if a is None else a[..., None, :] for a in medium] for medium in waves]


def _surface(
    prep: _Prepared, v: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Surface displacement X and traction Y per unit amplitude of the top medium.

    Returns (valid, X, Y).  ``valid`` (m,) marks the velocities ``v`` (m,)
    where every medium's waves are valid; X and Y cover every velocity and
    mean nothing at the invalid ones.  They are n x n and entry-major: (n,
    n, F, m) for k of shape (F, m), one row per frequency of a scan block,
    and (n, n, 1, m) for one of shape (m,), one wavenumber per velocity.  When every medium is orthotropic in
    the frame the SH wave decouples exactly (Stroh 1962) and a normal
    stress does not excite it, so n = 2: one ``_closed_form`` call over
    ``prep.closed`` gives every medium's sagittal waves, and each medium's
    are a slice of its medium axis.  Otherwise n = 3, one ``_full_waves``
    call per medium: closed form where the medium allows it, from the
    eigenproblem where it does not.  Either way a medium's top-referenced
    waves (d), the decaying or downgoing ones, are its first n columns, and
    its bottom-referenced ones (u) the last n, with slownesses alpha_u =
    -alpha_d exactly in closed form.

    The substrate's impedance Z = B A^-1 of its accepted waves and the
    bottom layer's coupling S to it (``_coupling``) do not depend on k:
    they are formed once per velocity, with a unit axis before the
    velocities that broadcasts against a scan block's frequencies.  From
    the bottom layer up: T = E_u S E_d, X = A_d - A_u T and Y = B_d - B_u
    T, and Y X^-1 is the impedance under the next layer.  E_d = exp(ik
    alpha_d h) and E_u = exp(-ik alpha_u h) are diagonal, one exponential
    where alpha_u = -alpha_d.  Rows of X and Y are the displacement and
    traction components kept, the normal one last, and columns the
    amplitudes of the top layer's d waves (the substrate's accepted waves
    for a half-space, which do not depend on k).
    """
    valid, waves = _waves(prep, v)
    h, n = prep.thicknesses, waves[0][0].shape[0]
    w_sub = waves[-1][2][:, :n]
    if len(waves) == 1:
        return valid, w_sub[:n], w_sub[n:]
    s = _coupling(_right_divide(w_sub[n:], w_sub[:n]), waves[-2][2])
    for j in range(len(h) - 1, -1, -1):
        alpha_d, alpha_u, w = waves[j]
        ihk = 1j * h[j] * k
        e_d = np.exp(ihk * alpha_d)
        e_u = e_d if alpha_u is None else np.exp(-ihk * alpha_u)
        t = e_u[:, None] * s
        t *= e_d
        xy = _matmul(w[:, n:], t)
        np.subtract(w[:, :n], xy, out=xy)
        if j:
            s = _coupling(_right_divide(xy[n:], xy[:n]), waves[j - 1][2])
    return valid, xy[:n], xy[n:]


def _g33(prep: _Prepared, v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Surface normal displacement u3 per unit scaled normal surface stress.

    Batched over velocities ``v`` and wavenumbers ``k`` shaped as for
    ``_surface``; the result is shaped like ``k``.  Every velocity is
    evaluated, and one mask sets u3 NaN at those whose waves are invalid.
    u3 = det(Y with its last row replaced by the last row of X) / det Y,
    the last row of X Y^-1 by Cramer's rule, from the cofactors c of Y's
    last row: (-Y_01, Y_00) for n = 2, the cross product of Y's first two
    rows for n = 3.  Where det Y is exactly 0 (below the substrate
    threshold Y's rows are real and imaginary, so it can cancel to 0 at a
    mode) u3 is infinite and the pole indicator Im(1/u3) is 0 there, not
    NaN.
    """
    valid, x, y = _surface(prep, v, k)
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
    out = np.empty(k.shape, dtype=complex)  # pairs' u3 has a unit frequency axis
    out[...] = np.where(valid, u3, np.nan)
    return out


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


def _wavenumbers(prep: _Prepared, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k of the points ``x`` at velocities ``v``, broadcast: 2 pi x / v from
    frequencies x, or with ``prep.fixed_k`` the wavenumbers x themselves."""
    if prep.fixed_k:
        return np.broadcast_to(x, np.broadcast_shapes(np.shape(x), np.shape(v)))
    return 2.0 * math.pi * x / v


def boundary_matrix(stack: LayerStack, omega: float, k: float) -> "BoundaryMatrix":
    """Surface-traction matrix Y of the impedance recursion at one (omega, k).

    2x2 when every medium of the stack is orthotropic in the frame, 3x3
    otherwise (see ``BoundaryMatrix``); taken out of the recursion's
    entry-major (n, n, 1, 1) block as a plain n x n matrix.
    """
    if not (omega > 0 and k > 0):
        raise ValueError("omega and k must be positive")
    valid, _, y = _surface(_prepare(stack), np.array([omega / k]), np.array([k]))
    if not valid[0]:
        raise DegeneratePointError(
            f"degenerate partial-wave point at omega={omega:.6g}, k={k:.6g}"
        )
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


# --- mode count --------------------------------------------------------------------


def _negative(d: np.ndarray) -> np.ndarray:
    """Negative eigenvalues of the Hermitian parts of entry-major 2x2 or 3x3
    matrices (n, n, ...), as floats, NaN where an entry is not finite.

    A 2x2 Hermitian matrix has eigenvalues l1 <= l2 with l1 < 0 where its
    determinant or its trace is negative and l2 < 0 where the determinant
    is positive and the trace negative; a 3x3 one takes ``eigvalsh``.
    """
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


def _mode_count(prep: _Prepared, freqs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Number J of modes below v at wavenumber k (``_wavenumbers``), at
    (frequency, velocity) pairs or on a scan block's mesh (shaped as for
    ``_indicator``): the sagittal modes for n = 2, all modes for n = 3.

    Wittrick & Williams (Q. J. Mech. Appl. Math. 24, 263-284, 1971): J is
    the number of negative eigenvalues of the stack's Hermitian dynamic
    stiffness plus J0, the modes below v of its members clamped on both
    faces.  A layer's stiffness maps the displacements at its top and
    bottom to the forces on its faces, K = i F U^-1 (the positive factor
    k c_ref dropped), with U = [[A_d, A_u E_u], [A_d E_d, A_u]] and F =
    [[-B_d, -B_u E_u], [B_d E_d, B_u]]; the substrate's is -i B A^-1.
    With P = A E A^-1 of each direction, Z = B A^-1 and M = I - P_d P_u,
    [K_tb; K_bb] M = [-i (Z_u - Z_d) P_u; i (Z_u - Z_d P_d P_u)], and
    [K_tt; K_bt] = [-i Z_d; i Z_d P_d] - [K_tb; K_bb] P_d.  The stiffness
    below an interface is eliminated bottom-up: the pivot D = K_bb +
    K_below, then K_below = K_tt - K_tb D^-1 K_bt, and by Sylvester's law
    of inertia the count of the whole is that of every pivot plus that of
    the surface's K_below.  Each layer is split into N = floor(k h sqrt(v^2
    / s^2 - 1) / pi) + 1 equal sublayers (the largest N over the batch),
    with s^2 = ``_Medium.s2``: by Korn's inequality (the strain energy is
    at least c_min / 2 times |grad u|^2 on a clamped slab) and Poincare's
    (|du/dx3|^2 is at least (pi / h)^2 |u|^2) a clamped sublayer then has
    no mode below v, so J0 = 0.  The half-space clamped at its top has none
    below the window's ceiling.  The waves are those of ``_surface``: every
    velocity is counted, and one mask sets J NaN where they are invalid.

    J counts modes at fixed k below the frequency k v / (2 pi): exactly the
    modes below v at a fixed-k point, with no monotonicity assumption, and
    at fixed f as long as the lowest branch omega_1(k) increases with k.
    Either way J(v) = 0 proves that no mode, and no root of the pole
    indicator, lies below v.
    """
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
        # [P; Z P] of each direction, and Z of each
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
            count += _negative(d)
            below = k_tt - _matmul(k_tb, _solve(d, k_bt))
    count += _negative(below)
    out = np.empty(np.broadcast_shapes(np.shape(freqs), valid.shape))
    out[...] = np.where(valid, count, np.nan)
    return out


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
    (F, m) mesh; either way the waves, substrate impedance and bottom
    coupling are built once per velocity, and the layer recursion
    broadcasts over the frequencies.  With ``prep.fixed_k`` the ``freqs``
    are wavenumbers, held as v varies (``_wavenumbers``); there the mode
    count that starts a scan is exact, with no monotonicity assumption.
    Pairs may take a joined prep (``_joined``), one stack per group of
    pairs.  This is the one place that steps off an undefined point: where
    an entry is not finite, the batch is evaluated once more on its own
    prep, at v * (1 + _NUDGE) in the velocity columns holding such an entry,
    k recomputed, and only those entries take the new value; one that is
    undefined there too stays NaN.
    """
    q = _pole_indicator(_g33(prep, v, _wavenumbers(prep, freqs, v)))
    nan = ~np.isfinite(q)
    if nan.any():
        bump = np.where(nan.reshape(-1, v.size).any(axis=0), v * (1.0 + _NUDGE), v)
        q[nan] = _pole_indicator(_g33(prep, bump, _wavenumbers(prep, freqs, bump)))[nan]
    return q


def _tolerance(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(width, tol) of brackets [x1, x2]: one closes once width <= tol."""
    hi = np.maximum(x1, x2)
    return np.abs(x2 - x1), np.maximum(_REL_TOL * hi, 8.0 * np.spacing(hi))


def _chandrupatla(
    prep: _Prepared, freqs: np.ndarray, v: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the pole indicator in sign-changing brackets.

    ``v`` holds the ends of each bracket, shape (n, 2), and ``q`` the
    indicator there.  Chandrupatla's method (Adv. Eng. Software 28(3),
    145-149, 1997), vectorised over the brackets still open: a regula-falsi
    step first, then an inverse-quadratic step where the last three points
    allow it and a bisection step otherwise.  Every step keeps at least
    half the tolerance from the bracket's ends.  A bracket closes when its
    width is at most max(_REL_TOL * v, 8 * spacing(v)).  Returns (roots,
    accepted).  A pole of q (a zero of u3) changes sign too, but |q| grows
    towards it, so a root is accepted only where |q| ended below its value
    at both starting ends.
    """
    roots = np.empty(len(v))
    accepted = np.zeros(len(v), dtype=bool)
    q_start = np.abs(q).min(axis=1)
    # x1 is the newest point, x2 the other end of the bracket and x3 the
    # point the last step dropped from it
    idx, (x1, x2), (f1, f2) = np.arange(len(v)), v.T, q.T
    width, tol = _tolerance(x1, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f1 / (f1 - f2)
    t[np.isnan(t)] = 0.5
    t_min = np.minimum(0.5 * tol / width, 0.5)
    t = np.clip(t, t_min, 1.0 - t_min)
    while idx.size:
        x = x1 + t * (x2 - x1)
        f = _indicator(prep, freqs[idx], x)
        same = (f > 0) == (f1 > 0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        width, tol = _tolerance(x1, x2)
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


def _start_cells(prep: _Prepared, freqs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """First cell of each frequency's scan, from one ``_mode_count`` call.

    The count is taken at the midpoint of each scan block's first cell, on
    the (frequency x block) mesh, and a frequency starts at the highest
    block whose count is 0: no mode, so no accepted root, lies below it.
    Where a frequency's ladder of counts is not finite or decreases
    anywhere, it starts at the floor.
    """
    starts = np.arange(0, grid.size - 1, _SCAN_BLOCK)
    count = _mode_count(prep, freqs[:, None], 0.5 * (grid[starts] + grid[starts + 1]))
    ok = np.isfinite(count).all(axis=1) & (np.diff(count, axis=1) >= 0).all(axis=1)
    zeros = np.where(ok, (count == 0).sum(axis=1), 0)
    return starts[np.maximum(zeros - 1, 0)]


def _scan(
    prep: _Prepared,
    freqs: np.ndarray,
    roots: np.ndarray,
    idx: np.ndarray,
    grid: np.ndarray,
    windows: tuple | None = None,
) -> None:
    """Settle frequencies ``idx`` from the cells of the scan grid.

    Each frequency starts at the block ``_start_cells`` proves free of
    modes below, the floor where it proves nothing.  The grid is walked
    upward in blocks of ``_SCAN_BLOCK`` cells, and one ``_indicator`` call
    per block evaluates the (frequency, velocity) mesh of every frequency
    still scanning, stepping off undefined points as a refinement batch
    does; q at a block's lowest velocity is carried from the block below,
    or, at a frequency's start, from one batch over the starting pairs.
    A frequency stops after the first block that holds a sign change of q,
    and that block's cells become its brackets.  Once none is scanning, one
    ``_settle`` refines every frequency's brackets, together with
    ``windows``, the (owner, ends, q) brackets of other frequencies, in
    ``_settle``'s order; a scanned frequency whose brackets were all
    rejected resumes at its next block in another pass.
    Each frequency's brackets are thus tried in ascending velocity order,
    as from a scan of the whole grid, and give the same root: the cells
    skipped below a start hold no mode, so no accepted root, and the blocks
    above the one holding it are never evaluated.
    """
    n_cells = grid.size - 1
    nxt = np.zeros(freqs.size, dtype=int)  # first cell not yet scanned
    edge = np.empty(freqs.size)  # q at grid[nxt]
    if idx.size:
        nxt[idx] = _start_cells(prep, freqs[idx], grid)
        edge[idx] = _indicator(prep, freqs[idx], grid[nxt[idx]])
    pending = [windows] if windows is not None else []
    while idx.size or pending:
        scanning = idx
        for lo in range(nxt[idx].min(initial=n_cells), n_cells, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, n_cells)
            at = np.flatnonzero(nxt[scanning] == lo)
            now = scanning[at]
            if not now.size:
                continue
            q = np.concatenate([edge[now, None],
                                _indicator(prep, freqs[now, None], grid[lo + 1:hi + 1])], axis=1)
            edge[now], nxt[now] = q[:, -1], hi
            q = np.lib.stride_tricks.sliding_window_view(q, 2, axis=1)
            hit = (np.sign(q).prod(axis=2) < 0).any(axis=1)
            pending.append((np.repeat(now[hit], hi - lo),
                            np.tile(np.lib.stride_tricks.sliding_window_view(
                                grid[lo:hi + 1], 2), (hit.sum(), 1)),
                            q[hit].reshape(-1, 2)))
            scanning = np.delete(scanning, at[hit])
            if not scanning.size:
                break
        owner, v, q = (np.concatenate(a) for a in zip(*pending))
        order = np.argsort(owner, kind="stable")
        _settle(prep, freqs, roots, owner[order], v[order], q[order])
        pending = []
        idx = idx[np.isnan(roots[idx]) & (nxt[idx] < n_cells)]


def _find_modes(
    stack: LayerStack, frequencies: np.ndarray, hints: np.ndarray | None, fixed_k: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest accepted root per frequency, NaN where none, and the frequencies
    scanned; with ``fixed_k`` the ``frequencies`` are wavenumbers (rad/m).

    Brackets come from windows of the half-widths ``_HINT_WINDOWS`` around
    the hints, clipped to the search window, and from the scan's cells
    (``_scan``).  The ends of every non-empty window of every frequency are
    evaluated in one ``_indicator`` batch.  A frequency none of whose
    windows changes sign scans at once, and one ``_settle`` takes the
    sign-changing windows, grouped by frequency in ascending order of
    width, together with the scan's cells: its rounds refine each
    frequency's narrowest sign-changing window first and a wider one only
    if that root is rejected, which is what settling the windows one after
    another gives.  Only a frequency whose sign-changing windows were all
    rejected scans afterwards.  Returns (roots, cold), ``cold`` the indices
    of the frequencies scanned.
    """
    if hints is not None and not np.isfinite(hints).all():
        raise ValueError("hints must be finite")
    prep = replace(_prepare(stack), fixed_k=True) if fixed_k else _prepare(stack)
    freqs = np.asarray(frequencies, dtype=float)
    roots = np.full(freqs.size, np.nan)
    miss, windows = np.ones(freqs.size, dtype=bool), None
    if hints is not None:
        half = np.asarray(_HINT_WINDOWS)
        top = prep.v_ceiling * (1.0 - 1e-9)
        v = np.clip(np.stack([hints[:, None] - half, hints[:, None] + half], axis=2),
                    prep.v_floor, top)  # (frequency, window, end)
        owner, window = np.nonzero(v[..., 0] < v[..., 1])
        if owner.size:
            v = v[owner, window]
            q = _indicator(prep, np.repeat(freqs[owner], 2), v.ravel()).reshape(-1, 2)
            change = np.sign(q).prod(axis=1) < 0
            windows = owner[change], v[change], q[change]
            miss[windows[0]] = False
    grid = _scan_grid(prep)
    _scan(prep, freqs, roots, np.flatnonzero(miss), grid, windows)
    rejected = np.isnan(roots) & ~miss
    _scan(prep, freqs, roots, np.flatnonzero(rejected), grid)
    return roots, np.flatnonzero(miss | rejected)


def _check_frequencies(freqs: np.ndarray) -> None:
    """``dispersion_curve``'s check of its non-empty ``freqs``."""
    if not (np.isfinite(freqs).all() and (freqs > 0).all()):
        raise ValueError("frequencies must be positive and finite")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequencies must be strictly increasing")


def _curve_roots(stack: LayerStack, freqs: np.ndarray, hints) -> tuple[np.ndarray, np.ndarray]:
    """(roots, cold) of ``_find_modes`` at the non-empty ``freqs``, after
    ``dispersion_curve``'s checks of its arguments; ``CurveError`` where a
    frequency has no mode."""
    _check_frequencies(freqs)
    hint_arr = None
    if hints is not None:
        hint_arr = np.asarray(list(hints), dtype=float)
        if hint_arr.shape != freqs.shape:
            raise ValueError("hints must match frequencies in length")
    roots, cold = _find_modes(stack, freqs, hint_arr)
    failures = [int(j) for j in np.flatnonzero(np.isnan(roots))]
    if failures:
        lo, hi = velocity_window(stack)
        mhz = ", ".join(f"{freqs[j] / 1e6:.6g}" for j in failures)
        raise CurveError(
            f"no surface mode at {mhz} MHz (frequency indices {failures} of "
            f"{freqs.size}) in window [{lo:.1f}, {hi:.1f}] m/s",
            indices=failures,
        )
    return roots, cold


def _lower_modes(stack: LayerStack, freqs: np.ndarray, roots: np.ndarray) -> tuple[int, ...]:
    """Indices of the points where the mode count ``_BELOW_ROOT`` below the
    root, at the root's own wavenumber 2 pi f / v, is not 0: a lower mode
    exists there, or the count is undefined.  At fixed k the count needs no
    monotonicity assumption (``_mode_count``)."""
    if not freqs.size:
        return ()
    prep = replace(_prepare(stack), fixed_k=True)
    below = _mode_count(prep, 2.0 * math.pi * freqs / roots, roots * (1.0 - _BELOW_ROOT))
    return tuple(int(j) for j in np.flatnonzero(below != 0))


def dispersion_curve(stack: LayerStack, frequencies, *, hints=None) -> DispersionCurve:
    """Phase velocity of one surface mode per frequency.

    ``frequencies`` must be positive, finite and strictly increasing.
    Without ``hints`` the mode is the lowest root of the pole indicator in
    ``velocity_window(stack)`` that the scan's 5 m/s cells separate from
    its poles: the lowest (Rayleigh-like) mode, unless that mode shares a
    cell with a pole or barely moves the surface.  A scanned point where
    the mode count 1e-6 below the returned velocity is not 0 (a lower mode
    exists, or the count is undefined) is listed in the curve's
    ``lower_modes``; the count is taken at the point's own wavenumber 2 pi
    f / v, where it is exact, and hinted points are not checked.
    ``hints``, one finite velocity per frequency, are tried first: the
    windows of half-width 0.001, 0.05, 2.5, 10 and 40 m/s around a hint are
    each one bracket, and the root of the first whose ends change sign
    around an accepted root is returned, whether or not a lower mode lies
    below that window.  So a hint close to the lowest mode gives the scan's
    root, and a hint near a higher mode returns that mode.  A frequency
    whose hint windows hold no root falls back to the scan.  A frequency
    with no mode in the window raises ``CurveError``.  Adjacent points
    differing by more than 5 % are flagged as discontinuities on the
    returned curve rather than rejected.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0:
        return DispersionCurve(frequencies=(), velocities=())
    roots, cold = _curve_roots(stack, freqs, hints)
    flags = tuple(
        i
        for i in range(1, freqs.size)
        if abs(roots[i] - roots[i - 1]) > _CONTINUITY_JUMP * roots[i - 1]
    )
    lower = tuple(int(cold[j]) for j in _lower_modes(stack, freqs[cold], roots[cold]))
    return DispersionCurve(
        frequencies=tuple(freqs),
        velocities=tuple(float(r) for r in roots),
        discontinuities=flags,
        lower_modes=lower,
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
