"""Elastic material records, stiffness tensors, SiGe mixing rules, and the
bundled material database.

Material database files are UTF-8 structured text, one material per named
block::

    # comment
    [silicon]
    symmetry = cubic
    c11_gpa = 165.7
    c12_gpa = 63.9
    c44_gpa = 79.6
    density_kg_m3 = 2329
    source = Hall (1967), room temperature

    [SiO2_thermal]
    symmetry = isotropic
    young_modulus_gpa = 69.8
    poisson_ratio = 0.15
    density_kg_m3 = 2200

The grammar is Python's ``configparser`` INI format with ``=`` as the only
delimiter, ``#`` starting full-line comments only, case-sensitive keys, no
interpolation and no ``[DEFAULT]`` section: a ``[DEFAULT]`` block is an
ordinary material.  An indented line continues the value above it.  A
repeated material or key is an error, as is a line that is neither a
``[name]`` header nor ``key = value``.

Moduli are stored in GPa in files and converted to Pa on load.  Required
keys depend on ``symmetry``; the only optional key is ``source``.  Unknown
keys are rejected with an error naming the entry.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

from .errors import MaterialDbError, MaterialError

# Polycrystalline Si/Ge mixing endpoints for SiGe films.  The moduli are
# chosen so that linear mixing reproduces the reference film values at
# 18/40/60 % germanium to better than 0.3 GPa; densities are bulk values.
E_SI = 160e9
E_GE = 132e9
RHO_SI = 2330.0
RHO_GE = 5320.0

# SiGe films are modeled isotropic (untextured); Poisson ratio is not a
# mixing-rule output and defaults to this fixed value unless freed.
DEFAULT_FILM_POISSON = 0.22

_VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class IsotropicMaterial:
    """Isotropic solid described by Young's modulus, Poisson ratio, density."""

    young_modulus: float  # Pa
    poisson_ratio: float
    density: float  # kg/m^3

    def __post_init__(self):
        if not self.young_modulus > 0:
            raise MaterialError(f"young_modulus must be > 0, got {self.young_modulus}")
        if not -1.0 < self.poisson_ratio < 0.5:
            raise MaterialError(
                f"poisson_ratio must be in (-1, 0.5), got {self.poisson_ratio}"
            )
        if not self.density > 0:
            raise MaterialError(f"density must be > 0, got {self.density}")

    @property
    def lame_lambda(self) -> float:
        e, nu = self.young_modulus, self.poisson_ratio
        return e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))

    @property
    def shear_modulus(self) -> float:
        return self.young_modulus / (2.0 * (1.0 + self.poisson_ratio))

    @property
    def shear_velocity(self) -> float:
        return math.sqrt(self.shear_modulus / self.density)

    @property
    def longitudinal_velocity(self) -> float:
        return math.sqrt((self.lame_lambda + 2.0 * self.shear_modulus) / self.density)


@dataclass(frozen=True)
class CubicMaterial:
    """Cubic crystal described by c11, c12, c44 (Pa) and density (kg/m^3)."""

    c11: float
    c12: float
    c44: float
    density: float

    def __post_init__(self):
        if not self.c44 > 0:
            raise MaterialError(f"c44 must be > 0, got {self.c44}")
        if not self.c11 > abs(self.c12):
            raise MaterialError(
                f"cubic stability requires c11 > |c12|, got c11={self.c11}, c12={self.c12}"
            )
        if not self.c11 + 2.0 * self.c12 > 0:
            raise MaterialError(
                f"cubic stability requires c11 + 2*c12 > 0, got {self.c11 + 2 * self.c12}"
            )
        if not self.density > 0:
            raise MaterialError(f"density must be > 0, got {self.density}")

    @property
    def shear_velocity(self) -> float:
        """Slowest pure-shear bulk velocity, min of c44 and (c11-c12)/2 branches."""
        mu = min(self.c44, 0.5 * (self.c11 - self.c12))
        return math.sqrt(mu / self.density)


ElasticMaterial = Union[IsotropicMaterial, CubicMaterial]


@dataclass(frozen=True, eq=False)
class ElasticTensor:
    """Full 6x6 Voigt stiffness matrix in Pa, symmetric positive definite."""

    voigt: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.voigt, dtype=float)
        if m.shape != (6, 6):
            raise MaterialError(f"Voigt matrix must be 6x6, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=1e-10, atol=1e-3):
            raise MaterialError("Voigt matrix must be symmetric")
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() <= 0:
            raise MaterialError(
                f"stiffness matrix must be positive definite, min eigenvalue {eigs.min():.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "voigt", m)

    def as_cijkl(self) -> np.ndarray:
        """Expand to the full 3x3x3x3 stiffness tensor."""
        c = np.empty((3, 3, 3, 3))
        for p, (i, j) in enumerate(_VOIGT_PAIRS):
            for q, (k, l) in enumerate(_VOIGT_PAIRS):
                v = self.voigt[p, q]
                c[i, j, k, l] = v
                c[j, i, k, l] = v
                c[i, j, l, k] = v
                c[j, i, l, k] = v
        return c


def tensor_to_voigt(c: np.ndarray) -> np.ndarray:
    """Contract a 3x3x3x3 stiffness tensor to the 6x6 Voigt matrix."""
    m = np.empty((6, 6))
    for p, (i, j) in enumerate(_VOIGT_PAIRS):
        for q, (k, l) in enumerate(_VOIGT_PAIRS):
            m[p, q] = c[i, j, k, l]
    return m


def rotate_cijkl(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rotate a 4th-rank tensor into the frame whose axes are the rows of basis."""
    return np.einsum("ip,jq,kr,ls,pqrs->ijkl", basis, basis, basis, basis, c)


@dataclass(frozen=True)
class PropagationGeometry:
    """Surface-wave frame: x1 along propagation, x3 along the surface normal
    (depth axis), both given in crystal axes.  Sign of the normal is
    immaterial for the centrosymmetric media handled here.
    """

    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)
    direction: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        if np.linalg.norm(n) == 0 or np.linalg.norm(d) == 0:
            raise MaterialError("geometry vectors must be nonzero")
        n = n / np.linalg.norm(n)
        d = d / np.linalg.norm(d)
        if abs(float(n @ d)) > 1e-9:
            raise MaterialError(
                "propagation direction must be orthogonal to the surface normal"
            )
        object.__setattr__(self, "normal", tuple(float(x) for x in n))
        object.__setattr__(self, "direction", tuple(float(x) for x in d))

    def basis(self) -> np.ndarray:
        """Rows are (x1, x2, x3) = (propagation, transverse, depth) in crystal axes."""
        x1 = np.asarray(self.direction)
        x3 = np.asarray(self.normal)
        x2 = np.cross(x3, x1)
        return np.vstack([x1, x2, x3])


@dataclass(frozen=True)
class Layer:
    """Finite-thickness film of one material."""

    material: ElasticMaterial
    thickness: float  # m

    def __post_init__(self):
        if not 0 < self.thickness < math.inf:
            raise MaterialError(f"layer thickness must be finite and > 0, got {self.thickness}")


@dataclass(frozen=True)
class LayerStack:
    """Ordered films (surface first) over a semi-infinite substrate."""

    layers: tuple[Layer, ...]
    substrate: ElasticMaterial
    geometry: PropagationGeometry = PropagationGeometry()

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    def with_layer(self, index: int, layer: Layer) -> "LayerStack":
        layers = list(self.layers)
        layers[index] = layer
        return replace(self, layers=tuple(layers))


# --- mixing rules -----------------------------------------------------------


def _check_fraction(c_ge: float) -> None:
    if not 0.0 <= c_ge <= 1.0:
        raise MaterialError(f"germanium fraction must be in [0, 1], got {c_ge}")


def mix_young_modulus(c_ge: float, e_si: float = E_SI, e_ge: float = E_GE) -> float:
    """Young's modulus of a SiGe film by linear mixing between Si and Ge."""
    _check_fraction(c_ge)
    if not (e_si > 0 and e_ge > 0):
        raise MaterialError("mixing endpoints must be positive")
    return e_si - c_ge * (e_si - e_ge)


def mix_density(c_ge: float, rho_si: float = RHO_SI, rho_ge: float = RHO_GE) -> float:
    """Density of a SiGe film by linear mixing between Si and Ge."""
    _check_fraction(c_ge)
    return rho_si + c_ge * (rho_ge - rho_si)


def sige_material(
    c_ge: float, poisson_ratio: float = DEFAULT_FILM_POISSON
) -> IsotropicMaterial:
    """Isotropic SiGe film material at the given germanium fraction."""
    return IsotropicMaterial(
        young_modulus=mix_young_modulus(c_ge),
        poisson_ratio=poisson_ratio,
        density=mix_density(c_ge),
    )


# --- stiffness construction --------------------------------------------------


def stiffness_from_isotropic(m: IsotropicMaterial) -> ElasticTensor:
    """Voigt stiffness from (E, nu) via the Lame constants."""
    nu = m.poisson_ratio
    if abs(nu - 0.5) < 1e-12:
        raise MaterialError("nu = 0.5 is an incompressible (singular) material")
    lam = m.lame_lambda
    mu = m.shear_modulus
    v = np.zeros((6, 6))
    v[:3, :3] = lam
    v[0, 0] = v[1, 1] = v[2, 2] = lam + 2.0 * mu
    v[3, 3] = v[4, 4] = v[5, 5] = mu
    return ElasticTensor(v)


def stiffness_from_cubic(
    m: CubicMaterial, geometry: PropagationGeometry | None = None
) -> ElasticTensor:
    """Voigt stiffness of a cubic crystal, rotated to the propagation frame."""
    v = np.zeros((6, 6))
    v[:3, :3] = m.c12
    v[0, 0] = v[1, 1] = v[2, 2] = m.c11
    v[3, 3] = v[4, 4] = v[5, 5] = m.c44
    if geometry is None:
        return ElasticTensor(v)
    c = ElasticTensor(v).as_cijkl()
    return ElasticTensor(tensor_to_voigt(rotate_cijkl(c, geometry.basis())))


def stiffness_of(
    material: ElasticMaterial, geometry: PropagationGeometry | None = None
) -> ElasticTensor:
    """Stiffness in the propagation frame for either material kind."""
    if isinstance(material, IsotropicMaterial):
        return stiffness_from_isotropic(material)
    return stiffness_from_cubic(material, geometry)


def isotropic_from_stiffness(c11: float, c12: float) -> tuple[float, float]:
    """Recover (E, nu) from the two independent isotropic Voigt entries."""
    lam, mu = c12, 0.5 * (c11 - c12)
    e = mu * (3.0 * lam + 2.0 * mu) / (lam + mu)
    nu = lam / (2.0 * (lam + mu))
    return e, nu


# --- material database --------------------------------------------------------

_ISO_KEYS = {"young_modulus_gpa", "poisson_ratio", "density_kg_m3"}
_CUBIC_KEYS = {"c11_gpa", "c12_gpa", "c44_gpa", "density_kg_m3"}


@dataclass(frozen=True)
class MaterialDb:
    """Named, validated material records plus per-entry metadata."""

    materials: dict[str, ElasticMaterial]
    metadata: dict[str, dict[str, str]]

    def __getitem__(self, name: str) -> ElasticMaterial:
        try:
            return self.materials[name]
        except KeyError:
            raise MaterialDbError(f"unknown material {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.materials

    def __len__(self) -> int:
        return len(self.materials)

    def names(self) -> tuple[str, ...]:
        return tuple(self.materials)


def _build_entry(name: str, fields: dict[str, str]) -> ElasticMaterial:
    symmetry = fields.pop("symmetry", None)
    if symmetry is None:
        raise MaterialDbError(f"entry {name!r}: missing 'symmetry' key")
    fields.pop("source", None)
    if symmetry == "isotropic":
        required = _ISO_KEYS
    elif symmetry == "cubic":
        required = _CUBIC_KEYS
    else:
        raise MaterialDbError(f"entry {name!r}: unknown symmetry {symmetry!r}")
    unknown = set(fields) - required
    if unknown:
        raise MaterialDbError(
            f"entry {name!r}: unknown key(s) {sorted(unknown)} for {symmetry} symmetry"
        )
    missing = required - set(fields)
    if missing:
        raise MaterialDbError(f"entry {name!r}: missing key(s) {sorted(missing)}")
    try:
        vals = {k: float(v) for k, v in fields.items()}
    except ValueError as exc:
        raise MaterialDbError(f"entry {name!r}: {exc}") from None
    try:
        if symmetry == "isotropic":
            return IsotropicMaterial(
                young_modulus=vals["young_modulus_gpa"] * 1e9,
                poisson_ratio=vals["poisson_ratio"],
                density=vals["density_kg_m3"],
            )
        return CubicMaterial(
            c11=vals["c11_gpa"] * 1e9,
            c12=vals["c12_gpa"] * 1e9,
            c44=vals["c44_gpa"] * 1e9,
            density=vals["density_kg_m3"],
        )
    except MaterialError as exc:
        raise MaterialDbError(f"entry {name!r}: {exc}") from None


def parse_material_db(text: str) -> MaterialDb:
    """Parse material-database text; see the module docstring for the grammar."""
    # "\0" as the default section: no real file has one, so no [DEFAULT] inheritance
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       interpolation=None, default_section="\0")
    parser.optionxform = str  # case-sensitive keys
    try:
        parser.read_string(text)
    except configparser.DuplicateSectionError as exc:
        raise MaterialDbError(f"line {exc.lineno}: duplicate material {exc.section!r}") from None
    except configparser.DuplicateOptionError as exc:
        raise MaterialDbError(f"entry {exc.section!r}: duplicate key {exc.option!r}") from None
    except configparser.Error as exc:  # parsing errors: the text names the line
        raise MaterialDbError(" ".join(str(exc).split())) from None
    materials, metadata = {}, {}
    for name in parser.sections():
        materials[name] = _build_entry(name, dict(parser[name]))
        metadata[name] = {"source": parser[name].get("source", ""),
                          "units": "GPa, kg/m3 (SI Pa in memory)"}
    return MaterialDb(materials=materials, metadata=metadata)


def load_material_db(path: str | Path) -> MaterialDb:
    """Load and validate a material database file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise MaterialDbError(f"cannot read material db {p}: {exc}") from None
    return parse_material_db(text)


def builtin_material_db() -> MaterialDb:
    """The database bundled with the package (silicon, SiO2, Si/Ge endpoints)."""
    text = resources.files("sawkit.data").joinpath("materials.db").read_text("utf-8")
    return parse_material_db(text)
