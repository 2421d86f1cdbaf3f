import math

import numpy as np
import pytest

import sawkit as sk
from sawkit.errors import MaterialDbError, MaterialError
from sawkit.materials import (
    E_GE,
    E_SI,
    RHO_GE,
    RHO_SI,
    isotropic_from_stiffness,
    parse_material_db,
    rotate_cijkl,
    stiffness_from_cubic,
    stiffness_from_isotropic,
)


# --- mixing rules ----------------------------------------------------------


def test_mix_young_modulus_table_values():
    # reference film values at 18/60/40 % germanium
    assert (E_SI, E_GE) == (160e9, 132e9)
    assert sk.mix_young_modulus(0.18) == pytest.approx(154.96e9)
    assert abs(sk.mix_young_modulus(0.18) - 155e9) < 0.3e9
    assert abs(sk.mix_young_modulus(0.60) - 143.2e9) < 0.3e9
    assert abs(sk.mix_young_modulus(0.40) - 148.8e9) < 0.3e9


def test_mix_young_modulus_endpoints():
    assert sk.mix_young_modulus(0.0) == E_SI == 160e9
    assert sk.mix_young_modulus(1.0) == E_GE == 132e9
    assert sk.mix_young_modulus(0.60) == pytest.approx(143.2e9)


def test_mix_density_table_values():
    assert (RHO_SI, RHO_GE) == (2330, 5320)
    assert sk.mix_density(0.18) == pytest.approx(2868.2)
    assert abs(sk.mix_density(0.18) - 2870.0) < 10.0
    assert abs(sk.mix_density(0.40) - 3530.0) < 10.0
    assert sk.mix_density(1.0) == 5320


def test_mixing_endpoints_solve_from_film_values():
    # endpoints reproduced by the exact 2x2 solve through the 18 % and 40 % rows
    a = np.array([[1 - 0.18, 0.18], [1 - 0.40, 0.40]])
    e_si, e_ge = np.linalg.solve(a, np.array([155e9, 148.8e9]))
    assert e_si == pytest.approx(E_SI, abs=0.2e9)
    assert e_ge == pytest.approx(E_GE, abs=0.2e9)
    # and the 60 % row is consistent within 0.3 GPa
    assert abs((1 - 0.60) * e_si + 0.60 * e_ge - 143.2e9) < 0.3e9


@pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
def test_mixing_is_affine(c):
    mid = 0.5 * c
    e_left = sk.mix_young_modulus(0.0)
    e_c = sk.mix_young_modulus(c)
    assert sk.mix_young_modulus(mid) == pytest.approx(0.5 * (e_left + e_c), rel=1e-15)
    r_left = sk.mix_density(0.0)
    r_c = sk.mix_density(c)
    assert sk.mix_density(mid) == pytest.approx(0.5 * (r_left + r_c), rel=1e-15)


@pytest.mark.parametrize("c", [-0.01, 1.01, 2.0])
def test_mixing_rejects_out_of_range(c):
    with pytest.raises(MaterialError):
        sk.mix_young_modulus(c)
    with pytest.raises(MaterialError):
        sk.mix_density(c)


# --- material records --------------------------------------------------------


def test_material_invariants():
    with pytest.raises(MaterialError):
        sk.IsotropicMaterial(young_modulus=-1e9, poisson_ratio=0.2, density=1000)
    with pytest.raises(MaterialError):
        sk.IsotropicMaterial(young_modulus=1e9, poisson_ratio=0.6, density=1000)
    with pytest.raises(MaterialError):
        sk.CubicMaterial(c11=100e9, c12=150e9, c44=50e9, density=1000)
    with pytest.raises(MaterialError):
        sk.CubicMaterial(c11=100e9, c12=-60e9, c44=50e9, density=1000)


def test_isotropic_material_rejects_an_incompressible_poisson_ratio():
    # within 1e-12 of 0.5 the Lame lambda is singular: construction fails,
    # not the prep of a later stack holding the material
    with pytest.raises(MaterialError, match="incompressible"):
        sk.IsotropicMaterial(70e9, 0.5 - 1e-13, 2000)
    sk.IsotropicMaterial(70e9, 0.5 - 1e-11, 2000)


def test_layer_and_geometry_invariants():
    m = sk.IsotropicMaterial(70e9, 0.2, 2200)
    with pytest.raises(MaterialError):
        sk.Layer(material=m, thickness=0.0)
    with pytest.raises(MaterialError):
        sk.PropagationGeometry(normal=(0, 0, 1), direction=(0, 0.3, 1))


@pytest.mark.parametrize("thickness", [math.inf, -math.inf, math.nan])
def test_layer_rejects_non_finite_thickness(thickness):
    with pytest.raises(MaterialError, match="finite"):
        sk.Layer(material=sk.IsotropicMaterial(70e9, 0.2, 2200), thickness=thickness)


# --- stiffness construction ---------------------------------------------------


def test_stiffness_from_isotropic_reference_values():
    # Lame formulas applied to the oxide record (E = 69.8 GPa, nu = 0.15)
    t = stiffness_from_isotropic(sk.IsotropicMaterial(69.8e9, 0.15, 2200))
    assert t.voigt[0, 0] == pytest.approx(73.70186335e9, rel=1e-8)
    assert t.voigt[0, 1] == pytest.approx(13.00621118e9, rel=1e-8)
    assert t.voigt[3, 3] == pytest.approx(30.34782609e9, rel=1e-8)


def test_stiffness_from_isotropic_nu_zero():
    e = 50e9
    t = stiffness_from_isotropic(sk.IsotropicMaterial(e, 0.0, 2000))
    assert t.voigt[0, 0] == pytest.approx(e)
    assert t.voigt[0, 1] == pytest.approx(0.0, abs=1e-3)
    assert t.voigt[3, 3] == pytest.approx(e / 2)


@pytest.mark.parametrize("e,nu", [(10e9, -0.5), (70e9, 0.15), (200e9, 0.45)])
def test_stiffness_from_isotropic_positive_definite(e, nu):
    t = stiffness_from_isotropic(sk.IsotropicMaterial(e, nu, 2000))
    assert np.linalg.eigvalsh(t.voigt).min() > 0


def test_isotropic_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        e = float(rng.uniform(5e9, 500e9))
        nu = float(rng.uniform(-0.4, 0.48))
        t = stiffness_from_isotropic(sk.IsotropicMaterial(e, nu, 3000))
        e2, nu2 = isotropic_from_stiffness(t.voigt[0, 0], t.voigt[0, 1])
        assert abs(e2 - e) / e < 1e-12
        assert abs(nu2 - nu) < 1e-12


def test_stiffness_from_cubic_identity(silicon):
    t = stiffness_from_cubic(silicon)
    assert t.voigt[0, 0] == silicon.c11
    assert t.voigt[0, 1] == silicon.c12
    assert t.voigt[3, 3] == silicon.c44


def test_stiffness_from_cubic_45deg_rotation(silicon, geom):
    # [110] propagation on (001): c11' = (c11 + c12 + 2 c44) / 2
    t = stiffness_from_cubic(silicon, geom)
    expected = 0.5 * (silicon.c11 + silicon.c12 + 2 * silicon.c44)
    assert t.voigt[0, 0] == pytest.approx(expected, rel=1e-12)
    assert np.linalg.eigvalsh(t.voigt).min() > 0


def test_rotation_matches_direct_component_summation(silicon, geom):
    # independent oracle: explicit quadruple loop over tensor components
    base = stiffness_from_cubic(silicon).as_cijkl()
    a = geom.basis()
    direct = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc = 0.0
                    for p in range(3):
                        for q in range(3):
                            for r in range(3):
                                for s in range(3):
                                    acc += a[i, p] * a[j, q] * a[k, r] * a[l, s] * base[p, q, r, s]
                    direct[i, j, k, l] = acc
    fast = rotate_cijkl(base, a)
    assert np.allclose(fast, direct, rtol=1e-12, atol=1.0)


def test_isotropic_constants_rotation_invariant(geom):
    # c11 - c12 = 2 c44 makes the cubic tensor isotropic
    m = sk.CubicMaterial(c11=120e9, c12=40e9, c44=40e9, density=2500)
    t0 = stiffness_from_cubic(m)
    t1 = stiffness_from_cubic(m, geom)
    assert np.allclose(t0.voigt, t1.voigt, rtol=1e-12, atol=10.0)


def test_elastic_tensor_rejects_indefinite():
    v = np.eye(6)
    v[0, 0] = -1.0
    with pytest.raises(MaterialError):
        sk.ElasticTensor(v)


# --- material database ----------------------------------------------------------


def test_builtin_db_fixture_values(db):
    ox = db["SiO2_thermal"]
    assert ox.young_modulus == pytest.approx(69.8e9)
    assert ox.poisson_ratio == pytest.approx(0.15)
    assert ox.density == pytest.approx(2200.0)
    assert db["poly_si"].young_modulus == pytest.approx(160e9)
    assert db["poly_ge"].young_modulus == pytest.approx(132e9)
    assert db["poly_si"].density == pytest.approx(2330.0)
    assert db["poly_ge"].density == pytest.approx(5320.0)
    assert isinstance(db["silicon"], sk.CubicMaterial)


def test_empty_db_file(tmp_path):
    p = tmp_path / "empty.db"
    p.write_text("", encoding="utf-8")
    assert len(sk.load_material_db(p)) == 0


def test_db_rejects_invariant_violation_naming_entry(tmp_path):
    p = tmp_path / "bad.db"
    p.write_text(
        "[weird]\nsymmetry = isotropic\nyoung_modulus_gpa = 70\n"
        "poisson_ratio = 0.6\ndensity_kg_m3 = 2000\n",
        encoding="utf-8",
    )
    with pytest.raises(MaterialDbError, match="weird"):
        sk.load_material_db(p)


def test_db_rejects_unknown_key():
    text = "[m]\nsymmetry = isotropic\nyoung_modulus_gpa = 70\npoisson_ratio = 0.2\ndensity_kg_m3 = 2000\ncolor = blue\n"
    with pytest.raises(MaterialDbError, match="color"):
        parse_material_db(text)


def test_db_rejects_duplicates_and_missing_keys():
    with pytest.raises(MaterialDbError, match="duplicate"):
        parse_material_db("[a]\nsymmetry = cubic\nc11_gpa = 100\nc12_gpa = 40\nc44_gpa = 50\ndensity_kg_m3 = 2000\n[a]\nsymmetry = cubic\nc11_gpa = 100\nc12_gpa = 40\nc44_gpa = 50\ndensity_kg_m3 = 2000\n")
    with pytest.raises(MaterialDbError, match="missing"):
        parse_material_db("[a]\nsymmetry = isotropic\nyoung_modulus_gpa = 70\n")


def test_sige_material_uses_mixing():
    m = sk.sige_material(0.179)
    assert m.young_modulus == pytest.approx(sk.mix_young_modulus(0.179))
    assert m.density == pytest.approx(sk.mix_density(0.179))
    assert m.poisson_ratio == pytest.approx(0.22)


def test_db_configparser_grammar():
    iso = "symmetry = isotropic\nyoung_modulus_gpa = 70\npoisson_ratio = 0.2\ndensity_kg_m3 = 2000\n"
    # [DEFAULT] is an ordinary entry whose keys reach no other; '%' is literal
    db = parse_material_db("[DEFAULT]\n" + iso + "source = 100% made up\n[b]\n" + iso)
    assert db.names() == ("DEFAULT", "b")
    assert db.metadata["DEFAULT"]["source"] == "100% made up"
    assert db.metadata["b"]["source"] == ""
    with pytest.raises(MaterialDbError, match="missing 'symmetry'"):  # keys are case-sensitive
        parse_material_db("[a]\n" + iso.replace("symmetry", "Symmetry"))
    with pytest.raises(MaterialDbError, match=r"line:? 1\b"):
        parse_material_db("symmetry = cubic\n")
    with pytest.raises(MaterialDbError, match=r"line:? 2\b"):
        parse_material_db("[a]\nno delimiter here\n")


def test_builtin_db_calls_return_fresh_containers():
    a, b = sk.builtin_material_db(), sk.builtin_material_db()
    assert (a.materials, a.metadata) == (b.materials, b.metadata)
    assert a.materials is not b.materials and a.metadata is not b.metadata
    assert a.metadata["silicon"] is not b.metadata["silicon"]
    silicon = a["silicon"]
    a.materials.pop("silicon")
    a.materials["other"] = silicon
    a.metadata["SiO2_thermal"]["source"] = "changed"
    c = sk.builtin_material_db()
    assert (c.materials, c.metadata) == (b.materials, b.metadata)
    assert c.names() == b.names() and "silicon" in c
