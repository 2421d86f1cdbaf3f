import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawkit as sk
from sawkit import dispersion
from sawkit.cli import build_stack, fixture_config_path, load_config
from sawkit.dispersion import DECAYING, GROWING, PROP_DOWN, PROP_UP
from sawkit.errors import CurveError, DegeneratePointError, FormatError
from sawkit.materials import stiffness_from_isotropic, stiffness_of

import global_matrix
import table_oracle


# along [1-10] on Si(111) the SH wave couples to the sagittal ones
SI111 = sk.PropagationGeometry(normal=(1, 1, 1), direction=(1, -1, 0))


@pytest.fixture(scope="module")
def iso():
    return sk.IsotropicMaterial(young_modulus=70e9, poisson_ratio=0.25, density=2500)


@pytest.fixture(scope="module")
def iso_tensor(iso):
    return stiffness_from_isotropic(iso)


# --- partial waves -----------------------------------------------------------


def test_partial_waves_subsonic_structure(iso, iso_tensor):
    v = 0.8 * iso.shear_velocity
    k = 2 * math.pi * 200e6 / v
    pw = sk.partial_waves(iso_tensor, iso.density, v * k, k)
    assert pw.eigenvalues.shape == (6,)
    # three sign-opposite pairs, all with nonzero decay
    assert all(abs(a.imag) > 1e-6 for a in pw.eigenvalues)
    up = sorted(a.imag for a in pw.eigenvalues if a.imag > 0)
    dn = sorted(-a.imag for a in pw.eigenvalues if a.imag < 0)
    assert len(up) == len(dn) == 3
    assert np.allclose(up, dn, rtol=1e-9)
    assert set(pw.classifications) == {DECAYING, GROWING}


def test_partial_waves_match_closed_form_slownesses(iso, iso_tensor):
    # partial_waves solves the eigenproblem; the solver's isotropic media
    # take the closed form.  Same slownesses, and the same span of
    # decaying-or-downgoing waves, below v_t, between v_t and v_l, above v_l.
    c_ref = float(np.abs(iso_tensor.voigt).max())
    med = dispersion._Medium.build(iso_tensor.voigt, iso.density, c_ref)
    vt, vl = iso.shear_velocity, iso.longitudinal_velocity

    def by_imag(arr):
        return arr[np.argsort(arr.imag + 1j * arr.real)]

    for v in (0.8 * vt, 0.5 * (vt + vl), 1.2 * vl):
        k = 2 * math.pi * 150e6 / v
        pw = sk.partial_waves(iso_tensor, iso.density, v * k, k)
        alpha, w, _, valid = global_matrix.full_wave_fields(med, np.array([v]))
        assert valid[0]
        np.testing.assert_allclose(
            by_imag(pw.eigenvalues), by_imag(alpha[0]), rtol=1e-9, atol=1e-12
        )
        down = np.isin(pw.classifications, (DECAYING, PROP_DOWN))
        assert down.sum() == 3
        basis, _ = np.linalg.qr(pw.eigenvectors[:, down])
        ours = w[0, :, :3] / np.linalg.norm(w[0, :, :3], axis=0)
        assert np.linalg.matrix_rank(ours, tol=1e-6) == 3
        assert np.linalg.norm(ours - basis @ (basis.conj().T @ ours)) < 1e-9


def test_partial_waves_supersonic_classification(iso, iso_tensor):
    v = 1.2 * iso.shear_velocity
    k = 2 * math.pi * 200e6 / v
    pw = sk.partial_waves(iso_tensor, iso.density, v * k, k)
    tags = set(pw.classifications)
    assert PROP_UP in tags and PROP_DOWN in tags


def test_partial_waves_residual_invariant(iso, iso_tensor, silicon, geom):
    from sawkit.materials import stiffness_from_cubic

    cases = [
        (iso_tensor, iso.density, 0.7 * iso.shear_velocity),
        (iso_tensor, iso.density, 1.3 * iso.shear_velocity),
        (stiffness_from_cubic(silicon, geom), silicon.density, 4000.0),
        (stiffness_from_cubic(silicon, geom), silicon.density, 5500.0),
    ]
    for tensor, rho, v in cases:
        k = 2 * math.pi * 100e6 / v
        pw = sk.partial_waves(tensor, rho, v * k, k)
        assert pw.residuals().max() < 1e-10


def test_partial_waves_deterministic_ordering(iso, iso_tensor):
    v = 0.9 * iso.shear_velocity
    k = 2 * math.pi * 180e6 / v
    a = sk.partial_waves(iso_tensor, iso.density, v * k, k)
    b = sk.partial_waves(iso_tensor, iso.density, v * k, k)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    ims = [x.imag for x in a.eigenvalues]
    assert ims == sorted(ims)


def test_degenerate_point_raises_named_error(iso, iso_tensor, stack_1a):
    # at a bulk speed along x1 a medium's up and down waves coincide: the
    # wave producers flag the point, and the single-point calls raise there
    # rather than answer for a velocity 1e-9 off it
    omega = 2 * math.pi * 200e6
    with pytest.raises(DegeneratePointError, match="defective"):
        sk.partial_waves(iso_tensor, iso.density, omega, omega / iso.shear_velocity)
    oxide_vt = stack_1a.layers[1].material.shear_velocity
    with pytest.raises(DegeneratePointError):
        sk.surface_green_g33(stack_1a, omega, omega / oxide_vt)
    with pytest.raises(DegeneratePointError):
        sk.boundary_matrix(stack_1a, omega, omega / oxide_vt)


def test_partial_waves_rejects_bad_args(iso_tensor):
    with pytest.raises(ValueError):
        sk.partial_waves(iso_tensor, 2500, -1.0, 10.0)
    with pytest.raises(ValueError):
        sk.partial_waves(iso_tensor, 2500, 1.0, 0.0)


# --- boundary matrix ---------------------------------------------------------


def test_boundary_matrix_dimension(bare_silicon, stack_1a):
    # 2x2 (the sagittal tractions) where every medium is orthotropic in the
    # frame and the SH wave decouples, 3x3 on a cut where it does not
    omega, k = 2 * math.pi * 100e6, 2 * math.pi * 100e6 / 4800.0
    bm0 = sk.boundary_matrix(bare_silicon, omega, k)
    assert bm0.dimension == 2
    bm2 = sk.boundary_matrix(stack_1a, omega, k)
    assert bm2.dimension == 2
    assert bm2.condition_number > 0 and np.isfinite(bm2.condition_number)
    assert bm2.rhs.tolist() == [0.0, 1.0]
    si111 = sk.LayerStack(layers=stack_1a.layers, substrate=stack_1a.substrate,
                          geometry=SI111)
    bm3 = sk.boundary_matrix(si111, omega, k)
    assert bm3.dimension == 3 and bm3.rhs.tolist() == [0.0, 0.0, 1.0]


def test_boundary_determinant_vanishes_at_rayleigh(iso):
    stack = sk.LayerStack(layers=(), substrate=iso)
    vr = sk.rayleigh_velocity_isotropic(iso)
    omega = 2 * math.pi * 150e6

    def absdet(v):
        return abs(sk.boundary_matrix(stack, omega, omega / v).determinant)

    at_root = absdet(vr)
    nearby = min(absdet(vr - 100.0), absdet(vr + 100.0))
    assert at_root < 1e-5 * nearby


def test_boundary_determinant_vanishes_at_layered_root(stack_1a):
    omega = 2 * math.pi * 200e6
    root = sk.dispersion_curve(stack_1a, [200e6]).velocities[0]

    def absdet(v):
        return abs(sk.boundary_matrix(stack_1a, omega, omega / v).determinant)

    assert absdet(root) < 1e-6 * min(absdet(root - 50.0), absdet(root + 50.0))


def test_boundary_matrix_smoke_over_scan(stack_1a):
    # no NaN, finite conditioning across the velocity window at 200 MHz
    from sawkit.dispersion import _prepare, _scan_grid

    prep = _prepare(stack_1a)
    grid = _scan_grid(prep)[::12]
    omega = 2 * math.pi * 200e6
    for v in grid:
        bm = sk.boundary_matrix(stack_1a, omega, omega / v)
        assert np.isfinite(bm.matrix).all()
        assert np.isfinite(bm.condition_number)


# --- surface response ---------------------------------------------------------


def test_g33_scale_invariance_on_half_space(iso):
    stack = sk.LayerStack(layers=(), substrate=iso)
    v = 2800.0
    vals = []
    for f in (50e6, 150e6, 450e6):
        omega = 2 * math.pi * f
        vals.append(sk.surface_green_g33(stack, omega, omega / v))
    assert vals[0] == vals[1] == vals[2]


def test_g33_pole_at_rayleigh(iso):
    stack = sk.LayerStack(layers=(), substrate=iso)
    vr = sk.rayleigh_velocity_isotropic(iso)
    omega = 2 * math.pi * 200e6

    def mag(v):
        return abs(sk.surface_green_g33(stack, omega, omega / v))

    assert mag(vr + 0.001) > 100 * mag(vr + 50.0)
    assert mag(vr + 0.001) > 100 * mag(vr - 50.0)


def test_g33_matches_rayleigh_root_to_1e6(iso):
    stack = sk.LayerStack(layers=(), substrate=iso)
    vr_solver = sk.dispersion_curve(stack, [200e6]).velocities[0]
    vr_oracle = sk.rayleigh_velocity_isotropic(iso)
    assert abs(vr_solver - vr_oracle) / vr_oracle < 1e-6


# --- phase velocity and curves ---------------------------------------------------


@pytest.mark.parametrize("nu,ratio", [(0.25, 0.91940), (0.0, 0.87404)])
def test_rayleigh_oracle_reference_ratios(nu, ratio):
    m = sk.IsotropicMaterial(young_modulus=70e9, poisson_ratio=nu, density=2500)
    assert sk.rayleigh_velocity_isotropic(m) / m.shear_velocity == pytest.approx(
        ratio, abs=1e-5
    )


def test_rayleigh_oracle_subsonic_ordering():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = sk.IsotropicMaterial(
            young_modulus=float(rng.uniform(5e9, 400e9)),
            poisson_ratio=float(rng.uniform(-0.3, 0.48)),
            density=float(rng.uniform(1000, 9000)),
        )
        vr = sk.rayleigh_velocity_isotropic(m)
        assert vr < m.shear_velocity < m.longitudinal_velocity


def test_oracle_equivalence_random_materials():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = sk.IsotropicMaterial(
            young_modulus=float(rng.uniform(20e9, 300e9)),
            poisson_ratio=float(rng.uniform(0.0, 0.45)),
            density=float(rng.uniform(1500, 8000)),
        )
        stack = sk.LayerStack(layers=(), substrate=m)
        v = sk.dispersion_curve(stack, [130e6]).velocities[0]
        vr = sk.rayleigh_velocity_isotropic(m)
        assert abs(v - vr) / vr < 1e-6


def test_silicon_anchor(bare_silicon):
    v = sk.dispersion_curve(bare_silicon, [200e6]).velocities[0]
    assert abs(v - 5080.0) / 5080.0 < 0.005


def test_substrate_value_independent_of_frequency(bare_silicon):
    v1 = sk.dispersion_curve(bare_silicon, [60e6]).velocities[0]
    v2 = sk.dispersion_curve(bare_silicon, [440e6]).velocities[0]
    assert v1 == v2


def test_layer_identical_to_substrate_flat(silicon, geom, bare_silicon):
    freqs = np.linspace(50e6, 500e6, 6)
    layered = sk.LayerStack(
        layers=(sk.Layer(silicon, 1.0e-6),), substrate=silicon, geometry=geom
    )
    base = sk.dispersion_curve(bare_silicon, freqs)
    got = sk.dispersion_curve(layered, freqs)
    for a, b in zip(base.velocities, got.velocities):
        assert abs(a - b) / a < 1e-9
    # and thickness does not matter
    thick = sk.LayerStack(
        layers=(sk.Layer(silicon, 3.0e-6),), substrate=silicon, geometry=geom
    )
    got2 = sk.dispersion_curve(thick, freqs)
    for a, b in zip(base.velocities, got2.velocities):
        assert abs(a - b) / a < 1e-9


def test_1a_curve_monotone_decreasing(curve_1a):
    v = curve_1a.velocities
    assert all(b < a for a, b in zip(v, v[1:]))


def test_1a_zero_frequency_limit(stack_1a, bare_silicon):
    v_sub = sk.dispersion_curve(bare_silicon, [100e6]).velocities[0]
    v_low = sk.dispersion_curve(stack_1a, [0.2e6]).velocities[0]
    assert abs(v_low - v_sub) / v_sub < 2e-3


def test_scale_invariance(stack_1a, silicon, oxide, geom):
    freqs = np.linspace(50e6, 500e6, 6)
    base = sk.dispersion_curve(stack_1a, freqs)
    for c in (0.5, 2.0, 10.0):
        scaled_stack = sk.LayerStack(
            layers=tuple(
                sk.Layer(l.material, l.thickness * c) for l in stack_1a.layers
            ),
            substrate=silicon,
            geometry=geom,
        )
        scaled = sk.dispersion_curve(scaled_stack, freqs / c)
        for a, b in zip(base.velocities, scaled.velocities):
            assert abs(a - b) / a < 1e-9


def test_fixed_k_root_matches_rayleigh_oracle(iso):
    # a half-space does not disperse: at every wavenumber its root is the
    # Rayleigh velocity, the mask harmonics of 96, 24 and 3 um periods here
    stack = sk.LayerStack(layers=(), substrate=iso)
    k = 2 * math.pi / np.array([96e-6, 24e-6, 3e-6])
    roots, _ = dispersion._find_modes(stack, k, None, fixed_k=True)
    vr = sk.rayleigh_velocity_isotropic(iso)
    assert np.abs(roots / vr - 1).max() < 1e-12


def test_fixed_k_scale_invariance(stack_1a, silicon, geom):
    # thicknesses times c at wavenumbers over c keep every k h, so the root
    k = 2 * math.pi * np.arange(1, 6) / 24e-6
    base, _ = dispersion._find_modes(stack_1a, k, None, fixed_k=True)
    assert np.isfinite(base).all()
    for c in (0.5, 2.0, 10.0):
        scaled = sk.LayerStack(
            layers=tuple(sk.Layer(l.material, l.thickness * c) for l in stack_1a.layers),
            substrate=silicon,
            geometry=geom,
        )
        got, _ = dispersion._find_modes(scaled, k / c, None, fixed_k=True)
        assert np.abs(got / base - 1).max() < 1e-12


def test_stiffness_monotonicity(stack_1a, silicon, oxide, geom):
    freqs = np.linspace(50e6, 500e6, 8)
    base = sk.dispersion_curve(stack_1a, freqs)
    film = stack_1a.layers[0].material
    stiffer = sk.IsotropicMaterial(
        young_modulus=film.young_modulus * 1.1,
        poisson_ratio=film.poisson_ratio,
        density=film.density,
    )
    bumped = sk.LayerStack(
        layers=(sk.Layer(stiffer, stack_1a.layers[0].thickness), stack_1a.layers[1]),
        substrate=silicon,
        geometry=geom,
    )
    got = sk.dispersion_curve(bumped, freqs)
    for a, b in zip(base.velocities, got.velocities):
        assert b >= a - 1e-9 * a


def test_curve_determinism(stack_1a):
    freqs = np.linspace(50e6, 500e6, 5)
    a = sk.dispersion_curve(stack_1a, freqs)
    b = sk.dispersion_curve(stack_1a, freqs)
    assert a.velocities == b.velocities


def test_curve_matches_per_point_solves(stack_1a, curve_1a):
    # batch evaluation must agree with independent single-frequency solves
    for f, v in list(zip(curve_1a.frequencies, curve_1a.velocities))[::5]:
        assert sk.dispersion_curve(stack_1a, [f]).velocities[0] == pytest.approx(v, rel=1e-10)


def test_coarse_sampling_raises_discontinuity_flag(stack_1a):
    curve = sk.dispersion_curve(stack_1a, [50e6, 500e6])
    assert curve.discontinuities == (1,)


def test_empty_frequency_list(stack_1a):
    curve = sk.dispersion_curve(stack_1a, [])
    assert len(curve) == 0


def test_curve_input_validation(stack_1a):
    with pytest.raises(ValueError):
        sk.dispersion_curve(stack_1a, [2e6, 1e6])
    with pytest.raises(ValueError):
        sk.dispersion_curve(stack_1a, [-1e6, 1e6])


def test_curve_error_reports_window(oxide, silicon):
    # stiff fast layer on a slow substrate leaks at high fd: no subsonic mode
    stack = sk.LayerStack(
        layers=(sk.Layer(silicon, 50e-6),), substrate=oxide,
        geometry=sk.PropagationGeometry(),
    )
    window = "[{:.1f}, {:.1f}] m/s".format(*sk.velocity_window(stack))
    with pytest.raises(CurveError) as err:
        sk.dispersion_curve(stack, [450e6])
    assert err.value.indices == (0,)
    assert "450 MHz" in str(err.value) and window in str(err.value)
    with pytest.raises(CurveError) as err:
        sk.dispersion_curve(stack, [440e6, 460e6])
    assert err.value.indices == (0, 1)
    msg = str(err.value)
    assert "440, 460 MHz" in msg and "indices [0, 1] of 2" in msg and window in msg


def test_hints_agree_with_scan(stack_1a, curve_1a):
    freqs = np.array(curve_1a.frequencies)
    hinted = sk.dispersion_curve(stack_1a, freqs, hints=np.array(curve_1a.velocities))
    for a, b in zip(curve_1a.velocities, hinted.velocities):
        assert abs(a - b) / a < 1e-10


def test_hint_windows_stay_inside_the_search_window(stack_1a, monkeypatch):
    # hints above the ceiling, below the floor or just over the ceiling give
    # windows that are clipped, or dropped when empty; no velocity outside
    # [floor, ceiling) is evaluated and the scan finds the cold root
    floor, ceiling = sk.velocity_window(stack_1a)
    cold = sk.dispersion_curve(stack_1a, [300e6]).velocities[0]
    seen = []
    indicator = dispersion._indicator
    monkeypatch.setattr(dispersion, "_indicator",
                        lambda prep, f, v: seen.append(v) or indicator(prep, f, v))
    for hint in (7000.0, 100.0, ceiling + 3.0):
        assert sk.dispersion_curve(stack_1a, [300e6], hints=[hint]).velocities[0] == cold
    seen = np.concatenate(seen)
    assert floor <= seen.min() and seen.max() < ceiling


def test_ceiling_is_the_substrates_limiting_velocity(stack_1a, silicon, monkeypatch):
    # on Si(001)[110] the two sagittal alpha^2 of the substrate meet at
    # +0.056, 13.3 m/s below its slowest sagittal bulk speed along x1: from
    # there up every substrate wave propagates, so a root there would be a
    # leaky wave.  The window ends there, nothing is evaluated at or above
    # it, and no bundled curve moves from the bulk-speed ceiling
    prep = dispersion._prepare(stack_1a)
    sub, ceiling = prep.media[-1], prep.v_ceiling
    assert sk.velocity_window(stack_1a)[1] == ceiling == pytest.approx(5832.897, abs=1e-3)
    x = sub.rho_scaled * (ceiling * np.array([1 - 1e-6, 1.0, 1 + 1e-6])) ** 2
    y = dispersion._slowness_squares(sub.closed, x[None])[0][:2, 0]
    assert (y[:, 0].imag != 0).all()  # a decaying pair just below
    assert y[:, 1] == pytest.approx([0.0561536, 0.0561536], rel=1e-5)
    assert (y[:, 2].imag == 0).all() and (y[:, 2].real > 0).all()  # propagating above
    bulk = math.sqrt(min(sub.closed.moduli[[0, 4], 0, 0]) / sub.rho_scaled)
    assert bulk - ceiling == pytest.approx(13.277, abs=1e-3)
    # every bundled medium takes its waves from _closed_form
    seen = []
    closed_form = dispersion._closed_form
    monkeypatch.setattr(dispersion, "_closed_form",
                        lambda st, v: seen.append(v) or closed_form(st, v))
    top_hints = np.full(CURVE_FREQS.size, ceiling - 1.0)
    roots = {}
    for case in BUNDLED:
        stack = _bundled_stack(*case)
        roots[case] = dispersion._find_modes(stack, CURVE_FREQS, None)[0]
        dispersion._find_modes(stack, CURVE_FREQS, top_hints)
    assert np.concatenate(seen).max() < ceiling
    prepare = dispersion._prepare
    for case in BUNDLED:
        stack = _bundled_stack(*case)
        at_bulk = replace(prepare(stack), v_ceiling=bulk)
        monkeypatch.setattr(dispersion, "_prepare", lambda stack: at_bulk)
        assert np.array_equal(dispersion._find_modes(stack, CURVE_FREQS, None)[0], roots[case])
    # a substrate whose SH wave couples keeps its slowest sagittally coupled
    # bulk speed along x1, an eigenvalue of the Christoffel matrix
    si111 = sk.LayerStack(layers=(), substrate=silicon, geometry=SI111)
    q = stiffness_of(silicon, SI111).as_cijkl()[:, 0, :, 0]
    ceiling = sk.velocity_window(si111)[1]
    assert np.isclose(silicon.density * ceiling**2, np.linalg.eigvalsh(q), rtol=1e-12).any()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_hint_raises_value_error(stack_1a, bad):
    with pytest.raises(ValueError, match="hints must be finite"):
        sk.dispersion_curve(stack_1a, [300e6], hints=[bad])
    with pytest.raises(ValueError, match="hints must be finite"):
        sk.dispersion_curve(stack_1a, [200e6, 300e6], hints=[4000.0, bad])


# --- root finder against plain bisection ----------------------------------------

FINDER_FREQS = np.array([50e6, 320e6, 900e6])


def _indicator_at(prep, f, v):
    v = np.atleast_1d(v)
    return dispersion._pole_indicator(dispersion._g33(prep, v, 2 * math.pi * f / v))


def _reference_bisect(prep, f, lo, hi, q_lo, q_hi):
    """(root, accepted) in one bracket by one-point bisection.

    The path the vectorised finder replaced: the bracket is halved down to
    the default tolerance, and the root is accepted when |q| at the last
    midpoint is below |q| at both ends, which rejects poles of the indicator.
    """
    q_start = min(abs(q_lo), abs(q_hi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        q_mid = _indicator_at(prep, f, mid)[0]
        if (q_mid > 0) == (q_lo > 0):
            lo, q_lo = mid, q_mid
        else:
            hi = mid
        if hi - lo <= max(dispersion._REL_TOL * hi, 8 * np.spacing(hi)):
            break
    return 0.5 * (lo + hi), abs(q_mid) < q_start


def _scan_cells(prep, f):
    """Ends and indicator values of the sign-changing cells of the scan."""
    grid = dispersion._scan_grid(prep)
    q = _indicator_at(prep, f, grid)
    i = np.flatnonzero(np.sign(q[:-1]) * np.sign(q[1:]) < 0)
    return grid[i], grid[i + 1], q[i], q[i + 1]


def _reference_roots(stack, freqs):
    """Lowest accepted root per frequency, scan cells tried in ascending order."""
    prep = dispersion._prepare(stack)
    roots = np.full(len(freqs), np.nan)
    for j, f in enumerate(freqs):
        for cell in zip(*_scan_cells(prep, f)):
            root, accepted = _reference_bisect(prep, f, *cell)
            if accepted:
                roots[j] = root
                break
    return roots


def _check_finder(stack, freqs):
    cold = dispersion._find_modes(stack, freqs, None)[0]
    np.testing.assert_allclose(cold, _reference_roots(stack, freqs), rtol=1e-11)
    hints = cold * (1 + 2e-4 * (-1.0) ** np.arange(len(freqs)))
    hinted = dispersion._find_modes(stack, freqs, hints)[0]
    np.testing.assert_allclose(hinted, cold, rtol=1e-10)


# 1-3 layers, each oxide (None) or SiGe of the given c_ge, with a thickness
RANDOM_LAYERS = st.lists(
    st.tuples(st.one_of(st.none(), st.floats(0.0, 1.0)), st.floats(0.1e-6, 3e-6)),
    min_size=1,
    max_size=3,
)
BUNDLED = [("si_bare", 1), ("stack_1A", 1), ("stack_2", 1), ("stack_3", 1),
           ("sio2_on_si", 1), ("stack_1A", 10)]


def _random_stack(layers, silicon, oxide, geom):
    return sk.LayerStack(
        layers=tuple(
            sk.Layer(oxide if c is None else sk.sige_material(c), d) for c, d in layers
        ),
        substrate=silicon,
        geometry=geom,
    )


def _bundled_stack(name, thickness_factor):
    stack = build_stack(load_config(fixture_config_path(name)))
    return sk.LayerStack(
        layers=tuple(sk.Layer(l.material, l.thickness * thickness_factor)
                     for l in stack.layers),
        substrate=stack.substrate,
        geometry=stack.geometry,
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers=RANDOM_LAYERS)
def test_finder_matches_bisection_random_stacks(layers, silicon, oxide, geom):
    _check_finder(_random_stack(layers, silicon, oxide, geom), FINDER_FREQS)


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_finder_matches_bisection_bundled_stacks(name, thickness_factor):
    _check_finder(_bundled_stack(name, thickness_factor), FINDER_FREQS)


def test_finder_rejects_poles_of_indicator(stack_1a):
    # layers x10 crowd the window: sign changes of q alternate between
    # roots (poles of u3) and poles of q (zeros of u3)
    stack = sk.LayerStack(
        layers=tuple(sk.Layer(l.material, 10 * l.thickness) for l in stack_1a.layers),
        substrate=stack_1a.substrate,
        geometry=stack_1a.geometry,
    )
    prep, f = dispersion._prepare(stack), 320e6
    lo, hi, q_lo, q_hi = _scan_cells(prep, f)
    v, q = np.stack([lo, hi], axis=1), np.stack([q_lo, q_hi], axis=1)
    freqs = np.full(lo.size, f)
    roots, accepted = dispersion._chandrupatla(prep, freqs, v, q)
    ref = [_reference_bisect(prep, f, *cell) for cell in zip(lo, hi, q_lo, q_hi)]
    assert accepted.tolist() == [ok for _, ok in ref]
    assert accepted.any() and not accepted.all()
    np.testing.assert_allclose(roots[accepted], [r for r, ok in ref if ok], rtol=1e-11)
    # brackets starting at a pole of q: the next bracket's root is taken
    first = np.flatnonzero(~accepted)[0]
    found = np.full(1, np.nan)
    dispersion._settle(prep, freqs[:1], found, np.zeros(lo.size - first, dtype=int),
                       v[first:], q[first:])
    assert found[0] == pytest.approx(roots[first + 1], rel=1e-12)


def test_hinted_curve_batch_count(stack_1a, monkeypatch):
    # work guard that does not depend on the machine: batched _g33 calls
    freqs = np.linspace(50e6, 900e6, 35)
    cold = np.array(sk.dispersion_curve(stack_1a, freqs).velocities)
    calls = []
    g33 = dispersion._g33
    monkeypatch.setattr(dispersion, "_g33", lambda *args: calls.append(1) or g33(*args))
    sk.dispersion_curve(stack_1a, freqs, hints=cold * (1 + 2e-4 * (-1.0) ** np.arange(35)))
    assert len(calls) <= 12


# --- block scan against the whole-grid scan it replaced -------------------------

CURVE_FREQS = np.linspace(50e6, 900e6, 35)


def _whole_grid_roots(stack, freqs):
    """Roots of the one-pass scan the block scan replaced: the indicator on
    the whole grid in one batch, and every cell of every frequency in one
    ``_settle``."""
    prep = dispersion._prepare(stack)
    grid = dispersion._scan_grid(prep)
    cells = np.lib.stride_tricks.sliding_window_view(grid, 2)
    q = np.lib.stride_tricks.sliding_window_view(
        dispersion._indicator(prep, freqs[:, None], grid), 2, axis=1)
    roots = np.full(freqs.size, np.nan)
    dispersion._settle(prep, freqs, roots, np.repeat(np.arange(freqs.size), len(cells)),
                       np.tile(cells, (freqs.size, 1)), q.reshape(-1, 2))
    return roots


def _check_block_scan(stack, freqs):
    roots = dispersion._find_modes(stack, freqs, None)[0]
    assert np.array_equal(roots, _whole_grid_roots(stack, freqs), equal_nan=True)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers=RANDOM_LAYERS, on_si111=st.booleans())
def test_block_scan_matches_whole_grid_scan_random_stacks(layers, on_si111, silicon, oxide, geom):
    # on Si(111)[1-10] the count and the scan take the 3x3 path
    _check_block_scan(_random_stack(layers, silicon, oxide, SI111 if on_si111 else geom),
                      CURVE_FREQS)


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_block_scan_matches_whole_grid_scan_bundled_stacks(name, thickness_factor):
    _check_block_scan(_bundled_stack(name, thickness_factor), CURVE_FREQS)


def test_block_scan_resumes_above_rejected_brackets(stack_1a, monkeypatch):
    # a synthetic indicator (v - r)/(v - p) with a pole p of q below the
    # root r: the pole's bracket is rejected, and where r lies in a later
    # block than p the frequency resumes there in a second pass; the one
    # _g33 patch reaches the scan blocks and the refinement batches alike
    def pole_and_root(f):
        p = 2500.0 + f / 1e6
        return p, p + 100.0 + 2.0 * f / 1e6

    def g33(prep, v, k):  # u3 with Im(1/u3) = (v - r)/(v - p)
        p, r = pole_and_root(k * v / (2 * math.pi))
        with np.errstate(divide="ignore", invalid="ignore"):
            return -1j * (v - p) / (v - r)

    monkeypatch.setattr(dispersion, "_g33", g33)
    # the mode count reads the stack's waves, not the synthetic indicator:
    # an undefined ladder starts every frequency at the floor
    monkeypatch.setattr(dispersion, "_mode_count",
                        lambda prep, f, v: np.full(np.broadcast(f, v).shape, np.nan))
    settle, passes = dispersion._settle, []
    monkeypatch.setattr(dispersion, "_settle", lambda *args: passes.append(1) or settle(*args))
    roots = dispersion._find_modes(stack_1a, CURVE_FREQS, None)[0]
    assert len(passes) >= 2 and not np.isnan(roots).any()
    np.testing.assert_allclose(roots, pole_and_root(CURVE_FREQS)[1], rtol=1e-10)
    assert np.array_equal(roots, _whole_grid_roots(stack_1a, CURVE_FREQS))


def test_scan_steps_off_an_invalid_grid_velocity(stack_1a, monkeypatch):
    # the grid velocity just below stack 1A's 300 MHz root made invalid, as
    # a bulk speed of one of its media would be: the scan block evaluates it
    # once more 1e-9 higher, like a refinement batch, so both cells around
    # it keep their indicator and the root is still found
    prep = dispersion._prepare(stack_1a)
    grid = dispersion._scan_grid(prep)
    root = sk.dispersion_curve(stack_1a, [300e6]).velocities[0]
    below = grid[np.searchsorted(grid, root) - 1]
    assert root == pytest.approx(4332.886, abs=1e-3)
    assert below == pytest.approx(4332.045, abs=1e-3)
    waves, flagged = dispersion._closed_form, []

    def invalid_below(st, v):
        alpha, w, valid = waves(st, v)
        flagged.append(below in v)
        return alpha, w, valid & (v != below)

    monkeypatch.setattr(dispersion, "_closed_form", invalid_below)
    assert sk.dispersion_curve(stack_1a, [300e6]).velocities[0] == pytest.approx(root, rel=1e-12)
    assert any(flagged)


# --- Wittrick-Williams mode count -----------------------------------------------

COUNT_FREQS = np.array([50e6, 320e6, 400e6, 900e6])
# stack 1A x10 hides a weakly coupled mode below the scan's root at these
# frequencies, at q's roots on a fine grid; at 900 MHz q shows no sign
# change there down to a 1e-4 m/s grid
HIDDEN_MODES = {320e6: 3827.19, 400e6: 3785.60, 900e6: 3727.72}
COUNT_CASES = [(name, factor, False) for name, factor in BUNDLED] + [
    (name, 1, True) for name in ("si_bare", "stack_1A", "stack_3")]


def _count_step(prep, freqs, lo, hi, tol=1e-4):
    """Where the count first rises in (lo, hi], per frequency, by bisection:
    the count is 0 at lo and not at hi."""
    while (hi - lo).max() > tol:
        mid = 0.5 * (lo + hi)
        up = dispersion._mode_count(prep, freqs, mid) > 0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return hi


@pytest.mark.parametrize("name, thickness_factor, on_si111", COUNT_CASES)
def test_mode_count_first_steps_at_the_lowest_mode(name, thickness_factor, on_si111):
    # on a 0.5 m/s grid from the floor to the ceiling the count is 0 at the
    # floor and never decreases; it first steps in the grid cell of the
    # scan's root, bisected onto it within 1e-3 m/s, except where stack
    # 1A x10 hides a lower mode: there it steps within 0.01 m/s of that
    # mode, and the curve flags the point
    stack = _bundled_stack(name, thickness_factor)
    if on_si111:
        stack = replace(stack, geometry=SI111)
    prep = dispersion._prepare(stack)
    grid = np.arange(prep.v_floor, prep.v_ceiling * (1 - 1e-9), 0.5)
    count = dispersion._mode_count(prep, COUNT_FREQS[:, None], grid)
    curve = sk.dispersion_curve(stack, COUNT_FREQS)
    assert np.isfinite(count).all()
    assert (count[:, 0] == 0).all() and (np.diff(count, axis=1) >= 0).all()
    first = np.argmax(count > 0, axis=1)
    assert (first > 0).all()
    step = _count_step(prep, COUNT_FREQS, grid[first - 1], grid[first])
    roots = np.array(curve.velocities)
    hidden = np.array([name == "stack_1A" and thickness_factor == 10 and f in HIDDEN_MODES
                       for f in COUNT_FREQS])
    assert curve.lower_modes == tuple(np.flatnonzero(hidden))
    cell = np.searchsorted(grid, roots)
    assert np.array_equal(first[~hidden], cell[~hidden])
    np.testing.assert_allclose(step[~hidden], roots[~hidden], rtol=0, atol=1e-3)
    for f, v, root in zip(COUNT_FREQS[hidden], step[hidden], roots[hidden]):
        assert abs(v - HIDDEN_MODES[f]) <= 0.01 and v < root - 50.0


def test_cold_curve_flags_points_above_a_lower_mode():
    # from 300 MHz up the cold curve of stack 1A x10 returns a mode above a
    # weakly coupled one, with up to 6 modes below it; only the 5 % jump at
    # index 10 is a discontinuity.  The other bundled stacks, also with
    # their layers x10, flag nothing, and hinted points are not checked
    stack = _bundled_stack("stack_1A", 10)
    curve = sk.dispersion_curve(stack, CURVE_FREQS)
    assert curve.lower_modes == tuple(range(10, 35)) and curve.discontinuities == (10,)
    below = dispersion._mode_count(dispersion._prepare(stack), CURVE_FREQS,
                                   np.array(curve.velocities) * (1 - 1e-6))
    assert (below[:10] == 0).all() and (below[10:] >= 1).all() and below.max() == 6
    assert sk.dispersion_curve(stack, CURVE_FREQS, hints=curve.velocities).lower_modes == ()
    for name, factor in BUNDLED[:-1] + [("stack_2", 10), ("stack_3", 10), ("sio2_on_si", 10)]:
        assert sk.dispersion_curve(_bundled_stack(name, factor), CURVE_FREQS).lower_modes == ()


@pytest.mark.parametrize("fault", ["not finite", "decreasing"])
def test_scan_starts_at_the_floor_where_the_ladder_fails(stack_1a, monkeypatch, fault):
    # one frequency's ladder made NaN at one block, or 1 at the first block
    # and 0 above: that frequency scans from the floor, and it alone; the
    # others start where their counts allow, and no root moves
    prep = dispersion._prepare(stack_1a)
    grid = dispersion._scan_grid(prep)
    roots = dispersion._find_modes(stack_1a, CURVE_FREQS, None)[0]
    starts = dispersion._start_cells(prep, CURVE_FREQS, grid)
    assert (starts > 0).all()
    j, mode_count = 17, dispersion._mode_count

    def faulty_count(prep, freqs, v):
        count = mode_count(prep, freqs, v)
        if count.ndim == 2:  # the ladder, one row per frequency
            if fault == "not finite":
                count[j, 3] = np.nan
            else:
                count[j] = 0.0
                count[j, 0] = 1.0
        return count

    monkeypatch.setattr(dispersion, "_mode_count", faulty_count)
    faulty_starts = dispersion._start_cells(prep, CURVE_FREQS, grid)
    assert faulty_starts[j] == 0
    assert np.array_equal(np.delete(faulty_starts, j), np.delete(starts, j))
    indicator, at_floor = dispersion._indicator, []

    def recording_indicator(prep, freqs, v):
        f, u = np.broadcast_arrays(freqs, v)
        at_floor.extend(f[u <= grid[1]].tolist())
        return indicator(prep, freqs, v)

    monkeypatch.setattr(dispersion, "_indicator", recording_indicator)
    assert np.array_equal(dispersion._find_modes(stack_1a, CURVE_FREQS, None)[0], roots)
    assert at_floor == [CURVE_FREQS[j]] * 2  # q at the floor, then at the next grid velocity


def _orthotropic_rayleigh_velocity(tensor, rho):
    """Rayleigh speed of a half-space orthotropic in the frame: the root X =
    rho v^2 of C33 C55 (C11 - X) X^2 = (C55 - X)(C11 C33 - C13^2 - C33 X)^2
    (Chadwick, Proc. R. Soc. A 349, 1976) on (0, C55), where it is -C55
    (C11 C33 - C13^2)^2 < 0 at 0 and positive at C55, bisected to the last
    bit."""
    c = tensor.voigt
    c11, c13, c33, c55 = c[0, 0], c[0, 2], c[2, 2], c[4, 4]

    def secular(x):
        return c33 * c55 * (c11 - x) * x * x - (c55 - x) * (c11 * c33 - c13**2 - c33 * x) ** 2

    lo, hi = 0.0, min(c11, c55)
    assert secular(lo) < 0 < secular(hi)
    while hi - lo > 2 * np.spacing(hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if secular(mid) < 0 else (lo, mid)
    return math.sqrt(0.5 * (lo + hi) / rho)


def test_bare_silicon_matches_the_orthotropic_secular_equation(bare_silicon, silicon, geom):
    # the exact Rayleigh speed of Si(001)[110], independent of the partial
    # waves and the recursion: the curve agrees to 1e-12, and the count
    # first steps in the scan-grid cell that holds it
    exact = _orthotropic_rayleigh_velocity(stiffness_of(silicon, geom), silicon.density)
    assert exact == pytest.approx(5082.619655974, abs=1e-8)
    curve = sk.dispersion_curve(bare_silicon, CURVE_FREQS)
    np.testing.assert_allclose(curve.velocities, exact, rtol=1e-12, atol=0)
    prep = dispersion._prepare(bare_silicon)
    grid = dispersion._scan_grid(prep)
    count = dispersion._mode_count(prep, CURVE_FREQS[:, None], grid)
    assert (np.argmax(count > 0, axis=1) == np.searchsorted(grid, exact)).all()


@pytest.mark.parametrize("kh", [67.0, 77.0, 87.0])
@pytest.mark.parametrize("c_ge", [0.0, 0.416, 1.0])
def test_thick_film_root_is_the_film_rayleigh_wave(silicon, geom, c_ge, kh):
    # a film many wavelengths thick carries its own Rayleigh wave, which
    # decays long before it reaches the substrate: at kh 67-87 the root is
    # the film's half-space Rayleigh speed, the root of its own secular
    # equation, independent of the recursion and of the substrate
    film = sk.sige_material(c_ge)
    vr = sk.rayleigh_velocity_isotropic(film)
    f = 900e6
    stack = sk.LayerStack(layers=(sk.Layer(film, kh * vr / (2 * math.pi * f)),),
                          substrate=silicon, geometry=geom)
    v = sk.dispersion_curve(stack, [f]).velocities[0]
    assert v == pytest.approx(vr, rel=1e-12, abs=0)


# --- one-pass hint windows against the window-by-window loop they replaced ------


def _sequential_window_roots(stack, freqs, hints):
    """The hint windows settled one after another, each with its own endpoint
    batch and ``_settle``, then the scan for the frequencies still open."""
    prep = dispersion._prepare(stack)
    roots = np.full(freqs.size, np.nan)
    top = prep.v_ceiling * (1.0 - 1e-9)
    for w in dispersion._HINT_WINDOWS:
        v = np.clip(np.stack([hints - w, hints + w], axis=1), prep.v_floor, top)
        idx = np.flatnonzero(np.isnan(roots) & (v[:, 0] < v[:, 1]))
        if idx.size:
            q = dispersion._indicator(prep, np.repeat(freqs[idx], 2), v[idx].ravel())
            dispersion._settle(prep, freqs, roots, idx, v[idx], q.reshape(-1, 2))
    dispersion._scan(prep, freqs, roots, np.flatnonzero(np.isnan(roots)),
                     dispersion._scan_grid(prep))
    return roots


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_one_pass_windows_match_sequential_windows(name, thickness_factor):
    # hints near the cold curve, off it by more than the widest window, and
    # at or above the ceiling, where windows are clipped or dropped
    stack = _bundled_stack(name, thickness_factor)
    ceiling = dispersion._prepare(stack).v_ceiling
    cold = dispersion._find_modes(stack, CURVE_FREQS, None)[0]
    hints = [cold + offset for offset in (0.0, 3.0, -7.0, 25.0, -60.0, 150.0)]
    hints += [np.full(CURVE_FREQS.size, ceiling + d) for d in (-1.0, 0.0, 1.0, 45.0)]
    for h in hints:
        roots = dispersion._find_modes(stack, CURVE_FREQS, h)[0]
        assert np.array_equal(roots, _sequential_window_roots(stack, CURVE_FREQS, h))


def test_one_pass_windows_take_a_wider_window_after_a_pole(monkeypatch):
    # on stack 1A x10 a hint of 4320 m/s at 575 MHz has no sign change in
    # its 2.5 m/s window, a pole of q (4325.57 m/s) in its 10 m/s one and a
    # root (4283.01 m/s) in its 40 m/s one: the rejected bracket is refined
    # first and the wider window's root is returned
    stack = _bundled_stack("stack_1A", 10)
    hints = np.full(CURVE_FREQS.size, 4320.0)
    j = 21
    assert CURVE_FREQS[j] == 575e6
    chandrupatla, outcomes = dispersion._chandrupatla, []

    def recording(prep, freqs, v, q):
        x, ok = chandrupatla(prep, freqs, v, q)
        outcomes.extend(zip(freqs == CURVE_FREQS[j], ok, x))
        return x, ok

    monkeypatch.setattr(dispersion, "_chandrupatla", recording)
    roots = dispersion._find_modes(stack, CURVE_FREQS, hints)[0]
    mine = [(ok, x) for at_j, ok, x in outcomes if at_j]
    assert [ok for ok, _ in mine] == [False, True]
    assert mine[0][1] == pytest.approx(4325.574, abs=1e-3)
    assert roots[j] == mine[1][1] == pytest.approx(4283.015, abs=1e-3)
    assert np.array_equal(roots, _sequential_window_roots(stack, CURVE_FREQS, hints))


def test_hinted_curve_makes_one_window_endpoint_batch(stack_1a, monkeypatch):
    # work guard that does not depend on the machine: every window of every
    # frequency has its ends evaluated in one batch, whichever window holds
    # the root; every other batch is a root iteration (no scan block)
    cold = dispersion._find_modes(stack_1a, CURVE_FREQS, None)[0]
    indicator, chandrupatla = dispersion._indicator, dispersion._chandrupatla
    refining, ends, steps = [], [], []

    def recording_chandrupatla(*args):
        refining.append(1)
        try:
            return chandrupatla(*args)
        finally:
            refining.pop()

    def recording_indicator(prep, freqs, v):
        (steps if refining else ends).append(np.size(v))
        return indicator(prep, freqs, v)

    monkeypatch.setattr(dispersion, "_chandrupatla", recording_chandrupatla)
    monkeypatch.setattr(dispersion, "_indicator", recording_indicator)
    # +25 m/s misses the 2.5 and 10 m/s windows: the root is in the 40 m/s one
    for offset in (0.0, 25.0):
        ends.clear()
        steps.clear()
        roots = dispersion._find_modes(stack_1a, CURVE_FREQS, cold + offset)[0]
        np.testing.assert_allclose(roots, cold, rtol=1e-11)
        assert ends == [2 * len(dispersion._HINT_WINDOWS) * CURVE_FREQS.size]
        assert steps


def test_cold_hints_on_stack_1a_x10_return_the_cold_curve():
    # at 750 MHz a pole of q lies 2.08 m/s above the cold root, inside the
    # 2.5 and 10 m/s windows, whose ends then agree in sign; the 40 m/s
    # window alone would return a higher mode (4306.836 m/s), but the
    # 1 mm/s window around the hint closes on the cold root itself
    stack = _bundled_stack("stack_1A", 10)
    cold = sk.dispersion_curve(stack, CURVE_FREQS)
    hinted = sk.dispersion_curve(stack, CURVE_FREQS, hints=cold.velocities)
    assert CURVE_FREQS[28] == 750e6
    assert hinted.velocities[28] == pytest.approx(4280.056, abs=1e-3)
    np.testing.assert_allclose(hinted.velocities, cold.velocities, rtol=1e-12, atol=0)


def test_mixed_hint_hits_and_misses_settle_in_one_pass(stack_1a, monkeypatch):
    # hints on the cold roots at even points and 200 m/s off at odd ones:
    # the missed points scan at once, and their cells share the refinement
    # batches of the hit windows, so the curve equals its two subsets
    # solved apart, point by point, in fewer _indicator batches
    cold = dispersion._find_modes(stack_1a, CURVE_FREQS, None)[0]
    hit = np.arange(CURVE_FREQS.size) % 2 == 0
    hints = np.where(hit, cold, cold + 200.0)
    indicator, batches = dispersion._indicator, []
    monkeypatch.setattr(dispersion, "_indicator",
                        lambda *args: batches.append(1) or indicator(*args))
    roots, scanned = dispersion._find_modes(stack_1a, CURVE_FREQS, hints)
    together = len(batches)
    batches.clear()
    apart = np.full(CURVE_FREQS.size, np.nan)
    apart[hit] = dispersion._find_modes(stack_1a, CURVE_FREQS[hit], hints[hit])[0]
    apart[~hit] = dispersion._find_modes(stack_1a, CURVE_FREQS[~hit], None)[0]
    assert np.array_equal(roots, apart)
    assert np.array_equal(scanned, np.flatnonzero(~hit))
    assert together < len(batches)


def test_regula_falsi_start_closes_a_narrow_window_in_two_rounds(stack_1a, monkeypatch):
    # a bracket from 1 mm/s below a root to 3 mm/s above: the secant through
    # its ends lands within the tolerance, and the next step, held half a
    # tolerance off it, closes the bracket (a bisection start takes three)
    freqs = CURVE_FREQS[:5]
    cold = dispersion._find_modes(stack_1a, freqs, None)[0]
    prep = dispersion._prepare(stack_1a)
    v = cold[:, None] + np.array([-1e-3, 3e-3])
    indicator, rounds = dispersion._indicator, []
    q = indicator(prep, np.repeat(freqs, 2), v.ravel()).reshape(-1, 2)
    monkeypatch.setattr(dispersion, "_indicator",
                        lambda *args: rounds.append(1) or indicator(*args))
    roots, ok = dispersion._chandrupatla(prep, freqs, v, q)
    assert ok.all() and len(rounds) <= 2
    np.testing.assert_allclose(roots, cold, rtol=2e-12, atol=0)


# --- impedance recursion against the global boundary matrix ---------------------


def _check_against_global_matrix(stack, freqs):
    """Indicator and roots of the impedance recursion against the global-matrix oracle."""
    prep = dispersion._prepare(stack)
    grid = dispersion._scan_grid(prep)
    # the scan's (frequency, velocity) mesh, and one batch of mixed
    # wavenumbers, through _g33
    f = freqs[np.arange(grid.size) % freqs.size]
    for k in (2 * math.pi * freqs[:, None] / grid, 2 * math.pi * f / grid):
        q = dispersion._pole_indicator(dispersion._g33(prep, grid, k))
        q_ref = dispersion._pole_indicator(global_matrix.g33(prep, grid, k))
        assert np.array_equal(np.isfinite(q), np.isfinite(q_ref))
        finite = np.isfinite(q_ref)
        np.testing.assert_allclose(q[finite], q_ref[finite], rtol=1e-10, atol=0)
    _check_roots_against_global_matrix(stack, freqs)


def _check_roots_against_global_matrix(stack, freqs):
    roots = dispersion._find_modes(stack, freqs, None)[0]
    ranks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_g33",
                   lambda prep, v, k: ranks.append(k.ndim) or global_matrix.g33(prep, v, k))
        ref = dispersion._find_modes(stack, freqs, None)[0]
    # the scan's blocks (a k mesh) and its refinement batches reached the
    # oracle through the one seam
    assert set(ranks) == {1, 2}
    np.testing.assert_allclose(roots, ref, rtol=1e-11)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers=RANDOM_LAYERS)
def test_recursion_matches_global_matrix_random_stacks(layers, silicon, oxide, geom):
    _check_against_global_matrix(_random_stack(layers, silicon, oxide, geom), FINDER_FREQS)


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_recursion_matches_global_matrix_bundled_stacks(name, thickness_factor):
    _check_against_global_matrix(_bundled_stack(name, thickness_factor), FINDER_FREQS)


# random isotropic media: Young's modulus, Poisson ratio, density
ISOTROPIC = st.builds(
    sk.IsotropicMaterial,
    young_modulus=st.floats(30e9, 250e9),
    poisson_ratio=st.floats(-0.5, 0.49),
    density=st.floats(1500.0, 8000.0),
)
RANDOM_ISOTROPIC_LAYERS = st.lists(
    st.tuples(ISOTROPIC, st.floats(0.1e-6, 3e-6)), min_size=1, max_size=3
)


def _check_closed_form_against_eig(stack, freqs):
    """Closed-form partial waves against the eigenproblem on the scan mesh,
    both through the global matrix, then the solver's roots against the
    oracle's.

    The global matrix is the well-conditioned side of the comparison: near
    an interface-wave velocity of a layer on the medium below, B_u - Z A_u
    is nearly singular, and the impedance recursion loses digits there
    whichever path gives it the waves.  Where q crosses zero its relative
    error is unbounded, so the tolerance has a floor at 1e-10 of q's median.
    """
    prep = dispersion._prepare(stack)
    grid = dispersion._scan_grid(prep)
    q_ref = global_matrix.grid_indicator(prep, freqs, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(global_matrix, "_wave_fields", global_matrix.full_wave_fields)
        q = global_matrix.grid_indicator(prep, freqs, grid)
    assert np.array_equal(np.isfinite(q), np.isfinite(q_ref))
    finite = np.isfinite(q_ref)
    floor = 1e-10 * np.median(np.abs(q_ref[finite]))
    np.testing.assert_allclose(q[finite], q_ref[finite], rtol=1e-10, atol=floor)
    _check_roots_against_global_matrix(stack, freqs)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(layers=RANDOM_ISOTROPIC_LAYERS)
def test_closed_form_matches_eig_random_layers_on_silicon(layers, silicon, geom):
    stack = sk.LayerStack(
        layers=tuple(sk.Layer(m, d) for m, d in layers), substrate=silicon, geometry=geom
    )
    _check_closed_form_against_eig(stack, FINDER_FREQS)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(layers=RANDOM_ISOTROPIC_LAYERS, substrate=ISOTROPIC)
def test_closed_form_matches_eig_random_isotropic_substrate(layers, substrate):
    stack = sk.LayerStack(layers=tuple(sk.Layer(m, d) for m, d in layers), substrate=substrate)
    _check_closed_form_against_eig(stack, FINDER_FREQS)


def test_closed_form_at_bulk_speeds_matches_eig(stack_1a):
    # at a layer's v_t or v_l its up and down waves coincide: both paths
    # flag the same such points (the eigenproblem finds its operator
    # defective there), the oxide's v_t among them, and _indicator
    # evaluates those once more 1e-9 higher in velocity
    prep = dispersion._prepare(stack_1a)
    eig_prep = replace(prep, closed=None,
                       media=tuple(replace(m, closed=None) for m in prep.media))
    speeds = [s for layer in stack_1a.layers
              for s in (layer.material.shear_velocity, layer.material.longitudinal_velocity)
              if prep.v_floor < s < prep.v_ceiling]
    oxide = stack_1a.layers[1].material
    assert oxide.shear_velocity in speeds and oxide.longitudinal_velocity in speeds
    v = np.array(speeds)
    f = np.full(v.size, 300e6)
    g = dispersion._g33(prep, v, 2 * math.pi * f / v)
    g_eig = dispersion._g33(eig_prep, v, 2 * math.pi * f / v)
    assert np.array_equal(np.isnan(g), np.isnan(g_eig))
    assert np.isnan(g[speeds.index(oxide.shear_velocity)])
    q = dispersion._indicator(prep, f, v)
    q_eig = dispersion._indicator(eig_prep, f, v)
    assert np.isfinite(q).all() and np.isfinite(q_eig).all()
    np.testing.assert_allclose(q, q_eig, rtol=1e-10, atol=0)


# the cuts of a cubic crystal at which its frame stiffness is orthotropic
ORTHOTROPIC_CUTS = [((0, 0, 1), (1, 1, 0)), ((0, 0, 1), (1, 0, 0)),
                    ((1, 1, 0), (0, 0, 1)), ((1, 1, 0), (1, -1, 0))]
# random cubic crystals: c11, c12 / c11, c44 / c11 (0.26 for Al to 0.53 for
# diamond; near 1 the shear and longitudinal speeds coincide), density
CUBIC = st.builds(
    lambda c11, r12, r44, rho: sk.CubicMaterial(c11, r12 * c11, r44 * c11, rho),
    st.floats(100e9, 300e9), st.floats(0.0, 0.9), st.floats(0.2, 0.8),
    st.floats(2000.0, 8000.0),
)


def _check_waves_against_eig(tensor, rho):
    """Closed-form partial waves of one medium against the eigenproblem:
    the slownesses and the span of the decaying-or-downgoing waves, below,
    between and above its bulk speeds along x1, and exactly at them.  Both
    branches of ``_full_waves`` must put exactly the decaying-or-downgoing
    waves first, the eigenproblem's in their (Im, Re) order within each
    half."""
    med = dispersion._Medium.build(tensor.voigt, rho, float(np.abs(tensor.voigt).max()))
    assert med.closed is not None
    c11, _, _, _, c55, c66 = med.closed.moduli.ravel()
    bulk = np.sqrt(np.sort([c11, c55, c66]) / med.rho_scaled)
    bulk = bulk[np.r_[True, np.diff(bulk) > 1e-6 * bulk[1:]]]  # distinct speeds
    v = np.concatenate([[0.8 * bulk[0]], 0.5 * (bulk[:-1] + bulk[1:]), [1.2 * bulk[-1]]])
    # the waves depend on rho v^2 / c_ref only, which is exactly the modulus
    # C of a bulk speed at v = 1 with rho / c_ref = C; the closed form flags
    # that point, and both paths must agree at v (1 + _NUDGE), where
    # _indicator evaluates it once more
    one = np.ones(1)
    cases = [(med, v)]
    for c in (c11, c55, c66):
        at_bulk = replace(med, rho_scaled=c,
                          closed=replace(med.closed, rho_scaled=np.array([[c]])))
        assert not dispersion._full_waves(at_bulk, one)[2].any()
        cases.append((at_bulk, one * (1 + dispersion._NUDGE)))
    for m, v in cases:
        alpha, w, flux, valid = global_matrix.full_wave_fields(m, v)
        alpha_ref, w_ref, flux_ref, valid_ref = dispersion._wave_fields(m, v)
        assert valid.all() and valid_ref.all()
        down, _ = dispersion._masks(alpha, flux)
        down_ref, _ = dispersion._masks(alpha_ref, flux_ref)
        assert down[:, :3].all() and not down[:, 3:].any()
        eig = replace(m, closed=None)
        alpha_eig, _, flux_eig, valid_eig = global_matrix.full_wave_fields(eig, v)
        assert np.array_equal(valid_eig, valid_ref)
        down_eig, _ = dispersion._masks(alpha_eig, flux_eig)
        assert down_eig[:, :3].all() and not down_eig[:, 3:].any()
        order = np.argsort(~down_ref, axis=1, kind="stable")
        assert np.array_equal(alpha_eig, np.take_along_axis(alpha_ref, order, axis=1))
        for i in range(v.size):
            # each slowness has its match in the other set
            dist = np.abs(alpha[i][:, None] - alpha_ref[i][None, :])
            tol = 1e-9 * max(1.0, np.abs(alpha_ref[i]).max())
            assert dist.min(axis=0).max() < tol and dist.min(axis=1).max() < tol
            assert down[i].sum() == down_ref[i].sum() == 3
            basis, _ = np.linalg.qr(w_ref[i][:, down_ref[i]])
            ours = w[i][:, down[i]] / np.linalg.norm(w[i][:, down[i]], axis=0)
            assert np.linalg.norm(ours - basis @ (basis.conj().T @ ours)) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(material=CUBIC, cut=st.sampled_from(ORTHOTROPIC_CUTS))
def test_closed_form_waves_match_eig_random_cubic_cuts(material, cut):
    geometry = sk.PropagationGeometry(normal=cut[0], direction=cut[1])
    _check_waves_against_eig(stiffness_of(material, geometry), material.density)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(material=ISOTROPIC)
def test_closed_form_waves_match_eig_random_isotropic(material):
    _check_waves_against_eig(stiffness_from_isotropic(material), material.density)


# --- the prep against the 3x3x3x3 tensor path -------------------------------------


def _tensor_medium(material, geometry, c_ref):
    """Oracle: the medium built through a validated ``ElasticTensor`` and
    its 3x3x3x3 expansion, with ``inv``, the Mandel ``eigvalsh`` and the
    coupling scan for every medium."""
    tensor = stiffness_of(material, geometry)
    cijkl, c, rho = tensor.as_cijkl(), tensor.voigt, material.density
    q, r, t = cijkl[:, 0, :, 0], cijkl[:, 0, :, 2], cijkl[:, 2, :, 2]
    assert np.array_equal(dispersion._qrt(c), [q, r, t])
    t_inv = np.linalg.inv(t)
    n0 = np.zeros((6, 6))
    n0[:3, :3] = -t_inv @ r.T
    n0[:3, 3:] = t_inv * c_ref
    n0[3:, :3] = (-q + r @ t_inv @ r.T) / c_ref
    n0[3:, 3:] = -r @ t_inv
    mandel = np.sqrt([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    s2 = float(np.linalg.eigvalsh(mandel[:, None] * c * mandel)[0]) / (2.0 * rho)
    closed = None
    couplings = np.abs(np.triu(c, 1)[:, 3:]).max()
    if couplings <= 1e-12 * np.abs(c).max() and c[0, 2] + c[4, 4] != 0:
        moduli = [float(c[i, j]) / c_ref
                  for i, j in ((0, 0), (0, 2), (2, 2), (3, 3), (4, 4), (5, 5))]
        c11, c13, c33, _, c55, _ = moduli
        closed = dispersion._Stacked(
            moduli=np.array(moduli)[:, None, None], rho_scaled=np.array([[rho / c_ref]]),
            b0=np.array([[c55 * c55 + c33 * c11 - (c13 + c55) ** 2]]))
    return dispersion._Medium(n0=n0, rho_scaled=rho / c_ref, s2=s2, closed=closed)


def _check_medium(med, ref):
    assert np.array_equal(med.n0, ref.n0)
    assert med.rho_scaled == ref.rho_scaled
    assert med.s2 == pytest.approx(ref.s2, rel=1e-12, abs=0)
    assert (med.closed is None) == (ref.closed is None)
    if ref.closed is not None:
        for name in ("moduli", "rho_scaled", "b0"):
            assert np.array_equal(getattr(med.closed, name), getattr(ref.closed, name))


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_prep_matches_tensor_path_bundled_stacks(name, thickness_factor):
    # the prep reads Q, R and T from the Voigt matrix by index and builds
    # isotropic media from their Lame constants with no linear algebra; the
    # media match the tensor path's, and so do the mode counts on the
    # (frequency x velocity) mesh
    stack = _bundled_stack(name, thickness_factor)
    prep = dispersion._prepare(stack)
    materials = [layer.material for layer in stack.layers] + [stack.substrate]
    c_ref = max(float(np.abs(stiffness_of(m, stack.geometry).voigt).max()) for m in materials)
    media = tuple(_tensor_medium(m, stack.geometry, c_ref) for m in materials)
    for med, ref in zip(prep.media, media, strict=True):
        _check_medium(med, ref)
    oracle = replace(prep, media=media, closed=dispersion._medium_axis(media))
    v = np.linspace(prep.v_floor, prep.v_ceiling * (1.0 - 1e-9), 400)
    count = dispersion._mode_count(prep, CURVE_FREQS[:, None], v)
    assert count.shape == (35, 400) and np.isfinite(count).all()
    assert np.array_equal(count, dispersion._mode_count(oracle, CURVE_FREQS[:, None], v))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(material=st.builds(sk.IsotropicMaterial, young_modulus=st.floats(1e9, 500e9),
                          poisson_ratio=st.floats(-0.9, 0.49),
                          density=st.floats(1000.0, 20000.0)))
def test_isotropic_medium_matches_tensor_path(material, geom):
    # at the film's own c_ref, as a stack's stiffest medium, and under a
    # stiffer one
    own = float(np.abs(stiffness_from_isotropic(material).voigt).max())
    for c_ref in (own, 2.5 * own + 1e9):
        _check_medium(dispersion._medium(material, geom, c_ref),
                      _tensor_medium(material, geom, c_ref))


@pytest.mark.parametrize("cut", [((0, 0, 1), (1, 0, 0)), ((1, 1, 0), (0, 0, 1))])
@pytest.mark.parametrize("with_layers", [False, True])
def test_closed_form_matches_eig_other_silicon_cuts(stack_1a, cut, with_layers):
    stack = sk.LayerStack(
        layers=stack_1a.layers if with_layers else (),
        substrate=stack_1a.substrate,
        geometry=sk.PropagationGeometry(normal=cut[0], direction=cut[1]),
    )
    assert dispersion._prepare(stack).media[-1].closed is not None
    _check_closed_form_against_eig(stack, FINDER_FREQS)


def _check_closed_form_waves_come_split(stack):
    """``_surface`` takes a closed-form medium's waves without ``_masks``:
    at every velocity of the scan grid where they are valid, exactly the
    first n must be decaying-or-downgoing, for its sagittal waves (n = 2)
    and for all six (n = 3).  The sagittal waves come from the one
    ``_closed_form`` call over ``_Prepared.closed`` that ``_surface``
    makes, or beside an eigenproblem medium from each medium's own; their
    twins' slownesses are -alpha."""
    prep = dispersion._prepare(stack)
    grid = dispersion._scan_grid(prep)
    closed = [med for med in prep.media if med.closed is not None]
    assert closed
    if prep.closed is not None:  # then every medium is closed-form
        stacked = dispersion._closed_form(prep.closed, grid)
        own = [[a[..., i, :] for a in stacked] for i in range(len(closed))]
    else:
        own = [[a[..., 0, :] for a in dispersion._closed_form(med.closed, grid)]
               for med in closed]
    for med, (alpha, w, valid) in zip(closed, own):
        sagittal = np.concatenate([alpha[:2], -alpha[:2]]), w, valid
        for alpha, w, valid in (sagittal, dispersion._full_waves(med, grid)):
            n = alpha.shape[0] // 2
            flux = (w[:n].conj() * w[n:]).real.sum(axis=0)
            down, _ = dispersion._masks(alpha, flux)
            assert valid.any()
            assert down[:n, valid].all() and not down[n:, valid].any()


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_closed_form_waves_come_split_bundled_stacks(name, thickness_factor):
    _check_closed_form_waves_come_split(_bundled_stack(name, thickness_factor))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers=RANDOM_LAYERS, on_si111=st.booleans())
def test_closed_form_waves_come_split_random_stacks(layers, on_si111, silicon, oxide, geom):
    # on Si(111)[1-10] the substrate takes the eigenproblem, its layers not
    _check_closed_form_waves_come_split(
        _random_stack(layers, silicon, oxide, SI111 if on_si111 else geom))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers=RANDOM_ISOTROPIC_LAYERS, substrate=st.one_of(st.none(), ISOTROPIC))
def test_closed_form_waves_come_split_random_isotropic_layers(layers, substrate, silicon, geom):
    stack = sk.LayerStack(layers=tuple(sk.Layer(m, d) for m, d in layers),
                          substrate=silicon if substrate is None else substrate, geometry=geom)
    _check_closed_form_waves_come_split(stack)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(layers=RANDOM_LAYERS)
def test_recursion_matches_global_matrix_non_orthotropic_substrate(layers, silicon, oxide):
    # the substrate keeps the eigenproblem path of _surface and 3x3 blocks
    stack = _random_stack(layers, silicon, oxide, SI111)
    assert dispersion._prepare(stack).media[-1].closed is None
    _check_against_global_matrix(stack, FINDER_FREQS)


def _check_sagittal_against_full(stack):
    """The 2x2 sagittal recursion against the 3x3 one on the same closed-form
    waves: q on the scan mesh at 35 frequencies, and the roots.

    Dropping ``_Prepared.closed`` hands ``_surface`` every medium's six
    closed-form waves (``_full_waves``) in place of its sagittal ones, which
    keeps the SH wave in every block: the 3x3 path of a stack with an
    eigenproblem medium.  Where q crosses zero its
    relative error is unbounded, so the tolerance has a floor at 1e-10 of
    q's median.  Near an interface-wave velocity of a layer on the medium
    below the recursion loses digits whichever block size it runs; at the
    few mesh points where the two paths differ by more, the 2x2 one must
    stay within 1e-9 of the global-matrix oracle.
    """
    prep = dispersion._prepare(stack)
    assert all(med.closed is not None for med in prep.media)
    grid = dispersion._scan_grid(prep)
    q = dispersion._indicator(prep, CURVE_FREQS[:, None], grid)
    roots = dispersion._find_modes(stack, CURVE_FREQS, None)[0]
    full = replace(prep, closed=None)
    assert dispersion._surface(full, grid[:1], np.ones(1))[2].shape[0] == 3
    q_full = dispersion._indicator(full, CURVE_FREQS[:, None], grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_prepare", lambda stack: full)
        roots_full = dispersion._find_modes(stack, CURVE_FREQS, None)[0]
    np.testing.assert_allclose(roots, roots_full, rtol=1e-12, atol=0)
    assert np.array_equal(np.isfinite(q), np.isfinite(q_full))
    finite = np.isfinite(q_full)
    q, q_full = np.where(finite, q, 0.0), np.where(finite, q_full, 0.0)
    floor = 1e-10 * np.median(np.abs(q_full[finite]))
    i, j = np.nonzero(np.abs(q - q_full) > 1e-10 * np.abs(q_full) + floor)
    if i.size:
        q_ref = global_matrix.grid_indicator(prep, CURVE_FREQS, grid[j])[i, np.arange(j.size)]
        np.testing.assert_allclose(q[i, j], q_ref, rtol=1e-9, atol=0)
    return i.size


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_sagittal_recursion_matches_full_bundled_stacks(name, thickness_factor):
    assert _check_sagittal_against_full(_bundled_stack(name, thickness_factor)) == 0


@settings(max_examples=10, deadline=None, derandomize=True)
@given(layers=RANDOM_LAYERS)
def test_sagittal_recursion_matches_full_random_stacks(layers, silicon, oxide, geom):
    _check_sagittal_against_full(_random_stack(layers, silicon, oxide, geom))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(layers=RANDOM_ISOTROPIC_LAYERS, substrate=st.one_of(st.none(), ISOTROPIC))
def test_sagittal_recursion_matches_full_random_isotropic_layers(layers, substrate, silicon, geom):
    stack = sk.LayerStack(layers=tuple(sk.Layer(m, d) for m, d in layers),
                          substrate=silicon if substrate is None else substrate, geometry=geom)
    _check_sagittal_against_full(stack)


def test_wave_fields_flags_every_failing_row(iso, iso_tensor, monkeypatch):
    # in one batch, row 1 fails the residual check and row 2 has two equal
    # eigenpairs: both are marked invalid, and neither is solved again
    med = dispersion._Medium.build(iso_tensor.voigt, iso.density,
                                   float(np.abs(iso_tensor.voigt).max()))
    v = np.array([0.7, 0.8, 0.9]) * iso.shear_velocity
    eig_sorted, batches = dispersion._eig_sorted, []

    def faulty_eig_sorted(n):
        alpha, vecs = eig_sorted(n)
        batches.append(n)
        alpha[1, 0] *= 2.0
        alpha[-1, 1], vecs[-1, :, 1] = alpha[-1, 0], vecs[-1, :, 0]
        return alpha, vecs

    monkeypatch.setattr(dispersion, "_eig_sorted", faulty_eig_sorted)
    _, _, _, valid = dispersion._wave_fields(med, v)
    assert len(batches) == 1
    np.testing.assert_array_equal(batches[0], med.operator(v))
    assert valid.tolist() == [True, False, False]


def test_no_eig_on_bundled_stacks(stack_1a, monkeypatch):
    # work guard that does not depend on the machine: every medium of the
    # bundled stacks, the Si(001)[110] substrate included, is orthotropic in
    # the frame, so no curve, cold or hinted, and no fit solves an eigenproblem
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    for name, thickness_factor in BUNDLED:
        stack = _bundled_stack(name, thickness_factor)
        cold = sk.dispersion_curve(stack, CURVE_FREQS)
        hints = np.array(cold.velocities) * (1 + 2e-4 * (-1.0) ** np.arange(35))
        sk.dispersion_curve(stack, CURVE_FREQS, hints=hints)
    problem = sk.FitProblem(
        template=stack_1a,
        free=(sk.FreeParam("c_ge", 0.25, 0.0, 1.0),
              sk.FreeParam("layer0.thickness", 0.9e-6, 0.3e-6, 3e-6)),
        measured=sk.dispersion_curve(stack_1a, CURVE_FREQS),
        coupling=sk.SiGeCoupling(layer_index=0),
    )
    assert sk.fit_parameters(problem).converged
    assert shapes == []
    # the recording sees the eigenproblem where it still runs
    sk.partial_waves(stiffness_from_isotropic(stack_1a.layers[1].material),
                     stack_1a.layers[1].material.density, 2e9, 1e6)
    assert shapes == [(1, 6, 6)]


@pytest.mark.parametrize("call", range(4))
def test_singular_system_spoils_only_its_own_point(stack_1a, monkeypatch, call):
    # stack 1A (film on oxide on Si) makes four 2x2 solves per batch: the
    # substrate impedance and the oxide's coupling to it (per velocity),
    # the impedance at the oxide's top and the film's coupling to it (per
    # frequency); make one exactly singular at one point, once: velocity 3
    # of a batch, at frequency 1 of a scan block.  The systems are
    # entry-major, (2, 2, frequencies, velocities), with one frequency in a
    # batch and for the per-velocity systems of a scan block
    prep = dispersion._prepare(stack_1a)
    v = np.linspace(3600.0, 5000.0, 8)
    f = np.full(v.size, 300e6)
    freqs = np.array([200e6, 300e6, 400e6])
    k_mesh = 2 * math.pi * freqs[:, None] / v
    clean = dispersion._g33(prep, v, 2 * math.pi * f / v)
    clean_mesh = dispersion._pole_indicator(dispersion._g33(prep, v, k_mesh))
    solve, seen = dispersion._solve, []

    def singular_once(a, b):
        seen.append(1)
        if len(seen) == call + 1:
            a = a.copy()
            a[:, :, min(1, a.shape[2] - 1), 3] = 0.0
        return solve(a, b)

    monkeypatch.setattr(dispersion, "_solve", singular_once)
    got = dispersion._g33(prep, v, 2 * math.pi * f / v)
    assert len(seen) == 4
    assert np.flatnonzero(~np.isfinite(got)).tolist() == [3]
    others = np.arange(v.size) != 3
    np.testing.assert_allclose(got[others], clean[others], rtol=1e-14)
    seen.clear()
    q = dispersion._indicator(prep, f, v)
    assert np.isfinite(q).all()
    # on the (frequency x velocity) mesh a per-velocity system spoils its
    # velocity at every frequency, a per-frequency one its own entry only,
    # and _indicator steps off them as it does off a batch's
    seen.clear()
    mesh = dispersion._pole_indicator(dispersion._g33(prep, v, k_mesh))
    assert len(seen) == 4
    spoiled = np.zeros(mesh.shape, dtype=bool)
    spoiled[1 if call >= 2 else slice(None), 3] = True
    assert np.array_equal(~np.isfinite(mesh), spoiled)
    np.testing.assert_allclose(mesh[~spoiled], clean_mesh[~spoiled], rtol=1e-14)
    seen.clear()
    assert np.isfinite(dispersion._indicator(prep, freqs[:, None], v)).all()


def test_singular_surface_matrix_gives_a_zero_indicator(stack_1a, monkeypatch):
    # below the substrate threshold the rows of the surface matrix Y are
    # real and imaginary, so det Y can cancel to exactly 0 at a mode: u3 is
    # then infinite and q = Im(1/u3) is 0 at that point alone, not NaN
    prep = dispersion._prepare(stack_1a)
    v = np.linspace(3600.0, 5000.0, 8)
    k = 2 * math.pi * 300e6 / v
    clean = dispersion._pole_indicator(dispersion._g33(prep, v, k))
    surface = dispersion._surface

    def singular_at_3(prep, v, k):
        valid, x, y = surface(prep, v, k)
        y[-1, ..., 3] = y[0, ..., 3]  # entry-major: (2, 2, 1, velocities)
        return valid, x, y

    monkeypatch.setattr(dispersion, "_surface", singular_at_3)
    q = dispersion._pole_indicator(dispersion._g33(prep, v, k))
    assert q[3] == 0 and clean[3] != 0
    others = np.arange(v.size) != 3
    assert np.array_equal(q[others], clean[others])


def test_cold_stack_3_curve_meets_no_singular_point(stack_3, monkeypatch):
    # work guard: where det Y cancels to exactly 0 at a root, a NaN
    # indicator would send the root finder 1e-9 up the velocity axis to a
    # wrong-signed value, and it would creep (2 such points and 15
    # refinement batches with a final linear solve in place of the ratio)
    g33, points = dispersion._g33, []

    def recording_g33(prep, v, k):
        u3 = g33(prep, v, k)
        points.append(dispersion._pole_indicator(u3))
        return u3

    monkeypatch.setattr(dispersion, "_g33", recording_g33)
    indicator, blocks, batches = dispersion._indicator, [], []
    grid = dispersion._scan_grid(dispersion._prepare(stack_3))

    def counting_indicator(prep, freqs, v):
        # a scan block's (F, 1), or the pairs at the scan's starts
        (blocks if freqs.ndim == 2 or np.isin(v, grid).all() else batches).append(1)
        return indicator(prep, freqs, v)

    monkeypatch.setattr(dispersion, "_indicator", counting_indicator)
    sk.dispersion_curve(stack_3, CURVE_FREQS)
    assert np.isfinite(np.concatenate([q.ravel() for q in points])).all()
    assert blocks and 0 < len(batches) <= 4


def test_cold_curve_makes_no_lapack_solve(stack_1a, silicon, monkeypatch):
    # work guard that does not depend on the machine: on stack 1A every
    # linear system is a 2x2 solved in closed form (70 np.linalg.solve
    # calls with 3x3 blocks) and every inertia of the mode count a 2x2 one
    # in closed form, so no np.linalg routine runs.  The count's own waves
    # are the ladder, at the midpoint of each block's first cell, and one
    # batch just below the 35 roots.  The scan evaluates each (frequency,
    # grid velocity) pair once, in ascending order, from the block the count
    # starts that frequency at (above the floor for every one) up to below
    # the ceiling, stopping once the frequency has its root; on sio2_on_si
    # and 1A x10 some frequencies carry q into a block where others start
    prep = dispersion._prepare(stack_1a)
    grid = dispersion._scan_grid(prep)
    calls, scanned, others = [], [], []
    waves, indicator = dispersion._closed_form, dispersion._indicator
    for name in ("solve", "inv", "det", "eig", "eigh", "eigvalsh"):
        def recording(a, *args, _name=name, _routine=getattr(np.linalg, name)):
            calls.append((_name, np.shape(a)[-2:]))
            return _routine(a, *args)
        monkeypatch.setattr(np.linalg, name, recording)

    def recording_waves(st, v):
        if not np.isin(v, grid).all():
            others.append(v)
        return waves(st, v)

    def recording_indicator(prep, f, v):
        if np.isin(v, grid).all():
            scanned.append([a.ravel() for a in np.broadcast_arrays(f, v)])
        return indicator(prep, f, v)

    monkeypatch.setattr(dispersion, "_closed_form", recording_waves)
    monkeypatch.setattr(dispersion, "_indicator", recording_indicator)
    curve = sk.dispersion_curve(stack_1a, CURVE_FREQS)
    assert calls == []
    starts = np.arange(0, grid.size - 1, dispersion._SCAN_BLOCK)
    assert np.array_equal(others[0], 0.5 * (grid[starts] + grid[starts + 1]))
    assert np.array_equal(others[-1], np.array(curve.velocities) * (1 - 1e-6))
    assert max(map(np.size, others)) <= 35
    for stack in (stack_1a, _bundled_stack("sio2_on_si", 1), _bundled_stack("stack_1A", 10)):
        grid = dispersion._scan_grid(dispersion._prepare(stack))
        scanned.clear()
        sk.dispersion_curve(stack, CURVE_FREQS)
        f, v = (np.concatenate(a) for a in zip(*scanned))
        assert set(f) == set(CURVE_FREQS)
        for freq in CURVE_FREQS:
            swept = v[f == freq]
            first = np.searchsorted(grid, swept[0])
            assert first > 0 and first % dispersion._SCAN_BLOCK == 0
            assert np.array_equal(swept, grid[first:first + swept.size])
            assert first + swept.size < grid.size
    assert calls == []
    # a substrate whose SH wave couples keeps 3x3 systems throughout, and
    # its count takes 3x3 eigenvalues
    si111 = sk.LayerStack(layers=stack_1a.layers, substrate=silicon, geometry=SI111)
    dispersion._prepare(si111)  # each medium's 6x6 Mandel eigenvalues
    calls.clear()
    sk.dispersion_curve(si111, [300e6])
    routines = {name for name, _ in calls}
    assert {"solve", "eigvalsh"} <= routines
    assert {shape for name, shape in calls if name in ("solve", "eigvalsh")} == {(3, 3)}


@pytest.mark.parametrize("name, thickness_factor", BUNDLED)
def test_one_closed_form_call_per_kernel(name, thickness_factor, monkeypatch):
    # work guard that does not depend on the machine: on a stack whose media
    # are all orthotropic in the frame, one _closed_form call builds every
    # medium's waves for a _g33 batch, cold or hinted, over 1 to 3 media
    # and for a _mode_count batch: a cold curve makes two, the ladder that
    # starts its scan and the count just below its roots
    stack = _bundled_stack(name, thickness_factor)
    g33, closed_form, batches, calls = dispersion._g33, dispersion._closed_form, [], []
    mode_count, counts = dispersion._mode_count, []
    monkeypatch.setattr(dispersion, "_g33",
                        lambda prep, v, k: batches.append(1) or g33(prep, v, k))
    monkeypatch.setattr(dispersion, "_mode_count",
                        lambda prep, f, v: counts.append(1) or mode_count(prep, f, v))
    monkeypatch.setattr(dispersion, "_closed_form",
                        lambda st, v: calls.append(st.moduli.shape) or closed_form(st, v))
    cold = sk.dispersion_curve(stack, CURVE_FREQS)
    assert len(counts) == 2
    sk.dispersion_curve(stack, CURVE_FREQS, hints=np.array(cold.velocities) + 3.0)
    assert batches and len(calls) == len(batches) + len(counts)
    assert set(calls) == {(6, len(stack.layers) + 1, 1)}


@pytest.mark.parametrize("name", ["si_bare", "stack_1A", "stack_3"])
def test_si111_stacks_reach_the_eigenproblem(name, monkeypatch):
    # the Si(111)[1-10] substrate is not orthotropic in the frame: its waves
    # still come from _wave_fields, and its closed-form layers each from a
    # one-medium _closed_form call
    stack = replace(_bundled_stack(name, 1), geometry=SI111)
    wave_fields, closed_form = dispersion._wave_fields, dispersion._closed_form
    eig_media, closed_media = [], []
    monkeypatch.setattr(dispersion, "_wave_fields",
                        lambda med, v: eig_media.append(med) or wave_fields(med, v))
    monkeypatch.setattr(dispersion, "_closed_form",
                        lambda st, v: closed_media.append(st.moduli.shape[1])
                        or closed_form(st, v))
    sk.dispersion_curve(stack, [300e6])
    prep = dispersion._prepare(stack)
    assert set(eig_media) == {prep.media[-1]}
    assert len(closed_media) == len(eig_media) * len(stack.layers)
    assert set(closed_media) <= {1}


def test_cold_curve_response_points(stack_1a, monkeypatch):
    # work guard that does not depend on the machine: (velocity, frequency)
    # points through the layer recursion for a cold 35-point curve (a scan
    # of the whole grid at every frequency takes 28 069, from the floor
    # 16 558 in 14 _indicator batches), and the mode count's points: the
    # (35 frequencies x 13 blocks) ladder and 35 points below the roots
    g33, points = dispersion._g33, []
    indicator, batches = dispersion._indicator, []
    mode_count, counted = dispersion._mode_count, []
    monkeypatch.setattr(dispersion, "_g33",
                        lambda prep, v, k: points.append(np.size(k)) or g33(prep, v, k))
    monkeypatch.setattr(dispersion, "_indicator",
                        lambda prep, f, v: batches.append(1) or indicator(prep, f, v))
    monkeypatch.setattr(dispersion, "_mode_count",
                        lambda prep, f, v: counted.append(np.broadcast(f, v).size)
                        or mode_count(prep, f, v))
    sk.dispersion_curve(stack_1a, CURVE_FREQS)
    assert sum(points) <= 3_000
    assert len(batches) <= 10
    assert counted == [35 * 13, 35]


def test_one_layer_exponential_per_closed_form_wave(stack_1a, oxide, silicon, monkeypatch):
    # work guard that does not depend on the machine: a closed-form layer
    # has alpha_u = -alpha_d exactly, so E_u = E_d and _surface and
    # _mode_count evaluate n complex exponentials per layer and point, not
    # 2n (the count once per layer, however many sublayers it splits it
    # into); a layer whose waves come from the eigenproblem keeps both.  The
    # points are those of every _waves batch, the recursion's and the count's
    waves, exp, points, exps = dispersion._waves, dispersion.np.exp, [], []

    def recording_waves(prep, v, k):
        out = waves(prep, v, k)
        points.append(np.size(out[2]))
        return out

    def recording_exp(x, *args, **kwargs):
        exps.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(dispersion, "_waves", recording_waves)
    monkeypatch.setattr(dispersion.np, "exp", recording_exp)
    sk.dispersion_curve(stack_1a, CURVE_FREQS)
    assert sum(points) > 0
    assert sum(exps) == 2 * len(stack_1a.layers) * sum(points)  # n = 2
    # on Si(111)[1-10] a cubic (Ge) film needs the eigenproblem and the
    # oxide does not: n = 3, six exponentials for the film, three for the oxide
    germanium = sk.CubicMaterial(129e9, 48e9, 67e9, 5323.0)
    si111 = sk.LayerStack(layers=(sk.Layer(germanium, 0.5e-6), sk.Layer(oxide, 0.4e-6)),
                          substrate=silicon, geometry=SI111)
    prep = dispersion._prepare(si111)
    assert [med.closed is None for med in prep.media] == [True, False, True]
    points.clear()
    exps.clear()
    sk.dispersion_curve(si111, [300e6])
    assert sum(points) > 0
    assert sum(exps) == (6 + 3) * sum(points)


@pytest.mark.parametrize("thickness_factor", [1, 10])
def test_block_path_matches_batch_path(thickness_factor):
    # the recursion broadcasts a scan block's (frequency, velocity) mesh and
    # a batch's (frequency, velocity) pairs through the same entry-major
    # code: 35 frequencies x 20 velocities of stack 1A, both ways
    stack = _bundled_stack("stack_1A", thickness_factor)
    prep = dispersion._prepare(stack)
    grid = dispersion._scan_grid(prep)
    v = grid[:: grid.size // 20][:20]
    q_block = dispersion._indicator(prep, CURVE_FREQS[:, None], v)
    f_pairs, v_pairs = np.meshgrid(CURVE_FREQS, v, indexing="ij")
    q_batch = dispersion._indicator(dispersion._prepare(stack), f_pairs.ravel(), v_pairs.ravel())
    q_batch = q_batch.reshape(q_block.shape)
    assert np.isfinite(q_block).all() and np.isfinite(q_batch).all()
    floor = 1e-10 * np.median(np.abs(q_block))
    np.testing.assert_allclose(q_batch, q_block, rtol=1e-13, atol=floor)


# --- curve container and CSV ----------------------------------------------------


def test_curve_validation():
    with pytest.raises(ValueError):
        sk.DispersionCurve(frequencies=(1e6, 1e6), velocities=(100.0, 100.0))
    with pytest.raises(ValueError):
        sk.DispersionCurve(frequencies=(1e6, 2e6), velocities=(100.0, -5.0))


@pytest.mark.parametrize(
    "frequencies, velocities, sigmas",
    [
        ((1e6, math.nan), (100.0, 100.0), None),
        ((1e6, math.inf), (100.0, 100.0), None),
        ((1e6, 2e6), (100.0, math.nan), None),
        ((1e6, 2e6), (100.0, math.inf), None),
        ((1e6, 2e6), (100.0, 100.0), (1.0, 0.0)),
        ((1e6, 2e6), (100.0, 100.0), (1.0, -1.0)),
        ((1e6, 2e6), (100.0, 100.0), (1.0, math.nan)),
        ((1e6, 2e6), (100.0, 100.0), (math.inf, 1.0)),
    ],
)
def test_curve_rejects_non_finite_values_and_nonpositive_sigmas(
    frequencies, velocities, sigmas
):
    with pytest.raises(ValueError):
        sk.DispersionCurve(frequencies, velocities, sigmas)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dispersion_curve_rejects_non_finite_frequency(bare_silicon, bad):
    with pytest.raises(ValueError, match="finite"):
        sk.dispersion_curve(bare_silicon, [100e6, bad])
    with pytest.raises(ValueError, match="finite"):
        sk.dispersion_curve(bare_silicon, [bad])


def test_dispersion_csv_text_golden():
    curve = sk.DispersionCurve((1e8, 2.5e8), (4700.0, 4512.25))
    assert dispersion.dispersion_csv_text(curve) == (
        "frequency_hz,phase_velocity_m_per_s\n"
        "100000000.0,4700.0\n"
        "250000000.0,4512.25\n"
    )
    with_sigmas = sk.DispersionCurve(curve.frequencies, curve.velocities, (4.7, 0.1 + 0.2))
    assert dispersion.dispersion_csv_text(with_sigmas) == (
        "frequency_hz,phase_velocity_m_per_s,sigma_m_per_s\n"
        "100000000.0,4700.0,4.7\n"
        "250000000.0,4512.25,0.30000000000000004\n"
    )


def test_curve_csv_round_trip(tmp_path, curve_1a):
    p = tmp_path / "curve.csv"
    sk.write_dispersion_csv(curve_1a, p)
    got = sk.read_dispersion_csv(p)
    assert got.frequencies == curve_1a.frequencies
    assert got.velocities == curve_1a.velocities
    text = p.read_text()
    assert text.startswith("frequency_hz,phase_velocity_m_per_s\n")
    assert "\r" not in text


def test_curve_csv_with_sigma_round_trip(tmp_path):
    c = sk.DispersionCurve((1e6, 2e6), (4000.0, 4100.0), sigmas=(4.0, 5.0))
    p = tmp_path / "c.csv"
    sk.write_dispersion_csv(c, p)
    got = sk.read_dispersion_csv(p)
    assert got.sigmas == (4.0, 5.0)


def test_curve_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("freq,vel\n1,2\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        sk.read_dispersion_csv(p)
    assert err.value.line == 1


def test_curve_csv_rejects_bad_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("frequency_hz,phase_velocity_m_per_s\n1e6,abc\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        sk.read_dispersion_csv(p)
    assert err.value.line == 2


def _csv_rows_text(header, columns, meta=None):
    """The ``%r,...,%r`` row-by-row text the column-wise writer replaced."""
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()] + [header]
    row = ",".join(["%r"] * len(columns))
    return "".join(line + "\n" for line in lines + [row % r for r in zip(*columns)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_csv_text_matches_row_by_row_text(n):
    values = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, -2.5]
    columns = [values[i:] + values[:i] for i in range(n)]
    header = ",".join(f"c{i}" for i in range(n))
    meta = {"seed": 3, "rate": 2e9}
    text = dispersion._csv_text(header, columns, meta)
    assert text == _csv_rows_text(header, columns, meta)
    assert "-0.0" in text and "5e-324" in text and "1e+16" in text and "1e-05" in text
    assert "0.30000000000000004" in text


_TABLE_HEADERS = {1: "amplitude", 2: dispersion.CSV_HEADER, 3: dispersion.CSV_HEADER_SIGMA}
_TABLE_ROWS = {1: ["0.5", "-1e-3", "2.0"],
               2: ["1e8,4700.0", "2e8,4650.5", "3e8,4600.25"],
               3: ["1e8,4700.0,4.7", "2e8,4650.5,0.3", "3e8,4600.25,1e-2"]}


def _table_corpus():
    """The reader's differential test's files: one ``pytest.param`` of text each,
    its id the column count and the case."""
    cases = []
    for n, header in _TABLE_HEADERS.items():
        rows = _TABLE_ROWS[n]
        bad = ",".join(["x"] * n)
        zero = ",".join(["0"] * n)
        bodies = {
            "plain": rows,
            "blank-lines": ["", rows[0], "", "", rows[1], rows[2], ""],
            "whitespace-lines": [rows[0], "   ", "\t", rows[1], " \t ", rows[2]],
            "comments": [rows[0], "# note", rows[1], "#", "# key = late ", rows[2]],
            "meta-override": [rows[0], "# seed=9", "# new=1=2", rows[1], rows[2]],
            "trailing-spaces": [r + "  " for r in rows] + ["  " + rows[0] + "\t"],
            "bad-first": [bad] + rows,
            "bad-middle": [rows[0], bad, rows[1]],
            "bad-last": rows + [bad],
            "bad-after-comment": [rows[0], "# c=1", "", bad, rows[1]],
            "two-bad": [rows[0], bad, rows[1], bad],
            "nan": [rows[0], ",".join(["nan"] * n)],
            "inf": [rows[0], ",".join(["-inf"] * n)],
            "underscore": [rows[0], ",".join(["1_0"] * n)],
            "non-positive": [rows[0], zero, rows[1]],
            "negative-only": [",".join(["-1"] * n)],
            "extra-number": rows + [rows[0] + ",1.0"],
            "two-numbers": ["1.0,2.0", "3.0,4.0"],
            "missing-number": rows + [",".join(["1.0"] * (n - 1)) or ","],
            "inline-hash": [rows[0] + " # c", rows[1]],
            "empty": [],
            "empty-blank": ["", "  ", ""],
            "empty-lines": ["", ""],
            "empty-comments": ["# a=1", "", "# note"],
        }
        head = ["# seed=1", "", "# rate=2e9 ", "#nokey"]
        for name, body in bodies.items():
            text = "\n".join(head + [header] + body) + "\n"
            cases.append(pytest.param(text, id=f"{n}-{name}"))
            if name in ("plain", "comments", "bad-middle", "empty-blank"):
                cases.append(pytest.param(text.replace("\n", "\r\n"), id=f"{n}-{name}-crlf"))
        cases.append(pytest.param(header + "\n" + rows[0], id=f"{n}-no-final-newline"))
        cases.append(pytest.param(header, id=f"{n}-header-only"))
    cases += [pytest.param("# seed=1\n\n", id="no-header"), pytest.param("", id="empty-file"),
              pytest.param("# a=1\nfreq,vel\n1,2\n", id="bad-header"),
              pytest.param("amplitude\namplitude\n1.0\n", id="header-twice"),
              pytest.param("1.0\namplitude\n", id="row-before-header")]
    return cases


@pytest.mark.parametrize("positive", [False, True])
@pytest.mark.parametrize("text", _table_corpus())
def test_read_table_matches_line_by_line_reader(tmp_path, text, positive):
    p = tmp_path / "table.csv"
    p.write_bytes(text.encode("utf-8"))
    headers = tuple(_TABLE_HEADERS.values())
    try:
        want = table_oracle.read_table(p, headers, positive)
    except FormatError as exc:
        with pytest.raises(FormatError) as err:
            dispersion._read_table(p, headers, positive)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    header, columns, meta = dispersion._read_table(p, headers, positive)
    assert header == want[0]
    assert list(meta.items()) == list(want[2].items())
    assert columns.shape == want[1].shape
    assert np.array_equal(columns, want[1])
