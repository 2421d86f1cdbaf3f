import numpy as np
import pytest

import sawkit as sk


@pytest.fixture(scope="session")
def db():
    return sk.builtin_material_db()


@pytest.fixture(scope="session")
def geom():
    return sk.PropagationGeometry(normal=(0, 0, 1), direction=(1, 1, 0))


@pytest.fixture(scope="session")
def silicon(db):
    return db["silicon"]


@pytest.fixture(scope="session")
def oxide(db):
    return db["SiO2_thermal"]


@pytest.fixture(scope="session")
def bare_silicon(silicon, geom):
    return sk.LayerStack(layers=(), substrate=silicon, geometry=geom)


def make_stack_1a(silicon, oxide, geom, c_ge=0.179, d=1.02e-6):
    return sk.LayerStack(
        layers=(sk.Layer(sk.sige_material(c_ge), d), sk.Layer(oxide, 2.435e-6)),
        substrate=silicon,
        geometry=geom,
    )


def make_stack_2(silicon, oxide, geom, c_ge=0.624, d=0.71e-6):
    return sk.LayerStack(
        layers=(sk.Layer(sk.sige_material(c_ge), d), sk.Layer(oxide, 2.435e-6)),
        substrate=silicon,
        geometry=geom,
    )


def make_stack_3(silicon, geom, c_ge=0.416, d=0.9e-6):
    return sk.LayerStack(
        layers=(sk.Layer(sk.sige_material(c_ge), d),),
        substrate=silicon,
        geometry=geom,
    )


def make_flat_stack(geom, v_rayleigh=5080.0):
    """Dispersionless stack: an isotropic half-space whose Young's modulus is
    scaled so that its Rayleigh velocity is ``v_rayleigh`` (m/s)."""
    base = sk.IsotropicMaterial(young_modulus=130e9, poisson_ratio=0.28, density=2329.0)
    scale = (v_rayleigh / sk.rayleigh_velocity_isotropic(base)) ** 2
    flat = sk.IsotropicMaterial(young_modulus=base.young_modulus * scale,
                                poisson_ratio=base.poisson_ratio, density=base.density)
    return sk.LayerStack(layers=(), substrate=flat, geometry=geom)


@pytest.fixture(scope="session")
def stack_1a(silicon, oxide, geom):
    return make_stack_1a(silicon, oxide, geom)


@pytest.fixture(scope="session")
def stack_3(silicon, geom):
    return make_stack_3(silicon, geom)


@pytest.fixture(scope="session")
def curve_1a(stack_1a):
    """Model 1A curve on a 16-point grid, shared across tests."""
    freqs = np.linspace(50e6, 500e6, 16)
    return sk.dispersion_curve(stack_1a, freqs)


@pytest.fixture(scope="session")
def curve_1a_wide(stack_1a):
    """Model 1A curve spanning all mask harmonics used in synthesis tests."""
    freqs = np.linspace(25e6, 900e6, 40)
    return sk.dispersion_curve(stack_1a, freqs)
