import numpy as np
import pytest

from qarfcs.model import BathSpec, OhmicSpectralDensity, QarModel, SystemSpec

# golden bits and digests depend on the width of the recursion's long double
EIGHTY_BIT = pytest.mark.skipif(
    np.finfo(np.longdouble).eps != 2.0**-63,
    reason="golden bits were recorded with 80-bit long double",
)


def make_spin_boson(
    omega0=1.0, beta_c=1.0, beta_h=0.5, gamma_c=0.01, gamma_h=0.01, omega_c=10.0
):
    """Two-level model with both baths on the single transition."""
    sd = OhmicSpectralDensity(omega_c=omega_c)
    cold = 0 if beta_c >= beta_h else 1
    return QarModel(
        system=SystemSpec((0.0, omega0)),
        baths=(
            BathSpec("C", beta_c, {(0, 1): gamma_c}, sd),
            BathSpec("H", beta_h, {(0, 1): gamma_h}, sd),
        ),
        cold_index=cold,
    )


def make_tied_machine():
    """C (beta 1) on 1-2, H and W both at beta 0.5, on 1-3 and 2-3: the ideal coupling
    pattern with hot and work baths at one beta."""
    sd = OhmicSpectralDensity()
    return QarModel(
        system=SystemSpec((0.0, 0.4, 1.0)),
        baths=(
            BathSpec("C", 1.0, {(0, 1): 1e-3}, sd),
            BathSpec("H", 0.5, {(0, 2): 1e-3}, sd),
            BathSpec("W", 0.5, {(1, 2): 1e-3}, sd),
        ),
        cold_index=0,
    )


@pytest.fixture
def spin_boson():
    return make_spin_boson()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
