import sys

# set before squeezelab is imported: bytecode cached in src/ would be read by
# a later benchmark run from this checkout, which then skips compiling
sys.dont_write_bytecode = True

import numpy as np
import pytest

from squeezelab import conformal
from squeezelab.conformal import canonical_annulus_map
from squeezelab.domains import annulus, build_omega, build_omega_prime


@pytest.fixture(scope="session")
def omega_prime():
    return build_omega_prime()


@pytest.fixture(scope="session")
def omega(omega_prime):
    return build_omega(omega_prime)


@pytest.fixture(scope="session")
def lens_map(omega_prime):
    return canonical_annulus_map(omega_prime)


@pytest.fixture(scope="session")
def round_annulus():
    return annulus(0.3)


@pytest.fixture(scope="session")
def round_annulus_map(round_annulus):
    return canonical_annulus_map(round_annulus)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def fitted_domains(monkeypatch):
    """The domain of each map that canonical_annulus_map builds during the test, in order."""
    fits = []
    build = conformal._build

    def spy(dom, *args):
        fits.append(dom)
        return build(dom, *args)

    monkeypatch.setattr(conformal, "_build", spy)
    return fits
