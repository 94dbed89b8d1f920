import os

import numpy as np
import pytest

from g2flow import almostabelian as aa
from g2flow.corpus import random_sl3c  # noqa: F401 - shared with the tests
from g2flow.exterior import Metric, phi_canonical, act
from g2flow.g2core import G2Structure

SEED = int(os.environ.get("G2FLOW_SEED", "20260809"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def s_canonical():
    return G2Structure(phi_canonical())


@pytest.fixture(scope="session")
def s_nilpotent():
    from g2flow.corpus import phi_nilpotent_example
    return G2Structure(phi_nilpotent_example())


@pytest.fixture(scope="session")
def s_aa():
    return aa.structure()


def random_gl7(rng, spread=0.6):
    """Invertible matrix, reasonably conditioned, random determinant sign."""
    while True:
        h = np.eye(7) + spread * rng.normal(size=(7, 7)) / np.sqrt(7)
        if abs(np.linalg.det(h)) > 0.2:
            return h


def random_positive_form(rng, spread=0.6):
    return act(random_gl7(rng, spread), phi_canonical())


def random_metric(rng, spread=0.5):
    X = rng.normal(size=(7, 7)) * spread
    g = X @ X.T + np.eye(7)
    return Metric(g)


def random_kform(rng, degree, scale=1.0):
    from g2flow.exterior import KForm, NFORMS
    return KForm(degree, scale * rng.normal(size=NFORMS[degree]))


def random_su3(rng):
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    S = 0.5 * (X - X.conj().T)
    S -= np.trace(S) / 3 * np.eye(3)
    return aa.AAMatrix.from_complex(S)
