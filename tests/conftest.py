import os

import numpy as np
import pytest
from hypothesis import settings

from g2flow import almostabelian as aa
from g2flow.corpus import random_sl3c  # noqa: F401 - shared with the tests
from g2flow.exterior import KForm, Metric, hodge_star, phi_canonical, act
from g2flow.g2core import G2Structure
from g2flow.liealg import ce_differential

SEED = int(os.environ.get("G2FLOW_SEED", "20260809"))

# property tests draw the same examples on every run and keep no database
settings.register_profile("g2flow", derandomize=True, deadline=None, database=None)
settings.load_profile("g2flow")


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


# -- the object chain: the Hodge Laplacian on forms of every degree, built
# from KForm values; the oracle for flow.laplacian and the compiled
# bracket-flow right side

def codifferential(mu, s, a):
    """Adjoint of d_mu: (-1)^k * d * on degree k (zero on 0-forms)."""
    k = a.degree
    if k == 0:
        return KForm.zero(0)
    sa = hodge_star(a, s.metric)  # degree 7-k
    dsa = ce_differential(mu, sa)  # degree 8-k
    return ((-1.0) ** k) * hodge_star(dsa, s.metric)


def hodge_laplacian(mu, s, a):
    """Hodge Laplacian d*d + dd* for the structure's metric; on 3-forms this
    is *d*d - d*d*."""
    k = a.degree
    out = KForm.zero(k)
    if k < 7:
        out = out + codifferential(mu, s, ce_differential(mu, a))
    if k > 0:
        out = out + ce_differential(mu, codifferential(mu, s, a))
    return out
