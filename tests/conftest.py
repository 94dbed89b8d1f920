import math
import os

import numpy as np
import pytest
from hypothesis import settings

from g2flow import almostabelian as aa
from g2flow import integrate
from g2flow.corpus import random_sl3c  # noqa: F401 - shared with the tests
from g2flow.exterior import KForm, Metric, hodge_star, phi_canonical, act
from g2flow.g2core import G2Structure
from g2flow.integrate import _DOP_C, rk45_steps
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


def in_t(f):
    """y' = f(t, y) as the rates of a scale-free state z = (y, ln r = 0, t):
    (f(t, y), 0, 1).  r stays 1, tau is t, and the clock's model is exact."""
    def rates(tau, z):
        return np.concatenate([f(z[-1], z[:-2]), (0.0, 1.0)])
    return rates


def rk45_in_t(f, y0, t1, h0, hmin, hmax, atol, rtol, max_steps=math.inf):
    """rk45_steps on y' = f(t, y) from t = 0 to t1, carried as the
    scale-free state of :func:`in_t`: (t, y) after each accepted step,
    starting with (0, y0).  The pair steps y in t, and h0, hmin and hmax
    bound steps in t."""
    z0 = np.concatenate([np.asarray(y0, dtype=float), (0.0, 0.0)])
    for _, z in rk45_steps(in_t(f), z0, 0.0, t1, h0, hmin, hmax, atol, rtol, max_steps):
        yield z[-1], z[:-2]


def record_rk45(monkeypatch):
    """Two lists that fill as integrate.rk45_steps runs: the time tau of
    every evaluation of its right side, and of every state it yields."""
    calls, taus = [], []

    def recording(f, *args, **kwargs):
        def counted(tau, z):
            calls.append(tau)
            return f(tau, z)

        for tau, z in rk45_steps(counted, *args, **kwargs):
            taus.append(tau)
            yield tau, z

    monkeypatch.setattr(integrate, "rk45_steps", recording)
    return calls, taus


def rk45_attempts(calls, times):
    """The attempted and the rejected steps of an rk45 run whose accepted
    states are at times, and whether its last step landed by the continuous
    extension, read off the times of its evaluations after the first
    stage: eleven at t + c_i h, c_2..c_12, per attempt, one at t + h after
    an accepted one, and three at t + c_i h, c_14..c_16, after the last
    step when it passes t1 and lands on it.  The times are tau, or those of
    :func:`rk45_in_t`'s clock, which is tau to rounding."""
    start, rest = times[0], list(times[1:])
    i, attempts, rejected, landed = 0, 0, 0, False
    while i < len(calls):
        group = np.array(calls[i:i + 11])
        h = group[-1] - start
        tol = 1e-14 * max(1.0, abs(start), abs(h))
        assert np.abs(group - (start + _DOP_C[1:12] * h)).max() <= tol
        attempts, i = attempts + 1, i + 11
        if i < len(calls) and abs(calls[i] - group[-1]) <= tol:  # f at an accepted state
            i += 1
            if len(rest) == 1 and len(calls) - i == 3:
                extension = np.array(calls[i:])
                assert np.abs(extension - (start + _DOP_C[13:] * h)).max() <= tol
                i, landed = i + 3, True
            start = rest.pop(0)
        else:
            rejected += 1
    assert not rest
    return attempts, rejected, landed


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
