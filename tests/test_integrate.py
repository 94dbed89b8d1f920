import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from g2flow import almostabelian as aa
from g2flow.flow import bracket_flow, laplacian_flow, reconstruct_h
from g2flow.integrate import IntegratorOptions, Trajectory, drive

from conftest import random_sl3c

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_flow_returns_the_drive_record(s_aa, rng):
    m = random_sl3c(rng, 0.5)
    mu = aa.bracket_of(m)
    opts = IntegratorOptions(method="rk4", h0=0.01, t_end=0.1, sample_every=3)
    traj = bracket_flow(mu, s_aa, opts)
    runs = [aa.matrix_bracket_flow(m, opts), laplacian_flow(s_aa.phi, mu, opts),
            traj, reconstruct_h(traj)]
    assert type(runs[0]) is type(runs[1]) is Trajectory
    for run in runs:
        # times and final are Trajectory's own, not redefined by a subclass
        assert isinstance(run, Trajectory)
        assert type(run).times is Trajectory.times and type(run).final is Trajectory.final
        assert run.status == "completed"
        assert np.allclose(run.times, [0.0, 0.03, 0.06, 0.09, 0.1], rtol=0, atol=1e-15)
        assert run.final is run.samples[-1]


def test_drive_samples_the_last_finite_state():
    # y' = 1 until t = 0.055 and NaN after: the step from 0.05 lands on NaN,
    # so the run ends there and samples the state at 0.05
    def rhs(t, y):
        return np.full_like(y, np.nan if t > 0.055 else 1.0)

    opts = IntegratorOptions(method="rk4", h0=0.01, t_end=1.0, sample_every=4)
    run = drive(rhs, np.zeros(2), opts, lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert run.status == "non-finite"
    assert np.allclose(run.times, [0.0, 0.04, 0.05], rtol=0, atol=1e-15)
    assert np.allclose(run.final.y, 0.05, rtol=0, atol=1e-15)


@pytest.mark.parametrize("flow", ["matrix", "bracket"])
def test_an_overflowing_state_ends_the_run_as_non_finite(flow):
    # the first rk4 step from a bracket of norm about 1e5 overflows, and
    # inf - inf turns the state to NaN (numpy warns of both): the matrix flow
    # sees it in the norm, the bracket flow in the Q solve of a stage.  The
    # run keeps the sample of the last finite state, the initial one
    m = random_sl3c(np.random.default_rng(1), 1e5)
    opts = IntegratorOptions(method="rk4", h0=1e-3, t_end=0.01)
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        if flow == "matrix":
            traj = aa.matrix_bracket_flow(m, opts)
        else:
            traj = bracket_flow(aa.bracket_of(m), aa.structure(), opts)
    assert traj.status == "non-finite"
    assert list(traj.times) == [0.0]
    assert traj.final.norm_mu == pytest.approx(aa.bracket_of(m).norm(), rel=1e-14)
    assert np.isfinite(traj.final.Q).all()


def test_drive_and_readme_list_the_same_statuses():
    listed = set(re.findall(r"^\s*- ([a-z-]+):", drive.__doc__, re.M))
    table = README.read_text().split("| status | meaning |")[1].split("\n\n")[0]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", table, re.M))
    assert listed == documented
    assert {"completed", "non-finite", "step-budget-exhausted"} <= listed
