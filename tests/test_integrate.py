import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import g2flow
from g2flow import almostabelian as aa
from g2flow import cli
from g2flow.errors import NonFiniteState, PositivityError
from g2flow.flow import _bracket_velocity, bracket_flow, laplacian_flow, reconstruct_h
from g2flow.integrate import (_DP_C, _FIRST_TRIALS, IntegratorOptions, Trajectory, drive,
                              rk45_steps)

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
    # the first rk4 step from a bracket of norm about 1e5 overflows: the
    # matrix flow's velocity raises NonFiniteState on the overflowing stage;
    # the bracket flow's step reaches a finite state whose norm overflows to
    # inf.  Neither warns.  The run keeps the sample of the last finite
    # state, the initial one
    m = random_sl3c(np.random.default_rng(1), 1e5)
    opts = IntegratorOptions(method="rk4", h0=1e-3, t_end=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if flow == "matrix":
            traj = aa.matrix_bracket_flow(m, opts)
        else:
            traj = bracket_flow(aa.bracket_of(m), aa.structure(), opts)
    assert traj.status == "non-finite"
    assert list(traj.times) == [0.0]
    assert traj.final.norm_mu == pytest.approx(aa.bracket_of(m).norm(), rel=1e-14)
    assert np.isfinite(traj.final.Q).all()


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_an_infinite_state_ends_the_run_as_non_finite():
    # the first rk4 step from a matrix of norm 3e3 overflows to inf without
    # NaN: the run ends non-finite before sampling that state, without a
    # warning, so the JSON output holds no Infinity or NaN
    m = random_sl3c(np.random.default_rng(1), 3e3)
    argv = ["aa-flow", "--input", json.dumps({"A": m.A.tolist()}), "--method", "rk4",
            "--h0", "1e-3", "--t-end", "0.01", "--format", "json"]
    buf = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buf):
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    doc = json.loads(buf.getvalue(), parse_constant=_refuse)
    assert doc["status"] == "non-finite"
    assert [row[0] for row in doc["rows"]] == [0.0]


@pytest.mark.parametrize("scale", [1e3, 3e4])
def test_rk45_rejects_a_step_whose_stage_overflows(scale):
    # in t, a trial stage of the bracket flow overflows and its Q solve
    # raises NonFiniteState: rk45 rejects that step and shrinks it, and
    # reaches t_end without a warning.  In scale-free time no stage
    # overflows, and both flows complete
    m = random_sl3c(np.random.default_rng(1), scale)
    velocity = _bracket_velocity(aa.structure())
    raised = []

    def rhs(t, y):
        try:
            return velocity(y)[1]
        except NonFiniteState:
            raised.append(t)
            raise

    steps = list(rk45_steps(rhs, aa.bracket_of(m).packed().reshape(-1), 0.0, 0.01, 1e-3,
                            1e-12, math.inf, 1e-9, 1e-9))
    assert raised and steps[-1][0] == 0.01 and len(steps) > 2
    opts = IntegratorOptions(h0=1e-3, t_end=0.01)
    traj = bracket_flow(aa.bracket_of(m), aa.structure(), opts)
    ref = aa.matrix_bracket_flow(m, opts)
    assert traj.status == ref.status == "completed"
    assert traj.final.t == ref.final.t == 0.01 and len(traj.samples) > 2


def test_rk45_rejects_a_step_whose_error_estimate_overflows():
    # y' = 0, but the seventh evaluation, the last stage of the first step,
    # which the fifth-order solution does not read, is 1e200: the error
    # estimate's sum of squares overflows to inf, and the step is rejected
    # and shrunk by 0.2, as for any estimate above 1e150, without a warning
    calls = []

    def f(t, y):
        calls.append(t)
        return np.full_like(y, 1e200 if len(calls) == 7 else 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = rk45_steps(f, np.zeros(3), 0.0, 1.0, 1e-2, 1e-12, math.inf, 1e-9, 1e-9)
        assert [t for t, _ in (next(steps), next(steps))] == [0.0, 0.2 * 1e-2]
    assert len(calls) == 13  # the first stage, then six of each attempt


def test_the_default_first_step_costs_one_evaluation():
    # with h0 = None a run of n attempted steps makes 2 + 6 n evaluations:
    # f(t0, y0), the trial stage of the starting step, and six stages at
    # t + c_i h for each attempt.  The attempts are read off the stage
    # times, so the rejected ones are counted too
    calls = []

    def van_der_pol(t, y):
        calls.append(t)
        return np.array([y[1], 10.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])

    steps = list(rk45_steps(van_der_pol, np.array([2.0, 0.0]), 0.0, 3.0, None,
                            1e-12, math.inf, 1e-6, 1e-6))
    assert steps[-1][0] == 3.0 and (len(calls) - 2) % 6 == 0
    accepted = iter(t for t, _ in steps)
    start, attempts, rejected = next(accepted), 0, 0
    end = next(accepted)
    for group in np.reshape(calls[2:], (-1, 6)):
        h = group[-1] - start
        assert np.allclose(group, start + _DP_C[1:] * h, rtol=1e-14, atol=0)
        attempts += 1
        if group[-1] == end:
            start, end = end, next(accepted, None)
        else:
            rejected += 1
    assert end is None and rejected > 0
    assert len(calls) == 2 + 6 * attempts


def test_a_trial_stage_off_the_positive_cone_does_not_end_the_run():
    # the trial stage of the starting step raises PositivityError, as a
    # 3-form off the positive cone does: it is tried again at a tenth of its
    # step, and the run completes
    calls = []

    def decay(t, y):
        calls.append(t)
        if len(calls) == 2:
            raise PositivityError("off the positive cone")
        return -y

    traj = drive(decay, np.ones(3), IntegratorOptions(t_end=1.0, sample_every=1),
                 lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert traj.status == "completed" and traj.final.t == 1.0
    assert np.allclose(traj.final.y, math.exp(-1.0), rtol=1e-8, atol=0)
    assert calls[2] == pytest.approx(0.1 * calls[1], rel=1e-14)
    assert (len(calls) - 3) % 6 == 0


def test_the_trial_stage_is_retried_a_bounded_number_of_times():
    # every trial raises: after _FIRST_TRIALS tries, each at a tenth of the
    # last, the first step is a tenth of the last trial step, and its stages
    # fail down to hmin as any stage off the cone does
    calls = []

    def off_the_cone(t, y):
        calls.append(t)
        if len(calls) > 1:
            raise PositivityError("off the positive cone")
        return -y

    traj = drive(off_the_cone, np.ones(3), IntegratorOptions(t_end=1.0),
                 lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert traj.status == "positivity-lost" and traj.final.t == 0.0
    trials = calls[1:1 + _FIRST_TRIALS]
    assert np.allclose(np.divide(trials[1:], trials[:-1]), 0.1, rtol=1e-14, atol=0)
    assert calls[1 + _FIRST_TRIALS] == pytest.approx(0.2 * 0.1 * trials[-1], rel=1e-14)


def test_the_matrix_velocity_overflows_into_non_finite_state():
    # below 1e100 an entry cannot overflow the cubic; above, an overflowing
    # velocity raises NonFiniteState, without a warning
    m = random_sl3c(np.random.default_rng(4), 1.0)
    unit = m.A / np.abs(m.A).max()
    vel = aa.flow_rhs(1e100 * unit)
    assert np.isfinite(vel).all()
    assert np.allclose(vel, 1e300 * aa.flow_rhs(unit), rtol=1e-13, atol=0)
    assert np.isfinite(aa.flow_rhs(1e101 * unit)).all()
    with pytest.raises(NonFiniteState):
        aa.flow_rhs(1e200 * unit)


def test_the_norm_300_matrix_flow_prints_one_json_document():
    # under -W error: no numpy warning, so no traceback, and nothing on stderr
    payload = json.dumps({"B": [[0, 300, 0], [0, 0, 424.26], [0, 0, 0]]})
    src = str(Path(g2flow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-W", "error", "-m", "g2flow.cli", "aa-flow",
                          "--t-end", "1", "--format", "json", "--input", payload],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    doc = json.loads(out.stdout)
    assert doc["status"] == "completed" and doc["rows"][-1][0] == 1.0


def test_drive_and_readme_list_the_same_statuses():
    listed = set(re.findall(r"^\s*- ([a-z-]+):", drive.__doc__, re.M))
    table = README.read_text().split("| status | meaning |")[1].split("\n\n")[0]
    documented = set(re.findall(r"^\| `([a-z-]+)` \|", table, re.M))
    assert listed == documented
    assert {"completed", "non-finite", "step-budget-exhausted"} <= listed
