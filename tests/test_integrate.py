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
from g2flow import cli, integrate
from g2flow.errors import NonFiniteState, PositivityError, SingularSystem
from g2flow.flow import _bracket_velocity, bracket_flow, laplacian_flow, reconstruct_h
from g2flow.integrate import (_DOP_C, _DOP_STAGES, _DOP_W, _FIRST_TRIALS, IntegratorOptions,
                              Trajectory, _at, _extension, drive)

from conftest import random_sl3c, record_rk45, rk45_attempts, rk45_in_t

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
    # in t (rk45_in_t), a trial stage of the bracket flow overflows and its
    # Q solve raises NonFiniteState: rk45 rejects that step and shrinks it,
    # and reaches t_end without a warning.  In the flow's scale-free time no
    # stage overflows, and both flows complete
    m = random_sl3c(np.random.default_rng(1), scale)
    velocity = _bracket_velocity(aa.structure())
    raised = []

    def rhs(t, y):
        try:
            return velocity(y)[1]
        except NonFiniteState:
            raised.append(t)
            raise

    steps = list(rk45_in_t(rhs, aa.bracket_of(m).packed().reshape(-1), 0.01, 1e-3,
                           1e-12, math.inf, 1e-9, 1e-9))
    assert raised and steps[-1][0] == 0.01 and len(steps) > 2
    opts = IntegratorOptions(h0=1e-3, t_end=0.01)
    traj = bracket_flow(aa.bracket_of(m), aa.structure(), opts)
    ref = aa.matrix_bracket_flow(m, opts)
    assert traj.status == ref.status == "completed"
    assert traj.final.t == ref.final.t == 0.01 and len(traj.samples) > 2


def test_rk45_rejects_a_step_whose_error_estimate_overflows():
    # y' = 0, but the twelfth evaluation, the last stage of the first step,
    # which no other stage reads, is 1e200: at atol = rtol = 1e-300 the error
    # estimate's sum of squares overflows to inf, and the step is rejected
    # and shrunk by 0.2, as for any error above 4.5^8, without a warning
    calls = []

    def f(t, y):
        calls.append(t)
        return np.full_like(y, 1e200 if len(calls) == 12 else 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = rk45_in_t(f, np.zeros(3), 1.0, 1e-2, 1e-12, math.inf, 1e-300, 1e-300)
        assert [t for t, _ in (next(steps), next(steps))] == [0.0, 0.2 * 1e-2]
    # the first stage, eleven of each attempt, and f at the accepted state
    assert len(calls) == 1 + 11 + 11 + 1


def test_the_default_first_step_costs_one_evaluation():
    # with h0 = None a run of a attempted and s accepted steps makes
    # 2 + 11 a + s evaluations: f(t0, y0), the trial stage of the starting
    # step, eleven stages at t + c_i h for each attempt, and f at each
    # accepted state, and three more when the last step lands on t_end by
    # the continuous extension.  The attempts are read off the stage times,
    # so the rejected ones are counted too
    calls = []

    def van_der_pol(t, y):
        calls.append(t)
        return np.array([y[1], 10.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])

    steps = list(rk45_in_t(van_der_pol, np.array([2.0, 0.0]), 3.0, None,
                           1e-12, math.inf, 1e-6, 1e-6))
    times = [t for t, _ in steps]
    assert times[-1] == 3.0
    attempts, rejected, landed = rk45_attempts(calls[2:], times)
    assert rejected > 0
    assert len(calls) == 2 + 11 * attempts + len(steps) - 1 + 3 * landed


def test_a_stiff_scale_free_start_stays_inside_the_stability_region():
    # a scale-free state (x, ln r, t) whose x decays at lambda = 1000 along
    # a component small against |x|: the eighth-order step's remainder
    # allows a step of 0.13 and 100 h' one of 0.015, |h lambda| = 15, but
    # the first step stops at |h lambda| = _STABLE_HLAMB, lambda ~ d2 / d1
    lam = 1000.0

    def f(t, z):
        return np.array([0.0, -lam * z[1], 0.0, 1.0])

    x = np.array([1.0, 0.05]) / math.hypot(1.0, 0.05)
    z = np.concatenate([x, [0.0, 0.0]])
    h = integrate._first_step(f, 0.0, z, f(0.0, z), 1.0, 1e-12, math.inf, 1e-9, 1e-9, 1.0)
    assert 6.0 <= h * lam <= integrate._STABLE_HLAMB * (1 + 1e-3)


# y_i' = -y_i^3, a homogeneous cubic whose x = y / |y| moves from Y0:
# y_i = y0_i / sqrt(1 + 2 y0_i^2 t)
Y0 = np.array([1.0, 0.5, 0.25])


def _cubic_decay(t, y):
    return -y ** 3


def test_a_trial_stage_off_the_positive_cone_does_not_end_the_run(monkeypatch):
    # the trial stage of the starting step raises PositivityError, as a
    # 3-form off the positive cone does: it is tried again at a tenth of its
    # step, and the run completes
    calls, taus = record_rk45(monkeypatch)

    def rhs(t, y):
        if len(calls) == 2:
            raise PositivityError("off the positive cone")
        return _cubic_decay(t, y)

    traj = drive(rhs, Y0, IntegratorOptions(t_end=1.0, sample_every=1),
                 lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert traj.status == "completed" and traj.final.t == 1.0
    assert np.allclose(traj.final.y, Y0 / np.sqrt(1.0 + 2.0 * Y0 ** 2), rtol=1e-8, atol=0)
    assert calls[2] == pytest.approx(0.1 * calls[1], rel=1e-14)
    attempts, _, landed = rk45_attempts(calls[3:], taus)
    assert len(calls) == 3 + 11 * attempts + len(traj.samples) - 1 + 3 * landed


def test_the_trial_stage_is_retried_a_bounded_number_of_times(monkeypatch):
    # every trial raises: after _FIRST_TRIALS tries, each at a tenth of the
    # last, the first step is a tenth of the last trial step, and its stages
    # fail down to hmin as any stage off the cone does; the first of them is
    # at c_2 of that step
    calls, _ = record_rk45(monkeypatch)

    def off_the_cone(t, y):
        if len(calls) > 1:
            raise PositivityError("off the positive cone")
        return _cubic_decay(t, y)

    traj = drive(off_the_cone, Y0, IntegratorOptions(t_end=1.0),
                 lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert traj.status == "positivity-lost" and traj.final.t == 0.0
    trials = calls[1:1 + _FIRST_TRIALS]
    assert np.allclose(np.divide(trials[1:], trials[:-1]), 0.1, rtol=1e-14, atol=0)
    assert calls[1 + _FIRST_TRIALS] == pytest.approx(_DOP_C[1] * 0.1 * trials[-1], rel=1e-14)


def test_a_singular_sample_ends_the_run_as_singular_frame():
    # make_sample raises on its third call, as a G2Structure whose frame
    # misses phi_canonical does: the run ends with its own status and keeps
    # the two samples taken, and the failed state is not sampled again
    samples = []

    def make_sample(t, y):
        samples.append(t)
        if len(samples) == 3:
            raise SingularSystem("adapted frame misses phi_canonical by 1e-5")
        return SimpleNamespace(t=t, y=y)

    opts = IntegratorOptions(method="rk4", h0=0.1, t_end=1.0, sample_every=1)
    traj = drive(lambda t, y: -y, np.ones(3), opts, make_sample, np.linalg.norm)
    assert traj.status == "singular-frame"
    assert traj.times.tolist() == [0.0, 0.1] and len(samples) == 3


def test_a_singular_stage_ends_the_run_and_samples_the_last_state():
    # an rk45 stage that raises SingularSystem, as a side-"i" stage can,
    # ends the run; the last accepted state is sampled, as for a stage
    # that leaves the positive cone
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 40:
            raise SingularSystem("adapted frame misses phi_canonical by 1e-5")
        return _cubic_decay(t, y)

    traj = drive(rhs, Y0, IntegratorOptions(t_end=10.0, sample_every=1000),
                 lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert traj.status == "singular-frame"
    assert len(traj.samples) == 2 and 0.0 == traj.times[0] < traj.final.t < 10.0


def test_a_stiff_stretch_ends_the_run_as_step_underflow():
    # y_i' = -y_i^3 until t = 0.25 and -30 y_i^3 after: with hmin = h0 =
    # 0.1 in tau the steps to t = 0.081 and 0.172 pass, and every step
    # across 0.25 fails its error test down to hmin; the run ends there and
    # keeps the samples it took
    def rhs(t, y):
        return _cubic_decay(t, y) * (1.0 if t < 0.25 else 30.0)

    opts = IntegratorOptions(h0=0.1, hmin=0.1, t_end=1.0, sample_every=1)
    traj = drive(rhs, Y0, opts, lambda t, y: SimpleNamespace(t=t, y=y), np.linalg.norm)
    assert traj.status == "step-underflow"
    assert len(traj.samples) == 3 and 0.0 == traj.times[0] < traj.times[1] < traj.final.t < 0.25
    exact = Y0 / np.sqrt(1.0 + 2.0 * Y0 ** 2 * traj.final.t)
    assert np.allclose(traj.final.y, exact, rtol=1e-12, atol=0)


def test_a_last_state_that_cannot_be_sampled_is_left_out():
    # the run completes at t = 1 between samples, and sampling that last
    # state raises PositivityError: the status and the samples at 0, 0.4
    # and 0.8 stay as they were
    tried = []

    def make_sample(t, y):
        tried.append(t)
        if t > 0.9:
            raise PositivityError("off the positive cone")
        return SimpleNamespace(t=t, y=y)

    opts = IntegratorOptions(method="rk4", h0=0.1, t_end=1.0, sample_every=4)
    traj = drive(lambda t, y: -y, np.ones(2), opts, make_sample, np.linalg.norm)
    assert traj.status == "completed" and tried[-1] == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(traj.times, [0.0, 0.4, 0.8], rtol=0, atol=1e-15)


def test_rk45_is_of_order_eight():
    # y' = y^2, y(0) = 1, is 1 / (1 - t).  Fixed steps in t (rk45_in_t;
    # hmin = hmax = h, at tolerances that every step meets) of 0.75/16 and
    # 0.75/32 to t = 0.75 leave errors 2^8 apart, to within 2^0.3
    errors = []
    for n in (16, 32):
        h = 0.75 / n
        steps = list(rk45_in_t(lambda t, y: y * y, np.ones(1), 0.75, h, h, h, 1.0, 1.0))
        assert len(steps) == n + 1
        errors.append(abs(steps[-1][1][0] - 4.0))
    assert 7.7 <= math.log2(errors[0] / errors[1]) <= 8.3


def _one_step(f, t, y, h):
    """One DOP853 step of size h from (t, y): its solution and extension."""
    K = np.empty((16, y.size))
    K[0] = f(t, y)
    for i, c, a in _DOP_STAGES:
        K[i] = f(t + c * h, y + h * (a @ K[:i]))
    yi = y + h * (_DOP_W[0] @ K[:12])
    K[12] = f(t + h, yi)
    return yi, _extension(f, t, y, yi, K, h)


def test_the_continuous_extension_meets_the_step_at_order_seven():
    # one step of y' = -2 t y^2 (y = 1 / (1 + t^2)) from t = 0.3: the
    # extension starts at y and ends at the step's solution, with slopes
    # h f at both ends, and its error inside the step falls as h^8, the
    # local error of a seventh-order extension
    def f(t, y):
        return -2.0 * t * y * y

    def exact(t):
        return 1.0 / (1.0 + t * t)

    t0, y0 = 0.3, np.array([exact(0.3)])
    errors = []
    for h in (0.8, 0.4):
        yi, F = _one_step(f, t0, y0, h)
        assert _at(F, 0.0)[0] == 0.0 and y0 + _at(F, 1.0)[0] == pytest.approx(yi, rel=1e-15)
        assert _at(F, 0.0)[1] == pytest.approx(h * f(t0, y0), rel=1e-13)
        assert _at(F, 1.0)[1] == pytest.approx(h * f(t0 + h, yi), rel=1e-13)
        errors.append(max(abs(y0[0] + _at(F, x)[0][0] - exact(t0 + x * h))
                          for x in (0.25, 0.5, 0.75)))
    assert math.log2(errors[0] / errors[1]) >= 7.5


@pytest.mark.parametrize("c, z, left", [(1.0, 0.0, 0.5), (3.0, 1.2, 2.0), (0.5, -3.0, 0.1)])
def test_a_landing_ends_once_newton_has_converged(c, z, left, monkeypatch):
    # a clock of its model rates alone moves by left at x = log1p(z left /
    # c) / z.  There Newton's correction rounds to 0, or the miss is 0 (the
    # chord of the first case is exact), which moves the bracket onto x: the
    # search ends there in a handful of evaluations of the extension, rather
    # than bisecting away from the root and halving its way back
    calls = []
    monkeypatch.setattr(integrate, "_at", lambda F, x: calls.append(x) or _at(F, x))
    x = integrate._crossing(np.zeros(7), c, z, left)
    root = math.log1p(z * left / c) / z if z else left / c
    assert len(calls) <= 8
    assert abs(x - root) <= 4.0 * np.finfo(float).eps


def test_the_matrix_velocity_overflows_into_non_finite_state():
    # below |A|^2 = 1e200 no entry exceeds 1e100 and the cubic cannot
    # overflow: the velocity is _matrix_velocity's, bit for bit.  Above, it
    # is computed under np.errstate, and an overflowing or NaN velocity
    # raises NonFiniteState, without a warning
    m = random_sl3c(np.random.default_rng(4), 1.0)
    unit = m.A / np.abs(m.A).max()
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-120, 1e-3, 1.0, 1e3, 1e99, 1e100, 1e101):
            A = scale * rng.normal(size=(6, 6))
            with np.errstate(over="ignore", invalid="ignore"):
                vel = aa._matrix_velocity(A)
            assert np.array_equal(aa.flow_rhs(A), vel)
        vel = aa.flow_rhs(1e100 * unit)
        assert np.isfinite(vel).all()
        assert np.allclose(vel, 1e300 * aa.flow_rhs(unit), rtol=1e-13, atol=0)
        assert np.isfinite(aa.flow_rhs(1e101 * unit)).all()
        for A in (1e200 * unit, np.full((6, 6), np.nan), np.full((6, 6), np.inf)):
            with pytest.raises(NonFiniteState):
                aa.flow_rhs(A)


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
