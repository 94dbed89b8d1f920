"""Small explicit ODE integrators: fixed-step RK4 for reproducibility and an
embedded Dormand-Prince 5(4) pair with step-size control for everything else.
State vectors are flat float arrays; integration can run in either time
direction.  `drive` is the one sampling loop every flow runs through."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, PositivityError, StepBudgetExhausted, StepUnderflow


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for the ODE integrators."""

    method: str = "rk45"  # rk45 (adaptive) or rk4 (fixed step)
    h0: float | None = None  # None: rk45 picks it (_first_step), rk4 takes 1e-3
    hmin: float = 1e-12
    hmax: float = math.inf
    atol: float = 1e-9
    rtol: float = 1e-9
    t_end: float = 10.0
    normalize: str = "none"  # none | unit-bracket-norm
    sample_every: int = 10
    blowup_norm: float = 1e8
    max_steps: int = 1_000_000  # accepted steps before a run is stopped

    def __post_init__(self):
        h0 = self.hmin if self.h0 is None else self.h0
        if not (self.hmin <= h0 <= self.hmax):
            raise ValueError("need hmin <= h0 <= hmax")
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.normalize not in ("none", "unit-bracket-norm"):
            raise ValueError(f"unknown normalization {self.normalize!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class Trajectory:
    """A run of :func:`drive`: its samples, in time order, and how it ended."""

    samples: list
    status: str  # one of those listed by drive

    @property
    def times(self):
        return np.array([s.t for s in self.samples])

    @property
    def final(self):
        return self.samples[-1]


# Dormand-Prince 5(4) tableau; row i of _DP_A holds the weights of stage i
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
# weights of the error estimate y5 - y4; the fifth-order weights are row 6
_DP_E = _DP_A[6] - _DP_B4
# (i, c_i, A[i, :i]) of stages 2..7, sliced once
_DP_STAGES = tuple((i, float(_DP_C[i]), _DP_A[i, :i]) for i in range(1, 7))


def rk4_steps(f, y0, t0, t1, h, max_steps=math.inf):
    """Yield (t, y) after each fixed RK4 step, starting with (t0, y0).

    Raises StepBudgetExhausted before a step beyond max_steps.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    h = abs(h) * direction
    t, y = t0, np.asarray(y0, dtype=float).copy()
    yield t, y
    n = 0
    while (t1 - t) * direction > 1e-15 * max(1.0, abs(t1)):
        if n >= max_steps:
            raise StepBudgetExhausted(f"{n} steps taken by t={t:g}")
        hh = direction * min(abs(h), abs(t1 - t))
        k1 = f(t, y)
        k2 = f(t + hh / 2, y + hh / 2 * k1)
        k3 = f(t + hh / 2, y + hh / 2 * k2)
        k4 = f(t + hh, y + hh * k3)
        y = y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + hh
        n += 1
        yield t, y


def rk45_steps(f, y0, t0, t1, h0, hmin, hmax, atol, rtol, max_steps=math.inf,
               scale_free=False):
    """Yield (t, y) after each accepted Dormand-Prince step.

    The pair is first-same-as-last: the fifth-order solution is the input of
    stage 7, so an accepted step hands its last stage to the next step as
    k1, and a rejected step keeps k1.  A run of n attempted steps makes
    1 + 6 n evaluations of f, and one more, the trial stage of
    :func:`_first_step`, when h0 is None.  The seven stages of a step live
    in the rows of one (7, n) array K: stage i takes
    y + h * (A[i, :i] @ K[:i]) and the error estimate is h * (E @ K).

    A stage whose f raises NonFiniteState (an overflowing trial state) or
    PositivityError (a trial 3-form off the positive cone) has no error
    estimate, and is rejected like one whose estimate is NaN.

    With scale_free, y is the state (x, ln r, t) of :func:`_scale_free`:
    the steps are in its time tau, and the run ends when its clock
    t = y[-1], not tau, reaches t1.  The error of ln r (the relative error
    of r) is measured against atol, and that of t against
    atol dt/dtau + rtol |t|, so no tolerance depends on the scale of y.  A
    step is capped where the clock would reach t1 were a = K[0][-2]
    constant (:func:`_clock_reach`); a step that passes t1 is shortened by
    Newton on dt/dtau = K[6][-1] and tried again; the last state's clock is
    set to t1.

    Raises StepUnderflow when no step of size >= hmin meets the tolerance
    (the PositivityError of its stage when that is why), and
    StepBudgetExhausted before an accepted step beyond max_steps.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    end = y[-1] if scale_free else t
    direction = 1.0 if t1 >= end else -1.0
    h = None if h0 is None else abs(h0)  # each step is capped at t1 below
    yield t, y
    n = 0
    K = np.empty((7, y.size))
    K[0] = f(t, y)
    while (t1 - end) * direction > 1e-15 * max(1.0, abs(t1)):
        if n >= max_steps:
            raise StepBudgetExhausted(f"{n} steps taken by t={end:g}")
        if h is None:
            h = _first_step(f, t, y, K[0], direction, hmin, hmax, atol, rtol, scale_free)
        h = min(h, _clock_reach(K[0], abs(t1 - end), direction) if scale_free
                else abs(t1 - t))
        hh = direction * h
        failure = None
        try:
            for i, c, a in _DP_STAGES:
                yi = y + hh * (a @ K[:i])
                K[i] = f(t + c * hh, yi)
        except (NonFiniteState, PositivityError) as exc:
            err, failure = math.inf, exc
        else:
            # yi, the input of stage 7, is the fifth-order solution; an
            # estimate that overflows rejects the step, without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                err = _rms(hh * (_DP_E @ K) / _tol_scale(y, yi, K[0], atol, rtol, scale_free))
        if err <= 1.0 and scale_free:
            past = (yi[-1] - t1) * direction
            if past > _CLOCK_TOL * max(1.0, abs(t1)):
                h = max(h - past / K[6][-1], 0.2 * h)
                continue
            if past >= -_CLOCK_TOL * max(1.0, abs(t1)):
                yi[-1] = t1
        if err <= 1.0:
            t = t + hh
            y = yi
            end = y[-1] if scale_free else t
            K[0] = K[6]
            n += 1
            yield t, y
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h = min(hmax, h * grow)
        else:
            if h <= hmin * (1 + 1e-12):
                if isinstance(failure, PositivityError):
                    raise failure
                raise StepUnderflow(f"step {h:g} below hmin at t={end:g} (err={err:g})")
            h = max(hmin, h * max(0.2, 0.9 * err ** -0.2))


def _rms(r):
    """The root mean square of the array r: the norm of the error test."""
    return math.sqrt(float(r @ r) / r.size)


def _tol_scale(y, yi, k0, atol, rtol, scale_free):
    """The error test's scale of each component of a step from y to yi, k0
    the rates at y (see :func:`rk45_steps`)."""
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
    if scale_free:
        scale[-2:] = atol, atol * k0[-1] + rtol * max(abs(y[-1]), abs(yi[-1]))
    return scale


def _first_step(f, t, y, k, direction, hmin, hmax, atol, rtol, scale_free):
    """The starting step of Hairer, Norsett and Wanner (Solving Ordinary
    Differential Equations I, II.4), as dopri5's hinit takes it, for rates
    k = f(t, y).  In the error test's norm, d0 = |y|, d1 = |k| and d2 =
    |f(t + h', y + h' k) - k| / h' at the trial step h' = 0.01 d0 / d1
    (1e-6 if d0 or d1 is below 1e-5); the step is min(100 h', h1) in
    [hmin, hmax], h1 = (0.01 / max(d1, d2))^(1/5) (max(1e-6, 1e-3 h') if
    both are below 1e-15).

    With scale_free, d0 is taken on x alone: ln r, whose scale is atol,
    would make the step depend on the scale of the state.  A trial stage
    that raises NonFiniteState or PositivityError, or whose d2 is not
    finite, is tried again at a tenth of h', at most _FIRST_TRIALS times in
    all; when the last one fails too, the step is a tenth of its h'."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = _tol_scale(y, y, k, atol, rtol, scale_free)
        x = slice(0, -2) if scale_free else slice(None)
        d0, d1 = _rms(y[x] / scale[x]), _rms(k / scale)
    h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
    h = min(max(h, hmin), hmax)
    for _ in range(_FIRST_TRIALS):
        try:
            k1 = f(t + direction * h, y + (direction * h) * k)
        except (NonFiniteState, PositivityError):
            d2 = math.inf
        else:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                d2 = _rms((k1 - k) / (h * scale))
        if math.isfinite(d2) or h <= hmin:
            break
        h = max(hmin, 0.1 * h)
    if not (math.isfinite(d1) and math.isfinite(d2)):
        return h
    top = max(d1, d2)
    h1 = (0.01 / top) ** 0.2 if top > 1e-15 else max(1e-6, 1e-3 * h)
    return min(max(min(100.0 * h, h1), hmin), hmax)


# trial evaluations of _first_step, at most
_FIRST_TRIALS = 4


# a scale-free run ends when its clock is this close to t1, relative
_CLOCK_TOL = 1e-12


def _clock_reach(k, left, direction):
    """The tau step after which the clock of a scale-free state, with rates
    k = dz/dtau, has moved by left, were a = k[-2] constant: then
    dt/dtau = c exp(-2 a (tau - tau0)), c = k[-1].  Unbounded when the
    clock slows down so fast that it does not get there."""
    first = left / k[-1]
    q = 2.0 * k[-2] * direction * first
    if q == 0.0:
        return first
    return first * (-math.log1p(-q) / q) if q < 1.0 else math.inf


def _along(v, x):
    """<v, x> / <x, x>, the coefficient of v's component along x."""
    return np.dot(v, x) / max(np.dot(x, x), 1e-300)


def _scale_free(rhs, fixed_norm):
    """The scale-free form of y' = rhs(t, y), rhs a homogeneous cubic free
    of t.  With y = r x and dtau = r^2 dt, on z = (x, ln r, t):

        dx/dtau = rhs(x) - a x,  d(ln r)/dtau = a,  dt/dtau = exp(-2 ln r),

    a = <rhs(x), x> / <x, x>.  The split is exact for any |x|, and the flow
    leaves |x| where it is; x is the norm-normalized flow.  fixed_norm
    freezes ln r, which is the unit-bracket-norm flow with tau = r0^2 t.
    The right side keeps rhs's name, so a profile charges it to the flow."""
    @functools.wraps(rhs)
    def tau_rhs(tau, z):
        x = z[:-2]
        v = rhs(z[-1], x)
        a = _along(v, x)
        dz = np.empty_like(z)
        np.multiply(x, -a, out=dz[:-2])
        dz[:-2] += v
        dz[-2] = 0.0 if fixed_norm else a
        dz[-1] = math.exp(min(-2.0 * z[-2], _LOG_RATE_MAX))
        return dz
    return tau_rhs


# dt/dtau = r^-2 is taken as at most e^700: below r = e^-350 (about
# 1e-152), V moves y by less than its rounding over any t < 1e290, so the
# rate no longer matters, and it stays finite
_LOG_RATE_MAX = 700.0


def _scale_free_start(y0):
    """(x0, ln r0, 0) with |x0| = 1 and y0 = r0 x0, by a norm that does not
    overflow, and r0; a zero y0 is its own x0, with r0 = 1."""
    top = float(np.abs(y0).max())
    if top == 0.0:
        return np.concatenate([y0, (0.0, 0.0)]), 1.0
    x = y0 / top
    norm = math.sqrt(x @ x)
    return np.concatenate([x / norm, (math.log(top) + math.log(norm), 0.0)]), top * norm


# the step of rk4 when IntegratorOptions.h0 is None
_RK4_STEP = 1e-3


def _steps(rhs, y0, opts, cubic):
    if opts.method == "rk4":
        f = rhs
        if cubic and opts.normalize != "none":
            @functools.wraps(rhs)
            def f(t, y):  # y' less its component along y, which keeps |y|
                v = rhs(t, y)
                return v - _along(v, y) * y
        h = _RK4_STEP if opts.h0 is None else opts.h0
        return rk4_steps(f, y0, 0.0, opts.t_end, h, opts.max_steps)
    if not cubic:
        return rk45_steps(rhs, y0, 0.0, opts.t_end, opts.h0, opts.hmin, opts.hmax,
                          opts.atol, opts.rtol, opts.max_steps)
    fixed_norm = opts.normalize != "none"
    z0, r0 = _scale_free_start(y0)
    # under a fixed norm |y| = r0 throughout, and atol, a tolerance on y, is
    # atol / r0 on x; otherwise atol applies to x, relative to |y|
    atol = opts.atol / r0 if fixed_norm else opts.atol
    steps = rk45_steps(_scale_free(rhs, fixed_norm), z0, 0.0, opts.t_end, opts.h0,
                       opts.hmin, opts.hmax, atol, opts.rtol, opts.max_steps, scale_free=True)
    return _in_time(steps, y0)


def _in_time(steps, y0):
    """The scale-free steps as (t, y = r x), starting at (0, y0) itself."""
    next(steps)
    yield 0.0, y0
    for _, z in steps:
        yield float(z[-1]), math.exp(z[-2]) * z[:-2]


def drive(rhs, y0, opts, make_sample, norm_of, cubic=False) -> Trajectory:
    """Integrate y' = rhs(t, y) from t = 0 to opts.t_end.

    cubic says that rhs is a homogeneous cubic in y, free of t, as the
    bracket flows are.  Then rk45 integrates the scale-free form of
    :func:`_scale_free`, whose h0, hmin and hmax bound steps in its time
    tau, and opts.normalize = unit-bracket-norm keeps |y| at |y0|: in
    scale-free form by freezing r, with rk4 by taking y' less its component
    along y.

    Samples make_sample(t, y) every ``sample_every`` accepted steps and at
    the last state reached.  Returns a Trajectory whose status is one of

    - completed: t_end was reached;
    - blowup-detected: norm_of(y), still finite, rose above opts.blowup_norm;
    - non-finite: the state turned to NaN or overflowed (norm_of(y) is NaN
      or infinite), or rhs or make_sample raised a NonFiniteState; the last
      finite state is sampled;
    - positivity-lost: a PositivityError (the 3-form of the direct flow
      stopped being definite) came from make_sample, from rhs with rk4, or
      from an rk45 stage at the smallest step, opts.hmin;
    - step-underflow: no step of size >= opts.hmin met the tolerance;
    - step-budget-exhausted: opts.max_steps steps did not reach t_end.
    """
    samples = []
    status = "completed"
    last = None
    sampled_last = False
    try:
        for n, (t, y) in enumerate(_steps(rhs, y0, opts, cubic)):
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN ends the run
                norm = norm_of(y)
            if not math.isfinite(norm):
                status = "non-finite"
                break
            last = (t, y)
            blown = norm > opts.blowup_norm
            sampled_last = (n % opts.sample_every == 0) or blown
            if sampled_last:
                samples.append(make_sample(t, y))
            if blown:
                status = "blowup-detected"
                break
    except StepUnderflow:
        status = "step-underflow"
    except StepBudgetExhausted:
        status = "step-budget-exhausted"
    except PositivityError:
        status = "positivity-lost"
    except NonFiniteState:
        status = "non-finite"
    if last is not None and not sampled_last:
        try:
            samples.append(make_sample(*last))
        except (PositivityError, NonFiniteState):
            pass
    return Trajectory(samples, status)
