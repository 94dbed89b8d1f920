"""Small explicit ODE integrators: fixed-step RK4 for reproducibility and an
embedded Dormand-Prince 5(4) pair with step-size control for everything else.
State vectors are flat float arrays; integration can run in either time
direction.  `drive` is the one sampling loop every flow runs through."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, PositivityError, StepBudgetExhausted, StepUnderflow


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for the ODE integrators."""

    method: str = "rk45"  # rk45 (adaptive) or rk4 (fixed step)
    h0: float = 1e-3
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
        if not (self.hmin <= self.h0 <= self.hmax):
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


def rk45_steps(f, y0, t0, t1, h0, hmin, hmax, atol, rtol, max_steps=math.inf):
    """Yield (t, y) after each accepted Dormand-Prince step.

    The pair is first-same-as-last: the fifth-order solution is the input of
    stage 7, so an accepted step hands its last stage to the next step as
    k1, and a rejected step keeps k1.  A run of n attempted steps makes
    1 + 6 n evaluations of f.  The seven stages of a step live in the rows
    of one (7, n) array K: stage i takes y + h * (A[i, :i] @ K[:i]) and the
    error estimate is h * (E @ K).

    A stage whose f raises NonFiniteState (an overflowing trial state) has
    no finite error estimate, and is rejected like one whose estimate is NaN.

    Raises StepUnderflow when no step of size >= hmin meets the tolerance,
    and StepBudgetExhausted before an accepted step beyond max_steps.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    t = t0
    y = np.asarray(y0, dtype=float).copy()
    h = min(abs(h0), abs(t1 - t0)) or abs(h0)
    yield t, y
    n = 0
    K = np.empty((7, y.size))
    K[0] = f(t, y)
    while (t1 - t) * direction > 1e-15 * max(1.0, abs(t1)):
        if n >= max_steps:
            raise StepBudgetExhausted(f"{n} steps taken by t={t:g}")
        h = min(h, abs(t1 - t))
        hh = direction * h
        try:
            for i in range(1, 7):
                yi = y + hh * (_DP_A[i, :i] @ K[:i])
                K[i] = f(t + _DP_C[i] * hh, yi)
        except NonFiniteState:
            err = math.inf
        else:
            # yi, the input of stage 7, is the fifth-order solution
            r = hh * (_DP_E @ K) / (atol + rtol * np.maximum(np.abs(y), np.abs(yi)))
            err = math.sqrt(float(r @ r) / r.size)
        if err <= 1.0:
            t = t + hh
            y = yi
            K[0] = K[6]
            n += 1
            yield t, y
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h = min(hmax, h * grow)
        else:
            if h <= hmin * (1 + 1e-12):
                raise StepUnderflow(f"step {h:g} below hmin at t={t:g} (err={err:g})")
            h = max(hmin, h * max(0.2, 0.9 * err ** -0.2))


def _steps(rhs, y0, opts):
    if opts.method == "rk4":
        return rk4_steps(rhs, y0, 0.0, opts.t_end, opts.h0, opts.max_steps)
    return rk45_steps(rhs, y0, 0.0, opts.t_end, opts.h0, opts.hmin, opts.hmax,
                      opts.atol, opts.rtol, opts.max_steps)


def drive(rhs, y0, opts, make_sample, norm_of) -> Trajectory:
    """Integrate y' = rhs(t, y) from t = 0 to opts.t_end.

    Samples make_sample(t, y) every ``sample_every`` accepted steps and at
    the last state reached.  Returns a Trajectory whose status is one of

    - completed: t_end was reached;
    - blowup-detected: norm_of(y), still finite, rose above opts.blowup_norm;
    - non-finite: the state turned to NaN or overflowed (norm_of(y) is NaN
      or infinite), or rhs or make_sample raised a NonFiniteState; the last
      finite state is sampled;
    - positivity-lost: rhs or make_sample raised a PositivityError (the
      3-form of the direct flow stopped being definite);
    - step-underflow: no step of size >= opts.hmin met the tolerance;
    - step-budget-exhausted: opts.max_steps steps did not reach t_end.
    """
    samples = []
    status = "completed"
    last = None
    sampled_last = False
    try:
        for n, (t, y) in enumerate(_steps(rhs, y0, opts)):
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
