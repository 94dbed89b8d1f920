"""Small explicit ODE integrators: fixed-step RK4 for reproducibility and an
embedded Dormand-Prince 5(4) pair with step-size control for everything else.
State vectors are flat float arrays; integration can run in either time
direction.  `drive` is the one sampling loop every flow runs through."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, StepUnderflow


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

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def rk4_steps(f, y0, t0, t1, h):
    """Yield (t, y) after each fixed RK4 step, starting with (t0, y0)."""
    direction = 1.0 if t1 >= t0 else -1.0
    h = abs(h) * direction
    t, y = t0, np.asarray(y0, dtype=float).copy()
    yield t, y
    while (t1 - t) * direction > 1e-15 * max(1.0, abs(t1)):
        hh = direction * min(abs(h), abs(t1 - t))
        k1 = f(t, y)
        k2 = f(t + hh / 2, y + hh / 2 * k1)
        k3 = f(t + hh / 2, y + hh / 2 * k2)
        k4 = f(t + hh, y + hh * k3)
        y = y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + hh
        yield t, y


def rk45_steps(f, y0, t0, t1, h0, hmin, hmax, atol, rtol):
    """Yield (t, y) after each accepted Dormand-Prince step.

    Raises StepUnderflow when no step of size >= hmin meets the tolerance.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    t = t0
    y = np.asarray(y0, dtype=float).copy()
    h = min(abs(h0), abs(t1 - t0)) or abs(h0)
    yield t, y
    while (t1 - t) * direction > 1e-15 * max(1.0, abs(t1)):
        h = min(h, abs(t1 - t))
        hh = direction * h
        k = [f(t, y)]
        for i in range(1, 7):
            yi = y + hh * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k.append(f(t + _DP_C[i] * hh, yi))
        k = np.array(k)
        y5 = y + hh * (_DP_B5 @ k)
        y4 = y + hh * (_DP_B4 @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            t = t + hh
            y = y5
            yield t, y
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h = min(hmax, h * grow)
        else:
            if h <= hmin * (1 + 1e-12):
                raise StepUnderflow(f"step {h:g} below hmin at t={t:g} (err={err:g})")
            h = max(hmin, h * max(0.2, 0.9 * err ** -0.2))


def _steps(rhs, y0, opts):
    if opts.method == "rk4":
        return rk4_steps(rhs, y0, 0.0, opts.t_end, opts.h0)
    return rk45_steps(rhs, y0, 0.0, opts.t_end, opts.h0, opts.hmin, opts.hmax,
                      opts.atol, opts.rtol)


def drive(rhs, y0, opts, make_sample, norm_of):
    """Integrate y' = rhs(t, y) from t = 0 to opts.t_end.

    Samples make_sample(t, y) every ``sample_every`` accepted steps and at
    the last state reached.  Returns (samples, status), the status being
    completed, blowup-detected (norm_of(y) above opts.blowup_norm, or a
    PositivityError from rhs or make_sample) or step-underflow.
    """
    samples = []
    status = "completed"
    last = None
    sampled_last = False
    try:
        for n, (t, y) in enumerate(_steps(rhs, y0, opts)):
            last = (t, y)
            blown = norm_of(y) > opts.blowup_norm
            sampled_last = (n % opts.sample_every == 0) or blown
            if sampled_last:
                samples.append(make_sample(t, y))
            if blown:
                status = "blowup-detected"
                break
    except StepUnderflow:
        status = "step-underflow"
    except PositivityError:
        status = "blowup-detected"
    if last is not None and not sampled_last:
        try:
            samples.append(make_sample(*last))
        except PositivityError:
            pass
    return samples, status
