"""Small explicit ODE integrators of homogeneous cubic flows: fixed-step RK4
for reproducibility and, in scale-free time, the embedded Dormand-Prince
8(5,3) pair with step-size control for everything else.  State vectors are
flat float arrays, in either time direction.  `drive` is the one sampling
loop every flow runs through."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteState, PositivityError, SingularSystem, StepBudgetExhausted,
                     StepUnderflow)


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for the ODE integrators.  Under rk45, h0, hmin and hmax bound
    steps in the scale-free time tau (:func:`drive`); under rk4 they are
    steps in t, of which rk4 reads h0 alone, its fixed step."""

    method: str = "rk45"  # rk45 (adaptive) or rk4 (fixed step)
    # None: rk45 picks it (_first_step), rk4 takes 1e-3
    h0: float | None = None
    hmin: float = 1e-12
    hmax: float = math.inf
    atol: float = 1e-9
    rtol: float = 1e-9
    t_end: float = 10.0  # finite
    normalize: str = "none"  # none | unit-bracket-norm
    sample_every: int = 10
    blowup_norm: float = 1e8
    max_steps: int = 1_000_000  # accepted steps before a run is stopped

    def __post_init__(self):
        h0 = self.hmin if self.h0 is None else self.h0
        if not (0 < self.hmin <= h0 <= self.hmax and self.hmin < math.inf):
            raise ValueError("need 0 < hmin <= h0 <= hmax, hmin finite")
        if not (0 < self.atol < math.inf and 0 < self.rtol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
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


# The Dormand-Prince 8(5,3) pair, DOP853 (Hairer, Norsett and Wanner, Solving
# Ordinary Differential Equations I, II.10, and their code dop853).  Stages
# 1-12 make a step, stage 13 is f at the eighth-order solution (the next
# step's stage 1), and stages 14-16 serve the continuous extension only.
# _DOP_A[i, j] is the weight of stage j + 1 in the input of stage i + 1.
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])


def _tableau(rows, width):
    """An array of len(rows) x width, row i holding the {column: value} of rows[i]."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


_DOP_A = _tableau([
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # the eighth-order weights
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
], 16)
_DOP_B = _DOP_A[12, :12]
# the error estimates: E3, the eighth-order less the third-order weights, and
# E5, of the fifth-order error
_DOP_E3 = _DOP_B - _tableau([{0: 0.244094488188976377952755905512,
                              8: 0.733846688281611857341361741547,
                              11: 0.220588235294117647058823529412e-1}], 12)[0]
_DOP_E5 = _tableau([{
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}], 12)[0]
# one product of the stages gives the increment and both error estimates
_DOP_W = np.vstack([_DOP_B, _DOP_E3, _DOP_E5])
# the last four coefficients of the seventh-order continuous extension, as
# weights of the 16 stages (see _extension)
_DOP_D = _tableau([
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
], 16)
# (i, c_i, A[i, :i]) of stages 2..12 and of the extension's 14..16, sliced once
_DOP_STAGES = tuple((i, float(_DOP_C[i]), _DOP_A[i, :i]) for i in range(1, 12))
_DOP_EXTRA = tuple((i, float(_DOP_C[i]), _DOP_A[i, :i]) for i in range(13, 16))


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
    """Yield (tau, y) after each accepted step of the Dormand-Prince 8(5,3)
    pair (the name predates the pair), starting with (t0, y0).  y is the
    scale-free state (x, w, ln r, t) of :func:`_scale_free`, w its tails,
    which may be empty: the steps are in tau, and the run ends when the
    clock t = y[-1] reaches t1, to within 1e-15 |t1|.

    The stages of a step live in the rows of one (16, n) array K: stage i
    takes y + h * (A[i, :i] @ K[:i]).  Eleven evaluations, stages 2-12, make
    the eighth-order solution y + h * (B @ K[:12]) and its error, h |E5 @ K|^2
    / sqrt(|E5 @ K|^2 + 0.01 |E3 @ K|^2) in the root-mean-square norm of the
    error test (:func:`_error_norm`); a step passes when that is at most 1,
    and the next step is the last times 0.9 err^(-1/8) in [0.2, 10].  An
    accepted step then evaluates f at its solution, and hands that to the
    next step as K[0] (first-same-as-last); a rejected step keeps K[0].  So
    a run makes 1 + 11 a + s evaluations, a attempted and s accepted steps,
    and one more, the trial stage of :func:`_first_step`, when h0 is None,
    none at a stationary start (a landing step taken again, below, is an
    attempt and one more).  A stage whose f raises NonFiniteState (an
    overflowing trial state) or PositivityError (a trial 3-form off the
    positive cone) is rejected like one whose estimate is NaN.

    The clock's rate dt/dtau = exp(-2 ln r) is split in two
    (:func:`_clock_exponent`): a model eL exp(mu s), eL and mu = -2a from
    K[0], whose integral over the step is exact, and the residual, the
    stage rates less the model, which alone the pair integrates and
    estimates the error of.  So a constant a, as along a soliton, leaves
    the clock no error.  The error of ln r (the relative error of r) is
    measured against atol, and that of t against atol dt/dtau + rtol |t|,
    so no tolerance depends on the scale of y.  A step is capped a little
    past where the clock would reach t1 were a = K[0][-2] constant
    (:func:`_clock_reach`); a run whose x starts stationary, as along an
    algebraic soliton, starts with that reach, and any other with the step
    its pair needs (:func:`_first_step`).  Each accepted step caps the next
    at |h lambda| <= _STABLE_HLAMB, the edge of the pair's stability
    region, lambda as :func:`_stiffness` estimates it at the step's end.
    The step that ends past t1 by more than _CLOCK_TOL |t1| is cut where
    its clock is t1 on the seventh-order continuous extension
    (:func:`_extension`, three more evaluations; the clock's by its model
    and residual, :func:`_crossing`), and the clock set to t1.  Outside the
    pair's stability region, where the extension amplifies rounding, that
    step is taken again once instead, to where the model's clock reaches
    t1.  An evaluation of the extension that raises ends the run with that
    error.  Both end tests are relative to |t1|, so the run of 2^k y0 to
    t1 / 4^k takes the steps of y0's to t1.

    Raises StepUnderflow when no step of size >= hmin meets the tolerance
    (the PositivityError of its stage when that is why), and
    StepBudgetExhausted before an accepted step beyond max_steps.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    direction = 1.0 if t1 >= y[-1] else -1.0
    h = None if h0 is None else abs(h0)  # each step is capped at t1 below
    close = _CLOCK_TOL * abs(t1)
    yield t, y
    n, retaken = 0, False  # retaken: the landing step, once taken again
    K = np.empty((16, y.size))
    K[0] = f(t, y)
    while (t1 - y[-1]) * direction > 1e-15 * abs(t1):
        if n >= max_steps:
            raise StepBudgetExhausted(f"{n} steps taken by t={y[-1]:g}")
        reach = _clock_reach(K[0], abs(t1 - y[-1]), direction)
        if h is None:
            h = _first_step(f, t, y, K[0], direction, hmin, hmax, atol, rtol, reach)
        h = min(h, _REACH_MARGIN * reach)
        hh = direction * h
        failure = None
        try:
            for i, c, a in _DOP_STAGES:
                y12 = y + hh * (a @ K[:i])  # after the loop, stage 12's input
                K[i] = f(t + c * hh, y12)
            # an increment or estimate that overflows rejects the step,
            # without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                W = _DOP_W @ K[:12]
                yi = y + hh * W[0]
                # the clock: its model exactly, the residual by the pair
                z = _clock_exponent(K[0], hh)
                model = K[0][-1] * np.exp(z * _DOP_C)
                W[:, -1] = _DOP_W @ (K[:12, -1] - model[:12])
                yi[-1] = y[-1] + (K[0][-1] * hh * _phi1(z) + hh * W[0, -1])
                err = _error_norm(h, W[1], W[2], _tol_scale(y, yi, K[0], atol, rtol))
                if not math.isfinite(yi[-1]):  # an overflowing clock model
                    err = math.inf
            if err <= 1.0:
                K[12] = f(t + hh, yi)
        except (NonFiniteState, PositivityError) as exc:
            err, failure = math.inf, exc
        if err <= 1.0:
            past = (yi[-1] - t1) * direction
            stiff = _stiffness(y12, yi, K, hh)
            if past > close and not retaken and stiff > _STABLE_HLAMB:
                # outside the pair's stability region the extension amplifies
                # rounding: step to where the model's clock reaches t1 instead
                retaken = True
                h = min(h, reach)
                continue
            n += 1
            if past > close:
                F = _extension(f, t, y, yi, K, hh)
                x = _crossing(_coefficients(hh * W[0, -1], K[:, -1] - model, hh),
                              K[0][-1] * hh, z, t1 - y[-1])
                t, y = t + x * hh, y + _at(F, x)[0]
            else:
                t, y = t + hh, yi
            if past >= -close:
                y[-1] = t1
            K[0] = K[12]
            yield t, y
            h_next = h * (10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125))
            if stiff > 0.0:  # keep the next step inside the stability region
                h_next = min(h_next, _STABLE_HLAMB * h / stiff)
            h = min(hmax, h_next)
        else:
            if h <= hmin * (1 + 1e-12):
                if isinstance(failure, PositivityError):
                    raise failure
                raise StepUnderflow(f"step {h:g} below hmin at t={y[-1]:g} (err={err:g})")
            h = max(hmin, h * max(0.2, 0.9 * err ** -0.125))


def _stiffness(y12, yi, K, hh):
    """|hh lambda| at the end of an accepted step hh to yi, as dop853
    estimates it (Hairer and Wanner, Solving Ordinary Differential
    Equations II, IV.2): |hh| |K[12] - K[11]| / |yi - y12|, y12 the input of
    stage 12, on x and the tails y[:-2] (ln r and the clock's exponential
    are integrated exactly).  The tails count as x does: along the direct
    flow of an algebraic soliton x moves only by rounding, h does not.  0
    where yi and y12 agree to the rounding of y[:-2], which then tells
    nothing of lambda and leaves nothing to amplify."""
    den = float(np.linalg.norm(yi[:-2] - y12[:-2]))
    if den <= np.finfo(float).eps * float(np.linalg.norm(yi[:-2])):
        return 0.0
    return abs(hh) * float(np.linalg.norm(K[12, :-2] - K[11, :-2])) / den


# dop853's bound on _stiffness: the edge of the pair's stability region
_STABLE_HLAMB = 6.1


def _error_norm(h, e3, e5, scale):
    """DOP853's error of a step of size h whose estimates are e3 = E3 @ K
    and e5 = E5 @ K, in the error test's norm (see :func:`rk45_steps`)."""
    r3, r5 = e3 / scale, e5 / scale
    s3, s5 = float(r3 @ r3), float(r5 @ r5)
    return 0.0 if s5 == 0.0 else h * s5 / math.sqrt((s5 + 0.01 * s3) * r5.size)


def _extension(f, t, y, yi, K, hh):
    """The coefficients F (7, n) of DOP853's seventh-order continuous
    extension of the accepted step hh from (t, y) to yi, whose 13 stages are
    in K[:13]: it evaluates stages 14-16 into K.  :func:`_at` reads it."""
    for i, c, a in _DOP_EXTRA:
        K[i] = f(t + c * hh, y + hh * (a @ K[:i]))
    return _coefficients(yi - y, K, hh)


def _coefficients(dy, K, hh):
    """The extension's coefficients for the increment dy of a step hh whose
    16 stage rates are K, of one component or of all (K (16,) or (16, n))."""
    F = np.empty((7,) + np.shape(dy))
    F[0] = dy
    F[1] = hh * K[0] - dy
    F[2] = 2.0 * dy - hh * (K[12] + K[0])
    F[3:] = hh * (_DOP_D @ K)
    return F


def _at(F, x):
    """The increment of the continuous extension F (:func:`_extension`) at
    the fraction x of its step, and its derivative in x: x (F0 + (1 - x)
    (F1 + x (F2 + (1 - x) (F3 + x (F4 + (1 - x) (F5 + x F6))))))."""
    v, dv = F[6], 0.0
    for j in range(5, -1, -1):
        m, dm = (x, 1.0) if j % 2 else (1.0 - x, -1.0)
        v, dv = F[j] + m * v, dm * v + m * dv
    return x * v, v + x * dv


def _crossing(Fc, c, z, left):
    """The fraction x of a scale-free step at which its clock has moved by
    left.  The clock moves by c x phi1(z x), the integral of its model rate
    (:func:`_clock_exponent`, c = eL hh and z = mu hh), plus the extension of
    the residual rates, whose coefficients are Fc.  Newton from the chord,
    done once its correction is within 4 eps, and kept inside the bracket
    [0, 1] that the step's clock spans by bisection; a zero or overflowing
    slope bisects."""
    lo, hi, tol = 0.0, 1.0, 4.0 * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        x = left / (Fc[0] + c * _phi1(z))
        for _ in range(_CROSSING_ITERS):
            value, slope = _at(Fc, x)
            value, slope = value + c * x * _phi1(z * x), slope + c * np.exp(z * x)
            miss = value - left
            step = miss / slope if 0.0 < abs(slope) < math.inf else math.nan
            if abs(step) <= tol:
                return x - step
            if miss < 0.0 < left or left < 0.0 < miss:
                lo = x
            else:
                hi = x
            if not lo < (nxt := x - step) < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= tol:
                return nxt
            x = nxt
    return x


def _phi1(z):
    """expm1(z) / z, and 1 at z = 0: an overflow is inf, under the caller's
    np.errstate."""
    return np.expm1(z) / z if z != 0.0 else 1.0


def _clock_exponent(k, hh):
    """z = mu hh of the clock's model over a scale-free step hh from a state
    with rates k: dt/dtau = eL exp(mu s), s the time into the step, eL =
    k[-1] and mu = -2 k[-2], which is exact while a = k[-2] stays constant,
    and mu = 0 at the rate's cap, e^_LOG_RATE_MAX.  The model's rates at
    the stages are eL exp(z _DOP_C), and its integral over the step is
    eL hh phi1(z)."""
    return 0.0 if k[-1] >= _RATE_MAX else -2.0 * k[-2] * hh


# Newton steps of _crossing, at most: it converges in a handful
_CROSSING_ITERS = 60


def _rms(r):
    """The root mean square of the array r: the norm of the error test."""
    return math.sqrt(float(r @ r) / r.size)


def _tol_scale(y, yi, k0, atol, rtol):
    """The error test's scale of each component of a scale-free step from y
    to yi, k0 the rates at y (see :func:`rk45_steps`)."""
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
    scale[-2:] = atol, atol * k0[-1] + rtol * max(abs(y[-1]), abs(yi[-1]))
    return scale


def _first_step(f, t, y, k, direction, hmin, hmax, atol, rtol, reach):
    """The starting step of a scale-free state y = (x, w, ln r, t) with
    rates k = f(t, y), whose clock reaches t1 after the tau step reach
    (:func:`_clock_reach`).  After Hairer, Norsett and Wanner (Solving
    Ordinary Differential Equations I, II.4), in the error test's norm:
    d0 = |y[:-2]| (ln r, whose scale is atol, would make the step depend on
    the scale of the state), d1 = |k| and d2 = |f(t + h', y + h' k) - k| / h'
    at the trial step h' = 0.01 d0 / d1 (1e-6 if d0 or d1 is below 1e-5).
    The step is min(100 h', h1) in [hmin, hmax], h1 = (9! / max(d1, d2))^(1/9),
    at which the eighth-order step's Taylor remainder h^9 |y^(9)| / 9!,
    |y^(9)| taken as max(d1, d2), meets the tolerance, and no further than
    |h1 lambda| = _STABLE_HLAMB, lambda ~ d2 / d1, inside the pair's
    stability region (h1 = max(1e-6, 1e-3 h') if d1 and d2 are below 1e-15).

    Where the rates of y[:-2] are below 1e-5 in that norm, the start is
    stationary, as along an algebraic soliton, where ln r is linear in tau
    and the clock is exact: the step is the reach in [hmin, hmax], with no
    trial stage, unless the reach is unbounded.  The tails count with x, as
    the pair integrates both: along the direct flow of an algebraic soliton
    x stays put but h = exp(-tau Q_x) does not.  A trial stage that raises
    NonFiniteState or PositivityError, or whose d2 is not finite, is tried
    again at a tenth of h', at most _FIRST_TRIALS times in all; when the
    last one fails too, the step is a tenth of its h'."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = _tol_scale(y, y, k, atol, rtol)
        d0, d1 = _rms(y[:-2] / scale[:-2]), _rms(k / scale)
        if _rms(k[:-2] / scale[:-2]) < 1e-5 and math.isfinite(reach):
            return min(max(reach, hmin), hmax)
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
    if top <= 1e-15:
        h1 = max(1e-6, 1e-3 * h)
    else:
        h1 = (_FACT9 / top) ** (1.0 / 9.0)
        if d2 > _STABLE_HLAMB * d1 * h1:  # |h1 lambda| <= _STABLE_HLAMB, lambda ~ d2 / d1
            h1 = _STABLE_HLAMB * d1 / d2
    return min(max(min(100.0 * h, h1), hmin), hmax)


# 9!, of the eighth-order step's Taylor remainder h^9 y^(9) / 9!
_FACT9 = float(math.factorial(9))


# trial evaluations of _first_step, at most
_FIRST_TRIALS = 4


# a scale-free run ends when its clock is this close to t1, relative
_CLOCK_TOL = 1e-12

# a scale-free step is capped at this multiple of _clock_reach, so that the
# step that reaches t1 passes it and lands by the continuous extension
_REACH_MARGIN = 1.05


def _clock_reach(k, left, direction):
    """The tau step after which the clock of a scale-free state, with rates
    k = dz/dtau, has moved by left, were a = k[-2] constant: then
    dt/dtau = c exp(-2 a (tau - tau0)), c = k[-1], as :func:`_clock_exponent`
    has it (a = 0 at the rate's cap).  Unbounded when the clock slows down so
    fast that it does not get there."""
    first = float(left) / float(k[-1])  # a float's overflow is inf, without a warning
    if math.isinf(first):
        return math.inf
    q = 0.0 if k[-1] >= _RATE_MAX else 2.0 * float(k[-2]) * direction * first
    if q == 0.0:
        return first
    return first * (-math.log1p(-q) / q) if q < 1.0 else math.inf


def _along(v, x):
    """<v, x> / <x, x>, the coefficient of v's component along x."""
    return np.dot(v, x) / max(np.dot(x, x), 1e-300)


def _scale_free(rhs, fixed_norm, head, clocked):
    """The scale-free form of y' = rhs(t, y), rhs a homogeneous cubic free
    of t.  With y = r x and dtau = r^2 dt, on z = (x, ln r, t):

        dx/dtau = rhs(x) - a x,  d(ln r)/dtau = a,  dt/dtau = exp(-2 ln r),

    a = <rhs(x), x> / <x, x>.  The split is exact for any |x|, and the flow
    leaves |x| where it is; x is the norm-normalized flow.  fixed_norm
    freezes ln r, which is the unit-bracket-norm flow with tau = r0^2 t.

    x is z[:head].  Where head < z.size - 2, y = (y[:head], w) carries a
    tail w that the scaling y[:head] -> s y[:head], t -> t / s^2 leaves
    alone (the maps h of the direct flow), of two kinds.  A tail of weight 0
    has a rate quadratic in y[:head], so that rhs at (x, w) gives its
    tau-rate itself.  The last clocked components of w, a clocked tail,
    have a rate that does not depend on the head (the direct flow of a
    fixed bracket, which reconstruct_h steps), so their tau-rate is rhs's
    times dt/dtau.  Then z = (x, w, ln r, t), and a is taken over the head
    alone.  Without a tail, x is z[:-2] and the right side is v - a x over
    all of it.  The right side keeps rhs's name, so a profile charges it to
    the flow."""
    @functools.wraps(rhs)
    def tau_rhs(tau, z):
        x = z[:head]
        v = rhs(z[-1], z[:-2])
        a = _along(v[:head], x)
        dz = np.empty_like(z)
        dz[:-2] = v
        dz[:head] -= a * x
        dz[-2] = 0.0 if fixed_norm else a
        dz[-1] = math.exp(min(-2.0 * z[-2], _LOG_RATE_MAX))
        if clocked:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow rejects the step
                dz[-2 - clocked:-2] *= dz[-1]
        return dz
    return tau_rhs


# dt/dtau = r^-2 is taken as at most e^700: below r = e^-350 (about
# 1e-152), V moves y by less than its rounding over any t < 1e290, so the
# rate no longer matters, and it stays finite
_LOG_RATE_MAX = 700.0
_RATE_MAX = math.exp(_LOG_RATE_MAX)


def _scale_free_start(y0, head):
    """(x0, w0, ln r0, 0) with |x0| = 1 and y0[:head] = r0 x0, by a norm that
    does not overflow, and r0; w0 = y0[head:] is the tail
    (:func:`_scale_free`).  A zero head is its own x0, with r0 = 1."""
    y, tail = y0[:head], y0[head:]
    top = float(np.abs(y).max())
    if top == 0.0:
        return np.concatenate([y, tail, (0.0, 0.0)]), 1.0
    x = y / top
    norm = math.sqrt(x @ x)
    return np.concatenate([x / norm, tail, (math.log(top) + math.log(norm), 0.0)]), top * norm


# the step of rk4 when IntegratorOptions.h0 is None
_RK4_STEP = 1e-3


def _steps(rhs, y0, opts, tail, clocked):
    """(t, y) after each step; rk45's scale-free ones as (t, (r x, w)), from (0, y0) itself."""
    if opts.method == "rk4":
        f = rhs
        if opts.normalize != "none":
            @functools.wraps(rhs)
            def f(t, y):  # y' less its component along y, which keeps |y|
                v = rhs(t, y)
                return v - _along(v, y) * y
        h = _RK4_STEP if opts.h0 is None else opts.h0
        yield from rk4_steps(f, y0, 0.0, opts.t_end, h, opts.max_steps)
        return
    fixed_norm = opts.normalize != "none"
    head = y0.size - tail - clocked
    z0, r0 = _scale_free_start(y0, head)
    # under a fixed norm |y| = r0 throughout, and atol, a tolerance on y, is
    # atol / r0 on x; otherwise atol applies to x, relative to |y|
    atol = opts.atol / r0 if fixed_norm else opts.atol
    steps = rk45_steps(_scale_free(rhs, fixed_norm, head, clocked), z0, 0.0,
                       opts.t_end, opts.h0, opts.hmin, opts.hmax, atol, opts.rtol,
                       opts.max_steps)
    next(steps)
    yield 0.0, y0
    for _, z in steps:
        y = z[:-2].copy()
        y[:head] *= math.exp(z[-2])
        yield float(z[-1]), y


def drive(rhs, y0, opts, make_sample, norm_of, tail=0, clocked=0) -> Trajectory:
    """Integrate y' = rhs(t, y) from t = 0 to opts.t_end.

    rhs is a homogeneous cubic in y, as the bracket flows are.  rk45
    integrates the scale-free form of :func:`_scale_free`, whose h0, hmin
    and hmax bound steps in its time tau, and rk4 steps y in t.
    opts.normalize = unit-bracket-norm keeps |y| at |y0|: in scale-free
    form by freezing r, with rk4 by taking y' less its component along y.
    y may end in a tail that the scaling of the head leaves alone: tail
    components of weight 0, as the direct flow's h, whose rate is quadratic
    in the head, and then clocked components, whose rate does not depend on
    the head, as the direct flow of a fixed bracket that reconstruct_h
    steps.  The scale-free form takes the first's rate as their tau-rate
    and the second's times dt/dtau (:func:`_scale_free`).

    Samples make_sample(t, y) every ``sample_every`` accepted steps and at
    the last state reached.  Returns a Trajectory whose status is one of

    - completed: t_end was reached;
    - blowup-detected: norm_of(y), still finite, rose above opts.blowup_norm;
    - non-finite: the state turned to NaN or overflowed (norm_of(y) is NaN
      or infinite), or rhs or make_sample raised a NonFiniteState; the last
      finite state is sampled;
    - positivity-lost: a PositivityError (a 3-form that is not, or no
      longer in floats, definite) came from norm_of or make_sample, from
      rhs with rk4, or from an rk45 stage at the smallest step, opts.hmin;
    - singular-frame: any other SingularSystem came from make_sample or
      rhs, as from the G2Structure of an ill-conditioned 3-form, whose
      adapted frame misses phi_canonical by more than its bound;
    - step-underflow: no step of size >= opts.hmin met the tolerance;
    - step-budget-exhausted: opts.max_steps steps did not reach t_end.
    """
    samples = []
    status = "completed"
    last = None
    sampled_last = False
    try:
        for n, (t, y) in enumerate(_steps(rhs, y0, opts, tail, clocked)):
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
    except SingularSystem:  # after NonFiniteState, one of its kinds
        status = "singular-frame"
    if last is not None and not sampled_last:
        try:
            samples.append(make_sample(*last))
        except (PositivityError, SingularSystem):
            pass
    return Trajectory(samples, status)
