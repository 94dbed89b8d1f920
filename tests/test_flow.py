import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm

from g2flow import almostabelian as aa
from g2flow import exterior, flow, g2core, integrate, liealg
from g2flow.corpus import (
    aa_n2,
    aa_n6_soliton,
    aa_n6_soliton_partner,
    mu_nilpotent,
    phi_nilpotent_example,
)
from g2flow.errors import (G2FlowError, NonFiniteState, NotClosed, PositivityError,
                           SingularSystem, StepUnderflow)
from g2flow.exterior import (DIM, KForm, _theta_tensor, act, hodge_star, phi_canonical,
                             pullback_matrix, theta)
from g2flow.flow import (
    FlowSample,
    IntegratorOptions,
    _bracket_velocity,
    _flow_sample,
    bracket_flow,
    detect_algebraic,
    detect_semialgebraic,
    laplacian,
    laplacian_flow,
    lf_diagonal_test,
    reconstruct_h,
)
from g2flow.g2core import G2Structure, metric_from_3form
from g2flow.integrate import _DOP_A, _DOP_C, _DOP_E3, _DOP_E5, drive
from g2flow.liealg import (
    LieBracket,
    bracket_act,
    ce_differential,
    delta_mu,
    jacobi_residual,
    pack_constants,
    ricci,
    unpack_constants,
)

from conftest import (hodge_laplacian, in_t, random_gl7, random_sl3c, random_su3,
                      record_rk45, rk45_attempts, rk45_in_t)


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(h0=1.0, hmax=0.5)
    with pytest.raises(ValueError):
        IntegratorOptions(atol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(method="euler")
    with pytest.raises(ValueError):
        IntegratorOptions(max_steps=0)


@pytest.mark.parametrize("field", ["hmin", "atol", "rtol"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_options_refuse_a_step_floor_or_tolerance_that_is_not_positive_and_finite(field, value):
    # hmin <= 0 let a right side that turns NaN take accepted steps of
    # length 0 until max_steps, and a NaN tolerance ran; each is refused
    # before a step
    with pytest.raises(ValueError):
        IntegratorOptions(**{field: value})


def test_abelian_bracket_is_a_fixed_point(s_nilpotent):
    traj = bracket_flow(LieBracket.zero(), s_nilpotent,
                        IntegratorOptions(t_end=1.0, sample_every=5))
    assert traj.status == "completed"
    assert all(s.norm_mu == 0.0 for s in traj.samples)


def test_torsion_free_bracket_is_a_fixed_point(s_aa, rng):
    m = random_su3(rng)
    mu0 = aa.bracket_of(m)
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=1.0, sample_every=10))
    drift = max(np.abs(s.mu.c - mu0.c).max() for s in traj.samples)
    assert traj.status == "completed" and drift < 1e-10


# constants away from zero or exactly zero, so no product underflows
_const = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))


@st.composite
def _bracket_pairs(draw):
    """A 2-step nilpotent bracket span(e1..e4) -> span(e5,e6,e7) with the
    canonical form, or an almost-abelian bracket ad e7 = A with its form
    (Jacobi holds for any constants in both families), moved together by a
    map h in GL(7)."""
    if draw(st.booleans()):
        consts = draw(st.lists(_const, min_size=18, max_size=18))
        c = np.zeros((DIM, DIM, DIM))
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for n, (i, j) in enumerate(pairs):
            c[i, j, 4:] = consts[3 * n:3 * n + 3]
            c[j, i, 4:] = -c[i, j, 4:]
        mu, phi = LieBracket(c), phi_canonical()
    else:
        entries = draw(st.lists(_const, min_size=36, max_size=36))
        mu, phi = LieBracket.from_adjoint(np.reshape(entries, (6, 6))), aa.phi_almost_abelian()
    entries = draw(st.lists(_const, min_size=49, max_size=49))
    h = np.eye(DIM) + 0.6 / np.sqrt(DIM) * np.reshape(entries, (DIM, DIM))
    assume(abs(np.linalg.det(h)) > 0.2)
    return mu.act(h), act(h, phi)


@given(pair=_bracket_pairs())
def test_compiled_bracket_rhs_is_the_object_path(pair):
    mu, phi = pair
    s = G2Structure(phi)
    Q, vel, u = _bracket_velocity(s)(mu.packed().reshape(-1))
    lap = laplacian(mu, s.metric, s.phi.coeffs)
    assert np.array_equal(lap, hodge_laplacian(mu, s, s.phi).coeffs)
    want_Q = s.solve_Q(KForm(3, lap))
    want = pack_constants(delta_mu(mu, want_Q)).reshape(-1)
    assert np.abs(Q - want_Q).max() <= 1e-12 * np.abs(want_Q).max()
    assert np.abs(vel - want).max() <= 1e-12 * np.abs(want).max()
    # u = (*d phi, *d psi)
    want_u = np.concatenate([hodge_star(ce_differential(mu, x), s.metric).coeffs
                             for x in (s.phi, s.psi)])
    assert np.abs(u - want_u).max() <= 1e-12 * max(1.0, np.abs(want_u).max())


@given(pair=_bracket_pairs(),
       a=st.lists(st.floats(-1.0, 1.0), min_size=35, max_size=35))
def test_laplacian_is_the_object_chain(pair, a):
    # the one fixed-bracket Laplacian makes the object chain's products in
    # the same order, so the two agree bit for bit, and the bare metric of
    # phi gives the structure's result
    mu, phi = pair
    s = G2Structure(phi)
    a = KForm(3, a)
    lap = laplacian(mu, s.metric, a.coeffs)
    assert np.array_equal(lap, hodge_laplacian(mu, s, a).coeffs)
    assert np.array_equal(laplacian(mu, metric_from_3form(phi), a.coeffs), lap)


@given(pair=_bracket_pairs(),
       c=st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1)))
def test_compiled_bracket_rhs_is_cubic(pair, c):
    # F(c y) = c^3 F(y): the bracket flow from c mu is the flow from mu with
    # time rescaled by 1/c^2
    mu, phi = pair
    velocity = _bracket_velocity(G2Structure(phi))
    y = mu.packed().reshape(-1)
    want = c ** 3 * velocity(y)[1]
    assert np.abs(velocity(c * y)[1] - want).max() <= 1e-12 * np.abs(want).max()


def test_velocity_factorisation_is_delta_mu(rng):
    # delta_mu(Q) on packed constants Y (pair x index) is
    # -theta_2(Q) Y - Y Q^T, for any antisymmetric constants and any Q;
    # theta_2(Q) is applied column by column, as theta on each 2-form
    for _ in range(10):
        Y, Q = rng.normal(size=(21, DIM)), rng.normal(size=(DIM, DIM))
        want = pack_constants(delta_mu(unpack_constants(Y), Q))
        th = np.array([theta(Q, KForm(2, col)).coeffs for col in Y.T]).T
        got = -th - Y @ Q.T
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compiled_velocity_refuses_a_non_finite_state(s_aa, rng, bad):
    velocity = _bracket_velocity(s_aa)
    y = aa.bracket_of(random_sl3c(rng, 0.8)).packed().reshape(-1)
    assert np.isfinite(velocity(y)[0]).all()
    y[40] = bad
    with pytest.raises(NonFiniteState):
        velocity(y)


def test_compiled_velocity_checks_the_q_solve_once(monkeypatch):
    # every compiled velocity reads its Q map from the canonical tables,
    # whose solve is checked once per process, when they are built: an SVD
    # that doubles U leaves the rank alone and makes T T^+ = 2 I, and fails
    svd = np.linalg.svd

    def corrupted(a, *args, **kw):
        U, sv, Vh = svd(a, *args, **kw)
        return 2.0 * U, sv, Vh

    monkeypatch.setattr(np.linalg, "svd", corrupted)
    with pytest.raises(SingularSystem, match="residual"):
        g2core._canonical_tables.__wrapped__()


def test_a_run_and_its_reconstruction_build_the_velocity_once(monkeypatch, s_aa, rng):
    # the canonical velocity of the side-i stages is a per-process constant
    flow._canonical_velocity()
    built = []

    def counting(s):
        built.append(s)
        return _bracket_velocity(s)

    monkeypatch.setattr(flow, "_bracket_velocity", counting)
    traj = bracket_flow(aa.bracket_of(random_sl3c(rng, 0.8)), s_aa,
                        IntegratorOptions(method="rk4", h0=1e-2, t_end=0.1))
    for side in ("i", "ii"):
        assert reconstruct_h(traj, side=side).status == "completed"
    assert built == [s_aa]


def test_bracket_flow_scalar_law(s_nilpotent):
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = bracket_flow(mu0, s_nilpotent,
                        IntegratorOptions(t_end=10.0, sample_every=10))
    assert traj.status == "completed"
    assert np.all(np.diff(traj.times) > 0)
    for smp in traj.samples:
        exact = 4.0 / (1.0 + (10.0 / 3.0) * smp.t)
        assert abs(smp.norm_mu ** 2 - exact) < 1e-6 * exact
        # trajectory stays on the ray through mu0
        ray = smp.norm_mu / mu0.norm()
        assert np.abs(smp.mu.c - ray * mu0.c).max() < 1e-8


def test_bracket_flow_preserves_jacobi(s_aa, rng):
    mu0 = aa.bracket_of(random_sl3c(rng))
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=2.0, sample_every=10))
    assert max(s.mu.jacobi for s in traj.samples) < 1e-7


def test_bracket_flow_computes_no_jacobi_residual(s_aa, rng, monkeypatch):
    # a sample's bracket derives from the checked start, so the run computes
    # no Jacobi residual; a sample computes its own when it is read, once
    mu0 = aa.bracket_of(random_sl3c(rng))
    calls = []

    def counting(c):
        calls.append(1)
        return jacobi_residual(c)

    monkeypatch.setattr(liealg, "jacobi_residual", counting)
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=1.0, sample_every=2))
    assert len(traj.samples) > 2 and calls == []
    for smp in traj.samples:
        assert smp.mu.jacobi == jacobi_residual(smp.mu.c) == smp.mu.jacobi
    assert len(calls) == len(traj.samples)


def test_backward_blowup_detected(s_nilpotent):
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = bracket_flow(mu0, s_nilpotent,
                        IntegratorOptions(t_end=-0.31, sample_every=25,
                                          blowup_norm=1e6))
    assert traj.status == "blowup-detected"
    # the flow velocity blows up together with the bracket norm
    assert traj.samples[-1].velocity_norm > 1e8
    assert traj.samples[-1].norm_mu > 1e5


def test_scaling_compatibility(s_aa, rng):
    # the trajectory from 2*mu equals the time-rescaled trajectory from mu
    m = random_sl3c(rng, 0.7)
    mu0 = aa.bracket_of(m)
    mu2 = mu0.scale(2.0)
    T = 0.25
    o1 = IntegratorOptions(method="rk4", h0=1e-3, t_end=4 * T, sample_every=250)
    o2 = IntegratorOptions(method="rk4", h0=2.5e-4, t_end=T, sample_every=250)
    t1 = bracket_flow(mu0, s_aa, o1)
    t2 = bracket_flow(mu2, s_aa, o2)
    for s1, s2 in zip(t1.samples, t2.samples):
        assert abs(s1.t - 4 * s2.t) < 1e-12
        assert np.abs(2.0 * s1.mu.c - s2.mu.c).max() < 1e-5


def test_unit_norm_projection_keeps_norm(s_aa, rng):
    mu0 = aa.bracket_of(random_sl3c(rng))
    traj = bracket_flow(mu0, s_aa,
                        IntegratorOptions(t_end=1.0, sample_every=10,
                                          normalize="unit-bracket-norm"))
    norms = [s.norm_mu for s in traj.samples]
    assert max(abs(n - norms[0]) for n in norms) < 1e-7


@pytest.mark.parametrize("s", [0.1, 10.0])
def test_scale_free_flow_obeys_the_scaling_law(s, s_aa, rng):
    # the flow of s mu at t / s^2 is s times the flow of mu at t; in
    # scale-free time the two runs take the same steps, so the law holds to
    # rounding, for the 7-dim and the 6x6 flows alike
    m = random_sl3c(rng, 1.0)
    mu = aa.bracket_of(m)
    base = bracket_flow(mu, s_aa, IntegratorOptions(t_end=2.0))
    run = bracket_flow(mu.scale(s), s_aa, IntegratorOptions(t_end=2.0 / s ** 2))
    assert run.final.t == 2.0 / s ** 2
    assert np.abs(run.final.mu.c - s * base.final.mu.c).max() <= 1e-12 * s * np.abs(mu.c).max()
    base = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0))
    run = aa.matrix_bracket_flow(aa.AAMatrix.from_matrix(s * m.A),
                                 IntegratorOptions(t_end=50.0 / s ** 2))
    assert np.abs(run.final.A - s * base.final.A).max() <= 1e-12 * s * np.abs(m.A).max()


def test_the_scaling_law_holds_down_to_the_shortest_runs(s_aa):
    # the end tests of rk45 are relative to |t_end|, so the flows of 2^k mu
    # to 0.75 / 4^k, k = -20..20, take the steps of mu's to 0.75 and end at
    # 2^k times its final state, to the rounding of the clock's rate
    # exp(-2 ln r) (within 4.1e-15 relative).  End tests absolute below
    # |t_end| = 1 ended the runs with k >= 17 up to 1.03 off
    m = random_sl3c(np.random.default_rng(1), 1.0)
    mu = aa.bracket_of(m)
    base_mu = bracket_flow(mu, s_aa, IntegratorOptions(t_end=0.75)).final.mu.c
    base_A = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=0.75)).final.A
    for k in range(-20, 21):
        s = 2.0 ** k
        opts = IntegratorOptions(t_end=0.75 / s ** 2)
        runs = [bracket_flow(mu.scale(s), s_aa, opts),
                aa.matrix_bracket_flow(aa.AAMatrix.from_matrix(s * m.A), opts)]
        for run, got, want in zip(runs, (runs[0].final.mu.c, runs[1].final.A), (base_mu, base_A)):
            assert run.status == "completed" and run.final.t == opts.t_end
            assert np.abs(got - s * want).max() <= 1e-14 * s * np.abs(want).max()


def test_unit_bracket_norm_keeps_the_norm_over_long_runs(s_aa, rng):
    # |x| is neutral under dx/dtau = V(x) - <V(x), x> x / <x, x>, so |mu|
    # drifts only by the local errors (about 5 atol over t = 10); without
    # the division by <x, x>, |x| = 1 is unstable where |mu| decays
    for _ in range(20):
        mu = aa.bracket_of(random_sl3c(rng, 1.0))
        traj = bracket_flow(mu, s_aa, IntegratorOptions(
            t_end=10.0, sample_every=1, normalize="unit-bracket-norm"))
        assert traj.status == "completed" and traj.final.t == 10.0
        assert max(abs(smp.norm_mu / mu.norm() - 1) for smp in traj.samples) < 1e-8


@pytest.mark.parametrize("t_end", [0.37, 3.0, -0.05])
def test_scale_free_runs_end_at_t_end_exactly(t_end, s_aa, rng):
    m = random_sl3c(rng, 1.0)
    runs = [aa.matrix_bracket_flow(m, IntegratorOptions(t_end=t_end))]
    for normalize in ("none", "unit-bracket-norm"):
        runs.append(bracket_flow(aa.bracket_of(m), s_aa,
                                 IntegratorOptions(t_end=t_end, normalize=normalize)))
    for traj in runs:
        assert traj.status == "completed" and traj.final.t == t_end
        assert np.all(np.diff(traj.times) * t_end > 0)


@pytest.mark.parametrize("t_end", [0.37, 10.0, 50.0])
def test_a_scale_free_run_lands_on_t_end_without_a_sliver_step(t_end, rng, monkeypatch):
    # the step that passes t_end is cut where its clock is t_end, on the
    # continuous extension: the clock ends at t_end exactly, the last step
    # is no sliver of the one before, and the landing costs three
    # evaluations over the 2 + 11 a + s of a attempted and s accepted steps
    calls, _ = record_rk45(monkeypatch)
    m = random_sl3c(rng, 1.0)
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=t_end, sample_every=1))
    assert traj.status == "completed" and traj.final.t == t_end
    steps = np.diff(traj.times)
    assert steps[-1] >= 1e-2 * steps[-2]
    assert (len(calls) - 2 - len(steps) - 3) % 11 == 0
    monkeypatch.undo()
    ref = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=t_end, atol=1e-13, rtol=1e-13))
    assert ref.final.t == t_end
    assert np.abs(traj.final.A - ref.final.A).max() <= 1e-8 * np.abs(ref.final.A).max()


def test_scale_free_evaluation_counts(s_nilpotent, monkeypatch):
    # machine-independent costs of three fixed runs at atol = rtol = 1e-9;
    # in t, from h0 = 1e-3, they took 421, 361 and 391 evaluations with the
    # Dormand-Prince 5(4) pair, and in scale-free time 181, 151 and 229.  The
    # default starting step (h0 = None) skips the ramp up from 1e-3.  Before
    # the clock took its exponential exactly, DOP853 took 136, 124 and 148
    # from 1e-3, and 113, 101 and 137 from the default step: the rotating
    # soliton and n2 are solitons, whose steps the clock then limited.
    # Before a stationary start began at the clock's reach, n2 took 41 from
    # the default step: a first step of 0.05 at an error of 1e-9 and one of
    # 0.5 before the one that lands, set by the rates of ln r and of the clock.
    # Before the default step was the eighth-order step's (about 0.5, not
    # 0.05), the rotating soliton and nil1234 took 77 and 149 from it
    calls, _ = record_rk45(monkeypatch)
    counts = {}
    for h0 in (1e-3, None):
        counts[h0] = []
        for m in (aa_n6_soliton(), aa_n2()):
            calls.clear()
            traj = aa.matrix_bracket_flow(aa.AAMatrix.from_complex(m),
                                          IntegratorOptions(h0=h0, t_end=50.0))
            assert traj.status == "completed"
            counts[h0].append(len(calls))
        calls.clear()
        traj = bracket_flow(mu_nilpotent(1, 2, 3, 4), s_nilpotent,
                            IntegratorOptions(h0=h0, t_end=10.0))
        assert traj.status == "completed"
        counts[h0].append(len(calls))
    assert counts == {1e-3: [100, 64, 172], None: [65, 13, 137]}


def test_a_scale_free_run_starts_at_the_step_its_pair_needs(s_nilpotent, monkeypatch):
    # the first step is the one at which the eighth-order step's Taylor
    # remainder meets the tolerance, within the stability region.  The
    # starting step of dop853's rule was a tenth of the second, which the
    # controller's largest growth, 10, then took: about 0.05 against 0.5
    _, taus = record_rk45(monkeypatch)
    h = random_gl7(np.random.default_rng(3))
    mu = aa.bracket_of(random_sl3c(np.random.default_rng(0), 1.0)).act(h)
    phi = act(h, aa.phi_almost_abelian())
    runs = [
        lambda: aa.matrix_bracket_flow(random_sl3c(np.random.default_rng(1), 1.0),
                                       IntegratorOptions(t_end=50.0)),
        lambda: bracket_flow(mu_nilpotent(1, 2, 3, 4), s_nilpotent, IntegratorOptions(t_end=10.0)),
        lambda: laplacian_flow(phi, mu, IntegratorOptions(t_end=1.0)),
    ]
    for run in runs:
        taus.clear()
        assert run().status == "completed"
        steps = np.diff(taus)
        assert len(steps) >= 3 and steps[0] >= steps[1] / 3


def test_a_soliton_is_exact_in_t(s_nilpotent, monkeypatch):
    # |mu|^2 = n0 / (1 + 5/6 n0 t) along the nilpotent soliton: x stays put,
    # ln r is linear in tau and the clock's exponential is integrated
    # exactly, so the run to t = 1e12 costs a few steps and no accuracy
    calls, _ = record_rk45(monkeypatch)
    traj = bracket_flow(mu_nilpotent(1, 0, 0, 1), s_nilpotent, IntegratorOptions(t_end=1e12))
    assert traj.status == "completed" and traj.final.t == 1e12
    assert len(calls) <= 60
    n0 = traj.samples[0].norm_mu ** 2
    assert traj.final.norm_mu ** 2 == pytest.approx(n0 / (1 + 5 / 6 * n0 * 1e12), rel=1e-12)


def _algebraic_matrices():
    """n2, a diagonal and a normal matrix of the same spectrum: algebraic
    solitons of the 6x6 flow, whose normalized state stays put."""
    z = np.array([-0.619 + 1.223j, 0.373 - 0.803j, 0.246 - 0.42j])
    rng = np.random.default_rng(1)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return [aa_n2(), np.diag(z), U @ np.diag(z) @ U.conj().T]


def test_a_stationary_start_takes_one_step(s_nilpotent, monkeypatch):
    # along the nilpotent soliton x is a fixed point: the run starts at the
    # step at which its clock reaches t_end, with no trial stage, and takes
    # it alone in 1 + 11 + 1 evaluations; unit-bracket-norm freezes r too
    calls, _ = record_rk45(monkeypatch)
    mu = mu_nilpotent(1, 0, 0, 1)
    traj = bracket_flow(mu, s_nilpotent,
                        IntegratorOptions(t_end=10.0, normalize="unit-bracket-norm"))
    assert traj.status == "completed" and traj.final.t == 10.0
    assert len(calls) <= 16
    assert traj.final.norm_mu == traj.samples[0].norm_mu == mu.norm()


def test_an_algebraic_soliton_of_the_matrix_flow_takes_one_step(monkeypatch):
    # A(t) = A0 / sqrt(1 - 2 a t), a = <V(A0), A0> / |A0|^2.  The one step
    # of the normal matrix turns its normalized flow by |h lambda| past the
    # pair's stability region, which amplifies the rounding of x to 6e-11
    # (started by the rates of every component, in 62 evaluations, the run
    # ended 2.8e-10 off)
    calls, _ = record_rk45(monkeypatch)
    for B, bound in zip(_algebraic_matrices(), (1e-12, 1e-12, 1e-10)):
        m = aa.AAMatrix.from_complex(B)
        calls.clear()
        traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0))
        assert traj.status == "completed" and traj.final.t == 50.0
        assert len(calls) <= 25
        y = m.A.reshape(-1)
        a = aa.flow_rhs(m.A).reshape(-1) @ y / (y @ y)
        exact = m.A / math.sqrt(1.0 - 2.0 * a * 50.0)
        assert np.abs(traj.final.A - exact).max() <= bound * np.abs(exact).max()


def test_a_long_run_from_a_stationary_start_keeps_its_accuracy(monkeypatch):
    # to t = 1e12 the normal matrix's stationary first step is rejected, and
    # the run leaves the unstable fixed point by rounding, as every long run
    # does: it ends 1.6e-9 of max |A| off A0 / sqrt(1 - 2 a t), in 288
    # evaluations.  From the start that took the rates of every component
    # it ended 6.2e-10 off in 359, but 2.6e-9 off at t = 1e8 (2.8e-10 now)
    calls, _ = record_rk45(monkeypatch)
    m = aa.AAMatrix.from_complex(_algebraic_matrices()[2])
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=1e12))
    assert traj.status == "completed" and traj.final.t == 1e12
    assert len(calls) <= 300
    y = m.A.reshape(-1)
    a = aa.flow_rhs(m.A).reshape(-1) @ y / (y @ y)
    exact = m.A / math.sqrt(1.0 - 2.0 * a * 1e12)
    assert np.abs(traj.final.A - exact).max() <= 2e-9 * np.abs(exact).max()


def test_a_start_near_a_soliton_is_not_stationary(monkeypatch):
    # moved off n2 and off the diagonal soliton by 1e-10 of max |A|, x moves
    # at rates far above the stationary bound: the run starts as any other
    # does, in as many evaluations as before stationary starts, and as close
    # to a run at 1e-13
    calls, _ = record_rk45(monkeypatch)
    for B, most in zip(_algebraic_matrices(), (41, 62)):
        m = aa.AAMatrix.from_complex(B + 1e-10 * np.abs(B).max() * np.diag([1, -1, 0]))
        calls.clear()
        traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0))
        assert traj.status == "completed" and len(calls) <= most
        ref = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0, atol=1e-13, rtol=1e-13))
        assert np.abs(traj.final.A - ref.final.A).max() <= 1e-9 * np.abs(ref.final.A).max()


def test_the_n2_flow_is_exact_at_the_default_tolerance():
    # n2 is an algebraic soliton: its 6x6 flow at atol = rtol = 1e-9 ends
    # where the run at 1e-13 does, to rounding
    m = aa.AAMatrix.from_complex(aa_n2())
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0))
    ref = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0, atol=1e-13, rtol=1e-13))
    assert traj.final.t == ref.final.t == 50.0
    assert np.abs(traj.final.A - ref.final.A).max() <= 1e-13 * np.abs(ref.final.A).max()


def test_a_landing_step_outside_the_stability_region_is_taken_again(monkeypatch):
    # a normal matrix is an algebraic soliton whose normalized flow turns
    # about it at |lambda| = 1.47; moved off it by 1e-12 of max |A|, so that
    # its start is not stationary, the step that reaches t_end grows to
    # |h lambda| = 18.  The continuous extension there is 7e-8 off; the
    # step taken again, to where the clock reaches t_end, is 3e-10 off
    B = _algebraic_matrices()[2]
    m = aa.AAMatrix.from_complex(B + 1e-12 * np.abs(B).max() * np.diag([1, -1, 0]))
    ref = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0, atol=1e-13, rtol=1e-13))
    calls, _ = record_rk45(monkeypatch)
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=50.0))
    assert traj.final.t == 50.0 and len(calls) <= 70
    assert np.abs(traj.final.A - ref.final.A).max() <= 1e-9 * np.abs(ref.final.A).max()


def test_runs_to_1e300_end_typed(s_nilpotent):
    # the clock's model, its landing and the step cap stay finite where the
    # clock passes 1e155: an overflow rejects a step, and no numpy warning
    # escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = aa.AAMatrix.from_complex(np.array([[0, 1, 0], [0, 0, 1.4], [0, 0, 0]]))
        traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=1e300))
        assert traj.status == "completed" and traj.final.t == 1e300
        # the nilpotent soliton's stationary start keeps x on its fixed point
        traj = bracket_flow(mu_nilpotent(1, 0, 0, 1), s_nilpotent,
                            IntegratorOptions(t_end=1e300))
        assert traj.status == "completed" and traj.final.t == 1e300
        assert all(np.isfinite(smp.norm_mu) for smp in traj.samples)


def test_direct_flow_rejects_a_stage_off_the_positive_cone():
    # at mu x 1e2 the first stage of a step of 1e-3 leaves the positive
    # cone; rk45 rejects it and shrinks the step, and the run completes on
    # the 6x6 flow of the scaled matrix
    m = random_sl3c(np.random.default_rng(1), 1.0)
    traj = laplacian_flow(aa.phi_almost_abelian(), aa.bracket_of(m).scale(1e2),
                          IntegratorOptions(h0=1e-3, t_end=1.0))
    ref = aa.matrix_bracket_flow(aa.AAMatrix.from_matrix(1e2 * m.A),
                                 IntegratorOptions(t_end=1.0, atol=1e-12, rtol=1e-12))
    assert traj.status == "completed" and traj.final.t == 1.0
    assert abs(traj.final.R - ref.final.R) <= 1e-6 * abs(ref.final.R)


@pytest.mark.parametrize("pair", ["nil1234", "almost-abelian"])
def test_flows_and_detectors_end_typed_at_every_scale(pair, s_nilpotent, s_aa):
    # brackets scaled 1e-150 to 1e150: each flow, from the default starting
    # step, ends in a status, and each detector in a certificate or a
    # G2FlowError, with no floating-point warning on the way
    if pair == "nil1234":
        mu, s = mu_nilpotent(1, 2, 3, 4), s_nilpotent
    else:
        mu, s = aa.bracket_of(random_sl3c(np.random.default_rng(0), 1.0)), s_aa
    opts = IntegratorOptions(t_end=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(-150, 151, 10):
            m = mu.scale(10.0 ** e)
            assert bracket_flow(m, s, opts).status in _STATUSES
            assert laplacian_flow(s.phi, m, opts).status in _STATUSES
            for detect in (detect_algebraic, detect_semialgebraic):
                try:
                    assert isinstance(detect(m, s).kind, str)
                except G2FlowError:
                    pass


def _kinds(mu, s):
    """The (kind, label) of both detectors for (mu, s), or the error's name."""
    out = []
    for detect in (detect_algebraic, detect_semialgebraic):
        try:
            cert = detect(mu, s)
            out.append((cert.kind, cert.label))
        except G2FlowError as exc:
            out.append(type(exc).__name__)
    return out


@pytest.mark.parametrize("pair", ["nil1234", "nil1001", "n6sol", "almost-abelian"])
def test_soliton_kinds_do_not_depend_on_the_scale(pair, s_nilpotent, s_aa):
    # the closedness tests are relative to the frame bracket's norm and the
    # residual test to |Q|, so s mu gets the certificates of mu, from
    # s = 1e-12 to 1e12
    mu, s = {
        "nil1234": (mu_nilpotent(1, 2, 3, 4), s_nilpotent),
        "nil1001": (mu_nilpotent(1, 0, 0, 1), s_nilpotent),
        "n6sol": (aa.bracket_of(aa.AAMatrix.from_complex(aa_n6_soliton())), s_aa),
        "almost-abelian": (aa.bracket_of(random_sl3c(np.random.default_rng(0), 1.0)), s_aa),
    }[pair]
    want = _kinds(mu, s)
    for e in range(-12, 13):
        assert _kinds(mu.scale(10.0 ** e), s) == want, e


# the statuses that drive documents, as test_integrate.py reads them
_STATUSES = set(re.findall(r"^\s*- ([a-z-]+):", drive.__doc__, re.M))


def test_laplacian_flow_constant_for_abelian(s_nilpotent):
    phi = phi_nilpotent_example()
    traj = laplacian_flow(phi, LieBracket.zero(),
                          IntegratorOptions(t_end=1.0, sample_every=10))
    assert traj.status == "completed"
    assert max((s.phi - phi).norm() for s in traj.samples) == 0.0


def test_an_ill_conditioned_form_ends_the_direct_flow_as_singular_frame():
    # a positive form whose metric builds but whose adapted frame, with
    # singular values from 1 to 10^4.5 in the move, misses phi_canonical by
    # about 1e-4: the first sample's G2Structure raises SingularSystem, and
    # the run ends with a status, not that exception
    rng = np.random.default_rng(0)
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(7, 7)))[0] for _ in range(2))
    phi = act(Q1 * np.logspace(0, 4.5, 7) @ Q2, phi_canonical())
    metric_from_3form(phi)
    with pytest.raises(SingularSystem, match="misses phi_canonical"):
        G2Structure(phi)
    traj = laplacian_flow(phi, mu_nilpotent(1, 2, 3, 4), IntegratorOptions(t_end=0.01))
    assert traj.status == "singular-frame" and traj.samples == []


def test_laplacian_flow_rejects_normalization():
    with pytest.raises(ValueError):
        laplacian_flow(phi_nilpotent_example(), LieBracket.zero(),
                       IntegratorOptions(normalize="unit-bracket-norm"))


def test_laplacian_flow_soliton_exact_solution(s_nilpotent):
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    phi = phi_nilpotent_example()
    cert = detect_algebraic(mu, s_nilpotent)
    c, D = cert.c, cert.D
    traj = laplacian_flow(phi, mu, IntegratorOptions(t_end=1.0, sample_every=25))
    assert traj.status == "completed"
    worst = 0.0
    for smp in traj.samples:
        b = (-2 * c * smp.t + 1) ** 1.5
        s_t = -math.log(-2 * c * smp.t + 1) / (2 * c)
        exact = b * (pullback_matrix(expm(-s_t * D), 3) @ phi.coeffs)
        worst = max(worst, float(np.abs(smp.phi.coeffs - exact).max()))
    assert worst < 1e-6


def test_laplacian_flow_soliton_is_within_1e_12_of_its_closed_form(s_nilpotent):
    # by the bracket route x stays on its fixed point and h = exp(-tau Q_x)
    # up to a scalar: every state to t = 1 is within 1e-12 of the closed
    # form (1.2e-13 off; stepping the coefficients in t was 8.1e-11 off)
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    phi = phi_nilpotent_example()
    cert = detect_algebraic(mu, s_nilpotent)
    c, D = cert.c, cert.D
    traj = laplacian_flow(phi, mu, IntegratorOptions(t_end=1.0, sample_every=1))
    assert traj.status == "completed" and traj.final.t == 1.0
    for smp in traj.samples:
        base = 1.0 - 2.0 * c * smp.t
        exact = base ** 1.5 * (pullback_matrix(expm(math.log(base) / (2 * c) * D), 3) @ phi.coeffs)
        assert np.abs(smp.phi.coeffs - exact).max() <= 1e-12


@pytest.mark.parametrize("pair", ["nil1234", "almost-abelian-gl7"])
def test_the_direct_flow_is_the_flow_of_its_velocity(pair):
    # the oracle steps dphi/dt = Delta_phi phi on the 35 coefficients
    # through _direct_velocity and samples its form by a G2Structure; the
    # bracket route's final phi and its sample, read on (mu(t), phi0), agree
    # with it at 1e-12 to 4e-12 (1e-10 asserted)
    if pair == "nil1234":
        mu, phi = mu_nilpotent(1, 2, 3, 4), phi_nilpotent_example()
    else:
        h = random_gl7(np.random.default_rng(3))
        mu = aa.bracket_of(random_sl3c(np.random.default_rng(0), 1.0)).act(h)
        phi = act(h, aa.phi_almost_abelian())
    velocity = flow._direct_velocity(mu)
    *_, (t, a) = rk45_in_t(lambda t, a: velocity(a), phi.coeffs, 0.5, None, 1e-12,
                           math.inf, 1e-12, 1e-12)
    want = _flow_sample(t, mu, G2Structure(KForm(3, a)))
    got = laplacian_flow(phi, mu, IntegratorOptions(t_end=0.5, atol=1e-12, rtol=1e-12)).final
    assert got.t == want.t == 0.5 and got.norm_mu == want.norm_mu
    assert np.abs(got.phi.coeffs - a).max() <= 1e-10 * np.abs(a).max()
    assert np.abs(got.Q - want.Q).max() <= 1e-10 * np.abs(want.Q).max()
    for name in ("R", "torsion_norm", "velocity_norm"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-10 * abs(getattr(want, name))


def test_laplacian_flow_to_t10_in_at_most_300_evaluations(monkeypatch):
    # nil1234 to t = 10: stepping the 35 coefficients in t took 71,861
    # evaluations, as the rounding of an ill-conditioned velocity (cond G =
    # 1.4e12 at t = 10) set the step; the bracket flow and h in scale-free
    # time take 209, and end within 1e-8 of a 1e-13 run
    calls, _ = record_rk45(monkeypatch)
    mu, phi = mu_nilpotent(1, 2, 3, 4), phi_nilpotent_example()
    traj = laplacian_flow(phi, mu, IntegratorOptions(t_end=10.0))
    assert traj.status == "completed" and traj.final.t == 10.0
    assert len(calls) <= 300
    ref = laplacian_flow(phi, mu, IntegratorOptions(t_end=10.0, atol=1e-13, rtol=1e-13)).final
    want = ref.phi.coeffs
    assert np.abs(traj.final.phi.coeffs - want).max() <= 1e-8 * np.abs(want).max()
    assert np.abs(traj.final.Q - ref.Q).max() <= 1e-8 * np.abs(ref.Q).max()


def test_direct_flow_obeys_the_scaling_law(s_aa, rng):
    # the direct flow of (phi0, 2^k mu) at t / 4^k is that of (phi0, mu) at
    # t: rk45 takes t_end to [1/2, 2) by a power of two and mu with it, so
    # both runs take the same steps, bit for bit, and their samples scale
    # exactly: t by 4^-k, Q and R by 4^k, |tau| by 2^k, and phi is the same
    mu = aa.bracket_of(random_sl3c(rng, 1.0))
    base = laplacian_flow(s_aa.phi, mu, IntegratorOptions(t_end=0.75, sample_every=2))
    assert base.status == "completed" and len(base.samples) >= 3
    for k in range(-20, 21):
        s = 2.0 ** k
        run = laplacian_flow(s_aa.phi, mu.scale(s), IntegratorOptions(t_end=0.75 / s ** 2,
                                                                      sample_every=2))
        assert run.status == "completed" and len(run.samples) == len(base.samples)
        for a, b in zip(run.samples, base.samples):
            assert a.t == b.t / s ** 2 and np.array_equal(a.phi.coeffs, b.phi.coeffs)
            assert np.array_equal(a.Q, s ** 2 * b.Q) and a.R == s ** 2 * b.R
            assert a.torsion_norm == s * b.torsion_norm
            assert a.velocity_norm == s ** 2 * b.velocity_norm


def test_a_t_end_that_does_not_scale_runs_the_direct_flow_as_given(s_nilpotent):
    # an infinite t_end is refused; one whose product with 4^k overflows (a
    # bracket above 2^400 to t = 1e250) is not taken to [1/2, 2), and ends
    # where the unscaled flow ends, positivity-lost at t = 35, times 4^-420
    mu = mu_nilpotent(1, 2, 3, 4)
    for t_end in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            IntegratorOptions(t_end=t_end)
    base = laplacian_flow(s_nilpotent.phi, mu, IntegratorOptions(t_end=100.0)).final
    traj = laplacian_flow(s_nilpotent.phi, mu.scale(2.0 ** 420), IntegratorOptions(t_end=1e250))
    assert traj.status == "positivity-lost"
    assert traj.final.t == pytest.approx(base.t / 4.0 ** 420, rel=1e-6)


def test_an_overflowing_q_h_raises_non_finite_state(monkeypatch):
    # the direct flow's right side takes Q_x h under np.errstate: an h that
    # overflows it raises NonFiniteState, with no warning, which rk45 takes
    # as a rejected stage and drive as the status non-finite
    seen = {}

    def capture(rhs, y0, *args, **kwargs):
        seen.update(rhs=rhs, y0=y0)
        return integrate.Trajectory([], "completed")

    monkeypatch.setattr(flow, "drive", capture)
    laplacian_flow(phi_nilpotent_example(), mu_nilpotent(1, 2, 3, 4))
    y = seen["y0"].copy()
    assert np.isfinite(seen["rhs"](0.0, y)).all()
    y[-49:] *= 1e308  # h = 1e308 I
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match="non-finite Q h"):
            seen["rhs"](0.0, y)


def test_laplacian_flow_refuses_a_degenerate_form_before_a_step(monkeypatch):
    from g2flow import flow

    def no_drive(*args):
        raise AssertionError("a degenerate form was integrated")

    monkeypatch.setattr(flow, "drive", no_drive)
    with pytest.raises(PositivityError):
        laplacian_flow(KForm.basis((1, 2, 3)), LieBracket.zero())


def test_samples_carry_the_fixed_half_of_the_pair(s_aa, rng):
    mu = aa.bracket_of(random_sl3c(rng, 0.5))
    opts = IntegratorOptions(method="rk4", h0=0.01, t_end=0.05, sample_every=2)
    assert all(smp.mu is mu for smp in laplacian_flow(s_aa.phi, mu, opts).samples)
    assert all(smp.phi is s_aa.phi for smp in bracket_flow(mu, s_aa, opts).samples)


def test_laplacian_flow_positivity_loss_is_reported(s_nilpotent, monkeypatch):
    # backward in time the soliton scales to a degenerate form at t = -0.3:
    # h(t) = exp(-s D) up to a scalar, and once cond(h) passes
    # 1 / sqrt(eps) (the metric of phi_nilpotent_example is the identity)
    # phi(t) is no longer definite in floats.  The run ends there, in 194
    # evaluations, not at a step underflow or the step budget
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    calls, _ = record_rk45(monkeypatch)
    traj = laplacian_flow(phi_nilpotent_example(), mu,
                          IntegratorOptions(t_end=-0.31, sample_every=20))
    assert traj.status == "positivity-lost"
    assert -0.31 < traj.final.t < -0.29
    assert len(calls) <= 250


def test_trajectory_samples_satisfy_q_equation(s_nilpotent):
    from g2flow.exterior import theta
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = bracket_flow(mu0, s_nilpotent, IntegratorOptions(t_end=1.0,
                                                            sample_every=10))
    for smp in traj.samples[:3]:
        delta = hodge_laplacian(smp.mu, s_nilpotent, s_nilpotent.phi)
        res = (theta(smp.Q, s_nilpotent.phi) - delta).norm()
        assert res < 1e-8


def test_laplacian_flow_preserves_closedness(s_aa, rng):
    m = random_sl3c(rng, 0.6)
    mu = aa.bracket_of(m)
    traj = laplacian_flow(s_aa.phi, mu, IntegratorOptions(t_end=0.5, sample_every=20))
    for smp in traj.samples:
        assert ce_differential(mu, smp.phi).norm() < 1e-7


def test_reconstruct_both_sides(s_aa, rng):
    mu0 = aa.bracket_of(random_sl3c(rng, 0.8))
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=1.0, sample_every=20))
    rec2 = reconstruct_h(traj, side="ii")
    assert rec2.max_phi_residual < 1e-5 and rec2.max_mu_residual < 1e-5
    rec1 = reconstruct_h(traj, side="i")
    assert rec1.max_phi_residual < 1e-5 and rec1.max_mu_residual < 1e-5
    assert np.abs(rec2.samples[0].h - np.eye(7)).max() < 1e-12


def test_reconstruct_scaling_soliton_acts_by_pure_scaling(s_nilpotent):
    # along the self-similar trajectory the map is diagonal and pushes the
    # bracket to a scalar multiple of itself
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = bracket_flow(mu0, s_nilpotent,
                        IntegratorOptions(t_end=1.0, sample_every=20))
    rec = reconstruct_h(traj, side="ii")
    for smp in rec.samples:
        h = smp.h
        assert np.abs(h - np.diag(np.diag(h))).max() < 1e-8
        pushed = bracket_act(h, mu0.c)
        scale = 1.0 / np.sqrt(1.0 + (10.0 / 3.0) * smp.t)
        assert np.abs(pushed - scale * mu0.c).max() < 1e-6


def test_reconstruct_constant_trajectory_is_matrix_exponential(s_aa, rng):
    # torsion-free fixed point: Q = 0, so h stays the identity
    mu0 = aa.bracket_of(random_su3(rng))
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=0.5, sample_every=10))
    rec = reconstruct_h(traj, side="ii")
    assert max(np.abs(smp.h - np.eye(7)).max() for smp in rec.samples) < 1e-9


def test_reconstruct_samples_as_the_trajectory(s_aa, rng):
    # 100 fixed steps sampled every 30: `drive` adds the final state at
    # t = 1, so the maps are reported at the trajectory's own sample times
    mu0 = aa.bracket_of(random_sl3c(rng, 0.8))
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(method="rk4", h0=1e-2,
                                                     t_end=1.0, sample_every=30))
    rec = reconstruct_h(traj, side="ii")
    assert rec.status == traj.status == "completed"
    assert len(traj.times) == 5
    assert np.array_equal(rec.times, traj.times)
    assert max(rec.max_phi_residual, rec.max_mu_residual) < 1e-5


def test_reconstruct_rejects_normalized_trajectory(s_aa, rng):
    # h(t) links the unnormalized flows; a norm-normalized trajectory is not
    # h(t) . mu0 for the h that reconstruct_h integrates
    mu0 = aa.bracket_of(random_sl3c(rng, 0.8))
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(
        method="rk4", h0=1e-2, t_end=0.1, normalize="unit-bracket-norm"))
    for side in ("i", "ii"):
        with pytest.raises(ValueError):
            reconstruct_h(traj, side=side)


def test_reconstruct_refuses_a_direct_flow_trajectory(s_aa, rng):
    mu = aa.bracket_of(random_sl3c(rng, 0.5))
    traj = laplacian_flow(s_aa.phi, mu, IntegratorOptions(method="rk4", h0=0.01, t_end=0.02))
    for side in ("i", "ii"):
        with pytest.raises(ValueError, match="bracket-flow"):
            reconstruct_h(traj, side=side)


def test_stages_and_samples_take_no_stacked_determinants(monkeypatch):
    # the metric comes from one Cholesky factor of B, the stars and the
    # pullbacks from closed-form minors: no stage or sample of any flow
    # calls np.linalg.det or np.linalg.slogdet, and a stage of the direct
    # velocity (side "ii") takes one Cholesky factor and one inverse, of
    # its gram
    calls = []

    def counted(name):
        f = getattr(np.linalg, name)

        def counting(*args, **kw):
            calls.append(name)
            return f(*args, **kw)
        return counting

    for name in ("det", "slogdet", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    mu0 = mu_nilpotent(1.0, 0.5, -0.3, 0.7)
    phi = act(np.eye(DIM) + 0.1 * np.tri(DIM), phi_canonical())
    one_step = IntegratorOptions(method="rk4", h0=0.01, t_end=0.01)
    # one rk4 step: four right-side evaluations, each sample of the
    # bracket flow and of side "i" a G2Structure with its star, frame and
    # torsion tables
    laplacian_flow(phi, mu0, one_step)
    s = G2Structure(phi)
    traj = bracket_flow(mu0, s, one_step)
    for side in ("i", "ii"):
        reconstruct_h(traj, side=side)
    assert calls and not {"det", "slogdet"} & set(calls)
    velocity = flow._direct_velocity(mu0)
    calls.clear()
    for scale in (1e-3, 1.0, 1e3):
        velocity(scale * phi.coeffs)
    assert sorted(calls) == ["cholesky"] * 3 + ["inv"] * 3


def test_reconstruct_side_i_on_a_pair_that_is_not_closed():
    # dphi != 0 here, so side "i" needs the full q-solve at every stage
    mu0 = mu_nilpotent(1.0, 0.5, -0.3, 0.7)
    s = G2Structure(phi_canonical())
    assert s.metric.form_norm(ce_differential(mu0, s.phi)) > 1.0
    traj = bracket_flow(mu0, s, IntegratorOptions(t_end=0.5))
    rec = reconstruct_h(traj, side="i")
    assert rec.status == "completed"
    assert rec.max_phi_residual < 1e-6 and rec.max_mu_residual < 1e-6


@pytest.mark.parametrize("side", ["i", "ii"])
def test_reconstruct_h_obeys_the_scaling_law(side, s_aa):
    # in scale-free time the maps of 2^k mu at t / 4^k are those of mu at
    # t: h has weight 0, and phi's rate, quadratic in the fixed mu0, is
    # taken at the clock's rate |mu(t)|^-2, so both runs take the same
    # steps in tau, to rounding
    mu = aa.bracket_of(random_sl3c(np.random.default_rng(1), 0.7))
    opts = IntegratorOptions(t_end=0.5, sample_every=1)
    base = reconstruct_h(bracket_flow(mu, s_aa, opts), side=side)
    assert base.status == "completed" and len(base.samples) >= 3
    for k in range(-8, 9):
        s = 2.0 ** k
        run = reconstruct_h(bracket_flow(mu.scale(s), s_aa, replace(opts, t_end=0.5 / s ** 2)),
                            side=side)
        assert run.status == "completed" and len(run.samples) == len(base.samples)
        for a, b in zip(run.samples, base.samples):
            assert a.t * s ** 2 == pytest.approx(b.t, rel=1e-12)
            assert np.abs(a.h - b.h).max() <= 1e-12 * np.abs(b.h).max()


@pytest.mark.parametrize("moved", [False, True])
def test_a_reconstruction_takes_a_few_steps_at_its_tolerance(moved, monkeypatch):
    # in scale-free time, with phi (and on side "i" h too) taken at the
    # clock's rate, a reconstruction to t = 0.5 takes two or three steps
    # (86 to 98 evaluations in t), and its final h is as close to a run at
    # atol = rtol = 1e-13
    mu, phi = aa.bracket_of(random_sl3c(np.random.default_rng(1), 0.7)), aa.phi_almost_abelian()
    if moved:
        h = random_gl7(np.random.default_rng(3))
        mu, phi = mu.act(h), act(h, phi)
    s = G2Structure(phi)
    traj = bracket_flow(mu, s, IntegratorOptions(t_end=0.5))
    ref = bracket_flow(mu, s, IntegratorOptions(t_end=0.5, atol=1e-13, rtol=1e-13))
    calls, _ = record_rk45(monkeypatch)
    for side in ("ii", "i"):
        calls.clear()
        rec = reconstruct_h(traj, side=side)
        assert rec.status == "completed" and rec.final.t == 0.5
        assert len(calls) <= 45
        want = reconstruct_h(ref, side=side).final.h
        assert np.abs(rec.final.h - want).max() <= 1e-9 * np.abs(want).max()


def side_i_stage_by_structure(mu, phi):
    """The oracle for the side-i stage (flow._natural_q): the stage as it
    was before it, a G2Structure of phi, the Laplacian through its fresh
    Hodge stars and its Q solve."""
    st = G2Structure(KForm(3, phi))
    lap = laplacian(mu, st.metric, phi)
    return st.solve_Q(KForm(3, lap)), lap


def test_side_i_stage_is_the_structure_stage(rng):
    # GL(7)-moved canonical forms of both orientations, the moves scaled 1e-3
    # to 1e3, and random antisymmetric constants: Q and Delta are defined
    # without Jacobi
    orientations = set()
    for i, scale in enumerate(np.logspace(-3, 3, 24)):
        h = random_gl7(rng)
        if (np.linalg.det(h) > 0) != (i % 2 == 0):
            h[:, 0] *= -1.0
        phi = act(scale * h, phi_canonical()).coeffs
        c = rng.normal(size=(7, 7, 7))
        mu = LieBracket(c - c.transpose(1, 0, 2), validate=False)
        Q, lap = flow._natural_q(mu, phi)
        Q0, lap0 = side_i_stage_by_structure(mu, phi)
        assert np.abs(Q - Q0).max() <= 1e-12 * np.abs(Q0).max()
        assert np.abs(lap - lap0).max() <= 1e-12 * np.abs(lap0).max()
        orientations.add(metric_from_3form(KForm(3, phi)).orientation)
    assert orientations == {1, -1}


def test_side_i_stage_raises_where_the_structure_stage_raises(rng, monkeypatch):
    stages = (flow._natural_q, side_i_stage_by_structure)
    mu = aa.bracket_of(random_sl3c(rng, 0.5))
    phi = aa.phi_almost_abelian().coeffs
    indefinite = phi_canonical() - 2.0 * KForm.basis((1, 2, 3))
    for coeffs in (KForm.basis((1, 2, 3)).coeffs, np.full(35, np.nan), indefinite.coeffs):
        for stage in stages:
            with pytest.raises(PositivityError):
                stage(mu, coeffs)
    huge = LieBracket(1e200 * mu.c, validate=False)  # Q overflows
    with pytest.raises(NonFiniteState):
        flow._natural_q(huge, phi)
    with pytest.raises(NonFiniteState):
        side_i_stage_by_structure(huge, phi)
    for frame, error in ((lambda phi, g: g.frame(), SingularSystem),
                         (lambda phi, g: np.full((7, 7), np.nan), NonFiniteState)):
        monkeypatch.setattr(g2core, "_adapted_frame", frame)
        for stage in stages:
            with pytest.raises(error, match="misses phi_canonical"):
                stage(mu, phi)


def test_laplacian_of_an_overflowing_bracket_raises(rng):
    # the products overflow inside laplacian, which says so by a typed
    # error and lets no numpy warning escape
    mu = aa.bracket_of(random_sl3c(rng, 0.5))
    phi = aa.phi_almost_abelian()
    huge = LieBracket(1e200 * mu.c, validate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match="Laplacian"):
            laplacian(huge, metric_from_3form(phi), phi.coeffs)


def test_direct_velocity_is_the_laplacian(rng):
    # GL(7)-moved pairs of both orientations, the moves scaled 1e-3 to 1e3:
    # closed almost-abelian pairs, almost-abelian pairs that are not closed,
    # and nilpotent brackets with phi_canonical
    seen = set()
    for i, scale in enumerate(np.logspace(-3, 3, 36)):
        if i % 3 == 0:
            mu, phi = aa.bracket_of(random_sl3c(rng)), aa.phi_almost_abelian()
        elif i % 3 == 1:
            A = rng.normal(size=(6, 6))
            mu = aa.bracket_of(aa.AAMatrix.from_matrix(A - np.trace(A) / 6 * np.eye(6)))
            phi = aa.phi_almost_abelian()
        else:
            mu, phi = mu_nilpotent(*rng.normal(size=4)), phi_canonical()
        h = random_gl7(rng)
        if (np.linalg.det(h) > 0) != (i % 2 == 0):
            h[:, 0] *= -1.0
        mu, phi = mu.act(scale * h), act(scale * h, phi)
        g = metric_from_3form(phi)
        want = laplacian(mu, g, phi.coeffs)
        got = flow._direct_velocity(mu)(phi.coeffs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        seen.add((i % 3, g.orientation))
    assert len(seen) == 6


def test_direct_velocity_raises_where_the_laplacian_raises(rng):
    # off the positive cone, phi out of range, or a Delta that overflows:
    # the same typed error, and no numpy warning
    mu = aa.bracket_of(random_sl3c(rng, 0.5))
    phi = aa.phi_almost_abelian().coeffs
    indefinite = (phi_canonical() - 2.0 * KForm.basis((1, 2, 3))).coeffs
    cases = [(mu, a, PositivityError) for a in (
        KForm.basis((1, 2, 3)).coeffs, np.full(35, np.nan), indefinite, 1e40 * phi, 1e-40 * phi)]
    cases += [(LieBracket(s * mu.c, validate=False), phi, error)
              for s, error in ((1e100, None), (1e160, NonFiniteState), (1e200, NonFiniteState))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bracket, a, error in cases:
            for stage in (flow._direct_velocity(bracket),
                          lambda a: laplacian(bracket, metric_from_3form(KForm(3, a)), a)):
                if error is None:
                    assert np.isfinite(stage(a)).all()
                else:
                    with pytest.raises(error):
                        stage(a)


def test_side_i_stages_build_no_star_and_no_q_map(s_aa, rng, monkeypatch):
    # after a warm run has built the canonical velocity, a side-i stage
    # builds the G2Structure of its form, and no Hodge star or Q map
    traj = bracket_flow(aa.bracket_of(random_sl3c(rng, 0.8)), s_aa,
                        IntegratorOptions(method="rk4", h0=1e-2, t_end=0.05))
    reconstruct_h(traj, side="i")
    calls = []

    def counted(name, f):
        def counting(*args):
            calls.append(name)
            return f(*args)
        return counting

    monkeypatch.setattr(G2Structure, "__init__", counted("stage", G2Structure.__init__))
    monkeypatch.setattr(G2Structure, "solve_Q_matrix",
                        counted("Q map", G2Structure.solve_Q_matrix))
    for module in (exterior, flow, g2core):
        monkeypatch.setattr(module, "hodge_matrix",
                            counted("hodge_matrix", exterior.hodge_matrix))
    assert reconstruct_h(traj, side="i").status == "completed"
    assert calls == ["stage"] * 20  # five rk4 steps


def sample_by_structure(t, mu, st):
    """The oracle for flow._flow_sample: the sample as it was before it read
    the pair in the adapted frame, through the Laplacian with the metric's
    Hodge stars, the structure's Q solve and torsion forms, and metric
    norms."""
    g = st.metric
    delta = KForm(3, laplacian(mu, g, st.phi.coeffs))
    dphi, dpsi = ce_differential(mu, st.phi), ce_differential(mu, st.psi)
    Q = st.solve_Q(delta)
    closed = g.form_norm(dphi) <= flow.CLOSED_TOL * max(1.0, g.form_norm(st.phi))
    R = 1.5 * float(np.trace(Q)) if closed else ricci(mu, g)[1]
    tau = st.torsion_forms(dphi, dpsi).norm
    return FlowSample(t, mu, st.phi, Q, mu.norm(), R, tau, g.form_norm(delta))


def test_sample_is_the_structure_sample(rng):
    # GL(7)-moved pairs of both orientations, the moves scaled 1e-3 to 1e3:
    # closed almost-abelian pairs, almost-abelian pairs that are not closed,
    # and nilpotent brackets with phi_canonical
    seen = set()
    for i, scale in enumerate(np.logspace(-3, 3, 24)):
        if i % 3 == 0:
            mu, phi = aa.bracket_of(random_sl3c(rng)), aa.phi_almost_abelian()
        elif i % 3 == 1:
            A = rng.normal(size=(6, 6))
            mu = aa.bracket_of(aa.AAMatrix.from_matrix(A - np.trace(A) / 6 * np.eye(6)))
            phi = aa.phi_almost_abelian()
        else:
            mu, phi = mu_nilpotent(*rng.normal(size=4)), phi_canonical()
        h = random_gl7(rng)
        if (np.linalg.det(h) > 0) != (i % 2 == 0):
            h[:, 0] *= -1.0
        mu, st = mu.act(scale * h), G2Structure(act(scale * h, phi))
        got, want = _flow_sample(0.5, mu, st), sample_by_structure(0.5, mu, st)
        assert np.abs(got.Q - want.Q).max() <= 1e-12 * np.abs(want.Q).max()
        for x in ("R", "torsion_norm", "velocity_norm"):
            assert abs(getattr(got, x) - getattr(want, x)) <= 1e-12 * abs(getattr(want, x))
        closed = st.metric.form_norm(ce_differential(mu, st.phi)) <= flow.CLOSED_TOL * math.sqrt(7)
        seen.add((st.metric.orientation, closed))
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}


def test_sample_raises_where_the_structure_sample_raises(s_aa, rng):
    huge = LieBracket(1e200 * aa.bracket_of(random_sl3c(rng, 0.5)).c, validate=False)
    for sample in (_flow_sample, sample_by_structure):
        with pytest.raises(NonFiniteState):
            sample(0.0, huge, s_aa)


def test_samples_and_detectors_solve_no_q_and_no_torsion(s_aa, rng, monkeypatch):
    # samples and detectors read Q, torsion and closedness in the adapted
    # frame: once the canonical velocity is built, a bracket-flow run builds
    # the three stars of its velocity (H3 for psi, H4 and H5) and takes no
    # Q solve, torsion forms, metric norm or Laplacian, both detectors take
    # none of these, and a direct-flow run, which integrates the bracket
    # flow of its pair, builds one structure, of phi0, and its three stars,
    # and no more: no sample builds a structure.  Stars are counted
    # wherever a module looks hodge_matrix up
    flow._canonical_velocity()
    calls = []

    def counted(name, f):
        def counting(*args):
            calls.append(name)
            return f(*args)
        return counting

    def star(g, k, build=exterior.hodge_matrix):
        calls.append(f"H{k}")
        return build(g, k)

    monkeypatch.setattr(G2Structure, "solve_Q", counted("solve_Q", G2Structure.solve_Q))
    monkeypatch.setattr(G2Structure, "torsion_forms",
                        counted("torsion_forms", G2Structure.torsion_forms))
    monkeypatch.setattr(exterior.Metric, "form_norm",
                        counted("form_norm", exterior.Metric.form_norm))
    monkeypatch.setattr(flow, "laplacian", counted("laplacian", flow.laplacian))
    monkeypatch.setattr(flow, "G2Structure", counted("G2Structure", G2Structure))
    for module in (exterior, flow, g2core):
        monkeypatch.setattr(module, "hodge_matrix", star)
    mu = aa.bracket_of(random_sl3c(rng, 0.8))
    opts = IntegratorOptions(method="rk4", h0=1e-2, t_end=0.05)
    assert bracket_flow(mu, s_aa, opts).status == "completed"
    assert sorted(calls) == ["H3", "H4", "H5"]
    calls.clear()
    assert detect_algebraic(mu, s_aa).kind != "torsion-free"
    assert detect_semialgebraic(mu, s_aa).kind != "torsion-free"
    assert calls == []
    every_step = IntegratorOptions(method="rk4", h0=1e-2, t_end=0.05, sample_every=1)
    assert len(laplacian_flow(s_aa.phi, mu, every_step).samples) == 6
    assert sorted(calls) == ["G2Structure", "H3", "H4", "H5"]


_sym_embed_49x28 = None


def _sym_basis():
    global _sym_embed_49x28
    if _sym_embed_49x28 is None:
        out = []
        for i in range(DIM):
            for j in range(i, DIM):
                E = np.zeros((DIM, DIM))
                E[i, j] = E[j, i] = 1.0
                out.append(E.reshape(-1))
        _sym_embed_49x28 = np.array(out).T  # 49 x 28
    return _sym_embed_49x28


def _solve_Q_symmetric(phi_coeffs, rhs_coeffs):
    """Q with theta(Q) phi = rhs, assuming Q symmetric for the metric of phi.

    Valid for closed structures, where the vector-type component vanishes;
    this avoids the full splitting construction in inner integration loops.
    """
    g = metric_from_3form(KForm(3, phi_coeffs))
    ginv = np.linalg.inv(g.gram)
    theta_full = np.einsum("jabi,i->jab", _theta_tensor(3),
                           phi_coeffs).reshape(35, 49)
    sym = _sym_basis().reshape(DIM, DIM, 28)
    embed = np.einsum("am,mbn->abn", ginv, sym).reshape(49, 28)
    A = theta_full @ embed
    x, *_ = np.linalg.lstsq(A, rhs_coeffs, rcond=None)
    return (embed @ x).reshape(DIM, DIM)


def test_solve_q_is_the_symmetric_solve_on_closed_forms(s_aa, rng):
    # oracle: on closed forms Q is G-symmetric, so the q-solve must equal the
    # least-squares solve over G-symmetric matrices (the former closed-case
    # solver of reconstruct_h, kept above as it was)
    mu = aa.bracket_of(random_sl3c(rng, 0.6))
    traj = laplacian_flow(s_aa.phi, mu, IntegratorOptions(h0=1e-3, t_end=0.5, sample_every=2))
    assert len(traj.samples) > 3
    for smp in traj.samples:
        st = G2Structure(smp.phi)
        delta = hodge_laplacian(mu, st, st.phi)
        Q = st.solve_Q(delta)
        scale = max(1.0, float(np.abs(Q).max()))
        want = _solve_Q_symmetric(smp.phi.coeffs, delta.coeffs)
        assert np.abs(Q - want).max() < 1e-10 * scale
        assert np.abs(Q - st.metric.transpose(Q)).max() < 1e-10 * scale


def test_matrix_flow_matches_bracket_flow(s_aa, rng):
    # the 6x6 reduction and the 7-dimensional bracket flow, run through the
    # same sampling loop with the same fixed steps, are one flow
    opts = IntegratorOptions(method="rk4", h0=1e-2, t_end=1.0)
    for _ in range(3):
        m = random_sl3c(rng)
        small = aa.matrix_bracket_flow(m, opts)
        full = bracket_flow(aa.bracket_of(m), s_aa, opts)
        assert small.status == full.status == "completed"
        assert np.array_equal(small.times, full.times)
        for a, b in zip(small.samples, full.samples):
            assert abs(a.R - b.R) < 1e-12 * max(1.0, abs(b.R))
            assert abs(a.norm_mu - b.norm_mu) < 1e-12 * max(1.0, b.norm_mu)


def test_tau_is_gl7_invariant(s_aa, rng):
    # |tau| is the norm in the metric of phi, so moving the pair keeps it
    A = rng.normal(size=(6, 6))
    A -= np.trace(A) / 6 * np.eye(6)
    for m in (random_sl3c(rng), aa.AAMatrix.from_matrix(A)):  # closed, and not
        mu = aa.bracket_of(m)
        h = random_gl7(rng)
        want = _flow_sample(0.0, mu, s_aa).torsion_norm
        got = _flow_sample(0.0, mu.act(h), G2Structure(act(h, s_aa.phi))).torsion_norm
        assert abs(got - want) <= 1e-12 * want


def test_tau_agrees_across_the_three_flows(s_aa, rng):
    # the bracket, direct and 6x6 flows of one closed pair are one flow up to
    # GL(7), and |tau| does not see the difference
    opts = IntegratorOptions(method="rk4", h0=1e-2, t_end=1.0)
    for _ in range(2):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        runs = (bracket_flow(mu, s_aa, opts), laplacian_flow(s_aa.phi, mu, opts),
                aa.matrix_bracket_flow(m, opts))
        assert all(np.array_equal(r.times, runs[0].times) for r in runs)
        for a, b, c in zip(*(r.samples for r in runs)):
            assert abs(a.torsion_norm - b.torsion_norm) < 1e-6
            assert abs(a.torsion_norm - c.torsion_norm) < 1e-6


def test_tau_decreases_along_the_closed_direct_flow(s_aa, rng):
    # closed case: R = -|tau|^2 / 2, and |tau| strictly decreases; sampled
    # at every step, as a run to t = 1 may take only three
    mu = aa.bracket_of(random_sl3c(rng))
    traj = laplacian_flow(s_aa.phi, mu, IntegratorOptions(t_end=1.0, sample_every=1))
    assert traj.status == "completed" and len(traj.samples) > 3
    for smp in traj.samples:
        assert abs(smp.R + 0.5 * smp.torsion_norm ** 2) <= 1e-10 * max(1.0, abs(smp.R))
    taus = [smp.torsion_norm for smp in traj.samples]
    assert all(b < a for a, b in zip(taus, taus[1:]))


def test_matrix_flow_rejects_normalization(rng):
    with pytest.raises(ValueError):
        aa.matrix_bracket_flow(random_sl3c(rng),
                               IntegratorOptions(normalize="unit-bracket-norm"))


def test_detect_algebraic_example(s_nilpotent):
    cert = detect_algebraic(mu_nilpotent(1.0, 0.0, 0.0, 1.0), s_nilpotent)
    assert cert.kind == "algebraic" and cert.label == "expanding"
    assert abs(cert.c + 5.0 / 3.0) < 1e-10
    assert np.abs(cert.D - np.diag([1, 1, 1, 2, 2, 2, 2.0])).max() < 1e-8


def test_detect_torsion_free(s_aa, rng):
    cert = detect_algebraic(aa.bracket_of(random_su3(rng)), s_aa)
    assert cert.kind == "torsion-free" and cert.label == "steady"
    assert cert.residual < 1e-9


def test_soliton_labels_follow_the_sign_of_c():
    # Q = c I + D rescales by -3c: steady for |c| <= 1e-12 |Q|, expanding
    # below, shrinking above
    for c, label in [(0.0, "steady"), (1e-12, "steady"), (-1e-12, "steady"),
                     (-2e-12, "expanding"), (-5.0, "expanding"),
                     (2e-12, "shrinking"), (5.0, "shrinking")]:
        assert flow._soliton_label(c, 1.0) == label, c
    assert flow._soliton_label(1e-3, 1e9) == "steady"


def test_detect_algebraic_rejects_rotating_soliton(s_aa):
    mu = aa.bracket_of(aa.AAMatrix.from_complex(aa_n6_soliton()))
    cert = detect_algebraic(mu, s_aa)
    Q = s_aa.solve_Q(aa.laplacian_phi(aa.AAMatrix.from_complex(aa_n6_soliton())))
    assert cert.kind == "none"
    assert cert.residual / max(1.0, np.linalg.norm(Q)) > 0.1


def test_detect_semialgebraic_on_rotating_soliton(s_aa):
    m = aa.AAMatrix.from_complex(aa_n6_soliton())
    mu = aa.bracket_of(m)
    cert = detect_semialgebraic(mu, s_aa)
    assert cert.kind == "semi-algebraic" and cert.label == "expanding"
    assert abs(cert.c + 3.0) < 1e-9
    assert cert.skew is not None and np.abs(cert.skew + cert.skew.T).max() < 1e-12


def test_detect_semialgebraic_requires_closed(s_aa, rng):
    A = rng.normal(size=(6, 6))
    A -= np.trace(A) / 6 * np.eye(6)
    mu = aa.bracket_of(aa.AAMatrix.from_matrix(A))
    with pytest.raises(NotClosed):
        detect_semialgebraic(mu, s_aa)


def test_detectors_agree_on_algebraic_solitons(s_nilpotent):
    mu = mu_nilpotent(0.8, -0.4, 0.4, 0.8)
    ca = detect_algebraic(mu, s_nilpotent)
    cs = detect_semialgebraic(mu, s_nilpotent)
    assert ca.kind == "algebraic" and cs.kind == "semi-algebraic"
    assert abs(ca.c - cs.c) < 1e-8


def test_random_non_soliton_detects_none(s_aa, rng):
    for _ in range(5):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        assert detect_algebraic(mu, s_aa).kind == "none"
        assert detect_semialgebraic(mu, s_aa).kind == "none"


def test_semialgebraic_normalized_flow_law(s_aa):
    # mu(t)/|mu(t)| = e^{s(t) A'} . mu0/|mu0| along the rotating soliton
    m = aa.AAMatrix.from_complex(aa_n6_soliton())
    mu0 = aa.bracket_of(m)
    cert = detect_semialgebraic(mu0, s_aa)
    c = cert.c
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=3.0, sample_every=20))
    worst = 0.0
    for smp in traj.samples:
        s_t = -math.log(-2 * c * smp.t + 1) / (2 * c)
        rot = expm(s_t * cert.skew)
        want = bracket_act(rot, mu0.c) / mu0.norm()
        got = smp.mu.c / smp.norm_mu
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-5


def test_normalized_flow_of_rotating_soliton_is_periodic():
    # the abstract's periodic orbit in closed form:
    # mu(tau) = cos(tau/sqrt2) mu_A + sin(tau/sqrt2) mu_A-perp, period 2 sqrt2 pi
    mu_a = aa.bracket_of(aa.AAMatrix.from_complex(aa_n6_soliton()))
    mu_perp = aa.bracket_of(aa.AAMatrix.from_complex(aa_n6_soliton_partner()))
    traj = bracket_flow(mu_a, aa.structure(), IntegratorOptions(
        method="rk45", atol=1e-11, rtol=1e-11, t_end=2.0, sample_every=5,
        normalize="unit-bracket-norm"))
    assert traj.status == "completed" and traj.samples[-1].t == 2.0
    for smp in traj.samples:
        w = smp.t / math.sqrt(2.0)
        want = math.cos(w) * mu_a.c + math.sin(w) * mu_perp.c
        assert np.abs(smp.mu.c - want).max() < 1e-8, smp.t
        assert abs(smp.norm_mu - mu_a.norm()) < 1e-8, smp.t


def test_lf_diagonal_cases(s_nilpotent, s_aa):
    tr_alg = bracket_flow(mu_nilpotent(1.0, 0.0, 0.0, 1.0), s_nilpotent,
                          IntegratorOptions(t_end=2.0, sample_every=10))
    assert lf_diagonal_test(tr_alg)
    tr_const = bracket_flow(LieBracket.zero(), s_nilpotent,
                            IntegratorOptions(t_end=1.0, sample_every=10))
    assert lf_diagonal_test(tr_const)
    mu = aa.bracket_of(aa.AAMatrix.from_complex(aa_n6_soliton()))
    tr_rot = bracket_flow(mu, s_aa, IntegratorOptions(t_end=2.0, sample_every=10))
    assert not lf_diagonal_test(tr_rot)


def test_step_underflow_raised():
    def stiff(t, y):
        return np.array([1e12 * math.cos(1e12 * t)])

    with pytest.raises(StepUnderflow):
        for _ in rk45_in_t(stiff, np.zeros(1), 1.0, 1e-3, 1e-6, math.inf, 1e-12, 1e-12):
            pass


def test_rk45_reuses_the_last_stage():
    # first-same-as-last: the derivative at an accepted state is the next
    # step's first stage, and a rejected step keeps it; so every attempted
    # step costs the eleven evaluations at t_n + c_i hh of the nodes
    # c_2..c_12, an accepted one one more, at its new t, and none is at t_n;
    # a last step that lands on t_end by the continuous extension three more
    calls = []

    def decay(t, y):
        calls.append(t)
        return -y

    steps = list(rk45_in_t(decay, np.ones(1), 2.0, 0.5, 1e-12, math.inf, 1e-10, 1e-10))
    times = [t for t, _ in steps]
    assert calls[0] == 0.0
    attempts, rejected, landed = rk45_attempts(calls[1:], times)
    assert rejected >= 1
    assert len(calls) == 1 + 11 * attempts + len(steps) - 1 + 3 * landed
    assert times[-1] == 2.0
    assert abs(steps[-1][1][0] - math.exp(-2.0)) < 1e-9


def _rk45_stage_list(f, y0, t1, h0, tol):
    """Reference Dormand-Prince 8(5,3) stepper with the stages in a Python
    list, from t = 0 with atol = rtol = tol: yields (t, y) per accepted
    step."""
    t, y = 0.0, np.array(y0, dtype=float)
    h = min(h0, t1)
    yield t, y
    k1 = f(t, y)
    while t1 - t > 1e-15 * max(1.0, t1):
        h = min(h, t1 - t)
        k = [k1]
        for i in range(1, 12):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DOP_A[i, :i]))
            k.append(f(t + _DOP_C[i] * h, yi))
        y_new = y + h * sum(b * kj for b, kj in zip(_DOP_A[12], k))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        s3, s5 = (float(np.sum((sum(e * kj for e, kj in zip(E, k)) / scale) ** 2))
                  for E in (_DOP_E3, _DOP_E5))
        err = 0.0 if s5 == 0.0 else h * s5 / math.sqrt((s5 + 0.01 * s3) * y.size)
        if err <= 1.0:
            t, y = t + h, y_new
            k1 = f(t, y)
            yield t, y
            h = h * (10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125))
        else:
            h = h * max(0.2, 0.9 * err ** -0.125)


def _counted(f):
    calls = []

    def g(t, y):
        calls.append(t)
        return f(t, y)

    return g, calls


@pytest.mark.parametrize("flow", ["matrix", "bracket"])
def test_rk45_stage_array_matches_the_stage_list(flow, rng, s_aa):
    # both step y' = f(t, y) in t as the scale-free state of in_t, z = (y,
    # 0, t), so that both error tests read the same components: the same
    # accepted steps and evaluations, and the same states up to rounding.
    # The error estimate cancels to about tol of the stages' size, so
    # rounding in the stages moves each step size by about eps / tol
    # relative; a state is compared after moving it to the reference's time
    # along f.  The last step differs by design: rk45_steps caps it a little
    # past t1 and lands on t1 by its continuous extension, where the
    # reference steps to t1, so the two end at t1 within the tolerance
    m = random_sl3c(rng)
    if flow == "matrix":
        y0, t1 = m.A.reshape(-1), 5.0

        def f(t, y):
            return aa.flow_rhs(y.reshape(6, 6)).reshape(-1)
    else:
        velocity = _bracket_velocity(s_aa)
        y0, t1 = aa.bracket_of(m).packed().reshape(-1), 2.0

        def f(t, y):
            return velocity(y)[1]
    assert y0.size == (36 if flow == "matrix" else 147)
    f_new, calls_new = _counted(f)
    f_ref, calls_ref = _counted(f)
    # (t, y, evaluations so far) per accepted step
    got = [(t, y, len(calls_new))
           for t, y in rk45_in_t(f_new, y0, t1, 1e-3, 1e-12, math.inf, 1e-9, 1e-9)]
    want = [(t, z[:-2], len(calls_ref)) for t, z in _rk45_stage_list(
        in_t(f_ref), np.concatenate([y0, (0.0, 0.0)]), t1, 1e-3, 1e-9)]
    assert len(got) == len(want) > 10
    for (t, y, n), (t_ref, y_ref, n_ref) in zip(got[:-1], want[:-1]):
        assert n == n_ref
        assert abs(t - t_ref) <= 1e-8 * t1
        moved = y - (t - t_ref) * f(t_ref, y_ref)
        assert np.abs(moved - y_ref).max() <= 1e-12 * np.abs(y_ref).max()
    steps = np.diff([t for t, *_ in got[:-1]])
    steps_ref = np.diff([t for t, *_ in want[:-1]])
    assert np.abs(steps / steps_ref - 1).max() <= 1e-8
    (t, y, _), (t_ref, y_ref, _) = got[-1], want[-1]
    assert t == t1 and abs(t_ref - t1) <= 1e-15 * t1
    assert np.abs(y - y_ref).max() <= 1e-8 * np.abs(y_ref).max()


def test_step_budget_stops_the_run(s_nilpotent):
    # 100 fixed steps reach t = 1; a budget of 10 stops at t = 0.1 and
    # samples the state reached there
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    opts = IntegratorOptions(method="rk4", h0=0.01, t_end=1.0, sample_every=4,
                             max_steps=10)
    traj = bracket_flow(mu0, s_nilpotent, opts)
    assert traj.status == "step-budget-exhausted"
    assert np.allclose(traj.times, [0.0, 0.04, 0.08, 0.1], rtol=0, atol=1e-15)
    full = bracket_flow(mu0, s_nilpotent, replace(opts, max_steps=100))
    assert full.status == "completed" and abs(full.times[-1] - 1.0) < 1e-15
    assert np.array_equal(full.samples[2].mu.c, traj.samples[2].mu.c)
