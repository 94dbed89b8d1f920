import math

import numpy as np
import pytest
from scipy.linalg import expm

from g2flow import almostabelian as aa
from g2flow.corpus import (
    aa_n6_soliton,
    mu_nilpotent,
    phi_nilpotent_example,
)
from g2flow.errors import NotClosed, StepUnderflow
from g2flow.exterior import pullback_matrix
from g2flow.flow import (
    IntegratorOptions,
    bracket_flow,
    detect_algebraic,
    detect_semialgebraic,
    laplacian_flow,
    lf_diagonal_test,
    reconstruct_h,
)
from g2flow.integrate import rk45_steps
from g2flow.liealg import LieBracket, bracket_act

from conftest import random_sl3c, random_su3


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(h0=1.0, hmax=0.5)
    with pytest.raises(ValueError):
        IntegratorOptions(atol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(method="euler")


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
    assert max(s.jacobi for s in traj.samples) < 1e-7


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


def test_laplacian_flow_constant_for_abelian(s_nilpotent):
    phi = phi_nilpotent_example()
    traj = laplacian_flow(phi, LieBracket.zero(),
                          IntegratorOptions(t_end=1.0, sample_every=10))
    assert traj.status == "completed"
    assert max((s.phi - phi).norm() for s in traj.samples) == 0.0


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


def test_laplacian_flow_positivity_loss_is_blowup(s_nilpotent):
    # backward in time the soliton scales to a degenerate form
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = laplacian_flow(phi_nilpotent_example(), mu,
                          IntegratorOptions(t_end=-0.31, sample_every=20))
    assert traj.status in ("blowup-detected", "step-underflow")


def test_trajectory_samples_satisfy_q_equation(s_nilpotent):
    from g2flow.exterior import theta
    from g2flow.liealg import hodge_laplacian
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = bracket_flow(mu0, s_nilpotent, IntegratorOptions(t_end=1.0,
                                                            sample_every=10))
    for smp in traj.samples[:3]:
        delta = hodge_laplacian(smp.mu, s_nilpotent, s_nilpotent.phi)
        res = (theta(smp.Q, s_nilpotent.phi) - delta).norm()
        assert res < 1e-8


def test_laplacian_flow_preserves_closedness(s_aa, rng):
    from g2flow.liealg import ce_differential
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
    assert np.abs(rec2.h[0] - np.eye(7)).max() < 1e-12


def test_reconstruct_scaling_soliton_acts_by_pure_scaling(s_nilpotent):
    # along the self-similar trajectory the map is diagonal and pushes the
    # bracket to a scalar multiple of itself
    mu0 = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = bracket_flow(mu0, s_nilpotent,
                        IntegratorOptions(t_end=1.0, sample_every=20))
    rec = reconstruct_h(traj, side="ii")
    for t, h in zip(rec.times, rec.h):
        assert np.abs(h - np.diag(np.diag(h))).max() < 1e-8
        pushed = bracket_act(h, mu0.c)
        scale = 1.0 / np.sqrt(1.0 + (10.0 / 3.0) * t)
        assert np.abs(pushed - scale * mu0.c).max() < 1e-6


def test_reconstruct_constant_trajectory_is_matrix_exponential(s_aa, rng):
    # torsion-free fixed point: Q = 0, so h stays the identity
    mu0 = aa.bracket_of(random_su3(rng))
    traj = bracket_flow(mu0, s_aa, IntegratorOptions(t_end=0.5, sample_every=10))
    rec = reconstruct_h(traj, side="ii")
    assert max(np.abs(h - np.eye(7)).max() for h in rec.h) < 1e-9


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
        for _ in rk45_steps(stiff, np.zeros(1), 0.0, 1.0, 1e-3, 1e-6, math.inf,
                            1e-12, 1e-12):
            pass
