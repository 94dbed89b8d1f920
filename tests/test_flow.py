import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm

from g2flow import almostabelian as aa
from g2flow.corpus import (
    aa_n6_soliton,
    aa_n6_soliton_partner,
    mu_nilpotent,
    phi_nilpotent_example,
)
from g2flow.errors import NotClosed, PositivityError, StepUnderflow
from g2flow.exterior import DIM, KForm, _theta_tensor, act, hodge_star, phi_canonical, pullback_matrix
from g2flow.flow import (
    IntegratorOptions,
    _bracket_velocity,
    bracket_flow,
    detect_algebraic,
    detect_semialgebraic,
    laplacian,
    laplacian_flow,
    lf_diagonal_test,
    reconstruct_h,
)
from g2flow.g2core import G2Structure, metric_from_3form
from g2flow.integrate import rk45_steps
from g2flow.liealg import (
    LieBracket,
    bracket_act,
    ce_differential,
    delta_mu,
    pack_constants,
)

from conftest import hodge_laplacian, random_sl3c, random_su3


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(h0=1.0, hmax=0.5)
    with pytest.raises(ValueError):
        IntegratorOptions(atol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(method="euler")
    with pytest.raises(ValueError):
        IntegratorOptions(max_steps=0)


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
    Q, vel = _bracket_velocity(s)(mu.packed().reshape(-1))
    lap = laplacian(mu, s.metric, s.phi.coeffs)[0]
    assert np.array_equal(lap, hodge_laplacian(mu, s, s.phi).coeffs)
    want_Q = s.solve_Q(KForm(3, lap))
    want = pack_constants(delta_mu(mu, want_Q)).reshape(-1)
    assert np.abs(Q - want_Q).max() <= 1e-12 * np.abs(want_Q).max()
    assert np.abs(vel - want).max() <= 1e-12 * np.abs(want).max()


@given(pair=_bracket_pairs(),
       a=st.lists(st.floats(-1.0, 1.0), min_size=35, max_size=35))
def test_laplacian_is_the_object_chain(pair, a):
    # the one fixed-bracket Laplacian makes the object chain's products in
    # the same order, so the two agree bit for bit; its differentials are
    # d a and d *a, and the bare metric of phi gives the structure's result
    mu, phi = pair
    s = G2Structure(phi)
    a = KForm(3, a)
    lap, da, dsa = laplacian(mu, s.metric, a.coeffs)
    assert np.array_equal(lap, hodge_laplacian(mu, s, a).coeffs)
    assert np.array_equal(da, ce_differential(mu, a).coeffs)
    assert np.array_equal(dsa, ce_differential(mu, hodge_star(a, s.metric)).coeffs)
    bare = laplacian(mu, metric_from_3form(phi), a.coeffs)
    assert all(np.array_equal(x, y) for x, y in zip(bare, (lap, da, dsa)))


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


def test_laplacian_flow_positivity_loss_is_reported(s_nilpotent):
    # backward in time the soliton scales to a degenerate form
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    traj = laplacian_flow(phi_nilpotent_example(), mu,
                          IntegratorOptions(t_end=-0.31, sample_every=20))
    assert traj.status in ("positivity-lost", "step-underflow")


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
    # the metric, the stars and the pullbacks come from closed-form minors:
    # np.linalg.det only ever sees single 7x7 matrices
    ndims = []
    det = np.linalg.det

    def counting_det(a):
        ndims.append(np.ndim(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    mu0 = mu_nilpotent(1.0, 0.5, -0.3, 0.7)
    phi = act(np.eye(DIM) + 0.1 * np.tri(DIM), phi_canonical())
    one_step = IntegratorOptions(method="rk4", h0=0.01, t_end=0.01)
    # one rk4 step: four right-side evaluations, each sample a G2Structure
    # with its star, frame and torsion tables
    laplacian_flow(phi, mu0, one_step)
    s = G2Structure(phi)
    traj = bracket_flow(mu0, s, one_step)
    for side in ("i", "ii"):
        reconstruct_h(traj, side=side)
    assert ndims and set(ndims) == {2}


def test_reconstruct_side_i_on_a_pair_that_is_not_closed():
    # dphi != 0 here, so side "i" needs the full q-solve at every stage
    mu0 = mu_nilpotent(1.0, 0.5, -0.3, 0.7)
    s = G2Structure(phi_canonical())
    assert s.metric.form_norm(ce_differential(mu0, s.phi)) > 1.0
    traj = bracket_flow(mu0, s, IntegratorOptions(t_end=0.5))
    rec = reconstruct_h(traj, side="i")
    assert rec.status == "completed"
    assert rec.max_phi_residual < 1e-6 and rec.max_mu_residual < 1e-6


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
    traj = laplacian_flow(s_aa.phi, mu, IntegratorOptions(t_end=0.5, sample_every=5))
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
        for _ in rk45_steps(stiff, np.zeros(1), 0.0, 1.0, 1e-3, 1e-6, math.inf,
                            1e-12, 1e-12):
            pass


def test_rk45_reuses_the_last_stage():
    # first-same-as-last: the derivative at an accepted state, the input of
    # the step's last stage, is the next step's first stage, and a rejected
    # step keeps it; so every attempted step costs the six evaluations at
    # t_n + c_i hh of the nodes c_2..c_7, and none at t_n
    nodes = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    calls = []

    def decay(t, y):
        calls.append(t)
        return -y

    steps = list(rk45_steps(decay, np.ones(1), 0.0, 2.0, 0.5, 1e-12, math.inf,
                            1e-10, 1e-10))
    times = [t for t, _ in steps]
    assert calls[0] == 0.0 and (len(calls) - 1) % 6 == 0
    accepted = rejected = 0
    t_n = 0.0
    for n in range(1, len(calls), 6):
        stage_t = np.array(calls[n:n + 6])
        hh = stage_t[-1] - t_n
        assert np.abs(stage_t - (t_n + nodes * hh)).max() < 1e-15
        if stage_t[-1] == times[accepted + 1]:
            accepted += 1
            t_n = stage_t[-1]
        else:
            rejected += 1
    assert accepted == len(steps) - 1 and rejected >= 1
    assert len(calls) == 1 + 6 * (accepted + rejected)
    assert times[-1] == 2.0
    assert abs(steps[-1][1][0] - math.exp(-2.0)) < 1e-9


_DP_STAGES = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_ERROR = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]) \
    - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])


def _rk45_stage_list(f, y0, t1, h0, tol):
    """Reference Dormand-Prince stepper with the stages in a Python list,
    from t = 0 with atol = rtol = tol: yields (t, y) per accepted step."""
    t, y = 0.0, np.array(y0, dtype=float)
    h = min(h0, t1)
    yield t, y
    k1 = f(t, y)
    nodes = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
    while t1 - t > 1e-15 * max(1.0, t1):
        h = min(h, t1 - t)
        k = [k1]
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_STAGES[i]))
            k.append(f(t + nodes[i] * h, yi))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(yi))
        err = math.sqrt(float(np.mean((h * (_DP_ERROR @ np.array(k)) / scale) ** 2)))
        if err <= 1.0:
            t, y, k1 = t + h, yi, k[6]
            yield t, y
            h = h * (5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2))
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)


def _counted(f):
    calls = []

    def g(t, y):
        calls.append(t)
        return f(t, y)

    return g, calls


@pytest.mark.parametrize("flow", ["matrix", "bracket"])
def test_rk45_stage_array_matches_the_stage_list(flow, rng, s_aa):
    # same accepted steps and evaluations, and the same states up to
    # rounding.  The error estimate cancels to about tol of the stages'
    # size, so rounding in the stages moves each step size by about
    # eps / tol relative; a state is compared after moving it to the
    # reference's time along f
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
    got = list(rk45_steps(f_new, y0, 0.0, t1, 1e-3, 1e-12, math.inf, 1e-9, 1e-9))
    want = list(_rk45_stage_list(f_ref, y0, t1, 1e-3, 1e-9))
    assert len(got) == len(want) > 10
    assert len(calls_new) == len(calls_ref)
    for (t, y), (t_ref, y_ref) in zip(got, want):
        assert abs(t - t_ref) <= 1e-8 * t1
        moved = y - (t - t_ref) * f(t_ref, y_ref)
        assert np.abs(moved - y_ref).max() <= 1e-12 * np.abs(y_ref).max()
    steps = np.diff([t for t, _ in got])
    steps_ref = np.diff([t for t, _ in want])
    assert np.abs(steps / steps_ref - 1).max() <= 1e-8


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
