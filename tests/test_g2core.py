import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from g2flow import almostabelian as aa
from g2flow.corpus import mu_nilpotent, phi_nilpotent_example
from g2flow.errors import ComponentError, InconsistentTorsion, PositivityError
from g2flow.exterior import (KForm, act, hodge_star, interior, phi_canonical, skew_from_form,
                             theta, wedge)
from g2flow.g2core import G2Structure, induced_bilinear, metric_from_3form
from g2flow.liealg import LieBracket, bracket_act, ce_differential, ricci

from conftest import hodge_laplacian, random_gl7, random_kform, random_positive_form, random_sl3c


def test_induced_bilinear_is_its_definition(rng):
    # B(u, v) e^{1..7} = (1/6) i_u(phi) ^ i_v(phi) ^ phi, one wedge at a time
    for phi in (phi_canonical(), random_positive_form(rng), random_kform(rng, 3)):
        ip = [interior(u, phi) for u in np.eye(7)]
        want = np.array([[wedge(wedge(a, b), phi).coeffs[0] / 6.0 for b in ip] for a in ip])
        assert np.abs(induced_bilinear(phi) - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_metric_recovery_canonical():
    g = metric_from_3form(phi_canonical())
    assert np.abs(g.gram - np.eye(7)).max() < 1e-12
    assert (g.volume_form() - KForm.volume(1.0)).norm() < 1e-12


def test_metric_recovery_nilpotent_example_form():
    g = metric_from_3form(phi_nilpotent_example())
    assert np.abs(g.gram - np.eye(7)).max() < 1e-10


def test_degenerate_form_raises():
    with pytest.raises(PositivityError):
        metric_from_3form(KForm.basis((1, 2, 3)))


def test_non_finite_form_raises():
    coeffs = phi_canonical().coeffs.copy()
    coeffs[0] = np.nan
    with pytest.raises(PositivityError, match="finite"):
        G2Structure(KForm(3, coeffs))


def test_metric_equivariance(rng):
    phi = phi_canonical()
    for _ in range(8):
        h = random_gl7(rng)
        g1 = metric_from_3form(act(h, phi))
        hinv = np.linalg.inv(h)
        want = hinv.T @ np.eye(7) @ hinv
        assert np.abs(g1.gram - want).max() < 1e-8 * np.abs(want).max()


def test_negative_orientation_forms_are_handled(rng):
    h = random_gl7(rng)
    if np.linalg.det(h) > 0:
        h = h.copy()
        h[:, 0] *= -1.0
    phi = act(h, phi_canonical())
    s = G2Structure(phi)
    assert s.metric.orientation == -1
    assert (hodge_star(hodge_star(s.phi, s.metric), s.metric) - s.phi).norm() < 1e-9


def test_splitting_dimensions():
    s = G2Structure(phi_canonical())
    g2b, qb, q1, q7, q27 = s.g2_basis, s.q_basis, s.q1_basis, s.q7_basis, s.q27_basis
    assert (len(g2b), len(qb), len(q1), len(q7), len(q27)) == (14, 35, 1, 7, 27)


def test_g2_basis_annihilates_phi(s_canonical):
    worst = max(theta(X, s_canonical.phi).norm() for X in s_canonical.g2_basis)
    assert worst < 1e-12


def test_g2_orthogonal_to_q(s_canonical):
    worst = max(abs(np.sum(X * Y)) for X in s_canonical.g2_basis
                for Y in s_canonical.q_basis)
    assert worst < 1e-12


def test_q27_symmetric_trace_free(s_canonical):
    for X in s_canonical.q27_basis:
        assert np.abs(X - X.T).max() < 1e-12
        assert abs(np.trace(X)) < 1e-12


def test_q7_matches_cross_product_matrices(s_canonical):
    # v |-> [v_ij] with v_ij = sum_k eps_ijk v_k spans the same 7-dim space
    phi = s_canonical.phi
    cross = []
    for k in range(7):
        X = np.zeros((7, 7))
        for i in range(7):
            for j in range(7):
                X[i, j] = phi.coeff((i + 1, j + 1, k + 1))
        cross.append(X.reshape(-1))
    cross = np.array(cross)
    q7 = np.array([X.reshape(-1) for X in s_canonical.q7_basis])
    # projections onto each other's span are the identity on the span
    proj = q7 @ np.linalg.pinv(q7)
    for row in cross:
        coeff = np.linalg.lstsq(q7.T, row, rcond=None)[0]
        assert np.linalg.norm(q7.T @ coeff - row) < 1e-9 * np.linalg.norm(row)
    del proj


def test_solve_q_linearity_and_identity(s_canonical):
    s = s_canonical
    assert np.abs(s.solve_Q(KForm.zero(3))).max() < 1e-12
    c = 0.37
    Q = s.solve_Q(-3 * c * s.phi)
    assert np.abs(Q - c * np.eye(7)).max() < 1e-11


def test_solve_q_nilpotent_example(s_nilpotent):
    psi = KForm.from_terms(3, {(1, 2, 3): 2.0})
    Q = s_nilpotent.solve_Q(psi)
    want = np.diag([-2, -2, -2, 1, 1, 1, 1]) / 3.0
    assert np.abs(Q - want).max() < 1e-10


def test_solve_q_round_trip(s_canonical, rng):
    s = s_canonical
    for _ in range(50):
        coeffs = rng.normal(size=35)
        Q0 = sum(c * X for c, X in zip(coeffs, s.q_basis))
        psi = theta(Q0, s.phi)
        Q1 = s.solve_Q(psi)
        assert np.abs(Q1 - Q0).max() < 1e-10 * max(1.0, np.abs(Q0).max())


def test_solve_q_on_random_positive_forms(rng):
    for _ in range(3):
        s = G2Structure(random_positive_form(rng))
        coeffs = rng.normal(size=35)
        Q0 = sum(c * X for c, X in zip(coeffs, s.q_basis))
        psi = theta(Q0, s.phi)
        assert np.abs(s.solve_Q(psi) - Q0).max() < 1e-8 * max(1.0, np.abs(Q0).max())


def test_solve_q_singular_system_surfaces(s_canonical):
    import copy

    from g2flow.errors import SingularSystem
    broken = copy.copy(s_canonical)
    broken._solve_op = np.zeros((49, 35))  # solves nothing: the residual check fires
    with pytest.raises(SingularSystem):
        broken.solve_Q(s_canonical.phi)
    with pytest.raises(SingularSystem):
        s_canonical.solve_Q(KForm(3, np.full(35, np.nan)))


def test_iop_identity(s_canonical):
    got = s_canonical.iop(np.eye(7))
    assert (got - 6.0 * s_canonical.phi).norm() < 1e-12


def test_jop_iop_composition(s_canonical, rng):
    s = s_canonical
    for _ in range(20):
        X = rng.normal(size=(7, 7))
        h = 0.5 * (X + X.T)
        got = s.jop(s.iop(h))
        want = 8.0 * h + 4.0 * np.trace(h) * np.eye(7)
        assert np.abs(got - want).max() < 1e-9


def test_jop_vanishes_on_vector_type(s_canonical):
    s = s_canonical
    for X in s.q7_basis:
        psi = theta(X, s.phi)
        assert np.abs(s.jop(psi)).max() < 1e-10
        with pytest.raises(ComponentError):
            s.jop(psi, strict=True)


def test_torsion_zero_for_torsion_free(s_canonical):
    tf = s_canonical.torsion_forms(KForm.zero(4), KForm.zero(5))
    assert tf.total_norm() < 1e-12


def test_torsion_closed_case_display(s_nilpotent):
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    s = s_nilpotent
    dphi = ce_differential(mu, s.phi)
    dpsi = ce_differential(mu, s.psi)
    assert dphi.norm() < 1e-14
    tf = s.torsion_forms(dphi, dpsi)
    assert abs(tf.tau0) < 1e-10 and tf.tau1.norm() < 1e-10 and tf.tau3.norm() < 1e-10
    want = KForm.from_terms(2, {(3, 5): -1.0, (2, 6): 1.0})
    assert (tf.tau2 - want).norm() < 1e-10
    # matrix form matches the skew operator convention
    M = skew_from_form(tf.tau2)
    minus_star_d_star = -hodge_star(ce_differential(mu, hodge_star(s.phi, s.metric)), s.metric)
    assert (tf.tau2 - minus_star_d_star).norm() < 1e-10
    assert np.abs(M + M.T).max() < 1e-12


def test_torsion_reconstruction_general_case(s_aa, rng):
    # non-closed sample: trace-free but not sl(3,C)
    A = rng.normal(size=(6, 6))
    A -= np.trace(A) / 6 * np.eye(6)
    mu = aa.bracket_of(aa.AAMatrix.from_matrix(A))
    s = s_aa
    dphi = ce_differential(mu, s.phi)
    dpsi = ce_differential(mu, s.psi)
    tf = s.torsion_forms(dphi, dpsi)
    # reconstruct dphi and dpsi from the four components
    recon_dphi = tf.tau0 * s.psi + 3 * wedge(tf.tau1, s.phi) + hodge_star(tf.tau3, s.metric)
    recon_dpsi = 4 * wedge(tf.tau1, s.psi) + wedge(tf.tau2, s.phi)
    assert (recon_dphi - dphi).norm() < 1e-9
    assert (recon_dpsi - dpsi).norm() < 1e-9


def test_torsion_inconsistent_pair_raises(s_canonical, rng):
    dphi = random_kform(rng, 4)
    dpsi = random_kform(rng, 5)
    with pytest.raises(InconsistentTorsion):
        s_canonical.torsion_forms(dphi, dpsi)


def test_q_symmetric_for_closed_inputs(s_aa, rng):
    for _ in range(10):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        Q = s_aa.solve_Q(hodge_laplacian(mu, s_aa, s_aa.phi))
        assert np.abs(Q - Q.T).max() < 1e-9


def test_q_identity_against_ricci_and_torsion(s_aa, rng):
    # closed case: Q = Ric - tr(tau^2)/12 I + tau^2/2
    for _ in range(10):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        s = s_aa
        Q = s.solve_Q(hodge_laplacian(mu, s, s.phi))
        tf = s.torsion_forms(ce_differential(mu, s.phi),
                             ce_differential(mu, s.psi))
        T = skew_from_form(tf.tau2)
        ric, R = ricci(mu, s.metric)
        want = ric - np.trace(T @ T) / 12.0 * np.eye(7) + 0.5 * (T @ T)
        assert np.abs(Q - want).max() < 1e-9
        # scalar identities
        assert abs(R - 1.5 * np.trace(Q)) < 1e-10 * max(1.0, abs(R))
        assert abs(R + 0.5 * tf.tau2.norm() ** 2) < 1e-9
        assert abs(R - 0.25 * np.trace(T @ T)) < 1e-9
        assert R <= 0


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@given(consts=st.lists(_unit, min_size=18, max_size=18),
       entries=st.lists(_unit, min_size=49, max_size=49))
def test_q_is_gl7_natural_on_two_step_nilpotent_brackets(consts, entries):
    # [e_i, e_j] in span(e5, e6, e7) for i < j <= 4: Jacobi holds for any
    # constants.  The pair (h.mu, h.phi) is isomorphic to (mu, phi) through h,
    # so Q(h.mu, h.phi) = h Q h^-1 and the scalar curvature is unchanged.
    h = np.eye(7) + 0.6 / np.sqrt(7) * np.reshape(entries, (7, 7))
    assume(abs(np.linalg.det(h)) > 0.2)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    c = np.zeros((7, 7, 7))
    for n, (i, j) in enumerate(pairs):
        c[i, j, 4:] = consts[3 * n:3 * n + 3]
        c[j, i, 4:] = -c[i, j, 4:]
    mu, phi = LieBracket(c), phi_canonical()
    s, sh = G2Structure(phi), G2Structure(act(h, phi))
    muh = LieBracket(bracket_act(h, c))
    Q = s.solve_Q(hodge_laplacian(mu, s, s.phi))
    Qh = sh.solve_Q(hodge_laplacian(muh, sh, sh.phi))
    scale = max(1.0, float(np.abs(Q).max()))
    assert np.abs(Qh - h @ Q @ np.linalg.inv(h)).max() < 1e-10 * scale
    R, Rh = ricci(mu, s.metric)[1], ricci(muh, sh.metric)[1]
    assert abs(Rh - R) < 1e-10 * max(1.0, abs(R))
