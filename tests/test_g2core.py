import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from g2flow import almostabelian as aa
from g2flow import exterior, g2core
from g2flow.corpus import mu_nilpotent, phi_nilpotent_example
from g2flow.errors import (BadMetric, G2FlowError, InconsistentTorsion, NonFiniteState,
                           PositivityError, SingularSystem, StepBudgetExhausted)
from g2flow.exterior import (KForm, _interior_table, _star_table, _theta_tensor, act,
                             form_from_skew, hodge_star, interior, phi_canonical, pullback,
                             pullback_matrix, skew_from_form, theta, wedge, wedge_matrix)
from g2flow.flow import _direct_velocity
from g2flow.g2core import G2Structure, _sym0_basis, induced_bilinear, metric_from_3form
from g2flow.liealg import LieBracket, bracket_act, ce_differential, ricci

from conftest import (hodge_laplacian, random_gl7, random_kform, random_positive_form,
                      random_sl3c, rk45_in_t)


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


def test_solve_q_matrix_is_solve_q(rng):
    # the (49, 35) map that solve_Q applies gives the Q of the solve's
    # definition, checked apart from the map: theta(Q) phi = psi, with Q in
    # the span of q_basis
    for _ in range(3):
        s = G2Structure(random_positive_form(rng))
        psi = random_kform(rng, 3)
        Q = (s.solve_Q_matrix() @ psi.coeffs).reshape(7, 7)
        miss = np.abs(theta(Q, s.phi).coeffs - psi.coeffs).max()
        assert miss <= 1e-12 * np.abs(psi.coeffs).max()
        q = np.array([X.ravel() for X in s.q_basis]).T
        x, *_ = np.linalg.lstsq(q, Q.ravel(), rcond=None)
        assert np.abs(q @ x - Q.ravel()).max() <= 1e-12 * np.abs(Q).max()
        assert np.array_equal(s.solve_Q(psi), Q)


def _public(cls):
    """The names of a class's public methods and properties."""
    return {n for n in dir(cls) if not n.startswith("_")
            and (callable(getattr(cls, n)) or isinstance(getattr(cls, n), property))}


def _held(obj):
    """What an instance holds: each attribute it has, by name, pickled."""
    names = [n for n in getattr(type(obj), "__slots__", ()) if hasattr(obj, n)]
    return {n: pickle.dumps(getattr(obj, n)) for n in names + list(getattr(obj, "__dict__", ()))}


def test_metric_and_structure_are_plain_values(rng):
    # no call fills anything in: after every public method and property has
    # been used, a Metric and a G2Structure hold the attributes their
    # constructors set, with the values they set
    s = G2Structure(random_positive_form(rng))
    g = s.metric
    held = _held(g), _held(s)
    a, b, A = random_kform(rng, 3), random_kform(rng, 3), rng.normal(size=(7, 7))
    mu = mu_nilpotent(1, 2, 3, 4)
    metric_calls = {"frame": g.frame, "volume_form": g.volume_form,
                    "inner": lambda: g.inner(a, b), "form_norm": lambda: g.form_norm(a),
                    "transpose": lambda: g.transpose(A)}
    structure_calls = {
        **{n: lambda n=n: getattr(s, n)
           for n in ("psi", "g2_basis", "q_basis", "q1_basis", "q7_basis", "q27_basis")},
        "sym_part": lambda: s.sym_part(A), "solve_Q": lambda: s.solve_Q(a),
        "solve_Q_matrix": s.solve_Q_matrix,
        "torsion_forms": lambda: s.torsion_forms(ce_differential(mu, s.phi),
                                                 ce_differential(mu, s.psi))}
    assert set(metric_calls) == _public(exterior.Metric)
    assert set(structure_calls) == _public(G2Structure)
    for call in [*metric_calls.values(), *structure_calls.values()]:
        call()
    for k in range(8):
        hodge_star(random_kform(rng, k), g)
    assert (_held(g), _held(s)) == held
    assert set(held[1]) == {"phi", "metric", "frame", "_frame_inv", "_solve_op", "_g2_f",
                            "_q_f", "_q_split"}


def test_solve_q_singular_system_surfaces(s_canonical, monkeypatch):
    # the canonical solve's residual is checked once per process, where the
    # tables are built: an SVD whose U is permuted keeps the rank but solves
    # nothing, and fails there
    svd = np.linalg.svd

    def corrupted(a, *args, **kw):
        U, sv, Vh = svd(a, *args, **kw)
        return U[:, ::-1], sv, Vh

    monkeypatch.setattr(np.linalg, "svd", corrupted)
    with pytest.raises(SingularSystem, match="residual"):
        g2core._canonical_tables.__wrapped__()
    with pytest.raises(SingularSystem):
        s_canonical.solve_Q(KForm(3, np.full(35, np.nan)))


def test_torsion_zero_for_torsion_free(s_canonical):
    tf = s_canonical.torsion_forms(KForm.zero(4), KForm.zero(5))
    assert tf.norm < 1e-12


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


def torsion_lstsq(s, dphi, dpsi):
    """The oracle for G2Structure.torsion_forms: the four torsion equations
    as one (56, 49) block system in frame coordinates, solved by least
    squares.  Returns the components (tau0, then e-basis coefficients of
    tau1-tau3), the residual and whether the residual check fires."""
    F, Finv = s.frame, np.linalg.inv(s.frame)
    phi_f = pullback(F, s.phi)
    psi_f = hodge_star(phi_f)
    # tau2 lies in the 2-forms of the stabilizer algebra, tau3 in the image
    # of the trace-free symmetric matrices under the theta map
    l2_14 = np.array([form_from_skew(Finv @ X @ F).coeffs for X in s.g2_basis])
    l3_27 = np.array([theta(S, phi_f).coeffs for S in _sym0_basis()])
    A = np.block([
        [psi_f.coeffs[:, None], 3.0 * wedge_matrix(phi_f, 1),
         np.zeros((35, 14)), _star_table(3) @ l3_27.T],
        [np.zeros((21, 1)), 4.0 * wedge_matrix(psi_f, 1),
         wedge_matrix(phi_f, 2) @ l2_14.T, np.zeros((21, 27))],
    ])
    rhs = np.concatenate([pullback_matrix(F, 4) @ dphi.coeffs,
                          pullback_matrix(F, 5) @ dpsi.coeffs])
    x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    res = float(np.linalg.norm(A @ x - rhs))
    taus = [pullback(Finv, KForm(k, v)).coeffs
            for k, v in ((1, x[1:8]), (2, x[8:22] @ l2_14), (3, x[22:] @ l3_27))]
    return (x[0], *taus), res, res > 1e-6 * max(1.0, float(np.linalg.norm(rhs)))


def _moved_forms(rng, scales):
    """GL(7)-moved canonical forms, the determinant sign of the move
    alternating, the move scaled by each of scales in turn."""
    for i, scale in enumerate(scales):
        h = random_gl7(rng)
        if (np.linalg.det(h) > 0) != (i % 2 == 0):
            h[:, 0] *= -1.0
        yield act(scale * h, phi_canonical())


def _moved_structures(rng, n):
    """Structures of n moved canonical forms, the moves unscaled."""
    return (G2Structure(phi) for phi in _moved_forms(rng, np.ones(n)))


def test_torsion_forms_are_the_block_system_solution(rng):
    # consistent pairs: the differentials of random antisymmetric constants
    for s in _moved_structures(rng, 24):
        c = rng.normal(size=(7, 7, 7))
        mu = LieBracket(c - c.transpose(1, 0, 2), validate=False)
        dphi, dpsi = ce_differential(mu, s.phi), ce_differential(mu, s.psi)
        tf = s.torsion_forms(dphi, dpsi)
        want, _, fires = torsion_lstsq(s, dphi, dpsi)
        assert not fires
        scale = dphi.norm() + dpsi.norm()
        for got, w in zip((tf.tau0, tf.tau1.coeffs, tf.tau2.coeffs, tf.tau3.coeffs), want):
            assert np.linalg.norm(np.atleast_1d(got - w)) <= 1e-12 * scale
        g = s.metric
        metric_norm = np.sqrt(tf.tau0 ** 2 + sum(g.form_norm(t) ** 2
                                                 for t in (tf.tau1, tf.tau2, tf.tau3)))
        assert abs(tf.norm - metric_norm) <= 1e-12 * scale


def test_torsion_builds_no_compound_above_degree_3(rng, monkeypatch):
    # the frame pullbacks of degrees 4 and 5 come from those of degrees 2
    # and 3 through the Hodge stars, whose minors have degree at most 3 too
    s = next(_moved_structures(rng, 1))
    c = rng.normal(size=(7, 7, 7))
    mu = LieBracket(c - c.transpose(1, 0, 2), validate=False)
    dphi, dpsi = ce_differential(mu, s.phi), ce_differential(mu, s.psi)
    s = G2Structure(s.phi)  # fresh: no star and no frame pullback built yet
    degrees = []

    def counting(h, k):
        degrees.append(k)
        return pullback_matrix(h, k)

    for module in (exterior, g2core):
        monkeypatch.setattr(module, "pullback_matrix", counting)
    s.torsion_forms(dphi, dpsi)
    assert degrees and max(degrees) <= 3


def test_torsion_residual_is_the_block_system_residual(rng):
    # random pairs from far below to far above the residual threshold
    fired = []
    for s, scale in zip(_moved_structures(rng, 12), np.logspace(-9, 1, 12)):
        dphi, dpsi = random_kform(rng, 4, scale), random_kform(rng, 5, scale)
        _, res, fires = torsion_lstsq(s, dphi, dpsi)
        fired.append(fires)
        if fires:
            with pytest.raises(InconsistentTorsion):
                s.torsion_forms(dphi, dpsi)
        else:
            assert abs(s.torsion_forms(dphi, dpsi).residual - res) <= 1e-10 * res
    assert any(fired) and not all(fired)


def test_torsion_of_a_non_finite_pair_raises(s_canonical):
    dphi = KForm(4, np.full(35, np.nan))
    with pytest.raises(NonFiniteState):
        s_canonical.torsion_forms(dphi, KForm.zero(5))


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


# -- the adapted frame against the construction it replaced

class SVDStructure(G2Structure):
    """The oracle for the adapted-frame construction: a structure built as
    before it, in the Cholesky frame of the metric, where phi has some
    identity-metric form phi_f, with an SVD of the theta map of phi_f at
    every build.  The operators are G2Structure's own."""

    def __init__(self, phi):
        self.phi = phi
        self.metric = metric_from_3form(phi)
        self.frame = self.metric.frame()
        self._frame_inv = np.linalg.inv(self.frame)
        self._phi_f = pullback_matrix(self.frame, 3) @ phi.coeffs
        Tmap = np.einsum("jabi,i->jab", _theta_tensor(3), self._phi_f).reshape(35, 49)
        U, s, Vh = np.linalg.svd(Tmap)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank == 35
        self._g2_f = Vh[rank:].reshape(-1, 7, 7)
        self._q_f = Vh[:rank].reshape(rank, 7, 7)
        self._solve_op = (Vh[:rank].T / s) @ U.T
        cross = _interior_table(3) @ self._phi_f
        q7 = np.array([skew_from_form(KForm(2, c)) for c in cross]) / np.sqrt(6.0)
        self._q_split = (np.eye(7) / np.sqrt(7))[None, :, :], q7, _sym0_basis()

    def torsion_forms(self, dphi, dpsi):
        return torsion_by_projections(self, dphi, dpsi, KForm(3, self._phi_f))


def torsion_by_projections(s, dphi, dpsi, phi_f=phi_canonical()):
    """The oracle for the canonical torsion map: G2Structure.torsion_forms
    as it was before that map, one projection per component, from stars and
    wedges in the frame of s, where the form is phi_f: the pair is pulled
    back by the frame F, the forms back by F^-1."""
    psi_f = hodge_star(phi_f)
    P4, P5 = (pullback_matrix(s.frame, k) for k in (4, 5))
    B1, B2, B3 = (pullback_matrix(s._frame_inv, k) for k in (1, 2, 3))
    a, b = KForm(4, P4 @ dphi.coeffs), KForm(5, P5 @ dpsi.coeffs)
    tau0 = float(a.coeffs @ psi_f.coeffs) / 7.0
    tau1a = hodge_star(wedge(phi_f, hodge_star(a))) / 12.0
    tau1b = hodge_star(wedge(psi_f, hodge_star(b))) / 12.0
    tau1 = (3.0 * tau1a + 4.0 * tau1b) / 7.0
    tau3 = hodge_star(a - tau0 * psi_f - 3.0 * wedge(tau1a, phi_f))
    tau2 = -hodge_star(b - 4.0 * wedge(tau1b, psi_f))
    res = 12.0 / np.sqrt(7.0) * (tau1a - tau1b).norm()
    scale = max(1.0, float(np.hypot(a.norm(), b.norm())))
    if not res <= 1e-6 * scale:  # NaN fails too
        error = InconsistentTorsion if np.isfinite(res) else NonFiniteState
        raise error(f"torsion reconstruction residual {res:g}")
    norm = float(np.linalg.norm(np.r_[tau0, tau1.coeffs, tau2.coeffs, tau3.coeffs]))
    return g2core.TorsionForms(tau0, KForm(1, B1 @ tau1.coeffs), KForm(2, B2 @ tau2.coeffs),
                               KForm(3, B3 @ tau3.coeffs), res, norm)


# moves scaled from 1e-3 to 1e3, so phi from 1e9 to 1e-9
_SCALES = np.logspace(-3, 3, 24)


def _close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


def test_adapted_frame_is_orthonormal_and_pulls_phi_back_to_canonical(rng):
    orientations = set()
    for phi in _moved_forms(rng, _SCALES):
        s = G2Structure(phi)
        F, G = s.frame, s.metric.gram
        assert np.abs(F.T @ G @ F - np.eye(7)).max() <= 1e-12
        assert np.abs(s._frame_inv @ F - np.eye(7)).max() <= 1e-12
        assert np.abs(pullback_matrix(F, 3) @ phi.coeffs - phi_canonical().coeffs).max() <= 1e-12
        orientations.add(s.metric.orientation)
    assert orientations == {1, -1}


def _projector(mats):
    """Orthogonal projector onto the span of a list of matrices."""
    U, _, _ = np.linalg.svd(np.array([X.ravel() for X in mats]).T, full_matrices=False)
    return U @ U.T


def test_g2_algebra_is_the_svd_construction(rng):
    for phi in _moved_forms(rng, _SCALES):
        s, o = G2Structure(phi), SVDStructure(phi)
        psi = KForm(3, rng.normal(size=35) * np.abs(phi.coeffs).max())
        assert _close(s.solve_Q(psi), o.solve_Q(psi))
        assert _close(s.solve_Q_matrix(), o.solve_Q_matrix())
        for name in ("g2_basis", "q7_basis", "q27_basis"):
            assert _close(_projector(getattr(s, name)), _projector(getattr(o, name)))


def test_torsion_forms_are_the_svd_construction(rng):
    # the canonical torsion map against the projections it replaced, in the
    # adapted frame and in the Cholesky frame of the SVD construction:
    # consistent pairs, then pairs moved off by 1e-8 relative, so that the
    # residual is more than rounding; differences in the metric norm, which
    # the scale of the move leaves alone
    for n, phi in enumerate(_moved_forms(rng, _SCALES)):
        s, o = G2Structure(phi), SVDStructure(phi)
        g = s.metric
        c = rng.normal(size=(7, 7, 7))
        mu = LieBracket(c - c.transpose(1, 0, 2), validate=False)
        dphi, dpsi = ce_differential(mu, s.phi), ce_differential(mu, s.psi)
        if n % 2:
            off = random_kform(rng, 4)
            dphi = dphi + off * (1e-8 * g.form_norm(dphi) / g.form_norm(off))
        got = s.torsion_forms(dphi, dpsi)
        scale = g.form_norm(dphi) + g.form_norm(dpsi)
        for want in (torsion_by_projections(s, dphi, dpsi), o.torsion_forms(dphi, dpsi)):
            for name in ("tau0", "tau1", "tau2", "tau3", "residual", "norm"):
                a, b = getattr(got, name), getattr(want, name)
                diff = g.form_norm(a - b) if isinstance(a, KForm) else abs(a - b)
                assert diff <= 1e-12 * scale, name
        assert (got.residual > 1e-10 * scale) == bool(n % 2)


_BAD_FORMS = pytest.mark.parametrize("coeffs", [
    np.where(np.arange(35) == 0, np.nan, phi_canonical().coeffs),
    np.full(35, np.nan),
    KForm.basis((1, 2, 3)).coeffs,
    (phi_canonical() - KForm.basis((1, 2, 3))).coeffs,
    np.zeros(35),
    (phi_canonical() - 2.0 * KForm.basis((1, 2, 3))).coeffs,
], ids=["nan", "all-nan", "degenerate", "degenerate-g2", "zero", "indefinite"])


@_BAD_FORMS
def test_bad_forms_raise_a_typed_error(coeffs):
    with pytest.raises(G2FlowError):
        G2Structure(KForm(3, coeffs))


def test_a_frame_that_misses_phi_canonical_raises(rng, monkeypatch):
    phi = next(_moved_forms(rng, [1.0]))
    monkeypatch.setattr(g2core, "_adapted_frame", lambda phi, g: g.frame())
    with pytest.raises(SingularSystem, match="misses phi_canonical"):
        G2Structure(phi)
    monkeypatch.setattr(g2core, "_adapted_frame", lambda phi, g: np.full((7, 7), np.nan))
    with pytest.raises(NonFiniteState):
        G2Structure(phi)


def test_the_frame_bound_is_1e_9_on_a_well_conditioned_form(monkeypatch):
    # for phi_canonical the pullback's rounding, eps |F|^3 |phi|, is about
    # 1e-14, so the bound stays 1e-9 |phi_canonical|: a frame off by
    # 1e-10 relative misses by 3e-10 and passes, one off by 5e-10 misses
    # by 1.5e-9 and raises
    adapted = g2core._adapted_frame
    for error, raises in ((1e-10, False), (5e-10, True)):
        monkeypatch.setattr(g2core, "_adapted_frame",
                            lambda phi, g, e=error: (1.0 + e) * adapted(phi, g))
        if raises:
            with pytest.raises(SingularSystem, match="misses phi_canonical"):
                G2Structure(phi_canonical())
        else:
            G2Structure(phi_canonical())


@pytest.mark.parametrize("scale", [10.0, 1e4])
def test_the_frame_bound_grows_with_the_rounding_of_the_pullback(scale):
    # the direct flow of a scaled nil1234, stepped in t on its 35
    # coefficients with the direct velocity, reaches forms whose adapted
    # frame has |F| up to 81: pullback3 rounds by up to eps |F|^3 |phi| =
    # 3e-5, and more than 100 of the 151 frames miss phi_canonical by 3e-9
    # to 3e-7, above 1e-9 |phi_canonical|.  Each state builds a structure
    velocity = _direct_velocity(mu_nilpotent(1, 2, 3, 4).scale(scale))
    steps = rk45_in_t(lambda t, a: velocity(a), phi_nilpotent_example().coeffs, 0.1,
                      None, 1e-12, math.inf, 1e-9, 1e-9, max_steps=150)
    states = []
    with pytest.raises(StepBudgetExhausted):
        for _, a in steps:
            states.append(a)
    assert len(states) == 151
    for a in states:
        G2Structure(KForm(3, a))


def test_no_svd_per_structure(rng, monkeypatch):
    # the theta map's SVD is a constant of phi_canonical, taken once
    G2Structure(random_positive_form(rng))
    svd, calls = np.linalg.svd, []

    def counting_svd(a, *args, **kw):
        calls.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for phi in _moved_forms(rng, _SCALES[:20]):
        G2Structure(phi)
    assert calls == []


def test_one_cholesky_and_no_eigvalsh_per_structure(rng, monkeypatch):
    # definiteness is decided once per build, by the metric's Cholesky
    # factor, which the adapted frame reads again
    G2Structure(random_positive_form(rng))
    calls = []

    def counted(name):
        f = getattr(np.linalg, name)

        def counting(*args, **kw):
            calls.append(name)
            return f(*args, **kw)
        return counting

    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    for phi in _moved_forms(rng, _SCALES[:20]):
        G2Structure(phi)
    assert calls == ["cholesky"] * 20


def metric_by_eigvalsh(phi):
    """Oracle: the orientation and gram of the rule before the metric's
    Cholesky factor decided definiteness, from the extreme eigenvalues of B."""
    B = induced_bilinear(phi)
    if not np.isfinite(B).all():
        raise PositivityError("3-form coefficients must be finite")
    eig = np.linalg.eigvalsh(B)
    if eig[0] > 0:
        orientation = 1
    elif eig[-1] < 0:
        orientation = -1
        B = -B
    else:
        raise PositivityError("induced bilinear form is not definite")
    return orientation, np.linalg.det(B) ** (-1.0 / 9.0) * B


_EPS = np.finfo(float).eps


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_metric_recovery_is_the_eigvalsh_rule(rng):
    # GL(7)-moved forms of both orientations, the moves scaled 1e-3 to 1e3:
    # the same orientation, and the same gram up to the rounding of det B
    # (at most 58 eps apart over 41 seeds of 200 forms; the mpmath oracle
    # below says which of the two is closer)
    orientations = set()
    for phi in _moved_forms(rng, np.logspace(-3, 3, 200)):
        o, gram = metric_by_eigvalsh(phi)
        g = metric_from_3form(phi)
        assert g.orientation == o
        assert _rel(g.gram, gram) <= 128 * _EPS
        orientations.add(o)
    assert orientations == {1, -1}


def test_metric_recovery_is_the_public_metric(rng):
    # the trusted path keeps the factor of B it was built from: the public
    # constructor on the same gram and orientation keeps that gram, and
    # factors it and takes det G again, to rounding (at most 12 eps in the
    # factor and 69 eps in the volume over 41 seeds of 200 forms)
    orientations = set()
    for phi in _moved_forms(rng, np.logspace(-3, 3, 200)):
        g = metric_from_3form(phi)
        want = exterior.Metric(g.gram, g.orientation)
        assert g.gram.tobytes() == want.gram.tobytes()
        assert g.orientation == want.orientation
        assert _rel(g._cholesky, want._cholesky) <= 32 * _EPS
        assert abs(g.volume - want.volume) <= 160 * _EPS * abs(want.volume)
        orientations.add(g.orientation)
    assert orientations == {1, -1}


def _mp_metric(B):
    """The gram B / v and the volume factor v = o |det B|^(1/9) of a float
    B at 50 digits, rounded to double at the end."""
    with mpmath.workdps(50):
        M = mpmath.matrix(B.tolist())
        d = mpmath.det(M)
        v = mpmath.sign(d) * abs(d) ** (mpmath.mpf(1) / 9)
        return np.array([[float(M[i, j] / v) for j in range(7)] for i in range(7)]), float(v)


def test_metric_recovery_against_50_digits(rng):
    # moved forms of both orientations, scaled 1e-3 to 1e3: the gram and
    # volume of one Cholesky factor of B against a 50-digit metric of the
    # same float B.  Over 42 seeds the factor's rule was at most 6.8 eps
    # off, the eigvalsh rule (det B by LU, as exp(log|det|)) up to 47 eps
    # in the gram and 148 eps in the volume; so the factor's rule may be
    # no farther off than the eigvalsh rule, and at most 16 eps
    errors = []
    for phi in _moved_forms(rng, np.logspace(-3, 3, 60)):
        G, v = _mp_metric(induced_bilinear(phi))
        g = metric_from_3form(phi)
        o, old = metric_by_eigvalsh(phi)
        errors.append((_rel(g.gram, G), _rel(old, G),
                       abs(g.volume / v - 1.0), abs(exterior.Metric(old, o).volume / v - 1.0)))
    gram, old_gram, volume, old_volume = np.max(errors, axis=0)
    assert gram <= old_gram and volume <= old_volume
    assert max(gram, volume) <= 16 * _EPS


def test_metric_recovery_refuses_what_the_constructor_refuses():
    # forms whose gram |det B|^(-1/9) o B has no Cholesky factor, or is
    # infinite: the public constructor refuses that gram, and
    # metric_from_3form the form, by the one diagnosis of the factor's rule
    for phi, cause in ((phi_canonical() - 2.0 * KForm.basis((1, 2, 3)), "not definite"),
                       (pullback(np.diag([1e160] + [1e-30] * 6), phi_canonical()),
                        "out of range")):
        B = induced_bilinear(phi)
        o, logdet = np.linalg.slogdet(B)
        with np.errstate(over="ignore"):
            gram = np.exp(logdet) ** (-1.0 / 9.0) * (o * B)
        with pytest.raises(BadMetric):
            exterior.Metric(gram, int(o))
        with pytest.raises(PositivityError, match=cause):
            metric_from_3form(phi)


@_BAD_FORMS
def test_metric_recovery_refuses_what_the_eigvalsh_rule_refuses(coeffs):
    # the same error, message included
    phi = KForm(3, coeffs)
    with pytest.raises(PositivityError) as want:
        metric_by_eigvalsh(phi)
    with pytest.raises(PositivityError) as got:
        metric_from_3form(phi)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scale, cause", [
    (1e20, "out of range"), (1e40, "out of range"), (1e120, "out of range"),
    (1e-20, "out of range"), (1e-40, "out of range"), (1e-120, "out of range"),
    (np.inf, "finite"), (np.nan, "finite"),
])
def test_out_of_range_forms_raise_a_typed_error(scale, cause):
    # phi is checked for finiteness before any arithmetic, and B and det B
    # are formed with their floating-point warnings off and their range
    # checked: under the suite's warnings-as-errors no RuntimeWarning escapes
    coeffs = phi_canonical().coeffs.copy()
    if np.isfinite(scale):
        coeffs *= scale
    else:
        coeffs[4] = scale
    with pytest.raises(PositivityError, match=cause):
        G2Structure(KForm(3, coeffs))


def test_a_metric_that_overflows_is_out_of_range():
    # B_11 = 1e300 and det B = 1e-180 are in range, but g_11 = 1e320 is
    # not; under the suite's warnings-as-errors no RuntimeWarning escapes,
    # and the error names the range, not definiteness
    phi = pullback(np.diag([1e160] + [1e-30] * 6), phi_canonical())
    with pytest.raises(PositivityError, match="out of range"):
        metric_from_3form(phi)
