import math
import warnings

import numpy as np
import pytest

from g2flow import almostabelian as aa
from g2flow import corpus
from g2flow.errors import G2FlowError, InvalidBracket, NonFiniteState, NotClosed, NotTraceFree
from g2flow.exterior import KForm, hodge_star, skew_from_form
from g2flow.flow import (
    IntegratorOptions,
    bracket_flow,
    detect_algebraic,
    detect_semialgebraic,
)
from g2flow.liealg import ce_differential, ricci

from conftest import hodge_laplacian, random_sl3c, random_su3


def rho_minus_form() -> KForm:
    """rho-, the imaginary part of (e1 + i e2)(e3 + i e4)(e5 + i e6)."""
    return KForm.from_terms(3, {(2, 4, 6): -1, (2, 3, 5): 1,
                                (1, 4, 5): 1, (1, 3, 6): 1})


def test_basis_conversion_round_trip(rng):
    A = rng.normal(size=(6, 6))
    assert np.allclose(aa.natural_to_paper(aa.paper_to_natural(A)), A)
    # J in the natural order pairs (e1,e2),(e3,e4),(e5,e6)
    Jn = aa.paper_to_natural(aa.J6)
    want = np.zeros((6, 6))
    for k in range(3):
        want[2 * k + 1, 2 * k] = 1.0
        want[2 * k, 2 * k + 1] = -1.0
    assert np.allclose(Jn, want)


def test_complex_real_round_trip(rng):
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    A = aa.complex_to_real(B)
    assert np.allclose(aa.real_to_complex(A), B)
    assert np.allclose(A @ aa.J6, aa.J6 @ A)


def test_membership_flags(rng):
    m = random_sl3c(rng)
    assert m.in_sl3C and not m.in_su3
    u = random_su3(rng)
    assert u.in_sl3C and u.in_sp3R and u.in_su3 and u.is_normal
    # symplectic but not complex-linear
    Bsym = rng.normal(size=(3, 3))
    Bsym = Bsym + Bsym.T
    A = np.block([[np.zeros((3, 3)), Bsym], [np.zeros((3, 3)), np.zeros((3, 3))]])
    msp = aa.AAMatrix.from_matrix(A)
    assert msp.in_sp3R and not msp.in_sl3C


@pytest.mark.parametrize("basis", ["paper", "natural"])
def test_matrix_rejects_non_finite_entries(basis):
    A = np.zeros((6, 6))
    A[0, 1] = np.nan
    with pytest.raises(InvalidBracket, match="finite"):
        aa.AAMatrix.from_matrix(A, basis=basis)
    with pytest.raises(InvalidBracket, match="finite"):
        aa.AAMatrix.from_complex(np.full((3, 3), np.inf))


def test_fixed_form_matches_display(s_aa):
    want = KForm.from_terms(3, {(1, 2, 7): 1, (3, 4, 7): 1, (5, 6, 7): 1,
                                (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1,
                                (2, 4, 5): -1})
    assert (aa.phi_almost_abelian() - want).norm() == 0.0
    assert np.allclose(s_aa.metric.gram, np.eye(7))


def test_build_zero_matrix_is_abelian():
    m, mu, s = aa.build(np.zeros((6, 6)))
    assert mu.is_zero()
    assert detect_algebraic(mu, s).kind == "torsion-free"


def test_build_su3_gives_torsion_free(rng, s_aa):
    m = random_su3(rng)
    mu = aa.bracket_of(m)
    assert ce_differential(mu, s_aa.phi).norm() < 1e-12
    assert ce_differential(mu, s_aa.psi).norm() < 1e-12


def test_build_n6_family_flags():
    m = aa.AAMatrix.from_complex(corpus.aa_n6(0.8))
    assert m.in_sl3C and m.is_nilpotent and not m.is_normal
    A = m.A
    assert np.linalg.norm(A @ A) > 1e-3  # cube zero, square nonzero
    assert np.linalg.norm(A @ A @ A) < 1e-12


def test_closed_forms_su3_vanish(rng):
    cf = aa.closed_forms(random_su3(rng))
    assert cf.Delta.norm() < 1e-12 and np.abs(cf.Q).max() < 1e-12
    assert cf.tau.norm() < 1e-12 and np.abs(cf.Ric).max() < 1e-12 and cf.R == 0.0


def test_closed_forms_require_trace_free():
    with pytest.raises(NotTraceFree):
        aa.laplacian_phi(aa.AAMatrix.from_matrix(np.eye(6)))


def test_closed_forms_require_complex_linear(rng):
    A = rng.normal(size=(6, 6))
    A -= np.trace(A) / 6 * np.eye(6)
    with pytest.raises(NotClosed):
        aa.q_operator(aa.AAMatrix.from_matrix(A))


def test_example_family_ricci_display():
    t = 1.3
    m = aa.AAMatrix.from_complex(corpus.aa_n6(t))
    ric, R = aa.ricci_aa(m)
    paper_diag = 0.5 * np.array([t * t, 1 - t * t, -1,
                                 t * t, 1 - t * t, -1, -2 * (1 + t * t)])
    want = np.zeros(7)
    for pos, e in enumerate((1, 3, 5, 2, 4, 6, 7)):
        want[e - 1] = paper_diag[pos]
    assert np.abs(np.diag(ric) - want).max() < 1e-12
    assert abs(R - want.sum()) < 1e-12


def test_star_decomposition_of_fixed_form(s_aa):
    # *(omega ^ e7 + rho+) = omega^omega/2 + rho- ^ e7, and the six-dim
    # pieces pair up under the star
    from g2flow.exterior import wedge, KForm
    om, rp, rm = aa.omega_form(), aa.rho_plus_form(), rho_minus_form()
    e7 = KForm.basis((7,))
    want = 0.5 * wedge(om, om) + wedge(rm, e7)
    assert (s_aa.psi - want).norm() < 1e-13
    assert (hodge_star(wedge(om, e7), s_aa.metric) - 0.5 * wedge(om, om)).norm() < 1e-13
    assert (hodge_star(rp, s_aa.metric) - wedge(rm, e7)).norm() < 1e-13


def test_differential_block_structure(rng, s_aa):
    # d(gamma) = (-1)^k theta(A) gamma ^ e7 on ideal forms, and forms with an
    # e7 factor are closed
    from g2flow.exterior import theta, wedge, KForm
    from g2flow.liealg import ce_differential
    m = random_sl3c(rng)
    mu = aa.bracket_of(m)
    A7 = np.zeros((7, 7))
    A7[:6, :6] = m.natural
    e7 = KForm.basis((7,))
    for gamma, k in ((aa.omega_form(), 2), (aa.rho_plus_form(), 3),
                     (rho_minus_form(), 3)):
        got = ce_differential(mu, gamma)
        want = (-1.0) ** k * wedge(theta(A7, gamma), e7)
        assert (got - want).norm() < 1e-12
        assert ce_differential(mu, wedge(gamma, e7)).norm() < 1e-13


def test_closed_forms_match_generic_pipeline(rng, s_aa):
    worst = 0.0
    for _ in range(20):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        cf = aa.closed_forms(m)
        lap = hodge_laplacian(mu, s_aa, s_aa.phi)
        worst = max(worst, (lap - cf.Delta).norm())
        worst = max(worst, float(np.abs(s_aa.solve_Q(lap) - cf.Q).max()))
        ric, R = ricci(mu, s_aa.metric)
        worst = max(worst, float(np.abs(ric - cf.Ric).max()), abs(R - cf.R))
        tf = s_aa.torsion_forms(ce_differential(mu, s_aa.phi),
                                ce_differential(mu, s_aa.psi))
        worst = max(worst, (tf.tau2 - cf.tau).norm())
    assert worst < 1e-9


def test_torsion_matrix_block_form(rng):
    m = random_sl3c(rng)
    cf = aa.closed_forms(m)
    T = skew_from_form(cf.tau)
    A = m.natural
    Jn = aa.paper_to_natural(aa.J6)
    want = np.zeros((7, 7))
    want[:6, :6] = -Jn @ (A + A.T)
    assert np.abs(T - want).max() < 1e-10
    # tau^2 block and the scalar identities
    assert abs(cf.R + 0.25 * np.trace((A + A.T) @ (A + A.T))) < 1e-12


def test_flow_rhs_matches_delta_of_q(rng, s_aa):
    # the 6x6 reduction agrees with the full bracket-flow right side
    from g2flow.liealg import delta_mu
    m = random_sl3c(rng)
    mu = aa.bracket_of(m)
    Q = s_aa.solve_Q(hodge_laplacian(mu, s_aa, s_aa.phi))
    full = delta_mu(mu, Q)
    dA_nat = aa.paper_to_natural(aa.flow_rhs(m.A))
    want = np.zeros((7, 7, 7))
    for j in range(6):
        want[6, j, :6] = dA_nat[:, j]
        want[j, 6, :6] = -dA_nat[:, j]
    assert np.abs(full - want).max() < 1e-10


def _flow_rhs_eight_products(A):
    """The matrix flow's right side as written, -(tr S^2/6) A + 1/2 [A, K]
    - 1/2 [A, S^2]: the reference for the three-product flow_rhs."""
    S = A + A.T
    K = A @ A.T - A.T @ A
    return (-np.trace(S @ S) / 6.0) * A \
        + 0.5 * (A @ K - K @ A) - 0.5 * (A @ (S @ S) - (S @ S) @ A)


def test_flow_rhs_matches_the_eight_product_form(rng):
    # the identity behind the three products holds for any 6x6 matrix
    mats = [random_sl3c(rng, scale).A for scale in (0.1, 1.0, 5.0)] \
        + [scale * rng.normal(size=(6, 6)) for scale in (0.1, 1.0, 5.0)]
    for A in mats:
        want = _flow_rhs_eight_products(A)
        assert np.abs(aa.flow_rhs(A) - want).max() <= 1e-12 * np.abs(want).max()


def test_matrix_flow_requires_closed(rng):
    A = rng.normal(size=(6, 6))
    with pytest.raises(NotClosed):
        aa.matrix_bracket_flow(aa.AAMatrix.from_matrix(A))


def test_matrix_flow_preserves_membership_and_decay(rng):
    m = random_sl3c(rng)
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=10.0, sample_every=20))
    assert traj.status == "completed"
    assert max(s.membership_residual for s in traj.samples) < 1e-8
    norms = [s.norm_sq for s in traj.samples]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_norm_decay_rate(rng):
    # d|A|^2/dt = -(1/3)|A|^2 |A+A^t|^2 - |[A,A^t]|^2, by a centered
    # difference around the midpoint sample
    m = random_sl3c(rng)
    h = 1e-6
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(
        method="rk4", h0=h, t_end=2 * h, sample_every=1))
    n0, n2 = traj.samples[0].norm_sq, traj.samples[-1].norm_sq
    fd = (n2 - n0) / (2 * h)
    A = traj.samples[1].A
    S = A + A.T
    K = A @ A.T - A.T @ A
    want = -np.sum(A * A) * np.sum(S * S) / 3.0 - np.sum(K * K)
    assert abs(fd - want) < 1e-5 * max(1.0, abs(want))


def test_spectrum_scaling_along_flow(rng):
    m = random_sl3c(rng)
    lam0 = np.sort_complex(np.linalg.eigvals(m.complex_view))
    idx = int(np.argmax(np.abs(lam0)))
    traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=5.0, sample_every=20))
    for smp in traj.samples[1:]:
        lam = np.sort_complex(smp.spectrum)
        ratio = lam[idx] / lam0[idx]
        assert abs(ratio.imag) < 1e-5 * abs(ratio)
        assert ratio.real > 0
        assert np.abs(lam - ratio * lam0).max() < 1e-5 * np.abs(lam).max()


def test_scalar_curvature_monotone_with_corrected_bound(rng):
    for _ in range(5):
        m = random_sl3c(rng)
        traj = aa.matrix_bracket_flow(m, IntegratorOptions(t_end=10.0,
                                                           sample_every=20))
        R0 = traj.samples[0].R
        rs = [s.R for s in traj.samples]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        for smp in traj.samples:
            bound = 1.0 / (-(4.0 / 3.0) * smp.t + 1.0 / R0)
            assert smp.R >= bound - 1e-8
            assert smp.R < 0


def test_rotating_soliton_trajectory_law():
    m = aa.AAMatrix.from_complex(corpus.aa_n6_soliton())
    Aperp = aa.complex_to_real(corpus.aa_n6_soliton_partner())
    traj = aa.matrix_bracket_flow(
        m, IntegratorOptions(t_end=50.0, atol=1e-11, rtol=1e-11, sample_every=40))
    worst = 0.0
    for smp in traj.samples:
        s_t = math.log(6 * smp.t + 1) / 6.0
        exact = (6 * smp.t + 1) ** -0.5 * (
            math.cos(s_t / math.sqrt(2)) * m.A
            + math.sin(s_t / math.sqrt(2)) * Aperp)
        worst = max(worst, float(np.abs(smp.A - exact).max()))
    assert worst < 1e-6


def test_two_parameter_reduction_corrected(rng):
    for _ in range(50):
        a, b = rng.uniform(-1, 1, 2)
        dA = aa.flow_rhs(aa.complex_to_real(corpus.aa_family_2d(a, b)))
        ap, bp = corpus.family_2d_rhs(a, b)
        assert abs(dA[0, 1] - ap) < 1e-12 and abs(dA[1, 0] - bp) < 1e-12
        # block structure of the family is preserved
        mask = np.ones((6, 6), dtype=bool)
        for (i, j) in [(0, 1), (1, 0), (3, 4), (4, 3)]:
            mask[i, j] = False
        assert np.abs(dA[mask]).max() < 1e-12


def test_four_parameter_reduction_matches_stated(rng):
    for _ in range(50):
        a, b, c, d = rng.uniform(-1, 1, 4)
        dA = aa.flow_rhs(aa.complex_to_real(corpus.aa_family_4d(a, b, c, d)))
        ap, bp, cp, dp = corpus.family_4d_rhs(a, b, c, d)
        assert max(abs(dA[0, 1] - ap), abs(dA[1, 2] - bp),
                   abs(dA[1, 0] - cp), abs(dA[2, 1] - dp)) < 1e-12


def test_skew_line_is_fixed(rng):
    for a in rng.uniform(0.2, 2.0, 5):
        dA = aa.flow_rhs(aa.complex_to_real(corpus.aa_family_2d(a, -a)))
        assert np.abs(dA).max() < 1e-12


def test_real_complex_trace_convention(rng):
    # real trace of (A+A^t)^2 doubles the complex-trace value
    for _ in range(10):
        m = random_sl3c(rng)
        A, B = m.A, m.complex_view
        real_tr = np.trace((A + A.T) @ (A + A.T))
        cplx_tr = np.trace((B + B.conj().T) @ (B + B.conj().T)).real
        assert abs(real_tr - 2 * cplx_tr) < 1e-10


def test_classify_diagonal_complex():
    cls = aa.classify_soliton(aa.AAMatrix.from_complex(corpus.aa_diag(1, -1, 0)))
    assert cls.kind == "algebraic" and cls.normal_form == "diagonal-complex"
    assert abs(cls.c + 8.0 / 3.0) < 1e-12 and abs(cls.d) < 1e-12
    z = np.sort_complex(cls.eigenvalues)
    assert np.allclose(z, [-1, 0, 1])
    cplx = aa.classify_soliton(aa.AAMatrix.from_complex(
        corpus.aa_diag(1 + 1j, -1 + 1j, -2j)))
    assert cplx.kind == "algebraic"


def test_classify_torsion_free(rng):
    cls = aa.classify_soliton(random_su3(rng))
    assert cls.kind == "torsion-free" and cls.c == 0.0


def test_classify_rotating_soliton():
    cls = aa.classify_soliton(aa.AAMatrix.from_complex(corpus.aa_n6_soliton()))
    assert cls.kind == "semi-algebraic" and cls.normal_form == "nilpotent-n6"
    assert abs(cls.c + 3.0) < 1e-10 and abs(cls.d - 1.0) < 1e-10
    # the published derivation block is feasible for the same constants
    D1 = aa.complex_to_real(corpus.aa_n6_soliton_derivation())
    A = aa.AAMatrix.from_complex(corpus.aa_n6_soliton()).A
    assert np.abs(D1 @ A - A @ D1 - cls.d * A).max() < 1e-12
    S = (A @ A.T - A.T @ A) - (A + A.T) @ (A + A.T) \
        + (2 * cls.d + 0.5 * np.trace((A + A.T) @ (A + A.T))) * np.eye(6)
    assert np.abs(D1 + D1.T - S).max() < 1e-12
    # and the returned block satisfies the same two conditions
    got = cls.D1
    assert np.abs(got @ A - A @ got - cls.d * A).max() < 1e-7
    assert np.abs(got + got.T - S).max() < 1e-7


def test_classify_n2_and_n6():
    assert aa.classify_soliton(
        aa.AAMatrix.from_complex(corpus.aa_n2())).kind == "algebraic"
    assert aa.classify_soliton(
        aa.AAMatrix.from_complex(corpus.aa_n6(1.0))).kind == "none"
    # the rotating representative sits at superdiagonal ratio sqrt(2)
    assert aa.classify_soliton(aa.AAMatrix.from_complex(
        corpus.aa_n6(1 / math.sqrt(2)))).kind == "semi-algebraic"


def test_classify_neither_normal_nor_nilpotent():
    A, _, _ = corpus.aa_heber_example()
    cls = aa.classify_soliton(aa.AAMatrix.from_complex(A))
    assert cls.kind == "none"


def _flags(m):
    return m.in_sl3C, m.in_sp3R, m.in_su3, m.is_nilpotent, m.is_normal, m.is_skew()


@pytest.mark.parametrize("s", [1e-300, 1e-150, 1e-60, 1e50, 1e100, 1e160, 1e300])
def test_flags_and_kinds_do_not_depend_on_the_scale(s):
    # flags are taken on A over a power of two, so they read as at s = 1;
    # a classification is that of the scaled matrix, c and d scaled back by
    # s^2, or a typed error where they overflow; nothing warns
    units = [corpus.aa_n2(), corpus.aa_n6(1.0), corpus.aa_diag(1, -1, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [(aa.AAMatrix.from_complex(B), aa.AAMatrix.from_complex(s * B)) for B in units]
        pairs += [(corpus.random_sl3c(np.random.default_rng(seed), 1.0),
                   corpus.random_sl3c(np.random.default_rng(seed), s)) for seed in (1, 2)]
        for one, big in pairs:
            assert _flags(big) == _flags(one)
            want = aa.classify_soliton(one)
            try:
                got = aa.classify_soliton(big)
            except G2FlowError:
                continue
            assert (got.kind, got.normal_form) == (want.kind, want.normal_form)
            if want.c is not None:
                assert got.c == pytest.approx(want.c * s * s, rel=1e-14)
                assert got.d == pytest.approx(want.d * s * s, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [1e-300, 1e-60, 1e100, 1e160, 1e300])
def test_quadratic_closed_forms_scale_or_raise(s):
    # the trace test and the quadratic closed forms (Laplacian, Q, Ricci and
    # the moment map) are taken on A over a power of two and scaled back by
    # its square: s^2 times the values at s = 1, or a typed error where that
    # overflows; nothing warns
    one = aa.AAMatrix.from_complex(corpus.aa_diag(1, -1, 0))
    big = aa.AAMatrix.from_complex(s * corpus.aa_diag(1, -1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (lambda m: aa.ricci_aa(m)[0], lambda m: aa.laplacian_phi(m).coeffs,
                  aa.q_operator, aa.moment_map, lambda m: aa.closed_forms(m).R):
            try:
                got = f(big)
            except G2FlowError as exc:
                assert isinstance(exc, NonFiniteState) and s * s > 1e300
                continue
            want = s * s * np.asarray(f(one))
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        with pytest.raises(NotTraceFree):
            aa.ricci_aa(aa.AAMatrix.from_matrix(s * np.eye(6)))


def test_a_scaled_rotating_soliton_stays_semi_algebraic():
    # its semi-algebraic system mixes terms of degree 2 and 3 in A, which a
    # tolerance of degree 2 compares well only near |A| = 1: it is solved for
    # A over a power of two, so the verdict holds at any scale
    for s in (1e5, 1e10, 1e100):
        cls = aa.classify_soliton(aa.AAMatrix.from_complex(s * corpus.aa_n6_soliton()))
        assert cls.kind == "semi-algebraic"
        assert cls.c == pytest.approx(-3.0 * s * s, rel=1e-10)


def test_classify_requires_closed(rng):
    A = rng.normal(size=(6, 6))
    with pytest.raises(NotClosed):
        aa.classify_soliton(aa.AAMatrix.from_matrix(A))


def test_classify_agrees_with_detectors(rng, s_aa):
    mats = [random_sl3c(rng) for _ in range(14)]
    mats += [random_su3(rng),
             aa.AAMatrix.from_complex(corpus.aa_diag(1, -1, 0)),
             aa.AAMatrix.from_complex(corpus.aa_diag(1 + 2j, -1, -2j)),
             aa.AAMatrix.from_complex(corpus.aa_n2()),
             aa.AAMatrix.from_complex(corpus.aa_n6_soliton()),
             aa.AAMatrix.from_complex(corpus.aa_n6(1.0))]
    for m in mats:
        mu = aa.bracket_of(m)
        cls = aa.classify_soliton(m)
        ca = detect_algebraic(mu, s_aa)
        cs = detect_semialgebraic(mu, s_aa)
        if cls.kind == "torsion-free":
            assert ca.kind == "torsion-free" and cs.kind == "torsion-free"
        elif cls.kind == "algebraic":
            assert ca.kind == "algebraic"
            assert cs.kind == "semi-algebraic"
            assert abs(ca.c - cls.c) < 1e-7 and abs(cs.c - cls.c) < 1e-7
        elif cls.kind == "semi-algebraic":
            assert ca.kind == "none" and cs.kind == "semi-algebraic"
            assert abs(cs.c - cls.c) < 1e-7
        else:
            assert ca.kind == "none" and cs.kind == "none"


def test_equivalence_identity_conjugation(rng):
    m = random_sl3c(rng)
    rep = aa.equivalence_checks(m, B=m, h=np.eye(6))
    assert rep.verdict and rep.spectra_match


def test_equivalence_su3_conjugation(rng):
    # exp of a random su(3) element is special unitary
    from scipy.linalg import expm
    X = random_su3(rng).A
    h = expm(X)
    m = random_sl3c(rng)
    B = aa.AAMatrix.from_matrix(h @ m.A @ h.T)
    rep = aa.equivalence_checks(m, B=B, h=h)
    assert rep.verdict and rep.spectra_match


def test_equivalence_spectrum_mismatch(rng):
    a = random_sl3c(rng)
    b = random_sl3c(rng)
    rep = aa.equivalence_checks(a, B=b)
    assert rep.verdict is None and not rep.spectra_match


def test_heber_split_certifies_equivalence():
    A, A1, A2 = corpus.aa_heber_example()
    rep = aa.equivalence_checks(aa.AAMatrix.from_complex(A),
                                split=(aa.AAMatrix.from_complex(A1),
                                       aa.AAMatrix.from_complex(A2)))
    assert rep.verdict
    bad = aa.equivalence_checks(aa.AAMatrix.from_complex(A),
                                split=(aa.AAMatrix.from_complex(A1),
                                       aa.AAMatrix.from_complex(A1)))
    assert not bad.verdict


def test_moment_map_block_form(rng):
    m = random_su3(rng)  # normal case: upper block vanishes
    M = aa.moment_map(m)
    assert np.abs(M[:6, :6]).max() < 1e-12
    assert abs(M[6, 6] + 0.5 * m.norm_sq()) < 1e-12
    m2 = aa.AAMatrix.from_complex(corpus.aa_n2())
    A = m2.natural
    M2 = aa.moment_map(m2)
    assert np.allclose(M2[:6, :6], 0.5 * (A @ A.T - A.T @ A))


def test_moment_map_norm_evolution_identity(rng):
    # d|mu|^2/dt = -8 tr(Q M) with |mu|^2 = 2|A|^2
    for _ in range(10):
        m = random_sl3c(rng)
        dmu2 = 4.0 * float(np.sum(m.A * aa.flow_rhs(m.A)))
        val = -8.0 * np.trace(aa.q_operator(m) @ aa.moment_map(m))
        assert abs(dmu2 - val) < 1e-10 * max(1.0, abs(val))
