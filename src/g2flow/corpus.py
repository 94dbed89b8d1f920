"""Built-in verification corpus: the worked examples used across the test
suite, and the checks of the command-line `verify` run."""

from __future__ import annotations

import math
import os

import numpy as np

from . import almostabelian as aa
from .exterior import KForm, hodge_star, phi_canonical, pullback_matrix, skew_from_form
from .flow import (
    IntegratorOptions,
    bracket_flow,
    detect_algebraic,
    detect_semialgebraic,
    laplacian,
    laplacian_flow,
    lf_diagonal_test,
    reconstruct_h,
)
from .g2core import G2Structure, metric_from_3form
from .liealg import LieBracket, ce_differential, delta_mu, ricci

__all__ = [
    "phi_canonical", "phi_nilpotent_example", "mu_nilpotent",
    "aa_n2", "aa_n6", "aa_n6_soliton", "aa_n6_soliton_partner",
    "aa_n6_soliton_derivation", "aa_diag", "aa_family_2d", "aa_family_4d",
    "aa_heber_example", "random_sl3c", "build_verify_corpus",
]


def phi_nilpotent_example() -> KForm:
    """The positive 3-form used with the two-parameter nilpotent bracket."""
    return KForm.from_terms(3, {
        (1, 4, 7): 1, (2, 6, 7): 1, (3, 5, 7): 1, (1, 2, 3): 1,
        (1, 5, 6): 1, (2, 4, 5): 1, (3, 4, 6): -1,
    })


def mu_nilpotent(a, b, c, d) -> LieBracket:
    """Two-step nilpotent bracket: [e1,e2] = -a e5 - b e6,
    [e1,e3] = -c e5 - d e6."""
    return LieBracket.from_terms({
        (1, 2, 5): -a, (1, 2, 6): -b, (1, 3, 5): -c, (1, 3, 6): -d,
    })


# -- almost-abelian matrices, complex 3x3 upper-triangular data -------------

def aa_n2() -> np.ndarray:
    """Square-zero nilpotent representative (complex view)."""
    return np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)


def aa_n6(t) -> np.ndarray:
    """The one-parameter nilpotent family of cube-zero type (complex view)."""
    return np.array([[0, t, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)


def aa_n6_soliton() -> np.ndarray:
    """The rotating soliton representative on the cube-zero algebra."""
    return np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)


def aa_n6_soliton_partner() -> np.ndarray:
    """The quarter-turn companion matrix of the rotating soliton."""
    return np.array([[0, 0, 0], [-np.sqrt(2), 0, 0], [0, 1, 0]], dtype=complex)


def aa_n6_soliton_derivation() -> np.ndarray:
    """A feasible complex derivation block for the rotating soliton."""
    return np.array([[4, 0, -np.sqrt(2)], [0, 3, 0], [0, 0, 2]], dtype=complex)


def aa_diag(x, y, z) -> np.ndarray:
    """Diagonal complex matrix; trace-free input gives an algebraic soliton."""
    return np.diag(np.array([x, y, z], dtype=complex))


def aa_family_2d(a, b) -> np.ndarray:
    """Two-parameter family with one off-diagonal pair (complex view)."""
    return np.array([[0, a, 0], [b, 0, 0], [0, 0, 0]], dtype=complex)


def aa_family_4d(a, b, c, d) -> np.ndarray:
    """Four-parameter tridiagonal family (complex view)."""
    return np.array([[0, a, 0], [c, 0, b], [0, d, 0]], dtype=complex)


def aa_heber_example():
    """A non-soliton matrix equivalent to an algebraic soliton via a
    commuting skew summand: returns (A, A1, A2) complex views."""
    A1 = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)
    A2 = np.diag([1j, -2j, 1j])
    return A1 + A2, A1, A2


def family_2d_rhs_stated(a, b):
    """The two-parameter reduction in its commonly stated form, kept
    verbatim for the acceptance suite.  It is the flow right side with the
    trace term -(1/6) tr(S^2) A, S = A + A^t, taken with the complex trace of
    the 3x3 view in place of the real trace of the 6x6 matrix, i.e. at half
    weight: `family_2d_rhs` minus this is (-a (a+b)^2 / 3, -b (a+b)^2 / 3)."""
    return ((2.0 / 3.0) * a * (-2 * a * a - a * b + b * b),
            (2.0 / 3.0) * b * (-2 * b * b - a * b + a * a))


def family_2d_rhs(a, b):
    """The 2-parameter reduction rederived from the matrix flow."""
    return (-a * ((2.0 / 3.0) * (a + b) ** 2 + a * a - b * b),
            -b * ((2.0 / 3.0) * (a + b) ** 2 + b * b - a * a))


def family_4d_rhs(a, b, c, d):
    """The four-parameter reduction in its stated form (consistent with the
    flow right side)."""
    ap = (-5 / 3 * a ** 3 - 11 / 6 * a * b * d - 4 / 3 * a ** 2 * c + d * c * b
          + 1 / 3 * a * c ** 2 - 2 / 3 * a * b ** 2 - 5 / 3 * a * d ** 2
          + 1 / 2 * c * d ** 2)
    bp = (-5 / 3 * b ** 3 + 1 / 3 * b * a ** 2 + 1 / 3 * b * d ** 2
          - 5 / 6 * a * c * b - 5 / 3 * c ** 2 * b - 1 / 2 * d * c ** 2
          - 4 / 3 * d * b ** 2)
    cp = (-5 / 3 * c ** 3 + 1 / 3 * a ** 2 * c - 5 / 6 * d * c * b
          - 4 / 3 * a * c ** 2 - 1 / 2 * a * b ** 2 - 5 / 3 * c * b ** 2
          + 1 / 3 * c * d ** 2)
    dp = (-5 / 3 * d ** 3 - 11 / 6 * d * c * a + 1 / 2 * b * a ** 2
          - 4 / 3 * b * d ** 2 + a * c * b - 2 / 3 * d * c ** 2
          + 1 / 3 * d * b ** 2 - 5 / 3 * d * a ** 2)
    return ap, bp, cp, dp


def random_sl3c(rng, scale=1.0):
    """A random matrix of sl(3,C): real and imaginary parts uniform in
    [-1, 1], made trace-free, times scale."""
    B = rng.uniform(-1, 1, (3, 3))
    C = rng.uniform(-1, 1, (3, 3))
    B -= np.trace(B) / 3 * np.eye(3)
    C -= np.trace(C) / 3 * np.eye(3)
    return aa.AAMatrix.from_complex(scale * B, scale * C)


# ---------------------------------------------------------------------------
# the checks of `g2flow verify`
# ---------------------------------------------------------------------------

def _seeded_rng():
    return np.random.default_rng(int(os.environ.get("G2FLOW_SEED", "20260809")))


def build_verify_corpus():
    """(name, callable) pairs; each callable asserts and returns a residual."""
    checks = []

    def check(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @check("canonical-form: induced metric and volume")
    def _():
        g = metric_from_3form(phi_canonical())
        res = float(np.abs(g.gram - np.eye(7)).max())
        assert res < 1e-12 and abs(g.volume_form().coeffs[0] - 1.0) < 1e-12
        return res

    @check("canonical-form: Hodge dual seven-term expansion")
    def _():
        got = hodge_star(phi_canonical())
        want = KForm.from_terms(4, {(4, 5, 6, 7): 1, (2, 3, 6, 7): 1,
                                    (2, 3, 4, 5): 1, (1, 3, 5, 7): 1,
                                    (1, 3, 4, 6): -1, (1, 2, 5, 6): -1,
                                    (1, 2, 4, 7): -1})
        res = (got - want).norm()
        assert res < 1e-14
        return res

    @check("stabilizer splitting: dimensions 14/35/1/7/27")
    def _():
        s = G2Structure(phi_canonical())
        dims = (len(s.g2_basis), len(s.q_basis), len(s.q1_basis),
                len(s.q7_basis), len(s.q27_basis))
        assert dims == (14, 35, 1, 7, 27), dims
        return 0.0

    @check("nilpotent example: induced metric is the identity")
    def _():
        g = metric_from_3form(phi_nilpotent_example())
        res = float(np.abs(g.gram - np.eye(7)).max())
        assert res < 1e-10
        return res

    @check("nilpotent example: differential displays and closedness")
    def _():
        mu = mu_nilpotent(1, 2, 3, 4)
        de5 = ce_differential(mu, KForm.basis((5,)))
        want = KForm.from_terms(2, {(1, 2): 1, (1, 3): 3})
        res = (de5 - want).norm()
        dphi = ce_differential(mu, phi_nilpotent_example())
        want2 = KForm.from_terms(4, {(1, 2, 3, 7): 3, (1, 2, 3, 4): -5})
        res = max(res, (dphi - want2).norm())
        assert res < 1e-12
        return res

    @check("nilpotent example: Laplacian 2(a^2+b^2)e123 and Q diagonal")
    def _():
        a, b = 1.3, -0.4
        mu = mu_nilpotent(a, b, -b, a)
        s = G2Structure(phi_nilpotent_example())
        lap = KForm(3, laplacian(mu, s.metric, s.phi.coeffs)[0])
        want = KForm.from_terms(3, {(1, 2, 3): 2 * (a * a + b * b)})
        res = (lap - want).norm()
        Q = s.solve_Q(lap)
        wantQ = (a * a + b * b) * np.diag([-2, -2, -2, 1, 1, 1, 1]) / 3.0
        res = max(res, float(np.abs(Q - wantQ).max()))
        assert res < 1e-10
        return res

    @check("nilpotent example: torsion two-form and Ricci display")
    def _():
        a, b = 0.8, 0.5
        mu = mu_nilpotent(a, b, -b, a)
        s = G2Structure(phi_nilpotent_example())
        tf = s.torsion_forms(ce_differential(mu, s.phi),
                             ce_differential(mu, s.psi))
        want = KForm.from_terms(2, {(3, 5): -a, (2, 5): -b, (3, 6): -b, (2, 6): a})
        res = (tf.tau2 - want).norm()
        ric, _ = ricci(mu)
        wantric = (a * a + b * b) * np.diag([-1, -.5, -.5, 0, .5, .5, 0])
        res = max(res, float(np.abs(ric - wantric).max()))
        assert res < 1e-10
        return res

    @check("nilpotent example: delta(Q) = -(5/3)(a^2+b^2) mu")
    def _():
        a, b = 0.9, 0.2
        mu = mu_nilpotent(a, b, -b, a)
        s = G2Structure(phi_nilpotent_example())
        Q = s.solve_Q(KForm(3, laplacian(mu, s.metric, s.phi.coeffs)[0]))
        res = float(np.abs(delta_mu(mu, Q) + (5 / 3) * (a * a + b * b) * mu.c).max())
        assert res < 1e-10
        return res

    @check("nilpotent example: algebraic soliton c=-5/3, D=diag(1,1,1,2,2,2,2)")
    def _():
        mu = mu_nilpotent(1, 0, 0, 1)
        s = G2Structure(phi_nilpotent_example())
        cert = detect_algebraic(mu, s)
        assert cert.kind == "algebraic" and cert.label == "expanding"
        res = abs(cert.c + 5 / 3)
        res = max(res, float(np.abs(cert.D - np.diag([1, 1, 1, 2, 2, 2, 2.0])).max()))
        assert res < 1e-7
        return res

    @check("bracket flow: scalar-reduction law over [0,10]")
    def _():
        mu = mu_nilpotent(1, 0, 0, 1)
        s = G2Structure(phi_nilpotent_example())
        traj = bracket_flow(mu, s, IntegratorOptions(t_end=10.0, sample_every=20))
        res = max(abs(smp.norm_mu ** 2 - 4 / (1 + 10 * smp.t / 3))
                  / (4 / (1 + 10 * smp.t / 3)) for smp in traj.samples)
        assert traj.status == "completed" and res < 1e-6
        return res

    @check("direct flow: exact self-similar solution of the soliton")
    def _():
        from scipy.linalg import expm  # here only: importing the corpus stays cheap
        mu = mu_nilpotent(1, 0, 0, 1)
        phi = phi_nilpotent_example()
        s = G2Structure(phi)
        cert = detect_algebraic(mu, s)
        c, D = cert.c, cert.D
        traj = laplacian_flow(phi, mu, IntegratorOptions(t_end=1.0, sample_every=20))
        res = 0.0
        for smp in traj.samples:
            b = (-2 * c * smp.t + 1) ** 1.5
            sc = -math.log(-2 * c * smp.t + 1) / (2 * c)
            exact = b * (pullback_matrix(expm(-sc * D), 3) @ phi.coeffs)
            res = max(res, float(np.abs(smp.phi.coeffs - exact).max()))
        assert res < 1e-6
        return res

    @check("nilpotent example: soliton trajectory is flow diagonal")
    def _():
        mu = mu_nilpotent(1, 0, 0, 1)
        s = G2Structure(phi_nilpotent_example())
        traj = bracket_flow(mu, s, IntegratorOptions(t_end=2.0, sample_every=25))
        assert lf_diagonal_test(traj)
        return 0.0

    @check("closed case: Q from Ricci and torsion square, scalar identities")
    def _():
        rng = _seeded_rng()
        s = aa.structure()
        res = 0.0
        for _ in range(5):
            m = random_sl3c(rng)
            mu = aa.bracket_of(m)
            lap, dphi, dpsi = laplacian(mu, s.metric, s.phi.coeffs)
            Q = s.solve_Q(KForm(3, lap))
            tf = s.torsion_forms(KForm(4, dphi), KForm(5, dpsi))
            T = skew_from_form(tf.tau2)
            ric, R = ricci(mu, s.metric)
            want = ric - np.trace(T @ T) / 12.0 * np.eye(7) + 0.5 * (T @ T)
            res = max(res, float(np.abs(Q - want).max()))
            res = max(res, abs(R - 1.5 * np.trace(Q)))
            res = max(res, abs(R + 0.5 * tf.tau2.norm() ** 2))
            assert R < 0
        assert res < 1e-9
        return res

    @check("equivalence maps: cross-residuals of the two flow pictures")
    def _():
        rng = _seeded_rng()
        m = random_sl3c(rng, 0.8)
        traj = bracket_flow(aa.bracket_of(m), aa.structure(),
                            IntegratorOptions(t_end=1.0, sample_every=25))
        rec = reconstruct_h(traj, side="ii")
        res = max(rec.max_phi_residual, rec.max_mu_residual)
        assert res < 1e-5
        return res

    @check("almost-abelian: unitary matrices give torsion-free structures")
    def _():
        rng = _seeded_rng()
        X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        S = 0.5 * (X - X.conj().T)
        S -= np.trace(S) / 3 * np.eye(3)
        m = aa.AAMatrix.from_complex(S)
        assert m.in_su3
        s = aa.structure()
        mu = aa.bracket_of(m)
        res = max(ce_differential(mu, s.phi).norm(),
                  ce_differential(mu, s.psi).norm())
        assert res < 1e-12
        return res

    @check("almost-abelian: closed forms match the generic pipeline")
    def _():
        rng = _seeded_rng()
        s = aa.structure()
        res = 0.0
        for _ in range(10):
            m = random_sl3c(rng)
            mu = aa.bracket_of(m)
            cf = aa.closed_forms(m)
            lap = KForm(3, laplacian(mu, s.metric, s.phi.coeffs)[0])
            res = max(res, (lap - cf.Delta).norm())
            res = max(res, float(np.abs(s.solve_Q(lap) - cf.Q).max()))
            ric, _ = ricci(mu, s.metric)
            res = max(res, float(np.abs(ric - cf.Ric).max()))
        assert res < 1e-9
        return res

    @check("almost-abelian: one-parameter family Ricci display")
    def _():
        t = 0.6
        m = aa.AAMatrix.from_complex(aa_n6(t))
        ric, _ = aa.ricci_aa(m)
        order = (1, 3, 5, 2, 4, 6, 7)
        block_diag = 0.5 * np.array([t * t, 1 - t * t, -1,
                                     t * t, 1 - t * t, -1, -2 * (1 + t * t)])
        want = np.zeros(7)
        for pos, e in enumerate(order):
            want[e - 1] = block_diag[pos]
        res = float(np.abs(np.diag(ric) - want).max())
        assert res < 1e-12 and m.is_nilpotent and m.in_sl3C
        return res

    @check("rotating soliton: classification c=-3, d=1")
    def _():
        cls = aa.classify_soliton(aa.AAMatrix.from_complex(aa_n6_soliton()))
        assert cls.kind == "semi-algebraic"
        res = max(abs(cls.c + 3), abs(cls.d - 1))
        assert res < 1e-10
        return res

    @check("rotating soliton: not algebraic, not flow diagonal")
    def _():
        m = aa.AAMatrix.from_complex(aa_n6_soliton())
        s = aa.structure()
        mu = aa.bracket_of(m)
        cert = detect_algebraic(mu, s)
        assert cert.kind == "none"
        traj = bracket_flow(mu, s, IntegratorOptions(t_end=2.0, sample_every=20))
        assert not lf_diagonal_test(traj)
        cs = detect_semialgebraic(mu, s)
        assert cs.kind == "semi-algebraic" and abs(cs.c + 3) < 1e-8
        return cert.residual

    @check("rotating soliton: closed-form trajectory over [0,50]")
    def _():
        m = aa.AAMatrix.from_complex(aa_n6_soliton())
        traj = aa.matrix_bracket_flow(
            m, IntegratorOptions(t_end=50.0, atol=1e-11, rtol=1e-11,
                                 sample_every=100))
        Aperp = aa.complex_to_real(aa_n6_soliton_partner())
        res = 0.0
        for smp in traj.samples:
            sc = math.log(6 * smp.t + 1) / 6.0
            exact = (6 * smp.t + 1) ** -0.5 * (
                math.cos(sc / math.sqrt(2)) * m.A
                + math.sin(sc / math.sqrt(2)) * Aperp)
            res = max(res, float(np.abs(smp.A - exact).max()))
        assert res < 1e-6
        return res

    @check("matrix flow: four-parameter family reduction")
    def _():
        rng = _seeded_rng()
        res = 0.0
        for _ in range(50):
            a, b, c, d = rng.uniform(-1, 1, 4)
            m = aa.complex_to_real(aa_family_4d(a, b, c, d))
            dA = aa.flow_rhs(m)
            ap, bp, cp, dp = family_4d_rhs(a, b, c, d)
            res = max(res, abs(dA[0, 1] - ap), abs(dA[1, 2] - bp),
                      abs(dA[1, 0] - cp), abs(dA[2, 1] - dp))
        assert res < 1e-12
        return res

    @check("matrix flow: two-parameter reduction (corrected coefficients)")
    def _():
        rng = _seeded_rng()
        res = 0.0
        for _ in range(50):
            a, b = rng.uniform(-1, 1, 2)
            dA = aa.flow_rhs(aa.complex_to_real(aa_family_2d(a, b)))
            ap, bp = family_2d_rhs(a, b)
            res = max(res, abs(dA[0, 1] - ap), abs(dA[1, 0] - bp))
        assert res < 1e-12
        return res

    @check("matrix flow: the skew line is fixed")
    def _():
        res = 0.0
        for a in (0.3, 1.0, 2.5):
            dA = aa.flow_rhs(aa.complex_to_real(aa_family_2d(a, -a)))
            res = max(res, float(np.abs(dA).max()))
        assert res < 1e-12
        return res

    @check("diagonal representatives are algebraic solitons")
    def _():
        cls = aa.classify_soliton(aa.AAMatrix.from_complex(aa_diag(1, -1, 0)))
        assert cls.kind == "algebraic" and cls.normal_form == "diagonal-complex"
        cls2 = aa.classify_soliton(aa.AAMatrix.from_complex(aa_n2()))
        assert cls2.kind == "algebraic" and cls2.normal_form == "nilpotent-n2"
        cls3 = aa.classify_soliton(aa.AAMatrix.from_complex(aa_n6(1.0)))
        assert cls3.kind == "none"
        return 0.0

    @check("commuting-unitary split certifies equivalence")
    def _():
        A, A1, A2 = aa_heber_example()
        m = aa.AAMatrix.from_complex(A)
        assert aa.classify_soliton(m).kind == "none"
        rep = aa.equivalence_checks(m, split=(aa.AAMatrix.from_complex(A1),
                                              aa.AAMatrix.from_complex(A2)))
        assert rep.verdict
        return max(rep.residuals.values())

    @check("norm decay and scalar-curvature monotonicity (corrected bound)")
    def _():
        rng = _seeded_rng()
        res = 0.0
        for _ in range(3):
            m = random_sl3c(rng)
            traj = aa.matrix_bracket_flow(
                m, IntegratorOptions(t_end=10.0, sample_every=20))
            R0 = traj.samples[0].R
            prev = math.inf
            for smp in traj.samples:
                assert smp.norm_sq < prev + 1e-12
                prev = smp.norm_sq
                bound = 1.0 / (-(4.0 / 3.0) * smp.t + 1.0 / R0)
                assert smp.R >= bound - 1e-8 and smp.R < 0
                res = max(res, max(0.0, bound - smp.R))
        return res

    @check("moment map: bracket-norm evolution identity")
    def _():
        rng = _seeded_rng()
        res = 0.0
        for _ in range(5):
            m = random_sl3c(rng)
            dmu2 = 4.0 * float(np.sum(m.A * aa.flow_rhs(m.A)))
            res = max(res, abs(dmu2 + 8.0 * np.trace(aa.q_operator(m)
                                                     @ aa.moment_map(m))))
        assert res < 1e-10
        return res

    return checks
