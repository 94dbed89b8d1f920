"""Bracket-flow and Laplacian-flow integration, equivalence-map
reconstruction, and soliton detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotClosed
from .exterior import DIM, KForm, pullback_matrix, _star_table, _theta_tensor
from .g2core import G2Structure, metric_from_3form
from .integrate import IntegratorOptions, drive
from .liealg import (
    LieBracket,
    bracket_act,
    ce_differential,
    ce_matrix,
    delta_mu,
    derivations,
    hodge_laplacian,
    pack_constants,
    ricci,
    unpack_constants,
)

CLOSED_TOL = 1e-8


@dataclass
class FlowSample:
    t: float
    mu: LieBracket | None
    phi: KForm | None
    Q: np.ndarray
    norm_mu: float
    R: float
    torsion_norm: float
    velocity_norm: float
    jacobi: float | None = None


@dataclass
class FlowTrajectory:
    kind: str  # bracket | laplacian
    samples: list
    status: str  # completed | blowup-detected | step-underflow
    structure: G2Structure
    mu0: LieBracket | None
    phi0: KForm | None
    opts: IntegratorOptions

    @property
    def times(self):
        return np.array([s.t for s in self.samples])

    @property
    def final(self):
        return self.samples[-1]


@dataclass
class SolitonCertificate:
    """Result of fitting Q against an affine family of derivations."""

    kind: str  # torsion-free | algebraic | semi-algebraic | none
    c: float
    D: np.ndarray
    residual: float
    label: str  # steady | expanding | shrinking | none
    skew: np.ndarray | None = None


def _soliton_label(kind, c, scale=1.0):
    if kind == "none":
        return "none"
    if kind == "torsion-free" or abs(c) <= 1e-12 * max(1.0, scale):
        return "steady"
    # the self-similar rescaling constant is -3c, so c < 0 means expanding
    return "expanding" if c < 0 else "shrinking"


def _closed(s: G2Structure, dphi: KForm) -> bool:
    """Whether dphi, the differential of s.phi, vanishes to CLOSED_TOL."""
    return s.form_norm(dphi) <= CLOSED_TOL * max(1.0, s.form_norm(s.phi))


# ---------------------------------------------------------------------------
# bracket flow
# ---------------------------------------------------------------------------

def _flow_sample(kind, t, mu: LieBracket, st: G2Structure) -> FlowSample:
    """The sample of the pair (mu, st.phi); a bracket-flow sample keeps mu,
    a direct-flow sample keeps phi."""
    delta = hodge_laplacian(mu, st, st.phi)
    Q = st.solve_Q(delta)
    dphi = ce_differential(mu, st.phi)
    dpsi = ce_differential(mu, st.psi)
    R = 1.5 * float(np.trace(Q)) if _closed(st, dphi) else ricci(mu, st.metric)[1]
    tau = st.torsion_forms(dphi, dpsi).total_norm()
    vel = st.form_norm(delta)
    if kind == "bracket":
        return FlowSample(t, mu, None, Q, mu.norm(), R, tau, vel, jacobi=mu.jacobi)
    return FlowSample(t, None, st.phi, Q, mu.norm(), R, tau, vel)


def bracket_flow(mu0: LieBracket, s: G2Structure,
                 opts: IntegratorOptions | None = None) -> FlowTrajectory:
    """Integrate d mu/dt = delta_mu(Q_mu) with the 3-form held fixed."""
    opts = opts or IntegratorOptions()

    def rhs(t, y):
        mu = LieBracket(unpack_constants(y.reshape(21, DIM)), validate=False)
        Q = s.solve_Q(hodge_laplacian(mu, s, s.phi))
        vel = pack_constants(delta_mu(mu, Q)).reshape(-1)
        if opts.normalize == "unit-bracket-norm":
            vel = vel - (vel @ y) / max(y @ y, 1e-300) * y
        return vel

    def norm_of(y):
        return math.sqrt(2.0) * float(np.linalg.norm(y))

    def make_sample(t, y):
        mu = LieBracket(unpack_constants(y.reshape(21, DIM)), validate=False)
        return _flow_sample("bracket", t, mu, s)

    samples, status = drive(rhs, mu0.packed().reshape(-1), opts, make_sample,
                            norm_of)
    return FlowTrajectory("bracket", samples, status, s, mu0, None, opts)


# ---------------------------------------------------------------------------
# direct Laplacian flow
# ---------------------------------------------------------------------------

def _laplacian_coeff_rhs(mu: LieBracket):
    """Right side of dphi/dt = Delta_phi phi on degree-3 coefficients."""
    d2 = ce_matrix(mu, 2)
    d3 = ce_matrix(mu, 3)
    d4 = ce_matrix(mu, 4)
    S3, S4, S5 = _star_table(3), _star_table(4), _star_table(5)

    def rhs_coeffs(y):
        g, _ = metric_from_3form(KForm(3, y))
        M = g.frame()
        Minv = np.linalg.inv(M)
        H3 = pullback_matrix(Minv, 4) @ S3 @ pullback_matrix(M, 3)
        H4 = pullback_matrix(Minv, 3) @ S4 @ pullback_matrix(M, 4)
        H5 = pullback_matrix(Minv, 2) @ S5 @ pullback_matrix(M, 5)
        t1 = H4 @ (d3 @ (H4 @ (d3 @ y)))
        t2 = d2 @ (H5 @ (d4 @ (H3 @ y)))
        return t1 - t2

    return rhs_coeffs


def laplacian_flow(phi0: KForm, mu: LieBracket,
                   opts: IntegratorOptions | None = None) -> FlowTrajectory:
    """Integrate dphi/dt = Delta_phi phi with the bracket held fixed.

    The metric is recomputed from phi at every stage; loss of positivity
    aborts the run with status blowup-detected.
    """
    opts = opts or IntegratorOptions()
    if opts.normalize != "none":
        raise ValueError("normalization applies to the bracket flow only")
    s0 = G2Structure(phi0)
    coeff_rhs = _laplacian_coeff_rhs(mu)

    def rhs(t, y):
        return coeff_rhs(y)

    def norm_of(y):
        return float(np.linalg.norm(y))

    def make_sample(t, y):
        return _flow_sample("laplacian", t, mu, G2Structure(KForm(3, y)))

    samples, status = drive(rhs, phi0.coeffs.copy(), opts, make_sample, norm_of)
    return FlowTrajectory("laplacian", samples, status, s0, mu, phi0, opts)


# ---------------------------------------------------------------------------
# equivalence maps between the two flows
# ---------------------------------------------------------------------------

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
    g, _ = metric_from_3form(KForm(3, phi_coeffs))
    ginv = np.linalg.inv(g.gram)
    theta_full = np.einsum("jabi,i->jab", _theta_tensor(3),
                           phi_coeffs).reshape(35, 49)
    sym = _sym_basis().reshape(DIM, DIM, 28)
    embed = np.einsum("am,mbn->abn", ginv, sym).reshape(49, 28)
    A = theta_full @ embed
    x, *_ = np.linalg.lstsq(A, rhs_coeffs, rcond=None)
    return (embed @ x).reshape(DIM, DIM)


@dataclass
class HReconstruction:
    """Equivalence maps h(t) with residuals against both flow pictures."""

    side: str
    status: str  # as for FlowTrajectory
    times: np.ndarray
    h: list
    phi_residuals: np.ndarray
    mu_residuals: np.ndarray

    @property
    def max_phi_residual(self):
        return float(self.phi_residuals.max())

    @property
    def max_mu_residual(self):
        return float(self.mu_residuals.max())


def reconstruct_h(traj: FlowTrajectory, side: str = "ii") -> HReconstruction:
    """Integrate the equivalence maps h(t) linking the two flow pictures.

    side "ii": dh/dt = -Q_mu(t) h, driven by the bracket-flow operator;
    side "i":  dh/dt = -h Q_phi(t), driven by the direct-flow operator.
    Either way h(0) = I.  The bracket flow, the direct flow and h are
    integrated jointly, and the report carries the residuals of
    phi_direct(t) = h(t)^{-1} . phi and mu(t) = h(t) . mu0 along samples.
    """
    if side not in ("i", "ii"):
        raise ValueError("side must be 'i' or 'ii'")
    if traj.kind != "bracket":
        raise ValueError("reconstruction starts from a bracket-flow trajectory")
    s = traj.structure
    mu0 = traj.mu0
    opts = traj.opts
    phi_c = s.phi.coeffs
    lap_rhs = _laplacian_coeff_rhs(mu0)
    n_mu = 21 * DIM
    closed = _closed(s, ce_differential(mu0, s.phi))

    def q_of_phi(phi_d):
        if closed:
            return _solve_Q_symmetric(phi_d, lap_rhs(phi_d))
        st = G2Structure(KForm(3, phi_d))
        return st.solve_Q(KForm(3, lap_rhs(phi_d)))

    def rhs(t, y):
        cp = y[:n_mu].reshape(21, DIM)
        h = y[n_mu:n_mu + 49].reshape(DIM, DIM)
        phi_d = y[n_mu + 49:]
        mu = LieBracket(unpack_constants(cp), validate=False)
        Qmu = s.solve_Q(hodge_laplacian(mu, s, s.phi))
        dmu = pack_constants(delta_mu(mu, Qmu)).reshape(-1)
        if side == "ii":
            dh = -Qmu @ h
        else:
            dh = -h @ q_of_phi(phi_d)
        return np.concatenate([dmu, dh.reshape(-1), lap_rhs(phi_d)])

    def norm_of(y):  # the bracket's norm, as in bracket_flow
        return math.sqrt(2.0) * float(np.linalg.norm(y[:n_mu]))

    def make_sample(t, y):
        cp = y[:n_mu].reshape(21, DIM)
        h = y[n_mu:n_mu + 49].reshape(DIM, DIM)
        phi_d = y[n_mu + 49:]
        phi_pulled = pullback_matrix(h, 3) @ phi_c  # h(t)^{-1} . phi
        mu_res = bracket_act(h, mu0.c) - unpack_constants(cp)
        return (t, h.copy(), float(np.linalg.norm(phi_pulled - phi_d)),
                float(np.sqrt(np.sum(mu_res ** 2))))

    y0 = np.concatenate([mu0.packed().reshape(-1), np.eye(DIM).reshape(-1), phi_c])
    samples, status = drive(rhs, y0, opts, make_sample, norm_of)
    times, hs, res_phi, res_mu = zip(*samples)
    return HReconstruction(side, status, np.array(times), list(hs),
                           np.array(res_phi), np.array(res_mu))


# ---------------------------------------------------------------------------
# soliton detection
# ---------------------------------------------------------------------------

def _torsion_free(mu, s):
    scale = max(1.0, s.form_norm(s.phi))
    return (s.form_norm(ce_differential(mu, s.phi)) <= 1e-9 * scale
            and s.form_norm(ce_differential(mu, s.psi)) <= 1e-9 * scale)


def _fit_soliton(kind, mu, s, threshold, project):
    """Least-squares fit of Q over the family {c I + project(D) : D a
    derivation}; a certificate of the given kind when the residual is below
    threshold, relative to |Q|."""
    Q = s.solve_Q(hodge_laplacian(mu, s, s.phi))
    scale = max(1.0, float(np.linalg.norm(Q)))
    if _torsion_free(mu, s):
        return SolitonCertificate("torsion-free", 0.0, np.zeros((DIM, DIM)),
                                  float(np.linalg.norm(Q)), "steady")
    der = derivations(mu)
    cols = [np.eye(DIM).reshape(-1)] + [project(D).reshape(-1) for D in der.basis]
    A = np.array(cols).T
    x, *_ = np.linalg.lstsq(A, Q.reshape(-1), rcond=None)
    residual = float(np.linalg.norm(A @ x - Q.reshape(-1)))
    if residual >= threshold * scale:
        return SolitonCertificate("none", float("nan"),
                                  np.full((DIM, DIM), np.nan), residual, "none")
    c = float(x[0])
    D = np.einsum("n,nab->ab", x[1:], der.basis)
    return SolitonCertificate(kind, c, D, residual, _soliton_label(kind, c, scale))


def detect_algebraic(mu: LieBracket, s: G2Structure,
                     threshold: float = 1e-7) -> SolitonCertificate:
    """Least-squares fit of Q over the family {c I + D : D a derivation}."""
    return _fit_soliton("algebraic", mu, s, threshold, lambda D: D)


def detect_semialgebraic(mu: LieBracket, s: G2Structure,
                         threshold: float = 1e-7) -> SolitonCertificate:
    """Fit of Q over {c I + (D + D^t)/2 : D a derivation}, closed case only.

    On success the skew part (D - D^t)/2, the rotation generator of the
    norm-normalized bracket flow, is reported alongside."""
    if not _closed(s, ce_differential(mu, s.phi)):
        raise NotClosed("semi-algebraic detection requires a closed structure")
    cert = _fit_soliton("semi-algebraic", mu, s, threshold, s.sym_part)
    if cert.kind == "semi-algebraic":
        cert = replace(cert, skew=0.5 * (cert.D - s.transpose(cert.D)))
    return cert


def lf_diagonal_test(traj: FlowTrajectory, rel_tol: float = 1e-6) -> bool:
    """True when the sampled Q operators pairwise commute, i.e. are
    simultaneously diagonalizable (they are symmetric in the closed case)."""
    Qs = [smp.Q for smp in traj.samples]
    for i in range(len(Qs)):
        ni = np.linalg.norm(Qs[i])
        if ni < 1e-14:
            continue
        for j in range(i + 1, len(Qs)):
            nj = np.linalg.norm(Qs[j])
            if nj < 1e-14:
                continue
            if np.linalg.norm(Qs[i] @ Qs[j] - Qs[j] @ Qs[i]) >= rel_tol * ni * nj:
                return False
    return True
