"""Bracket-flow and Laplacian-flow integration, equivalence-map
reconstruction, and soliton detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotClosed
from .exterior import DIM, KForm, Metric, pullback_matrix
from .g2core import G2Structure, metric_from_3form
from .integrate import IntegratorOptions, Trajectory, drive
from .liealg import (
    NCONST,
    LieBracket,
    bracket_act,
    ce_matrix,
    ce_matrix_of_form,
    delta_mu,
    derivations,
    pack_constants,
    ricci,
    unpack_constants,
)

CLOSED_TOL = 1e-8


@dataclass
class FlowSample:
    """The pair (mu, phi) at time t, one of them fixed, the other flowing."""

    t: float
    mu: LieBracket
    phi: KForm
    Q: np.ndarray
    norm_mu: float
    R: float
    torsion_norm: float
    velocity_norm: float


@dataclass
class FlowTrajectory(Trajectory):
    """A bracket-flow run, with what reconstruct_h integrates it from."""

    structure: G2Structure
    mu0: LieBracket
    opts: IntegratorOptions


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


def laplacian(mu: LieBracket, g: Metric, a):
    """Delta a = *d*d a - d*d* a for 3-form coefficients a, the fixed
    bracket mu and the Hodge stars of the metric g.  Returns the coefficient
    arrays (Delta a, d a, d*a); the differentials are what the closedness
    and torsion tests take."""
    H4, d3 = g.star_matrix(4), ce_matrix(mu, 3)
    da = d3 @ a
    dsa = ce_matrix(mu, 4) @ (g.star_matrix(3) @ a)
    lap = H4 @ (d3 @ (H4 @ da)) - ce_matrix(mu, 2) @ (g.star_matrix(5) @ dsa)
    return lap, da, dsa


def _closed(s: G2Structure, dphi) -> bool:
    """Whether dphi, the coefficients of d s.phi, vanish to CLOSED_TOL."""
    g = s.metric
    return g.form_norm(KForm(4, dphi)) <= CLOSED_TOL * max(1.0, g.form_norm(s.phi))


# ---------------------------------------------------------------------------
# bracket flow
# ---------------------------------------------------------------------------

def _flow_sample(t, mu: LieBracket, st: G2Structure) -> FlowSample:
    """The sample of the pair (mu, st.phi)."""
    lap, dphi, dpsi = laplacian(mu, st.metric, st.phi.coeffs)
    delta = KForm(3, lap)
    Q = st.solve_Q(delta)
    R = 1.5 * float(np.trace(Q)) if _closed(st, dphi) else ricci(mu, st.metric)[1]
    tau = st.torsion_forms(KForm(4, dphi), KForm(5, dpsi)).total_norm()
    return FlowSample(t, mu, st.phi, Q, mu.norm(), R, tau, st.metric.form_norm(delta))


def _bracket_velocity(s: G2Structure):
    """The bracket-flow right side for the fixed form s.phi, on flat packed
    constants y: velocity(y) = (Q_mu, delta_mu(Q_mu) packed).

    Delta_mu phi = *d*d phi - d*d* phi is quadratic in y.  The inner
    differentials act on fixed forms, so they are linear maps of y built
    once: M1 y = *d_y phi and M2 y = *d_y *phi.  That is why this keeps an
    expression of Delta of its own: :func:`laplacian` would build d_y on
    degree 4 at every evaluation (about a tenth of one), or, fed M1 and M2,
    multiply in another order and round differently.
    """
    H4 = s.metric.star_matrix(4)
    M1 = H4 @ ce_matrix_of_form(s.phi)
    M2 = s.metric.star_matrix(5) @ ce_matrix_of_form(s.psi)

    def velocity(y):
        lap = H4 @ (ce_matrix(y, 3) @ (M1 @ y)) - ce_matrix(y, 2) @ (M2 @ y)
        Q = s.solve_Q(KForm(3, lap))
        return Q, pack_constants(delta_mu(unpack_constants(y), Q)).reshape(-1)

    return velocity


def bracket_flow(mu0: LieBracket, s: G2Structure,
                 opts: IntegratorOptions | None = None) -> FlowTrajectory:
    """Integrate d mu/dt = delta_mu(Q_mu) with the 3-form held fixed."""
    opts = opts or IntegratorOptions()
    velocity = _bracket_velocity(s)

    def rhs(t, y):
        vel = velocity(y)[1]
        if opts.normalize == "unit-bracket-norm":
            vel = vel - (vel @ y) / max(y @ y, 1e-300) * y
        return vel

    def norm_of(y):
        return math.sqrt(2.0) * float(np.linalg.norm(y))

    def make_sample(t, y):
        mu = LieBracket(unpack_constants(y), validate=False)
        return _flow_sample(t, mu, s)

    run = drive(rhs, mu0.packed().reshape(-1), opts, make_sample, norm_of)
    return FlowTrajectory(run.samples, run.status, s, mu0, opts)


# ---------------------------------------------------------------------------
# direct Laplacian flow
# ---------------------------------------------------------------------------

def laplacian_flow(phi0: KForm, mu: LieBracket,
                   opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate dphi/dt = Delta_phi phi with the bracket held fixed.

    The metric is recomputed from phi at every stage.  A phi0 that is not
    positive raises PositivityError; loss of positivity later ends the run
    with status positivity-lost.
    """
    opts = opts or IntegratorOptions()
    if opts.normalize != "none":
        raise ValueError("normalization applies to the bracket flow only")
    metric_from_3form(phi0)

    def rhs(t, y):
        return laplacian(mu, metric_from_3form(KForm(3, y)), y)[0]

    def make_sample(t, y):
        return _flow_sample(t, mu, G2Structure(KForm(3, y)))

    return drive(rhs, phi0.coeffs.copy(), opts, make_sample, np.linalg.norm)


# ---------------------------------------------------------------------------
# equivalence maps between the two flows
# ---------------------------------------------------------------------------

@dataclass
class HSample:
    t: float
    h: np.ndarray
    phi_residual: float
    mu_residual: float


@dataclass
class HReconstruction(Trajectory):
    """Equivalence maps h(t), with residuals against both flow pictures."""

    side: str

    @property
    def max_phi_residual(self):
        return float(np.max([s.phi_residual for s in self.samples]))

    @property
    def max_mu_residual(self):
        return float(np.max([s.mu_residual for s in self.samples]))


def reconstruct_h(traj: FlowTrajectory, side: str = "ii") -> HReconstruction:
    """Integrate the equivalence maps h(t) linking the two flow pictures.

    side "ii": dh/dt = -Q_mu(t) h, driven by the bracket-flow operator;
    side "i":  dh/dt = -h Q_phi(t), driven by the direct-flow operator.
    Either way h(0) = I.  The bracket flow, the direct flow and h are
    integrated jointly, and the report carries the residuals of
    phi_direct(t) = h(t)^{-1} . phi and mu(t) = h(t) . mu0 along samples.
    The maps link the unnormalized flows only, so a trajectory of the
    norm-normalized bracket flow is refused.
    """
    if side not in ("i", "ii"):
        raise ValueError("side must be 'i' or 'ii'")
    if not isinstance(traj, FlowTrajectory):
        raise ValueError("reconstruction starts from a bracket-flow trajectory")
    if traj.opts.normalize != "none":
        raise ValueError("equivalence maps link the unnormalized flows only")
    s, mu0, opts = traj.structure, traj.mu0, traj.opts
    phi_c = s.phi.coeffs
    velocity = _bracket_velocity(s)
    n_mu = NCONST

    def rhs(t, y):
        h = y[n_mu:n_mu + 49].reshape(DIM, DIM)
        phi_d = y[n_mu + 49:]
        Qmu, dmu = velocity(y[:n_mu])
        if side == "ii":
            lap = laplacian(mu0, metric_from_3form(KForm(3, phi_d)), phi_d)[0]
            dh = -Qmu @ h
        else:
            st = G2Structure(KForm(3, phi_d))
            lap = laplacian(mu0, st.metric, phi_d)[0]
            dh = -h @ st.solve_Q(KForm(3, lap))
        return np.concatenate([dmu, dh.reshape(-1), lap])

    def norm_of(y):  # the bracket's norm, as in bracket_flow
        return math.sqrt(2.0) * float(np.linalg.norm(y[:n_mu]))

    def make_sample(t, y):
        h = y[n_mu:n_mu + 49].reshape(DIM, DIM)
        phi_d = y[n_mu + 49:]
        phi_pulled = pullback_matrix(h, 3) @ phi_c  # h(t)^{-1} . phi
        mu_res = bracket_act(h, mu0.c) - unpack_constants(y[:n_mu])
        return HSample(t, h.copy(), float(np.linalg.norm(phi_pulled - phi_d)),
                       float(np.sqrt(np.sum(mu_res ** 2))))

    y0 = np.concatenate([mu0.packed().reshape(-1), np.eye(DIM).reshape(-1), phi_c])
    run = drive(rhs, y0, opts, make_sample, norm_of)
    return HReconstruction(run.samples, run.status, side)


# ---------------------------------------------------------------------------
# soliton detection
# ---------------------------------------------------------------------------

def _fit_soliton(kind, mu, s, threshold, project, lap, dphi, dpsi):
    """Least-squares fit of Q over the family {c I + project(D) : D a
    derivation}; a certificate of the given kind when the residual is below
    threshold, relative to |Q|.  lap, dphi and dpsi are as laplacian returns
    them for s.phi."""
    Q = s.solve_Q(KForm(3, lap))
    scale = max(1.0, float(np.linalg.norm(Q)))
    g = s.metric
    tol = 1e-9 * max(1.0, g.form_norm(s.phi))
    if g.form_norm(KForm(4, dphi)) <= tol and g.form_norm(KForm(5, dpsi)) <= tol:
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
    return _fit_soliton("algebraic", mu, s, threshold, lambda D: D,
                        *laplacian(mu, s.metric, s.phi.coeffs))


def detect_semialgebraic(mu: LieBracket, s: G2Structure,
                         threshold: float = 1e-7) -> SolitonCertificate:
    """Fit of Q over {c I + (D + D^t)/2 : D a derivation}, closed case only.

    On success the skew part (D - D^t)/2, the rotation generator of the
    norm-normalized bracket flow, is reported alongside."""
    lap, dphi, dpsi = laplacian(mu, s.metric, s.phi.coeffs)
    if not _closed(s, dphi):
        raise NotClosed("semi-algebraic detection requires a closed structure")
    cert = _fit_soliton("semi-algebraic", mu, s, threshold, s.sym_part, lap, dphi, dpsi)
    if cert.kind == "semi-algebraic":
        cert = replace(cert, skew=0.5 * (cert.D - s.metric.transpose(cert.D)))
    return cert


def lf_diagonal_test(traj: Trajectory, rel_tol: float = 1e-6) -> bool:
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
