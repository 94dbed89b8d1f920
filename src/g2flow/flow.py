"""Bracket-flow and Laplacian-flow integration, equivalence-map
reconstruction, and soliton detection."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteState, NotClosed, PositivityError, SingularSystem
from .exterior import (DIM, NFORMS, _PAIRS, KForm, Metric, _frozen, _skew_matrix, _star_table,
                       _theta_tensor, _wedge_table, hodge_matrix, phi_canonical, pullback3,
                       pullback_matrix)
from .g2core import G2Structure, _canonical_tables, _frame_torsion, _metric_parts
from .integrate import IntegratorOptions, Trajectory, drive
from .liealg import (
    NCONST,
    LieBracket,
    bracket_act,
    ce_matrix,
    ce_matrix_of_form,
    derivations,
    pack_constants,
    pow2_above,
    scalar_curvature,
    scaled_norm,
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
    """A bracket-flow run, with what reconstruct_h integrates it from: the
    structure, its compiled velocity, the start and the options."""

    structure: G2Structure
    velocity: Callable
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


def _soliton_label(c, scale):
    """The label of a soliton of constant c, Q = c I + D, for |Q| = scale."""
    if abs(c) <= 1e-12 * scale:
        return "steady"
    # the self-similar rescaling constant is -3c, so c < 0 means expanding
    return "expanding" if c < 0 else "shrinking"


def laplacian(mu: LieBracket, g: Metric, a):
    """Delta a = *d*d a - d*d* a for 3-form coefficients a, the fixed
    bracket mu and the Hodge stars of the metric g, as coefficients.  An
    overflowing Delta a raises NonFiniteState."""
    H3, H4, H5 = hodge_matrix(g, 3), hodge_matrix(g, 4), hodge_matrix(g, 5)
    d2, d3, d4 = ce_matrix(mu, 2), ce_matrix(mu, 3), ce_matrix(mu, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        lap = H4 @ (d3 @ (H4 @ (d3 @ a))) - d2 @ (H5 @ (d4 @ (H3 @ a)))
    if not np.isfinite(lap).all():
        raise NonFiniteState("non-finite Laplacian")
    return lap


def _direct_velocity(mu: LieBracket):
    """The direct-flow right side for the fixed bracket mu, on the flat 35
    coefficients a of phi, which side "ii" of :func:`reconstruct_h` steps
    and the tests take as the oracle of :func:`laplacian_flow`:
    velocity(a) = Delta_phi phi, which
    :func:`laplacian` gives as laplacian(mu, metric_from_3form(phi), a), up
    to rounding, with no star matrix built per call.

    With G the gram of phi, v = o sqrt(det G) its volume factor and S_k the
    identity-metric stars, each star of :func:`hodge_matrix` acts on a
    vector: H4 x = P3(G) S4 x / v and H3 x = v S3 P3(G^-1) x by
    :func:`pullback3`, and H5 x = P2(G) S5 x / v, P2(G) taking the skew
    matrix X of a 2-form to G^T X G.  So *d*d phi = H4 d3 H4 d3 phi is two
    pullbacks by G through A1 = S4 d3, and d*d* phi = d2 H5 d4 H3 phi is
    d2 P2(G) A2 P3(G^-1) phi with A2 = S5 d4 S3, v cancelling; A1, A2 and d2
    are built here, once.  G and v come from :func:`g2core._metric_parts`, as
    in :func:`metric_from_3form`, with no Metric built.  A phi off the
    positive cone raises PositivityError from there, and an overflowing
    Delta NonFiniteState."""
    S3, S4, S5 = (_star_table(k) for k in (3, 4, 5))
    A1 = S4 @ ce_matrix(mu, 3)
    A2 = S5 @ ce_matrix(mu, 4) @ S3
    d2 = ce_matrix(mu, 2)

    def velocity(a):
        G, v, _ = _metric_parts(a)
        with np.errstate(over="ignore", invalid="ignore"):
            dd = pullback3(G, A1 @ (pullback3(G, A1 @ a) / v)) / v
            X = _skew_matrix(A2 @ pullback3(np.linalg.inv(G), a))
            lap = dd - d2 @ (G.T @ X @ G).reshape(-1)[_PAIRS]
        if not np.isfinite(lap).all():
            raise NonFiniteState("non-finite Laplacian")
        return lap

    return velocity


# ---------------------------------------------------------------------------
# bracket flow
# ---------------------------------------------------------------------------

def _flow_sample(t, mu: LieBracket, st: G2Structure) -> FlowSample:
    """The sample of the pair (mu, st.phi), read in the adapted frame
    (:func:`_in_frame`): |Delta| = |T Qc|, T the canonical theta map, and
    |tau| of the frame pair (d phi, d psi) = (S3 u[:35], S2 u[35:])."""
    Qc, u, c = _in_frame(mu, st)
    (T, *_), *_ = _canonical_tables()
    R = 1.5 * float(np.trace(Qc)) if _closed(u, c) else scalar_curvature(c)
    n3 = NFORMS[3]
    tau = _frame_torsion(_star_table(3) @ u[:n3], _star_table(2) @ u[n3:]).norm
    return FlowSample(t, mu, st.phi, st._conj_to_e(Qc), mu.norm(), R, tau,
                      scaled_norm(T @ Qc.reshape(-1)))


@functools.cache
def _velocity_tables():
    """The index tables of :func:`_bracket_velocity`, the same for every
    structure.  X[m, q] = [u, -u, 0][gather[m, q]] is i_{e_m}, the transpose
    of e^m ^ ., of the 3-form u[:35] (q < 21) and of the 2-form u[35:]
    (q >= 21).  e^p ^ e^q = sign e^rank over the 2-forms p and the columns q
    of X that do not overlap, at pairs in the flattened (21, 28) array: the
    wedge table (2, 2), its signs negated, then (2, 1).  rows, cols, vals
    are the triples of theta_2, the (441, 49) map of Q to theta_2(Q)."""
    n3, n = NFORMS[3], NFORMS[3] + NFORMS[2]
    (r12, s12), (r11, s11) = _wedge_table(1, 2), _wedge_table(1, 1)
    rank, sign = np.hstack([r12, r11 + n3]), np.hstack([s12, s11])
    gather = np.where(sign > 0, rank, np.where(sign < 0, rank + n, 2 * n)).ravel()
    (r22, s22), (r21, s21) = _wedge_table(2, 2), _wedge_table(2, 1)
    rank, sign = np.hstack([r22, r21 + n3]).ravel(), np.hstack([-s22, s21]).ravel()
    pairs = np.flatnonzero(sign)
    th2 = _theta_tensor(2).transpose(0, 3, 1, 2).reshape(NFORMS[2] ** 2, DIM * DIM)
    rows, cols = np.nonzero(th2)
    return _frozen(gather, pairs, rank[pairs], sign[pairs], rows, cols, th2[rows, cols])


_ZERO = _frozen(np.zeros(1))


def _bracket_velocity(s: G2Structure):
    """The bracket-flow right side for the fixed form s.phi, on flat packed
    constants y: velocity(y) = (Q_mu, delta_mu(Q_mu) packed, u), a cubic in
    y whose matrices depend on the form alone and are built here, once.

    With Y = y.reshape(21, 7) (pair x index), d_y v = -sum_m Y[:, m] ^ i_m v.
    So u = (*d_y phi, *d_y psi) = M y, X = [i_m u] is a (7, 28) gather of u,
    and Delta_mu phi = *d*d phi - d*d* phi = -H4 W22 (Y X) + W21 (Y X): the
    2-forms of Y X wedged with those of X into 4-forms, then starred, and
    with its 1-forms into 3-forms.  Q = P_Q Delta, P_Q being the structure's
    one (49, 35) map of the Q solve (:meth:`G2Structure.solve_Q_matrix`,
    whose residual is checked once per process), folded with H4.  The
    packed velocity is -theta_2(Q) Y - Y Q^T.  The interior products,
    wedges and theta_2 are the index tables of :func:`_velocity_tables`.
    A non-finite Q raises NonFiniteState.
    """
    g = s.metric
    H4 = hodge_matrix(g, 4)
    gather, pairs, rank, sign, rows, cols, vals = _velocity_tables()
    M = np.vstack([H4 @ ce_matrix_of_form(s.phi), hodge_matrix(g, 5) @ ce_matrix_of_form(s.psi)])
    PQ = s.solve_Q_matrix()
    PQ = np.hstack([PQ @ H4, PQ])  # the 4-forms of the wedges are starred
    n2, n_w = NFORMS[2], 2 * NFORMS[3]

    def velocity(y):
        # a non-finite or overflowing y gives a non-finite Q, which raises
        with np.errstate(invalid="ignore", over="ignore"):
            Y = y.reshape(n2, DIM)
            u = M @ y
            X = np.concatenate([u, -u, _ZERO])[gather].reshape(DIM, -1)
            wedges = np.bincount(rank, sign * (Y @ X).reshape(-1)[pairs], n_w)
            Q = (PQ @ wedges).reshape(DIM, DIM)
            if not np.isfinite(Q).all():
                raise NonFiniteState("non-finite Q")
            theta = np.bincount(rows, vals * Q.reshape(-1)[cols], n2 * n2).reshape(n2, n2)
            return Q, (-theta @ Y - Y @ Q.T).reshape(-1), u

    return velocity


@functools.cache
def _canonical_velocity():
    """The compiled velocity of phi_canonical, built once per process."""
    return _bracket_velocity(G2Structure(phi_canonical()))


def _in_frame(mu: LieBracket, st: G2Structure):
    """The pair (mu, st.phi) in the adapted frame F of st: by GL(7)-naturality
    it is (c, phi_canonical), c = F^-1 . mu, with the identity metric, and
    has the same |tau|, R and closedness, and Q up to conjugation by F.
    Returns (Qc, u, c), Qc and u = (*d phi, *d psi) of the canonical
    compiled velocity at c."""
    c = bracket_act(st._frame_inv, mu.c, st.frame)
    Qc, _, u = _canonical_velocity()(pack_constants(c).reshape(-1))
    return Qc, u, c


def _closed(u, c) -> bool:
    """Whether |d phi| = |u[:35]| (u and the frame bracket c from
    :func:`_in_frame`) is at most CLOSED_TOL |phi| |c|, |phi| = sqrt 7.
    d phi is linear in c, so the test does not depend on the scale of c."""
    return scaled_norm(u[:NFORMS[3]]) <= CLOSED_TOL * math.sqrt(7.0) * scaled_norm(c)


def _natural_q(mu: LieBracket, phi):
    """Q_phi = F Qc F^-1 and Delta_phi phi = F . T Qc of the pair (mu, phi),
    phi given by its coefficients (:func:`_in_frame`; T the canonical theta
    map).  No Hodge star or Q solve per call."""
    st = G2Structure(KForm(3, phi))
    Qc = _in_frame(mu, st)[0]
    (T, *_), *_ = _canonical_tables()
    return st._conj_to_e(Qc), pullback3(st._frame_inv, T @ Qc.reshape(-1))


def _bracket_norm(y):
    """|mu| of the packed constants at the head of a flat state y."""
    return math.sqrt(2.0) * float(np.linalg.norm(y[:NCONST]))


def bracket_flow(mu0: LieBracket, s: G2Structure,
                 opts: IntegratorOptions | None = None) -> FlowTrajectory:
    """Integrate d mu/dt = delta_mu(Q_mu) with the 3-form held fixed.

    The velocity is a homogeneous cubic in mu, so rk45 integrates it in
    scale-free time, as the normalized flow plus |mu| and t
    (:func:`integrate.drive`)."""
    opts = opts or IntegratorOptions()
    velocity = _bracket_velocity(s)

    def rhs(t, y):
        return velocity(y)[1]

    def make_sample(t, y):
        mu = LieBracket(unpack_constants(y), validate=False)
        return _flow_sample(t, mu, s)

    run = drive(rhs, mu0.packed().reshape(-1), opts, make_sample, _bracket_norm)
    return FlowTrajectory(run.samples, run.status, s, velocity, mu0, opts)


# ---------------------------------------------------------------------------
# direct Laplacian flow
# ---------------------------------------------------------------------------

def _bracket_and_h(velocity, y):
    """(delta_mu(Q_mu) packed, -Q_mu h flat), the rates of the bracket flow
    by its compiled velocity and of dh/dt = -Q_mu h, at y = (mu packed, h,
    ...).  An overflowing Q_mu h raises NonFiniteState, with no warning."""
    Q, dmu, _ = velocity(y[:NCONST])
    with np.errstate(over="ignore", invalid="ignore"):
        dh = Q @ y[NCONST:NCONST + DIM * DIM].reshape(DIM, DIM)
    if not np.isfinite(dh).all():
        raise NonFiniteState("non-finite Q h")
    return dmu, -dh.reshape(-1)


def laplacian_flow(phi0: KForm, mu: LieBracket,
                   opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate dphi/dt = Delta_phi phi with the bracket held fixed, by the
    bracket flow: when mu(t) is the bracket flow of (mu, phi0) and
    dh/dt = -Q_mu(t) h with h(0) = I, phi(t) = h(t)^* phi0.

    drive steps (mu(t), h), h a tail of weight 0 (:func:`_bracket_and_h`):
    rk45 in scale-free time, dh/dtau = -Q_x h, and rk4 in t.  As for the
    bracket flow, the rk45 run of (phi0, 2^k mu) to t_end / 4^k ends where
    that of (phi0, mu) to t_end does, Q and R by 4^k and |tau| by 2^k, to
    rounding.  h maps (mu, phi(t)) isometrically onto (mu(t), phi0), so a
    sample is the :func:`_flow_sample` of (mu(t), phi0), with Q as
    h^-1 Q h, phi = h^* phi0 and the fixed mu: no sample builds a
    G2Structure.  blowup_norm times max(1, |phi0|) bounds |phi(t)| at each
    accepted step.

    A phi0 that is not positive raises PositivityError, and one whose
    G2Structure raises SingularSystem ends the run singular-frame with no
    samples.  Once cond(h) passes sqrt(cond(g0) / eps), g0 the metric of
    phi0, the gram h^T g0 h of phi(t) has a condition number above 1 / eps
    (it is at least cond(h)^2 / cond(g0)): its least eigenvalue is below
    the rounding of its largest, phi(t) is no longer definite in floats,
    and the run ends positivity-lost, although phi(t) is positive in exact
    arithmetic.  The test is one SVD of h at each accepted step.
    """
    opts = opts or IntegratorOptions()
    if opts.normalize != "none":
        raise ValueError("normalization applies to the bracket flow only")
    try:
        s = G2Structure(phi0)
    except SingularSystem:
        return Trajectory([], "singular-frame")
    velocity = _bracket_velocity(s)
    y0 = np.concatenate([mu.packed().reshape(-1), np.eye(DIM).reshape(-1)])
    cond_max = math.sqrt(np.linalg.cond(s.metric.gram) / np.finfo(float).eps)
    norm_mu = mu.norm()

    def rhs(t, y):
        return np.concatenate(_bracket_and_h(velocity, y))

    def phi_of(y):
        return pullback3(y[NCONST:].reshape(DIM, DIM), phi0.coeffs)

    def norm_of(y):
        norm = float(np.linalg.norm(phi_of(y)))
        if math.isfinite(norm) and np.linalg.cond(y[NCONST:].reshape(DIM, DIM)) > cond_max:
            raise PositivityError("phi(t) = h^* phi0 is not definite in floats")
        return norm

    def make_sample(t, y):
        h = y[NCONST:].reshape(DIM, DIM)
        with np.errstate(over="ignore", invalid="ignore"):  # a bracket mu(t) past 1e154
            mu_t = LieBracket(unpack_constants(y[:NCONST]), validate=False)
            smp = _flow_sample(t, mu_t, s)
            Q = np.linalg.solve(h, smp.Q @ h)
        if not np.isfinite([*Q.ravel(), smp.R, smp.torsion_norm, smp.velocity_norm]).all():
            raise NonFiniteState("non-finite sample")
        return replace(smp, mu=mu, phi=KForm(3, phi_of(y)), Q=Q, norm_mu=norm_mu)

    return drive(rhs, y0, opts, make_sample, norm_of, tail=DIM * DIM)


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

    side "ii": dh/dt = -Q_mu(t) h, driven by the bracket-flow operator
    (with Delta_phi phi by :func:`_direct_velocity`);
    side "i":  dh/dt = -h Q_phi(t), driven by the direct-flow operator
    (Q_phi and Delta_phi phi by :func:`_natural_q`).
    Either way h(0) = I.  The bracket flow, the direct flow and h are
    integrated jointly, and the report carries the residuals of
    phi_direct(t) = h(t)^{-1} . phi and mu(t) = h(t) . mu0 along samples.
    The maps link the unnormalized flows only, so a trajectory of the
    norm-normalized bracket flow is refused.

    rk45 steps in the bracket flow's scale-free time (:func:`integrate.drive`):
    phi_direct's rate does not depend on mu(t), so it is a clocked tail, and
    so is h on side "i"; on side "ii" h is a tail of weight 0, as in
    :func:`laplacian_flow`.  rk4 steps all of it in t.
    """
    if side not in ("i", "ii"):
        raise ValueError("side must be 'i' or 'ii'")
    if not isinstance(traj, FlowTrajectory):
        raise ValueError("reconstruction starts from a bracket-flow trajectory")
    if traj.opts.normalize != "none":
        raise ValueError("equivalence maps link the unnormalized flows only")
    s, velocity, mu0, opts = traj.structure, traj.velocity, traj.mu0, traj.opts
    phi_c = s.phi.coeffs
    direct = _direct_velocity(mu0) if side == "ii" else None

    def rhs(t, y):
        phi_d = y[NCONST + 49:]
        if side == "ii":
            return np.concatenate([*_bracket_and_h(velocity, y), direct(phi_d)])
        dmu = velocity(y[:NCONST])[1]
        Q, lap = _natural_q(mu0, phi_d)
        dh = -y[NCONST:NCONST + 49].reshape(DIM, DIM) @ Q
        return np.concatenate([dmu, dh.reshape(-1), lap])

    def make_sample(t, y):
        h = y[NCONST:NCONST + 49].reshape(DIM, DIM)
        phi_d = y[NCONST + 49:]
        phi_pulled = pullback_matrix(h, 3) @ phi_c  # h(t)^{-1} . phi
        mu_res = bracket_act(h, mu0.c) - unpack_constants(y[:NCONST])
        return HSample(t, h.copy(), float(np.linalg.norm(phi_pulled - phi_d)),
                       float(np.sqrt(np.sum(mu_res ** 2))))

    y0 = np.concatenate([mu0.packed().reshape(-1), np.eye(DIM).reshape(-1), phi_c])
    tail = DIM * DIM if side == "ii" else 0
    run = drive(rhs, y0, opts, make_sample, _bracket_norm, tail=tail,
                clocked=y0.size - NCONST - tail)
    return HReconstruction(run.samples, run.status, side)


# ---------------------------------------------------------------------------
# soliton detection
# ---------------------------------------------------------------------------

def _fit_soliton(kind, mu, s, project, Qc, u, cf):
    """Least-squares fit of Q over the family {c I + project(D) : D a
    derivation}, in e-coordinates; a certificate of the given kind when the
    residual is below 1e-7, relative to |Q|.  Qc, u and the frame bracket
    cf are as :func:`_in_frame` returns them for (mu, s).  Every test is
    homogeneous, so the kind of s mu is that of mu."""
    Q = s._conj_to_e(Qc)
    scale = scaled_norm(Q)
    n3, tol = NFORMS[3], 1e-9 * math.sqrt(7.0) * scaled_norm(cf)  # against |phi| |c|
    if scaled_norm(u[:n3]) <= tol and scaled_norm(u[n3:]) <= tol:
        return SolitonCertificate("torsion-free", 0.0, np.zeros((DIM, DIM)), scale, "steady")
    der = derivations(mu)
    cols = [np.eye(DIM).reshape(-1)] + [project(D).reshape(-1) for D in der.basis]
    A = np.array(cols).T
    x, *_ = np.linalg.lstsq(A, Q.reshape(-1), rcond=None)
    p = pow2_above(Q)  # |residual| <= |Q|, so no square of r / p overflows
    residual = p * float(np.linalg.norm((A @ x - Q.reshape(-1)) / p))
    if residual > 1e-7 * scale:
        return SolitonCertificate("none", float("nan"),
                                  np.full((DIM, DIM), np.nan), residual, "none")
    c = float(x[0])
    D = np.einsum("n,nab->ab", x[1:], der.basis)
    return SolitonCertificate(kind, c, D, residual, _soliton_label(c, scale))


def detect_algebraic(mu: LieBracket, s: G2Structure) -> SolitonCertificate:
    """Least-squares fit of Q over the family {c I + D : D a derivation}."""
    return _fit_soliton("algebraic", mu, s, lambda D: D, *_in_frame(mu, s))


def detect_semialgebraic(mu: LieBracket, s: G2Structure) -> SolitonCertificate:
    """Fit of Q over {c I + (D + D^t)/2 : D a derivation}, closed case only.

    On success the skew part (D - D^t)/2, the rotation generator of the
    norm-normalized bracket flow, is reported alongside."""
    Qc, u, c = _in_frame(mu, s)
    if not _closed(u, c):
        raise NotClosed("semi-algebraic detection requires a closed structure")
    g = s.metric.gram
    ginv = np.linalg.inv(g)  # once, for every basis matrix: s.sym_part inverts g each call
    cert = _fit_soliton("semi-algebraic", mu, s, lambda D: 0.5 * (D + ginv @ D.T @ g),
                        Qc, u, c)
    if cert.kind == "semi-algebraic":
        cert = replace(cert, skew=0.5 * (cert.D - ginv @ cert.D.T @ g))
    return cert


def lf_diagonal_test(traj: Trajectory) -> bool:
    """True when the sampled Q operators pairwise commute to 1e-6 relative,
    i.e. are simultaneously diagonalizable (symmetric in the closed case)."""
    Qs = [smp.Q for smp in traj.samples]
    for i in range(len(Qs)):
        ni = np.linalg.norm(Qs[i])
        if ni < 1e-14:
            continue
        for j in range(i + 1, len(Qs)):
            nj = np.linalg.norm(Qs[j])
            if nj < 1e-14:
                continue
            if np.linalg.norm(Qs[i] @ Qs[j] - Qs[j] @ Qs[i]) >= 1e-6 * ni * nj:
                return False
    return True
