"""Linear algebra attached to a positive 3-form: induced metric, the
stabilizer-algebra splitting gl(7) = g2 + q, the Q-operator solver and
torsion-form extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import InconsistentTorsion, NonFiniteState, PositivityError, SingularSystem
from .exterior import (
    DIM,
    KForm,
    Metric,
    NFORMS,
    _frozen,
    _interior_table,
    _skew_matrix,
    _star_table,
    _theta_tensor,
    _wedge_table,
    hodge_matrix,
    hodge_star,
    phi_canonical,
    pullback3,
    pullback_matrix,
    wedge_matrix,
)

_KERNEL_CUT = 1e-8  # relative singular-value cutoff for rank decisions
_LOG_RANGE = np.log([np.finfo(float).tiny, np.finfo(float).max])  # |det B| a normal float
_ROOT_RANGE = np.exp(_LOG_RANGE / 18.0)  # the same range for |det B|^(1/18)
_NOT_DEFINITE = "induced bilinear form is not definite"
_OUT_OF_RANGE = "3-form coefficients out of range"

def induced_bilinear(phi: KForm) -> np.ndarray:
    """The symmetric matrix B with B(u,v) e^{1..7} = (1/6) i_u(phi)^i_v(phi)^phi."""
    return _bilinear(_coeffs_of_3form(phi))


def _coeffs_of_3form(phi: KForm) -> np.ndarray:
    if phi.degree != 3:
        raise ValueError("a structure is built from a 3-form")
    return phi.coeffs


def _bilinear(a):
    """:func:`induced_bilinear` of the 3-form with coefficients a."""
    X = _interior_table(3) @ a  # 7 x 21, row u is i_u(phi)
    rank, sign = _wedge_table(2, 2)  # e^{Ia} ^ e^{Ib} = sign e^{rank}
    W2 = sign * (_wedge_table(4, 3)[1] @ a)[rank]  # e^{Ia} ^ e^{Ib} ^ phi
    B = X @ W2 @ X.T / 6.0
    return 0.5 * (B + B.T)


def _metric_parts(a):
    """(G, v, L) of the 3-form with coefficients a, from one Cholesky factor
    L_B of o B, o the sign of B[0, 0] (a definite B has diagonal entries of
    one sign, and o is the sign of det B in dimension 7): with
    r = prod diag(L_B)^(1/9) = |det B|^(1/18), the volume factor
    v = o r^2 = o |det B|^(1/9), which is o sqrt(det G), the gram G = B / v
    and its Cholesky factor L = L_B / r.  Each diagonal entry takes its own
    ninth root, by two cube roots, so no product over- or underflows.  A
    form that fails raises PositivityError, with :func:`_diagnosis`'s
    message."""
    with np.errstate(over="ignore", invalid="ignore"):  # failures: _diagnosis
        B = _bilinear(a)
        o = 1.0 if B[0, 0] > 0.0 else -1.0
        try:  # a non-finite B has no factor either
            L = np.linalg.cholesky(B if o > 0.0 else -B)
        except np.linalg.LinAlgError:
            raise PositivityError(_diagnosis(a, B)) from None
        r = 1.0
        for root in np.cbrt(np.cbrt(L.diagonal())).tolist():  # np.cbrt: < 1 ulp, math.cbrt: 2.6
            r *= root
        if _ROOT_RANGE[0] < r < _ROOT_RANGE[1]:
            v = o * (r * r)
            G = B / v
            # G can overflow although B and det B do not, as for
            # diag(1e160, 1e-30, ...) . phi_canonical
            if np.isfinite(G).all():
                return G, v, L / r
    raise PositivityError(_diagnosis(a, B))


def _diagnosis(a, B):
    """Why the 3-form a, with bilinear form B, has no metric: "must be
    finite" for a non-finite a; "out of range" where det B is not a normal
    float (B is cubic in phi) or the gram overflows; "not definite" where B
    is singular (also where it underflowed to a singular matrix: B of
    a / max|a| cannot) or, in range, not definite."""
    if not np.isfinite(a).all():
        return "3-form coefficients must be finite"
    with np.errstate(over="ignore", invalid="ignore"):
        o, logdet = np.linalg.slogdet(B)  # det B = o exp(logdet)
        if not _LOG_RANGE[0] < logdet < _LOG_RANGE[1]:  # NaN fails too
            s = np.abs(a).max()
            singular = o == 0 and (s == 0 or np.linalg.slogdet(_bilinear(a / s))[0] == 0)
            return _NOT_DEFINITE if singular else _OUT_OF_RANGE
        g = math.exp(logdet) ** (-1.0 / 9.0) * B
    return _NOT_DEFINITE if np.isfinite(g).all() else _OUT_OF_RANGE


def metric_from_3form(phi: KForm) -> Metric:
    """The metric g = |det B|^(-1/9) o B of a positive 3-form, o = sign det B,
    with the Cholesky factor and volume factor it was built from
    (:func:`_metric_parts`); PositivityError as from there."""
    return Metric._trusted(*_metric_parts(_coeffs_of_3form(phi)))


def _sym0_basis():
    """Orthonormal basis of trace-free symmetric 7x7 matrices (27 of them)."""
    out = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            E = np.zeros((DIM, DIM))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            out.append(E)
    for i in range(DIM - 1):
        v = np.zeros(DIM)
        v[: i + 1] = 1.0
        v[i + 1] = -(i + 1.0)
        v /= np.linalg.norm(v)
        out.append(np.diag(v))
    return np.array(out)


@dataclass
class TorsionForms:
    """The four torsion components of a pair (dphi, dpsi).

    tau1-tau3 are e-basis forms (frame forms from :func:`_frame_torsion`);
    residual is the metric distance of (dphi, dpsi) from the pairs that
    torsion forms give, and norm the metric norm
    sqrt(tau0^2 + |tau1|^2 + |tau2|^2 + |tau3|^2).
    """

    tau0: float
    tau1: KForm
    tau2: KForm
    tau3: KForm
    residual: float
    norm: float


@cache
def _canonical_tables():
    """The G2 algebra of phi_canonical, the same for every structure in its
    adapted frame: the theta map T: X -> theta(X) phi_canonical as a
    (35, 49) matrix and its pseudo-inverse (whose minimum-norm solutions lie
    in q, the orthogonal complement of the kernel g2), bases of g2 and q,
    the q1/q7/q27 split of q, and phi_canonical with its star.  q7, the
    skew part of q, is spanned by the matrices phi(., ., v), each of
    Frobenius norm sqrt(6).  Built once per process, read-only.  A rank
    below 35 or |T T^+ - I| above rounding raises SingularSystem, here only."""
    phi = phi_canonical()
    Tmap = np.einsum("jabi,i->jab", _theta_tensor(3), phi.coeffs).reshape(NFORMS[3], DIM * DIM)
    U, s, Vh = np.linalg.svd(Tmap)
    rank = int(np.sum(s > _KERNEL_CUT * s[0]))
    if rank != NFORMS[3]:
        raise SingularSystem(f"theta map has rank {rank}, expected {NFORMS[3]}")
    solve_op = (Vh[:rank].T / s) @ U.T
    res = np.linalg.norm(Tmap @ solve_op - np.eye(rank))
    if not res <= 1e-9 * np.sqrt(rank):  # NaN fails too
        raise SingularSystem(f"Q solve residual {res:g}")
    g2_f, q_f = Vh[rank:].reshape(-1, DIM, DIM), Vh[:rank].reshape(rank, DIM, DIM)
    q7 = np.array([_skew_matrix(c) for c in _interior_table(3) @ phi.coeffs]) / np.sqrt(6.0)
    q_split = _frozen((np.eye(DIM) / np.sqrt(DIM))[None, :, :], q7, _sym0_basis())
    return _frozen(Tmap, solve_op, g2_f, q_f), q_split, phi, hodge_star(phi)


@cache
def _torsion_map():
    """The torsion projections of :func:`_frame_torsion` for
    phi_canonical as one (71, 56) map: (a, b) = (P4 dphi, P5 dpsi) in frame
    coordinates to (tau0, tau1a, tau1b, tau2, tau3), all linear in (a, b).
    With * the identity-metric star, tau0 = <a, psi>/7, tau1a =
    *(phi ^ *a)/12 and tau1b = *(psi ^ *b)/12 are the tau1 of a and of b
    alone, tau3 = *(a - tau0 psi - 3 tau1a ^ phi) and
    tau2 = -*(b - 4 tau1b ^ psi).  Built once per process, read-only."""
    *_, phi, psi = _canonical_tables()
    n4, n5 = NFORMS[4], NFORMS[5]
    a, b = np.eye(n4 + n5)[:n4], np.eye(n4 + n5)[n4:]
    tau0 = psi.coeffs @ a / 7.0
    # phi ^ x = -(x ^ phi) for a 3-form x, psi ^ x = x ^ psi for a 2-form x
    tau1a = -_star_table(6) @ wedge_matrix(phi, 3) @ _star_table(4) @ a / 12.0
    tau1b = _star_table(6) @ wedge_matrix(psi, 2) @ _star_table(5) @ b / 12.0
    tau3 = _star_table(4) @ (a - np.outer(psi.coeffs, tau0) - 3.0 * wedge_matrix(phi, 1) @ tau1a)
    tau2 = -_star_table(5) @ (b - 4.0 * wedge_matrix(psi, 1) @ tau1b)
    return _frozen(np.vstack([tau0, tau1a, tau1b, tau2, tau3]))


_CROSS_SIGNS = np.array([-1.0, -1.0, 1.0])  # f5, f6, f7 from phi(f4, f_a, .)


def _adapted_frame(phi: KForm, g: Metric) -> np.ndarray:
    """A g-orthonormal frame F = [f1 .. f7] with F^* phi = phi_canonical.

    With the cross product u x v = G^-1 phi(u, v, .): f1 and f2 are the
    first two columns of the Cholesky frame, f3 = f1 x f2, and f4 is the
    column least aligned with f3 among the other five (which are orthogonal
    to f1 and f2), made orthogonal to f3 and normalised.  Then f5 = f1 x f4,
    f6 = f2 x f4 and f7 = -(f3 x f4), as for e1 .. e7 under phi_canonical.
    The five columns span the complement of f1 and f2, which holds f3, so
    the least aligned one keeps at least sqrt(4/5) of its length."""
    M = g.frame()
    X = _interior_table(3) @ phi.coeffs  # row u: the 2-form phi(e_u, ., .)

    def contract(u):  # the matrix S with S v = phi(u, v, .)
        return _skew_matrix(u @ X)

    ginv = M @ M.T
    F = np.empty((DIM, DIM))
    F[:, :2] = M[:, :2]
    w3 = contract(M[:, 0]) @ M[:, 1]  # phi(f1, f2, .) = G f3
    F[:, 2] = f3 = ginv @ w3
    c = M[:, 2 + np.argmin(np.abs(w3 @ M[:, 2:]))]  # least |<f3, column>|
    f4 = c - (w3 @ c) * f3
    F[:, 3] = f4 = f4 / np.sqrt(f4 @ g.gram @ f4)
    # column a: phi(f4, f_a, .) = -G (f_a x f4)
    F[:, 4:] = (ginv @ contract(f4) @ F[:, :3]) * _CROSS_SIGNS
    return F


class G2Structure:
    """A positive 3-form with its induced metric and the G2 algebra
    attached to it.

    Construction computes the metric and a G2-adapted frame F
    (:func:`_adapted_frame`), orthonormal for the metric, and checks that F
    pulls phi back to phi_canonical: a miss above 1e-9 relative, or above
    the rounding of that pullback, eps |F|^3 |phi|, when the frame is so
    ill-conditioned that this is larger, raises SingularSystem, or
    NonFiniteState when it is not finite.  So in frame
    coordinates every structure has the same G2 algebra: the theta map and
    its pseudo-inverse, the g2 and q bases, the q1/q7/q27 split and phi and
    psi are constants of phi_canonical (:func:`_canonical_tables`), built
    once per process, and a structure conjugates them by F.  Construction
    takes no SVD.  A plain value: it holds what the constructor sets, and
    psi, the Q solve and the torsion forms are computed on each call.  What
    depends on the metric alone (Hodge stars, the inner product on forms,
    adjoints) is read from ``metric``.

    Attributes:
        phi, psi: the 3-form and its Hodge dual 4-form.
        metric: the induced inner product, a :class:`Metric`.
        frame: the adapted frame F, with F^T G F = I.
        g2_basis: 14 matrices spanning the stabilizer algebra.
        q_basis: 35 matrices spanning its orthogonal complement, split into
            q1_basis (span of I), q7_basis (skew part) and q27_basis
            (trace-free symmetric part).
    """

    def __init__(self, phi: KForm):
        self.phi = phi
        self.metric = g = metric_from_3form(phi)
        self.frame = F = _adapted_frame(phi, g)
        (_, self._solve_op, self._g2_f, self._q_f), self._q_split, phi_c, _ = _canonical_tables()
        miss = np.linalg.norm(pullback3(F, phi.coeffs) - phi_c.coeffs)
        size = float(np.linalg.norm(F))
        rounding = math.ulp(1.0) * size * size * size * phi.norm()  # floats: inf, no warning
        if not (miss <= max(1e-9 * phi_c.norm(), rounding) and np.isfinite(miss)):
            error = SingularSystem if np.isfinite(miss) else NonFiniteState
            raise error(f"adapted frame misses phi_canonical by {miss:g}")
        self._frame_inv = F.T @ g.gram

    @property
    def psi(self) -> KForm:
        return hodge_star(self.phi, self.metric)

    # -- basic operators ---------------------------------------------------

    def _conj_to_e(self, X):
        """F X F^-1: a frame-coordinate endomorphism in e-coordinates."""
        return self.frame @ X @ self._frame_inv

    @property
    def g2_basis(self):
        return [self._conj_to_e(X) for X in self._g2_f]

    @property
    def q_basis(self):
        return [self._conj_to_e(X) for X in self._q_f]

    @property
    def q1_basis(self):
        return [self._conj_to_e(X) for X in self._q_split[0]]

    @property
    def q7_basis(self):
        return [self._conj_to_e(X) for X in self._q_split[1]]

    @property
    def q27_basis(self):
        return [self._conj_to_e(X) for X in self._q_split[2]]

    def sym_part(self, A):
        return 0.5 * (np.asarray(A) + self.metric.transpose(A))

    # -- the Q operator ----------------------------------------------------

    def solve_Q(self, psi: KForm) -> np.ndarray:
        """The unique Q in q with theta(Q) phi = psi, for any 3-form psi, by
        :meth:`solve_Q_matrix`; a non-finite Q raises NonFiniteState."""
        if psi.degree != 3:
            raise ValueError("need a 3-form")
        Q = (self.solve_Q_matrix() @ psi.coeffs).reshape(DIM, DIM)
        if not np.isfinite(Q).all():
            raise NonFiniteState("non-finite Q")
        return Q

    def solve_Q_matrix(self) -> np.ndarray:
        """The Q solve as one (49, 35) matrix: Q = F X F^-1, X the canonical
        solve (checked once per process) of the 3-form pulled back by F."""
        P = self._solve_op @ pullback_matrix(self.frame, 3)
        PQ = self._frame_inv.T @ (self.frame @ P.reshape(DIM, -1)).reshape(DIM, DIM, -1)
        return PQ.reshape(DIM * DIM, -1)

    # -- torsion forms -----------------------------------------------------

    def torsion_forms(self, dphi: KForm, dpsi: KForm) -> TorsionForms:
        """Solve dphi = tau0 psi + 3 tau1 ^ phi + *tau3 and
        dpsi = 4 tau1 ^ psi + tau2 ^ phi for the constrained components:
        :func:`_frame_torsion` of the frame pair (P4 dphi, P5 dpsi), its forms
        pulled back into e-coordinates by the inverse frame.  The frame is
        oriented and orthonormal, so its pullback takes the star H of the
        metric to the identity-metric star S: P_{7-k} H_k = S_k P_k, and with
        H_{7-k} H_k = 1, P4 = S3 P3 H4 and P5 = S2 P2 H5, from pullbacks of
        degree at most 3."""
        if dphi.degree != 4 or dpsi.degree != 5:
            raise ValueError("need (4-form, 5-form)")
        P4 = _star_table(3) @ pullback_matrix(self.frame, 3) @ hodge_matrix(self.metric, 4)
        P5 = _star_table(2) @ pullback_matrix(self.frame, 2) @ hodge_matrix(self.metric, 5)
        tf = _frame_torsion(P4 @ dphi.coeffs, P5 @ dpsi.coeffs)
        B1, B2, B3 = (pullback_matrix(self._frame_inv, k) for k in (1, 2, 3))
        return replace(tf, tau1=KForm(1, B1 @ tf.tau1.coeffs), tau2=KForm(2, B2 @ tf.tau2.coeffs),
                       tau3=KForm(3, B3 @ tf.tau3.coeffs))


def _frame_torsion(a, b) -> TorsionForms:
    """The torsion forms of (dphi, dpsi) = (a, b) for phi_canonical, in frame
    coordinates, where phi has the identity metric.

    There the terms lie in orthogonal summands, Lambda^4 = 1 + 7 + 27 and
    Lambda^5 = 7 + 14, so each component is a projection, and all of them
    are one constant map of the pair (:func:`_torsion_map`).  The two tau1
    of an inconsistent pair are weighted 3:4, as least squares would weight
    them; a residual above 1e-6 max(1, |(a, b)|) raises InconsistentTorsion,
    or NonFiniteState when it is not finite."""
    v = _torsion_map() @ np.concatenate([a, b])
    tau0, tau1a, tau1b, tau2, tau3 = float(v[0]), v[1:8], v[8:15], v[15:36], v[36:]
    tau1, miss = (3.0 * tau1a + 4.0 * tau1b) / 7.0, tau1a - tau1b
    res = 12.0 / math.sqrt(7.0) * math.sqrt(miss @ miss)
    scale = max(1.0, math.hypot(math.sqrt(a @ a), math.sqrt(b @ b)))
    if not res <= 1e-6 * scale:  # NaN fails too
        error = InconsistentTorsion if math.isfinite(res) else NonFiniteState
        raise error(f"torsion reconstruction residual {res:g}")
    norm = math.sqrt(tau0 * tau0 + tau1 @ tau1 + tau2 @ tau2 + tau3 @ tau3)
    return TorsionForms(tau0, KForm(1, tau1), KForm(2, tau2), KForm(3, tau3), res, norm)
