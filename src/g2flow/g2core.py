"""Linear algebra attached to a positive 3-form: induced metric, the
stabilizer-algebra splitting gl(7) = g2 + q, the Q-operator solver, the
i/j maps, and torsion-form extraction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ComponentError, InconsistentTorsion, NonFiniteState, PositivityError,
                     SingularSystem)
from .exterior import (
    DIM,
    KForm,
    Metric,
    NFORMS,
    _interior_table,
    _theta_tensor,
    _wedge_table,
    form_from_skew,
    hodge_matrix,
    hodge_star,
    pullback_matrix,
    skew_from_form,
    theta,
    wedge_matrix,
)

_KERNEL_CUT = 1e-8  # relative singular-value cutoff for rank decisions

def induced_bilinear(phi: KForm) -> np.ndarray:
    """The symmetric matrix B with B(u,v) e^{1..7} = (1/6) i_u(phi)^i_v(phi)^phi."""
    if phi.degree != 3:
        raise ValueError("need a 3-form")
    X = _interior_table(3) @ phi.coeffs  # 7 x 21, row u is i_u(phi)
    rank, sign = _wedge_table(2, 2)  # e^{Ia} ^ e^{Ib} = sign e^{rank}
    W2 = sign * (_wedge_table(4, 3)[1] @ phi.coeffs)[rank]  # e^{Ia} ^ e^{Ib} ^ phi
    B = X @ W2 @ X.T / 6.0
    return 0.5 * (B + B.T)


def metric_from_3form(phi: KForm):
    """Recover (metric, volume form) from a positive 3-form.

    Raises PositivityError when the induced bilinear form is not definite
    or not finite.
    The bilinear form is rescaled so that the volume form is the metric
    volume: g = det(B)^(-1/9) B.
    """
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
    detB = np.linalg.det(B)
    gram = detB ** (-1.0 / 9.0) * B
    metric = Metric(gram, orientation)
    return metric, metric.volume_form()


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
    """The four torsion components of a pair (dphi, dpsi)."""

    tau0: float
    tau1: KForm
    tau2: KForm
    tau3: KForm
    residual: float

    def total_norm(self):
        return float(np.sqrt(self.tau0 ** 2 + self.tau1.norm() ** 2
                             + self.tau2.norm() ** 2 + self.tau3.norm() ** 2))


class G2Structure:
    """A positive 3-form with its induced metric and the linear algebra
    attached to it.

    Construction computes the metric, an oriented orthonormal frame and the
    SVD of the theta map X -> theta(X) phi in frame coordinates.  The Hodge
    dual psi, the frame and star tables of each degree, the q1/q7/q27 split
    and the torsion operator are filled in on first use.  Like
    a ``LieBracket``'s cache they hold idempotent values (a table built twice
    comes out the same), so instances may be shared across threads.

    Attributes:
        phi, psi: the 3-form and its Hodge dual 4-form.
        metric, vol: induced inner product and volume form.
        g2_basis: 14 matrices spanning the stabilizer algebra.
        q_basis: 35 matrices spanning its orthogonal complement, split into
            q1_basis (span of I), q7_basis (skew part) and q27_basis
            (trace-free symmetric part).
    """

    def __init__(self, phi: KForm):
        if phi.degree != 3:
            raise ValueError("a structure is built from a 3-form")
        self.phi = phi
        self.metric, self.vol = metric_from_3form(phi)
        self.frame = self.metric.frame()
        self._frame_inv = np.linalg.inv(self.frame)
        self._tables = {}

        # frame coordinates of phi: a positive form with identity metric
        self._phi_f = self._frame_table(3) @ phi.coeffs
        Tmap = np.einsum("jabi,i->jab", _theta_tensor(3),
                         self._phi_f).reshape(NFORMS[3], DIM * DIM)
        U, s, Vh = np.linalg.svd(Tmap)
        rank = int(np.sum(s > _KERNEL_CUT * s[0]))
        if rank != NFORMS[3]:
            raise SingularSystem(f"theta map has rank {rank}, expected {NFORMS[3]}")
        self._Tmap = Tmap
        self._g2_f = Vh[rank:].reshape(-1, DIM, DIM)
        self._q_f = Vh[:rank].reshape(rank, DIM, DIM)
        # pseudo-inverse of the theta map: its minimum-norm solutions lie in
        # the row space q, the orthogonal complement of the kernel g2
        self._solve_op = (Vh[:rank].T / s) @ U.T

    # -- tables filled on first use ----------------------------------------

    def _table(self, key, build):
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
        return table

    def _frame_table(self, k, inverse=False):
        """Pullback of degree-k coefficients by the frame (e coordinates to
        frame coordinates), or by its inverse (back again)."""
        h = self._frame_inv if inverse else self.frame
        return self._table(("frame", k, inverse), lambda: pullback_matrix(h, k))

    @cached_property
    def psi(self) -> KForm:
        return self.star(self.phi)

    @cached_property
    def _q_split(self):
        """Frame bases of q1, q7 and q27.  q7, the skew part of q, is spanned
        by the matrices phi(., ., v), each of Frobenius norm sqrt(6)."""
        cross = np.einsum("uji,i->uj", _interior_table(3), self._phi_f)
        q7 = np.array([skew_from_form(KForm(2, c)) for c in cross]) / np.sqrt(6.0)
        return (np.eye(DIM) / np.sqrt(DIM))[None, :, :], q7, _sym0_basis()

    @cached_property
    def _torsion_op(self):
        """Linear map from (tau0, tau1, tau2, tau3) coordinates to frame
        coordinates of (dphi, dpsi), with the tau2 and tau3 bases."""
        phi_f = KForm(3, self._phi_f)
        psi_f = hodge_star(phi_f)
        # tau2 lies in the 2-forms of the stabilizer algebra, tau3 in the
        # image of the trace-free symmetric matrices under the theta map
        l2_14 = np.array([form_from_skew(X).coeffs for X in self._g2_f])
        l3_27 = self._q_split[2].reshape(27, -1) @ self._Tmap.T
        n1, n2 = NFORMS[4], NFORMS[5]
        A = np.block([
            [psi_f.coeffs[:, None], 3.0 * wedge_matrix(phi_f, 1),
             np.zeros((n1, 14)), hodge_matrix(None, 3) @ l3_27.T],
            [np.zeros((n2, 1)), 4.0 * wedge_matrix(psi_f, 1),
             wedge_matrix(phi_f, 2) @ l2_14.T, np.zeros((n2, 27))],
        ])
        return A, l2_14, l3_27

    # -- basic operators ---------------------------------------------------

    def _conj_to_e(self, mats):
        return [self.frame @ X @ self._frame_inv for X in mats]

    @property
    def g2_basis(self):
        return self._conj_to_e(self._g2_f)

    @property
    def q_basis(self):
        return self._conj_to_e(self._q_f)

    @property
    def q1_basis(self):
        return self._conj_to_e(self._q_split[0])

    @property
    def q7_basis(self):
        return self._conj_to_e(self._q_split[1])

    @property
    def q27_basis(self):
        return self._conj_to_e(self._q_split[2])

    def star_matrix(self, k):
        """Matrix of the Hodge star from degree k to degree 7 - k."""
        return self._table(("star", k), lambda: hodge_matrix(self.metric, k))

    def star(self, a: KForm) -> KForm:
        return KForm(DIM - a.degree, self.star_matrix(a.degree) @ a.coeffs)

    def inner(self, a: KForm, b: KForm) -> float:
        if a.degree != b.degree:
            raise ValueError("degree mismatch")
        P = self._frame_table(a.degree)
        return float((P @ a.coeffs) @ (P @ b.coeffs))

    def form_norm(self, a: KForm) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def transpose(self, A):
        return self.metric.transpose(A)

    def sym_part(self, A):
        return 0.5 * (np.asarray(A) + self.transpose(A))

    # -- the Q operator ----------------------------------------------------

    def solve_Q(self, psi: KForm) -> np.ndarray:
        """The unique Q in q with theta(Q) phi = psi, for any 3-form psi."""
        if psi.degree != 3:
            raise ValueError("need a 3-form")
        psi_f = self._frame_table(3) @ psi.coeffs
        x = self._solve_op @ psi_f
        res = np.linalg.norm(self._Tmap @ x - psi_f)
        if not res <= 1e-9 * max(1.0, np.linalg.norm(psi_f)):  # NaN fails too
            error = SingularSystem if np.isfinite(res) else NonFiniteState
            raise error(f"Q solve residual {res:g}")
        return self.frame @ x.reshape(DIM, DIM) @ self._frame_inv

    def q_components(self, Q) -> dict:
        """Norms of the q1/q7/q27 components of an endomorphism in q."""
        v = (self._frame_inv @ np.asarray(Q) @ self.frame).reshape(-1)
        return {name: float(np.linalg.norm(basis.reshape(len(basis), -1) @ v))
                for name, basis in zip(("q1", "q7", "q27"), self._q_split)}

    # -- i and j maps ------------------------------------------------------

    def iop(self, A) -> KForm:
        """i(A) = -2 theta(A) phi, for symmetric A."""
        return -2.0 * theta(np.asarray(A, dtype=float), self.phi)

    def jop(self, psi: KForm, strict: bool = False) -> np.ndarray:
        """j(psi) = -2 tr(Q) I - 4 Q on the scalar+traceless part, zero on
        the vector-type 3-forms; with strict=True a vector-type component
        above tolerance raises ComponentError."""
        Q = self.solve_Q(psi)
        comps = self.q_components(Q)
        if strict and comps["q7"] > 1e-8 * max(1.0, self.form_norm(psi)):
            raise ComponentError("psi has a vector-type component")
        Qs = self.sym_part(Q)
        return -2.0 * np.trace(Qs) * np.eye(DIM) - 4.0 * Qs

    # -- torsion forms -----------------------------------------------------

    def torsion_forms(self, dphi: KForm, dpsi: KForm) -> TorsionForms:
        """Solve dphi = tau0 psi + 3 tau1 ^ phi + *tau3 and
        dpsi = 4 tau1 ^ psi + tau2 ^ phi for the constrained components."""
        if dphi.degree != 4 or dpsi.degree != 5:
            raise ValueError("need (4-form, 5-form)")
        A, l2_14, l3_27 = self._torsion_op
        rhs = np.concatenate([self._frame_table(4) @ dphi.coeffs,
                              self._frame_table(5) @ dpsi.coeffs])
        x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        res = float(np.linalg.norm(A @ x - rhs))
        scale = max(1.0, float(np.linalg.norm(rhs)))
        if res > 1e-6 * scale:
            raise InconsistentTorsion(f"torsion reconstruction residual {res:g}")
        tau0 = float(x[0])
        tau1 = KForm(1, self._frame_table(1, inverse=True) @ x[1:8])
        tau2 = KForm(2, self._frame_table(2, inverse=True) @ (x[8:22] @ l2_14))
        tau3 = KForm(3, self._frame_table(3, inverse=True) @ (x[22:] @ l3_27))
        return TorsionForms(tau0, tau1, tau2, tau3, res)
