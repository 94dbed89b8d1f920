"""Linear algebra attached to a positive 3-form: induced metric, the
stabilizer-algebra splitting gl(7) = g2 + q, the Q-operator solver, the
i/j maps, and torsion-form extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComponentError, InconsistentTorsion, PositivityError, SingularSystem
from .exterior import (
    DIM,
    INDEX_SETS,
    KForm,
    Metric,
    NFORMS,
    _interior_table,
    _star_table,
    _theta_tensor,
    form_from_skew,
    merge_sign,
    pullback_matrix,
    wedge,
    wedge_matrix,
)

_KERNEL_CUT = 1e-8  # relative singular-value cutoff for rank decisions

_trip_tensor = None


def _triple_wedge_tensor():
    """TRIP[a,b,K]: top-form coefficient of e^{Ia} ^ e^{Ib} ^ e^{IK},
    degrees (2,2,3)."""
    global _trip_tensor
    if _trip_tensor is None:
        T = np.zeros((NFORMS[2], NFORMS[2], NFORMS[3]))
        for ra, ia in enumerate(INDEX_SETS[2]):
            for rb, ib in enumerate(INDEX_SETS[2]):
                if set(ia) & set(ib):
                    continue
                merged = tuple(sorted(ia + ib))
                s1 = merge_sign(ia, ib)
                for rk, ik in enumerate(INDEX_SETS[3]):
                    if set(merged) & set(ik):
                        continue
                    T[ra, rb, rk] = s1 * merge_sign(merged, ik)
        T.flags.writeable = False
        _trip_tensor = T
    return _trip_tensor


def induced_bilinear(phi: KForm) -> np.ndarray:
    """The symmetric matrix B with B(u,v) e^{1..7} = (1/6) i_u(phi)^i_v(phi)^phi."""
    if phi.degree != 3:
        raise ValueError("need a 3-form")
    IU = _interior_table(3)
    X = np.einsum("uji,i->uj", IU, phi.coeffs)  # 7 x 21
    W2 = np.einsum("abK,K->ab", _triple_wedge_tensor(), phi.coeffs)
    B = np.einsum("ua,ab,vb->uv", X, W2, X) / 6.0
    return 0.5 * (B + B.T)


def metric_from_3form(phi: KForm):
    """Recover (metric, volume form) from a positive 3-form.

    Raises PositivityError when the induced bilinear form is not definite.
    The bilinear form is rescaled so that the volume form is the metric
    volume: g = det(B)^(-1/9) B.
    """
    B = induced_bilinear(phi)
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


def _skew_basis():
    out = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            E = np.zeros((DIM, DIM))
            E[i, j] = 1.0 / np.sqrt(2.0)
            E[j, i] = -1.0 / np.sqrt(2.0)
            out.append(E)
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
    """A positive 3-form with its induced metric and cached linear algebra.

    Construction is pure and the result immutable; all operations are
    read-only, so instances may be shared freely across threads.

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
        self._P = {k: pullback_matrix(self.frame, k) for k in range(DIM + 1)}
        self._Pinv = {k: pullback_matrix(self._frame_inv, k) for k in range(DIM + 1)}
        self._H = {k: self._Pinv[DIM - k] @ _star_table(k) @ self._P[k]
                   for k in range(DIM + 1)}
        self.psi = self.star(phi)

        # frame coordinates of phi: a positive form with identity metric
        self._phi_f = self._P[3] @ phi.coeffs
        TH3 = _theta_tensor(3)
        Tmap = np.einsum("jabi,i->jab", TH3, self._phi_f).reshape(NFORMS[3], DIM * DIM)
        U, s, Vh = np.linalg.svd(Tmap)
        cut = _KERNEL_CUT * s[0]
        rank = int(np.sum(s > cut))
        if rank != NFORMS[3]:
            raise SingularSystem(f"theta map has rank {rank}, expected {NFORMS[3]}")
        kernel = Vh[rank:]
        if kernel.shape[0] != 14:
            raise PositivityError("stabilizer algebra does not have dimension 14")
        self._g2_f = kernel.reshape(14, DIM, DIM)
        self._q_f = Vh[:rank].reshape(rank, DIM, DIM)

        self._q1_f = (np.eye(DIM) / np.sqrt(DIM))[None, :, :]
        self._q27_f = _sym0_basis()
        qrows = Vh[:rank]
        skew_proj = (_skew_basis().reshape(21, -1) @ qrows.T) @ qrows
        U7, s7, Vh7 = np.linalg.svd(skew_proj)
        n7 = int(np.sum(s7 > _KERNEL_CUT * s7[0]))
        if n7 != 7:
            raise SingularSystem("skew part of q does not have dimension 7")
        self._q7_f = Vh7[:7].reshape(7, DIM, DIM)

        # theta restricted to q against degree-3 coordinates, for solve_Q
        self._theta_q = np.einsum("jabi,nab,i->jn", TH3, self._q_f, self._phi_f)
        sq = np.linalg.svd(self._theta_q, compute_uv=False)
        if sq[-1] < 1e-12 * sq[0]:
            raise SingularSystem("restricted theta map is rank deficient")

        # irreducible pieces of the 3-forms, in frame coordinates
        self._l3_7 = self._orthonormal_image(self._q7_f)
        self._l3_27 = self._orthonormal_image(self._q27_f)

        self._torsion_op = None

    # -- basic operators ---------------------------------------------------

    def _orthonormal_image(self, mats):
        rows = np.einsum("jabi,nab,i->nj", _theta_tensor(3), mats, self._phi_f)
        U, s, Vh = np.linalg.svd(rows)
        n = int(np.sum(s > _KERNEL_CUT * s[0]))
        return Vh[:n]

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
        return self._conj_to_e(self._q1_f)

    @property
    def q7_basis(self):
        return self._conj_to_e(self._q7_f)

    @property
    def q27_basis(self):
        return self._conj_to_e(self._q27_f)

    def star(self, a: KForm) -> KForm:
        return KForm(DIM - a.degree, self._H[a.degree] @ a.coeffs)

    def inner(self, a: KForm, b: KForm) -> float:
        if a.degree != b.degree:
            raise ValueError("degree mismatch")
        P = self._P[a.degree]
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
        psi_f = self._P[3] @ psi.coeffs
        try:
            x = np.linalg.solve(self._theta_q, psi_f)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        res = np.linalg.norm(self._theta_q @ x - psi_f)
        if res > 1e-9 * max(1.0, np.linalg.norm(psi_f)):
            raise SingularSystem(f"Q solve residual {res:g}")
        Qf = np.einsum("n,nab->ab", x, self._q_f)
        return self.frame @ Qf @ self._frame_inv

    def q_components(self, Q) -> dict:
        """Norms of the q1/q7/q27 components of an endomorphism in q."""
        Qf = self._frame_inv @ np.asarray(Q) @ self.frame
        v = Qf.reshape(-1)
        out = {}
        for name, basis in (("q1", self._q1_f), ("q7", self._q7_f), ("q27", self._q27_f)):
            coords = basis.reshape(len(basis), -1) @ v
            out[name] = float(np.linalg.norm(coords))
        return out

    # -- i and j maps ------------------------------------------------------

    def iop(self, A) -> KForm:
        """i(A) = -2 theta(A) phi, for symmetric A."""
        from .exterior import theta
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

    def _torsion_operator(self):
        if self._torsion_op is None:
            n1, n2 = NFORMS[4], NFORMS[5]
            phi_f = KForm(3, self._phi_f)
            psi_f = KForm(4, _star_table(3) @ self._phi_f)
            # two-form component attached to the stabilizer algebra, already
            # expressed in frame coordinates
            l2_14 = np.array([form_from_skew(X).coeffs for X in self._g2_f])
            U, s, Vh = np.linalg.svd(l2_14)
            l2_14 = Vh[: int(np.sum(s > _KERNEL_CUT * s[0]))]
            cols = []
            zero2 = np.zeros(n2)
            # tau0 column
            cols.append(np.concatenate([psi_f.coeffs, zero2]))
            # tau1 columns: 3 tau1 ^ phi and 4 tau1 ^ psi
            W14 = wedge_matrix(phi_f, 1)
            W15 = wedge_matrix(psi_f, 1)
            for i in range(DIM):
                e = np.zeros(DIM)
                e[i] = 1.0
                cols.append(np.concatenate([3.0 * (W14 @ e), 4.0 * (W15 @ e)]))
            # tau2 columns (in the 14-dimensional two-form component)
            W25 = wedge_matrix(phi_f, 2)
            for row in l2_14:
                cols.append(np.concatenate([np.zeros(n1), W25 @ row]))
            # tau3 columns (in the 27-dimensional three-form component)
            S3 = _star_table(3)
            for row in self._l3_27:
                cols.append(np.concatenate([S3 @ row, zero2]))
            A = np.array(cols).T
            self._torsion_op = (A, l2_14)
        return self._torsion_op

    def torsion_forms(self, dphi: KForm, dpsi: KForm) -> TorsionForms:
        """Solve dphi = tau0 psi + 3 tau1 ^ phi + *tau3 and
        dpsi = 4 tau1 ^ psi + tau2 ^ phi for the constrained components."""
        if dphi.degree != 4 or dpsi.degree != 5:
            raise ValueError("need (4-form, 5-form)")
        A, l2_14 = self._torsion_operator()
        rhs = np.concatenate([self._P[4] @ dphi.coeffs, self._P[5] @ dpsi.coeffs])
        x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        res = float(np.linalg.norm(A @ x - rhs))
        scale = max(1.0, float(np.linalg.norm(rhs)))
        if res > 1e-6 * scale:
            raise InconsistentTorsion(f"torsion reconstruction residual {res:g}")
        tau0 = float(x[0])
        tau1 = KForm(1, self._Pinv[1] @ x[1:8])
        tau2 = KForm(2, self._Pinv[2] @ (x[8:22] @ l2_14))
        tau3 = KForm(3, self._Pinv[3] @ (x[22:] @ self._l3_27))
        return TorsionForms(tau0, tau1, tau2, tau3, res)
