"""Closed-form machinery for almost-abelian solvable Lie groups: a 6x6
matrix A encodes the bracket (abelian codimension-one ideal, ad e_7 = A)
against one fixed positive 3-form.

Matrix convention: unless stated otherwise, 6x6 matrices are written in the
ordered basis (e1, e3, e5, e2, e4, e6) of the abelian ideal, so that the
complex structure J pairing e1+i e2, e3+i e4, e5+i e6 is the block matrix
[[0, -I], [I, 0]].  Conversion helpers to the natural order are provided.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBracket, NotClosed, NotTraceFree
from .exterior import DIM, KForm, theta, wedge
from .g2core import G2Structure
from .integrate import IntegratorOptions, Trajectory, drive
from .liealg import LieBracket

FLAG_TOL = 1e-10

#: paper-order position p holds natural basis vector PAPER_ORDER[p]
PAPER_ORDER = (1, 3, 5, 2, 4, 6)

_P6 = np.zeros((6, 6))
for _p, _n in enumerate(PAPER_ORDER):
    _P6[_n - 1, _p] = 1.0
_P6.flags.writeable = False

J6 = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
J6.flags.writeable = False


def paper_to_natural(A):
    """Reorder a 6x6 matrix from the (e1,e3,e5,e2,e4,e6) basis to (e1..e6)."""
    return _P6 @ np.asarray(A, dtype=float) @ _P6.T


def natural_to_paper(A):
    return _P6.T @ np.asarray(A, dtype=float) @ _P6


def complex_to_real(B, C=None):
    """Real 6x6 matrix (paper basis) of the complex 3x3 matrix B + iC."""
    B = np.asarray(B)
    if np.iscomplexobj(B):
        C = B.imag
        B = B.real
    elif C is None:
        C = np.zeros_like(B)
    return np.block([[np.asarray(B, dtype=float), -np.asarray(C, dtype=float)],
                     [np.asarray(C, dtype=float), np.asarray(B, dtype=float)]])


def real_to_complex(A):
    """Complex 3x3 view of a 6x6 paper-basis matrix commuting with J."""
    A = np.asarray(A, dtype=float)
    return A[:3, :3] + 1j * A[3:, :3]


def omega_form() -> KForm:
    return KForm.from_terms(2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})


def rho_plus_form() -> KForm:
    return KForm.from_terms(3, {(1, 3, 5): 1, (1, 4, 6): -1,
                                (2, 3, 6): -1, (2, 4, 5): -1})


def phi_almost_abelian() -> KForm:
    """The fixed positive 3-form omega ^ e7 + rho+."""
    return wedge(omega_form(), KForm.basis((7,))) + rho_plus_form()


@functools.cache
def structure() -> G2Structure:
    """The shared structure of the fixed 3-form (identity metric)."""
    return G2Structure(phi_almost_abelian())


# ---------------------------------------------------------------------------
# the encoding matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AAMatrix:
    """A 6x6 real matrix in the paper-order basis with membership flags."""

    A: np.ndarray
    in_sl3C: bool
    in_sp3R: bool
    in_su3: bool
    is_nilpotent: bool
    is_normal: bool

    @classmethod
    def from_matrix(cls, A, basis="paper"):
        A = np.array(A, dtype=float).reshape(6, 6)
        if not np.isfinite(A).all():
            raise InvalidBracket("matrix entries must be finite")
        if basis == "natural":
            A = natural_to_paper(A)
        elif basis != "paper":
            raise ValueError("basis must be 'paper' or 'natural'")
        scale = max(1.0, float(np.linalg.norm(A)))
        sl = bool(np.linalg.norm(A @ J6 - J6 @ A) <= FLAG_TOL * scale
                  and abs(np.trace(A)) <= FLAG_TOL * scale
                  and abs(np.trace(A @ J6)) <= FLAG_TOL * scale)
        sp = bool(np.linalg.norm(A.T @ J6 + J6 @ A) <= FLAG_TOL * scale)
        nA = float(np.linalg.norm(A))
        nil = bool(nA == 0.0 or np.linalg.norm(
            np.linalg.matrix_power(A, 6)) <= 1e-9 * nA ** 6)
        normal = bool(np.linalg.norm(A @ A.T - A.T @ A)
                      <= 1e-9 * max(nA ** 2, 1e-300))
        A = A.copy()
        A.flags.writeable = False
        return cls(A, sl, sp, sl and sp, nil, normal)

    @classmethod
    def from_complex(cls, B, C=None):
        return cls.from_matrix(complex_to_real(B, C))

    @property
    def natural(self):
        return paper_to_natural(self.A)

    @property
    def complex_view(self):
        return real_to_complex(self.A)

    def norm_sq(self) -> float:
        return float(np.sum(self.A ** 2))

    def is_skew(self, tol=FLAG_TOL) -> bool:
        return bool(np.linalg.norm(self.A + self.A.T)
                    <= tol * max(1.0, np.linalg.norm(self.A)))

    def to_json_dict(self, basis="paper"):
        A = self.A if basis == "paper" else self.natural
        return {"A": A.tolist(), "basis": basis}


def _as_aa(A) -> AAMatrix:
    if isinstance(A, AAMatrix):
        return A
    return AAMatrix.from_matrix(A)


def bracket_of(aa) -> LieBracket:
    """The bracket with abelian span(e1..e6) and ad e7 = A."""
    aa = _as_aa(aa)
    return LieBracket.from_adjoint(aa.natural)


def build(A, basis="paper"):
    """Assemble (matrix, bracket, fixed structure) for a 6x6 matrix."""
    aa = AAMatrix.from_matrix(A, basis=basis) if not isinstance(A, AAMatrix) else A
    return aa, bracket_of(aa), structure()


# ---------------------------------------------------------------------------
# closed-form curvature, torsion and Laplacian
# ---------------------------------------------------------------------------

def _embed7(A_nat):
    out = np.zeros((DIM, DIM))
    out[:6, :6] = A_nat
    return out


def _sym_sq_trace(A):
    S = A + A.T
    return float(np.trace(S @ S))


@dataclass
class ClosedForms:
    Delta: KForm
    Q: np.ndarray  # 7x7, natural basis
    tau: KForm
    Ric: np.ndarray  # 7x7, natural basis
    R: float


def laplacian_phi(aa) -> KForm:
    """Hodge Laplacian of the fixed form, for trace-free A."""
    aa = _as_aa(aa)
    if abs(np.trace(aa.A)) > FLAG_TOL * max(1.0, np.linalg.norm(aa.A)):
        raise NotTraceFree("Laplacian formula needs tr A = 0")
    A7 = _embed7(aa.natural)
    e7 = KForm.basis((7,))
    term1 = wedge(theta(A7, theta(A7.T, omega_form())), e7)
    term2 = theta(A7.T, theta(A7, rho_plus_form()))
    return term1 - term2


def _q_formula(A) -> np.ndarray:
    """Q of the closed form for A in sl(3,C), in the basis order of A with
    e7 last.  Unchecked: q_operator is the gated entry point."""
    u = _sym_sq_trace(A)
    Q = np.zeros((DIM, DIM))
    Q[:6, :6] = 0.5 * (A @ A.T - A.T @ A) + (u / 12.0) * np.eye(6) \
        - 0.5 * (A + A.T) @ (A + A.T)
    Q[6, 6] = -u / 6.0
    return Q


def _torsion_formula(A_nat) -> KForm:
    """The torsion 2-form for A in sl(3,C), natural basis.  Unchecked:
    torsion_two_form is the gated entry point."""
    return theta(_embed7(A_nat).T, omega_form())


def q_operator(aa) -> np.ndarray:
    """The symmetric operator with theta(Q) phi equal to the Laplacian,
    in closed form (natural basis)."""
    aa = _as_aa(aa)
    if not aa.in_sl3C:
        raise NotClosed("Q formula needs A in sl(3,C)")
    return _q_formula(aa.natural)


def torsion_two_form(aa) -> KForm:
    aa = _as_aa(aa)
    if not aa.in_sl3C:
        raise NotClosed("torsion 2-form formula needs A in sl(3,C)")
    return _torsion_formula(aa.natural)


def ricci_aa(aa):
    """Ricci operator and scalar curvature (natural basis), tr A = 0."""
    aa = _as_aa(aa)
    if abs(np.trace(aa.A)) > FLAG_TOL * max(1.0, np.linalg.norm(aa.A)):
        raise NotTraceFree("Ricci formula needs tr A = 0")
    A = aa.natural
    u = _sym_sq_trace(A)
    Ric = np.zeros((DIM, DIM))
    Ric[:6, :6] = 0.5 * (A @ A.T - A.T @ A)
    Ric[6, 6] = -u / 4.0
    return Ric, -u / 4.0


def closed_forms(aa) -> ClosedForms:
    """All five closed-form quantities for a closed structure."""
    aa = _as_aa(aa)
    delta = laplacian_phi(aa)
    Q = q_operator(aa)
    tau = torsion_two_form(aa)
    ric, R = ricci_aa(aa)
    return ClosedForms(delta, Q, tau, ric, R)


def moment_map(aa) -> np.ndarray:
    """Block operator governing the bracket-norm evolution (natural basis)."""
    aa = _as_aa(aa)
    A = aa.natural
    M = np.zeros((DIM, DIM))
    M[:6, :6] = 0.5 * (A @ A.T - A.T @ A)
    M[6, 6] = -0.5 * float(np.sum(A ** 2))
    return M


# ---------------------------------------------------------------------------
# the matrix bracket flow
# ---------------------------------------------------------------------------

def flow_rhs(A) -> np.ndarray:
    """Right side of the matrix bracket flow (any fixed basis order),

        A' = -(tr S^2 / 6) A + 1/2 [A, K] - 1/2 [A, S^2],

    with S = A + A^T and K = A A^T - A^T A.  Since K - S^2 =
    -(A^2 + A^T^2 + 2 A^T A) and [A, A^2] = 0, the last two terms are
    -1/2 [A, B] with B = A^T (A^T + 2 A): three matrix products.  S is
    symmetric, so tr S^2 is the sum of the squares of its entries."""
    A = np.asarray(A, dtype=float)
    S = A + A.T
    B = A.T @ (A.T + 2.0 * A)
    return (-float((S * S).sum()) / 6.0) * A - 0.5 * (A @ B - B @ A)


def sl3c_residual(A) -> float:
    A = np.asarray(A, dtype=float)
    return float(np.linalg.norm(A @ J6 - J6 @ A)
                 + abs(np.trace(A)) + abs(np.trace(A @ J6)))


@dataclass
class AAFlowSample:
    t: float
    A: np.ndarray  # paper basis
    norm_sq: float
    R: float
    spectrum: np.ndarray  # complex 3x3 eigenvalues
    membership_residual: float
    Q: np.ndarray  # 7x7, natural basis
    torsion_norm: float

    @property
    def norm_mu(self):
        """Norm of the bracket, |mu|^2 = 2|A|^2."""
        return math.sqrt(2.0 * self.norm_sq)


def matrix_bracket_flow(A0, opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the 6x6 reduction of the bracket flow from A0 in sl(3,C).

    The flow preserves sl(3,C), so membership is checked on A0 only.
    Integration error moves A off sl(3,C) by more than FLAG_TOL on long runs
    (membership_residual says by how much), so the samples take Q and the
    torsion from the closed forms without the membership check."""
    aa0 = _as_aa(A0)
    if not aa0.in_sl3C:
        raise NotClosed("matrix bracket flow needs A0 in sl(3,C)")
    opts = opts or IntegratorOptions()
    if opts.normalize != "none":
        raise ValueError("normalization applies to the bracket flow only")

    def rhs(t, y):
        return flow_rhs(y.reshape(6, 6)).reshape(-1)

    def make_sample(t, y):
        A = y.reshape(6, 6)
        A_nat = paper_to_natural(A)
        return AAFlowSample(t, A.copy(), float(np.sum(A ** 2)),
                            -_sym_sq_trace(A) / 4.0,
                            np.linalg.eigvals(real_to_complex(A)),
                            sl3c_residual(A), _q_formula(A_nat),
                            _torsion_formula(A_nat).norm())

    return drive(rhs, aa0.A.reshape(-1).copy(), opts, make_sample, np.linalg.norm)


# ---------------------------------------------------------------------------
# soliton classification
# ---------------------------------------------------------------------------

@dataclass
class AAClassification:
    kind: str  # torsion-free | algebraic | semi-algebraic | none
    c: float | None
    d: float | None
    D1: np.ndarray | None  # 6x6, paper basis
    normal_form: str  # diagonal-complex | nilpotent-n2 | nilpotent-n6 | other
    residual: float
    eigenvalues: np.ndarray | None = None


def _soliton_constants(A):
    u = _sym_sq_trace(A)
    K = A @ A.T - A.T @ A
    d = float(np.sum(K ** 2)) / (2.0 * float(np.sum(A ** 2)))
    return -u / 6.0 - d, d


def _normal_form_of(aa) -> str:
    A = aa.A
    nA = np.linalg.norm(A)
    if nA == 0.0:
        return "diagonal-complex"
    if aa.is_nilpotent:
        if np.linalg.norm(A @ A) <= 1e-9 * nA ** 2:
            return "nilpotent-n2"
        if np.linalg.norm(A @ A @ A) <= 1e-9 * nA ** 3:
            return "nilpotent-n6"
        return "other"
    B = aa.complex_view
    lam, V = np.linalg.eig(B)
    if np.linalg.cond(V) < 1e8:
        return "diagonal-complex"
    return "other"


def _semialgebraic_system(A, d):
    """Least-squares solve for D1 with D1 + D1^t prescribed and [D1, A] = dA.

    On D1 flattened row-major, transposing is the permutation T, and
    D1 A and A D1 are (I kron A^t) and (A kron I) applied to D1."""
    u = _sym_sq_trace(A)
    K = A @ A.T - A.T @ A
    S = K - (A + A.T) @ (A + A.T) + (2.0 * d + 0.5 * u) * np.eye(6)
    T = np.eye(36).reshape(6, 6, 36).transpose(1, 0, 2).reshape(36, 36)
    L = np.vstack([np.eye(36) + T, np.kron(np.eye(6), A.T) - np.kron(A, np.eye(6))])
    r = np.concatenate([S.reshape(-1), d * A.reshape(-1)])
    x, *_ = np.linalg.lstsq(L, r, rcond=None)
    res = float(np.linalg.norm(L @ x - r))
    return x.reshape(6, 6), res


def classify_soliton(A) -> AAClassification:
    """Decide torsion-free / algebraic / semi-algebraic / none for a closed
    structure, with the shared constants c and d and a feasible D1."""
    aa = _as_aa(A)
    if not aa.in_sl3C:
        raise NotClosed("classification applies to closed structures")
    M = aa.A
    nM = float(np.linalg.norm(M))
    nform = _normal_form_of(aa)
    eig = np.linalg.eigvals(aa.complex_view) if nM > 0 else np.zeros(3, complex)

    if aa.is_skew():
        return AAClassification("torsion-free", 0.0, 0.0, np.zeros((6, 6)),
                                nform, 0.0, eig)

    c, d = _soliton_constants(M)
    Q1 = _q_formula(M)[:6, :6]

    if aa.is_normal:
        return AAClassification("algebraic", c, d, Q1 - c * np.eye(6),
                                nform, 0.0, eig)

    if aa.is_nilpotent:
        K = M @ M.T - M.T @ M
        SS = (M + M.T) @ (M + M.T)
        lhs = M @ (K - SS) - (K - SS) @ M
        res_alg = float(np.linalg.norm(
            lhs + (np.sum(K ** 2) / np.sum(M ** 2)) * M))
        if res_alg <= 1e-8 * max(1.0, nM) ** 3:
            return AAClassification("algebraic", c, d, Q1 - c * np.eye(6),
                                    nform, res_alg, eig)
        D1, res_semi = _semialgebraic_system(M, d)
        if res_semi <= 1e-7 * max(1.0, nM ** 2):
            return AAClassification("semi-algebraic", c, d, D1,
                                    nform, res_semi, eig)
        return AAClassification("none", None, None, None, nform, res_semi, eig)

    return AAClassification("none", None, None, None, nform,
                            float("inf"), eig)


# ---------------------------------------------------------------------------
# equivalence predicates
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    mode: str  # conjugacy | heber-split
    verdict: bool | None  # None: only the necessary condition was checked
    residuals: dict
    spectra_match: bool | None = None


def _spectra_match(A, B, tol=1e-8):
    """Necessary condition: Spec(B) equals Spec(A) or its conjugate."""
    ea = np.sort_complex(np.linalg.eigvals(real_to_complex(A)))
    eb = np.sort_complex(np.linalg.eigvals(real_to_complex(B)))
    scale = max(1.0, float(np.abs(ea).max()), float(np.abs(eb).max()))
    direct = np.abs(ea - eb).max() <= tol * scale
    conj = np.abs(np.sort_complex(ea.conj()) - eb).max() <= tol * scale
    return bool(direct or conj)


def equivalence_checks(A, B=None, h=None, split=None) -> EquivalenceReport:
    """Equivalence predicates between almost-abelian structures.

    Conjugacy mode (B given): verifies B = h A h^{-1} with h special
    unitary, or B = -h A h^{-1} with h orthogonal of determinant -1
    anticommuting with J; always reports the spectral necessary condition.

    Split mode (split=(A1, A2)): verifies A = A1 + A2 with A2 special
    unitary infinitesimally (skew, commuting with J, trace-free) and
    [A1, A2] = 0, which certifies equivalence with the A1 structure.
    """
    aa = _as_aa(A)
    if (B is None) == (split is None):
        raise ValueError("pass exactly one of B or split")
    if split is not None:
        A1 = _as_aa(split[0]).A
        A2 = _as_aa(split[1]).A
        scale = max(1.0, np.linalg.norm(aa.A))
        res = {
            "sum": float(np.linalg.norm(aa.A - A1 - A2)),
            "A2_skew": float(np.linalg.norm(A2 + A2.T)),
            "A2_commutes_J": float(np.linalg.norm(A2 @ J6 - J6 @ A2)),
            "A2_traces": abs(float(np.trace(A2))) + abs(float(np.trace(A2 @ J6))),
            "commutator": float(np.linalg.norm(A1 @ A2 - A2 @ A1)),
        }
        verdict = all(v <= 1e-8 * scale for v in res.values())
        return EquivalenceReport("heber-split", verdict, res)

    bb = _as_aa(B)
    match = _spectra_match(aa.A, bb.A)
    if h is None:
        return EquivalenceReport("conjugacy", None, {}, spectra_match=match)
    h = np.asarray(h, dtype=float).reshape(6, 6)
    scale = max(1.0, np.linalg.norm(aa.A))
    orth = float(np.linalg.norm(h.T @ h - np.eye(6)))
    deth = float(np.linalg.det(h))
    res_plus = {
        "orthogonal": orth,
        "determinant": abs(deth - 1.0),
        "commutes_J": float(np.linalg.norm(h @ J6 - J6 @ h)),
        "conjugation": float(np.linalg.norm(bb.A - h @ aa.A @ np.linalg.inv(h))),
    }
    res_minus = {
        "orthogonal": orth,
        "determinant": abs(deth + 1.0),
        "anticommutes_J": float(np.linalg.norm(h @ J6 @ np.linalg.inv(h) + J6)),
        "conjugation": float(np.linalg.norm(bb.A + h @ aa.A @ np.linalg.inv(h))),
    }
    ok_plus = all(v <= 1e-8 * scale for v in res_plus.values())
    ok_minus = all(v <= 1e-8 * scale for v in res_minus.values())
    res = res_plus if (ok_plus or not ok_minus) else res_minus
    return EquivalenceReport("conjugacy", ok_plus or ok_minus, res,
                             spectra_match=match)
