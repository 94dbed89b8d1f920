"""Exterior algebra over an oriented 7-dimensional real inner-product space.

Alternating k-forms are stored as coefficient vectors over strictly
increasing multi-indices (i1 < ... < ik), 1-based, enumerated once in
colexicographic order and shared by every module.  All operations are pure
functions on immutable values.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BadMetric, DegreeUnderflow

DIM = 7
DEFAULT_TOL = 1e-10

#: increasing multi-indices of each degree, in colexicographic order
INDEX_SETS = {
    k: tuple(sorted(itertools.combinations(range(1, DIM + 1), k),
                    key=lambda t: tuple(reversed(t))))
    for k in range(DIM + 1)
}
RANK = {k: {s: r for r, s in enumerate(INDEX_SETS[k])} for k in range(DIM + 1)}
NFORMS = {k: len(INDEX_SETS[k]) for k in range(DIM + 1)}

# 0-based index arrays, handy for vectorized submatrix gathers
_IDX0 = {k: np.array([[i - 1 for i in s] for s in INDEX_SETS[k]], dtype=int).reshape(NFORMS[k], k)
         for k in range(1, DIM + 1)}

_PAIRS = INDEX_SETS[2]  # the 21 increasing pairs, used for bracket packing


def sort_sign(word):
    """Sort an index word; return (tuple, sign), sign 0 on repeated indices."""
    word = list(word)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and word[j - 1] == word[j]:
            return None, 0
    return tuple(word), sign


def merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


class KForm:
    """Alternating k-form on the fixed 7-dimensional space.

    Attributes:
        degree: integer in 0..7.
        coeffs: read-only array of length C(7, degree), one scalar per
            increasing multi-index.
        degree_overflow: set by :func:`wedge` when the product degree
            would exceed 7.
    """

    __slots__ = ("degree", "coeffs", "degree_overflow")

    def __init__(self, degree, coeffs=None, degree_overflow=False):
        if not 0 <= degree <= DIM:
            raise ValueError(f"degree must be in 0..{DIM}, got {degree}")
        if coeffs is None:
            c = np.zeros(NFORMS[degree])
        else:
            c = np.array(coeffs, dtype=float).reshape(NFORMS[degree])
        c.flags.writeable = False
        self.degree = degree
        self.coeffs = c
        self.degree_overflow = degree_overflow

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, degree):
        return cls(degree)

    @classmethod
    def basis(cls, idx):
        """The form e^{i1...ik} for a (not necessarily sorted) index tuple."""
        idx = tuple(idx)
        srt, sign = sort_sign(idx)
        if sign == 0:
            return cls.zero(len(idx))
        c = np.zeros(NFORMS[len(idx)])
        c[RANK[len(idx)][srt]] = sign
        return cls(len(idx), c)

    @classmethod
    def from_terms(cls, degree, terms):
        """Build from a mapping {index tuple: coefficient}."""
        c = np.zeros(NFORMS[degree])
        for idx, v in terms.items():
            srt, sign = sort_sign(tuple(idx))
            if sign == 0:
                continue
            c[RANK[degree][srt]] += sign * v
        return cls(degree, c)

    @classmethod
    def scalar(cls, value):
        return cls(0, [float(value)])

    @classmethod
    def volume(cls, value=1.0):
        return cls(DIM, [float(value)])

    # -- accessors ---------------------------------------------------------

    def coeff(self, idx):
        """Coefficient a(e_{i1},...,e_{ik}) for an arbitrary index tuple."""
        srt, sign = sort_sign(tuple(idx))
        if sign == 0:
            return 0.0
        return sign * float(self.coeffs[RANK[self.degree][srt]])

    def terms(self, tol=0.0):
        """List of (index tuple, coefficient) with |coefficient| > tol."""
        return [(INDEX_SETS[self.degree][r], float(v))
                for r, v in enumerate(self.coeffs) if abs(v) > tol]

    def norm(self):
        """Euclidean coefficient norm (the form norm for the identity metric)."""
        return float(np.linalg.norm(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other):
        if not isinstance(other, KForm) or other.degree != self.degree:
            raise ValueError("degree mismatch")

    def __add__(self, other):
        self._check_same(other)
        return KForm(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return KForm(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return KForm(self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return KForm(self.degree, self.coeffs / float(scalar))

    def __neg__(self):
        return KForm(self.degree, -self.coeffs)

    def __repr__(self):
        terms = self.terms(tol=1e-14)
        if not terms:
            return f"KForm({self.degree}, 0)"
        body = " ".join(f"{v:+g}*e^{''.join(map(str, idx))}" if idx else f"{v:+g}"
                        for idx, v in terms[:8])
        more = " ..." if len(terms) > 8 else ""
        return f"KForm({self.degree}, {body}{more})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self, tol=0.0):
        return {"degree": self.degree,
                "terms": [{"idx": list(idx), "c": v} for idx, v in self.terms(tol)]}

    @classmethod
    def from_json_dict(cls, data):
        return cls.from_terms(int(data["degree"]),
                              {tuple(t["idx"]): float(t["c"]) for t in data["terms"]})


class Metric:
    """Inner product on the fixed space: symmetric positive definite gram
    matrix plus an orientation sign."""

    __slots__ = ("gram", "orientation")

    def __init__(self, gram, orientation=1):
        g = np.array(gram, dtype=float).reshape(DIM, DIM)
        if not np.allclose(g, g.T, atol=1e-12 * max(1.0, float(np.abs(g).max()))):
            raise BadMetric("gram matrix must be symmetric")
        if np.linalg.eigvalsh(g).min() <= 0:
            raise BadMetric("gram matrix must be positive definite")
        if orientation not in (1, -1):
            raise BadMetric("orientation must be +1 or -1")
        g.flags.writeable = False
        self.gram = g
        self.orientation = int(orientation)

    @classmethod
    def identity(cls):
        return cls(np.eye(DIM))

    def frame(self):
        """Columns form an oriented orthonormal basis: M^T gram M = I."""
        L = np.linalg.cholesky(self.gram)
        M = np.linalg.inv(L).T
        if self.orientation < 0:
            M = M.copy()
            M[:, -1] *= -1.0
        return M

    def volume_form(self):
        return KForm.volume(self.orientation * np.sqrt(np.linalg.det(self.gram)))

    def transpose(self, A):
        """Adjoint of an endomorphism with respect to this inner product."""
        ginv = np.linalg.inv(self.gram)
        return ginv @ np.asarray(A).T @ self.gram

    def __repr__(self):
        return f"Metric(orientation={self.orientation:+d})"


# ---------------------------------------------------------------------------
# cached operator tables
# ---------------------------------------------------------------------------

_star_tables = {}
_interior_tables = {}
_theta_tensors = {}
_complement_of = {}


def _star_table(k):
    """Identity-metric Hodge star as a C(7,7-k) x C(7,k) signed permutation."""
    if k not in _star_tables:
        S = np.zeros((NFORMS[DIM - k], NFORMS[k]))
        full = set(range(1, DIM + 1))
        for r, idx in enumerate(INDEX_SETS[k]):
            comp = tuple(sorted(full - set(idx)))
            S[RANK[DIM - k][comp], r] = merge_sign(idx, comp)
        S.flags.writeable = False
        _star_tables[k] = S
    return _star_tables[k]


def _interior_table(k):
    """Stack of 7 matrices: interior product with each basis vector."""
    if k not in _interior_tables:
        T = np.zeros((DIM, NFORMS[k - 1], NFORMS[k]))
        for r, idx in enumerate(INDEX_SETS[k]):
            for pos, m in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                T[m - 1, RANK[k - 1][rest], r] = (-1.0) ** pos
        T.flags.writeable = False
        _interior_tables[k] = T
    return _interior_tables[k]


def _theta_tensor(k):
    """4-tensor T with theta_k(A) = einsum('jabi,ab->ji', T, A)."""
    if k not in _theta_tensors:
        T = np.zeros((NFORMS[k], DIM, DIM, NFORMS[k]))
        for r, idx in enumerate(INDEX_SETS[k]):
            for pos, a in enumerate(idx):
                for b in range(1, DIM + 1):
                    word = idx[:pos] + (b,) + idx[pos + 1:]
                    srt, sign = sort_sign(word)
                    if sign == 0:
                        continue
                    T[RANK[k][srt], a - 1, b - 1, r] -= sign
        T.flags.writeable = False
        _theta_tensors[k] = T
    return _theta_tensors[k]


_wedge_with_cache = {}


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product.  Returns a flagged zero 0-form on degree overflow."""
    p, q = a.degree, b.degree
    if p + q > DIM:
        return KForm(0, [0.0], degree_overflow=True)
    if p == 0:
        return KForm(q, float(a.coeffs[0]) * b.coeffs)
    if q == 0:
        return KForm(p, float(b.coeffs[0]) * a.coeffs)
    out = np.zeros(NFORMS[p + q])
    anz = np.nonzero(a.coeffs)[0]
    bnz = np.nonzero(b.coeffs)[0]
    for ra in anz:
        idxa = INDEX_SETS[p][ra]
        seta = set(idxa)
        va = a.coeffs[ra]
        for rb in bnz:
            idxb = INDEX_SETS[q][rb]
            if seta & set(idxb):
                continue
            sign = merge_sign(idxa, idxb)
            merged = tuple(sorted(idxa + idxb))
            out[RANK[p + q][merged]] += sign * va * b.coeffs[rb]
    return KForm(p + q, out)


def wedge_matrix(b: KForm, k: int) -> np.ndarray:
    """Matrix of (k-form) -> (k-form wedge b) acting on coefficient vectors."""
    p = b.degree
    W = np.zeros((NFORMS[k + p], NFORMS[k]))
    for r in range(NFORMS[k]):
        W[:, r] = wedge(KForm.basis(INDEX_SETS[k][r]), b).coeffs
    return W


def interior(u, a: KForm) -> KForm:
    """Interior product i_u(a) of a vector u with a k-form, k >= 1."""
    if a.degree == 0:
        raise DegreeUnderflow("interior product of a 0-form")
    u = np.asarray(u, dtype=float).reshape(DIM)
    T = _interior_table(a.degree)
    return KForm(a.degree - 1, np.einsum("uji,u,i->j", T, u, a.coeffs))


def theta(A, a: KForm) -> KForm:
    """Derivative of the left GL(7)-action on forms.

    theta(A) acts on a k-form by minus the sum over slots of composing one
    argument with A; on 3-forms this is
    theta(A)psi = -psi(A.,.,.) - psi(.,A.,.) - psi(.,.,A.).
    """
    if a.degree == 0:
        return KForm.zero(0)
    A = np.asarray(A, dtype=float).reshape(DIM, DIM)
    T = _theta_tensor(a.degree)
    return KForm(a.degree, np.einsum("jabi,ab,i->j", T, A, a.coeffs))


def pullback_matrix(h, k: int) -> np.ndarray:
    """Matrix of the pullback a -> a(h.,...,h.) on degree-k coefficients."""
    if k == 0:
        return np.ones((1, 1))
    h = np.asarray(h, dtype=float)
    idx = _IDX0[k]
    sub = h[idx[:, None, :, None], idx[None, :, None, :]]  # [I, J, a, b]
    return np.linalg.det(sub).T  # [J, I] = det h[I, J]


def pullback(h, a: KForm) -> KForm:
    """Pullback of a by the linear map h: (h* a)(v...) = a(hv...)."""
    return KForm(a.degree, pullback_matrix(h, a.degree) @ a.coeffs)


def act(h, a: KForm) -> KForm:
    """Left GL(7) action h . a = a(h^{-1}.,...,h^{-1}.)."""
    return pullback(np.linalg.inv(np.asarray(h, dtype=float)), a)


def _as_metric(g):
    if g is None:
        return None
    if isinstance(g, Metric):
        return g
    return Metric(g)


def hodge_matrix(g, k: int) -> np.ndarray:
    """Hodge star on degree k for the metric g, as a coefficient matrix."""
    if g is None:
        return _star_table(k)
    g = _as_metric(g)
    M = g.frame()
    Minv = np.linalg.inv(M)
    return pullback_matrix(Minv, DIM - k) @ _star_table(k) @ pullback_matrix(M, k)


def hodge_star(a: KForm, g=None) -> KForm:
    """Hodge star of a k-form.

    With no metric (or the identity metric, positive orientation) this is the
    signed complement table; general metrics go through an oriented
    orthonormal frame obtained by Cholesky factorization.
    """
    return KForm(DIM - a.degree, hodge_matrix(g, a.degree) @ a.coeffs)


def form_inner(a: KForm, b: KForm, g=None) -> float:
    """Inner product of two same-degree forms induced by the metric g."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    if g is None:
        return float(a.coeffs @ b.coeffs)
    g = _as_metric(g)
    P = pullback_matrix(g.frame(), a.degree)
    return float((P @ a.coeffs) @ (P @ b.coeffs))


def form_from_skew(X) -> KForm:
    """2-form <X.,.> of a skew matrix (identity-metric identification)."""
    X = np.asarray(X, dtype=float)
    c = np.array([X[j - 1, i - 1] for (i, j) in INDEX_SETS[2]])
    return KForm(2, c)


def skew_from_form(a: KForm) -> np.ndarray:
    """Skew matrix X with a = <X.,.> (identity-metric identification)."""
    if a.degree != 2:
        raise ValueError("need a 2-form")
    X = np.zeros((DIM, DIM))
    for r, (i, j) in enumerate(INDEX_SETS[2]):
        X[j - 1, i - 1] = a.coeffs[r]
        X[i - 1, j - 1] = -a.coeffs[r]
    return X


def phi_canonical() -> KForm:
    """The canonical positive 3-form built from the octonion cross product."""
    return KForm.from_terms(3, {
        (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
        (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
    })
