"""Exterior algebra over an oriented 7-dimensional real inner-product space.

Alternating k-forms are stored as coefficient vectors over strictly
increasing multi-indices (i1 < ... < ik), 1-based, enumerated once in
colexicographic order and shared by every module.  All operations are pure
functions on immutable values.

One sign convention, that of :func:`sort_sign`, is tabulated once in
:func:`_wedge_table`: the sign and rank of e^P ^ e^Q for basis forms.  Every
other sign table derives from it by an identity: the interior product is the
transpose of e^m ^ ., theta(E_ab) = -(e^b ^ .) o i_{e_a}, the star is the
(k, 7-k) table, and so are liealg's CE triples and g2core's induced metric.
liealg's derivation map takes theta_2, as the bracket flow's velocity does,
and its unpacking of constants the skew layout of 2-forms, :data:`_SKEW`.
The tables are cached and read-only.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys

import numpy as np

from .errors import BadMetric, DegreeUnderflow, SingularSystem

DIM = 7

#: increasing multi-indices of each degree, in colexicographic order
INDEX_SETS = {
    k: tuple(sorted(itertools.combinations(range(1, DIM + 1), k),
                    key=lambda t: tuple(reversed(t))))
    for k in range(DIM + 1)
}
RANK = {k: {s: r for r, s in enumerate(INDEX_SETS[k])} for k in range(DIM + 1)}
NFORMS = {k: len(INDEX_SETS[k]) for k in range(DIM + 1)}
#: 0-based (i, j) of the increasing pairs, in rank order
PAIR_I, PAIR_J = (np.array(ix) - 1 for ix in zip(*INDEX_SETS[2]))


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


def is_object_list(x):
    """True when a parsed JSON value is a list of objects."""
    return isinstance(x, list) and all(isinstance(t, dict) for t in x)


def json_number(x, integer=False):
    """A parsed JSON number as a float, or as an int when integer is set and
    its value is integral; None for anything else (null, a string, a list,
    a boolean, 1.5 where an integer is asked for, an integer beyond float)."""
    if type(x) is int and (integer or abs(x) <= sys.float_info.max):
        return x if integer else float(x)
    if type(x) is float and (not integer or x.is_integer()):
        return int(x) if integer else x
    return None


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
        return cls.from_terms(len(idx), {idx: 1.0})

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

    def to_json_dict(self):
        return {"degree": self.degree,
                "terms": [{"idx": list(idx), "c": v} for idx, v in self.terms()]}

    @classmethod
    def from_json_dict(cls, data):
        if not (isinstance(data, dict) and is_object_list(data.get("terms"))):
            raise ValueError("'terms' must be a list of objects")
        degree = json_number(data.get("degree"), integer=True)
        if degree is None or not 0 <= degree <= DIM:
            raise ValueError(f"'degree' must be an integer in 0..{DIM}, "
                             f"got {json.dumps(data.get('degree'))}")
        terms = {}
        for n, t in enumerate(data["terms"]):
            idx = t["idx"] if isinstance(t.get("idx"), list) else [None]
            idx = tuple(json_number(i, integer=True) for i in idx)
            c = json_number(t.get("c"))
            if len(idx) != degree or None in idx + (c,) or not all(1 <= i <= DIM for i in idx):
                raise ValueError(f"terms[{n}] needs idx, {degree} integers in 1..{DIM}, "
                                 f"and a number c, got {json.dumps(t)}")
            key = tuple(sorted(idx))
            if key in terms:
                raise ValueError(f"terms[{n}] repeats an earlier index set, got {json.dumps(t)}")
            terms[key] = (idx, c)
        return cls.from_terms(degree, dict(terms.values()))


class Metric:
    """Inner product on the fixed space: symmetric positive definite gram
    matrix plus an orientation sign.

    A plain value: the constructor sets a Cholesky factor of G, which
    :meth:`frame` reads, and the volume factor o sqrt(det G), and nothing
    is filled in later; the Hodge stars of the metric are
    :func:`hodge_matrix`'s.  The constructor is the one check of a gram
    matrix: finite, symmetric and positive definite.  :meth:`_trusted`
    takes a gram with its factor and volume factor, already computed and
    checked (by :func:`g2core._metric_parts`).
    """

    __slots__ = ("gram", "orientation", "volume", "_cholesky")

    def __init__(self, gram, orientation=1):
        g = np.array(gram, dtype=float).reshape(DIM, DIM)
        if not np.isfinite(g).all():
            raise BadMetric("gram matrix must be finite")
        # np.allclose(g, g.T, atol=atol) written out: |g - g^T| <= atol + 1e-5 |g^T|
        a = np.abs(g)
        atol = 1e-12 * max(1.0, float(a.max()))
        if not (np.abs(g - g.T) <= atol + 1e-5 * a.T).all():
            raise BadMetric("gram matrix must be symmetric")
        try:
            L = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise BadMetric("gram matrix must be positive definite") from None
        if orientation not in (1, -1):
            raise BadMetric("orientation must be +1 or -1")
        self._set(g, L, orientation, orientation * np.sqrt(np.linalg.det(g)))

    @classmethod
    def _trusted(cls, g, volume, L):
        """The metric of a (7, 7) float gram g, exactly symmetric and
        positive definite, with L its Cholesky factor and volume o sqrt(det G)
        finite and nonzero, o the orientation; it keeps g and L without a
        copy, and checks nothing."""
        m = cls.__new__(cls)
        m._set(g, L, 1 if volume > 0 else -1, volume)
        return m

    def _set(self, g, L, orientation, volume):
        self.gram, self._cholesky = _frozen(g, L)
        self.orientation = int(orientation)
        #: o sqrt(det G), the coefficient of the volume form
        self.volume = float(volume)

    def frame(self):
        """Columns form an oriented orthonormal basis: M^T gram M = I, from
        the Cholesky factor the constructor kept."""
        M = np.linalg.inv(self._cholesky).T
        if self.orientation < 0:
            M[:, -1] *= -1.0
        return M

    def volume_form(self):
        return KForm.volume(self.volume)

    def inner(self, a: KForm, b: KForm) -> float:
        """<a, b> from a ^ *b = <a, b> vol: (S_k a) . (H_k b) / o sqrt(det G),
        with S_k the identity-metric star."""
        if a.degree != b.degree:
            raise ValueError("degree mismatch")
        k = a.degree
        return float((_star_table(k) @ a.coeffs) @ (hodge_matrix(self, k) @ b.coeffs)
                     / self.volume)

    def form_norm(self, a: KForm) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def transpose(self, A):
        """Adjoint of an endomorphism with respect to this inner product."""
        ginv = np.linalg.inv(self.gram)
        return ginv @ np.asarray(A).T @ self.gram

    def __repr__(self):
        return f"Metric(orientation={self.orientation:+d})"


# ---------------------------------------------------------------------------
# cached operator tables, all read-only
# ---------------------------------------------------------------------------

_ALTERNATING = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])


def _frozen(*arrays):
    """Mark arrays read-only and return them: one array, or a tuple of several."""
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@functools.cache
def _wedge_table(p, q):
    """The one sign convention: e^P ^ e^Q = sign[P, Q] e^{rank[P, Q]} for
    basis forms of degrees p and q, indexed by rank; sign is 0 (and rank
    meaningless) where P and Q overlap."""
    rank = np.zeros((NFORMS[p], NFORMS[q]), dtype=np.intp)
    sign = np.zeros((NFORMS[p], NFORMS[q]))
    for i, P in enumerate(INDEX_SETS[p]):
        rest = [m for m in range(1, DIM + 1) if m not in P]
        for Q in itertools.combinations(rest, q):  # the Q disjoint from P
            j = RANK[q][Q]
            srt, s = sort_sign(P + Q)
            rank[i, j], sign[i, j] = RANK[p + q][srt], s
    return _frozen(rank, sign)


@functools.cache
def _laplace_table(k):
    """Flat gathers for the k x k minors of a 7x7 matrix h expanded along
    their first row: for each b < k and every pair of index sets (J, I),
    flattened, h.ravel()[entry[b]] is h[I_0, J_b] and
    P_{k-1}(h).ravel()[minor[b]] is det h[I - I_0, J - J_b]."""
    n, m = NFORMS[k], NFORMS[k - 1]
    entry = np.empty((k, n, n), dtype=np.intp)
    minor = np.empty((k, n, n), dtype=np.intp)
    for rj, J in enumerate(INDEX_SETS[k]):
        for ri, I in enumerate(INDEX_SETS[k]):
            for b in range(k):
                entry[b, rj, ri] = (I[0] - 1) * DIM + J[b] - 1
                minor[b, rj, ri] = RANK[k - 1][J[:b] + J[b + 1:]] * m + RANK[k - 1][I[1:]]
    return _frozen(entry.reshape(k, -1), minor.reshape(k, -1))


@functools.cache
def _star_table(k):
    """Identity-metric Hodge star as a C(7,7-k) x C(7,k) signed permutation:
    e^I ^ e^J = S[J, I] e^{1..7}."""
    return _frozen(np.ascontiguousarray(_wedge_table(k, DIM - k)[1].T))


@functools.cache
def _interior_table(k):
    """Stack of 7 matrices: interior product with each basis vector, the
    transpose of e^m ^ . from degree k-1."""
    rank, sign = _wedge_table(1, k - 1)
    T = np.zeros((DIM, NFORMS[k - 1], NFORMS[k]))
    m, j = np.indices(rank.shape)
    T[m, j, rank] = sign  # one entry per (m, j): 0 where m is in e^j
    return _frozen(T)


@functools.cache
def _theta_tensor(k):
    """4-tensor T with theta_k(A) = einsum('jabi,ab->ji', T, A):
    theta(E_ab) = -(e^b ^ .) o i_{e_a}."""
    i_k = _interior_table(k)
    # 0.0 - x rather than -x keeps the zero entries +0.0
    return _frozen(0.0 - np.einsum("bLj,aLi->jabi", i_k, i_k))


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product.  Returns a flagged zero 0-form on degree overflow."""
    p, q = a.degree, b.degree
    if p + q > DIM:
        return KForm(0, [0.0], degree_overflow=True)
    rank, sign = _wedge_table(p, q)
    terms = sign * np.outer(a.coeffs, b.coeffs)
    return KForm(p + q, np.bincount(rank.ravel(), terms.ravel(), NFORMS[p + q]))


def wedge_matrix(b: KForm, k: int) -> np.ndarray:
    """Matrix of (k-form) -> (k-form wedge b) acting on coefficient vectors."""
    rank, sign = _wedge_table(k, b.degree)
    n = NFORMS[k]
    flat = rank * n + np.arange(n)[:, None]
    W = np.bincount(flat.ravel(), (sign * b.coeffs).ravel(), NFORMS[k + b.degree] * n)
    return W.reshape(-1, n)


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
    A = np.asarray(A, dtype=float).reshape(DIM * DIM)
    # einsum('jabi,ab,i->j', T, A, a) in two products: the form first, then A
    TA = _theta_tensor(a.degree) @ a.coeffs
    return KForm(a.degree, TA.reshape(NFORMS[a.degree], -1) @ A)


def pullback_matrix(h, k: int) -> np.ndarray:
    """Matrix of the pullback a -> a(h.,...,h.) on degree-k coefficients.

    Entry [J, I] is the minor det h[I, J]: the matrix is the transposed k-th
    compound of h.  Every degree starts from P_1(h) = h^T and expands along
    the first row, which is the Leibniz sum over permutations grouped by
    the column taken from that row:
    det h[I, J] = sum_b (-1)^b h[I_0, J_b] det h[I - I_0, J - J_b],
    on flat gathers of h and of the previous degree.  Only products and
    sums of entries of h are taken, so any h, singular or not, has its
    pullback, and the minors are as accurate as those sums.
    """
    if k == 0:
        return np.ones((1, 1))
    h = np.asarray(h, dtype=float)
    flat = h.ravel()
    P = h.T.copy()
    for j in range(2, k + 1):
        entry, minor = _laplace_table(j)
        P = _ALTERNATING[:j] @ (flat[entry] * P.ravel()[minor])
        P = P.reshape(NFORMS[j], NFORMS[j])
    return P


def inverse(h) -> np.ndarray:
    """h^-1 for a 7x7 matrix h; a singular h raises SingularSystem."""
    try:
        return np.linalg.inv(np.asarray(h, dtype=float))
    except np.linalg.LinAlgError:
        raise SingularSystem("the action inverts h, which is singular") from None


@functools.cache
def _tensor_table():
    """Flat gathers between 3-form coefficients c and the antisymmetric
    (7, 7, 7) tensor of the form: the tensor is [0, c, -c][source], and the
    coefficients are its entries at increasing (i, j, k), flat at rows."""
    source = np.zeros(DIM ** 3, dtype=np.intp)
    for word in itertools.permutations(range(1, DIM + 1), 3):
        srt, sign = sort_sign(word)
        source[np.ravel_multi_index(np.array(word) - 1, (DIM,) * 3)] = (
            1 + RANK[3][srt] + (NFORMS[3] if sign < 0 else 0))
    rows = np.ravel_multi_index((np.array(INDEX_SETS[3]) - 1).T, (DIM,) * 3)
    return _frozen(source, rows)


def pullback3(h, c) -> np.ndarray:
    """pullback_matrix(h, 3) @ c for one 3-form's coefficients c, without
    the matrix: the form's tensor contracted with h in each slot, by three
    products of 7x7 matrices."""
    source, rows = _tensor_table()
    T = np.concatenate(([0.0], c, -c))[source].reshape(DIM * DIM, DIM)
    x = h.T @ (T @ h).reshape(DIM, DIM, DIM)  # the last two slots
    return (h.T @ x.reshape(DIM, -1)).reshape(-1)[rows]


def pullback(h, a: KForm) -> KForm:
    """Pullback of a by the linear map h: (h* a)(v...) = a(hv...)."""
    return KForm(a.degree, pullback_matrix(h, a.degree) @ a.coeffs)


def act(h, a: KForm) -> KForm:
    """Left GL(7) action h . a = a(h^{-1}.,...,h^{-1}.)."""
    return pullback(inverse(h), a)


def hodge_matrix(g: Metric, k: int) -> np.ndarray:
    """Hodge star on degree k for the metric g, as a coefficient matrix.

    With G the gram matrix, o the orientation and S_k the identity-metric
    star, *a = o sqrt(det G) S_k (a with indices raised by G^-1), that is
    H_k = o sqrt(det G) S_k P_k(G^-1) with P_k as in :func:`pullback_matrix`.
    For k >= 4, Jacobi's identity on P_k(G^-1) and ** = 1 in dimension 7
    give H_k = o det(G)^(-1/2) P_{7-k}(G) S_k, from minors of G itself of
    size at most 3, so only H_0..H_3 invert G.  The only place a star is
    built.
    """
    if k <= 3:
        raised = pullback_matrix(np.linalg.inv(g.gram), k)
        return g.volume * (_star_table(k) @ raised)
    return (1.0 / g.volume) * (pullback_matrix(g.gram, DIM - k) @ _star_table(k))


def hodge_star(a: KForm, g: Metric | None = None) -> KForm:
    """Hodge star of a k-form for the metric g, or for the identity metric
    with positive orientation (the signed complement table) when g is None."""
    H = _star_table(a.degree) if g is None else hodge_matrix(g, a.degree)
    return KForm(DIM - a.degree, H @ a.coeffs)


#: flat gathers between 2-form coefficients x and their skew matrix X
#: (:func:`skew_from_form`): X is [0, x, -x][_SKEW], x is X.ravel()[_PAIRS]
_PAIRS = PAIR_J * DIM + PAIR_I
_SKEW = np.zeros(DIM * DIM, dtype=np.intp)
_SKEW[_PAIRS] = 1 + np.arange(NFORMS[2])
_SKEW[PAIR_I * DIM + PAIR_J] = 1 + NFORMS[2] + np.arange(NFORMS[2])
_frozen(_PAIRS, _SKEW)


def _skew_matrix(x) -> np.ndarray:
    """The skew matrix of the 21 coefficients x of a 2-form, by :data:`_SKEW`."""
    return np.concatenate(([0.0], x, -x))[_SKEW].reshape(DIM, DIM)


def form_from_skew(X) -> KForm:
    """2-form <X.,.> of a skew matrix (identity-metric identification)."""
    return KForm(2, np.asarray(X, dtype=float).reshape(-1)[_PAIRS])


def skew_from_form(a: KForm) -> np.ndarray:
    """Skew matrix X with a = <X.,.> (identity-metric identification)."""
    if a.degree != 2:
        raise ValueError("need a 2-form")
    return _skew_matrix(a.coeffs)


def phi_canonical() -> KForm:
    """The canonical positive 3-form built from the octonion cross product."""
    return KForm.from_terms(3, {
        (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
        (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
    })
