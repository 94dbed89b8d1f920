"""Lie brackets on R^7 as structure constants: Jacobi validation, the
Chevalley-Eilenberg differential, the delta map and its kernel
(derivations), and the Ricci curvature of left-invariant metrics."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBracket
from .exterior import (
    DIM, INDEX_SETS, KForm, Metric, NFORMS, PAIR_I, PAIR_J, _SKEW, _frozen, _theta_tensor,
    _wedge_table, inverse, is_object_list, json_number,
)

PAIRS = INDEX_SETS[2]
NCONST = len(PAIRS) * DIM  # packed constants: pair p, index m at p * 7 + m

# flat (7,7,7) positions of the packed constants c[i, j, m], i < j
_PACK_POS = ((PAIR_I * DIM + PAIR_J)[:, None] * DIM + np.arange(DIM)).ravel()

JACOBI_TOL = 1e-9


def pow2_above(a) -> float:
    """The power of two above max|a|, 1 for a zero a, and 2^1023, the largest,
    from max|a| = 2^1023 up: a / pow2_above(a) is exact, and no square of its
    entries overflows."""
    return math.ldexp(1.0, min(math.frexp(float(np.abs(a).max()))[1], 1023))


def scaled_norm(a) -> float:
    """The Euclidean norm of the array a, taken on a / pow2_above(a)."""
    s = pow2_above(a)
    return s * float(np.sqrt(np.sum((a / s) ** 2)))


def jacobi_residual(c) -> float:
    """Max-norm Jacobi defect of raw antisymmetric structure constants c relative
    to max(1, max|c|)^2: that of c / max(1, max|c|), where no product overflows."""
    c = np.asarray(c, dtype=float).reshape(DIM, DIM, DIM)
    c = c / max(1.0, float(np.abs(c).max()))
    T = np.einsum("ijm,mkl->ijkl", c, c)
    res = T + np.einsum("jkil->ijkl", T) + np.einsum("kijl->ijkl", T)
    return float(np.abs(res).max())


def pack_constants(c) -> np.ndarray:
    """(7,7,7) antisymmetric tensor -> (21,7) over increasing pairs."""
    return np.asarray(c, dtype=float).reshape(-1)[_PACK_POS].reshape(len(PAIRS), DIM)


def unpack_constants(cp) -> np.ndarray:
    """(21,7) packed constants Y -> the (7,7,7) tensor: the rows (0, -Y, Y)
    gathered by the skew layout of 2-forms, exterior._SKEW, which puts
    -Y[p] at (j, i) and Y[p] at (i, j) for the pair p = (i, j), i < j."""
    Y = np.asarray(cp, dtype=float).reshape(len(PAIRS), DIM)
    return np.concatenate((np.zeros((1, DIM)), -Y, Y))[_SKEW].reshape(DIM, DIM, DIM)


class LieBracket:
    """Antisymmetric structure constants c_ij^k on R^7 satisfying Jacobi.

    The bracket norm convention is |mu|^2 = sum over all ordered pairs
    (i,j) and k of (c_ij^k)^2, i.e. twice the sum over increasing pairs.
    The constants are read-only, so a bracket caches what is derived from
    them and read more than once: its derivation space and its relative
    Jacobi residual, which the constructor checks unless validate is False
    (as for the brackets that the group actions and the flows derive).
    """

    __slots__ = ("c", "_cache")

    def __init__(self, c, validate=True):
        c = np.array(c, dtype=float).reshape(DIM, DIM, DIM)
        if not np.isfinite(c).all():
            raise InvalidBracket("structure constants must be finite")
        anti = np.abs(c + c.transpose(1, 0, 2)).max()
        if anti > 1e-12 * max(1.0, np.abs(c).max()):
            raise InvalidBracket(f"constants not antisymmetric (defect {anti:g})")
        c = 0.5 * (c - c.transpose(1, 0, 2))
        c.flags.writeable = False
        self.c = c
        self._cache = {}
        if validate and not self.jacobi <= JACOBI_TOL:  # NaN fails too
            raise InvalidBracket(f"Jacobi residual {self.jacobi:g} exceeds {JACOBI_TOL:g}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(np.zeros((DIM, DIM, DIM)))

    @classmethod
    def from_terms(cls, terms):
        """Build from {(i,j,k): v} with 1-based indices, i < j."""
        c = np.zeros((DIM, DIM, DIM))
        for (i, j, k), v in terms.items():
            if not (1 <= i < j <= DIM and 1 <= k <= DIM):
                raise InvalidBracket(f"bad index triple {(i, j, k)}")
            c[i - 1, j - 1, k - 1] += v
            c[j - 1, i - 1, k - 1] -= v
        return cls(c)

    @classmethod
    def from_adjoint(cls, A):
        """Bracket with abelian complement of e_7 and ad e_7 = A."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        c = np.zeros((DIM, DIM, DIM))
        c[DIM - 1, :n, :n] = A.T
        c[:n, DIM - 1, :n] = -A.T
        return cls(c)

    # -- accessors ---------------------------------------------------------

    @property
    def jacobi(self) -> float:
        """The constants' :func:`jacobi_residual`, computed on first read."""
        if "jacobi" not in self._cache:
            self._cache["jacobi"] = jacobi_residual(self.c)
        return self._cache["jacobi"]

    def norm(self) -> float:
        return scaled_norm(self.c)

    def packed(self) -> np.ndarray:
        return pack_constants(self.c)

    def is_zero(self) -> bool:
        return bool(np.abs(self.c).max() <= 1e-14)

    def __repr__(self):
        return f"LieBracket(|mu|={self.norm():g}, jacobi={self.jacobi:g})"

    # -- group actions -----------------------------------------------------

    def act(self, h) -> "LieBracket":
        """Basis change h . mu = h mu(h^{-1} ., h^{-1} .)."""
        return LieBracket(bracket_act(h, self.c), validate=False)

    def scale(self, s) -> "LieBracket":
        return LieBracket(s * self.c, validate=False)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {"c": [{"i": i, "j": j, "k": k, "v": float(v)}
                      for (i, j), row in zip(PAIRS, self.packed())
                      for k, v in enumerate(row, 1) if v != 0.0]}

    @classmethod
    def from_json_dict(cls, data):
        if not (isinstance(data, dict) and is_object_list(data.get("c"))):
            raise InvalidBracket("'c' must be a list of objects")
        terms = {}
        for n, t in enumerate(data["c"]):
            key = tuple(json_number(t.get(f), integer=True) for f in "ijk")
            v = json_number(t.get("v"))
            if None in key or v is None:
                raise InvalidBracket(
                    f"c[{n}] needs integers i, j, k and a number v, got {json.dumps(t)}")
            pair = (*sorted(key[:2]), key[2])
            if pair in terms:
                raise InvalidBracket(f"c[{n}] repeats an earlier i, j, k, got {json.dumps(t)}")
            terms[pair] = (key, v)
        return cls.from_terms(dict(terms.values()))


def bracket_act(h, c, hinv=None) -> np.ndarray:
    """Raw-constants version of the basis-change action,
    (h.c)[i, j, k] = sum h[k, m] c[a, b, m] h^-1[a, i] h^-1[b, j],
    as three matrix products: over m, then a, then b.  A caller that knows
    h^-1 passes it as hinv; otherwise a singular h raises SingularSystem."""
    h = np.asarray(h, dtype=float)
    if hinv is None:
        hinv = inverse(h)
    c = np.asarray(c, dtype=float)
    x = (c.reshape(DIM * DIM, DIM) @ h.T).reshape(DIM, DIM * DIM)
    return hinv.T @ (hinv.T @ x).reshape(DIM, DIM, DIM)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential
# ---------------------------------------------------------------------------

@functools.cache
def _ce_triples(k):
    """The CE tensor of degree k as (row, column, value) triples: d_mu on
    degree k has entry [J, I] = sum of value * y[column] over the triples
    with row J * C(7, k) + I, y being the packed constants flattened.

    d_mu e^I = sum_m de^m ^ i_{e_m} e^I with de^m = -sum_{r<s} c_rs^m e^{rs}:
    i_{e_m} e^I = s1 e^L where e^m ^ e^L = s1 e^I, and e^{rs} ^ e^L = s2 e^J.
    The triples are ordered by (I, m, rs), the order in which ce_matrix
    sums each entry.
    """
    rank1, s1 = _wedge_table(1, k - 1)
    rank2, s2 = _wedge_table(2, k - 1)
    m, L, rp = np.nonzero(s1[:, :, None] * s2.T)
    I = rank1[m, L]
    order = np.lexsort((rp, m, I))
    m, L, rp, I = m[order], L[order], rp[order], I[order]
    return _frozen(rank2[rp, L] * NFORMS[k] + I, rp * DIM + m, -s1[m, L] * s2[rp, L])


def ce_matrix(mu, k: int) -> np.ndarray:
    """Matrix of d_mu from degree k to degree k+1 coefficients, built on
    each call.  mu is a LieBracket or flat packed constants."""
    if k >= DIM:
        raise ValueError("no forms of degree 8")
    if k == 0:
        return np.zeros((DIM, 1))
    if isinstance(mu, LieBracket):
        mu = mu.packed()
    rows, cols, vals = _ce_triples(k)
    y = np.asarray(mu, dtype=float).reshape(NCONST)
    d = np.bincount(rows, weights=vals * y[cols],
                    minlength=NFORMS[k + 1] * NFORMS[k])
    return d.reshape(NFORMS[k + 1], NFORMS[k])


def ce_matrix_of_form(a: KForm) -> np.ndarray:
    """Matrix of the packed constants y -> d_y a, for a fixed k-form a."""
    k = a.degree
    rows, cols, vals = _ce_triples(k)
    J, I = np.divmod(rows, NFORMS[k])
    d = np.bincount(J * NCONST + cols, weights=vals * a.coeffs[I],
                    minlength=NFORMS[k + 1] * NCONST)
    return d.reshape(NFORMS[k + 1], NCONST)


def ce_differential(mu: LieBracket, a: KForm) -> KForm:
    """The differential of left-invariant forms determined by the bracket."""
    if a.degree >= DIM:
        raise ValueError("differential needs degree <= 6")
    return KForm(a.degree + 1, ce_matrix(mu, a.degree) @ a.coeffs)


# ---------------------------------------------------------------------------
# the delta map and derivations
# ---------------------------------------------------------------------------

def delta_mu(mu, E) -> np.ndarray:
    """delta_mu(E) = mu(E.,.) + mu(.,E.) - E mu(.,.), as raw constants."""
    c = mu.c if isinstance(mu, LieBracket) else np.asarray(mu, dtype=float)
    Et = np.asarray(E, dtype=float).T
    return (Et @ c.reshape(DIM, DIM * DIM)).reshape(DIM, DIM, DIM) + Et @ c - c @ Et


@dataclass
class DerivationSpace:
    """Basis of the kernel of E -> delta_mu(E)."""

    basis: np.ndarray  # (dim, 7, 7)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, D) -> bool:
        v = np.asarray(D, dtype=float).reshape(-1)
        proj = (self.basis.reshape(self.dim, -1).T
                @ (self.basis.reshape(self.dim, -1) @ v))
        return bool(np.linalg.norm(proj - v) <= 1e-8 * max(1.0, np.linalg.norm(v)))


def derivations(mu: LieBracket) -> DerivationSpace:
    """Derivation algebra via an SVD nullspace of the delta map, cached on
    mu with a read-only basis."""
    if "derivations" in mu._cache:
        return mu._cache["derivations"]
    # column ab of the packed delta map is -theta_2(E_ab) Y - Y E_ab^T, the
    # packed velocity's formula (flow._bracket_velocity).  Row jik is minus
    # row ijk and row iik vanishes, so these 147 rows have the nullspace of
    # all 343, and singular values smaller by sqrt 2 alike.  0.0 - x keeps
    # the zero entries +0.0
    n2, Y = len(PAIRS), mu.packed()
    TY = (_theta_tensor(2).reshape(-1, n2) @ Y).reshape(n2, DIM * DIM, DIM)
    YE = np.einsum("ka,pb->pkab", np.eye(DIM), Y).reshape(n2, DIM, DIM * DIM)
    L = (0.0 - (TY.transpose(0, 2, 1) + YE)).reshape(NCONST, DIM * DIM)
    _, s, Vh = np.linalg.svd(L, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    mask = np.ones(Vh.shape[0], dtype=bool) if smax == 0.0 else s <= 1e-8 * smax
    mats = _frozen(Vh[mask].reshape(-1, DIM, DIM))
    der = mu._cache["derivations"] = DerivationSpace(mats)
    return der


# ---------------------------------------------------------------------------
# Ricci curvature of a left-invariant metric
# ---------------------------------------------------------------------------

def ricci(mu: LieBracket, g: Metric | None = None):
    """Ricci operator and scalar curvature of the left-invariant metric.

    Computed from the Levi-Civita connection coefficients obtained by the
    Koszul formula on structure constants in a g-orthonormal frame, or as they are for no g.
    """
    chat = mu.c
    if g is not None:
        M = g.frame()
        Minv = np.linalg.inv(M)
        chat = bracket_act(Minv, mu.c, M)
    # Koszul: <nabla_i e_j, e_k> = (c_ijk - c_ikj - c_jki) / 2
    gamma = 0.5 * (chat - np.einsum("ikj->ijk", chat) - np.einsum("jki->ijk", chat))
    N = np.einsum("ijk->ikj", gamma)  # N[i] acts on coordinates: (N_i)_{kj}
    NN = np.einsum("iab,jbc->ijac", N, N)
    R4 = NN - NN.transpose(1, 0, 2, 3) - np.einsum("ijk,kab->ijab", chat, N)
    ric_f = np.einsum("iaib->ab", R4)
    ric_f = 0.5 * (ric_f + ric_f.T)
    ric_op = ric_f if g is None else M @ ric_f @ Minv
    return ric_op, float(np.trace(ric_f))


def scalar_curvature(c) -> float:
    """Scalar curvature of the left-invariant metric in which the basis of
    the constants c (c[i, j, k] the e_k part of [e_i, e_j]) is orthonormal:

        R = -1/4 sum c_ijk^2 - 1/2 sum c_ijk c_ikj - |H|^2,

    H_k = tr ad_k = sum_i c_kii.  It is the trace that :func:`ricci` takes,
    from three contractions of c and no (7, 7, 7, 7) products."""
    flat = c.reshape(-1)
    H = c.trace(axis1=1, axis2=2)
    return (-0.25 * float(flat @ flat) - 0.5 * float(flat @ c.transpose(0, 2, 1).reshape(-1))
            - float(H @ H))
