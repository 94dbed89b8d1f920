import json
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from g2flow.errors import BadMetric, DegreeUnderflow
from g2flow.exterior import (
    INDEX_SETS,
    KForm,
    Metric,
    NFORMS,
    RANK,
    act,
    form_from_skew,
    hodge_matrix,
    hodge_star,
    interior,
    phi_canonical,
    pullback,
    pullback_matrix,
    skew_from_form,
    sort_sign,
    theta,
    wedge,
    wedge_matrix,
)

from conftest import random_kform, random_metric, random_positive_form


def lu_pullback_matrix(h, k):
    """The pullback matrix as stacked LU determinants of the k x k
    submatrices: entry [J, I] is det h[I, J]."""
    if k == 0:
        return np.ones((1, 1))
    idx = np.array(INDEX_SETS[k]) - 1
    sub = np.asarray(h, dtype=float)[idx[:, None, :, None], idx[None, :, None, :]]
    return np.linalg.det(sub).T


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


_unit = st.floats(-1.0, 1.0, allow_nan=False)
_matrix = st.lists(_unit, min_size=49, max_size=49).map(
    lambda e: np.eye(7) + 0.6 / np.sqrt(7) * np.reshape(e, (7, 7)))


def test_wedge_basis():
    out = wedge(KForm.basis((1,)), KForm.basis((2,)))
    assert out.terms() == [((1, 2), 1.0)]


def test_wedge_repeated_index_vanishes():
    out = wedge(KForm.basis((1, 2)), KForm.basis((1, 3)))
    assert out.norm() == 0.0


def test_wedge_phi_star_phi_is_seven_volumes():
    phi = phi_canonical()
    out = wedge(phi, hodge_star(phi))
    assert out.degree == 7
    assert abs(out.coeffs[0] - 7.0) < 1e-12


def test_wedge_degree_overflow_flag():
    out = wedge(KForm.basis((1, 2, 3, 4)), KForm.basis((5, 6, 7, 1)))
    assert out.degree == 0 and out.norm() == 0.0 and out.degree_overflow


def test_wedge_graded_commutative_and_associative(rng):
    for _ in range(30):
        p, q, r = rng.integers(0, 4, size=3)
        a, b, c = (random_kform(rng, int(k)) for k in (p, q, r))
        ab = wedge(a, b)
        ba = wedge(b, a)
        if not ab.degree_overflow:
            assert np.allclose(ab.coeffs, (-1.0) ** (p * q) * ba.coeffs,
                               atol=1e-12)
        lhs = wedge(ab, c)
        rhs = wedge(a, wedge(b, c))
        if not (lhs.degree_overflow or rhs.degree_overflow):
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_wedge_matrix_is_right_multiplication(rng):
    for k in range(8):
        for p in range(8 - k):
            a, b = random_kform(rng, k), random_kform(rng, p)
            assert np.allclose(wedge_matrix(b, k) @ a.coeffs, wedge(a, b).coeffs,
                               rtol=0, atol=1e-12)


def test_interior_basis_cases():
    phi = phi_canonical()
    assert interior(np.eye(7)[0], KForm.basis((1, 2, 3))).terms() == [((2, 3), 1.0)]
    assert interior(np.eye(7)[3], KForm.basis((1, 2, 3))).norm() == 0.0
    got = interior(np.eye(7)[0], phi)
    want = KForm.from_terms(2, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
    assert (got - want).norm() < 1e-14


def test_interior_degree_underflow():
    with pytest.raises(DegreeUnderflow):
        interior(np.eye(7)[0], KForm.scalar(1.0))


def test_interior_is_antiderivation(rng):
    for _ in range(20):
        p, q = rng.integers(1, 4, size=2)
        a = random_kform(rng, int(p))
        b = random_kform(rng, int(q))
        u = rng.normal(size=7)
        lhs = interior(u, wedge(a, b))
        rhs = wedge(interior(u, a), b) + (-1.0) ** p * wedge(a, interior(u, b))
        assert (lhs - rhs).norm() < 1e-12
        double = interior(u, interior(u, wedge(a, b)))
        assert double.norm() < 1e-12


def test_hodge_star_canonical_displays():
    phi = phi_canonical()
    got = hodge_star(phi)
    want = KForm.from_terms(4, {(4, 5, 6, 7): 1, (2, 3, 6, 7): 1, (2, 3, 4, 5): 1,
                                (1, 3, 5, 7): 1, (1, 3, 4, 6): -1,
                                (1, 2, 5, 6): -1, (1, 2, 4, 7): -1})
    assert (got - want).norm() < 1e-14
    assert hodge_star(KForm.scalar(1.0)).terms() == [((1, 2, 3, 4, 5, 6, 7), 1.0)]


def test_hodge_star_is_involution_identity_metric(rng):
    for _ in range(50):
        a = random_kform(rng, 3)
        assert (hodge_star(hodge_star(a)) - a).norm() < 1e-12


def test_hodge_star_is_involution_random_metrics(rng):
    for _ in range(12):
        g = random_metric(rng)
        for k in range(8):
            a = random_kform(rng, k)
            back = hodge_star(hodge_star(a, g), g)
            assert (back - a).norm() < 1e-10 * max(1.0, a.norm())


def test_hodge_matrix_matches_frame_composition(rng):
    # oracle: the star through an oriented orthonormal frame M,
    # Lambda^{7-k}(M^{-1})^* S_k Lambda^k(M)^*, S_k the identity-metric star
    for _ in range(12):
        gram = random_metric(rng).gram
        for orientation in (1, -1):
            g = Metric(gram, orientation)
            M = g.frame()
            for k in range(8):
                want = (lu_pullback_matrix(np.linalg.inv(M), 7 - k)
                        @ hodge_matrix(None, k) @ lu_pullback_matrix(M, k))
                got = hodge_matrix(g, k)
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@given(h=_matrix, k=st.integers(0, 7))
def test_pullback_matrix_matches_lu_determinants(h, k):
    assume(abs(np.linalg.det(h)) > 0.2)
    assert _rel_err(pullback_matrix(h, k), lu_pullback_matrix(h, k)) <= 1e-12


@given(a=_matrix, b=_matrix, k=st.integers(0, 7))
def test_pullback_matrix_is_cauchy_binet(a, b, k):
    # the compounds Lambda^k(h) = P_k(h)^T multiply: Lambda^k(ab) = Lambda^k(a) Lambda^k(b)
    assume(abs(np.linalg.det(a)) > 0.2 and abs(np.linalg.det(b)) > 0.2)
    la, lb = pullback_matrix(a, k).T, pullback_matrix(b, k).T
    scale = (np.abs(la) @ np.abs(lb)).max()
    assert np.abs(pullback_matrix(a @ b, k).T - la @ lb).max() <= 1e-12 * scale


@given(h=_matrix, k=st.integers(0, 7), orientation=st.sampled_from((1, -1)))
def test_hodge_matrix_squares_to_one(h, k, orientation):
    # ** = 1 on every degree in dimension 7
    assume(abs(np.linalg.det(h)) > 0.2)
    g = Metric(h @ h.T, orientation)
    back, there = hodge_matrix(g, 7 - k), hodge_matrix(g, k)
    scale = (np.abs(back) @ np.abs(there)).max()
    assert np.abs(back @ there - np.eye(len(there))).max() <= 1e-12 * scale


def _mp_hodge_matrix(gram, k):
    """H_k = sqrt(det G) S_k P_k(G^-1) at 50 digits: minors of the inverse
    gram by Laplace expansion along their first row, rounded to double
    after the scaling; S_k is a signed permutation and exact."""
    with mpmath.workdps(50):
        G = mpmath.matrix(gram.tolist())
        Ginv = G ** -1
        minors = {((), ()): mpmath.mpf(1)}
        for size in range(1, k + 1):
            for rows in combinations(range(7), size):
                for cols in combinations(range(7), size):
                    minors[rows, cols] = mpmath.fsum(
                        (-1) ** b * Ginv[rows[0], cols[b]]
                        * minors[rows[1:], cols[:b] + cols[b + 1:]]
                        for b in range(size))
        vol = mpmath.sqrt(mpmath.det(G))
        sets = [tuple(i - 1 for i in s) for s in INDEX_SETS[k]]
        P = np.array([[float(vol * minors[rows, cols]) for rows in sets]
                      for cols in sets])
    return hodge_matrix(None, k) @ P


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
def test_hodge_matrix_on_near_degenerate_metrics(rng, cond):
    # an SPD gram with eigenvalues from 1 to cond, against a 50-digit star.
    # det G of the double gram moves by up to about eps * cond under a
    # rounding-size backward error, and every star carries sqrt(det G); so
    # the bound is 1e-12 or eps * cond, whichever is larger, and the error
    # may not exceed twice that of the LU-determinant star
    Q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    gram = (Q * np.logspace(0, np.log10(cond), 7)) @ Q.T
    gram = 0.5 * (gram + gram.T)
    g = Metric(gram)
    vol = np.sqrt(np.linalg.det(gram))
    for k in (3, 4, 5):
        want = _mp_hodge_matrix(gram, k)
        err = _rel_err(hodge_matrix(g, k), want)
        lu = vol * (hodge_matrix(None, k) @ lu_pullback_matrix(np.linalg.inv(gram), k))
        assert err <= max(1e-12, np.finfo(float).eps * cond)
        assert err <= 2.0 * _rel_err(lu, want) + 1e-13


def test_hodge_star_negative_orientation():
    g = Metric(np.eye(7), orientation=-1)
    assert hodge_star(KForm.scalar(1.0), g).coeffs[0] == -1.0
    a = random_kform(np.random.default_rng(0), 2)
    assert (hodge_star(hodge_star(a, g), g) - a).norm() < 1e-12


def test_hodge_star_rejects_bad_metric():
    with pytest.raises(BadMetric):
        Metric(np.diag([1, 1, 1, 1, 1, 1, -1.0]))
    with pytest.raises(BadMetric):
        hodge_star(KForm.basis((1,)), np.diag([1, 1, 1, 1, 1, 1, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_metric_rejects_non_finite_gram(bad):
    gram = np.eye(7)
    gram[0, 0] = bad
    with pytest.raises(BadMetric, match="finite"):
        Metric(gram)


@pytest.mark.parametrize("scale", [0.5, 100.0])
@pytest.mark.parametrize("off", [0.0, 0.3])
@pytest.mark.parametrize("factor", [0.99, 1 - 1e-6, 1 + 1e-6, 1.01])
def test_metric_symmetry_test_is_allclose(scale, off, factor):
    # an asymmetry just inside or just outside |g - g^T| <= atol + 1e-5 |g^T|
    # is accepted or rejected exactly as np.allclose decides
    g = scale * np.eye(7)
    g[1, 0] = off * scale
    atol = 1e-12 * max(1.0, scale)
    g[0, 1] = g[1, 0] + factor * (atol + 1e-5 * abs(g[1, 0]))
    want = np.allclose(g, g.T, atol=atol)
    assert want == (factor < 1)
    if want:
        Metric(g)
    else:
        with pytest.raises(BadMetric, match="symmetric"):
            Metric(g)


def test_wedge_against_star_recovers_inner_product(rng):
    for _ in range(25):
        k = int(rng.integers(0, 8))
        a = random_kform(rng, k)
        b = random_kform(rng, k)
        top = wedge(a, hodge_star(b))
        assert abs(top.coeffs[0] - a.coeffs @ b.coeffs) < 1e-11


def frame_inner(g, a, b):
    """Oracle: <a, b> as the Euclidean product of the coefficients in an
    oriented orthonormal frame."""
    P = pullback_matrix(g.frame(), a.degree)
    return float((P @ a.coeffs) @ (P @ b.coeffs))


def test_metric_inner_is_the_frame_inner_product(rng):
    for _ in range(12):
        gram = random_metric(rng).gram
        for orientation in (1, -1):
            g = Metric(gram, orientation)
            for k in range(8):
                a, b = random_kform(rng, k), random_kform(rng, k)
                want = frame_inner(g, a, b)
                scale = np.sqrt(frame_inner(g, a, a) * frame_inner(g, b, b))
                assert abs(g.inner(a, b) - want) <= 1e-13 * scale
                assert abs(g.form_norm(a) ** 2 - frame_inner(g, a, a)) <= 1e-13 * frame_inner(g, a, a)


def test_metric_inner_needs_equal_degrees():
    with pytest.raises(ValueError, match="degree"):
        Metric.identity().inner(KForm.basis((1,)), KForm.basis((1, 2)))


def test_metric_caches_its_stars(rng):
    g = Metric(random_metric(rng).gram, -1)
    for k in range(8):
        H = g.star_matrix(k)
        assert g.star_matrix(k) is H and not H.flags.writeable
        assert np.array_equal(H, hodge_matrix(g, k))
        a = random_kform(rng, k)
        assert np.array_equal(hodge_star(a, g).coeffs, H @ a.coeffs)
        # a raw gram builds its metric, and so the same star
        assert np.array_equal(hodge_star(a, g.gram).coeffs, Metric(g.gram).star_matrix(k) @ a.coeffs)
    assert g.volume_form().coeffs[0] == g.volume == -np.sqrt(np.linalg.det(g.gram))


def test_theta_identity_scales_by_minus_degree(rng):
    for k in range(1, 8):
        a = random_kform(rng, k)
        assert (theta(np.eye(7), a) - (-k) * a).norm() < 1e-12


def test_theta_single_slot():
    A = np.zeros((7, 7))
    A[0, 0] = 1.0
    got = theta(A, KForm.basis((1, 2, 3)))
    assert (got - (-1) * KForm.basis((1, 2, 3))).norm() < 1e-14


def test_theta_is_a_representation(rng):
    for _ in range(50):
        A = rng.normal(size=(7, 7))
        B = rng.normal(size=(7, 7))
        a = random_kform(rng, 3)
        lhs = theta(A @ B - B @ A, a)
        rhs = theta(A, theta(B, a)) - theta(B, theta(A, a))
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, a.norm())


def test_theta_skew_is_skew_adjoint_on_three_forms(rng):
    for _ in range(20):
        X = rng.normal(size=(7, 7))
        A = X - X.T
        a = random_kform(rng, 3)
        b = random_kform(rng, 3)
        assert abs(theta(A, a).coeffs @ b.coeffs
                   + a.coeffs @ theta(A, b).coeffs) < 1e-10


def test_pullback_functorial_and_act_inverse(rng):
    from conftest import random_gl7
    h = random_gl7(rng)
    a = random_kform(rng, 3)
    assert (pullback(h, act(h, a)) - a).norm() < 1e-9
    k = random_gl7(rng)
    lhs = pullback(h, pullback(k, a))
    rhs = pullback(k @ h, a)
    assert (lhs - rhs).norm() < 1e-9


def test_form_skew_round_trip(rng):
    X = rng.normal(size=(7, 7))
    X = X - X.T
    assert np.allclose(skew_from_form(form_from_skew(X)), X)


def test_kform_json_round_trip(rng):
    a = random_kform(rng, 3)
    data = json.loads(json.dumps(a.to_json_dict()))
    b = KForm.from_json_dict(data)
    assert (a - b).norm() < 1e-15
    assert data["terms"][0]["idx"][0] >= 1  # 1-based indices


def test_kform_coefficients_are_read_only():
    a = phi_canonical()
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0


def _slotwise_tables(k):
    """The interior, theta and star tables of degree k built slot by slot
    with sort_sign: references for the tables derived from the wedge table."""
    n = NFORMS[k]
    inner, th = np.zeros((7, NFORMS[k - 1], n)), np.zeros((n, 7, 7, n))
    star = np.zeros((NFORMS[7 - k], n))
    for r, idx in enumerate(INDEX_SETS[k]):
        comp = tuple(i for i in range(1, 8) if i not in idx)
        star[RANK[7 - k][comp], r] = sort_sign(idx + comp)[1]
        for pos, a in enumerate(idx):
            inner[a - 1, RANK[k - 1][idx[:pos] + idx[pos + 1:]], r] = (-1.0) ** pos
            for b in range(1, 8):
                srt, sign = sort_sign(idx[:pos] + (b,) + idx[pos + 1:])
                if sign:
                    th[RANK[k][srt], a - 1, b - 1, r] -= sign
    return inner, th, star


@pytest.mark.parametrize("k", range(1, 8))
def test_derived_tables_equal_their_slotwise_definitions(k):
    from g2flow import exterior
    inner, th, star = _slotwise_tables(k)
    assert np.array_equal(exterior._interior_table(k), inner)
    assert np.array_equal(exterior._theta_tensor(k), th)
    assert np.array_equal(exterior._star_table(k), star)


def test_cached_tables_are_read_only_and_shared():
    from g2flow import exterior
    from g2flow.liealg import _ce_triples
    builds = [(exterior._wedge_table, (p, q)) for p in range(8) for q in range(8 - p)]
    builds += [(f, (k,)) for f in (exterior._interior_table, exterior._theta_tensor)
               for k in range(1, 8)]
    builds += [(exterior._star_table, (k,)) for k in range(8)]
    builds += [(exterior._laplace_table, (k,)) for k in (2, 3)]
    builds += [(_ce_triples, (k,)) for k in range(1, 7)]
    for build, args in builds:
        first, again = build(*args), build(*args)
        if not isinstance(first, tuple):
            first, again = (first,), (again,)
        for a, b in zip(first, again, strict=True):
            assert a is b, (build.__name__, args)
            assert not a.flags.writeable, (build.__name__, args)


def test_positive_form_families_stay_positive(rng):
    from g2flow.g2core import metric_from_3form
    for _ in range(5):
        phi = random_positive_form(rng)
        g = metric_from_3form(phi)
        assert np.linalg.eigvalsh(g.gram)[0] > 0
