import json
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from g2flow import almostabelian as aa
from g2flow import liealg
from g2flow import corpus
from g2flow.corpus import mu_nilpotent, phi_nilpotent_example
from g2flow.errors import InvalidBracket, SingularSystem
from g2flow.exterior import (DIM, INDEX_SETS, KForm, Metric, NFORMS, RANK, act, phi_canonical,
                             sort_sign)
from g2flow.flow import _direct_velocity, laplacian
from g2flow.liealg import (
    JACOBI_TOL,
    PAIRS,
    _PACK_POS,
    LieBracket,
    bracket_act,
    ce_differential,
    ce_matrix,
    ce_matrix_of_form,
    delta_mu,
    derivations,
    jacobi_residual,
    ricci,
    scalar_curvature,
)

from conftest import hodge_laplacian, random_gl7, random_kform, random_sl3c


def test_jacobi_abelian_is_zero():
    assert jacobi_residual(np.zeros((7, 7, 7))) == 0.0


def test_jacobi_nilpotent_family_is_zero(rng):
    for _ in range(10):
        a, b, c, d = rng.normal(size=4)
        assert mu_nilpotent(a, b, c, d).jacobi < 1e-15


def test_jacobi_perturbation_is_positive(rng):
    c = np.zeros((7, 7, 7))
    for (i, j, k) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    base = jacobi_residual(c)
    assert base < 1e-15
    pert = c.copy()
    pert[0, 3, 4] += 0.1
    pert[3, 0, 4] -= 0.1
    assert jacobi_residual(pert) > 1e-3
    with pytest.raises(InvalidBracket):
        LieBracket(pert)


def test_jacobi_is_checked_relative_to_the_scale(rng):
    # the residual is relative to max(1, max|c|)^2 and taken of the scaled
    # constants: a moved bracket passes at any scale, antisymmetric constants
    # that are not a bracket fail at any scale, and no product overflows,
    # also through JSON
    c = rng.normal(size=(7, 7, 7))
    bad = c - c.transpose(1, 0, 2)
    good = LieBracket(aa.bracket_of(random_sl3c(rng)).act(random_gl7(rng)).c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1.0, 1e4, 1e160, 1e200, 1e300):
            for mu in (LieBracket(s * good.c),
                       LieBracket.from_json_dict(good.scale(s).to_json_dict())):
                assert mu.jacobi <= JACOBI_TOL
                assert abs(mu.norm() - s * good.norm()) <= 1e-14 * s * good.norm()
                assert "inf" not in repr(mu) and "nan" not in repr(mu)
            for build in (lambda: LieBracket(s * bad), lambda: LieBracket.from_json_dict(
                    LieBracket(s * bad, validate=False).to_json_dict())):
                with pytest.raises(InvalidBracket, match="Jacobi"):
                    build()


def test_jacobi_is_checked_where_outside_data_enters(rng, monkeypatch):
    # the constructors of outside data check Jacobi; a bracket derived from
    # a checked one computes its residual when the residual is read, once
    terms = {(1, 2, 3): 1.0, (3, 4, 1): 1.0}  # Jacobi(e1, e2, e4) = -e1
    A = np.zeros((7, 7))
    A[6, 0] = A[1, 1] = 1.0  # ad e7 leaves span(e1..e6)
    data = {"c": [{"i": i, "j": j, "k": k, "v": v} for (i, j, k), v in terms.items()]}
    mu = mu_nilpotent(1.0, 2.0, 3.0, 4.0)
    calls = []

    def counting(c):
        calls.append(1)
        return jacobi_residual(c)

    monkeypatch.setattr(liealg, "jacobi_residual", counting)
    derived = [mu.act(random_gl7(rng)), mu.scale(2.0), LieBracket(mu.c, validate=False)]
    assert calls == []
    for nu in derived:
        assert nu.jacobi == jacobi_residual(nu.c) == nu.jacobi
    assert len(calls) == 3
    for build in (lambda: LieBracket.from_terms(terms), lambda: LieBracket.from_adjoint(A),
                  lambda: LieBracket.from_json_dict(data)):
        with pytest.raises(InvalidBracket, match="Jacobi"):
            build()
    assert len(calls) == 6


@pytest.mark.parametrize("validate", [True, False])
def test_bracket_rejects_non_finite_constants(validate):
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidBracket, match="finite"):
            LieBracket(np.full((7, 7, 7), bad), validate=validate)
    c = np.zeros((7, 7, 7))
    c[0, 1, 2], c[1, 0, 2] = np.nan, np.nan
    with pytest.raises(InvalidBracket, match="finite"):
        LieBracket(c, validate=validate)


def test_bracket_rejects_non_antisymmetric():
    c = np.zeros((7, 7, 7))
    c[0, 1, 2] = 1.0  # missing the (1,0,2) partner
    with pytest.raises(InvalidBracket):
        LieBracket(c)


def test_differential_display():
    mu = mu_nilpotent(2.0, 3.0, 4.0, 5.0)
    got = ce_differential(mu, KForm.basis((5,)))
    assert (got - KForm.from_terms(2, {(1, 2): 2, (1, 3): 4})).norm() < 1e-14
    got6 = ce_differential(mu, KForm.basis((6,)))
    assert (got6 - KForm.from_terms(2, {(1, 2): 3, (1, 3): 5})).norm() < 1e-14


def test_differential_of_the_positive_form():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    mu = mu_nilpotent(a, b, c, d)
    got = ce_differential(mu, phi_nilpotent_example())
    want = KForm.from_terms(4, {(1, 2, 3, 7): d - a, (1, 2, 3, 4): -(b + c)})
    assert (got - want).norm() < 1e-13


def test_abelian_differential_vanishes(rng):
    mu = LieBracket.zero()
    for k in range(7):
        assert ce_differential(mu, random_kform(rng, k)).norm() == 0.0


def test_differential_is_an_antiderivation(rng):
    mu = mu_nilpotent(1.0, -0.5, 0.5, 1.0)
    for _ in range(20):
        p, q = rng.integers(1, 4, size=2)
        a = random_kform(rng, int(p))
        b = random_kform(rng, int(q))
        from g2flow.exterior import wedge
        lhs = ce_differential(mu, wedge(a, b))
        rhs = wedge(ce_differential(mu, a), b) \
            + (-1.0) ** p * wedge(a, ce_differential(mu, b))
        assert (lhs - rhs).norm() < 1e-11


def test_d_squared_zero_iff_jacobi(rng):
    mu = mu_nilpotent(1.0, 2.0, -1.0, 0.5)
    worst = max(np.abs(ce_matrix(mu, k + 1) @ ce_matrix(mu, k)).max()
                for k in range(1, 6))
    assert worst < 1e-13
    # broken Jacobi => d^2 != 0 on one-forms
    c = np.zeros((7, 7, 7))
    for (i, j, k) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    c[0, 3, 4] += 0.2
    c[3, 0, 4] -= 0.2
    bad = LieBracket(c, validate=False)
    worst_bad = max(np.abs(ce_matrix(bad, k + 1) @ ce_matrix(bad, k)).max()
                    for k in range(1, 6))
    assert worst_bad > 1e-3


def _dense_ce_tensor(k):
    """The CE tensor of degree k as a dense (C(7,k+1), 21, 7, C(7,k)) array,
    with d_mu = einsum('JpmI,pm->JI', D, packed constants)."""
    D = np.zeros((NFORMS[k + 1], len(PAIRS), DIM, NFORMS[k]))
    for rI, idx in enumerate(INDEX_SETS[k]):
        for p in range(k):
            head, m, tail = idx[:p], idx[p], idx[p + 1:]
            for rp, (r, s) in enumerate(PAIRS):
                word = head + (r, s) + tail
                srt, sign = sort_sign(word)
                if sign == 0:
                    continue
                D[RANK[k + 1][srt], rp, m - 1, rI] -= ((-1.0) ** p) * sign
    return D


@pytest.mark.parametrize("k", range(1, 7))
def test_ce_matrix_matches_dense_tensor(k, rng):
    # the sparse tables against the dense einsum, on constants with and
    # without Jacobi, and both ways of reading the bilinear map (mu, a) -> d_mu a
    D = _dense_ce_tensor(k)
    mu = mu_nilpotent(*rng.normal(size=4))
    for cp in (mu.packed(), rng.normal(size=(21, DIM))):
        want = np.einsum("JpmI,pm->JI", D, cp)
        assert np.abs(ce_matrix(cp.reshape(-1), k) - want).max() < 1e-14
        a = random_kform(rng, k)
        assert np.abs(ce_matrix_of_form(a) @ cp.reshape(-1)
                      - want @ a.coeffs).max() < 1e-13
    assert np.array_equal(ce_matrix(mu, k), ce_matrix(mu.packed().reshape(-1), k))


def test_laplacian_displays(s_nilpotent):
    a, b = 1.5, -0.3
    mu = mu_nilpotent(a, b, -b, a)
    lap = KForm(3, laplacian(mu, s_nilpotent.metric, s_nilpotent.phi.coeffs))
    want = KForm.from_terms(3, {(1, 2, 3): 2 * (a * a + b * b)})
    assert (lap - want).norm() < 1e-12
    z = laplacian(LieBracket.zero(), s_nilpotent.metric, KForm.basis((1, 2, 3)).coeffs)
    assert not np.any(z)


def test_laplacian_self_adjoint_and_psd(s_aa, rng):
    # unimodular samples; pointwise pairing with the structure metric
    for _ in range(12):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        a = random_kform(rng, 3)
        b = random_kform(rng, 3)
        la, lb = (KForm(3, laplacian(mu, s_aa.metric, x.coeffs)) for x in (a, b))
        assert np.array_equal(la.coeffs, hodge_laplacian(mu, s_aa, a).coeffs)
        assert abs(s_aa.metric.inner(la, b) - s_aa.metric.inner(a, lb)) < 1e-9 * max(
            1.0, a.norm() * b.norm())
        assert s_aa.metric.inner(la, a) >= -1e-10 * max(1.0, a.norm() ** 2)


def test_delta_of_derivation_vanishes():
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    D = np.diag([1, 1, 1, 2, 2, 2, 2.0])
    assert np.abs(delta_mu(mu, D)).max() < 1e-14


def test_delta_of_identity_is_the_bracket(rng):
    # the action derivative gives delta(I) = +mu
    mu = mu_nilpotent(*rng.normal(size=4))
    assert np.allclose(delta_mu(mu, np.eye(7)), mu.c)


def test_delta_scaling_law_on_soliton(s_nilpotent):
    a, b = 0.7, -1.1
    mu = mu_nilpotent(a, b, -b, a)
    Q = s_nilpotent.solve_Q(hodge_laplacian(mu, s_nilpotent, s_nilpotent.phi))
    got = delta_mu(mu, Q)
    assert np.abs(got + (5.0 / 3.0) * (a * a + b * b) * mu.c).max() < 1e-12


def test_derivations_are_cached_read_only():
    mu = mu_nilpotent(1.0, 0.3, -0.3, 1.0)
    der = derivations(mu)
    assert derivations(mu) is der
    assert not der.basis.flags.writeable
    with pytest.raises(ValueError):
        der.basis[0, 0, 0] = 1.0


def test_the_bracket_caches_no_ce_matrix(s_nilpotent):
    # the CE matrices are built on each call: after the direct velocity and
    # the Laplacian have read them, the bracket holds only its Jacobi
    # residual and derivations, and its matrices are those of its constants
    mu = mu_nilpotent(1.0, 0.3, -0.3, 1.0)
    _direct_velocity(mu)
    laplacian(mu, s_nilpotent.metric, s_nilpotent.phi.coeffs)
    derivations(mu)
    assert set(mu._cache) == {"jacobi", "derivations"}
    for k in range(1, 7):
        assert np.array_equal(ce_matrix(mu, k), ce_matrix(mu.packed().reshape(-1), k))
    assert set(mu._cache) == {"jacobi", "derivations"}


def test_derivations_delta_map_is_the_einsum(rng, monkeypatch):
    # the 147 packed rows placed by index, byte for byte the rows kept from
    # the full 343 x 49 map of three einsums; dense and sparse brackets
    svd, seen = np.linalg.svd, []

    def recording_svd(a, *args, **kw):
        seen.append(np.array(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    eye = np.eye(DIM)
    for n in range(32):
        c = rng.normal(size=(DIM, DIM, DIM))
        if n % 2:
            c *= rng.random(size=c.shape) < 0.2
        mu = LieBracket(c - c.transpose(1, 0, 2), validate=False)
        derivations(mu)
        c = mu.c
        want = (np.einsum("ib,ajk->ijkab", eye, c) + np.einsum("jb,iak->ijkab", eye, c)
                - np.einsum("ka,ijb->ijkab", eye, c)).reshape(DIM ** 3, DIM * DIM)[_PACK_POS]
        assert seen[-1].tobytes() == want.tobytes()
    assert len(seen) == 32


def test_derivations_abelian_is_everything():
    der = derivations(LieBracket.zero())
    assert der.dim == 49


def test_derivations_contains_known_derivation():
    der = derivations(mu_nilpotent(1.0, 0.0, 0.0, 1.0))
    assert der.contains(np.diag([1, 1, 1, 2, 2, 2, 2.0]))


def test_derivations_of_adjoint_bracket_contains_extension(rng):
    d = np.diag(rng.normal(size=3))
    d -= np.trace(d) / 3 * np.eye(3)
    m = aa.AAMatrix.from_complex(d)
    mu = aa.bracket_of(m)
    der = derivations(mu)
    D = np.zeros((7, 7))
    D[:6, :6] = m.natural
    assert der.contains(D)


def test_derivations_exponentiate_to_automorphisms(rng):
    mu = mu_nilpotent(1.0, 0.3, -0.3, 1.0)
    der = derivations(mu)
    coeff = rng.normal(size=der.dim)
    D = np.einsum("n,nab->ab", coeff, der.basis)
    D /= max(1.0, np.linalg.norm(D))
    for s in (1e-3, 1e-2, 0.1):
        moved = bracket_act(expm(s * D), mu.c)
        assert np.abs(moved - mu.c).max() < 1e-7


def test_a_singular_h_in_the_actions_raises_a_typed_error():
    # every action inverts h first
    h = np.diag([1, 1, 1, 1, 1, 1, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for do in (lambda: act(h, phi_canonical()), lambda: LieBracket.zero().act(h),
                   lambda: bracket_act(h, np.zeros((DIM, DIM, DIM)))):
            with pytest.raises(SingularSystem, match="singular"):
                do()


def test_bracket_act_matches_the_einsum(rng):
    # the three matrix products against the one four-operand contraction
    for _ in range(20):
        h = random_gl7(rng)
        c = rng.normal(size=(DIM, DIM, DIM))
        hinv = np.linalg.inv(h)
        want = np.einsum("km,abm,ai,bj->ijk", h, c, hinv, hinv)
        got = bracket_act(h, c)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_ricci_display_nilpotent(rng):
    a, b = 1.2, 0.7
    mu = mu_nilpotent(a, b, -b, a)
    ric, R = ricci(mu)
    want = (a * a + b * b) * np.diag([-1, -0.5, -0.5, 0, 0.5, 0.5, 0])
    assert np.abs(ric - want).max() < 1e-12
    assert abs(R - np.trace(want)) < 1e-12


def test_ricci_block_form_almost_abelian(rng):
    for _ in range(10):
        m = random_sl3c(rng)
        A = m.natural
        mu = aa.bracket_of(m)
        ric, R = ricci(mu)
        want = np.zeros((7, 7))
        want[:6, :6] = 0.5 * (A @ A.T - A.T @ A)
        S = A + A.T
        want[6, 6] = -0.25 * np.trace(S @ S)
        assert np.abs(ric - want).max() < 1e-10
        assert abs(R - want.trace()) < 1e-10


def test_ricci_abelian_is_flat():
    ric, R = ricci(LieBracket.zero())
    assert np.abs(ric).max() == 0.0 and R == 0.0


def test_scalar_curvature_is_the_trace_of_ricci(rng):
    # the corpus brackets, then 50 seeded ones moved by GL(7): almost-abelian
    # of norms 0.1 to 10, and nilpotent
    brackets = [LieBracket.zero(), mu_nilpotent(1, 0, 0, 1), mu_nilpotent(1, 2, 3, 4),
                LieBracket.from_adjoint(np.diag([1.0, 1, 1, 0, 0, 0]))]
    brackets += [aa.bracket_of(aa.AAMatrix.from_complex(B)) for B in (
        corpus.aa_n2(), corpus.aa_n6_soliton(), corpus.aa_diag(1, -1, 0),
        corpus.aa_heber_example()[0])]
    for i in range(50):
        mu = (aa.bracket_of(random_sl3c(rng, rng.uniform(0.1, 10))) if i % 2
              else mu_nilpotent(*rng.normal(size=4)))
        brackets.append(mu.act(random_gl7(rng)))
    for mu in brackets:
        want = ricci(mu)[1]
        assert abs(scalar_curvature(mu.c) - want) <= 1e-13 * abs(want)


def test_ricci_non_unimodular_hyperbolic_oracles():
    # ad e7 = c I on the abelian ideal gives hyperbolic space of curvature
    # -c^2, Einstein with Ric = -6 c^2 g; a rank-3 block gives H^4 x R^3
    for c in (1.0, 0.5, 2.0):
        ric, R = ricci(LieBracket.from_adjoint(c * np.eye(6)))
        assert np.abs(ric + 6 * c * c * np.eye(7)).max() < 1e-12 * max(1, c * c)
        assert abs(R + 42 * c * c) < 1e-10 * max(1, c * c)
    ric, R = ricci(LieBracket.from_adjoint(np.diag([1.0, 1, 1, 0, 0, 0])))
    want = np.diag([-3.0, -3, -3, 0, 0, 0, -3])
    assert np.abs(ric - want).max() < 1e-12
    assert abs(R + 12.0) < 1e-12


def test_ricci_bi_invariant_compact_oracle():
    # the bi-invariant metric on the compact rank-one factor: Ric = g/2
    c = np.zeros((7, 7, 7))
    for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    ric, R = ricci(LieBracket(c))
    assert np.abs(np.diag(ric)[:3] - 0.5).max() < 1e-13
    assert abs(R - 1.5) < 1e-13


def test_ricci_with_no_metric_reads_the_constants(rng):
    # the identity metric's frame is I, so its result is the constants' own,
    # bit for bit
    c = rng.normal(size=(7, 7, 7))
    brackets = [mu_nilpotent(*rng.normal(size=4)), aa.bracket_of(random_sl3c(rng)),
                LieBracket.zero(), LieBracket(c - c.transpose(1, 0, 2), validate=False)]
    for mu in brackets:
        (ric, R), (ric_i, R_i) = ricci(mu), ricci(mu, Metric(np.eye(DIM)))
        assert ric.tobytes() == ric_i.tobytes() and R == R_i


def test_scalar_curvature_matches_q_trace(s_aa, rng):
    for _ in range(5):
        m = random_sl3c(rng)
        mu = aa.bracket_of(m)
        Q = s_aa.solve_Q(hodge_laplacian(mu, s_aa, s_aa.phi))
        _, R = ricci(mu, s_aa.metric)
        assert abs(R - 1.5 * np.trace(Q)) < 1e-10 * max(1.0, abs(R))


def test_bracket_json_round_trip(rng):
    mu = mu_nilpotent(*rng.normal(size=4))
    data = json.loads(json.dumps(mu.to_json_dict()))
    back = LieBracket.from_json_dict(data)
    assert np.abs(back.c - mu.c).max() < 1e-15
    assert all(t["i"] < t["j"] for t in data["c"])


def test_bracket_norm_convention():
    mu = mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    # two generating pairs, unit coefficients, both orders counted
    assert abs(mu.norm() ** 2 - 4.0) < 1e-14
    m = aa.AAMatrix.from_complex(np.diag([1.0 + 0j, -1.0, 0.0]))
    assert abs(aa.bracket_of(m).norm() ** 2 - 2 * m.norm_sq()) < 1e-14
