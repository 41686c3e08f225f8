"""Cofactor calculus, divergence/ibp identities, and variation formulas."""

import math

import numpy as np
import pytest

from bmstab.bodies import FamilyError, ball_body, make_family, measure_of_body
from bmstab.measures import make_measure
from bmstab.oracles import central_derivative
from bmstab.sphere import PolynomialSF, build_grid, curvature_matrix, sf_sum
from bmstab.variation import (_frame_third, cofactor_field,
                              divergence_residuals, second_cofactor_field,
                              variation_at_ball)


def random_symmetric(rng, N, scale=1.0):
    M = rng.normal(size=(N, N)) * scale
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# cofactor calculus
# ---------------------------------------------------------------------------

# Scalar cofactors by explicit minors: the reference for the batched
# cofactor_field and second_cofactor_field.

def cofactor_matrix(M):
    """First cofactor c_ij = d(det)/dM_ij by explicit minors (exact for any
    square matrix, no invertibility assumed)."""
    M = np.asarray(M, dtype=float)
    N = M.shape[0]
    if N == 1:
        return np.ones((1, 1))
    C = np.empty((N, N))
    for i in range(N):
        rows = [r for r in range(N) if r != i]
        for j in range(N):
            cols = [c for c in range(N) if c != j]
            C[i, j] = (-1.0) ** (i + j) * np.linalg.det(M[np.ix_(rows, cols)])
    return C


def second_cofactor(M):
    """Second cofactor tensor c_ij,kl = d^2(det)/(dM_ij dM_kl)."""
    M = np.asarray(M, dtype=float)
    N = M.shape[0]
    C2 = np.zeros((N, N, N, N))
    for i in range(N):
        for j in range(N):
            for k in range(N):
                if k == i:
                    continue
                for l in range(N):
                    if l == j:
                        continue
                    rows = [r for r in range(N) if r not in (i, k)]
                    cols = [c for c in range(N) if c not in (j, l)]
                    minor = M[np.ix_(rows, cols)]
                    det = np.linalg.det(minor) if rows else 1.0
                    kk = k - 1 if k > i else k
                    ll = l - 1 if l > j else l
                    C2[i, j, k, l] = (-1.0) ** (i + j + kk + ll) * det
    return C2


def test_cofactor_2x2_closed_form():
    M = np.array([[2.0, 0.7], [0.7, -1.2]])
    C = cofactor_matrix(M)
    assert np.allclose(C, [[-1.2, -0.7], [-0.7, 2.0]], atol=1e-14)


def test_cofactor_identity_matrix():
    C = cofactor_matrix(np.eye(3))
    assert np.allclose(C, np.eye(3), atol=1e-14)
    assert np.sum(C * np.eye(3)) == pytest.approx(3.0)  # = 3 det


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_cofactor_homogeneity_identities(N):
    rng = np.random.default_rng(37 + N)
    for _ in range(200):
        M = random_symmetric(rng, N, scale=rng.uniform(0.1, 10.0))
        scale = max(np.abs(M).max(), 1.0) ** N
        C = cofactor_matrix(M)
        detM = np.linalg.det(M)
        assert abs(np.sum(C * M) - N * detM) < 1e-12 * scale
        C2 = second_cofactor(M)
        back = np.einsum("ijkl,kl->ij", C2, M)
        assert np.max(np.abs(back - (N - 1) * C)) < 1e-12 * scale


def test_cofactor_vs_determinant_gradient():
    # c_ij = d det / d M_ij for symmetric-structure perturbations is checked
    # through the general directional derivative of det at M
    rng = np.random.default_rng(11)
    M = random_symmetric(rng, 4)
    C = cofactor_matrix(M)
    got = np.zeros_like(M)
    for i in range(4):
        for j in range(4):
            E = np.zeros((4, 4))
            E[i, j] = 1.0
            got[i, j] = central_derivative(
                lambda ts: [np.linalg.det(M + t * E) for t in ts], 0.0,
                order=1, step=1e-5)
    assert np.max(np.abs(got - C)) < 1e-8


def test_second_cofactor_vs_fd_of_cofactor():
    rng = np.random.default_rng(12)
    M = random_symmetric(rng, 4)
    C2 = second_cofactor(M)
    for i, j, k, l in ((0, 1, 2, 3), (1, 1, 2, 2), (0, 2, 1, 3), (0, 1, 0, 1),
                       (2, 3, 2, 3), (0, 0, 0, 0)):
        E = np.zeros((4, 4))
        E[k, l] = 1.0
        fd = central_derivative(
            lambda ts: [cofactor_matrix(M + t * E)[i, j] for t in ts], 0.0,
            order=1, step=1e-5)
        assert C2[i, j, k, l] == pytest.approx(fd, abs=1e-8)


def test_second_cofactor_vanishing_pattern():
    rng = np.random.default_rng(13)
    M = random_symmetric(rng, 5)
    C2 = second_cofactor(M)
    for i in range(5):
        for j in range(5):
            assert np.max(np.abs(C2[i, j, i, :])) == 0.0  # shared row
            assert np.max(np.abs(C2[i, j, :, j])) == 0.0  # shared column


def test_cofactor_fields_match_pointwise(grid3):
    h = PolynomialSF(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.12, (1, 1, 0): -0.05})
    Q = curvature_matrix(h, grid3).Q
    Cf = cofactor_field(Q)
    C2f = second_cofactor_field(Q)
    for idx in (0, 57, 211, 500):
        assert np.allclose(Cf[idx], cofactor_matrix(Q[idx]), atol=1e-13)
        assert np.allclose(C2f[idx], second_cofactor(Q[idx]), atol=1e-13)


# ---------------------------------------------------------------------------
# divergence-free rows and integration-by-parts identities
# ---------------------------------------------------------------------------

def test_cheng_yau_vanishes_on_circle(grid2):
    h = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                (0.1, PolynomialSF.cos_harmonic(3))])
    assert divergence_residuals(h, h, h, grid2)[0] == 0.0


def test_cheng_yau_ball_any_dimension(grid3, grid4):
    for g in (grid3, grid4):
        h = PolynomialSF.constant(g.n, 1.3)
        assert divergence_residuals(h, h, h, g)[0] < 1e-13


def test_cheng_yau_residual_small_for_smooth_bodies(grid3, grid4):
    h3 = PolynomialSF(3, {(0, 0, 0): 1.0, (0, 0, 2): 0.1})
    assert divergence_residuals(h3, h3, h3, grid3)[0] < 1e-13
    h4 = PolynomialSF(4, {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): 0.1})
    assert divergence_residuals(h4, h4, h4, grid4)[0] < 1e-13


def test_frame_third_matches_the_four_operand_einsum(grid2, grid3, grid4):
    # the staged contraction against one einsum over all seven indices
    rng = np.random.default_rng(7)
    for g in (grid2, grid3, grid4):
        n = g.n
        cubic = [a for a in np.ndindex((4,) * n) if sum(a) <= 3]
        h = PolynomialSF(n, {a: rng.normal() for a in cubic})
        E = g.frames
        want = np.einsum("mpqr,map,mbq,mcr->mabc", h.third1(g.nodes), E, E, E)
        got = _frame_third(h, g)
        assert got.shape == want.shape == (len(g.nodes),) + (n - 1,) * 3
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n


def test_ibp_residuals_circle(grid2):
    h = PolynomialSF.constant(2, 1.0)
    psi = PolynomialSF.cos_harmonic(2)
    omega = PolynomialSF.constant(2, 1.0)
    _, r1, r2 = divergence_residuals(h, psi, omega, grid2)
    assert r1 < 1e-12
    assert r2 < 1e-12


def test_ibp_residuals_sphere(grid3):
    h = PolynomialSF(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.05})
    psi = PolynomialSF(3, {(0, 2, 0): 1.0})
    omega = PolynomialSF(3, {(0, 0, 2): 1.0})
    _, r1, r2 = divergence_residuals(h, psi, omega, grid3)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_ibp_trilinear_symmetry(grid3):
    # the trilinear form is fully symmetric: permuting the roles of the two
    # test functions must leave the residual structure unchanged
    h = PolynomialSF(3, {(0, 0, 0): 1.2, (1, 1, 0): 0.08})
    psi = PolynomialSF(3, {(2, 0, 0): 0.5})
    omega = PolynomialSF(3, {(0, 1, 1): 0.5})
    r12 = divergence_residuals(h, psi, omega, grid3)[1:]
    r21 = divergence_residuals(h, omega, psi, grid3)[1:]
    assert max(r12 + r21) < 1e-8


# ---------------------------------------------------------------------------
# g(s) and its derivatives
# ---------------------------------------------------------------------------

def _g(fam, measure):
    # s -> gamma(K_{h_s}) from validated bodies along the family
    return lambda ss: [measure_of_body(measure, fam.body_at(s)) for s in ss]


def test_family_body_measure_closed_forms(grid2, lebesgue, gaussian):
    one = PolynomialSF.constant(2, 1.0)
    fam = make_family("additive", one, one, grid2)
    assert measure_of_body(lebesgue, fam.body_at(0.5)) == pytest.approx(
        2.25 * math.pi, rel=1e-12)
    assert measure_of_body(gaussian, fam.body_at(0.2)) == pytest.approx(
        2 * math.pi * (1 - math.exp(-1.44 / 2)), rel=1e-10)
    with pytest.raises(FamilyError):
        fam.body_at(fam.a * 1.01)


def test_g_prime_ball_closed_forms(grid2, lebesgue, gaussian):
    one = PolynomialSF.constant(2, 1.0)
    cos1 = PolynomialSF.cos_harmonic(1)
    assert variation_at_ball(lebesgue, 1.0, one, grid2).g1 == pytest.approx(
        2 * math.pi, rel=1e-12)
    assert variation_at_ball(gaussian, 1.0, one, grid2).g1 == pytest.approx(
        2 * math.pi * math.exp(-0.5), rel=1e-12)
    assert abs(variation_at_ball(lebesgue, 1.0, cos1, grid2).g1) < 1e-13


def test_g_second_ball_closed_forms(grid2, lebesgue, gaussian):
    one = PolynomialSF.constant(2, 1.0)
    cos1 = PolynomialSF.cos_harmonic(1)
    assert variation_at_ball(lebesgue, 1.0, one, grid2).g2 == pytest.approx(
        2 * math.pi, rel=1e-12)
    # translations leave area fixed
    assert abs(variation_at_ball(lebesgue, 1.0, cos1, grid2).g2) < 1e-13
    assert variation_at_ball(gaussian, 1.0, cos1, grid2).g2 == pytest.approx(
        -math.pi * math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mkind,p", [("lebesgue", None), ("gaussian", None),
                                     ("exp_power", 1), ("exp_power", 3)],
                         ids=["lebesgue", "gaussian", "exp_power",
                              "exp_power3"])
def test_second_variation_routes_agree(n, mkind, p):
    g = build_grid(n, 160 if n == 2 else 16)
    mu = make_measure(kind=mkind, p=p)
    rng = np.random.default_rng(7 * n)
    if n == 2:
        psi = sf_sum([(rng.normal(), PolynomialSF.constant(2, 1.0)),
                      (rng.normal(), PolynomialSF.cos_harmonic(2)),
                      (rng.normal(), PolynomialSF.sin_harmonic(3))])
    else:
        psi = PolynomialSF(3, {(0, 0, 0): rng.normal(),
                               (1, 1, 0): rng.normal(),
                               (0, 0, 2): rng.normal()})
    for R in (0.7, 1.0, 1.1, 1.6):
        var = variation_at_ball(mu, R, psi, g)
        scale = max(abs(var.g2_moment), abs(var.g2_profile), 1e-12)
        assert abs(var.g2_moment - var.g2_profile) / scale < 1e-10
        assert var.route_gap < 1e-10 * scale + 1e-14


def test_first_variation_matches_fd(grid2, gaussian):
    base = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                   (0.08, PolynomialSF.cos_harmonic(2))])
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family("additive", base, psi, grid2)
    analytic = fam.derivatives_along(gaussian, [0.0])[1][0]
    fd = central_derivative(_g(fam, gaussian), 0.0, order=1, step=1e-3)
    assert analytic == pytest.approx(fd, rel=1e-7)


def test_g_prime_away_from_zero(grid2, exp1):
    base = PolynomialSF.constant(2, 1.0)
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family("additive", base, psi, grid2)
    s0 = 0.3 * fam.a
    analytic = fam.derivatives_along(exp1, [s0])[1][0]
    fd = central_derivative(_g(fam, exp1), s0, order=1, step=1e-4)
    assert analytic == pytest.approx(fd, rel=1e-6)


def test_g_prime_multiplicative_away_from_zero(grid2, exp1):
    # at s0 the multiplicative family moves along h_s0 log(phi)
    base = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                   (0.05, PolynomialSF.cos_harmonic(2))])
    fam = make_family("multiplicative", base, PolynomialSF.cos_harmonic(2),
                      grid2)
    s0 = 0.3 * fam.a
    analytic = fam.derivatives_along(exp1, [s0])[1][0]
    fd = central_derivative(lambda s: fam.measures_along(exp1, s), s0,
                            order=1, step=1e-3)
    assert analytic == pytest.approx(fd, rel=1e-8)


def test_variation_at_ball_g0_g1(grid3, gaussian):
    psi = PolynomialSF(3, {(0, 0, 0): 0.5, (1, 1, 0): 0.3})
    var = variation_at_ball(gaussian, 1.2, psi, grid3)
    K = ball_body(1.2, grid3)
    assert var.g0 == pytest.approx(measure_of_body(gaussian, K), rel=1e-12)
    fam = make_family("additive", K.h, psi, grid3)
    assert var.g1 == pytest.approx(
        fam.derivatives_along(gaussian, [0.0])[1][0], rel=1e-10)


def _log_correction(measure, fam_add, fam_mul):
    # g''_mult(0) - g''_add(0) of two families through one body along one
    # initial direction, from the family kernel
    return (fam_mul.derivatives_along(measure, [0.0])[2][0]
            - fam_add.derivatives_along(measure, [0.0])[2][0])


def test_log_correction_at_ball(grid2, gaussian):
    # closed form R^{n-2} f(R) int psi^2 for a centered R-ball
    R = 1.4
    ball = PolynomialSF.constant(2, R)
    psi = PolynomialSF.cos_harmonic(2)
    got = _log_correction(gaussian, make_family("additive", ball, psi, grid2),
                          make_family("multiplicative", ball, psi, grid2))
    want = R ** 0 * math.exp(-R * R / 2) * math.pi  # int cos^2 = pi
    assert got == pytest.approx(want, rel=1e-10)
    var = variation_at_ball(gaussian, R, psi, grid2)
    assert got == pytest.approx(var.log_corr, rel=1e-10)


def test_log_correction_general_body_vs_double_fd(grid2, gaussian):
    """g''_mult(0) - g''_add(0) must equal the correction term when the
    multiplicative family is built through the same initial direction."""
    base = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                   (0.06, PolynomialSF.cos_harmonic(2))])
    psi = PolynomialSF.cos_harmonic(2)
    fam_add = make_family("additive", base, psi, grid2)
    fam_mul = make_family("multiplicative", base, psi, grid2)
    step = 2e-3
    g2_add = central_derivative(_g(fam_add, gaussian), 0.0, order=2,
                                step=step)
    g2_mul = central_derivative(_g(fam_mul, gaussian), 0.0, order=2,
                                step=step)
    corr = _log_correction(gaussian, fam_add, fam_mul)
    assert corr == pytest.approx(g2_mul - g2_add, rel=1e-4)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_mult_family_initial_speed(kind, grid2):
    base = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                   (0.05, PolynomialSF.cos_harmonic(2))])
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family(kind, base, psi, grid2)
    # d h_s / ds at s=0 equals psi
    eps = 1e-6
    hp = fam.support_at(eps).values(grid2.nodes)
    hm = fam.support_at(-eps).values(grid2.nodes)
    speed = (hp - hm) / (2 * eps)
    assert np.max(np.abs(speed - psi.values(grid2.nodes))) < 1e-9
