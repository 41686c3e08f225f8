"""Spherical grids, quadrature, and the support-function calculus."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.special import roots_jacobi

from bmstab import sphere
from bmstab.oracles import central_derivative
from bmstab.sphere import (GridError, PolynomialSF, ball_volume,
                           batch_min_eig, build_grid, curvature_matrix,
                           horner, integrate, poincare_ratio, sf_exp, sf_log,
                           sf_mul, sf_product_powers, sf_ratio, sf_sum,
                           sphere_area, split_mean)
from bmstab.funcspecs import direction_suite, sf_from_spec


def grad1(sf, U):
    """Ambient gradient of the 1-homogeneous extension at unit points:
    grad F(u) = f(u) u + spherical gradient."""
    d = sf.d2_ext0(U)
    return U * d.val[:, None] + d.grad


def hess1(sf, U):
    """Ambient Hessian of the 1-homogeneous extension F(x) = |x| f(x/|x|) at
    unit points U, from the 0-homogeneous bundle:
    (I - u u^T) f + u grad^T + grad u^T + hess.  The reference for the
    frame identity Q(h) = h I + E hess h0 E^T that curvature_matrix uses."""
    d = sf.d2_ext0(U)
    proj = np.eye(U.shape[1]) - np.einsum("mi,mj->mij", U, U)
    return (proj * d.val[:, None, None] + np.einsum("mi,mj->mij", U, d.grad)
            + np.einsum("mi,mj->mij", d.grad, U) + d.hess)


def monomial_sphere_integral(alpha):
    """Closed form for the integral of prod u_i^alpha_i over S^{n-1}.

    Zero for any odd exponent; otherwise 2 * prod Gamma((a_i+1)/2) /
    Gamma(sum (a_i+1)/2).  Independent of any quadrature in the package.
    """
    if any(a % 2 for a in alpha):
        return 0.0
    betas = [(a + 1) / 2.0 for a in alpha]
    num = 2.0
    for b in betas:
        num *= math.gamma(b)
    return num / math.gamma(sum(betas))


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)


@pytest.mark.parametrize("n,resolution", [(2, 160), (3, 16), (4, 10)])
def test_grid_basic_struct(n, resolution):
    g = build_grid(n, resolution)
    assert g.n == n
    assert g.nodes.shape == (g.count, n)
    assert np.all(g.weights > 0)
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-13)
    assert np.sum(g.weights) == pytest.approx(sphere_area(n), rel=1e-12)
    # tangent frames: orthonormal rows, orthogonal to the node
    E = g.frames
    gram = np.einsum("mia,mja->mij", E, E)
    eye = np.broadcast_to(np.eye(n - 1), gram.shape)
    assert np.max(np.abs(gram - eye)) < 1e-12
    assert np.max(np.abs(np.einsum("mia,ma->mi", E, g.nodes))) < 1e-12


# Per-point Gram-Schmidt: the reference for the batched tangent_frames.

def _tangent_frame(u):
    n = u.size
    order = np.argsort(np.abs(u), kind="stable")
    frame = np.empty((n - 1, n))
    basis = [u]
    k = 0
    for idx in order:
        if k == n - 1:
            break
        v = np.zeros(n)
        v[idx] = 1.0
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        v = v / norm
        frame[k] = v
        basis.append(v)
        k += 1
    if k != n - 1:
        raise GridError("frame construction failed")
    return frame


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tangent_frames_match_the_per_point_reference(n):
    rng = np.random.default_rng(50 + n)
    U = rng.standard_normal((500, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    # axes, and points whose |u_i| tie, where the stable order decides
    signs = rng.choice([-1.0, 1.0], size=(40, n))
    half = np.where(np.arange(n) < 2, signs, 0.0) / math.sqrt(2.0)
    U = np.concatenate([U, np.eye(n), -np.eye(n), signs / math.sqrt(n),
                        half])
    E = sphere.tangent_frames(U)
    ref = np.stack([_tangent_frame(u) for u in U])
    assert E.shape == (len(U), n - 1, n)
    assert np.max(np.abs(E - ref)) <= 1e-15
    gram = np.einsum("kia,kja->kij", E, E)
    assert np.max(np.abs(gram - np.eye(n - 1))) < 1e-15
    assert np.max(np.abs(np.einsum("kia,ka->ki", E, U))) < 1e-15


def test_grid_rejects_bad_input():
    with pytest.raises(GridError):
        build_grid(1, 16)
    with pytest.raises(GridError):
        build_grid(2, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_exact_on_monomials(n):
    g = build_grid(n, {2: 64, 3: 16, 4: 10}[n])
    rng = np.random.default_rng(17 + n)
    for _ in range(25):
        alpha = rng.integers(0, 4, size=n) * 2  # even exponents, degree <= 6
        if alpha.sum() > g.exactness_degree:
            continue
        sf = PolynomialSF(n, {tuple(int(a) for a in alpha): 1.0})
        exact = monomial_sphere_integral(alpha)
        assert integrate(sf, g) == pytest.approx(exact, rel=1e-12, abs=1e-13)
    # odd monomial integrates to zero
    alpha = np.zeros(n, dtype=int)
    alpha[0] = 3
    sf = PolynomialSF(n, {tuple(int(a) for a in alpha): 1.0})
    assert abs(integrate(sf, g)) < 1e-13


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("m", [4, 10, 16, 32, 64])
def test_gauss_jacobi_matches_scipy_and_is_exact(m, a):
    t, w = sphere._gauss_jacobi(m, a)
    t_ref, w_ref = roots_jacobi(m, a, a)
    assert np.max(np.abs(t - t_ref)) <= 1e-15
    assert np.max(np.abs(w / w_ref - 1.0)) <= 5e-12
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    # int t^{2j} (1 - t^2)^a dt = B(j + 1/2, a + 1), exact for 2j <= 2m - 1
    for j in range(m):
        exact = (math.gamma(j + 0.5) * math.gamma(a + 1.0)
                 / math.gamma(j + a + 1.5))
        assert np.sum(w * t ** (2 * j)) == pytest.approx(exact, rel=1e-13)


def test_grids_need_no_scipy():
    # every grid is numpy-only: with scipy blocked the package imports and
    # builds grids on S^1, S^2 and S^3
    env = dict(os.environ)
    src = str(Path(sphere.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import bmstab\n"
            "for n, r in ((2, 16), (3, 16), (4, 8)):\n"
            "    print(bmstab.build_grid(n, r).count)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["16", "512", "1024"]


def test_integrate_accepts_arrays(grid2):
    vals = np.ones(grid2.count)
    assert integrate(vals, grid2) == pytest.approx(2 * math.pi, rel=1e-14)
    with pytest.raises(ValueError):
        integrate(np.ones(grid2.count + 1), grid2)


def test_circle_harmonic_values(grid2):
    theta = np.arctan2(grid2.nodes[:, 1], grid2.nodes[:, 0])
    c2 = PolynomialSF.cos_harmonic(2)
    s3 = PolynomialSF.sin_harmonic(3, 0.5)
    assert np.allclose(c2.values(grid2.nodes), np.cos(2 * theta), atol=1e-13)
    assert np.allclose(s3.values(grid2.nodes), 0.5 * np.sin(3 * theta),
                       atol=1e-13)


def test_gradient_is_tangent(grid3):
    rng = np.random.default_rng(5)
    coeffs = {(2, 0, 0): rng.normal(), (1, 1, 0): rng.normal(),
              (0, 1, 1): rng.normal(), (1, 0, 0): rng.normal()}
    sf = PolynomialSF(3, coeffs)
    grad = sf.d2_ext0(grid3.nodes).grad
    radial = np.einsum("mi,mi->m", grad, grid3.nodes)
    assert np.max(np.abs(radial)) < 1e-12


def test_spherical_gradient_single_direction():
    sf = PolynomialSF.linear(3, [0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    gvec = sf.d2_ext0(u[None, :]).grad[0]
    # grad of u3 restricted to the sphere at e1 is e3
    assert np.allclose(gvec, [0.0, 0.0, 1.0], atol=1e-12)


def test_polynomial_derivatives_match_blackbox(grid2_small):
    """Analytic derivatives of a polynomial against central differences of
    its values alone, on the 1-homogeneous extension F(x) = |x| f(x/|x|)."""
    poly = PolynomialSF(2, {(0, 0): 1.0, (2, 0): 0.25, (1, 1): -0.3})

    def F(X):
        r = np.linalg.norm(X, axis=1)
        return r * poly.values(X / r[:, None])

    def fd(u, v, order):
        # derivative of t -> F(u + t v) at t = 0
        return central_derivative(lambda t: F(u + t[:, None] * v), 0.0,
                                  order=order, step=1e-3)

    e = np.eye(2)
    nodes = grid2_small.nodes[::7]
    ga = grad1(poly, nodes)
    ha = hess1(poly, nodes)
    for u, g, H in zip(nodes, ga, ha):
        assert np.max(np.abs(g - [fd(u, e[i], 1) for i in range(2)])) < 1e-9
        h11, h22 = fd(u, e[0], 2), fd(u, e[1], 2)
        h12 = 0.5 * (fd(u, e[0] + e[1], 2) - h11 - h22)
        assert np.max(np.abs(H - [[h11, h12], [h12, h22]])) < 1e-5


def test_hess1_symmetry_and_ball_curvature(grid2, grid3):
    for g, R in ((grid2, 0.75), (grid3, 1.25)):
        h = PolynomialSF.constant(g.n, R)
        H = hess1(h, g.nodes)
        assert np.max(np.abs(H - np.swapaxes(H, 1, 2))) < 1e-12
        curv = curvature_matrix(h, g)
        eye = np.broadcast_to(np.eye(g.n - 1), curv.Q.shape)
        assert np.max(np.abs(curv.Q - R * eye)) < 1e-12
        assert curv.det == pytest.approx(R ** (g.n - 1), rel=1e-12)
        assert np.allclose(curv.min_eig, R, atol=1e-12)


def _identity_cases(n):
    base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                   (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
    x1 = PolynomialSF.linear(n, [1.0] + [0.0] * (n - 1))
    cases = [(name, psi) for name, _, psi in direction_suite(n)]
    cases.append(("product_powers", sf_product_powers(
        [(base, 0.5), (x1 * x1 + 1.0, 1.5), (sf_exp(0.2 * x1), 1.0),
         (PolynomialSF.constant(n, 1.3), 1.0)])))
    cases += [(f"exp_ratio_{name}", sf_exp(sf_ratio(psi, base)))
              for name, _, psi in direction_suite(n)]
    return cases


def test_curvature_matrix_matches_the_ambient_hessian(grid2, grid3, grid4):
    # Q from the 0-homogeneous bundle against E hess1 E^T, node by node
    eps = np.finfo(float).eps
    for g in (grid2, grid3, grid4):
        E = g.frames
        for name, sf in _identity_cases(g.n):
            cf = curvature_matrix(sf, g)
            want = np.einsum("map,mpq,mbq->mab", E, hess1(sf, g.nodes), E)
            d = sf.d2_ext0(g.nodes)
            scale = np.maximum(np.abs(d.val),
                               np.max(np.abs(d.hess), axis=(1, 2)))
            err = np.max(np.abs(cf.Q - want), axis=(1, 2))
            assert np.all(err <= 16.0 * eps * scale), (g.n, name)
            assert np.array_equal(cf.val, d.val), (g.n, name)
            assert np.array_equal(cf.grad, d.grad), (g.n, name)


def test_composite_values_are_the_bundle_values(grid2, grid3, grid4):
    # one evaluation path: a composite's values are its bundle's values
    for g in (grid2, grid3, grid4):
        n = g.n
        base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                       (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
        for name, _, psi in direction_suite(n):
            quot = sf_exp(sf_ratio(psi, base))
            cases = {
                "product_powers": sf_product_powers([(base, 0.4),
                                                     (quot, 0.6)]),
                "exp_ratio": quot,
                "mul_log": sf_mul(psi, sf_log(quot)),
                "sum": sf_sum([(0.5, quot), (-1.5, psi)]),
            }
            for label, sf in cases.items():
                assert np.array_equal(sf.values(g.nodes),
                                      sf.d2_ext0(g.nodes).val), \
                    (n, name, label)


def _min_eig_stacks(N, rng):
    # symmetric stacks that stress a closed-form smallest eigenvalue
    A = rng.standard_normal((400, N, N))
    scale = 10.0 ** rng.uniform(-8.0, 8.0, 400)[:, None, None]
    v = (rng.standard_normal((200, N, 1))
         * 10.0 ** rng.uniform(-8.0, 8.0, (200, 1, 1)))
    B = rng.standard_normal((200, N, N))
    c = np.concatenate([[0.0, 1.0, -1.0, 1e-8, 1e8],
                        rng.uniform(-3.0, 3.0, 20)])
    last_bit = 0.5 * (A + A.transpose(0, 2, 1))
    if N > 1:
        last_bit[:, 0, 1] = np.nextafter(last_bit[:, 1, 0], np.inf)
    return {
        "random": 0.5 * scale * (A + A.transpose(0, 2, 1)),
        "multiple_of_identity": c[:, None, None] * np.eye(N),
        "rank_one": v * v.transpose(0, 2, 1),
        "negative_definite": -(B @ B.transpose(0, 2, 1) + 1e-3 * np.eye(N)),
        "last_bit_off_diagonal": last_bit,
    }


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_horner_is_bitwise_numpy_polyval(degree):
    # the family kernel's evaluation shapes: parameters t (S, 1) against a
    # stack of node polynomials (k, m), including the constant k = 1
    rng = np.random.default_rng(20261019 + degree)
    t = rng.uniform(-1.5, 1.5, (32, 1))
    c = rng.standard_normal((degree + 1, 257))
    before = c.copy()
    got = horner(c, t)
    assert got.shape == (32, 257)
    assert np.array_equal(got, polyval(t, c, False))
    assert np.array_equal(c, before)        # the coefficients stay as given


@pytest.mark.parametrize("N", [1, 2, 3])
def test_batch_min_eig_matches_eigvalsh(N):
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    for name, Q in _min_eig_stacks(N, rng).items():
        got = batch_min_eig(Q)
        want = np.linalg.eigvalsh(Q)[..., 0]
        assert got.shape == want.shape
        if N != 2:
            assert np.array_equal(got, want), name
        else:
            bound = 4.0 * eps * np.max(np.abs(Q), axis=(-2, -1))
            assert np.all(np.abs(got - want) <= bound), name
    # a (2, m, N, N) stack, as in the validity-radius search
    Q = _min_eig_stacks(N, rng)["random"].reshape(2, 200, N, N)
    assert batch_min_eig(Q).shape == (2, 200)
    if N == 2:
        # eigvalsh reads the lower triangle: an upper triangle that disagrees
        # must not change the result
        Q = _min_eig_stacks(N, rng)["random"]
        garbled = Q.copy()
        garbled[:, 0, 1] += 1.0 + np.abs(Q[:, 0, 1])
        assert np.array_equal(batch_min_eig(garbled), batch_min_eig(Q))
        want = np.linalg.eigvalsh(garbled)[:, 0]
        bound = 4.0 * eps * np.max(np.abs(Q), axis=(-2, -1))
        assert np.all(np.abs(batch_min_eig(garbled) - want) <= bound)


def test_curvature_perturbed_disk(grid2):
    # h = 1 + eps cos 2theta  ->  Q (1x1) = h + h'' = 1 - 3 eps cos 2theta
    eps = 0.05
    h = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                (eps, PolynomialSF.cos_harmonic(2))])
    curv = curvature_matrix(h, grid2)
    theta = np.arctan2(grid2.nodes[:, 1], grid2.nodes[:, 0])
    expected = 1.0 - 3.0 * eps * np.cos(2 * theta)
    assert np.max(np.abs(curv.Q[:, 0, 0] - expected)) < 1e-12


def laplace_beltrami_values(psi, grid):
    # trace of the 0-homogeneous extension's ambient Hessian at the nodes
    return np.einsum("mii->m", psi.d2_ext0(grid.nodes).hess)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_laplacian_circle_eigenfunctions(grid2, k):
    psi = PolynomialSF.cos_harmonic(k)
    vals = laplace_beltrami_values(psi, grid2)
    assert np.allclose(vals, -k * k * psi.values(grid2.nodes), atol=1e-10)


def test_laplacian_sphere_quadratic(grid3):
    # u1*u2 is a degree-2 spherical harmonic on S^2: eigenvalue -6
    psi = PolynomialSF(3, {(1, 1, 0): 1.0})
    vals = laplace_beltrami_values(psi, grid3)
    assert np.allclose(vals, -6.0 * psi.values(grid3.nodes), atol=1e-10)


def test_split_mean(grid2):
    psi = sf_sum([(1.0, PolynomialSF.constant(2, 0.7)),
                  (0.4, PolynomialSF.cos_harmonic(2))])
    mean, osc = split_mean(psi, grid2)
    assert mean == pytest.approx(0.7, rel=1e-13)
    assert abs(integrate(osc, grid2)) < 1e-12
    assert np.allclose(osc.values(grid2.nodes),
                       psi.values(grid2.nodes) - 0.7, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_poincare_first_and_second_harmonics(n):
    g = build_grid(n, 64 if n == 2 else 16)
    first = sf_from_spec({"type": "first_harmonic"}, n)
    second = sf_from_spec({"type": "second_harmonic"}, n)
    assert poincare_ratio(first, g) == pytest.approx(n - 1, abs=1e-10)
    assert poincare_ratio(second, g) == pytest.approx(2 * n, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_poincare_even_zero_mean_bound(n):
    g = build_grid(n, 64 if n == 2 else 16)
    for seed in range(10):
        psi = sf_from_spec({"type": "random_even", "seed": 100 + seed,
                            "amplitude": 1.0}, n)
        _, osc = split_mean(psi, g)
        if integrate(sf_mul(osc, osc), g) < 1e-18:
            continue
        ratio = poincare_ratio(osc, g)
        assert ratio >= 2 * n - 1e-8, f"seed {seed}: ratio {ratio}"


def test_poincare_requires_zero_mean(grid2):
    with pytest.raises(ValueError):
        poincare_ratio(PolynomialSF.constant(2, 1.0), grid2)


def test_parity_detection():
    assert PolynomialSF.cos_harmonic(2).parity() == "even"
    assert PolynomialSF.cos_harmonic(3).parity() == "odd"
    assert PolynomialSF.linear(3, [1.0, 0.0, 0.0]).parity() == "odd"
    assert PolynomialSF.constant(4, 2.0).parity() == "even"
    mixed = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                    (0.5, PolynomialSF.cos_harmonic(1))])
    assert mixed.parity() == "neither"


def test_sf_algebra_round_trips(grid2_small):
    nodes = grid2_small.nodes
    h = sf_sum([(1.0, PolynomialSF.constant(2, 2.0)),
                (0.3, PolynomialSF.cos_harmonic(2))])
    # exp(log h) == h, including first and second derivative data
    back = sf_exp(sf_log(h))
    assert np.max(np.abs(back.values(nodes) - h.values(nodes))) < 1e-12
    assert np.max(np.abs(grad1(back, nodes) - grad1(h, nodes))) < 1e-10
    assert np.max(np.abs(hess1(back, nodes) - hess1(h, nodes))) < 1e-9
    # ratio then multiply recovers the numerator
    q = sf_ratio(h, PolynomialSF.constant(2, 2.0))
    twice = sf_mul(q, PolynomialSF.constant(2, 2.0))
    assert np.max(np.abs(twice.values(nodes) - h.values(nodes))) < 1e-12
    # shift
    sh = sf_sum([(1.0, h), (-1.0, PolynomialSF.constant(2, 1.0))])
    assert np.max(np.abs(sh.values(nodes) - (h.values(nodes) - 1.0))) < 1e-13


def test_sf_mul_matches_product_values(grid3):
    a = PolynomialSF(3, {(1, 0, 0): 1.0, (0, 0, 0): 1.5})
    b = PolynomialSF(3, {(0, 2, 0): 1.0, (0, 0, 0): 0.5})
    prod = sf_mul(a, b)
    nodes = grid3.nodes
    assert np.max(np.abs(prod.values(nodes)
                         - a.values(nodes) * b.values(nodes))) < 1e-13
    # product rule on the spherical gradient
    ga = a.d2_ext0(nodes).grad
    gb = b.d2_ext0(nodes).grad
    gp = prod.d2_ext0(nodes).grad
    want = ga * b.values(nodes)[:, None] + gb * a.values(nodes)[:, None]
    assert np.max(np.abs(gp - want)) < 1e-11


def test_third_derivatives_symmetric(grid3):
    h = PolynomialSF(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.2, (1, 1, 0): -0.1})
    T = h.third1(grid3.nodes[::5])
    assert np.max(np.abs(T - np.transpose(T, (0, 2, 1, 3)))) < 1e-12
    assert np.max(np.abs(T - np.transpose(T, (0, 1, 3, 2)))) < 1e-12
    assert np.max(np.abs(T - np.transpose(T, (0, 3, 2, 1)))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_power_table_is_bitwise_the_per_term_powers(n):
    # one d2_ext0 or third1 call forms each power of a coordinate and of |x|
    # once; every entry equals the derivative evaluated on its own, whose
    # powers are formed term by term
    rng = np.random.default_rng(3)
    U = rng.standard_normal((500, n))
    for _, _, f in direction_suite(n):
        d, derivs = f.d2_ext0(U), f._derivs(0, 2)
        T, derivs3 = f.third1(U), f._derivs(1, 3)
        assert np.array_equal(d.val, derivs[()].eval(U))
        for i in range(n):
            assert np.array_equal(d.grad[:, i], derivs[(i,)].eval(U))
            for j in range(i, n):
                assert np.array_equal(d.hess[:, i, j], derivs[(i, j)].eval(U))
                for k in range(j, n):
                    assert np.array_equal(T[:, i, j, k],
                                          derivs3[(i, j, k)].eval(U))


def test_grid_nodes_are_read_only(grid3):
    assert not grid3.nodes.flags.writeable
    with pytest.raises(ValueError):
        grid3.nodes[0, 0] = 0.0


def test_kept_bundle_skips_the_term_loop_at_grid_nodes(monkeypatch, grid3):
    # inside _scope(_KEPT) a polynomial evaluates its bundle at a grid's
    # nodes once; a writeable copy of them is evaluated every time and
    # displaces nothing; a bundle kept at another grid, or the block's end,
    # drops every bundle kept at the first
    terms = []
    real = sphere._RadialPoly.eval

    def counting(self, pts, powers=None):
        terms.append(1)
        return real(self, pts, powers)

    monkeypatch.setattr(sphere._RadialPoly, "eval", counting)
    psi = sf_from_spec({"type": "second_harmonic"}, 3)
    copy = grid3.nodes.copy()
    per_call = 1 + 3 + 6           # value, gradient, Hessian upper triangle
    with sphere._scope(sphere._KEPT):
        d = psi.d2_ext0(grid3.nodes)
        assert len(terms) == per_call
        assert psi.d2_ext0(grid3.nodes) is d
        assert len(terms) == per_call
        fresh = [psi.d2_ext0(copy) for _ in range(2)]
        assert len(terms) == 3 * per_call
        assert psi.d2_ext0(grid3.nodes) is d
        assert len(terms) == 3 * per_call
        x1 = sf_from_spec({"type": "first_harmonic"}, 3)
        x1.d2_ext0(grid3.nodes)
        other = build_grid(3, 8).nodes
        assert psi.d2_ext0(other) is psi.d2_ext0(other)
        assert x1.d2_ext0(other).val.shape == (len(other),)
        assert len(terms) == 6 * per_call
        assert psi.d2_ext0(grid3.nodes) is not d
        assert len(terms) == 7 * per_call
    for a in (d.val, d.grad, d.hess):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] += 1.0
    for e in fresh:
        assert e.val.flags.writeable and e is not d
        for a, b in ((d.val, e.val), (d.grad, e.grad), (d.hess, e.hess)):
            assert a.tobytes() == b.tobytes()
    assert psi.d2_ext0(grid3.nodes) is not d
    assert len(terms) == 8 * per_call
