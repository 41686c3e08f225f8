"""Bodies from support functions, set combinations, quermassintegrals, and
perturbation families."""

import copy
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import bmstab.bodies as bodies_module
import bmstab.measures as measures_module
from bmstab.bodies import (_S_CHUNK, VALIDITY_EIG_FLOOR, FamilyError,
                           NonPositiveSupport, NotConvex, PerturbationFamily,
                           ball_body, ball_intrinsic_volume,
                           body_from_support, log_combine, make_family,
                           measure_of_body, minkowski_combine,
                           quermassintegrals)
from bmstab.funcspecs import direction_suite, sf_from_spec
from bmstab.measures import make_measure
from bmstab.oracles import central_derivative
from bmstab.sphere import (PolynomialSF, SphericalFunction, build_grid,
                           curvature_matrix, horner, integrate, poly_mul,
                           sf_sum)
from bmstab.variation import variation_at_ball


def perturbed_disk(eps, k=2):
    return sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                   (eps, PolynomialSF.cos_harmonic(k))])


@pytest.mark.parametrize("n,R", [(2, 0.7), (2, 1.0), (3, 1.3), (4, 0.9)])
def test_ball_body_basics(n, R, lebesgue):
    g_res = {2: 160, 3: 16, 4: 10}[n]
    from bmstab.sphere import build_grid
    g = build_grid(n, g_res)
    K = ball_body(R, g)
    assert K.n == n
    assert np.min(K.curvature.min_eig) == pytest.approx(R, rel=1e-12)
    assert np.allclose(K.D, R, atol=1e-12)
    vol = measure_of_body(lebesgue, K)
    kappa = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    assert vol == pytest.approx(kappa * R ** n, rel=1e-11)


def test_gaussian_ball_closed_form(grid2, gaussian):
    for R in (0.5, 1.0, 2.0):
        K = ball_body(R, grid2)
        got = measure_of_body(gaussian, K)
        assert got == pytest.approx(2 * math.pi * (1 - math.exp(-R * R / 2)),
                                    rel=1e-10)


def test_perturbed_disk_area(grid2, lebesgue):
    # area of h = 1 + eps cos(k theta):  pi (1 - (k^2-1)/2 * eps^2 * ... )
    # exact: (1/2) int (h^2 - h'^2) = pi (1 + eps^2/2 - k^2 eps^2 / 2)
    for eps, k in ((0.05, 2), (0.02, 3)):
        K = body_from_support(perturbed_disk(eps, k), grid2)
        area = measure_of_body(lebesgue, K)
        expected = math.pi * (1.0 + eps * eps / 2.0 - k * k * eps * eps / 2.0)
        assert area == pytest.approx(expected, rel=1e-12)


def test_nonconvex_support_rejected(grid2):
    # Q = 1 - 3 eps cos 2theta goes negative for eps > 1/3
    with pytest.raises(NotConvex) as err:
        body_from_support(perturbed_disk(0.4), grid2)
    assert err.value.min_eig < 0.0
    assert err.value.node.shape == (2,)


def test_nonpositive_support_rejected(grid2):
    h = sf_sum([(1.0, PolynomialSF.constant(2, 0.1)),
                (1.0, PolynomialSF.cos_harmonic(1))])  # 0.1 + cos(theta)
    with pytest.raises(NonPositiveSupport):
        body_from_support(h, grid2)


@pytest.mark.parametrize("n,R", [(2, 1.0), (2, 1.7), (3, 0.8), (3, 1.0)])
def test_quermassintegrals_of_ball(n, R):
    from bmstab.sphere import build_grid
    g = build_grid(n, {2: 160, 3: 16}[n])
    K = ball_body(R, g)
    V = quermassintegrals(K)
    assert len(V) == n + 1
    for j in range(n + 1):
        assert V[j] == pytest.approx(ball_intrinsic_volume(n, j) * R ** j,
                                     rel=1e-10, abs=1e-12)
    # sanity against the classical values
    if n == 2:
        assert V[0] == pytest.approx(1.0, rel=1e-12)
        assert V[1] == pytest.approx(math.pi * R, rel=1e-10)
        assert V[2] == pytest.approx(math.pi * R * R, rel=1e-10)
    if n == 3:
        assert V[1] == pytest.approx(4.0 * R, rel=1e-10)
        assert V[2] == pytest.approx(2.0 * math.pi * R * R, rel=1e-10)
        assert V[3] == pytest.approx(4.0 / 3.0 * math.pi * R ** 3, rel=1e-10)


def test_quermassintegrals_perturbed_disk(grid2):
    eps = 0.05
    K = body_from_support(perturbed_disk(eps), grid2)
    V = quermassintegrals(K)
    # mean width is unchanged by a pure second harmonic
    assert V[1] == pytest.approx(math.pi, rel=1e-12)
    assert V[2] == pytest.approx(math.pi * (1.0 - 1.5 * eps * eps), rel=1e-12)


def test_minkowski_combine_balls(grid2, lebesgue):
    K = ball_body(1.0, grid2)
    L = ball_body(2.0, grid2)
    for lam in (0.0, 0.25, 0.5, 1.0):
        M = minkowski_combine(K, L, lam)
        r = lam * 1.0 + (1 - lam) * 2.0
        assert np.allclose(M.hvals, r, atol=1e-12)
        assert measure_of_body(lebesgue, M) == pytest.approx(
            math.pi * r * r, rel=1e-12)


def test_minkowski_area_is_quadratic_in_lambda(grid2, lebesgue):
    K = body_from_support(perturbed_disk(0.08), grid2)
    L = ball_body(1.5, grid2)
    lams = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    areas = np.array([measure_of_body(lebesgue, minkowski_combine(K, L, l))
                      for l in lams])
    # fit on three points, predict the other two
    coef = np.polyfit(lams[[0, 2, 4]], areas[[0, 2, 4]], 2)
    pred = np.polyval(coef, lams[[1, 3]])
    assert np.allclose(pred, areas[[1, 3]], rtol=1e-10)


def test_log_combine_geometric_mean(grid2):
    K = body_from_support(perturbed_disk(0.05), grid2)
    L = ball_body(1.5, grid2)
    M = log_combine(K, L, 0.3)
    want = K.hvals ** 0.3 * L.hvals ** 0.7
    assert np.max(np.abs(M.hvals - want)) < 1e-12


def test_combine_rejects_bad_lambda(grid2):
    K = ball_body(1.0, grid2)
    with pytest.raises(ValueError):
        minkowski_combine(K, K, 1.5)
    with pytest.raises(ValueError):
        log_combine(K, K, -0.1)


# ---------------------------------------------------------------------------
# perturbation families
# ---------------------------------------------------------------------------

def test_additive_family_validity_radius(grid2):
    base = PolynomialSF.constant(2, 1.0)
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family("additive", base, psi, grid2)
    # Q_s = 1 - 3 s cos 2theta: the eigenvalue floor 0.05 * base is hit at
    # s = 0.95/3, which the per-node closed form gives to rounding
    assert fam.a == pytest.approx(0.95 / 3.0, rel=1e-14)
    assert fam.kind == "additive"
    # the trace records the probes made: radii that rounding failed, each
    # above the next, then the radius itself
    assert fam.search_trace[-1] == (fam.a, True)
    assert len(fam.search_trace) <= 3
    assert all(not ok and s > fam.a for s, ok in fam.search_trace[:-1])


def test_family_support_at_matches_closed_form(grid2):
    base = perturbed_disk(0.05)
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family("additive", base, psi, grid2)
    s = 0.1 * fam.a
    hs = fam.support_at(s)
    want = base.values(grid2.nodes) + s * psi.values(grid2.nodes)
    assert np.max(np.abs(hs.values(grid2.nodes) - want)) < 1e-13


def _node_fields(fam, s_values):
    """h_s, grad h_s and Q(h_s) at the nodes, shapes (S, m), (S, m, n) and
    (S, m, n-1, n-1), from the family's coefficients: the per-node fields
    whose polynomials in s measures_along evaluates."""
    s = np.asarray(s_values, dtype=float).reshape(-1, 1, 1, 1)
    vals = fam._values(s)
    grads = fam.u0[:, 1:] + s[..., 0] * fam.u1[:, 1:]
    Q = fam.C0 + s * (fam.C1 + s * fam.C2)
    if fam.kind == "multiplicative":
        grads = vals[..., None] * grads
        Q = vals[..., None, None] * Q
    return vals, grads, Q


def test_multiplicative_family_fields(grid3):
    base = PolynomialSF(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.1})
    psi = PolynomialSF(3, {(0, 2, 0): 0.08})
    fam = make_family("multiplicative", base, psi, grid3)
    s_values = np.array([-0.5, 0.0, 0.8]) * fam.a
    vals, grads, Q = _node_fields(fam, s_values)
    for i, s in enumerate(s_values):
        direct = fam.body_at(float(s))
        assert np.max(np.abs(vals[i] - direct.hvals)) < 1e-11
        assert np.max(np.abs(grads[i] - direct.curvature.grad)) < 1e-10
        # Q(s) = h_s (C0 + s C1 + s^2 C2) against the body's own curvature
        assert np.max(np.abs(Q[i] - direct.curvature.Q)) < 1e-11
    # h_s = h e^{s psi / h} pointwise
    h, p = base.values(grid3.nodes), psi.values(grid3.nodes)
    want = h[None, :] * np.exp(s_values[:, None] * (p / h)[None, :])
    assert np.max(np.abs(vals - want)) < 1e-11


def _family_case(n, name):
    """The base and initial velocity of a family through a perturbed ball
    along a named direction."""
    base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                   (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
    spec = ({"type": "random_even", "seed": 20240817} if name == "random_even"
            else {"type": name})
    return base, sf_from_spec(spec, n)


def test_measures_along_matches_per_s(grid2, grid3, gaussian):
    for kind in ("additive", "multiplicative"):
        for grid in (grid2, grid3):
            base, direction = _family_case(grid.n, "second_harmonic")
            fam = make_family(kind, base, direction, grid)
            s_values = np.linspace(-0.6, 0.6, 7) * fam.a
            gam = fam.measures_along(gaussian, s_values)
            direct = np.array([measure_of_body(gaussian, fam.body_at(float(s)))
                               for s in s_values])
            rel = np.max(np.abs(gam - direct) / direct)
            assert rel < 1e-13, (kind, grid.n)


def _direct_measure(measure, body):
    # gamma(K) with adaptive_gk at every node: no Chebyshev profile
    A = measures_module._integrate_profile(measure, body.D, body.n, (0,))[0]
    return float(np.sum(body.grid.weights * body.hvals * body.curvature.det
                        * A))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_measures_along_matches_direct_quadrature_per_s(
        kind, n, grid2_small, grid3, grid4, lebesgue, gaussian, exp1):
    # the s-polynomial kernel and the Chebyshev profile against the body at
    # each s integrated node by node, over the direction suite and out to
    # 0.95 of the validity radius
    grid = {2: grid2_small, 3: grid3, 4: grid4}[n]
    base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                   (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
    for name, _, psi in direction_suite(n):
        fam = make_family(kind, base, psi, grid)
        s_values = np.linspace(-0.95, 0.95, 5) * fam.a
        bodies_at = [fam.body_at(float(s)) for s in s_values]
        for mu in (lebesgue, gaussian, exp1):
            gam = fam.measures_along(mu, s_values)
            direct = np.array([_direct_measure(mu, b) for b in bodies_at])
            rel = np.max(np.abs(gam - direct) / direct)
            assert rel < 1e-13, (name, mu.kind)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_measures_along_integrates_chebyshev_points_per_chunk(
        kind, gk_widths, grid3, gaussian):
    # each chunk of parameters sends _CHEB_POINTS scales to adaptive_gk,
    # not one per (parameter, node)
    base, direction = _family_case(3, "second_harmonic")
    fam = make_family(kind, base, direction, grid3)
    fam.measures_along(gaussian, np.linspace(-0.9, 0.9, 2 * _S_CHUNK) * fam.a)
    assert gk_widths == [measures_module._CHEB_POINTS] * 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivatives_along_match_variation_at_ball(n, grid2, grid3, grid4,
                                                   lebesgue, gaussian, exp3):
    # at s = 0 the family kernel reproduces the closed form at the ball:
    # g, g' and g'' along 1 + s psi, and g''_mult along exp(psi)^s
    grid = {2: grid2, 3: grid3, 4: grid4}[n]
    ball = PolynomialSF.constant(n, 1.0)
    for name, _, psi in direction_suite(n):
        fam_add = make_family("additive", ball, psi, grid)
        fam_mul = make_family("multiplicative", ball, psi, grid)
        for mu in (lebesgue, gaussian, exp3):
            var = variation_at_ball(mu, 1.0, psi, grid)
            got = [d[0] for d in fam_add.derivatives_along(mu, [0.0])]
            got.append(fam_mul.derivatives_along(mu, [0.0])[2][0])
            want = [var.g0, var.g1, var.g2, var.g2_mult]
            err = np.max(np.abs(np.subtract(got, want)))
            assert err <= 1e-13 * max(1.0, abs(var.g0)), (name, mu.kind)


@pytest.mark.parametrize("n,resolution", [(5, 6), (6, 4)])
def test_derivatives_along_match_variation_at_ball_n5_n6(n, resolution,
                                                         gaussian):
    # 4 x 4 and 5 x 5 curvature matrices (2,592 and 2,048 nodes): the base
    # body, the family's radius search and its kernel at s = 0 against the
    # closed form at the ball
    grid = build_grid(n, resolution)
    ball = PolynomialSF.constant(n, 1.0)
    for spec in ({"type": "second_harmonic"},
                 {"type": "random_even", "seed": 20240817}):
        psi = sf_from_spec(spec, n)
        fam = make_family("additive", ball, psi, grid)
        assert 0.0 < fam.a < 8.0
        var = variation_at_ball(gaussian, 1.0, psi, grid)
        got = [d[0] for d in fam.derivatives_along(gaussian, [0.0])]
        err = np.max(np.abs(np.subtract(got, [var.g0, var.g1, var.g2])))
        assert err <= 1e-13 * max(1.0, abs(var.g0)), spec["type"]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_derivatives_along_match_central_differences(
        kind, n, grid2, grid3, grid4, lebesgue, gaussian, exp3):
    # at s = +-0.6 a on a perturbed ball, against Richardson central
    # differences of measures_along
    grid = {2: grid2, 3: grid3, 4: grid4}[n]
    base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                   (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
    for name, _, psi in direction_suite(n):
        fam = make_family(kind, base, psi, grid)
        for mu in (lebesgue, gaussian, exp3):
            for s0 in (-0.6 * fam.a, 0.6 * fam.a):
                g, g1, g2 = (d[0] for d in fam.derivatives_along(mu, [s0]))
                fd1, fd2 = (central_derivative(
                    lambda s: fam.measures_along(mu, s), s0, order=order,
                    step=step * min(1.0, fam.a))
                    for order, step in ((1, 1e-3), (2, 1e-2)))
                scale = max(1.0, abs(g))
                assert abs(g1 - fd1) <= 1e-7 * scale, (name, mu.kind, s0)
                assert abs(g2 - fd2) <= 1e-6 * scale, (name, mu.kind, s0)


@pytest.mark.parametrize("n", [2, 3])
def test_derivatives_along_batch_matches_per_s(n, grid2, grid3, lebesgue,
                                               gaussian):
    # 101 parameters in four chunks evaluate the polynomials of every degree
    # at t = s - s_c != 0; one call per parameter evaluates them at t = 0
    grid = {2: grid2, 3: grid3}[n]
    ball = PolynomialSF.constant(n, 1.0)
    for name, _, psi in direction_suite(n):
        fam = make_family("additive", ball, psi, grid)
        s_values = np.linspace(-0.9, 0.9, 101) * fam.a
        for mu in (lebesgue, gaussian):
            batch = np.array(fam.derivatives_along(mu, s_values))
            per_s = np.array([[d[0] for d in fam.derivatives_along(mu, [s])]
                              for s in s_values]).T
            scale = np.maximum(1.0, np.abs(batch[0]))
            gap = np.max(np.abs(batch - per_s) / scale)
            assert gap <= 1e-8, (name, mu.kind, gap)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_derivatives_along_value_matches_measures_along(kind, grid3,
                                                        gaussian):
    # g over 101 parameters, four chunks, is measures_along's value up to
    # rounding: its moments A come from a batch that also holds B and C
    base, direction = _family_case(3, "second_harmonic")
    fam = make_family(kind, base, direction, grid3)
    s_values = np.linspace(-0.9, 0.9, 101) * fam.a
    g = fam.derivatives_along(gaussian, s_values)[0]
    gam = fam.measures_along(gaussian, s_values)
    assert np.max(np.abs(g - gam) / gam) < 1e-14


_NODE_STACKS = ("v0", "v1", "u0", "u1", "C0", "C1", "C2")


def _node_uniform(fam):
    # a node-uniform family keeps node 0's row of each node stack
    return all(len(getattr(fam, k)) == 1 for k in _NODE_STACKS
               if np.ndim(getattr(fam, k)))


def _every_node(fam):
    """A copy of fam whose node stacks hold every grid node: the row that
    a node-uniform family keeps is repeated at each node."""
    every = copy.copy(fam)
    if _node_uniform(fam):
        for k in _NODE_STACKS:
            x = getattr(fam, k)
            if np.ndim(x):
                setattr(every, k, np.repeat(x, fam.grid.count, axis=0))
    return every


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_node_uniform_family_is_bitwise_the_all_node_path(
        kind, n, lebesgue, gaussian, exp3):
    # a ball dilation carries the same data at every node, so the family
    # keeps node 0's only; repeating it at every node must change no bit,
    # for chunks of up to _CHEB_POINTS scales and more, across the _S_CHUNK
    # edges, and through the direct fallback (exp3 past the tail test)
    grid = build_grid(n, {2: 32, 3: 8, 4: 4}[n])
    fam = make_family(kind, PolynomialSF.constant(n, 1.0),
                      PolynomialSF.constant(n, 0.7), grid)
    assert _node_uniform(fam)
    every = _every_node(fam)
    for S in (1, 2, 14, 15, 32, 33, 256):
        s_values = np.linspace(-0.9, 0.8, S) * fam.a
        for mu in (lebesgue, gaussian, exp3):
            assert np.array_equal(fam.measures_along(mu, s_values),
                                  every.measures_along(mu, s_values)), (
                S, mu.kind)
            assert np.array_equal(fam.derivatives_along(mu, s_values),
                                  every.derivatives_along(mu, s_values)), (
                S, mu.kind)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_perturbed_base_takes_the_all_node_path(kind, grid3):
    # a constant psi on a base that is not a ball: the nodes differ
    base, _ = _family_case(3, "second_harmonic")
    fam = make_family(kind, base, PolynomialSF.constant(3, 0.7), grid3)
    assert not _node_uniform(fam)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_norm_coefficients_are_bitwise_the_poly_mul_sum(kind, grid2, grid3,
                                                        grid4):
    # the D(s)^2 / w^2 coefficients of every chunk against the axis sum of
    # the (3, m, n + 1) products they replace, at every node
    for grid in (grid2, grid3, grid4):
        for name in ("first_harmonic", "random_even"):
            fam = _every_node(make_family(kind, *_family_case(grid.n, name),
                                          grid))
            s_values = np.linspace(-0.9, 0.7, 2 * _S_CHUNK + 5) * fam.a
            for _, sl, _, _, q in fam._expansions(s_values):
                uc = fam.u0 + 0.5 * (sl.min() + sl.max()) * fam.u1
                want = poly_mul([uc, fam.u1],
                                np.stack([uc, fam.u1])).sum(axis=2)
                assert q.tobytes() == want.tobytes(), (grid.n, name)


def test_norm_coefficients_keep_the_poly_mul_signed_zeros():
    # rows whose every cross product is -0.0, which poly_mul's 0 + x + x
    # sums to +0.0
    uc, u1 = np.random.default_rng(5).standard_normal((2, 64, 4))
    uc[::2] = 0.0
    u1 = -np.abs(u1)
    q = bodies_module._norm_sq_coefficients(uc, u1)
    want = poly_mul([uc, u1], np.stack([uc, u1])).sum(axis=2)
    assert q.tobytes() == want.tobytes()
    assert not np.any(q[1, ::2]) and not np.any(np.signbit(q[1, ::2]))


def _one_pass_measures(fam, measure, s_values):
    """measures_along in one pass over each whole chunk at every node:
    (h * horner(p, t) * A * w).sum(axis=1), with A from numpy's chebval
    where radial_profile's route interpolates."""
    every = _every_node(fam)
    w, n = fam.grid.weights, fam.grid.n
    out = []
    for _, sl, t, p, q in every._expansions(np.asarray(s_values, float)):
        h = every._values(sl)
        D = np.sqrt(horner(q, t))
        if fam.kind == "additive":
            f = h * horner(p, t)
        else:
            f = h ** n * horner(p, t)
            D = h * D
        fit, A = measures_module._profile_fit(measure, D.ravel(), n, (0,))
        if fit is not None:
            mid, half, coef = fit
            A = chebyshev.chebval((D.ravel() - mid) / half, coef)
        out.append((f * A.reshape(D.shape) * w).sum(axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_tiled_kernel_is_bitwise_the_one_pass_formula(
        monkeypatch, kind, uniform, gaussian, exp3):
    # per node, 1,152 nodes make tiles of 14 parameters, so a chunk of 32
    # ends in a partial tile (a node-uniform family evaluates one node, so
    # its chunk is one tile); exp3 fails the tail test at some chunks (direct
    # route) and s = 0 on the ball gives one repeated scale (hi == lo)
    routes, real = set(), measures_module._profile_fit

    def recording(measure, D, n, powers):
        fit, A = real(measure, D, n, powers)
        routes.add("interpolated" if fit else "one scale" if D.min() == D.max()
                   else "direct")
        return fit, A

    monkeypatch.setattr(measures_module, "_profile_fit", recording)
    grid = build_grid(3, 8 if uniform else 24)
    assert uniform or measures_module._CHEB_BLOCK % grid.count
    ball = PolynomialSF.constant(3, 1.0)
    base, psi = ((ball, PolynomialSF.constant(3, 0.7)) if uniform
                 else _family_case(3, "random_even"))
    fam = make_family(kind, base, psi, grid)
    assert _node_uniform(fam) == uniform
    for S in (1, 14, 33, 256):
        s_values = np.linspace(-0.9, 0.8, S) * fam.a
        for mu in (gaussian, exp3):
            assert np.array_equal(fam.measures_along(mu, s_values),
                                  _one_pass_measures(fam, mu, s_values)), (
                S, mu.kind)
    at_ball = make_family(kind, ball, psi, grid)
    for mu in (gaussian, exp3):
        assert np.array_equal(at_ball.measures_along(mu, [0.0]),
                              _one_pass_measures(at_ball, mu, [0.0]))
    assert routes == {"interpolated", "one scale", "direct"}
    empty = fam.measures_along(gaussian, [])
    assert empty.shape == (0,) and empty.dtype == float


def dense_sweep_peak_mib():
    """Traced peak (MiB) of one measures_along call of the benchmark's dense
    sweep: the unit ball along second_harmonic at n = 3, resolution 64,
    under the Gaussian, at 256 parameters."""
    fam = make_family("additive", PolynomialSF.constant(3, 1.0),
                      sf_from_spec({"type": "second_harmonic"}, 3),
                      build_grid(3, 64))
    s_values = np.linspace(-0.9, 0.9, 256) * fam.a
    gaussian = make_measure("gaussian")
    tracemalloc.start()
    try:
        fam.measures_along(gaussian, s_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def test_measures_along_traced_peak_is_bounded():
    # one (S, m) buffer per call and tile buffers of _CHEB_BLOCK scales: the
    # call peaks at about 5.1 MiB (13.3 when each chunk formed its (S, m)
    # products afresh)
    assert dense_sweep_peak_mib() < 6.0


@pytest.mark.parametrize("method", ["measures_along", "derivatives_along"])
def test_family_parameters_must_be_one_dimensional(method, grid2, lebesgue):
    fam = make_family("additive", PolynomialSF.constant(2, 1.0),
                      PolynomialSF.cos_harmonic(2), grid2)
    along = getattr(fam, method)
    with pytest.raises(ValueError, match=r"1-D, got shape \(\)"):
        along(lebesgue, 0.1)
    with pytest.raises(ValueError, match=r"1-D, got shape \(2, 2\)"):
        along(lebesgue, np.full((2, 2), 0.1))
    got = np.array(along(lebesgue, [0.1, -0.1]))
    assert got.shape[-1] == 2
    assert np.array_equal(got, along(lebesgue, np.array([0.1, -0.1])))
    empty = np.array(along(lebesgue, []))
    assert empty.size == 0 and empty.shape[-1] == 0


@pytest.mark.parametrize("name", ["second_harmonic", "random_even"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_family_validity_holds_on_dense_s_grid(kind, n, name, grid2, grid3):
    # the radius is checked at s = +-a only; at every node and every one of
    # 401 parameters in [-a, a] the support stays positive and the exact
    # curvature eigenvalue stays above the floor
    grid = {2: grid2, 3: grid3}[n]
    base, direction = _family_case(n, name)
    fam = make_family(kind, base, direction, grid)
    base_min_eig = np.min(body_from_support(base, grid).curvature.min_eig)
    floor = VALIDITY_EIG_FLOOR * base_min_eig
    vals, _, Q = _node_fields(fam, np.linspace(-fam.a, fam.a, 401))
    assert np.all(vals > 0.0)
    min_eig = np.linalg.eigvalsh(Q)[..., 0]
    assert np.min(min_eig) >= floor * (1.0 - 1e-12)


def _reference_predicate(fam):
    # make_family's two-endpoint predicate with eigvalsh for every smallest
    # eigenvalue
    base_Q = curvature_matrix(fam.base, fam.grid).Q
    floor = VALIDITY_EIG_FLOOR * np.min(np.linalg.eigvalsh(base_Q)[:, 0])

    def valid(b):
        s = np.array([-b, b]).reshape(2, 1, 1, 1)
        vals = fam._values(s)
        lam = np.linalg.eigvalsh(fam.C0 + s * fam.C1)[..., 0]
        w = vals if fam.kind == "multiplicative" else 1.0
        return bool(np.all(vals > 0.0) and np.all(w * lam >= floor))

    return valid


def _reference_radius(fam, max_radius=8.0):
    # 40 bisection steps against the eigvalsh predicate
    valid = _reference_predicate(fam)
    if valid(max_radius):
        return max_radius
    lo, hi = 0.0, max_radius
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if valid(mid) else (lo, mid)
    return lo


def _assert_radius_matches_bisection(fam, label):
    # the radius lies in the bisection's bracket of width 8 / 2^40, holds
    # make_family's predicate, and is maximal: the eigvalsh predicate, which
    # rounds differently at the exact root, holds just below it and fails
    # just above it
    ref = _reference_radius(fam)
    assert ref <= fam.a <= ref + 8.0 * 2.0 ** -40, label
    assert fam._valid_on(fam.a), label
    assert fam.search_trace[-1] == (fam.a, True), label
    valid = _reference_predicate(fam)
    assert valid(fam.a * (1.0 - 1e-12)), label
    if fam.a < 8.0:
        assert not valid(fam.a * (1.0 + 1e-12)), label


@pytest.mark.parametrize("amplitude", [1.0, 0.3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_family_radius_equals_eigvalsh_bisection(kind, n, amplitude, grid2,
                                                 grid3):
    # the per-node closed form (additive) and Newton roots (multiplicative)
    # give the bisection's radius to within its resolution, on the unit ball
    # and on a perturbed ball
    grid = {2: grid2, 3: grid3}[n]
    one = PolynomialSF.constant(n, 1.0)
    bases = {"ball": one,
             "perturbed": sf_sum([(1.0, one), (0.05, sf_from_spec(
                 {"type": "second_harmonic"}, n))])}
    for base_name, base in bases.items():
        for name, _, psi in direction_suite(n, amplitude=amplitude):
            fam = make_family(kind, base, psi, grid)
            _assert_radius_matches_bisection(fam, (base_name, name))


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_family_radius_equals_eigvalsh_bisection_at_n4(kind):
    # 3x3 curvature matrices: the pencil eigenvalues and the Newton slopes
    # come from LAPACK
    grid = build_grid(4, 8)
    one = PolynomialSF.constant(4, 1.0)
    base = sf_sum([(1.0, one), (0.05, sf_from_spec(
        {"type": "second_harmonic"}, 4))])
    for b in (one, base):
        for name, _, psi in direction_suite(4):
            fam = make_family(kind, b, psi, grid)
            _assert_radius_matches_bisection(fam, name)


def test_multiplicative_radius_across_an_eigenvalue_crossing(grid3):
    # both functions are even in x2, so on the meridian x2 = 0 the frames
    # diagonalize C0 and C1 exactly; at the node where the predicate binds
    # the two eigenvalues of C0 + s C1 cross at s* in (0, a), where the
    # smallest eigenvalue has a kink
    base = PolynomialSF(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.2, (0, 2, 0): 0.1})
    psi = PolynomialSF(3, {(0, 2, 0): -0.5})
    fam = make_family("multiplicative", base, psi, grid3)
    _assert_radius_matches_bisection(fam, "crossing")
    w = fam._values(fam.a)[0]
    k = int(np.argmin(w * np.linalg.eigvalsh(fam.C0 + fam.a * fam.C1)[:, 0]))
    C0, C1 = fam.C0[k], fam.C1[k]
    assert C0[1, 0] == 0.0 and C1[1, 0] == 0.0
    gap0, gap1 = C0[0, 0] - C0[1, 1], C1[0, 0] - C1[1, 1]
    assert 0.1 * fam.a < -gap0 / gap1 < 0.9 * fam.a


def radius_search_costs(repeats=5):
    """Per direction_suite direction and family kind at n = 2, 3, 4 (the
    unit ball at resolutions 160, 16 and 8): the validity-radius probes of
    make_family, len(search_trace), and its best wall time in milliseconds
    over `repeats` calls."""
    out = {}
    for n, res in ((2, 160), (3, 16), (4, 8)):
        grid, one = build_grid(n, res), PolynomialSF.constant(n, 1.0)
        for name, _, psi in direction_suite(n):
            for kind in ("additive", "multiplicative"):
                best = math.inf
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    fam = make_family(kind, one, psi, grid)
                    best = min(best, time.perf_counter() - t0)
                out[n, name, kind] = len(fam.search_trace), 1e3 * best
    return out


def test_radius_search_probes_the_predicate_at_most_three_times():
    # the per-node radius leaves only rounding to the confirmation probes
    for key, (probes, _) in radius_search_costs(repeats=1).items():
        assert 1 <= probes <= 3, key


def test_additive_family_computes_base_curvature_once(monkeypatch, grid3):
    # validating the base body gives its curvature field; the family reuses
    # it, so only the direction's is computed on top
    real = bodies_module.curvature_matrix
    calls = []

    def counting(h, grid):
        calls.append(h)
        return real(h, grid)

    monkeypatch.setattr(bodies_module, "curvature_matrix", counting)
    base, psi = _family_case(3, "random_even")
    fam = make_family("additive", base, psi, grid3)
    assert len(calls) == 2
    assert calls[0] is base and calls[1] is psi
    assert np.array_equal(fam.C0, real(base, grid3).Q)
    assert np.array_equal(fam.v0, base.d2_ext0(grid3.nodes).val)


class _CountingSF(SphericalFunction):
    """A spherical function that counts its d2_ext0 calls."""

    def __init__(self, sf):
        self.sf, self.n, self.calls = sf, sf.n, 0

    def values(self, U):
        return self.sf.values(U)

    def d2_ext0(self, U):
        self.calls += 1
        return self.sf.d2_ext0(U)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_one_node_evaluation_per_support_function(kind, grid3, gaussian):
    # a body, a family's base and a family's direction each evaluate their
    # derivative bundle once on the grid; a multiplicative family evaluates
    # its base once more, in its ratio e^{psi / h}
    base, psi = _family_case(3, "random_even")
    h = _CountingSF(base)
    body_from_support(h, grid3)
    assert h.calls == 1
    h, d = _CountingSF(base), _CountingSF(psi)
    fam = make_family(kind, h, d, grid3)
    fam.measures_along(gaussian, np.array([-0.5, 0.5]) * fam.a)
    assert (h.calls, d.calls) == ({"additive": 1, "multiplicative": 2}[kind],
                                  1)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_family_coefficients_skip_direction_det_and_eigenvalues(
        kind, grid3, monkeypatch):
    # the coefficients read only Q, values and gradients of the direction;
    # the smallest eigenvalues are formed once, validating the base body
    import bmstab.sphere as sphere_module
    base, direction = _family_case(3, "random_even")
    calls = []
    for name in ("det_poly", "batch_min_eig"):
        def counting(Q, name=name, real=getattr(sphere_module, name)):
            calls.append(name)
            return real(Q)
        monkeypatch.setattr(sphere_module, name, counting)
    PerturbationFamily(kind=kind, base=base, direction=direction, grid=grid3)
    assert calls == ["batch_min_eig"]


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_directly_built_family_validates_its_base(kind, grid2):
    # without make_family the base is still a body, checked before the
    # direction is read
    direction = PolynomialSF.cos_harmonic(2)
    nonconvex = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                        (0.9, sf_from_spec({"type": "second_harmonic"}, 2))])
    with pytest.raises(NotConvex):
        PerturbationFamily(kind=kind, base=nonconvex, direction=direction,
                           grid=grid2)
    with pytest.raises(NonPositiveSupport):
        PerturbationFamily(kind=kind, base=PolynomialSF.constant(2, -1.0),
                           direction=direction, grid=grid2)
    with pytest.raises(TypeError, match="search_trace"):
        PerturbationFamily(kind=kind, base=PolynomialSF.constant(2, 1.0),
                           direction=direction, grid=grid2, search_trace=[])


def test_nonpositive_multiplicative_direction_raises(grid2):
    # e^{psi / h} = e^{-1000} underflows to 0 at every node
    base = PolynomialSF.constant(2, 1.0)
    direction = PolynomialSF.constant(2, -1000.0)
    with pytest.raises(FamilyError, match="underflows"):
        make_family("multiplicative", base, direction, grid2)
    with pytest.raises(FamilyError, match="underflows"):
        PerturbationFamily(kind="multiplicative", base=base,
                           direction=direction, grid=grid2)


def test_family_rejects_out_of_range(grid2):
    fam = make_family("additive", PolynomialSF.constant(2, 1.0),
                      PolynomialSF.cos_harmonic(2), grid2)
    with pytest.raises(FamilyError):
        fam.body_at(fam.a * 1.5)
    with pytest.raises(ValueError):
        make_family("affine", PolynomialSF.constant(2, 1.0),
                    PolynomialSF.cos_harmonic(2), grid2)


def test_family_max_radius_cap(grid2):
    # 1 + 0.1 s stays a ball of radius >= 0.2 for |s| <= 8, so the curvature
    # floor never binds and the cap does
    base = PolynomialSF.constant(2, 1.0)
    fam = make_family("additive", base, PolynomialSF.constant(2, 0.1), grid2)
    assert fam.a == 8.0
    assert fam.search_trace == [(8.0, True)]


def test_family_rejects_misspelled_kind(grid2, lebesgue):
    # a directly built family validates its kind instead of running the
    # multiplicative path: the additive ball family 1 + s measures pi (1+s)^2
    one = PolynomialSF.constant(2, 1.0)
    with pytest.raises(FamilyError, match="unknown family kind 'addtive'"):
        PerturbationFamily(kind="addtive", base=one, direction=one,
                           grid=grid2)
    fam = PerturbationFamily(kind="additive", base=one, direction=one,
                             grid=grid2)
    got = fam.measures_along(lebesgue, [0.0, 0.2])
    assert got == pytest.approx([math.pi, 1.44 * math.pi], rel=1e-12)
