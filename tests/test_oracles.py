"""Independent oracles: Richardson finite differences, circumscribed
polygons, and Monte Carlo measure estimates."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bmstab
import bmstab.oracles as oracles
from bmstab.bodies import ball_body, body_from_support
from bmstab.measures import make_measure
from bmstab.oracles import (_HULL_SCALE, _ROW_BLOCK, MC_BATCH, McEstimate,
                            PlanarPolygon, _bin_of, _bin_radii,
                            _candidate_max, _cell_hi, _coarse_directions,
                            _convex_hull_ccw, _net_cells, _net_max,
                            _polish_support_max, _steiner_ball, _unit_rows,
                            central_derivative, mc_measure, wulff_polygon)
from bmstab.sphere import (PolynomialSF, build_grid, sf_product_powers,
                           sf_sum)
from test_sphere import _tangent_frame


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_central_derivative_first_order():
    got = central_derivative(np.exp, 0.3, order=1, step=1e-3)
    assert got == pytest.approx(math.exp(0.3), rel=1e-11)
    got = central_derivative(np.sin, 1.1, order=1, step=1e-3)
    assert got == pytest.approx(math.cos(1.1), rel=1e-11)


def test_central_derivative_second_order():
    got = central_derivative(np.exp, -0.2, order=2, step=1e-3)
    assert got == pytest.approx(math.exp(-0.2), rel=1e-8)
    got = central_derivative(lambda x: x ** 4, 1.5, order=2, step=1e-3)
    assert got == pytest.approx(12 * 1.5 ** 2, rel=1e-9)


def test_central_derivative_polynomial_is_exact():
    # Richardson on a cubic: first derivative exact to rounding
    got = central_derivative(lambda x: x ** 3 - 2 * x, 0.7, order=1,
                             step=1e-2)
    assert got == pytest.approx(3 * 0.49 - 2.0, abs=1e-12)


def test_central_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        central_derivative(np.exp, 0.0, order=3, step=1e-3)


# ---------------------------------------------------------------------------
# circumscribed polygons
# ---------------------------------------------------------------------------

def regular_directions(m):
    th = 2 * math.pi * np.arange(m) / m
    return np.stack([np.cos(th), np.sin(th)], axis=1)


@pytest.mark.parametrize("m", [3, 4, 6, 12, 90])
def test_wulff_regular_polygon(m):
    U = regular_directions(m)
    poly = wulff_polygon(U, np.ones(m))
    assert isinstance(poly, PlanarPolygon)
    assert poly.area == pytest.approx(m * math.tan(math.pi / m), rel=1e-11)
    assert poly.perimeter == pytest.approx(2 * m * math.tan(math.pi / m),
                                           rel=1e-11)
    assert len(poly.vertices) == m


def test_wulff_square_from_axis_directions():
    U = np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]])
    poly = wulff_polygon(U, np.array([1.0, 2.0, 1.0, 2.0]))
    assert poly.area == pytest.approx(8.0, rel=1e-12)  # 2 x 4 rectangle
    assert poly.perimeter == pytest.approx(12.0, rel=1e-12)


def test_wulff_redundant_halfplanes_dropped():
    # a loose half-plane far from the body must not contribute a vertex
    U = regular_directions(4)
    h = np.array([1.0, 1.0, 1.0, 1.0])
    U5 = np.vstack([U, [math.sqrt(0.5), math.sqrt(0.5)]])
    h5 = np.append(h, 5.0)
    p4 = wulff_polygon(U, h)
    p5 = wulff_polygon(U5, h5)
    assert p5.area == pytest.approx(p4.area, rel=1e-12)
    assert len(p5.vertices) == 4


@pytest.mark.parametrize("angles", [
    [0.0, 0.1, 0.2, 0.3],               # area -0.00101 when accepted
    [0.0, 0.5, 1.0, 2.0, 2.5],          # area -1.697 when accepted
    [0.0, 0.5 * math.pi, math.pi],      # the origin on a dual hull edge
], ids=["narrow-fan", "half-circle", "origin-on-edge"])
def test_wulff_rejects_half_planes_that_bound_no_polygon(angles):
    # directions within a closed half-circle leave the intersection of the
    # half-planes unbounded: no area, negative or infinite, is returned
    U = np.column_stack([np.cos(angles), np.sin(angles)])
    with pytest.raises(ValueError, match="bound no polygon"):
        wulff_polygon(U, np.ones(len(angles)))


def test_wulff_vertices_match_the_per_vertex_solve():
    rng = np.random.default_rng(23)
    for m in (3, 7, 64, 500):
        th = 2 * math.pi * (np.arange(m) + 0.4 * rng.random(m)) / m
        U = np.stack([np.cos(th), np.sin(th)], axis=1)
        h = 1.0 + 0.3 * rng.random(m)
        poly = wulff_polygon(U, h)
        hull = _convex_hull_ccw(U / h[:, None])
        ref = np.array([np.linalg.solve(np.array([p, q]), np.ones(2))
                        for p, q in zip(hull, np.roll(hull, -1, axis=0))])
        assert poly.vertices.shape == ref.shape
        err = np.max(np.abs(poly.vertices - ref))
        assert err <= 1e-14 * np.max(np.abs(ref))


def _monotone_chain_reference(pts):
    """The monotone chain as first written, one cross product of numpy
    scalars taken in Python integers per step: the reference for
    _convex_hull_ccw, whose chain runs on Python integer pairs."""
    P = np.unique(np.round(pts * _HULL_SCALE).astype(np.int64), axis=0)
    if len(P) < 3:
        raise ValueError("degenerate direction set")
    order = np.lexsort((P[:, 1], P[:, 0]))
    P = P[order]

    def cross(o, a, b):
        # python ints: the scaled products overflow int64
        return ((int(a[0]) - int(o[0])) * (int(b[1]) - int(o[1]))
                - (int(a[1]) - int(o[1])) * (int(b[0]) - int(o[0])))

    lower: list = []
    for p in P:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in P[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1], dtype=np.int64)
    return hull.astype(float) / _HULL_SCALE


def _battery_hull_inputs():
    # the dual points u / h of the default battery's polygon checks: the
    # disk and the bump at 720 directions (polygon_agreement), and the
    # geometric mean of the unit disk and its shift by t = 0.3, 0.6 at 1440
    # (shift_counterexample)
    one = {"type": "constant", "value": 1.0}
    disk = bmstab.sf_from_spec(one, 2)
    bump = bmstab.sf_from_spec({"type": "sum", "parts": [
        [1.0, one], [0.1, {"type": "second_harmonic"}]]}, 2)
    shifts = [bmstab.sf_from_spec({"type": "sum", "parts": [
        [1.0, one], [t, {"type": "first_harmonic"}]]}, 2) for t in (0.3, 0.6)]
    shifted = [sf_product_powers([(h, 0.5), (disk, 0.5)]) for h in shifts]
    for h, m in [(disk, 720), (bump, 720)] + [(h, 1440) for h in shifted]:
        ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        yield u / h.values(u)[:, None]


def _hull_point_sets():
    rng = np.random.default_rng(29)
    for m in (3, 4, 5, 9, 40, 300):
        t = rng.random(m)
        th = 2 * math.pi * rng.random(m)
        circle = np.column_stack([np.cos(th), np.sin(th)])
        run = np.column_stack([np.sort(t), np.sort(t) ** 2])
        run[-1, 1] = -10.0
        yield from [
            rng.random((m, 2)) - 0.5,
            rng.standard_normal((m, 2)),
            circle,
            circle / (1.0 + 0.3 * rng.random(m))[:, None],
            np.round(4.0 * rng.random((m, 2))) / 4.0,       # a lattice
            np.repeat(rng.random((m, 2)), 3, axis=0),       # duplicates
            np.column_stack([t, np.full(m, 0.3)]),           # collinear
            np.column_stack([np.full(m, 0.3), t]),
            np.column_stack([t, 2.0 * t - 1.0]),
            # within a few 2^-40 of a line, far out: the float cross product
            # cannot decide some of these turns
            (np.column_stack([1e3 * t - 500.0, 750.0 * t - 372.0])
             + rng.integers(-1, 2, (m, 2)) / _HULL_SCALE),
            run,                    # a convex run, then a much lower point
        ]


def test_convex_hull_matches_the_sequential_chain():
    # bitwise the same vertices, from the same start and in the same order,
    # on the battery's direction sets and on random, lattice, duplicate,
    # collinear and nearly collinear sets; fewer than 3 distinct points
    # raise in both
    for pts in list(_battery_hull_inputs()) + list(_hull_point_sets()):
        try:
            want = _monotone_chain_reference(pts)
        except ValueError:
            with pytest.raises(ValueError, match="degenerate"):
                _convex_hull_ccw(pts)
            continue
        got = _convex_hull_ccw(pts)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_circumscribed_excess_scaling():
    # area excess of the m-gon circumscribing the unit disk ~ pi^3 / (3 m^2)
    m = 720
    poly = wulff_polygon(regular_directions(m), np.ones(m))
    excess = poly.area - math.pi
    assert excess == pytest.approx(1.993731547500488e-05, rel=1e-9)
    assert excess == pytest.approx(math.pi ** 3 / (3 * m * m), rel=1e-2)
    # quadrupling the direction count divides the excess by ~16
    poly2 = wulff_polygon(regular_directions(4 * m), np.ones(4 * m))
    assert (poly2.area - math.pi) * 16 == pytest.approx(excess, rel=1e-3)


# ---------------------------------------------------------------------------
# Monte Carlo measures
# ---------------------------------------------------------------------------

def test_mc_measure_unit_disk(grid2, lebesgue):
    K = ball_body(1.0, grid2)
    est = mc_measure(lebesgue, K, n_samples=1 << 16, seed=2024)
    assert isinstance(est, McEstimate)
    assert est.samples == 1 << 16
    assert est.agrees_with(math.pi)
    assert est.stderr < 0.02


def test_mc_measure_is_deterministic(grid2, gaussian):
    h = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                (0.1, PolynomialSF.cos_harmonic(2))])
    K = body_from_support(h, grid2)
    a = mc_measure(gaussian, K, n_samples=1 << 15, seed=7)
    b = mc_measure(gaussian, K, n_samples=1 << 15, seed=7)
    c = mc_measure(gaussian, K, n_samples=1 << 15, seed=8)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value


def test_mc_measure_gaussian_ball_n3(grid3):
    gau = make_measure(kind="gaussian")
    K = ball_body(1.0, grid3)
    est = mc_measure(gau, K, n_samples=1 << 16, seed=11)
    # closed form: (2pi)^{3/2} P(chi_3 <= 1) ... computed via radial integral
    from scipy.integrate import quad
    want = 4 * math.pi * quad(
        lambda r: r * r * math.exp(-r * r / 2), 0.0, 1.0)[0]
    assert est.agrees_with(want)


def test_mc_measure_off_center_body(grid2, lebesgue):
    # shifted disk: support 1 + 0.4 cos(theta); area stays pi
    h = sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                (0.4, PolynomialSF.cos_harmonic(1))])
    K = body_from_support(h, grid2)
    est = mc_measure(lebesgue, K, n_samples=1 << 16, seed=5)
    assert est.agrees_with(math.pi)
    assert est.refined >= 0


def test_mc_measure_rejects_nonpositive_sample_count(grid2, lebesgue):
    disk = ball_body(1.0, grid2)
    # a float, even a whole one, and a bool are not sample counts
    for n_samples in (0, -3, 1.5, 2.0 ** 17, True):
        with pytest.raises(ValueError, match="n_samples"):
            mc_measure(lebesgue, disk, n_samples=n_samples)


def test_mc_agrees_with_tolerance():
    est = McEstimate(value=1.0, stderr=0.01, samples=100, batches=1,
                     refined=0, seed=0)
    assert est.agrees_with(1.03)
    assert not est.agrees_with(1.05)


def _sampling_ball(body):
    # mc_measure's direction net, band and bounding radius
    h, n = body.h, body.grid.n
    dirs = _coarse_directions(n)
    hdirs = h.values(dirs)
    if n == 2:
        net_gap = 2 * math.pi / len(dirs)
    else:
        net_gap = 2.0 * (len(dirs)) ** (-1.0 / (n - 1))
    h_top = float(np.max(hdirs))
    band = (float(np.max(np.abs(body.curvature.Q))) + h_top) * net_gap ** 2
    R_b = (h_top + band) * (1.0 + 1e-12)
    return dirs, hdirs, band, R_b


def _mc_batch_points(body, R_b, seed):
    # batch 0 of mc_measure's sample stream
    n = body.grid.n
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, 0])))
    Z = rng.standard_normal((MC_BATCH, n))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    radii = R_b * rng.random(MC_BATCH) ** (1.0 / n)
    return Z * radii[:, None], radii


def _dense_mc_batch(measure, dense):
    """One batch of mc_measure classified with the full sample-by-direction
    product, no shell skip and no cell bounds; `dense` is the dense_batch
    entry of the body."""
    body, X, radii, gmax = dense
    h, n = body.h, body.grid.n
    dirs, hdirs, band, R_b = _sampling_ball(body)
    gmax = gmax.copy()
    unsure = np.abs(gmax) <= band
    i0 = np.argmax(X[unsure] @ dirs.T - hdirs[None, :], axis=1)
    gmax[unsure] = _polish_support_max(h, X[unsure], dirs[i0], gmax[unsure])
    inside = gmax <= 0.0
    fv = np.zeros(MC_BATCH)
    fv[inside] = measure.f(radii[inside])
    vol_ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * R_b ** n
    mean = float(np.sum(fv)) / MC_BATCH
    var = max(float(np.sum(fv ** 2)) / MC_BATCH - mean ** 2, 0.0)
    return (vol_ball * mean, vol_ball * math.sqrt(var / MC_BATCH),
            int(np.sum(unsure)))


def _near_ball(n, resolution, amplitude, harmonic):
    h = bmstab.sf_from_spec({"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [amplitude, {"type": harmonic}]]}, n)
    return body_from_support(h, build_grid(n, resolution))


def _battery3():
    # the n = 3 body of the default battery's mc_agreement check
    h = PolynomialSF(3, {(0, 0, 0): 1.0, (0, 0, 1): 0.3})
    return body_from_support(h, build_grid(3, 16))


# the bodies of acceptance criterion 10 and the battery's n = 3 body
_MC_BODIES = {
    "ball3": lambda: ball_body(1.0, build_grid(3, 10)),
    "shift3": lambda: _near_ball(3, 10, 0.15, "first_harmonic"),
    "bump": lambda: _near_ball(2, 96, 0.1, "second_harmonic"),
    "battery3": _battery3,
}


@pytest.fixture(scope="module")
def dense_batch():
    """Per body of _MC_BODIES, formed once for the module: the body, batch 0
    of mc_measure's sample stream at seed 31 (points and radii) and the
    row maxima of its dense sample-by-net product."""
    formed = {}

    def get(case):
        if case not in formed:
            body = _MC_BODIES[case]()
            dirs, hdirs, _, R_b = _sampling_ball(body)
            X, radii = _mc_batch_points(body, R_b, seed=31)
            gmax = _dense_max(X, dirs, hdirs)
            for a in (X, radii, gmax):
                a.setflags(write=False)
            formed[case] = body, X, radii, gmax
        return formed[case]

    return get


@pytest.mark.parametrize("case", ["ball3", "shift3", "bump", "battery3"])
def test_mc_shell_skip_and_row_blocks_match_dense(case, exp1, gaussian,
                                                  dense_batch):
    dense = dense_batch(case)
    measure = exp1 if case in ("ball3", "shift3") else gaussian
    want = _dense_mc_batch(measure, dense)
    est = mc_measure(measure, dense[0], n_samples=MC_BATCH, seed=31)
    assert want[2] > 0
    assert (est.value, est.stderr, est.refined) == want


def _polish_per_row(h, X, u0, g0):
    """The Newton polish one row at a time: per-row frames and solves, the
    reference for the batched _polish_support_max."""
    k, n = u0.shape
    u = u0.copy()
    for _ in range(60):
        d = h.d2_ext0(u)
        xu = np.sum(X * u, axis=1)
        grad_amb = X - xu[:, None] * u - d.grad
        E = np.stack([_tangent_frame(ui) for ui in u])      # (k, n-1, n)
        gf = np.einsum("kap,kp->ka", E, grad_amb)
        Hf = (np.einsum("kap,kpq,kbq->kab", E, d.hess, E)
              + xu[:, None, None] * np.eye(n - 1))
        step = np.empty_like(gf)
        for i in range(k):
            try:
                s = np.linalg.solve(Hf[i], gf[i])
            except np.linalg.LinAlgError:
                s = gf[i]
            if not np.all(np.isfinite(s)) or np.linalg.norm(s) > 0.5:
                s = gf[i] / max(1.0, np.linalg.norm(gf[i]))
            step[i] = s
        u_new = u + np.einsum("kap,ka->kp", E, step)
        u_new /= np.linalg.norm(u_new, axis=1, keepdims=True)
        if np.max(np.linalg.norm(u_new - u, axis=1)) < 1e-14:
            u = u_new
            break
        u = u_new
    g = np.sum(X * u, axis=1) - h.values(u)
    return np.maximum(g, g0)


@pytest.mark.parametrize("case", ["ball3", "shift3", "bump", "battery3"])
def test_mc_batched_polish_matches_the_per_row_reference(case, dense_batch):
    body, X, _, gmax = dense_batch(case)
    dirs, hdirs, band, R_b = _sampling_ball(body)
    unsure = np.abs(gmax) <= band
    Xu, g0 = X[unsure], gmax[unsure]
    u0 = dirs[np.argmax(Xu @ dirs.T - hdirs, axis=1)]
    got = _polish_support_max(body.h, Xu, u0, g0)
    want = _polish_per_row(body.h, Xu, u0, g0)
    assert len(got) > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * R_b
    assert np.array_equal(got <= 0.0, want <= 0.0)


class _RecordedSF:
    """A support function that records the points of every d2_ext0 call."""

    def __init__(self, h):
        self.h, self.calls = h, []

    def values(self, U):
        return self.h.values(U)

    def d2_ext0(self, U):
        self.calls.append(np.array(U))
        return self.h.d2_ext0(U)


def test_mc_polish_singular_row_takes_the_gradient_step():
    # h = 1 has zero gradient and Hessian, so the Newton matrix is <x, u> I:
    # singular for the middle row, whose x is orthogonal to its start e_3.
    # The other rows reach x / |x| in one Newton step; the middle one takes
    # the gradient step E x (length 0.4, not clipped).
    one = PolynomialSF.constant(3, 1.0)
    h = _RecordedSF(one)
    X = np.array([[0.3, 0.0, 1.2], [0.4, 0.0, 0.0], [0.0, -0.2, 0.9]])
    u0 = np.tile([0.0, 0.0, 1.0], (3, 1))
    g0 = np.full(3, -np.inf)
    got = _polish_support_max(h, X, u0, g0)
    second = h.calls[1]
    newton = X[[0, 2]] / np.linalg.norm(X[[0, 2]], axis=1, keepdims=True)
    assert np.max(np.abs(second[[0, 2]] - newton)) <= 1e-15
    gradient = np.array([0.4, 0.0, 1.0]) / math.hypot(0.4, 1.0)
    assert np.max(np.abs(second[1] - gradient)) <= 1e-15
    assert np.max(np.abs(got - (np.linalg.norm(X, axis=1) - 1.0))) <= 1e-14
    assert np.max(np.abs(got - _polish_per_row(one, X, u0, g0))) <= 1e-15


def _bracket_case(case):
    if case in ("dented", "one_cell"):
        # the unit disk's net with values no support function has: the
        # bounds read nothing but the net, so they must hold for these too
        dirs = _coarse_directions(2)
        hdirs = PolynomialSF.constant(2, 1.0).values(dirs)
        if case == "dented":
            hdirs[5] -= 0.1     # in the cell of direction 0: its min h is 0.9
        else:
            # every direction more than 7 steps from direction 0 (the cells
            # of the other centres) lies far out, so that cell alone decides
            j = np.arange(len(dirs))
            hdirs[np.minimum(j, len(dirs) - j) > 7] += 100.0
        return dirs, hdirs, 1.2
    body = {
        "disk": lambda: ball_body(1.0, build_grid(2, 96)),
        "bump": lambda: _near_ball(2, 96, 0.1, "second_harmonic"),
        "shift3": lambda: _near_ball(3, 10, 0.15, "first_harmonic"),
        "battery3": _battery3,
        "ball4": lambda: ball_body(1.0, build_grid(4, 8)),
    }[case]()
    dirs, hdirs, _, R_b = _sampling_ball(body)
    return dirs, hdirs, R_b


def _bracket_points(cells, R_b):
    # uniform in the sampled ball, close to each centre's point h(c_k) c_k,
    # and along the inner normal (h(c_k) - s) c_k (for the disk, s = 1 is the
    # origin, where every net direction ties)
    C, hC = cells[:2]
    B = hC[:, None] * C
    n = C.shape[1]
    rng = np.random.default_rng(17)
    Z = rng.standard_normal((8192, n))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    uniform = Z * R_b * rng.random((8192, 1)) ** (1.0 / n)
    near = (np.repeat(B, 32, axis=0)
            + 0.02 * rng.standard_normal((32 * len(B), n)))
    s = np.linspace(0.0, 2.0, 33)[None, :, None]
    inward = (B[:, None, :] - s * C[:, None, :]).reshape(-1, n)
    return np.concatenate([uniform, near, inward])


@pytest.mark.parametrize("case", ["disk", "bump", "shift3", "battery3",
                                  "ball4", "dented", "one_cell"])
def test_mc_net_bounds_bracket_the_dense_net_max(case):
    dirs, hdirs, R_b = _bracket_case(case)
    cells = _net_cells(dirs, hdirs)
    assert len(cells[0]) == 64
    X = _bracket_points(cells, R_b)
    lo = _net_max(X, *cells[:2])[0]
    hi = np.max(_cell_hi(X, cells), axis=1)
    gmax = _dense_max(X, dirs, hdirs)
    eps = 1e-7 * R_b
    assert np.all(lo - eps <= gmax)
    assert np.all(gmax <= hi + eps)


def test_mc_net_max_one_row_block_matches_a_larger_block():
    # a lone row is doubled before the product, so gemm and not gemv forms
    # it: each row's maximum is bitwise the one it has inside a larger block.
    # The full net, and the 64 cell centres of mc_measure's lower bound on
    # 2 _ROW_BLOCK + 1 rows, which would leave a lone row in a last block
    dirs, hdirs, R_b = _bracket_case("shift3")
    rng = np.random.default_rng(5)
    for net, rows in [((dirs, hdirs), 16),
                      (_net_cells(dirs, hdirs)[:2], 2 * _ROW_BLOCK + 1)]:
        X = rng.uniform(-R_b, R_b, (rows, 3))
        block, i_block = _net_max(X, *net)
        for i in range(len(X)):
            one, i_one = _net_max(X[i:i + 1], *net)
            assert one.shape == (1,)
            assert one[0] == block[i] and i_one[0] == i_block[i], (rows, i)


def _dense_max_argmax(X, dirs, hdirs):
    # the dense product in 64-row blocks: gemm, and np.argmax takes the
    # lowest index on ties
    gmax, imax = np.empty(len(X)), np.empty(len(X), dtype=np.intp)
    for a in range(0, len(X), 64):
        P = X[a:a + 64] @ dirs.T - hdirs
        gmax[a:a + 64], imax[a:a + 64] = np.max(P, axis=1), np.argmax(P, 1)
    return gmax, imax


def _dense_max(X, dirs, hdirs):
    # _dense_max_argmax's row maxima alone, from the same 64-row blocks
    gmax = np.empty(len(X))
    for a in range(0, len(X), 64):
        P = X[a:a + 64] @ dirs.T
        P -= hdirs
        np.max(P, axis=1, out=gmax[a:a + 64])
    return gmax


def _candidates_of_dense(X, cells, dirs, hdirs, R_b):
    # mc_measure's call: floor = the centres' lower bound - 2 eps
    floor = _net_max(X, *cells[:2])[0] - 2e-7 * R_b
    return _candidate_max(X, floor, cells, dirs, hdirs)


@pytest.mark.parametrize("case", ["disk", "dented", "one_cell", "shift3",
                                  "battery3", "ball4"])
def test_mc_candidate_cells_match_the_dense_max_bitwise(case):
    dirs, hdirs, R_b = _bracket_case(case)
    cells = _net_cells(dirs, hdirs)
    X = _bracket_points(cells, R_b)
    gmax, imax = _candidates_of_dense(X, cells, dirs, hdirs, R_b)
    want, i_want = _dense_max_argmax(X, dirs, hdirs)
    assert np.array_equal(gmax, want)
    assert np.array_equal(imax, i_want)
    if case == "disk":
        # the origin ties every direction; the lowest index wins
        origin = np.flatnonzero(np.all(X == 0.0, axis=1))
        assert len(origin) > 0 and np.all(imax[origin] == 0)


def test_mc_candidate_cells_lone_row_and_lone_column_match_dense():
    # lone rows: one sample at a time, so every cell product has one row.
    # Lone columns: a 64-direction disk net, one direction per cell
    dirs, hdirs, R_b = _bracket_case("shift3")
    cells = _net_cells(dirs, hdirs)
    X = _bracket_points(cells, R_b)[::97]
    want, i_want = _dense_max_argmax(X, dirs, hdirs)
    for i in range(len(X)):
        got, i_got = _candidates_of_dense(X[i:i + 1], cells, dirs, hdirs, R_b)
        assert got[0] == want[i] and i_got[0] == i_want[i], i
    dirs, hdirs, R_b = _bracket_case("disk")
    dirs, hdirs = dirs[::16], hdirs[::16]
    cells = _net_cells(dirs, hdirs)
    assert all(len(members) == 1 for members in cells[4])
    X = _bracket_points(cells, R_b)
    gmax, imax = _candidates_of_dense(X, cells, dirs, hdirs, R_b)
    want, i_want = _dense_max_argmax(X, dirs, hdirs)
    assert np.array_equal(gmax, want)
    assert np.array_equal(imax, i_want)


@pytest.mark.parametrize("n", range(2, 8))
def test_unit_rows_match_the_numpy_row_norm_bitwise(n):
    # mc_measure's normalisation of its sample directions, up to n = 7,
    # where numpy's row reduction is sequential
    Z = np.random.default_rng(n).standard_normal((MC_BATCH, n))
    want = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    assert np.array_equal(_unit_rows(Z), want)


def _bin_radii_case(case):
    # a planar net of _bracket_case with mc_measure's s = band + eps; the
    # synthetic nets take the band of the unit disk, whose net they alter
    dirs, hdirs, R_b = _bracket_case(case)
    body = (_near_ball(2, 96, 0.1, "second_harmonic") if case == "bump"
            else ball_body(1.0, build_grid(2, 96)))
    band = _sampling_ball(body)[2]
    return dirs, hdirs, band + 1e-7 * R_b, R_b


@pytest.mark.parametrize("case", ["disk", "bump", "dented", "one_cell"])
def test_mc_bin_radii_bracket_the_dense_net_max(case):
    # directions: random ones, each at one of the three radii below in turn,
    # and every bin edge with its neighbours (-pi and pi included) at all
    # three.  Radii: just inside the bin's r_in, just outside its r_out, and
    # uniform in the sampled ball
    dirs, hdirs, s, R_b = _bin_radii_case(case)
    r_in, r_out = _bin_radii(dirs, hdirs, s)
    bins = len(r_in)
    assert bins == len(dirs) // 2
    rng = np.random.default_rng(23)
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf)])
    t = np.concatenate([rng.uniform(-math.pi, math.pi, 200_000),
                        np.tile(edges, 3)])
    kind = np.concatenate([np.arange(200_000) % 3,
                           np.repeat([0, 1, 2], len(edges))])
    Z = np.column_stack([np.cos(t), np.sin(t)])
    b = _bin_of(Z, bins)
    assert b.min() == 0 and b.max() == bins - 1
    r = np.choose(kind, [r_in[b] * (1.0 - 1e-12), r_out[b] * (1.0 + 1e-12),
                         R_b * rng.random(len(t))])
    ok = np.isfinite(r)
    Z, r, b = Z[ok], r[ok], b[ok]
    g = _dense_max(Z * r[:, None], dirs, hdirs)
    below, above = r < r_in[b], r > r_out[b]
    assert np.sum(below) > 200_000 // 3 and np.sum(above) > 0
    assert np.all(g[below] < -s)
    assert np.all(g[above] > s)


def test_mc_bin_radii_leave_few_rows_to_the_cell_bounds(gaussian):
    # one planar batch: of the 21,600 rows outside the disk of radius
    # min h - band, only those between their bin's radii reach the cells
    est = mc_measure(gaussian, _MC_BODIES["bump"](), n_samples=MC_BATCH,
                     seed=31)
    assert 0 < est.bounded < 500


def mc_row_counts():
    """Per body of _MC_BODIES, one batch at seed 31 (Gaussian measure):
    McEstimate.bounded, the rows that the radius tests (planar bins, or the
    ball about the net's Steiner point) leave to the cell bounds, and the
    median number of candidate cells (of 64) per row that meets
    _candidate_max, counted by a wrapper around it."""
    counts = []

    def counting(X, floor, cells, dirs, hdirs):
        for a in range(0, len(X), _ROW_BLOCK):
            hi = _cell_hi(X[a:a + _ROW_BLOCK], cells)
            counts.append(np.sum(hi >= floor[a:a + _ROW_BLOCK, None], axis=1))
        return _candidate_max(X, floor, cells, dirs, hdirs)

    measure = make_measure(kind="gaussian")
    out = {}
    oracles._candidate_max = counting
    try:
        for case, body in _MC_BODIES.items():
            counts.clear()
            est = mc_measure(measure, body(), n_samples=MC_BATCH, seed=31)
            out[case] = est.bounded, float(np.median(np.concatenate(counts)))
    finally:
        oracles._candidate_max = _candidate_max
    return out


def _mc_steiner_ball(body, monkeypatch):
    """The centre c and radius r_c that mc_measure's call of _steiner_ball
    returns for the body."""
    seen = []

    def record(dirs, hdirs, s):
        seen.append(_steiner_ball(dirs, hdirs, s))
        return seen[-1]

    monkeypatch.setattr(oracles, "_steiner_ball", record)
    mc_measure(make_measure(kind="lebesgue"), body, n_samples=1, seed=31)
    (ball,) = seen
    return ball


def _tilted3():
    # off the origin and not a ball: 1 + 0.2 x_1 + 0.05 x_1 x_2
    h = bmstab.sf_from_spec({"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [0.2, {"type": "first_harmonic"}],
        [0.05, {"type": "second_harmonic"}]]}, 3)
    return body_from_support(h, build_grid(3, 10))


@pytest.mark.parametrize("case", ["shift3", "battery3", "tilted3"])
def test_mc_steiner_ball_brackets_the_dense_net_max(case, monkeypatch):
    # rows just inside mc_measure's ball about the net's Steiner point, in
    # 200,000 random directions and along every net direction u_j (where
    # <x - c, u_j> - hc_j comes closest to the bound): the dense net maximum
    # lies below -(band + eps), so the dense route takes them as inside
    # without a polish.  The ball is wider than the one about the origin
    body = _tilted3() if case == "tilted3" else _MC_BODIES[case]()
    dirs, hdirs, band, R_b = _sampling_ball(body)
    eps = 1e-7 * R_b
    c, r_c = _mc_steiner_ball(body, monkeypatch)
    assert r_c > np.min(hdirs) - band - eps
    Z = np.random.default_rng(37).standard_normal((200_000, 3))
    Z = np.concatenate([Z / np.linalg.norm(Z, axis=1, keepdims=True), dirs])
    g = _dense_max(c + r_c * (1.0 - 1e-12) * Z, dirs, hdirs)
    assert np.all(g < -(band + eps))


def test_mc_steiner_ball_settles_off_centre_rows():
    # about the origin, one batch left 755 rows of ball3 and 39,561 of
    # shift3 to the cell bounds.  ball3's fitted centre lies at the origin up
    # to rounding, so its count does not move; shift3's falls to 23,197.
    # The first-order cell bound leaves a median of 7 to 12 of the 64 cells
    # to each row that meets _candidate_max
    counts = mc_row_counts()
    assert abs(counts["ball3"][0] - 755) <= 10
    assert counts["shift3"][0] < 26_000
    assert all(1 <= cells <= 16 for _, cells in counts.values())


def test_mc_fitted_centre_at_n4(gaussian, monkeypatch):
    # the random n = 4 net is not balanced: n mean_j h_j u_j lies 0.033 off
    # the origin for the centred body 1 + 0.2 second_harmonic, and 0.030 off
    # (0.2, 0, 0, 0) for the shifted ball 1 + 0.2 x_1.  The least-squares
    # centre lies within 0.005 of the first and on the second, whose ball
    # then leaves fewer rows to the cell bounds than the ball about the
    # origin (38,472 against 54,718), with the same estimate
    centred = _near_ball(4, 8, 0.2, "second_harmonic")
    c, _ = _mc_steiner_ball(centred, monkeypatch)
    assert np.linalg.norm(c) < 0.005
    shifted = _near_ball(4, 8, 0.2, "first_harmonic")
    c, _ = _mc_steiner_ball(shifted, monkeypatch)
    assert np.max(np.abs(c - [0.2, 0.0, 0.0, 0.0])) < 1e-12
    fitted = mc_measure(gaussian, shifted, n_samples=MC_BATCH, seed=1)

    def origin_ball(dirs, hdirs, s):
        return (np.zeros(dirs.shape[1]),
                max((float(np.min(hdirs)) - s) * (1.0 - 1e-9), 0.0))

    monkeypatch.setattr(oracles, "_steiner_ball", origin_ball)
    origin = mc_measure(gaussian, shifted, n_samples=MC_BATCH, seed=1)
    assert fitted.bounded < origin.bounded
    assert (fitted.value, fitted.stderr, fitted.refined) == (
        origin.value, origin.stderr, origin.refined)


def _traced_mc_batch(measure, body, seed):
    tracemalloc.start()
    try:
        est = mc_measure(measure, body, n_samples=MC_BATCH, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return est, peak / 2 ** 20


def test_mc_batch_traced_peak_is_bounded(exp1, gaussian):
    # a near-boundary sample meets only its candidate cells, so no
    # _ROW_BLOCK x len(dirs) block of the whole net is formed.  One batch of
    # criterion 10's shifted body (n = 3) peaks at 4.6 MiB (22.2 when every
    # such row met the full net); the n = 4 batch at 24.3 MiB (40.0), with
    # its estimate unchanged
    est, peak = _traced_mc_batch(
        exp1, _near_ball(3, 10, 0.15, "first_harmonic"), seed=3)
    assert est.value == 2.000046092746024 and est.refined == 580
    assert peak < 12.0
    est, peak = _traced_mc_batch(
        gaussian, _near_ball(4, 8, 0.2, "second_harmonic"), seed=5)
    assert est.value == 3.483768838688837 and est.refined == 8083
    assert peak < 32.0


def test_mc_bounding_radius_covers_the_body(exp1):
    # shift3 of criterion 10: h = 1 + 0.15 x_3 has circumradius 1.15, more
    # than max h on the quadrature nodes (1.14855 at resolution 10)
    shift3 = _near_ball(3, 10, 0.15, "first_harmonic")
    assert float(np.max(shift3.D)) < 1.15
    est = mc_measure(exp1, shift3, n_samples=MC_BATCH, seed=3)
    assert est.radius >= 1.15


# VmHWM is the probe's own peak: ru_maxrss would carry over the high-water
# mark of the process that started it
_MEMORY_PROBE = """
import json
import bmstab as bm
from bmstab.oracles import MC_BATCH, mc_measure
gau = bm.make_measure("gaussian")
out = {}
for n, res in ((3, 10), (4, 8)):
    K = bm.ball_body(1.0, bm.build_grid(n, res))
    est = mc_measure(gau, K, n_samples=MC_BATCH, seed=5)
    out[n] = [est.value, est.stderr, bm.measure_of_body(gau, K)]
with open("/proc/self/status") as fh:
    out["vmhwm_kib"] = next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:"))
print(json.dumps(out))
"""


def test_mc_measure_memory_is_bounded_through_n4():
    # one batch at n = 3 (4,096 directions) and n = 4 (8,192) in a fresh
    # process: a dense batch product would need 2 and 4 GiB per temporary
    env = dict(os.environ)
    src = str(Path(bmstab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert out["vmhwm_kib"] < 1 << 20
    for n in ("3", "4"):
        value, stderr, quad = out[n]
        assert stderr > 0
        assert abs(value - quad) <= 4.0 * stderr


def test_dense_max_is_bitwise_the_dense_argmax_maximum():
    dirs, hdirs, R_b = _bracket_case("shift3")
    X = _bracket_points(_net_cells(dirs, hdirs), R_b)
    want = _dense_max_argmax(X, dirs, hdirs)[0]
    assert _dense_max(X, dirs, hdirs).tobytes() == want.tobytes()
