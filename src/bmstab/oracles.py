"""Independent cross-checks: Monte Carlo measure estimates, finite
differences, and polygonal approximations.

The Monte Carlo route samples a ball uniformly and classifies points
against the support function directly, the polygon route intersects
half-planes exactly, and the finite-difference helpers only evaluate the
callables they are given; none of them uses the spherical quadrature or the
radial-moment machinery.  One datum is still borrowed from the route under
test: mc_measure sizes its uncertainty band with max |Q| of the body's
curvature matrices at the quadrature nodes (body.curvature.Q).  ROADMAP.md,
item 1, takes that scale from the support function's own sup bound instead.
Agreement between these estimates and the main formulas is what the
verification suite leans on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import frame_hessian, tangent_frames

MC_BATCH = 1 << 16
_ROW_BLOCK = 256            # sample rows per net product in mc_measure
_COARSE = 64                # cells bounding the net maximum in mc_measure


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_derivative(fn, x0=0.0, order=1, step=1e-3, vectorized=True):
    """Richardson-refined central difference of a scalar function.

    Combines the classical stencils at widths `step` and `step/2`, removing
    the O(step^2) error term; `fn` may accept an array of evaluation points
    when vectorized."""
    h = float(step)
    if order == 1:
        pts = np.array([x0 - h, x0 - h / 2, x0 + h / 2, x0 + h])
    elif order == 2:
        pts = np.array([x0 - h, x0 - h / 2, x0, x0 + h / 2, x0 + h])
    else:
        raise ValueError("order must be 1 or 2")
    if vectorized:
        vals = np.asarray(fn(pts), dtype=float)
    else:
        vals = np.array([float(fn(p)) for p in pts])
    if order == 1:
        coarse = (vals[3] - vals[0]) / (2 * h)
        fine = (vals[2] - vals[1]) / h
    else:
        coarse = (vals[4] - 2 * vals[2] + vals[0]) / h ** 2
        fine = (vals[3] - 2 * vals[2] + vals[1]) / (h / 2) ** 2
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# Monte Carlo measure of a body
# ---------------------------------------------------------------------------

@dataclass
class McEstimate:
    value: float
    stderr: float
    samples: int
    batches: int
    refined: int
    seed: int
    radius: float | None = None     # of the sampled ball, from the net

    def agrees_with(self, reference, n_sigma=4.0):
        # the absolute floor covers the deterministic rounding bias of the
        # sampling envelope, which matters only when the indicator is
        # constant across batches and stderr collapses to zero
        floor = 1e-9 * max(1.0, abs(reference))
        return abs(self.value - reference) <= n_sigma * self.stderr + floor


def _fibonacci_sphere(m):
    # Fibonacci spiral: near-uniform covering of S^2 by m points
    i = np.arange(m) + 0.5
    z = 1.0 - 2.0 * i / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _coarse_directions(n, seed=1234):
    if n == 2:
        t = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    if n == 3:
        return _fibonacci_sphere(4096)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    u = rng.standard_normal((8192, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _net_cells(h, dirs, hdirs):
    """Split the net into cells around _COARSE of its own directions c_k.

    Per cell: c_k, h(c_k) (the net's value), g_k = grad1 h(c_k), <g_k, c_k>,
    the chord radius t_k >= |u_j - c_k| and the slack
    e_k >= h(c_k) + <g_k, u_j - c_k> - h_j over the cell's directions u_j,
    read from the net's own values (nothing is assumed between them)."""
    m, n = dirs.shape
    if n == 2:
        idx = np.arange(0, m, m // _COARSE)
    elif n == 3:
        idx = np.unique(np.argmax(_fibonacci_sphere(_COARSE) @ dirs.T, axis=1))
    else:
        idx = np.arange(_COARSE)
    C, hC = dirs[idx], hdirs[idx]
    G = h.grad1(C)
    cell = np.argmax(dirs @ C.T, axis=1)
    d = dirs - C[cell]
    # zeros are safe starts: each centre lies in its own cell and gives 0
    t = np.zeros(len(idx))
    np.maximum.at(t, cell, np.linalg.norm(d, axis=1))
    e = np.zeros(len(idx))
    np.maximum.at(e, cell, hC[cell] + np.sum(G[cell] * d, axis=1) - hdirs)
    return C, hC, G, np.sum(G * C, axis=1), t * (1.0 + 1e-9), e


def _net_lo(X, cells):
    """Row-wise lo <= max_j <x, u_j> - h_j: the maximum over the cell
    centres, which are net directions."""
    C, hC = cells[0], cells[1]
    lo = np.empty(len(X))
    for a in range(0, len(X), _ROW_BLOCK):
        P = X[a:a + _ROW_BLOCK] @ C.T
        P -= hC
        np.max(P, axis=1, out=lo[a:a + _ROW_BLOCK])
    return lo


def _net_hi(X, cells):
    """Row-wise hi >= max_j <x, u_j> - h_j from the cells alone,
    _ROW_BLOCK rows at a time.

    For u_j in cell k write u_j - c_k = a c_k + w with -t_k^2/2 <= a <= 0,
    |w| <= t_k; with v = x - g_k,
        <x, u_j> - h_j <= <x, c_k> - h(c_k) + <v, u_j - c_k> + e_k
                       <= <x, c_k> - h(c_k) + t_k |v_perp|
                          + t_k^2/2 max(0, -<v, c_k>) + e_k,
    whose maximum over k is hi."""
    C, hC, G, gc, t, e = cells
    g2 = np.sum(G * G, axis=1)
    half_t2 = 0.5 * t * t
    hi = np.empty(len(X))
    for a in range(0, len(X), _ROW_BLOCK):
        rows = X[a:a + _ROW_BLOCK]
        xc = rows @ C.T
        w = rows @ G.T
        vc = xc - gc                                # <v, c_k>
        w *= -2.0
        w += np.sum(rows * rows, axis=1)[:, None]
        w += g2                                     # |v|^2
        w -= vc * vc
        np.maximum(w, 0.0, out=w)
        np.sqrt(w, out=w)
        w *= t                                      # t_k |v_perp|
        np.negative(vc, out=vc)
        np.maximum(vc, 0.0, out=vc)
        vc *= half_t2
        w += vc
        w += e
        xc -= hC
        xc += w
        np.max(xc, axis=1, out=hi[a:a + _ROW_BLOCK])
    return hi


def _net_max(X, dirs, hdirs):
    """Row-wise max and argmax of X @ dirs.T - hdirs, formed _ROW_BLOCK rows
    at a time.  No block has a single row: numpy sends a one-row product to
    gemv, whose last bits can differ from the rows of a gemm product."""
    m = len(X)
    gmax = np.empty(m)
    imax = np.empty(m, dtype=np.intp)
    start = 0
    while start < m:
        stop = m if m - start <= _ROW_BLOCK + 1 else start + _ROW_BLOCK
        rows = X[start:stop]
        if len(rows) == 1:
            rows = np.repeat(rows, 2, axis=0)
        P = rows @ dirs.T
        P -= hdirs
        k = np.argmax(P, axis=1)[:stop - start]
        imax[start:stop] = k
        gmax[start:stop] = P[np.arange(len(k)), k]
        start = stop
    return gmax, imax


def _polish_support_max(h, X, u0, g0):
    """Sharpen max_u <x,u> - h(u) for points whose coarse maximum is too
    close to zero to classify.  Projected ascent with Newton steps on the
    sphere, started from the best coarse direction, all rows at once.  A
    row whose Newton matrix is singular takes the gradient step, and a step
    that is not finite or longer than 0.5 becomes the gradient, clipped to
    length at most 1."""
    k, n = u0.shape
    u = u0.copy()
    eye = np.eye(n - 1)
    for _ in range(60):
        d = h.d2_ext0(u)
        xu = np.sum(X * u, axis=1)
        grad_amb = X - xu[:, None] * u - d.grad
        E = tangent_frames(u)                               # (k, n-1, n)
        gf = np.einsum("kap,kp->ka", E, grad_amb)
        Hf = frame_hessian(d.hess, E) + xu[:, None, None] * eye
        try:
            step = np.linalg.solve(Hf, gf[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # LU meets a zero pivot exactly where the determinant is zero
            ok = np.linalg.det(Hf) != 0.0
            step = gf.copy()
            step[ok] = np.linalg.solve(Hf[ok], gf[ok][:, :, None])[:, :, 0]
        clip = (~np.all(np.isfinite(step), axis=1)
                | (np.linalg.norm(step, axis=1) > 0.5))
        if np.any(clip):
            gc = gf[clip]
            step[clip] = gc / np.maximum(
                1.0, np.linalg.norm(gc, axis=1))[:, None]
        u_new = u + np.einsum("kap,ka->kp", E, step)
        u_new /= np.linalg.norm(u_new, axis=1, keepdims=True)
        if np.max(np.linalg.norm(u_new - u, axis=1)) < 1e-14:
            u = u_new
            break
        u = u_new
    g = np.sum(X * u, axis=1) - h.values(u)
    return np.maximum(g, g0)


def mc_measure(measure, body, n_samples=1 << 20, seed=2024):
    """Monte Carlo estimate of gamma(K) with a standard-error bar.

    Uniform samples in a ball holding K (radius: max h over the coarse
    direction net plus its uncertainty band) are classified through the
    support criterion max_u <x,u> - h(u) <= 0 (coarse direction net plus a
    Newton polish for points inside the coarse uncertainty band), then
    weighted by the density at |x|.  The band scales with max |Q| over the
    body's quadrature nodes.  Counter-based streams keyed by (seed, batch)
    make the result independent of scheduling.

    Only samples whose net maximum lies within the band need its exact
    value; the others need only its sign.  Samples inside the inner shell
    |x| < min(hdirs) - band are certainly inside.  The rest are bounded
    from _COARSE cells of the net (_net_cells), lower bound first: _net_lo
    (one product with the 64 centres) above band + eps places a sample
    outside, and only the others get the upper bound _net_hi (chord radius
    and slack per cell), below -band - eps inside.  Only the undecided ones
    meet the full net, _ROW_BLOCK rows at a time, and each row's best net
    direction starts its polish, whose Newton steps are taken for all
    polished rows at once.  The estimates are bitwise those of the full
    MC_BATCH x len(dirs) product, which is never formed."""
    h = body.h
    g = body.grid
    n = g.n
    dirs = _coarse_directions(n)
    hdirs = h.values(dirs)
    h_top = float(np.max(hdirs))

    # uncertainty of a max over the coarse net: second-order in the net gap
    if n == 2:
        net_gap = 2 * math.pi / len(dirs)
    else:
        net_gap = 2.0 * (len(dirs)) ** (-1.0 / (n - 1))
    curv_scale = float(np.max(np.abs(body.curvature.Q))) + h_top
    band = curv_scale * net_gap ** 2
    # max h exceeds the net's maximum by no more than the band
    R_b = (h_top + band) * (1.0 + 1e-12)
    # |x| < r_in gives a net maximum <= |x| - min(hdirs) < -band: inside,
    # and never refined (the factor absorbs rounding in <x, u>)
    r_in = (float(np.min(hdirs)) - band) * (1.0 - 1e-9)
    cells = _net_cells(h, dirs, hdirs)
    # absorbs rounding in the bounds, |v_perp|^2 = |v|^2 - <v, c_k>^2 above all
    eps = 1e-7 * R_b

    vol_ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * R_b ** n
    batches = (n_samples + MC_BATCH - 1) // MC_BATCH
    total = 0.0
    total_sq = 0.0
    refined = 0
    for b in range(batches):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, b])))
        Z = rng.standard_normal((MC_BATCH, n))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        radii = R_b * rng.random(MC_BATCH) ** (1.0 / n)
        X = Z * radii[:, None]

        inside = radii < r_in
        shell = np.flatnonzero(~inside)
        # lo above band + eps places a row outside; only the others need hi
        maybe = shell[_net_lo(X[shell], cells) <= band + eps]
        certain_in = _net_hi(X[maybe], cells) < -band - eps
        inside[maybe[certain_in]] = True
        near = maybe[~certain_in]
        gmax, i0 = _net_max(X[near], dirs, hdirs)
        unsure = np.abs(gmax) <= band
        if np.any(unsure):
            refined += int(np.sum(unsure))
            gmax[unsure] = _polish_support_max(
                h, X[near[unsure]], dirs[i0[unsure]], gmax[unsure])
        inside[near] = gmax <= 0.0
        fv = np.zeros(MC_BATCH)
        fv[inside] = measure.f(radii[inside])
        total += float(np.sum(fv))
        total_sq += float(np.sum(fv ** 2))

    N = batches * MC_BATCH
    mean = total / N
    var = max(total_sq / N - mean ** 2, 0.0)
    value = vol_ball * mean
    stderr = vol_ball * math.sqrt(var / N)
    return McEstimate(value=value, stderr=stderr, samples=N,
                      batches=batches, refined=refined, seed=seed,
                      radius=R_b)


# ---------------------------------------------------------------------------
# polygonal bodies from support values (planar)
# ---------------------------------------------------------------------------

@dataclass
class PlanarPolygon:
    vertices: np.ndarray          # (k, 2), counterclockwise
    area: float
    perimeter: float


_HULL_SCALE = float(1 << 40)


def _convex_hull_ccw(pts):
    """Monotone chain on integer-scaled coordinates for exact orientation."""
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


def wulff_polygon(directions, support_values):
    """Intersection of the half-planes <x, u_k> <= h_k (planar).

    Uses polar duality: the polygon's vertices correspond to edges of the
    convex hull of the points u_k / h_k, and each vertex solves the two
    adjacent touching-line equations exactly.  Requires all h_k > 0 and the
    origin interior."""
    directions = np.asarray(directions, dtype=float)
    support_values = np.asarray(support_values, dtype=float)
    if np.any(support_values <= 0):
        raise ValueError("support values must be positive")
    dual = directions / support_values[:, None]
    p = _convex_hull_ccw(dual)
    q = np.roll(p, -1, axis=0)
    # <p, v> = <q, v> = 1 by Cramer's rule
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    verts = (np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]])
             / det[:, None])
    nxt = np.roll(verts, -1, axis=0)
    area = 0.5 * float(np.sum(verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]))
    perim = float(np.sum(np.linalg.norm(nxt - verts, axis=1)))
    return PlanarPolygon(vertices=verts, area=area, perimeter=perim)
