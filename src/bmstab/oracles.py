"""Independent cross-checks: Monte Carlo measure estimates, finite
differences, and polygonal approximations.

The Monte Carlo route samples a ball uniformly and classifies points
against the support function directly, the polygon route intersects
half-planes exactly, and the finite-difference helpers only evaluate the
callables they are given; none of them uses the spherical quadrature or the
radial-moment machinery.  mc_measure settles a sample in three stages.
First by its radius: in the plane by the inner and outer radius of its
direction bin (_bin_radii, from the polar-body identity
rho_K = 1 / h_{K polar} on the net's dual points u_j / h_j, each bin of
half-angle at most pi/2), in higher dimensions by one inner ball about the
net's estimate of the Steiner point (_steiner_ball).  Then by a lower bound
on the net maximum, _net_max over the cell centres, which places it
outside.  Last, it meets only the net directions of the cells whose
first-order upper bound <x, c_k> + |x| t_k - min h reaches that lower bound
(_candidate_max), never the whole net.  One datum is still borrowed from
the route under test: mc_measure sizes its uncertainty band with max |Q| of
the body's curvature matrices at the quadrature nodes (body.curvature.Q).
ROADMAP.md, item 1, takes that scale from the support function's own sup
bound instead.
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

def central_derivative(fn, x0=0.0, order=1, step=1e-3):
    """Richardson-refined central difference of a scalar function.

    Combines the classical stencils at widths `step` and `step/2`, removing
    the O(step^2) error term.  `fn` is called once, on the whole stencil
    array (4 points for order 1, 5 for order 2), and returns an array of
    values at those points, as PerturbationFamily.measures_along does once
    its measure is bound."""
    h = float(step)
    if order == 1:
        pts = np.array([x0 - h, x0 - h / 2, x0 + h / 2, x0 + h])
    elif order == 2:
        pts = np.array([x0 - h, x0 - h / 2, x0, x0 + h / 2, x0 + h])
    else:
        raise ValueError("order must be 1 or 2")
    vals = np.asarray(fn(pts), dtype=float)
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
    bounded: int = 0                # rows that reached the cell bounds

    def agrees_with(self, reference):
        # within four standard errors; the absolute floor covers the
        # deterministic rounding bias of the sampling envelope, which matters
        # only when the indicator is constant across batches and stderr
        # collapses to zero
        floor = 1e-9 * max(1.0, abs(reference))
        return abs(self.value - reference) <= 4.0 * self.stderr + floor


def _fibonacci_sphere(m):
    # Fibonacci spiral: near-uniform covering of S^2 by m points
    i = np.arange(m) + 0.5
    z = 1.0 - 2.0 * i / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _coarse_directions(n):
    if n == 2:
        t = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    if n == 3:
        return _fibonacci_sphere(4096)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1234)))
    u = rng.standard_normal((8192, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _unit_rows(Z):
    """Scale the rows of Z to unit length in place.  The squares are summed
    column by column into one buffer, in the order of numpy's row reduction
    up to 7 columns (sequential there), so up to n = 7 the result is bitwise
    Z / np.linalg.norm(Z, axis=1, keepdims=True) with no (rows, n)
    temporary."""
    s = np.square(Z[:, 0])
    t = np.empty_like(s)
    for k in range(1, Z.shape[1]):
        np.square(Z[:, k], out=t)
        s += t
    np.sqrt(s, out=s)
    Z /= s[:, None]
    return Z


def _bin_of(Z, bins):
    """Direction bin of each planar unit row of Z: `bins` equal arcs by
    angle from -pi."""
    t = np.arctan2(Z[:, 1], Z[:, 0])
    t += math.pi
    t *= bins / (2 * math.pi)
    b = t.astype(np.intp)
    np.minimum(b, bins - 1, out=b)      # the angle pi itself
    return b


def _bin_radii(dirs, hdirs, s):
    """Per-bin radii r_in <= r_out of a planar net: a sample r z with z in
    bin b (_bin_of) has net maximum g = max_j <r z, u_j> - h_j below -s
    when r < r_in[b], and above s when r > r_out[b].

    With dual points p_j = u_j / h_j, h_min = min h_j > 0 and
    Phi(z) = max_j <z, p_j> (the net polygon's radial function is 1 / Phi),
    each term is h_j (r <z, p_j> - 1), so g <= h_min (r Phi - 1) when
    r Phi < 1 and g >= h_min (r Phi - 1) when r Phi > 1.  For z within the
    half-angle delta <= pi/2 of a bin centre z_b, with a = <z_b, p> and
    q = |<z_b^perp, p>|,
        min(a, a cos delta) - q sin delta <= <z, p>
                                          <= max(a, a cos delta) + q sin delta,
    whose maxima over j bound Phi on the bin.  The net gets len/2 arcs
    (delta widened by 1e-6 for the rounding of arctan2 and the floor in
    _bin_of).  The radii are inflated by 1e-9 against rounding."""
    bins = len(dirs) // 2
    r_in, r_out = np.zeros(bins), np.full(bins, np.inf)
    h_min = float(np.min(hdirs))
    if h_min <= 0.0:
        return r_in, r_out
    P = dirs / hdirs[:, None]
    t = (np.arange(bins) + 0.5) * (2 * math.pi / bins) - math.pi
    delta = math.pi / bins * (1.0 + 1e-6)
    cos_d, sin_d = math.cos(delta), math.sin(delta)
    # <z_b, P_perp_j> = <z_b^perp, p_j>
    P_perp = np.column_stack([P[:, 1], -P[:, 0]])
    phi_hi, phi_lo = np.empty(bins), np.empty(bins)
    for a in range(0, bins, 16):
        Zb = np.column_stack([np.cos(t[a:a + 16]), np.sin(t[a:a + 16])])
        A = Zb @ P.T
        Q = np.abs(Zb @ P_perp.T)
        Q *= sin_d
        Ac = A * cos_d
        np.max(np.maximum(A, Ac) + Q, axis=1, out=phi_hi[a:a + 16])
        np.minimum(A, Ac, out=A)
        A -= Q
        np.max(A, axis=1, out=phi_lo[a:a + 16])
    r_in = np.maximum((1.0 - s / h_min) / phi_hi * (1.0 - 1e-9), 0.0)
    pos = phi_lo > 0.0
    r_out[pos] = (1.0 + s / h_min) / phi_lo[pos] * (1.0 + 1e-9)
    return r_in, r_out


def _steiner_ball(dirs, hdirs, s):
    """The net's estimate c of the Steiner point, from the least-squares
    fit h_j ~ a + <c, u_j> (n mean_j h_j u_j on a balanced net, which a
    random net is not), and the radius r_c of the ball about c where the
    net maximum is below -s: with hc_j = h_j - <c, u_j>,
    <x, u_j> - h_j = <x - c, u_j> - hc_j <= |x - c| - min hc, whatever c
    is.  r_c is lowered by 1e-9 against rounding."""
    fit = np.column_stack([np.ones(len(dirs)), dirs])
    c = np.linalg.lstsq(fit, hdirs, rcond=None)[0][1:]
    hc_min = float(np.min(hdirs - dirs @ c))
    return c, max((hc_min - s) * (1.0 - 1e-9), 0.0)


def _farthest_points(dirs, k):
    # greedy farthest-point sampling: each pick maximises the least chord
    # distance to the picks before it, starting from dirs[0]
    idx = [0]
    nearest = dirs @ dirs[0]
    for _ in range(k - 1):
        idx.append(int(np.argmin(nearest)))
        np.maximum(nearest, dirs @ dirs[idx[-1]], out=nearest)
    return np.array(idx)


def _net_cells(dirs, hdirs):
    """Split the net into cells around _COARSE of its own directions c_k,
    picked by greedy farthest-point sampling.

    Per cell: c_k, h(c_k) (the net's value), the chord radius
    t_k >= |u_j - c_k| and the least value min h_j over the cell's
    directions u_j, read from the net's own values (nothing is assumed
    between them), and the net indices of its members in ascending order."""
    idx = _farthest_points(dirs, _COARSE)
    C = dirs[idx]
    cell = np.argmax(dirs @ C.T, axis=1)
    # zeros are safe starts: each centre lies in its own cell and gives 0
    t = np.zeros(len(idx))
    np.maximum.at(t, cell, np.linalg.norm(dirs - C[cell], axis=1))
    h_min = np.full(len(idx), np.inf)
    np.minimum.at(h_min, cell, hdirs)
    members = [np.flatnonzero(cell == k) for k in range(len(idx))]
    return C, hdirs[idx], t * (1.0 + 1e-9), h_min, members


def _cell_hi(rows, cells):
    """Per-cell bounds hi_k >= max_{u_j in cell k} <x, u_j> - h_j, one row
    per sample: <x, u_j> = <x, c_k> + <x, u_j - c_k> <= <x, c_k> + |x| t_k,
    so hi_k = <x, c_k> + |x| t_k - min h_j."""
    C, _, t, h_min = cells[:4]
    hi = rows @ C.T
    hi += np.sqrt(np.sum(rows * rows, axis=1))[:, None] * t
    hi -= h_min
    return hi


def _net_max(X, dirs, hdirs, block=_ROW_BLOCK):
    """Row-wise max and argmax of X @ dirs.T - hdirs, formed `block` rows
    at a time.  No product has a single row or a single column: numpy sends
    those to gemv, whose last bits can differ from the entries of a gemm
    product, so a lone row or direction is doubled."""
    cols = len(dirs)
    if cols == 1:
        dirs, hdirs = np.repeat(dirs, 2, axis=0), np.repeat(hdirs, 2)
    m = len(X)
    gmax = np.empty(m)
    imax = np.empty(m, dtype=np.intp)
    start = 0
    while start < m:
        stop = m if m - start <= block + 1 else start + block
        rows = X[start:stop]
        if len(rows) == 1:
            rows = np.repeat(rows, 2, axis=0)
        P = rows @ dirs.T
        P -= hdirs
        P = P[:stop - start, :cols]
        k = np.argmax(P, axis=1)
        imax[start:stop] = k
        gmax[start:stop] = P[np.arange(len(k)), k]
        start = stop
    return gmax, imax


def _candidate_max(X, floor, cells, dirs, hdirs):
    """Row-wise max and argmax of X @ dirs.T - hdirs over the candidate
    cells only: those whose _cell_hi bound reaches the row's `floor`, a
    lower bound on its maximum.  The other cells hold no entry that large,
    so the max is the dense one, and ties go to the lowest net index, as in
    np.argmax.  Each cell meets its candidate rows through _net_max in
    products of at most _ROW_BLOCK x len(dirs) entries, which gemm forms
    entry by entry as it would the dense product: the results are bitwise
    those of the dense product."""
    cand = np.empty((len(X), len(cells[0])), dtype=bool)
    for a in range(0, len(X), _ROW_BLOCK):
        np.greater_equal(_cell_hi(X[a:a + _ROW_BLOCK], cells),
                         floor[a:a + _ROW_BLOCK, None],
                         out=cand[a:a + _ROW_BLOCK])
    gmax = np.full(len(X), -np.inf)
    imax = np.zeros(len(X), dtype=np.intp)
    for k, members in enumerate(cells[4]):
        rows = np.flatnonzero(cand[:, k])
        if len(rows) == 0:
            continue
        g, j = _net_max(X[rows], dirs[members], hdirs[members],
                        _ROW_BLOCK * len(dirs) // max(2, len(members)))
        j = members[j]
        win = (g > gmax[rows]) | ((g == gmax[rows]) & (j < imax[rows]))
        gmax[rows[win]] = g[win]
        imax[rows[win]] = j[win]
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
    value; the others need only its sign, and most are settled by their
    radius, for s = band + eps.  A planar net gets len(dirs) / 2 equal
    arcs of half-angle pi / 512, each with radii r_in <= r_out
    (_bin_radii; a bin's bounds need a half-angle of at most pi/2): below
    r_in a sample is certainly inside, beyond r_out certainly outside.
    Other nets get one inner ball, about the net's estimate of the Steiner
    point (_steiner_ball), which stays wide when the body lies off the
    origin.  The rows left (McEstimate.bounded) meet _COARSE cells of the
    net (_net_cells) in two more stages.  _net_max over the 64 centres (net
    directions) is a lower bound, and above band + eps it places a sample
    outside.  Every other sample meets only the members of its candidate
    cells, those whose first-order upper bound (_cell_hi: chord radius and
    least net value per cell) reaches the lower bound (_candidate_max), and
    each row's best net direction starts its polish, whose Newton steps are
    taken for all polished rows at once.  The estimates are bitwise those
    of the full MC_BATCH x len(dirs) product, no part of which outside the
    candidate cells is formed."""
    if (isinstance(n_samples, bool)
            or not isinstance(n_samples, (int, np.integer)) or n_samples < 1):
        raise ValueError(
            f"n_samples must be a positive integer, got {n_samples!r}")
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
    cells = _net_cells(dirs, hdirs)
    # absorbs rounding in the radius tests and the cell bounds
    eps = 1e-7 * R_b
    if n == 2:
        r_in, r_out = _bin_radii(dirs, hdirs, band + eps)
    else:
        c, r_c = _steiner_ball(dirs, hdirs, band + eps)
        # |x - c|^2 for x = r z as formed in X is within delta =
        # (2n + 4) 2^-53 (r + |c|)^2 of d2 = r (r - 2 <z, c>) + |c|^2 as
        # formed below, so d2 < (r_c - sqrt(delta))^2 gives |x - c| < r_c;
        # d2 can round below 0, so an empty ball admits no row
        cc = float(c @ c)
        r_c -= math.sqrt((2 * n + 4) * 2.0 ** -53) * (R_b + math.sqrt(cc))
        r_c2 = r_c * r_c if r_c > 0.0 else -math.inf

    vol_ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * R_b ** n
    batches = (n_samples + MC_BATCH - 1) // MC_BATCH
    total = 0.0
    total_sq = 0.0
    refined = 0
    bounded = 0
    for b in range(batches):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, b])))
        Z = _unit_rows(rng.standard_normal((MC_BATCH, n)))
        radii = R_b * rng.random(MC_BATCH) ** (1.0 / n)

        if n == 2:
            # rows below their bin's r_in are inside, beyond its r_out outside
            k = _bin_of(Z, len(r_in))
            inside = radii < r_in[k]
            shell = np.flatnonzero(~inside & (radii <= r_out[k]))
        else:
            # rows in the ball about c are inside
            d2 = Z @ c
            d2 *= -2.0
            d2 += radii
            d2 *= radii
            d2 += cc
            inside = d2 < r_c2
            shell = np.flatnonzero(~inside)
        bounded += len(shell)
        X = Z[shell] * radii[shell, None]
        # lo above band + eps places a row outside; the others meet their
        # candidate cells
        lo = _net_max(X, *cells[:2])[0]
        keep = lo <= band + eps
        X, shell = X[keep], shell[keep]
        # a cell whose bound + eps stays below lo - eps cannot hold the max
        gmax, i0 = _candidate_max(X, lo[keep] - 2.0 * eps,
                                  cells, dirs, hdirs)
        unsure = np.abs(gmax) <= band
        if np.any(unsure):
            refined += int(np.sum(unsure))
            gmax[unsure] = _polish_support_max(
                h, X[unsure], dirs[i0[unsure]], gmax[unsure])
        inside[shell] = gmax <= 0.0
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
                      radius=R_b, bounded=bounded)


# ---------------------------------------------------------------------------
# polygonal bodies from support values (planar)
# ---------------------------------------------------------------------------

@dataclass
class PlanarPolygon:
    vertices: np.ndarray          # (k, 2), counterclockwise
    area: float
    perimeter: float


_HULL_SCALE = float(1 << 40)


def _chain(points):
    """Monotone chain over sorted (x, y) pairs of Python ints, which the
    2^40-scaled cross products overflow in int64; the last is left off."""
    out = []
    for x, y in points:
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                break
            out.pop()
        out.append((x, y))
    return out[:-1]


def _convex_hull_ccw(pts):
    """Monotone chain on integer-scaled coordinates for exact orientation,
    over the distinct rows sorted by x, then y."""
    P = np.round(pts * _HULL_SCALE).astype(np.int64)
    P = P[np.lexsort((P[:, 1], P[:, 0]))]
    P = P[np.r_[True, np.any(P[1:] != P[:-1], axis=1)]]
    if len(P) < 3:
        raise ValueError("degenerate direction set")
    P = P.tolist()
    hull = np.array(_chain(P) + _chain(P[::-1]), dtype=np.int64)
    return hull.astype(float) / _HULL_SCALE


def wulff_polygon(directions, support_values):
    """Intersection of the half-planes <x, u_k> <= h_k (planar).

    Uses polar duality: the polygon's vertices correspond to edges of the
    convex hull of the points u_k / h_k, and each vertex solves the two
    adjacent touching-line equations exactly.  Requires all h_k > 0 and the
    origin interior: a direction set whose half-planes bound no polygon
    (two consecutive dual hull points not turning counterclockwise about
    the origin) raises ValueError."""
    directions = np.asarray(directions, dtype=float)
    support_values = np.asarray(support_values, dtype=float)
    if np.any(support_values <= 0):
        raise ValueError("support values must be positive")
    dual = directions / support_values[:, None]
    p = _convex_hull_ccw(dual)
    q = np.roll(p, -1, axis=0)
    # <p, v> = <q, v> = 1 by Cramer's rule
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    if np.any(det <= 0.0):
        raise ValueError("the half-planes bound no polygon: the directions "
                         "leave the origin outside their dual hull's interior")
    verts = (np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]])
             / det[:, None])
    nxt = np.roll(verts, -1, axis=0)
    area = 0.5 * float(np.sum(verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]))
    perim = float(np.sum(np.linalg.norm(nxt - verts, axis=1)))
    return PlanarPolygon(vertices=verts, area=area, perimeter=perim)
