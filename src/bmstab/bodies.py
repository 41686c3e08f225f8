"""Convex bodies given by support functions on a sphere grid.

A body is accepted only if its support candidate h is strictly positive and
the curvature matrix Q(h; u) is positive definite at every grid node; the
smallest eigenvalue and the offending node are reported otherwise.  The
measure of a body under a radial density f uses the boundary parametrization
by the outer normal:

    gamma(K) = int_{S^{n-1}} h(u) det Q(h; u) A(D(u)) du,
    D(u)^2   = h(u)^2 + |grad_S h(u)|^2,

with A the first radial moment of the density at scale D."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyder

from . import measures as _measures
from .sphere import (CurvatureField, PolynomialSF, SphereGrid,
                     SphericalFunction, ball_volume, batch_min_eig,
                     curvature_matrix, det_poly, horner, sf_exp,
                     sf_product_powers, sf_ratio, sf_sum, sphere_area)


class NonPositiveSupport(ValueError):
    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


class NotConvex(ValueError):
    def __init__(self, msg, node=None, min_eig=None):
        super().__init__(msg)
        self.node = node
        self.min_eig = min_eig


class FamilyError(ValueError):
    pass


@dataclass
class Body:
    h: SphericalFunction
    grid: SphereGrid = field(repr=False)
    curvature: CurvatureField = field(repr=False)
    D: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.grid.n

    @property
    def hvals(self):
        return self.curvature.val


def body_from_support(h, grid):
    """Validate a support-function candidate and cache its boundary data."""
    if h.n != grid.n:
        raise ValueError("support function dimension does not match the grid")
    cf = curvature_matrix(h, grid)
    if np.any(cf.val <= 0.0):
        i = int(np.argmin(cf.val))
        raise NonPositiveSupport(
            f"support function nonpositive (h={cf.val[i]:.6g} at node {i})",
            node=grid.nodes[i])
    if np.any(cf.min_eig <= 0.0):
        i = int(np.argmin(cf.min_eig))
        raise NotConvex(
            "curvature matrix not positive definite "
            f"(min eigenvalue {cf.min_eig[i]:.6g} at node {i})",
            node=grid.nodes[i], min_eig=float(cf.min_eig[i]))
    D = np.sqrt(cf.val ** 2 + np.sum(cf.grad ** 2, axis=1))
    return Body(h=h, grid=grid, curvature=cf, D=D)


def ball_body(radius, grid):
    return body_from_support(PolynomialSF.constant(grid.n, radius), grid)


def minkowski_combine(K, L, lam):
    """Body of the support combination lam*h_K + (1-lam)*h_L."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    if K.grid is not L.grid:
        raise ValueError("bodies must share a grid")
    h = sf_sum([(lam, K.h), (1.0 - lam, L.h)])
    return body_from_support(h, K.grid)


def log_combine(K, L, lam):
    """Body of the geometric support mean h_K^lam h_L^{1-lam}.

    The pointwise mean need not be a support function; validation raises
    NotConvex in that case."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    if K.grid is not L.grid:
        raise ValueError("bodies must share a grid")
    h = sf_product_powers([(K.h, lam), (L.h, 1.0 - lam)])
    return body_from_support(h, K.grid)


def measure_of_body(measure, body):
    """gamma(K) by outer spherical quadrature and inner radial moments."""
    g = body.grid
    A = _measures.radial_profile(measure, body.D, g.n, powers=(0,))[0]
    vals = body.hvals * body.curvature.det * A
    return float(np.sum(g.weights * vals))


def ball_intrinsic_volume(n, j):
    """Closed-form intrinsic volume V_j of the unit ball in R^n."""
    return math.comb(n, j) * ball_volume(n) / ball_volume(n - j)


def quermassintegrals(body):
    """Intrinsic volumes [V_0, ..., V_n] from the curvature matrices.

    V_j for j < n integrates the t^j coefficient of det(I + t Q); the
    normalization constants are calibrated so a Euclidean ball reproduces
    its closed-form values exactly."""
    g = body.grid
    n = g.n
    Q = body.curvature.Q
    e = det_poly([np.broadcast_to(np.eye(n - 1), Q.shape), Q])
    out = []
    for j in range(n):
        cal = ball_intrinsic_volume(n, j) / (math.comb(n - 1, j) * sphere_area(n))
        out.append(cal * float(np.sum(g.weights * e[j])))
    vol = float(np.sum(g.weights * body.hvals * e[n - 1])) / n
    out.append(vol)
    return out


# ---------------------------------------------------------------------------
# perturbation families
# ---------------------------------------------------------------------------

VALIDITY_EIG_FLOOR = 0.05
_MAX_RADIUS = 8.0       # make_family's cap on the validity radius
_NEWTON_STEPS = 60      # cap on the multiplicative radius' Newton steps
_S_CHUNK = 32           # parameters per measures_along batch


def _leibniz(a, b):
    # (ab, (ab)', (ab)'') from (a, a', a'') and (b, b', b'')
    return [a[0] * b[0], a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2]]


def _norm_sq_coefficients(uc, u1):
    """Coefficients in t of |uc + t u1|^2 over the rows of (m, k) stacks:
    |uc|^2, 2 <uc, u1> and |u1|^2, each summed one column at a time from
    the left, as poly_mul([uc, u1], np.stack([uc, u1])).sum(axis=2) sums
    them, so bitwise equal (the + 0.0 turns a -0.0 product into the +0.0
    that its 0 + x + x gives) without its (3, m, k) products."""
    a, b = uc.T, u1.T
    q = np.stack([a[0] * a[0], a[0] * b[0] + 0.0, b[0] * b[0]])
    for aj, bj in zip(a[1:], b[1:]):
        q[0] += aj * aj
        q[1] += aj * bj
        q[2] += bj * bj
    q[1] *= 2.0
    return q


def _reach(num, den):
    # num / den where den > 0, else inf: a bound that never binds
    return np.divide(num, den, out=np.full(np.shape(den), np.inf),
                     where=den > 0.0)


def _pencil_spread(B, C):
    """max |mu| over the eigenvalues mu of L^-1 C L^-T, L L^T = B, for each
    pair in (..., N, N) stacks of symmetric C and positive definite B, so
    that B + s C is positive semidefinite exactly for |s| <= 1 / max |mu|.
    N = 1 and N = 2 are closed forms on the lower triangles, as in
    sphere.batch_min_eig; N >= 3 calls LAPACK."""
    N = B.shape[-1]
    if N == 1:
        return np.abs(C[..., 0, 0]) / B[..., 0, 0]
    if N == 2:
        l11 = np.sqrt(B[..., 0, 0])
        l21 = B[..., 1, 0] / l11
        l22 = np.sqrt(B[..., 1, 1] - l21 * l21)
        y00, y01 = C[..., 0, 0] / l11, C[..., 1, 0] / l11   # Y = L^-1 C
        y10 = (C[..., 1, 0] - l21 * y00) / l22
        y11 = (C[..., 1, 1] - l21 * y01) / l22
        m00, m10 = y00 / l11, y10 / l11                     # M = L^-1 Y^T
        m11 = (y11 - l21 * m10) / l22
        return np.abs(0.5 * (m00 + m11)) + np.hypot(0.5 * (m00 - m11), m10)
    Li = np.linalg.inv(np.linalg.cholesky(B))
    mu = np.linalg.eigvalsh(Li @ C @ np.swapaxes(Li, -1, -2))
    return np.maximum(-mu[..., 0], mu[..., -1])


def _min_eig_slope(A, C):
    """lambda_min(A) and x^T C x, x a unit eigenvector for it, for each pair
    in (..., N, N) stacks of symmetric A and C: the slope of the concave
    s -> lambda_min(A + s C) at s = 0, and a supergradient of it where the
    smallest eigenvalue repeats (the mean of C's diagonal at N = 2).
    Closed forms on the lower triangles for N <= 2; N >= 3 calls eigh."""
    N = A.shape[-1]
    if N == 1:
        return A[..., 0, 0], C[..., 0, 0]
    if N == 2:
        e, b = 0.5 * (A[..., 0, 0] - A[..., 1, 1]), A[..., 1, 0]
        r = np.hypot(e, b)
        tilt = np.divide(e * (0.5 * (C[..., 0, 0] - C[..., 1, 1]))
                         + b * C[..., 1, 0], r, out=np.zeros_like(r),
                         where=r > 0.0)
        return (0.5 * (A[..., 0, 0] + A[..., 1, 1]) - r,
                0.5 * (C[..., 0, 0] + C[..., 1, 1]) - tilt)
    lam, X = np.linalg.eigh(A)
    x = X[..., 0]
    return lam[..., 0], np.einsum("...i,...ij,...j->...", x, C, x)


@dataclass
class PerturbationFamily:
    """One-parameter family of support candidates along the initial
    velocity psi = direction, dh_s/ds at s = 0 for both kinds:

    additive:        h_s = h + s psi
    multiplicative:  h_s = h e^{s psi / h} = h phi^s,  phi = e^{psi / h}

    At each grid node Q(h_s) = w(s) (C0 + s C1 + s^2 C2) and
    D(s)^2 = w(s)^2 |u0 + s u1|^2, with coefficients computed at
    construction from the curvature fields Q0 = Q(h) and Q1 = Q(psi | phi).
    Additive: w = 1, C0 = Q0, C1 = Q1, C2 = 0, u = (h, grad h), (psi, grad psi).
    Multiplicative: w = h_s, u = (1, w_h), (0, w_phi) with w_f = grad f / f,
    and with frames E, C0 = Q0 / h, C2 = (E w_phi)(E w_phi)^T and
    C1 = Q1 / phi - I + (E w_h)(E w_phi)^T + (E w_phi)(E w_h)^T - C2.

    The base must be a body: body_from_support validates it, raising
    NonPositiveSupport or NotConvex, before the direction is read.  `a` is
    the validity radius (0 unless given; make_family computes it): at every
    node and every |s| <= a, h_s > 0 and w(s) lambda_min(C0 + s C1) >=
    VALIDITY_EIG_FLOOR * (base body's minimum eigenvalue).  That value is
    concave (additive) or log-concave (multiplicative) in s, so checking
    s = +-a covers the whole interval, and each node's largest radius is a
    root in closed form (additive) or of a concave function (multiplicative).
    It is the exact smallest eigenvalue for additive families and, as
    C2 >= 0, a lower bound for multiplicative ones.  Nothing between nodes
    is checked.  search_trace lists the radii make_family probed, each with
    its verdict.

    A family whose node data (v0, v1, u0, u1, C0, C1, C2) are bitwise the
    same at every node, as a ball's dilation is, is node-uniform: it keeps
    node 0's row of each, which the grid weights meet in the final sum, and
    every result is bitwise that of keeping every node."""

    kind: str
    base: SphericalFunction
    direction: SphericalFunction
    grid: SphereGrid = field(repr=False)
    a: float = 0.0
    search_trace: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        """Node values v0, v1 of base and direction (phi for multiplicative
        families), the stacks u0, u1, the coefficients C0, C1, C2 of Q(h_s)
        and the validity floor, from the curvature field of the validated
        base body and one of psi or phi.  phi must be strictly positive at
        the nodes: e^{psi / h} underflows to 0 where psi / h < -745."""
        if self.kind not in ("additive", "multiplicative"):
            raise FamilyError(f"unknown family kind {self.kind!r}")
        g = self.grid
        f0 = body_from_support(self.base, g).curvature
        d = self.direction
        if self.kind == "multiplicative":
            d = self.phi = sf_exp(sf_ratio(d, self.base))
        f1 = curvature_matrix(d, g)
        if self.kind == "multiplicative" and np.any(f1.val <= 0.0):
            raise FamilyError("e^{psi/h} underflows to 0 at a node: the "
                              "multiplicative ratio must be strictly positive")
        self.floor = VALIDITY_EIG_FLOOR * float(np.min(f0.min_eig))
        self.v0, self.v1 = f0.val, f1.val
        if self.kind == "additive":
            self.u0 = np.column_stack([f0.val, f0.grad])
            self.u1 = np.column_stack([f1.val, f1.grad])
            self.C0, self.C1, self.C2 = f0.Q, f1.Q, 0.0
        else:
            g0 = f0.grad / f0.val[:, None]
            g1 = f1.grad / f1.val[:, None]
            self.u0 = np.column_stack([np.ones(g.count), g0])
            self.u1 = np.column_stack([np.zeros(g.count), g1])
            Eh, Ed = (np.einsum("map,mp->ma", g.frames, v) for v in (g0, g1))
            cross = np.einsum("ma,mb->mab", Eh, Ed)
            self.C2 = np.einsum("ma,mb->mab", Ed, Ed)
            self.C0 = f0.Q / f0.val[:, None, None]
            self.C1 = (f1.Q / f1.val[:, None, None] - np.eye(g.n - 1)
                       + cross + cross.transpose(0, 2, 1) - self.C2)
        stacks = [k for k in ("v0", "v1", "u0", "u1", "C0", "C1", "C2")
                  if np.ndim(getattr(self, k))]     # C2 = 0.0 if additive
        if all(np.all(b == b[:1]) for b in (np.ascontiguousarray(
                getattr(self, k)).view(np.uint64) for k in stacks)):
            for k in stacks:
                setattr(self, k, getattr(self, k)[:1].copy())

    # -- supports ---------------------------------------------------------

    def support_at(self, s):
        if self.kind == "additive":
            return sf_sum([(1.0, self.base), (float(s), self.direction)])
        return sf_product_powers([(self.base, 1.0), (self.phi, float(s))])

    def body_at(self, s):
        if abs(s) > self.a:
            raise FamilyError(
                f"s={s:g} outside the validity radius {self.a:g}")
        return body_from_support(self.support_at(s), self.grid)

    # -- batched node fields ------------------------------------------------

    def _values(self, s, out=None):
        # h_s at the stored nodes, shaped (S, len(v0)), for S parameters s
        # (any shape), into out if given
        s = np.reshape(s, (-1, 1))
        if self.kind == "additive":
            return np.add(self.v0, np.multiply(s, self.v1, out=out), out=out)
        return np.multiply(self.v0, np.power(self.v1, s, out=out), out=out)

    def _expansions(self, s_values):
        # per chunk of _S_CHUNK parameters about its centre s_c: the chunk's
        # start and parameters, t = s - s_c shaped (S, 1), and the node
        # coefficients in t of det Q(h_s) / w^(n-1) and of D(s)^2 / w^2,
        # which are formed in the yield so that no chunk's outlive it here
        if s_values.ndim != 1:
            raise ValueError(
                f"s_values must be 1-D, got shape {s_values.shape}")
        u0, u1, C0, C1, C2 = self.u0, self.u1, self.C0, self.C1, self.C2
        extra = [C2] if self.kind == "multiplicative" else []
        for lo in range(0, s_values.size, _S_CHUNK):
            sl = s_values[lo:lo + _S_CHUNK]
            sc = 0.5 * (sl.min() + sl.max())
            uc = u0 + sc * u1
            yield (lo, sl, (sl - sc)[:, None],
                   det_poly([C0 + sc * (C1 + sc * C2), C1 + 2.0 * sc * C2]
                            + extra),
                   _norm_sq_coefficients(uc, u1))

    def measures_along(self, measure, s_values):
        """gamma(K_{h_s}) for a 1-D batch of parameters (no per-s validation;
        callers must stay inside the validity radius).  Per chunk of
        _S_CHUNK parameters, det Q(h_s) / w^(n-1) and D(s)^2 / w^2 are exact
        polynomials in t = s - s_c about the chunk's centre s_c (at s = 0
        they cancel near s = -a), evaluated by sphere.horner at the stored
        nodes.  One (S, m) buffer per call holds a chunk's D(s), which picks
        the radial route, then its rows f A w; tiles of _CHEB_BLOCK scales
        keep h_s, f and the in-place Clenshaw pass in cache, bitwise the
        one-pass product."""
        s_values = np.asarray(s_values, dtype=float)
        out = np.empty(s_values.size)
        w, n = self.grid.weights, self.grid.n
        k = self.v0.size                            # stored nodes
        S = min(s_values.size, _S_CHUNK)
        rows = min(S, max(1, _measures._CHEB_BLOCK // k))   # per tile
        buf = np.empty((S, w.size))
        hf = np.empty((2, rows, k))
        work = np.empty((5, rows * k))      # _clenshaw's buffers for A alone
        for lo, sl, t, p, q in self._expansions(s_values):
            rows_f = buf[:sl.size]              # D(s), then f A w
            D = rows_f[:, :k]
            tiles = [slice(i, i + rows) for i in range(0, sl.size, rows)]
            for r in tiles:
                Dr = np.sqrt(horner(q, t[r], out=D[r]), out=D[r])
                if self.kind == "multiplicative":
                    Dr *= self._values(sl[r], out=hf[0, :len(Dr)])
            fit, A = _measures._profile_fit(measure, D.ravel(), n, (0,))
            for r in tiles:
                h, f = hf[:, :len(sl[r])]
                self._values(sl[r], out=h)
                horner(p, t[r], out=f)
                f *= h if self.kind == "additive" else np.power(h, n, out=h)
                f *= (A.reshape(D.shape)[r] if fit is None else
                      _measures._clenshaw(D[r], fit, work).reshape(f.shape))
                np.multiply(f, w, out=rows_f[r])
            out[lo:lo + _S_CHUNK] = rows_f.sum(axis=1)
            del p, q                # before the next chunk's are formed
        return out

    def derivatives_along(self, measure, s_values):
        """(g, g', g'') for g(s) = gamma(K_{h_s}) over a batch of parameters,
        from the polynomials of measures_along (same caveat on the validity
        radius).  With H = h_s det Q(h_s) and the moments A, B = dA/dD and
        C = d^2A/dD^2 at D(s), the product rule on H A(D(s)), summed with the
        grid weights w, gives

            g'  = sum w (H' A + H B D'),
            g'' = sum w (H'' A + 2 H' B D' + H (C D'^2 + B D'')).

        Multiplicative families differentiate through the factors w(s) = h_s,
        with h_s' = h_s log phi."""
        s_values = np.asarray(s_values, dtype=float)
        out = np.empty((3, s_values.size))
        w, n = self.grid.weights, self.grid.n
        for lo, sl, t, p, q in self._expansions(s_values):
            h = self._values(sl)
            P = [horner(polyder(p, k), t) for k in range(3)]
            q0, q1, q2 = (horner(polyder(q, k), t) for k in range(3))
            E = np.sqrt(q0)                 # D / w and its derivatives
            E1 = q1 / (2.0 * E)
            D = [E, E1, (q2 - 2.0 * E1 ** 2) / (2.0 * E)]
            if self.kind == "additive":
                H = _leibniz([h, self.v1, 0.0], P)
            else:
                L = np.log(self.v1)
                H = _leibniz([h ** n * (n * L) ** k for k in range(3)], P)
                D = _leibniz([h * L ** k for k in range(3)], D)
            A, B, C = _measures.radial_profile(
                measure, D[0], n, (0, 1, 2)).reshape((3,) + D[0].shape)
            terms = _leibniz(H, [A, B * D[1], C * D[1] ** 2 + B * D[2]])
            out[:, lo:lo + _S_CHUNK] = (np.stack(terms) * w).sum(axis=2)
        return out[0], out[1], out[2]

    # -- validity -----------------------------------------------------------

    def _valid_on(self, bound):
        # the predicate for |s| <= bound, evaluated at s = +-bound only, at
        # the stored nodes
        s = np.array([-bound, bound]).reshape(2, 1, 1, 1)
        vals = self._values(s)
        lam = batch_min_eig(self.C0 + s * self.C1)
        w = vals if self.kind == "multiplicative" else 1.0
        return bool(np.all(vals > 0.0) and np.all(w * lam >= self.floor))

    def _radius(self):
        # the predicate's largest radius at most _MAX_RADIUS, from per-node
        # bounds; rounding may still fail the predicate at it
        if self.kind == "additive":
            eye = np.eye(self.grid.n - 1)
            bounds = (_reach(1.0, _pencil_spread(self.C0 - self.floor * eye,
                                                 self.C1)),
                      _reach(self.v0, np.abs(self.v1)))
        else:
            bounds = (self._multiplicative_roots(),)
        return float(min(_MAX_RADIUS, *(np.min(b) for b in bounds)))

    def _multiplicative_roots(self):
        # per node and side, the first |s| with w(s) lambda_min(C0 + s C1) =
        # floor, capped at _MAX_RADIUS: the root of the concave
        # G(s) = lambda_min(C0 + s C1) - (floor / v0) phi^-s and, where
        # lambda_min > 0, of the concave H(s) = log(lambda_min v0 / floor) +
        # s log phi.  The side s < 0 is the side s > 0 of (C1, log phi) ->
        # (-C1, -log phi).  Newton's method from s = 0 takes the nearer
        # tangent root of G and H, which stays on the infeasible side, as
        # every tangent (with any supergradient at a kink) lies above its
        # concave function; H's is exact where phi^-s dominates.  The chord
        # of G from s = 0 lies below G, so a node whose chord root exceeds
        # the least iterate cannot hold the minimum and stops.
        C0 = np.concatenate([self.C0, self.C0])
        C1 = np.concatenate([self.C1, -self.C1])
        ell = np.log(self.v1)
        ell = np.concatenate([ell, -ell])
        c = np.tile(self.floor / self.v0, 2)

        def tangent_roots(i, x):
            # G at x on the rows i and the nearer tangent root of G and H
            lam, slope = _min_eig_slope(C0[i] + x[:, None, None] * C1[i],
                                        C1[i])
            e = c[i] * np.exp(-x * ell[i])
            pos = lam > 0.0
            q = np.divide(lam, c[i], out=np.ones_like(lam), where=pos)
            dH = np.divide(slope, lam, out=np.full_like(lam, np.inf),
                           where=pos) + ell[i]
            return lam - e, np.fmin(x + _reach(lam - e, -slope - ell[i] * e),
                                    x + _reach(np.log(q) + x * ell[i], -dH))

        rows = np.arange(c.size)
        g0, t = tangent_roots(rows, np.zeros(c.size))
        x = np.fmin(t, _MAX_RADIUS)
        for _ in range(_NEWTON_STEPS):
            xr = x[rows]
            g, t = tangent_roots(rows, xr)
            lo = xr * g0[rows] / (g0[rows] - np.minimum(g, 0.0))
            x[rows] = np.where(g < 0.0, np.fmin(t, xr), xr)
            rows = rows[(xr - x[rows] > 2.0 ** -50 * xr) & (lo < np.min(x))]
            if not rows.size:
                break
        return x


def make_family(kind, h, direction, grid):
    """Build a perturbation family (which validates its base h) and set its
    validity radius: the least over nodes of the per-node radii, at most
    _MAX_RADIUS.  Additive families take them in closed form (the pencil
    C0 - floor I + s C1 and h + s psi > 0), multiplicative ones by Newton's
    method.  The radius is then confirmed against the two-endpoint
    predicate, stepping down by a doubling number of ulps while rounding
    fails it; search_trace lists each probed radius and its verdict."""
    fam = PerturbationFamily(kind=kind, base=h, direction=direction, grid=grid)
    a, step = fam._radius(), 0.0
    while a > 0.0:
        ok = fam._valid_on(a)
        fam.search_trace.append((a, ok))
        if ok:
            fam.a = a
            return fam
        step = 2.0 * step or math.ulp(a)
        a -= step
    raise FamilyError("family degenerates for arbitrarily small s")
