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

from . import measures as _measures
from .sphere import (CurvatureField, PolynomialSF, SphereGrid,
                     SphericalFunction, ball_volume, batch_det,
                     batch_min_eig, curvature_matrix, sf_product_powers,
                     sf_sum, sphere_area)


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

    @property
    def grad0(self):
        return self.curvature.grad

    @property
    def min_curvature_eig(self):
        return float(np.min(self.curvature.min_eig))


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


def _elementary_symmetric(eigs):
    m, N = eigs.shape
    e = np.zeros((m, N + 1))
    e[:, 0] = 1.0
    for j in range(N):
        for k in range(min(j + 1, N), 0, -1):
            e[:, k] += eigs[:, j] * e[:, k - 1]
    return e


def ball_intrinsic_volume(n, j):
    """Closed-form intrinsic volume V_j of the unit ball in R^n."""
    return math.comb(n, j) * ball_volume(n) / ball_volume(n - j)


def quermassintegrals(body):
    """Intrinsic volumes [V_0, ..., V_n] from curvature eigenvalues.

    V_j for j < n integrates the j-th elementary symmetric function of the
    principal curvature radii; the normalization constants are calibrated so
    a Euclidean ball reproduces its closed-form values exactly."""
    g = body.grid
    n = g.n
    eigs = np.linalg.eigvalsh(body.curvature.Q)
    e = _elementary_symmetric(eigs)
    out = []
    for j in range(n):
        cal = ball_intrinsic_volume(n, j) / (math.comb(n - 1, j) * sphere_area(n))
        out.append(cal * float(np.sum(g.weights * e[:, j])))
    vol = float(np.sum(g.weights * body.hvals * e[:, n - 1])) / n
    out.append(vol)
    return out


# ---------------------------------------------------------------------------
# perturbation families
# ---------------------------------------------------------------------------

VALIDITY_EIG_FLOOR = 0.05
_BISECTION_STEPS = 40
_S_CHUNK = 32           # parameters per measures_along batch


@dataclass
class PerturbationFamily:
    """One-parameter family of support candidates.

    additive:        h_s = h + s psi
    multiplicative:  h_s = h * phi^s   (phi strictly positive)

    At each grid node Q(h_s) = w(s) (C0 + s C1 + s^2 C2), with coefficients
    computed once from the curvature fields Q0 = Q(h) and Q1 = Q(direction).
    Additive: w = 1, C0 = Q0, C1 = Q1, C2 = 0.  Multiplicative: w = h_s and,
    with frames E and w_f = grad f / f, C0 = Q0 / h, C2 = (E w_phi)(E w_phi)^T
    and C1 = Q1 / phi - I + (E w_h)(E w_phi)^T + (E w_phi)(E w_h)^T - C2.

    `a` is the validity radius: at every node and every |s| <= a, h_s > 0 and
    w(s) lambda_min(C0 + s C1) >= VALIDITY_EIG_FLOOR * (base body's minimum
    eigenvalue).  That value is concave (additive) or log-concave
    (multiplicative) in s, so checking s = +-a covers the whole interval.  It
    is the exact smallest eigenvalue for additive families and, as C2 >= 0, a
    lower bound for multiplicative ones.  Nothing between nodes is checked."""

    kind: str
    base: SphericalFunction
    direction: SphericalFunction
    grid: SphereGrid = field(repr=False)
    a: float = 0.0
    search_trace: list = field(default_factory=list, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.grid.n

    # -- supports ---------------------------------------------------------

    def support_at(self, s):
        if self.kind == "additive":
            return sf_sum([(1.0, self.base), (float(s), self.direction)])
        return sf_product_powers([(self.base, 1.0), (self.direction, float(s))])

    def body_at(self, s):
        if abs(s) > self.a:
            raise FamilyError(
                f"s={s:g} outside the validity radius {self.a:g}")
        return body_from_support(self.support_at(s), self.grid)

    # -- batched node fields ------------------------------------------------

    def _coefficients(self):
        """Node data of h_s (values v0, v1 and gradient terms g0, g1), the
        coefficients C0, C1, C2 of Q(h_s) and the validity floor, computed
        on first use from one curvature field of the base and one of the
        direction.  make_family seeds the base's field from its validated
        body; the seed is released once the coefficients are built."""
        c, g = self._cache, self.grid
        if "C1" not in c:
            f0 = c.pop("base_field", None) or curvature_matrix(self.base, g)
            f1 = curvature_matrix(self.direction, g)
            c["floor"] = VALIDITY_EIG_FLOOR * float(np.min(f0.min_eig))
            c["v0"], c["v1"] = f0.val, f1.val
            if self.kind == "additive":
                c["g0"], c["g1"] = f0.grad, f1.grad
                c["C0"], c["C1"], c["C2"] = f0.Q, f1.Q, 0.0
            else:
                c["g0"] = f0.grad / f0.val[:, None]
                c["g1"] = f1.grad / f1.val[:, None]
                Eh, Ed = (np.einsum("map,mp->ma", g.frames, c[k])
                          for k in ("g0", "g1"))
                cross = np.einsum("ma,mb->mab", Eh, Ed)
                c["C2"] = np.einsum("ma,mb->mab", Ed, Ed)
                c["C0"] = f0.Q / f0.val[:, None, None]
                c["C1"] = (f1.Q / f1.val[:, None, None] - np.eye(g.n - 1)
                           + cross + cross.transpose(0, 2, 1) - c["C2"])
        return c

    def _values(self, s):
        # h_s at the nodes, (S, m), for parameters s shaped (S, 1, 1, 1)
        c = self._coefficients()
        if self.kind == "additive":
            return c["v0"] + s[..., 0, 0] * c["v1"]
        return c["v0"] * c["v1"] ** s[..., 0, 0]

    def curvature_batch(self, s_values):
        """Support values, spherical gradients and frame curvature matrices
        of h_s at the grid nodes for a batch of parameters, shapes (S, m),
        (S, m, n), (S, m, n-1, n-1)."""
        c = self._coefficients()
        s = np.asarray(s_values, dtype=float).reshape(-1, 1, 1, 1)
        vals = self._values(s)
        grads = c["g0"] + s[..., 0] * c["g1"]
        Q = c["C0"] + s * (c["C1"] + s * c["C2"])
        if self.kind == "multiplicative":
            grads = vals[..., None] * grads
            Q = vals[..., None, None] * Q
        return vals, grads, Q

    def measures_along(self, measure, s_values):
        """gamma(K_{h_s}) for a batch of parameters (no per-s validation;
        callers must stay inside the validity radius)."""
        s_values = np.asarray(s_values, dtype=float)
        out = np.empty(s_values.size)
        w = self.grid.weights
        n = self.grid.n
        for lo in range(0, s_values.size, _S_CHUNK):
            sl = s_values[lo:lo + _S_CHUNK]
            vals, grads, Q = self.curvature_batch(sl)
            det = batch_det(Q.reshape(-1, n - 1, n - 1))
            D = np.sqrt(vals ** 2 + np.sum(grads ** 2, axis=2)).ravel()
            A = _measures.radial_profile(measure, D, n, powers=(0,))[0]
            integrand = (vals.ravel() * det * A).reshape(len(sl), -1)
            out[lo:lo + _S_CHUNK] = (integrand * w).sum(axis=1)
        return out

    # -- validity -----------------------------------------------------------

    def _valid_on(self, bound):
        # the predicate for |s| <= bound, evaluated at s = +-bound only
        c = self._coefficients()
        s = np.array([-bound, bound]).reshape(2, 1, 1, 1)
        vals = self._values(s)
        lam = batch_min_eig(c["C0"] + s * c["C1"])
        w = vals if self.kind == "multiplicative" else 1.0
        return bool(np.all(vals > 0.0) and np.all(w * lam >= c["floor"]))


def make_family(kind, h, direction, grid, max_radius=8.0):
    """Build a perturbation family and locate its validity radius by
    bisection (40 steps against the two-endpoint predicate)."""
    if kind not in ("additive", "multiplicative"):
        raise FamilyError(f"unknown family kind {kind!r}")
    base_body = body_from_support(h, grid)    # validates the base
    if kind == "multiplicative":
        if np.any(direction.values(grid.nodes) <= 0.0):
            raise FamilyError(
                "multiplicative direction must be strictly positive")
    fam = PerturbationFamily(kind=kind, base=h, direction=direction,
                             grid=grid)
    fam._cache["base_field"] = base_body.curvature
    trace = []
    if fam._valid_on(max_radius):
        fam.a = max_radius
        trace.append((max_radius, True))
    else:
        lo, hi = 0.0, max_radius
        trace.append((max_radius, False))
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            ok = fam._valid_on(mid)
            trace.append((mid, ok))
            if ok:
                lo = mid
            else:
                hi = mid
        fam.a = lo
    if fam.a <= 0.0:
        raise FamilyError("family degenerates for arbitrarily small s")
    fam.search_trace = trace
    return fam
