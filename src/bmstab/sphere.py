"""Grids, quadrature and differential operators on the unit sphere S^{n-1}.

Functions on the sphere are represented canonically as polynomials in the
ambient coordinates restricted to the sphere (trigonometric polynomials when
n = 2).  Composite functions (sums, products, quotients, powers, exp and
log of other functions) are compositions of the D2 bundle operations
d2_combine, d2_mul, d2_power, d2_log and d2_exp, and their values are the
bundle's values.  All derivatives are taken analytically through the
homogeneous extensions of the function:

* the 0-homogeneous extension  h0(x) = f(x/|x|)  carries the intrinsic data
  (its ambient gradient at a sphere point is the spherical gradient, the
  trace of its ambient Hessian is the Laplace-Beltrami image),
* the 1-homogeneous extension  F(x) = |x| f(x/|x|)  carries the data used by
  support-function geometry (its gradient at u is f(u) u + grad h0(u)).

The curvature matrix Q(h) = hess_S h + h I of a support candidate comes
from the 0-homogeneous bundle alone: on orthonormal tangent frames E
(E u = 0),

    Q(h; u) = h(u) I + E hess h0(u) E^T,

so one evaluation of `d2_ext0` per grid gives h, its spherical gradient and
Q together (`curvature_matrix`).  A grid's nodes are read-only, and inside
`_scope(_KEPT)` polynomials keep their bundles at the last grid's: every
later `d2_ext0` at that grid in the block returns them unevaluated.

Grids are products of one-dimensional rules: the trapezoid rule on the
circle, and for n >= 3 Gauss rules for the weights (1 - t^2)^{(n-3)/2} in
the last coordinate, computed by Golub-Welsch.  The module needs numpy only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def sphere_area(n):
    """Surface measure of S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n):
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


class GridError(ValueError):
    pass


# ---------------------------------------------------------------------------
# second-order derivative bundles (value / gradient / Hessian at node batches)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class D2:
    """Value, ambient gradient and ambient Hessian of a scalar field at a
    batch of points.  Used for the 0-homogeneous extension of spherical
    functions, so gradients are tangent to the sphere at sphere points."""

    val: np.ndarray    # (m,)
    grad: np.ndarray   # (m, n)
    hess: np.ndarray   # (m, n, n)


def _outer(a, b):
    return np.einsum("mi,mj->mij", a, b)


def d2_combine(parts):
    # linear combination [(coeff, D2), ...]
    val = sum(c * p.val for c, p in parts)
    grad = sum(c * p.grad for c, p in parts)
    hess = sum(c * p.hess for c, p in parts)
    return D2(val, grad, hess)


def d2_mul(a, b):
    val = a.val * b.val
    grad = a.val[:, None] * b.grad + b.val[:, None] * a.grad
    hess = (a.val[:, None, None] * b.hess + b.val[:, None, None] * a.hess
            + _outer(a.grad, b.grad) + _outer(b.grad, a.grad))
    return D2(val, grad, hess)


def d2_power(a, p):
    vp1 = a.val ** (p - 1.0)
    vp2 = a.val ** (p - 2.0)
    val = a.val ** p
    grad = p * vp1[:, None] * a.grad
    hess = (p * vp1[:, None, None] * a.hess
            + p * (p - 1.0) * vp2[:, None, None] * _outer(a.grad, a.grad))
    return D2(val, grad, hess)


def d2_log(a):
    val = np.log(a.val)
    g = a.grad / a.val[:, None]
    hess = a.hess / a.val[:, None, None] - _outer(g, g)
    return D2(val, g, hess)


def d2_exp(a):
    val = np.exp(a.val)
    grad = val[:, None] * a.grad
    hess = val[:, None, None] * (_outer(a.grad, a.grad) + a.hess)
    return D2(val, grad, hess)


# ---------------------------------------------------------------------------
# radial-polynomial engine:  sums of  c * x^alpha * |x|^m
# ---------------------------------------------------------------------------


class _RadialPoly:
    """Finite sums  sum_k  c_k x^{alpha_k} |x|^{m_k}  on R^n minus the origin.

    Closed under partial differentiation, which is all the homogeneous
    extensions of polynomial restrictions need."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if c != 0.0}

    def diff(self, i):
        out = {}
        for (alpha, m), c in self.terms.items():
            if alpha[i] > 0:
                a2 = list(alpha)
                a2[i] -= 1
                key = (tuple(a2), m)
                out[key] = out.get(key, 0.0) + c * alpha[i]
            if m != 0:
                a2 = list(alpha)
                a2[i] += 1
                key = (tuple(a2), m - 2)
                out[key] = out.get(key, 0.0) + c * m
        return _RadialPoly(self.n, out)

    def eval(self, pts, powers=None):
        """The sum at pts (k, n).  The calls on one point set may share a
        dict `powers`, which then keeps |x| and each pts[:, j] ** a and
        |x| ** m, so that each is formed once; without it a power is
        dropped after its term."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        keep = powers is not None
        powers = powers if keep else {}

        def power(j, a):
            # j = n stands for |x|
            p = powers.get((j, a))
            if p is None:
                if j == self.n and "r" not in powers:
                    powers["r"] = np.sqrt(np.sum(pts * pts, axis=1))
                p = (powers["r"] if j == self.n else pts[:, j]) ** a
                if keep:
                    powers[(j, a)] = p
            return p

        out = np.zeros(pts.shape[0])
        for (alpha, m), c in self.terms.items():
            term = np.full(pts.shape[0], c)
            for j, a in enumerate(alpha):
                if a:
                    term = term * power(j, a)
            if m:
                term = term * power(self.n, m)
            out += term
        return out


# ---------------------------------------------------------------------------
# spherical functions
# ---------------------------------------------------------------------------

_PARITY_TOL = 1e-12


@contextmanager
def _scope(*variables):
    """A block in which each of the context variables holds a dict: one
    that holds None gets a new dict, dropped when the block ends; one that
    holds a dict keeps it, so a nested block joins the open one."""
    tokens = [v.set({}) for v in variables if v.get() is None]
    try:
        yield
    finally:
        for token in reversed(tokens):
            token.var.reset(token)


# inside _scope(_KEPT): the bundles that PolynomialSFs keep at one read-only
# array that owns its data (a grid's nodes), None -> that array, sf -> D2
_KEPT = ContextVar("kept_bundles", default=None)


class SphericalFunction:
    """Base class: a scalar function on S^{n-1} with analytic access to the
    derivatives of its homogeneous extensions."""

    n: int

    # -- representation hooks -------------------------------------------

    def values(self, U):
        raise NotImplementedError

    def d2_ext0(self, U):
        """Value/gradient/Hessian of the 0-homogeneous extension at unit
        points U (m, n)."""
        raise NotImplementedError

    # -- derived quantities ----------------------------------------------

    def third1(self, U):
        raise NotImplementedError(
            "third derivatives are only available for polynomial "
            "representations")

    # -- parity ------------------------------------------------------------

    def parity(self):
        """'even', 'odd' or 'neither', decided by sampling antipodal pairs."""
        if not hasattr(self, "_parity"):
            U = _parity_sample(self.n)
            a = self.values(U)
            b = self.values(-U)
            scale = max(1.0, float(np.max(np.abs(a))))
            if np.max(np.abs(a - b)) <= _PARITY_TOL * scale:
                self._parity = "even"
            elif np.max(np.abs(a + b)) <= _PARITY_TOL * scale:
                self._parity = "odd"
            else:
                self._parity = "neither"
        return self._parity


def _parity_sample(n):
    rng = np.random.Generator(np.random.Philox(key=20240801))
    U = rng.standard_normal((48, n))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


class PolynomialSF(SphericalFunction):
    """Restriction of an ambient polynomial to the sphere.

    Coefficients map a degree multi-index (tuple of length n) to a float.
    Supports exact derivatives of both homogeneous extensions, including the
    third derivatives needed by the cofactor divergence identities."""

    def __init__(self, n, coeffs):
        self.n = int(n)
        clean = {}
        for alpha, c in coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n:
                raise ValueError("multi-index length does not match dimension")
            c = float(c)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
        self.coeffs = {a: c for a, c in clean.items() if c != 0.0}
        self._cache = {}

    # -- construction helpers -------------------------------------------

    @staticmethod
    def constant(n, c):
        return PolynomialSF(n, {(0,) * n: c})

    @staticmethod
    def linear(n, vector):
        coeffs = {}
        for i, v in enumerate(vector):
            alpha = [0] * n
            alpha[i] = 1
            coeffs[tuple(alpha)] = v
        return PolynomialSF(n, coeffs)

    @staticmethod
    def cos_harmonic(k, amplitude=1.0):
        """amplitude * cos(k theta) on the circle, as a polynomial in
        (x1, x2): the real part of (x1 + i x2)^k."""
        coeffs = {}
        for j in range(0, k + 1, 2):
            coeffs[(k - j, j)] = amplitude * math.comb(k, j) * (-1.0) ** (j // 2)
        return PolynomialSF(2, coeffs)

    @staticmethod
    def sin_harmonic(k, amplitude=1.0):
        coeffs = {}
        for j in range(1, k + 1, 2):
            coeffs[(k - j, j)] = amplitude * math.comb(k, j) * (-1.0) ** ((j - 1) // 2)
        return PolynomialSF(2, coeffs)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = PolynomialSF.constant(self.n, other)
        if not isinstance(other, PolynomialSF):
            return NotImplemented
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return PolynomialSF(self.n, out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return PolynomialSF(self.n,
                                {a: c * other for a, c in self.coeffs.items()})
        if not isinstance(other, PolynomialSF):
            return NotImplemented
        out = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolynomialSF(self.n, out)

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------

    def values(self, U):
        # the derivatives' term loop, on terms that all carry |x|^0
        if "values" not in self._cache:
            self._cache["values"] = _RadialPoly(
                self.n, {(a, 0): c for a, c in self.coeffs.items()})
        return self._cache["values"].eval(U)

    def _derivs(self, shift, order):
        # the extension of homogeneity degree `shift` and its derivatives
        key = ("derivs", shift, order)
        if key not in self._cache:
            base = {(): _RadialPoly(self.n, {(a, shift - sum(a)): c
                                             for a, c in self.coeffs.items()})}
            for level in range(1, order + 1):
                prev = {k: v for k, v in base.items() if len(k) == level - 1}
                for idx, rp in prev.items():
                    start = idx[-1] if idx else 0
                    for i in range(start, self.n):
                        base[idx + (i,)] = rp.diff(i)
            self._cache[key] = base
        return self._cache[key]

    def d2_ext0(self, U):
        """The bundle at U (m, n).  Inside _scope(_KEPT) the bundle at a
        read-only U that owns its data (a grid's nodes) is kept, its arrays
        read-only, and the same U again returns it unevaluated, until a
        bundle is kept at another such array: the kept bundles are those
        of one grid, the last.  A writeable U is never kept."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        kept = _KEPT.get()
        if kept is None:
            return self._bundle(U)
        if kept.get(None) is U and self in kept and not U.flags.writeable:
            return kept[self]
        d = self._bundle(U)
        if not U.flags.writeable and U.base is None:
            if kept.get(None) is not U:
                kept.clear()
                kept[None] = U
            for a in (d.val, d.grad, d.hess):
                a.flags.writeable = False
            kept[self] = d
        return d

    def _bundle(self, U):
        m, n = U.shape
        derivs = self._derivs(0, 2)
        powers = {}
        val = derivs[()].eval(U, powers)
        grad = np.empty((m, n))
        for i in range(n):
            grad[:, i] = derivs[(i,)].eval(U, powers)
        hess = np.empty((m, n, n))
        for i in range(n):
            for j in range(i, n):
                hij = derivs[(i, j)].eval(U, powers)
                hess[:, i, j] = hij
                hess[:, j, i] = hij
        return D2(val, grad, hess)

    def third1(self, U):
        """Third ambient derivatives of the 1-homogeneous extension,
        (m, n, n, n), symmetric in all three indices."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, n = U.shape
        derivs = self._derivs(1, 3)
        powers = {}
        out = np.empty((m, n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    t = derivs[(i, j, k)].eval(U, powers)
                    for perm in {(i, j, k), (i, k, j), (j, i, k),
                                 (j, k, i), (k, i, j), (k, j, i)}:
                        out[:, perm[0], perm[1], perm[2]] = t
        return out

class ExprSF(SphericalFunction):
    """Composite function given by one closure U -> D2 built from the d2_*
    bundle operations on other representations (sums, products, powers,
    exp/log, quotients).  Its values are the bundle's values."""

    def __init__(self, n, d2_fn):
        self.n = n
        self._d2_fn = d2_fn

    def values(self, U):
        return self.d2_ext0(U).val

    def d2_ext0(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return self._d2_fn(U)


def sf_sum(parts):
    """Linear combination of spherical functions: parts = [(coeff, sf), ...]."""
    parts = [(float(c), sf) for c, sf in parts]
    n = parts[0][1].n
    if all(isinstance(sf, PolynomialSF) for _, sf in parts):
        out = PolynomialSF(n, {})
        for c, sf in parts:
            out = out + c * sf
        return out
    return ExprSF(n, lambda U: d2_combine([(c, sf.d2_ext0(U))
                                          for c, sf in parts]))


def sf_product_powers(factors):
    """prod f_k^{a_k} = exp(sum a_k log f_k) for spherical functions f_k.

    The f_k must be strictly positive on the sphere wherever this is
    evaluated (power/quotient representation for geometric means and
    multiplicative perturbation families)."""
    factors = [(sf, float(a)) for sf, a in factors]
    return ExprSF(factors[0][0].n, lambda U: d2_exp(d2_combine(
        [(a, d2_log(sf.d2_ext0(U))) for sf, a in factors])))


def sf_ratio(numer, denom):
    """numer / denom for spherical functions with strictly positive denom.
    Unlike the power representation the numerator may vanish."""
    return ExprSF(numer.n, lambda U: d2_mul(
        numer.d2_ext0(U), d2_power(denom.d2_ext0(U), -1.0)))


def sf_exp(inner):
    """exp(inner) for a spherical function inner (strictly positive result)."""
    return ExprSF(inner.n, lambda U: d2_exp(inner.d2_ext0(U)))


def sf_mul(f, g):
    """Pointwise product; either factor may vanish or change sign."""
    if isinstance(f, PolynomialSF) and isinstance(g, PolynomialSF):
        return f * g
    return ExprSF(f.n, lambda U: d2_mul(f.d2_ext0(U), g.d2_ext0(U)))


def sf_log(f):
    """log(f) for strictly positive f."""
    return ExprSF(f.n, lambda U: d2_log(f.d2_ext0(U)))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereGrid:
    n: int
    resolution: int
    nodes: np.ndarray        # (m, n) unit vectors
    weights: np.ndarray      # (m,) positive, summing to |S^{n-1}|
    frames: np.ndarray       # (m, n-1, n) orthonormal tangent frames
    exactness_degree: int

    @property
    def count(self):
        return self.nodes.shape[0]


def _circle_nodes(count):
    theta = 2.0 * math.pi * np.arange(count) / count
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(count, 2.0 * math.pi / count)
    return nodes, weights


def _gauss_jacobi(m, a):
    """m-point Gauss rule for the weight (1 - t^2)^a on [-1, 1] (Golub and
    Welsch, Math. Comp. 1969): the nodes are the eigenvalues of the
    symmetric Jacobi matrix, the weights mu_0 = int (1 - t^2)^a dt times the
    squared first components of its eigenvectors.  Both are symmetrised
    about t = 0."""
    lam = a + 0.5
    k = np.arange(1, m)
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    t, v = np.linalg.eigh(np.diag(off, -1))     # eigh reads the lower triangle
    w = v[0] ** 2
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    return 0.5 * (t - t[::-1]), 0.5 * mu0 * (w + w[::-1])


def _sphere_nodes(n, resolution):
    if n == 2:
        return _circle_nodes(2 * resolution)
    t, wt = _gauss_jacobi(resolution, (n - 3) / 2.0)
    sub_nodes, sub_w = _sphere_nodes(n - 1, resolution)
    s = np.sqrt(1.0 - t ** 2)
    nodes = np.concatenate(
        [np.column_stack([sub_nodes * si, np.full(sub_nodes.shape[0], ti)])
         for ti, si in zip(t, s)], axis=0)
    weights = np.concatenate([wi * sub_w for wi in wt])
    return nodes, weights


def tangent_frames(U):
    """Orthonormal tangent frames (k, n-1, n) at the unit points U (k, n).

    Gram-Schmidt of the coordinate axes against u and the rows found so
    far, the axes taken in increasing order of |u_i| (stable sort); an axis
    whose remainder has norm below 1e-12 is skipped.  All points are done
    at once."""
    U = np.asarray(U, dtype=float)
    k, n = U.shape
    order = np.argsort(np.abs(U), axis=1, kind="stable")
    rows = np.arange(k)
    frames = np.zeros((k, n - 1, n))
    found = np.zeros(k, dtype=np.intp)
    for j in range(n):
        if np.all(found == n - 1):
            break
        v = np.zeros((k, n))
        v[rows, order[:, j]] = 1.0
        # unfound rows are zero and subtract nothing
        for b in [U] + [frames[:, i] for i in range(j)]:
            v -= np.sum(v * b, axis=1)[:, None] * b
        norm = np.sqrt(np.sum(v * v, axis=1))
        take = (norm >= 1e-12) & (found < n - 1)
        frames[rows[take], found[take]] = v[take] / norm[take, None]
        found += take
    if np.any(found != n - 1):
        raise GridError("frame construction failed")
    return frames


def build_grid(n, resolution):
    """Quadrature grid on S^{n-1}.

    n = 2 uses the periodic trapezoid rule (`resolution` nodes), n = 3 a
    Gauss-Legendre x uniform-azimuth product, n >= 4 the recursive
    Gauss-Jacobi product rule.  Polynomials up to ``exactness_degree`` are
    integrated exactly.  The nodes are read-only."""
    if n < 2:
        raise GridError("dimension must be at least 2")
    if resolution < 4:
        raise GridError("resolution below the minimum of 4")
    if n == 2:
        nodes, weights = _circle_nodes(resolution)
        exactness = resolution - 1
    else:
        nodes, weights = _sphere_nodes(n, resolution)
        exactness = 2 * resolution - 1
    nodes.flags.writeable = False           # d2_ext0 keeps bundles at them
    return SphereGrid(n=n, resolution=resolution, nodes=nodes,
                      weights=weights, frames=tangent_frames(nodes),
                      exactness_degree=exactness)


def integrate(f, grid):
    """Quadrature of a spherical function (or a node-value array)."""
    if isinstance(f, SphericalFunction):
        if f.n != grid.n:
            raise ValueError("function dimension does not match the grid")
        vals = f.values(grid.nodes)
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != (grid.count,):
            raise ValueError("value array does not match the grid size")
    return float(np.sum(grid.weights * vals))


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


@dataclass
class CurvatureField:
    """Node data of a support candidate h from one evaluation of its
    0-homogeneous bundle: values, spherical gradients, and the curvature
    matrices Q(h; u) = h I + E hess h0 E^T in the grid's tangent frames.
    Determinants and smallest eigenvalues are computed from Q on first
    read."""
    val: np.ndarray         # (m,)
    grad: np.ndarray        # (m, n)
    Q: np.ndarray           # (m, n-1, n-1)

    @cached_property
    def det(self):
        return det_poly([self.Q])[0]        # (m,)

    @cached_property
    def min_eig(self):
        return batch_min_eig(self.Q)        # (m,)


def poly_mul(a, b):
    # product of polynomials with array coefficients: a a list, b (k, ...)
    out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:])
    for i, ai in enumerate(a):
        out[i:i + len(b)] += ai * b
    return out


def horner(c, t, out=None):
    """Coefficients c (k, ...) at t by in-place Horner, into out if given:
    numpy polyval(t, c, False)'s operations in its order, so bitwise equal,
    also at k = 1."""
    out = np.add(c[-1], np.multiply(t, 0.0, out=out), out=out)
    for ck in c[-2::-1]:
        out *= t
        out += ck
    return out


def det_poly(mats):
    """Coefficients in t, shape (N (d - 1) + 1, ...), of det(sum_k t^k M_k)
    for d stacks M_k of shape (..., N, N), by Laplace expansion."""
    N = mats[0].shape[-1]
    if N == 0:
        return np.ones((1,) + mats[0].shape[:-2])
    out = 0.0
    for j in range(N):
        keep = [k for k in range(N) if k != j]
        term = poly_mul([M[..., 0, j] for M in mats],
                        det_poly([M[..., 1:, keep] for M in mats]))
        out = out - term if j % 2 else out + term
    return out


def batch_min_eig(Q):
    """Smallest eigenvalue of each symmetric matrix in a (..., N, N) stack.

    N = 1 and N = 2 are closed forms; N = 2 reads the lower triangle, as
    eigvalsh does.  N >= 3 calls eigvalsh."""
    N = Q.shape[-1]
    if N == 1:
        return Q[..., 0, 0].copy()
    if N == 2:
        a, d = Q[..., 0, 0], Q[..., 1, 1]
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), Q[..., 1, 0])
    return np.linalg.eigvalsh(Q)[..., 0]


def frame_hessian(hess, frames):
    """Restrict ambient Hessians (m, n, n) to tangent frames (m, n-1, n),
    giving (m, n-1, n-1) matrices."""
    return np.einsum("map,mpq,mbq->mab", frames, hess, frames)


def curvature_matrix(h, grid):
    """Curvature matrix field of a support-function candidate h, from one
    `d2_ext0` call at the grid nodes."""
    if h.n != grid.n:
        raise ValueError("function dimension does not match the grid")
    d = h.d2_ext0(grid.nodes)
    Q = frame_hessian(d.hess, grid.frames)
    diag = np.arange(grid.n - 1)
    Q[:, diag, diag] += d.val[:, None]
    return CurvatureField(val=d.val, grad=d.grad, Q=Q)


def split_mean(psi, grid):
    """Split psi into (mean over the sphere, zero-mean part)."""
    mean = integrate(psi, grid) / sphere_area(grid.n)
    one = PolynomialSF.constant(grid.n, 1.0)
    return mean, sf_sum([(1.0, psi), (-mean, one)])


def poincare_ratio(psi, grid):
    """Rayleigh quotient  int |grad psi|^2 / int psi^2  for zero-mean psi."""
    vals = psi.values(grid.nodes)
    total = float(np.sum(grid.weights * vals))
    if abs(total) > 1e-10:
        raise ValueError("poincare_ratio requires a zero-mean function "
                         f"(mean integral {total:.3e})")
    den = float(np.sum(grid.weights * vals * vals))
    if den <= 1e-24:
        raise ValueError("poincare_ratio of an identically zero function")
    g = psi.d2_ext0(grid.nodes).grad
    num = float(np.sum(grid.weights * np.sum(g * g, axis=1)))
    return num / den
