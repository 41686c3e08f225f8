"""Closed-form variations of the measure at a centered ball, and the
cofactor calculus behind the curvature integrals.

variation_at_ball gives g, g' and g'' at s = 0 for g(s) = gamma(K_{R + s psi})
in closed form; PerturbationFamily.derivatives_along gives them along any
family at any s, and each is the other's oracle at the ball.

For an N x N matrix M the cofactor c_ij = d(det M)/dM_ij and the second
cofactor c_ij,kl = d^2(det M)/(dM_ij dM_kl) drive two families of exact
identities used throughout:

  * homogeneity:  sum_ij c_ij M_ij = N det M,
                  sum_kl c_ij,kl M_kl = (N-1) c_ij;
  * with M = Q(h; u) the curvature matrix of a smooth support function, the
    rows of the cofactor field are divergence free on the sphere, which is
    what makes the variation integrals symmetric in their arguments.

The divergence-free property reduces to a pointwise contraction because the
covariant derivative of the curvature matrix entries equals the pure third
derivative of the 1-homogeneous extension restricted to the moving frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures as _measures
from .sphere import curvature_matrix, det_poly, sphere_area


# ---------------------------------------------------------------------------
# cofactor calculus
# ---------------------------------------------------------------------------

def cofactor_field(Q):
    """Batched first cofactors for a stack of matrices, shape (m, N, N):
    c_ij = (-1)^(i+j) times the minor without row i and column j."""
    Q = np.asarray(Q, dtype=float)
    m, N, _ = Q.shape
    C = np.empty((m, N, N))
    for i, j in np.ndindex(N, N):
        rows = [r for r in range(N) if r != i]
        cols = [c for c in range(N) if c != j]
        minor = Q[np.ix_(np.arange(m), rows, cols)]
        C[:, i, j] = (-1.0) ** (i + j) * det_poly([minor])[0]
    return C


def second_cofactor_field(Q):
    """Batched second cofactors, shape (m, N, N, N, N)."""
    Q = np.asarray(Q, dtype=float)
    m, N, _ = Q.shape
    C2 = np.zeros((m, N, N, N, N))
    for i, j, k, l in np.ndindex(N, N, N, N):
        if i != k and j != l:
            rows = [r for r in range(N) if r not in (i, k)]
            cols = [c for c in range(N) if c not in (j, l)]
            sign = (-1.0) ** (i + j + k + l + (k > i) + (l > j))
            minor = Q[np.ix_(np.arange(m), rows, cols)]
            C2[:, i, j, k, l] = sign * det_poly([minor])[0]
    return C2


# ---------------------------------------------------------------------------
# divergence-free / integration-by-parts identities
# ---------------------------------------------------------------------------

def _frame_third(h, grid):
    """Third derivatives of the 1-homogeneous extension in the tangent
    frame, T_abc = sum_pqr third_pqr E_ap E_bq E_cr, shape (m, N, N, N).

    One index at a time, in contiguous arrays with the nodes last: each
    two-operand einsum sums the last ambient index against the frame and
    puts the frame index first, (p, q, r) -> (c, p, q) -> (b, c, p) ->
    (a, b, c).  einsum without optimize calls no BLAS, so every BLAS kernel
    gives the same bits."""
    T = np.ascontiguousarray(np.moveaxis(h.third1(grid.nodes), 0, -1))
    F = np.ascontiguousarray(np.moveaxis(grid.frames, 0, -1))
    for _ in range(3):
        T = np.einsum("crm,pqrm->cpqm", F, T)
    return np.moveaxis(T, -1, 0)


def cheng_yau_divergence(h, grid):
    """Pointwise divergence of the cofactor rows of Q(h; u), shape (m, N-1).

    Vanishes identically for smooth support functions; requires exact third
    derivatives, so h must be polynomial."""
    C2 = second_cofactor_field(curvature_matrix(h, grid).Q)
    return np.einsum("mijkl,mkli->mj", C2, _frame_third(h, grid))


def cheng_yau_residual(h, grid):
    """Largest absolute entry of the divergence of the cofactor rows over
    all nodes and columns; a pure rounding/representation residual for any
    valid support function."""
    return float(np.max(np.abs(cheng_yau_divergence(h, grid))))


def ibp_residuals(h, psi, omega, grid):
    """Relative residuals of the two integration-by-parts symmetries.

    (1) int psi tr(C[Q_h] Q(omega)) = int omega tr(C[Q_h] Q(psi));
    (2) the trilinear form int f0 c_ij,kl[Q_h] Q(f1)_ij Q(f2)_kl is
        symmetric under all permutations of (f0, f1, f2); checked on
        (psi, omega, h).
    """
    w = grid.weights
    fp, fo, fh = (curvature_matrix(f, grid) for f in (psi, omega, h))
    Ch = cofactor_field(fh.Q)
    C2 = second_cofactor_field(fh.Q)

    a = np.sum(w * fp.val * np.einsum("mij,mij->m", Ch, fo.Q))
    b = np.sum(w * fo.val * np.einsum("mij,mij->m", Ch, fp.Q))
    r1 = abs(a - b) / max(abs(a), abs(b), 1.0)

    def tri(f0, f1, f2):
        return np.sum(w * f0.val * np.einsum("mijkl,mij,mkl->m", C2, f1.Q,
                                             f2.Q))

    vals = [tri(fp, fo, fh), tri(fo, fp, fh), tri(fh, fp, fo),
            tri(fp, fh, fo)]
    scale = max(max(abs(v) for v in vals), 1.0)
    r2 = (max(vals) - min(vals)) / scale
    return float(r1), float(r2)


# ---------------------------------------------------------------------------
# variations at a centered ball
# ---------------------------------------------------------------------------

@dataclass
class VariationAtBall:
    """g(s) = gamma(K_{R + s psi}) data at s = 0, with the second variation
    computed along two independent routes that must agree:

      moment route:  radial moments (A, B, C) at scale R only;
      profile route: density value f(R) and slope f'(R) only.

    Both routes' inputs (A, fR, fpR) are kept: the two infinitesimal checks
    form their ball-form details (B1, B2; lhs, rhs) from them.
    """
    n: int
    R: float
    A: float
    fR: float
    fpR: float
    int_psi: float
    int_psi_sq: float
    int_grad_sq: float
    g0: float
    g1: float
    g2_moment: float
    g2_profile: float
    log_corr: float

    @property
    def g2(self):
        return self.g2_moment

    @property
    def g2_mult(self):
        return self.g2_moment + self.log_corr

    @property
    def route_gap(self):
        return abs(self.g2_moment - self.g2_profile)


def variation_at_ball(measure, R, psi, grid):
    """Closed-form variations of gamma along h_s = R + s psi."""
    R = float(R)
    n = grid.n
    d = psi.d2_ext0(grid.nodes)
    w = grid.weights
    I0 = float(np.sum(w * d.val))
    I2 = float(np.sum(w * d.val ** 2))
    J2 = float(np.sum(w * np.sum(d.grad ** 2, axis=1)))
    mom = _measures.moments(measure, R, n)
    A, B, C = mom.A, mom.B, mom.C
    fR = float(np.asarray(measure.f(np.array([R])))[0])
    fpR = float(np.asarray(measure.fprime(np.array([R])))[0])
    g0 = sphere_area(n) * R ** n * A
    g1 = R ** (n - 1) * fR * I0
    g2_moment = R ** (n - 2) * ((A * n * (n - 1) + 2.0 * n * R * B + R * R * C) * I2
                                - (n * A + R * B) * J2)
    g2_profile = (R ** (n - 2) * fR * ((n - 1) * I2 - J2)
                  + R ** (n - 1) * fpR * I2)
    log_corr = R ** (n - 2) * fR * I2
    return VariationAtBall(n=n, R=R, A=A, fR=fR, fpR=fpR, int_psi=I0,
                           int_psi_sq=I2, int_grad_sq=J2, g0=g0, g1=g1,
                           g2_moment=g2_moment, g2_profile=g2_profile,
                           log_corr=log_corr)
