"""First and second variations of the measure of a body along support
perturbations, and the cofactor calculus behind them.

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
from .bodies import body_from_support, measure_of_body
from .sphere import (batch_det, curvature_matrix, sf_exp, sf_log, sf_mul,
                     sf_ratio, sphere_area)


# ---------------------------------------------------------------------------
# cofactor calculus
# ---------------------------------------------------------------------------

def cofactor_field(Q):
    """Batched first cofactors for a stack of matrices, shape (m, N, N)."""
    Q = np.asarray(Q, dtype=float)
    m, N, _ = Q.shape
    if N == 1:
        return np.ones((m, 1, 1))
    if N == 2:
        C = np.empty_like(Q)
        C[:, 0, 0] = Q[:, 1, 1]
        C[:, 0, 1] = -Q[:, 1, 0]
        C[:, 1, 0] = -Q[:, 0, 1]
        C[:, 1, 1] = Q[:, 0, 0]
        return C
    C = np.empty_like(Q)
    idx = list(range(N))
    for i in range(N):
        rows = idx[:i] + idx[i + 1:]
        for j in range(N):
            cols = idx[:j] + idx[j + 1:]
            minor = Q[np.ix_(np.arange(m), rows, cols)]
            C[:, i, j] = (-1.0) ** (i + j) * batch_det(minor)
    return C


def second_cofactor_field(Q):
    """Batched second cofactors, shape (m, N, N, N, N)."""
    Q = np.asarray(Q, dtype=float)
    m, N, _ = Q.shape
    C2 = np.zeros((m, N, N, N, N))
    if N == 1:
        return C2
    idx = list(range(N))
    for i in range(N):
        for k in range(N):
            if k == i:
                continue
            rows = [r for r in idx if r not in (i, k)]
            kk = k - 1 if k > i else k
            for j in range(N):
                for l in range(N):
                    if l == j:
                        continue
                    cols = [c for c in idx if c not in (j, l)]
                    if rows:
                        det = batch_det(Q[np.ix_(np.arange(m), rows, cols)])
                    else:
                        det = 1.0
                    ll = l - 1 if l > j else l
                    C2[:, i, j, k, l] = (-1.0) ** (i + j + kk + ll) * det
    return C2


def cofactor_identity_residuals(Q):
    """Max residuals of the two homogeneity identities over a matrix stack."""
    Q = np.asarray(Q, dtype=float)
    N = Q.shape[1]
    C = cofactor_field(Q)
    C2 = second_cofactor_field(Q)
    det = batch_det(Q)
    r1 = np.max(np.abs(np.einsum("mij,mij->m", C, Q) - N * det))
    r2 = np.max(np.abs(np.einsum("mijkl,mkl->mij", C2, Q) - (N - 1) * C))
    return float(r1), float(r2)


# ---------------------------------------------------------------------------
# divergence-free / integration-by-parts identities
# ---------------------------------------------------------------------------

def cheng_yau_divergence(h, grid):
    """Pointwise divergence of the cofactor rows of Q(h; u), shape (m, N-1).

    Vanishes identically for smooth support functions; requires exact third
    derivatives, so h must be polynomial."""
    U = grid.nodes
    E = grid.frames
    third = h.third1(U)
    T = np.einsum("mpqr,map,mbq,mcr->mabc", third, E, E, E)
    Q = curvature_matrix(h, grid).Q
    C2 = second_cofactor_field(Q)
    return np.einsum("mijkl,mkli->mj", C2, T)


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
# first variation (general body)
# ---------------------------------------------------------------------------

def first_variation(measure, body, direction):
    """d/ds gamma(K_{h + s psi}) at s = 0 for a validated body.

    Three terms: the direction moves (i) the support factor, (ii) the
    curvature determinant through the linearized cofactor form, and
    (iii) the radial scale D = sqrt(h^2 + |grad h|^2) inside the moment."""
    g = body.grid
    d = curvature_matrix(direction, g)
    lin = np.einsum("mij,mij->m", cofactor_field(body.curvature.Q), d.Q)
    prof = _measures.radial_profile(measure, body.D, g.n, powers=(0, 1))
    A, B = prof[0], prof[1]
    dD = (body.hvals * d.val + np.sum(body.grad0 * d.grad, axis=1)) / body.D
    integrand = (d.val * body.curvature.det * A
                 + body.hvals * lin * A
                 + body.hvals * body.curvature.det * B * dD)
    return float(np.sum(g.weights * integrand))


def family_direction_at(family, s=0.0):
    """Effective additive direction d h_s / ds of a family at parameter s."""
    if family.kind == "additive":
        return family.direction
    return sf_mul(family.support_at(s), sf_log(family.direction))


def g_prime(measure, family, s=0.0):
    """First derivative of s -> gamma(K_{h_s}) at any s inside the validity
    radius, by re-basing the family at s."""
    h_s = family.base if s == 0.0 else family.support_at(s)
    body = body_from_support(h_s, family.grid)
    return first_variation(measure, body, family_direction_at(family, s))


def log_correction(measure, body, psi):
    """Gap between multiplicative and additive second variations at a body:
    the first variation in direction psi^2 / h."""
    chi = sf_ratio(sf_mul(psi, psi), body.h)
    return first_variation(measure, body, chi)


# ---------------------------------------------------------------------------
# variations at a centered ball
# ---------------------------------------------------------------------------

@dataclass
class VariationAtBall:
    """g(s) = gamma(K_{R + s psi}) data at s = 0, with the second variation
    computed along two independent routes that must agree:

      moment route:  radial moments (A, B, C) at scale R only;
      profile route: density value f(R) and slope f'(R) only.

    Both routes' inputs are kept (A, fR, fpR) for the ball-form checks.
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


def mult_family_through(h, psi, grid):
    """Multiplicative family h phi^s with d h_s/ds|_0 = psi: phi = e^{psi/h}."""
    from .bodies import make_family
    return make_family("multiplicative", h, sf_exp(sf_ratio(psi, h)), grid)


def g_eval(family, measure, s):
    """gamma(K_{h_s}): the scalar function whose derivatives the closed
    forms below predict.  s must lie inside the family's validity radius
    (family.body_at raises FamilyError otherwise)."""
    return measure_of_body(measure, family.body_at(s))


def g_prime_ball(R, psi, measure, grid):
    """First derivative at s = 0 of s -> gamma(ball(R) + s psi):
    R^{n-1} f(R) * integral of psi."""
    return variation_at_ball(measure, R, psi, grid).g1


def g_second_ball(R, psi, measure, grid, route="moment"):
    """Second derivative at s = 0 of s -> gamma(ball(R) + s psi), by the
    radial-moment route (default) or the density-profile route; the two
    agree to rounding and are cross-checked in variation_at_ball."""
    var = variation_at_ball(measure, R, psi, grid)
    if route == "moment":
        return var.g2_moment
    if route == "profile":
        return var.g2_profile
    raise ValueError(f"unknown route {route!r}")
