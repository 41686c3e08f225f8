"""Rotation-invariant log-concave measures and their radial moments.

A measure is described by the radial profile f of its density F(x) = f(|x|),
together with analytic first and second derivatives.  Densities are kept
unnormalized: the Gaussian profile is exp(-r^2/2) without the usual constant.

The moment triple at a scale D collects

    A = int_0^1 t^{n-1} f(tD) dt
    B = int_0^1 t^n     f'(tD) dt
    C = int_0^1 t^{n+1} f''(tD) dt

computed by an adaptive Gauss-Kronrod rule with interval bisection to a fixed
absolute tolerance.  The integrals obey two closed identities used as
self-checks throughout,

    f(D)  = n A + D B        and        f'(D) = (n+1) B + D C,

both consequences of integrating d/dt [t^n f(tD)] and d/dt [t^{n+1} f'(tD)].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev

from .sphere import sphere_area

QUAD_TOL = 1e-13
_MAX_PANELS = 2048

_CHEB_POINTS = 14            # radial_profile's Chebyshev interpolation points
_CHEB_X = chebyshev.chebpts1(_CHEB_POINTS)
_CHEB_T = chebyshev.chebvander(_CHEB_X, _CHEB_POINTS - 1).T * (2 / _CHEB_POINTS)
_CHEB_T[0] *= 0.5
_CHEB_BLOCK = 16384          # scales per Clenshaw tile: 128 KiB buffers in cache

# (G7, K15) Gauss-Kronrod pair on [-1, 1]
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_KRONROD_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])        # 15 ascending
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_MASK = np.zeros(15, dtype=bool)
_GAUSS_MASK[1::2] = True                                         # embedded G7
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    pass


class MeasureValidationError(ValueError):
    pass


def adaptive_gk(fvec, a, b):
    """Adaptive (G7, K15) quadrature of a batch of integrands over [a, b].

    fvec maps an array of abscissae (T,) to values (T, B); the same panel
    subdivision is shared by the whole batch and refined until every batch
    member's accumulated error estimate falls below the absolute tolerance
    QUAD_TOL.  Returns an array of shape (B,), each column summed in node
    order whatever B is."""

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals = fvec(mid + half * _KRONROD_NODES)            # (15, B)
        k = half * np.cumsum(_KRONROD_W[:, None] * vals, 0)[-1]
        g = half * np.cumsum(_GAUSS_W[:, None] * vals[_GAUSS_MASK], 0)[-1]
        return [lo, hi, k, np.abs(k - g)]

    panels = [panel(a, b)]
    while True:
        total_err = np.sum([p[3] for p in panels], axis=0)
        if np.all(total_err <= QUAD_TOL):
            break
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"adaptive quadrature failed to reach tol={QUAD_TOL:g} "
                f"with {len(panels)} panels")
        worst = max(range(len(panels)), key=lambda i: float(np.max(panels[i][3])))
        lo, hi = panels[worst][0], panels[worst][1]
        mid = 0.5 * (lo + hi)
        panels[worst] = panel(lo, mid)
        panels.insert(worst + 1, panel(mid, hi))
    return np.sum([p[2] for p in panels], axis=0)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialMeasure:
    kind: str
    f: Callable = field(repr=False)
    fprime: Callable = field(repr=False)
    fsecond: Callable = field(repr=False)
    params: dict = field(default_factory=dict)

    def describe(self):
        out = {"kind": self.kind}
        out.update(self.params)
        return out


def _validate_profile(kind, f, fprime, fsecond):
    r = np.concatenate(([0.0], np.geomspace(1e-4, 100.0, 160)))
    fv = np.asarray(f(r), dtype=float)
    if np.any(fv < -1e-12):
        bad = r[np.argmin(fv)]
        raise MeasureValidationError(
            f"{kind}: density negative at r={bad:.6g}")
    fp = np.asarray(fprime(r), dtype=float)
    if np.any(fp > 1e-12):
        bad = r[int(np.argmax(fp))]
        raise MeasureValidationError(
            f"{kind}: density increasing at r={bad:.6g} (f'={fp.max():.3e})")
    # log-concavity (log f)'' = (f'' f - f'^2)/f^2 <= 0 wherever f > 0;
    # the second derivative may blow up at r = 0, so check r > 0 only, and
    # skip radii where f^2 underflows.
    pos = (fv > 1e-150) & (r > 0)
    fs = np.asarray(fsecond(r[pos]), dtype=float)
    logconc = (fs * fv[pos] - fp[pos] ** 2) / fv[pos] ** 2
    if np.any(logconc > 1e-10):
        bad = r[pos][int(np.argmax(logconc))]
        raise MeasureValidationError(
            f"{kind}: density not log-concave at r={bad:.6g} "
            f"((log f)''={logconc.max():.3e})")


def make_measure(kind, p=None, f=None, fprime=None, fsecond=None, name=None):
    """Construct a rotation-invariant log-concave measure.

    kind is one of 'lebesgue', 'gaussian', 'exp_power' (with exponent p >= 1)
    or 'custom' (with analytic f, fprime, fsecond).  Every profile is
    validated for nonnegativity, monotonicity and log-concavity on a
    log-spaced radius sample."""
    if kind == "lebesgue":
        meas = RadialMeasure(
            kind="lebesgue",
            f=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            fprime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            fsecond=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
    elif kind == "gaussian":
        meas = RadialMeasure(
            kind="gaussian",
            f=lambda r: np.exp(-0.5 * np.asarray(r, dtype=float) ** 2),
            fprime=lambda r: -np.asarray(r, dtype=float)
            * np.exp(-0.5 * np.asarray(r, dtype=float) ** 2),
            fsecond=lambda r: (np.asarray(r, dtype=float) ** 2 - 1.0)
            * np.exp(-0.5 * np.asarray(r, dtype=float) ** 2),
        )
    elif kind == "exp_power":
        if p is None or p < 1:
            raise MeasureValidationError("exp_power requires exponent p >= 1")
        p = float(p)

        def f_(r, p=p):
            r = np.asarray(r, dtype=float)
            return np.exp(-r ** p)

        def fp_(r, p=p):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                return -p * r ** (p - 1.0) * np.exp(-r ** p)

        def fs_(r, p=p):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = (p * p * r ** (2.0 * p - 2.0)
                       - p * (p - 1.0) * r ** (p - 2.0)) * np.exp(-r ** p)
            if p == 1.0:
                out = np.exp(-r)
            return out

        meas = RadialMeasure(kind="exp_power", f=f_, fprime=fp_, fsecond=fs_,
                             params={"p": p})
    elif kind == "custom":
        if f is None or fprime is None or fsecond is None:
            raise MeasureValidationError(
                "custom measures must supply f, fprime and fsecond")
        meas = RadialMeasure(kind=name or "custom", f=f, fprime=fprime,
                             fsecond=fsecond)
    else:
        raise MeasureValidationError(f"unknown measure kind {kind!r}")
    _validate_profile(meas.kind, meas.f, meas.fprime, meas.fsecond)
    return meas


def measure_from_spec(spec):
    spec = dict(spec)
    kind = spec.pop("kind")
    return make_measure(kind, **spec)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTriple:
    A: float
    B: float
    C: float
    D: float
    n: int


def moments(measure, D, n):
    """Radial moment triple (A, B, C) of the measure at scale D."""
    a, b, c = radial_profile(measure, [D], n, powers=(0, 1, 2))[:, 0]
    return MomentTriple(A=float(a), B=float(b), C=float(c), D=float(D), n=n)


def moment_identities(measure, R, n):
    """Residuals of the two moment identities at D = R.

    Returns (|f(R) - (nA + RB)|, |f'(R) - ((n+1)B + RC)|)."""
    t = moments(measure, R, n)
    res1 = abs(float(measure.f(R)) - (n * t.A + R * t.B))
    res2 = abs(float(measure.fprime(R)) - ((n + 1) * t.B + R * t.C))
    return res1, res2


def _integrate_profile(measure, D, n, powers):
    fns = {0: measure.f, 1: measure.fprime, 2: measure.fsecond}

    def fvec(t):
        td = np.outer(t, D)                       # (T, len(D))
        return np.concatenate([t[:, None] ** (n - 1 + p) * fns[p](td)
                               for p in powers], axis=1)

    return adaptive_gk(fvec, 0.0, 1.0).reshape(len(powers), D.size)


def _profile_fit(measure, D, n, powers):
    """radial_profile's route for the 1-D scales D: (fit, None) when they
    are interpolated, with fit = (mid, half, coef) the centre and half-width
    of [min D, max D] and the Chebyshev coefficients (_CHEB_POINTS,
    len(powers)), else (None, moments) integrated directly, shaped
    (len(powers), D.size).

    The route depends on the scales alone, not on how often each repeats:
    an empty or constant D is integrated once, at one scale; any other is
    fitted at _CHEB_POINTS Chebyshev points of [min D, max D] and taken if
    the last two coefficients of every moment sum to at most QUAD_TOL in
    absolute value, else every scale is integrated.  As an adaptive_gk
    column does not depend on the batch around it, each scale's moments
    are bitwise the same in any batch of the same distinct scales."""
    lo, hi = (D.min(), D.max()) if D.size else (0.0, 0.0)
    if hi == lo:
        one = _integrate_profile(measure, D[:1], n, powers)
        return None, np.repeat(one, D.size, axis=1)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    fit = _integrate_profile(measure, mid + half * _CHEB_X, n, powers)
    coef = (_CHEB_T[:, None, :] * fit).sum(axis=2)          # (K, len(powers))
    if np.any(np.abs(coef[-2]) + np.abs(coef[-1]) > QUAD_TOL):
        return None, _integrate_profile(measure, D, n, powers)
    return (mid, half, coef), None


def _clenshaw(D, fit, work, out=None):
    """The interpolant fit = (mid, half, coef) at the scales D, shaped
    (len(powers), D.size), into out, else into a view of work (3 len(powers)
    + 2, >= D.size) that it returns: chebval((D - mid) / half, coef)'s
    operations in its order, so bitwise equal, in place."""
    mid, half, coef = fit
    P, b = coef.shape[1], D.size
    x, x2 = work[0, :b], work[1, :b]
    c0, c1, t = (work[2 + k * P:2 + (k + 1) * P, :b] for k in range(3))
    np.subtract(D, mid, out=x.reshape(D.shape))
    x /= half
    np.multiply(x, 2.0, out=x2)
    c0[:], c1[:] = coef[-2, :, None], coef[-1, :, None]
    for ck in coef[-3::-1]:
        np.multiply(c1, x2, out=t)
        t += c0
        np.subtract(ck[:, None], c1, out=c0)
        c1, t = t, c1
    np.multiply(c1, x, out=t)
    return np.add(c0, t, out=t if out is None else out)


def radial_profile(measure, D, n, powers=(0,)):
    """Vectorized moments over an array of scales D.

    powers selects which of (A, B, C) to compute: 0 -> A, 1 -> B, 2 -> C.
    Returns an array of shape (len(powers), len(D)), by the route of
    _profile_fit.  An interpolant is evaluated by an in-place Clenshaw
    recurrence over tiles of _CHEB_BLOCK scales, in buffers allocated once
    per call, bitwise equal to numpy's chebval in one pass over every
    scale."""
    D = np.asarray(D, dtype=float).ravel()
    fit, direct = _profile_fit(measure, D, n, powers)
    if fit is None:
        return direct
    out = np.empty((len(powers), D.size))
    work = np.empty((3 * len(powers) + 2, min(D.size, _CHEB_BLOCK)))
    for i in range(0, D.size, _CHEB_BLOCK):
        _clenshaw(D[i:i + _CHEB_BLOCK], fit, work, out[:, i:i + _CHEB_BLOCK])
    return out


def ball_measure(measure, radius, n):
    """Total measure of a centered ball: |S^{n-1}| * r^n * A(r)."""
    if radius == 0:
        return 0.0
    t = moments(measure, radius, n)
    return sphere_area(n) * radius ** n * t.A


def ball_growth_derivatives(measure, R, n):
    """(G, G', G'') for G(r) = measure of the centered r-ball, at r = R."""
    s = sphere_area(n)
    G = ball_measure(measure, R, n)
    fR = float(measure.f(R))
    fpR = float(measure.fprime(R))
    Gp = s * R ** (n - 1) * fR
    Gpp = s * ((n - 1) * R ** (n - 2) * fR + R ** (n - 1) * fpR)
    return G, Gp, Gpp
