"""Reference values and property checks made outside bmstab.

Nothing here imports bmstab.  Closed forms use `math`; the planar and
shifted-ball measures are one-dimensional integrals evaluated in closed form
or by a periodic trapezoid rule; nets of directions are built afresh.

Every check takes the reference it compares against as an argument and
returns a list of error strings (empty when the check holds), so a test can
hand it a deliberately wrong reference and see it rejected."""

import math

import numpy as np

# The certified validity radius keeps every curvature eigenvalue at or above
# this share of the base body's smallest one.  For the unit ball pushed along
# the constant direction, h_s = 1 + s has curvature 1 + s, so the radius is
# exactly 1 - 0.05.
CURVATURE_FLOOR = 0.05

MC_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def ball_measure(kind, n, R):
    """Measure of the centred R-ball under the unnormalised radial densities
    1 (lebesgue), exp(-r^2/2) (gaussian) and exp(-r) (exp_power with p=1)."""
    if kind == "lebesgue":
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * R ** n
    if kind == "gaussian":
        e = math.exp(-R * R / 2)
        if n == 2:
            return 2 * math.pi * (1 - e)
        if n == 3:
            return 4 * math.pi * (math.sqrt(math.pi / 2) * math.erf(R / math.sqrt(2))
                                  - R * e)
        if n == 4:
            return 2 * math.pi ** 2 * (2 - (R * R + 2) * e)
    if kind == "exp_power1":
        e = math.exp(-R)
        if n == 2:
            return 2 * math.pi * (1 - (1 + R) * e)
        if n == 3:
            return 4 * math.pi * (2 - (R * R + 2 * R + 2) * e)
        if n == 4:
            return 2 * math.pi ** 2 * (6 - (R ** 3 + 3 * R * R + 6 * R + 6) * e)
    raise ValueError(f"no closed form for {kind} in dimension {n}")


def shifted_disk_mean_area(t):
    """Area of the geometric support mean of the unit disk and its
    translate by t."""
    return math.pi - (math.pi / 4) * (1 - math.sqrt(1 - t * t))


def _poly_exp_integral(k, a, b):
    """int_a^b r^k e^{-r} dr."""
    def prim(r):
        return -math.exp(-r) * sum(math.factorial(k) / math.factorial(j) * r ** j
                                   for j in range(k + 1))
    return prim(b) - prim(a)


def shifted_ball_exp1(c):
    """Measure of the unit ball centred at c*e1 in R^3 under exp(-|x|).

    Spheres |x| = r with r <= 1 - c lie inside; for 1 - c < r < 1 + c the
    part inside is a cap of area 2 pi r^2 (1 - (r^2 + c^2 - 1) / (2 r c))."""
    inner = 4 * math.pi * _poly_exp_integral(2, 0.0, 1 - c)
    a, b = 1 - c, 1 + c
    cap = 2 * math.pi * (_poly_exp_integral(2, a, b)
                         - (_poly_exp_integral(3, a, b)
                            + (c * c - 1) * _poly_exp_integral(1, a, b)) / (2 * c))
    return inner + cap


def planar_measure(h, dh, d2h, radial_mass, m=8192):
    """Measure of a planar convex body from its support function h(theta).

    The boundary point with normal angle theta is x = h u + h' u', and the
    polar angle it sweeps obeys dphi = h (h + h'') / |x|^2 dtheta, so the
    measure is int radial_mass(|x|) dphi with radial_mass(rho) the measure of
    the sector up to radius rho per unit angle.  The periodic trapezoid rule
    is spectrally accurate for smooth h."""
    theta = 2 * math.pi * np.arange(m) / m
    hv, d1, d2 = h(theta), dh(theta), d2h(theta)
    rho2 = hv * hv + d1 * d1
    return float(np.sum(radial_mass(rho2) * hv * (hv + d2) / rho2) * 2 * math.pi / m)


def bump_measure(kind, eps):
    """Measure of the planar body with support 1 + eps cos(2 theta)."""
    mass = {"lebesgue": lambda rho2: rho2 / 2,
            "gaussian": lambda rho2: 1 - np.exp(-rho2 / 2)}[kind]
    return planar_measure(lambda t: 1 + eps * np.cos(2 * t),
                          lambda t: -2 * eps * np.sin(2 * t),
                          lambda t: -4 * eps * np.cos(2 * t), mass)


# ---------------------------------------------------------------------------
# nets of directions
# ---------------------------------------------------------------------------

def direction_net(n, count=100_000):
    """Evenly spaced circle (n = 2) or Fibonacci spiral (n = 3), plus the
    coordinate directions and their negatives."""
    if n == 2:
        t = 2 * math.pi * np.arange(count) / count
        pts = np.column_stack([np.cos(t), np.sin(t)])
    elif n == 3:
        i = np.arange(count) + 0.5
        z = 1 - 2 * i / count
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        phi = math.pi * (1 + math.sqrt(5)) * i
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        raise ValueError("nets are built for n = 2 and 3")
    return np.vstack([pts, np.eye(n), -np.eye(n)])


def harmonic_values(name, U):
    """The named directions in closed form: on the circle the harmonics are
    cos(theta) and cos(2 theta); on S^2 they are x1 and x1*x2."""
    if name == "constant":
        return np.ones(len(U))
    if name == "first_harmonic":
        return U[:, 0].copy()
    if name == "second_harmonic":
        if U.shape[1] == 2:
            return U[:, 0] ** 2 - U[:, 1] ** 2
        return U[:, 0] * U[:, 1]
    raise ValueError(f"no closed form for direction {name!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_close(label, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if np.all(err <= lim):
        return []
    i = int(np.argmax(err - lim))
    return [f"{label}: {got.flat[i]!r} against reference {want.flat[i]!r} "
            f"(|diff| {err.flat[i]:.3e} > {lim.flat[i]:.3e})"]


def check_concave(label, s, y, rtol=1e-10):
    """Second differences of y over the sorted grid s are at most rounding.
    Uneven spacing is allowed: the divided-difference form is used."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    left = (y[1:-1] - y[:-2]) / (s[1:-1] - s[:-2])
    right = (y[2:] - y[1:-1]) / (s[2:] - s[1:-1])
    h = np.minimum(s[1:-1] - s[:-2], s[2:] - s[1:-1])
    excess = (right - left) * h
    lim = rtol * np.max(np.abs(y))
    if np.all(excess <= lim):
        return []
    i = int(np.argmax(excess))
    return [f"{label}: not concave at s={s[i + 1]:.6g} "
            f"(second difference {excess[i]:.3e} > {lim:.3e})"]


def check_mc(label, value, stderr, reference):
    """Monte Carlo estimate within MC_SIGMAS standard errors of a reference.
    The 1e-9 floor covers estimates whose indicator never changes, where the
    standard error is zero."""
    lim = MC_SIGMAS * stderr + 1e-9 * max(1.0, abs(reference))
    if abs(value - reference) <= lim:
        return []
    return [f"{label}: Monte Carlo {value!r} +- {stderr:.3e} against "
            f"{reference!r} (|diff| {abs(value - reference):.3e} > {lim:.3e})"]


def check_scan_margins(label, worst_margin, endpoint_gap):
    """Scan margins are nonnegative up to 1e-10, and the margins at
    lambda in {0, 1} are exactly zero (same table entry on both sides)."""
    out = []
    if not worst_margin >= -1e-10:
        out.append(f"{label}: worst margin {worst_margin:.3e} below -1e-10")
    if endpoint_gap != 0.0:
        out.append(f"{label}: margin at lambda in {{0, 1}} is "
                   f"{endpoint_gap!r}, not exactly zero")
    return out


def positive_on_net(base_vals, dir_vals, a, multiplicative=False):
    """Smallest support value of h_s over the net at s = -a and s = +a.

    Additive families h + s psi are linear in s, so the endpoints bound the
    whole interval; multiplicative families h * phi^s with phi > 0 stay
    positive wherever h is."""
    if multiplicative:
        return float(np.min(base_vals))
    return float(min(np.min(base_vals - a * dir_vals),
                     np.min(base_vals + a * dir_vals)))


def check_identical(label, first, second):
    if first == second:
        return []
    return [f"{label}: outputs of two passes differ"]
