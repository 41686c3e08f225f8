"""Bodies from support functions, set combinations, quermassintegrals, and
perturbation families."""

import math

import numpy as np
import pytest

from bmstab.bodies import (VALIDITY_EIG_FLOOR, FamilyError,
                           NonPositiveSupport, NotConvex, ball_body,
                           ball_intrinsic_volume, body_from_support,
                           log_combine, make_family, measure_of_body,
                           minkowski_combine, quermassintegrals)
from bmstab.funcspecs import direction_suite, sf_from_spec
from bmstab.sphere import (PolynomialSF, SphericalFunction, curvature_matrix,
                           integrate, sf_exp, sf_ratio, sf_sum)


def perturbed_disk(eps, k=2):
    return sf_sum([(1.0, PolynomialSF.constant(2, 1.0)),
                   (eps, PolynomialSF.cos_harmonic(k))])


@pytest.mark.parametrize("n,R", [(2, 0.7), (2, 1.0), (3, 1.3), (4, 0.9)])
def test_ball_body_basics(n, R, lebesgue):
    g_res = {2: 160, 3: 16, 4: 10}[n]
    from bmstab.sphere import build_grid
    g = build_grid(n, g_res)
    K = ball_body(R, g)
    assert K.n == n
    assert K.min_curvature_eig == pytest.approx(R, rel=1e-12)
    assert np.allclose(K.D, R, atol=1e-12)
    vol = measure_of_body(lebesgue, K)
    kappa = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    assert vol == pytest.approx(kappa * R ** n, rel=1e-11)


def test_gaussian_ball_closed_form(grid2, gaussian):
    for R in (0.5, 1.0, 2.0):
        K = ball_body(R, grid2)
        got = measure_of_body(gaussian, K)
        assert got == pytest.approx(2 * math.pi * (1 - math.exp(-R * R / 2)),
                                    rel=1e-10)


def test_perturbed_disk_area(grid2, lebesgue):
    # area of h = 1 + eps cos(k theta):  pi (1 - (k^2-1)/2 * eps^2 * ... )
    # exact: (1/2) int (h^2 - h'^2) = pi (1 + eps^2/2 - k^2 eps^2 / 2)
    for eps, k in ((0.05, 2), (0.02, 3)):
        K = body_from_support(perturbed_disk(eps, k), grid2)
        area = measure_of_body(lebesgue, K)
        expected = math.pi * (1.0 + eps * eps / 2.0 - k * k * eps * eps / 2.0)
        assert area == pytest.approx(expected, rel=1e-12)


def test_nonconvex_support_rejected(grid2):
    # Q = 1 - 3 eps cos 2theta goes negative for eps > 1/3
    with pytest.raises(NotConvex) as err:
        body_from_support(perturbed_disk(0.4), grid2)
    assert err.value.min_eig < 0.0
    assert err.value.node.shape == (2,)


def test_nonpositive_support_rejected(grid2):
    h = sf_sum([(1.0, PolynomialSF.constant(2, 0.1)),
                (1.0, PolynomialSF.cos_harmonic(1))])  # 0.1 + cos(theta)
    with pytest.raises(NonPositiveSupport):
        body_from_support(h, grid2)


@pytest.mark.parametrize("n,R", [(2, 1.0), (2, 1.7), (3, 0.8), (3, 1.0)])
def test_quermassintegrals_of_ball(n, R):
    from bmstab.sphere import build_grid
    g = build_grid(n, {2: 160, 3: 16}[n])
    K = ball_body(R, g)
    V = quermassintegrals(K)
    assert len(V) == n + 1
    for j in range(n + 1):
        assert V[j] == pytest.approx(ball_intrinsic_volume(n, j) * R ** j,
                                     rel=1e-10, abs=1e-12)
    # sanity against the classical values
    if n == 2:
        assert V[0] == pytest.approx(1.0, rel=1e-12)
        assert V[1] == pytest.approx(math.pi * R, rel=1e-10)
        assert V[2] == pytest.approx(math.pi * R * R, rel=1e-10)
    if n == 3:
        assert V[1] == pytest.approx(4.0 * R, rel=1e-10)
        assert V[2] == pytest.approx(2.0 * math.pi * R * R, rel=1e-10)
        assert V[3] == pytest.approx(4.0 / 3.0 * math.pi * R ** 3, rel=1e-10)


def test_quermassintegrals_perturbed_disk(grid2):
    eps = 0.05
    K = body_from_support(perturbed_disk(eps), grid2)
    V = quermassintegrals(K)
    # mean width is unchanged by a pure second harmonic
    assert V[1] == pytest.approx(math.pi, rel=1e-12)
    assert V[2] == pytest.approx(math.pi * (1.0 - 1.5 * eps * eps), rel=1e-12)


def test_minkowski_combine_balls(grid2, lebesgue):
    K = ball_body(1.0, grid2)
    L = ball_body(2.0, grid2)
    for lam in (0.0, 0.25, 0.5, 1.0):
        M = minkowski_combine(K, L, lam)
        r = lam * 1.0 + (1 - lam) * 2.0
        assert np.allclose(M.hvals, r, atol=1e-12)
        assert measure_of_body(lebesgue, M) == pytest.approx(
            math.pi * r * r, rel=1e-12)


def test_minkowski_area_is_quadratic_in_lambda(grid2, lebesgue):
    K = body_from_support(perturbed_disk(0.08), grid2)
    L = ball_body(1.5, grid2)
    lams = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    areas = np.array([measure_of_body(lebesgue, minkowski_combine(K, L, l))
                      for l in lams])
    # fit on three points, predict the other two
    coef = np.polyfit(lams[[0, 2, 4]], areas[[0, 2, 4]], 2)
    pred = np.polyval(coef, lams[[1, 3]])
    assert np.allclose(pred, areas[[1, 3]], rtol=1e-10)


def test_log_combine_geometric_mean(grid2):
    K = body_from_support(perturbed_disk(0.05), grid2)
    L = ball_body(1.5, grid2)
    M = log_combine(K, L, 0.3)
    want = K.hvals ** 0.3 * L.hvals ** 0.7
    assert np.max(np.abs(M.hvals - want)) < 1e-12


def test_combine_rejects_bad_lambda(grid2):
    K = ball_body(1.0, grid2)
    with pytest.raises(ValueError):
        minkowski_combine(K, K, 1.5)
    with pytest.raises(ValueError):
        log_combine(K, K, -0.1)


# ---------------------------------------------------------------------------
# perturbation families
# ---------------------------------------------------------------------------

def test_additive_family_validity_radius(grid2):
    base = PolynomialSF.constant(2, 1.0)
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family("additive", base, psi, grid2)
    # Q_s = 1 - 3 s cos 2theta: the eigenvalue floor 0.05 * base is hit at
    # s = 0.95/3; the bisection bracket is 8/2^40 wide
    assert fam.a == pytest.approx(0.95 / 3.0, abs=1e-9)
    assert fam.kind == "additive"
    # the trace records (candidate radius, valid?) pairs from the bisection
    assert len(fam.search_trace) >= 40
    assert fam.search_trace[0] == (8.0, False)
    assert all(ok for s, ok in fam.search_trace if s <= fam.a)


def test_family_support_at_matches_closed_form(grid2):
    base = perturbed_disk(0.05)
    psi = PolynomialSF.cos_harmonic(2)
    fam = make_family("additive", base, psi, grid2)
    s = 0.1 * fam.a
    hs = fam.support_at(s)
    want = base.values(grid2.nodes) + s * psi.values(grid2.nodes)
    assert np.max(np.abs(hs.values(grid2.nodes) - want)) < 1e-13


def test_multiplicative_family_fields(grid3):
    base = PolynomialSF(3, {(0, 0, 0): 1.0, (2, 0, 0): 0.1})
    phi = PolynomialSF(3, {(0, 0, 0): 1.0, (0, 2, 0): 0.08})
    fam = make_family("multiplicative", base, phi, grid3)
    s_values = np.array([-0.5, 0.0, 0.8]) * fam.a
    vals, grads, Q = fam.curvature_batch(s_values)
    for i, s in enumerate(s_values):
        direct = fam.body_at(float(s))
        assert np.max(np.abs(vals[i] - direct.hvals)) < 1e-11
        assert np.max(np.abs(grads[i] - direct.grad0)) < 1e-10
        # Q(s) = h_s (C0 + s C1 + s^2 C2) against the body's own curvature
        assert np.max(np.abs(Q[i] - direct.curvature.Q)) < 1e-11
    # h_s = h * phi^s pointwise
    want = base.values(grid3.nodes)[None, :] \
        * phi.values(grid3.nodes)[None, :] ** s_values[:, None]
    assert np.max(np.abs(vals - want)) < 1e-11


def _family_case(kind, n, name):
    """A family through a perturbed ball along a named direction; the
    multiplicative direction is exp(psi / h), as in the log scans."""
    base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                   (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
    spec = ({"type": "random_even", "seed": 20240817} if name == "random_even"
            else {"type": name})
    psi = sf_from_spec(spec, n)
    if kind == "multiplicative":
        return base, sf_exp(sf_ratio(psi, base))
    return base, psi


def test_measures_along_matches_per_s(grid2, grid3, gaussian):
    for kind in ("additive", "multiplicative"):
        for grid in (grid2, grid3):
            base, direction = _family_case(kind, grid.n, "second_harmonic")
            fam = make_family(kind, base, direction, grid)
            s_values = np.linspace(-0.6, 0.6, 7) * fam.a
            gam = fam.measures_along(gaussian, s_values)
            direct = np.array([measure_of_body(gaussian, fam.body_at(float(s)))
                               for s in s_values])
            rel = np.max(np.abs(gam - direct) / direct)
            assert rel < 1e-13, (kind, grid.n)


@pytest.mark.parametrize("name", ["second_harmonic", "random_even"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_family_validity_holds_on_dense_s_grid(kind, n, name, grid2, grid3):
    # the radius is checked at s = +-a only; at every node and every one of
    # 401 parameters in [-a, a] the support stays positive and the exact
    # curvature eigenvalue stays above the floor
    grid = {2: grid2, 3: grid3}[n]
    base, direction = _family_case(kind, n, name)
    fam = make_family(kind, base, direction, grid)
    base_min_eig = body_from_support(base, grid).min_curvature_eig
    floor = VALIDITY_EIG_FLOOR * base_min_eig
    vals, _, Q = fam.curvature_batch(np.linspace(-fam.a, fam.a, 401))
    assert np.all(vals > 0.0)
    min_eig = np.linalg.eigvalsh(Q)[..., 0]
    assert np.min(min_eig) >= floor * (1.0 - 1e-12)


def _reference_radius(fam, max_radius=8.0):
    # make_family's bisection with eigvalsh for every smallest eigenvalue
    c = fam._coefficients()
    base_Q = curvature_matrix(fam.base, fam.grid).Q
    floor = VALIDITY_EIG_FLOOR * np.min(np.linalg.eigvalsh(base_Q)[:, 0])

    def valid(b):
        s = np.array([-b, b]).reshape(2, 1, 1, 1)
        vals = fam._values(s)
        lam = np.linalg.eigvalsh(c["C0"] + s * c["C1"])[..., 0]
        w = vals if fam.kind == "multiplicative" else 1.0
        return bool(np.all(vals > 0.0) and np.all(w * lam >= floor))

    if valid(max_radius):
        return max_radius
    lo, hi = 0.0, max_radius
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if valid(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("amplitude", [1.0, 0.3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_family_radius_equals_eigvalsh_bisection(kind, n, amplitude, grid2,
                                                 grid3):
    # the closed-form 1x1 and 2x2 eigenvalues must not move any radius
    grid = {2: grid2, 3: grid3}[n]
    base = sf_sum([(1.0, PolynomialSF.constant(n, 1.0)),
                   (0.05, sf_from_spec({"type": "second_harmonic"}, n))])
    for name, _, psi in direction_suite(n, amplitude=amplitude):
        direction = (sf_exp(sf_ratio(psi, base)) if kind == "multiplicative"
                     else psi)
        fam = make_family(kind, base, direction, grid)
        assert fam.a == _reference_radius(fam), name


def test_additive_family_computes_base_curvature_once(monkeypatch, grid3):
    # validating the base body gives its curvature field; the family reuses
    # it, so only the direction's is computed on top
    import bmstab.bodies as bodies_module
    real = bodies_module.curvature_matrix
    calls = []

    def counting(h, grid):
        calls.append(h)
        return real(h, grid)

    monkeypatch.setattr(bodies_module, "curvature_matrix", counting)
    base, psi = _family_case("additive", 3, "random_even")
    fam = make_family("additive", base, psi, grid3)
    assert len(calls) == 2
    assert calls[0] is base and calls[1] is psi
    c = fam._coefficients()
    assert np.array_equal(c["C0"], real(base, grid3).Q)
    assert np.array_equal(c["v0"], base.d2_ext0(grid3.nodes).val)


class _CountingSF(SphericalFunction):
    """A spherical function that counts its d2_ext0 calls."""

    def __init__(self, sf):
        self.sf, self.n, self.calls = sf, sf.n, 0

    def values(self, U):
        return self.sf.values(U)

    def d2_ext0(self, U):
        self.calls += 1
        return self.sf.d2_ext0(U)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_one_node_evaluation_per_support_function(kind, grid3):
    # a body, a family's base and a family's direction each evaluate their
    # derivative bundle once on the grid; the multiplicative direction
    # exp(psi) does not reference the base
    base, psi = _family_case("additive", 3, "random_even")
    h = _CountingSF(base)
    body_from_support(h, grid3)
    assert h.calls == 1
    h = _CountingSF(base)
    d = _CountingSF(psi if kind == "additive" else sf_exp(psi))
    fam = make_family(kind, h, d, grid3)
    fam.curvature_batch(np.array([-0.5, 0.5]) * fam.a)
    assert (h.calls, d.calls) == (1, 1)


def test_family_rejects_out_of_range(grid2):
    fam = make_family("additive", PolynomialSF.constant(2, 1.0),
                      PolynomialSF.cos_harmonic(2), grid2)
    with pytest.raises(FamilyError):
        fam.body_at(fam.a * 1.5)
    with pytest.raises(ValueError):
        make_family("affine", PolynomialSF.constant(2, 1.0),
                    PolynomialSF.cos_harmonic(2), grid2)


def test_family_max_radius_cap(grid2):
    # a direction that never breaks convexity: the cap must bind
    base = PolynomialSF.constant(2, 1.0)
    fam = make_family("additive", base, PolynomialSF.constant(2, 1.0),
                      grid2, max_radius=2.5)
    assert fam.a <= 2.5 + 1e-12
