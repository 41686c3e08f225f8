"""Serializable direction specs: round trips, determinism, and parities."""

import numpy as np
import pytest

from bmstab.funcspecs import direction_suite, sf_from_spec
from bmstab.sphere import build_grid


@pytest.mark.parametrize("spec,n", [
    ({"type": "constant", "value": 2.5}, 3),
    ({"type": "linear", "coeffs": [0.1, -0.2, 0.3]}, 3),
    ({"type": "cos_harmonic", "k": 3}, 2),
    ({"type": "sin_harmonic", "k": 2, "amplitude": 0.5}, 2),
    ({"type": "monomial", "alpha": [2, 0, 0], "coeff": 1.5}, 3),
    ({"type": "poly", "terms": [[[0, 0], 1.0], [[2, 0], -0.3]]}, 2),
    ({"type": "first_harmonic"}, 2),
    ({"type": "first_harmonic"}, 4),
    ({"type": "second_harmonic"}, 2),
    ({"type": "second_harmonic"}, 3),
    ({"type": "random_even", "seed": 99, "amplitude": 0.7}, 2),
    ({"type": "random_even", "seed": 99, "amplitude": 0.7}, 3),
    ({"type": "scale", "factor": 0.3,
      "inner": {"type": "second_harmonic"}}, 3),
    ({"type": "exp", "inner": {"type": "constant", "value": 0.1}}, 2),
    ({"type": "sum", "parts": [[1.0, {"type": "constant", "value": 1.0}],
                               [0.2, {"type": "cos_harmonic", "k": 2}]]}, 2),
])
def test_spec_round_trip_bitwise(spec, n):
    g = build_grid(n, 32 if n == 2 else 8)
    a = sf_from_spec(spec, n)
    b = sf_from_spec(spec, n)
    va, vb = a.values(g.nodes), b.values(g.nodes)
    assert np.array_equal(va, vb), "same spec must give bitwise-equal values"


def test_spec_values_match_formulas():
    g = build_grid(2, 64)
    theta = np.arctan2(g.nodes[:, 1], g.nodes[:, 0])
    c = sf_from_spec({"type": "cos_harmonic", "k": 4}, 2)
    assert np.allclose(c.values(g.nodes), np.cos(4 * theta), atol=1e-13)
    s = sf_from_spec({"type": "scale", "factor": -2.0,
                      "inner": {"type": "cos_harmonic", "k": 4}}, 2)
    assert np.allclose(s.values(g.nodes), -2 * np.cos(4 * theta), atol=1e-13)
    e = sf_from_spec({"type": "exp",
                      "inner": {"type": "cos_harmonic", "k": 2}}, 2)
    assert np.allclose(e.values(g.nodes), np.exp(np.cos(2 * theta)),
                       atol=1e-13)


def test_first_harmonic_is_linear_everywhere():
    for n in (2, 3, 4):
        sf = sf_from_spec({"type": "first_harmonic"}, n)
        g = build_grid(n, 16 if n < 4 else 8)
        assert np.allclose(sf.values(g.nodes), g.nodes[:, 0], atol=1e-13)
        assert sf.parity() == "odd"


def test_second_harmonic_zero_mean_even():
    for n in (2, 3):
        sf = sf_from_spec({"type": "second_harmonic"}, n)
        g = build_grid(n, 32 if n == 2 else 10)
        assert sf.parity() == "even"
        assert abs(float(np.sum(g.weights * sf.values(g.nodes)))) < 1e-12


def test_random_even_determinism_and_parity():
    for n in (2, 3):
        a = sf_from_spec({"type": "random_even", "seed": 4, "amplitude": 1.0}, n)
        b = sf_from_spec({"type": "random_even", "seed": 4, "amplitude": 1.0}, n)
        c = sf_from_spec({"type": "random_even", "seed": 5, "amplitude": 1.0}, n)
        g = build_grid(n, 32 if n == 2 else 10)
        assert np.array_equal(a.values(g.nodes), b.values(g.nodes))
        assert not np.array_equal(a.values(g.nodes), c.values(g.nodes))
        assert a.parity() == "even"
        # sup-normalized: comfortably bounded by the amplitude
        assert np.max(np.abs(a.values(g.nodes))) <= 1.0 + 1e-9


def test_random_even_amplitude_scaling():
    a1 = sf_from_spec({"type": "random_even", "seed": 6, "amplitude": 1.0}, 2)
    a2 = sf_from_spec({"type": "random_even", "seed": 6, "amplitude": 0.25}, 2)
    g = build_grid(2, 32)
    assert np.allclose(a2.values(g.nodes), 0.25 * a1.values(g.nodes),
                       atol=1e-14)


def test_direction_suite_contents():
    for n in (2, 3):
        suite = direction_suite(n)
        names = [name for name, _, _ in suite]
        assert names == ["constant", "first_harmonic", "second_harmonic",
                         "random_even"]
        for name, spec, sf in suite:
            again = sf_from_spec(spec, n)
            g = build_grid(n, 16 if n == 2 else 8)
            assert np.array_equal(sf.values(g.nodes), again.values(g.nodes))


def test_unknown_spec_rejected():
    with pytest.raises(ValueError):
        sf_from_spec({"type": "bessel"}, 2)
    with pytest.raises(ValueError):
        sf_from_spec({"type": "cos_harmonic", "k": 2}, 3)  # circle-only
