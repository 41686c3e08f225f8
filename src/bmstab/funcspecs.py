"""Serializable descriptions of spherical functions.

Verification reports store the perturbation directions they used as small
JSON dictionaries; rebuilding the function from its dictionary must
reproduce the original bit for bit, so every construction here is
deterministic (randomness only through an explicit seed)."""

from __future__ import annotations

import numpy as np

from .sphere import PolynomialSF, sf_exp, sf_sum


def _tuple_alpha(alpha):
    return tuple(int(a) for a in alpha)


def sf_from_spec(spec, n):
    """Rebuild a spherical function from its JSON-safe description."""
    kind = spec["type"]
    if kind == "constant":
        out = PolynomialSF.constant(n, float(spec["value"]))
    elif kind == "linear":
        out = PolynomialSF.linear(n, [float(c) for c in spec["coeffs"]])
    elif kind == "cos_harmonic":
        if n != 2:
            raise ValueError("cos_harmonic is a circle construction")
        out = PolynomialSF.cos_harmonic(int(spec["k"]),
                                        float(spec.get("amplitude", 1.0)))
    elif kind == "sin_harmonic":
        if n != 2:
            raise ValueError("sin_harmonic is a circle construction")
        out = PolynomialSF.sin_harmonic(int(spec["k"]),
                                        float(spec.get("amplitude", 1.0)))
    elif kind == "monomial":
        out = PolynomialSF(n, {_tuple_alpha(spec["alpha"]): float(spec["coeff"])})
    elif kind == "poly":
        coeffs = {_tuple_alpha(a): float(c) for a, c in spec["terms"]}
        out = PolynomialSF(n, coeffs)
    elif kind == "sum":
        parts = [(float(c), sf_from_spec(s, n)) for c, s in spec["parts"]]
        out = sf_sum(parts)
    elif kind == "scale":
        out = sf_sum([(float(spec["factor"]), sf_from_spec(spec["inner"], n))])
    elif kind == "exp":
        out = sf_exp(sf_from_spec(spec["inner"], n))
    elif kind == "first_harmonic":
        out = _first_harmonic(n)
    elif kind == "second_harmonic":
        out = _second_harmonic(n)
    elif kind == "random_even":
        out = _random_even(n, int(spec["seed"]),
                           float(spec.get("amplitude", 1.0)))
    else:
        raise ValueError(f"unknown function spec type {kind!r}")
    return out


def _first_harmonic(n):
    if n == 2:
        return PolynomialSF.cos_harmonic(1)
    coeffs = [0.0] * n
    coeffs[0] = 1.0
    return PolynomialSF.linear(n, coeffs)


def _second_harmonic(n):
    if n == 2:
        return PolynomialSF.cos_harmonic(2)
    alpha = [0] * n
    alpha[0] = 1
    alpha[1] = 1
    return PolynomialSF(n, {tuple(alpha): 1.0})


def _probe_directions(n):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    u = rng.standard_normal((512, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.vstack([u, np.eye(n), -np.eye(n)])


def _random_even(n, seed, amplitude):
    """Random antipodally even direction: an even trigonometric polynomial
    on the circle, a random quadratic form in higher dimension; normalized
    so the sup over a fixed probe set equals the amplitude."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if n == 2:
        parts = [(rng.uniform(-1, 1), PolynomialSF.constant(2, 1.0))]
        for k in (2, 4):
            parts.append((rng.uniform(-1, 1), PolynomialSF.cos_harmonic(k)))
            parts.append((rng.uniform(-1, 1), PolynomialSF.sin_harmonic(k)))
        raw = sf_sum(parts)
    else:
        M = rng.uniform(-1, 1, (n, n))
        M = (M + M.T) / 2.0
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                c = M[i, j] if i == j else 2.0 * M[i, j]
                coeffs[tuple(alpha)] = c
        coeffs[(0,) * n] = coeffs.get((0,) * n, 0.0) + rng.uniform(-1, 1)
        raw = PolynomialSF(n, coeffs)
    sup = float(np.max(np.abs(raw.values(_probe_directions(n)))))
    return sf_sum([(amplitude / sup, raw)])


def direction_suite(n, seed=20240817, amplitude=1.0):
    """The standard perturbation directions: constant, first and second
    harmonics, and a seeded random even function.  Returns (name, spec,
    function) triples."""
    specs = [
        ("constant", {"type": "constant", "value": amplitude}),
        ("first_harmonic", {"type": "first_harmonic"}),
        ("second_harmonic", {"type": "second_harmonic"}),
        ("random_even", {"type": "random_even", "seed": seed,
                         "amplitude": amplitude}),
    ]
    return [(name, spec, sf_from_spec(spec, n)) for name, spec in specs]
