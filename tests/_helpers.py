"""Shared generators for the randomized suites (all seeded by the caller),
and closed-form oracles that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from mtriples.expr import Add, Const, Div, Exp, Mul, Neg, Pow, Sub, Z, ExtComplex, MeroExpr
from mtriples.mtriple import Disk, MTriple, make_triple


def poly_expr(coeffs) -> MeroExpr:
    """Expression tree for a polynomial, highest degree first (Horner form)."""
    out: MeroExpr = Const(complex(coeffs[0]))
    for c in coeffs[1:]:
        out = Add(Mul(out, Z), Const(complex(c)))
    return out


def random_expr(rng: np.random.Generator, depth: int = 3, allow_exp: bool = True) -> MeroExpr:
    """Random grammar tree with small constants."""
    if depth == 0:
        k = rng.integers(0, 3)
        if k == 0:
            return Z
        if k == 1:
            return Const(complex(round(rng.uniform(-2, 2), 3)))
        return Const(complex(0, round(rng.uniform(-2, 2), 3)))
    k = rng.integers(0, 7 if allow_exp else 6)
    a = random_expr(rng, depth - 1, allow_exp)
    b = random_expr(rng, depth - 1, allow_exp)
    if k == 0:
        return Add(a, b)
    if k == 1:
        return Sub(a, b)
    if k == 2:
        return Mul(a, b)
    if k == 3:
        return Div(a, b)
    if k == 4:
        return Pow(a, int(rng.integers(0, 4)))
    if k == 5:
        return Neg(a)
    return Exp(a)


def random_points(rng: np.random.Generator, n: int, radius: float = 1.0) -> np.ndarray:
    return (rng.uniform(-radius, radius, n) + 1j * rng.uniform(-radius, radius, n)).astype(
        complex
    )


def random_regular_triple(rng: np.random.Generator, m: int) -> MTriple:
    """Random rational triple on D(0; 2), regular by construction.

    g = p/q with simple poles; f = q^m puts a zero of order exactly m at
    each pole of g and vanishes nowhere else.  All roots keep a separation
    of 0.5, so the log-density has no features sharper than that scale and
    the finite-difference curvature oracle meets its stated tolerance with
    the 0.1 sample clearance.
    """
    deg_p = int(rng.integers(1, 3))
    n_poles = int(rng.integers(0, 3))
    roots: list[complex] = []
    while len(roots) < deg_p + n_poles:
        w = complex(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
        if all(abs(w - r) > 0.5 for r in roots):
            roots.append(w)
    p_roots = roots[:deg_p]
    q_roots = [w for w in roots[deg_p:] if abs(w) > 0.4]
    lead = complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()))
    p = lead * np.poly(p_roots) if deg_p else np.array([lead])
    q = np.poly(q_roots) if q_roots else np.array([1.0 + 0j])
    g = Div(poly_expr(p), poly_expr(q))
    f = Pow(poly_expr(q), m) if q_roots else Const(1 + 0j)
    triple = make_triple(Disk(0, 2.0), f, g, m)
    return triple


def sample_points_away(
    rng: np.random.Generator,
    triple: MTriple,
    n: int,
    min_gap: float = 0.1,
    radius: float = 1.0,
) -> list:
    """Points with the stated clearance from poles of g, zeros of g', punctures."""
    from mtriples.expr import derivative, rational_form

    keep_away = list(triple.domain.punctures)
    _, den_g = rational_form(triple.g)
    if den_g.size > 1:
        keep_away += list(np.roots(den_g))
    num_gd, _ = rational_form(derivative(triple.g))
    if num_gd.size > 1:
        keep_away += list(np.roots(num_gd))
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if all(abs(z - w) >= min_gap for w in keep_away):
            out.append(z)
    return out


def random_bounded_triple(rng: np.random.Generator, limit: float, m: int) -> MTriple:
    """Polynomial g on the unit disk scaled so max |g| is strictly below limit."""
    deg = int(rng.integers(1, 4))
    coeffs = random_points(rng, deg + 1, 1.0)
    if abs(coeffs[0]) < 0.2:
        coeffs[0] += 0.4
    rim = np.exp(2j * np.pi * np.arange(720) / 720)
    g_raw = np.polyval(coeffs, rim)
    scale = rng.uniform(0.5, 0.95) * limit / np.abs(g_raw).max()
    g = poly_expr(coeffs * scale)
    return make_triple(Disk(0, 1.0), Const(1 + 0j), g, m)


def outcome_bits(fn, *args):
    """``fn(*args)`` as (result type, uint64 bit patterns), or the type of the
    exception it raised: equal outcomes mean bitwise-equal results (signs of
    zero and NaN payloads included) or the same failure."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)
    return type(out), np.asarray(out).view(np.uint64).tolist()


def raises(fn, *args) -> bool:
    try:
        fn(*args)
    except Exception:  # noqa: BLE001
        return True
    return False


def stereographic(v) -> np.ndarray:
    """Projection onto the unit sphere; infinity maps to the north pole."""
    ev = ExtComplex.of(v)
    if ev.is_inf:
        return np.array([0.0, 0.0, 1.0])
    z = ev.value
    r = abs(z)
    if r == 0.0:
        return np.array([0.0, 0.0, -1.0])
    with np.errstate(over="ignore"):
        t = r / (r * r + 1.0)  # overflows gracefully to 0 for huge r
        nz = 1.0 - 2.0 / (r * r + 1.0)
    return np.array([2.0 * (z.real / r) * t, 2.0 * (z.imag / r) * t, nz])


def poincare_density(zs) -> np.ndarray:
    """Density 2/(1-|z|^2) of the curvature -1 metric on the unit disk."""
    zs = np.asarray(zs, dtype=complex)
    return 2.0 / (1.0 - np.abs(zs) ** 2)


def hyperbolic_distance(z1: complex, z2: complex) -> float:
    """Distance in the curvature -1 metric; d(0, z) = log((1+|z|)/(1-|z|))."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1) >= 1 or abs(z2) >= 1:
        raise ValueError("arguments must lie in the open unit disk")
    delta = abs(z1 - z2) / abs(1 - z1.conjugate() * z2)
    return math.log1p(delta) - math.log1p(-delta)
