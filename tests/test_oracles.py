"""Exact sympy oracles for the closed forms, on seeded random rational data.

The oracle works from the paper's definitions in the real coordinates x and
y, without the package's algebra: no ``expr.derivative`` and no closed-form
curvature.  Coefficients and sample points are dyadic rationals, so the
floats the package reads are the exact values sympy works with.
"""

import random

import numpy as np
import pytest
import sympy as sp

from mtriples.mtriple import Disk, curvature, curvature_array, make_triple

x, y = sp.symbols("x y", real=True)
w = sp.Symbol("w")
RADIUS = 0.5


def _gaussian(rng: random.Random, top: int, denominators) -> sp.Expr:
    return sum(sp.Rational(rng.randint(-top, top), rng.choice(denominators)) * unit
               for unit in (1, sp.I))


def _source(c: sp.Expr) -> str:
    """Source text of a Gaussian rational for ``parse_mero``."""
    re, im = c.as_real_imag()
    return f"({re.p}/{re.q} + {im.p}/{im.q}*i)"


def _poly(rng: random.Random, degree: int) -> tuple:
    """A random polynomial in ``w`` and its source text in z."""
    coeffs = [_gaussian(rng, 16, (1, 2, 4, 8)) for _ in range(degree + 1)]
    text = " + ".join(f"{_source(c)}*z^{k}" for k, c in enumerate(coeffs))
    return sum(c * w**k for k, c in enumerate(coeffs)), f"({text})"


def _random_data(rng: random.Random) -> tuple:
    """f = F and g = P/D, as polynomials F, P, D in ``w``; their source text,
    m and the poles of g.

    On half the draws D = w - b puts a simple pole of g at b inside the disk,
    and F = (w - b)^m Q has the zero of order m that regularity asks for;
    Q = q0 + q1 w keeps its root outside the disk, so f has no other zero.
    """
    m = rng.randint(1, 3)
    p, p_src = _poly(rng, rng.randint(1, 3))
    q, q_src = _poly(rng, 1)
    while q.coeff(w, 1) != 0 and abs(complex(q.coeff(w, 0) / q.coeff(w, 1))) <= 1:
        q, q_src = _poly(rng, 1)
    if rng.random() < 0.5:
        return q, p, sp.Integer(1), q_src, p_src, m, []
    b = _gaussian(rng, 3, (8,))
    while p.subs(w, b) == 0:
        b = _gaussian(rng, 3, (8,))
    pole = f"(z - {_source(b)})"
    return (w - b) ** m * q, p, w - b, f"{pole}^{m}*{q_src}", f"{p_src}/{pole}", m, [complex(b)]


def _abs_sq(p: sp.Expr) -> sp.Poly:
    """|p(x + iy)|^2 for a polynomial p in ``w``, as a real polynomial in x and y."""
    conj = sum(sp.conjugate(c) * w**k for (k,), c in sp.Poly(p, w).terms())
    sq = sp.Poly(sp.expand(p.subs(w, x + sp.I * y) * conj.subs(w, x - sp.I * y)), x, y)
    assert all(c.is_real for c in sq.coeffs())
    return sq


def _laplacian_log(u: sp.Poly, at: dict) -> sp.Rational:
    """Lap log u = (u Lap u - |grad u|^2) / u^2 at the point ``at``."""
    ux, uy = u.diff(x), u.diff(y)
    v = u.eval(at)
    return (v * (ux.diff(x).eval(at) + uy.diff(y).eval(at)) - ux.eval(at) ** 2
            - uy.eval(at) ** 2) / v**2


def _curvature_from_definition(F, P, D, m: int, at: dict) -> sp.Rational:
    """K = -Lap log lam / lam^2 at ``at``, where lam = (1 + |g|^2)^(m/2) |f| and
    log lam = (m/2) log(|D|^2 + |P|^2) + (1/2) log |F|^2 - (m/2) log |D|^2."""
    f_sq, p_sq, d_sq = _abs_sq(F), _abs_sq(P), _abs_sq(D)
    lap = (m * _laplacian_log(d_sq + p_sq, at) + _laplacian_log(f_sq, at)
           - m * _laplacian_log(d_sq, at)) / 2
    lam_sq = ((d_sq + p_sq).eval(at) / d_sq.eval(at)) ** m * f_sq.eval(at)
    return -lap / lam_sq


def _sample_points(rng: random.Random, avoid: list, count: int) -> list:
    points = []
    while len(points) < count:
        p = _gaussian(rng, 28, (64,))
        if abs(complex(p)) < 0.9 * RADIUS and all(abs(complex(p) - a) > 0.05 for a in avoid):
            points.append(p)
    return points


@pytest.mark.parametrize("seed", range(8))
def test_curvature_matches_the_definition_exactly(seed):
    rng = random.Random(seed)
    F, P, D, f_src, g_src, m, poles = _random_data(rng)
    triple = make_triple(Disk(0, RADIUS), f_src, g_src, m)
    points = _sample_points(rng, poles, 4)
    # rational arithmetic at dyadic points: the oracle rounds only once, here
    exact = [float(_curvature_from_definition(F, P, D, m, dict(zip((x, y), p.as_real_imag()))))
             for p in points]
    zs = np.array([complex(p) for p in points])
    np.testing.assert_allclose([curvature(triple, z) for z in zs], exact, rtol=1e-12, atol=0)
    np.testing.assert_allclose(curvature_array(triple, zs), exact, rtol=1e-12, atol=0)
