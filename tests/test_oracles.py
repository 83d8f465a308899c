"""Exact sympy oracles for the closed forms, on seeded random rational data.

The curvature oracle works from the paper's definitions in the real
coordinates x and y, without the package's algebra: no ``expr.derivative``
and no closed-form curvature.  The expression oracles hold the rational
normal form to ``sp.fraction(sp.together(...))``, the symbolic derivative to
``sp.diff`` and the sampled vanishing order to the multiplicities of sympy's
cancelled numerator and denominator.  The regularity oracle holds the
candidate points, their orders and each verdict to sympy's zeros and poles,
and the pole-free oracle holds the refusal of surface data to the poles
that survive ``sp.cancel``.  Coefficients and sample points are
dyadic rationals, so the floats the package reads are the exact values sympy
works with.
"""

import operator
import random

import numpy as np
import pytest
import sympy as sp

from mtriples.expr import (
    Add,
    ArgumentError,
    Const,
    Div,
    Exp,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    Z,
    derivative,
    local_order,
    parse_mero,
    rational_form,
)
from mtriples.mtriple import Disk, check_regularity, curvature, curvature_array, make_triple
from mtriples.surfaces import ImproperAffineData

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


# ---------------------------------------------------------------------------
# The expression algebra: rational form, derivative and local order
# ---------------------------------------------------------------------------

# Gaussian dyadics whose squares have a zero part: the quotient rule folds
# c/c^2 for a constant divisor c, and CPython divides by such a square
# exactly, so every constant the package folds is the value sympy holds
_EXACT = [Const(scale * unit) for scale in (0.5, 1.0, 2.0)
          for unit in (1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)]
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _random_tree(rng: random.Random, depth: int, allow_exp: bool):
    if depth == 0 or rng.random() < 0.2:
        return Z if rng.random() < 0.5 else rng.choice(_EXACT)
    kind = rng.choice([Add, Sub, Mul, Div, Pow, Neg] + [Exp] * allow_exp)
    a = _random_tree(rng, depth - 1, allow_exp)
    if kind is Pow:
        return Pow(a, rng.randint(-2, 3))
    if kind in (Neg, Exp):
        return kind(a)
    return kind(a, _random_tree(rng, depth - 1, allow_exp))


def _sympy_of(e) -> sp.Expr:
    """The tree as a sympy expression in ``w``, its constants as exact rationals."""
    if isinstance(e, Const):
        return sp.Rational(e.value.real) + sp.I * sp.Rational(e.value.imag)
    if isinstance(e, Var):
        return w
    if isinstance(e, Pow):
        return _sympy_of(e.base) ** e.exponent
    if isinstance(e, Exp):
        return sp.exp(_sympy_of(e.arg))
    if isinstance(e, Neg):
        return -_sympy_of(e.arg)
    return _BINARY[type(e)](_sympy_of(e.left), _sympy_of(e.right))


def _draw(rng: random.Random, allow_exp: bool):
    """A random tree and its sympy expression, redrawn until sympy finds the
    function defined (no identically zero divisor) and not a mere constant
    or a one-step function of z."""
    while True:
        tree = _random_tree(rng, 4, allow_exp)
        expr = _sympy_of(tree)
        if not expr.has(sp.zoo, sp.nan, sp.oo) and expr.has(w) and sp.count_ops(expr) >= 4:
            return tree, expr


def _polynomial(coeffs: np.ndarray) -> sp.Expr:
    """Coefficients, highest degree first, as an exact polynomial in ``w``."""
    top = len(coeffs) - 1
    return sum((sp.Rational(c.real) + sp.I * sp.Rational(c.imag)) * w ** (top - k)
               for k, c in enumerate(coeffs))


@pytest.mark.parametrize("seed", range(16))
def test_rational_form_matches_sympy_fraction(seed):
    tree, expr = _draw(random.Random(seed), allow_exp=False)
    num, den = rational_form(tree)
    want_num, want_den = sp.fraction(sp.together(expr))
    # no gcd is cancelled, so the pairs agree up to a common factor
    assert sp.expand(_polynomial(num) * want_den - _polynomial(den) * want_num) == 0
    assert den.size > 0


@pytest.mark.parametrize("seed", range(16))
def test_derivative_matches_sympy_diff(seed):
    tree, expr = _draw(random.Random(seed), allow_exp=seed % 2 == 1)
    assert sp.simplify(_sympy_of(derivative(tree)) - sp.diff(expr, w)) == 0


def _multiplicity(p: sp.Expr, a: sp.Expr) -> int:
    poly, k = sp.Poly(p, w), 0
    while poly.eval(a) == 0:
        poly, k = sp.quo(poly, sp.Poly(w - a, w)), k + 1
    return k


@pytest.mark.parametrize("seed", range(8))
def test_local_order_matches_sympy_at_zeros_poles_and_regular_points(seed):
    rng = random.Random(seed)
    sites = []
    while len(sites) < 4:
        a = _gaussian(rng, 7, (8,))
        if all(abs(complex(a - b)) > 0.25 for b in sites):
            sites.append(a)
    # a zero, a pole, and two sites where the factors may cancel
    ups = [rng.randint(1, 2), 0, rng.randint(0, 2), rng.randint(0, 2)]
    downs = [0, rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 2)]
    lead = _gaussian(rng, 16, (1, 2, 4))
    while lead == 0:
        lead = _gaussian(rng, 16, (1, 2, 4))
    num = lead * sp.prod([(w - a) ** k for a, k in zip(sites, ups)])
    den = sp.prod([(w - a) ** k for a, k in zip(sites, downs)])
    if seed % 2:  # the numerator expanded: its zeros are cancellations of rounded terms
        coeffs = sp.Poly(num, w).all_coeffs()[::-1]
        num_src = " + ".join(f"{_source(c)}*z^{k}" for k, c in enumerate(coeffs))
    else:
        num_src = "*".join([_source(lead)] + [f"(z - {_source(a)})^{k}" for a, k in zip(sites, ups)])
    den_src = "*".join(["1"] + [f"(z - {_source(a)})^{k}" for a, k in zip(sites, downs)])
    tree = parse_mero(f"({num_src})/({den_src})")
    want_num, want_den = sp.fraction(sp.cancel(num / den))
    regular = _sample_points(rng, [complex(a) for a in sites], 2)
    for z0 in sites + regular:
        want = _multiplicity(want_num, z0) - _multiplicity(want_den, z0)
        assert local_order(tree, complex(z0)) == want, (z0, want)


# ---------------------------------------------------------------------------
# Regularity: candidate points, orders and verdicts
# ---------------------------------------------------------------------------


def _factored(rng: random.Random, sites: list, orders: list) -> tuple:
    """lead * prod (w - a)^k over the sites and orders, as a sympy expression
    and as source text with the poles in the denominator."""
    lead = _gaussian(rng, 16, (1, 2, 4))
    while lead == 0:
        lead = _gaussian(rng, 16, (1, 2, 4))
    expr = lead * sp.prod([(w - a) ** k for a, k in zip(sites, orders)])
    num = "*".join([_source(lead)] + [f"(z - {_source(a)})^{k}"
                                      for a, k in zip(sites, orders) if k > 0])
    den = "*".join(["1"] + [f"(z - {_source(a)})^{-k}" for a, k in zip(sites, orders) if k < 0])
    return expr, f"({num})/({den})"


def _zeros_and_poles(expr: sp.Expr) -> dict:
    """{point: order} over the zeros (order > 0) and poles (order < 0) that
    sympy finds in the cancelled numerator and denominator."""
    num, den = sp.fraction(sp.cancel(expr))
    orders = dict(sp.roots(sp.Poly(num, w)))
    for p, k in sp.roots(sp.Poly(den, w)).items():
        orders[p] = orders.get(p, 0) - k
    return orders


@pytest.mark.parametrize("seed", range(8))
def test_check_regularity_matches_sympy_zeros_and_poles(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    sites = []  # four inside the unit disk and one outside, clear of its rim
    while len(sites) < 5:
        a = _gaussian(rng, 12, (8,))
        r = abs(complex(a))
        if (r < 0.95 if len(sites) < 4 else r > 1.05) and all(
                abs(complex(a - b)) > 0.25 for b in sites):
            sites.append(a)
    g_orders = [rng.randint(-1, 2) for _ in sites]
    # at a pole of g, f has the zero of order -m ord g that regularity asks for,
    # and no other zero or pole: on odd seeds always, on even seeds mostly
    f_orders = [-m * k if k < 0 and (seed % 2 or rng.random() < 0.6)
                else 0 if seed % 2 else rng.randint(-1, 1) for k in g_orders]
    f_expr, f_src = _factored(rng, sites, f_orders)
    g_expr, g_src = _factored(rng, sites, g_orders)
    report = check_regularity(Disk(0, 1.0), parse_mero(f_src), parse_mero(g_src), m)

    ord_f, ord_g = _zeros_and_poles(f_expr), _zeros_and_poles(g_expr)
    inside = [p for p in {*ord_f, *ord_g} if abs(complex(p)) < 1]
    assert report.checked
    assert len(report.entries) == len(inside)
    regular = True
    for p in inside:
        entry = min(report.entries, key=lambda e: abs(e.point - complex(p)))
        assert abs(entry.point - complex(p)) < 1e-9, (entry.point, p)
        a, b = ord_f.get(p, 0), ord_g.get(p, 0)
        assert (entry.f_order, entry.g_order) == (a, b), p
        # (1 + |g|^2)^(m/2) |f| ~ |z - p|^(a + m min(b, 0)): positive and finite iff that is 0
        if a + m * min(b, 0) == 0:
            want = "ok"
        else:
            want = "f-pole" if a < 0 else "order-mismatch" if b < 0 else "stray-f-zero"
            regular = False
        assert entry.verdict == want, p
    assert report.overall == regular


@pytest.mark.parametrize("seed", range(8))
def test_pole_free_data_is_refused_iff_a_pole_survives_cancellation(seed):
    rng = random.Random(seed)
    sites = []  # three inside the unit disk and one outside, clear of its rim
    while len(sites) < 4:
        a = _gaussian(rng, 12, (8,))
        r = abs(complex(a))
        if (r < 0.95 if len(sites) < 3 else r > 1.05) and all(
                abs(complex(a - b)) > 0.25 for b in sites):
            sites.append(a)
    downs = [rng.randint(0, 2) for _ in sites]
    # a zero at a pole's site: at least as deep on even seeds, so every pole
    # cancels, and of any order up to 2 on odd seeds
    ups = [k + rng.randint(0, 1) if seed % 2 == 0 else rng.randint(0, 2) for k in downs]
    lead = _gaussian(rng, 16, (1, 2, 4))
    while lead == 0:
        lead = _gaussian(rng, 16, (1, 2, 4))
    expr = lead * sp.prod([(w - a) ** (u - d) for a, u, d in zip(sites, ups, downs)])
    num = "*".join([_source(lead)] + [f"(z - {_source(a)})^{k}" for a, k in zip(sites, ups)])
    den = "*".join(["1"] + [f"(z - {_source(a)})^{k}" for a, k in zip(sites, downs)])
    src = f"({num})/({den})"
    poles = sp.roots(sp.Poly(sp.fraction(sp.cancel(expr))[1], w))
    refused = any(abs(complex(p)) < 1 for p in poles)
    # the data in F on one pair of seeds, in G on the next
    field, exprs = ("F", (src, "z")) if seed // 2 % 2 == 0 else ("G", ("z", src))
    if refused:
        with pytest.raises(ArgumentError, match="has a pole") as info:
            ImproperAffineData(*exprs, Disk(0, 1.0))
        assert info.value.name == field
    else:
        ImproperAffineData(*exprs, Disk(0, 1.0))
    assert refused == (seed % 2 == 1 and any(d > u for u, d in zip(ups[:3], downs[:3])))
