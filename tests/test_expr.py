"""Expression core: parsing, evaluation, differentiation, sphere geometry."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from mtriples.expr import (
    INFINITY,
    Const,
    Div,
    EvalError,
    ExtComplex,
    Neg,
    ParseError,
    Pow,
    Sub,
    Z,
    chordal,
    chordal_array,
    derivative,
    eval_array,
    eval_array_checked,
    eval_ext,
    invert_expr,
    local_order,
    OrderUndeterminedError,
    parse_mero,
    rational_form,
    spherical_gradient,
    spherical_gradient_array,
    substitute,
    to_source,
    _DEGREE_RULES,
    _MAX_DEGREE,
    _MAX_DEPTH,
    _MAX_NESTING,
    _INF,
    _POLY_RULES,
    _RAW_RULES,
    _Indeterminate,
    _lower,
    _run,
    is_rational,
)

from mtriples.mtriple import Disk, make_triple, metric_density, metric_density_array

from _helpers import outcome_bits, raises, random_expr, random_points, stereographic

SQRT2 = math.sqrt(2.0)


class TestParse:
    def test_variable(self):
        assert parse_mero("z") == Z

    def test_simple_pole_structure(self):
        t = parse_mero("1/(z^2-1)")
        assert t == Div(Const(1 + 0j), Sub(Pow(Z, 2), Const(1 + 0j)))

    def test_exp_nodes(self):
        t = parse_mero("exp(z)/(1+exp(z))")
        assert isinstance(t, Div)
        assert t.left == parse_mero("exp(z)")

    def test_unary_minus_binds_at_atom(self):
        # the grammar puts '-' below '^'
        assert parse_mero("-z^2") == Pow(Neg(Z), 2)

    def test_whitespace_insignificant(self):
        assert parse_mero(" 1 + 2 * z ") == parse_mero("1+2*z")

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_mero("1 + @")
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_mero("sin(z)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_mero("z z")

    @pytest.mark.parametrize(
        "src",
        [
            "z",
            "1/(z^2-1)",
            "exp(z)/(1+exp(z))",
            "-z^2",
            "-(z^2)",
            "1 - 2*z + 0.5*z^3",
            "(z+i)^4/(z-1)",
            "exp(exp(z))",
            "z/2 - i*z^2",
        ],
    )
    def test_print_roundtrip(self, src):
        tree = parse_mero(src)
        assert parse_mero(to_source(tree)) == tree

    def test_random_roundtrip(self):
        # the round-trip contract covers trees in the parser's image, so
        # normalize each random tree through one print/parse pass first
        rng = np.random.default_rng(20)
        for _ in range(200):
            tree = parse_mero(to_source(random_expr(rng, depth=3)))
            assert parse_mero(to_source(tree)) == tree


class TestParserCaps:
    def test_deep_parentheses_refused(self):
        with pytest.raises(ParseError, match="nesting"):
            parse_mero("(" * 250 + "z" + ")" * 250)

    @pytest.mark.parametrize("op", ["+", "*", "/"])
    def test_long_chains_refused(self, op):
        with pytest.raises(ParseError, match="deeper"):
            parse_mero(op.join(["z"] * 401))

    def test_thousandfold_unary_minus_refused(self):
        with pytest.raises(ParseError):
            parse_mero("-" * 1000 + "z")

    def test_one_past_each_cap_refused(self):
        parse_mero("(" * _MAX_NESTING + "z" + ")" * _MAX_NESTING)
        with pytest.raises(ParseError, match="nesting"):
            parse_mero("(" * (_MAX_NESTING + 1) + "z" + ")" * (_MAX_NESTING + 1))
        parse_mero("+".join(["z"] * _MAX_DEPTH))
        with pytest.raises(ParseError, match="deeper"):
            parse_mero("+".join(["z"] * (_MAX_DEPTH + 1)))

    @pytest.mark.parametrize(
        "src",
        ["z^1001", "1/z^1001", "(z^1000)^1000", "z^100000000000000000000",
         "(2*z)^100000000000000000000", "z^600*(z+1)^401", "1/(z^600*(z^401-1))"],
    )
    def test_rational_degree_past_the_cap_refused(self, src):
        with pytest.raises(ParseError, match="degree above 1000"):
            parse_mero(src)

    @pytest.mark.parametrize("src", [f"z^{_MAX_DEGREE}", f"1/z^{_MAX_DEGREE}",
                                     "z^600/(z+1)^400", "exp(z^100000000000000000000)"])
    def test_degree_at_the_cap_or_outside_rationals_accepted(self, src):
        parse_mero(src)

    def test_degree_rules_bound_the_normal_form(self):
        # equal unless numpy trims a leading coefficient that cancels to zero
        rng = np.random.default_rng(21)
        exact = 0
        for _ in range(200):
            e = random_expr(rng, depth=4, allow_exp=False)
            assert is_rational(e)
            num, den = _run(_lower(e), _POLY_RULES, None)
            bound = _run(_lower(e), _DEGREE_RULES, None)
            assert bound[0] >= len(num) - 1 and bound[1] >= len(den) - 1
            exact += bound == (len(num) - 1, len(den) - 1)
        assert exact > 150

    @pytest.mark.parametrize(
        "src",
        [
            "*".join(["z"] * _MAX_DEPTH),
            "/".join(["(z+1)"] * (_MAX_DEPTH - 1)),
            "".join(f"(z+{k})" + "*/"[k % 2] for k in range(_MAX_DEPTH - 2)) + "z",
            "1/(z/(" * (_MAX_NESTING // 2) + "z" + "))" * (_MAX_NESTING // 2),
            "-" * _MAX_NESTING + "z",
        ],
        ids=["product", "quotient", "mixed", "right-nested", "unary-minus"],
    )
    def test_accepted_trees_and_derivatives_finish(self, src):
        # the derivative of a quotient chain is about three times as deep as
        # the chain; all of these must work on both without RecursionError
        e = parse_mero(src)
        z = np.array([0.3 + 0.2j])
        for tree in (e, derivative(e)):
            derivative(tree)
            to_source(tree)
            eval_array(tree, z)
            eval_ext(tree, 0.3 + 0.2j)


class TestEval:
    def test_identity(self):
        assert eval_ext(parse_mero("z"), 1 + 1j).value == 1 + 1j

    def test_simple_pole(self):
        assert eval_ext(parse_mero("1/z"), 0).is_inf

    def test_cancellation_limit(self):
        # oracle: (z^2-1)/(z-1) = z+1 away from z=1, so the limit is 2
        v = eval_ext(parse_mero("(z^2-1)/(z-1)"), 1.0)
        assert abs(v.value - 2.0) < 1e-10

    def test_inf_minus_inf_resolves(self):
        # 1/z - 1/z == 0 pointwise off the origin
        v = eval_ext(parse_mero("1/z - 1/z"), 0)
        assert abs(v.value) < 1e-10

    def test_indeterminate_with_exp_reported(self):
        with pytest.raises(EvalError):
            eval_ext(parse_mero("exp(z)/(1/z - 1/z)"), 0)

    def test_pow_at_inf(self):
        assert eval_ext(parse_mero("(1/z)^3"), 0).is_inf
        assert abs(eval_ext(parse_mero("(1/z)^0"), 0).value - 1) < 1e-15

    def test_finite_value_non_nan_invariant(self):
        with pytest.raises(ValueError):
            ExtComplex(complex("nan"))

    def test_eval_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        e = parse_mero("(z^2+1)/(z-2) + exp(z/4)")
        zs = random_points(rng, 50)
        arr = eval_array(e, zs)
        for z, v in zip(zs, arr):
            assert abs(eval_ext(e, z).value - v) < 1e-12


class TestDerivative:
    def test_power_rule(self):
        assert to_source(derivative(parse_mero("z^2"))) == "2*z"

    def test_exp_rule(self):
        assert to_source(derivative(parse_mero("exp(z)"))) == "exp(z)"

    def test_reciprocal_at_zero(self):
        # FD oracle: (f(h) - f(-h)) / 2h for f = 1/(z-1) at 0
        h = 1e-5
        fd = ((1 / (h - 1)) - (1 / (-h - 1))) / (2 * h)
        sym = eval_ext(derivative(parse_mero("1/(z-1)")), 0).value
        assert abs(sym - fd) < 1e-9
        assert abs(sym - (-1.0)) < 1e-12

    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        checked = 0
        while checked < 60:
            e = random_expr(rng, depth=3)
            d = derivative(e)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            try:  # the raw program: no 0/0 resolution by local orders
                f_p = _run(_lower(e), _RAW_RULES, z + h)
                f_m = _run(_lower(e), _RAW_RULES, z - h)
                sym = _run(_lower(d), _RAW_RULES, z)
            except (_Indeterminate, EvalError):
                continue
            if any(v is _INF for v in (f_p, f_m, sym)):
                continue
            if abs(f_p) > 1e3 or abs(sym) < 1e-3 or abs(sym) > 1e3:
                continue
            fd = (f_p - f_m) / (2 * h)
            assert abs(fd - sym) / abs(sym) < 1e-6
            checked += 1

    def test_closed_under_grammar(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            e = random_expr(rng, depth=3)
            d = derivative(e)
            # printable and reparseable means it stayed inside the grammar
            parse_mero(to_source(d))

    def test_kept_on_the_node(self):
        e = parse_mero("(z^2 + 1)/(z - 3)")
        assert derivative(e) is derivative(e)

    def test_memory_flat_once_trees_are_dropped(self):
        def churn(n):
            for k in range(n):
                e = parse_mero(f"(z^2 + {k})/(z - {k + 1}) * exp({k}*z)")
                derivative(derivative(e))

        churn(100)  # fills any one-off caches before the baseline
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            churn(2000)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # a memo that kept the 2000 trees and their derivatives alive holds megabytes
        assert grown < 200_000

    def test_substitute_composition(self):
        e = parse_mero("z^2 + 1")
        inner = parse_mero("1/(z-1)")
        composed = substitute(e, inner)
        z = 0.3 + 0.2j
        direct = eval_ext(inner, z).value
        assert abs(eval_ext(composed, z).value - (direct**2 + 1)) < 1e-12


class TestChordal:
    def test_zero_to_infinity(self):
        assert chordal(0, INFINITY) == 1.0

    def test_identity_of_indiscernibles(self):
        assert chordal(3 + 4j, 3 + 4j) == 0.0
        assert chordal(INFINITY, INFINITY) == 0.0
        assert chordal(1, 1 + 1e-12j) > 0.0

    def test_explicit_value(self):
        assert abs(chordal(0, 1) - 1 / SQRT2) < 1e-15

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(5)
        pts = []
        for _ in range(60):
            u = rng.uniform()
            if u < 0.1:
                pts.append(INFINITY)
            elif u < 0.2:
                pts.append(ExtComplex(complex(rng.uniform(-1, 1) * 1e8, rng.uniform(-1, 1) * 1e8)))
            else:
                pts.append(ExtComplex(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))))
        for _ in range(1000):
            a, b, c = (pts[rng.integers(len(pts))] for _ in range(3))
            dab, dba = chordal(a, b), chordal(b, a)
            assert dab == dba  # exact symmetry
            assert 0.0 <= dab <= 1.0
            assert chordal(a, c) <= dab + chordal(b, c) + 1e-12

    def test_half_euclidean_distance_of_projections(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if rng.uniform() < 0.1:
                bb = INFINITY
            else:
                bb = ExtComplex(b)
            d = np.linalg.norm(stereographic(a) - stereographic(bb))
            assert abs(chordal(a, bb) - d / 2.0) < 1e-12

    def test_chordal_array_matches_scalar(self):
        zs = np.array([0, 1 + 1j, 5j, complex("inf")])
        for alpha in (ExtComplex(2 + 0j), INFINITY):
            arr = chordal_array(zs, alpha)
            assert abs(arr[0] - chordal(0, alpha)) < 1e-15
            assert abs(arr[1] - chordal(1 + 1j, alpha)) < 1e-15
            assert abs(arr[3] - chordal(INFINITY, alpha)) < 1e-15


class TestSphericalGradient:
    def test_constant_vanishes(self):
        assert spherical_gradient(parse_mero("2.5"), 0.7 + 0.1j) == 0.0

    def test_identity_at_origin(self):
        assert abs(spherical_gradient(parse_mero("z"), 0) - 2 * SQRT2) < 1e-14

    def test_identity_at_one(self):
        assert abs(spherical_gradient(parse_mero("z"), 1) - SQRT2) < 1e-14

    def test_finite_across_poles(self):
        v = spherical_gradient(parse_mero("1/z"), 0)
        assert abs(v - 2 * SQRT2) < 1e-12  # same as z at 0 by inversion symmetry
        w = spherical_gradient(parse_mero("exp(z)/(1+exp(z))"), 1j * math.pi)
        assert abs(w - 2 * SQRT2) < 1e-9

    def test_inversion_invariance_random(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            e = random_expr(rng, depth=2, allow_exp=False)
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            try:
                a = spherical_gradient(e, z)
                b = spherical_gradient(invert_expr(e), z)
            except (EvalError, OrderUndeterminedError):
                continue
            if not (1e-8 < a < 1e8):
                continue
            assert abs(a - b) / a < 1e-10
            checked += 1


# The paired point and array code that the shared gradient formula and repair
# loop replaced, kept as references for bitwise comparison.


def _ref_spherical_gradient(e, z):
    v = eval_ext(e, z)
    if not v.is_inf and abs(v.value) <= 1.0:
        d = eval_ext(derivative(e), z)
        if d.is_inf:
            raise EvalError(f"derivative has a pole at z={z} where the value is finite")
        return 2.0 * math.sqrt(2.0) * abs(d.value) / (1.0 + abs(v.value) ** 2)
    inv = invert_expr(e)
    w = eval_ext(inv, z)
    dw = eval_ext(derivative(inv), z)
    if w.is_inf or dw.is_inf:
        raise EvalError(f"spherical gradient indeterminate at z={z}")
    return 2.0 * math.sqrt(2.0) * abs(dw.value) / (1.0 + abs(w.value) ** 2)


def _ref_spherical_gradient_array(e, zs):
    zs = np.asarray(zs, dtype=complex)
    fv = eval_array(e, zs)
    dv = eval_array(derivative(e), zs)
    with np.errstate(all="ignore"):
        out = 2.0 * math.sqrt(2.0) * np.abs(dv) / (1.0 + np.abs(fv) ** 2)
        big = np.abs(fv) > 1e6
    bad = ~np.isfinite(out) | big
    flat = out.ravel()
    zf = zs.ravel()
    for k in np.nonzero(bad.ravel())[0]:
        flat[k] = _ref_spherical_gradient(e, complex(zf[k]))
    return out


def _ref_eval_array_checked(e, zs):
    vals = eval_array(e, zs)
    flat = vals.ravel()
    zflat = np.asarray(zs, dtype=complex).ravel()
    bad = np.nonzero(~np.isfinite(flat))[0]
    for k in bad:
        v = eval_ext(e, complex(zflat[k]))
        flat[k] = complex("inf") if v.is_inf else v.value
    return vals


# 1/z has |h| = 1 exactly on the axes' unit points; exp(z)/(1+exp(z)) has a
# pole at i*pi; (z^2-1)/(z-1) a removable 0/0 at 1; (exp(z)-1)/z a 0/0 at 0
# that eval_ext cannot resolve (not rational).
_REF_EXPRS = ["1/z", "exp(z)/(1+exp(z))", "(z^2-1)/(z-1)", "(exp(z)-1)/z", "z^3 - 2*z"]


def _ref_points():
    rng = np.random.default_rng(61)
    ring = np.exp(2j * np.pi * np.arange(8) / 8)
    special = [0, 1, -1, 1j, -1j, 1j * math.pi, 1j * math.pi + 1e-9, 2]
    near = [c + r * ring for c in (0, 1, 1j * math.pi) for r in (1e-7, 1e-9)]
    pts = random_points(rng, 40, radius=2.0)
    return np.concatenate([pts, np.asarray(special, dtype=complex), *near])


class TestSharedGradientMatchesPairedReference:
    @pytest.mark.parametrize("src", _REF_EXPRS)
    def test_point_version(self, src):
        e = parse_mero(src)
        for z in _ref_points():
            z = complex(z)
            assert outcome_bits(spherical_gradient, e, z) == outcome_bits(
                _ref_spherical_gradient, e, z
            ), z

    @pytest.mark.parametrize(
        "src, z",
        [
            ("1/z", 1),
            ("1/z", -1j),
            # |h| == 1.0 exactly, and the reciprocal route would round differently
            ("1/z", 0.3871500998384199 - 0.9220167027744679j),
            ("exp(z)/(1+exp(z))", -0.12995906896301646 + 2.1765610367340757j),
        ],
    )
    def test_unit_modulus_takes_the_direct_route(self, src, z):
        e = parse_mero(src)
        assert abs(eval_ext(e, z).value) == 1.0
        z = complex(z)
        assert outcome_bits(spherical_gradient, e, z) == outcome_bits(_ref_spherical_gradient, e, z)

    @pytest.mark.parametrize("src", _REF_EXPRS)
    @pytest.mark.parametrize(
        "new, ref, ref_point",
        [
            (spherical_gradient_array, _ref_spherical_gradient_array, _ref_spherical_gradient),
            (eval_array_checked, _ref_eval_array_checked, eval_ext),
        ],
        ids=["spherical_gradient_array", "eval_array_checked"],
    )
    def test_array_versions(self, src, new, ref, ref_point):
        e = parse_mero(src)
        zs = _ref_points()
        assert outcome_bits(new, e, zs) == outcome_bits(ref, e, zs)
        ok = np.array([not raises(ref_point, e, complex(z)) for z in zs])
        got = outcome_bits(new, e, zs[ok])
        assert got == outcome_bits(ref, e, zs[ok])
        assert got[0] is np.ndarray

    def test_every_array_function_repairs(self):
        zs = _ref_points()
        with np.errstate(all="ignore"):
            assert np.any(np.abs(eval_array(parse_mero("1/z"), zs)) > 1e6)
            assert np.any(np.isnan(eval_array(parse_mero("(z^2-1)/(z-1)"), zs)))
        assert outcome_bits(eval_array_checked, parse_mero("(exp(z)-1)/z"), zs) is EvalError


@pytest.mark.parametrize(
    "array_version, point_version, data",
    [
        (metric_density_array, metric_density, make_triple(Disk(0, 2), "z", "1/z", 1)),
        (spherical_gradient_array, spherical_gradient, parse_mero("1/z")),
        (eval_array_checked, lambda e, z: eval_ext(e, z).value, parse_mero("z/z")),
    ],
    ids=["density", "gradient", "checked"],
)
def test_zero_dimensional_input_keeps_its_repair(array_version, point_version, data):
    # numpy returns a scalar for a 0-d operation, so a repair must not write into a copy
    out = array_version(data, np.array(0j))
    assert np.shape(out) == ()
    assert out == point_version(data, 0j)


class TestStereographic:
    def test_poles_of_sphere(self):
        assert np.allclose(stereographic(0), [0, 0, -1])
        assert np.allclose(stereographic(INFINITY), [0, 0, 1])

    def test_unit_value(self):
        assert np.max(np.abs(stereographic(1) - np.array([1, 0, 0]))) < 1e-15

    def test_always_unit_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** int(rng.integers(-3, 4))
            assert abs(np.linalg.norm(stereographic(z)) - 1.0) < 1e-12


class TestLocalOrder:
    def test_monomial(self):
        assert local_order(parse_mero("z^3"), 0) == 3

    def test_explicit_pole(self):
        assert local_order(parse_mero("1/(z-1)^2"), 1) == -2

    def test_cancellation(self):
        assert local_order(parse_mero("(z^2-1)/(z-1)"), 1) == 0

    def test_regular_point(self):
        assert local_order(parse_mero("z^2+3"), 0.5) == 0

    def test_rejects_exp(self):
        with pytest.raises(Exception):
            local_order(parse_mero("exp(z)"), 0)


class TestRationalForm:
    def test_simple(self):
        num, den = rational_form(parse_mero("1/(z^2-1)"))
        assert np.allclose(num, [1])
        assert np.allclose(den, [1, 0, -1])

    def test_sum_over_common_denominator(self):
        num, den = rational_form(parse_mero("1/z + z"))
        # (1 + z^2)/z
        assert np.allclose(num, [1, 0, 1])
        assert np.allclose(den, [1, 0])

    def test_rejects_exp(self):
        with pytest.raises(Exception):
            rational_form(parse_mero("exp(z)"))
