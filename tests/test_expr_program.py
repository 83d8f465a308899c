"""The lowered expression program against the recursive tree walkers it
replaced.

The walkers below are the recursive array evaluator, the pole-aware scalar
evaluator, the polynomial normal form, the depth count, the rationality
test, the printer, substitution and differentiation as they were before
expressions were lowered to one hash-consed program.  The program must give
the same bits, the same exceptions, the same text and the same trees on
every tree a derandomized hypothesis strategy draws, and on a derivative
tower.
"""

import cmath
import copy
import math
import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mtriples import expr
from mtriples.expr import (
    INFINITY,
    Add,
    Const,
    Div,
    EvalError,
    Exp,
    ExtComplex,
    Mul,
    Neg,
    Pow,
    RationalFormError,
    Sub,
    Var,
    Z,
    derivative,
    eval_array,
    eval_ext,
    is_rational,
    parse_mero,
    rational_form,
    substitute,
    to_source,
    _INF,
    _Indeterminate,
    _MAX_DEPTH,
    _ONE,
    _ZERO,
    _add,
    _div,
    _fmt_const,
    _lower,
    _mul,
    _neg,
    _pow,
    _sub,
)

from _helpers import outcome_bits, raises

# ---------------------------------------------------------------------------
# The recursive walkers, kept as references
# ---------------------------------------------------------------------------


def _ref_eval_array(e, zs):
    if isinstance(e, Const):
        return np.full(zs.shape, e.value, dtype=complex)
    if isinstance(e, Var):
        return zs.copy()
    if isinstance(e, Neg):
        return -_ref_eval_array(e.arg, zs)
    if isinstance(e, Add):
        return _ref_eval_array(e.left, zs) + _ref_eval_array(e.right, zs)
    if isinstance(e, Sub):
        return _ref_eval_array(e.left, zs) - _ref_eval_array(e.right, zs)
    if isinstance(e, Mul):
        return _ref_eval_array(e.left, zs) * _ref_eval_array(e.right, zs)
    if isinstance(e, Div):
        return _ref_eval_array(e.left, zs) / _ref_eval_array(e.right, zs)
    if isinstance(e, Pow):
        base = _ref_eval_array(e.base, zs)
        return base ** e.exponent
    if isinstance(e, Exp):
        return np.exp(_ref_eval_array(e.arg, zs))
    raise TypeError(f"not a MeroExpr: {e!r}")


def _ref_raw(e, z: complex):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return z
    if isinstance(e, Neg):
        v = _ref_raw(e.arg, z)
        return _INF if v is _INF else -v
    if isinstance(e, Add) or isinstance(e, Sub):
        a = _ref_raw(e.left, z)
        b = _ref_raw(e.right, z)
        if a is _INF and b is _INF:
            raise _Indeterminate
        if a is _INF or b is _INF:
            return _INF
        v = a + b if isinstance(e, Add) else a - b
        return _ref_check_overflow(v)
    if isinstance(e, Mul):
        a = _ref_raw(e.left, z)
        b = _ref_raw(e.right, z)
        if a is _INF or b is _INF:
            other = b if a is _INF else a
            if other is _INF:
                return _INF
            if other == 0:
                raise _Indeterminate
            return _INF
        return _ref_check_overflow(a * b)
    if isinstance(e, Div):
        a = _ref_raw(e.left, z)
        b = _ref_raw(e.right, z)
        if a is _INF and b is _INF:
            raise _Indeterminate
        if a is _INF:
            return _INF
        if b is _INF:
            return 0j
        if b == 0:
            if a == 0:
                raise _Indeterminate
            return _INF
        return _ref_check_overflow(a / b)
    if isinstance(e, Pow):
        b = _ref_raw(e.base, z)
        n = e.exponent
        if b is _INF:
            if n == 0:
                return 1 + 0j
            return _INF if n > 0 else 0j
        if n == 0:
            return 1 + 0j
        if b == 0 and n < 0:
            return _INF
        try:
            return _ref_check_overflow(b**n)
        except OverflowError:
            return _INF
    if isinstance(e, Exp):
        a = _ref_raw(e.arg, z)
        if a is _INF:
            raise EvalError("exp evaluated at infinity (essential singularity)")
        try:
            return _ref_check_overflow(cmath.exp(a))
        except OverflowError:
            return _INF
    raise TypeError(f"not a MeroExpr: {e!r}")


def _ref_check_overflow(v: complex):
    if math.isfinite(v.real) and math.isfinite(v.imag):
        return v
    if math.isnan(v.real) or math.isnan(v.imag):
        raise _Indeterminate
    return _INF


def _ref_rational(e):
    one = np.array([1.0 + 0j])
    if isinstance(e, Const):
        return np.array([e.value]), one
    if isinstance(e, Var):
        return np.array([1.0 + 0j, 0j]), one
    if isinstance(e, Neg):
        n, d = _ref_rational(e.arg)
        return -n, d
    if isinstance(e, Add) or isinstance(e, Sub):
        n1, d1 = _ref_rational(e.left)
        n2, d2 = _ref_rational(e.right)
        a = np.polymul(n1, d2)
        b = np.polymul(n2, d1)
        num = np.polyadd(a, b) if isinstance(e, Add) else np.polysub(a, b)
        return num, np.polymul(d1, d2)
    if isinstance(e, Mul):
        n1, d1 = _ref_rational(e.left)
        n2, d2 = _ref_rational(e.right)
        return np.polymul(n1, n2), np.polymul(d1, d2)
    if isinstance(e, Div):
        n1, d1 = _ref_rational(e.left)
        n2, d2 = _ref_rational(e.right)
        return np.polymul(n1, d2), np.polymul(d1, n2)
    if isinstance(e, Pow):
        n1, d1 = _ref_rational(e.base)
        n_out, d_out = one, one
        k = abs(e.exponent)
        for _ in range(k):
            n_out = np.polymul(n_out, n1)
            d_out = np.polymul(d_out, d1)
        if e.exponent < 0:
            n_out, d_out = d_out, n_out
        return n_out, d_out
    if isinstance(e, Exp):
        raise RationalFormError("expression contains exp; no rational form")
    raise TypeError(f"not a MeroExpr: {e!r}")


def _ref_depth(e) -> int:
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(node, (Add, Sub, Mul, Div)):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, (Exp, Neg)):
            stack.append((node.arg, level + 1))
        elif isinstance(node, Pow):
            stack.append((node.base, level + 1))
    return deepest


def _ref_is_rational(e) -> bool:
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Exp):
        return False
    if isinstance(e, (Neg,)):
        return _ref_is_rational(e.arg)
    if isinstance(e, Pow):
        return _ref_is_rational(e.base)
    return _ref_is_rational(e.left) and _ref_is_rational(e.right)


# Context levels: 1 additive, 2 multiplicative operand, 3 right factor,
# 5 atom position (unary-minus operand, power base).
def _ref_print(e, level: int) -> str:
    if isinstance(e, Const):
        text = _fmt_const(e.value)
        need = level >= 2 and text.startswith("-")
        return f"({text})" if need else text
    if isinstance(e, Var):
        return "z"
    if isinstance(e, Exp):
        return f"exp({_ref_print(e.arg, 0)})"
    if isinstance(e, Neg):
        # unary minus is itself an atom; its operand must print as an atom
        return "-" + _ref_print(e.arg, 5)
    if isinstance(e, Pow):
        text = f"{_ref_print(e.base, 5)}^{e.exponent}"
        return f"({text})" if level >= 5 else text
    if isinstance(e, Add):
        text = f"{_ref_print(e.left, 1)} + {_ref_print(e.right, 2)}"
        return f"({text})" if level >= 2 else text
    if isinstance(e, Sub):
        text = f"{_ref_print(e.left, 1)} - {_ref_print(e.right, 2)}"
        return f"({text})" if level >= 2 else text
    if isinstance(e, Mul):
        text = f"{_ref_print(e.left, 2)}*{_ref_print(e.right, 3)}"
        return f"({text})" if level >= 3 else text
    if isinstance(e, Div):
        text = f"{_ref_print(e.left, 2)}/{_ref_print(e.right, 3)}"
        return f"({text})" if level >= 3 else text
    raise TypeError(f"not a MeroExpr: {e!r}")


def _ref_substitute(e, replacement):
    if isinstance(e, Var):
        return replacement
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return Neg(_ref_substitute(e.arg, replacement))
    if isinstance(e, Exp):
        return Exp(_ref_substitute(e.arg, replacement))
    if isinstance(e, Pow):
        return Pow(_ref_substitute(e.base, replacement), e.exponent)
    left = _ref_substitute(e.left, replacement)
    right = _ref_substitute(e.right, replacement)
    return type(e)(left, right)


def _ref_differentiate(e):
    d = _ref_differentiate
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Add):
        return _add(d(e.left), d(e.right))
    if isinstance(e, Sub):
        return _sub(d(e.left), d(e.right))
    if isinstance(e, Neg):
        return _neg(d(e.arg))
    if isinstance(e, Mul):
        return _add(_mul(d(e.left), e.right), _mul(e.left, d(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(d(e.left), e.right), _mul(e.left, d(e.right)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _ZERO
        inner = _mul(Const(complex(e.exponent)), _pow(e.base, e.exponent - 1))
        return _mul(inner, d(e.base))
    if isinstance(e, Exp):
        return _mul(e, d(e.arg))
    raise TypeError(f"not a MeroExpr: {e!r}")


# The entry points, as they were wired to the walkers above


def ref_eval_array(e, zs):
    zs = np.asarray(zs, dtype=complex)
    with np.errstate(all="ignore"):
        return _ref_eval_array(e, zs)


def ref_eval_ext(e, z):
    try:
        v = _ref_raw(e, complex(z))
    except _Indeterminate:
        if _ref_is_rational(e):
            return expr._resolve_by_order(e, complex(z))
        raise EvalError(f"indeterminate evaluation at z={z}") from None
    return INFINITY if v is _INF else ExtComplex(v)


def ref_samples_on_circle(e, z0, r, angles, rot):
    out = []
    for k in range(angles):
        w = z0 + r * cmath.exp(1j * (2 * math.pi * k / angles + rot))
        v = _ref_raw(e, w)
        if v is _INF:
            raise _Indeterminate
        out.append(v)
    return out


def ref_rational_form(e):
    num, den = _ref_rational(e)
    return np.trim_zeros(num, "f"), np.trim_zeros(den, "f")


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

_SIGNED_ZEROS = [Const(complex(x, y)) for x in (0.0, -0.0) for y in (0.0, -0.0)]
_CONSTANTS = [Const(1 + 0j), Const(-1 + 0j), Const(2 + 0j), Const(1j), Const(0.5 - 1.5j)]

_leaves = st.one_of(
    st.just(Z),
    st.sampled_from(_SIGNED_ZEROS),
    st.sampled_from(_CONSTANTS),
    st.builds(Const, st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)),
)


def _grow(kids):
    return st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Pow, kids, st.integers(-3, 4)),
        st.builds(Exp, kids),
        st.builds(Neg, kids),
        kids.map(lambda t: Div(t, Sub(t, Z))),  # one node object used twice
        kids.map(lambda t: Sub(t, copy.deepcopy(t))),  # equal subtrees, distinct objects
    )


trees = st.recursive(_leaves, _grow, max_leaves=10)

# poles and removable sites of the constants above, signed zeros, and
# generic points
POINTS = np.array(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1, -1, 2, 1j, 0.5 - 1.5j, 0.3 + 0.7j, -2.5 + 1.25j]
)

_EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _value(evaluate, e, z):
    """The point as a 1-array, so that outcome_bits can compare its bits."""
    v = evaluate(e, z)
    return [complex("inf") if v.is_inf else v.value]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@_EXAMPLES
@given(trees)
@example(Add(Mul(Z, Const(0j)), Mul(Z, Const(complex(-0.0, -0.0)))))
@example(Div(Const(0j), Sub(Z, Z)))
@example(Exp(Exp(Exp(Mul(Const(3 + 0j), Z)))))
@example(Pow(Sub(Z, Const(1 + 0j)), -2))
def test_program_matches_recursive_walkers(tree):
    assert outcome_bits(eval_array, tree, POINTS) == outcome_bits(ref_eval_array, tree, POINTS)
    for z in POINTS:
        got = outcome_bits(_value, eval_ext, tree, z)
        assert got == outcome_bits(_value, ref_eval_ext, tree, z)
    on_circle = (tree, 0.5 + 0j, 1e-3, 8, 0.5)
    assert outcome_bits(expr._samples_on_circle, *on_circle) == outcome_bits(
        ref_samples_on_circle, *on_circle
    )
    for k in (0, 1):
        assert outcome_bits(lambda t: rational_form(t)[k], tree) == outcome_bits(
            lambda t: ref_rational_form(t)[k], tree
        )
    assert is_rational(tree) == _ref_is_rational(tree)
    assert _lower(tree)[2] == _ref_depth(tree)


# the replacement carries a signed zero, which the substituted trees must keep
_INNER = Add(Mul(Const(0.5 - 1.5j), Z), Const(complex(-0.0, -0.0)))


@_EXAMPLES
@given(trees)
@example(Sub(Const(complex(0.0, -0.0)), Mul(Const(-2 + 0j), Neg(Z))))
@example(Pow(Exp(Div(Z, Const(complex(-0.0, 0.0)))), -3))
def test_printer_substitution_and_derivative_match_recursive_walkers(tree):
    # trees are compared by repr, which tells 0j from -0j
    assert to_source(tree) == _ref_print(tree, 0)
    assert repr(substitute(tree, _INNER)) == repr(_ref_substitute(tree, _INNER))
    want = _ref_differentiate(tree)
    first = derivative(tree)
    assert repr(first) == repr(want)
    assert to_source(first) == _ref_print(want, 0)
    assert repr(derivative(first)) == repr(_ref_differentiate(want))


def test_third_derivative_of_the_deepest_quotient_finishes():
    # 119 factors: the chain is at the depth cap, and the third derivative of
    # (z+1)^-117 is far deeper than a recursive walk can go
    tree = parse_mero("/".join(["(z+1)"] * 119))
    tower = [tree]
    for _ in range(3):
        tower.append(derivative(tower[-1]))
    # the quotient rule squares each of the 118 divisors
    text = to_source(tower[1])
    assert text.startswith("(" * 118 + "z + 1 - (z + 1))/(z + 1)^2*(z + 1)")
    assert text.count("/(z + 1)^2") == 118
    z = 0.3 + 0.2j
    got = eval_array(tower[3], np.array([z]))[0]
    want = -117 * 118 * 119 * (z + 1) ** -120
    assert abs(got - want) <= 1e-9 * abs(want)


def _as_array(evaluate, e, zs):
    """The result flattened: at 0-d numpy hands back a scalar from a ufunc, but
    a constant root comes back as a writable 0-d array; compare bits, not that
    type."""
    return np.asarray(evaluate(e, zs)).reshape(-1)


@_EXAMPLES
@given(trees)
def test_single_points_match_recursive_walk(tree):
    for z in POINTS:
        one = np.array([z])
        assert outcome_bits(eval_array, tree, one) == outcome_bits(ref_eval_array, tree, one)
        got = outcome_bits(_as_array, eval_array, tree, z)
        assert got == outcome_bits(_as_array, ref_eval_array, tree, z)


# 40k points: the reference's temporaries are past numpy's 256 KiB elision
# threshold, so the recursive walk reuses them in place
_rng = np.random.default_rng(8)
CLOUD = np.concatenate([POINTS, _rng.uniform(-3, 3, 40_000) + 1j * _rng.uniform(-3, 3, 40_000)])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(trees)
@example(Mul(Add(Mul(Const(0.5 - 1.5j), Z), Const(2 + 1j)), Z))
def test_point_cloud_matches_recursive_walk(tree):
    assert outcome_bits(eval_array, tree, CLOUD) == outcome_bits(ref_eval_array, tree, CLOUD)


def test_affine_times_z_keeps_its_bits_at_every_size():
    # in place at one point, numpy's complex multiply runs another loop than
    # out of place, and changed the last bit in about half of these draws
    rng = np.random.default_rng(3)
    zs = CLOUD[len(POINTS):]
    for _ in range(300):
        c, d = rng.uniform(-2, 2, 4).view(complex)
        tree = Mul(Add(Mul(Const(c), Z), Const(d)), Z)
        for points in (zs[:1], zs[0], zs[:2], zs):
            got = outcome_bits(_as_array, eval_array, tree, points)
            assert got == outcome_bits(_as_array, ref_eval_array, tree, points)


def test_constant_subtrees_broadcast_and_constant_roots_fill():
    constant = [parse_mero(src) for src in ("(2+3*i)", "1", "exp(i)^2/(1-i)")]
    reading_z = [parse_mero(src) for src in ("(2+3*i)*z", "z*(2+3*i)")]
    for shape in [(), (1,), (7,), (40_000,), (3, 4), (0,)]:
        zs = np.resize(CLOUD, shape)
        for tree in constant + reading_z:
            assert outcome_bits(_as_array, eval_array, tree, zs) == outcome_bits(
                _as_array, ref_eval_array, tree, zs
            )
            assert np.shape(eval_array(tree, zs)) == shape
        for tree in constant:  # a fresh array that callers may write into
            out = eval_array(tree, zs)
            assert isinstance(out, np.ndarray) and out.flags.writeable and out.flags.owndata


def test_depth_cap_matches_recursive_count():
    for terms in (119, 120, 121, 122):
        tree = Z
        for _ in range(terms - 1):
            tree = Add(tree, Z)
        assert _lower(tree)[2] == _ref_depth(tree) == terms
        refused = raises(parse_mero, to_source(tree))
        assert refused == (_ref_depth(tree) > _MAX_DEPTH)


def test_third_derivative_tower_bits():
    tower = parse_mero("1/(z-1)/(z-2)/(z-3)/(z-4)")
    for _ in range(3):
        tower = derivative(tower)
    rng = np.random.default_rng(0)
    zs = np.concatenate([rng.uniform(-5, 5, 2000) + 1j * rng.uniform(-5, 5, 2000), [1, 2, 3, 4]])
    assert outcome_bits(eval_array, tower, zs) == outcome_bits(ref_eval_array, tower, zs)
    for z in (0.5, 1, 2.5 + 0.5j, 4):
        got = outcome_bits(_value, eval_ext, tower, z)
        assert got == outcome_bits(_value, ref_eval_ext, tower, z)


def test_bare_variable_returns_a_copy():
    zs = np.array([0.5 + 0.5j, -1.0 + 0j])
    out = eval_array(Z, zs)
    assert out is not zs
    assert np.array_equal(out, zs)


def test_lowering_merges_equal_subtrees_but_not_signed_zeros():
    square = Mul(Add(Z, Const(1 + 0j)), Add(Z, Const(1 + 0j)))
    ops, last, depth = _lower(square)
    assert [kind for kind, _, _ in ops] == [Var, Const, Add, Mul]
    assert ops[-1][2] == (2, 2)
    assert (last, depth) == ({0: 2, 1: 2, 2: 3}, 3)
    zeros, _, _ = _lower(Add(Const(0j), Const(complex(-0.0, -0.0))))
    assert len(zeros) == 3


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_at_the_recursive_walks():
    # Horner form with (a+b*i) coefficients, as configs write them: the
    # constant i recurs in every coefficient, and each array must still die
    # at its last use
    poly = "(0.5-0.25*i)"
    for k in range(6):
        poly = f"({poly}*z+({k}.5+0.125*i))"
    tree = parse_mero(poly)
    zs = np.linspace(-1, 1, 100_000) * (1 + 0.5j)
    slack = zs.nbytes // 2  # bookkeeping, far less than one more array
    assert _peak_bytes(eval_array, tree, zs) <= _peak_bytes(ref_eval_array, tree, zs) + slack


def test_constants_cost_no_array_of_the_input_size():
    # the same Horner polynomial: only the output array is allocated; the
    # constants are (1,) arrays that numpy broadcasts
    poly = "(0.5-0.25*i)"
    for k in range(6):
        poly = f"({poly}*z+({k}.5+0.125*i))"
    tree = parse_mero(poly)
    zs = np.linspace(-1, 1, 100_000) * (1 + 0.5j)
    slack = zs.nbytes // 2  # bookkeeping, far less than one more array
    assert _peak_bytes(eval_array, tree, zs) <= zs.nbytes + slack


def test_threads_lowering_shared_trees_agree():
    # copies carry no program, so the threads race to lower each tree first
    texts = [f"(z^2 + {k})/(z - {k % 5}*i) - exp(z/{k + 1})" for k in range(40)]
    trees = [copy.deepcopy(parse_mero(text)) for text in texts]
    want = [outcome_bits(ref_eval_array, t, POINTS) for t in trees]
    got, errors = {}, []

    def work(offset):
        try:
            for j in range(len(trees)):
                k = (j + offset) % len(trees)
                got[(offset, k)] = outcome_bits(eval_array, trees[k], POINTS)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert all(bits == want[k] for (_, k), bits in got.items()) and len(got) == 8 * len(trees)
