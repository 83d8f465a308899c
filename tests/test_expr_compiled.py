"""The compiled pole-aware point evaluator against the op-table interpreter.

``eval_ext`` and the order sampler run a program compiled on its first point
into straight-line Python, in functions of ``_CHUNK_OPS`` ops.  It must give
the interpreter's bits and exceptions on every tree the derandomized strategy
draws, at every chunk size, on programs that span chunks, under threads that
race to compile the same tree, and its compile must hold its transient memory
to one chunk's worth however long the program.
"""

import copy
import sys
import threading
import tracemalloc

from hypothesis import example, given

from mtriples import expr
from mtriples.expr import (
    Add,
    Const,
    Div,
    Exp,
    Mul,
    Sub,
    Z,
    derivative,
    eval_ext,
    parse_mero,
    _INF,
    _RAW_RULES,
    _compile,
    _lower,
    _point_evaluator,
    _run,
)

from _helpers import outcome_bits
from test_expr_program import POINTS, _EXAMPLES, _value, ref_eval_ext, trees


def _raw_value(evaluate, z):
    """One raw value as a 1-list; the marker for infinity as an infinite complex,
    which no finite value of the rules can be."""
    v = evaluate(z)
    return [complex("inf") if v is _INF else v]


def _interpreted(e):
    program = _lower(e)
    return lambda z: _run(program, _RAW_RULES, z)


def _assert_compiled_matches_interpreter(e, points):
    want = [outcome_bits(_raw_value, _interpreted(e), z) for z in points]
    assert [outcome_bits(_raw_value, _point_evaluator(e), z) for z in points] == want
    # every chunk boundary, and so every list slot a value crosses by
    for ops in (1, 2, 3):
        chunked = _with_chunk_ops(ops, _compile, _lower(e))
        assert [outcome_bits(_raw_value, chunked, z) for z in points] == want


def _with_chunk_ops(ops, fn, *args):
    saved, expr._CHUNK_OPS = expr._CHUNK_OPS, ops
    try:
        return fn(*args)
    finally:
        expr._CHUNK_OPS = saved


@_EXAMPLES
@given(trees)
@example(Div(Const(0j), Sub(Z, Z)))
@example(Exp(Div(Const(1 + 0j), Z)))
@example(Mul(Add(Z, Z), Add(Z, Z)))  # one slot read twice by one op
def test_compiled_point_evaluator_matches_interpreter(tree):
    _assert_compiled_matches_interpreter(tree, POINTS)


def test_deepest_quotient_and_its_third_derivative_match_interpreter():
    tree = parse_mero("/".join(["(z+1)"] * 119))
    third = derivative(derivative(derivative(tree)))
    assert len(_lower(third)[0]) > expr._CHUNK_OPS  # two chunks at the default size
    points = [*POINTS, -1 + 0j, -1 + 1e-3j, 0.3 + 0.2j]
    for e in (tree, third):
        _assert_compiled_matches_interpreter(e, points)


def _balanced_sum(terms):
    while len(terms) > 1:
        odd = terms[len(terms) - len(terms) % 2:]
        terms = [Add(a, b) for a, b in zip(terms[::2], terms[1::2])] + odd
    return terms[0]


def test_program_longer_than_two_chunks_matches_interpreter():
    # sum of c_k / (z - a_k): infinite at each a_k, and exp of it raises there
    poles = [complex(k % 37, k // 37) / 8 for k in range(1, 1200)]
    total = _balanced_sum([Div(Const(complex(k, -1)), Sub(Z, Const(a))) for k, a in enumerate(poles)])
    assert len(_lower(total)[0]) > 2 * expr._CHUNK_OPS
    points = [0.3 + 0.2j, poles[0], poles[700], complex(1e308, 1e308), 0j]
    for e in (total, Exp(Mul(total, Const(1e-3 + 0j)))):
        _assert_compiled_matches_interpreter(e, points)


def test_compiled_evaluator_is_kept_on_the_node():
    tree = parse_mero("(z^2 + 1)/(z - i)")
    first = _point_evaluator(tree)
    assert _point_evaluator(tree) is first
    assert tree._point is first


def test_threads_compiling_shared_trees_agree(monkeypatch):
    # copies carry no program and no compiled evaluator, so the threads race
    # to compile each tree at its first point; 0/0 sites send them through
    # the order sampler, which runs the same compiled evaluator
    texts = [f"(z^2 - {k % 3})*(z - 1)/((z - 1)*(z + {k % 4}*i)) - exp(z/{k + 1})" for k in range(20)]
    texts += [f"(z^2 - 1)^{k % 3 + 1}/(z - 1)^{k % 2 + 1}" for k in range(20)]
    trees = [copy.deepcopy(parse_mero(text)) for text in texts]
    # the reference resolves 0/0 through the order sampler: on copies of its own
    want = [[outcome_bits(_value, ref_eval_ext, copy.deepcopy(t), z) for z in POINTS] for t in trees]
    assert all(getattr(t, "_point", None) is None for t in trees)
    compiles, threads_n = {}, 8
    original = expr._compile

    def counted(program):
        compiles.setdefault(id(program[0][-1][1]), []).append(1)
        return original(program)

    monkeypatch.setattr(expr, "_compile", counted)
    got, errors = {}, []

    def work(offset):
        try:
            for j in range(len(trees)):
                k = (j + offset) % len(trees)
                got[(offset, k)] = [outcome_bits(_value, eval_ext, trees[k], z) for z in POINTS]
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(5 * n,)) for n in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(got) == threads_n * len(trees)
    assert all(bits == want[k] for (_, k), bits in got.items())
    # a race may compile a tree more than once, never more than once per thread
    assert all(1 <= len(compiles.get(id(t), ())) <= threads_n for t in trees)


def _first_point_transient(e) -> int:
    """Peak minus retained bytes of the first point evaluation of ``e``,
    lowered beforehand: the transient memory of the compile."""
    _lower(e)
    tracemalloc.start()
    try:
        eval_ext(e, 0.5 + 0.25j)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained


def _terms_program(n_ops: int):
    """A balanced sum of k*z in at most ``n_ops`` ops: three per term (k, k*z
    and a sum) with one z shared and one sum fewer than terms."""
    return _balanced_sum([Mul(Const(complex(k)), Z) for k in range(1, n_ops // 3 + 1)])


def test_compile_memory_does_not_grow_with_the_program():
    chunk = expr._CHUNK_OPS
    # one chunk's worth: the transient of compiling a program of one chunk
    one = _terms_program(chunk)
    one_chunk = _first_point_transient(one)
    short, wide = _terms_program(2 * chunk), _terms_program(8 * chunk)
    assert len(_lower(one)[0]) <= chunk < len(_lower(short)[0])
    assert len(_lower(wide)[0]) >= 4 * len(_lower(short)[0])
    # compiled as one function, the wide program's transient would grow by
    # three short programs' worth of statements, six chunks
    assert _first_point_transient(wide) - _first_point_transient(short) < one_chunk
