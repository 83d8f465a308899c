"""The block driver ``expr._blocks`` and the array quantities it runs.

Each pole-aware array quantity is compared bit for bit (uint64 views), at
sizes around the block edges, with one block of the whole cloud (the code as
it was before blocking) and with a run on the calling thread alone; a pole
and a removable site sit in blocks after the first.  The formulas of moduli
are compared with the formulas of complex operands they replaced.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
import re
import sys
import threading

import numpy as np
import pytest

from mtriples import expr
from mtriples.expr import (
    EvalError,
    _blocks,
    derivative,
    eval_array_checked,
    eval_ext,
    invert_expr,
    parse_mero,
    spherical_gradient_array,
    to_source,
)
from mtriples.geodesy import build_mesh
from mtriples.mtriple import (
    Disk,
    _point_values,
    curvature_array,
    make_triple,
    metric_density_array,
)
from mtriples.surfaces import MaxfaceData, synth_maxface
from mtriples.quadrature import simpson_segments

B = expr._BLOCK
SIZES = [B - 1, B, B + 1, 2 * B + 1, 3 * B + 1]

# g = 1/z has a pole at 0 and f = z*z/z a removable 0/0 there; 0.5 is a pole
# of the checked expression and of the gradient's map
TRIPLE = make_triple(Disk(0, 2), "z*z/z", "1/z", 1)
CHECKED = parse_mero("z*z/z + 1/(z-0.5)")
GRADIENT = parse_mero("z*z/z/(z-0.5)")
QUANTITIES = {
    "eval_array_checked": lambda fresh, zs: eval_array_checked(fresh(CHECKED), zs),
    "metric_density_array": lambda fresh, zs: metric_density_array(fresh(TRIPLE), zs),
    "curvature_array": lambda fresh, zs: curvature_array(fresh(TRIPLE), zs),
    "spherical_gradient_array": lambda fresh, zs: spherical_gradient_array(fresh(GRADIENT), zs),
}


def _same(x) -> object:
    return x


def _disk(n: int, seed: int) -> np.ndarray:
    """``n`` random points of the disk |z| < 1.9."""
    rng = np.random.default_rng(seed)
    return 1.9 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _cloud(n: int, seed: int = 0) -> np.ndarray:
    """``_disk`` with 0 and 0.5 in the block after the first (where there is
    one) and at the last entries."""
    zs = _disk(n, seed)
    for k in (min(B + 5, n - 4), n - 2):
        zs[k], zs[k + 1] = 0, 0.5
    return zs


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_blocks_keep_the_bits_of_one_pass(name, n, monkeypatch):
    quantity, zs = QUANTITIES[name], _cloud(n)
    monkeypatch.setattr(expr, "_THREADS", 2)
    got = quantity(_same, zs)
    monkeypatch.setattr(expr, "_THREADS", 1)
    alone = quantity(_same, zs)
    monkeypatch.setattr(expr, "_BLOCK", 4 * n)
    whole = quantity(_same, zs)
    assert got.shape == zs.shape
    assert np.array_equal(_bits(got), _bits(whole))
    assert np.array_equal(_bits(alone), _bits(whole))
    # the pole and the removable site were repaired, not left as numpy's values
    assert np.all(np.isfinite(got) | (zs == 0.5))


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_threaded_runs_on_fresh_trees_keep_the_bits(name, monkeypatch):
    # each run evaluates a copy of the trees that carries no program and no
    # compiled evaluator, so the two threads race to build them
    quantity, zs = QUANTITIES[name], _cloud(2 * B + 7, seed=1)
    monkeypatch.setattr(expr, "_THREADS", 1)
    want = quantity(copy.deepcopy, zs)
    monkeypatch.setattr(expr, "_THREADS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            assert np.array_equal(_bits(quantity(copy.deepcopy, zs)), _bits(want))
    finally:
        sys.setswitchinterval(interval)


# f = exp(z) z (z-3) (z+3) is exactly 0 at 0 and +-3, where curvature raises;
# exp keeps make_triple from checking its regularity
_ZEROS = {1: 0j, 2: 3 + 0j, 3: -3 + 0j}
_FLAT = make_triple(Disk(0, 4), "exp(z)*z*(z-3)*(z+3)", "z", 2)


@pytest.mark.parametrize("failing", [(1, 3), (2, 3), (1, 2)])
def test_two_threads_raise_the_first_failed_block(failing, monkeypatch):
    # the caller runs blocks 0, 2, the helper 1, 3; each failing block meets
    # its own zero of f, and the lowest-numbered block's error is raised
    monkeypatch.setattr(expr, "_THREADS", 2)
    zs = _disk(4 * B + 5, seed=2)
    for k in failing:
        zs[k * B + 7] = _ZEROS[k]
    for _ in range(5):
        with pytest.raises(EvalError, match=re.escape(f"f vanishes at z={_ZEROS[min(failing)]};")):
            curvature_array(_FLAT, zs)


def test_one_block_is_one_kernel_call_on_the_given_arrays(monkeypatch):
    monkeypatch.setattr(expr, "_THREADS", 2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
    for n in (1, 2, B, B + 1):
        zs = np.zeros(n)
        assert _blocks(_same, (zs,), float, B) is zs
    assert not started


@pytest.mark.parametrize("block", [2, 3, 5])
def test_no_piece_is_a_single_entry(block):
    for n in range(2, 4 * block + 3):
        pieces = []

        def kernel(a):
            pieces.append(a.size)
            return a

        zs = np.arange(n, dtype=float).reshape(1, n)
        assert np.array_equal(_blocks(kernel, (zs,), float, block), zs)
        assert sum(pieces) == n and min(pieces) >= 2 and max(pieces) <= block + 1


def test_a_call_inside_a_block_starts_no_thread(monkeypatch):
    # each sample is the mean of five evaluations around it, so a Simpson block
    # of B // 4 segments hands eval_array_checked 5/4 of a block of points
    e = parse_mero("1/(z-3)")
    offsets = np.array([0, 1e-3, -1e-3, 1e-3j, -1e-3j])

    def smoothed(zs):
        return eval_array_checked(e, zs[:, None] + offsets[None, :]).mean(axis=1)

    rng = np.random.default_rng(3)
    za = rng.uniform(-1, 1, 2 * (B // 4) + 7) + 1j * rng.uniform(-1, 1, 2 * (B // 4) + 7)
    zb = za + 0.1
    monkeypatch.setattr(expr, "_THREADS", 1)
    want = simpson_segments(smoothed, za, zb)
    monkeypatch.setattr(expr, "_THREADS", 2)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
    got = simpson_segments(smoothed, za, zb)
    assert len(started) == 1  # the Simpson call's helper; the nested calls run in place
    assert np.array_equal(_bits(got), _bits(want))
    # a lone Simpson block leaves the second thread free for its integrand's calls
    started.clear()
    simpson_segments(smoothed, za[: B // 4], zb[: B // 4])
    assert started


# ---------------------------------------------------------------------------
# Formulas of moduli against the formulas of complex operands they replaced
# ---------------------------------------------------------------------------


def _density_c(gv, fv, m):
    return (1.0 + abs(gv) ** 2) ** (m / 2.0) * abs(fv)


def _curvature_c(gv, fv, gd, m):
    den = (1.0 + abs(gv) ** 2) ** (m + 2) * abs(fv) ** 2
    return -2.0 * m * abs(gd) ** 2 / den


def _gradient_c(v, d):
    return 2.0 * math.sqrt(2.0) * abs(d) / (1.0 + abs(v) ** 2)


def _induced_c(gv, fv):
    return (1.0 - abs(gv) ** 2) ** 2 * abs(fv) ** 2


def _complex_repaired_array(formula, exprs, zs, at_point):
    """``expr._repaired_array`` as it was: ``formula`` of the complex arrays,
    every operand evaluated on the whole cloud, the ``_BIG`` mask from a second
    modulus, in one pass."""
    zs = np.asarray(zs, dtype=complex)
    vals = [expr.eval_array(e, zs) for e in exprs]
    with np.errstate(all="ignore"):
        out = formula(*vals)
        bad = ~np.isfinite(out) | (np.abs(vals[0]) > expr._BIG)
    return expr._repair(out, bad, zs, at_point)


def _reference_density(t, zs):
    return _complex_repaired_array(
        lambda gv, fv: _density_c(gv, fv, t.m), (t.g, t.f), zs,
        lambda z: _density_c(*_point_values(t, z, False), t.m))


def _reference_curvature(t, zs):
    def at_point(z):
        gv, fv, gd = _point_values(t, z, True)
        return _curvature_c(gv, fv, gd, t.m)

    return _complex_repaired_array(lambda gv, fv, gd: _curvature_c(gv, fv, gd, t.m),
                                   (t.g, t.f, derivative(t.g)), zs, at_point)


def _reference_gradient(e, zs):
    def at_point(z):
        v = eval_ext(e, z)
        h = invert_expr(e) if v.is_inf or abs(v.value) > 1.0 else e
        return _gradient_c(eval_ext(h, z).value, eval_ext(derivative(h), z).value)

    return _complex_repaired_array(_gradient_c, (e, derivative(e)), zs, at_point)


# f = z*z/z is 0/0 at the pole 0 of g; f = 1 is a constant, and so is g' of
# g = (2+i)*z + 1; on the punctured disk 1/z passes _BIG off the puncture
MODULI_TRIPLES = {
    "removable": TRIPLE,
    "constant-f": make_triple(Disk(0, 2, punctures=(0j,)), "1", "1/z", 1),
    "constant-f-and-slope": make_triple(Disk(0, 2), "3-i", "(2+i)*z+1", 2),
}
MODULI_EXPRS = {"pole": GRADIENT, "constant-slope": parse_mero("(3+i)*z+2"),
                "constant": parse_mero("2+i")}
# a cloud over blocks, with the poles 0 and 0.5 in it, points where |1/z|
# passes _BIG, and small and two-dimensional clouds, where one block is the
# whole cloud
_BIG_SITES = np.array([1e-7, -3e-7j, 2e-9 + 1e-9j])
MODULI_CLOUDS = {
    "blocks": lambda: np.concatenate([_cloud(2 * B + 1), _BIG_SITES]),
    "point": lambda: np.asarray(0.3 + 0.1j),
    "one": lambda: np.array([0.3 + 0.1j]),
    "two": lambda: np.array([0.3 + 0.1j, 1e-7]),
    "grid": lambda: np.concatenate([_disk(12, 3), _BIG_SITES]).reshape(3, 5),
}


def _off_punctures(t, zs):
    return np.where(np.abs(zs) < 1e-12, 0.25, zs) if t.domain.punctures else zs


@pytest.mark.parametrize("cloud", sorted(MODULI_CLOUDS))
@pytest.mark.parametrize("name", sorted(MODULI_TRIPLES))
def test_density_and_curvature_of_moduli_keep_the_bits(name, cloud):
    t = MODULI_TRIPLES[name]
    zs = _off_punctures(t, MODULI_CLOUDS[cloud]())
    for got, want in ((metric_density_array(t, zs), _reference_density(t, zs)),
                      (curvature_array(t, zs), _reference_curvature(t, zs))):
        assert np.shape(got) == np.shape(want) == zs.shape
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("cloud", sorted(MODULI_CLOUDS))
@pytest.mark.parametrize("name", sorted(MODULI_EXPRS))
def test_gradient_of_moduli_keeps_the_bits(name, cloud):
    e, zs = MODULI_EXPRS[name], MODULI_CLOUDS[cloud]()
    got, want = spherical_gradient_array(e, zs), _reference_gradient(e, zs)
    assert np.shape(got) == np.shape(want) == zs.shape
    assert np.array_equal(_bits(got), _bits(want))


def test_induced_metric_of_moduli_keeps_the_bits():
    # g = 1/z has a pole at the lattice node 0, where the entry is repaired
    domain = Disk(0, 1.0)
    mesh = build_mesh(domain, lambda zs: np.ones(np.shape(zs)), 20)
    data = MaxfaceData("z^2", "1/z", domain, 0.5 + 0j)
    assert np.any(mesh.nodes == 0)
    got = synth_maxface(data, mesh).diagnostics["induced_metric_sq"]
    want = _complex_repaired_array(_induced_c, (data.g, data.f), mesh.nodes,
                                   lambda z: _induced_c(*_point_values(data.triple, z, False)))
    assert np.array_equal(_bits(got), _bits(want))


def test_an_operand_that_does_not_read_z_is_evaluated_at_one_point(monkeypatch):
    t = MODULI_TRIPLES["constant-f-and-slope"]
    zs = _disk(B + 7, 4)
    seen = Counter()
    eval_array = expr.eval_array

    def spy(e, pts):
        seen[to_source(e), np.shape(pts)] += 1
        return eval_array(e, pts)

    monkeypatch.setattr(expr, "eval_array", spy)
    curvature_array(t, zs)
    # two blocks: g on each block's points, f and g' on one point of each
    g, f, slope = (to_source(e) for e in (t.g, t.f, derivative(t.g)))
    assert seen == Counter({(g, (B,)): 1, (g, (7,)): 1, (f, (1,)): 2, (slope, (1,)): 2})
