"""The block driver ``expr._blocks`` and the array quantities it runs.

Each pole-aware array quantity is compared bit for bit (uint64 views), at
sizes around the block edges, with one block of the whole cloud (the code as
it was before blocking) and with a run on the calling thread alone; a pole
and a removable site sit in blocks after the first.
"""

from __future__ import annotations

import copy
import re
import sys
import threading

import numpy as np
import pytest

from mtriples import expr
from mtriples.expr import (
    EvalError,
    _blocks,
    eval_array_checked,
    parse_mero,
    spherical_gradient_array,
)
from mtriples.mtriple import Disk, curvature_array, make_triple, metric_density_array
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
