"""Blocked quadrature against the unblocked rules it replaced.

``gauss4_segments`` and ``simpson_segments`` integrate their segments in
blocks of ``quadrature._BLOCK``.  The references below are the rules as
they were before blocking, one pass over the whole batch; every test
compares bits (uint64 views), at batch sizes around the block edges, on
smooth, refining and depth-capped integrands.  ``test_geodesy`` weights its
reference meshes with ``reference_gauss4_segments`` too.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from mtriples import geodesy, quadrature
from mtriples.estimates import optimal_example
from mtriples.expr import eval_array_checked
from mtriples.mtriple import Disk, make_triple
from mtriples.surfaces import MinimalData, period_residuals
from mtriples.quadrature import (
    _GL4_T,
    _GL4_W,
    GAUSS4_MAX_DEPTH,
    GAUSS4_REL_TOL,
    SIMPSON_MAX_DEPTH,
    QuadratureError,
    gauss4_segments,
    simpson_segments,
)

B = quadrature._BLOCK
H = B // 2
# around the block edges, and around half a block: one short block, and one
# and a half blocks, which the two threads split unevenly
SIZES = [0, 1, H - 1, H, H + 1, 3 * H + 5, B - 1, B, B + 1, 3 * B + 5]


def reference_gauss4_segments(
    fvec: Callable[[np.ndarray], np.ndarray],
    za: np.ndarray,
    zb: np.ndarray,
) -> np.ndarray:
    """``gauss4_segments`` before blocking: the whole batch in one pass."""
    za = np.asarray(za, dtype=complex).ravel()
    zb = np.asarray(zb, dtype=complex).ravel()
    n = za.size
    if n == 0:
        return np.zeros(0)
    dz = zb - za

    def panel(seg_idx: np.ndarray, a: np.ndarray, b: np.ndarray, spread=None) -> np.ndarray:
        t = a[None, :] + _GL4_T[:, None] * (b - a)[None, :]
        pts = za[seg_idx][None, :] + t * dz[seg_idx][None, :]
        vals = np.asarray(fvec(pts.ravel()), dtype=float).reshape(pts.shape)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite density sample on a segment")
        if spread is not None:
            spread[:] = vals.max(axis=0) - vals.min(axis=0)
        return (_GL4_W[:, None] * vals).sum(axis=0) * (b - a)

    totals = np.zeros(n)
    seg = np.arange(n)
    a = np.zeros(n)
    b = np.ones(n)
    spread = np.empty(n)
    whole = panel(seg, a, b, spread)
    # a panel whose samples vary by under 5% is already exact to ~1e-11
    smooth = spread <= 0.05 * np.abs(whole)
    totals[smooth] = whole[smooth]
    seg, a, b, whole = seg[~smooth], a[~smooth], b[~smooth], whole[~smooth]
    tol = GAUSS4_REL_TOL * (np.abs(whole) + 1e-30)
    depth = 0
    while seg.size:
        m = 0.5 * (a + b)
        left = panel(seg, a, m)
        right = panel(seg, m, b)
        two = left + right
        done = (np.abs(two - whole) <= tol) | (depth >= GAUSS4_MAX_DEPTH)
        np.add.at(totals, seg[done], two[done])
        cont = ~done
        seg = np.concatenate([seg[cont], seg[cont]])
        a = np.concatenate([a[cont], m[cont]])
        b = np.concatenate([m[cont], b[cont]])
        whole = np.concatenate([left[cont], right[cont]])
        tol = np.concatenate([tol[cont] * 0.5, tol[cont] * 0.5])
        depth += 1
    return totals * np.abs(dz)


def reference_simpson_segments(
    fvec: Callable[[np.ndarray], np.ndarray],
    za: np.ndarray,
    zb: np.ndarray,
    rel_tol: float = 1e-10,
) -> np.ndarray:
    """``simpson_segments`` before blocking: the whole batch in one pass."""
    za = np.asarray(za, dtype=complex).ravel()
    zb = np.asarray(zb, dtype=complex).ravel()
    n = za.size
    if n == 0:
        return np.zeros(0, dtype=complex)
    dz = zb - za

    def sample(seg_idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        pts = za[seg_idx] + t * dz[seg_idx]
        vals = np.asarray(fvec(pts), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite integrand sample on a segment")
        return vals

    idx0 = np.arange(n)
    t0 = np.zeros(n)
    t2 = np.ones(n)
    t1 = np.full(n, 0.5)
    f0 = sample(idx0, t0)
    f1 = sample(idx0, t1)
    f2 = sample(idx0, t2)
    whole = (f0 + 4.0 * f1 + f2) / 6.0

    totals = np.zeros(n, dtype=complex)
    scale = np.abs(whole) + 1e-30

    seg = idx0
    a, b = t0, t2
    fa, fm, fb = f0, f1, f2
    s_whole = whole
    tol = rel_tol * scale
    depth = 0
    while seg.size:
        if depth >= SIMPSON_MAX_DEPTH:
            # accept the current estimates rather than loop forever
            np.add.at(totals, seg, s_whole)
            break
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = sample(seg, lm)
        frm = sample(seg, rm)
        h6 = (b - a) / 12.0
        s_left = h6 * (fa + 4.0 * flm + fm)
        s_right = h6 * (fm + 4.0 * frm + fb)
        s2 = s_left + s_right
        err = (s2 - s_whole) / 15.0
        done = np.abs(err) <= tol
        if np.any(done):
            np.add.at(totals, seg[done], s2[done] + err[done])
        cont = ~done
        seg = np.concatenate([seg[cont], seg[cont]])
        a = np.concatenate([a[cont], m[cont]])
        b = np.concatenate([m[cont], b[cont]])
        fa = np.concatenate([fa[cont], fm[cont]])
        fb = np.concatenate([fm[cont], fb[cont]])
        fm = np.concatenate([flm[cont], frm[cont]])
        s_whole = np.concatenate([s_left[cont], s_right[cont]])
        tol = np.concatenate([tol[cont] / 2.0, tol[cont] / 2.0])
        depth += 1
    return totals * dz


def _segments(n: int, seed: int = 0):
    """``n`` segments of length 0.001-0.3 in the disk of radius 1.9."""
    rng = np.random.default_rng(seed)
    za = 1.9 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    zb = za + rng.uniform(0.001, 0.3, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    return za, zb


_CUSP = 0.1234567 + 0.2j


def _cusp(zs):
    # integrable 1/sqrt singularity: the error of the panel around it shrinks
    # slower than the halving tolerance, so a segment through it refines down
    # to the depth cap
    return 1.0 / np.sqrt(np.abs(zs - _CUSP))


def _through_cusp(za, zb):
    """Every 97th segment turned to pass through the cusp, some in each block."""
    za, zb = za.copy(), zb.copy()
    dz = zb[::97] - za[::97]
    za[::97] = _CUSP - 0.37 * dz
    zb[::97] = _CUSP + 0.63 * dz
    return za, zb


def _smooth(zs):
    return 1.0 + 0.3 * np.abs(zs) ** 2 + 0.1 * np.cos(3 * zs.real)


# the extremal density: poles of f at the three punctures, so edges near them refine
_PUNCTURED = geodesy._as_density(optimal_example(2, [1, -1, 1j]).density)


INTEGRANDS = {"smooth": _smooth, "punctured": _PUNCTURED, "cusp": _cusp}


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _counted(fvec: Callable, sizes: list) -> Callable:
    def counted(zs):
        sizes.append(np.size(zs))
        return fvec(zs)

    return counted


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_gauss4_blocks_keep_the_bits(name, n):
    za, zb = _through_cusp(*_segments(n))
    fvec = INTEGRANDS[name]
    _same_bits(gauss4_segments(fvec, za, zb), reference_gauss4_segments(fvec, za, zb))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_simpson_blocks_keep_the_bits(name, n):
    za, zb = _through_cusp(*_segments(n, seed=1))
    fvec = INTEGRANDS[name]
    _same_bits(simpson_segments(fvec, za, zb), reference_simpson_segments(fvec, za, zb))
    _same_bits(simpson_segments(fvec, za, zb, rel_tol=1e-6),
               reference_simpson_segments(fvec, za, zb, rel_tol=1e-6))


def test_the_refining_integrands_refine_and_reach_both_depth_caps():
    za, zb = _segments(3 * B + 5)
    cross = np.array([_CUSP - 0.37]), np.array([_CUSP + 0.63])
    # one Gauss-4 pass per level after the first panel, two panels each
    calls = []
    reference_gauss4_segments(_counted(_cusp, calls), *cross)
    assert len(calls) == 1 + 2 * (GAUSS4_MAX_DEPTH + 1)
    # three Simpson samples, then two per level below the cap
    calls = []
    reference_simpson_segments(_counted(_cusp, calls), *cross)
    assert len(calls) == 3 + 2 * SIMPSON_MAX_DEPTH
    # the punctured density refines past the first panel on some segments
    calls = []
    reference_gauss4_segments(_counted(_PUNCTURED, calls), za, zb)
    assert len(calls) > 3 and sum(calls) > 4 * za.size


# rule, points per segment in the first call of a block
RULES = [(gauss4_segments, 4), (simpson_segments, 1)]


@pytest.mark.parametrize("rule, per_segment", RULES, ids=["gauss4", "simpson"])
def test_non_finite_sample_in_the_last_block_raises(rule, per_segment, monkeypatch):
    # one thread runs the blocks in order
    monkeypatch.setattr(quadrature, "_THREADS", 1)
    za, zb = _segments(3 * B + 5)
    za[-1], zb[-1] = 200.0, 200.5  # only the last segment reaches Re z > 100
    calls = []
    fvec = _counted(lambda zs: np.where(zs.real > 100, np.nan, _smooth(zs)), calls)
    with pytest.raises(QuadratureError, match="non-finite"):
        rule(fvec, za, zb)
    # the three full blocks ran first; the last block's first call raised
    assert sum(calls[:-1]) >= 3 * B * per_segment
    assert calls[-1] == 5 * per_segment


class BlockFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [(1, 3), (2, 3), (1, 2)])
@pytest.mark.parametrize("rule", [gauss4_segments, simpson_segments], ids=["gauss4", "simpson"])
def test_two_threads_raise_the_first_failed_block(rule, failing, monkeypatch):
    # the caller runs blocks 0, 2, the helper 1, 3; the failing blocks each
    # raise their own exception, and the lowest-numbered one is raised
    monkeypatch.setattr(quadrature, "_THREADS", 2)
    za, zb = _segments(4 * B + 5)
    for k in failing:
        za[(k + 1) * B - 1], zb[(k + 1) * B - 1] = 100.0 * (k + 1), 100.0 * (k + 1) + 0.5

    def fvec(zs):
        far = zs.real[zs.real > 50]
        if far.size:
            raise BlockFailure(int(far.max() // 100) - 1)
        return _smooth(zs)

    for _ in range(5):
        with pytest.raises(BlockFailure) as info:
            rule(fvec, za, zb)
        assert info.value.args == (min(failing),)


def test_the_thread_count_follows_the_cpu_affinity():
    assert quadrature._THREADS == min(2, len(os.sched_getaffinity(0)))
    # a process pinned to one CPU runs the blocks in the calling thread alone
    cpu = min(os.sched_getaffinity(0))
    code = (f"import os; os.sched_setaffinity(0, {{{cpu}}}); "
            "from mtriples import quadrature; print(quadrature._THREADS)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(quadrature.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "1"


def _stress_cases():
    """(name, a maker of fresh densities, segments) for the thread stress test."""
    za, zb = _segments(2 * B + 7, seed=3)
    # the extremal density: poles of f at the three punctures
    punctured = optimal_example(2, [1, -1, 1j])
    yield "punctured", lambda: copy.deepcopy(punctured).density, (za, zb)
    # every 97th segment through the cusp refines to the depth cap
    yield "depth-cap", lambda: _cusp, _through_cusp(za, zb)
    # f = z^2, g = 1/z: every 997th segment is 2e-7 long and passes within
    # 1e-7 of the pole of g, where each sample is repaired through the
    # compiled point evaluator
    pole = make_triple(Disk(0, 2), "z^2", "1/z", 2)
    near, far = za.copy(), zb.copy()
    near[::997], far[::997] = -1e-7 + 3e-8j, 1e-7 + 3e-8j
    yield "pole", lambda: copy.deepcopy(pole).density, (near, far)


_STRESS = {name: (fresh, segments) for name, fresh, segments in _stress_cases()}


@pytest.mark.parametrize("rule, reference", [(gauss4_segments, reference_gauss4_segments),
                                             (simpson_segments, reference_simpson_segments)],
                         ids=["gauss4", "simpson"])
@pytest.mark.parametrize("name", sorted(_STRESS))
def test_threaded_runs_on_fresh_trees_keep_the_bits(name, rule, reference, monkeypatch):
    # each run integrates with a copy of the trees that carries no program and
    # no compiled evaluator, so the two threads race to build them
    monkeypatch.setattr(quadrature, "_THREADS", 2)
    fresh, (za, zb) = _STRESS[name]
    want = reference(fresh(), za, zb)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            _same_bits(rule(fresh(), za, zb), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [1, 2, H, H + 1, 3 * H + 6, B, B + 1, 3 * B + 6])
def test_simpson_polyline_keeps_the_bits(n):
    # period_residuals integrates each form along the closed polyline of n points
    rng = np.random.default_rng(2)
    pts = np.cumsum(rng.uniform(-0.05, 0.05, n) + 1j * rng.uniform(-0.05, 0.05, n))
    data = MinimalData("exp(z)/(z-30)", "z", Disk(0, 1.0))
    got = period_residuals(data, pts).values
    ring = np.append(pts, pts[0]) if n > 1 else pts
    want = np.array([reference_simpson_segments(lambda zs, e=e: eval_array_checked(e, zs),
                                                ring[:-1], ring[1:], rel_tol=1e-12).sum().real
                     for e in data.forms()])
    _same_bits(got, want)


@pytest.mark.parametrize("rule, per_segment", RULES, ids=["gauss4", "simpson"])
def test_first_integrand_call_gets_one_block(rule, per_segment):
    za, zb = _segments(3 * B + 5)
    calls = []
    rule(_counted(_smooth, calls), za, zb)
    assert calls[0] == per_segment * B <= 4 * B
    assert sum(calls) >= per_segment * (3 * B + 5)


def test_simpson_refuses_a_pass_past_the_point_cap(monkeypatch):
    # noise never converges, so the live intervals double with each pass: 2^d
    # intervals sample 2^(d+1) points at depth d, and 2^10 > 1000 at d = 9;
    # the cap is read at call time
    monkeypatch.setattr(quadrature, "MAX_GRID_POINTS", 1000)
    calls, rng = [], np.random.default_rng(0)

    def noise(zs):
        calls.append(zs.size)
        assert zs.size <= 500, "a pass sampled past the cap"
        return rng.standard_normal(zs.size)

    with pytest.raises(QuadratureError, match="1024 samples, past the cap of 1000"):
        simpson_segments(noise, np.array([0j]), np.array([1 + 0j]))
    assert calls == [1, 1, 1] + [2**d for d in range(9) for _ in range(2)]
