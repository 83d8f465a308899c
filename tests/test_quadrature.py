"""Blocked quadrature against the unblocked rules it replaced.

``gauss4_segments`` and ``simpson_segments`` integrate their segments in
blocks of ``quadrature._BLOCK``.  The references below are the rules as
they were before blocking, one pass over the whole batch; every test
compares bits (uint64 views), at batch sizes around the block edges, on
smooth, refining and depth-capped integrands.  ``test_geodesy`` weights its
reference meshes with ``reference_gauss4_segments`` too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from mtriples import geodesy, lengths, quadrature
from mtriples.estimates import optimal_example
from mtriples.quadrature import (
    _GL4_T,
    _GL4_W,
    GAUSS4_MAX_DEPTH,
    GAUSS4_REL_TOL,
    SIMPSON_MAX_DEPTH,
    QuadratureError,
    gauss4_segments,
    simpson_polyline,
    simpson_segments,
)

B = quadrature._BLOCK
SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 5]


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
def test_non_finite_sample_in_the_last_block_raises(rule, per_segment):
    za, zb = _segments(3 * B + 5)
    za[-1], zb[-1] = 200.0, 200.5  # only the last segment reaches Re z > 100
    calls = []
    fvec = _counted(lambda zs: np.where(zs.real > 100, np.nan, _smooth(zs)), calls)
    with pytest.raises(QuadratureError, match="non-finite"):
        rule(fvec, za, zb)
    # the three full blocks ran first; the last block's first call raised
    assert sum(calls[:-1]) >= 3 * B * per_segment
    assert calls[-1] == 5 * per_segment


@pytest.mark.parametrize("n", [1, 2, B, B + 1, 3 * B + 6])
def test_simpson_polyline_keeps_the_bits(n):
    rng = np.random.default_rng(2)
    pts = np.cumsum(rng.uniform(-0.05, 0.05, n) + 1j * rng.uniform(-0.05, 0.05, n))
    f = lambda zs: np.exp(zs) / (zs - 30.0)
    got = simpson_polyline(f, pts)
    want = complex(reference_simpson_segments(f, pts[:-1], pts[1:]).sum()) if n > 1 else 0j
    _same_bits(np.array([got]), np.array([want]))


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
    monkeypatch.setattr(lengths, "MAX_GRID_POINTS", 1000)
    calls, rng = [], np.random.default_rng(0)

    def noise(zs):
        calls.append(zs.size)
        assert zs.size <= 500, "a pass sampled past the cap"
        return rng.standard_normal(zs.size)

    with pytest.raises(QuadratureError, match="1024 samples, past the cap of 1000"):
        simpson_segments(noise, np.array([0j]), np.array([1 + 0j]))
    assert calls == [1, 1, 1] + [2**d for d in range(9) for _ in range(2)]
