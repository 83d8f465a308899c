"""Quadrature along straight segments in the complex plane.

Two workhorses: a fixed 4-point Gauss-Legendre rule used for mesh edge
weights, and an adaptive Simpson rule.  Both refine depth-synchronized
over a batch of segments, so the integrand is evaluated on numpy arrays
instead of point by point.

A batch is cut into blocks of ``_BLOCK`` consecutive segments, and each
block is integrated to completion before the next one starts.  A block of
8192 segments hands the integrand 4 * 8192 complex points, 512 KiB per
temporary, which stays in a 2 MiB per-core L2 cache; a whole res-400 mesh
(4M points, 64 MB per temporary) spends its time on memory traffic
instead.  Of 2048 ... 32768, 8192 was the fastest block on res-400
meshes and within 5% of the fastest at res 200.  Every step of both
rules (the first panel, the smoothness test, the tolerance, bisection,
the depth caps and the summation into each segment's total) acts on one
segment at a time, so blocking leaves every result bit unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "gauss4_segments", "simpson_segments", "simpson_polyline"]

# 4-point Gauss-Legendre nodes/weights on [0, 1]
_GL4_T = np.array(
    [
        0.5 - 0.8611363115940526 / 2,
        0.5 - 0.3399810435848563 / 2,
        0.5 + 0.3399810435848563 / 2,
        0.5 + 0.8611363115940526 / 2,
    ]
)
_GL4_W = np.array(
    [
        0.3478548451374538 / 2,
        0.6521451548625461 / 2,
        0.6521451548625461 / 2,
        0.3478548451374538 / 2,
    ]
)


GAUSS4_REL_TOL = 1e-9
GAUSS4_MAX_DEPTH = 14
SIMPSON_MAX_DEPTH = 24

_BLOCK = 8192  # segments per block, see the module docstring


class QuadratureError(ValueError):
    """Non-finite integrand sample or failure to converge."""


def _blocks(kernel, fvec, za, zb, dtype, *args) -> np.ndarray:
    """Run ``kernel`` on consecutive blocks of ``_BLOCK`` segments."""
    za = np.asarray(za, dtype=complex).ravel()
    zb = np.asarray(zb, dtype=complex).ravel()
    out = np.empty(za.size, dtype=dtype)
    for start in range(0, za.size, _BLOCK):
        stop = start + _BLOCK
        out[start:stop] = kernel(fvec, za[start:stop], zb[start:stop], *args)
    return out


def gauss4_segments(
    fvec: Callable[[np.ndarray], np.ndarray],
    za: np.ndarray,
    zb: np.ndarray,
) -> np.ndarray:
    """Line integral of a real density along segments za -> zb.

    4-point Gauss-Legendre panels, bisected in sync across a block of
    segments wherever the one-panel and two-panel values disagree; steep
    conformal densities near a truncated boundary need the subdivision.
    Blocks of ``_BLOCK`` segments run one after another (module docstring).
    """
    return _blocks(_gauss4, fvec, za, zb, float)


def _gauss4(fvec, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """``gauss4_segments`` on one block of raveled complex endpoints."""
    n = za.size
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


def simpson_segments(
    fvec: Callable[[np.ndarray], np.ndarray],
    za: np.ndarray,
    zb: np.ndarray,
    rel_tol: float = 1e-10,
) -> np.ndarray:
    """Adaptive Simpson integral of f dz along each straight segment.

    The integrand is a vectorized complex map; intervals from every segment
    of a block are refined together, one depth level per pass, and blocks
    of ``_BLOCK`` segments run one after another (module docstring).
    Relative tolerance is measured against each segment's first
    whole-interval estimate.
    """
    return _blocks(_simpson, fvec, za, zb, complex, rel_tol)


def _simpson(fvec, za: np.ndarray, zb: np.ndarray, rel_tol: float) -> np.ndarray:
    """``simpson_segments`` on one block of raveled complex endpoints.

    The live intervals can double with each pass; a pass that would sample
    more than the point cap ``lengths.MAX_GRID_POINTS`` raises instead."""
    from . import lengths  # it imports this module; the cap is read per call

    n = za.size
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
        if 2 * seg.size > lengths.MAX_GRID_POINTS:
            raise QuadratureError(
                f"a refinement pass needs {2 * seg.size} samples, past the cap of "
                f"{lengths.MAX_GRID_POINTS} points"
            )
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


def simpson_polyline(
    fvec: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    rel_tol: float = 1e-10,
) -> complex:
    """Integral of f dz along the polyline through ``points``."""
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size < 2:
        return 0j
    vals = simpson_segments(fvec, pts[:-1], pts[1:], rel_tol=rel_tol)
    return complex(vals.sum())
