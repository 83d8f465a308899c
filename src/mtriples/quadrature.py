"""Quadrature along straight segments in the complex plane.

Two workhorses: a fixed 4-point Gauss-Legendre rule used for mesh edge
weights, and an adaptive Simpson rule.  Both refine depth-synchronized
over a batch of segments, so the integrand is evaluated on numpy arrays
instead of point by point.

A batch is cut into blocks of ``_BLOCK`` consecutive segments, and each
block is integrated to completion by one thread: the calling thread takes
the even blocks and one helper thread, started for the call when there are
at least two blocks, takes the odd ones.  There are ``_THREADS`` threads,
two, or one (the caller alone) when the process may run on one CPU only;
there is no option and no pool.  numpy lets go of the GIL inside its large
array loops, so the two threads overlap there.  Each block writes only its
own slice of the output, and every step of both rules (the first panel, the
smoothness test, the tolerance, bisection, the depth caps and the summation
into each segment's total) acts on one segment at a time, so neither the
blocking nor the thread that ran a block changes a result bit.  A failed
block stops the blocks after it, and the exception of the lowest-numbered
failed block is raised: the error a serial run would have met first.

On a 2-vCPU VM one Gauss-4 weighting of a unit-disk mesh (f = 1, degree-2
g, m = 2) took, as the median of nine calls:

    resolution 200 (254k edges)    8192    16384   32768 segments per block
        one thread              0.020 s  0.020 s  0.040 s
        two threads             0.016 s  0.014 s  0.022 s
    resolution 400 (1.0M edges)
        one thread              0.083 s  0.088 s  0.096 s
        two threads             0.063 s  0.054 s  0.055 s

against 0.028 s and 0.118 s with the first panel gathered per segment (one
thread, 8192).  A block of 16384 segments hands the integrand 4 * 16384
complex points, 1 MiB per temporary, which still sits in a 2 MiB per-core
L2 cache; with two threads, smaller blocks spend their time taking turns
at the GIL between numpy calls, and larger ones on memory traffic.

This module also owns the point cap ``MAX_GRID_POINTS`` that every mesh
lattice, probe grid, RK4 batch and Simpson pass obeys, and ``MeshError``.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable

import numpy as np

from .expr import ArgumentError

__all__ = ["MeshError", "MAX_GRID_POINTS", "QuadratureError", "gauss4_segments",
           "simpson_segments"]

# The most points a mesh lattice, a probe grid, one batch of RK4 samples or
# one adaptive Simpson pass may have, refused before anything is allocated:
# resolution 400, the largest in use, puts 403^2 = 162,409 points on a square
# bounding box, and resolution 2*10^4 would ask numpy for 4*10^8.  It is read
# at each call.
MAX_GRID_POINTS = 1_000_000

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

_BLOCK = 16384  # segments per block, see the module docstring
# the caller plus one helper thread, or the caller alone on one CPU; affinity,
# not the machine's CPU count, says how many CPUs this process may run on
_THREADS = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1


class QuadratureError(ValueError):
    """Non-finite integrand sample or failure to converge."""


class MeshError(ValueError):
    pass


def _require_grid_points(n: float, name: str) -> None:
    """Refuse a lattice of at least ``n`` points past ``MAX_GRID_POINTS``;
    ``name`` is the parameter that sets its size."""
    if n > MAX_GRID_POINTS:
        # an int too large for a float, or for str(), is written as a power of ten
        count = n if n < 1e15 else f"10^{math.log10(n):.1f}"
        raise ArgumentError(
            name, f"at least {count} grid points, past the cap of {MAX_GRID_POINTS}"
        )


def _blocks(kernel, fvec, za, zb, dtype, *args) -> np.ndarray:
    """Run ``kernel`` on the blocks of ``_BLOCK`` segments, the even blocks in
    the calling thread and the odd ones in a helper (module docstring)."""
    za = np.asarray(za, dtype=complex).ravel()
    zb = np.asarray(zb, dtype=complex).ravel()
    out = np.empty(za.size, dtype=dtype)
    n_blocks = -(-za.size // _BLOCK)
    step = min(_THREADS, n_blocks) or 1
    failed = []  # (block number, exception)

    def run(first: int) -> None:
        for k in range(first, n_blocks, step):
            if any(j < k for j, _ in failed):
                return
            s = slice(k * _BLOCK, (k + 1) * _BLOCK)
            try:
                out[s] = kernel(fvec, za[s], zb[s], *args)
            except Exception as exc:  # noqa: BLE001 - raised below in block order
                failed.append((k, exc))
                return

    helpers = [threading.Thread(target=run, args=(first,)) for first in range(1, step)]
    for helper in helpers:
        helper.start()
    try:
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
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
    Blocks of ``_BLOCK`` segments run on up to two threads (module docstring).
    """
    return _blocks(_gauss4, fvec, za, zb, float)


def _gauss4(fvec, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """``gauss4_segments`` on one block of raveled complex endpoints."""
    dz = zb - za

    def samples(pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(fvec(pts.ravel()), dtype=float).reshape(pts.shape)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite density sample on a segment")
        return vals

    def panel(zs: np.ndarray, ds: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = a[None, :] + _GL4_T[:, None] * (b - a)[None, :]
        vals = samples(zs[None, :] + t * ds[None, :])
        return (_GL4_W[:, None] * vals).sum(axis=0) * (b - a)

    # the first panel spans [0, 1] of every segment: its nodes are _GL4_T and
    # its width is 1, exactly, so it needs no gather of the endpoints
    vals = samples(za[None, :] + _GL4_T[:, None] * dz[None, :])
    whole = (_GL4_W[:, None] * vals).sum(axis=0)
    # a panel whose samples vary by under 5% is already exact to ~1e-11
    smooth = vals.max(axis=0) - vals.min(axis=0) <= 0.05 * np.abs(whole)
    totals = np.where(smooth, whole, 0.0)
    seg = np.flatnonzero(~smooth)
    whole = whole[seg]
    a = np.zeros(seg.size)
    b = np.ones(seg.size)
    tol = GAUSS4_REL_TOL * (np.abs(whole) + 1e-30)
    depth = 0
    while seg.size:
        zs, ds = za[seg], dz[seg]
        m = 0.5 * (a + b)
        left = panel(zs, ds, a, m)
        right = panel(zs, ds, m, b)
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
    of ``_BLOCK`` segments run on up to two threads (module docstring).
    Relative tolerance is measured against each segment's first
    whole-interval estimate.
    """
    return _blocks(_simpson, fvec, za, zb, complex, rel_tol)


def _simpson(fvec, za: np.ndarray, zb: np.ndarray, rel_tol: float) -> np.ndarray:
    """``simpson_segments`` on one block of raveled complex endpoints.

    The live intervals can double with each pass; a pass that would sample
    more than the point cap ``MAX_GRID_POINTS`` raises instead."""
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
        if 2 * seg.size > MAX_GRID_POINTS:
            raise QuadratureError(
                f"a refinement pass needs {2 * seg.size} samples, past the cap of "
                f"{MAX_GRID_POINTS} points"
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

