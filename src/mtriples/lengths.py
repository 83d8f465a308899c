"""Conformal lengths that need no mesh graph, and what meshing shares with
the rest of the package.

Completeness probes (truncated radial length integrals with a
log-divergence fit) are adaptive-Simpson integrals; the point cap that every
lattice, probe grid and RK4 batch obeys, ``MeshError`` and the row writer
are shared with ``geodesy``, ``estimates`` and ``surfaces``.  This module
does not import scipy, so the actions that build no mesh never load it;
``geodesy`` re-exports every public name here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import ArgumentError
from .mtriple import DomainSpec, MTriple, segment_point_dist
from .quadrature import QuadratureError, simpson_segments

__all__ = [
    "MeshError",
    "MAX_GRID_POINTS",
    "CompletenessReport",
    "completeness_probe",
]

# The most points a mesh lattice, a probe grid or one batch of RK4 samples
# may have, refused before anything is allocated: resolution 400, the largest
# in use, puts 403^2 = 162,409 points on a square bounding box, and
# resolution 2*10^4 would ask numpy for 4*10^8.
MAX_GRID_POINTS = 1_000_000


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


# ---------------------------------------------------------------------------
# Completeness probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletenessReport:
    target: str
    eps_levels: tuple
    lengths: tuple
    model: str  # "log" or "power"
    slope: float
    intercept: float
    residual: float
    stable: bool
    divergence_evidence: bool


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(np.mean((A @ sol - ys) ** 2)))
    return float(sol[0]), float(sol[1]), resid


def _infinity_direction(domain: DomainSpec, anchor: complex) -> complex:
    """Outward ray direction staying as far as possible from punctures."""
    best, best_gap = 1.0 + 0j, -1.0
    for k in range(64):
        u = np.exp(1j * (2 * math.pi * k / 64 + 0.02))
        gap = math.inf
        for p in domain.punctures:
            t = max(((p - anchor) * np.conj(u)).real, 0.0)
            gap = min(gap, abs(anchor + t * u - p))
        if gap > best_gap:
            best_gap, best = gap, u
    return complex(best)


def completeness_probe(triple: MTriple, target, eps_levels: Sequence[float]) -> CompletenessReport:
    """Truncated radial length integrals toward a puncture, boundary point,
    or infinity, with a log-divergence fit.  A finite target outside the
    closed domain is refused.

    The verdict is evidence, not proof: it requires a positive fitted slope,
    agreement within 10% between the fits with and without the last level,
    and a final-decade increment consistent with the fitted slope.
    """
    eps = [float(e) for e in eps_levels]
    if len(eps) < 2:
        raise ArgumentError("eps_levels", "need at least two eps levels for the fit")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ArgumentError("eps_levels", "eps_levels must be strictly decreasing")
    if eps[-1] < 1e-8:
        raise ArgumentError("eps_levels", "smallest eps must be >= 1e-8")
    anchor = triple.domain.anchor()

    dens = lambda zs: triple.density(zs).astype(complex)

    if isinstance(target, str) and target in ("inf", "infinity"):
        u = _infinity_direction(triple.domain, anchor)
        stops = [anchor] + [anchor + u / e for e in eps]
        label = "infinity"
    else:
        tgt = complex(target)
        # punctures lie inside; a boundary point off by rounding still counts
        if not triple.domain.contains(tgt, margin=-1e-9 * triple.domain.scale()):
            raise ArgumentError("target", f"{tgt} is not a point of the closed domain")
        gap = abs(tgt - anchor)
        if gap <= max(eps):
            raise ArgumentError("target", "anchor too close to the probe target")
        u = (tgt - anchor) / gap
        for p in triple.domain.punctures:
            if abs(p - tgt) > 1e-9 and segment_point_dist(
                np.array([anchor]), np.array([tgt]), p
            )[0] < 1e-3:
                raise ArgumentError(
                    "target", "probe path passes another puncture; choose a different anchor"
                )
        stops = [anchor] + [tgt - e * u for e in eps]
        is_puncture = triple.domain.puncture_gap(tgt) < 1e-9
        label = f"{'puncture' if is_puncture else 'boundary'} {tgt}"

    lengths = []
    total = 0.0
    for a, b in zip(stops, stops[1:]):
        seg = simpson_segments(dens, np.array([a]), np.array([b]), rel_tol=1e-9)
        piece = float(abs(seg[0]))
        if not math.isfinite(piece):
            raise QuadratureError("length integrand overflowed before truncation")
        total += piece
        lengths.append(total)

    xs = np.log(1.0 / np.asarray(eps))
    ys = np.asarray(lengths)
    slope, intercept, resid = _fit_line(xs, ys)
    slope_prev, _, _ = _fit_line(xs[:-1], ys[:-1])
    stable = abs(slope - slope_prev) <= 0.1 * max(abs(slope), 1e-12)
    last_inc = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    evidence = bool(slope > 0 and stable and last_inc >= 0.5 * slope)

    model = "log"
    if ys.min() > 0:
        p_slope, p_int, p_resid = _fit_line(xs, np.log(ys))
        # strongly super-logarithmic growth is better described as a power law
        if p_slope > 0.5 and p_resid * abs(np.log(ys).mean() or 1.0) < resid / max(ys.mean(), 1e-30):
            model = "power"
    return CompletenessReport(
        target=label,
        eps_levels=tuple(eps),
        lengths=tuple(float(v) for v in lengths),
        model=model,
        slope=slope,
        intercept=intercept,
        residual=resid,
        stable=stable,
        divergence_evidence=evidence,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _rows(row: str, values: list) -> str:
    """``row``, one ``%`` field per column, once per row of the row-major ``values``."""
    return (row * (len(values) // row.count("%"))) % tuple(values)


def _write_csv(path, header: list, columns: list) -> None:
    """One row per entry of the equal-length ``columns``, as ``csv.writer``
    writes numbers: each its Python ``repr``, every row ended by CRLF."""
    ncols = len(columns)
    values = [None] * (ncols * len(columns[0]))
    for k, col in enumerate(columns):
        values[k::ncols] = np.asarray(col).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + _rows(",".join(["%r"] * ncols) + "\r\n", values))
