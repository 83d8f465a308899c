"""Weierstrass data triples on planar domains.

A triple holds a holomorphic 1-form coefficient ``f``, a meromorphic ``g``
and a positive integer exponent ``m``; it induces the conformal metric with
density (1 + |g|^2)^(m/2) |f| and the closed-form Gaussian curvature

    K = -2 m |g'|^2 / ((1 + |g|^2)^(m+2) |f|^2).

The regularity condition couples the divisors: at each pole of g of order k
inside the domain, f must vanish to order exactly m*k, and f may vanish
nowhere else.  For rational data this is checked numerically from the root
catalogues of the numerator/denominator polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .expr import (
    ArgumentError,
    EvalError,
    MeroExpr,
    OrderUndeterminedError,
    derivative,
    eval_ext,
    invert_expr,
    is_rational,
    local_order,
    parse_mero,
    rational_form,
    _BIG,
    _mul,
    _pow,
    _repaired_array,
)

__all__ = [
    "Disk",
    "Annulus",
    "Rectangle",
    "TruncatedPlane",
    "DomainSpec",
    "MTriple",
    "RegularityEntry",
    "RegularityReport",
    "RegularityViolation",
    "NonHolomorphic",
    "make_triple",
    "check_regularity",
    "metric_density",
    "metric_density_array",
    "curvature",
    "curvature_array",
    "curvature_fd",
    "segment_point_dist",
]

_PUNCTURE_EPS = 1e-12


def _as_expr(e) -> MeroExpr:
    return parse_mero(e) if isinstance(e, str) else e


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class _DomainBase:
    """Open planar region with a finite list of interior punctures."""

    punctures: tuple

    def _validate(self):
        """Refuse a region whose size is not finite, then normalise and check
        the punctures; one outside is an ``ArgumentError`` on ``punctures``."""
        if not math.isfinite(self.diameter()):
            raise ValueError(f"the {self.kind} domain is not of finite size")
        ps = tuple(complex(p) for p in self.punctures)
        object.__setattr__(self, "punctures", ps)
        for idx, p in enumerate(ps):
            if not self.contains(p, margin=1e-9):
                raise ArgumentError("punctures", f"puncture {p} is not strictly inside the domain")
            for q in ps[idx + 1 :]:
                if abs(p - q) <= 1e-12:
                    raise ValueError(f"punctures {p} and {q} coincide")

    # subclasses implement: kind, contains (scalars or arrays), rim(inset, step)
    # (points a relative ``inset`` inside the boundary, about ``step`` apart),
    # bbox, anchor, scale

    def holes(self) -> tuple:
        """(centre, radius) of each disc outside the region that a segment
        between two of its points can cross; none on a convex shape."""
        return ()

    def keeps_segments(self, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
        """Which segments za -> zb between points of the region stay inside
        it: those farther than its radius from each hole's centre."""
        keep = np.ones(np.shape(za), dtype=bool)
        for c, r in self.holes():
            keep &= segment_point_dist(za, zb, c) > r
        return keep

    def diameter(self) -> float:
        x0, x1, y0, y1 = self.bbox()
        return math.hypot(x1 - x0, y1 - y0)

    def puncture_gap(self, z: complex) -> float:
        if not self.punctures:
            return math.inf
        return min(abs(z - p) for p in self.punctures)


def _circle(center: complex, r: float, step: float) -> np.ndarray:
    """At least 16 equally spaced points on a circle, about ``step`` apart."""
    n = max(16, int(math.ceil(2 * math.pi * r / step)))
    ang = 2 * math.pi * np.arange(n) / n
    return center + r * np.exp(1j * ang)


def segment_point_dist(za: np.ndarray, zb: np.ndarray, p: complex) -> np.ndarray:
    """Distance from ``p`` to each segment za -> zb."""
    d = zb - za
    L2 = np.abs(d) ** 2
    t = np.clip(((p - za) * np.conj(d)).real / np.where(L2 > 0, L2, 1.0), 0.0, 1.0)
    return np.abs(za + t * d - p)


class _RoundDomain(_DomainBase):
    """The open disk of ``radius`` about ``center``, less the punctures."""

    center: complex
    radius: float

    def contains(self, z, margin: float = 0.0):
        return abs(z - self.center) < self.radius - margin

    def bbox(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def anchor(self) -> complex:
        return self.center

    def scale(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Disk(_RoundDomain):
    kind: ClassVar[str] = "disk"
    center: complex
    radius: float
    punctures: tuple = ()

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")
        object.__setattr__(self, "center", complex(self.center))
        self._validate()

    def rim(self, inset: float, step: float) -> np.ndarray:
        return _circle(self.center, self.radius - inset * self.scale(), step)


@dataclass(frozen=True)
class Annulus(_DomainBase):
    kind: ClassVar[str] = "annulus"
    center: complex
    r_inner: float
    r_outer: float
    punctures: tuple = ()

    def __post_init__(self):
        if not (0 < self.r_inner < self.r_outer):
            raise ValueError("annulus requires 0 < r_inner < r_outer")
        object.__setattr__(self, "center", complex(self.center))
        self._validate()

    def contains(self, z, margin: float = 0.0):
        r = abs(z - self.center)
        return (self.r_inner + margin < r) & (r < self.r_outer - margin)

    def rim(self, inset: float, step: float) -> np.ndarray:
        return np.concatenate(
            [
                _circle(self.center, self.r_outer * (1.0 - inset), step),
                _circle(self.center, self.r_inner * (1.0 + inset), step),
            ]
        )

    def holes(self) -> tuple:
        return ((self.center, self.r_inner),)

    def bbox(self):
        c, r = self.center, self.r_outer
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def anchor(self) -> complex:
        return self.center + 0.5 * (self.r_inner + self.r_outer)

    def scale(self) -> float:
        return self.r_outer


@dataclass(frozen=True)
class Rectangle(_DomainBase):
    kind: ClassVar[str] = "rectangle"
    corner_min: complex
    corner_max: complex
    punctures: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "corner_min", complex(self.corner_min))
        object.__setattr__(self, "corner_max", complex(self.corner_max))
        if not (
            self.corner_min.real < self.corner_max.real
            and self.corner_min.imag < self.corner_max.imag
        ):
            raise ValueError("rectangle corners must span a nonempty region")
        self._validate()

    def contains(self, z, margin: float = 0.0):
        return (
            (self.corner_min.real + margin < z.real)
            & (z.real < self.corner_max.real - margin)
            & (self.corner_min.imag + margin < z.imag)
            & (z.imag < self.corner_max.imag - margin)
        )

    def rim(self, inset: float, step: float) -> np.ndarray:
        d = inset * self.scale()
        lo = self.corner_min + d * (1 + 1j)
        hi = self.corner_max - d * (1 + 1j)
        w, h = hi.real - lo.real, hi.imag - lo.imag
        xs = np.linspace(lo.real, hi.real, max(2, int(math.ceil(w / step))))
        ys = np.linspace(lo.imag, hi.imag, max(2, int(math.ceil(h / step))))
        return np.concatenate(
            [xs + 1j * lo.imag, xs + 1j * hi.imag, lo.real + 1j * ys[1:-1], hi.real + 1j * ys[1:-1]]
        )

    def bbox(self):
        return (
            self.corner_min.real,
            self.corner_max.real,
            self.corner_min.imag,
            self.corner_max.imag,
        )

    def anchor(self) -> complex:
        return 0.5 * (self.corner_min + self.corner_max)

    def scale(self) -> float:
        return 0.5 * min(
            self.corner_max.real - self.corner_min.real,
            self.corner_max.imag - self.corner_min.imag,
        )


@dataclass(frozen=True)
class TruncatedPlane(_RoundDomain):
    """The plane, truncated for numerics at a finite radius.

    The rim stands in for the ideal boundary at infinity: it is meshed as a
    boundary source and completeness probes toward infinity integrate past it.
    """

    kind: ClassVar[str] = "truncated_plane"
    center: ClassVar[complex] = 0j
    radius: float
    punctures: tuple = ()

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("truncation radius must be positive")
        self._validate()

    def rim(self, inset: float, step: float) -> np.ndarray:
        # not the disk's R - inset*R, which rounds differently
        return _circle(0j, self.radius * (1.0 - inset), step)


DomainSpec = Union[Disk, Annulus, Rectangle, TruncatedPlane]


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------


class RegularityViolation(ValueError):
    def __init__(self, message: str, point: complex):
        super().__init__(message)
        self.point = point


class NonHolomorphic(RegularityViolation):
    """f has a pole inside the domain."""


@dataclass(frozen=True)
class RegularityEntry:
    point: complex
    f_order: int
    g_order: int
    verdict: str  # "ok" | "f-pole" | "order-mismatch" | "stray-f-zero"


@dataclass(frozen=True)
class RegularityReport:
    entries: tuple
    overall: bool
    checked: bool


def _cluster(points: np.ndarray) -> list[complex]:
    """Centroids of root clusters.

    np.roots scatters a multiplicity-k root over a radius ~eps^(1/k), but
    symmetrically, so the cluster mean recovers the root to far better
    accuracy than any single member.  Roots closer than 6e-4 that are
    genuinely distinct are outside the supported resolution of the order
    estimator and get merged.
    """
    groups: list[list[complex]] = []
    for p in points:
        for grp in groups:
            if abs(p - grp[0]) <= 6e-4:
                grp.append(complex(p))
                break
        else:
            groups.append([complex(p)])
    return [complex(np.mean(g)) for g in groups]


def _order(e: MeroExpr, name: str, p: complex) -> int:
    try:
        return local_order(e, p)
    except OrderUndeterminedError as exc:
        raise ArgumentError(name, str(exc)) from exc


_SAME_POINT = 1e-9  # two clustered roots, or a root and a puncture, closer are one point


def _rational_pair(name: str, e: MeroExpr) -> tuple[np.ndarray, np.ndarray]:
    """``rational_form(e)``; a zero denominator, or a coefficient that is not
    finite (the unnormalised product of many constant denominators overflows),
    is an ``ArgumentError`` on ``name``."""
    num, den = rational_form(e)
    if den.size == 0:
        raise ArgumentError(name, f"{name} is identically infinite")
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise ArgumentError(name, f"the rational normal form of {name} overflows")
    return num, den


def _candidates(domain: DomainSpec, polys: list) -> list[complex]:
    """Sorted clustered roots of ``polys`` strictly inside the domain, off its punctures."""
    raw = np.concatenate([np.roots(p) for p in polys])
    inside = (p for p in _cluster(raw)
              if domain.contains(p, margin=1e-12) and domain.puncture_gap(p) > _SAME_POINT)
    return sorted(inside, key=lambda w: (w.real, w.imag))


def check_regularity(domain: DomainSpec, f: MeroExpr, g: MeroExpr, m: int) -> RegularityReport:
    """Compare divisor orders of rational f and g at every candidate point: the
    ``_candidates`` of both numerators and denominators.  Non-rational data
    yields an unchecked report.  An order the sampler cannot determine, or an
    expression whose denominator is identically zero, is an ``ArgumentError``
    on ``f`` or ``g``."""
    if not (is_rational(f) and is_rational(g)):
        return RegularityReport(entries=(), overall=True, checked=False)
    entries = []
    overall = True
    for p in _candidates(domain, [*_rational_pair("f", f), *_rational_pair("g", g)]):
        ord_f, ord_g = (_order(e, name, p) for e, name in ((f, "f"), (g, "g")))
        if ord_f < 0:
            verdict = "f-pole"
        elif ord_g < 0 and ord_f != -m * ord_g:
            verdict = "order-mismatch"
        elif ord_g >= 0 and ord_f > 0:
            verdict = "stray-f-zero"
        else:
            verdict = "ok"
        overall = overall and verdict == "ok"
        entries.append(RegularityEntry(point=p, f_order=ord_f, g_order=ord_g, verdict=verdict))
    return RegularityReport(entries=tuple(entries), overall=overall, checked=True)


# ---------------------------------------------------------------------------
# The triple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MTriple:
    domain: DomainSpec
    f: MeroExpr
    g: MeroExpr
    m: int
    regularity: RegularityReport = field(
        default=RegularityReport(entries=(), overall=True, checked=False)
    )

    def density(self, zs) -> np.ndarray:
        """Metric density as a vectorized callable (mesh-builder contract)."""
        return metric_density_array(self, zs)

    @cached_property
    def _pole_form(self) -> MeroExpr:
        """g^m f, finite where g has a pole; built once, lowered once."""
        return _mul(_pow(self.g, self.m), self.f)


def make_triple(domain: DomainSpec, f, g, m: int) -> MTriple:
    """Build a triple, enforcing regularity when f and g are rational."""
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("m must be a positive integer")
    f = _as_expr(f)
    g = _as_expr(g)
    report = check_regularity(domain, f, g, m)
    if report.checked and not report.overall:
        for e in report.entries:
            if e.verdict == "f-pole":
                raise NonHolomorphic(
                    f"f has a pole of order {-e.f_order} at {e.point}", e.point
                )
        bad = next(e for e in report.entries if e.verdict != "ok")
        raise RegularityViolation(
            f"divisor mismatch at {bad.point}: ord f = {bad.f_order}, "
            f"ord g = {bad.g_order}, m = {m}",
            bad.point,
        )
    return MTriple(domain=domain, f=f, g=g, m=m, regularity=report)


def _density_of(ga, fa, m: int):
    """(1 + |g|^2)^(m/2) |f| of the moduli ga = |g| and fa = |f|, for point and
    array callers alike: point callers take CPython's ``abs`` and array callers
    numpy's, and ``**`` keeps each one's rounding."""
    return (1.0 + ga ** 2) ** (m / 2.0) * fa


def _curvature_of(ga, fa, gda, m: int):
    """-2m |g'|^2 / ((1 + |g|^2)^(m+2) |f|^2) of the moduli, typed like
    ``_density_of``."""
    den = (1.0 + ga ** 2) ** (m + 2) * fa ** 2
    return -2.0 * m * gda ** 2 / den


def _point_values(t: MTriple, z: complex, slope: bool) -> tuple:
    """Finite (g, f), or (g, f, g') with ``slope``, at z; where g is infinite or
    |g| > _BIG, the pair (1/g, g^m f), which gives the same density and curvature."""
    if t.domain.puncture_gap(z) < _PUNCTURE_EPS:
        raise EvalError(f"evaluation at a puncture: z={z}")
    gv = eval_ext(t.g, z)
    if gv.is_inf or abs(gv.value) > _BIG:
        ginv = invert_expr(t.g)
        gv, gd = eval_ext(ginv, z), slope and eval_ext(derivative(ginv), z)
        fv = eval_ext(t._pole_form, z)
    else:
        fv, gd = eval_ext(t.f, z), slope and eval_ext(derivative(t.g), z)
    vals = (gv, fv, gd) if slope else (gv, fv)
    if any(v.is_inf for v in vals):
        raise EvalError(f"metric data not finite at z={z}")
    return tuple(v.value for v in vals)


# Python's float ``**`` and complex ``abs`` raise OverflowError where numpy's
# give inf, which the array evaluators repair; at a point it is an EvalError
def metric_density(t: MTriple, z: complex) -> float:
    """Metric density (1 + |g|^2)^(m/2) |f| at a point, finite across g-poles."""
    try:
        return _density_of(*map(abs, _point_values(t, z, slope=False)), t.m)
    except OverflowError as exc:
        raise EvalError(f"metric density overflows at z={z}") from exc


def curvature(t: MTriple, z: complex) -> float:
    """Closed-form Gaussian curvature; nonpositive, zero where g' vanishes."""
    try:
        gv, fv, gd = _point_values(t, z, slope=True)
        if fv == 0:
            raise EvalError(f"f vanishes at z={z}; metric is degenerate there")
        return _curvature_of(abs(gv), abs(fv), abs(gd), t.m)
    except OverflowError as exc:
        raise EvalError(f"curvature overflows at z={z}") from exc


def metric_density_array(t: MTriple, zs) -> np.ndarray:
    """Vectorized density with scalar repair at pole/limit sites."""
    return _repaired_array(lambda ga, fa: _density_of(ga, fa, t.m), (t.g, t.f), zs,
                           lambda z: metric_density(t, z))


def curvature_array(t: MTriple, zs) -> np.ndarray:
    """Vectorized curvature with scalar repair at pole/limit sites."""
    return _repaired_array(lambda ga, fa, gda: _curvature_of(ga, fa, gda, t.m),
                           (t.g, t.f, derivative(t.g)), zs, lambda z: curvature(t, z))


def curvature_fd(t: MTriple, z: complex, h: float = 1e-3, richardson: bool = False) -> float:
    """Finite-difference curvature -(Laplacian log density)/density^2.

    Independent of the closed form: only the density enters.  Five-point
    stencil, O(h^2); with ``richardson`` the (h, h/2) extrapolation is O(h^4).
    A step whose square is below 2**-52, or that leaves a stencil point on its
    centre, is an ``ArgumentError`` on ``h``: one rounding of a unit-size
    log-density, 2**-52, divided by such a square moves the Laplacian by more
    than 1.
    """

    def one(hh: float) -> float:
        pts = [z, z + hh, z - hh, z + 1j * hh, z - 1j * hh]
        if hh * hh < 2**-52 or z in pts[1:]:
            raise ArgumentError("h", f"step {hh!r} is below the resolution of the stencil at {z}")
        for p in pts:
            if not t.domain.contains(p):
                raise EvalError(f"FD stencil leaves the domain at {p}")
        lam = [metric_density(t, p) for p in pts]
        if min(lam) <= 1e-300:
            raise EvalError("density vanishes on the FD stencil")
        logs = [math.log(v) for v in lam]
        lap = (logs[1] + logs[2] + logs[3] + logs[4] - 4.0 * logs[0]) / (hh * hh)
        return -lap / (lam[0] * lam[0])

    if not richardson:
        return one(h)
    k1 = one(h)
    k2 = one(h / 2.0)
    return (4.0 * k2 - k1) / 3.0
