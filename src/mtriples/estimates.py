"""Executable property predicates and curvature-estimate verification.

Two properties of sphere-valued maps are realized: boundedness (|g| < L)
and omission of a finite value set.  For the bounded property the explicit
constant sqrt(2m) * L * (1 + L^2)^(m/2) bounds |K|^(1/2) * d, so the mesh
verifier compares sup |K| d^2 against its square with a 5% tolerance for
the one-sided Dijkstra overestimate of d.  For omission properties only an
empirical supremum is reported; no explicit constant is available, and the
verifier never fabricates one.

The four probes (Marty, Zalcman, Fujimoto and completeness) live here too.
Only ``verify_estimate`` imports ``geodesy``, and with it scipy, inside it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .expr import (
    ArgumentError,
    Const,
    Div,
    EvalError,
    ExtComplex,
    MeroExpr,
    Mul,
    OrderUndeterminedError,
    Sub,
    Z,
    chordal,
    chordal_array,
    derivative,
    eval_array_checked,
    spherical_gradient,
    spherical_gradient_array,
    substitute,
    _div,
    _is_constant,
    _mul,
)
from .mtriple import (Disk, DomainSpec, MTriple, TruncatedPlane, curvature_array, make_triple,
                      segment_point_dist)
from .quadrature import MeshError, QuadratureError, _require_grid_points, simpson_segments

if TYPE_CHECKING:  # geodesy imports scipy; the probes here build no mesh
    from .geodesy import MeshedDomain

__all__ = [
    "Bounded",
    "Omits",
    "PropertySpec",
    "PropertyReport",
    "PropertyViolation",
    "EstimateReport",
    "NormalityReport",
    "FujimotoReport",
    "ZalcmanResult",
    "property_check",
    "curvature_constant",
    "verify_estimate",
    "optimal_example",
    "fujimoto_ratio",
    "marty_sup",
    "zalcman_rescale",
    "CompletenessReport",
    "completeness_probe",
]

MESH_TOLERANCE = 0.05
MARTY_GROWTH_THRESHOLD = 0.2  # log-log slope of the suprema above which growth is unbounded
OMITS_DELTA_DEFAULT = 1e-3

_MESH_TOLERANCE_NOTE = (
    "mesh distances overestimate the geodesic distance to the boundary "
    "(16-neighbor stencil, one-sided), hence the 5% slack on the verdict"
)


class PropertyViolation(ValueError):
    pass


@dataclass(frozen=True)
class Bounded:
    limit: float

    def __post_init__(self):
        if not self.limit > 0:
            raise ValueError("bound must be positive")


@dataclass(frozen=True)
class Omits:
    values: tuple

    def __post_init__(self):
        vals = tuple(ExtComplex.of(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("omission set must be nonempty")
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                if chordal(vals[a], vals[b]) <= 1e-12:
                    raise ValueError("omitted values must be pairwise distinct")
        object.__setattr__(self, "values", vals)


PropertySpec = Bounded | Omits


@dataclass(frozen=True)
class PropertyReport:
    kind: str  # "bounded" | "omits"
    extremum: float  # max |g| resp. min chordal distance
    threshold: float
    verdict: bool
    witness: complex  # node where the extremum is attained
    near_points: tuple


def property_check(
    g: MeroExpr, prop: PropertySpec, mesh: MeshedDomain, delta: float = OMITS_DELTA_DEFAULT
) -> PropertyReport:
    """Sampled property verdict over the mesh nodes.

    Omission is checked at resolution ``delta`` in the chordal metric: the
    verdict is a statement about the sample set, not a proof.  Nodes inside
    the puncture standoff (refinement rings descending toward the excluded
    points) are not sampled; they sit beyond the ideal-boundary cutoff.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    zs = mesh.nodes
    standoff = max(1e-4, 0.3 * mesh.spacing)
    keep = np.ones(len(zs), dtype=bool)
    for p in mesh.domain.punctures:
        keep &= np.abs(zs - p) >= standoff
    zs = zs[keep]
    vals = eval_array_checked(g, zs)
    if isinstance(prop, Bounded):
        kind, threshold = "bounded", prop.limit
        score = np.abs(vals)
        k = int(np.argmax(score))
        verdict = score[k] < threshold
        near = score >= 0.95 * threshold
    else:
        kind, threshold = "omits", delta
        score = np.full(len(zs), np.inf)
        for alpha in prop.values:
            score = np.minimum(score, chordal_array(vals, alpha))
        k = int(np.argmin(score))
        verdict = score[k] > threshold
        near = score <= 2.0 * threshold
    return PropertyReport(
        kind=kind,
        extremum=float(score[k]),
        threshold=threshold,
        verdict=bool(verdict),
        witness=complex(zs[k]),
        near_points=tuple(complex(p) for p in zs[near][:32]),
    )


def curvature_constant(prop: PropertySpec, m: int) -> float | None:
    """Explicit bound on |K|^(1/2) d for the bounded property; None otherwise.
    A bound past the largest float is an ``ArgumentError`` on ``m``."""
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("m must be a positive integer")
    if isinstance(prop, Bounded):
        L = prop.limit
        try:
            c = math.sqrt(2.0 * m) * L * (1.0 + L * L) ** (m / 2.0)
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise ArgumentError("m", f"sqrt(2m) L (1+L^2)^(m/2) overflows for m = {m}, L = {L!r}")
        return c
    return None


@dataclass(frozen=True)
class EstimateReport:
    sup: float
    constant_squared: float | None
    tolerance: float
    verdict: str  # "pass" | "fail" | "empirical-only"
    arg_max: complex
    arg_max_index: int
    resolution: int
    note: str


def verify_estimate(
    triple: MTriple,
    prop: PropertySpec,
    mesh: MeshedDomain,
    check: PropertyReport | None = None,
) -> EstimateReport:
    """sup over interior nodes of |K| d^2 against the squared constant, once
    ``g`` passes ``property_check``: ``check`` if given, else a default-delta run."""
    from .geodesy import boundary_distance_field

    check = property_check(triple.g, prop, mesh) if check is None else check
    if not check.verdict:
        raise PropertyViolation(
            f"g violates the {check.kind} property at {check.witness} "
            f"(extremum {check.extremum})"
        )
    d = boundary_distance_field(mesh)
    idx = np.nonzero(mesh.interior)[0]
    if not np.all(np.isfinite(d[idx])):
        raise MeshError("mesh too coarse: unreachable interior nodes in the distance field")
    K = curvature_array(triple, mesh.nodes[idx])
    vals = np.abs(K) * d[idx] ** 2
    k = int(np.argmax(vals))
    sup = float(vals[k])
    c = curvature_constant(prop, triple.m)
    if c is None:
        verdict = "empirical-only"
        c2 = None
    else:
        c2 = c * c
        verdict = "pass" if sup <= c2 * (1.0 + MESH_TOLERANCE) else "fail"
    return EstimateReport(
        sup=sup,
        constant_squared=c2,
        tolerance=MESH_TOLERANCE,
        verdict=verdict,
        arg_max=complex(mesh.nodes[idx[k]]),
        arg_max_index=int(idx[k]),
        resolution=mesh.resolution,
        note=_MESH_TOLERANCE_NOTE,
    )


def optimal_example(m: int, alphas: Sequence[complex], radius: float | None = None) -> MTriple:
    """The extremal construction: g = z with f = 1/prod(z - alpha_j).

    g omits exactly the m+2 values alphas plus infinity, and the metric
    diverges along rays into every puncture and toward infinity.  A given
    ``radius`` that leaves an alpha outside is an ``ArgumentError`` on it.
    """
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("m must be a positive integer")
    pts = [complex(a) for a in alphas]
    if len(pts) != m + 1:
        raise ValueError(f"expected m+1 = {m + 1} puncture points, got {len(pts)}")
    if radius is None:
        radius = max(2.0, 2.0 * max(abs(a) for a in pts))
    try:
        domain = TruncatedPlane(radius, punctures=tuple(pts))
    except ArgumentError as exc:  # a puncture outside: the given radius is too small
        raise ArgumentError("radius", f"radius {radius} leaves an alpha outside the plane") from exc
    prod: MeroExpr = Sub(Z, Const(pts[0]))
    for a in pts[1:]:
        prod = Mul(prod, Sub(Z, Const(a)))
    return make_triple(domain, _div(Const(1 + 0j), prod), Z, m)


@dataclass(frozen=True)
class FujimotoReport:
    sup: float
    arg_max: complex
    eta: float
    q: int
    radius: float


def fujimoto_ratio(
    f: MeroExpr,
    values: Sequence,
    eta: float,
    radius: float,
    mesh: MeshedDomain,
) -> FujimotoReport:
    """Empirical supremum of the omitted-value gradient ratio times
    (R^2 - |z|^2)/R over the mesh of the disk of radius R.

    The ratio |f'| / ((1+|f|^2) prod_j chi(f, a_j)^(1-eta)) is bounded by a
    constant times R/(R^2 - |z|^2) whenever f omits the q >= 3 values (one
    of them infinity) and 0 < eta < (q-2)/q; the product here is what theory
    says stays bounded.
    """
    vals = tuple(ExtComplex.of(v) for v in values)
    q = len(vals)
    if q < 3 or not any(v.is_inf for v in vals):
        raise ArgumentError("values", "need q >= 3 omitted values including infinity")
    if not (0.0 < eta < (q - 2) / q):
        raise ArgumentError("eta", f"eta must lie in (0, {(q - 2) / q})")
    zs = mesh.nodes
    fz = eval_array_checked(f, zs)
    fd = eval_array_checked(derivative(f), zs)
    with np.errstate(all="ignore"):
        prod = np.ones(len(zs))
        for alpha in vals:
            prod *= chordal_array(fz, alpha) ** (1.0 - eta)
        if np.any(prod <= 0.0):
            k = int(np.argmin(prod))
            raise PropertyViolation(f"f attains an omitted value at node {zs[k]}")
        ratio = np.abs(fd) / ((1.0 + np.abs(fz) ** 2) * prod)
    if np.any(~np.isfinite(ratio)):
        raise EvalError("ratio evaluation failed at a node")
    scaled = ratio * (radius**2 - np.abs(zs) ** 2) / radius
    k = int(np.argmax(scaled))
    return FujimotoReport(
        sup=float(scaled[k]),
        arg_max=complex(zs[k]),
        eta=eta,
        q=q,
        radius=radius,
    )


@dataclass(frozen=True)
class NormalityReport:
    label: str
    indices: tuple
    sups: tuple
    slope: float
    verdict: str  # "bounded" | "unbounded-growth"
    region_center: complex
    region_radius: float


def _square_lattice(n: int, name: str) -> np.ndarray:
    """The (n+1) x (n+1) points ii + i jj around 0 of a probe grid set by ``name``."""
    _require_grid_points((n + 1) ** 2, name)
    k = np.arange(-n // 2, n // 2 + 1)
    ii, jj = np.meshgrid(k, k, indexing="ij")
    return ii + 1j * jj


def _disk_grid(center: complex, radius: float, grid: int) -> np.ndarray:
    zz = center + _square_lattice(grid, "grid") * (2.0 * radius / grid)
    return zz[np.abs(zz - center) <= radius]


def marty_sup(
    family: Callable[[int], MeroExpr],
    indices: Sequence[int],
    region: Disk,
    grid: int = 120,
    label: str = "",
) -> NormalityReport:
    """Per-member supremum of the spherical gradient over a compact disk.

    Local boundedness of these suprema characterizes normality, so the
    log-log slope across at least two distinct indices (else an
    ``ArgumentError`` on ``indices``) is the growth verdict.  An index past
    the largest float (the fit takes its log), or a member whose gradient
    cannot be evaluated on the grid or overflows there, is an
    ``ArgumentError`` named ``indices/k`` after its position ``k``.
    """
    idx = [int(n) for n in indices]
    if any(n < 1 for n in idx):
        raise ValueError("indices must be positive")
    if len(set(idx)) < 2:
        raise ArgumentError("indices", "the growth fit needs at least two distinct indices")
    pts = _disk_grid(region.center, region.radius, grid)
    sups = []
    for k, n in enumerate(idx):
        if n > sys.float_info.max:
            raise ArgumentError(f"indices/{k}", "index past the largest float")
        try:
            sup = float(np.max(spherical_gradient_array(family(n), pts)))
        except (EvalError, OrderUndeterminedError, ArithmeticError) as exc:
            # ArithmeticError: CPython's complex ** raises OverflowError or, on
            # a huge exponent, ZeroDivisionError
            raise ArgumentError(f"indices/{k}", f"member {k} cannot be sampled: {exc}") from exc
        if not math.isfinite(sup):
            raise ArgumentError(f"indices/{k}", f"the spherical gradient of member {k} overflows")
        sups.append(sup)
    if min(sups) > 0:
        slope = float(np.polyfit(np.log(np.asarray(idx, dtype=float)), np.log(sups), 1)[0])
    else:
        slope = 0.0
    verdict = "unbounded-growth" if slope > MARTY_GROWTH_THRESHOLD else "bounded"
    return NormalityReport(
        label=label,
        indices=tuple(idx),
        sups=tuple(sups),
        slope=slope,
        verdict=verdict,
        region_center=region.center,
        region_radius=region.radius,
    )


@dataclass(frozen=True)
class ZalcmanResult:
    rescaled: MeroExpr
    center: complex
    scale: float  # the gradient at the recentered origin before rescaling
    gradient_at_zero: float
    envelope_max_violation: float
    grid: int


def _conformal_gradient_grid(h: MeroExpr, pts: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.abs(pts) ** 2) * spherical_gradient_array(h, pts)


def zalcman_rescale(h: MeroExpr, searchgrid: int = 300) -> ZalcmanResult:
    """Normalize a non-normal candidate: recenter the hyperbolic-gradient
    maximum to the origin and rescale so the Euclidean spherical gradient
    at 0 equals 1.

    The returned map satisfies |grad|(0) = 1 and inherits the envelope bound
    |grad|(z) <= 1/(1 - (|z|/R)^2) on |z| < R from maximality at the center.
    """
    if _is_constant(h):
        raise ArgumentError("h", "h must be nonconstant")
    lattice = _square_lattice(searchgrid, "searchgrid")
    s = 2.0 / searchgrid
    pts = (lattice * s).ravel()
    pts = pts[np.abs(pts) < 1.0 - 1e-9]
    try:
        vals = _conformal_gradient_grid(h, pts)
    except ArithmeticError as exc:  # CPython's complex ** overflows folding h's constants
        raise ArgumentError("h", f"h cannot be sampled: {exc}") from exc
    z0 = complex(pts[int(np.argmax(vals))])
    if 1.0 - abs(z0) < 2.0 * s:
        raise ArgumentError("h", "gradient maximum sits on the rim; no interior rescaling point")

    # local refinement so maximality at the center holds to high accuracy
    width = s
    around = _square_lattice(20, "searchgrid")
    for _ in range(4):
        local = (z0 + around * (width / 10.0)).ravel()
        local = local[np.abs(local) < 1.0 - 1e-9]
        lv = _conformal_gradient_grid(h, local)
        z0 = complex(local[int(np.argmax(lv))])
        width /= 5.0

    if abs(z0) > 1e-12:
        phi = Div(Sub(Z, Const(z0)), Sub(Mul(Z, Const(z0.conjugate())), Const(1 + 0j)))
        h1 = substitute(h, phi)
    else:
        h1 = h
    scale = spherical_gradient(h1, 0j)
    if scale <= 0:
        raise ArgumentError("h", "spherical gradient vanishes at the recentered origin")
    rescaled = substitute(h1, _mul(Const(complex(1.0 / scale)), Z))

    grad0 = spherical_gradient(rescaled, 0j)
    # envelope check on the rescaled grid |z| < R
    wpts = pts
    zpts = scale * wpts
    grads = spherical_gradient_array(rescaled, zpts)
    bound = 1.0 / (1.0 - np.abs(wpts) ** 2)
    violation = float(np.max(grads - bound))
    return ZalcmanResult(
        rescaled=rescaled,
        center=z0,
        scale=scale,
        gradient_at_zero=grad0,
        envelope_max_violation=violation,
        grid=searchgrid,
    )


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
    or infinity, with a log-divergence fit.  Any other finite target, inside
    the domain or outside its closure, is refused.

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
        is_puncture = triple.domain.puncture_gap(tgt) < 1e-9
        # punctures lie inside; a boundary point off by rounding still counts
        rounding = 1e-9 * triple.domain.scale()
        if not triple.domain.contains(tgt, margin=-rounding):
            raise ArgumentError("target", f"{tgt} is not a point of the closed domain")
        if not is_puncture and triple.domain.contains(tgt, margin=rounding):
            raise ArgumentError(
                "target", f"{tgt} is interior: neither a puncture nor on the boundary"
            )
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
        label = f"{'puncture' if is_puncture else 'boundary'} {tgt}"

    stops = np.array(stops)
    pieces = [float(abs(s)) for s in simpson_segments(dens, stops[:-1], stops[1:], rel_tol=1e-9)]
    if not all(map(math.isfinite, pieces)):
        raise QuadratureError("length integrand overflowed before truncation")
    lengths = list(itertools.accumulate(pieces))  # running sums, one piece at a time

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
