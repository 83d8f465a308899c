"""Surface synthesis from holomorphic representation data.

Four classes are synthesized over a meshed planar domain:

* minimal surfaces in Euclidean 3-space, vertices Re of the integral of
  ((1 - g^2), i(1 + g^2), 2g) f dz;
* maxfaces in Lorentz-Minkowski 3-space (first coordinate timelike),
  vertices Re of the integral of (-2g, 1 + g^2, i(1 - g^2)) f dz, singular
  exactly where |g| = 1;
* improper affine fronts in R^3 = C x R from a pair (F, G) of holomorphic
  functions, singular where |F'| = |G'|;
* flat fronts in hyperbolic 3-space via the matrix ODE L' = L @ [[0, th],
  [om, 0]] and the Hermitian projection psi = L L*, singular where the
  form ratio th/om has modulus 1.

Integration runs along a spanning tree of the mesh with adaptive Simpson
quadrature per edge, which keeps multivalued integrals single-valued by
construction; period defects then show up as seam mismatches on the
non-tree edges and as explicit cycle residuals.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence

import numpy as np

from .expr import (
    Add,
    ArgumentError,
    Const,
    EvalError,
    MeroExpr,
    Mul,
    Pow,
    Sub,
    derivative,
    eval_array_checked,
    eval_ext,
    is_rational,
    _is_constant,
    _repaired_array,
)
from .mtriple import (
    DomainSpec,
    MTriple,
    _as_expr,
    _SAME_POINT,
    _candidates,
    _order,
    _point_values,
    _rational_pair,
    curvature_array,
    make_triple,
    metric_density_array,
)
from .quadrature import MeshError, QuadratureError, _require_grid_points, simpson_segments
from .reporting import _rows, _write_csv

if TYPE_CHECKING:  # geodesy imports scipy; period residuals need no mesh
    from .geodesy import MeshedDomain

__all__ = [
    "MinimalData",
    "MaxfaceData",
    "ImproperAffineData",
    "FlatFrontData",
    "WeierstrassData",
    "SurfaceMesh",
    "PeriodResidual",
    "ImmersionReport",
    "GaussNormalReport",
    "synth_minimal",
    "synth_maxface",
    "synth_improper_affine",
    "synth_flatfront",
    "period_residuals",
    "seam_mismatch",
    "immersion_check",
    "gauss_normal_check",
    "singular_locus",
    "export_mesh",
]

SINGULAR_FLAG_TOL = 1e-3


# ---------------------------------------------------------------------------
# Representation data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SurfaceData:
    """Representation data of one surface class.

    A subclass declares its two holomorphic expressions as its first two
    fields, then ``domain`` and ``base_point``; ``kind`` names the class in
    configs and reports, and ``frame`` is the model its vertices live in.
    """

    kind: ClassVar[str]
    frame: ClassVar[str]

    def __post_init__(self):
        for f in fields(self)[:2]:
            object.__setattr__(self, f.name, _as_expr(getattr(self, f.name)))
        object.__setattr__(self, "base_point", complex(self.base_point))

    def singular_indicator(self, zs: np.ndarray) -> np.ndarray:
        """Real function on the nodes whose zero set is the singular locus."""
        raise TypeError(f"the {self.kind} class has no singular locus")

    def _metric_sq(self, diagnostics: dict) -> np.ndarray:
        """Squared conformal factor of the immersion that immersion_check tests."""
        return diagnostics["density"] ** 2


@dataclass(frozen=True)
class _VectorData(_SurfaceData):
    """Weierstrass data (f, g) of a vector-valued class: the vertices are
    Re of the integral of the class's three representation forms."""

    f: MeroExpr
    g: MeroExpr
    domain: DomainSpec
    base_point: complex = 0j

    def __post_init__(self):
        super().__post_init__()
        # raises on an irregular rational pair
        object.__setattr__(self, "_triple", make_triple(self.domain, self.f, self.g, 2))

    @property
    def triple(self) -> MTriple:
        return self._triple


@dataclass(frozen=True)
class MinimalData(_VectorData):
    kind: ClassVar[str] = "minimal"
    frame: ClassVar[str] = "euclidean"

    def forms(self) -> tuple:
        """((1 - g^2), i(1 + g^2), 2g) f"""
        one, g2 = Const(1 + 0j), Pow(self.g, 2)
        return (
            Mul(Sub(one, g2), self.f),
            Mul(Mul(Const(1j), Add(one, g2)), self.f),
            Mul(Mul(Const(2 + 0j), self.g), self.f),
        )


@dataclass(frozen=True)
class MaxfaceData(_VectorData):
    kind: ClassVar[str] = "maxface"
    frame: ClassVar[str] = "lorentzian"

    def __post_init__(self):
        super().__post_init__()
        g = self.g  # constant in any written form, |g| read at one point
        if _is_constant(g) and abs(abs(eval_ext(g, self.domain.anchor()).value) - 1.0) < 1e-15:
            raise ArgumentError("g", "|g| identically 1: the data is singular everywhere")

    def forms(self) -> tuple:
        """(-2g, 1 + g^2, i(1 - g^2)) f"""
        one, g2 = Const(1 + 0j), Pow(self.g, 2)
        return (
            Mul(Mul(Const(-2 + 0j), self.g), self.f),
            Mul(Add(one, g2), self.f),
            Mul(Mul(Const(1j), Sub(one, g2)), self.f),
        )

    def singular_indicator(self, zs: np.ndarray) -> np.ndarray:
        """|g| - 1"""
        return np.abs(eval_array_checked(self.g, zs)) - 1.0

    def _metric_sq(self, diagnostics: dict) -> np.ndarray:
        return diagnostics["induced_metric_sq"]


@dataclass(frozen=True)
class _PoleFreeData(_SurfaceData):
    """Data whose two expressions may have no pole inside the domain; a pole left
    after cancellation, or an identically zero denominator, is an ``ArgumentError``."""

    def __post_init__(self):
        super().__post_init__()
        for f in fields(self)[:2]:
            e = getattr(self, f.name)
            if not is_rational(e):
                continue  # checked at runtime by quadrature failures
            num, den = _rational_pair(f.name, e)
            zeros = _candidates(self.domain, [num])
            for p in _candidates(self.domain, [den]):
                # cancelled only by a numerator root at the same point and a local order >= 0
                if all(abs(p - q) > _SAME_POINT for q in zeros) or _order(e, f.name, p) < 0:
                    raise ArgumentError(f.name, f"{f.name} has a pole at {p} inside the domain")


@dataclass(frozen=True)
class ImproperAffineData(_PoleFreeData):
    kind: ClassVar[str] = "improper_affine"
    frame: ClassVar[str] = "affine"
    F: MeroExpr
    G: MeroExpr
    domain: DomainSpec
    base_point: complex = 0j

    def forms(self) -> tuple:
        """(F G',): the height function integrates F dG"""
        return (Mul(self.F, derivative(self.G)),)

    def singular_indicator(self, zs: np.ndarray) -> np.ndarray:
        """|F'| - |G'|"""
        Fp, Gp = (eval_array_checked(derivative(e), zs) for e in (self.F, self.G))
        return np.abs(Fp) - np.abs(Gp)

    def _metric_sq(self, diagnostics: dict) -> np.ndarray:
        return diagnostics["tau_sq"]


@dataclass(frozen=True)
class FlatFrontData(_PoleFreeData):
    kind: ClassVar[str] = "flat_front"
    frame: ClassVar[str] = "hyperbolic"
    omega: MeroExpr
    theta: MeroExpr
    domain: DomainSpec
    base_point: complex = 0j

    def singular_indicator(self, zs: np.ndarray) -> np.ndarray:
        """|theta / omega| - 1"""
        om, th = (eval_array_checked(e, zs) for e in (self.omega, self.theta))
        with np.errstate(all="ignore"):
            return np.abs(th / om) - 1.0


WeierstrassData = MinimalData | MaxfaceData | ImproperAffineData | FlatFrontData


# ---------------------------------------------------------------------------
# Surface container
# ---------------------------------------------------------------------------


@dataclass
class SurfaceMesh:
    vertices: np.ndarray  # (n, 3) real coordinates (ball model for H^3)
    faces: np.ndarray  # (m, 3) int
    mesh: MeshedDomain
    frame: str  # "euclidean" | "lorentzian" | "affine" | "hyperbolic"
    diagnostics: dict
    metadata: dict
    hermitian_psi: Optional[np.ndarray] = None  # (n, 2, 2) for H^3
    lift_matrices: Optional[np.ndarray] = None  # (n, 2, 2) holomorphic lift
    lagrangian_lift: Optional[np.ndarray] = None  # (n, 4) for improper affine

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PeriodResidual:
    kind: str
    values: np.ndarray  # 3 reals / 1 real / 2x2 complex deviation
    norm: float


# ---------------------------------------------------------------------------
# Spanning-tree integration
# ---------------------------------------------------------------------------


def _tree_levels(parent: np.ndarray, order: np.ndarray) -> list:
    """Slices of ``order[1:]``, one per BFS depth, shallowest first.

    A breadth-first order lists children in the order their parents were
    visited, so the parents' positions never decrease along ``order[1:]``
    and the nodes of one depth form one run: the children of the run
    before it.
    """
    pos = np.empty(len(order), dtype=np.intp)
    pos[order] = np.arange(len(order))
    parent_pos = pos[parent[order[1:]]]
    levels = []
    lo, hi = 0, int(np.searchsorted(parent_pos, 1))
    while lo < hi:
        levels.append(slice(lo, hi))
        lo, hi = hi, int(np.searchsorted(parent_pos, hi + 1))
    return levels


def _integrate_tree(mesh: MeshedDomain, root: int, integrands: Sequence) -> np.ndarray:
    """Cumulative integrals of each integrand from the root to every node."""
    parent, order = mesh.spanning_tree(root)
    child = order[1:]
    levels = _tree_levels(parent, order)
    za = mesh.nodes[parent[child]]
    zb = mesh.nodes[child]
    out = np.zeros((len(integrands), mesh.n_nodes), dtype=complex)
    try:
        for k, fvec in enumerate(integrands):
            seg = simpson_segments(fvec, za, zb, rel_tol=1e-10)
            acc = out[k]
            for s in levels:
                acc[child[s]] = acc[parent[child[s]]] + seg[s]
    except QuadratureError as exc:
        raise EvalError(f"integral along a tree edge failed: {exc}") from exc
    return out


def _expr_vec(e: MeroExpr):
    return lambda zs: eval_array_checked(e, zs)


def seam_mismatch(data: WeierstrassData, mesh: MeshedDomain, surface: "SurfaceMesh") -> float:
    """Largest defect across non-tree edges of the integrated vertex values.

    Zero (up to quadrature) exactly when all cycle periods vanish, so a
    multiply connected mesh closes iff the data satisfies the period
    condition; otherwise the defect equals the corresponding cycle residual.
    """
    if not isinstance(data, _VectorData):
        raise TypeError("seam mismatch is defined for the vector-valued classes")
    parent, _ = mesh.spanning_tree(mesh.node_nearest(data.base_point))
    ei, ej = mesh.edges_i, mesh.edges_j
    non_tree = ~((parent[ej] == ei) | (parent[ei] == ej))
    if not np.any(non_tree):
        return 0.0
    ai, bi = ei[non_tree], ej[non_tree]
    za, zb = mesh.nodes[ai], mesh.nodes[bi]
    psi = surface.vertices
    worst = 0.0
    for k, form in enumerate(data.forms()):
        seg = simpson_segments(_expr_vec(form), za, zb, rel_tol=1e-10)
        defect = psi[ai, k] + seg.real - psi[bi, k]
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _form_integrals(data: WeierstrassData, mesh: MeshedDomain) -> np.ndarray:
    """Integral of each representation form from the base point to every node."""
    root = mesh.node_nearest(data.base_point)
    return _integrate_tree(mesh, root, [_expr_vec(e) for e in data.forms()])


def _lattice_cells(mesh: MeshedDomain) -> np.ndarray:
    """(4, k) corner ids of every lattice cell whose four corners are mesh
    nodes, in row-major cell order.  Corners 0-3 of cell (i, j) are lattice
    points (i, j), (i+1, j), (i+1, j+1) and (i, j+1)."""
    grid = mesh.lattice
    cells = np.stack([grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:]]).reshape(4, -1)
    return cells[:, np.all(cells >= 0, axis=0)]


def _surface(data: WeierstrassData, mesh: MeshedDomain, vertices, diagnostics, metadata=None, **lifts):
    """The SurfaceMesh of ``data`` on the lattice of ``mesh``, two CCW
    triangles per lattice cell."""
    cells = _lattice_cells(mesh)
    return SurfaceMesh(
        vertices=vertices,
        faces=np.concatenate([cells[[0, 1, 2]].T, cells[[0, 2, 3]].T]),
        mesh=mesh,
        frame=data.frame,
        diagnostics=diagnostics,
        metadata={
            "surface_class": data.kind,
            "base_point": [data.base_point.real, data.base_point.imag],
            **(metadata or {}),
        },
        **lifts,
    )


def synth_minimal(data: MinimalData, mesh: MeshedDomain) -> SurfaceMesh:
    """Integrate the Euclidean representation forms over the mesh."""
    vertices = _form_integrals(data, mesh).real.T.copy()
    zs = mesh.nodes
    diags = {
        "gauss_map": eval_array_checked(data.g, zs),
        "density": metric_density_array(data.triple, zs),
        "curvature": curvature_array(data.triple, zs),
        "singular": np.zeros(len(zs), dtype=bool),
    }
    return _surface(data, mesh, vertices, diags)


def synth_maxface(data: MaxfaceData, mesh: MeshedDomain) -> SurfaceMesh:
    """Integrate the Lorentzian representation forms; flag |g| = 1 vertices."""
    vertices = _form_integrals(data, mesh).real.T.copy()
    zs = mesh.nodes
    gv = eval_array_checked(data.g, zs)
    with np.errstate(all="ignore"):
        singular = np.abs(np.abs(gv) - 1.0) < SINGULAR_FLAG_TOL

    def induced(gv, fv):
        """(1 - |g|^2)^2 |f|^2, the same at (1/g, g^2 f)"""
        return (1.0 - abs(gv) ** 2) ** 2 * abs(fv) ** 2

    diags = {
        "density": metric_density_array(data.triple, zs),
        "curvature": curvature_array(data.triple, zs),
        "gauss_map": gv,
        "singular": singular,
        "induced_metric_sq": _repaired_array(
            induced, (data.g, data.f), zs, lambda z: induced(*_point_values(data.triple, z, False))),
    }
    meta = {
        "lorentzian": True,
        "signature": "(-,+,+) with the first coordinate timelike",
        "riemannian_metric_note": "half of the stored density^2 equals the ambient-lift pullback",
    }
    return _surface(data, mesh, vertices, diags, meta)


def synth_improper_affine(data: ImproperAffineData, mesh: MeshedDomain) -> SurfaceMesh:
    """Height-function synthesis from (F, G); vertices (Re x, Im x, height)."""
    zs = mesh.nodes
    Fv = eval_array_checked(data.F, zs)
    Gv = eval_array_checked(data.G, zs)
    Fpv = eval_array_checked(derivative(data.F), zs)
    Gpv = eval_array_checked(derivative(data.G), zs)
    tau_sq = 2.0 * (np.abs(Fpv) ** 2 + np.abs(Gpv) ** 2)
    if np.any(tau_sq <= 0.0):
        k = int(np.argmin(tau_sq))
        raise EvalError(f"degenerate node at {zs[k]}: both dF and dG vanish")
    (int_fdg,) = _form_integrals(data, mesh)
    x = Gv + np.conj(Fv)
    height = 0.5 * (np.abs(Gv) ** 2 - np.abs(Fv) ** 2) + (Gv * Fv - 2.0 * int_fdg).real
    vertices = np.column_stack([x.real, x.imag, height])
    with np.errstate(all="ignore"):
        nu = Fpv / Gpv
    affine_metric = np.abs(Gpv) ** 2 - np.abs(Fpv) ** 2
    singular = np.abs(np.abs(Fpv) - np.abs(Gpv)) < SINGULAR_FLAG_TOL * (
        np.abs(Fpv) + np.abs(Gpv)
    )
    # special Lagrangian lift in C^2 ~ R^4 whose induced metric is tau^2
    z1 = (Gv.real + Fv.real) + 1j * (Fv.real - Gv.real)
    z2 = (Gv.imag - Fv.imag) + 1j * (-Fv.imag - Gv.imag)
    lift = np.column_stack([z1.real, z1.imag, z2.real, z2.imag])
    diags = {
        "density": np.sqrt(tau_sq),
        "lagrangian_gauss_map": nu,
        "affine_metric": affine_metric,
        "tau_sq": tau_sq,
        "singular": singular,
    }
    return _surface(data, mesh, vertices, diags, lagrangian_lift=lift)


def _require_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step!r}")


def _div_real(a: np.ndarray, d) -> np.ndarray:
    """a / d for real d > 0, rounded as Python's complex division does it
    (numpy's multiplies by the reciprocal)."""
    out = np.empty_like(a)
    out.real = (a.real + a.imag * 0.0) / d
    out.imag = (a.imag - a.real * 0.0) / d
    return out


def _rk4_edges(
    lifts: np.ndarray, za: np.ndarray, zb: np.ndarray, omega, theta, step: float
) -> np.ndarray:
    """March L' = L @ [[0, theta], [omega, 0]] along the segments za -> zb.

    ``lifts`` (k, 2, 2) holds the start values.  Each segment takes
    max(1, ceil(|zb - za| / step)) RK4 steps with the forms sampled at the
    step ends and midpoints, and all segments are stepped together: sorted
    by step count, a segment leaves the batch once its steps are done.
    Every value is rounded as when one segment is stepped on its own.  The
    k (2 * most + 1) samples, 64 bytes each, are counted first and refused
    past ``MAX_GRID_POINTS`` as an ``ArgumentError`` on ``step``.
    """
    delta = zb - za
    # np.hypot is libm's hypot, as Python's abs(complex); numpy's complex abs
    # can differ in the last bit, which moves ceil() at an exact multiple
    n = np.maximum(1, np.ceil(np.hypot(delta.real, delta.imag) / step))
    _require_grid_points(len(n) * (2 * n.max() + 1), "step")
    n = n.astype(np.intp)
    by_steps = np.argsort(-n, kind="stable")
    n, za, delta = n[by_steps], za[by_steps], delta[by_steps]
    k, most = len(n), int(n[0])
    coeff = np.zeros((k, 2 * most + 1, 2, 2), dtype=complex)
    lo = 0
    while lo < k:
        m = int(n[lo])
        hi = lo + int(np.count_nonzero(n == m))
        ts = np.linspace(0.0, 1.0, 2 * m + 1)
        pts = za[lo:hi, None] + ts * delta[lo:hi, None]
        om = eval_array_checked(omega, pts)
        th = eval_array_checked(theta, pts)
        if np.any(~np.isfinite(om)) or np.any(~np.isfinite(th)):
            raise EvalError("form coefficient has a pole on an integration edge")
        coeff[lo:hi, : 2 * m + 1, 0, 1] = th
        coeff[lo:hi, : 2 * m + 1, 1, 0] = om
        lo = hi
    dz = _div_real(delta, n)
    half = (0.5 * dz)[:, None, None]
    sixth = _div_real(dz, 6.0)[:, None, None]
    dz = dz[:, None, None]
    out = lifts[by_steps]
    active = k
    for j in range(most):
        active = int(np.count_nonzero(n[:active] > j))
        L = out[:active]
        a0, a1, a2 = (coeff[:active, 2 * j + i] for i in range(3))
        k1 = L @ a0
        k2 = (L + half[:active] * k1) @ a1
        k3 = (L + half[:active] * k2) @ a1
        k4 = (L + dz[:active] * k3) @ a2
        out[:active] = L + sixth[:active] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    result = np.empty_like(out)
    result[by_steps] = out
    return result


def synth_flatfront(data: FlatFrontData, mesh: MeshedDomain, step: float) -> SurfaceMesh:
    """Integrate the Legendrian-lift ODE and project psi = L L* to the ball."""
    _require_step(step)
    if step > 1e-2 * data.domain.diameter():
        raise ArgumentError("step", "step must be at most 1% of the domain diameter")
    root = mesh.node_nearest(data.base_point)
    parent, order = mesh.spanning_tree(root)
    child = order[1:]
    zs = mesh.nodes
    lifts = np.zeros((mesh.n_nodes, 2, 2), dtype=complex)
    lifts[root] = np.eye(2)
    for s in _tree_levels(parent, order):
        v = child[s]
        p = parent[v]
        lifts[v] = _rk4_edges(lifts[p], zs[p], zs[v], data.omega, data.theta, step)
    dets = lifts[:, 0, 0] * lifts[:, 1, 1] - lifts[:, 0, 1] * lifts[:, 1, 0]
    drift = float(np.max(np.abs(dets - 1.0)))
    if drift > 1e-6:
        raise EvalError(f"determinant drift {drift:.3e} exceeds 1e-6; reduce the step")
    psi = lifts @ np.conj(np.swapaxes(lifts, 1, 2))
    a = psi[:, 0, 0].real
    c = psi[:, 1, 1].real
    b = psi[:, 0, 1]
    x0 = 0.5 * (a + c)
    x1 = psi[:, 1, 0].real
    x2 = psi[:, 1, 0].imag
    x3 = 0.5 * (a - c)
    ball = np.column_stack([x1, x2, x3]) / (1.0 + x0)[:, None]
    om = eval_array_checked(data.omega, zs)
    th = eval_array_checked(data.theta, zs)
    with np.errstate(all="ignore"):
        rho = th / om
    density_sq = np.abs(om) ** 2 + np.abs(th) ** 2
    singular = np.abs(np.abs(rho) - 1.0) < SINGULAR_FLAG_TOL
    diags = {
        "density": np.sqrt(density_sq),
        "form_ratio": rho,
        "singular": singular,
        "det_drift": np.abs(dets - 1.0),
    }
    meta = {
        "model": "Hermitian psi = L L*; Minkowski coords ((a+c)/2, Re b, Im b, (a-c)/2); ball projection x_i/(1+x0)",
        "lift_convention": "L^-1 dL off-diagonal with theta upper right and omega lower left",
        "max_det_drift": drift,
        "step": step,
    }
    return _surface(data, mesh, ball, diags, meta, hermitian_psi=psi, lift_matrices=lifts)


# ---------------------------------------------------------------------------
# Periods
# ---------------------------------------------------------------------------


def period_residuals(data: WeierstrassData, cycle: Sequence[complex], step: float = 1e-3) -> PeriodResidual:
    """Real parts of the cycle integrals (monodromy deviation for flat fronts)."""
    pts = np.asarray([complex(p) for p in cycle], dtype=complex)
    if abs(pts[0] - pts[-1]) > 1e-14:
        pts = np.append(pts, pts[0])
    if isinstance(data, FlatFrontData):
        _require_step(step)
        L = np.eye(2, dtype=complex)[None]
        for i in range(len(pts) - 1):
            L = _rk4_edges(L, pts[i : i + 1], pts[i + 1 : i + 2], data.omega, data.theta, step)
        dev = L[0] - np.eye(2)
        return PeriodResidual(kind="flatfront", values=dev, norm=float(np.max(np.abs(dev))))
    try:
        vals = np.array([simpson_segments(_expr_vec(e), pts[:-1], pts[1:], rel_tol=1e-12)
                         .sum().real for e in data.forms()])
    except QuadratureError as exc:
        raise EvalError(f"integral along the cycle failed: {exc}") from exc
    return PeriodResidual(kind=data.kind, values=vals, norm=float(np.linalg.norm(vals)))


# ---------------------------------------------------------------------------
# Finite-difference invariant checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImmersionReport:
    conformal_asymmetry: float  # | |psi_u|^2 - |psi_v|^2 | / lambda^2
    cross_term: float  # | <psi_u, psi_v> | / lambda^2
    metric_deviation: float  # | |psi_u|^2 - lambda^2 | / lambda^2
    laplacian: Optional[float]  # |FD Laplacian| / lambda^2 (minimal class)
    n_checked: int


# lattice offsets of the FD stencil: center, e1, w1, n1, s1, e2, w2, n2, s2
_STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2))


def _lattice_stencil(mesh: MeshedDomain, exclude: np.ndarray | None):
    """Vertex ids with axis neighbors at offsets 1 and 2 on the lattice, in
    ``_STENCIL`` order."""
    grid = mesh.lattice
    if grid.size == 0:
        raise MeshError("mesh carries no lattice for finite differences")
    ni, nj = grid.shape  # stops clipped at 0: a negative one would count from the end
    ids = [grid[2 + di:max(ni - 2 + di, 0), 2 + dj:max(nj - 2 + dj, 0)] for di, dj in _STENCIL]
    ok = np.ones(ids[0].shape, dtype=bool)
    for a in ids:
        ok &= a >= 0
    ids = tuple(a[ok] for a in ids)
    if exclude is not None:
        keep = np.ones(len(ids[0]), dtype=bool)
        for a in ids:
            keep &= ~exclude[a]
        ids = tuple(a[keep] for a in ids)
    if len(ids[0]) == 0:
        raise MeshError("no interior vertices with a complete FD stencil")
    return ids


def _fd_first(coords: np.ndarray, p1, m1, p2, m2, h: float) -> np.ndarray:
    """Fourth-order central first derivative along one lattice axis."""
    return (-coords[p2] + 8.0 * coords[p1] - 8.0 * coords[m1] + coords[m2]) / (12.0 * h)


def _frame_product(frame: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if frame == "lorentzian":
        return -a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]
    return np.sum(a * b, axis=1)


def immersion_check(
    surface: SurfaceMesh,
    data: WeierstrassData,
    exclude: np.ndarray | None = None,
) -> ImmersionReport:
    """Conformality and metric identities via central differences on the lattice.

    The class-appropriate coordinates are used: ambient R^3 (Euclidean or
    Lorentzian), the R^4 Lagrangian lift for improper affine fronts, and the
    left-translated lift differential (Frobenius norm) for flat fronts.  The
    harmonicity residual is reported for the minimal class only.
    """
    mesh = surface.mesh
    if exclude is None:
        exclude = np.asarray(surface.diagnostics.get("singular", np.zeros(mesh.n_nodes, bool)))
    c, e1, w1, n1, s1, e2, w2, n2, s2 = _lattice_stencil(mesh, exclude)
    h = mesh.spacing
    if isinstance(data, FlatFrontData):
        lifts = surface.lift_matrices
        inv = np.linalg.inv(lifts[c])
        bu = inv @ _fd_first(lifts, e1, w1, e2, w2, h)
        bv = inv @ _fd_first(lifts, n1, s1, n2, s2, h)
        uu = np.sum(np.abs(bu) ** 2, axis=(1, 2))
        vv = np.sum(np.abs(bv) ** 2, axis=(1, 2))
        uv = np.sum((bu * np.conj(bv)).real, axis=(1, 2))
    else:
        coords = surface.vertices if surface.lagrangian_lift is None else surface.lagrangian_lift
        pu = _fd_first(coords, e1, w1, e2, w2, h)
        pv = _fd_first(coords, n1, s1, n2, s2, h)
        uu = _frame_product(surface.frame, pu, pu)
        vv = _frame_product(surface.frame, pv, pv)
        uv = _frame_product(surface.frame, pu, pv)
    lam2 = data._metric_sq(surface.diagnostics)[c]
    lap = None
    if isinstance(data, MinimalData):
        lap_vec = (coords[e1] + coords[w1] + coords[n1] + coords[s1] - 4.0 * coords[c]) / (h * h)
        lap = float(np.max(np.linalg.norm(lap_vec, axis=1) / lam2))
    return ImmersionReport(
        conformal_asymmetry=float(np.max(np.abs(uu - vv) / lam2)),
        cross_term=float(np.max(np.abs(uv) / lam2)),
        metric_deviation=float(np.max(np.abs(uu - lam2) / lam2)),
        laplacian=lap,
        n_checked=len(c),
    )


@dataclass(frozen=True)
class GaussNormalReport:
    max_angle: float
    arg_max: complex
    n_checked: int


def gauss_normal_check(surface: SurfaceMesh, g: MeroExpr) -> GaussNormalReport:
    """Angle between the FD normal psi_u x psi_v and the projected Gauss map."""
    if surface.frame != "euclidean":
        raise ValueError("Gauss-normal comparison applies to the minimal class")
    mesh = surface.mesh
    c, e1, w1, n1, s1, e2, w2, n2, s2 = _lattice_stencil(mesh, None)
    h = mesh.spacing
    coords = surface.vertices
    pu = _fd_first(coords, e1, w1, e2, w2, h)
    pv = _fd_first(coords, n1, s1, n2, s2, h)
    normal = np.cross(pu, pv)
    norms = np.linalg.norm(normal, axis=1)
    if np.any(norms < 1e-12):
        raise EvalError("degenerate FD normal (metric density near zero)")
    normal /= norms[:, None]
    gv = eval_array_checked(g, mesh.nodes[c])
    mag = np.abs(gv)
    finite = np.isfinite(mag)
    target = np.empty((len(c), 3))
    with np.errstate(all="ignore"):
        denom = mag**2 + 1.0
        target[finite, 0] = 2.0 * gv[finite].real / denom[finite]
        target[finite, 1] = 2.0 * gv[finite].imag / denom[finite]
        target[finite, 2] = (mag[finite] ** 2 - 1.0) / denom[finite]
    target[~finite] = (0.0, 0.0, 1.0)
    dots = np.clip(np.sum(normal * target, axis=1), -1.0, 1.0)
    angles = np.arccos(dots)
    k = int(np.argmax(angles))
    return GaussNormalReport(
        max_angle=float(angles[k]),
        arg_max=complex(mesh.nodes[c[k]]),
        n_checked=len(c),
    )


# ---------------------------------------------------------------------------
# Singular locus via marching squares
# ---------------------------------------------------------------------------


def singular_locus(data: WeierstrassData, mesh: MeshedDomain) -> list:
    """Zero contour of ``data.singular_indicator`` on the lattice, as polylines.

    Marching squares over every cell of ``_lattice_cells`` at once; edge k
    runs from corner k to corner k+1 (mod 4).  A cell crossed twice joins
    its two crossings in edge order.  A saddle cell, crossed on all four
    edges, joins edges 0-1 and 2-3 when corner 0 lies on the side of the
    mean of its corners, else edges 0-3 and 1-2.  Segments are chained in
    row-major cell order.
    """
    if mesh.lattice.size == 0:
        raise MeshError("mesh carries no lattice")
    # lattice ids are 0..n_lat-1 in row-major order
    vals = data.singular_indicator(mesh.nodes[: np.count_nonzero(mesh.lattice >= 0)])
    if np.isnan(vals).any():
        raise MeshError("singular indicator is undefined at a lattice corner")
    # a pole of the indicator keeps its sign; finite values keep their bits
    vals = np.clip(vals, -np.finfo(float).max, np.finfo(float).max)
    cells = _lattice_cells(mesh)
    cv, cz = vals[cells], mesh.nodes[cells]
    nxt = [1, 2, 3, 0]
    crossed = (cv > 0.0) != (cv[nxt] > 0.0)  # (edge, cell)
    a, b = cv[crossed], cv[nxt][crossed]
    za = cz[crossed]
    pts = np.zeros(crossed.shape, dtype=complex)
    pts[crossed] = za + (a / (a - b)) * (cz[nxt][crossed] - za)

    count = crossed.sum(axis=0)
    saddle = count == 4
    same = (cv[0] > 0.0) == (cv.mean(axis=0) > 0.0)
    first = np.argmax(crossed, axis=0)
    last = 3 - np.argmax(crossed[::-1], axis=0)
    last[saddle & same] = 1
    # segment 1 exists in saddle cells only
    starts = np.stack([first, np.where(same, 2, 1)], axis=1)  # (cell, segment)
    ends = np.stack([last, np.where(same, 3, 2)], axis=1)
    used = np.stack([count > 0, saddle], axis=1)
    cell = np.broadcast_to(np.arange(len(count))[:, None], used.shape)[used]
    # crossings stay np.complex128: _chain_segments keys on numpy's rounding
    return _chain_segments(list(zip(pts[starts[used], cell], pts[ends[used], cell])))


def _chain_segments(segments: list) -> list:
    """Greedy join of contour segments into polylines."""
    if not segments:
        return []

    def key(z: complex):
        return (round(z.real, 9), round(z.imag, 9))

    unused = list(range(len(segments)))
    by_end: dict = {}
    for idx, (p, q) in enumerate(segments):
        by_end.setdefault(key(p), []).append(idx)
        by_end.setdefault(key(q), []).append(idx)
    used = np.zeros(len(segments), dtype=bool)
    polylines = []
    for start in unused:
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = deque([p, q])
        for tail, push in ((1, chain.append), (0, chain.appendleft)):
            while True:
                endpoint = chain[-1] if tail else chain[0]
                found = None
                for idx in by_end.get(key(endpoint), []):
                    if not used[idx]:
                        found = idx
                        break
                if found is None:
                    break
                used[found] = True
                a, b = segments[found]
                nxt = b if abs(a - endpoint) < abs(b - endpoint) else a
                push(nxt)
        polylines.append(np.asarray(chain, dtype=complex))
    return polylines


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _metadata_lines(surface: SurfaceMesh) -> list:
    return [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(surface.metadata.items())]


def _json_table(arr) -> list:
    """``arr`` as nested lists for ``json``, each complex entry an ``[re, im]`` pair."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    return arr.astype(float).tolist()


def export_mesh(surface: SurfaceMesh, fmt: str, path) -> None:
    """Write OBJ/PLY geometry or CSV/JSON diagnostics; H^3 data gets a sidecar."""
    if surface.n_vertices == 0:
        raise ValueError("refusing to export an empty mesh")
    fmt = fmt.lower()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    psi = surface.hermitian_psi
    herm = None if psi is None or fmt == "csv" else _json_table(psi.reshape(len(psi), -1))
    if fmt == "obj":
        comments = "".join(f"# {s}\n" for s in _metadata_lines(surface))
        vertices = _rows("v %.17g %.17g %.17g\n", surface.vertices.ravel().tolist())
        path.write_text(comments + vertices + _rows("f %d %d %d\n", (surface.faces + 1).ravel().tolist()))
    elif fmt == "ply":
        header = ["ply", "format ascii 1.0"]
        header += [f"comment {s}" for s in _metadata_lines(surface)]
        header += [
            f"element vertex {surface.n_vertices}",
            "property float x",
            "property float y",
            "property float z",
            f"element face {len(surface.faces)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        vertices = _rows("%.9g %.9g %.9g\n", surface.vertices.ravel().tolist())
        faces = _rows("3 %d %d %d\n", surface.faces.ravel().tolist())
        path.write_text("\n".join(header) + "\n" + vertices + faces)
    elif fmt == "csv":
        zs, verts = surface.mesh.nodes, surface.vertices
        cols = [("id", np.arange(surface.n_vertices)), ("u", zs.real), ("v", zs.imag)]
        cols += [(name, verts[:, k].astype(float)) for k, name in enumerate("xyz")]
        for name in sorted(surface.diagnostics):
            arr = np.asarray(surface.diagnostics[name])
            parts = [("_re", arr.real), ("_im", arr.imag)] if np.iscomplexobj(arr) else [("", arr)]
            cols += [(name + suffix, part.astype(float)) for suffix, part in parts]
        _write_csv(path, [name for name, _ in cols], [arr for _, arr in cols])
    elif fmt == "json":
        payload = {
            "metadata": surface.metadata,
            "frame": surface.frame,
            "vertices": surface.vertices.tolist(),
            "faces": surface.faces.tolist(),
            "diagnostics": {name: _json_table(arr) for name, arr in surface.diagnostics.items()},
        }
        if herm is not None:
            payload["hermitian_psi"] = herm
        path.write_text(json.dumps(payload, sort_keys=True))
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    if fmt in ("obj", "ply") and herm is not None:
        sidecar = path.with_suffix(path.suffix + ".hermitian.json")
        sidecar.write_text(json.dumps({"hermitian_psi": herm}, sort_keys=True))
