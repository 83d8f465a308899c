"""Meshing, conformal path lengths, geodesic distance fields, and
completeness probes.

The mesh is a weighted graph over lattice sample points with a 16-neighbor
stencil (axis, diagonal and knight moves), a ghost ring of sources placed
just inside the outer boundary, and optional geometric refinement rings
around punctures.  Ghosts and ring nodes find their lattice neighbours in the
lattice's id grid (``_near_lattice``).  Edge weights are conformal lengths of
the straight segments, so multi-source shortest paths overestimate the true
geodesic distance to the boundary.  The overestimate comes from the
stencil's directions, not from the spacing, so refinement does not remove
it: on the flat unit disk the interior ratio stays near 1.02 from resolution
50 to 400.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

from .expr import ArgumentError
from .mtriple import DomainSpec, MTriple, segment_point_dist
from .quadrature import QuadratureError, gauss4_segments, simpson_segments

__all__ = [
    "MeshedDomain",
    "MeshError",
    "MAX_GRID_POINTS",
    "CompletenessReport",
    "build_mesh",
    "path_length",
    "boundary_distance_field",
    "dijkstra_distances",
    "completeness_probe",
    "hyperbolic_distance",
    "poincare_density",
    "write_nodes_csv",
    "write_edges_csv",
]

BOUNDARY_INSET_FRACTION = 1e-3
PUNCTURE_CORE_RADIUS = 1e-4
# The most points a mesh lattice, a probe grid or one batch of RK4 samples
# may have, refused before anything is allocated: resolution 400, the largest
# in use, puts 403^2 = 162,409 points on a square bounding box, and
# resolution 2*10^4 would ask numpy for 4*10^8.
MAX_GRID_POINTS = 1_000_000

# meshed topologies kept by build_mesh, the most recently used last
_TOPOLOGY_CACHE_SIZE = 2
_topologies: dict = {}

# half-stencil offsets; mirroring gives the 16-neighbor star
_HALF_OFFSETS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2))


class MeshError(ValueError):
    pass


@dataclass
class MeshedDomain:
    """Weighted graph over planar sample points.

    A mesh from ``build_mesh`` shares every array but ``weights`` with the
    other meshes of its topology; those arrays are read-only.
    """

    nodes: np.ndarray  # complex positions
    edges_i: np.ndarray
    edges_j: np.ndarray
    weights: np.ndarray
    interior: np.ndarray  # bool flags
    boundary_adjacent: np.ndarray
    puncture_adjacent: np.ndarray
    resolution: int
    spacing: float
    domain: DomainSpec
    lattice_ij: np.ndarray  # (n, 2) lattice indices, -1 for off-lattice nodes
    adjacency: tuple  # symmetric CSR layout from _adjacency: row pointers, neighbours, edge ids

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def spanning_tree(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first tree from ``root``: parent of each node (-1 at the
        root) and the visit order.

        Each row of ``adjacency`` keeps its neighbours in edge order, as a
        queue-based BFS over the edge list would meet them; sorting the
        column indices would change the tree.
        """
        n = self.n_nodes
        indptr, neighbour, _ = self.adjacency
        graph = csr_matrix((np.ones(len(neighbour)), neighbour, indptr), shape=(n, n))
        order, pred = breadth_first_order(graph, root, directed=True, return_predecessors=True)
        if len(order) < n:
            raise MeshError("mesh is not connected; cannot span it from the base point")
        return np.maximum(pred, -1), order

    def node_nearest(self, z: complex) -> int:
        return int(np.argmin(np.abs(self.nodes - z)))

    def lattice_id_grid(self) -> np.ndarray:
        """Dense (ni, nj) array of node ids for lattice nodes, -1 elsewhere."""
        on = self.lattice_ij[:, 0] >= 0
        if not np.any(on):
            return np.full((0, 0), -1, dtype=int)
        ni = int(self.lattice_ij[on, 0].max()) + 1
        nj = int(self.lattice_ij[on, 1].max()) + 1
        grid = np.full((ni, nj), -1, dtype=int)
        ids = np.nonzero(on)[0]
        grid[self.lattice_ij[ids, 0], self.lattice_ij[ids, 1]] = ids
        return grid

    def lattice_faces(self) -> np.ndarray:
        """Two CCW triangles per complete lattice cell."""
        grid = self.lattice_id_grid()
        if grid.size == 0:
            return np.zeros((0, 3), dtype=int)
        a = grid[:-1, :-1]
        b = grid[1:, :-1]
        c = grid[1:, 1:]
        d = grid[:-1, 1:]
        ok = (a >= 0) & (b >= 0) & (c >= 0) & (d >= 0)
        t1 = np.stack([a[ok], b[ok], c[ok]], axis=1)
        t2 = np.stack([a[ok], c[ok], d[ok]], axis=1)
        return np.concatenate([t1, t2], axis=0)


def _as_density(density: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``density`` as a real array callable that keeps its input's shape."""

    def fvec(zs: np.ndarray) -> np.ndarray:
        arr = np.asarray(density(zs), dtype=float)
        if arr.shape != np.shape(zs):
            raise MeshError(
                f"density returned shape {arr.shape} for points of shape {np.shape(zs)}; "
                "it must be vectorized"
            )
        return arr

    return fvec


def _puncture_rings(p: complex, spacing: float) -> np.ndarray:
    """Geometric refinement rings of 16 points around a puncture down to the
    core radius, outermost first: a (levels, 16) array."""
    r0 = 3.2 * spacing
    if r0 <= PUNCTURE_CORE_RADIUS:
        return np.zeros((0, 16), dtype=complex)
    radii = []
    r = r0
    while r > PUNCTURE_CORE_RADIUS * 1.8:
        radii.append(r)
        r *= 0.55
    radii.append(PUNCTURE_CORE_RADIUS)
    ang = 2 * math.pi * np.arange(16) / 16
    return np.array([p + r * np.exp(1j * ang) for r in radii])


def _near_lattice(zz: np.ndarray, id_grid: np.ndarray, spacing: float, points: np.ndarray,
                  radius: float) -> tuple:
    """(point index, node id) of the lattice nodes within ``radius`` of each
    point, each point's ids ascending.

    ``zz`` holds the lattice positions and ``id_grid`` their ids (-1 off the
    mesh), which grow in row-major order.  A point scans, row-major, the
    +-(ceil(radius / spacing) + 1) cells around its nearest lattice index and
    keeps a node when dx*dx + dy*dy <= radius*radius, as a KD-tree ball query.
    """
    h = math.ceil(radius / spacing) + 1
    ids, pos = np.pad(id_grid, h, constant_values=-1), np.pad(zz, h)
    di, dj = np.divmod(np.arange((2 * h + 1) ** 2), 2 * h + 1)  # the window, row-major
    at = (points - zz[0, 0]) / spacing
    i = np.clip(np.rint(at.real), 0, zz.shape[0] - 1).astype(int)[:, None] + di
    j = np.clip(np.rint(at.imag), 0, zz.shape[1] - 1).astype(int)[:, None] + dj
    cand, d = ids[i, j], pos[i, j] - points[:, None]  # the parts subtract as reals
    k, w = np.nonzero((cand >= 0) & (d.real * d.real + d.imag * d.imag <= radius * radius))
    return k, cand[k, w]


def _require_grid_points(n: float, name: str) -> None:
    """Refuse a lattice of at least ``n`` points past ``MAX_GRID_POINTS``;
    ``name`` is the parameter that sets its size."""
    if n > MAX_GRID_POINTS:
        raise ArgumentError(name, f"at least {n:.0f} grid points, past the cap of {MAX_GRID_POINTS}")


def _lattice_box(domain: DomainSpec, resolution: int) -> tuple:
    """Lattice spacing and index ranges; refuses a resolution below 8 or a
    lattice past ``MAX_GRID_POINTS`` before anything is allocated."""
    if resolution < 8:
        raise ArgumentError("resolution", f"resolution {resolution} is below 8")
    _require_grid_points(resolution, "resolution")  # the lattice has more; refuse before dividing
    x0, x1, y0, y1 = domain.bbox()
    spacing = max(x1 - x0, y1 - y0) / resolution
    anchor = domain.anchor()
    i_lo = int(math.floor((x0 - anchor.real) / spacing)) - 1
    i_hi = int(math.ceil((x1 - anchor.real) / spacing)) + 1
    j_lo = int(math.floor((y0 - anchor.imag) / spacing)) - 1
    j_hi = int(math.ceil((y1 - anchor.imag) / spacing)) + 1
    _require_grid_points((i_hi - i_lo + 1) * (j_hi - j_lo + 1), "resolution")
    return spacing, i_lo, i_hi, j_lo, j_hi


def _adjacency(n: int, edges_i: np.ndarray, edges_j: np.ndarray) -> tuple:
    """Symmetric CSR layout of the mesh graph on ``n`` nodes, as read-only
    int32 arrays: the row pointers, the neighbour at each entry and the edge
    id of each entry.

    Each row lists its neighbours in edge order, which the BFS tree of
    ``MeshedDomain.spanning_tree`` depends on.  int32 is the index type of
    scipy's graph routines, so neither walk copies the layout.
    """
    ends = np.stack([edges_i, edges_j], axis=1, dtype=np.int32).ravel()  # 2k + s: end s of edge k
    by_row = np.argsort(ends, kind="stable").astype(np.int32)  # a row's entries stay in edge order
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    layout = (indptr, ends[by_row ^ 1], by_row >> 1)  # the other end, the edge
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _mesh_topology(domain: DomainSpec, refine_punctures: bool, spacing, i_lo, i_hi, j_lo, j_hi):
    """The ``MeshedDomain`` fields that do not depend on the density, as
    read-only arrays."""
    inset = BOUNDARY_INSET_FRACTION * domain.scale()
    margin = inset + 0.35 * spacing
    anchor = domain.anchor()
    ii, jj = np.meshgrid(
        np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij"
    )
    zz = anchor + (ii + 1j * jj) * spacing

    inside = domain.contains(zz, margin)

    core = max(PUNCTURE_CORE_RADIUS, 0.3 * spacing)
    lattice_excl = 3.2 * spacing if refine_punctures else core
    for p in domain.punctures:
        inside &= np.abs(zz - p) >= lattice_excl

    id_grid = np.full(zz.shape, -1, dtype=int)
    n_lat = int(inside.sum())
    if n_lat < 16:
        raise MeshError("mesh too coarse for this domain")
    id_grid[inside] = np.arange(n_lat)
    nodes = [zz[inside]]

    edges_i = []
    edges_j = []
    for di, dj in _HALF_OFFSETS:
        a = id_grid[max(0, -di) : id_grid.shape[0] - max(0, di),
                    max(0, -dj) : id_grid.shape[1] - max(0, dj)]
        b = id_grid[max(0, di) : id_grid.shape[0] + min(0, di) or None,
                    max(0, dj) : id_grid.shape[1] + min(0, dj) or None]
        ok = (a >= 0) & (b >= 0)
        edges_i.append(a[ok])
        edges_j.append(b[ok])

    next_id = n_lat
    puncture_src: list[int] = []
    if refine_punctures:
        for p in domain.punctures:
            rings = _puncture_rings(p, spacing)
            keep = domain.contains(rings)
            ids = np.full(rings.shape, -1, dtype=int)
            ids[keep] = next_id + np.arange(int(keep.sum()))  # ring by ring
            next_id += int(keep.sum())
            nodes.append(rings[keep])
            # each ring node links to its successor, then to the three nodes one ring in
            inner = np.vstack([ids[1:], np.full_like(ids[:1], -1)])
            to = np.stack([np.roll(ids, -1, axis=1), np.roll(inner, 1, axis=1), inner,
                           np.roll(inner, -1, axis=1)], axis=2)
            frm = np.broadcast_to(ids[:, :, None], to.shape)
            linked = (frm >= 0) & (to >= 0)
            edges_i.append(frm[linked])
            edges_j.append(to[linked])
            # the outermost ring, absent below the core radius, links to the lattice
            k, q = _near_lattice(zz, id_grid, spacing, rings[:1][keep[:1]], 2.5 * spacing)
            edges_i.append(ids[:1][keep[:1]][k])
            edges_j.append(q)
            puncture_src.extend(ids[-1:][keep[-1:]])

    ghosts = domain.rim(BOUNDARY_INSET_FRACTION, spacing / 2.0)
    ghost_start = next_id
    nodes.append(ghosts)
    k, q = _near_lattice(zz, id_grid, spacing, ghosts, 2.2 * spacing)
    edges_i.append(ghost_start + k)
    edges_j.append(q)

    all_nodes = np.concatenate(nodes)
    all_ij = np.full((len(all_nodes), 2), -1, dtype=int)  # off-lattice nodes keep -1
    all_ij[:n_lat] = np.stack([ii[inside] - i_lo, jj[inside] - j_lo], axis=1)
    ei = np.concatenate(edges_i).astype(int)
    ej = np.concatenate(edges_j).astype(int)

    # drop segments that leave the domain (an annular hole) or pass a puncture core
    za, zb = all_nodes[ei], all_nodes[ej]
    keep = domain.keeps_segments(za, zb)
    for p in domain.punctures:
        keep &= segment_point_dist(za, zb, p) > 0.8 * PUNCTURE_CORE_RADIUS
    ei, ej = ei[keep], ej[keep]

    n = len(all_nodes)
    boundary = np.zeros(n, dtype=bool)
    boundary[ghost_start : ghost_start + len(ghosts)] = True
    puncture = np.zeros(n, dtype=bool)
    puncture[list(puncture_src)] = True
    interior = ~(boundary | puncture)

    # connectivity of the interior subgraph
    sub = (interior[ei]) & (interior[ej])
    m = coo_matrix(
        (np.ones(int(sub.sum())), (ei[sub], ej[sub])), shape=(n, n)
    ).tocsr()
    ncomp, labels = connected_components(m, directed=False)
    lab_int = labels[interior]
    if lab_int.size and np.unique(lab_int).size > 1:
        counts = np.bincount(lab_int)
        if counts.max() < 0.99 * lab_int.size:
            raise MeshError("interior mesh is disconnected")
        raise MeshError("interior mesh has stray disconnected nodes")

    topology = dict(nodes=all_nodes, edges_i=ei, edges_j=ej, interior=interior,
                    boundary_adjacent=boundary, puncture_adjacent=puncture, lattice_ij=all_ij)
    for arr in topology.values():
        arr.flags.writeable = False
    # the segment filter and the connectivity check leave about 60 MB at
    # resolution 400; drop them so that the layout build stays under the peak
    del za, zb, edges_i, edges_j, m
    return dict(topology, spacing=spacing, adjacency=_adjacency(n, ei, ej))


def build_mesh(
    domain: DomainSpec,
    density: Callable,
    resolution: int,
    refine_punctures: bool = True,
) -> MeshedDomain:
    """Sample the domain on a lattice of ~resolution^2 nodes and weight edges.

    ``density`` is applied to complex ndarrays; each edge weight is the
    4-point Gauss-Legendre integral of the density along the segment.

    Everything but the weights depends only on ``(domain, resolution,
    refine_punctures)``: the lattice, the puncture rings, the ghost and ring
    attachments, the segment filter and the interior connectivity check.
    That topology, with the CSR layout of its graph that the spanning tree
    and Dijkstra both read, is built once and kept for the
    ``_TOPOLOGY_CACHE_SIZE`` (2) most recently meshed keys, so a triple
    sweep over one domain re-weights one topology.  A topology that raises
    is not kept.  The returned mesh shares the kept arrays, which are
    read-only; only ``weights`` is its own.  The resolution and the lattice
    size are checked on every call, before the cache is read.

    Ghost and ring nodes list their lattice neighbours by ascending id.  The
    edge order moves the BFS tree of ``spanning_tree`` but no distance; ring
    nodes exist only with ``refine_punctures`` on a punctured domain.
    """
    lattice = _lattice_box(domain, resolution)
    # float and complex reprs round-trip, so the key tells 1 from 1.0 and
    # 0.0 from -0.0 in every field, although such domains compare equal
    key = (type(domain), repr(domain), repr(resolution), bool(refine_punctures))
    topology = _topologies.pop(key, None)
    if topology is None:
        topology = _mesh_topology(domain, refine_punctures, *lattice)
    _topologies[key] = topology  # the most recent key last
    if len(_topologies) > _TOPOLOGY_CACHE_SIZE:
        del _topologies[next(iter(_topologies))]

    nodes, ei, ej = topology["nodes"], topology["edges_i"], topology["edges_j"]
    fvec = _as_density(density)
    try:
        w = gauss4_segments(fvec, nodes[ei], nodes[ej])
    except QuadratureError as exc:
        raise MeshError(f"density not finite on a mesh edge: {exc}") from exc
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise MeshError("edge weights must be positive and finite")
    return MeshedDomain(
        weights=np.asarray(w, dtype=float), resolution=resolution, domain=domain, **topology
    )


def path_length(density: Callable, polyline: Sequence[complex], rel_tol: float = 1e-10) -> float:
    """Adaptive-Simpson conformal length of a polyline."""
    pts = np.asarray([complex(p) for p in polyline], dtype=complex)
    if pts.size < 2:
        return 0.0
    fvec = _as_density(density)
    vals = simpson_segments(
        lambda zs: fvec(zs).astype(complex), pts[:-1], pts[1:], rel_tol=rel_tol
    )
    # integral of a real density against |dz|
    return float(np.sum(np.abs(vals)))


def dijkstra_distances(mesh: MeshedDomain, sources: Sequence[int]) -> np.ndarray:
    """Multi-source shortest-path distances to every node.

    The weights are gathered into the kept CSR layout.  They are not
    negative, so the distances do not depend on the order of its entries.
    """
    src = np.asarray(list(sources), dtype=int)
    if src.size == 0:
        raise MeshError("no source nodes")
    n = mesh.n_nodes
    if src.min() < 0 or src.max() >= n:
        raise MeshError("source node out of range")
    indptr, neighbour, edge = mesh.adjacency
    graph = csr_matrix((mesh.weights[edge], neighbour, indptr), shape=(n, n))
    return dijkstra(graph, directed=True, indices=src, min_only=True)


def boundary_distance_field(mesh: MeshedDomain) -> np.ndarray:
    """Geodesic distance to the boundary/puncture sources at every node."""
    sources = np.nonzero(mesh.boundary_adjacent | mesh.puncture_adjacent)[0]
    return dijkstra_distances(mesh, sources)


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


def completeness_probe(
    triple: MTriple,
    target,
    eps_levels: Sequence[float],
    anchor: complex | None = None,
) -> CompletenessReport:
    """Truncated radial length integrals toward a puncture, boundary point,
    or infinity, with a log-divergence fit.

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
    if anchor is None:
        anchor = triple.domain.anchor()
    anchor = complex(anchor)

    dens = lambda zs: triple.density(zs).astype(complex)

    if isinstance(target, str) and target in ("inf", "infinity"):
        u = _infinity_direction(triple.domain, anchor)
        stops = [anchor] + [anchor + u / e for e in eps]
        label = "infinity"
    else:
        tgt = complex(target)
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
# Hyperbolic reference distance
# ---------------------------------------------------------------------------


def poincare_density(zs) -> np.ndarray:
    """Density 2/(1-|z|^2) of the curvature -1 metric on the unit disk."""
    zs = np.asarray(zs, dtype=complex)
    return 2.0 / (1.0 - np.abs(zs) ** 2)


def hyperbolic_distance(z1: complex, z2: complex) -> float:
    """Distance in the curvature -1 metric; d(0, z) = log((1+|z|)/(1-|z|))."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1) >= 1 or abs(z2) >= 1:
        raise ValueError("arguments must lie in the open unit disk")
    delta = abs(z1 - z2) / abs(1 - z1.conjugate() * z2)
    return math.log1p(delta) - math.log1p(-delta)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _write_csv(path, header: list, columns: list) -> None:
    """One row per entry of the equal-length ``columns``; ``.tolist()`` gives
    plain Python numbers, so floats print as shortest round-trip decimals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def write_nodes_csv(mesh: MeshedDomain, path) -> None:
    header = ["id", "x", "y", "interior", "boundary_adjacent", "puncture_adjacent"]
    flags = [mesh.interior, mesh.boundary_adjacent, mesh.puncture_adjacent]
    columns = [np.arange(mesh.n_nodes), mesh.nodes.real, mesh.nodes.imag]
    _write_csv(path, header, columns + [f.astype(int) for f in flags])


def write_edges_csv(mesh: MeshedDomain, path) -> None:
    _write_csv(path, ["i", "j", "weight"], [mesh.edges_i, mesh.edges_j, mesh.weights.astype(float)])
