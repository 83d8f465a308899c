"""Meshing and geodesic distance fields.

The mesh is a weighted graph over lattice sample points with a 16-neighbor
stencil (axis, diagonal and knight moves), a ghost ring of sources placed
just inside the outer boundary, and optional geometric refinement rings
around punctures.  Ghosts and ring nodes find their lattice neighbours in the
lattice's id grid (``_near_lattice``).  The mesh keeps that grid as
``lattice``: lattice node ids run 0..n_lat-1 in row-major order, and the
ring and ghost nodes follow them.  Edge weights are conformal lengths of
the straight segments, so multi-source shortest paths overestimate the true
geodesic distance to the boundary.  The overestimate comes from the
stencil's directions, not from the spacing, so refinement does not remove
it: on the flat unit disk the interior ratio stays near 1.02 from resolution
50 to 400.

The topology's edges are index pairs into the node array, and nothing
builds an endpoint array of the whole mesh: the segment filter gathers the
endpoints of only the edges a hole or a puncture core can cut
(``_segment_filter``), and ``gauss4_segments`` gathers those of one block of
edges at a time.

This is the one module that imports scipy (its sparse graph routines), and
it does so at the top, so importing it pays that cost at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

from .estimates import completeness_probe  # perfbench/expr_probe.py imports it from here
from .expr import ArgumentError
from .mtriple import DomainSpec, segment_point_dist
from .quadrature import MeshError, QuadratureError, _require_grid_points, gauss4_segments
from .reporting import _write_csv

__all__ = [
    "MeshedDomain",
    "MeshError",
    "build_mesh",
    "boundary_distance_field",
    "dijkstra_distances",
    "write_nodes_csv",
    "write_edges_csv",
]

BOUNDARY_INSET_FRACTION = 1e-3
PUNCTURE_CORE_RADIUS = 1e-4
# meshed topologies kept by build_mesh, the most recently used last
_TOPOLOGY_CACHE_SIZE = 2
_topologies: dict = {}

# half-stencil offsets; mirroring gives the 16-neighbor star
_HALF_OFFSETS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2))
# in lattice spacings: the radius within which a ghost, and an outermost ring
# node, links to lattice nodes, and the outermost ring's radius
_GHOST_LINK = 2.2
_RING_LINK = 2.5
_RING_RADIUS = 3.2
# No edge is longer than this many spacings: a lattice edge is at most a
# knight move of _HALF_OFFSETS, sqrt(5); a ghost or outermost-ring link is at
# most _GHOST_LINK or _RING_LINK; a ring node links to its successor on its
# ring of 16 (a chord of 2 r sin(pi/16) < r) and to three nodes of the next
# ring in, at radius r' <= r and at most pi/8 round, which is no farther than
# r since r' <= 2 r cos(pi/8); and every ring's radius r is at most
# _RING_RADIUS.
_LONGEST_EDGE = max(*(math.hypot(*o) for o in _HALF_OFFSETS), _GHOST_LINK, _RING_LINK,
                    _RING_RADIUS)


@dataclass
class MeshedDomain:
    """Weighted graph over planar sample points.

    A mesh from ``build_mesh`` shares every array but ``weights`` with the
    other meshes of its topology; those arrays are read-only.

    ``lattice`` is the id grid of the whole lattice box: entry (i, j) is the
    id of the node at lattice point (i, j), or -1 where no node sits.  Its
    ids are 0..n_lat-1 in row-major order; puncture-ring and ghost nodes sit
    off the lattice and have no entry.  Lattice faces, finite differences
    and the singular locus all read it.
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
    lattice: np.ndarray  # (ni, nj) id grid of the lattice box, -1 where no node sits
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


def _puncture_rings(p: complex, spacing: float) -> np.ndarray:
    """Geometric refinement rings of 16 points around a puncture down to the
    core radius, outermost first: a (levels, 16) array."""
    r0 = _RING_RADIUS * spacing
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


def _segment_filter(domain: DomainSpec, spacing: float, nodes: np.ndarray, ei: np.ndarray,
                    ej: np.ndarray) -> tuple:
    """The edges ``(ei, ej)`` less those whose segment leaves the domain (it
    passes within a hole's radius of its centre, see ``holes``) or passes
    within 0.8 ``PUNCTURE_CORE_RADIUS`` of a puncture, in edge order.

    A segment that passes within r of a point has an endpoint within r + L/2
    of it, L its length, and no edge is longer than ``_LONGEST_EDGE`` = 3.2
    spacings, the outermost puncture ring's radius (derived at the constant
    from ``_HALF_OFFSETS``, the 2.2 and 2.5 spacing link radii and the ring
    radii).  So only the edges with an endpoint within r + ``_LONGEST_EDGE``
    spacings of a cut's centre (twice the reach needed, which absorbs any
    rounding) are gathered and tested, as a full scan tests them; every other
    edge is kept.  A domain with no hole and no puncture gathers nothing and
    returns the arrays as given, as does one whose cuts drop no edge.
    """
    cuts = [*domain.holes(), *((p, 0.8 * PUNCTURE_CORE_RADIUS) for p in domain.punctures)]
    if not cuts:
        return ei, ej
    near = np.zeros(len(nodes), dtype=bool)
    for c, r in cuts:
        near |= np.abs(nodes - c) <= r + _LONGEST_EDGE * spacing
    cand = np.flatnonzero(near[ei] | near[ej])
    za, zb = nodes[ei[cand]], nodes[ej[cand]]
    keep = np.ones(cand.size, dtype=bool)
    for c, r in cuts:
        keep &= segment_point_dist(za, zb, c) > r
    if keep.all():
        return ei, ej
    kept = np.ones(len(ei), dtype=bool)
    kept[cand[~keep]] = False
    return ei[kept], ej[kept]


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
    lattice_excl = _RING_RADIUS * spacing if refine_punctures else core
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
            k, q = _near_lattice(zz, id_grid, spacing, rings[:1][keep[:1]], _RING_LINK * spacing)
            edges_i.append(ids[:1][keep[:1]][k])
            edges_j.append(q)
            puncture_src.extend(ids[-1:][keep[-1:]])

    ghosts = domain.rim(BOUNDARY_INSET_FRACTION, spacing / 2.0)
    ghost_start = next_id
    nodes.append(ghosts)
    k, q = _near_lattice(zz, id_grid, spacing, ghosts, _GHOST_LINK * spacing)
    edges_i.append(ghost_start + k)
    edges_j.append(q)

    all_nodes = np.concatenate(nodes)
    ei, ej = np.concatenate(edges_i), np.concatenate(edges_j)
    del edges_i, edges_j  # 100 MB of pieces at the grid cap, past their use
    ei, ej = _segment_filter(domain, spacing, all_nodes, ei, ej)

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
                    boundary_adjacent=boundary, puncture_adjacent=puncture, lattice=id_grid)
    for arr in topology.values():
        arr.flags.writeable = False
    del m  # so that the layout build stays under the connectivity check's peak
    return dict(topology, spacing=spacing, adjacency=_adjacency(n, ei, ej))


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

    fvec = _as_density(density)
    try:
        w = gauss4_segments(fvec, topology["edges_i"], topology["edges_j"], topology["nodes"])
    except QuadratureError as exc:
        raise MeshError(f"density not finite on a mesh edge: {exc}") from exc
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise MeshError("edge weights must be positive and finite")
    return MeshedDomain(
        weights=np.asarray(w, dtype=float), resolution=resolution, domain=domain, **topology
    )


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
# CSV export
# ---------------------------------------------------------------------------


def write_nodes_csv(mesh: MeshedDomain, path) -> None:
    header = ["id", "x", "y", "interior", "boundary_adjacent", "puncture_adjacent"]
    flags = [mesh.interior, mesh.boundary_adjacent, mesh.puncture_adjacent]
    columns = [np.arange(mesh.n_nodes), mesh.nodes.real, mesh.nodes.imag]
    _write_csv(path, header, columns + [f.astype(int) for f in flags])


def write_edges_csv(mesh: MeshedDomain, path) -> None:
    _write_csv(path, ["i", "j", "weight"], [mesh.edges_i, mesh.edges_j, mesh.weights.astype(float)])
