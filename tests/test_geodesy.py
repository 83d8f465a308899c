"""Meshing, distance fields, probes, hyperbolic reference."""

import csv
import json
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from mtriples import geodesy, quadrature, reporting
from mtriples.estimates import optimal_example
from mtriples.expr import ArgumentError
from mtriples.geodesy import (
    MeshedDomain,
    MeshError,
    boundary_distance_field,
    build_mesh,
    completeness_probe,
    dijkstra_distances,
    write_edges_csv,
    write_nodes_csv,
)
from mtriples.mtriple import (
    Annulus,
    Disk,
    Rectangle,
    TruncatedPlane,
    make_triple,
    segment_point_dist,
)
from mtriples.quadrature import QuadratureError
from mtriples.reporting import canonical_json
from test_quadrature import reference_gauss4_segments

from _helpers import hyperbolic_distance, poincare_density

ONES = lambda zs: np.ones(np.shape(zs))


@pytest.fixture(scope="module")
def disk_mesh():
    return build_mesh(Disk(0, 1.0), ONES, 100)


class TestBuildMesh:
    def test_euclidean_weights(self, disk_mesh):
        seg = np.abs(disk_mesh.nodes[disk_mesh.edges_i] - disk_mesh.nodes[disk_mesh.edges_j])
        assert np.max(np.abs(disk_mesh.weights - seg)) < 1e-12

    def test_weights_positive_finite(self, disk_mesh):
        assert np.all(disk_mesh.weights > 0)
        assert np.all(np.isfinite(disk_mesh.weights))

    def test_interior_degree_at_least_eight(self, disk_mesh):
        deg = np.zeros(disk_mesh.n_nodes, dtype=int)
        np.add.at(deg, disk_mesh.edges_i, 1)
        np.add.at(deg, disk_mesh.edges_j, 1)
        assert deg[disk_mesh.interior].min() >= 8

    def test_poincare_weights_grow_toward_rim(self):
        mesh = build_mesh(Disk(0, 1.0), poincare_density, 60)
        mid = 0.5 * (mesh.nodes[mesh.edges_i] + mesh.nodes[mesh.edges_j])
        seg = np.abs(mesh.nodes[mesh.edges_i] - mesh.nodes[mesh.edges_j])
        ratio = mesh.weights / seg
        inner = ratio[np.abs(mid) < 0.2]
        outer = ratio[np.abs(mid) > 0.9]
        assert outer.min() > inner.max()

    def test_punctured_mesh_refines_and_stays_finite(self):
        dom = Disk(0, 1.0, punctures=(0j,))
        mesh = build_mesh(dom, lambda zs: 1.0 / np.abs(zs), 60)
        gaps = np.abs(mesh.nodes)
        assert gaps.min() < 2e-4  # rings descend to the core radius
        assert np.all(np.isfinite(mesh.weights))
        assert np.any(mesh.puncture_adjacent)

    def test_density_must_be_finite(self):
        bad = lambda zs: np.where(np.abs(zs) < 0.1, np.nan, 1.0)
        with pytest.raises(MeshError):
            build_mesh(Disk(0, 1.0), bad, 40)

    def test_lattice_past_the_point_cap_is_refused(self, monkeypatch):
        # 10^14 points: numpy would refuse them too, but the cap comes first
        with pytest.raises(ArgumentError, match="cap") as refused:
            build_mesh(Disk(0, 1.0), ONES, 10**7)
        assert refused.value.name == "resolution"
        # the lattice is counted from the bounding box before it is built:
        # 23^2 points at resolution 20 and 25^2 at 21 on the unit disk, 23 x 9
        # and 25 x 9 on a 4:1 rectangle; the cap is read in quadrature, where it lives
        monkeypatch.setattr(quadrature, "MAX_GRID_POINTS", 23 * 23)
        assert build_mesh(Disk(0, 1.0), ONES, 20).n_nodes > 0
        with pytest.raises(ArgumentError, match="625 grid points"):
            build_mesh(Disk(0, 1.0), ONES, 21)
        monkeypatch.setattr(quadrature, "MAX_GRID_POINTS", 23 * 9)
        assert build_mesh(Rectangle(-2 - 0.5j, 2 + 0.5j), ONES, 20).n_nodes > 0
        with pytest.raises(ArgumentError, match="225 grid points"):
            build_mesh(Rectangle(-2 - 0.5j, 2 + 0.5j), ONES, 21)

    def test_annulus_edges_avoid_hole(self):
        mesh = build_mesh(Annulus(0, 0.5, 2.0), ONES, 80)
        za = mesh.nodes[mesh.edges_i]
        zb = mesh.nodes[mesh.edges_j]
        d = zb - za
        t = np.clip(((0 - za) * np.conj(d)).real / np.abs(d) ** 2, 0, 1)
        dist = np.abs(za + t * d)
        assert dist.min() > 0.5

    def test_scalar_density_is_rejected(self):
        with pytest.raises(MeshError, match=r"shape \(\) for points of shape \(\d+,\)"):
            build_mesh(Disk(0, 1.0), lambda z: 2.0, 30)

    def test_csv_export(self, disk_mesh, tmp_path):
        write_nodes_csv(disk_mesh, tmp_path / "nodes.csv")
        write_edges_csv(disk_mesh, tmp_path / "edges.csv")
        lines = (tmp_path / "nodes.csv").read_text().splitlines()
        assert lines[0] == "id,x,y,interior,boundary_adjacent,puncture_adjacent"
        assert len(lines) == disk_mesh.n_nodes + 1
        elines = (tmp_path / "edges.csv").read_text().splitlines()
        assert elines[0] == "i,j,weight"
        assert len(elines) == len(disk_mesh.weights) + 1
        # every field reads back as a plain number equal to the mesh arrays
        nodes = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
        m = disk_mesh
        flags = [m.interior, m.boundary_adjacent, m.puncture_adjacent]
        want = np.column_stack([np.arange(m.n_nodes), m.nodes.real, m.nodes.imag] + flags)
        assert np.array_equal(nodes, want)
        edges = np.array([[float(x) for x in row.split(",")] for row in elines[1:]])
        assert np.array_equal(edges, np.column_stack([m.edges_i, m.edges_j, m.weights]))

    @pytest.mark.parametrize("n", [11, 0], ids=["values", "empty"])
    def test_write_csv_matches_csv_writer(self, tmp_path, n):
        # values the digest configs never produce, each printed by repr
        floats = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1 + 0.2, 1e-7, 1.0,
                  -1.19, 123456789.0]
        ints = [0, -1, 2**53 + 1, -(2**53 + 1), 2**63 - 1, 7, 10**15, -42, 3, 2, 1]
        header = ["id", "big", "x", "neg", "flag"]
        columns = [np.arange(n), np.array(ints[:n], dtype=np.int64), np.array(floats[:n]),
                   -np.array(floats[:n]), (np.arange(n) % 2 == 0).astype(int)]
        reporting._write_csv(tmp_path / "got.csv", header, columns)
        # the former writer: csv.writer over one Python row per entry
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        assert want.count(b"\r\n") == n + 1


def _reference_bfs(mesh, root):
    """Queue BFS over neighbour lists built in edge order."""
    adj = [[] for _ in range(mesh.n_nodes)]
    for a, b in zip(mesh.edges_i.tolist(), mesh.edges_j.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * mesh.n_nodes
    seen = {root}
    order = [root]
    for u in order:  # appending while iterating makes the list the queue
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
    return parent, order


class TestSpanningTree:
    @pytest.mark.parametrize(
        "domain, refine",
        [(Annulus(0, 0.5, 2.0), False), (Disk(0, 1.0, punctures=(0.3 + 0.2j,)), True)],
    )
    def test_matches_reference_bfs(self, domain, refine):
        mesh = build_mesh(domain, ONES, 40, refine_punctures=refine)
        assert mesh.boundary_adjacent.any()  # ghost edges
        assert mesh.puncture_adjacent.any() == refine  # ring edges
        for root in (mesh.node_nearest(domain.anchor()), mesh.n_nodes - 1):
            parent, order = mesh.spanning_tree(root)
            want_parent, want_order = _reference_bfs(mesh, root)
            assert np.array_equal(parent, want_parent)
            assert np.array_equal(order, want_order)

    def test_unreached_node_raises(self):
        nodes = np.array([0, 1, 2], dtype=complex)
        flags = np.zeros(3, dtype=bool)
        mesh = MeshedDomain(
            nodes=nodes,
            edges_i=np.array([0]),
            edges_j=np.array([1]),
            weights=np.ones(1),
            interior=~flags,
            boundary_adjacent=flags,
            puncture_adjacent=flags,
            resolution=8,
            spacing=1.0,
            domain=Disk(0, 3.0),
            lattice=np.full((0, 0), -1),
            adjacency=geodesy._adjacency(3, np.array([0]), np.array([1])),
        )
        with pytest.raises(MeshError):
            mesh.spanning_tree(0)


class TestDistanceField:
    def test_unit_disk_center(self, disk_mesh):
        d = boundary_distance_field(disk_mesh)
        i0 = disk_mesh.node_nearest(0)
        assert abs(d[i0] - 1.0) < 0.05

    def test_error_shrinks_with_refinement(self):
        errs = []
        for res in (50, 100, 200):
            mesh = build_mesh(Disk(0, 1.0), ONES, res)
            d = boundary_distance_field(mesh)
            errs.append(abs(d[mesh.node_nearest(0)] - 1.0))
        assert errs[2] <= errs[0] + 5e-4
        assert max(errs) < 0.05

    def test_rectangle_center(self):
        mesh = build_mesh(Rectangle(0, 2 + 1j), ONES, 100)
        d = boundary_distance_field(mesh)
        assert abs(d[mesh.node_nearest(1 + 0.5j)] - 0.5) < 0.025

    def test_poincare_truncated_rim(self):
        # distance from |z| = 0.9 to the ghost ring at 0.999 vs closed form
        mesh = build_mesh(Disk(0, 1.0), poincare_density, 200)
        d = boundary_distance_field(mesh)
        i = mesh.node_nearest(0.9)
        want = hyperbolic_distance(0, 0.999) - hyperbolic_distance(0, abs(mesh.nodes[i]))
        assert abs(d[i] - want) / want < 0.05

    def test_dijkstra_dominates_and_converges(self):
        # graph paths only overestimate; ratio to the closed form approaches 1
        target = hyperbolic_distance(0, 0.999)
        ratios = []
        for res in (100, 200, 400):
            mesh = build_mesh(Disk(0, 1.0), poincare_density, res)
            d = boundary_distance_field(mesh)
            ratios.append(d[mesh.node_nearest(0)] / target)
        for r in ratios:
            assert r > 1.0 - 1e-9
        assert ratios[2] <= ratios[1] * 1.01 <= ratios[0] * 1.01 * 1.01
        assert ratios[2] < 1.03

    @pytest.mark.parametrize("res", [100, 400])
    def test_point_source_overestimates_by_at_most_the_stencil_factor(self, res):
        # a shortest lattice path runs along the two stencil directions that
        # bracket the true one, so it is at most 1/cos(theta/2) times as long,
        # theta the widest angle between adjacent directions
        half = np.array([complex(di, dj) for di, dj in geodesy._HALF_OFFSETS])
        angles = np.sort(np.angle(np.concatenate([half, -half])))
        theta = np.diff(np.append(angles, angles[0] + 2 * np.pi)).max()
        bound = 1.0 / math.cos(theta / 2)
        assert abs(math.degrees(theta) - 26.565) < 1e-3 and abs(bound - 1.02748629675) < 1e-10
        mesh = build_mesh(Disk(0, 1.0), ONES, res)
        source = mesh.node_nearest(0)
        assert mesh.nodes[source] == 0
        lattice = np.count_nonzero(mesh.lattice >= 0)
        d = dijkstra_distances(mesh, [source])[:lattice]
        r = np.abs(mesh.nodes[:lattice])
        ratio = d[r > 0] / r[r > 0]
        assert ratio.max() <= bound
        assert ratio.min() >= 1.0 - 1e-12
        # the bound is all but reached, and refining does not shrink it
        assert ratio.max() >= bound - 1e-6

    @pytest.mark.parametrize("res", [50, 100, 200])
    @pytest.mark.parametrize("domain", [Disk(0.3 - 0.2j, 1.0), Annulus(0.1j, 0.4, 1.2),
                                        Rectangle(-1 - 0.5j, 1 + 0.7j)], ids=lambda d: d.kind)
    def test_boundary_distance_is_at_least_the_distance_to_the_rim(self, domain, res):
        # the ghost rim sits inside the boundary by BOUNDARY_INSET_FRACTION of
        # each boundary's size (the rectangle's: of its scale), and a graph path
        # is no shorter than the straight line to the ghost it ends at; 1e-12
        # covers rounding, about res * 2^-52 * diameter along a path
        mesh = build_mesh(domain, ONES, res)
        inset = geodesy.BOUNDARY_INSET_FRACTION
        z = mesh.nodes
        if isinstance(domain, Disk):
            rim = domain.radius * (1 - inset) - np.abs(z - domain.center)
        elif isinstance(domain, Annulus):
            r = np.abs(z - domain.center)
            rim = np.minimum(domain.r_outer * (1 - inset) - r, r - domain.r_inner * (1 + inset))
        else:
            lo = domain.corner_min + inset * domain.scale() * (1 + 1j)
            hi = domain.corner_max - inset * domain.scale() * (1 + 1j)
            rim = np.minimum.reduce([z.real - lo.real, hi.real - z.real,
                                     z.imag - lo.imag, hi.imag - z.imag])
        assert np.all(boundary_distance_field(mesh) >= rim - 1e-12)

    def test_multi_source_general(self, disk_mesh):
        src = [disk_mesh.node_nearest(0.5), disk_mesh.node_nearest(-0.5)]
        d = dijkstra_distances(disk_mesh, src)
        i0 = disk_mesh.node_nearest(0)
        assert abs(d[i0] - 0.5) < 0.02
        assert d[src[0]] < 1e-12


@pytest.fixture(scope="module")
def optimal_triple():
    dom = TruncatedPlane(3.0, punctures=(1 + 0j, -1 + 0j))
    return make_triple(dom, "1/(z^2-1)", "z", 1)


class TestCompletenessProbe:
    EPS = tuple(10.0 ** (-k) for k in range(1, 7))

    def test_divergent_puncture_slope(self, optimal_triple):
        rep = completeness_probe(optimal_triple, 1 + 0j, self.EPS)
        assert rep.divergence_evidence and rep.stable
        assert abs(rep.slope - math.sqrt(2) / 2) <= 0.1 * math.sqrt(2) / 2

    def test_lengths_monotone(self, optimal_triple):
        rep = completeness_probe(optimal_triple, 1 + 0j, self.EPS)
        assert all(a < b for a, b in zip(rep.lengths, rep.lengths[1:]))

    def test_toward_infinity(self, optimal_triple):
        rep = completeness_probe(optimal_triple, "infinity", self.EPS)
        assert rep.divergence_evidence
        assert abs(rep.slope - 1.0) < 0.05

    def test_convergent_boundary(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        rep = completeness_probe(t, 1 + 0j, self.EPS)
        assert not rep.divergence_evidence
        assert abs(rep.lengths[-1] - 4.0 / 3.0) < 1e-2

    def test_eps_levels_validated(self, optimal_triple):
        with pytest.raises(ValueError):
            completeness_probe(optimal_triple, 1 + 0j, [1e-3, 1e-2])
        with pytest.raises(ValueError):
            completeness_probe(optimal_triple, 1 + 0j, [1e-3, 1e-9])

    def test_target_must_lie_in_the_closed_domain(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 1)
        # on the rim up to rounding: |e^{0.3i}| is not exactly 1
        rim = complex(math.cos(0.3), math.sin(0.3)) * (1 + 1e-15)
        assert completeness_probe(t, rim, self.EPS).target.startswith("boundary")
        for far in (1.001, complex("nan")):
            with pytest.raises(ArgumentError) as refused:
                completeness_probe(t, far, self.EPS)
            assert refused.value.name == "target"

    def test_interior_target_is_refused(self, optimal_triple):
        # neither a puncture nor on the rim: no length diverges toward it
        t = make_triple(Disk(0, 1.0), "1", "z", 1)
        for target in (0.5, 1 - 1e-6):
            with pytest.raises(ArgumentError, match="interior") as refused:
                completeness_probe(t, target, self.EPS)
            assert refused.value.name == "target"
        with pytest.raises(ArgumentError, match="interior"):
            completeness_probe(optimal_triple, 1 + 1e-6, self.EPS)

    def test_report_serializes(self, optimal_triple):
        rep = completeness_probe(optimal_triple, 1 + 0j, self.EPS)
        d = json.loads(canonical_json(rep))
        assert d["divergence_evidence"] is True
        assert len(d["lengths"]) == len(self.EPS)


class TestHyperbolicDistance:
    def test_center(self):
        assert hyperbolic_distance(0, 0) == 0.0
        assert abs(hyperbolic_distance(0, 0.5) - math.log(3)) < 1e-14

    def test_symmetry_and_mobius_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            theta = rng.uniform(0, 2 * math.pi)
            d0 = hyperbolic_distance(z, w)
            assert abs(d0 - hyperbolic_distance(w, z)) < 1e-12
            # disk automorphism oracle
            phi = lambda u: complex(np.exp(1j * theta)) * (u - a) / (1 - a.conjugate() * u)
            assert abs(hyperbolic_distance(phi(z), phi(w)) - d0) < 1e-10

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            hyperbolic_distance(0, 1.5)

    def test_density_matches_curvature_minus_one_normalization(self):
        # the reference density is exactly 2/(1-|z|^2); the Schwarz-type
        # lower bound holds with equality for it
        rng = np.random.default_rng(18)
        zs = rng.uniform(-0.7, 0.7, 50) + 1j * rng.uniform(-0.7, 0.7, 50)
        got = poincare_density(zs)
        want = 2.0 / (1.0 - np.abs(zs) ** 2)
        assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# Kept topologies
# ---------------------------------------------------------------------------


def _reference_build_mesh(domain, density, resolution, refine_punctures=True):
    """``build_mesh`` as it was before topologies were kept: every array
    built anew on every call, the edges weighted by the unblocked Gauss-4."""
    if resolution < 8:
        raise MeshError("resolution too small")
    geodesy._require_grid_points(resolution, "resolution")
    x0, x1, y0, y1 = domain.bbox()
    spacing = max(x1 - x0, y1 - y0) / resolution
    inset = geodesy.BOUNDARY_INSET_FRACTION * domain.scale()
    margin = inset + 0.35 * spacing
    anchor = domain.anchor()

    i_lo = int(math.floor((x0 - anchor.real) / spacing)) - 1
    i_hi = int(math.ceil((x1 - anchor.real) / spacing)) + 1
    j_lo = int(math.floor((y0 - anchor.imag) / spacing)) - 1
    j_hi = int(math.ceil((y1 - anchor.imag) / spacing)) + 1
    geodesy._require_grid_points((i_hi - i_lo + 1) * (j_hi - j_lo + 1), "resolution")
    ii, jj = np.meshgrid(
        np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij"
    )
    zz = anchor + (ii + 1j * jj) * spacing

    inside = domain.contains(zz, margin)

    core = max(geodesy.PUNCTURE_CORE_RADIUS, 0.3 * spacing)
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
    for di, dj in geodesy._HALF_OFFSETS:
        a = id_grid[max(0, -di) : id_grid.shape[0] - max(0, di),
                    max(0, -dj) : id_grid.shape[1] - max(0, dj)]
        b = id_grid[max(0, di) : id_grid.shape[0] + min(0, di) or None,
                    max(0, dj) : id_grid.shape[1] + min(0, dj) or None]
        ok = (a >= 0) & (b >= 0)
        edges_i.append(a[ok])
        edges_j.append(b[ok])
    edges_i = [np.concatenate(edges_i)]
    edges_j = [np.concatenate(edges_j)]

    next_id = n_lat
    puncture_src: list[int] = []
    ring_i: list[int] = []
    ring_j: list[int] = []

    lat_tree = cKDTree(np.column_stack([nodes[0].real, nodes[0].imag]))

    if refine_punctures:
        n_ang = 16
        for p in domain.punctures:
            ring_ids = []
            ring_pos = {}
            for ring in geodesy._puncture_rings(p, spacing):
                keep = domain.contains(ring)
                ids = np.full(len(ring), -1, dtype=int)
                ids[keep] = next_id + np.arange(int(keep.sum()))
                next_id += int(keep.sum())
                nodes.append(ring[keep])
                ring_pos.update(zip(ids[keep], ring[keep]))
                ring_ids.append(ids)
            for level, ids in enumerate(ring_ids):
                for k in range(n_ang):
                    if ids[k] < 0:
                        continue
                    nxt = ids[(k + 1) % n_ang]
                    if nxt >= 0:
                        ring_i.append(ids[k])
                        ring_j.append(nxt)
                    if level + 1 < len(ring_ids):
                        for dk in (-1, 0, 1):
                            down = ring_ids[level + 1][(k + dk) % n_ang]
                            if down >= 0:
                                ring_i.append(ids[k])
                                ring_j.append(down)
            if ring_ids:
                for nid in ring_ids[0][ring_ids[0] >= 0]:
                    w = ring_pos[nid]
                    # ascending id, as build_mesh lists a ring node's lattice neighbours
                    for q in sorted(lat_tree.query_ball_point([w.real, w.imag], 2.5 * spacing)):
                        ring_i.append(nid)
                        ring_j.append(q)
                puncture_src.extend(int(v) for v in ring_ids[-1] if v >= 0)
    edges_i.append(np.asarray(ring_i, dtype=int))
    edges_j.append(np.asarray(ring_j, dtype=int))

    ghosts = domain.rim(geodesy.BOUNDARY_INSET_FRACTION, spacing / 2.0)
    ghost_start = next_id
    next_id += len(ghosts)
    nodes.append(ghosts)
    pairs = lat_tree.query_ball_point(
        np.column_stack([ghosts.real, ghosts.imag]), 2.2 * spacing
    )
    gi = []
    gj = []
    for k, near in enumerate(pairs):
        for q in near:
            gi.append(ghost_start + k)
            gj.append(q)
    edges_i.append(np.array(gi, dtype=int))
    edges_j.append(np.array(gj, dtype=int))

    all_nodes = np.concatenate(nodes)
    ei = np.concatenate(edges_i).astype(int)
    ej = np.concatenate(edges_j).astype(int)

    # drop segments that leave the domain (an annular hole) or pass a puncture core
    za, zb = all_nodes[ei], all_nodes[ej]
    keep = domain.keeps_segments(za, zb)
    for p in domain.punctures:
        keep &= segment_point_dist(za, zb, p) > 0.8 * geodesy.PUNCTURE_CORE_RADIUS
    ei, ej = ei[keep], ej[keep]

    fvec = geodesy._as_density(density)
    try:
        w = reference_gauss4_segments(fvec, all_nodes[ei], all_nodes[ej])
    except QuadratureError as exc:
        raise MeshError(f"density not finite on a mesh edge: {exc}") from exc
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise MeshError("edge weights must be positive and finite")

    n = len(all_nodes)
    boundary = np.zeros(n, dtype=bool)
    boundary[ghost_start : ghost_start + len(ghosts)] = True
    puncture = np.zeros(n, dtype=bool)
    puncture[list(puncture_src)] = True
    interior = ~(boundary | puncture)

    mesh = MeshedDomain(
        nodes=all_nodes,
        edges_i=ei,
        edges_j=ej,
        weights=np.asarray(w, dtype=float),
        interior=interior,
        boundary_adjacent=boundary,
        puncture_adjacent=puncture,
        resolution=resolution,
        spacing=spacing,
        domain=domain,
        lattice=id_grid,
        adjacency=geodesy._adjacency(n, ei, ej),
    )

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
    return mesh


def _reference_dijkstra(mesh, sources):
    """``dijkstra_distances`` with scipy's COO to CSR conversion on every call."""
    src = np.asarray(list(sources), dtype=int)
    n = mesh.n_nodes
    m = _reference_graph(mesh, src)
    return dijkstra(m, directed=False, indices=[n])[0][:n]


def _reference_adjacency(mesh):
    """The symmetric CSR layout by a lexsort on (row, edge): row pointers,
    the neighbour at each entry and the edge id of each entry."""
    rows = np.concatenate([mesh.edges_i, mesh.edges_j])
    cols = np.concatenate([mesh.edges_j, mesh.edges_i])
    edge = np.tile(np.arange(len(mesh.edges_i)), 2)
    by_row = np.lexsort((edge, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=mesh.n_nodes))])
    return indptr, cols[by_row], edge[by_row]


def _reference_graph(mesh, src):
    n = mesh.n_nodes
    ei = np.concatenate([mesh.edges_i, np.full(src.size, n)])
    ej = np.concatenate([mesh.edges_j, src])
    w = np.concatenate([mesh.weights, np.zeros(src.size)])
    return coo_matrix((w, (ei, ej)), shape=(n + 1, n + 1)).tocsr()


_MESH_ARRAYS = ("nodes", "edges_i", "edges_j", "weights", "interior", "boundary_adjacent",
                "puncture_adjacent", "lattice")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_mesh(got, want):
    for name in _MESH_ARRAYS:
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert got.spacing.hex() == want.spacing.hex()
    assert (got.resolution, got.domain) == (want.resolution, want.domain)
    sources = np.nonzero(want.boundary_adjacent | want.puncture_adjacent)[0]
    assert _same_bits(boundary_distance_field(got), _reference_dijkstra(want, sources))


@pytest.fixture
def cold_cache():
    """An empty topology cache, emptied again afterwards."""
    geodesy._topologies.clear()
    yield geodesy._topologies
    geodesy._topologies.clear()


_CACHE_DOMAINS = [
    Disk(0, 1.0),
    Disk(0.1j, 1.0, punctures=(0.3 + 0.2j,)),
    Annulus(0, 0.5, 2.0),
    Annulus(0, 0.5, 2.0, punctures=(1.2j,)),
    Rectangle(0, 2 + 1j),
    Rectangle(0, 2 + 1j, punctures=(1 + 0.5j,)),
    TruncatedPlane(2.0),
    TruncatedPlane(3.0, punctures=(1 + 0j, -1 + 0j)),
]
_WAVY = lambda zs: 1.0 / (1.0 + 0.2 * np.abs(zs) ** 2)


class TestTopologyCache:
    @pytest.mark.parametrize("refine", [False, True], ids=["lattice", "refined"])
    @pytest.mark.parametrize("domain", _CACHE_DOMAINS, ids=lambda d: f"{d.kind}-{len(d.punctures)}")
    def test_first_and_repeated_calls_match_reference(self, cold_cache, domain, refine):
        for density in (ONES, _WAVY, ONES):  # a miss, then two hits
            got = build_mesh(domain, density, 40, refine_punctures=refine)
            _assert_same_mesh(got, _reference_build_mesh(domain, density, 40, refine))
        assert len(cold_cache) == 1

    def test_weights_of_many_blocks_match_reference(self, cold_cache):
        # res 90 gives several Gauss-4 blocks of edges; the extremal density refines
        t = optimal_example(1, [1, -1])
        got = build_mesh(t.domain, t.density, 90)
        assert len(got.edges_i) > 3 * quadrature._BLOCK
        _assert_same_mesh(got, _reference_build_mesh(t.domain, t.density, 90))

    @pytest.mark.parametrize("domain", [_CACHE_DOMAINS[1], _CACHE_DOMAINS[7]])
    def test_kept_adjacency_equals_lexsort_reference(self, cold_cache, domain):
        for refine in (False, True):
            mesh = build_mesh(domain, ONES, 40, refine_punctures=refine)
            for got, want in zip(mesh.adjacency, _reference_adjacency(mesh), strict=True):
                assert got.dtype == np.int32 and np.array_equal(got, want)

    def test_meshes_of_one_topology_share_the_adjacency(self, cold_cache):
        first = build_mesh(_CACHE_DOMAINS[1], ONES, 40)
        second = build_mesh(_CACHE_DOMAINS[1], _WAVY, 40)
        assert second.adjacency is first.adjacency
        assert build_mesh(_CACHE_DOMAINS[1], ONES, 41).adjacency is not first.adjacency

    def test_distances_do_not_depend_on_edge_order(self, cold_cache):
        t = optimal_example(2, [0.0, 1.0, -1.0])
        mesh = build_mesh(t.domain, t.density, 120)
        assert mesh.puncture_adjacent.any()
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(mesh.edges_i))
        flip = rng.random(perm.size) < 0.3
        ei = np.where(flip, mesh.edges_j[perm], mesh.edges_i[perm])
        ej = np.where(flip, mesh.edges_i[perm], mesh.edges_j[perm])
        fields = {name: getattr(mesh, name) for name in _MESH_ARRAYS}
        fields.update(edges_i=ei, edges_j=ej, weights=mesh.weights[perm])
        shuffled = MeshedDomain(**fields, resolution=mesh.resolution, spacing=mesh.spacing,
                                domain=mesh.domain,
                                adjacency=geodesy._adjacency(mesh.n_nodes, ei, ej))
        sources = np.nonzero(mesh.boundary_adjacent | mesh.puncture_adjacent)[0]
        # repeated, unsorted and random source lists
        for src in (sources, np.concatenate([sources[::-1], sources[:3]]),
                    rng.choice(mesh.n_nodes, 40)):
            want = _reference_dijkstra(mesh, src)
            assert _same_bits(dijkstra_distances(shuffled, src), want)
            assert _same_bits(dijkstra_distances(mesh, src), want)

    def test_stray_source_is_refused(self):
        flags = np.zeros(3, dtype=bool)
        ei, ej = np.array([0, 1]), np.array([1, 2])
        mesh = MeshedDomain(
            nodes=np.array([0, 1, 2], dtype=complex),
            edges_i=ei,
            edges_j=ej,
            weights=np.ones(2),
            interior=~flags,
            boundary_adjacent=flags,
            puncture_adjacent=flags,
            resolution=8,
            spacing=1.0,
            domain=Disk(0, 3.0),
            lattice=np.full((0, 0), -1),
            adjacency=geodesy._adjacency(3, ei, ej),
        )
        for stray in (-1, 3):
            with pytest.raises(MeshError, match="out of range"):
                dijkstra_distances(mesh, [stray])
        with pytest.raises(MeshError, match="no source"):
            dijkstra_distances(mesh, [])

    def test_shared_arrays_are_read_only(self, cold_cache):
        mesh = build_mesh(Disk(0, 1.0), ONES, 30)
        for name in _MESH_ARRAYS:
            if name != "weights":
                with pytest.raises(ValueError, match="read-only"):
                    getattr(mesh, name)[0] = 0
        for arr in mesh.adjacency:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        mesh.weights[0] = 2.0  # the weights are the mesh's own
        assert build_mesh(Disk(0, 1.0), ONES, 30).weights[0] != 2.0

    def test_holds_two_topologies(self, cold_cache):
        for res in (30, 31, 32):
            build_mesh(Disk(0, 1.0), ONES, res)
        assert len(cold_cache) == 2
        kept = build_mesh(Disk(0, 1.0), ONES, 31)
        assert len(cold_cache) == 2
        build_mesh(Disk(0, 1.0), ONES, 33)  # evicts 32, the least recently used
        again = build_mesh(Disk(0, 1.0), ONES, 31)
        assert again.nodes is kept.nodes

    def test_equal_domains_of_other_bits_match_uncached_builds(self, cold_cache):
        # these compare equal, but their fields differ in type or sign
        domains = [Disk(0, 1), Disk(0, 1), Disk(0.0, 1.0), Disk(-0.0, 1.0)]
        assert domains[1] == domains[2] == domains[3]
        meshes = [build_mesh(d, _WAVY, 36) for d in domains]
        for d, mesh in zip(domains, meshes):
            _assert_same_mesh(mesh, _reference_build_mesh(d, _WAVY, 36))
            assert mesh.domain is d
        assert meshes[1].nodes is meshes[0].nodes
        assert meshes[2].nodes is not meshes[1].nodes  # kept under their own keys
        assert meshes[3].nodes is not meshes[2].nodes

    def test_nan_density_on_a_kept_topology_raises_and_keeps_it(self, cold_cache):
        build_mesh(Disk(0, 1.0), ONES, 40)
        bad = lambda zs: np.where(np.abs(zs) < 0.1, np.nan, 1.0)
        with pytest.raises(MeshError, match="finite"):
            build_mesh(Disk(0, 1.0), bad, 40)
        assert len(cold_cache) == 1
        _assert_same_mesh(build_mesh(Disk(0, 1.0), _WAVY, 40),
                          _reference_build_mesh(Disk(0, 1.0), _WAVY, 40))

    def test_topology_that_raises_is_not_kept(self, cold_cache):
        with pytest.raises(MeshError, match="too coarse"):
            build_mesh(Disk(0, 1.0, punctures=(0j,)), ONES, 8)
        assert not cold_cache

    def test_resolution_below_eight_is_an_argument_error(self, cold_cache):
        for res in (7, 0, -5):
            with pytest.raises(ArgumentError, match="below 8") as refused:
                build_mesh(Disk(0, 1.0), ONES, res)
            assert refused.value.name == "resolution"


# ---------------------------------------------------------------------------
# Lattice neighbour search
# ---------------------------------------------------------------------------


def _lattice(anchor, spacing, shape, rng, off=0.2):
    """Positions, row-major ids and on-mesh positions of a lattice with a
    random fraction ``off`` of its cells off the mesh."""
    ii, jj = np.meshgrid(np.arange(shape[0]) - 3, np.arange(shape[1]) - 5, indexing="ij")
    zz = anchor + (ii + 1j * jj) * spacing
    on = rng.random(shape) >= off
    id_grid = np.full(shape, -1)
    id_grid[on] = np.arange(int(on.sum()))
    return zz, id_grid, zz[on]


def _kd_tree_pairs(lattice, points, radius):
    """(point index, node id) pairs of a sorted KD-tree ball query."""
    tree = cKDTree(np.column_stack([lattice.real, lattice.imag]))
    near = tree.query_ball_point(np.column_stack([points.real, points.imag]), radius,
                                 return_sorted=True)
    k = np.repeat(np.arange(len(near)), [len(q) for q in near])
    return k, np.concatenate([np.asarray(q, dtype=int) for q in near])


def _assert_same_pairs(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


class TestNearLattice:
    @pytest.mark.parametrize("factor", [2.2, 2.5, 5.0], ids=["ghost", "ring", "wide"])
    @pytest.mark.parametrize("anchor, spacing", [(0.5 - 0.25j, 0.25), (0.1 + 0.3j, 2.0 / 37)],
                             ids=["dyadic", "disk-like"])
    def test_matches_kd_tree_ball_query(self, anchor, spacing, factor):
        rng = np.random.default_rng(5)
        zz, id_grid, lattice = _lattice(anchor, spacing, (30, 24), rng)
        radius = factor * spacing
        middle = zz[15, 12]
        # ghost-like rims, the wider one partly off the lattice box
        rims = [Disk(middle, r * spacing).rim(geodesy.BOUNDARY_INSET_FRACTION, spacing / 2)
                for r in (10, 20)]
        ring = geodesy._puncture_rings(middle + 0.3 * spacing, spacing)[0]
        # one query radius from a node along the axes, the diagonals and a 3-4-5 slope
        nodes = lattice[rng.choice(lattice.size, 30)]
        slopes = np.concatenate([np.exp(0.25j * np.pi * np.arange(8)), [(3 + 4j) / 5]])
        ties = (nodes[:, None] + radius * slopes).ravel()
        points = np.concatenate(rims + [ring, ties])
        got = geodesy._near_lattice(zz, id_grid, spacing, points, radius)
        _assert_same_pairs(got, _kd_tree_pairs(lattice, points, radius))

    def test_keeps_a_node_exactly_one_radius_away(self):
        # on a dyadic lattice these distances are exact: 3, 4 and 5 quarter steps
        zz, id_grid, lattice = _lattice(0.5 - 0.25j, 0.25, (20, 20), np.random.default_rng(1), off=0)
        node, node_id = zz[10, 10], id_grid[10, 10]
        points = np.array([node + 1.25, node + (0.75 + 1j), node - 1.25j, node + 1.25 + 1e-12])
        k, q = geodesy._near_lattice(zz, id_grid, 0.25, points, 1.25)
        assert [node_id in q[k == p] for p in range(4)] == [True, True, True, False]
        _assert_same_pairs((k, q), _kd_tree_pairs(lattice, points, 1.25))
