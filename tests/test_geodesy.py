"""Meshing, distance fields, path lengths, probes, hyperbolic reference."""

import math

import numpy as np
import pytest

from mtriples import geodesy
from mtriples.expr import ArgumentError
from mtriples.geodesy import (
    MeshedDomain,
    MeshError,
    boundary_distance_field,
    build_mesh,
    completeness_probe,
    dijkstra_distances,
    hyperbolic_distance,
    path_length,
    poincare_density,
    write_edges_csv,
    write_nodes_csv,
)
from mtriples.mtriple import Annulus, Disk, Rectangle, TruncatedPlane, make_triple
from mtriples.reporting import encode_report

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
        # and 25 x 9 on a 4:1 rectangle
        monkeypatch.setattr(geodesy, "MAX_GRID_POINTS", 23 * 23)
        assert build_mesh(Disk(0, 1.0), ONES, 20).n_nodes > 0
        with pytest.raises(ArgumentError, match="625 grid points"):
            build_mesh(Disk(0, 1.0), ONES, 21)
        monkeypatch.setattr(geodesy, "MAX_GRID_POINTS", 23 * 9)
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
            lattice_ij=np.full((3, 2), -1),
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

    def test_multi_source_general(self, disk_mesh):
        src = [disk_mesh.node_nearest(0.5), disk_mesh.node_nearest(-0.5)]
        d = dijkstra_distances(disk_mesh, src)
        i0 = disk_mesh.node_nearest(0)
        assert abs(d[i0] - 0.5) < 0.02
        assert d[src[0]] < 1e-12


class TestPathLength:
    def test_unit_segment(self):
        assert abs(path_length(ONES, [0, 1]) - 1.0) < 1e-12

    def test_poincare_radial(self):
        got = path_length(poincare_density, [0, 0.5])
        assert abs(got - math.log(3)) < 1e-9

    def test_triple_density_radial(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        got = path_length(t.density, [0, 1.0 - 1e-12])
        assert abs(got - 4.0 / 3.0) < 1e-6

    def test_polyline_additivity(self):
        a = path_length(poincare_density, [0, 0.3, 0.5])
        b = path_length(poincare_density, [0, 0.3]) + path_length(poincare_density, [0.3, 0.5])
        assert abs(a - b) < 1e-12

    def test_nonfinite_sample_reported(self):
        def inverse_distance(zs):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(zs)

        with pytest.raises(Exception):
            path_length(inverse_distance, [-1, 1])


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

    def test_report_serializes(self, optimal_triple):
        rep = completeness_probe(optimal_triple, 1 + 0j, self.EPS)
        d = encode_report(rep)
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
