"""Surface synthesis: representation oracles, periods, seams, invariants,
singular loci and exports."""

import json
import math

import numpy as np
import pytest

from mtriples import quadrature, surfaces
from mtriples.expr import Add, ArgumentError, Const, EvalError, Mul, Pow, Sub, Z
from mtriples.geodesy import build_mesh
from mtriples.mtriple import Annulus, Disk, Rectangle, TruncatedPlane
from mtriples.quadrature import simpson_segments
from mtriples.surfaces import (
    FlatFrontData,
    ImproperAffineData,
    MaxfaceData,
    MinimalData,
    export_mesh,
    gauss_normal_check,
    immersion_check,
    period_residuals,
    seam_mismatch,
    singular_locus,
    synth_flatfront,
    synth_improper_affine,
    synth_maxface,
    synth_minimal,
)
from mtriples.expr import eval_array_checked, parse_mero

ONES = lambda zs: np.ones(np.shape(zs))


def enneper_exact(z: complex) -> np.ndarray:
    z = complex(z)
    return np.array([(z - z**3 / 3).real, (1j * (z + z**3 / 3)).real, (z * z).real])


@pytest.fixture(scope="module")
def enneper():
    dom = Disk(0, 1.2)
    mesh = build_mesh(dom, ONES, 48)
    data = MinimalData("1", "z", dom, 0j)
    return data, mesh, synth_minimal(data, mesh)


class TestMinimal:
    def test_base_point_is_origin(self, enneper):
        _, mesh, surf = enneper
        assert np.linalg.norm(surf.vertices[mesh.node_nearest(0)]) < 1e-12

    def test_antiderivative_oracle(self, enneper):
        _, mesh, surf = enneper
        for z in (1.0, 1j, 0.3 + 0.4j, -0.5 + 0.25j):
            k = mesh.node_nearest(z)
            assert np.max(np.abs(surf.vertices[k] - enneper_exact(mesh.nodes[k]))) < 1e-8

    def test_path_independence(self, enneper):
        # spanning-tree values match direct straight-segment integration
        data, mesh, surf = enneper
        rng = np.random.default_rng(1)
        ids = rng.choice(np.nonzero(mesh.interior)[0], 50, replace=False)
        forms = data.forms()
        za = np.zeros(len(ids), dtype=complex)
        zb = mesh.nodes[ids]
        for k, form in enumerate(forms):
            direct = simpson_segments(
                lambda zs: eval_array_checked(form, zs), za, zb, rel_tol=1e-12
            ).real
            assert np.max(np.abs(direct - surf.vertices[ids, k])) < 1e-9

    def test_diagnostics_present(self, enneper):
        _, mesh, surf = enneper
        assert set(surf.diagnostics) >= {"density", "curvature", "gauss_map", "singular"}
        k = mesh.node_nearest(0)
        assert abs(surf.diagnostics["density"][k] - 1.0) < 1e-12
        assert abs(surf.diagnostics["curvature"][k] + 4.0) < 1e-10

    def test_immersion_invariants(self):
        dom = Disk(0, 1.2)
        mesh = build_mesh(dom, ONES, 240)  # spacing 1e-2
        data = MinimalData("1", "z", dom, 0j)
        surf = synth_minimal(data, mesh)
        rep = immersion_check(surf, data)
        assert rep.conformal_asymmetry <= 1e-3
        assert rep.cross_term <= 1e-3
        assert rep.metric_deviation <= 1e-3
        assert rep.laplacian <= 1e-3

    def test_constant_g_affine_image(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 60)
        data = MinimalData("1", "0.4", dom, 0j)
        surf = synth_minimal(data, mesh)
        rep = immersion_check(surf, data)
        assert rep.laplacian <= 1e-10
        centered = surf.vertices - surf.vertices.mean(axis=0)
        assert np.linalg.svd(centered, compute_uv=False)[2] < 1e-10

    def test_gauss_normal(self, enneper):
        data, mesh, surf = enneper
        rep = gauss_normal_check(surf, data.g)
        assert rep.max_angle <= 1e-2

    def test_gauss_normal_constant(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 60)
        data = MinimalData("1", "0.4", dom, 0j)
        surf = synth_minimal(data, mesh)
        rep = gauss_normal_check(surf, data.g)
        assert rep.max_angle < 1e-7

    def test_catenoid_normal_at_one(self):
        ann = Annulus(0, 0.5, 2.0)
        mesh = build_mesh(ann, ONES, 150)
        data = MinimalData("1/z^2", "z", ann, 1.0)
        surf = synth_minimal(data, mesh)
        rep = gauss_normal_check(surf, data.g)
        assert rep.max_angle <= 1e-2


class TestPeriods:
    CIRCLE = [complex(np.exp(2j * np.pi * k / 64)) for k in range(64)]

    def test_catenoid_closes(self):
        ann = Annulus(0, 0.5, 2.0)
        data = MinimalData("1/z^2", "z", ann, 1.0)
        res = period_residuals(data, self.CIRCLE)
        assert res.norm <= 1e-8

    def test_helicoid_period(self):
        ann = Annulus(0, 0.5, 2.0)
        data = MinimalData("i/z^2", "z", ann, 1.0)
        res = period_residuals(data, self.CIRCLE)
        # residue calculus: Re of (0, 0, 2i * 2 pi i) has third component -4 pi
        assert abs(abs(res.values[2]) - 4 * math.pi) < 1e-6
        assert abs(res.values[0]) < 1e-8 and abs(res.values[1]) < 1e-8

    def test_contractible_cycle_vanishes(self):
        dom = Disk(0, 2.0)
        data = MinimalData("1", "z", dom, 0j)
        square = [0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j]
        res = period_residuals(data, square)
        assert res.norm < 1e-10

    def test_seam_mismatch_matches_periods(self):
        ann = Annulus(0, 0.5, 2.0)
        mesh = build_mesh(ann, ONES, 60)
        cat = MinimalData("1/z^2", "z", ann, 1.0)
        scat = synth_minimal(cat, mesh)
        assert seam_mismatch(cat, mesh, scat) <= 1e-8
        hel = MinimalData("i/z^2", "z", ann, 1.0)
        shel = synth_minimal(hel, mesh)
        assert abs(seam_mismatch(hel, mesh, shel) - 4 * math.pi) <= 1e-8

    def test_improper_affine_period(self):
        ann = Annulus(0, 0.5, 2.0)
        # F dG = (1/z) dz has residue 1: Re(2 pi i) = 0, single-valued
        data = ImproperAffineData("1/z", "z", ann, 1.0)
        res = period_residuals(data, self.CIRCLE)
        assert res.kind == "improper_affine"
        assert res.norm <= 1e-10

    def test_integrals_past_the_point_cap_name_it(self, monkeypatch):
        # the first pass over 64 chords samples 128 points, over 64 tree edges
        # at least as many
        data = MinimalData("1", "z", Annulus(0, 0.5, 2.0), 1.0)
        mesh = build_mesh(data.domain, ONES, 20)
        monkeypatch.setattr(quadrature, "MAX_GRID_POINTS", 64)
        with pytest.raises(EvalError, match="cycle failed: .* past the cap of 64"):
            period_residuals(data, self.CIRCLE)
        with pytest.raises(EvalError, match="tree edge failed: .* past the cap of 64"):
            synth_minimal(data, mesh)

    def test_flatfront_monodromy_identity(self):
        dom = Disk(0, 2.0)
        data = FlatFrontData("1", "z", dom, 0j)
        res = period_residuals(data, [0.5, 0.5j, -0.5, -0.5j], step=1e-3)
        assert res.kind == "flatfront"
        assert res.norm < 1e-9


class TestMaxface:
    def test_singular_flags_on_unit_circle(self):
        dom = Disk(0, 2.0)
        mesh = build_mesh(dom, ONES, 120)
        data = MaxfaceData("1", "z", dom, 0j)
        surf = synth_maxface(data, mesh)
        flagged = mesh.nodes[surf.diagnostics["singular"]]
        assert len(flagged) > 0
        assert np.max(np.abs(np.abs(flagged) - 1.0)) < 1e-3

    def test_lorentz_isothermal_identity(self):
        dom = Disk(0, 2.0)
        mesh = build_mesh(dom, ONES, 400)
        data = MaxfaceData("1", "z", dom, 0j)
        surf = synth_maxface(data, mesh)
        band = np.abs(np.abs(mesh.nodes) - 1.0) <= 0.05
        rep = immersion_check(surf, data, exclude=band)
        assert rep.conformal_asymmetry <= 1e-3
        assert rep.cross_term <= 1e-3
        assert rep.metric_deviation <= 1e-3

    def test_constant_g_spacelike_plane(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 60)
        data = MaxfaceData("1", "0.3", dom, 0j)
        surf = synth_maxface(data, mesh)
        centered = surf.vertices - surf.vertices.mean(axis=0)
        assert np.linalg.svd(centered, compute_uv=False)[2] < 1e-10

    def test_unimodular_constant_rejected(self):
        with pytest.raises(ValueError):
            MaxfaceData("1", "i", Disk(0, 1.0), 0j)

    def test_locus_is_unit_circle(self):
        dom = Disk(0, 2.0)
        mesh = build_mesh(dom, ONES, 200)
        data = MaxfaceData("1", "z", dom, 0j)
        loci = singular_locus(data, mesh)
        pts = np.concatenate(loci)
        assert np.max(np.abs(np.abs(pts) - 1.0)) <= 4e-3  # coarser mesh here


class TestImproperAffine:
    def test_paraboloid(self):
        dom = Disk(0, 1.5)
        mesh = build_mesh(dom, ONES, 80)
        data = ImproperAffineData("0", "z", dom, 0j)
        surf = synth_improper_affine(data, mesh)
        zs = mesh.nodes
        assert np.max(np.abs(surf.vertices[:, 2] - np.abs(zs) ** 2 / 2)) < 1e-10
        assert np.max(np.abs(surf.vertices[:, 0] - zs.real)) < 1e-12
        assert np.max(np.abs(surf.diagnostics["lagrangian_gauss_map"])) == 0.0
        assert np.allclose(surf.diagnostics["tau_sq"], 2.0)
        assert np.allclose(surf.diagnostics["affine_metric"], 1.0)
        assert not np.any(surf.diagnostics["singular"])

    def test_lift_conformality(self):
        dom = Disk(0, 1.5)
        mesh = build_mesh(dom, ONES, 80)
        data = ImproperAffineData("z^2/4", "z", dom, 0j)
        surf = synth_improper_affine(data, mesh)
        rep = immersion_check(surf, data)
        assert rep.conformal_asymmetry <= 1e-6
        assert rep.metric_deviation <= 1e-6

    def test_everywhere_degenerate_flagged(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 40)
        surf = synth_improper_affine(ImproperAffineData("z", "z", dom, 0j), mesh)
        assert np.all(surf.diagnostics["singular"])

    def test_empty_locus_for_graph_case(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 40)
        assert singular_locus(ImproperAffineData("0", "z", dom, 0j), mesh) == []

    def test_pole_in_domain_rejected(self):
        with pytest.raises(ValueError):
            ImproperAffineData("1/z", "z", Disk(0, 1.0), 0.5)


@pytest.mark.parametrize(
    "cls, exprs, name, message",
    [
        (ImproperAffineData, ("z", "1/(z-0.5)"), "G", "has a pole"),
        (ImproperAffineData, ("1/0", "z"), "F", "identically infinite"),
        (FlatFrontData, ("1", "1/(z-0.5)"), "theta", "has a pole"),
        (FlatFrontData, ("z/(z-z)", "z"), "omega", "identically infinite"),
        (MaxfaceData, ("1", "i"), "g", "identically 1"),
        (MaxfaceData, ("1", "i*z/z"), "g", "identically 1"),
        (MaxfaceData, ("1", "i+z-z"), "g", "identically 1"),
        (ImproperAffineData, ("1/(z-0.5)^12", "z"), "F", "has a pole"),
        (ImproperAffineData, ("(z-0.5)/(z-0.5000001)", "z"), "F", "has a pole"),
        (FlatFrontData, ("(z-0.5)^2/(z-0.5)^3", "z"), "omega", "has a pole"),
    ],
)
def test_invalid_expression_is_named_by_its_field(cls, exprs, name, message):
    with pytest.raises(ArgumentError, match=message) as info:
        cls(*exprs, Disk(0, 1.0), 0j)
    assert info.value.name == name


class TestFlatFront:
    def test_horosphere_closed_form(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 60)
        data = FlatFrontData("1", "0", dom, 0j)
        surf = synth_flatfront(data, mesh, step=0.02)
        zs = mesh.nodes
        psi = surf.hermitian_psi
        assert np.max(np.abs(psi[:, 0, 0] - 1.0)) <= 1e-8
        assert np.max(np.abs(psi[:, 1, 0] - zs)) <= 1e-8
        assert np.max(np.abs(psi[:, 1, 1] - (1 + np.abs(zs) ** 2))) <= 1e-8
        assert surf.metadata["max_det_drift"] <= 1e-10

    def test_psi_in_hermitian_model(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 40)
        data = FlatFrontData("1", "z/2", dom, 0j)
        surf = synth_flatfront(data, mesh, step=0.02)
        psi = surf.hermitian_psi
        herm = np.max(np.abs(psi - np.conj(np.swapaxes(psi, 1, 2))))
        dets = psi[:, 0, 0] * psi[:, 1, 1] - psi[:, 0, 1] * psi[:, 1, 0]
        assert herm < 1e-10
        assert np.max(np.abs(dets - 1.0)) < 1e-6
        assert np.min(psi[:, 0, 0].real + psi[:, 1, 1].real) > 0
        assert np.max(np.linalg.norm(surf.vertices, axis=1)) < 1.0

    def test_det_drift_per_unit_arc(self):
        # traceless coefficient matrix keeps det constant; RK4 drift stays tiny
        from mtriples.surfaces import _rk4_edges

        L = np.eye(2, dtype=complex)[None]
        za, zb = np.array([0j]), np.array([1 + 0j])
        L = _rk4_edges(L, za, zb, parse_mero("1"), parse_mero("z"), 1e-3)[0]
        det = L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0]
        assert abs(det - 1.0) <= 1e-10

    def test_everywhere_singular_when_forms_match(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 40)
        surf = synth_flatfront(FlatFrontData("1", "1", dom, 0j), mesh, step=0.02)
        assert np.all(surf.diagnostics["singular"])

    def test_no_singularities_when_theta_zero(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 40)
        surf = synth_flatfront(FlatFrontData("1", "0", dom, 0j), mesh, step=0.02)
        assert not np.any(surf.diagnostics["singular"])

    def test_locus_for_linear_ratio(self):
        dom = Disk(0, 2.0)
        mesh = build_mesh(dom, ONES, 200)
        loci = singular_locus(FlatFrontData("1", "z", dom, 0j), mesh)
        pts = np.concatenate(loci)
        assert np.max(np.abs(np.abs(pts) - 1.0)) <= 4e-3

    def test_lift_conformality(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 60)
        data = FlatFrontData("1", "z/2", dom, 0j)
        surf = synth_flatfront(data, mesh, step=0.01)
        rep = immersion_check(surf, data)
        assert rep.conformal_asymmetry <= 1e-5
        assert rep.metric_deviation <= 1e-5

    def test_step_cap_enforced(self):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 40)
        with pytest.raises(ValueError):
            synth_flatfront(FlatFrontData("1", "0", dom, 0j), mesh, step=0.5)

    @pytest.mark.parametrize("step", [-5.0, 0.0, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 60)
        data = FlatFrontData("1", "z/2", dom, 0j)
        with pytest.raises(ValueError, match="step"):
            synth_flatfront(data, mesh, step=step)
        with pytest.raises(ValueError, match="step"):
            period_residuals(data, [0.5, 0.5j, -0.5], step=step)

    def test_samples_past_the_cap_are_refused_before_allocation(self):
        data = FlatFrontData("1", "z/4", Disk(0, 1.0), 0j)
        # 2 * 10^10 + 1 samples of 64 bytes: 1.16 TiB if allocated
        with pytest.raises(ArgumentError, match="past the cap") as refused:
            period_residuals(data, [0j, 1e7 + 0j], step=1e-3)
        assert refused.value.name == "step"
        mesh = build_mesh(data.domain, ONES, 20)
        with pytest.raises(ArgumentError, match="past the cap"):
            synth_flatfront(data, mesh, step=1e-9)

    def test_cycle_through_a_pole_raises(self):
        dom = Disk(0, 1.0, punctures=(0j,))
        data = FlatFrontData("1/z", "1", dom, 0.5)
        with pytest.raises(EvalError):
            period_residuals(data, [0j, 0.5, 0.5j], step=0.01)


def _reference_rk4_edge(L, za, zb, omega, theta, step):
    """The per-edge RK4 loop that the batched kernel replaced."""
    length = abs(zb - za)
    n = max(1, int(math.ceil(length / step)))
    ts = np.linspace(0.0, 1.0, 2 * n + 1)
    pts = za + ts * (zb - za)
    om = eval_array_checked(omega, pts)
    th = eval_array_checked(theta, pts)
    if np.any(~np.isfinite(om)) or np.any(~np.isfinite(th)):
        raise EvalError("form coefficient has a pole on an integration edge")
    dz = (zb - za) / n

    def coeff(idx):
        return np.array([[0.0, th[idx]], [om[idx], 0.0]], dtype=complex)

    out = L.copy()
    for k in range(n):
        a0, a1, a2 = coeff(2 * k), coeff(2 * k + 1), coeff(2 * k + 2)
        k1 = out @ a0
        k2 = (out + 0.5 * dz * k1) @ a1
        k3 = (out + 0.5 * dz * k2) @ a1
        k4 = (out + dz * k3) @ a2
        out = out + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def _reference_lifts(data, mesh, step):
    """Flat-front lifts stepped one tree edge at a time in BFS order."""
    root = mesh.node_nearest(data.base_point)
    parent, order = mesh.spanning_tree(root)
    lifts = np.zeros((mesh.n_nodes, 2, 2), dtype=complex)
    lifts[root] = np.eye(2)
    for v in order[1:]:
        p = parent[v]
        lifts[v] = _reference_rk4_edge(
            lifts[p], complex(mesh.nodes[p]), complex(mesh.nodes[v]), data.omega, data.theta, step
        )
    return lifts


def _reference_integrate_tree(mesh, root, integrands):
    """Edge integrals accumulated one node at a time in BFS order."""
    parent, order = mesh.spanning_tree(root)
    child = order[1:]
    za = mesh.nodes[parent[child]]
    zb = mesh.nodes[child]
    out = np.zeros((len(integrands), mesh.n_nodes), dtype=complex)
    for k, fvec in enumerate(integrands):
        seg = simpson_segments(fvec, za, zb, rel_tol=1e-10)
        acc = out[k]
        for c, v in zip(child, seg):
            acc[c] = acc[parent[c]] + v
    return out


TREE_DOMAINS = [
    (Disk(0, 1.0), False),
    (Annulus(0, 0.5, 2.0), False),
    (Disk(0, 1.0, punctures=(0.3 + 0.2j,)), True),  # with puncture ring edges
]


def _roots(domain, mesh):
    return (mesh.node_nearest(domain.anchor()), mesh.n_nodes - 1)


class TestLevelSynchronousTree:
    @pytest.mark.parametrize("domain, refine", TREE_DOMAINS)
    def test_levels_are_bfs_depths(self, domain, refine):
        mesh = build_mesh(domain, ONES, 30, refine_punctures=refine)
        for root in _roots(domain, mesh):
            parent, order = mesh.spanning_tree(root)
            depth = np.zeros(mesh.n_nodes, dtype=int)
            for v in order[1:]:
                depth[v] = depth[parent[v]] + 1
            levels = surfaces._tree_levels(parent, order)
            assert levels[0].start == 0 and levels[-1].stop == mesh.n_nodes - 1
            for d, s in enumerate(levels, start=1):
                assert np.all(depth[order[1:][s]] == d)
                assert s.stop > s.start
            assert all(a.stop == b.start for a, b in zip(levels, levels[1:]))

    @pytest.mark.parametrize("domain, refine", TREE_DOMAINS)
    def test_flatfront_lifts_match_per_edge_reference(self, domain, refine):
        mesh = build_mesh(domain, ONES, 30, refine_punctures=refine)
        step = 5e-3 * domain.diameter()
        for root in _roots(domain, mesh):
            # theta = 0 makes exact zeros, so compare bit patterns, signs of zero included
            for omega, theta in (("1 + z/3", "z/2"), ("1", "0")):
                data = FlatFrontData(omega, theta, domain, mesh.nodes[root])
                got = synth_flatfront(data, mesh, step=step).lift_matrices
                want = _reference_lifts(data, mesh, step)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            parent, order = mesh.spanning_tree(root)
            child = order[1:]
            steps = np.ceil(np.abs(mesh.nodes[child] - mesh.nodes[parent[child]]) / step)
            mixed = [len(set(steps[s])) > 1 for s in surfaces._tree_levels(parent, order)]
            assert any(mixed)

    @pytest.mark.parametrize("domain, refine", TREE_DOMAINS)
    def test_vertices_match_per_node_reference(self, domain, refine, monkeypatch):
        mesh = build_mesh(domain, ONES, 30, refine_punctures=refine)
        for root in _roots(domain, mesh):
            base = mesh.nodes[root]
            cases = [
                (synth_minimal, MinimalData("1", "z", domain, base)),
                (synth_maxface, MaxfaceData("1", "z/3", domain, base)),
                (synth_improper_affine, ImproperAffineData("z^2/4", "z", domain, base)),
            ]
            for synth, data in cases:
                got = synth(data, mesh).vertices
                with monkeypatch.context() as m:
                    m.setattr(surfaces, "_integrate_tree", _reference_integrate_tree)
                    want = synth(data, mesh).vertices
                assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def enneper_small():
    dom = Disk(0, 1.0)
    mesh = build_mesh(dom, ONES, 30)
    data = MinimalData("1", "z", dom, 0j)
    return synth_minimal(data, mesh)


class TestExport:
    def test_obj(self, enneper_small, tmp_path):
        p = tmp_path / "mesh.obj"
        export_mesh(enneper_small, "obj", p)
        lines = p.read_text().splitlines()
        nv = sum(1 for l in lines if l.startswith("v "))
        nf = sum(1 for l in lines if l.startswith("f "))
        assert nv == enneper_small.n_vertices
        assert nf == len(enneper_small.faces)
        # face indices are valid 1-based references
        for l in lines:
            if l.startswith("f "):
                assert all(1 <= int(tok) <= nv for tok in l.split()[1:])

    def test_ply(self, enneper_small, tmp_path):
        p = tmp_path / "mesh.ply"
        export_mesh(enneper_small, "ply", p)
        text = p.read_text().splitlines()
        assert text[0] == "ply"
        assert f"element vertex {enneper_small.n_vertices}" in text
        assert f"element face {len(enneper_small.faces)}" in text

    def test_csv_and_json(self, enneper_small, tmp_path):
        export_mesh(enneper_small, "csv", tmp_path / "verts.csv")
        header = (tmp_path / "verts.csv").read_text().splitlines()[0]
        assert header.startswith("id,u,v,x,y,z")
        assert "density" in header
        export_mesh(enneper_small, "json", tmp_path / "surf.json")
        payload = json.loads((tmp_path / "surf.json").read_text())
        assert len(payload["vertices"]) == enneper_small.n_vertices

    def test_csv_reads_back_as_numbers(self, enneper_small, tmp_path):
        export_mesh(enneper_small, "csv", tmp_path / "verts.csv")
        lines = (tmp_path / "verts.csv").read_text().splitlines()
        header = lines[0].split(",")
        got = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
        s = enneper_small
        cols = [np.arange(s.n_vertices), s.mesh.nodes.real, s.mesh.nodes.imag, *s.vertices.T]
        for name in sorted(s.diagnostics):
            arr = np.asarray(s.diagnostics[name])
            cols += [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
        assert header[:6] == ["id", "u", "v", "x", "y", "z"]
        assert got.shape == (s.n_vertices, len(header))
        assert np.array_equal(got, np.column_stack(cols).astype(float))

    def test_maxface_metadata(self, tmp_path):
        dom = Disk(0, 1.5)
        mesh = build_mesh(dom, ONES, 30)
        surf = synth_maxface(MaxfaceData("1", "z", dom, 0j), mesh)
        p = tmp_path / "max.obj"
        export_mesh(surf, "obj", p)
        assert "# lorentzian: true" in p.read_text()

    def test_hyperbolic_sidecar_and_ball(self, tmp_path):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 30)
        surf = synth_flatfront(FlatFrontData("1", "0", dom, 0j), mesh, step=0.02)
        p = tmp_path / "front.obj"
        export_mesh(surf, "obj", p)
        sidecar = tmp_path / "front.obj.hermitian.json"
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        assert len(payload["hermitian_psi"]) == surf.n_vertices
        # ball-model vertices stay inside the unit ball
        assert np.max(np.linalg.norm(surf.vertices, axis=1)) < 1.0

    def test_flatfront_json_matches_per_entry_pairs(self, tmp_path):
        dom = Disk(0, 1.0)
        mesh = build_mesh(dom, ONES, 30)
        surf = synth_flatfront(FlatFrontData("1", "z/4", dom, 0j), mesh, step=0.02)
        rho = surf.diagnostics["form_ratio"].copy()
        rho[:4] = [complex(math.inf, 0), complex(math.nan, math.nan), complex(-0.0, -math.inf),
                   complex(5e-324, 1e308)]
        surf.diagnostics["form_ratio"] = rho
        export_mesh(surf, "json", tmp_path / "surface.json")
        export_mesh(surf, "ply", tmp_path / "mesh.ply")
        # the former writer: one [re, im] pair built per entry
        herm = [[[x.real, x.imag] for x in m.ravel()] for m in surf.hermitian_psi]
        diagnostics = {
            name: (
                [[v.real, v.imag] for v in np.asarray(arr)]
                if np.iscomplexobj(np.asarray(arr))
                else np.asarray(arr).astype(float).tolist()
            )
            for name, arr in surf.diagnostics.items()
        }
        payload = {"metadata": surf.metadata, "frame": surf.frame,
                   "vertices": surf.vertices.tolist(), "faces": surf.faces.tolist(),
                   "diagnostics": diagnostics, "hermitian_psi": herm}
        # a plain flag: pytest's diff of two megabyte strings would take minutes
        text = (tmp_path / "surface.json").read_text()
        same = text == json.dumps(payload, sort_keys=True)
        assert same, "surface.json differs from the per-entry reference"
        assert "[Infinity, 0.0], [NaN, NaN], [-0.0, -Infinity], [5e-324, 1e+308]" in text
        sidecar = (tmp_path / "mesh.ply.hermitian.json").read_text()
        same = sidecar == json.dumps({"hermitian_psi": herm}, sort_keys=True)
        assert same, "the sidecar differs from the per-entry reference"


# edge keys between corners k and k+1 (mod 4); lookup by sign code
_MS_EDGES = {
    1: [((0, 1), (3, 0))],
    2: [((0, 1), (1, 2))],
    3: [((1, 2), (3, 0))],
    4: [((1, 2), (2, 3))],
    5: [((0, 1), (1, 2)), ((2, 3), (3, 0))],
    6: [((0, 1), (2, 3))],
    7: [((2, 3), (3, 0))],
    8: [((2, 3), (3, 0))],
    9: [((0, 1), (2, 3))],
    10: [((0, 1), (3, 0)), ((1, 2), (2, 3))],
    11: [((1, 2), (2, 3))],
    12: [((1, 2), (3, 0))],
    13: [((0, 1), (1, 2))],
    14: [((0, 1), (3, 0))],
}


def _reference_segments(data, mesh):
    """(segments, saddle cells) of the per-cell marching-squares loop that
    the whole-array version replaced."""
    grid = mesh.lattice
    vals = np.full(grid.shape, np.nan)
    on = grid >= 0
    vals[on] = data.singular_indicator(mesh.nodes[grid[on]])
    pos = np.full(grid.shape, np.nan + 1j * np.nan, dtype=complex)
    pos[on] = mesh.nodes[grid[on]]
    segments, saddles = [], 0
    a, b, c, d = vals[:-1, :-1], vals[1:, :-1], vals[1:, 1:], vals[:-1, 1:]
    complete = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
    for i, j in np.argwhere(complete):
        corners = [pos[i, j], pos[i + 1, j], pos[i + 1, j + 1], pos[i, j + 1]]
        cv = [vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1]]
        code = sum(1 << k for k in range(4) if cv[k] > 0.0)
        if code in (0, 15):
            continue
        crossings = {}
        for k in range(4):
            k2 = (k + 1) % 4
            if (cv[k] > 0.0) != (cv[k2] > 0.0):
                t = cv[k] / (cv[k] - cv[k2])
                crossings[(k, k2)] = corners[k] + t * (corners[k2] - corners[k])
        pairs = _MS_EDGES[code]
        if code in (5, 10):
            saddles += 1
            center = np.mean(cv)
            pairs = _MS_EDGES[code if center > 0 else (15 - code)]
        for (e1, e2) in pairs:
            if e1 in crossings and e2 in crossings:
                segments.append((crossings[e1], crossings[e2]))
    return segments, saddles


def _saddle_data(domain, rng):
    """Data of each singular class whose indicator has a saddle zero at a random
    point d near the anchor: |1 + c (z - d)^2| = 1 there."""
    out = []
    for _ in range(8):
        c = complex(rng.uniform(0.5, 3.0) * np.exp(2j * np.pi * rng.uniform()))
        d = complex(domain.anchor() + 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)))
        square = Pow(Sub(Z, Const(d)), 2)
        bump = Add(Const(1 + 0j), Mul(Const(c), square))
        cube = Add(Z, Mul(Const(c / 3), Mul(square, Sub(Z, Const(d)))))
        out += [
            MaxfaceData("1", bump, domain, 0j),
            ImproperAffineData(cube, "z", domain, 0j),
            FlatFrontData("1", bump, domain, 0j),
        ]
    return out


def _indicator_with(monkeypatch, node: int, value: float) -> None:
    """MaxfaceData's indicator, with ``value`` at lattice node ``node``."""
    indicator = MaxfaceData.singular_indicator

    def patched(self, zs):
        vals = indicator(self, zs).copy()
        vals[node] = value
        return vals

    monkeypatch.setattr(MaxfaceData, "singular_indicator", patched)


def test_singular_locus_reads_a_pole_at_a_node_by_its_sign(monkeypatch):
    dom = Disk(0, 1.0)
    mesh = build_mesh(dom, ONES, 20)
    data = MaxfaceData("1", "2*z", dom, 0j)  # the locus is |z| = 1/2
    lattice = mesh.nodes[: np.count_nonzero(mesh.lattice >= 0)]
    node = int(np.argmin(np.abs(np.abs(lattice) - 0.5)))  # a corner of crossed cells
    big = np.finfo(float).max
    for sign in (1.0, -1.0):
        _indicator_with(monkeypatch, node, sign * np.inf)
        got = singular_locus(data, mesh)
        _indicator_with(monkeypatch, node, sign * big)
        want = singular_locus(data, mesh)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    _indicator_with(monkeypatch, node, np.nan)
    with pytest.raises(surfaces.MeshError, match="undefined"):
        singular_locus(data, mesh)


LOCUS_DOMAINS = [
    Disk(0, 1.0),
    Annulus(0, 0.4, 1.2),
    Rectangle(-1 - 0.5j, 1 + 0.7j),
    TruncatedPlane(2.0, punctures=(0.5 + 0.2j,)),
]


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("domain", LOCUS_DOMAINS, ids=lambda d: d.kind)
def test_singular_locus_matches_per_cell_reference(domain, refine, monkeypatch):
    mesh = build_mesh(domain, ONES, 40, refine_punctures=refine)
    rng = np.random.default_rng(LOCUS_DOMAINS.index(domain))
    chained = []
    chain = surfaces._chain_segments
    monkeypatch.setattr(surfaces, "_chain_segments", lambda s: chained.append(s) or chain(s))
    saddles = 0
    for data in _saddle_data(domain, rng):
        got = singular_locus(data, mesh)
        want, n = _reference_segments(data, mesh)
        saddles += n
        # the same np.complex128 crossings in the same order: chaining keys on
        # numpy's rounding of them, which Python's round does not reproduce
        segments = chained.pop()
        assert len(segments) == len(want) > 0
        assert all(type(z) is np.complex128 for seg in segments for z in seg)
        assert np.array_equal(np.array(segments).view(np.uint64), np.array(want).view(np.uint64))
        polylines = chain(want)
        assert len(got) == len(polylines)
        for g, w in zip(got, polylines):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
    assert saddles > 0
