"""Acceptance criteria, one test per criterion at its stated tolerance.

Heavy meshes live here on purpose; the per-criterion pass/fail lines are
printed by the conftest hook.
"""

import math
import time

import numpy as np
import pytest

from mtriples.estimates import (
    Bounded,
    Omits,
    curvature_constant,
    marty_sup,
    optimal_example,
    property_check,
    verify_estimate,
    zalcman_rescale,
)
from mtriples.expr import (
    INFINITY,
    ArgumentError,
    Const,
    ExtComplex,
    Mul,
    Z,
    chordal,
    invert_expr,
    parse_mero,
    spherical_gradient,
)
from mtriples.geodesy import (
    build_mesh,
    completeness_probe,
    dijkstra_distances,
)
from mtriples.mtriple import (Annulus, Disk, _candidates, _rational_pair, curvature, curvature_fd,
                              make_triple)
from mtriples.surfaces import (
    FlatFrontData,
    ImproperAffineData,
    MaxfaceData,
    MinimalData,
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

from _helpers import (
    poincare_density,
    random_bounded_triple,
    random_regular_triple,
    sample_points_away,
)

ONES = lambda zs: np.ones(np.shape(zs))
SQRT2 = math.sqrt(2.0)


def test_ac01_curvature_oracle_random_triples():
    """Closed-form curvature vs the finite-difference oracle, 100 triples."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for k in range(100):
        t = random_regular_triple(rng, k % 3 + 1)
        for z in sample_points_away(rng, t, 5, min_gap=0.1):
            kc = curvature(t, z)
            kf = curvature_fd(t, z, 1e-3)
            assert abs(kc - kf) / max(abs(kc), 1e-8) <= 1e-4, (k, z, kc, kf)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def test_ac02_explicit_curvature_values():
    """K(0) for the identity data: -2m in closed form and by FD."""
    for m, want in ((2, -4.0), (1, -2.0)):
        t = make_triple(Disk(0, 1.0), "1", "z", m)
        assert abs(curvature(t, 0) - want) <= 1e-10
        assert abs(curvature_fd(t, 0, 1e-3) - want) <= 1e-5


def test_ac03_bounded_constant_and_randomized_suite():
    """Explicit constant, the 50-triple bound at resolution 200, refinement."""
    assert curvature_constant(Bounded(1.0), 2) == 4.0

    rng = np.random.default_rng(2026)
    combos = [(L, m) for L in (0.5, 1.0, 2.0) for m in (1, 2, 3)]
    triples = []
    for k in range(50):
        L, m = combos[k % len(combos)]
        triples.append((L, random_bounded_triple(rng, L, m)))

    max_ratio = {}
    for res in (100, 200, 400):
        worst = 0.0
        for L, t in triples:
            mesh = build_mesh(t.domain, t.density, res)
            rep = verify_estimate(t, Bounded(L), mesh)
            c2 = rep.constant_squared
            if res == 200:
                assert rep.sup <= c2 * 1.05, (L, t.m, rep.sup, c2)
            worst = max(worst, rep.sup / c2)
        max_ratio[res] = worst
        assert worst <= 1.05

    # Refinement behavior.  Two one-sided discretization errors compete:
    # the Dijkstra distance overestimates (by a stencil bias of about 2% that
    # does not shrink with resolution) while the node-sampled supremum
    # underestimates (growing toward the true sup with resolution).  With
    # exact edge quadrature the sampling term is the larger one at
    # resolution 100, so "nonincreasing" is asserted up to the measured
    # sampling convergence (about 1.4% in ratio units, slack 0.02); both
    # refinements stay far inside the 5% verdict tolerance.
    assert max_ratio[200] <= max_ratio[100] + 0.02
    assert max_ratio[400] <= max_ratio[200] + 0.02
    assert abs(max_ratio[400] - max_ratio[200]) <= 0.005  # converged


def test_ac04_optimal_example_omission_and_completeness():
    """The extremal data omits exactly m+2 values; rays into a puncture
    diverge with the predicted logarithmic coefficient."""
    t = optimal_example(1, [1.0, -1.0])
    mesh = build_mesh(t.domain, t.density, 200, refine_punctures=False)
    delta = 1e-3

    omitted = (ExtComplex(1 + 0j), ExtComplex(-1 + 0j), INFINITY)
    rep = property_check(t.g, Omits(omitted), mesh, delta)
    assert rep.verdict and rep.extremum > delta

    # every other value is attained at resolution: g is the identity, so any
    # interior node position is hit exactly
    rng = np.random.default_rng(44)
    ids = rng.choice(np.nonzero(mesh.interior)[0], 5, replace=False)
    for alpha in mesh.nodes[ids]:
        probe = property_check(t.g, Omits((ExtComplex(complex(alpha)),)), mesh, delta)
        assert not probe.verdict
        assert probe.extremum <= 1e-12

    eps = [10.0 ** (-k) for k in range(1, 7)]
    probe = completeness_probe(t, 1.0 + 0j, eps)
    assert probe.divergence_evidence
    assert abs(probe.slope - SQRT2 / 2) <= 0.1 * SQRT2 / 2


def test_ac05_hyperbolic_distance_on_mesh():
    """Dijkstra from the origin to the shell |z| >= 0.9 under the
    curvature -1 disk density reproduces log 19."""
    target = math.log(19.0)
    errors = {}
    for res in (100, 200, 400):
        mesh = build_mesh(Disk(0, 1.0), poincare_density, res)
        dist = dijkstra_distances(mesh, [mesh.node_nearest(0)])
        shell = np.abs(mesh.nodes) >= 0.9
        got = float(dist[shell].min())
        errors[res] = abs(got - target)
    assert errors[400] <= 0.02 * target
    # errors sit at quadrature level here; decrease asserted with a tiny
    # floor so float noise cannot flake the comparison
    assert errors[200] <= errors[100] + 1e-9
    assert errors[400] <= errors[200] + 1e-9


def test_ac06_enneper_values_and_invariants():
    """Base-point integrals against the antiderivative, and the FD checks."""
    dom = Disk(0, 1.2)
    mesh = build_mesh(dom, ONES, 240)  # lattice step 1e-2
    data = MinimalData("1", "z", dom, 0j)
    surf = synth_minimal(data, mesh)

    for z, want in ((1.0, (2 / 3, 0.0, 1.0)), (1j, (0.0, -2 / 3, -1.0))):
        k = mesh.node_nearest(z)
        assert abs(mesh.nodes[k] - z) < 1e-12  # the lattice hits z exactly
        assert np.max(np.abs(surf.vertices[k] - np.asarray(want))) <= 1e-8

    rep = immersion_check(surf, data)
    assert rep.conformal_asymmetry <= 1e-3
    assert rep.cross_term <= 1e-3
    assert rep.metric_deviation <= 1e-3
    assert rep.laplacian <= 1e-3
    assert gauss_normal_check(surf, data.g).max_angle <= 1e-2


def test_ac07_periods_catenoid_helicoid():
    """Cycle residuals by residue calculus, and the seam defect picture."""
    ann = Annulus(0, 0.5, 2.0)
    circle = [complex(np.exp(2j * np.pi * k / 64)) for k in range(64)]

    cat = MinimalData("1/z^2", "z", ann, 1.0)
    assert period_residuals(cat, circle).norm <= 1e-8

    hel = MinimalData("i/z^2", "z", ann, 1.0)
    res = period_residuals(hel, circle)
    assert abs(abs(res.values[2]) - 4 * math.pi) <= 1e-6

    mesh = build_mesh(ann, ONES, 60)
    scat = synth_minimal(cat, mesh)
    assert seam_mismatch(cat, mesh, scat) <= 1e-8


def test_ac08_maxface_singular_circle_and_metric():
    """Singular contour on |g| = 1 and the Lorentzian isothermal identity."""
    dom = Disk(0, 2.0)
    mesh = build_mesh(dom, ONES, 400)
    data = MaxfaceData("1", "z", dom, 0j)

    loci = singular_locus(data, mesh)
    # Hausdorff distance between curves: densify each polyline segment so
    # the sampling never inflates the distance above the mesh tolerance
    dense = []
    for poly in loci:
        for a, b in zip(poly[:-1], poly[1:]):
            ts = np.linspace(0.0, 1.0, 8, endpoint=False)
            dense.append(a + ts * (b - a))
    pts = np.concatenate(dense)
    to_circle = float(np.max(np.abs(np.abs(pts) - 1.0)))
    theta = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    from_circle = float(max(np.min(np.abs(pts - c)) for c in np.exp(1j * theta)))
    assert max(to_circle, from_circle) <= 1e-3

    surf = synth_maxface(data, mesh)
    band = np.abs(np.abs(mesh.nodes) - 1.0) <= 0.05  # the excluded band
    rep = immersion_check(surf, data, exclude=band)
    assert rep.conformal_asymmetry <= 1e-3
    assert rep.cross_term <= 1e-3
    assert rep.metric_deviation <= 1e-3


def test_ac09_improper_affine_paraboloid():
    """Height |z|^2/2 exactly and the vanishing Lagrangian Gauss map."""
    dom = Disk(0, 1.5)
    mesh = build_mesh(dom, ONES, 80)
    surf = synth_improper_affine(ImproperAffineData("0", "z", dom, 0j), mesh)
    zs = mesh.nodes
    assert np.max(np.abs(surf.vertices[:, 2] - np.abs(zs) ** 2 / 2)) <= 1e-10
    assert np.max(np.abs(surf.diagnostics["lagrangian_gauss_map"])) == 0.0


def test_ac10_flat_front_horosphere():
    """Closed-form Hermitian matrix and the determinant drift bound."""
    dom = Disk(0, 1.0)
    mesh = build_mesh(dom, ONES, 60)
    surf = synth_flatfront(FlatFrontData("1", "0", dom, 0j), mesh, step=1e-2)
    zs = mesh.nodes
    psi = surf.hermitian_psi
    assert np.max(np.abs(psi[:, 0, 0] - 1.0)) <= 1e-8
    assert np.max(np.abs(psi[:, 0, 1] - np.conj(zs))) <= 1e-8
    assert np.max(np.abs(psi[:, 1, 0] - zs)) <= 1e-8
    assert np.max(np.abs(psi[:, 1, 1] - (1.0 + np.abs(zs) ** 2))) <= 1e-8
    assert surf.metadata["max_det_drift"] <= 1e-10


def test_ac11_zalcman_normalization():
    """Rescaling the dilation family: unit gradient at 0 plus the envelope."""
    for n in (10, 100, 1000):
        res = zalcman_rescale(parse_mero(f"{n}*z"), searchgrid=300)
        assert abs(res.gradient_at_zero - 1.0) <= 1e-9
        assert res.envelope_max_violation <= 1e-9
        assert abs(res.scale - 2 * SQRT2 * n) <= 1e-6 * n


def test_ac12_marty_growth_verdicts():
    """Gradient suprema: linear growth for n z, boundedness for z + 1/n."""
    region = Disk(0, 0.5)
    grow = marty_sup(
        lambda n: Mul(Const(complex(n)), Z), [1, 2, 4, 8, 16, 32], region, grid=120
    )
    assert grow.verdict == "unbounded-growth"
    assert abs(grow.slope - 1.0) <= 0.05

    flat = marty_sup(
        lambda n: parse_mero(f"z + 1/{n}"), [2, 4, 8, 16, 32], region, grid=120
    )
    assert flat.verdict == "bounded"
    assert max(flat.sups) <= 2 * SQRT2 + 1e-12


def test_ac13_sphere_geometry():
    """Chordal metric axioms, the north-pole distance, gradient inversion."""
    assert chordal(0, INFINITY) == 1.0

    rng = np.random.default_rng(777)
    pool = [INFINITY] + [
        ExtComplex(complex(rng.uniform(-5, 5), rng.uniform(-5, 5))) for _ in range(80)
    ]
    for _ in range(1000):
        a, b, c = (pool[rng.integers(len(pool))] for _ in range(3))
        assert chordal(a, b) == chordal(b, a)
        assert chordal(a, b) <= 1.0
        assert chordal(a, c) <= chordal(a, b) + chordal(b, c) + 1e-12
        if a == b:
            assert chordal(a, b) == 0.0

    from _helpers import random_expr

    checked = 0
    while checked < 50:
        e = random_expr(rng, depth=2, allow_exp=False)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        try:
            a = spherical_gradient(e, z)
            b = spherical_gradient(invert_expr(e), z)
        except Exception:
            continue
        if not (1e-8 < a < 1e8):
            continue
        assert abs(a - b) / a <= 1e-10
        checked += 1


def test_ac14_pole_free_data_is_judged_after_cancellation():
    """A removable site, here the lattice node 0, synthesizes as the cancelled
    data and has the same singular locus; a double pole is one candidate,
    refused at its own field."""
    dom = Disk(0, 1.0)
    mesh = build_mesh(dom, ONES, 40)
    flat = lambda data, mesh: synth_flatfront(data, mesh, step=1e-2)
    for data, cancelled, synth in (
        (ImproperAffineData("z*z/z", "z", dom), ImproperAffineData("z", "z", dom),
         synth_improper_affine),
        # |F'| = |G'| on the circle |z| = 1/2
        (ImproperAffineData("z*z/z", "z^2", dom), ImproperAffineData("z", "z^2", dom),
         synth_improper_affine),
        (FlatFrontData("z*(z+2)/z", "z/2", dom), FlatFrontData("z+2", "z/2", dom), flat),
    ):
        surf, want = synth(data, mesh), synth(cancelled, mesh)
        assert np.max(np.abs(surf.vertices - want.vertices)) <= 1e-8
        locus, want_locus = singular_locus(data, mesh), singular_locus(cancelled, mesh)
        assert len(locus) == len(want_locus)
        for poly, want_poly in zip(locus, want_locus):
            assert np.all(np.isfinite(poly))
            assert np.max(np.abs(poly - want_poly)) <= 1e-8

    pole = parse_mero("1/(z-0.5)^2")
    (site,) = _candidates(dom, [_rational_pair("F", pole)[1]])
    assert abs(site - 0.5) <= 1e-9
    with pytest.raises(ArgumentError, match="has a pole") as refused:
        ImproperAffineData(pole, "z", dom)
    assert refused.value.name == "F"


def test_ac15_maxface_reads_g_repaired_at_a_removable_site():
    """g = z*z/z at the lattice node 0 gives the Gauss map, singular flags and
    density of g = z, up to the rounding of z*z/z (on a disk where no node has
    |g| near the flag tolerance); for a minimal surface it also gives g = z's
    Gauss map and FD normal."""
    dom = Disk(0, 0.9)
    mesh = build_mesh(dom, ONES, 40)
    assert np.min(np.abs(mesh.nodes)) == 0.0
    surf = synth_maxface(MaxfaceData("1", "z*z/z", dom), mesh)
    want = synth_maxface(MaxfaceData("1", "z", dom), mesh)
    assert np.array_equal(surf.diagnostics["singular"], want.diagnostics["singular"])
    for key in ("gauss_map", "density", "induced_metric_sq"):
        got = surf.diagnostics[key]
        assert np.all(np.isfinite(got)), key
        assert np.max(np.abs(got - want.diagnostics[key])) <= 1e-12, key
    minimal = synth_minimal(MinimalData("1", "z*z/z", dom), mesh)
    gauss = minimal.diagnostics["gauss_map"]
    assert np.all(np.isfinite(gauss)) and np.all(np.isfinite(minimal.vertices))
    assert np.max(np.abs(gauss - want.diagnostics["gauss_map"])) <= 1e-12
    assert gauss_normal_check(minimal, parse_mero("z*z/z")).max_angle < 1e-6
