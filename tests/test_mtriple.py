"""Triples: domains, regularity, metric density, curvature and its FD oracle."""

import math

import numpy as np
import pytest

from mtriples.expr import (
    ArgumentError,
    Const,
    EvalError,
    Mul,
    derivative,
    eval_array,
    eval_ext,
    invert_expr,
    parse_mero,
    _mul,
    _pow,
)
from mtriples.reporting import encode_report
from mtriples.mtriple import (
    Annulus,
    Disk,
    MTriple,
    NonHolomorphic,
    Rectangle,
    RegularityViolation,
    TruncatedPlane,
    check_regularity,
    curvature,
    curvature_array,
    curvature_fd,
    make_triple,
    metric_density,
    metric_density_array,
)

from _helpers import outcome_bits, raises, random_regular_triple, sample_points_away

SHAPES = [
    Disk(0.3 - 0.2j, 1.5),
    Annulus(0.1j, 0.5, 2.0),
    Rectangle(-1 - 0.5j, 2 + 1j),
    TruncatedPlane(2.5),
]


def _boundary_gap(domain, z: complex) -> float:
    """Distance from an inside point ``z`` to the boundary of ``domain``."""
    if isinstance(domain, Rectangle):
        lo, hi = domain.corner_min, domain.corner_max
        return min(z.real - lo.real, hi.real - z.real, z.imag - lo.imag, hi.imag - z.imag)
    if isinstance(domain, Annulus):
        r = abs(z - domain.center)
        return min(r - domain.r_inner, domain.r_outer - r)
    center = domain.center if isinstance(domain, Disk) else 0j
    return domain.radius - abs(z - center)


class TestDomains:
    def test_puncture_must_be_interior(self):
        with pytest.raises(ValueError):
            Disk(0, 1.0, punctures=(2.0 + 0j,))
        with pytest.raises(ValueError):
            Annulus(0, 0.5, 2.0, punctures=(0j,))

    def test_punctures_distinct(self):
        with pytest.raises(ValueError):
            TruncatedPlane(3.0, punctures=(1.0 + 0j, 1.0 + 0j))

    def test_degenerate_regions_rejected(self):
        with pytest.raises(ValueError):
            Disk(0, -1.0)
        with pytest.raises(ValueError):
            Annulus(0, 2.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1 + 1j, 1 + 2j)

    @pytest.mark.parametrize(
        "make",
        [lambda: Disk(0, math.inf), lambda: Disk(0, 1e308), lambda: TruncatedPlane(2e308),
         lambda: Annulus(0, 1.0, math.inf), lambda: Rectangle(-1e308, 1e308 + 1j)],
        ids=["disk-inf", "disk-1e308", "plane-inf", "annulus-inf", "rectangle-wide"],
    )
    def test_size_that_is_not_finite_is_refused(self, make):
        with pytest.raises(ValueError, match="not of finite size"):
            make()

    def test_containment(self):
        ann = Annulus(0, 0.5, 2.0)
        assert ann.contains(1.0)
        assert not ann.contains(0.1)
        assert not ann.contains(2.5)
        rect = Rectangle(0, 2 + 1j)
        assert rect.contains(1 + 0.5j)
        assert not rect.contains(-0.1 + 0.5j)

    @pytest.mark.parametrize("margin", [0.0, 0.2])
    @pytest.mark.parametrize("domain", SHAPES, ids=lambda d: type(d).__name__)
    def test_contains_on_array_matches_points(self, domain, margin):
        rng = np.random.default_rng(1)
        x0, x1, y0, y1 = domain.bbox()
        zs = rng.uniform(x0 - 0.5, x1 + 0.5, 400) + 1j * rng.uniform(y0 - 0.5, y1 + 0.5, 400)
        got = domain.contains(zs, margin)
        assert got.shape == zs.shape
        assert got.tolist() == [bool(domain.contains(complex(z), margin)) for z in zs]
        assert 0 < got.sum() < zs.size

    @pytest.mark.parametrize(
        "domain, gap",
        [
            (SHAPES[0], lambda z: 1.5e-3),
            (SHAPES[1], lambda z: 1e-3 * (2.0 if abs(z - 0.1j) > 1.0 else 0.5)),
            (SHAPES[2], lambda z: 0.75e-3),
            (SHAPES[3], lambda z: 2.5e-3),
        ],
        ids=["disk", "annulus", "rectangle", "truncated_plane"],
    )
    def test_rim_lies_inside_at_the_inset(self, domain, gap):
        pts = domain.rim(1e-3, 0.05)
        assert len(pts) >= 16
        assert np.all(domain.contains(pts))
        for z in pts:
            assert abs(_boundary_gap(domain, z) - gap(z)) < 1e-12

    def test_annulus_drops_chords_through_the_hole(self):
        za = np.array([-1.0 + 0j, 1.0 + 0j])
        zb = np.array([1.0 + 0j, 1.0 + 1.0j])
        assert Annulus(0, 0.5, 2.0).keeps_segments(za, zb).tolist() == [False, True]
        assert Disk(0, 2.0).keeps_segments(za, zb).tolist() == [True, True]


class TestRegularity:
    def test_polynomial_g_vacuous(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        assert t.regularity.overall and t.regularity.checked

    def test_catenoid_pole_outside_annulus(self):
        t = make_triple(Annulus(0, 0.5, 2.0), "1/z^2", "z", 2)
        assert t.regularity.overall

    def test_missing_zero_of_f(self):
        with pytest.raises(RegularityViolation) as err:
            make_triple(Disk(0, 2.0), "1", "1/z", 1)
        assert abs(err.value.point) < 1e-6

    def test_pole_of_f_rejected(self):
        with pytest.raises(NonHolomorphic):
            make_triple(Disk(0, 2.0), "1/(z-1)", "z", 1)

    def test_matched_orders_accepted(self):
        for m in (1, 2, 3):
            t = make_triple(Disk(0, 2.0), f"z^{m}", "1/z", m)
            assert t.regularity.overall

    def test_wrong_order_rejected(self):
        with pytest.raises(RegularityViolation):
            make_triple(Disk(0, 2.0), "z", "1/z", 2)  # needs order 2, has 1

    def test_stray_zero_rejected(self):
        with pytest.raises(RegularityViolation):
            make_triple(Disk(0, 2.0), "z-1", "z", 2)

    def test_exp_data_unchecked(self):
        t = make_triple(Disk(0, 1.0), "exp(z)", "z", 1)
        assert not t.regularity.checked

    def test_double_pole(self):
        t = make_triple(Disk(0, 2.0), "(z-1)^2", "1/(z-1)^2 + 1", 1)
        assert t.regularity.overall

    def test_report_serializes(self):
        rep = check_regularity(Disk(0, 2.0), parse_mero("z^2"), parse_mero("1/z^2"), 1)
        d = encode_report(rep)
        assert d["overall"] and d["checked"]
        assert d["entries"][0]["f_order"] == 2
        assert d["entries"][0]["g_order"] == -2

    @pytest.mark.parametrize("f, g, name", [("1", "z^1000", "g"), ("z^1000", "1/z^1000", "f")])
    def test_order_the_sampler_cannot_determine_names_its_expression(self, f, g, name):
        # |z|^1000 underflows to 0 at the sampling radii 1e-3..1e-5
        with pytest.raises(ArgumentError, match="cannot sample magnitudes") as info:
            check_regularity(Disk(0, 1.0), parse_mero(f), parse_mero(g), 1)
        assert info.value.name == name

    @pytest.mark.parametrize(
        "f, g, name", [("1/0", "z", "f"), ("1", "z/(z-z)", "g"), ("1/(z-z)", "1/0", "f")]
    )
    def test_identically_infinite_data_names_its_expression(self, f, g, name):
        with pytest.raises(ArgumentError, match="identically infinite") as info:
            check_regularity(Disk(0, 1.0), parse_mero(f), parse_mero(g), 1)
        assert info.value.name == name

    def test_m_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            make_triple(Disk(0, 1.0), "1", "z", 0)


class TestMetricDensity:
    def test_unit_at_origin(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        assert abs(metric_density(t, 0) - 1.0) < 1e-14

    def test_value_at_rim(self):
        t = make_triple(Disk(0, 1.5), "1", "z", 2)
        assert abs(metric_density(t, 1.0) - 2.0) < 1e-14

    def test_constant_gary(self):
        for m in (1, 2, 5):
            t = make_triple(Disk(0, 1.0), "1", "0.5+0.5*i", m)
            want = (1 + 0.5) ** (m / 2)
            for z in (0, 0.3 + 0.4j):
                assert abs(metric_density(t, z) - want) < 1e-14

    def test_puncture_guarded(self):
        t = make_triple(TruncatedPlane(3.0, punctures=(1 + 0j,)), "1/(z-1)", "z", 1)
        with pytest.raises(Exception):
            metric_density(t, 1.0)

    def test_continuity_across_pole_of_g(self):
        # reciprocal-route values agree with radial limits of the direct
        # formula; at radius r the direct value differs from the limit by
        # O(r^2), so small radii stand in for the limit
        for m in (1, 2, 3):
            t = make_triple(Disk(0, 2.0), f"z^{m}", "1/z", m)
            at_pole_lam = metric_density(t, 0)
            at_pole_k = curvature(t, 0)
            for r in (1e-4, 3e-4):
                lam = metric_density(t, r)
                k = curvature(t, r)
                assert abs(lam - at_pole_lam) < 1e-6
                assert abs(k - at_pole_k) < 1e-6 * abs(at_pole_k)

    def test_overflow_at_a_point_is_an_eval_error(self):
        # (1 + 1/4)^(5 * 10^6) overflows a float; the array path gives inf and
        # repairs it with the point evaluator
        t = make_triple(Disk(0, 1.0), "1", "z/2", 10**7)
        for at_point in (metric_density, curvature):
            with pytest.raises(EvalError, match="overflows"):
                at_point(t, 0.5)
        with pytest.raises(EvalError, match="overflows"):
            metric_density_array(t, np.array([0.0, 0.5]))
        assert metric_density(t, 0) == 1.0

    def test_vectorized_matches_scalar(self):
        t = make_triple(Disk(0, 2.0), "z", "1/z", 1)
        zs = np.array([0.0, 0.5, 1j, 0.3 + 0.3j])
        lam = metric_density_array(t, zs)
        for z, v in zip(zs, lam):
            assert abs(metric_density(t, complex(z)) - v) < 1e-12


class TestCurvature:
    def test_flat_for_constant_g(self):
        t = make_triple(Disk(0, 1.0), "1", "0.7", 3)
        assert curvature(t, 0.2 + 0.1j) == 0.0

    def test_explicit_values(self):
        assert abs(curvature(make_triple(Disk(0, 1.0), "1", "z", 2), 0) + 4.0) < 1e-10
        assert abs(curvature(make_triple(Disk(0, 1.0), "1", "z", 1), 0) + 2.0) < 1e-10

    def test_catenoid_point(self):
        t = make_triple(Annulus(0, 0.5, 2.0), "1/z^2", "z", 2)
        assert abs(curvature(t, 1.0) + 0.25) < 1e-12

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            t = random_regular_triple(rng, int(rng.integers(1, 4)))
            pts = sample_points_away(rng, t, 5)
            for z in pts:
                assert curvature(t, z) <= 0.0

    def test_scaling_law(self):
        # f -> c f multiplies the density by |c| and K by 1/|c|^2, exactly
        rng = np.random.default_rng(41)
        t = random_regular_triple(rng, 2)
        c = 1.7 - 0.9j
        t2 = make_triple(t.domain, Mul(Const(c), t.f), t.g, t.m)
        for z in sample_points_away(rng, t, 5):
            lam1, lam2 = metric_density(t, z), metric_density(t2, z)
            k1, k2 = curvature(t, z), curvature(t2, z)
            assert abs(lam2 - abs(c) * lam1) <= 1e-12 * max(1.0, lam2)
            assert abs(k2 * abs(c) ** 2 - k1) <= 1e-12 * max(1.0, abs(k1))


class TestCurvatureFD:
    def test_explicit_value_with_richardson(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        assert abs(curvature_fd(t, 0, 1e-3) + 4.0) < 1e-5
        assert abs(curvature_fd(t, 0, 1e-3, richardson=True) + 4.0) < 1e-9

    def test_harmonic_for_constant_g(self):
        t = make_triple(Disk(0, 1.0), "1", "0.4", 2)
        assert abs(curvature_fd(t, 0.2 + 0.1j, 1e-3)) < 1e-8

    def test_exp_triple_cross_check(self):
        t = make_triple(Disk(0, 1.0), "exp(z)", "z", 1)
        z = 0.3 + 0.1j
        kc = curvature(t, z)
        kf = curvature_fd(t, z, 1e-3)
        assert abs(kc - kf) / abs(kc) < 1e-4

    @pytest.mark.parametrize(
        "z, h, richardson",
        [(0, 1e-320, False), (0, 1e-170, False), (0.5, 1e-17, False), (0.5j, 1e-17, False),
         (0.5, 1e-16, True), (0, math.nextafter(2**-26, 0), False), (1e9, 2e-8, False)],
        ids=["square-underflows", "square-underflows-normal-h", "point-on-centre",
             "imaginary-point-on-centre", "half-step-on-centre", "square-below-unit-ulp",
             "far-point-on-centre"],
    )
    def test_step_below_the_stencil_resolution_is_refused(self, z, h, richardson):
        # below 2**-26 the square is below 2**-52, the ulp at 1, and one rounding
        # of a unit-size log-density moves the Laplacian by more than 1;
        # 0.5 + 1e-17 and 0.5 + 5e-17 also round back onto 0.5, and 1e9 + 2e-8
        # onto 1e9, though 2e-8 squared is above 2**-52
        t = make_triple(Disk(0, 2e9), "1", "z", 2)
        with pytest.raises(ArgumentError) as info:
            curvature_fd(t, z, h, richardson)
        assert info.value.name == "h"

    def test_smallest_step_accepted_squares_to_the_unit_ulp(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        assert math.isfinite(curvature_fd(t, 0, 2**-26))

    def test_stencil_must_stay_inside(self):
        t = make_triple(Disk(0, 1.0), "1", "z", 2)
        with pytest.raises(Exception):
            curvature_fd(t, 0.9999, 1e-3)

    def test_oracle_agreement_random(self):
        # closed form vs -(laplacian log density)/density^2 on random triples
        rng = np.random.default_rng(42)
        for k in range(25):
            t = random_regular_triple(rng, k % 3 + 1)
            for z in sample_points_away(rng, t, 3):
                kc = curvature(t, z)
                kf = curvature_fd(t, z, 1e-3)
                assert abs(kc - kf) / max(abs(kc), 1e-8) < 1e-4

    def test_vectorized_curvature_matches(self):
        rng = np.random.default_rng(43)
        t = random_regular_triple(rng, 2)
        pts = np.asarray(sample_points_away(rng, t, 8))
        kv = curvature_array(t, pts)
        for z, v in zip(pts, kv):
            assert abs(curvature(t, complex(z)) - v) < 1e-10


# ---------------------------------------------------------------------------
# The paired point and array versions that the shared formulas replaced, kept
# as references: the shared code must give the same bits, repaired entries
# included, and the same exception types.
# ---------------------------------------------------------------------------


def _ref_guard(t, z):
    if t.domain.puncture_gap(z) < 1e-12:
        raise EvalError(f"evaluation at a puncture: z={z}")


def _ref_reduced_pair(t):
    return invert_expr(t.g), _mul(_pow(t.g, t.m), t.f)


def _ref_metric_density(t, z):
    _ref_guard(t, z)
    gv = eval_ext(t.g, z)
    if not gv.is_inf and abs(gv.value) <= 1e6:
        fv = eval_ext(t.f, z)
        if fv.is_inf:
            raise EvalError(f"f has a pole at z={z}")
        return (1.0 + abs(gv.value) ** 2) ** (t.m / 2.0) * abs(fv.value)
    ginv, fred = _ref_reduced_pair(t)
    gv2 = eval_ext(ginv, z)
    fv2 = eval_ext(fred, z)
    if gv2.is_inf or fv2.is_inf:
        raise EvalError(f"density indeterminate at z={z}")
    return (1.0 + abs(gv2.value) ** 2) ** (t.m / 2.0) * abs(fv2.value)


def _ref_curvature(t, z):
    _ref_guard(t, z)
    gv = eval_ext(t.g, z)
    if not gv.is_inf and abs(gv.value) <= 1e6:
        fv = eval_ext(t.f, z)
        gd = eval_ext(derivative(t.g), z)
        if fv.is_inf or gd.is_inf:
            raise EvalError(f"curvature indeterminate at z={z}")
        if fv.value == 0:
            raise EvalError(f"f vanishes at z={z}; metric is degenerate there")
        den = (1.0 + abs(gv.value) ** 2) ** (t.m + 2) * abs(fv.value) ** 2
        return -2.0 * t.m * abs(gd.value) ** 2 / den
    ginv, fred = _ref_reduced_pair(t)
    gv2 = eval_ext(ginv, z)
    gd2 = eval_ext(derivative(ginv), z)
    fv2 = eval_ext(fred, z)
    if gv2.is_inf or gd2.is_inf or fv2.is_inf or fv2.value == 0:
        raise EvalError(f"curvature indeterminate at z={z}")
    den = (1.0 + abs(gv2.value) ** 2) ** (t.m + 2) * abs(fv2.value) ** 2
    return -2.0 * t.m * abs(gd2.value) ** 2 / den


def _ref_metric_density_array(t, zs):
    zs = np.asarray(zs, dtype=complex)
    gv = eval_array(t.g, zs)
    fv = eval_array(t.f, zs)
    with np.errstate(all="ignore"):
        out = (1.0 + np.abs(gv) ** 2) ** (t.m / 2.0) * np.abs(fv)
        bad = ~np.isfinite(out) | (np.abs(gv) > 1e6)
    flat = out.ravel()
    zf = zs.ravel()
    for k in np.nonzero(bad.ravel())[0]:
        flat[k] = _ref_metric_density(t, complex(zf[k]))
    return out


def _ref_curvature_array(t, zs):
    zs = np.asarray(zs, dtype=complex)
    gv = eval_array(t.g, zs)
    fv = eval_array(t.f, zs)
    gd = eval_array(derivative(t.g), zs)
    with np.errstate(all="ignore"):
        den = (1.0 + np.abs(gv) ** 2) ** (t.m + 2) * np.abs(fv) ** 2
        out = -2.0 * t.m * np.abs(gd) ** 2 / den
        bad = ~np.isfinite(out) | (np.abs(gv) > 1e6)
    flat = out.ravel()
    zf = zs.ravel()
    for k in np.nonzero(bad.ravel())[0]:
        flat[k] = _ref_curvature(t, complex(zf[k]))
    return out


def _reference_triples():
    """Poles of g at +-0.5 and 0 (m = 1, 2, 3), a puncture at 0.25, a zero of
    f where g is finite (an irregular triple, built without the check) and
    exp data with a pole of g at i*pi."""
    out = []
    for m in (1, 2, 3):
        out.append(make_triple(Disk(0, 2.0), f"(z^2 - 0.25)^{m}", "(z - 1)/(z^2 - 0.25)", m))
        out.append(make_triple(Disk(0, 2.0, punctures=(0.25 + 0j,)), f"z^{m}", "1/z", m))
    out.append(MTriple(Disk(0, 2.0), parse_mero("z - 0.3"), parse_mero("z"), 1))
    out.append(make_triple(Disk(0, 4.0), "(1 + exp(z))^2", "exp(z)/(1 + exp(z))", 2))
    return out


def _reference_points():
    rng = np.random.default_rng(60)
    ring = np.exp(2j * np.pi * np.arange(8) / 8)
    special = [0.5, -0.5, 0.0, 0.25, 0.3, 1j * math.pi, 1j * math.pi + 1e-9, 1.0]
    near = [c + r * ring for c in (0.5, -0.5, 0.0, 1j * math.pi) for r in (1e-7, 1e-9)]
    pts = rng.uniform(-1.8, 1.8, 40) + 1j * rng.uniform(-1.8, 1.8, 40)
    return np.concatenate([pts, np.asarray(special, dtype=complex), *near])


class TestSharedFormulasMatchPairedReference:
    @pytest.mark.parametrize("k", range(8))
    def test_point_versions(self, k):
        t = _reference_triples()[k]
        outcomes = set()
        for z in _reference_points():
            z = complex(z)
            for new, ref in ((metric_density, _ref_metric_density), (curvature, _ref_curvature)):
                got = outcome_bits(new, t, z)
                assert got == outcome_bits(ref, t, z), (new.__name__, z)
                outcomes.add(got if isinstance(got, type) else float)
        assert float in outcomes

    def test_cases_reach_every_branch(self):
        t_pole, t_punct, t_zero, t_exp = (_reference_triples()[k] for k in (0, 1, 6, 7))
        assert outcome_bits(metric_density, t_punct, 0.25 + 0j) is EvalError
        assert outcome_bits(curvature, t_zero, 0.3 + 0j) is EvalError
        assert metric_density(t_zero, 0.3 + 0j) == 0.0
        for t, z in ((t_pole, 0.5), (t_pole, 0.5 + 1e-9), (t_exp, 1j * math.pi)):
            gv = eval_ext(t.g, complex(z))
            assert gv.is_inf or abs(gv.value) > 1e6  # the reciprocal route
            assert curvature(t, complex(z)) < 0.0

    @pytest.mark.parametrize("k", range(8))
    def test_array_versions(self, k):
        t = _reference_triples()[k]
        zs = _reference_points()
        pairs = (
            (metric_density_array, _ref_metric_density_array, _ref_metric_density),
            (curvature_array, _ref_curvature_array, _ref_curvature),
        )
        for new, ref, ref_point in pairs:
            assert outcome_bits(new, t, zs) == outcome_bits(ref, t, zs)
            # without the points that fail, every repaired entry is compared too
            ok = np.array([not raises(ref_point, t, complex(z)) for z in zs])
            got = outcome_bits(new, t, zs[ok])
            assert got == outcome_bits(ref, t, zs[ok])
            assert got[0] is np.ndarray
            with np.errstate(all="ignore"):
                big = np.abs(eval_array(t.g, zs[ok])) > 1e6
            assert k == 6 or big.any()  # every triple but the entire g = z repairs


def test_pole_side_trees_are_lowered_once(monkeypatch):
    # past the pole threshold the point evaluators switch to 1/g, g^m f and
    # 1/h; each of those trees is built and lowered on the first point only
    from mtriples import expr

    fresh = []
    lower = expr._lower

    def counting_lower(e):
        if getattr(e, "_program", None) is None:
            fresh.append(e)
        return lower(e)

    monkeypatch.setattr(expr, "_lower", counting_lower)
    t = make_triple(Disk(0, 2.0), "z^2", "1/z", 2)
    h = parse_mero("1/(z - 0.5)")
    counts = []
    for z, w in ((1e-7, 0.5 + 1e-3), (2e-7j, 0.5 - 2e-3j)):
        metric_density(t, z)
        curvature(t, z)
        expr.spherical_gradient(h, w)
        counts.append(len(fresh))
    assert counts[0] > 0 and counts[1] == counts[0]
    assert invert_expr(t.g) is invert_expr(t.g)
    assert invert_expr(Const(0j)) is not invert_expr(Const(-0j))
