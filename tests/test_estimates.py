"""Property predicates, the explicit constant, verification, probes."""

import math

import numpy as np
import pytest

from mtriples.estimates import (
    Bounded,
    Omits,
    PropertyViolation,
    curvature_constant,
    fujimoto_ratio,
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
    eval_ext,
    parse_mero,
    spherical_gradient,
    to_source,
)
from mtriples.geodesy import build_mesh
from mtriples.mtriple import Disk, make_triple

from _helpers import random_bounded_triple

ONES = lambda zs: np.ones(np.shape(zs))
SQRT2 = math.sqrt(2.0)


class TestPropertySpec:
    def test_bounded_positive(self):
        with pytest.raises(ValueError):
            Bounded(0.0)

    def test_omits_distinct(self):
        with pytest.raises(ValueError):
            Omits((ExtComplex(1 + 0j), ExtComplex(1 + 0j)))
        Omits((ExtComplex(0j), INFINITY))  # fine


@pytest.fixture(scope="module")
def unit_mesh():
    return build_mesh(Disk(0, 1.0), ONES, 100)


class TestPropertyCheck:
    def test_bounded_pass(self, unit_mesh):
        rep = property_check(parse_mero("z/2"), Bounded(1.0), unit_mesh)
        assert rep.verdict
        assert abs(rep.extremum - 0.5) < 0.02
        assert abs(abs(rep.witness) - 1.0) < 0.02  # attained at the rim

    def test_bounded_fail_flags_witness(self, unit_mesh):
        rep = property_check(parse_mero("2*z"), Bounded(1.0), unit_mesh)
        assert not rep.verdict
        assert rep.extremum > 1.0
        assert len(rep.near_points) > 0

    def test_omits_exponential(self, unit_mesh):
        rep = property_check(
            parse_mero("exp(z)"), Omits((ExtComplex(0j), INFINITY)), unit_mesh
        )
        assert rep.verdict and rep.extremum > 1e-3

    def test_removable_site_reads_as_its_limit(self):
        # g = z*z/(2*z) is g = z/2 with the node 0 a removable site, not a pole
        t = make_triple(Disk(0, 1.0), "1", "z*z/(2*z)", 2)
        mesh = build_mesh(t.domain, t.density, 40)
        assert np.min(np.abs(mesh.nodes)) == 0.0
        rep = property_check(t.g, Bounded(1.0), mesh)
        want = property_check(parse_mero("z/2"), Bounded(1.0), mesh)
        assert rep.verdict and want.verdict
        assert abs(rep.extremum - want.extremum) <= 1e-12
        assert verify_estimate(t, Bounded(1.0), mesh).verdict == "pass"

    def test_omits_identity_at_punctures(self):
        t = optimal_example(1, [1.0, -1.0])
        mesh = build_mesh(t.domain, t.density, 150, refine_punctures=False)
        prop = Omits((ExtComplex(1 + 0j), ExtComplex(-1 + 0j), INFINITY))
        rep = property_check(t.g, prop, mesh)
        assert rep.verdict


class TestCurvatureConstant:
    def test_paper_value(self):
        # sqrt(2m) L (1+L^2)^(m/2) at L=1, m=2: 2 * 1 * 2 = 4
        assert curvature_constant(Bounded(1.0), 2) == 4.0

    def test_m_one(self):
        assert abs(curvature_constant(Bounded(1.0), 1) - 2.0) < 1e-15

    def test_absent_for_omission(self):
        assert curvature_constant(Omits((ExtComplex(0j), ExtComplex(1 + 0j), INFINITY)), 1) is None

    def test_overflow_is_an_argument_error_on_m(self):
        for L, m in ((1.0, 10**7), (1e200, 1)):
            with pytest.raises(ArgumentError, match="overflows") as refused:
                curvature_constant(Bounded(L), m)
            assert refused.value.name == "m"

    def test_monotone_in_limit_and_m(self):
        for m in (1, 2, 3):
            vals = [curvature_constant(Bounded(L), m) for L in (0.5, 1.0, 2.0, 4.0)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for L in (0.5, 1.0, 2.0):
            vals = [curvature_constant(Bounded(L), m) for m in (1, 2, 3, 4)]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestVerifyEstimate:
    def test_halved_identity_example(self):
        # K(0) = -1 and d(0) = 13/12 by hand, so the sup sits near 1.17
        t = make_triple(Disk(0, 1.0), "1", "z/2", 2)
        mesh = build_mesh(t.domain, t.density, 100)
        rep = verify_estimate(t, Bounded(1.0), mesh)
        assert rep.verdict == "pass"
        assert rep.constant_squared == 16.0
        assert 1.05 < rep.sup < 1.30
        assert abs(rep.arg_max) < 0.05

    def test_constant_g_trivial(self):
        t = make_triple(Disk(0, 1.0), "1", "0.5", 2)
        mesh = build_mesh(t.domain, t.density, 60)
        rep = verify_estimate(t, Bounded(1.0), mesh)
        assert rep.verdict == "pass" and rep.sup == 0.0

    def test_property_violation_raises(self):
        t = make_triple(Disk(0, 1.0), "1", "2*z", 2)
        mesh = build_mesh(t.domain, t.density, 60)
        with pytest.raises(PropertyViolation):
            verify_estimate(t, Bounded(1.0), mesh)

    def test_omission_is_empirical_only(self):
        t = optimal_example(1, [1.0, -1.0])
        mesh = build_mesh(t.domain, t.density, 100)
        prop = Omits((ExtComplex(1 + 0j), ExtComplex(-1 + 0j), INFINITY))
        rep = verify_estimate(t, prop, mesh)
        assert rep.verdict == "empirical-only"
        assert rep.constant_squared is None
        assert rep.sup > 0

    def test_randomized_suite_quick(self):
        # smaller-resolution rehearsal of the acceptance suite
        rng = np.random.default_rng(100)
        combos = [(L, m) for L in (0.5, 1.0, 2.0) for m in (1, 2, 3)]
        for k in range(12):
            L, m = combos[k % len(combos)]
            t = random_bounded_triple(rng, L, m)
            mesh = build_mesh(t.domain, t.density, 80)
            rep = verify_estimate(t, Bounded(L), mesh)
            assert rep.verdict == "pass", (L, m, rep.sup, rep.constant_squared)


class TestOptimalExample:
    def test_structure(self):
        t = optimal_example(2, [0.0, 1.0, -1.0])
        assert t.m == 2
        assert t.regularity.overall
        assert to_source(t.g) == "z"
        assert set(t.domain.punctures) == {0j, 1 + 0j, -1 + 0j}

    def test_f_is_reciprocal_product(self):
        t = optimal_example(1, [1.0, -1.0])
        # f(z) = 1/(z^2 - 1) up to association
        for z in (0.5j, 2j, 0.3 + 0.1j):
            got = eval_ext(t.f, z).value
            assert abs(got - 1.0 / (z * z - 1.0)) < 1e-12

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            optimal_example(1, [1.0, -1.0, 2.0])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            optimal_example(1, [1.0, 1.0])

    def test_radius_that_leaves_an_alpha_outside_is_refused_at_radius(self):
        with pytest.raises(ArgumentError, match="outside") as refused:
            optimal_example(1, [1.0, -1.0], radius=0.5)
        assert refused.value.name == "radius"


@pytest.fixture(scope="module")
def mesh3():
    return build_mesh(Disk(0, 3.0), ONES, 120)


class TestFujimotoRatio:
    def test_eta_range_enforced(self, mesh3):
        f = parse_mero("exp(z)/(1+exp(z))")
        X = (ExtComplex(0j), ExtComplex(1 + 0j), INFINITY)
        with pytest.raises(ValueError):
            fujimoto_ratio(f, X, 0.4, 3.0, mesh3)  # (q-2)/q = 1/3
        with pytest.raises(ValueError):
            fujimoto_ratio(f, (ExtComplex(0j), ExtComplex(1 + 0j)), 0.1, 3.0, mesh3)

    def test_finite_stable_sup(self, mesh3):
        f = parse_mero("exp(z)/(1+exp(z))")
        X = (ExtComplex(0j), ExtComplex(1 + 0j), INFINITY)
        rep = fujimoto_ratio(f, X, 0.25, 3.0, mesh3)
        assert math.isfinite(rep.sup) and rep.sup > 0
        fine = build_mesh(Disk(0, 3.0), ONES, 180)
        rep2 = fujimoto_ratio(f, X, 0.25, 3.0, fine)
        assert abs(rep2.sup - rep.sup) / rep.sup < 0.05  # stable under refinement

    def test_constant_map_zero(self, mesh3):
        rep = fujimoto_ratio(
            parse_mero("0.5"), (ExtComplex(0j), ExtComplex(1 + 0j), INFINITY), 0.25, 3.0, mesh3
        )
        assert rep.sup == 0.0

    def test_removable_site_reads_as_its_limit(self):
        # f = z*z/z takes the value 0 at the node 0, not one of the omitted values
        mesh = build_mesh(Disk(0, 0.9), ONES, 40)
        assert np.min(np.abs(mesh.nodes)) == 0.0
        X = (ExtComplex(1.2 + 0j), ExtComplex(-1.2 + 0j), INFINITY)
        rep = fujimoto_ratio(parse_mero("z*z/z"), X, 0.2, 0.9, mesh)
        want = fujimoto_ratio(parse_mero("z"), X, 0.2, 0.9, mesh)
        assert abs(rep.sup - want.sup) <= 1e-12 * want.sup

    def test_attained_value_rejected(self, mesh3):
        f = parse_mero("z")  # attains 0 inside
        with pytest.raises(PropertyViolation):
            fujimoto_ratio(f, (ExtComplex(0j), ExtComplex(10 + 0j), INFINITY), 0.25, 3.0, mesh3)


class TestMarty:
    REGION = Disk(0, 0.5)

    def test_dilation_family_unbounded(self):
        rep = marty_sup(
            lambda n: Mul(Const(complex(n)), Z), [1, 2, 4, 8, 16, 32], self.REGION, grid=100
        )
        assert rep.verdict == "unbounded-growth"
        assert abs(rep.slope - 1.0) < 0.05
        for n, s in zip(rep.indices, rep.sups):
            assert abs(s - 2 * SQRT2 * n) < 1e-9  # max of 2 sqrt2 n/(1+n^2|z|^2) at 0

    def test_translation_family_bounded(self):
        rep = marty_sup(
            lambda n: parse_mero(f"z + 1/{n}"), [2, 4, 8, 16, 32], self.REGION, grid=100
        )
        assert rep.verdict == "bounded"
        assert max(rep.sups) <= 2 * SQRT2 + 1e-12

    def test_constant_family_zero(self):
        rep = marty_sup(lambda n: Const(3 + 0j), [1, 2, 4], self.REGION, grid=50)
        assert all(s == 0.0 for s in rep.sups)
        assert rep.verdict == "bounded"

    @pytest.mark.parametrize("indices", [[], [3], [3, 3]])
    def test_fewer_than_two_distinct_indices_are_refused(self, indices):
        with pytest.raises(ArgumentError, match="two distinct indices") as refused:
            marty_sup(lambda n: Mul(Const(complex(n)), Z), indices, self.REGION, grid=20)
        assert refused.value.name == "indices"

    def test_grid_past_the_point_cap_is_refused(self):
        with pytest.raises(ArgumentError, match="cap") as refused:
            marty_sup(lambda n: Mul(Const(complex(n)), Z), [1, 2], self.REGION, grid=10**7)
        assert refused.value.name == "grid"

    def test_member_that_cannot_be_sampled_is_refused_at_its_position(self):
        # |f|^2 overflows for f = 1e308 z, and the pole-aware repair cannot
        # resolve the reciprocal's derivative either
        family = lambda n: Mul(Const(complex(n)), Z)
        with pytest.raises(ArgumentError, match="cannot be sampled") as refused:
            marty_sup(family, [1, int(1e308)], self.REGION, grid=20)
        assert refused.value.name == "indices/1"

    def test_index_past_the_largest_float_is_refused(self):
        # every member samples fine, but log n of the second has no float
        with pytest.raises(ArgumentError, match="largest float") as refused:
            marty_sup(lambda n: parse_mero("z^2"), [2, 10**400], self.REGION, grid=20)
        assert refused.value.name == "indices/1"


class TestZalcman:
    def test_dilation_closed_form(self):
        # |grad (nz)|_c peaks at 0 with value sqrt2 n, so the scale is 2 sqrt2 n
        for n in (10, 100):
            res = zalcman_rescale(parse_mero(f"{n}*z"), searchgrid=150)
            assert abs(res.scale - 2 * SQRT2 * n) < 1e-6 * n
            assert abs(res.gradient_at_zero - 1.0) <= 1e-9
            assert res.envelope_max_violation <= 1e-9
            # f(z) = z/(2 sqrt2): check pointwise
            for z in (0.5, 1j, 2 - 1j):
                want = eval_ext(parse_mero(f"{n}*z"), z / res.scale).value
                got = eval_ext(res.rescaled, z).value
                assert abs(got - want) < 1e-9

    def test_normalized_fixed_point(self):
        # already normalized data comes back evaluation-equal
        c = 1.0 / (2 * SQRT2)
        h = Mul(Const(c), Z)
        assert abs(spherical_gradient(h, 0) - 1.0) < 1e-15
        res = zalcman_rescale(h, searchgrid=100)
        assert abs(res.scale - 1.0) < 1e-12
        for z in (0.3, -0.2 + 0.7j):
            assert abs(
                eval_ext(res.rescaled, z).value - eval_ext(h, z).value
            ) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            zalcman_rescale(Const(2 + 0j))

    def test_search_grid_past_the_point_cap_is_refused(self):
        with pytest.raises(ArgumentError, match="cap") as refused:
            zalcman_rescale(parse_mero("10*z"), searchgrid=10**7)
        assert refused.value.name == "searchgrid"

    def test_offcenter_maximum(self):
        # the hyperbolic-gradient max of 5(z - 0.3) sits at an interior point
        # away from the origin; the recentering must still normalize exactly
        res = zalcman_rescale(parse_mero("5*(z - 0.3)"), searchgrid=200)
        assert abs(res.center) > 0.05
        assert abs(res.gradient_at_zero - 1.0) <= 1e-9
        assert res.envelope_max_violation <= 1e-9
