"""estimate-sweep: curvature-estimate verification on bounded and extremal triples.

Each job runs make_triple -> build_mesh(density) -> property_check ->
verify_estimate -> curvature_constant, like one step of the ac03 sweep.  The
unit disk is meshed at resolution 200 eight times and at 400 four times per
pass, so mesh topology is rebuilt for the same (domain, resolution) again and
again; two extremal examples on punctured truncated planes add the puncture
refinement rings and the empirical-only verdict.  The triple mix (degree, L,
m) is fixed; the seed draws the coefficients, so every seed costs the same.
"""

from __future__ import annotations

import math

import numpy as np

from common import Job, Outcome, parsed_value, poly_text
from mtriples.estimates import (
    Bounded,
    Omits,
    curvature_constant,
    optimal_example,
    property_check,
    verify_estimate,
)
from mtriples.expr import INFINITY, ExtComplex
from mtriples.geodesy import build_mesh
from mtriples.mtriple import Disk, make_triple

TOLERANCE = 1e-9
MESH_TOLERANCE = 0.05  # the verdict slack verify_estimate states

# (resolution, L, m, degree of g) for the bounded triples of one pass: every
# (L, m) pair once, the four resolution-400 jobs alike (L = 1, m = 2, degree
# 2) so that they cost about the same and the job-tail percentile (p80 of
# 4 x 14 samples) falls among them.
_PAIRS = [(0.5, 1), (0.5, 2), (0.5, 3), (1.0, 1), (1.0, 3), (2.0, 1), (2.0, 2), (2.0, 3)]
_PLAN = [(200, L, m, 1 + k % 3) for k, (L, m) in enumerate(_PAIRS)] + [(400, 1.0, 2, 2)] * 4


def _bounded_coeffs(rng: np.random.Generator, limit: float, degree: int) -> np.ndarray:
    """Polynomial with max |g| on the unit circle at a seeded 50-95% of limit."""
    coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    if abs(coeffs[0]) < 0.2:
        coeffs[0] += 0.4
    rim = np.exp(2j * np.pi * np.arange(720) / 720)
    scale = rng.uniform(0.5, 0.95) * limit / np.abs(np.polyval(coeffs, rim)).max()
    return np.array([parsed_value(c) for c in coeffs * scale])


def _bounded_job(name: str, res: int, L: float, m: int, coeffs: np.ndarray) -> Job:
    g_text = poly_text(coeffs)

    def run(state):
        t = make_triple(Disk(0, 1.0), "1", g_text, m)
        mesh = build_mesh(t.domain, t.density, res)
        prop = Bounded(L)
        check = property_check(t.g, prop, mesh)
        est = verify_estimate(t, prop, mesh)
        return check, est, curvature_constant(prop, m)

    def check(result):
        prop, est, c = result
        out = Outcome(verdict=est.verdict)
        want_c = math.sqrt(2.0 * m) * L * (1.0 + L * L) ** (m / 2.0)
        out.within("constant", c, want_c, 1e-12 * want_c)
        out.expect(prop.verdict, "bounded property rejected a g scaled below its limit")
        out.within("extremum", prop.extremum, abs(np.polyval(coeffs, prop.witness)), 1e-12)
        out.expect(est.verdict == "pass", f"verdict {est.verdict!r}, want 'pass'")
        ratio = est.sup / (c * c)
        out.below("sup/constant^2", ratio, 1.0 + MESH_TOLERANCE)
        out.numbers = {"sup_over_c2": ratio, "extremum": prop.extremum}
        return out

    return Job(name, run, check)


def _optimal_job(name: str, m: int, alphas: list) -> Job:
    def run(state):
        t = optimal_example(m, alphas)
        mesh = build_mesh(t.domain, t.density, 200)
        prop = Omits(tuple(ExtComplex(a) for a in alphas) + (INFINITY,))
        check = property_check(t.g, prop, mesh)
        est = verify_estimate(t, prop, mesh)
        return check, est, curvature_constant(prop, m)

    def check(result):
        prop, est, c = result
        out = Outcome(verdict=est.verdict)
        out.expect(c is None and est.constant_squared is None, "omits property has no constant")
        out.expect(prop.verdict and prop.extremum > 1e-3, "g = z must omit the punctures")
        out.expect(est.verdict == "empirical-only", f"verdict {est.verdict!r}")
        out.expect(math.isfinite(est.sup) and est.sup > 0, f"sup {est.sup!r}")
        out.numbers = {"sup": est.sup, "extremum": prop.extremum}
        return out

    return Job(name, run, check)


def generate(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for k, (res, L, m, deg) in enumerate(_PLAN):
        coeffs = _bounded_coeffs(rng, L, deg)
        jobs.append(_bounded_job(f"bounded{k:02d}.r{res}", res, L, m, coeffs))
    for m in (1, 2):
        rho = rng.uniform(0.8, 1.2)
        phase = rng.uniform(0, 2 * math.pi)
        alphas = [
            parsed_value(rho * np.exp(1j * (phase + 2 * math.pi * k / (m + 1))))
            for k in range(m + 1)
        ]
        jobs.append(_optimal_job(f"optimal.m{m}", m, alphas))
    return jobs
