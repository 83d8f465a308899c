"""expr-probe: expression evaluation, regularity and the omitted-value probes.

Seeded regular rational triples on D(0, 2) go through make_triple (the
regularity check samples local orders with the scalar evaluator), then the
closed-form curvature is compared with the Richardson finite-difference
oracle and the spherical gradient is evaluated on a point cloud that comes
within 1e-7 of the poles, so the array evaluator hands those points to the
scalar one.  Derivative towers of order 1-4 of a four-pole rational function
are each evaluated on 1e5 points, which shows how the tree evaluator grows
with the order.  marty_sup, zalcman_rescale and fujimoto_ratio run on small
grids and meshes, and completeness probes head into every puncture of an
extremal example and out to infinity.  Almost no mesh or surface work runs.

A pass has 13 jobs: one per triple (regularity, curvature and gradient),
the tower orders 0-4, the three omitted-value probes together and the three
completeness probes together.  The six triple jobs and order 3 take about
the same time, so the median and the tail of the job latencies both fall
among alike jobs rather than between two kinds.
"""

from __future__ import annotations

import math

import numpy as np

from common import Job, Outcome, cnum, max_rel_err, num, parsed_value, poly_text, unit
from mtriples.estimates import fujimoto_ratio, marty_sup, optimal_example, zalcman_rescale
from mtriples.expr import ExtComplex, INFINITY, derivative, eval_array, parse_mero, spherical_gradient_array
from mtriples.geodesy import build_mesh, completeness_probe
from mtriples.mtriple import Disk, curvature, curvature_fd, make_triple

TOLERANCE = 1e-9
SQRT8 = 2.0 * math.sqrt(2.0)
TOWER_POINTS = 100_000
CLOUD_POINTS = 600_000
CURVATURE_POINTS = 64
NEAR_POLE_POINTS = 64


def _regular_triple(rng: np.random.Generator, m: int):
    """g = p/q with separated simple roots, f = q^m: regular by construction."""
    while True:
        roots = []
        while len(roots) < 4:
            w = complex(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
            if all(abs(w - r) > 0.5 for r in roots):
                roots.append(w)
        if all(abs(w) > 0.4 for w in roots[2:]):
            break
    lead = parsed_value(rng.uniform(0.5, 1.5) * unit(rng))
    p = np.array([parsed_value(c) for c in lead * np.poly(roots[:2])])
    q = np.array([parsed_value(c) for c in np.poly(roots[2:])])
    return p, q


def _triple_job(k: int, m: int, p: np.ndarray, q: np.ndarray, rng: np.random.Generator) -> Job:
    """make_triple, curvature against the FD oracle, and the gradient on a cloud."""
    g_text = f"{poly_text(p)}/{poly_text(q)}"
    f_text = f"{poly_text(q)}^{m}"
    poles = np.roots(q)
    crit = np.roots(np.polysub(np.polymul(np.polyder(p), q), np.polymul(p, np.polyder(q))))
    keep_away = np.concatenate([poles, crit])

    def g_and_dg(z):
        gv = np.polyval(p, z) / np.polyval(q, z)
        gd = (np.polyval(np.polyder(p), z) * np.polyval(q, z)
              - np.polyval(p, z) * np.polyval(np.polyder(q), z)) / np.polyval(q, z) ** 2
        return gv, gd

    def lap_log_density(z):
        gv, gd = g_and_dg(z)
        return 2.0 * m * np.abs(gd) ** 2 / (1.0 + np.abs(gv) ** 2) ** 2

    # The FD stencil loses about 2e-8 of Laplacian(log density) to rounding,
    # so it meets its 1e-5 relative tolerance only where that Laplacian is
    # well above zero: away from the critical points of g, and from the far
    # part of the disk where g' decays like |z|^-3.
    points = np.empty(0, dtype=complex)
    while len(points) < CURVATURE_POINTS:
        z = rng.uniform(-1, 1, CURVATURE_POINTS) + 1j * rng.uniform(-1, 1, CURVATURE_POINTS)
        gap = np.min(np.abs(z[:, None] - keep_away[None, :]), axis=1)
        points = np.concatenate([points, z[(gap >= 0.1) & (lap_log_density(z) >= 1e-2)]])
    points = [complex(z) for z in points[:CURVATURE_POINTS]]
    cloud = rng.uniform(-1.8, 1.8, CLOUD_POINTS) + 1j * rng.uniform(-1.8, 1.8, CLOUD_POINTS)
    cloud = cloud[np.abs(cloud) < 1.95]
    ring = np.exp(2j * np.pi * np.arange(NEAR_POLE_POINTS) / NEAR_POLE_POINTS)
    near = poles[:, None] + 1e-7 * ring[None, :]
    cloud = np.concatenate([cloud, near.ravel()])

    def oracle_curvature(z):
        gv, gd = g_and_dg(z)
        fv = np.polyval(q, z) ** m
        return -2.0 * m * abs(gd) ** 2 / ((1.0 + abs(gv) ** 2) ** (m + 2) * abs(fv) ** 2)

    def run(state):
        t = make_triple(Disk(0, 2.0), f_text, g_text, m)
        rows = [(curvature(t, z), curvature_fd(t, z, 1e-3, richardson=True)) for z in points]
        return t, rows, spherical_gradient_array(t.g, cloud)

    def check(result):
        t, rows, vals = result
        out = Outcome(verdict="regular" if t.regularity.overall else "irregular")
        out.expect(t.regularity.checked and t.regularity.overall, "regular data rejected")
        out.expect(len(t.regularity.entries) == 4, f"{len(t.regularity.entries)} candidates, want 4")
        out.expect(all(e.verdict == "ok" for e in t.regularity.entries), "a candidate is not 'ok'")
        for z, (kc, kf) in zip(points, rows):
            want = oracle_curvature(z)
            out.within(f"curvature at {z:.3f}", kc, want, 1e-9 * abs(want))
            out.within(f"FD curvature at {z:.3f}", kf, want, 1e-5 * abs(want))
        pv, qv = np.polyval(p, cloud), np.polyval(q, cloud)
        dp, dq = np.polyval(np.polyder(p), cloud), np.polyval(np.polyder(q), cloud)
        # 2 sqrt 2 |g'| / (1 + |g|^2) with g = p/q, written to stay finite at poles
        want = SQRT8 * np.abs(dp * qv - pv * dq) / (np.abs(qv) ** 2 + np.abs(pv) ** 2)
        out.below("spherical gradient error", max_rel_err(vals, want), 1e-9)
        out.numbers = {f"K{j}": kc for j, (kc, _) in enumerate(rows[:3])}
        out.atol = {name: 1e-12 for name in out.numbers}
        out.numbers["gradient.max"] = float(np.max(vals))
        return out

    return Job(f"triple{k}", run, check)


def _tower_jobs(rng: np.random.Generator) -> list:
    """h = c / prod(z - a_j) and its derivatives of order 1-4 on 1e5 points."""
    poles = []
    while len(poles) < 4:
        w = parsed_value(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        if all(abs(w - a) > 0.6 for a in poles):
            poles.append(w)
    c = parsed_value(rng.uniform(0.5, 2.0) * unit(rng))
    text = f"{cnum(c)}/(" + "*".join(f"(z-{cnum(a)})" for a in poles) + ")"
    pts = rng.uniform(-2, 2, 3 * TOWER_POINTS) + 1j * rng.uniform(-2, 2, 3 * TOWER_POINTS)
    gap = np.min(np.abs(pts[:, None] - np.asarray(poles)[None, :]), axis=1)
    pts = pts[gap > 0.2][:TOWER_POINTS]
    # partial fractions: h = sum r_j / (z - a_j), so h^(k) = sum r_j (-1)^k k! / (z - a_j)^(k+1)
    residues = [c / np.prod([a - b for j, b in enumerate(poles) if j != i]) for i, a in enumerate(poles)]

    def run_parse(state):
        state["tower"] = parse_mero(text)
        return eval_array(state["tower"], pts)

    def make_run(order):
        def run(state):
            state["tower"] = derivative(state["tower"])
            return eval_array(state["tower"], pts)

        return run

    def make_check(order):
        def check(vals):
            want = sum(r * (-1) ** order * math.factorial(order) / (pts - a) ** (order + 1)
                       for r, a in zip(residues, poles))
            out = Outcome(verdict="ok")
            out.below(f"order {order} relative error", max_rel_err(vals, want), 1e-9)
            out.numbers = {"v0.re": float(vals[0].real), "v0.im": float(vals[0].imag)}
            scale = 1e-9 * float(np.max(np.abs(want)))  # the oracle's own tolerance
            out.atol = {"v0.re": scale, "v0.im": scale}
            return out

        return check

    jobs = [Job("tower.d0", run_parse, make_check(0))]
    jobs += [Job(f"tower.d{k}", make_run(k), make_check(k)) for k in range(1, 5)]
    return jobs


def _probe_jobs(rng: np.random.Generator) -> list:
    jobs = []
    a = parsed_value(rng.uniform(0.5, 2.0) * unit(rng))
    indices = [1, 2, 4, 8, 16]
    template = f"{{n}}*{cnum(a)}*z"

    dilation = float(np.round(rng.uniform(10, 1000), 3))
    radius = 0.9
    omitted = [parsed_value(rng.uniform(1.0, 1.5) * unit(rng)) for _ in range(2)]
    eta = 0.2

    def run_probes(state):
        family = lambda n: parse_mero(template.replace("{n}", str(n)))
        marty = marty_sup(family, indices, Disk(0, 0.5), grid=120, label=template)
        zalcman = zalcman_rescale(parse_mero(f"{num(dilation)}*z"), searchgrid=300)
        mesh = build_mesh(Disk(0, radius), lambda zs: np.ones(np.shape(zs)), 100,
                          refine_punctures=False)
        values = tuple(ExtComplex(v) for v in omitted) + (INFINITY,)
        fujimoto = fujimoto_ratio(parse_mero("z"), values, eta, radius, mesh)
        return marty, zalcman, mesh.nodes, fujimoto

    def check_probes(result):
        marty, zalcman, nodes, fujimoto = result
        out = Outcome(verdict=marty.verdict)
        for n, s in zip(indices, marty.sups):  # the supremum sits at z = 0, a grid node
            out.within(f"sup for n={n}", s, SQRT8 * n * abs(a), 1e-12 * SQRT8 * n * abs(a))
        out.within("growth slope", marty.slope, 1.0, 0.05)
        out.expect(marty.verdict == "unbounded-growth", f"verdict {marty.verdict!r}")
        out.within("gradient at 0", zalcman.gradient_at_zero, 1.0, 1e-9)
        out.below("envelope violation", zalcman.envelope_max_violation, 1e-9)
        out.within("scale", zalcman.scale, SQRT8 * dilation, 1e-6 * dilation)
        # f = z: |f'| = 1, chordal distances to the omitted values and to infinity
        hyp = np.sqrt(1 + np.abs(nodes) ** 2)
        chis = [np.abs(nodes - w) / (hyp * math.sqrt(1 + abs(w) ** 2)) for w in omitted] + [1 / hyp]
        prod = np.prod(chis, axis=0) ** (1 - eta)
        ratio = (radius**2 - np.abs(nodes) ** 2) / (radius * hyp**2 * prod)
        out.within("fujimoto sup", fujimoto.sup, float(np.max(ratio)), 1e-9 * float(np.max(ratio)))
        out.numbers = {"marty.slope": marty.slope, "zalcman.scale": zalcman.scale,
                       "fujimoto.sup": fujimoto.sup}
        return out

    jobs.append(Job("probes", run_probes, check_probes))

    rho = rng.uniform(0.8, 1.2)
    phase = rng.uniform(0, 2 * math.pi)
    alphas = [parsed_value(rho * np.exp(1j * (phase + math.pi * k))) for k in range(2)]
    eps = [10.0 ** (-k) for k in range(1, 7)]
    # near a puncture a the density is ~ sqrt(1 + |a|^2) / (|a - b| |z - a|), and
    # ~ 1/|z| toward infinity, so the lengths grow like slope * log(1/eps)
    targets = [("puncture0", alphas[0], math.sqrt(1 + abs(alphas[0]) ** 2) / abs(alphas[0] - alphas[1])),
               ("puncture1", alphas[1], math.sqrt(1 + abs(alphas[1]) ** 2) / abs(alphas[0] - alphas[1])),
               ("infinity", "infinity", 1.0)]

    def run_complete(state):
        example = optimal_example(1, alphas)
        return [completeness_probe(example, target, eps) for _, target, _ in targets]

    def check_complete(reps):
        out = Outcome(verdict=str(all(rep.divergence_evidence for rep in reps)))
        for (label, _, slope), rep in zip(targets, reps):
            out.expect(rep.divergence_evidence, f"no divergence evidence toward {label}")
            out.within(f"log slope toward {label}", rep.slope, slope, 0.1 * slope)
            out.numbers[f"{label}.slope"] = rep.slope
            out.numbers[f"{label}.length"] = rep.lengths[-1]
            # adaptive Simpson at rel 1e-9 per segment: refinement choices may flip
            out.atol[f"{label}.slope"] = 1e-6
            out.atol[f"{label}.length"] = 1e-6 * rep.lengths[-1]
        return out

    jobs.append(Job("completeness", run_complete, check_complete))
    return jobs


def generate(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for k, m in enumerate((1, 2, 3, 1, 2, 3)):
        p, q = _regular_triple(rng, m)
        jobs.append(_triple_job(k, m, p, q, rng))
    jobs += _tower_jobs(rng)
    jobs += _probe_jobs(rng)
    return jobs
