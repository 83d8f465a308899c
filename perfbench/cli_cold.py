"""cli-cold: one fresh ``python -m mtriples.cli`` process per job.

One small seeded config per action: triple check, triple curvature,
estimate verify, surface synth (minimal, every export), surface singular,
probe marty, probe zalcman, probe completeness, probe fujimoto and example
optimal.  A CLI user pays for interpreter start-up, ``import mtriples.cli``,
config decoding and the canonical report encoding on every call, and this
is the only workload that measures the cli and reporting layers.  Each job
checks the exit code and the numbers in ``report.json`` and records the
report's sha256; a changed digest is counted, not failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess

import numpy as np

from common import Job, Outcome, cnum, num, parsed_value, poly_text, unit

TOLERANCE = 1e-9
SQRT8 = 2.0 * math.sqrt(2.0)
UNIT_DISK = {"kind": "disk", "center": [0, 0], "radius": 1.0, "punctures": []}


def _pair(c: complex) -> list:
    return [c.real, c.imag]


def _cli_job(name: str, group: str, action: str, cfg: dict, workdir: str, judge) -> Job:
    cfg_path = os.path.join(workdir, f"{name}.json")
    out_dir = os.path.join(workdir, f"out_{name}")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    args = [group, action, "--config", cfg_path, "--out", out_dir]

    def run(state):
        proc = subprocess.run(state["cli"](name) + args, capture_output=True, text=True)
        return proc.returncode, proc.stderr

    def check(result):
        code, stderr = result
        out = Outcome(verdict=f"exit {code}")
        out.expect(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
        path = os.path.join(out_dir, "report.json")
        if not os.path.exists(path):
            out.errors.append("no report.json")
            return out
        with open(path, "rb") as fh:
            raw = fh.read()
        out.digest = hashlib.sha256(raw).hexdigest()
        judge(json.loads(raw), out)
        return out

    return Job(name, run, check)


def generate(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    jobs = []

    a = parsed_value(rng.uniform(0.2, 0.9) * unit(rng))
    m = int(rng.integers(1, 4))

    def judge_check(rep, out):
        want = -2.0 * m * abs(a) ** 2  # K(0) for f = 1, g = a z
        out.expect(rep["regularity"]["overall"], "regularity rejected")
        out.within("curvature at anchor", rep["curvature_at_anchor"], want, 1e-10 * abs(want))
        out.numbers = {"curvature_at_anchor": rep["curvature_at_anchor"]}

    jobs.append(_cli_job("triple.check", "triple", "check", {
        "triple": {"domain": UNIT_DISK, "f": "1", "g": f"{cnum(a)}*z", "m": m}}, workdir, judge_check))

    b1 = parsed_value(rng.uniform(0.2, 0.6) * unit(rng))
    b2 = parsed_value(rng.uniform(0.1, 0.3) * unit(rng))
    # the O(h^2) FD oracle meets 1e-4 only with 0.1 clearance from the zero of g'
    critical = -b1 / (2 * b2)
    points = []
    while len(points) < 3:
        z = parsed_value(0.6 * rng.uniform() * unit(rng))
        if abs(z - critical) >= 0.1:
            points.append(z)

    def judge_curvature(rep, out):
        for row, z in zip(rep["points"], points):
            g, gd = b1 * z + b2 * z * z, b1 + 2 * b2 * z
            want = -4.0 * abs(gd) ** 2 / (1.0 + abs(g) ** 2) ** 4
            out.within(f"curvature at {z:.3f}", row["curvature"], want, 1e-10 * abs(want))
            out.within(f"FD curvature at {z:.3f}", row["curvature_fd"], want, 1e-4 * abs(want))
        out.numbers = {f"K{j}": row["curvature"] for j, row in enumerate(rep["points"])}

    jobs.append(_cli_job("triple.curvature", "triple", "curvature", {
        "triple": {"domain": UNIT_DISK, "f": "1", "g": f"{cnum(b1)}*z+{cnum(b2)}*z^2", "m": 2},
        "points": [_pair(z) for z in points]}, workdir, judge_curvature))

    coeffs = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    rim = np.exp(2j * np.pi * np.arange(720) / 720)
    coeffs *= rng.uniform(0.5, 0.9) / np.abs(np.polyval(coeffs, rim)).max()
    coeffs = [parsed_value(c) for c in coeffs]

    def judge_estimate(rep, out):
        est = rep["estimate"]
        out.expect(est["verdict"] == "pass", f"verdict {est['verdict']!r}")
        out.within("constant", rep["constant"], 4.0, 1e-12)
        out.below("sup/constant^2", est["sup"] / est["constant_squared"], 1.05)
        out.numbers = {"sup": est["sup"], "extremum": rep["property"]["extremum"]}

    jobs.append(_cli_job("estimate.verify", "estimate", "verify", {
        "triple": {"domain": UNIT_DISK, "f": "1", "g": poly_text(coeffs), "m": 2},
        "property": {"bounded": 1.0}, "resolution": 120, "seed": seed}, workdir, judge_estimate))

    c = parsed_value(rng.uniform(0.8, 1.2) * unit(rng))
    w = parsed_value(unit(rng))
    synth_dir = os.path.join(workdir, "out_surface.synth")

    def judge_synth(rep, out):
        for field in ("conformal_asymmetry", "cross_term", "metric_deviation", "laplacian"):
            out.below(field, rep["invariants"][field], 1e-3)
        out.below("gauss-normal angle", rep["gauss_normal"]["max_angle"], 1e-2)
        files = ("mesh.obj", "mesh.ply", "vertices.csv", "surface.json", "nodes.csv", "edges.csv")
        missing = [f for f in files if not os.path.isfile(os.path.join(synth_dir, f))]
        out.expect(not missing, f"missing exports {missing}")
        out.numbers = {"metric_deviation": rep["invariants"]["metric_deviation"]}
        out.atol = {"metric_deviation": 1e-9}

    jobs.append(_cli_job("surface.synth", "surface", "synth", {
        "class": "minimal", "f": cnum(c), "g": f"{cnum(w)}*z",
        "domain": {"kind": "disk", "center": [0, 0], "radius": 1.2, "punctures": []},
        "base_point": [0, 0], "resolution": 80, "exports": ["obj", "ply", "csv", "json"]},
        workdir, judge_synth))

    mc = parsed_value(rng.uniform(0.8, 1.2) * unit(rng))
    mw = parsed_value(unit(rng))

    def judge_singular(rep, out):
        pts = np.array([complex(*p) for poly in rep["singular_locus"] for p in poly])
        out.expect(pts.size > 0, "empty singular locus")
        if pts.size:
            out.below("locus distance to |z| = 1", float(np.max(np.abs(np.abs(pts) - 1.0))), 1e-3)
        out.numbers = {"polylines": float(len(rep["singular_locus"]))}

    jobs.append(_cli_job("surface.singular", "surface", "singular", {
        "class": "maxface", "f": cnum(mc), "g": f"{cnum(mw)}*z",
        "domain": {"kind": "disk", "center": [0, 0], "radius": 2.0, "punctures": []},
        "resolution": 120}, workdir, judge_singular))

    ma = parsed_value(rng.uniform(0.5, 2.0) * unit(rng))
    indices = [1, 2, 4, 8]

    def judge_marty(rep, out):
        got = rep["marty"]
        out.expect(got["verdict"] == "unbounded-growth", f"verdict {got['verdict']!r}")
        for n, s in zip(indices, got["sups"]):
            out.within(f"sup for n={n}", s, SQRT8 * n * abs(ma), 1e-12 * SQRT8 * n * abs(ma))
        out.numbers = {"slope": got["slope"]}

    jobs.append(_cli_job("probe.marty", "probe", "marty", {
        "family": f"{{n}}*{cnum(ma)}*z", "indices": indices,
        "region": {"center": [0, 0], "radius": 0.5}}, workdir, judge_marty))

    dilation = float(np.round(rng.uniform(5, 50), 3))

    def judge_zalcman(rep, out):
        got = rep["zalcman"]
        out.within("gradient at 0", got["gradient_at_zero"], 1.0, 1e-9)
        out.below("envelope violation", got["envelope_max_violation"], 1e-9)
        out.within("scale", got["scale"], SQRT8 * dilation, 1e-6 * dilation)
        out.numbers = {"scale": got["scale"]}

    jobs.append(_cli_job("probe.zalcman", "probe", "zalcman", {
        "h": f"{num(dilation)}*z", "searchgrid": 200}, workdir, judge_zalcman))

    pa = parsed_value(rng.uniform(0.8, 1.2) * unit(rng))
    slopes = [math.sqrt(1 + abs(pa) ** 2) / abs(2 * pa), 1.0]

    def judge_completeness(rep, out):
        for row, slope in zip(rep["completeness"], slopes):
            out.expect(row["divergence_evidence"], f"no divergence evidence toward {row['target']}")
            out.within(f"log slope toward {row['target']}", row["slope"], slope, 0.1 * slope)
        out.numbers = {f"slope{j}": row["slope"] for j, row in enumerate(rep["completeness"])}
        out.atol = {name: 1e-6 for name in out.numbers}  # adaptive Simpson at rel 1e-9

    jobs.append(_cli_job("probe.completeness", "probe", "completeness", {
        "triple": {"domain": {"kind": "truncated_plane", "radius": 3.0,
                              "punctures": [_pair(pa), _pair(-pa)]},
                   "f": f"1/((z-{cnum(pa)})*(z+{cnum(pa)}))", "g": "z", "m": 1},
        "targets": [_pair(pa), "infinity"],
        "eps_levels": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]}, workdir, judge_completeness))

    omitted = [parsed_value(rng.uniform(1.0, 1.5) * unit(rng)) for _ in range(2)]

    def judge_fujimoto(rep, out):
        got = rep["fujimoto"]
        out.expect(math.isfinite(got["sup"]) and got["sup"] > 0, f"sup {got['sup']!r}")
        out.expect(abs(complex(*got["arg_max"])) < 0.9, "arg_max outside the disk")
        out.numbers = {"sup": got["sup"]}

    jobs.append(_cli_job("probe.fujimoto", "probe", "fujimoto", {
        "f": "z", "omits": [_pair(v) for v in omitted] + ["inf"], "eta": 0.2, "radius": 0.9,
        "resolution": 100}, workdir, judge_fujimoto))

    rho, phase = rng.uniform(0.8, 1.2), rng.uniform(0, 2 * math.pi)
    alphas = [parsed_value(rho * np.exp(1j * (phase + 2 * math.pi * k / 3))) for k in range(3)]

    def judge_optimal(rep, out):
        out.expect(rep["regularity"]["overall"], "regularity rejected")
        out.expect(rep["omitted_count"] == 4, f"omitted_count {rep['omitted_count']}")
        check = rep["omission_check"]
        out.expect(check["verdict"] and check["extremum"] > 1e-3, "omission check failed")
        out.numbers = {"extremum": check["extremum"]}

    jobs.append(_cli_job("example.optimal", "example", "optimal", {
        "m": 2, "alphas": [_pair(v) for v in alphas], "resolution": 100}, workdir, judge_optimal))
    return jobs
