"""surface-synth: surface synthesis, the surface checks and export.

Five surfaces, one of each class and each on its own (domain, resolution):
Enneper's surface, a catenoid on an annulus, the maxface g = z across its
singular circle, the improper affine paraboloid and a flat front.  The mesh
density is constant, so edge weighting is cheap and the time goes to the
spanning-tree integration, the per-edge flat-front ODE, the checks and the
ASCII export.  A job synthesizes one surface and runs its checks (the
catenoid's include the seam mismatch and a period cycle); the maxface's
singular locus, the catenoid's exports (four formats and the node table)
and its edge table are jobs of their own.  The seed perturbs coefficients,
base points and cycles; every vertex value has a closed form here, which is
what the checks compare against.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from common import Job, Outcome, cnum, parsed_value, unit
from mtriples.geodesy import build_mesh, write_edges_csv, write_nodes_csv
from mtriples.mtriple import Annulus, Disk
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

TOLERANCE = 1e-9
VERTEX_TOL = 1e-8  # adaptive Simpson at rel 1e-10 along every tree edge
INVARIANT_TOL = 1e-3  # ac06/ac08 thresholds for the finite-difference checks
FLATFRONT_STEP = 5e-3


def _ones(zs):
    return np.ones(np.shape(zs))


def _root(nodes: np.ndarray, base: complex) -> complex:
    return complex(nodes[int(np.argmin(np.abs(nodes - base)))])


def _vertex_error(vertices: np.ndarray, nodes: np.ndarray, prims, root: complex) -> list:
    """Vertices against ``Re(F(z) - F(root))`` for closed-form primitives F."""
    want = np.column_stack([(F(nodes) - F(root)).real for F in prims])
    return [("vertex error", float(np.max(np.abs(vertices - want))), VERTEX_TOL)]


def _probe_values(vertices: np.ndarray, nodes: np.ndarray) -> dict:
    """Vertex coordinates at three fixed places, as recorded key numbers."""
    out = {}
    for label, z in (("p1", 0.75 + 0.0j), ("p2", -0.3 + 0.6j), ("p3", 0.1 - 0.85j)):
        k = int(np.argmin(np.abs(nodes - z)))
        for axis in range(vertices.shape[1]):
            out[f"{label}.x{axis}"] = float(vertices[k, axis])
    return out


def _synth_job(name, key, make_data, domain, res, synth, prims, base, step=None, extra=None) -> Job:
    """Mesh, synthesize and run the surface's own checks: ``extra`` is a pair
    ``(run(data, mesh, surface) -> result, judge(result, outcome))``."""

    def run(state):
        data = make_data()
        mesh = build_mesh(domain, _ones, res, refine_punctures=False)
        surface = synth(data, mesh) if step is None else synth(data, mesh, step)
        state[key] = (data, mesh, surface)
        return surface, (extra[0](data, mesh, surface) if extra else None)

    def check(result):
        surface, checked = result
        nodes = surface.mesh.nodes
        out = Outcome(verdict="ok")
        for label, value, limit in prims(surface, nodes, _root(nodes, base)):
            out.below(label, value, limit)
        values = surface.vertices if surface.hermitian_psi is None else np.column_stack(
            [surface.hermitian_psi[:, 1, 0].real, surface.hermitian_psi[:, 1, 0].imag]
        )
        out.numbers = _probe_values(values, nodes)
        out.atol = {k: VERTEX_TOL for k in out.numbers}
        if extra:
            extra[1](checked, out)
        return out

    return Job(name, run, check)


def _immersion(exclude_band=None, laplacian=False):
    """immersion_check as a synth job's extra check, optionally banded."""

    def run(data, mesh, surface):
        exclude = None
        if exclude_band is not None:
            exclude = np.abs(np.abs(mesh.nodes) - 1.0) <= exclude_band
        return immersion_check(surface, data, exclude=exclude)

    def judge(rep, out):
        for field in ("conformal_asymmetry", "cross_term", "metric_deviation"):
            out.below(field, getattr(rep, field), INVARIANT_TOL)
        if laplacian:
            out.below("laplacian", rep.laplacian, INVARIANT_TOL)

    return run, judge


_FILES = {"obj": "mesh.obj", "ply": "mesh.ply", "csv": "vertices.csv",
          "json": "surface.json", "nodes": "nodes.csv", "edges": "edges.csv"}


def _check_file(fmt: str, path: str, surface, out: Outcome) -> None:
    """Read an exported file back: element counts and exact coordinates."""
    n, n_faces = surface.n_vertices, len(surface.faces)
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if fmt == "obj":
        count = (sum(1 for s in lines if s.startswith("v ")),
                 sum(1 for s in lines if s.startswith("f ")))
        out.expect(count == (n, n_faces), f"obj holds {count}, want {(n, n_faces)}")
        first = np.array([float(x) for x in next(s for s in lines if s.startswith("v ")).split()[1:]])
        out.below("obj first vertex", float(np.max(np.abs(first - surface.vertices[0]))), 0.0)
    elif fmt == "ply":
        out.expect(f"element vertex {n}" in lines and f"element face {n_faces}" in lines,
                   "ply header counts")
        body = len(lines) - lines.index("end_header") - 1
        out.expect(body == n + n_faces, f"ply body has {body} lines")
    elif fmt == "csv":
        out.expect(len(lines) == n + 1, f"vertices.csv has {len(lines)} lines")
    elif fmt == "json":
        got = np.asarray(json.loads(text)["vertices"])
        out.expect(got.shape == surface.vertices.shape, "json vertex shape")
        out.below("json vertices", float(np.max(np.abs(got - surface.vertices))), 0.0)
    elif fmt == "nodes":
        out.expect(len(lines) == surface.mesh.n_nodes + 1, f"nodes.csv has {len(lines)} lines")
    else:
        want = len(surface.mesh.edges_i) + 1
        out.expect(len(lines) == want, f"edges.csv has {len(lines)} lines, want {want}")


def _export_job(name, key, formats, workdir) -> Job:
    paths = {fmt: os.path.join(workdir, _FILES[fmt]) for fmt in formats}

    def run(state):
        _, mesh, surface = state[key]
        for fmt, path in paths.items():
            if fmt == "nodes":
                write_nodes_csv(mesh, path)
            elif fmt == "edges":
                write_edges_csv(mesh, path)
            else:
                export_mesh(surface, fmt, path)
        return surface

    def check(surface):
        out = Outcome(verdict="ok")
        for fmt, path in paths.items():
            _check_file(fmt, path, surface, out)
        return out

    return Job(name, run, check)


def generate(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    jobs = []

    # Enneper's surface: f = c, g = w z, rotated and scaled by the seed
    c = parsed_value(rng.uniform(0.8, 1.2) * unit(rng))
    w = parsed_value(unit(rng))
    base = parsed_value(0.05 * rng.uniform() * unit(rng))
    enneper_dom = Disk(0, 1.2)

    def enneper_prims(surface, nodes, root):
        prims = (lambda z: c * (z - w * w * z**3 / 3), lambda z: 1j * c * (z + w * w * z**3 / 3),
                 lambda z: c * w * z**2)
        return _vertex_error(surface.vertices, nodes, prims, root)

    immersion_run, immersion_judge = _immersion(laplacian=True)

    def enneper_checks(data, mesh, surface):
        return immersion_run(data, mesh, surface), gauss_normal_check(surface, data.g)

    def enneper_judge(reps, out):
        immersion_judge(reps[0], out)
        out.below("gauss-normal angle", reps[1].max_angle, 1e-2)

    jobs.append(_synth_job(
        "enneper.synth", "enneper", lambda: MinimalData(cnum(c), f"{cnum(w)}*z", enneper_dom, base),
        enneper_dom, 240, synth_minimal, enneper_prims, base, extra=(enneper_checks, enneper_judge)))

    # catenoid: f = a/z^2 (a real, so the periods vanish), g = z on an annulus
    a = parsed_value(rng.uniform(0.8, 1.2) * rng.choice([-1.0, 1.0])).real
    cat_base = parsed_value(rng.uniform(0.8, 1.5) * unit(rng))
    ann = Annulus(0, 0.5, 2.0)
    rho = rng.uniform(0.7, 1.8)
    turn = rng.uniform(0, 2 * math.pi)
    cycle = [complex(rho * np.exp(1j * (turn + 2 * math.pi * k / 64))) for k in range(64)]

    def catenoid_prims(surface, nodes, root):
        prims = (lambda z: a * (-1 / z - z), lambda z: 1j * a * (-1 / z + z),
                 lambda z: 2 * a * np.log(np.abs(z)) + 0j)
        return _vertex_error(surface.vertices, nodes, prims, root)

    def periods_run(data, mesh, surface):
        return seam_mismatch(data, mesh, surface), period_residuals(data, cycle)

    def periods_judge(result, out):
        defect, res = result
        out.numbers.update(seam_defect=defect, period_norm=res.norm)
        out.atol.update(seam_defect=1e-8, period_norm=1e-8)
        out.below("seam defect", defect, 1e-8)
        out.below("catenoid period norm", res.norm, 1e-8)

    jobs.append(_synth_job(
        "catenoid.synth", "catenoid", lambda: MinimalData(f"{cnum(a)}/z^2", "z", ann, cat_base),
        ann, 120, synth_minimal, catenoid_prims, cat_base, extra=(periods_run, periods_judge)))

    # exports of the catenoid: four surface formats and the node table, then the edge table
    jobs.append(_export_job("export.surface", "catenoid", ("obj", "ply", "csv", "json", "nodes"),
                            workdir))
    jobs.append(_export_job("export.edges", "catenoid", ("edges",), workdir))

    # maxface f = c, g = w z on D(0, 2): singular exactly on |z| = 1
    mc = parsed_value(rng.uniform(0.8, 1.2) * unit(rng))
    mw = parsed_value(unit(rng))
    max_base = parsed_value(0.05 * rng.uniform() * unit(rng))
    max_dom = Disk(0, 2.0)

    def maxface_prims(surface, nodes, root):
        prims = (lambda z: -mc * mw * z**2, lambda z: mc * (z + mw * mw * z**3 / 3),
                 lambda z: 1j * mc * (z - mw * mw * z**3 / 3))
        return _vertex_error(surface.vertices, nodes, prims, root)

    jobs.append(_synth_job(
        "maxface.synth", "maxface", lambda: MaxfaceData(cnum(mc), f"{cnum(mw)}*z", max_dom, max_base),
        max_dom, 240, synth_maxface, maxface_prims, max_base, extra=_immersion(exclude_band=0.05)))

    def singular_run(state):
        data, mesh, _ = state["maxface"]
        return singular_locus(data, mesh)

    def singular_check(loci):
        out = Outcome(verdict="ok")
        out.expect(len(loci) > 0, "no singular curve found")
        if loci:
            # Hausdorff distance between the polylines and the unit circle
            za = np.concatenate([poly[:-1] for poly in loci])
            zb = np.concatenate([poly[1:] for poly in loci])
            t = np.linspace(0.0, 1.0, 17)[:, None]
            to_circle = float(np.max(np.abs(np.abs(za + t * (zb - za)) - 1.0)))
            circle = np.exp(1j * np.linspace(0, 2 * math.pi, 720, endpoint=False))[:, None]
            d = zb - za
            s = np.clip(((circle - za) * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0, 1)
            from_circle = float(np.max(np.min(np.abs(za + s * d - circle), axis=1)))
            out.below("locus distance to |z| = 1", max(to_circle, from_circle), 1e-3)
        return out

    jobs.append(Job("maxface.singular", singular_run, singular_check))

    # improper affine paraboloid: F = 0, G = p z + q, height |G|^2 / 2
    p = parsed_value(rng.uniform(0.6, 1.2) * unit(rng))
    q = parsed_value(0.2 * rng.uniform() * unit(rng))
    aff_dom = Disk(0, 1.5)

    def affine_prims(surface, nodes, root):
        G = p * nodes + q
        want = np.column_stack([G.real, G.imag, 0.5 * np.abs(G) ** 2])
        return [
            ("vertex error", float(np.max(np.abs(surface.vertices - want))), 1e-10),
            ("Lagrangian Gauss map", float(np.max(np.abs(surface.diagnostics["lagrangian_gauss_map"]))), 0.0),
        ]

    jobs.append(_synth_job(
        "affine.synth", "affine",
        lambda: ImproperAffineData("0", f"{cnum(p)}*z+{cnum(q)}", aff_dom, 0j),
        aff_dom, 160, synth_improper_affine, affine_prims, 0j, extra=_immersion()))

    # flat front omega = c0 + c1 z, theta = 0: psi_21 = integral of omega
    c0 = parsed_value(rng.uniform(0.6, 1.2) * unit(rng))
    c1 = parsed_value(0.5 * rng.uniform() * unit(rng))
    ff_base = parsed_value(0.05 * rng.uniform() * unit(rng))
    ff_dom = Disk(0, 1.0)
    ff_cycle = [complex(0.5 * np.exp(1j * (turn + 2 * math.pi * k / 32))) for k in range(32)]

    def flatfront_prims(surface, nodes, root):
        phi = c0 * (nodes - root) + c1 * (nodes**2 - root**2) / 2
        psi = surface.hermitian_psi
        err = max(float(np.max(np.abs(psi[:, 1, 0] - phi))),
                  float(np.max(np.abs(psi[:, 0, 1] - np.conj(phi)))),
                  float(np.max(np.abs(psi[:, 0, 0] - 1.0))),
                  float(np.max(np.abs(psi[:, 1, 1] - 1.0 - np.abs(phi) ** 2))))
        return [("psi error", err, VERTEX_TOL),
                ("determinant drift", surface.metadata["max_det_drift"], 1e-10)]

    def monodromy_run(data, mesh, surface):
        return period_residuals(data, ff_cycle, step=FLATFRONT_STEP)

    def monodromy_judge(res, out):
        out.numbers["monodromy_norm"] = res.norm
        out.atol["monodromy_norm"] = 1e-10
        out.below("flat-front monodromy", res.norm, 1e-10)

    jobs.append(_synth_job(
        "flatfront.synth", "flatfront",
        lambda: FlatFrontData(f"{cnum(c0)}+{cnum(c1)}*z", "0", ff_dom, ff_base),
        ff_dom, 56, synth_flatfront, flatfront_prims, ff_base, step=FLATFRONT_STEP,
        extra=(monodromy_run, monodromy_judge)))
    return jobs
