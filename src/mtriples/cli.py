"""Command-line orchestration.

Subcommands::

    mtriples triple   check|curvature   --config cfg.json [--out DIR]
    mtriples estimate verify            --config cfg.json [--out DIR]
    mtriples surface  synth|periods|singular
    mtriples probe    marty|zalcman|fujimoto|completeness
    mtriples example  optimal

The config is a JSON document mirroring the type schemas (see README).
Exit codes: 0 success / verdict pass, 2 mathematical verdict failed,
1 operational error.  stdout carries only the report path; a human
summary goes to stderr, and every failure is reported as a JSON error
object on stderr, never a bare stack trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .estimates import (
    Bounded,
    Omits,
    PropertyViolation,
    completeness_probe,
    curvature_constant,
    fujimoto_ratio,
    marty_sup,
    optimal_example,
    property_check,
    verify_estimate,
    zalcman_rescale,
)
from .expr import ArgumentError, ExtComplex, INFINITY, parse_mero, to_source
from .mtriple import (
    Annulus,
    Disk,
    DomainSpec,
    MTriple,
    Rectangle,
    RegularityViolation,
    NonHolomorphic,
    TruncatedPlane,
    check_regularity,
    curvature,
    curvature_fd,
    make_triple,
)
from .reporting import ReportValueError, canonical_json, config_hash, emit_report, encode_report

# geodesy (which imports scipy) and surfaces are imported by the handlers
# that mesh or synthesize, so the other actions never load them

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2


class ConfigError(ValueError):
    """Schema violation; carries a JSON pointer to the offending field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.message = message


# ---------------------------------------------------------------------------
# Config decoding
# ---------------------------------------------------------------------------


def _need(cfg: dict, key: str, pointer: str):
    if key not in cfg:
        raise ConfigError(f"{pointer}/{key}", "missing required field")
    return cfg[key]


def _as_complex(value, pointer: str) -> complex:
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    parts = value if pair else (value, 0)
    # JSON true/false are ints to Python
    if any(isinstance(p, bool) for p in parts) or not (pair or isinstance(value, (int, float))):
        raise ConfigError(pointer, "expected a number or an [re, im] pair")
    return complex(*(_as_float(p, pointer) for p in parts))


def _as_float(value, pointer: str) -> float:
    if isinstance(value, bool):  # float() reads JSON true as 1.0
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(pointer, f"expected a number: {exc}") from exc
    if not math.isfinite(x):  # float() reads the strings "inf" and "nan"
        raise ConfigError(pointer, "expected a finite number")
    return x


def _as_positive(value, pointer: str) -> float:
    x = _as_float(value, pointer)
    if x <= 0:
        raise ConfigError(pointer, "expected a positive number")
    return x


def _as_list(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(pointer, "expected a list")
    return value


def _as_ext(value, pointer: str) -> ExtComplex:
    if value in ("inf", "infinity"):
        return INFINITY
    return ExtComplex(_as_complex(value, pointer))


def _as_expr(value, pointer: str):
    if not isinstance(value, str):
        raise ConfigError(pointer, "expected an expression string")
    try:
        return parse_mero(value)
    except ValueError as exc:
        raise ConfigError(pointer, f"bad expression: {exc}") from exc


_DOMAINS = {cls.kind: cls for cls in (Disk, Annulus, Rectangle, TruncatedPlane)}


def domain_from_json(cfg, pointer: str) -> DomainSpec:
    """Decode a domain object field by field from its class's dataclass fields."""
    if not isinstance(cfg, dict):
        raise ConfigError(pointer, "expected a domain object")
    kind = _need(cfg, "kind", pointer)
    if not isinstance(kind, str) or kind not in _DOMAINS:
        raise ConfigError(f"{pointer}/kind", f"unknown domain kind {kind!r}")
    cls = _DOMAINS[kind]
    types = get_type_hints(cls)
    args = {}
    for f in dataclasses.fields(cls):
        at = f"{pointer}/{f.name}"
        if f.name == "punctures":
            points = _as_list(cfg.get("punctures", []), at)
            args[f.name] = tuple(_as_complex(p, f"{at}/{k}") for k, p in enumerate(points))
        elif types[f.name] is complex:
            value = cfg.get(f.name, 0) if f.name == "center" else _need(cfg, f.name, pointer)
            args[f.name] = _as_complex(value, at)
        else:
            args[f.name] = _as_float(_need(cfg, f.name, pointer), at)
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def domain_to_json(domain: DomainSpec) -> dict:
    return {"kind": domain.kind, **encode_report(domain)}


def _triple_parts(cfg, pointer: str) -> tuple:
    """(domain, f, g, m) of a triple object, before any regularity check."""
    if not isinstance(cfg, dict):
        raise ConfigError(pointer, "expected a triple object")
    domain = domain_from_json(_need(cfg, "domain", pointer), f"{pointer}/domain")
    f = _as_expr(_need(cfg, "f", pointer), f"{pointer}/f")
    g = _as_expr(_need(cfg, "g", pointer), f"{pointer}/g")
    m = _as_positive_int(_need(cfg, "m", pointer), f"{pointer}/m")
    return domain, f, g, m


def triple_from_json(cfg, pointer: str) -> MTriple:
    return _probe(make_triple, {e: f"{pointer}/{e}" for e in "fg"}, *_triple_parts(cfg, pointer))


def triple_to_json(t: MTriple) -> dict:
    return {
        "domain": domain_to_json(t.domain),
        "f": to_source(t.f),
        "g": to_source(t.g),
        "m": t.m,
    }


def _as_int(value, pointer: str) -> int:
    # JSON true/false are ints to Python, and int() would truncate 20.9 or read "24"
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    return value


def _as_positive_int(value, pointer: str) -> int:
    n = _as_int(value, pointer)
    if n < 1:
        raise ConfigError(pointer, "expected a positive integer")
    return n


def _resolution(cfg: dict, opts, default: int) -> int:
    """Mesh resolution: ``--resolution``, else the config's, else ``default``."""
    given = opts.resolution if opts.resolution is not None else cfg.get("resolution", default)
    return _as_int(given, "/resolution")


def property_from_json(cfg, pointer: str):
    if not isinstance(cfg, dict):
        raise ConfigError(pointer, "expected a property object")
    if "bounded" in cfg:
        limit = _as_float(cfg["bounded"], f"{pointer}/bounded")
        try:
            return Bounded(limit)
        except ValueError as exc:
            raise ConfigError(f"{pointer}/bounded", str(exc)) from exc
    if "omits" in cfg:
        omits = _as_list(cfg["omits"], f"{pointer}/omits")
        vals = tuple(_as_ext(v, f"{pointer}/omits/{k}") for k, v in enumerate(omits))
        try:
            return Omits(vals)
        except ValueError as exc:
            raise ConfigError(f"{pointer}/omits", str(exc)) from exc
    raise ConfigError(pointer, "property must carry 'bounded' or 'omits'")


# ---------------------------------------------------------------------------
# Handlers: each returns (report, verdict_ok)
# ---------------------------------------------------------------------------


def _mesh(domain, density, resolution: int, refine: bool):
    """``build_mesh``, with a resolution below 8 or a lattice past the point cap
    refused at ``/resolution``."""
    from .geodesy import build_mesh

    return _probe(build_mesh, {"resolution": "/resolution"}, domain, density, resolution, refine)


def _handle_triple(action: str, cfg: dict, opts) -> tuple[dict, bool]:
    triple_cfg = _need(cfg, "triple", "")
    domain, f, g, m = _triple_parts(triple_cfg, "/triple")
    # regularity is reported, not enforced: a failing triple still gets a report
    report = _probe(check_regularity, {e: f"/triple/{e}" for e in "fg"}, domain, f, g, m)
    out = {"triple": triple_cfg, "regularity": report}
    ok = report.overall
    if action == "check":
        if ok:
            t = MTriple(domain, f, g, m, report)
            anchor = domain.anchor()
            out["curvature_at_anchor"] = curvature(t, anchor)
            out["anchor"] = anchor
        return out, ok
    # action == "curvature"
    if not ok:
        return out, False
    t = MTriple(domain, f, g, m, report)
    pts = _points_in(domain, _need(cfg, "points", ""), "/points")
    h = _as_positive(cfg.get("fd_step", 1e-3), "/fd_step")
    out["points"] = [
        {"point": p, "curvature": curvature(t, p),
         "curvature_fd": _probe(curvature_fd, {"h": "/fd_step"}, t, p, h)}
        for p in pts
    ]
    out["fd_step"] = h
    return out, True


def _handle_estimate(action: str, cfg: dict, opts) -> tuple[dict, bool]:
    triple = triple_from_json(_need(cfg, "triple", ""), "/triple")
    prop = property_from_json(_need(cfg, "property", ""), "/property")
    resolution = _resolution(cfg, opts, 200)
    delta = _as_positive(cfg.get("delta", 1e-3), "/delta")
    c = _probe(curvature_constant, {"m": "/triple/m"}, prop, triple.m)
    # puncture rings act as ideal-boundary sources for the distance field;
    # the property check stands off from them on its own
    mesh = _mesh(triple.domain, triple.density, resolution, refine=True)
    prop_report = property_check(triple.g, prop, mesh, delta)
    est = verify_estimate(triple, prop, mesh, prop_report)
    out = {
        "triple": triple_to_json(triple),
        "property": prop_report,
        "estimate": est,
        "constant": c,
    }
    return out, est.verdict != "fail"


_EXPORT_FILES = {"obj": "mesh.obj", "ply": "mesh.ply", "csv": "vertices.csv", "json": "surface.json"}


def _surface_data(cfg: dict):
    """Decode the surface data; its two expressions are the class's first two fields."""
    from .surfaces import (FlatFrontData, ImproperAffineData, MaxfaceData, MinimalData,
                           synth_flatfront, synth_improper_affine, synth_maxface, synth_minimal)

    classes = {
        cls.kind: (cls, synth)
        for cls, synth in ((MinimalData, synth_minimal), (MaxfaceData, synth_maxface),
                           (ImproperAffineData, synth_improper_affine),
                           (FlatFrontData, synth_flatfront))
    }
    cls_name = _need(cfg, "class", "")
    if not isinstance(cls_name, str) or cls_name not in classes:
        raise ConfigError("/class", f"unknown surface class {cls_name!r}")
    cls, synth = classes[cls_name]
    domain = domain_from_json(_need(cfg, "domain", ""), "/domain")
    base = _as_complex(cfg.get("base_point", 0), "/base_point")
    names = [f.name for f in dataclasses.fields(cls)[:2]]
    exprs = [_as_expr(_need(cfg, name, ""), f"/{name}") for name in names]
    try:
        data = cls(*exprs, domain, base)
    except ArgumentError as exc:
        raise ConfigError("/" + exc.name, f"invalid surface data: {exc}") from exc
    except (ValueError, RegularityViolation, NonHolomorphic) as exc:
        raise ConfigError("/" + names[0], f"invalid surface data: {exc}") from exc
    return cls_name, data, synth


def _points_in(domain, items, at: str) -> list:
    """The list of points at ``at``, each inside ``domain``."""
    points = [_as_complex(p, f"{at}/{j}") for j, p in enumerate(_as_list(items, at))]
    for j, z in enumerate(points):
        if not domain.contains(z):
            raise ConfigError(f"{at}/{j}", f"point {z} is not inside the domain")
    return points


def _period_rows(data, cycles) -> list:
    from .surfaces import period_residuals

    rows = []
    for k, cycle in enumerate(_as_list(cycles, "/cycles")):
        at = f"/cycles/{k}"
        points = _points_in(data.domain, cycle, at)
        if len(points) < 2:
            raise ConfigError(at, "a cycle needs at least two points")
        ends = np.array(points)
        if not data.domain.keeps_segments(ends, np.roll(ends, -1)).all():
            raise ConfigError(at, "a chord of the cycle leaves the domain")
        # the cycle, not the library's step, is what a config sets here
        rows.append(_probe(period_residuals, {"step": at}, data, points))
    return rows


def _handle_surface(action: str, cfg: dict, opts) -> tuple[dict, bool]:
    from .surfaces import export_mesh, gauss_normal_check, immersion_check, singular_locus

    cls_name, data, synth = _surface_data(cfg)
    out: dict = {"class": cls_name, "domain": domain_to_json(data.domain)}
    if action == "periods":
        out["periods"] = _period_rows(data, _need(cfg, "cycles", ""))
        return out, True
    resolution = _resolution(cfg, opts, 120)
    ones = lambda zs: np.ones(np.shape(zs))
    mesh = _mesh(data.domain, ones, resolution, refine=False)
    if action == "singular":
        if cls_name == "minimal":
            raise ConfigError("/class", "the minimal class has no singular locus")
        out["singular_locus"] = singular_locus(data, mesh)
        return out, True
    formats = _as_list(cfg.get("exports", ["obj", "ply", "csv"]), "/exports")
    for fmt in formats:
        if not isinstance(fmt, str) or fmt not in _EXPORT_FILES:
            raise ConfigError("/exports", f"unknown export format {fmt!r}")
    if cls_name == "flat_front":
        step = _as_positive(cfg.get("step", 1e-3 * data.domain.diameter()), "/step")
        surface = _probe(synth, {"step": "/step"}, data, mesh, step)
    else:
        surface = synth(data, mesh)
    out["invariants"] = immersion_check(surface, data)
    if cls_name == "minimal":
        out["gauss_normal"] = gauss_normal_check(surface, data.g)
        out["singular_locus"] = []
    else:
        out["singular_locus"] = singular_locus(data, mesh)
    out["periods"] = _period_rows(data, cfg.get("cycles", []))
    from .geodesy import write_edges_csv, write_nodes_csv

    outdir = Path(opts.out)
    for fmt in formats:
        export_mesh(surface, fmt, outdir / _EXPORT_FILES[fmt])
    write_nodes_csv(mesh, outdir / "nodes.csv")
    write_edges_csv(mesh, outdir / "edges.csv")
    out["exports"] = sorted(str(f) for f in formats)
    return out, True


def _probe(fn, pointers: dict, *args):
    """``fn(*args)``, with an argument it rejects reported at its config pointer."""
    try:
        return fn(*args)
    except ArgumentError as exc:
        raise ConfigError(pointers[exc.name], str(exc)) from exc


def _disk(center: complex, radius: float, pointer: str) -> Disk:
    """``Disk(center, radius)``, with a radius whose disk overflows a float
    reported at ``pointer``."""
    try:
        return Disk(center, radius)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _handle_probe(action: str, cfg: dict, opts) -> tuple[dict, bool]:
    if action == "marty":
        template = _need(cfg, "family", "")
        if not isinstance(template, str) or "{n}" not in template:
            raise ConfigError("/family", "expected an expression template with {n}")
        indices = _as_list(_need(cfg, "indices", ""), "/indices")
        indices = [_as_positive_int(n, f"/indices/{k}") for k, n in enumerate(indices)]
        _as_expr(template.replace("{n}", "1"), "/family")  # the template's own syntax
        # a member that fails only past it is over a parser cap for its index
        members = {n: _as_expr(template.replace("{n}", repr(n)), f"/indices/{k}")
                   for k, n in enumerate(indices)}
        region_cfg = _need(cfg, "region", "")
        if not isinstance(region_cfg, dict):
            raise ConfigError("/region", "expected a region object")
        center = _as_complex(region_cfg.get("center", 0), "/region/center")
        radius = _as_positive(_need(region_cfg, "radius", "/region"), "/region/radius")
        grid = _as_positive_int(cfg.get("grid", 120), "/grid")
        region = _disk(center, radius, "/region/radius")
        args = (members.__getitem__, indices, region, grid, template)
        pointers = {"grid": "/grid", **{f"indices/{k}": f"/indices/{k}" for k in range(len(indices))}}
        rep = _probe(marty_sup, pointers, *args)
        return {"marty": rep}, True
    if action == "zalcman":
        h = _as_expr(_need(cfg, "h", ""), "/h")
        grid = _as_positive_int(cfg.get("searchgrid", 300), "/searchgrid")
        pointers = {"h": "/h", "searchgrid": "/searchgrid"}
        return {"zalcman": _probe(zalcman_rescale, pointers, h, grid)}, True
    if action == "fujimoto":
        f = _as_expr(_need(cfg, "f", ""), "/f")
        omits = _as_list(_need(cfg, "omits", ""), "/omits")
        values = tuple(_as_ext(v, f"/omits/{k}") for k, v in enumerate(omits))
        eta = _as_float(_need(cfg, "eta", ""), "/eta")
        radius = _as_positive(_need(cfg, "radius", ""), "/radius")
        resolution = _resolution(cfg, opts, 150)
        ones = lambda zs: np.ones(np.shape(zs))
        mesh = _mesh(_disk(0, radius, "/radius"), ones, resolution, refine=False)
        pointers = {"values": "/omits", "eta": "/eta"}
        return {"fujimoto": _probe(fujimoto_ratio, pointers, f, values, eta, radius, mesh)}, True
    # action == "completeness"
    triple = triple_from_json(_need(cfg, "triple", ""), "/triple")
    eps_cfg = _as_list(_need(cfg, "eps_levels", ""), "/eps_levels")
    eps = [_as_float(e, f"/eps_levels/{k}") for k, e in enumerate(eps_cfg)]
    targets_cfg = cfg.get("targets")
    if targets_cfg is None:
        targets_cfg = [_need(cfg, "target", "")]
    targets = []
    for k, tg in enumerate(_as_list(targets_cfg, "/targets")):
        if tg in ("inf", "infinity"):
            targets.append("infinity")
        else:
            targets.append(_as_complex(tg, f"/targets/{k}"))
    reports = [
        _probe(completeness_probe, {"eps_levels": "/eps_levels", "target": f"/targets/{k}"},
               triple, t, eps)
        for k, t in enumerate(targets)
    ]
    return {"triple": triple_to_json(triple), "completeness": reports}, True


def _handle_example(action: str, cfg: dict, opts) -> tuple[dict, bool]:
    m = _as_positive_int(_need(cfg, "m", ""), "/m")
    alphas = _as_list(_need(cfg, "alphas", ""), "/alphas")
    alphas = [_as_complex(a, f"/alphas/{k}") for k, a in enumerate(alphas)]
    radius = cfg.get("radius")
    radius = None if radius is None else _as_positive(radius, "/radius")
    try:
        triple = optimal_example(m, alphas, radius)
    except ValueError as exc:
        raise ConfigError("/alphas", str(exc)) from exc
    resolution = _resolution(cfg, opts, 150)
    mesh = _mesh(triple.domain, triple.density, resolution, refine=False)
    prop = Omits(tuple([ExtComplex(a) for a in alphas] + [INFINITY]))
    check = property_check(triple.g, prop, mesh)
    out = {
        "triple": triple_to_json(triple),
        "regularity": triple.regularity,
        "omitted_values": alphas + ["infinity"],
        "omitted_count": len(alphas) + 1,
        "omission_check": check,
    }
    return out, bool(check.verdict)


# each group's handler and the actions that argparse lets through to it
_HANDLERS = {
    "triple": (_handle_triple, ("check", "curvature")),
    "estimate": (_handle_estimate, ("verify",)),
    "surface": (_handle_surface, ("synth", "periods", "singular")),
    "probe": (_handle_probe, ("marty", "zalcman", "fujimoto", "completeness")),
    "example": (_handle_example, ("optimal",)),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtriples",
        description="Conformal-metric laboratory: curvature estimates, "
        "distance fields, omitted-value probes, surface synthesis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="group", required=True)
    for group, (_, acts) in _HANDLERS.items():
        p = sub.add_parser(group)
        p.add_argument("action", choices=acts)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="run directory (default from config)")
        p.add_argument("--resolution", type=int, default=None, help="mesh resolution override")
        p.add_argument("--seed", type=int, default=None, help="seed echoed in the report")
    return parser


def _error_object(kind: str, message: str, pointer: str | None = None) -> str:
    obj = {"error": {"kind": kind, "message": message}}
    if pointer is not None:
        obj["error"]["pointer"] = pointer
    return canonical_json(obj)


_TOO_DEEP = "config nests deeper than the interpreter's recursion limit"


def main(argv=None) -> int:
    opts = _build_parser().parse_args(argv)
    try:
        raw = Path(opts.config).read_text()
    except OSError as exc:
        print(_error_object("io", f"cannot read config: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(_error_object("config", f"config is not valid JSON: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print(_error_object("config", _TOO_DEEP), file=sys.stderr)
        return EXIT_ERROR
    if not isinstance(cfg, dict):
        print(_error_object("config", "config root must be an object", "/"), file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg_sha256 = config_hash(cfg)
    except ReportValueError as exc:  # json.loads accepts NaN and overflows to inf
        print(_error_object("config", f"config is not canonical JSON: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print(_error_object("config", _TOO_DEEP), file=sys.stderr)
        return EXIT_ERROR

    try:
        seed = opts.seed if opts.seed is not None else _as_int(cfg.get("seed", 0), "/seed")
        if opts.out is None:
            opts.out = cfg.get("output_dir", "run")
            if not isinstance(opts.out, str):
                raise ConfigError("/output_dir", "expected a directory path string")
        handler, _ = _HANDLERS[opts.group]
        report, ok = handler(opts.action, cfg, opts)
    except ConfigError as exc:
        print(_error_object("schema", exc.message, exc.pointer), file=sys.stderr)
        return EXIT_ERROR
    except (PropertyViolation, RegularityViolation, NonHolomorphic) as exc:
        print(_error_object("verdict", str(exc)), file=sys.stderr)
        return EXIT_VERDICT
    except OSError as exc:  # e.g. surface exports into an --out that is a file
        print(_error_object("io", str(exc)), file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - the CLI contract forbids bare tracebacks
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        print(_error_object(type(exc).__name__, detail), file=sys.stderr)
        return EXIT_ERROR

    try:
        report = encode_report(report)
        report["tool"] = {"name": "mtriples", "version": __version__}
        report["config_sha256"] = cfg_sha256
        report["seed"] = seed
        report["subcommand"] = f"{opts.group} {opts.action}"
        path = emit_report(report, Path(opts.out) / "report.json")
    except ReportValueError as exc:
        print(_error_object("report", str(exc)), file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:  # a config field echoed into the report nests as deep
        print(_error_object("config", _TOO_DEEP), file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(_error_object("io", f"cannot write report: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    print(path)
    verdict = "pass" if ok else "FAIL"
    print(f"mtriples {opts.group} {opts.action}: {verdict} -> {path}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
