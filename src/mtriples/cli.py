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
# Config decoding: each action declares one table, field -> (kind, default),
# and ``_read`` parses a config against it before any work runs
# ---------------------------------------------------------------------------

# A kind is ``kind(value, pointer)``: the parsed value, or a ConfigError at
# ``pointer``.  A default is the value a missing field takes, or REQUIRED.
REQUIRED = object()


def _read(table: dict, cfg, pointer: str) -> dict:
    """Every field of ``table`` parsed from the object ``cfg`` at ``pointer``; a
    missing required field, or a key the table does not name, is refused."""
    if not isinstance(cfg, dict):
        raise ConfigError(pointer, "expected an object")
    for key in cfg:
        if key not in table:
            import difflib  # only on this error path: a valid config never loads it

            near = difflib.get_close_matches(key, table, n=1)
            hint = f"did you mean {near[0]!r}?" if near else f"expected one of {sorted(table)}"
            raise ConfigError(f"{pointer}/{key}", f"unknown field; {hint}")
    fields = {}
    for key, (kind, default) in table.items():
        if key not in cfg and default is REQUIRED:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
        fields[key] = kind(cfg[key], f"{pointer}/{key}") if key in cfg else default
    return fields


def _pick(tables: dict, cfg, key: str, pointer: str) -> dict:
    """The table that the object ``cfg`` names by its field ``key``."""
    if not isinstance(cfg, dict):
        raise ConfigError(pointer, "expected an object")
    name = cfg.get(key)
    if not isinstance(name, str) or name not in tables:
        raise ConfigError(f"{pointer}/{key}", f"expected one of {sorted(tables)}, got {name!r}")
    return tables[name]


def _list_of(kind):
    """The kind of a JSON list whose items are each of ``kind``, at ``/k``."""
    def read(value, pointer: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(pointer, "expected a list")
        return tuple(kind(v, f"{pointer}/{k}") for k, v in enumerate(value))
    return read


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


def _as_ext(value, pointer: str) -> ExtComplex:
    if value in ("inf", "infinity"):
        return INFINITY
    return ExtComplex(_as_complex(value, pointer))


def _as_target(value, pointer: str):
    """A completeness target: "infinity", or a finite point."""
    return "infinity" if value in ("inf", "infinity") else _as_complex(value, pointer)


def _as_expr(value, pointer: str):
    if not isinstance(value, str):
        raise ConfigError(pointer, "expected an expression string")
    try:
        return parse_mero(value)
    except ValueError as exc:
        raise ConfigError(pointer, f"bad expression: {exc}") from exc


def _as_template(value, pointer: str) -> str:
    """An expression template with an ``{n}`` placeholder, parsed at n = 1."""
    if not isinstance(value, str) or "{n}" not in value:
        raise ConfigError(pointer, "expected an expression template with {n}")
    _as_expr(value.replace("{n}", "1"), pointer)
    return value


def _as_path(value, pointer: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(pointer, "expected a directory path string")
    return value


_EXPORT_FILES = {"obj": "mesh.obj", "ply": "mesh.ply", "csv": "vertices.csv", "json": "surface.json"}


def _as_formats(value, pointer: str) -> list:
    formats = sorted(_EXPORT_FILES)
    if not (isinstance(value, list) and all(isinstance(f, str) and f in formats for f in value)):
        raise ConfigError(pointer, f"expected a list of export formats from {formats}")
    return value


def _domain_table(cls) -> dict:
    """A domain class's table, from its dataclass fields; a ClassVar, such as the
    truncated plane's center, is none of them."""
    hint = get_type_hints(cls)
    kinds = {"center": (_as_complex, 0), "punctures": (_list_of(_as_complex), ())}
    return {"kind": (lambda raw, at: cls, REQUIRED), **{
        f.name: kinds.get(f.name, (_as_complex if hint[f.name] is complex else _as_float, REQUIRED))
        for f in dataclasses.fields(cls)}}


_DOMAIN_TABLES = {c.kind: _domain_table(c) for c in (Disk, Annulus, Rectangle, TruncatedPlane)}


def domain_from_json(cfg, pointer: str) -> DomainSpec:
    """Decode a domain object against the table of its ``kind``."""
    fields = _read(_pick(_DOMAIN_TABLES, cfg, "kind", pointer), cfg, pointer)
    try:
        return fields.pop("kind")(**fields)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def domain_to_json(domain: DomainSpec) -> dict:
    return {"kind": domain.kind, **encode_report(domain)}


_TRIPLE = {"domain": (domain_from_json, REQUIRED), "f": (_as_expr, REQUIRED),
           "g": (_as_expr, REQUIRED), "m": (_as_positive_int, REQUIRED)}


def _triple(value, pointer: str) -> tuple:
    """(domain, f, g, m) of a triple object, before any regularity check."""
    return tuple(_read(_TRIPLE, value, pointer).values())


def triple_to_json(t: MTriple) -> dict:
    return {
        "domain": domain_to_json(t.domain),
        "f": to_source(t.f),
        "g": to_source(t.g),
        "m": t.m,
    }


_PROPERTY = {"bounded": (_as_float, None), "omits": (_list_of(_as_ext), None)}


def _property(value, pointer: str):
    """Bounded or Omits, from a property object that carries exactly one of them."""
    given = {key: v for key, v in _read(_PROPERTY, value, pointer).items() if v is not None}
    if len(given) != 1:
        raise ConfigError(pointer, "a property carries exactly one of 'bounded' or 'omits'")
    ((key, arg),) = given.items()
    try:
        return (Bounded if key == "bounded" else Omits)(arg)
    except ValueError as exc:
        raise ConfigError(f"{pointer}/{key}", str(exc)) from exc


_REGION = {"center": (_as_complex, 0), "radius": (_as_positive, REQUIRED)}


def _region(value, pointer: str) -> Disk:
    """The disk of a region object; one that overflows a float is refused at its radius."""
    region = _read(_REGION, value, pointer)
    try:
        return Disk(region["center"], region["radius"])
    except ValueError as exc:
        raise ConfigError(f"{pointer}/radius", str(exc)) from exc


# the fields every action takes; ``--seed`` and ``--out`` override them
_COMMON = {"seed": (_as_int, 0), "output_dir": (_as_path, "run")}


def _surface_tables() -> dict:
    """One table per surface class for its synth, periods and singular actions:
    ``class`` yields (class, synth), and the data fields are its dataclass's."""
    from .surfaces import (FlatFrontData, ImproperAffineData, MaxfaceData, MinimalData,
                           synth_flatfront, synth_improper_affine, synth_maxface, synth_minimal)

    kinds = {"domain": (domain_from_json, REQUIRED), "base_point": (_as_complex, 0)}
    tables = {}
    for cls, synth in ((MinimalData, synth_minimal), (MaxfaceData, synth_maxface),
                       (ImproperAffineData, synth_improper_affine),
                       (FlatFrontData, synth_flatfront)):
        tables[cls.kind] = {
            "class": (lambda raw, at, pair=(cls, synth): pair, REQUIRED),
            **{f.name: kinds.get(f.name, (_as_expr, REQUIRED)) for f in dataclasses.fields(cls)},
            "resolution": (_as_int, 120),
            "exports": (_as_formats, ["obj", "ply", "csv"]),
            "cycles": (_list_of(_list_of(_as_complex)), ()),
            **({"step": (_as_positive, None)} if cls is FlatFrontData else {}),
        }
    return tables


# ---------------------------------------------------------------------------
# Handlers: each takes the action's parsed fields and the config as given,
# and returns (report, verdict_ok)
# ---------------------------------------------------------------------------


def _mesh(domain, resolution: int, density=None, refine: bool = False):
    """``build_mesh``, of unit density by default, with a resolution below 8 or a
    lattice past the point cap refused at ``/resolution``."""
    from .geodesy import build_mesh

    density = density or (lambda zs: np.ones(np.shape(zs)))
    return _probe(build_mesh, {"resolution": "/resolution"}, domain, density, resolution, refine)


def _points_in(domain, points: tuple, at: str) -> tuple:
    """``points``, the list at ``at``, each checked to lie inside ``domain``."""
    for j, z in enumerate(points):
        if not domain.contains(z):
            raise ConfigError(f"{at}/{j}", f"point {z} is not inside the domain")
    return points


def _handle_triple(action: str, fields: dict, cfg: dict) -> tuple[dict, bool]:
    domain, f, g, m = fields["triple"]
    # regularity is reported, not enforced: a failing triple still gets a report
    report = _probe(check_regularity, {"f": "/triple/f", "g": "/triple/g"}, domain, f, g, m)
    out = {"triple": cfg["triple"], "regularity": report}  # the triple as the config gives it
    if not report.overall:
        return out, False
    t = MTriple(domain, f, g, m, report)
    if action == "check":
        anchor = domain.anchor()
        out["curvature_at_anchor"] = curvature(t, anchor)
        out["anchor"] = anchor
        return out, True
    h = fields["fd_step"]
    out["points"] = [
        {"point": p, "curvature": curvature(t, p),
         "curvature_fd": _probe(curvature_fd, {"h": "/fd_step"}, t, p, h)}
        for p in _points_in(domain, fields["points"], "/points")
    ]
    out["fd_step"] = h
    return out, True


def _handle_estimate(action: str, fields: dict, cfg: dict) -> tuple[dict, bool]:
    triple = _probe(make_triple, {"f": "/triple/f", "g": "/triple/g"}, *fields["triple"])
    prop = fields["property"]
    c = _probe(curvature_constant, {"m": "/triple/m"}, prop, triple.m)
    # puncture rings act as ideal-boundary sources for the distance field;
    # the property check stands off from them on its own
    mesh = _mesh(triple.domain, fields["resolution"], triple.density, refine=True)
    prop_report = property_check(triple.g, prop, mesh, fields["delta"])
    est = verify_estimate(triple, prop, mesh, prop_report)
    out = {
        "triple": triple_to_json(triple),
        "property": prop_report,
        "estimate": est,
        "constant": c,
    }
    return out, est.verdict != "fail"


def _period_rows(data, cycles: tuple) -> list:
    from .surfaces import period_residuals

    rows = []
    for k, cycle in enumerate(cycles):
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


def _handle_surface(action: str, fields: dict, cfg: dict) -> tuple[dict, bool]:
    from .surfaces import export_mesh, gauss_normal_check, immersion_check, singular_locus

    cls, synth = fields["class"]
    names = [f.name for f in dataclasses.fields(cls)]
    try:
        data = cls(**{name: fields[name] for name in names})
    except ArgumentError as exc:
        raise ConfigError("/" + exc.name, f"invalid surface data: {exc}") from exc
    except (ValueError, RegularityViolation, NonHolomorphic) as exc:
        raise ConfigError("/" + names[0], f"invalid surface data: {exc}") from exc
    out: dict = {"class": cls.kind, "domain": domain_to_json(data.domain)}
    if action == "periods":
        if not fields["cycles"]:
            raise ConfigError("/cycles", "periods needs at least one cycle")
        out["periods"] = _period_rows(data, fields["cycles"])
        return out, True
    if action == "singular" and cls.kind == "minimal":
        raise ConfigError("/class", "the minimal class has no singular locus")
    mesh = _mesh(data.domain, fields["resolution"])
    if action == "singular":
        out["singular_locus"] = singular_locus(data, mesh)
        return out, True
    if "step" in fields:  # a flat front's frame is integrated by RK4 at this step
        step = fields["step"] if fields["step"] is not None else 1e-3 * data.domain.diameter()
        surface = _probe(synth, {"step": "/step"}, data, mesh, step)
    else:
        surface = synth(data, mesh)
    out["invariants"] = immersion_check(surface, data)
    if cls.kind == "minimal":
        out["gauss_normal"] = gauss_normal_check(surface, data.g)
        out["singular_locus"] = []
    else:
        out["singular_locus"] = singular_locus(data, mesh)
    out["periods"] = _period_rows(data, fields["cycles"])
    from .geodesy import write_edges_csv, write_nodes_csv

    outdir = Path(fields["output_dir"])
    for fmt in fields["exports"]:
        export_mesh(surface, fmt, outdir / _EXPORT_FILES[fmt])
    write_nodes_csv(mesh, outdir / "nodes.csv")
    write_edges_csv(mesh, outdir / "edges.csv")
    out["exports"] = sorted(fields["exports"])
    return out, True


def _probe(fn, pointers: dict, *args):
    """``fn(*args)``, with an argument it rejects reported at its config pointer."""
    try:
        return fn(*args)
    except ArgumentError as exc:
        raise ConfigError(pointers[exc.name], str(exc)) from exc


def _handle_probe(action: str, fields: dict, cfg: dict) -> tuple[dict, bool]:
    if action == "marty":
        template, indices = fields["family"], fields["indices"]
        # the template parses at n = 1, so a member that fails is over a parser cap for its index
        members = {n: _as_expr(template.replace("{n}", repr(n)), f"/indices/{k}")
                   for k, n in enumerate(indices)}
        args = (members.__getitem__, indices, fields["region"], fields["grid"], template)
        pointers = {"grid": "/grid", "indices": "/indices",
                    **{f"indices/{k}": f"/indices/{k}" for k in range(len(indices))}}
        rep = _probe(marty_sup, pointers, *args)
        return {"marty": rep}, True
    if action == "zalcman":
        pointers = {"h": "/h", "searchgrid": "/searchgrid"}
        rep = _probe(zalcman_rescale, pointers, fields["h"], fields["searchgrid"])
        return {"zalcman": rep}, True
    if action == "fujimoto":
        disk = _region({"radius": fields["radius"]}, "")  # the region {radius} at the root
        mesh = _mesh(disk, fields["resolution"])
        args = (fields["f"], fields["omits"], fields["eta"], disk.radius, mesh)
        pointers = {"values": "/omits", "eta": "/eta"}
        return {"fujimoto": _probe(fujimoto_ratio, pointers, *args)}, True
    # action == "completeness"
    if not fields["targets"]:
        raise ConfigError("/targets", "completeness needs at least one target")
    triple = _probe(make_triple, {"f": "/triple/f", "g": "/triple/g"}, *fields["triple"])
    reports = [
        _probe(completeness_probe, {"eps_levels": "/eps_levels", "target": f"/targets/{k}"},
               triple, t, fields["eps_levels"])
        for k, t in enumerate(fields["targets"])
    ]
    return {"triple": triple_to_json(triple), "completeness": reports}, True


def _handle_example(action: str, fields: dict, cfg: dict) -> tuple[dict, bool]:
    alphas = fields["alphas"]
    try:
        triple = optimal_example(fields["m"], alphas, fields["radius"])
    except ArgumentError as exc:  # a radius that leaves an alpha outside
        raise ConfigError("/" + exc.name, str(exc)) from exc
    except ValueError as exc:  # the count of alphas, two that coincide, or two clustered as one
        raise ConfigError("/alphas", str(exc)) from exc
    mesh = _mesh(triple.domain, fields["resolution"], triple.density)
    prop = Omits(tuple([ExtComplex(a) for a in alphas] + [INFINITY]))
    check = property_check(triple.g, prop, mesh)
    out = {
        "triple": triple_to_json(triple),
        "regularity": triple.regularity,
        "omitted_values": [*alphas, "infinity"],
        "omitted_count": len(alphas) + 1,
        "omission_check": check,
    }
    return out, bool(check.verdict)


# each group's handler, and the table of each action that argparse lets
# through to it; a surface action reads the table of the config's class
_ACTIONS = {
    "triple": (_handle_triple, {
        "check": {"triple": (_triple, REQUIRED)},
        "curvature": {"triple": (_triple, REQUIRED), "points": (_list_of(_as_complex), REQUIRED),
                      "fd_step": (_as_positive, 1e-3)},
    }),
    "estimate": (_handle_estimate, {
        "verify": {"triple": (_triple, REQUIRED), "property": (_property, REQUIRED),
                   "resolution": (_as_int, 200), "delta": (_as_positive, 1e-3)},
    }),
    "surface": (_handle_surface, dict.fromkeys(("synth", "periods", "singular"))),
    "probe": (_handle_probe, {
        "marty": {"family": (_as_template, REQUIRED),
                  "indices": (_list_of(_as_positive_int), REQUIRED),
                  "region": (_region, REQUIRED), "grid": (_as_positive_int, 120)},
        "zalcman": {"h": (_as_expr, REQUIRED), "searchgrid": (_as_positive_int, 300)},
        "fujimoto": {"f": (_as_expr, REQUIRED), "omits": (_list_of(_as_ext), REQUIRED),
                     "eta": (_as_float, REQUIRED), "radius": (_as_positive, REQUIRED),
                     "resolution": (_as_int, 150)},
        "completeness": {"triple": (_triple, REQUIRED),
                         "eps_levels": (_list_of(_as_float), REQUIRED),
                         "targets": (_list_of(_as_target), REQUIRED)},
    }),
    "example": (_handle_example, {
        "optimal": {"m": (_as_positive_int, REQUIRED), "alphas": (_list_of(_as_complex), REQUIRED),
                    "radius": (_as_positive, None), "resolution": (_as_int, 150)},
    }),
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
    for group, (_, tables) in _ACTIONS.items():
        p = sub.add_parser(group)
        p.add_argument("action", choices=tuple(tables))
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


def main(argv=None) -> int:
    opts = _build_parser().parse_args(argv)
    try:
        raw = Path(opts.config).read_text()
    except OSError as exc:
        print(_error_object("io", f"cannot read config: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = json.loads(raw)
        cfg_sha256 = config_hash(cfg) if isinstance(cfg, dict) else None
    except json.JSONDecodeError as exc:
        print(_error_object("config", f"config is not valid JSON: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    except ReportValueError as exc:  # json.loads accepts NaN and overflows to inf
        print(_error_object("config", f"config is not canonical JSON: {exc}"), file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        message = "config nests deeper than the interpreter's recursion limit"
        print(_error_object("config", message), file=sys.stderr)
        return EXIT_ERROR
    if not isinstance(cfg, dict):
        print(_error_object("config", "config root must be an object", "/"), file=sys.stderr)
        return EXIT_ERROR

    # a flag is read as the config field it overrides
    flags = {"seed": opts.seed, "output_dir": opts.out, "resolution": opts.resolution}
    given = {**cfg, **{key: v for key, v in flags.items() if v is not None}}
    try:
        handler, tables = _ACTIONS[opts.group]
        own = tables[opts.action] or _pick(_surface_tables(), given, "class", "")
        fields = _read({**_COMMON, **own}, given, "")
        report, ok = handler(opts.action, fields, cfg)
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
        report["seed"] = fields["seed"]
        report["subcommand"] = f"{opts.group} {opts.action}"
        path = emit_report(report, Path(fields["output_dir"]) / "report.json")
    except ReportValueError as exc:
        print(_error_object("report", str(exc)), file=sys.stderr)
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
