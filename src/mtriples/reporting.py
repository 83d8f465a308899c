"""Canonical JSON reports: sorted keys, fixed float formatting, no NaN.

Reports must be byte-identical across runs with the same config and seed,
so floats are rendered with a fixed 17-significant-digit format and any
non-finite number aborts serialization instead of leaking into a report.
``encode_report`` turns the result objects of the library (dataclasses,
complex numbers, arrays, expressions) into the plain values that
``canonical_json`` renders.  The table exports (OBJ, PLY and CSV) share
one row writer here, ``_rows``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .expr import MeroExpr, to_source

__all__ = ["canonical_json", "emit_report", "encode_report", "config_hash", "ReportValueError"]


class ReportValueError(ValueError):
    """A report contained NaN/inf or an unserializable object."""


def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ReportValueError(f"non-finite number in report: {x}")
        out.append(f"{x:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, complex):
        raise ReportValueError("complex values must be encoded as [re, im] pairs")
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ReportValueError(f"non-string key in report: {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for k, item in enumerate(items):
            if k:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise ReportValueError(f"unserializable object of type {type(obj).__name__}")


def encode_report(obj):
    """Plain JSON values for a report: expressions become source text,
    dataclasses dicts of their fields, complex numbers ``[re, im]`` pairs
    and complex arrays row-major lists of such pairs."""
    if isinstance(obj, MeroExpr):  # expression nodes are dataclasses too
        return to_source(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: encode_report(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return encode_report(obj.ravel().tolist()) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, dict):
        return {k: encode_report(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_report(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    out: list = []
    _render(obj, out)
    return "".join(out)


def emit_report(obj, path) -> Path:
    """Write the canonical JSON document; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")
    return path


def config_hash(config) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _rows(row: str, values: list) -> str:
    """``row``, one ``%`` field per column, once per row of the row-major ``values``."""
    return (row * (len(values) // row.count("%"))) % tuple(values)


def _write_csv(path, header: list, columns: list) -> None:
    """One row per entry of the equal-length ``columns``, as ``csv.writer``
    writes numbers: each its Python ``repr``, every row ended by CRLF; the
    directory is made if missing."""
    ncols = len(columns)
    values = [None] * (ncols * len(columns[0]))
    for k, col in enumerate(columns):
        values[k::ncols] = np.asarray(col).tolist()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + _rows(",".join(["%r"] * ncols) + "\r\n", values))
