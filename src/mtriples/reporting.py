"""Canonical JSON reports: sorted keys, fixed float formatting, no NaN.

Reports must be byte-identical across runs with the same config and seed,
so floats are rendered with a fixed 17-significant-digit format and any
non-finite number aborts serialization instead of leaking into a report.
``canonical_json`` renders the result objects of the library in one walk:
an expression as its source text, a dataclass as an object of its fields,
a complex number as an ``[re, im]`` pair, a complex array as a row-major
list of such pairs, and a real array as its ``tolist()``.  The table
exports (OBJ, PLY and CSV) share one row writer here, ``_write_rows``, which
formats and writes fixed blocks of rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .expr import MeroExpr, to_source

__all__ = ["canonical_json", "emit_report", "config_hash", "ReportValueError"]


class ReportValueError(ValueError):
    """A report contained NaN/inf or an unserializable object."""


def _render(obj, out: list) -> None:
    """Append the canonical text of ``obj`` to ``out``; the one walk of a report."""
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
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, complex):
        _render([obj.real, obj.imag], out)
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
    elif isinstance(obj, np.ndarray):
        # a complex array row-major as [re, im] pairs; a 0-d real array as its scalar
        _render(obj.ravel().tolist() if np.iscomplexobj(obj) else obj.tolist(), out)
    elif isinstance(obj, MeroExpr):  # expression nodes are dataclasses too
        out.append(json.dumps(to_source(obj)))
    elif dataclasses.is_dataclass(obj):
        _render({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out)
    else:
        raise ReportValueError(f"unserializable object of type {type(obj).__name__}")


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


_ROWS = 65_536  # rows per block of a table export


def _write_rows(fh, row: str, columns: list) -> None:
    """Write ``row``, one ``%`` field per column, once per entry of the
    equal-length array ``columns``, each field filled by the entry as a plain
    Python number; ``_ROWS`` rows at a time, so no list or text of the whole
    table is ever held."""
    ncols, n = len(columns), len(columns[0])
    for start in range(0, n, _ROWS):
        stop = min(start + _ROWS, n)
        values = [None] * (ncols * (stop - start))
        for k, col in enumerate(columns):
            values[k::ncols] = col[start:stop].tolist()
        fh.write((row * (stop - start)) % tuple(values))


def _write_csv(path, header: list, columns: list) -> None:
    """One row per entry of the equal-length ``columns``, as ``csv.writer``
    writes numbers: each its Python ``repr``, every row ended by CRLF; the
    directory is made if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, ",".join(["%r"] * len(columns)) + "\r\n", [np.asarray(c) for c in columns])
