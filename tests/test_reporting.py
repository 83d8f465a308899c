"""Canonical JSON: determinism, float format, non-finite refusal; how
library results (expressions, dataclasses, complex values) render; the
blocked row writer of the table exports."""

import csv
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from mtriples import reporting
from mtriples.expr import parse_mero
from mtriples.mtriple import Disk
from mtriples.reporting import (
    ReportValueError,
    canonical_json,
    config_hash,
    emit_report,
)


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_17_digits(self):
        text = canonical_json({"x": 1.0 / 3.0})
        assert text == '{"x":0.33333333333333331}'

    def test_reparses(self):
        obj = {"a": [1, 2.5, None, True], "b": {"c": "text"}}
        assert json.loads(canonical_json(obj)) == obj

    def test_numpy_scalars_and_arrays(self):
        text = canonical_json({"v": np.float64(0.5), "a": np.arange(3)})
        assert json.loads(text) == {"v": 0.5, "a": [0, 1, 2]}

    def test_refuses_nan(self):
        with pytest.raises(ReportValueError):
            canonical_json({"x": math.nan})

    def test_refuses_inf(self):
        with pytest.raises(ReportValueError):
            canonical_json({"x": [1.0, math.inf]})

    def test_complex_renders_as_a_pair(self):
        assert canonical_json({"x": 1 - 2j}) == '{"x":[1,-2]}'
        for bad in (complex(math.nan, 1.0), complex(0.0, math.inf)):
            with pytest.raises(ReportValueError):
                canonical_json({"x": bad})

    @pytest.mark.parametrize("obj", [{1: "a"}, {"x": {1, 2}}, {"x": np.bool_(True)}])
    def test_refuses_what_json_cannot_hold(self, obj):
        with pytest.raises(ReportValueError):
            canonical_json(obj)

    def test_hash_stable(self):
        cfg = {"triple": {"f": "1", "g": "z", "m": 2}, "seed": 0}
        assert config_hash(cfg) == config_hash(dict(cfg))
        assert config_hash(cfg) != config_hash(dict(cfg, seed=1))

    def test_emit_writes_trailing_newline(self, tmp_path):
        path = emit_report({"a": 1}, tmp_path / "r.json")
        assert path.read_text() == '{"a":1}\n'


@dataclass(frozen=True)
class _Inner:
    point: complex
    note: str


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    items: tuple
    missing: object


class TestEncodeReport:
    """How ``canonical_json`` encodes the library's result objects."""

    def test_expression_becomes_source_text(self):
        @dataclass(frozen=True)
        class Holder:
            expr: object

        got = canonical_json(Holder(parse_mero("z^2 + 1")))
        assert got == '{"expr":"z^2 + 1"}'

    def test_complex_matrix_row_major_pairs(self):
        m = np.array([[1 + 2j, 3 - 4j], [5j, -6 + 0j]])
        got = json.loads(canonical_json(m))
        assert got == [[1.0, 2.0], [3.0, -4.0], [0.0, 5.0], [-6.0, 0.0]]

    def test_zero_dimensional_arrays(self):
        # a real one renders as its scalar, a complex one as a list of one pair
        assert canonical_json(np.array(2.5)) == "2.5"
        assert canonical_json(np.array(1 - 2j)) == "[[1,-2]]"

    def test_none_becomes_null(self):
        assert canonical_json({"x": None}) == '{"x":null}'

    def test_class_variables_are_not_fields(self):
        # a domain's kind is a ClassVar
        assert json.loads(canonical_json(Disk(0, 1.0))) == {
            "center": [0.0, 0.0], "radius": 1.0, "punctures": []}

    def test_nested_dataclasses(self):
        obj = _Outer(_Inner(0.5 - 1j, "ok"), (1j, np.arange(2.0)), None)
        got = json.loads(canonical_json(obj))
        assert got == {
            "inner": {"point": [0.5, -1.0], "note": "ok"},
            "items": [[0.0, 1.0], [0.0, 1.0]],
            "missing": None,
        }


class TestBlockedRows:
    def test_csv_longer_than_one_block_matches_csv_writer(self, tmp_path):
        n = 2 * reporting._ROWS + 3
        rng = np.random.default_rng(4)
        special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1 + 0.2, -1.19, 1.0]
        header = ["id", "x", "special", "flag"]
        columns = [np.arange(n), rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
                   np.resize(special, n), (np.arange(n) % 3 == 0).astype(int)]
        reporting._write_csv(tmp_path / "got.csv", header, columns)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(zip(*(c.tolist() for c in columns)))
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        assert want.count(b"\r\n") == n + 1

    def test_a_four_times_longer_table_raises_the_peak_by_less_than_one_block(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "_ROWS", 4096)

        def peak(rows: int) -> int:
            columns = [np.arange(rows), np.linspace(-1.0, 1.0, rows), np.linspace(0.0, 1e6, rows)]
            tracemalloc.start()
            try:
                reporting._write_csv(tmp_path / f"{rows}.csv", ["i", "x", "y"], columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = peak(4096)
        assert peak(4 * 3 * 4096) - peak(3 * 4096) < one_block
