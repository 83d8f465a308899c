"""CLI contract: schemas, exit codes, determinism, artifacts."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mtriples.cli import domain_from_json, domain_to_json, main
from mtriples.reporting import canonical_json

EXE = [sys.executable, "-m", "mtriples.cli"]

DISK = {"kind": "disk", "center": [0, 0], "radius": 1.0, "punctures": []}


def run_cli(tmp_path, group, action, cfg, name="cfg"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"out_{name}"
    cmd = EXE + [group, action, "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    report = None
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return proc, report, out


@pytest.mark.parametrize(
    "cfg, filled",
    [
        ({"kind": "disk", "radius": 1.5}, {"center": [0, 0], "punctures": []}),
        ({"kind": "disk", "center": [0.5, -1], "radius": 2, "punctures": [[0.5, 0]]}, {}),
        ({"kind": "annulus", "center": [1, 1], "r_inner": 0.5, "r_outer": 2.0,
          "punctures": [[2.5, 1]]}, {}),
        ({"kind": "rectangle", "corner_min": [-1, -0.5], "corner_max": [2, 1]},
         {"punctures": []}),
        ({"kind": "truncated_plane", "radius": 3.0, "punctures": [[1, 0], [-1, 0]]}, {}),
    ],
    ids=["disk-no-center", "disk", "annulus", "rectangle", "truncated_plane"],
)
def test_domain_json_round_trip(cfg, filled):
    out = json.loads(canonical_json(domain_to_json(domain_from_json(cfg, "/domain"))))
    assert out == {**cfg, **filled}
    assert json.loads(canonical_json(domain_to_json(domain_from_json(out, "/domain")))) == out


class TestTripleCommands:
    def test_check_reports_anchor_curvature(self, tmp_path):
        cfg = {"triple": {"domain": DISK, "f": "1", "g": "z", "m": 2}}
        proc, report, _ = run_cli(tmp_path, "triple", "check", cfg)
        assert proc.returncode == 0
        assert abs(report["curvature_at_anchor"] + 4.0) < 1e-10
        assert proc.stdout.strip().endswith("report.json")

    def test_check_regularity_failure_exits_2(self, tmp_path):
        cfg = {
            "triple": {
                "domain": {"kind": "disk", "center": [0, 0], "radius": 2.0, "punctures": []},
                "f": "1",
                "g": "1/z",
                "m": 1,
            }
        }
        proc, report, _ = run_cli(tmp_path, "triple", "check", cfg)
        assert proc.returncode == 2
        assert report["regularity"]["overall"] is False

    def test_curvature_points(self, tmp_path):
        cfg = {
            "triple": {"domain": DISK, "f": "1", "g": "z", "m": 2},
            "points": [[0, 0], [0.5, 0]],
        }
        proc, report, _ = run_cli(tmp_path, "triple", "curvature", cfg)
        assert proc.returncode == 0
        k0 = report["points"][0]
        assert abs(k0["curvature"] + 4.0) < 1e-10
        assert abs(k0["curvature_fd"] + 4.0) < 1e-4


class TestEstimateCommand:
    CFG = {
        "triple": {"domain": DISK, "f": "1", "g": "z/2", "m": 2},
        "property": {"bounded": 1.0},
        "resolution": 80,
        "seed": 5,
    }

    def test_pass_and_constant(self, tmp_path):
        proc, report, _ = run_cli(tmp_path, "estimate", "verify", self.CFG)
        assert proc.returncode == 0
        assert report["estimate"]["verdict"] == "pass"
        assert report["estimate"]["constant_squared"] == 16.0

    def test_deterministic_bytes(self, tmp_path):
        _, _, out1 = run_cli(tmp_path, "estimate", "verify", self.CFG, name="a")
        _, _, out2 = run_cli(tmp_path, "estimate", "verify", self.CFG, name="b")
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_property_violation_exit_2(self, tmp_path):
        cfg = dict(self.CFG, property={"bounded": 0.25})
        proc, _, _ = run_cli(tmp_path, "estimate", "verify", cfg)
        assert proc.returncode == 2
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "verdict"

    @pytest.mark.parametrize(
        "radius, delta, code",
        [(0.9995, 1e-6, 0), (0.9, 0.3, 2)],
        ids=["min-distance-above-delta", "min-distance-below-delta"],
    )
    def test_config_delta_decides_the_verdict(self, tmp_path, radius, delta, code):
        # g = z comes within 7.5e-4 (radius 0.9995) and 0.053 (radius 0.9) of 1 and -1
        cfg = {
            "triple": {"domain": dict(DISK, radius=radius), "f": "1", "g": "z", "m": 1},
            "property": {"omits": [1, -1, "inf"]},
            "resolution": 40,
            "delta": delta,
        }
        proc, report, _ = run_cli(tmp_path, "estimate", "verify", cfg)
        assert proc.returncode == code
        if code == 0:
            assert report["property"]["verdict"] is True
            assert report["property"]["threshold"] == delta
        else:
            assert json.loads(proc.stderr.splitlines()[-1])["error"]["kind"] == "verdict"

    def test_schema_error_carries_pointer(self, tmp_path):
        cfg = {"triple": {"domain": DISK, "f": "1", "m": 2}, "property": {"bounded": 1.0}}
        proc, _, _ = run_cli(tmp_path, "estimate", "verify", cfg)
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["pointer"] == "/triple/g"

    def test_bad_expression_rejected(self, tmp_path):
        cfg = {
            "triple": {"domain": DISK, "f": "1", "g": "sin(z)", "m": 2},
            "property": {"bounded": 1.0},
        }
        proc, _, _ = run_cli(tmp_path, "estimate", "verify", cfg)
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["pointer"] == "/triple/g"


class TestSurfaceCommand:
    def test_synth_enneper_artifacts(self, tmp_path):
        cfg = {
            "class": "minimal",
            "f": "1",
            "g": "z",
            "domain": {"kind": "disk", "center": [0, 0], "radius": 1.2, "punctures": []},
            "base_point": [0, 0],
            "resolution": 48,
            "exports": ["obj", "ply", "csv", "json"],
        }
        proc, report, out = run_cli(tmp_path, "surface", "synth", cfg)
        assert proc.returncode == 0
        for f in ("mesh.obj", "mesh.ply", "vertices.csv", "surface.json", "nodes.csv", "edges.csv"):
            assert (out / f).exists(), f
        inv = report["invariants"]
        assert inv["conformal_asymmetry"] <= 1e-3
        assert inv["laplacian"] <= 1e-3
        assert report["gauss_normal"]["max_angle"] <= 1e-2

    def test_synth_without_exports_makes_its_run_directory(self, tmp_path):
        # only the mesh tables and the report are written, into a directory
        # that does not exist yet
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(_SURFACE, exports=[])))
        out = tmp_path / "fresh"
        assert main(["surface", "synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["edges.csv", "nodes.csv", "report.json"]

    def test_singular_locus_subcommand(self, tmp_path):
        cfg = {
            "class": "maxface",
            "f": "1",
            "g": "z",
            "domain": {"kind": "disk", "center": [0, 0], "radius": 2.0, "punctures": []},
            "resolution": 100,
        }
        proc, report, _ = run_cli(tmp_path, "surface", "singular", cfg)
        assert proc.returncode == 0
        pts = [complex(p[0], p[1]) for poly in report["singular_locus"] for p in poly]
        assert pts and max(abs(abs(p) - 1.0) for p in pts) < 0.01

    def test_periods_subcommand(self, tmp_path):
        circle = [
            [math.cos(2 * math.pi * k / 48), math.sin(2 * math.pi * k / 48)] for k in range(48)
        ]
        cfg = {
            "class": "minimal",
            "f": "i/z^2",
            "g": "z",
            "domain": {"kind": "annulus", "center": [0, 0], "r_inner": 0.5, "r_outer": 2.0,
                        "punctures": []},
            "base_point": [1, 0],
            "cycles": [circle],
        }
        proc, report, _ = run_cli(tmp_path, "surface", "periods", cfg)
        assert proc.returncode == 0
        third = report["periods"][0]["values"][2]
        assert abs(abs(third) - 4 * math.pi) < 1e-6


    @pytest.mark.parametrize("step", ["abc", 0, -1, "inf", True, 0.5])
    def test_bad_step_is_schema_error(self, tmp_path, step):
        cfg = {"class": "flat_front", "omega": "1", "theta": "z/2", "domain": DISK,
               "resolution": 20, "step": step}
        proc, report, _ = run_cli(tmp_path, "surface", "synth", cfg)
        assert proc.returncode == 1
        assert report is None
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "schema"
        assert err["error"]["pointer"] == "/step"


class TestProbeCommands:
    def test_zalcman(self, tmp_path):
        proc, report, _ = run_cli(
            tmp_path, "probe", "zalcman", {"h": "10*z", "searchgrid": 120}
        )
        assert proc.returncode == 0
        assert abs(report["zalcman"]["gradient_at_zero"] - 1.0) <= 1e-9

    def test_marty_template(self, tmp_path):
        cfg = {
            "family": "({n})*z",
            "indices": [1, 2, 4, 8],
            "region": {"center": [0, 0], "radius": 0.5},
            "grid": 60,
        }
        proc, report, _ = run_cli(tmp_path, "probe", "marty", cfg)
        assert proc.returncode == 0
        assert report["marty"]["verdict"] == "unbounded-growth"

    def test_completeness_multi_target(self, tmp_path):
        cfg = {
            "triple": {
                "domain": {"kind": "truncated_plane", "radius": 3.0,
                           "punctures": [[1, 0], [-1, 0]]},
                "f": "1/(z^2-1)",
                "g": "z",
                "m": 1,
            },
            "targets": [[1, 0], "infinity"],
            "eps_levels": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
        }
        proc, report, _ = run_cli(tmp_path, "probe", "completeness", cfg)
        assert proc.returncode == 0
        assert all(r["divergence_evidence"] for r in report["completeness"])

    def test_fujimoto_eta_precondition(self, tmp_path):
        cfg = {
            "f": "exp(z)/(1+exp(z))",
            "omits": [[0, 0], [1, 0], "inf"],
            "eta": 0.4,
            "radius": 3.0,
            "resolution": 60,
        }
        proc, _, _ = run_cli(tmp_path, "probe", "fujimoto", cfg)
        assert proc.returncode == 1  # (q-2)/q = 1/3 < 0.4


class TestExampleCommand:
    def test_optimal(self, tmp_path):
        cfg = {"m": 1, "alphas": [[1, 0], [-1, 0]], "resolution": 100}
        proc, report, _ = run_cli(tmp_path, "example", "optimal", cfg)
        assert proc.returncode == 0
        assert report["omitted_count"] == 3
        assert report["regularity"]["overall"] is True
        assert report["omission_check"]["verdict"] is True

    def test_duplicate_alphas_rejected(self, tmp_path):
        cfg = {"m": 1, "alphas": [[1, 0], [1, 0]]}
        proc, _, _ = run_cli(tmp_path, "example", "optimal", cfg)
        assert proc.returncode == 1


class TestReportHygiene:
    def test_reports_carry_provenance(self, tmp_path):
        cfg = {"triple": {"domain": DISK, "f": "1", "g": "z", "m": 2}}
        _, report, _ = run_cli(tmp_path, "triple", "check", cfg)
        assert report["tool"]["name"] == "mtriples"
        assert len(report["config_sha256"]) == 64
        assert "seed" in report

    def test_missing_config_file(self, tmp_path):
        proc = subprocess.run(
            EXE + ["triple", "check", "--config", str(tmp_path / "nope.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "io"

    def test_non_integer_seed_is_schema_error(self, tmp_path):
        cfg = {"triple": {"domain": DISK, "f": "1", "g": "z", "m": 2}, "seed": "abc"}
        proc, report, _ = run_cli(tmp_path, "triple", "check", cfg)
        assert proc.returncode == 1
        assert report is None
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "schema"
        assert err["error"]["pointer"] == "/seed"
        # a numeric string is not a JSON integer; an integral float is
        proc, report, _ = run_cli(tmp_path, "triple", "check", dict(cfg, seed="7"), name="str")
        assert proc.returncode == 1
        assert report is None
        assert json.loads(proc.stderr.splitlines()[0])["error"]["pointer"] == "/seed"
        proc, report, _ = run_cli(tmp_path, "triple", "check", dict(cfg, seed=7.0), name="ok")
        assert proc.returncode == 0
        assert report["seed"] == 7

    @pytest.mark.parametrize(
        "field, value", [("radius", [1]), ("radius", "inf"), ("punctures", 5), ("center", "x")]
    )
    def test_malformed_domain_field_is_schema_error(self, tmp_path, field, value):
        cfg = {"triple": {"domain": dict(DISK, **{field: value}), "f": "1", "g": "z", "m": 2}}
        proc, report, _ = run_cli(tmp_path, "triple", "check", cfg)
        assert proc.returncode == 1
        assert report is None
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "schema"
        assert err["error"]["pointer"] == f"/triple/domain/{field}"

    def test_non_integer_resolution_is_schema_error(self, tmp_path):
        cfg = dict(TestEstimateCommand.CFG, resolution="abc")
        proc, report, _ = run_cli(tmp_path, "estimate", "verify", cfg)
        assert proc.returncode == 1
        assert report is None
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "schema"
        assert err["error"]["pointer"] == "/resolution"

    def test_non_path_output_dir_is_schema_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"triple": {"domain": DISK, "f": "1", "g": "z", "m": 2}, "output_dir": {"a": 1}}
        ))
        proc = subprocess.run(
            EXE + ["triple", "check", "--config", str(cfg_path)], capture_output=True, text=True
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "schema"
        assert err["error"]["pointer"] == "/output_dir"

    @pytest.mark.parametrize(
        "group, action, cfg",
        [
            ("triple", "check", {"triple": {"domain": DISK, "f": "1", "g": "z", "m": 2}}),
            ("surface", "synth", {"class": "minimal", "f": "1", "g": "z", "domain": DISK,
                                  "resolution": 20, "exports": ["obj"]}),
        ],
    )
    def test_out_naming_a_file_is_io_error(self, tmp_path, group, action, cfg):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            EXE + [group, action, "--config", str(cfg_path), "--out", str(taken)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "io"
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("number", ["NaN", "1e400"])
    def test_non_finite_config_number(self, tmp_path, number):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"triple": {"domain": {"kind": "disk", "radius": 1.0}, "f": "1", "g": "z", "m": 2},'
            f' "note": {number}}}'
        )
        proc = subprocess.run(
            EXE + ["triple", "check", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "config"

    # 5000 levels stop the JSON decoder; 700 pass it, and the triple's table refuses the key
    @pytest.mark.parametrize("depth, kind, pointer", [(5000, "config", None),
                                                      (700, "schema", "/triple/note")],
                             ids=["5000", "700"])
    def test_deeply_nested_config(self, tmp_path, depth, kind, pointer):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"triple": {"domain": {"kind": "disk", "radius": 1.0}, "f": "1", "g": "z", "m": 2,'
            f' "note": {"[" * depth}{"]" * depth}}}}}'
        )
        proc = subprocess.run(
            EXE + ["triple", "check", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert not (tmp_path / "out" / "report.json").exists()
        err = json.loads(proc.stderr.splitlines()[-1])
        assert err["error"]["kind"] == kind
        assert err["error"].get("pointer") == pointer

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = subprocess.run(
            EXE + ["triple", "check", "--config", str(bad)], capture_output=True, text=True
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr.splitlines()[0])
        assert err["error"]["kind"] == "config"


_TRIPLE = {"domain": DISK, "f": "1", "g": "z", "m": 2}
_MARTY = {"family": "({n})*z", "indices": [1, 2], "region": {"radius": 0.5}, "grid": 20}
_FUJIMOTO = {"f": "z", "omits": [[1.2, 0], [-1.2, 0], "inf"], "eta": 0.2, "radius": 0.9,
             "resolution": 20}
_COMPLETENESS = {"triple": {"domain": {"kind": "truncated_plane", "radius": 3.0,
                                       "punctures": [[1, 0], [-1, 0]]},
                            "f": "1/(z^2-1)", "g": "z", "m": 1},
                 "targets": ["infinity"], "eps_levels": [1e-1, 1e-2]}
# the boundary point [1, 0] is a target; points past it are not
_DISK_COMPLETENESS = {"triple": {"domain": DISK, "f": "1", "g": "z", "m": 1},
                      "targets": [[1, 0]], "eps_levels": [1e-1, 1e-2]}
_ESTIMATE = {"triple": {"domain": DISK, "f": "1", "g": "z/2", "m": 2},
             "property": {"bounded": 1.0}, "resolution": 20}
_SURFACE = {"class": "minimal", "f": "1", "g": "z", "domain": DISK, "resolution": 20}
ANNULUS = {"kind": "annulus", "center": [0, 0], "r_inner": 0.5, "r_outer": 2.0}


@pytest.mark.parametrize(
    "group, action, cfg, pointer",
    [
        ("triple", "curvature", {"triple": _TRIPLE, "points": [0], "fd_step": "abc"}, "/fd_step"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": [0], "fd_step": 0}, "/fd_step"),
        ("estimate", "verify", dict(_ESTIMATE, delta="abc"), "/delta"),
        ("estimate", "verify", dict(_ESTIMATE, property={"omits": [[2, 0]]}, delta="nan"),
         "/delta"),
        ("estimate", "verify", dict(_ESTIMATE, property={"bounded": "inf"}), "/property/bounded"),
        ("probe", "marty", dict(_MARTY, indices=[1, "x"]), "/indices/1"),
        ("probe", "marty", dict(_MARTY, region=5), "/region"),
        ("probe", "marty", dict(_MARTY, grid="abc"), "/grid"),
        ("probe", "zalcman", {"h": "10*z", "searchgrid": "abc"}, "/searchgrid"),
        ("probe", "fujimoto", dict(_FUJIMOTO, eta="abc"), "/eta"),
        ("probe", "fujimoto", dict(_FUJIMOTO, radius="inf"), "/radius"),
        ("probe", "completeness", dict(_COMPLETENESS, eps_levels=[0.1, "nan"]), "/eps_levels/1"),
        ("example", "optimal", {"m": 1, "alphas": [[1, 0], [-1, 0]], "radius": "abc"}, "/radius"),
        ("triple", "check", {"triple": dict(_TRIPLE, g="(" * 400 + "z" + ")" * 400)}, "/triple/g"),
        ("triple", "check", {"triple": dict(_TRIPLE, g="+".join(["z"] * 1200))}, "/triple/g"),
        ("triple", "curvature", {"triple": dict(_TRIPLE, g="z^100000000000000000000"),
                                 "points": [[0.1, 0]]}, "/triple/g"),
        ("triple", "check", {"triple": dict(_TRIPLE, g="(z^1000)^1000")}, "/triple/g"),
        ("probe", "zalcman", {"h": "(2*z)^100000000000000000000", "searchgrid": 40}, "/h"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": 5}, "/points"),
        ("example", "optimal", {"m": 1, "alphas": 5}, "/alphas"),
        ("surface", "periods", dict(_SURFACE, cycles=5), "/cycles"),
        ("surface", "periods", dict(_SURFACE, cycles=[5]), "/cycles/0"),
        ("surface", "synth", dict(_SURFACE, exports="obj"), "/exports"),
        ("surface", "synth", dict(_SURFACE, exports=[["obj"]]), "/exports"),
        ("probe", "completeness", dict(_COMPLETENESS, eps_levels=0.1), "/eps_levels"),
        ("probe", "completeness", dict(_COMPLETENESS, targets=5), "/targets"),
        ("estimate", "verify", dict(_ESTIMATE, property={"omits": 5}), "/property/omits"),
        ("probe", "fujimoto", dict(_FUJIMOTO, omits=5), "/omits"),
        ("probe", "fujimoto", dict(_FUJIMOTO, radius=-1), "/radius"),
        ("probe", "marty", dict(_MARTY, indices=5), "/indices"),
        ("probe", "marty", dict(_MARTY, indices=[0, 1]), "/indices/0"),
        ("probe", "marty", dict(_MARTY, family="({n}*z"), "/family"),
        ("probe", "marty", dict(_MARTY, region={"radius": -0.5}), "/region/radius"),
        ("probe", "marty", dict(_MARTY, grid=0), "/grid"),
        ("probe", "zalcman", {"h": "10*z", "searchgrid": 0}, "/searchgrid"),
        ("triple", "check", {"triple": dict(_TRIPLE, m=True)}, "/triple/m"),
        ("example", "optimal", {"m": True, "alphas": [[1, 0], [-1, 0]]}, "/m"),
        ("triple", "check", {"triple": dict(_TRIPLE, domain=dict(DISK, center=["inf", 0]))},
         "/triple/domain/center"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": [[0, True]]}, "/points/0"),
        ("example", "optimal", {"m": 1, "alphas": [[1, 0], [-1, 0]], "radius": -3}, "/radius"),
        ("surface", "synth", dict(_SURFACE, **{"class": ["minimal"]}), "/class"),
        ("surface", "periods", dict(_SURFACE, cycles=[[]]), "/cycles/0"),
        ("surface", "periods", dict(_SURFACE, cycles=[[[0, 0.5], [0.5, 0]], [[0.5, 0]]]),
         "/cycles/1"),
    ],
    ids=[
        "fd_step-abc", "fd_step-0", "delta-abc", "delta-nan", "bounded-inf", "marty-indices",
        "marty-region", "marty-grid", "zalcman-searchgrid", "fujimoto-eta", "fujimoto-radius",
        "completeness-eps", "optimal-radius", "nested-parentheses", "long-sum",
        "huge-exponent", "power-of-power", "zalcman-huge-exponent",
        "points-not-list", "alphas-not-list", "cycles-not-list", "cycle-not-list",
        "exports-string", "exports-nested", "eps-levels-not-list", "targets-not-list",
        "property-omits-not-list", "fujimoto-omits-not-list", "fujimoto-radius-negative",
        "marty-indices-not-list", "marty-index-zero", "marty-family-unparsable",
        "marty-radius-negative", "marty-grid-zero", "zalcman-searchgrid-zero",
        "triple-m-bool", "optimal-m-bool", "center-inf", "point-part-bool",
        "optimal-radius-negative", "class-list", "cycle-empty", "cycle-one-point",
    ],
)
def test_malformed_number_or_expression_is_schema_error(
    tmp_path, capsys, group, action, cfg, pointer
):
    _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer)


def _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer, *flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([group, action, "--config", str(cfg_path), "--out", str(out), *flags]) == 1
    assert not (out / "report.json").exists()
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["error"]["kind"] == "schema"
    assert err["error"]["pointer"] == pointer
    return err["error"]


@pytest.mark.parametrize(
    "action, cfg, pointer",
    [
        ("fujimoto", dict(_FUJIMOTO, eta=0.4), "/eta"),
        ("fujimoto", dict(_FUJIMOTO, eta=0), "/eta"),
        ("fujimoto", dict(_FUJIMOTO, omits=[[1.2, 0], "inf"]), "/omits"),
        ("fujimoto", dict(_FUJIMOTO, omits=[[1.2, 0], [-1.2, 0], [0, 1.2]]), "/omits"),
        ("completeness", dict(_COMPLETENESS, eps_levels=[1e-2, 1e-1]), "/eps_levels"),
        ("completeness", dict(_COMPLETENESS, eps_levels=[1e-1, 1e-9]), "/eps_levels"),
        ("completeness", dict(_COMPLETENESS, eps_levels=[1e-1]), "/eps_levels"),
        ("completeness", dict(_COMPLETENESS, targets=["inf", [0.05, 0]]),
         "/targets/1"),
        ("completeness", dict(_COMPLETENESS, targets=[[-1.5, 0]]), "/targets/0"),
        ("zalcman", {"h": "3", "searchgrid": 20}, "/h"),
        ("zalcman", {"h": "z^900", "searchgrid": 40}, "/h"),
        # (1e300)^2 overflows in the derivative's constant folding
        ("zalcman", {"h": "z/(1" + "0" * 300 + ")", "searchgrid": 40}, "/h"),
        ("completeness", dict(_DISK_COMPLETENESS, targets=[[2, 0]]), "/targets/0"),
        ("completeness", dict(_DISK_COMPLETENESS, targets=[[1e308, 0]]), "/targets/0"),
        ("completeness", dict(_DISK_COMPLETENESS, targets=[[1, 0], [0.5, 0]]), "/targets/1"),
        # the inner rim at 1 is 0.05 from the anchor 1.05, past the largest eps
        ("completeness", dict(_DISK_COMPLETENESS, triple=dict(
            _DISK_COMPLETENESS["triple"], domain={"kind": "annulus", "center": [0, 0],
                                                  "r_inner": 1.0, "r_outer": 1.1})),
         "/targets/0"),
        # the rim point -3 lies past the puncture -1, seen from the anchor 0
        ("completeness", dict(_COMPLETENESS, targets=[[-3, 0]]), "/targets/0"),
        ("fujimoto", dict(_FUJIMOTO, radius=1e308), "/radius"),
        ("marty", dict(_MARTY, region={"radius": 1e308}), "/region/radius"),
        ("marty", dict(_MARTY, indices=[]), "/indices"),
        ("marty", dict(_MARTY, indices=[3]), "/indices"),
        ("marty", dict(_MARTY, indices=[3, 3]), "/indices"),
    ],
    ids=["eta-above-bound", "eta-zero", "two-omits", "no-infinity", "eps-increasing",
         "eps-too-small", "one-eps-level", "anchor-at-target", "path-through-puncture", "constant-h",
         "maximum-on-rim", "constant-overflow", "target-outside", "target-huge",
         "target-interior", "anchor-at-rim-target", "path-to-rim-through-puncture",
         "fujimoto-radius-huge", "marty-radius-huge", "marty-no-index", "marty-one-index",
         "marty-one-distinct-index"],
)
def test_probe_argument_the_library_rejects_is_schema_error(
    tmp_path, capsys, action, cfg, pointer
):
    _assert_schema_error(tmp_path, capsys, "probe", action, cfg, pointer)


# constant as maps to the sphere, though none is a constant node
@pytest.mark.parametrize("h", ["z-z", "0*z", "exp(z-z)", "z/0", "(z+1)/(z+1)"])
def test_zalcman_names_a_constant_h(tmp_path, capsys, h):
    cfg = {"h": h, "searchgrid": 40}
    err = _assert_schema_error(tmp_path, capsys, "probe", "zalcman", cfg, "/h")
    assert err["message"] == "h must be nonconstant"


_HUGE = 10**7  # 10^14 grid points, far past the cap


@pytest.mark.parametrize(
    "group, action, cfg, pointer",
    [
        ("estimate", "verify", dict(_ESTIMATE, resolution=_HUGE), "/resolution"),
        ("surface", "synth", dict(_SURFACE, resolution=_HUGE), "/resolution"),
        ("surface", "singular", dict(_SURFACE, **{"class": "maxface"}, resolution=_HUGE),
         "/resolution"),
        ("probe", "fujimoto", dict(_FUJIMOTO, resolution=_HUGE), "/resolution"),
        ("example", "optimal", {"m": 1, "alphas": [[1, 0], [-1, 0]], "resolution": _HUGE},
         "/resolution"),
        ("probe", "marty", dict(_MARTY, grid=_HUGE), "/grid"),
        ("probe", "zalcman", {"h": "10*z", "searchgrid": _HUGE}, "/searchgrid"),
        # ints past any float, and one whose square str() refuses (past 4300
        # digits): the refusal must still format its count
        ("probe", "marty", dict(_MARTY, grid=1e308), "/grid"),
        ("probe", "zalcman", {"h": "10*z", "searchgrid": 1e308}, "/searchgrid"),
        ("probe", "marty", dict(_MARTY, grid=10**3000), "/grid"),
    ],
    ids=["estimate", "synth", "singular", "fujimoto", "optimal", "marty", "zalcman",
         "marty-1e308", "zalcman-1e308", "marty-3000-digits"],
)
def test_grid_past_the_point_cap_is_schema_error(tmp_path, capsys, group, action, cfg, pointer):
    _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer)


@pytest.mark.parametrize("override", ["0", "7"])
def test_resolution_override_below_eight_is_schema_error(tmp_path, capsys, override):
    # the config's resolution 20 is valid: an override of 0 must not fall back to it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_ESTIMATE))
    out = tmp_path / "out"
    argv = ["estimate", "verify", "--config", str(cfg_path), "--out", str(out),
            "--resolution", override]
    assert main(argv) == 1
    assert not (out / "report.json").exists()
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["error"]["kind"] == "schema"
    assert err["error"]["pointer"] == "/resolution"
    assert "below 8" in err["error"]["message"]


@pytest.mark.parametrize(
    "group, action, cfg",
    [
        ("estimate", "verify", dict(_ESTIMATE, resolution=7)),
        ("surface", "synth", dict(_SURFACE, resolution=0)),
        ("probe", "fujimoto", dict(_FUJIMOTO, resolution=-3)),
    ],
    ids=["estimate-7", "synth-0", "fujimoto-negative"],
)
def test_config_resolution_below_eight_is_schema_error(tmp_path, capsys, group, action, cfg):
    _assert_schema_error(tmp_path, capsys, group, action, cfg, "/resolution")


@pytest.mark.parametrize(
    "group, action, cfg, pointer",
    [
        ("estimate", "verify", dict(_ESTIMATE, resolution=20.9), "/resolution"),
        ("estimate", "verify", dict(_ESTIMATE, resolution="24"), "/resolution"),
        ("estimate", "verify", dict(_ESTIMATE, resolution=True), "/resolution"),
        ("estimate", "verify", dict(_ESTIMATE, seed=1.5), "/seed"),
        ("estimate", "verify", dict(_ESTIMATE, seed="3"), "/seed"),
        ("estimate", "verify", dict(_ESTIMATE, seed=False), "/seed"),
        ("probe", "marty", dict(_MARTY, grid=20.5), "/grid"),
        ("probe", "marty", dict(_MARTY, grid=True), "/grid"),
        ("probe", "zalcman", {"h": "10*z", "searchgrid": "60"}, "/searchgrid"),
        ("probe", "zalcman", {"h": "10*z", "searchgrid": 60.25}, "/searchgrid"),
        ("probe", "marty", dict(_MARTY, indices=[1, 2.5]), "/indices/1"),
        ("probe", "marty", dict(_MARTY, indices=[True, 2]), "/indices/0"),
        ("probe", "marty", dict(_MARTY, indices=[1, None]), "/indices/1"),
    ],
    ids=["resolution-fraction", "resolution-string", "resolution-bool", "seed-fraction",
         "seed-string", "seed-bool", "grid-fraction", "grid-bool", "searchgrid-string",
         "searchgrid-fraction", "index-fraction", "index-bool", "index-null"],
)
def test_non_integer_count_is_schema_error(tmp_path, capsys, group, action, cfg, pointer):
    _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer)


def test_integral_float_resolution_runs_like_the_integer(tmp_path):
    reports = []
    for name, res in (("float", 40.0), ("int", 40)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(dict(_ESTIMATE, resolution=res)))
        out = tmp_path / f"out_{name}"
        assert main(["estimate", "verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert json.loads(reports[0])["estimate"]["resolution"] == 40
    assert reports[0] == reports[1]


_FLAT_FRONT = {"class": "flat_front", "omega": "1", "theta": "z/4", "domain": DISK,
               "resolution": 20, "exports": []}


@pytest.mark.parametrize(
    "group, action, cfg, pointer",
    [
        # the default radius 2 max|alpha| overflows to inf
        ("example", "optimal", {"m": 1, "alphas": [[1e308, 0], [0, 0]]}, "/alphas"),
        ("estimate", "verify", dict(_ESTIMATE, triple=dict(_ESTIMATE["triple"], m=10**7)),
         "/triple/m"),
        # 1.8 * 10^7 RK4 samples at the library's step of 1e-3
        ("surface", "periods", dict(_FLAT_FRONT, domain=dict(DISK, radius=1e4),
                                    cycles=[[[0, 0], [9e3, 0]]], step=0.02), "/cycles/0"),
        ("surface", "synth", dict(_FLAT_FRONT, step=1e-9), "/step"),
        # cycle points, and the chords between them, must lie in the domain
        ("surface", "periods", dict(_SURFACE, cycles=[[[0, 0], [1e308, 0]]]), "/cycles/0/1"),
        ("surface", "periods", dict(_SURFACE, cycles=[[[0.5, 0], [0, 0.5]], [[3, 0], [0, 3]]]),
         "/cycles/1/0"),
        ("surface", "periods", dict(_SURFACE, domain=ANNULUS, cycles=[[[1, 0], [-1, 0.01]]]),
         "/cycles/0"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": [[1e308, 0]]}, "/points/0"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": [[0.1, 0], [3, 0]]}, "/points/1"),
        # the member 1e308 z cannot be sampled: |f|^2 overflows
        ("probe", "marty", dict(_MARTY, indices=[1, 1e308]), "/indices/1"),
        # (1e308)^2 overflows in the derivative's constant folding
        ("probe", "marty", dict(_MARTY, family="z/({n})", indices=[1, 1e308]), "/indices/1"),
        # complex ** with an exponent of 1e308 raises ZeroDivisionError
        ("probe", "marty", dict(_MARTY, family="z^{n}", indices=[1, 1e308]), "/indices/1"),
        # on a tiny region only z = 0 keeps |f| <= 1, and 2 sqrt(2) n overflows there
        ("probe", "marty", dict(_MARTY, indices=[1, 7e307], region={"radius": 1e-300}),
         "/indices/1"),
        # the member z^2 + 1/n samples fine, but log n has no float
        ("probe", "marty", dict(_MARTY, family="z^2+1/({n})", indices=[1, 10**400]), "/indices/1"),
        # |z|^1000 underflows at the order sampler's radii 1e-3..1e-5
        ("triple", "check", {"triple": dict(_TRIPLE, g="z^1000")}, "/triple/g"),
        ("estimate", "verify", dict(_ESTIMATE, triple=dict(_ESTIMATE["triple"], g="z^1000")),
         "/triple/g"),
        ("surface", "singular", dict(_SURFACE, **{"class": "maxface"}, g="z^1000"), "/g"),
        # a denominator that is identically zero: the expression is infinite everywhere
        ("surface", "periods", dict(_SURFACE, f="1/0", domain=ANNULUS, base_point=[1, 0],
                                    cycles=[[[1, 0], [0, 1], [-1, 0], [0, -1]]]), "/f"),
        ("surface", "synth", dict(_SURFACE, g="z/(z-z)"), "/g"),
        ("surface", "synth", dict(_FLAT_FRONT, omega="1/0"), "/omega"),
        ("probe", "zalcman", {"h": "z/0", "searchgrid": 60}, "/h"),
        ("triple", "check", {"triple": dict(_TRIPLE, f="1/(z-z)")}, "/triple/f"),
        ("triple", "curvature", {"triple": dict(_TRIPLE, g="1/0"), "points": [[0, 0]]},
         "/triple/g"),
        # the step squared underflows to 0, or a stencil point rounds onto its centre
        ("triple", "curvature", {"triple": _TRIPLE, "points": [[0, 0]], "fd_step": 1e-320},
         "/fd_step"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": [[0, 0]], "fd_step": 1e-170},
         "/fd_step"),
        ("triple", "curvature", {"triple": _TRIPLE, "points": [[0, 0], [0.5, 0]],
                                 "fd_step": 1e-17}, "/fd_step"),
        # one rounding of the log-density over 1e-34 swamps the Laplacian:
        # curvature_fd read -0 where the closed form gives -0.5
        ("triple", "curvature", {"triple": dict(_TRIPLE, g="0.5*z + 0.2*z^2", m=1),
                                 "points": [[0, 0]], "fd_step": 1e-17}, "/fd_step"),
    ],
    ids=["alpha-1e308", "m-1e7", "cycle-1e7", "step-1e-9", "cycle-point-1e308",
         "cycle-point-outside", "cycle-chord-through-hole", "point-1e308", "point-outside",
         "marty-index-1e308", "marty-divisor-1e308", "marty-exponent-1e308", "marty-gradient-inf",
         "marty-index-1e400", "check-order-undetermined", "estimate-order-undetermined",
         "singular-order-undetermined", "periods-f-infinite", "synth-g-infinite",
         "flat-front-omega-infinite", "zalcman-h-infinite", "check-f-infinite",
         "curvature-g-infinite", "fd-step-1e-320", "fd-step-1e-170", "fd-step-below-ulp",
         "fd-step-laplacian-swamped"],
)
def test_magnitude_the_numerics_cannot_hold_is_schema_error(
    tmp_path, capsys, group, action, cfg, pointer
):
    _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer)


@pytest.mark.parametrize(
    "cfg, pointer",
    [
        (dict(_FLAT_FRONT, theta="1/(z-0.5)"), "/theta"),
        ({"class": "improper_affine", "F": "z", "G": "1/(z-0.5)", "domain": DISK,
          "resolution": 20}, "/G"),
        (dict(_SURFACE, **{"class": "maxface"}, g="1"), "/g"),
        (dict(_SURFACE, **{"class": "maxface"}, g="i*z/z"), "/g"),
        (dict(_SURFACE, **{"class": "maxface"}, g="i+z-z"), "/g"),
    ],
    ids=["flat-front-theta-pole", "improper-affine-G-pole", "maxface-g-unimodular",
         "maxface-g-unimodular-quotient", "maxface-g-unimodular-sum"],
)
def test_surface_data_error_is_reported_at_its_field(tmp_path, capsys, cfg, pointer):
    _assert_schema_error(tmp_path, capsys, "surface", "synth", cfg, pointer)


@pytest.mark.parametrize(
    "group, action, cfg, pointer",
    [
        ("probe", "completeness", dict(_COMPLETENESS, targets=[]), "/targets"),
        ("example", "optimal", {"m": 1, "alphas": [[1, 0], [-1, 0]], "radius": 0.5}, "/radius"),
        ("example", "optimal", {"m": 1, "alphas": [[1, 0], [1, 0]], "radius": 3}, "/alphas"),
    ],
    ids=["no-targets", "optimal-radius-too-small", "optimal-alphas-coincide"],
)
def test_degenerate_or_inconsistent_input_is_schema_error(
    tmp_path, capsys, group, action, cfg, pointer
):
    _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer)


def test_removable_site_of_pole_free_data_runs(tmp_path, capsys):
    cfg = {"class": "improper_affine", "F": "z*z/z", "G": "z^2", "domain": DISK, "resolution": 20}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["surface", "synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["singular_locus"]


# a pole of the singular indicator at a lattice node: omega = z + 1 vanishes at
# the node -1 at resolution 20 but at no node at 21, and g = 1/z has its pole
# at the node 0 at every resolution
_FLAT_POLE = {"class": "flat_front", "omega": "z+1", "theta": "z/2",
              "domain": {"kind": "disk", "radius": 2.0}}
_INDICATOR_POLES = {
    "flat-20": dict(_FLAT_POLE, resolution=20),
    "flat-21": dict(_FLAT_POLE, resolution=21),
    "maxface": {"class": "maxface", "f": "z^2", "g": "1/z", "domain": DISK, "resolution": 20},
}


@pytest.mark.parametrize("action", ["singular", "synth"])
@pytest.mark.parametrize("name", list(_INDICATOR_POLES))
def test_pole_of_the_singular_indicator_at_a_node_runs(tmp_path, name, action):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_INDICATOR_POLES[name]))
    out = tmp_path / "out"
    assert main(["surface", action, "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report.json").read_bytes()
    if name == "flat-21" and action == "singular":
        # no node sits on the pole, so the locus keeps the bits it had before
        # poles at nodes were read: the report digest of that code
        want = "2619b2cf9267615a5562f490ebc2833f83cc12c154b773a560465311ccb8723f"
        assert hashlib.sha256(report).hexdigest() == want
    if name == "maxface" and action == "synth":
        # (1 - |g|^2)^2 |f|^2 is read at (1/g, g^2 f) at the pole, which is a stencil centre
        invariants = json.loads(report)["invariants"]
        assert max(invariants[k] for k in ("conformal_asymmetry", "cross_term",
                                           "metric_deviation")) <= 1e-12


def test_refined_estimate_leaves_scipy_spatial_unimported(tmp_path):
    cfg = {"triple": _COMPLETENESS["triple"], "property": {"omits": [[1, 0], [-1, 0], "inf"]},
           "resolution": 40}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["estimate", "verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from mtriples import geodesy\n"
        "from mtriples.cli import main\n"
        f"rc = main({argv!r})\n"
        "rings = [bool(t['puncture_adjacent'].any()) for t in geodesy._topologies.values()]\n"
        "print(rc, rings, 'scipy.spatial' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 [True] False", proc.stderr


def test_estimate_verify_runs_the_property_check_once(tmp_path, monkeypatch):
    from mtriples import cli, estimates

    calls = []
    original = estimates.property_check

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimates, "property_check", counted)
    monkeypatch.setattr(cli, "property_check", counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_ESTIMATE))
    assert main(["estimate", "verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


_SURFACE_FIELDS = ["base_point", "class", "cycles", "domain", "exports", "f", "g", "output_dir",
                   "resolution", "seed"]


@pytest.mark.parametrize(
    "group, action, cfg, flags, pointer, message",
    [
        ("probe", "zalcman", {"h": "z^2", "serachgrid": 40}, (), "/serachgrid",
         "unknown field; did you mean 'searchgrid'?"),
        ("triple", "check", {"triple": dict(_TRIPLE, domain={"kind": "disk", "centre": [0, 0],
                                                             "radius": 1.0})},
         (), "/triple/domain/centre", "unknown field; did you mean 'center'?"),
        ("probe", "marty", dict(_MARTY, region={"centr": [0, 0], "radius": 0.5}), (),
         "/region/centr", "unknown field; did you mean 'center'?"),
        ("triple", "check", {"triple": {"domain": DISK, "f": "1", "g": "z", "mm": 2}}, (),
         "/triple/mm", "unknown field; did you mean 'm'?"),
        # the truncated plane is centred at 0 by definition: no field names its center
        ("triple", "check", {"triple": dict(_COMPLETENESS["triple"], domain={
            "kind": "truncated_plane", "radius": 3.0, "center": [0, 0]})}, (),
         "/triple/domain/center", "unknown field; expected one of ['kind', 'punctures', 'radius']"),
        ("surface", "synth", dict(_SURFACE, step=0.01), (), "/step",
         f"unknown field; expected one of {_SURFACE_FIELDS}"),
        ("estimate", "verify", dict(_ESTIMATE, property={"bounded": 1.0, "omits": [[2, 0], "inf"]}),
         (), "/property", "a property carries exactly one of 'bounded' or 'omits'"),
        ("estimate", "verify", dict(_ESTIMATE, property={}), (), "/property",
         "a property carries exactly one of 'bounded' or 'omits'"),
        # a flag is read as the config field it overrides, and triple check builds no mesh
        ("triple", "check", {"triple": _TRIPLE}, ("--resolution", "40"), "/resolution",
         "unknown field; expected one of ['output_dir', 'seed', 'triple']"),
        ("probe", "completeness", dict(_DISK_COMPLETENESS, target=[1, 0]), (), "/target",
         "unknown field; did you mean 'targets'?"),
        ("surface", "periods", _SURFACE, (), "/cycles", "periods needs at least one cycle"),
    ],
    ids=["top-level-typo", "domain-typo", "region-typo", "triple-typo", "truncated-plane-center",
         "step-on-minimal", "bounded-and-omits", "neither-bounded-nor-omits",
         "resolution-flag-without-mesh", "target-alias", "periods-without-cycles"],
)
def test_unknown_key_or_conflicting_field_is_schema_error(
    tmp_path, capsys, group, action, cfg, flags, pointer, message
):
    err = _assert_schema_error(tmp_path, capsys, group, action, cfg, pointer, *flags)
    assert err["message"] == message


def _config_tables():
    """(name, table) for every table a config is read against: the fields every
    action takes, each action's own, each surface class's and the nested objects'."""
    from mtriples import cli

    yield "every action", cli._COMMON
    for group, (_, tables) in cli._ACTIONS.items():
        yield from ((f"{group} {action}", t) for action, t in tables.items() if t is not None)
    yield from ((f"surface, class {name}", t) for name, t in cli._surface_tables().items())
    yield from ((f"domain, kind {name}", t) for name, t in cli._DOMAIN_TABLES.items())
    yield from (("triple", cli._TRIPLE), ("property", cli._PROPERTY), ("region", cli._REGION))


def test_readme_names_every_config_field_and_default():
    from mtriples.cli import REQUIRED

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| ([^|`]+?) \| (.+) \|$", readme, flags=re.M))
    tables = dict(_config_tables())
    assert set(rows) == {"table", *tables}  # the header row, then one row per table
    for name, table in tables.items():
        documented = dict(re.findall(r"`(\w+)`(?: = (`[^`]*`|none))?", rows[name]))
        want = {field: "" if default is REQUIRED else "none" if default is None
                else f"`{json.dumps(default)}`" for field, (_, default) in table.items()}
        assert documented == want, name
