"""report.json bytes, pinned per CLI handler action by sha256.

Each case runs ``mtriples.cli.main`` in-process on one small config and
compares the sha256 of the report it writes with the table below.  A
change to how reports are built or encoded must reproduce every byte; a
change that moves a number on purpose must re-record the table and say
so.  The digests do not depend on ``--out``: reports name export formats,
never paths.
"""

import hashlib
import json
import math

import pytest

from mtriples.cli import main


def _circle(radius: float, n: int, center=(0.0, 0.0)) -> list:
    return [
        [center[0] + radius * math.cos(2 * math.pi * k / n),
         center[1] + radius * math.sin(2 * math.pi * k / n)]
        for k in range(n)
    ]


def _disk(radius: float, punctures=()) -> dict:
    return {"kind": "disk", "center": [0, 0], "radius": radius, "punctures": list(punctures)}


ANNULUS = {"kind": "annulus", "center": [0, 0], "r_inner": 0.5, "r_outer": 2.0, "punctures": []}

# name -> (group, action, config, exit code)
CASES = {
    "triple-check-regular": ("triple", "check", {
        "triple": {"domain": _disk(2.0), "f": "z^2", "g": "1/z", "m": 2}}, 0),
    "triple-check-failing": ("triple", "check", {
        "triple": {"domain": _disk(2.0), "f": "1", "g": "1/z", "m": 1}}, 2),
    "triple-curvature": ("triple", "curvature", {
        "triple": {"domain": _disk(1.0), "f": "1", "g": "0.5*z+0.2*z^2", "m": 2},
        "points": [[0, 0], [0.3, -0.2]], "fd_step": 2e-3}, 0),
    "estimate-bounded": ("estimate", "verify", {
        "triple": {"domain": _disk(1.0), "f": "1", "g": "z/2", "m": 2},
        "property": {"bounded": 1.0}, "resolution": 40, "seed": 3}, 0),
    "estimate-omits": ("estimate", "verify", {
        "triple": {"domain": _disk(1.0), "f": "1", "g": "z/2", "m": 1},
        "property": {"omits": [[1, 0], "inf"]}, "resolution": 40}, 0),
    "surface-synth-minimal": ("surface", "synth", {
        "class": "minimal", "f": "1/z^2", "g": "z", "domain": ANNULUS, "base_point": [1, 0],
        "resolution": 40, "cycles": [_circle(1.0, 24)], "exports": ["obj"]}, 0),
    "surface-synth-maxface": ("surface", "synth", {
        "class": "maxface", "f": "1", "g": "z", "domain": _disk(2.0),
        "resolution": 40, "cycles": [_circle(0.5, 16)], "exports": ["ply"]}, 0),
    "surface-synth-improper-affine": ("surface", "synth", {
        "class": "improper_affine", "F": "z^2/4", "G": "z", "domain": _disk(3.0),
        "resolution": 40, "cycles": [_circle(0.5, 16)], "exports": ["csv"]}, 0),
    "surface-synth-flat-front": ("surface", "synth", {
        "class": "flat_front", "omega": "1", "theta": "z/2", "domain": _disk(3.0),
        "resolution": 30, "step": 0.02, "cycles": [_circle(0.5, 12)], "exports": ["json"]}, 0),
    "surface-periods": ("surface", "periods", {
        "class": "minimal", "f": "i/z^2", "g": "z", "domain": ANNULUS, "base_point": [1, 0],
        "cycles": [_circle(1.0, 32), _circle(1.5, 24)]}, 0),
    "surface-singular": ("surface", "singular", {
        "class": "maxface", "f": "1", "g": "z", "domain": _disk(2.0), "resolution": 40}, 0),
    "probe-marty": ("probe", "marty", {
        "family": "({n})*z", "indices": [1, 2, 4], "region": {"center": [0, 0], "radius": 0.5},
        "grid": 40}, 0),
    "probe-zalcman": ("probe", "zalcman", {"h": "10*z", "searchgrid": 60}, 0),
    "probe-fujimoto": ("probe", "fujimoto", {
        "f": "z", "omits": [[1.2, 0], [-1.2, 0], "inf"], "eta": 0.2, "radius": 0.9,
        "resolution": 40}, 0),
    "probe-completeness": ("probe", "completeness", {
        "triple": {"domain": {"kind": "truncated_plane", "radius": 3.0,
                              "punctures": [[1, 0], [-1, 0]]},
                   "f": "1/(z^2-1)", "g": "z", "m": 1},
        "targets": [[1, 0], "infinity"], "eps_levels": [1e-1, 1e-2, 1e-3, 1e-4]}, 0),
    "example-optimal": ("example", "optimal", {
        "m": 1, "alphas": [[1, 0], [-1, 0]], "resolution": 40}, 0),
}

# sha256 of each report.json
DIGESTS = {
    "estimate-bounded": "8b02e28ca84e96ac24e5e5cf33ab0a1d5991ca8074b9be21d0a72305b3e39a7b",
    "estimate-omits": "68df187b24a00ea4ae451a891b43357ff2f4242b7ffc0b276daf5e5a4248c0a3",
    "example-optimal": "358e87dd64cfdfa4ab5348b7eafa5493eacd05d4b5944d64c7ef6c047f792839",
    "probe-completeness": "b95d2e849b98022484795d01c669cfbc54e41b96f790128916b2296d8337aba9",
    "probe-fujimoto": "bac93b383b9470386b87a624f2af0510148dd3601528fdbfee900013aa57ad26",
    "probe-marty": "e52d07854b14a8477ec6a02088a5eec1218b14410ad2539f7ba8a5d254351574",
    "probe-zalcman": "7a520b80cf8fa0bfbb84951cf8b1a20cbab6add9c5bc383e5371e21b08bf271b",
    "surface-periods": "81f3a2d23c0b23d15028e4e0eaeee2af730ff1d68948b86c9667519bb9299b7b",
    "surface-singular": "67c163fd01301c5c21c030e202d04f86e55f09e551ed5375c98a79e6b22bf448",
    "surface-synth-flat-front": "9931c0d25e29e5112d309d92bcbe1233244c48337b0238bf8351b1a265cccf09",
    "surface-synth-improper-affine": "41b21e0aa4724dbe10612f1c8a8437ed88e996b2595f9d34514ecbf00242d445",
    "surface-synth-maxface": "9c0011fba6e8978d3115f1ff936a5a162c39a576686c6b3ae82178f53c31fbd6",
    "surface-synth-minimal": "9daaa736af863747d01af9723f70816f959f39ee2dcc2cc5810df721b6059215",
    "triple-check-failing": "fdf8d6aba31fa0d932e447bb56afd0a44a9867eeab5f141b3388c356c23bf28a",
    "triple-check-regular": "0f84ab006d9be26e48bbfd23f0b9eec85a3884beecafd0b9426c5225b96f62d3",
    "triple-curvature": "61eaa72911d236a9d5919e817e5b8bd06fceb8ec2bf2fff894b44501dd5ef943",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(tmp_path, name):
    group, action, cfg, code = CASES[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([group, action, "--config", str(cfg_path), "--out", str(out)]) == code
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == DIGESTS[name]
