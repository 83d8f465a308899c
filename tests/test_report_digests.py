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


# Every file ``surface synth`` writes, for the four synth cases above with all
# four export formats: the report, OBJ/PLY/CSV/JSON, the flat-front hermitian
# sidecars, nodes.csv and edges.csv.
EXPORT_CASES = {
    name: (group, action, {**cfg, "exports": ["obj", "ply", "csv", "json"]}, code)
    for name, (group, action, cfg, code) in CASES.items()
    if name.startswith("surface-synth-")
}

# case -> file name -> sha256
EXPORT_DIGESTS = {
    "surface-synth-flat-front": {
        "edges.csv": "a36371520ff72e72e3d763b4461ba383006bb1e258ff4fc50345442ada9a2451",
        "mesh.obj": "c67c7b6c0da40d025c7db0e7630f45d0f0785bf944aebf2c893186bc90fcf5aa",
        "mesh.obj.hermitian.json": "a742b9fc9d85f206fb9c66bdd6489f9031eb2a5c4e2bdf203858f12d8f1b2c1c",
        "mesh.ply": "05e14dc36d6a78a72fc5dbd192cdb38df6f71b4c3a7538a6fee4e588bfee0aed",
        "mesh.ply.hermitian.json": "a742b9fc9d85f206fb9c66bdd6489f9031eb2a5c4e2bdf203858f12d8f1b2c1c",
        "nodes.csv": "d6c2b757a26c6c67cbcb2ddff935a21b479b3c827da820afd9f9ca6190aa47b7",
        "report.json": "7f17c8bdf1e59e9943fbc9568a9205f3f29c3af670b7c587a07fc66c897b91e0",
        "surface.json": "7e92cad69bbb24c4b732f0a299f4593ac68dc04d6b33a31f22a213cd3d9372f2",
        "vertices.csv": "5a55c9785115fee68b9f526001250e7e158cc945c5498cb5a14042526ce15d2d",
    },
    "surface-synth-improper-affine": {
        "edges.csv": "f736220e1bca90e32ee93bf4d5430bd36b22d5158e0bff881d0c04fc05b0e965",
        "mesh.obj": "1d9435b3152e9c31696271a75b8ea2deb1479cbbf3708f40b95b2a7222afaa6f",
        "mesh.ply": "d1d2d492c2ffab8134042d6f504662e35af0d7fdc7015cb251ed066728261d81",
        "nodes.csv": "afbb365302e6601e256aba2132f791d6299fc04cebbd8ebe9d32e83526cede5b",
        "report.json": "bfdc41e5ad290667a45806ecfbfdd16ccc48ea065cf8939cc0b994129e442989",
        "surface.json": "57152e464afc7d46512e214a6825c6537cede3dce6919aa51679bf92023d51fa",
        "vertices.csv": "81091b451e77d822527a4f3788d8bca18d2d42e7652b8f6f322db5a49826a2d9",
    },
    "surface-synth-maxface": {
        "edges.csv": "94f18fec4ddbfd6a0b0d1ef1c7be3ceeefca1197680013d30a5af14a1fdc13d4",
        "mesh.obj": "4761c300d8b3899fce4700d47dc76de706d1e9f097f42a3eddb30ede889e0791",
        "mesh.ply": "7bc42b307acff3be0affae8c113d08c75f6eaf51d81ee1e4149ef84ee8794aca",
        "nodes.csv": "55017ccf67938da2f4406e2331596877d56f793bd21489a56defde9aca3c938b",
        "report.json": "7a32bbb8998520ff3a18552738842a1ca06eecc56085c153ed65c79c1a767870",
        "surface.json": "728cb9d7f7c631ce9e209d614618687e2d712846f34efc1f6cb0774128ed6712",
        "vertices.csv": "8adbfbc872b5fb1f9bd1ca935f58c7505173f0c8f35f44ddb457da71b7bb9dd2",
    },
    "surface-synth-minimal": {
        "edges.csv": "5184f6841704f47bafd65064894774201fdb1763166b13aac097cf771a3457e1",
        "mesh.obj": "d84f1d803a9fa254b6622bc0e3f3ca214391828fbb5988ce92dd51f5fc930933",
        "mesh.ply": "1b554d8c5c2bb38585176b599dcd8b7ec16b5084209f899a0856838e127c8f1a",
        "nodes.csv": "581747319e8cbeee0c6bf5718428399ad56ce12635a8f0eb35ee1a922e958302",
        "report.json": "f3853999634c0e04e8ccfd9c52e0eb4eaabe7463c5d1a5d4f13c9fc2d2039c6a",
        "surface.json": "8a6216b99278bbe329f4db5f2a345a630816818edc1cf87233eab0960899c41e",
        "vertices.csv": "8570d80f6c53385ee64b49a6679d368f68291bda094adb31d8b0e8395fdfd0a7",
    },
}


def _file_digests(out) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("name", sorted(EXPORT_CASES))
def test_export_digests(tmp_path, name):
    group, action, cfg, code = EXPORT_CASES[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([group, action, "--config", str(cfg_path), "--out", str(out)]) == code
    assert _file_digests(out) == EXPORT_DIGESTS[name]
