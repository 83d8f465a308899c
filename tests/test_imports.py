"""Import contract: the package namespace resolves on first access, and the
CLI actions that build no mesh never load scipy.

Each check runs in a fresh interpreter, since the test process has long
imported everything.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _COMPLETENESS, _MARTY, _TRIPLE

# the public names of the package as it was when __init__ imported every
# submodule eagerly (the exported functions and classes and the six
# submodules that those imports bound), less six names no action reached
PUBLIC_NAMES = [
    "Annulus", "Bounded", "CompletenessReport", "Disk", "DomainSpec", "EstimateReport",
    "ExtComplex", "FlatFrontData", "INFINITY", "ImproperAffineData", "MTriple", "MaxfaceData",
    "MeroExpr", "MeshedDomain", "MinimalData", "Omits", "Rectangle", "SurfaceMesh",
    "TruncatedPlane", "boundary_distance_field", "build_mesh", "check_regularity", "chordal",
    "completeness_probe", "curvature", "curvature_constant", "curvature_fd", "derivative",
    "estimates", "eval_ext", "export_mesh", "expr", "fujimoto_ratio", "gauss_normal_check",
    "geodesy", "immersion_check", "local_order", "make_triple", "marty_sup", "metric_density",
    "mtriple", "optimal_example", "parse_mero", "period_residuals", "property_check", "quadrature",
    "singular_locus", "spherical_gradient", "surfaces", "synth_flatfront", "synth_improper_affine",
    "synth_maxface", "synth_minimal", "to_source", "verify_estimate", "zalcman_rescale",
]

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "mtriples"
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")

_HAS_SCIPY = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def _run(code: str) -> list:
    """The lines ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_MESH_FREE = [
    ("triple", "check", {"triple": _TRIPLE}),
    ("triple", "curvature", {"triple": _TRIPLE, "points": [[0.1, 0.2]]}),
    ("probe", "marty", _MARTY),
    ("probe", "zalcman", {"h": "2*z/(1-z^2)", "searchgrid": 40}),
    ("probe", "completeness", _COMPLETENESS),
    ("surface", "periods", {"class": "minimal", "f": "1", "g": "z",
                            "domain": {"kind": "disk", "radius": 1.0},
                            "cycles": [[[0.1, 0], [0, 0.1], [-0.1, 0], [0.1, 0]]]}),
]


@pytest.mark.parametrize("group, action, cfg", _MESH_FREE,
                         ids=[f"{g}-{a}" for g, a, _ in _MESH_FREE])
def test_mesh_free_action_leaves_scipy_unimported(tmp_path, group, action, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["mtriples", group, action, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    # run the module as ``python -m mtriples.cli`` does, then look at sys.modules
    code = (
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('mtriples.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        f"print({_HAS_SCIPY})\n"
    )
    assert _run(code)[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "report.json").exists()


def test_triple_check_import_log_has_no_scipy(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"triple": _TRIPLE}))
    cmd = [sys.executable, "-X", "importtime", "-m", "mtriples.cli", "triple", "check",
           "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "mtriples.mtriple" in imported and "numpy" in imported  # the log is complete
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


def test_package_names_resolve_on_first_access():
    lines = _run(
        "import sys\n"
        "import mtriples\n"
        f"print({_HAS_SCIPY})\n"
        "probe = mtriples.completeness_probe\n"
        f"print(probe.__name__, {_HAS_SCIPY})\n"
        "build = mtriples.build_mesh\n"
        f"print(build.__name__, {_HAS_SCIPY})\n"
        "from mtriples import geodesy\n"
        "print(build is geodesy.build_mesh, probe is geodesy.completeness_probe)\n"
    )
    assert lines == ["False", "completeness_probe False", "build_mesh True", "True True"]


def test_dir_and_star_import_give_the_eager_public_names():
    lines = _run(
        "import mtriples\n"
        "print([n for n in dir(mtriples) if not n.startswith('_')])\n"
        "names = {}\n"
        "exec('from mtriples import *', names)\n"
        "print(sorted(n for n in names if not n.startswith('_')))\n"
        "print(sorted(mtriples.__all__))\n"
    )
    assert [eval(line) for line in lines] == [PUBLIC_NAMES] * 3


def test_unknown_attribute_raises_attribute_error():
    import mtriples

    with pytest.raises(AttributeError, match="no_such_name"):
        mtriples.no_such_name
    assert not hasattr(mtriples, "no_such_name")


def test_benchmark_traces_every_module():
    # perfbench/spans.py proxies the public functions of the modules it lists
    tree = ast.parse((_ROOT / "perfbench" / "spans.py").read_text())
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "MODULES")
    assert [m for m in _MODULES if m not in listed] == []


def _function_imports(module: str) -> set:
    """The sibling modules that ``module`` imports inside a function (the
    package imports its siblings relatively)."""
    found = set()
    for func in ast.walk(ast.parse((_PACKAGE / f"{module}.py").read_text())):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    found |= {node.module} if node.module else {a.name for a in node.names}
    return found


@pytest.mark.parametrize("module", _MODULES)
def test_siblings_are_imported_at_the_top(module):
    # the one exception: geodesy loads scipy, and surfaces is costly to import
    allowed = {"geodesy", "surfaces"} if module in ("cli", "estimates") else set()
    assert _function_imports(module) - allowed == set()


def _names_eval_array(module: str) -> bool:
    """Whether ``module`` imports, calls or otherwise names the raw ``eval_array``."""
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text())
    return any("eval_array" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None)) for node in ast.walk(tree))


def test_only_expr_reads_raw_array_values():
    # every other module reads eval_array_checked or a pole-aware quantity,
    # so a removable site reads as its limit, not as NaN
    assert [m for m in _MODULES if _names_eval_array(m)] == ["expr"]
