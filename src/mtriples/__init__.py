"""Numerical laboratory for conformal metrics built from holomorphic data.

Expression trees over the extended complex plane, Weierstrass-type data
triples with closed-form curvature and an independent finite-difference
oracle, geodesic distance fields on conformally weighted meshes, executable
omitted-value/boundedness predicates with the explicit curvature-estimate
constant, and surface synthesis for minimal surfaces, maxfaces, improper
affine fronts and flat fronts.

The names below are imported from their submodules on first access
(PEP 562), so ``import mtriples`` loads nothing else and an action that
builds no mesh never loads scipy, which only ``geodesy`` imports.
"""

import importlib as _importlib

__version__ = "0.1.0"

# the submodule that defines each exported name
_EXPORTS = {
    "expr": (
        "INFINITY", "ExtComplex", "MeroExpr", "chordal", "derivative", "eval_ext", "local_order",
        "parse_mero", "spherical_gradient", "to_source",
    ),
    "mtriple": (
        "Annulus", "Disk", "DomainSpec", "MTriple", "Rectangle", "TruncatedPlane",
        "check_regularity", "curvature", "curvature_fd", "make_triple", "metric_density",
    ),
    "geodesy": ("MeshedDomain", "boundary_distance_field", "build_mesh"),
    "estimates": (
        "Bounded", "CompletenessReport", "EstimateReport", "Omits", "completeness_probe",
        "curvature_constant", "fujimoto_ratio", "marty_sup", "optimal_example", "property_check",
        "verify_estimate", "zalcman_rescale",
    ),
    "surfaces": (
        "FlatFrontData", "ImproperAffineData", "MaxfaceData", "MinimalData", "SurfaceMesh",
        "export_mesh", "gauss_normal_check", "immersion_check", "period_residuals",
        "singular_locus", "synth_flatfront", "synth_improper_affine", "synth_maxface",
        "synth_minimal",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that importing every name above used to bind on the package
_SUBMODULES = ("expr", "mtriple", "quadrature", "geodesy", "estimates", "surfaces")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
