"""Geometry engine for the oscillator group and its compact Lorentzian quotients.

Exact arithmetic over Q(pi) turns geodesic periodicity on the quotient
solvmanifolds into a decision procedure; closed-form geodesics, the full
isometry machinery and curvature live alongside numeric oracles (RK4,
finite differences) in ``oscigeo.floats`` that cross-check every exact
formula.

The names below are imported from their modules on first access
(PEP 562), so ``import oscigeo`` loads nothing else, and only the float
names load numpy.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "scalar": (
        "DivisionByZero", "NotRational", "PI", "PI_HALF", "Scalar", "parse_scalar",
        "quarter_turns",
    ),
    "groups": (
        "ExactRotationUnavailable", "GroupElement", "IDENTITY", "LatticeSpec", "Twist",
        "coset_equal", "coset_normal_form", "g_inv", "g_mul", "lattice_contains", "n_mul",
        "normalizer_contains", "parse_group_element", "rotate",
    ),
    "metric": (
        "CausalType", "TangentVector", "bracket", "causal_type", "curvature_op",
        "killing_form", "ricci",
    ),
    "geodesics": ("exp_map", "exp_scaled", "exp_turns"),
    "isometries": (
        "IsometryOfG", "IsotropyElement", "NotOrthogonal", "ambrose_hicks_check",
        "discrete_isometry", "fiber_preserving", "heis_action", "inner_aut",
        "isotropy_matrix",
    ),
    "quotients": (
        "PeriodicityVerdict", "VerdictKind", "classify_geodesic", "minimal_period",
    ),
    "floats": ("InvalidStep", "is_isometry_numeric", "trace_chunks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
