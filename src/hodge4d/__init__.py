"""4D space-time exterior calculus for convection-diffusion problems.

Exact symbolic layer (fields, forms, the unified operator, boundary
reductions) plus a 1+1D finite-difference solver that confirms the
vanishing-perturbation limit numerically.

Both halves load on first access (PEP 562), so ``import hodge4d`` loads no
submodule.  The solver's names import ``solver`` (and with it numpy; scipy
only for the solves that need it); the exact layer never does.  Any other exported name, or any module
of the exact layer taken from the package, loads the whole layer as one
unit: ``_record``, ``fields``, ``forms``, ``vectorcalc``, ``convdiff``,
``boundary``, ``tables`` and ``verification`` (plus ``errors`` for
``SolveError``), so whatever walks the loaded modules finds all of them.
The solve and sweep commands never load it.
"""

import importlib

# The exact layer in dependency order; each module imports only earlier ones.
_EXACT_MODULES = ("_record", "fields", "forms", "vectorcalc", "convdiff", "boundary", "tables", "verification")

# exported name -> the submodule that defines it
_EXACT_NAMES = {
    **dict.fromkeys(("AXES", "ExpPolyField", "PolyField"), "fields"),
    **dict.fromkeys(
        (
            "BasisForm",
            "DegreeUnderflowWarning",
            "KForm",
            "MaterialParams",
            "basis_forms",
            "codifferential_1a",
            "codifferential_a1",
            "display_components",
            "exterior_derivative",
            "hodge_star",
            "interior_product_dt",
            "one_form",
            "parse_basis_label",
            "scaled_hodge_star",
            "spatial_form",
            "spatial_parts",
            "temporal_parts",
            "wedge",
        ),
        "forms",
    ),
    **dict.fromkeys(
        (
            "ConvectionForm",
            "ExpansionReport",
            "NoPotentialError",
            "Potential",
            "build_convection_form",
            "emergent_constraint",
            "exp_fitted_flux",
            "expand_componentwise",
            "flux",
            "hodge_laplacian",
            "make_potential",
            "operator_pieces",
            "unified_operator",
        ),
        "convdiff",
    ),
    **dict.fromkeys(
        ("BoundaryKind", "BoundaryReport", "NormalForm", "artificial_bc", "boundary_report", "wedge_trace"),
        "boundary",
    ),
    "SolveError": "errors",
}

# modules that load with the layer: the unit, and ``errors`` for SolveError
_LAZY_MODULES = (*_EXACT_MODULES, "errors")

# submodules that __all__ lists
_EXPORTED_MODULES = ("boundary", "convdiff", "errors", "fields", "forms", "vectorcalc")

_SOLVER_NAMES = (
    "DiscreteField",
    "Grid1p1",
    "LinearSystem",
    "ProblemConfig",
    "Scheme",
    "SweepFloorError",
    "SweepResult",
    "assemble",
    "bernoulli",
    "discrete_bilinear",
    "epsilon_sweep",
    "l2_error",
    "reference_evolution",
    "solve",
)


def _load_exact_layer():
    # A module of the layer never asks the package for a name while it runs
    # (no "from . import x" in it): the loader would import the module that
    # asked, half run, and the modules after it would miss its names.
    for module in _LAZY_MODULES:
        importlib.import_module(f"{__name__}.{module}")
    for name, module in _EXACT_NAMES.items():
        globals()[name] = getattr(globals()[module], name)


def __getattr__(name):
    if name in _SOLVER_NAMES:
        solver = importlib.import_module(f"{__name__}.solver")
        return getattr(solver, name)
    if name in _EXACT_NAMES or name in _LAZY_MODULES:
        _load_exact_layer()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = sorted((*_EXACT_NAMES, *_EXPORTED_MODULES)) + list(_SOLVER_NAMES)
__version__ = "0.1.0"
