"""4D space-time exterior calculus for convection-diffusion problems.

Exact symbolic layer (fields, forms, the unified operator, boundary
reductions) plus a 1+1D finite-difference solver that confirms the
vanishing-perturbation limit numerically.
"""

from .fields import AXES, ExpPolyField, PolyField
from .forms import (
    BasisForm,
    DegreeUnderflowWarning,
    KForm,
    MaterialParams,
    basis_forms,
    codifferential_1a,
    codifferential_a1,
    display_components,
    exterior_derivative,
    hodge_star,
    interior_product_dt,
    one_form,
    parse_basis_label,
    scaled_hodge_star,
    spatial_form,
    spatial_parts,
    temporal_parts,
    wedge,
)
from .convdiff import (
    ConvectionForm,
    ExpansionReport,
    NoPotentialError,
    Potential,
    build_convection_form,
    emergent_constraint,
    exp_fitted_flux,
    expand_componentwise,
    flux,
    hodge_laplacian,
    make_potential,
    operator_pieces,
    unified_operator,
)
from .boundary import (
    BoundaryKind,
    BoundaryReport,
    NormalForm,
    artificial_bc,
    boundary_report,
    wedge_trace,
)
from .errors import SolveError

# The solver needs numpy and scipy, so its names import it on first access
# (PEP 562) and the exact layer loads neither.
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


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_SOLVER_NAMES)
__version__ = "0.1.0"
