"""Space-time boundary operators for the unified formulation.

Three boundary pieces: the lateral spatial boundary over the whole time
interval, the initial-time face, and the final-time face.  Dirichlet-type
conditions are wedge traces against the corresponding normal 1-forms; the
artificial condition at the final time contracts the double-starred
derivative with the terminal normal.  Temporal restriction is symbolic
substitution of the time coordinate; spatial normals stay symbolic fields so
general (not only axis-aligned) faces are representable.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional

from ._record import FrozenRecord, Record
from .fields import T
from .forms import (
    KForm,
    MaterialParams,
    exterior_derivative,
    hodge_star,
    interior_product_dt,
    one_form,
    scaled_hodge_star,
    spatial_form,
    wedge,
)


class BoundaryKind(Enum):
    SPATIAL = "spatial"
    INITIAL = "initial-time"
    FINAL = "final-time"


class NormalForm(FrozenRecord):
    """Normal 1-form of one boundary piece.

    The initial-time form is exactly -dt and the final-time form exactly
    +dt; spatial normals carry three symbolic component fields.  Temporal
    normals remember the value of t on their face for the trace substitution.
    """

    __slots__ = ("kind", "form", "at_time")

    def __init__(self, kind: BoundaryKind, form: KForm, at_time: Optional[Fraction] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "at_time", at_time)

    @classmethod
    def spatial(cls, n1, n2, n3) -> "NormalForm":
        return cls(BoundaryKind.SPATIAL, one_form(n1, n2, n3, 0))

    @classmethod
    def initial_time(cls, t0=0) -> "NormalForm":
        return cls(BoundaryKind.INITIAL, one_form(0, 0, 0, -1), Fraction(t0))

    @classmethod
    def final_time(cls, t_final=1) -> "NormalForm":
        return cls(BoundaryKind.FINAL, one_form(0, 0, 0, 1), Fraction(t_final))


def wedge_trace(n: NormalForm, w: KForm) -> KForm:
    """Wedge with the normal, restricted symbolically to the boundary face.

    For the temporal faces the time coordinate is substituted; the spatial
    restriction is left to the caller's choice of evaluation points.
    """
    product = wedge(n.form, w)
    if n.kind is BoundaryKind.SPATIAL:
        return product
    return product.substitute_t(n.at_time)


def artificial_bc(w: KForm, m: MaterialParams, t_final=None) -> KForm:
    """Terminal-time flux condition: contract star(scaled_star(d w)) with dt.

    With ``t_final`` given, the time coordinate is substituted; otherwise the
    unrestricted symbolic expression is returned.  For a 0-form input the
    result is the scalar -epsilon * du/dt, and analogously per degree.
    """
    if w.degree > 3:
        raise ValueError("artificial condition applies to degrees 0..3")
    value = interior_product_dt(hodge_star(scaled_hodge_star(exterior_derivative(w), m)))
    if t_final is None:
        return value
    return value.substitute_t(Fraction(t_final))


_SPATIAL_DESCRIPTIONS = {
    0: "u = 0 on the spatial boundary",
    1: "n x u = 0 on the spatial boundary",
    2: "u . n = 0 on the spatial boundary",
    3: "not applicable (no spatial condition at this degree)",
}


class ConditionSummary(Record):
    __slots__ = ("description", "applicable", "value", "satisfied")

    def __init__(
        self,
        description: str,
        applicable: bool,
        value: Optional[KForm] = None,
        satisfied: Optional[bool] = None,
    ):
        self.description = description
        self.applicable = applicable
        self.value = value
        self.satisfied = satisfied


class BoundaryReport(Record):
    __slots__ = ("degree", "spatial", "initial", "terminal")

    def __init__(
        self,
        degree: int,
        spatial: ConditionSummary,
        initial: ConditionSummary,
        terminal: ConditionSummary,
    ):
        self.degree = degree
        self.spatial = spatial
        self.initial = initial
        self.terminal = terminal

    def lines(self) -> list:
        out = [f"degree {self.degree}:"]
        for name, cond in (
            ("x-BC", self.spatial),
            ("t0-BC", self.initial),
            ("eps-BC", self.terminal),
        ):
            status = ""
            if cond.satisfied is not None:
                status = "  [satisfied]" if cond.satisfied else "  [not satisfied by the given data]"
            out.append(f"  {name}: {cond.description}{status}")
        return out


def boundary_report(
    degree: int,
    fields,
    initial_fields,
    m: MaterialParams,
    t0=0,
    t_final=1,
) -> BoundaryReport:
    """Reduced boundary conditions for one degree, checked on the given data.

    ``fields``/``initial_fields`` follow the solution-form convention
    (scalar for degrees 0 and 3, triples for 1 and 2).  The spatial summary
    reports the classical reduction; the initial summary carries the residual
    of the trace condition; the terminal summary carries the contracted flux
    at the final time.
    """
    if degree not in (0, 1, 2, 3):
        raise ValueError(f"degree out of range: {degree}")
    u = spatial_form(degree, fields)
    u0 = spatial_form(degree, initial_fields)
    if any(coeff.depends_on(T) for coeff in u0.components.values()):
        raise ValueError("initial data must not depend on time")

    spatial = ConditionSummary(_SPATIAL_DESCRIPTIONS[degree], applicable=degree != 3)

    n_t0 = NormalForm.initial_time(t0)
    residual = wedge_trace(n_t0, u) - wedge_trace(n_t0, u0)
    initial = ConditionSummary(
        "u(x, t0) matches the prescribed initial form",
        applicable=True,
        value=residual,
        satisfied=residual.is_zero,
    )

    terminal_value = artificial_bc(u, m, t_final=t_final)
    terminal = ConditionSummary(
        "epsilon * du/dt = 0 at the final time",
        applicable=True,
        value=terminal_value,
        satisfied=terminal_value.is_zero,
    )
    return BoundaryReport(degree, spatial, initial, terminal)
