"""The unified space-time convection-diffusion operator on k-forms.

Builds the convection 1-form with dt-component -1/epsilon, the flux operator
(exterior derivative plus convection wedge), the weighted Hodge Laplacian and
the full operator, and verifies the component-wise expansions against the
independent vector-calculus oracle.  Also houses the potential construction
and the exponentially fitted form of the flux.
"""

from __future__ import annotations

from fractions import Fraction

import hodge4d.vectorcalc as vc  # not "from . import", which asks the package (see hodge4d)
from ._record import FrozenRecord, Record
from .fields import ExpPolyField, PolyField, T, signed_sum
from .forms import (
    KForm,
    MaterialParams,
    codifferential_1a,
    codifferential_a1,
    display_components,
    exterior_derivative,
    hodge_star,
    one_form,
    spatial_form,
    spatial_parts,
    sum_forms,
    temporal_parts,
    wedge,
)

PIECES = ("delta_d", "delta_wedge", "d_delta")


class NoPotentialError(ValueError):
    """The convection 1-form is not closed, so no scalar potential exists."""

    def __init__(self, components):
        self.components = list(components)
        labels = ", ".join(f"{label}: {coeff}" for label, coeff in self.components)
        super().__init__(f"convection form is not closed; nonzero derivative components: {labels}")


class ConvectionForm(FrozenRecord):
    """The convection 1-form beta/alpha on the spatial slots, -1/epsilon on dt."""

    __slots__ = ("form", "material")

    def __init__(self, form: KForm, material: MaterialParams):
        if form.degree != 1 or temporal_parts(form) != -1 / material.epsilon:
            raise ValueError("dt component must be exactly -1/epsilon")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "material", material)


class Potential(FrozenRecord):
    """Scalar potential whose exterior derivative is the convection form."""

    __slots__ = ("psi0", "convection")

    def __init__(self, psi0: PolyField, convection: ConvectionForm):
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "convection", convection)


def build_convection_form(m: MaterialParams) -> ConvectionForm:
    if m.alpha_field is not None:
        raise ValueError("convection form requires a constant diffusion coefficient")
    inv_alpha = Fraction(1) / m.alpha
    return ConvectionForm(one_form(*(b * inv_alpha for b in m.beta), -1 / m.epsilon), m)


def flux(w: KForm, b: ConvectionForm) -> KForm:
    """Convection-diffusion flux: d(w) + b ^ w, mapping degree k to k + 1."""
    return exterior_derivative(w) + wedge(b.form, w)


def scaled_star_convection(w: KForm, m: MaterialParams) -> KForm:
    """scaled_star(b ^ w) as star((beta - dt) ^ w'), without materializing beta/alpha.

    The spatial-slot products pick up the alpha weight of the scaled star,
    cancelling the 1/alpha of the convection coefficients; on a dt component
    of w they pick up epsilon instead, so w' weights those by epsilon/alpha.
    The dt-slot product picks up epsilon, cancelling 1/epsilon, and vanishes
    on dt components.  Exact for spatially varying alpha on dt-free w.
    """
    weighted = {}
    for basis, coeff in w.items():
        if basis.contains_dt:
            if m.alpha_field is not None:
                raise ValueError(
                    "fused convection star with alpha_field needs dt-free components; "
                    f"found {basis.label}"
                )
            coeff = coeff * (m.epsilon / m.alpha)
        weighted[basis] = coeff
    return hodge_star(wedge(one_form(*m.beta, -1), KForm(w.degree, weighted)))


def operator_pieces(w: KForm, m: MaterialParams) -> dict:
    """The three structural pieces of the unified operator, separately.

    delta_d      : weighted codifferential of the exterior derivative
    delta_wedge  : weighted codifferential of the convection wedge
    d_delta      : exterior derivative of the swapped-weight codifferential
    """
    k = w.degree
    delta_d = codifferential_1a(exterior_derivative(w), m)
    # the convection wedge overflows degree four, where this piece vanishes
    delta_wedge = (
        KForm.zero(k) if k >= 4 else hodge_star(exterior_derivative(scaled_star_convection(w, m)), -1)
    )
    if k == 0:
        # no codifferential below 0-forms; this piece is identically zero
        d_delta = KForm.zero(0)
    else:
        d_delta = exterior_derivative(codifferential_a1(w, m))
    return {"delta_d": delta_d, "delta_wedge": delta_wedge, "d_delta": d_delta}


def unified_operator(w: KForm, m: MaterialParams) -> KForm:
    """Full operator: codiff(flux w) + d(codiff w), same degree as the input."""
    return sum_forms(*operator_pieces(w, m).values())


def hodge_laplacian(w: KForm, m: MaterialParams) -> KForm:
    """Weighted Hodge Laplacian: the unified operator without convection."""
    k = w.degree
    first = codifferential_1a(exterior_derivative(w), m)
    if k == 0:
        return first
    return first + exterior_derivative(codifferential_a1(w, m))


# ---------------------------------------------------------------------------
# component-wise expansion against the classical oracle
# ---------------------------------------------------------------------------


class ExpansionRow(Record):
    __slots__ = ("label", "input_coefficient", "actual", "expected")

    def __init__(self, label: str, input_coefficient: PolyField, actual: dict, expected: dict):
        self.label = label
        self.input_coefficient = input_coefficient
        self.actual = actual
        self.expected = expected

    def residuals(self) -> dict:
        out = {}
        for col in (*PIECES, "total"):
            actual, expected = self.actual[col], self.expected[col]
            if actual != expected:  # equality is literal: equal fields are equal values
                out[col] = actual - expected
        return out


class ExpansionReport(Record):
    __slots__ = ("degree", "rows")

    def __init__(self, degree: int, rows: list):
        self.degree = degree
        self.rows = rows

    @property
    def matches(self) -> bool:
        return not self.failures()

    def failures(self) -> list:
        out = []
        for row in self.rows:
            for col, diff in row.residuals().items():
                out.append(f"expand[k={self.degree}][{row.label}][{col}]: residual {diff}")
        return out


def _coerce_solution_fields(degree, fields):
    if isinstance(fields, KForm):
        if fields.degree != degree:
            raise ValueError(f"form degree {fields.degree} does not match k={degree}")
        if any(b.contains_dt for b in fields.components):
            bad = [b.label for b in fields.components if b.contains_dt]
            raise ValueError(f"solution forms carry no dt components; found {bad}")
        return spatial_parts(fields) if degree < 4 else None
    return fields


def _expected_cells(degree, fields, m):
    """Per display-basis expected cells from the classical oracle."""
    eps = PolyField.constant(m.epsilon)
    alpha = m.spatial_diffusion
    beta = m.beta
    zero = PolyField.zero()
    rows = {}
    if degree == 0:
        u = fields
        rows["1"] = {
            "delta_d": -eps * vc.time_derivative(u, 2) - vc.divergence(vc.scale(vc.gradient(u), alpha)),
            "delta_wedge": vc.time_derivative(u) - vc.divergence(vc.scale(beta, u)),
            "d_delta": zero,
        }
    elif degree == 1:
        u = tuple(fields)
        curl_alpha = vc.curl(vc.scale(vc.curl(u), alpha))
        curl_beta = vc.curl(vc.cross(beta, u))
        div_u = vc.divergence(u)
        ut = tuple(vc.time_derivative(c) for c in u)
        for i, label in enumerate(("dx", "dy", "dz")):
            rows[label] = {
                "delta_d": -eps * vc.time_derivative(u[i], 2) + curl_alpha[i],
                "delta_wedge": vc.time_derivative(u[i]) + curl_beta[i],
                "d_delta": -(eps * div_u).diff(i),
            }
        rows["dt"] = {
            "delta_d": eps * vc.divergence(ut),
            "delta_wedge": -div_u,
            "d_delta": -(eps * div_u).diff(T),
        }
    elif degree == 2:
        u = tuple(fields)
        div_u = vc.divergence(u)
        curl_u = vc.curl(u)
        curl_eps_curl = vc.curl(vc.scale(curl_u, eps))
        curl_ut = vc.curl(tuple(vc.time_derivative(c) for c in u))
        beta_dot_u = vc.dot(beta, u)
        for i, label in enumerate(("dy^dz", "dz^dx", "dx^dy")):
            rows[label] = {
                "delta_d": -eps * vc.time_derivative(u[i], 2) - (alpha * div_u).diff(i),
                "delta_wedge": vc.time_derivative(u[i]) - beta_dot_u.diff(i),
                "d_delta": curl_eps_curl[i],
            }
        for i, label in enumerate(("dx^dt", "dy^dt", "dz^dt")):
            rows[label] = {
                "delta_d": eps * curl_ut[i],
                "delta_wedge": -curl_u[i],
                "d_delta": -(eps * curl_u[i]).diff(T),
            }
    elif degree == 3:
        u = fields
        grad_u = vc.gradient(u)
        rows["dx^dy^dz"] = {
            "delta_d": -eps * vc.time_derivative(u, 2),
            "delta_wedge": vc.time_derivative(u),
            "d_delta": -vc.divergence(vc.scale(grad_u, eps)),
        }
        for i, label in enumerate(("dy^dz^dt", "dz^dx^dt", "dx^dy^dt")):
            rows[label] = {
                "delta_d": eps * vc.time_derivative(grad_u[i]),
                "delta_wedge": -grad_u[i],
                "d_delta": -(eps * grad_u[i]).diff(T),
            }
    elif degree == 4:
        rows["dx^dy^dz^dt"] = {"delta_d": zero, "delta_wedge": zero, "d_delta": zero}
    else:
        raise ValueError(f"degree out of range: {degree}")
    for cells in rows.values():
        cells["total"] = signed_sum([(1, cells[name], None) for name in PIECES])
    return rows


def expand_componentwise(degree: int, fields, m: MaterialParams) -> ExpansionReport:
    """Evaluate the operator pieces per display basis and compare exactly.

    ``fields`` is a scalar field for degrees 0 and 3, an ordered triple for
    degrees 1 and 2, ignored for degree 4.  A prebuilt solution form is also
    accepted; forms with dt-involving components are rejected.
    """
    fields = _coerce_solution_fields(degree, fields)
    w = spatial_form(degree, fields)
    pieces = operator_pieces(w, m)
    actual_cols = {name: dict(display_components(piece)) for name, piece in pieces.items()}
    actual_cols["total"] = dict(display_components(sum_forms(*pieces.values())))
    expected = _expected_cells(degree, fields, m)

    input_coeffs = dict(display_components(w))
    rows = []
    for label, cells in expected.items():
        actual = {col: actual_cols[col].get(label, PolyField.zero()) for col in (*PIECES, "total")}
        rows.append(ExpansionRow(label, input_coeffs.get(label, PolyField.zero()), actual, cells))
    return ExpansionReport(degree, rows)


def emergent_constraint(degree: int, fields, m: MaterialParams):
    """The dt-involving block of the unified operator output.

    On polynomial fields the mixed-derivative terms cancel identically and
    the block reduces to minus the divergence (k=1), minus the curl (k=2) or
    minus the gradient (k=3) of the classical input.
    """
    if degree not in (1, 2, 3):
        raise ValueError(f"constraint block exists for degrees 1..3, got {degree}")
    fields = _coerce_solution_fields(degree, fields)
    w = spatial_form(degree, fields)
    return temporal_parts(unified_operator(w, m))


# ---------------------------------------------------------------------------
# potential and exponentially fitted flux
# ---------------------------------------------------------------------------


def make_potential(b: ConvectionForm) -> Potential:
    """Scalar potential of a closed convection form, zero at the origin.

    Uses exact path integration along the coordinate axes; raises
    NoPotentialError naming the nonzero derivative components otherwise.
    """
    closedness = exterior_derivative(b.form)
    if not closedness.is_zero:
        bad = [(label, c) for label, c in display_components(closedness) if not c.is_zero]
        raise NoPotentialError(bad)
    psi = PolyField.zero()
    for axis, component in enumerate((*spatial_parts(b.form), temporal_parts(b.form))):
        if isinstance(component, ExpPolyField):
            component = component.to_poly()
        for later in range(axis + 1, 4):
            component = component.substitute(later, 0)
        psi = psi + component.integrate(axis)
    assert exterior_derivative(KForm.from_scalar(psi)) == b.form
    return Potential(psi, b)


def exp_fitted_flux(w: KForm, p: Potential) -> KForm:
    """The flux written as exp(-psi) d(exp(psi) w); the weights cancel exactly."""
    lift = ExpPolyField(p.psi0, PolyField.one())
    unlift = ExpPolyField(-p.psi0, PolyField.one())
    return exterior_derivative(w.scale(lift)).scale(unlift)
