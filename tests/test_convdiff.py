from fractions import Fraction

import pytest

from hodge4d import vectorcalc as vc
from hodge4d.convdiff import (
    ConvectionForm,
    NoPotentialError,
    build_convection_form,
    emergent_constraint,
    exp_fitted_flux,
    expand_componentwise,
    flux,
    hodge_laplacian,
    make_potential,
    operator_pieces,
    scaled_star_convection,
    unified_operator,
)
from hodge4d.fields import PolyField
from hodge4d.forms import (
    BasisForm,
    KForm,
    MaterialParams,
    exterior_derivative,
    parse_basis_label,
    scaled_hodge_star,
    spatial_form,
    wedge,
)
from hodge4d.verification import random_kform, random_material, random_poly

ZERO = PolyField.zero()


def form_of(label, coeff=1):
    basis, sign = parse_basis_label(label)
    return KForm(basis.degree, {basis: Fraction(sign) * PolyField.coerce(coeff)})


# -- convection form --------------------------------------------------------


def test_convection_form_trivial():
    b = build_convection_form(MaterialParams())
    assert b.form == -form_of("dt")


def test_convection_form_substitution_oracle():
    m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(1, 4), beta=(2, 0, 0))
    b = build_convection_form(m)
    assert b.form == form_of("dx") + form_of("dt", -4)

    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1), beta=(0, 3, 0))
    b = build_convection_form(m)
    assert b.form == form_of("dy", 3) - form_of("dt")


def test_convection_form_rejects_variable_alpha(xyzt):
    x = xyzt[0]
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1), alpha_field=1 + x * x)
    with pytest.raises(ValueError):
        build_convection_form(m)


@pytest.mark.parametrize(
    "form",
    [
        form_of("dt", Fraction(-1, 2)),
        form_of("dx") + form_of("dt"),
        KForm.from_scalar(-2),
        form_of("dx^dt", -2),
        form_of("dx^dy^dz^dt", -2),
        KForm.zero(5),
    ],
    ids=["wrong-dt", "positive-dt", "0-form", "2-form", "4-form", "zero-5-form"],
)
def test_convection_form_rejects_all_but_minus_inverse_eps_on_dt(form):
    m = MaterialParams(epsilon=Fraction(1, 2))
    assert ConvectionForm(form_of("dt", -2), m).form == form_of("dt", -2)
    with pytest.raises(ValueError) as excinfo:
        ConvectionForm(form, m)
    assert str(excinfo.value) == "dt component must be exactly -1/epsilon"


# -- flux ----------------------------------------------------------------------


def test_flux_of_unit_scalar():
    b = build_convection_form(MaterialParams())
    assert flux(spatial_form(0, PolyField.one()), b) == -form_of("dt")


def test_flux_substitution_oracle(xyzt):
    x = xyzt[0]
    b = build_convection_form(MaterialParams())
    assert flux(spatial_form(0, x), b) == form_of("dx") + form_of("dt", -x)


def test_flux_of_top_degree_form_vanishes(rng):
    b = build_convection_form(MaterialParams())
    w = KForm(4, {BasisForm(0b1111): random_poly(rng)})
    out = flux(w, b)
    assert out.is_zero and out.degree == 5
    fitted = exp_fitted_flux(w, make_potential(b))
    assert fitted.is_zero and fitted.degree == 5


def test_fused_convection_star_matches_explicit(rng):
    for degree in range(4):
        m = random_material(rng)
        b = build_convection_form(m)
        fields = (
            random_poly(rng)
            if degree in (0, 3)
            else tuple(random_poly(rng) for _ in range(3))
        )
        w = spatial_form(degree, fields)
        assert scaled_star_convection(w, m) == scaled_hodge_star(wedge(b.form, w), m)
    # general forms, with dt components: those spatial-slot products are starred by epsilon
    for degree in range(4):
        for _ in range(5):
            m = random_material(rng)
            w = random_kform(rng, degree)
            b = build_convection_form(m)
            assert scaled_star_convection(w, m) == scaled_hodge_star(wedge(b.form, w), m)


def test_fused_convection_star_rejects_dt_components_with_alpha_field(xyzt):
    x, _, _, t = xyzt
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1), beta=(1, 0, 0), alpha_field=1 + x * x)
    w = form_of("dx", x) + form_of("dt", t)
    with pytest.raises(ValueError, match="dt-free"):
        scaled_star_convection(w, m)
    with pytest.raises(ValueError, match="dt-free"):
        unified_operator(w, m)


# -- Hodge Laplacian and the unified operator -----------------------------------


def test_laplacian_examples(xyzt):
    x, _, _, t = xyzt
    assert hodge_laplacian(spatial_form(0, x * x), MaterialParams()) == spatial_form(0, -2)
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(3))
    assert hodge_laplacian(spatial_form(0, t * t), m) == spatial_form(0, -6)
    assert hodge_laplacian(spatial_form(0, Fraction(5)), m).is_zero


def test_laplacian_is_negative_4d_laplacian_for_unit_weights(rng):
    m = MaterialParams()
    for _ in range(20):
        u = random_poly(rng)
        expected = -(vc.laplacian(u) + vc.time_derivative(u, 2))
        assert hodge_laplacian(spatial_form(0, u), m) == spatial_form(0, expected)


def test_unified_operator_time_ramp():
    for m in (MaterialParams(), MaterialParams(alpha=Fraction(3), epsilon=Fraction(7, 2))):
        u = spatial_form(0, PolyField.variable(3))
        assert unified_operator(u, m) == spatial_form(0, PolyField.one())


def test_unified_operator_scalar_oracle(xyzt):
    x = xyzt[0]
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1), beta=(1, 0, 0))
    # classical oracle: -eps u_tt + u_t - div(alpha grad u + beta u)
    u = x * x
    expected = -vc.divergence((u.diff(0) + u, ZERO, ZERO))
    assert expected == PolyField.constant(-2) - 2 * x
    assert unified_operator(spatial_form(0, u), m) == spatial_form(0, expected)


def test_unified_operator_top_degree_zero():
    assert unified_operator(KForm.zero(4), MaterialParams()).is_zero


def test_unified_operator_scalar_equation_random(rng):
    for _ in range(25):
        m = random_material(rng)
        u = random_poly(rng)
        expected = (
            -m.epsilon * vc.time_derivative(u, 2)
            + vc.time_derivative(u)
            - vc.divergence(vc.scale(vc.gradient(u), m.alpha))
            - vc.divergence(vc.scale(m.beta, u))
        )
        assert unified_operator(spatial_form(0, u), m) == spatial_form(0, expected)


def test_unified_operator_linearity(rng):
    for _ in range(30):
        degree = rng.randint(0, 4)
        m = random_material(rng)
        u = random_kform(rng, degree, max_degree=2)
        v = random_kform(rng, degree, max_degree=2)
        a, b = Fraction(3, 2), Fraction(-2, 5)
        assert unified_operator(u.scale(a) + v.scale(b), m) == unified_operator(
            u, m
        ).scale(a) + unified_operator(v, m).scale(b)


def test_unified_reduces_to_laplacian_plus_transport_for_zero_beta(rng):
    # with no spatial convection the operator is the Laplacian plus the
    # pure time-transport contribution of the dt slot of the convection form
    m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(3, 4))
    for _ in range(10):
        u = random_poly(rng)
        w = spatial_form(0, u)
        expected = hodge_laplacian(w, m) + spatial_form(0, vc.time_derivative(u))
        assert unified_operator(w, m) == expected


def test_unified_operator_variable_alpha(xyzt):
    x, y, _, _ = xyzt
    alpha = 1 + x * x + y * y
    m = MaterialParams(
        alpha=Fraction(1),
        epsilon=Fraction(2),
        beta=(x * y, ZERO, 1 + y),
        alpha_field=alpha,
    )
    u = x * x * PolyField.variable(3) + y
    expected = (
        -m.epsilon * vc.time_derivative(u, 2)
        + vc.time_derivative(u)
        - vc.divergence(vc.scale(vc.gradient(u), alpha))
        - vc.divergence(vc.scale(m.beta, u))
    )
    assert unified_operator(spatial_form(0, u), m) == spatial_form(0, expected)


# -- component-wise expansions ----------------------------------------------------


def test_expansion_fixed_cells(xyzt):
    x, y, z, t = xyzt
    m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(3), beta=(y, z, x))
    u = (x * t, y * z, z * t)
    report = expand_componentwise(1, u, m)
    rows = {row.label: row for row in report.rows}
    # first-degree d_delta column is -d/dx_i(eps * div u) per spatial row
    div_u = vc.divergence(u)
    assert rows["dx"].actual["d_delta"] == -(Fraction(3) * div_u).diff(0)
    # time-slot convection cell is minus the divergence
    assert rows["dt"].actual["delta_wedge"] == -div_u
    assert report.matches


def test_expansion_two_form_cells(xyzt):
    x, y, z, t = xyzt
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1))
    u = (y * t, x * z, z * z)
    report = expand_componentwise(2, u, m)
    rows = {row.label: row for row in report.rows}
    curl_u = vc.curl(u)
    # dx^dt convection cell: -(du3/dy - du2/dz)
    assert rows["dx^dt"].actual["delta_wedge"] == -curl_u[0]
    assert report.matches


def test_expansion_three_form_total(xyzt):
    t = xyzt[3]
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1))
    report = expand_componentwise(3, t * t, m)
    rows = {row.label: row for row in report.rows}
    # -eps u_tt + u_t - eps lap(u) = -2 + 2t
    assert rows["dx^dy^dz"].actual["total"] == 2 * t - 2


def test_expansion_all_degrees_random(rng):
    for _ in range(8):
        m = random_material(rng)
        for degree in range(5):
            fields = (
                random_poly(rng)
                if degree in (0, 3)
                else tuple(random_poly(rng) for _ in range(3))
                if degree in (1, 2)
                else None
            )
            report = expand_componentwise(degree, fields, m)
            assert report.matches, report.failures()


def test_expansion_rejects_dt_components(rng):
    w = KForm(1, {BasisForm(0b1000): PolyField.variable(0)})
    with pytest.raises(ValueError, match="dt"):
        expand_componentwise(1, w, MaterialParams())


def test_expansion_accepts_solution_form(rng):
    fields = tuple(random_poly(rng) for _ in range(3))
    m = random_material(rng)
    via_fields = expand_componentwise(2, fields, m)
    via_form = expand_componentwise(2, spatial_form(2, fields), m)
    assert via_fields.matches and via_form.matches


# -- emergent constraints -----------------------------------------------------------


def test_constraint_divergence_free(xyzt):
    x, y, _, _ = xyzt
    assert emergent_constraint(1, (y, -x, ZERO), MaterialParams()).is_zero


def test_constraint_curl_free(xyzt):
    x, y, z, _ = xyzt
    value = emergent_constraint(2, (x, y, z), MaterialParams())
    assert all(c.is_zero for c in value)


def test_constraint_constant_divergence(xyzt):
    x = xyzt[0]
    assert emergent_constraint(1, (x, ZERO, ZERO), MaterialParams()) == PolyField.constant(-1)


def test_constraint_blocks_random(rng):
    for _ in range(25):
        m = random_material(rng)
        v = tuple(random_poly(rng) for _ in range(3))
        assert emergent_constraint(1, v, m) == -vc.divergence(v)
        assert emergent_constraint(2, v, m) == tuple(-c for c in vc.curl(v))
        u = random_poly(rng)
        assert emergent_constraint(3, u, m) == tuple(-c for c in vc.gradient(u))


def test_constraint_degree_validation():
    with pytest.raises(ValueError):
        emergent_constraint(0, PolyField.one(), MaterialParams())


# -- potential and exponential fitting  ------------------------------------------------


def test_potential_pure_time():
    p = make_potential(build_convection_form(MaterialParams()))
    assert p.psi0 == -PolyField.variable(3)


def test_potential_axis_integration_oracle():
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1, 2), beta=(2, 0, 0))
    p = make_potential(build_convection_form(m))
    assert p.psi0 == 2 * PolyField.variable(0) - 2 * PolyField.variable(3)
    assert p.psi0.evaluate(0, 0, 0, 0) == 0


def test_potential_gradient_recovers_convection_form(rng):
    for _ in range(20):
        m = random_material(rng, polynomial_beta=False)
        b = build_convection_form(m)
        p = make_potential(b)
        assert exterior_derivative(spatial_form(0, p.psi0)) == b.form
        assert p.psi0.diff("t") == PolyField.constant(-1 / m.epsilon)


def test_potential_rejects_nonclosed_field(xyzt):
    y = xyzt[1]
    m = MaterialParams(beta=(y, ZERO, ZERO))
    with pytest.raises(NoPotentialError) as err:
        make_potential(build_convection_form(m))
    assert any("dx^dy" in label for label, _ in err.value.components)


def test_exp_fitted_flux_trivial():
    m = MaterialParams()
    b = build_convection_form(m)
    p = make_potential(b)
    w = spatial_form(0, PolyField.one())
    assert exp_fitted_flux(w, p) == b.form


def test_exp_fitted_flux_example(xyzt):
    x = xyzt[0]
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(1, 2), beta=(2, 0, 0))
    b = build_convection_form(m)
    p = make_potential(b)
    w = form_of("dy", x)
    out = exp_fitted_flux(w, p)
    assert out == flux(w, b)
    assert out == form_of("dx^dy", 1 + 2 * x) + form_of("dy^dt", 2 * x)


def test_exp_fitted_flux_identity_random(rng):
    for degree in range(4):
        for _ in range(100):
            m = random_material(rng, polynomial_beta=False)
            b = build_convection_form(m)
            p = make_potential(b)
            w = random_kform(rng, degree, max_degree=2)
            assert flux(w, b) == exp_fitted_flux(w, p)


def test_exp_fitted_flux_gauge_invariance(rng):
    from hodge4d.convdiff import Potential

    m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(1, 3), beta=(1, -2, 3))
    b = build_convection_form(m)
    p = make_potential(b)
    shifted = Potential(p.psi0 + Fraction(7, 3), b)
    w = random_kform(rng, 2)
    assert exp_fitted_flux(w, p) == exp_fitted_flux(w, shifted)


# -- pieces consistency ----------------------------------------------------------------


def test_pieces_sum_to_operator_and_match_flux_route(rng):
    for _ in range(15):
        degree = rng.randint(0, 3)
        m = random_material(rng)
        w = random_kform(rng, degree, max_degree=2)
        pieces = operator_pieces(w, m)
        total = pieces["delta_d"] + pieces["delta_wedge"] + pieces["d_delta"]
        assert total == unified_operator(w, m)
        from hodge4d.forms import codifferential_1a

        b = build_convection_form(m)
        if degree >= 1:
            assert codifferential_1a(flux(w, b), m) == pieces["delta_d"] + pieces["delta_wedge"]
