import ast
import copy
import itertools
import pickle
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodge4d
from hodge4d.fields import ExpPolyField, PolyField
from hodge4d.forms import (
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
    merge_sign,
    one_form,
    parse_basis_label,
    scaled_hodge_star,
    spatial_form,
    spatial_parts,
    sum_forms,
    temporal_parts,
    wedge,
)
from hodge4d.verification import random_kform, random_material, random_poly


def bubble_sort_sign(axes):
    """Independent permutation-parity oracle: count bubble-sort swaps."""
    axes = list(axes)
    sign = 1
    for i in range(len(axes)):
        for j in range(len(axes) - 1 - i):
            if axes[j] > axes[j + 1]:
                axes[j], axes[j + 1] = axes[j + 1], axes[j]
                sign = -sign
    if len(set(axes)) != len(axes):
        return 0
    return sign


def form_of(label, coeff=1):
    basis, sign = parse_basis_label(label)
    return KForm(basis.degree, {basis: Fraction(sign) * PolyField.coerce(coeff)})


# -- basis bookkeeping -------------------------------------------------------


def test_basis_degree_and_label():
    b = BasisForm(0b1010)
    assert b.degree == 2
    assert b.label == "dy^dt"
    assert b.contains_dt
    assert BasisForm(0).label == "1"


def test_from_axes_matches_bubble_sort_oracle(rng):
    for _ in range(300):
        k = rng.randint(1, 4)
        axes = [rng.randrange(4) for _ in range(k)]
        basis, sign = BasisForm.from_axes(axes)
        assert sign == bubble_sort_sign(axes)
        if sign != 0:
            assert basis.axes == tuple(sorted(axes))


def test_merge_sign_matches_oracle(rng):
    for _ in range(300):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a = rng.sample(range(4), min(ka, 4))
        b = rng.sample(range(4), min(kb, 4))
        mask_a = sum(1 << i for i in a)
        mask_b = sum(1 << i for i in b)
        assert merge_sign(mask_a, mask_b) == bubble_sort_sign(sorted(a) + sorted(b))


def test_parse_cyclic_label():
    basis, sign = parse_basis_label("dz^dx")
    assert basis.label == "dx^dz" and sign == -1


def test_basis_forms_are_sixteen_shared_instances():
    for mask in range(16):
        assert BasisForm(mask) is BasisForm(mask)
        assert BasisForm(mask).mask == mask
    assert len({BasisForm(mask) for mask in range(16)}) == 16


def test_basis_forms_of_each_degree_in_mask_order():
    for degree, count in enumerate((1, 4, 6, 4, 1)):
        forms = basis_forms(degree)
        masks = [basis.mask for basis in forms]
        assert len(forms) == count
        assert masks == [mask for mask in range(16) if mask.bit_count() == degree]
        assert all(basis is BasisForm(basis.mask) for basis in forms)


def test_basis_forms_returns_a_fresh_list():
    first = basis_forms(2)
    first.clear()
    first.append(BasisForm(0))
    assert len(basis_forms(2)) == 6 and basis_forms(2) is not basis_forms(2)


@pytest.mark.parametrize("degree", [-1, 5, 16])
def test_basis_forms_outside_degrees_zero_to_four_are_empty(degree):
    # -1 is not degree 4 counted from the end
    assert basis_forms(degree) == []


@pytest.mark.parametrize("mask", [-1, 16])
def test_basis_mask_out_of_range_is_rejected(mask):
    with pytest.raises(ValueError, match="mask out of range"):
        BasisForm(mask)


def test_basis_mask_must_be_an_int():
    with pytest.raises(TypeError):
        BasisForm(2.0)


def test_form_degree_must_be_an_int():
    for degree in (1.5, 1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            KForm(degree, {})
    assert KForm(np.int64(1), {}) == KForm(True, {}) == KForm.zero(1)


def test_basis_forms_are_immutable():
    basis = BasisForm(0b0011)
    with pytest.raises(AttributeError):
        basis.mask = 0b0101
    with pytest.raises(AttributeError):
        del basis.mask
    assert basis.mask == 0b0011


def test_copies_of_a_basis_form_are_the_shared_instance():
    for basis in map(BasisForm, range(16)):
        assert copy.copy(basis) is basis
        assert copy.deepcopy(basis) is basis
        assert pickle.loads(pickle.dumps(basis)) is basis
    w = one_form(1, Fraction(1, 2), 0, -3)
    assert copy.deepcopy(w) == w
    assert pickle.loads(pickle.dumps(w)) == w


def test_forms_keyed_by_constructed_bases_equal_operation_results(xyzt):
    x, y, z, t = xyzt
    computed = wedge(one_form(1, 0, 0, 0), one_form(0, x, 0, y))  # x dx^dy + y dx^dt
    built = KForm(2, {BasisForm(0b0011): x, BasisForm(0b1001): y})
    assert built == computed and hash(built) == hash(computed)
    assert all(a is b for a, b in zip(built.components, computed.components))


@pytest.mark.parametrize("key", [2, 2.5, "1"])
def test_form_keys_must_be_basis_forms(key):
    with pytest.raises(TypeError):
        KForm(1, {key: 1})


# -- wedge --------------------------------------------------------------------


def test_wedge_canonical_product(xyzt):
    assert wedge(form_of("dx"), form_of("dy")) == form_of("dx^dy")


def test_wedge_repeated_differential_vanishes():
    assert wedge(form_of("dx"), form_of("dx")).is_zero


def test_wedge_mixed_degree_sign(xyzt):
    x, y, z, t = xyzt
    a = form_of("dy", x)
    b = form_of("dx^dz", t)
    # independent oracle: dy^(dx^dz) sorts with one swap
    assert bubble_sort_sign([1, 0, 2]) == -1
    assert wedge(a, b) == form_of("dx^dy^dz", -(x * t))


def test_wedge_degree_overflow_is_explicit_zero():
    w = wedge(form_of("dx^dy^dz"), form_of("dy^dt"))
    assert w.degree == 5 and w.is_zero
    with pytest.raises(ValueError):
        KForm(5, {BasisForm(0b1111): 1})


def test_wedge_graded_anticommutativity(rng):
    for da, db in itertools.product(range(5), range(5)):
        if da + db > 4:
            continue
        a = random_kform(rng, da, max_degree=2)
        b = random_kform(rng, db, max_degree=2)
        ba = wedge(b, a)
        if (da * db) % 2:
            ba = -ba
        assert wedge(a, b) == ba


def test_wedge_associative(rng):
    for _ in range(50):
        degrees = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (random_kform(rng, d, max_degree=1) for d in degrees)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- exterior derivative ------------------------------------------------------


def test_d_of_coordinate(xyzt):
    x = xyzt[0]
    assert exterior_derivative(spatial_form(0, x)) == form_of("dx")


def test_d_product_rule_example(xyzt):
    x, _, _, t = xyzt
    d = exterior_derivative(spatial_form(0, x * t))
    assert d == form_of("dx", t) + form_of("dt", x)


@pytest.mark.parametrize("degree", range(5))
def test_d_of_constant_coefficients_is_the_zero_form_of_one_degree_more(degree):
    w = KForm(degree, {basis: Fraction((-1) ** n * (n + 1), 3) for n, basis in enumerate(basis_forms(degree))})
    assert len(w.components) == len(basis_forms(degree))
    assert exterior_derivative(w) == KForm.zero(degree + 1)


def test_d_of_an_exponential_coefficient_is_not_skipped(xyzt):
    x = xyzt[0]
    e = ExpPolyField(x, 1)  # e^x dy: its amplitude is constant, the field is not
    dy, dxdy = parse_basis_label("dy")[0], parse_basis_label("dx^dy")[0]
    assert exterior_derivative(KForm(1, {dy: e})) == KForm(2, {dxdy: e})


def test_d_after_d_zero(rng):
    for degree in range(4):
        for _ in range(200):
            w = random_kform(rng, degree)
            assert exterior_derivative(exterior_derivative(w)).is_zero


def test_graded_leibniz(rng):
    for da in range(5):
        for db in range(5 - da):
            for _ in range(20):
                a = random_kform(rng, da, max_degree=2)
                b = random_kform(rng, db, max_degree=2)
                left = exterior_derivative(wedge(a, b))
                right = wedge(exterior_derivative(a), b)
                second = wedge(a, exterior_derivative(b))
                if da % 2:
                    second = -second
                assert left == right + second


# -- stars ---------------------------------------------------------------------


def test_star_fixed_examples():
    assert hodge_star(form_of("dt")) == -form_of("dx^dy^dz")
    assert hodge_star(form_of("dx^dt")) == form_of("dy^dz")
    assert hodge_star(form_of("1")) == form_of("dx^dy^dz^dt")


def test_scaled_star_fixed_examples():
    m = MaterialParams(alpha=Fraction(5, 3), epsilon=Fraction(7, 2))
    assert scaled_hodge_star(form_of("dy^dz"), m) == form_of("dx^dt", Fraction(5, 3))
    assert scaled_hodge_star(form_of("dy^dz^dt"), m) == form_of("dx", Fraction(-7, 2))
    assert scaled_hodge_star(form_of("dx^dy^dz^dt"), m) == form_of("1", Fraction(7, 2))


def test_double_star_scalar_reduction(rng):
    for _ in range(5):
        m = MaterialParams(
            alpha=Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            epsilon=Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        )
        for degree in range(5):
            for basis in basis_forms(degree):
                w = KForm(degree, {basis: 1})
                out = hodge_star(scaled_hodge_star(w, m))
                if (degree * (4 - degree)) % 2:
                    out = -out
                factor = m.epsilon if basis.contains_dt else m.alpha
                assert out == w.scale(factor)


def test_star_of_overflow_degree_rejected():
    with pytest.raises(ValueError):
        hodge_star(KForm.zero(5))


# -- codifferentials -------------------------------------------------------------


def test_codifferential_1a_on_one_form(xyzt):
    x = xyzt[0]
    m = MaterialParams()
    w = form_of("dx", x * x)
    # oracle: -eps*div for the swapped variant, -alpha*div here (alpha=eps=1)
    assert codifferential_1a(w, m) == spatial_form(0, -2 * x)


def test_codifferential_of_constant_star_image_vanishes():
    m = MaterialParams(alpha=Fraction(3), epsilon=Fraction(2))
    w = scaled_hodge_star(form_of("dy^dz", 7), m)
    assert codifferential_1a(w, m).is_zero


def test_codifferential_1a_of_gradient(xyzt):
    t = xyzt[3]
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(2))
    w = exterior_derivative(spatial_form(0, t * t))
    # oracle from the scalar expansion: -eps * u_tt = -4
    assert codifferential_1a(w, m) == spatial_form(0, -4)


def test_codifferential_a1_divergence(xyzt):
    x, y, z, _ = xyzt
    m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(3))
    u = spatial_form(1, (x * x, y * z, z))
    div = 2 * x + z + 1
    assert codifferential_a1(u, m) == spatial_form(0, -Fraction(3) * div)


def test_codifferential_a1_curl(xyzt):
    x, y, z, _ = xyzt
    m = MaterialParams(alpha=Fraction(1), epsilon=Fraction(5, 2))
    u = spatial_form(2, (y, z * x, x))
    from hodge4d.vectorcalc import curl

    expected = spatial_form(1, tuple(Fraction(5, 2) * c for c in curl((y, z * x, x))))
    assert codifferential_a1(u, m) == expected


def test_codifferential_below_zero_warns_and_returns_zero():
    m = MaterialParams()
    w = spatial_form(0, PolyField.variable(0))
    for op in (codifferential_1a, codifferential_a1):
        with pytest.warns(DegreeUnderflowWarning):
            out = op(w, m)
        assert out.degree == 0 and out.is_zero


def test_codifferential_underflow_warning_points_at_the_caller():
    w = spatial_form(0, PolyField.variable(0))
    for op in (codifferential_1a, codifferential_a1):
        with pytest.warns(DegreeUnderflowWarning) as record:
            op(w, MaterialParams())
        assert record[0].filename == __file__


# -- interior product -------------------------------------------------------------


def test_interior_product_strips_trailing_dt(xyzt):
    x = xyzt[0]
    assert interior_product_dt(form_of("dx^dt", x)) == form_of("dx", x)
    assert interior_product_dt(form_of("dx^dy")).is_zero
    assert interior_product_dt(form_of("dt")) == form_of("1")


def test_interior_product_of_flux_star(xyzt):
    u = xyzt[0] * xyzt[3] ** 2  # x t^2
    m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(3))
    w = hodge_star(scaled_hodge_star(exterior_derivative(spatial_form(0, u)), m))
    # oracle: the dt coefficient of the double-starred gradient is -eps*u_t
    assert interior_product_dt(w) == spatial_form(0, -Fraction(3) * u.diff("t"))


def test_interior_product_signed_antiderivation():
    n_t = form_of("dt")
    for degree in range(4):
        for basis in basis_forms(degree):
            w = KForm(degree, {basis: 1})
            lhs = interior_product_dt(wedge(n_t, w))
            if degree >= 1:
                lhs = lhs + wedge(n_t, interior_product_dt(w))
            spatial = basis.degree - (1 if basis.contains_dt else 0)
            assert lhs == (w if spatial % 2 == 0 else -w)


def test_interior_product_nilpotent(rng):
    for _ in range(100):
        w = random_kform(rng, rng.randint(1, 4))
        assert interior_product_dt(interior_product_dt(w)).is_zero


# -- representation helpers ---------------------------------------------------------


def test_spatial_form_round_trip(rng):
    for degree in (1, 2):
        fields = tuple(random_poly(rng) for _ in range(3))
        assert spatial_parts(spatial_form(degree, fields)) == fields
    u = random_poly(rng)
    assert spatial_parts(spatial_form(0, u)) == u
    assert spatial_parts(spatial_form(3, u)) == u
    assert spatial_form(4, None).is_zero


@pytest.mark.parametrize("degree", [1, 2])
def test_spatial_form_rejects_a_pair_for_a_triple(degree, xyzt):
    with pytest.raises(ValueError):
        spatial_form(degree, xyzt[:2])


@pytest.mark.parametrize("degree", [-1, 5])
def test_spatial_form_rejects_degree_out_of_range(degree):
    with pytest.raises(ValueError):
        spatial_form(degree, PolyField.one())


def test_parts_reject_degrees_without_a_block():
    with pytest.raises(ValueError):
        spatial_parts(KForm.zero(4))
    for degree in (0, 4):
        with pytest.raises(ValueError):
            temporal_parts(KForm.zero(degree))


def test_cyclic_two_form_component_sign(xyzt):
    x = xyzt[0]
    w = spatial_form(2, (PolyField.zero(), x, PolyField.zero()))
    # stored on dx^dz with flipped sign, displayed back on dz^dx
    assert w.coefficient(BasisForm(0b0101)) == -x
    assert dict(display_components(w))["dz^dx"] == x


def test_temporal_parts_display_signs(xyzt):
    x, y, z, _ = xyzt
    w = KForm(
        3,
        {
            BasisForm(0b1110): x,  # dy^dz^dt
            BasisForm(0b1101): y,  # dx^dz^dt, displayed as -dz^dx^dt
            BasisForm(0b1011): z,  # dx^dy^dt
        },
    )
    assert temporal_parts(w) == (x, -y, z)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(alpha=0)
    with pytest.raises(ValueError):
        MaterialParams(epsilon=Fraction(-1, 2))
    m = MaterialParams(beta=(1, 2, 3))
    assert m.beta[2] == PolyField.constant(3)


def test_material_params_are_exact():
    for kwargs in ({"alpha": 0.1}, {"epsilon": 0.5}, {"alpha": 2.0, "epsilon": 1.0}):
        with pytest.raises(TypeError, match="exact scalar expected"):
            MaterialParams(**kwargs)
    m = MaterialParams(alpha=2, epsilon="3/2")
    assert (m.alpha, m.epsilon) == (Fraction(2), Fraction(3, 2))
    assert type(m.alpha) is Fraction and type(m.epsilon) is Fraction
    assert MaterialParams(alpha=Fraction(1, 10)).alpha == Fraction(1, 10)


def test_one_form_coerces_and_drops_zeros(xyzt):
    x = xyzt[0]
    w = one_form(x, 0, Fraction(1, 2), -1)
    assert w == KForm(1, {BasisForm(0b0001): x, BasisForm(0b0100): Fraction(1, 2), BasisForm(0b1000): -1})
    assert one_form(0, 0, 0, 0) == KForm.zero(1)
    assert spatial_parts(w) == (x, 0, Fraction(1, 2)) and temporal_parts(w) == -1


def test_zero_weight_exponential_input_is_stored_as_a_polynomial(xyzt):
    x, y, _, t = xyzt
    flat = ExpPolyField(0, x + 1)
    w = one_form(x, y, 0, t)
    for form in (
        one_form(flat, flat, 0, 0),
        KForm(1, {BasisForm(0b0001): flat}),
        w.scale(flat),
        w.map_coefficients(lambda c: ExpPolyField(0, c)),
        w.scale(ExpPolyField(t, 1)).substitute_t(0),  # the weight vanishes at t = 0
    ):
        assert form.components and all(type(c) is PolyField for _, c in form.items())
    assert w.scale(flat) == w.scale(x + 1)
    # an exponential factor and its inverse cancel to plain polynomial coefficients
    lifted = w.scale(ExpPolyField(x * t, 1))
    assert all(type(c) is ExpPolyField for _, c in lifted.items())
    unlifted = lifted.scale(ExpPolyField(-x * t, 1))
    assert unlifted == w and all(type(c) is PolyField for _, c in unlifted.items())


# the basis encoding (masks, the dt bit, the parity rule) is private to forms.py
_ENCODING_NAMES = {"T_BIT", "FULL_MASK", "merge_sign", "star_sign"}


def test_only_forms_knows_the_basis_encoding():
    leaks = []
    for path in sorted(Path(hodge4d.__file__).parent.glob("*.py")):
        if path.name == "forms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("forms", "hodge4d.forms"):
                leaks += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") or alias.name in _ENCODING_NAMES
                ]
            elif isinstance(node, ast.Attribute) and node.attr == "mask":
                leaks.append(f"{path.name}:{node.lineno} reads .mask")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BasisForm":
                leaks.append(f"{path.name}:{node.lineno} builds a BasisForm from a mask")
    assert leaks == []


def _names_exp_poly_field(source: str) -> list:
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if getattr(node, "id", None) == "ExpPolyField"
        or getattr(node, "attr", None) == "ExpPolyField"
        or (isinstance(node, ast.ImportFrom) and any(a.name == "ExpPolyField" for a in node.names))
    )


def test_forms_does_not_know_the_exponential_field_type():
    # fields owns the rule that a zero-weight exponential field is a polynomial
    path = Path(hodge4d.__file__).parent / "forms.py"
    assert _names_exp_poly_field(path.read_text(encoding="utf-8")) == []
    leaky = (
        "from .fields import ExpPolyField as E\n"
        "from . import fields\n"
        "isinstance(c, fields.ExpPolyField)\n"
        "ExpPolyField\n"
    )
    assert _names_exp_poly_field(leaky) == [1, 3, 4]


# -- every operation against a pairwise reference -------------------------------
#
# The reference builds each image with the fields' own *, diff and unary -,
# and adds the images on one basis pairwise with +, as the form operations did
# before they summed each coefficient in one pass.


def _pairwise(degree, images):
    comps = {}
    for basis, coeff in images:
        comps[basis] = comps[basis] + coeff if basis in comps else coeff
    return KForm(degree, comps)  # drops the zero sums


def _signed_image(sign, coeff):
    return coeff if sign > 0 else -coeff


def _reference_d(w):
    images = []
    for basis, coeff in w.items():
        for axis in set(range(4)) - set(basis.axes):
            image, sign = BasisForm.from_axes((axis, *basis.axes))
            images.append((image, _signed_image(sign, coeff.diff(axis))))
    return _pairwise(w.degree + 1, images)


def _reference_wedge(a, b):
    images = []
    for ba, ca in a.items():
        for bb, cb in b.items():
            image, sign = BasisForm.from_axes((*ba.axes, *bb.axes))
            if sign:
                images.append((image, _signed_image(sign, ca * cb)))
    return _pairwise(a.degree + b.degree, images)


def _reference_star(w, m=None):
    images = []
    for basis, coeff in w.items():
        complement = tuple(sorted(set(range(4)) - set(basis.axes)))
        image, sign = BasisForm.from_axes(complement)[0], BasisForm.from_axes((*basis.axes, *complement))[1]
        if m is not None:
            coeff = coeff * (m.epsilon if basis.contains_dt else m.spatial_diffusion)
        images.append((image, _signed_image(sign, coeff)))
    return _pairwise(4 - w.degree, images)


def _reference_neg(w):
    return _pairwise(w.degree, ((basis, -coeff) for basis, coeff in w.items()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 4), st.booleans(), st.booleans())
def test_each_operation_equals_its_pairwise_reference(seed, degree, alpha_field, lift):
    rng = random.Random(seed)
    a, b = random_kform(rng, degree), random_kform(rng, degree)
    other = random_kform(rng, rng.randrange(5 - degree))
    m = random_material(rng)
    if alpha_field:
        m = MaterialParams(m.alpha, m.epsilon, m.beta, alpha_field=random_poly(rng, max_degree=2))
    if lift:  # exponential coefficients of one weight: the operations fold through the field operators
        factor = ExpPolyField(random_poly(rng, max_degree=2) + PolyField.variable(rng.randrange(4)), 1)
        a, b, other = a.scale(factor), b.scale(factor), other.scale(factor)
    assert exterior_derivative(a) == _reference_d(a)
    assert wedge(a, other) == _reference_wedge(a, other)
    assert wedge(other, a) == _reference_wedge(other, a)
    assert hodge_star(a) == _reference_star(a)
    assert hodge_star(a, -1) == _reference_neg(_reference_star(a))
    assert scaled_hodge_star(a, m) == _reference_star(a, m)
    assert scaled_hodge_star(a, m, -1) == _reference_neg(_reference_star(a, m))
    if degree:
        assert codifferential_1a(a, m) == _reference_neg(_reference_star(_reference_d(_reference_star(a, m))))
        assert codifferential_a1(a, m) == _reference_neg(_reference_star(_reference_d(_reference_star(a)), m))
    assert a + b == _pairwise(degree, itertools.chain(a.items(), b.items()))
    assert a - b == _pairwise(degree, itertools.chain(a.items(), _reference_neg(b).items()))
    assert -a == _reference_neg(a)
    assert sum_forms(a, b, -a) == b
    assert (a - a).is_zero


def test_a_star_sign_is_one_or_minus_one():
    w = form_of("dx", PolyField.variable(0))
    for sign in (0, 2, -2, 1.0, True):
        with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign!r}$"):
            hodge_star(w, sign)
        with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign!r}$"):
            scaled_hodge_star(w, MaterialParams(), sign)
