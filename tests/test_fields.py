from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge4d.fields import ExpPolyField, PolyField, T, X, axis_index


def test_constructor_drops_zero_terms():
    p = PolyField({(1, 0, 0, 0): 0, (0, 1, 0, 0): 2})
    assert list(p.terms) == [(0, 1, 0, 0)]


def test_floats_rejected():
    with pytest.raises(TypeError):
        PolyField.constant(0.5)


def test_axis_lookup():
    assert axis_index("t") == 3
    assert axis_index(2) == 2
    with pytest.raises(ValueError):
        axis_index("w")


def test_basic_arithmetic(xyzt):
    x, y, z, t = xyzt
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (p - p).is_zero


def test_diff_and_integrate(xyzt):
    x, y, z, t = xyzt
    p = x * x * t
    assert p.diff(X) == 2 * x * t
    assert p.diff(T) == x * x
    assert p.diff(X).integrate(X) == p  # t-part has no pure-x constant
    assert p.diff("y").is_zero


def test_substitute_and_evaluate(xyzt):
    x, y, z, t = xyzt
    p = x * t * t + y
    assert p.substitute(T, Fraction(1, 2)) == x * Fraction(1, 4) + y
    assert p.evaluate(2, 3, 0, Fraction(1, 2)) == Fraction(2, 4) + 3


# independent oracle: evaluation at a few rational points commutes with
# the ring operations, so the term-map arithmetic is spot-checked pointwise
_POINTS = [(0, 0, 0, 0), (1, 2, 3, 4), (Fraction(1, 2), -1, Fraction(2, 3), 5)]

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda f: f != 0)
_exps = st.tuples(*[st.integers(0, 2)] * 4)
_polys = st.dictionaries(_exps, _coeffs, max_size=4).map(PolyField)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys)
def test_product_matches_pointwise_oracle(p, q):
    pq = p * q
    for pt in _POINTS:
        assert pq.evaluate(*pt) == p.evaluate(*pt) * q.evaluate(*pt)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(_polys, _polys)
def test_derivation_rules(p, q):
    for axis in range(4):
        assert (p + q).diff(axis) == p.diff(axis) + q.diff(axis)
        assert (p * q).diff(axis) == p.diff(axis) * q + p * q.diff(axis)


def test_exp_field_derivative_rule(xyzt):
    x, y, z, t = xyzt
    e = ExpPolyField(x * t, y + x)
    d = e.diff(X)
    # d(e^p q) = e^p (q dp + dq)
    assert d.weight == x * t
    assert d.amplitude == (y + x) * t + 1


def test_exp_field_zero_weight_reduces_to_poly(xyzt):
    x, _, _, _ = xyzt
    e = ExpPolyField(PolyField.zero(), x + 2)
    assert e.to_poly() == x + 2
    assert e == x + 2


def test_exp_field_addition_same_weight_only(xyzt):
    x, y, _, _ = xyzt
    a = ExpPolyField(x, y)
    b = ExpPolyField(x, 1 - y)
    assert (a + b).amplitude == PolyField.one()
    with pytest.raises(ValueError):
        a + ExpPolyField(y, x)
    # zero values are weight-agnostic
    assert a + ExpPolyField(y, 0) == a


def test_exp_field_products_add_weights(xyzt):
    x, y, _, t = xyzt
    a = ExpPolyField(x, y)
    b = ExpPolyField(-x + t, 2)
    p = a * b
    assert p.weight == t
    assert p.amplitude == 2 * y
    # promotion from plain polynomials
    assert (a * (x + 1)).amplitude == y * (x + 1)
    assert (x + 1) * a == a * (x + 1)


def test_exp_field_nonzero_weight_refuses_poly_conversion(xyzt):
    x, y, _, _ = xyzt
    with pytest.raises(ValueError):
        ExpPolyField(x, y).to_poly()


def test_constants_and_zero_weight_fields_hash_like_what_they_equal(xyzt):
    x, _, _, t = xyzt
    assert hash(PolyField.constant(3)) == hash(3)
    assert hash(PolyField.constant(Fraction(-1, 2))) == hash(Fraction(-1, 2))
    assert hash(PolyField.zero()) == hash(0)
    assert len({ExpPolyField(0, x), x}) == 1
    assert len({ExpPolyField(x, 0), ExpPolyField(t, 0), 0}) == 1


_scalars = st.one_of(st.integers(-5, 5), _coeffs)


@st.composite
def _equal_pairs(draw):
    """Two values that must compare equal, possibly in different representations."""
    kind = draw(st.sampled_from(["poly", "constant", "exp"]))
    if kind == "constant":
        c = draw(_scalars)
        forms = [Fraction(c), PolyField.constant(c), ExpPolyField(0, c), ExpPolyField(draw(_polys), 0) + c]
        if Fraction(c).denominator == 1:
            forms.append(int(c))
    elif kind == "poly":
        p, q = draw(_polys), draw(_polys)
        forms = [p, (p + q) - q, ExpPolyField(PolyField.zero(), p), ExpPolyField(q - q, p * 1)]
    else:
        w, p, q = draw(_polys), draw(_polys), draw(_polys)
        forms = [ExpPolyField(w, p), ExpPolyField(w + q - q, (p + q) - q)]
    return draw(st.sampled_from(forms)), draw(st.sampled_from(forms))


_values = st.one_of(
    _scalars,
    _polys,
    _scalars.map(PolyField.constant),
    st.builds(ExpPolyField, st.just(0), _polys),
    st.builds(ExpPolyField, _polys, _polys),
)


@settings(max_examples=100, deadline=None)
@given(_equal_pairs(), _values, _values)
def test_equal_values_hash_equal(pair, a, b):
    first, second = pair
    assert first == second and second == first
    assert hash(first) == hash(second)
    if a == b:
        assert hash(a) == hash(b)
