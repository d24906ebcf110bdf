import ast
import copy
import operator
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodge4d
from hodge4d.fields import MAX_EXPONENT, ExpPolyField, PolyField, T, X, axis_index


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


def test_axes_must_be_integers_or_names(xyzt):
    y = xyzt[1]
    for axis in (1.5, 1.0, Fraction(1), 1.9):
        with pytest.raises(TypeError):
            PolyField.variable(axis)
        with pytest.raises(TypeError):
            y.diff(axis)
    assert PolyField.variable(np.int64(1)) == PolyField.variable(True) == y
    assert axis_index(np.int8(3)) == 3


def test_exponents_must_be_integers(xyzt):
    for exps in ((1.5, 0, 0, 0), (Fraction(1), 0, 0, 0), ("1", 0, 0, 0)):
        with pytest.raises(TypeError):
            PolyField({exps: 1})
    assert PolyField({(np.int64(2), True, 0, 0): 1}) == xyzt[0] ** 2 * xyzt[1]


def test_powers_must_be_integers(xyzt):
    x = xyzt[0]
    for n in (Fraction(1, 2), 2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            x**n
    assert x ** np.int64(2) == x * x
    assert x**True == x


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


def test_diff_reduces_to_lowest_terms():
    half_x2 = PolyField({(2, 0, 0, 0): Fraction(1, 2)})
    d = half_x2.diff("x")
    assert d.terms == {(1, 0, 0, 0): 1}
    assert d.den == 1
    assert d == PolyField.variable(X)


def test_axis_given_by_name_or_index_agree(xyzt):
    p = (xyzt[0] + 2) * xyzt[1] ** 2 * xyzt[3] ** 3
    for name, index in zip("xyzt", range(4)):
        assert p.diff(name) == p.diff(index)
        assert p.integrate(name) == p.integrate(index)
        assert p.substitute(name, 3) == p.substitute(index, 3)
        assert p.depends_on(name) == p.depends_on(index)


@pytest.mark.parametrize(
    "axis, message",
    [("w", "unknown axis 'w'"), (4, "axis index out of range: 4"), (-1, "axis index out of range: -1")],
)
def test_bad_axis_messages(xyzt, axis, message):
    for op in (
        xyzt[0].diff,
        xyzt[0].integrate,
        lambda a: xyzt[0].substitute(a, 1),
        lambda a: xyzt[0].substitute(a, 0),
        xyzt[0].depends_on,
        PolyField.variable,
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            op(axis)


def test_exponent_limit_in_the_constructor():
    top = PolyField({(MAX_EXPONENT, 0, 0, MAX_EXPONENT): 3})
    assert MAX_EXPONENT == 2**15 - 1
    assert top.terms == {(MAX_EXPONENT, 0, 0, MAX_EXPONENT): 3}
    assert str(top) == f"3*x^{MAX_EXPONENT}*t^{MAX_EXPONENT}"
    for exps in [(2**15, 0, 0, 0), (0, 0, 0, 2**15), (0, 2**16, 0, 0), (0, 0, -1, 0)]:
        with pytest.raises(ValueError):
            PolyField({exps: 1})
        with pytest.raises(ValueError):
            PolyField.from_numerators([(exps, 1)], 1)


def test_products_past_the_exponent_limit_raise(xyzt):
    x, y, _, _ = xyzt
    for axis, v in enumerate(xyzt):
        exps = [0, 0, 0, 0]
        exps[axis] = MAX_EXPONENT
        top = PolyField({tuple(exps): 1})
        other = (axis + 1) % 4  # products below the limit still work
        bumped = list(exps)
        bumped[other] = 1
        assert (top * (xyzt[other] + 1)).terms == {tuple(exps): 1, tuple(bumped): 1}
        with pytest.raises(OverflowError):
            top * v
        with pytest.raises(OverflowError):
            v * (top + 1)
    # two of the overflowing term pairs cancel; the product still raises
    a = PolyField({(MAX_EXPONENT, 0, 0, 0): 1, (MAX_EXPONENT, 1, 0, 0): 1})
    with pytest.raises(OverflowError):
        a * (x * y - x)


def test_power_past_the_exponent_limit_raises(xyzt):
    x = xyzt[0]
    assert (x ** 2**14).terms == {(2**14, 0, 0, 0): 1}
    assert (x**MAX_EXPONENT).terms == {(MAX_EXPONENT, 0, 0, 0): 1}
    with pytest.raises(OverflowError):
        x ** 2**15
    with pytest.raises(OverflowError):
        (PolyField({(0, 0, 0, 2**14): 1}) + 1) ** 2


def test_integral_past_the_exponent_limit_raises():
    below = PolyField({(0, MAX_EXPONENT - 1, 0, 0): 1})
    assert below.integrate("y").terms == {(0, MAX_EXPONENT, 0, 0): Fraction(1, MAX_EXPONENT)}
    top = PolyField({(0, MAX_EXPONENT, 0, 0): 1, (1, 0, 0, 0): 1})
    assert top.integrate("x").terms == {(1, MAX_EXPONENT, 0, 0): 1, (2, 0, 0, 0): Fraction(1, 2)}
    with pytest.raises(OverflowError):
        top.integrate("y")


def test_from_numerators_sums_repeats_and_canonicalises():
    p = PolyField.from_numerators([((1, 0, 0, 0), 3), ([1, 0, 0, 0], 3), ((0, 0, 0, 2), 4), ((0, 1, 0, 0), 0)], 12)
    assert p == PolyField({(1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 2): Fraction(1, 3)})
    assert p.terms == {(1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 2): Fraction(1, 3)}
    cancelled = PolyField.from_numerators([((0, 0, 1, 0), 5), ((0, 0, 1, 0), -5)], 7)
    assert cancelled.is_zero and cancelled == PolyField.zero()


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
    p = x + 2
    e = ExpPolyField(PolyField.zero(), p)
    assert e is p
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


def test_exp_field_results_without_a_weight_are_polynomials(xyzt):
    x, y, _, t = xyzt
    e = ExpPolyField(x, y)
    for result in (
        e * ExpPolyField(-x, 1),
        ExpPolyField(-x, 1) * e,
        e - e,
        e + ExpPolyField(x, -y),
        e * 0,
        -ExpPolyField(0, y),
        ExpPolyField(x * t, y).substitute("t", 0),
        ExpPolyField(x * t, x).diff("y"),
        ExpPolyField(0, x * y).diff("x"),
    ):
        assert type(result) is PolyField
    assert e * ExpPolyField(-x, 1) == y
    assert type(e * ExpPolyField(-x + t, 1)) is ExpPolyField


def test_mixed_weight_and_float_errors(xyzt):
    x, y, _, _ = xyzt
    ex, ey = ExpPolyField(x, 1), ExpPolyField(y, 1)
    cases = [
        (lambda: ex - ey, ValueError, "exp(x) vs exp(y)"),
        (lambda: ex + ey, ValueError, "exp(x) vs exp(y)"),
        (lambda: x - ey, ValueError, "exp(0) vs exp(y)"),
        (lambda: ey - x, ValueError, "exp(y) vs exp(0)"),
        (lambda: x + ey, ValueError, "exp(0) vs exp(y)"),
        (lambda: 3 - ey, ValueError, "exp(0) vs exp(y)"),
    ]
    for op, error, message in cases:
        with pytest.raises(error) as raised:
            op()
        assert str(raised.value).endswith(message)
    # every operator of both field types, in both operand orders, has the one scalar rule
    for field in (x, ex):
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((field, 1.5), (1.5, field)):
                with pytest.raises(TypeError) as raised:
                    op(left, right)
                assert str(raised.value) == "exact scalar expected (int, Fraction or str), got float"


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
        forms = [
            p,
            (p + q) - q,
            p - (q - q),
            1 - (1 - p),
            ExpPolyField(PolyField.zero(), p),
            ExpPolyField(q - q, p * 1),
            ExpPolyField(q, p) * ExpPolyField(-q, 1),
            ExpPolyField(q, 1) * p - ExpPolyField(q, p) + p,
        ]
    else:
        w, p, q = draw(_polys), draw(_polys), draw(_polys)
        forms = [
            ExpPolyField(w, p),
            ExpPolyField(w + q - q, (p + q) - q),
            ExpPolyField(w, p + q) - q * ExpPolyField(w, 1),
            -(ExpPolyField(w, 0) - ExpPolyField(w, p)),
        ]
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


def _assert_field(value):
    """A ``PolyField``, or an ``ExpPolyField`` with a nonzero weight and a nonzero amplitude."""
    if type(value) is ExpPolyField:
        assert not value.weight.is_zero and not value.amplitude.is_zero
    else:
        assert type(value) is PolyField


@settings(max_examples=100, deadline=None)
@given(_polys, _polys, _values, _values, _scalars, st.integers(0, 3))
def test_every_exponential_field_has_a_nonzero_weight_and_amplitude(w, p, a, b, c, axis):
    built = [ExpPolyField(w, p), ExpPolyField(0, p), ExpPolyField(w, 0)]
    fields = built + [v for v in (a, b) if isinstance(v, (PolyField, ExpPolyField))]
    results = list(built)
    for u in fields:
        results += [-u, u.diff(axis), u.substitute(axis, c)]
        for trip in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
            assert trip == u
            results.append(trip)
        for v in fields + [c]:
            results += [u * v, v * u]
            for left, right in ((u, v), (v, u)):
                for op in (operator.add, operator.sub):
                    try:
                        results.append(op(left, right))
                    except ValueError as error:
                        assert "cannot add exponential fields with different weights" in str(error)
    for value in results:
        _assert_field(value)


# the monomial encoding (packed int keys, the numerator map) is private to fields.py
def _encoding_leaks(path):
    leaks = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("fields", "hodge4d.fields"):
            leaks += [
                f"{path.name}:{node.lineno} imports {alias.name}" for alias in node.names if alias.name.startswith("_")
            ]
        elif isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
            leaks.append(f"{path.name}:{node.lineno} reads .{node.attr}")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and getattr(node.value, "id", None) == "fields"
        ):
            leaks.append(f"{path.name}:{node.lineno} reads fields.{node.attr}")
    return leaks


def test_only_fields_knows_the_monomial_encoding():
    leaks = []
    for path in sorted(Path(hodge4d.__file__).parent.glob("*.py")):
        if path.name != "fields.py":
            leaks += _encoding_leaks(path)
    assert leaks == []


def test_the_encoding_guard_catches_each_kind_of_leak(tmp_path):
    source = tmp_path / "leaky.py"
    source.write_text(
        "from .fields import PolyField, _field\n"
        "from . import fields\n"
        "f = fields._lowest({}, 1)\n"
        "print(f.num, f.den)\n",
        encoding="utf-8",
    )
    assert sorted(_encoding_leaks(source)) == [
        "leaky.py:1 imports _field",
        "leaky.py:3 reads fields._lowest",
        "leaky.py:4 reads .den",
        "leaky.py:4 reads .num",
    ]
