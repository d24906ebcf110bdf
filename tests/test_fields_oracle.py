"""The integer-numerator ``PolyField`` against the ``Fraction``-dict oracle.

Every operation is run on both representations of the same random fields;
the coefficients, the printed text and equality must agree, and every result
must be in canonical form: nonzero int numerators under packed monomial keys
over a positive int denominator with ``gcd(den, *numerators) == 1`` (so the
zero field has ``den == 1``).  Near the exponent limit the same operations
must match the oracle or raise ``OverflowError`` exactly when the oracle's
result passes the limit.  Constant and zero operands, the exponential
weight of a product with a polynomial and substitution of zero get
properties of their own.  The random polynomials of ``verification`` are
checked against their ``Fraction``-built oracle in the same way, and their
one integer draw rule against ``random.Random.randrange``.  The signed-sum
kernel is checked against the oracle's pairwise sums of the same parts.
"""

import ast
import operator
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random_reference
from fraction_reference import FractionPolyField
from hodge4d.fields import MAX_EXPONENT, ExpPolyField, PolyField, signed_sum
from hodge4d import verification
from hodge4d.verification import _below, random_fraction, random_poly

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_large = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
_coeffs = st.one_of(_small, _large)
_exps = st.tuples(*[st.integers(0, 3)] * 4)
_terms = st.dictionaries(_exps, _coeffs, max_size=5)
_scalars = st.one_of(st.integers(-(10**6), 10**6), _coeffs)
_axes = st.integers(0, 3)


# a monomial key holds four 16-bit exponent fields; the top bit of each is a
# guard that a valid key never sets
_GUARD_BITS = 0x8000_8000_8000_8000


def assert_canonical(field):
    assert all(type(k) is int and 0 <= k < 1 << 64 and not k & _GUARD_BITS for k in field.num)
    assert all(type(c) is int and c != 0 for c in field.num.values())
    assert type(field.den) is int and field.den > 0
    assert gcd(field.den, *field.num.values()) == 1  # gcd(den) == den: zero field has den 1


def assert_matches(field, ref):
    assert_canonical(field)
    assert field.terms == ref.terms
    assert str(field) == str(ref)


@settings(max_examples=200, deadline=None)
@given(_terms, _terms, _scalars, _axes, st.integers(0, 3))
def test_operations_match_fraction_oracle(ta, tb, s, axis, n):
    a, b = PolyField(ta), PolyField(tb)
    ra, rb = FractionPolyField(ta), FractionPolyField(tb)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, -ra)
    assert_matches(a + s, ra + s)
    assert_matches(s - a, FractionPolyField.constant(s) - ra)
    assert_matches(a * s, ra * s)
    assert_matches(a**n, ra**n)
    assert_matches(a.diff(axis), ra.diff(axis))
    assert_matches(a.integrate(axis), ra.integrate(axis))
    assert_matches(a.substitute(axis, s), ra.substitute(axis, s))
    point = (s, 2, Fraction(-3, 7), 0)
    assert a.evaluate(*point) == ra.evaluate(*point)


@settings(max_examples=200, deadline=None)
@given(_terms, _terms, _scalars)
def test_equality_matches_fraction_oracle(ta, tb, s):
    a, b = PolyField(ta), PolyField(tb)
    ra, rb = FractionPolyField(ta), FractionPolyField(tb)
    assert (a == b) == (ra == rb)
    assert (a == s) == (ra == s)
    # the same value reached along different routes is literally equal
    assert (a + b) - b == a
    assert a * (b + 1) - a * b == a
    assert (a * s) + (a * (1 - s)) == a


# constant operands, which a product scales by without its term loop: zero,
# the unit, ints of either sign and Fractions
_trivial = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1), Fraction(1, 2)]),
    st.integers(-(10**6), 10**6),
    _coeffs,
)


@settings(max_examples=200, deadline=None)
@given(_terms, _trivial)
def test_constant_and_zero_operands_match_fraction_oracle(ta, c):
    a, ra = PolyField(ta), FractionPolyField(ta)
    for value in (c, 0, 1, Fraction(0)):
        k, rk = PolyField.constant(value), FractionPolyField.constant(value)
        pairs = ((a, k, ra, rk), (k, a, rk, ra), (a, value, ra, rk), (value, a, rk, ra), (k, k, rk, rk))
        for op in (operator.mul, operator.add, operator.sub):
            for left, right, rleft, rright in pairs:
                assert_matches(op(left, right), op(rleft, rright))


@settings(max_examples=200, deadline=None)
@given(_terms, _terms, _terms, _trivial)
def test_exponential_times_polynomial_keeps_its_weight(tw, ta, tb, c):
    weight, amplitude, b = PolyField(tw), PolyField(ta), PolyField(tb)
    ramplitude, rb, rc = FractionPolyField(ta), FractionPolyField(tb), FractionPolyField.constant(c)
    lift = ExpPolyField(weight, amplitude)
    for product, rfactor in (
        (lift * b, rb),
        (b * lift, rb),
        (lift * c, rc),
        (c * lift, rc),
        (lift * PolyField.constant(c), rc),
    ):
        ref = ramplitude * rfactor
        if weight.is_zero or ref.is_zero:
            assert type(product) is PolyField
            assert_matches(product, ref)
        else:
            assert type(product) is ExpPolyField
            assert product.weight == weight
            assert_canonical(product.weight)
            assert_matches(product.amplitude, ref)
    # the weights of a lift and an unlift cancel to a plain PolyField
    unlift = ExpPolyField(-weight, 1)
    for cancelled in ((lift * b) * unlift, unlift * (b * lift), unlift * lift):
        assert type(cancelled) is PolyField
    assert_matches((lift * b) * unlift, ramplitude * rb)
    assert_matches(unlift * lift, ramplitude)


@settings(max_examples=200, deadline=None)
@given(_terms, _axes)
def test_substitute_zero_matches_fraction_oracle(ta, axis):
    a, ra = PolyField(ta), FractionPolyField(ta)
    expected = ra.substitute(axis, 0)
    for zero in (0, Fraction(0), "0", False):
        assert_matches(a.substitute(axis, zero), expected)
        assert_matches(a.substitute("xyzt"[axis], zero), expected)
    assert_matches(a.substitute(axis, True), ra.substitute(axis, 1))


@pytest.mark.parametrize(
    "axis, value, error, message",
    [
        (4, 0.0, ValueError, "axis index out of range: 4"),  # the axis is checked first
        (0, 0.0, TypeError, "exact scalar expected (int, Fraction or str), got float"),
        (0, None, TypeError, "exact scalar expected (int, Fraction or str), got NoneType"),
    ],
)
def test_substitute_of_a_zero_that_is_not_exact_raises(axis, value, error, message):
    a = PolyField({(1, 0, 0, 1): 2, (0, 0, 0, 0): 1})
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        a.substitute(axis, value)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.booleans()))
def test_int_constant_equals_its_fraction_constant(n):
    k, kf = PolyField.constant(n), PolyField.constant(Fraction(n))
    assert_canonical(k)
    assert (k.num, k.den) == (kf.num, kf.den)
    assert k == kf and hash(k) == hash(kf) == hash(Fraction(n))
    assert_matches(k, FractionPolyField.constant(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 6), st.integers(1, 8))
def test_random_poly_matches_the_fraction_built_oracle(seed, max_degree, max_terms):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        field = random_poly(rng, max_degree=max_degree, max_terms=max_terms)
        ref = random_reference.random_poly(ref_rng, max_degree=max_degree, max_terms=max_terms)
        assert_canonical(field)
        assert_canonical(ref)
        assert field.terms == ref.terms  # canonical, so the same (num, den)
        assert rng.getstate() == ref_rng.getstate()
    for zero_ok in (True, False):
        assert random_fraction(rng, zero_ok) == random_reference.random_fraction(ref_rng, zero_ok)
        assert rng.getstate() == ref_rng.getstate()


# small ranges, and ranges on both sides of each power of two up to 2**20:
# n = 1 still draws a bit, and n = 2**j draws j + 1 bits, so about half the
# draws are redrawn
_draw_ranges = sorted({1, 2, 3, 4, 5, 9} | {2**j + d for j in range(1, 21) for d in (-1, 0, 1)})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64), st.permutations(_draw_ranges))
def test_draw_rule_matches_randrange(seed, ranges):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for n in ranges * 3:
        assert _below(rng, n) == ref_rng.randrange(n)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("max_degree, max_terms", [(3, 0), (-1, 4), (-2, 4)])
def test_random_poly_rejects_an_empty_draw_range(max_degree, max_terms):
    # the draw rule does not check its range, so an empty one would never return
    with pytest.raises(ValueError, match="empty draw range"):
        random_poly(random.Random(0), max_degree=max_degree, max_terms=max_terms)


# the stdlib draws that would bypass the one draw rule of verification.py
_STDLIB_DRAWS = {"randint", "randrange", "choice", "sample", "shuffle"}


def _stdlib_draws(source: str) -> list:
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _STDLIB_DRAWS
    )


def test_verification_draws_ints_only_through_the_draw_rule():
    source = Path(verification.__file__).read_text(encoding="utf-8")
    assert _stdlib_draws(source) == []
    leaky = (
        "rng.randint(1, 4)\n"
        "_below(rng, 4)\n"
        "random.Random(0).randrange(3)\n"
        "rng.choice([0, 2])\n"
        "rng.sample(range(3), 2)\n"
        "rng.random()\n"
    )
    assert _stdlib_draws(leaky) == [1, 3, 4, 5]


# exponents on both sides of half the limit and just below the limit, so
# sums of two land on both sides of it
_near_limit = st.one_of(
    st.integers(0, 2),
    st.integers(MAX_EXPONENT // 2 - 2, MAX_EXPONENT // 2 + 2),
    st.integers(MAX_EXPONENT - 2, MAX_EXPONENT),
)
_high_terms = st.dictionaries(st.tuples(*[_near_limit] * 4), _small.filter(bool), max_size=4)
_small_values = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


def _tops(ref):
    return [max((e[i] for e in ref.terms), default=0) for i in range(4)]


@settings(max_examples=200, deadline=None)
@given(_high_terms, _high_terms, _axes, _small_values)
def test_operations_near_the_exponent_limit_match_fraction_oracle(ta, tb, axis, s):
    a, b = PolyField(ta), PolyField(tb)
    ra, rb = FractionPolyField(ta), FractionPolyField(tb)
    assert_matches(a, ra)
    # the top exponent along an axis adds under products of nonzero fields
    if not ra.is_zero and not rb.is_zero and any(p + q > MAX_EXPONENT for p, q in zip(_tops(ra), _tops(rb))):
        with pytest.raises(OverflowError):
            a * b
    else:
        assert_matches(a * b, ra * rb)
    if _tops(ra)[axis] == MAX_EXPONENT:
        with pytest.raises(OverflowError):
            a.integrate(axis)
    else:
        assert_matches(a.integrate(axis), ra.integrate(axis))
    assert_matches(a.diff(axis), ra.diff(axis))
    # a value to the power 32767 has too many digits to print
    partial = a.substitute(axis, s)
    assert_canonical(partial)
    assert partial.terms == ra.substitute(axis, s).terms


# signed_sum terms as drawn: (sign, terms of a, b), where b is None (the part
# is a), an axis (the part is a's derivative) or the terms of a second field
# (the part is the product); the coefficients have different denominators
_signs = st.sampled_from((1, -1))
_sum_terms = st.lists(st.tuples(_signs, _terms, st.one_of(st.none(), _axes, _terms)), max_size=5)


def _kernel_terms(drawn, lift=None):
    """The ``signed_sum`` terms of drawn triples and the oracle's pairwise sum of their parts.

    With ``lift`` (a nonzero weight) each ``a`` becomes ``ExpPolyField(lift, a)``
    and the oracle sums the amplitudes: e^w a, d(e^w a) = e^w (a dw + da), e^w a b.
    """
    terms, total = [], FractionPolyField()
    rw = None if lift is None else FractionPolyField(lift.terms)
    for sign, ta, tb in drawn:
        a, ra = PolyField(ta), FractionPolyField(ta)
        if tb is None:
            b, part = None, ra
        elif isinstance(tb, int):
            b, part = tb, ra.diff(tb) + (ra * rw.diff(tb) if rw is not None else 0)
        else:
            b, part = PolyField(tb), ra * FractionPolyField(tb)
        terms.append((sign, a if lift is None else ExpPolyField(lift, a), b))
        total = total + part if sign > 0 else total - part
    return terms, total


@settings(max_examples=200, deadline=None)
@given(_sum_terms)
def test_signed_sum_matches_the_pairwise_fraction_oracle(drawn):
    terms, ref = _kernel_terms(drawn)
    assert_matches(signed_sum(terms), ref)
    # every term against its negation: the sum cancels to the canonical zero
    cancelled = signed_sum(terms + [(-sign, a, b) for sign, a, b in terms])
    assert_matches(cancelled, FractionPolyField())
    assert (cancelled.num, cancelled.den) == ({}, 1)
    for sign, a, b in terms:
        single, single_ref = _kernel_terms([(sign, a.terms, b if b is None or isinstance(b, int) else b.terms)])
        assert_matches(signed_sum(single), single_ref)
    if terms:
        a = terms[0][1]
        assert signed_sum([(1, a, None)]) is a  # one positive field is the field itself
        assert_matches(signed_sum([(-1, a, None)]), -FractionPolyField(a.terms))


_nonzero = st.builds(PolyField, _terms).filter(bool)


@settings(max_examples=200, deadline=None)
@given(_nonzero, _sum_terms)
def test_signed_sum_of_exponential_fields_folds_through_the_operators(weight, drawn):
    terms, ref = _kernel_terms(drawn, lift=weight)
    total = signed_sum(terms)
    if ref.is_zero:
        assert total == PolyField.zero()
    else:
        assert type(total) is ExpPolyField and total.weight == weight
        assert_matches(total.amplitude, ref)


@settings(max_examples=100, deadline=None)
@given(_nonzero, _nonzero, _nonzero, _nonzero, _signs)
def test_signed_sum_names_mismatched_weights_as_the_operators_do(weight, other, a, b, sign):
    if weight == other:
        other = other + weight
    first, second = ExpPolyField(weight, a), ExpPolyField(other, b)
    for head in ([first], [first, first]):
        with pytest.raises(ValueError) as pairwise:
            total = sum(head[1:], head[0])
            total + second if sign > 0 else total - second
        assert str(pairwise.value).startswith("cannot add exponential fields with different weights: ")
        with pytest.raises(ValueError, match=f"^{re.escape(str(pairwise.value))}$"):
            signed_sum([(1, field, None) for field in head] + [(sign, second, None)])


@settings(max_examples=200, deadline=None)
@given(_high_terms, _high_terms, _high_terms, _signs)
def test_signed_sum_raises_for_an_overflowed_product_that_cancels(ta, tb, tc, sign):
    a, b, c = PolyField(ta), PolyField(tb), PolyField(tc)
    ra, rb, rc = FractionPolyField(ta), FractionPolyField(tb), FractionPolyField(tc)
    terms = [(sign, a, b), (1, c, None), (-sign, a, b)]
    if not ra.is_zero and not rb.is_zero and any(p + q > MAX_EXPONENT for p, q in zip(_tops(ra), _tops(rb))):
        with pytest.raises(OverflowError, match=f"^product: exponent above {MAX_EXPONENT}$"):
            signed_sum(terms)
    else:
        assert_matches(signed_sum(terms), rc)


def test_signed_sum_of_no_terms_is_zero():
    assert (signed_sum([]).num, signed_sum([]).den) == ({}, 1)
