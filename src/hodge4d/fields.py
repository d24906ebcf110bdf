"""Exact scalar coefficient fields on the four space-time coordinates.

A polynomial keeps integer numerators over one positive common denominator,
in lowest terms, so every algebraic identity in the package is checked by
literal equality instead of floating tolerances while the inner loops of the
arithmetic run on plain ints.  ``ExpPolyField`` adds a single exponential
weight factor ``exp(p)`` with a polynomial exponent; it is closed under
differentiation and under the products that arise in exponentially fitted
fluxes.  ``_exp`` builds every ``ExpPolyField`` and owns its one rule: a
zero weight or a zero amplitude gives the plain ``PolyField`` amplitude.
Scalars go through ``exact_scalar`` and integer arguments (axes, exponents,
powers) through ``operator.index``, so floats are rejected, never rounded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_

AXES = ("x", "y", "z", "t")
X, Y, Z, T = range(4)
_AXIS_BY_NAME = {name: idx for idx, name in enumerate(AXES)}

# A monomial x^a y^b z^c t^d is one int key with 16 bits per axis: x at bit
# 0, y at 16, z at 32, t at 48.  Products of monomials add keys.  The top bit
# of each field is a guard: exponents stop at 2**15 - 1, so a sum of two
# valid exponents cannot carry into the next field, and any sum past the
# limit sets a guard bit instead of wrapping.
MAX_EXPONENT = 2**15 - 1
_GUARD = 0x8000_8000_8000_8000
_SHIFT = {0: 0, 1: 16, 2: 32, 3: 48, "x": 0, "y": 16, "z": 32, "t": 48}


def axis_index(axis) -> int:
    """Accept an axis given either as an index 0..3 or a name 'x'|'y'|'z'|'t'."""
    if isinstance(axis, str):
        try:
            return _AXIS_BY_NAME[axis]
        except KeyError:
            raise ValueError(f"unknown axis {axis!r}") from None
    axis = index(axis)
    if not 0 <= axis <= 3:
        raise ValueError(f"axis index out of range: {axis}")
    return axis


def _shift(axis) -> int:
    """Bit offset of one axis's exponent in a monomial key."""
    shift = _SHIFT.get(axis) if type(axis) in (int, str) else None  # 1.0 would find the key of 1
    return 16 * axis_index(axis) if shift is None else shift  # raises the messages of axis_index


def _pack(exps) -> int:
    """Key of one exponent 4-sequence; ``ValueError`` outside 0..MAX_EXPONENT."""
    e0, e1, e2, e3 = exps
    if (e0 | e1 | e2 | e3) & ~MAX_EXPONENT:  # also catches negative exponents
        raise ValueError(f"bad exponent tuple {tuple(exps)!r}: exponents lie in 0..{MAX_EXPONENT}")
    return e0 | e1 << 16 | e2 << 32 | e3 << 48


def _exponents(key: int) -> tuple:
    return (key & MAX_EXPONENT, key >> 16 & MAX_EXPONENT, key >> 32 & MAX_EXPONENT, key >> 48)


def _check_exponents(num: dict, operation: str) -> None:
    """Raise if any key of a raw result has an exponent past the limit.

    Runs before ``_field`` drops zero numerators, so a term that overflowed
    cannot vanish silently.
    """
    if reduce(or_, num, 0) & _GUARD:
        raise OverflowError(f"{operation}: exponent above {MAX_EXPONENT}")


def exact_scalar(value) -> Fraction:
    """The exact layer's one scalar rule: an int, ``Fraction`` or str as a ``Fraction``.

    Floats are rejected on purpose (``TypeError``): this layer is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(
        f"exact scalar expected (int, Fraction or str), got {type(value).__name__}"
    )


def _field(num: dict, den: int) -> "PolyField":
    """Trusted constructor for arithmetic results.

    ``num`` maps valid monomial keys to ints and ``den`` is a positive int;
    only zero numerators are dropped and the gcd is divided out.
    """
    if 0 in num.values():
        num = {k: c for k, c in num.items() if c}
    return _lowest(num, den)


def _lowest(num: dict, den: int) -> "PolyField":
    """``_field`` for numerators known to be nonzero: only the gcd is divided out."""
    if den != 1:
        if not num:
            return _make(num, 1)
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return _make(num, den)


def _make(num: dict, den: int) -> "PolyField":
    """``_lowest`` for a ``(num, den)`` already in lowest terms: only allocates."""
    field = object.__new__(PolyField)
    field.num = num
    field.den = den
    return field


def _sum(a: "PolyField", b: "PolyField", sign: int) -> "PolyField":
    """``a + sign * b`` for ``sign`` 1 or -1: ``signed_sum`` of two fields, without building its terms."""
    den, oden = a.den, b.den
    g = gcd(den, oden)
    scale, oscale = oden // g, sign * (den // g)
    num = dict(a.num) if scale == 1 else {k: c * scale for k, c in a.num.items()}
    get = num.get
    for k, c in b.num.items():
        num[k] = get(k, 0) + c * oscale
    return _field(num, den * scale)


def signed_sum(terms):
    """``sign * part`` summed over the ``(sign, a, b)`` terms of a sequence, in one pass.

    ``sign`` is 1 or -1 and ``a`` is a field; the part is ``a`` itself when
    ``b`` is None, ``a.diff(b)`` when ``b`` is an axis and ``a * b`` when
    ``b`` is a field.  Polynomial parts accumulate into one dict over the
    lcm of their denominators, and the products' exponent guard runs before
    zero numerators are dropped, so a product past the limit raises
    ``OverflowError`` even when it cancels.  With an ``ExpPolyField`` among
    the operands the parts fold left to right through ``+`` and ``-``, whose
    ``ValueError`` names mismatched weights.  No terms give zero.  One term
    and two plain fields, the first positive, skip the common denominator:
    they are the field itself, its negation or ``_sum``.
    """
    if len(terms) == 1:
        sign, a, b = terms[0]
        if b is None:
            return a if sign > 0 else -a
        if sign > 0:
            return _part(a, b)
    elif len(terms) == 2:
        (sign, a, b), (other_sign, c, d) = terms
        if sign > 0 and b is None is d and a.__class__ is PolyField is c.__class__:
            return _sum(a, c, other_sign)
    den = 1
    for _, a, b in terms:
        if a.__class__ is not PolyField or b.__class__ is ExpPolyField:
            return _fold(terms)
        d = a.den * b.den if b.__class__ is PolyField else a.den
        if den % d:
            den = lcm(den, d)
    num = {}
    get = num.get
    product = False
    for sign, a, b in terms:
        if b.__class__ is PolyField:  # a constant factor keeps the other's keys
            scale = sign * (den // (a.den * b.den))
            if len(b.num) == 1 and 0 in b.num:
                b, scale = None, scale * b.num[0]
            elif len(a.num) == 1 and 0 in a.num:
                a, b, scale = b, None, scale * a.num[0]
        else:
            scale = sign * (den // a.den)
        if b is None:
            if num:
                for k, c in a.num.items():
                    num[k] = get(k, 0) + c * scale
            else:  # the first part is copied in one step
                num = dict(a.num) if scale == 1 else {k: c * scale for k, c in a.num.items()}
                get = num.get
        elif b.__class__ is PolyField:
            product = True
            b_items = b.num.items()
            for ka, ca in a.num.items():
                ca *= scale
                for kb, cb in b_items:
                    k = ka + kb
                    num[k] = get(k, 0) + ca * cb
        else:  # lowering one exponent keeps the monomials of one part apart
            shift = _shift(b)
            unit = 1 << shift
            for k, c in a.num.items():
                if e := k >> shift & MAX_EXPONENT:
                    k -= unit
                    num[k] = get(k, 0) + c * e * scale
    if product:
        _check_exponents(num, "product")
    return _field(num, den)


def _part(a, b):
    """The part of one ``signed_sum`` term, by the fields' own operations."""
    if b is None:
        return a
    return a * b if isinstance(b, (PolyField, ExpPolyField)) else a.diff(b)


def _fold(terms):
    """``signed_sum`` through the fields' own ``+``, ``-`` and unary ``-``, left to right."""
    total = None
    for sign, a, b in terms:
        if b is not None:
            a = _part(a, b)
        if total is None:
            total = a if sign > 0 else -a
        else:
            total = total + a if sign > 0 else total - a
    return total


def _scaled(field: "PolyField", constant: "PolyField") -> "PolyField":
    """``field * constant`` for a nonzero constant: the keys do not change."""
    c, d = constant.num[0], constant.den
    if c == d:  # the unit: both are 1 in lowest terms
        return field
    return _lowest({k: a * c for k, a in field.num.items()}, field.den * d)


def _exp(weight: "PolyField", amplitude: "PolyField"):
    """The one constructor of ``ExpPolyField``, for trusted polynomial parts.

    A zero weight or a zero amplitude gives the plain ``PolyField``
    amplitude, so every ``ExpPolyField`` has a nonzero weight and a
    nonzero amplitude.
    """
    if weight.is_zero or amplitude.is_zero:
        return amplitude
    field = object.__new__(ExpPolyField)
    field.weight = weight
    field.amplitude = amplitude
    return field


class PolyField:
    """Polynomial in (x, y, z, t) with exact rational coefficients.

    ``num`` maps monomial keys to nonzero int numerators over the one
    positive denominator ``den``, with ``gcd(den, *num.values()) == 1`` (so
    the zero field has ``den == 1``): equal polynomials have equal
    ``(num, den)``.  A key packs the four exponents of a monomial into one
    int, 16 bits per axis, and only this module reads it; exponents are at
    most ``MAX_EXPONENT`` (32767), and an operation whose result would pass
    it raises instead of wrapping.  ``terms`` gives the coefficients as
    exponent 4-tuples -> ``Fraction``.  The constructor validates its input;
    ``from_numerators`` and arithmetic results are trusted.  Instances are
    immutable by convention: no operation mutates a value, so a result may
    be one of its operands (``p * 1``, or ``p.substitute(axis, 0)`` on a
    ``p`` free of that axis) and values can be shared freely, across
    threads too.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        coeffs = {}
        for exps, coeff in (terms or {}).items():
            coeff = exact_scalar(coeff)
            if coeff == 0:
                continue
            exps = tuple(map(index, exps))
            if len(exps) != 4:
                raise ValueError(f"bad exponent tuple {exps!r}")
            coeffs[_pack(exps)] = coeff
        # reduced coefficients over their lcm are already in lowest terms
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.num = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_numerators(cls, terms, den: int) -> "PolyField":
        """Trusted constructor: ``(exponents, numerator)`` pairs over ``den``.

        ``exponents`` are 4-sequences of ints, numerators are ints (repeated
        exponents are summed) and ``den`` is a positive int.  Only the
        exponent range is checked; zero numerators are dropped and the
        result is brought to lowest terms.
        """
        num = {}
        for exps, c in terms:
            key = _pack(exps)
            num[key] = num.get(key, 0) + c
        return _field(num, den)

    @classmethod
    def zero(cls) -> "PolyField":
        return _make({}, 1)

    @classmethod
    def one(cls) -> "PolyField":
        return _make({0: 1}, 1)

    @classmethod
    def constant(cls, value) -> "PolyField":
        value = exact_scalar(value)  # a Fraction is in lowest terms over a positive denominator
        return _make({0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, axis) -> "PolyField":
        return _make({1 << _shift(axis): 1}, 1)

    @classmethod
    def coerce(cls, value) -> "PolyField":
        if isinstance(value, PolyField):
            return value
        return cls.constant(value)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh dict: exponent tuple -> ``Fraction``."""
        den = self.den
        return {_exponents(k): Fraction(c, den) for k, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def depends_on(self, axis) -> bool:
        shift = _shift(axis)
        return any(k >> shift & MAX_EXPONENT for k in self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyField):
            if isinstance(other, ExpPolyField):
                return NotImplemented
            other = PolyField.constant(other)
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -c for k, c in self.num.items()}, self.den)  # negation keeps the gcd 1

    def __sub__(self, other):
        if not isinstance(other, PolyField):
            if isinstance(other, ExpPolyField):
                return NotImplemented
            other = PolyField.constant(other)
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return _sum(PolyField.constant(other), self, -1)

    def __mul__(self, other):
        if not isinstance(other, PolyField):
            if isinstance(other, ExpPolyField):
                return NotImplemented
            other = PolyField.constant(other)
        snum, onum = self.num, other.num
        if len(onum) == 1 and 0 in onum:
            return _scaled(self, other)
        if len(snum) == 1 and 0 in snum:
            return _scaled(other, self)
        num = {}
        get = num.get
        onum = onum.items()
        for ka, ca in snum.items():
            for kb, cb in onum:
                k = ka + kb
                num[k] = get(k, 0) + ca * cb
        _check_exponents(num, "product")
        return _field(num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = index(n)
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        out = PolyField.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square past the last bit: it could overflow needlessly
                base = base * base
        return out

    # -- calculus ------------------------------------------------------------

    def diff(self, axis) -> "PolyField":
        shift = _shift(axis)
        unit = 1 << shift
        num = {}
        for k, c in self.num.items():
            e = k >> shift & MAX_EXPONENT
            if e:  # lowering one exponent maps distinct monomials apart
                num[k - unit] = c * e
        return _lowest(num, self.den)

    def integrate(self, axis) -> "PolyField":
        """Antiderivative along one axis with zero integration constant."""
        shift = _shift(axis)
        unit = 1 << shift
        scale = lcm(*((k >> shift & MAX_EXPONENT) + 1 for k in self.num))
        num = {k + unit: c * (scale // ((k >> shift & MAX_EXPONENT) + 1)) for k, c in self.num.items()}
        _check_exponents(num, "integral")
        return _lowest(num, self.den * scale)

    def substitute(self, axis, value) -> "PolyField":
        """Partially evaluate one coordinate at an exact rational value."""
        shift = _shift(axis)
        if type(value) is int and not value:  # keep the terms free of the axis
            mask = MAX_EXPONENT << shift
            num = {k: c for k, c in self.num.items() if not k & mask}
            return self if len(num) == len(self.num) else _lowest(num, self.den)
        clear = ~(MAX_EXPONENT << shift)
        value = exact_scalar(value)
        p, q = value.numerator, value.denominator
        top = max((k >> shift & MAX_EXPONENT for k in self.num), default=0)
        num = {}
        for k, c in self.num.items():
            e = k >> shift & MAX_EXPONENT
            new = k & clear
            num[new] = num.get(new, 0) + c * p**e * q ** (top - e)
        return _field(num, self.den * q**top)

    def evaluate(self, x, y, z, t) -> Fraction:
        point = tuple(exact_scalar(v) for v in (x, y, z, t))
        total = 0
        for k, c in self.num.items():
            term = c
            for v, e in zip(point, _exponents(k)):
                if e:
                    term *= v**e
            total += term
        return Fraction(total, self.den)

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, PolyField):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == PolyField.constant(other)
        return NotImplemented

    def __hash__(self):
        num = self.num
        if num.keys() <= {0}:  # a constant hashes like its Fraction
            return hash(Fraction(num.get(0, 0), self.den))
        return hash((self.den, frozenset(num.items())))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"PolyField({self})"

    def __str__(self):
        num, den = self.num, self.den
        if not num:
            return "0"
        parts = []
        for _, exps, c in sorted((sum(e), e, c) for e, c in zip(map(_exponents, num), num.values())):
            g = gcd(c, den)
            coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
            factors = []
            for name, e in zip(AXES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(coeff)
            elif coeff == "1":
                parts.append(mono)
            elif coeff == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


class ExpPolyField:
    """Field of the shape ``exp(weight) * amplitude`` with polynomial parts.

    The constructor and every operation build their result through
    ``_exp``, so an instance never has a zero weight and never equals a
    polynomial.  Differentiation stays inside the class: d(e^p q) = e^p
    (q dp + dq).  Addition is defined only between values sharing the same
    weight (a zero value fits any weight), which is all the
    exponential-fitting computations ever need; products add weights.
    """

    __slots__ = ("weight", "amplitude")
    is_zero = False

    def __new__(cls, weight, amplitude):
        return _exp(PolyField.coerce(weight), PolyField.coerce(amplitude))

    def __reduce__(self):  # copy, deepcopy and pickle go through the constructor
        return ExpPolyField, (self.weight, self.amplitude)

    def to_poly(self):
        """Never a polynomial: raises ``ValueError`` naming the weight."""
        raise ValueError(f"nonzero exponential weight: exp({self.weight})")

    def diff(self, axis):
        amplitude = self.amplitude
        return _exp(self.weight, signed_sum(((1, amplitude, self.weight.diff(axis)), (1, amplitude, axis))))

    def substitute(self, axis, value):
        return _exp(self.weight.substitute(axis, value), self.amplitude.substitute(axis, value))

    def __add__(self, other):
        return _exp_sum(self, other, 1)

    def __radd__(self, other):
        return _exp_sum(other, self, 1)

    def __neg__(self):
        return _exp(self.weight, -self.amplitude)

    def __sub__(self, other):
        return _exp_sum(self, other, -1)

    def __rsub__(self, other):
        return _exp_sum(other, self, -1)

    def __mul__(self, other):
        if isinstance(other, ExpPolyField):
            return _exp(self.weight + other.weight, self.amplitude * other.amplitude)
        return _exp(self.weight, self.amplitude * other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ExpPolyField):
            return self.weight == other.weight and self.amplitude == other.amplitude
        return NotImplemented

    def __hash__(self):
        return hash((self.weight, self.amplitude))

    def __repr__(self):
        return f"ExpPolyField(exp({self.weight}) * ({self.amplitude}))"

    __str__ = __repr__


def _exp_sum(a, b, sign: int):
    """``a + sign * b`` for ``sign`` 1 or -1, where ``a`` or ``b`` is an ``ExpPolyField``.

    A non-exponential operand has weight zero.  The weights must agree
    unless one amplitude is zero; a mismatch names ``a``'s weight first.
    """
    (aw, aa), (bw, ba) = _pair(a), _pair(b)
    if aa.is_zero:
        aw = bw
    elif not (ba.is_zero or aw == bw):
        raise ValueError(f"cannot add exponential fields with different weights: exp({aw}) vs exp({bw})")
    return _exp(aw, _sum(aa, ba, sign))


def _pair(value) -> tuple:
    """``(weight, amplitude)`` of an operand; any other than a field goes through ``exact_scalar``."""
    if isinstance(value, ExpPolyField):
        return value.weight, value.amplitude
    return PolyField.zero(), PolyField.coerce(value)


def coerce_field(value):
    """A coefficient field from outside input: scalars become a ``PolyField``, fields pass through."""
    if isinstance(value, (PolyField, ExpPolyField)):
        return value
    return PolyField.constant(value)
