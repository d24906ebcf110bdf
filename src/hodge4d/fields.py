"""Exact scalar coefficient fields on the four space-time coordinates.

Polynomials carry ``Fraction`` coefficients so that every algebraic identity
in the package is checked by literal equality instead of floating tolerances.
``ExpPolyField`` adds a single exponential weight factor ``exp(p)`` with a
polynomial exponent; it is closed under differentiation and under the
products that arise in exponentially fitted fluxes.
"""

from __future__ import annotations

from fractions import Fraction

AXES = ("x", "y", "z", "t")
X, Y, Z, T = range(4)
_AXIS_BY_NAME = {name: idx for idx, name in enumerate(AXES)}


def axis_index(axis) -> int:
    """Accept an axis given either as an index 0..3 or a name 'x'|'y'|'z'|'t'."""
    if isinstance(axis, str):
        try:
            return _AXIS_BY_NAME[axis]
        except KeyError:
            raise ValueError(f"unknown axis {axis!r}") from None
    axis = int(axis)
    if not 0 <= axis <= 3:
        raise ValueError(f"axis index out of range: {axis}")
    return axis


def _scalar(value) -> Fraction:
    # Floats are rejected on purpose: this layer is exact.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(
        f"exact scalar expected (int, Fraction or str), got {type(value).__name__}"
    )


class PolyField:
    """Polynomial in (x, y, z, t) with exact rational coefficients.

    ``terms`` maps exponent 4-tuples to nonzero Fractions.  Instances are
    immutable by convention; every operation returns a fresh object, so
    values can be shared freely across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = _scalar(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != 4 or min(exps) < 0:
                raise ValueError(f"bad exponent tuple {exps!r}")
            clean[exps] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PolyField":
        return cls()

    @classmethod
    def one(cls) -> "PolyField":
        return cls.constant(1)

    @classmethod
    def constant(cls, value) -> "PolyField":
        return cls({(0, 0, 0, 0): _scalar(value)})

    @classmethod
    def variable(cls, axis) -> "PolyField":
        exps = [0, 0, 0, 0]
        exps[axis_index(axis)] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def coerce(cls, value) -> "PolyField":
        if isinstance(value, PolyField):
            return value
        return cls.constant(value)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def depends_on(self, axis) -> bool:
        idx = axis_index(axis)
        return any(e[idx] > 0 for e in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, ExpPolyField):
            return NotImplemented
        if not isinstance(other, PolyField):
            try:
                other = PolyField.constant(other)
            except TypeError:
                return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return PolyField(terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyField({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, (PolyField, ExpPolyField)) else -PolyField.constant(other))

    def __rsub__(self, other):
        return PolyField.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, ExpPolyField):
            return NotImplemented
        if not isinstance(other, PolyField):
            try:
                other = PolyField.constant(other)
            except TypeError:
                return NotImplemented
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                terms[exps] = terms.get(exps, Fraction(0)) + ca * cb
        return PolyField(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        out = PolyField.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus ------------------------------------------------------------

    def diff(self, axis) -> "PolyField":
        idx = axis_index(axis)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            new = tuple(new)
            terms[new] = terms.get(new, Fraction(0)) + coeff * e
        return PolyField(terms)

    def integrate(self, axis) -> "PolyField":
        """Antiderivative along one axis with zero integration constant."""
        idx = axis_index(axis)
        terms = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            new[idx] = exps[idx] + 1
            terms[tuple(new)] = coeff / (exps[idx] + 1)
        return PolyField(terms)

    def substitute(self, axis, value) -> "PolyField":
        """Partially evaluate one coordinate at an exact rational value."""
        idx = axis_index(axis)
        value = _scalar(value)
        terms = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            new[idx] = 0
            new = tuple(new)
            terms[new] = terms.get(new, Fraction(0)) + coeff * value ** exps[idx]
        return PolyField(terms)

    def evaluate(self, x, y, z, t) -> Fraction:
        point = tuple(_scalar(v) for v in (x, y, z, t))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(point, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, PolyField):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == PolyField.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"PolyField({self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(AXES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


class ExpPolyField:
    """Field of the shape ``exp(weight) * amplitude`` with polynomial parts.

    Differentiation stays inside the class: d(e^p q) = e^p (q dp + dq).
    Addition is defined only between values sharing the same weight, which is
    all the exponential-fitting computations ever need; products add weights.
    A zero amplitude or zero weight collapses to plain polynomial semantics.
    """

    __slots__ = ("weight", "amplitude")

    def __init__(self, weight, amplitude):
        weight = PolyField.coerce(weight)
        amplitude = PolyField.coerce(amplitude)
        if amplitude.is_zero:
            weight = PolyField.zero()
        self.weight = weight
        self.amplitude = amplitude

    @classmethod
    def coerce(cls, value) -> "ExpPolyField":
        if isinstance(value, ExpPolyField):
            return value
        return cls(PolyField.zero(), PolyField.coerce(value))

    @property
    def is_zero(self) -> bool:
        return self.amplitude.is_zero

    def to_poly(self) -> PolyField:
        if not self.weight.is_zero:
            raise ValueError(f"nonzero exponential weight: exp({self.weight})")
        return self.amplitude

    def diff(self, axis) -> "ExpPolyField":
        return ExpPolyField(
            self.weight,
            self.amplitude * self.weight.diff(axis) + self.amplitude.diff(axis),
        )

    def substitute(self, axis, value) -> "ExpPolyField":
        return ExpPolyField(
            self.weight.substitute(axis, value),
            self.amplitude.substitute(axis, value),
        )

    def __add__(self, other):
        other = ExpPolyField.coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.weight != other.weight:
            raise ValueError(
                "cannot add exponential fields with different weights: "
                f"exp({self.weight}) vs exp({other.weight})"
            )
        return ExpPolyField(self.weight, self.amplitude + other.amplitude)

    __radd__ = __add__

    def __neg__(self):
        return ExpPolyField(self.weight, -self.amplitude)

    def __sub__(self, other):
        return self + (-ExpPolyField.coerce(other))

    def __rsub__(self, other):
        return ExpPolyField.coerce(other) + (-self)

    def __mul__(self, other):
        other = ExpPolyField.coerce(other)
        return ExpPolyField(self.weight + other.weight, self.amplitude * other.amplitude)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ExpPolyField):
            if self.is_zero and other.is_zero:
                return True
            return self.weight == other.weight and self.amplitude == other.amplitude
        if isinstance(other, (PolyField, int, Fraction)):
            if not self.weight.is_zero:
                return False
            return self.amplitude == other
        return NotImplemented

    def __hash__(self):
        return hash((self.weight, self.amplitude))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"ExpPolyField(exp({self.weight}) * ({self.amplitude}))"

    __str__ = __repr__


def coerce_field(value):
    """Coerce scalars to PolyField; pass fields through unchanged."""
    if isinstance(value, (PolyField, ExpPolyField)):
        return value
    return PolyField.constant(value)
