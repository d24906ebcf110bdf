"""The ``Fraction``-dict polynomial that the integer-numerator ``PolyField`` replaced.

It is kept as a test oracle: every coefficient is a ``Fraction`` in one dict
``terms``, every result goes through the validating constructor, and no
common denominator is kept.  It uses nothing from ``hodge4d.fields`` except
the axis names and ``axis_index``.
"""

from fractions import Fraction

from hodge4d.fields import AXES, axis_index


def _scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(
        f"exact scalar expected (int, Fraction or str), got {type(value).__name__}"
    )


class FractionPolyField:
    """Polynomial in (x, y, z, t): exponent 4-tuples -> nonzero Fractions."""

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

    @classmethod
    def constant(cls, value) -> "FractionPolyField":
        return cls({(0, 0, 0, 0): _scalar(value)})

    @classmethod
    def one(cls) -> "FractionPolyField":
        return cls.constant(1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, FractionPolyField):
            other = FractionPolyField.constant(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return FractionPolyField(terms)

    __radd__ = __add__

    def __neg__(self):
        return FractionPolyField({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FractionPolyField):
            other = FractionPolyField.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPolyField):
            other = FractionPolyField.constant(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                terms[exps] = terms.get(exps, Fraction(0)) + ca * cb
        return FractionPolyField(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        out = FractionPolyField.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, axis) -> "FractionPolyField":
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
        return FractionPolyField(terms)

    def integrate(self, axis) -> "FractionPolyField":
        idx = axis_index(axis)
        terms = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            new[idx] = exps[idx] + 1
            terms[tuple(new)] = coeff / (exps[idx] + 1)
        return FractionPolyField(terms)

    def substitute(self, axis, value) -> "FractionPolyField":
        idx = axis_index(axis)
        value = _scalar(value)
        terms = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            new[idx] = 0
            new = tuple(new)
            terms[new] = terms.get(new, Fraction(0)) + coeff * value ** exps[idx]
        return FractionPolyField(terms)

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

    def __eq__(self, other):
        if isinstance(other, FractionPolyField):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == FractionPolyField.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
