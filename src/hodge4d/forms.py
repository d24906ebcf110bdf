"""Exact exterior algebra on the 4D space-time (x, y, z, t).

Conventions used throughout the package:

* Basis forms are encoded as 4-bit masks over the axes, bit i set when the
  differential of axis i is present.  The canonical internal ordering is
  ascending x < y < z < t; any other wedge order is normalized to canonical
  order with an explicit permutation sign.  In particular the cyclic basis
  element dz^dx used by display tables is stored as dx^dz with a negated
  coefficient; ``parse_basis_label`` performs the translation.
* The metric is Euclidean with signature (+,+,+,+).  The star of a basis
  form dx^I is sign(I, I_complement) * dx^{I_complement}, the sign being the
  parity of the permutation (I, I_complement) of (x, y, z, t).
* The scaled star multiplies the plain star by the spatial diffusion
  coefficient when the input basis form excludes dt, and by the temporal
  perturbation coefficient when it includes dt.
* The interior product with the terminal-time normal strips a trailing dt
  (which is always the final slot in canonical order) with a plus sign and
  annihilates dt-free basis forms.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from operator import index
from typing import Optional

from ._record import FrozenRecord
from .fields import AXES, PolyField, T, coerce_field, exact_scalar, signed_sum

FULL_MASK = 0b1111
T_BIT = 1 << T


class DegreeUnderflowWarning(UserWarning):
    """Codifferential applied below 0-forms; the result is taken to be zero."""


class BasisForm:
    """One of the sixteen wedge-product basis elements, as an axis bitmask.

    ``BasisForm(mask)`` returns one of sixteen shared, immutable instances,
    so equality and hashing are identity; copies and unpickled values are
    the shared instance too.
    """

    __slots__ = ("mask",)

    def __new__(cls, mask):
        if not 0 <= mask <= FULL_MASK:
            raise ValueError(f"mask out of range: {mask}")
        return _BASIS[mask]  # a non-int mask such as 2.0 raises TypeError here

    def __setattr__(self, name, value):
        raise AttributeError(f"BasisForm is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"BasisForm is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy, deepcopy and pickle go through BasisForm(mask)
        return BasisForm, (self.mask,)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def axes(self) -> tuple:
        return tuple(i for i in range(4) if self.mask >> i & 1)

    @property
    def contains_dt(self) -> bool:
        return bool(self.mask & T_BIT)

    @property
    def label(self) -> str:
        if self.mask == 0:
            return "1"
        return "^".join(f"d{AXES[i]}" for i in self.axes)

    @classmethod
    def from_axes(cls, axes) -> tuple:
        """Normalize an ordered axis sequence; returns (form, sign).

        The sign is the permutation parity relative to ascending order, or 0
        when an axis repeats (in which case the form is None).
        """
        seen = 0
        sign = 1
        for a in axes:
            sign *= merge_sign(seen, 1 << a)
            if not sign:
                return None, 0
            seen |= 1 << a
        return cls(seen), sign

    def __repr__(self):
        return f"BasisForm({self.label})"


def _basis_instance(mask: int) -> BasisForm:
    basis = object.__new__(BasisForm)
    object.__setattr__(basis, "mask", mask)
    return basis


# the sixteen shared instances, indexed by mask
_BASIS = tuple(_basis_instance(mask) for mask in range(FULL_MASK + 1))


# the shared instances of each degree 0..4, in increasing mask order
_BY_DEGREE = {d: tuple(basis for basis in _BASIS if basis.degree == d) for d in range(5)}


def basis_forms(degree: int) -> list:
    """All basis forms of one degree, in increasing mask order, as a fresh list."""
    return list(_BY_DEGREE.get(degree, ()))


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Permutation sign of wedging two canonical masks; 0 if they intersect."""
    if mask_a & mask_b:
        return 0
    inversions = 0
    for b in range(4):
        if mask_b >> b & 1:
            inversions += (mask_a >> (b + 1)).bit_count()
    return -1 if inversions % 2 else 1


# _SIGN[a][b] == merge_sign(a, b), read by the form operations' inner loops;
# the star's sign for mask a is _SIGN[a][a ^ FULL_MASK]
_SIGN = tuple(tuple(merge_sign(a, b) for b in range(FULL_MASK + 1)) for a in range(FULL_MASK + 1))


def _signed(sign: int, coeff):
    return coeff if sign > 0 else -coeff


class KForm:
    """A differential form of fixed degree with exact coefficient fields.

    ``components`` maps ``BasisForm`` keys of matching degree to nonzero
    coefficient fields, as ``coerce_field`` gives them; a missing component
    means zero, and any other key type raises ``TypeError``.  Degrees
    above four are permitted only for the explicit zero result of degree
    overflow (for example a wedge of two forms whose degrees sum past four)
    and those forms never carry components.
    """

    __slots__ = ("degree", "components")

    def __init__(self, degree: int, components=None):
        degree = index(degree)
        if degree < 0:
            raise ValueError(f"negative form degree: {degree}")
        clean = {}
        for basis, coeff in (components or {}).items():
            if not isinstance(basis, BasisForm):
                raise TypeError(f"form components are keyed by BasisForm, got {basis!r}")
            coeff = coerce_field(coeff)
            if coeff.is_zero:
                continue
            if basis.degree != degree:
                raise ValueError(
                    f"component {basis.label} has degree {basis.degree}, expected {degree}"
                )
            clean[basis] = coeff
        self.degree = degree
        self.components = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "KForm":
        return cls(degree, {})

    @classmethod
    def from_scalar(cls, value) -> "KForm":
        return _form(0, ((0, 1, coerce_field(value), None),))

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    def coefficient(self, basis: BasisForm):
        return self.components.get(basis, PolyField.zero())

    def items(self):
        return self.components.items()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return _combination(((1, self), (1, other)))

    def __neg__(self):
        return _form(self.degree, [(b.mask, -1, c, None) for b, c in self.items()])

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return _combination(((1, self), (-1, other)))

    def scale(self, factor) -> "KForm":
        """Multiply every coefficient by a scalar or coefficient field."""
        factor = coerce_field(factor)
        return _form(self.degree, [(b.mask, 1, factor * c, None) for b, c in self.items()])

    def map_coefficients(self, fn) -> "KForm":
        return _form(self.degree, ((b.mask, 1, coerce_field(fn(c)), None) for b, c in self.items()))

    def substitute_t(self, value) -> "KForm":
        """Restrict symbolically to a constant-time hyperplane t = value."""
        return self.map_coefficients(lambda c: c.substitute(T, value))

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.degree == other.degree and self.components == other.components

    def __hash__(self):
        return hash((self.degree, frozenset(self.components.items())))

    def __repr__(self):
        if self.is_zero:
            return f"KForm<{self.degree}>(0)"
        parts = [
            f"({coeff})*{basis.label}" if basis.mask else f"({coeff})"
            for basis, coeff in sorted(self.components.items(), key=lambda kv: kv[0].mask)
        ]
        return f"KForm<{self.degree}>(" + " + ".join(parts) + ")"


def _form(degree: int, images) -> KForm:
    """Trusted constructor for operation results.

    ``images`` yields ``(mask, sign, a, b)`` with masks of the right degree:
    the image is the ``signed_sum`` term ``(sign, a, b)`` on that basis, its
    fields results of field operations or passed through ``coerce_field``.
    Each basis's terms are summed by one ``signed_sum``, in the order they
    come (a lone field term is taken or negated without the call), and zero
    sums are dropped.
    """
    groups = {}  # a lone term as itself, two or more in a list
    for mask, sign, a, b in images:
        terms = groups.get(mask)
        if terms is None:
            groups[mask] = (sign, a, b)
        elif terms.__class__ is list:
            terms.append((sign, a, b))
        else:
            groups[mask] = [terms, (sign, a, b)]
    comps = {}
    for mask, terms in groups.items():
        if terms.__class__ is list:
            coeff = signed_sum(terms)
        elif terms[2] is None:
            coeff = terms[1] if terms[0] > 0 else -terms[1]
        else:
            coeff = signed_sum((terms,))
        if not coeff.is_zero:
            comps[_BASIS[mask]] = coeff
    form = object.__new__(KForm)
    form.degree = degree
    form.components = comps
    return form


def _combination(signed_forms) -> KForm:
    """The sum of ``sign * form`` over a sequence of ``(sign, form)`` pairs, forms of one degree."""
    degree = signed_forms[0][1].degree
    for _, form in signed_forms:
        if form.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {form.degree}")
    return _form(degree, [(b.mask, sign, c, None) for sign, form in signed_forms for b, c in form.items()])


def sum_forms(first: KForm, *rest: KForm) -> KForm:
    """The sum of forms of one degree, each output coefficient in one pass."""
    return _combination([(1, form) for form in (first, *rest)])


def one_form(x, y, z, t) -> KForm:
    """The 1-form x dx + y dy + z dz + t dt, from scalars or coefficient fields."""
    return _form(1, ((1 << i, 1, coerce_field(c), None) for i, c in enumerate((x, y, z, t))))


class MaterialParams(FrozenRecord):
    """Diffusion and convection data: alpha, epsilon and the spatial field.

    ``alpha`` and ``epsilon`` are exact positive rationals (ints, ``Fraction``s
    or strs such as ``"3/2"``; floats raise ``TypeError``).  ``alpha_field``
    optionally switches on a spatially varying diffusion coefficient; it is
    applied as a polynomial product outside the star operator and is accepted
    only by the operations documented to support it.
    """

    __slots__ = ("alpha", "epsilon", "beta", "alpha_field")

    def __init__(
        self,
        alpha: Fraction = Fraction(1),
        epsilon: Fraction = Fraction(1),
        beta: tuple = (PolyField.zero(), PolyField.zero(), PolyField.zero()),
        alpha_field: Optional[PolyField] = None,
    ):
        alpha = exact_scalar(alpha)
        epsilon = exact_scalar(epsilon)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        beta = tuple(PolyField.coerce(b) for b in beta)
        if len(beta) != 3:
            raise ValueError("beta must have three components")
        if alpha_field is not None and not isinstance(alpha_field, PolyField):
            alpha_field = PolyField.coerce(alpha_field)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha_field", alpha_field)

    @property
    def spatial_diffusion(self):
        """The diffusion coefficient as used by the scaled star."""
        return self.alpha_field if self.alpha_field is not None else self.alpha


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-anticommutative product; the zero form above degree four."""
    b_items = [(bb.mask, cb) for bb, cb in b.items()]
    images = []
    for ba, ca in a.items():
        mask_a = ba.mask
        signs = _SIGN[mask_a]
        for mask_b, cb in b_items:
            if sign := signs[mask_b]:
                images.append((mask_a | mask_b, sign, ca, cb))
    return _form(a.degree + b.degree, images)


def exterior_derivative(w: KForm) -> KForm:
    """Degree-raising derivative; satisfies d(d(w)) = 0 exactly."""
    images = []
    for basis, coeff in w.items():
        mask = basis.mask
        for axis in range(4):
            bit = 1 << axis
            if not mask & bit:
                images.append((mask | bit, _SIGN[bit][mask], coeff, axis))
    return _form(w.degree + 1, images)


def _star(w: KForm, sign: int, factors=None) -> KForm:
    """``sign`` times the star of ``w``; ``factors`` = (dt-free, dt) fields weight each coefficient first."""
    if w.degree > 4:
        raise ValueError(f"no star for degree {w.degree}")
    if type(sign) is not int or sign not in (1, -1):  # a float or bool sign is refused too
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    images = []
    for basis, coeff in w.items():
        mask = basis.mask
        complement = mask ^ FULL_MASK
        # mask >> T is 1 exactly when dt is present
        images.append((complement, sign * _SIGN[mask][complement], coeff, factors[mask >> T] if factors else None))
    return _form(4 - w.degree, images)


def hodge_star(w: KForm, sign: int = 1) -> KForm:
    """Euclidean star mapping degree k to degree 4 - k, times ``sign`` (1 or -1)."""
    return _star(w, sign)


def scaled_hodge_star(w: KForm, m: MaterialParams, sign: int = 1) -> KForm:
    """Star weighted by alpha on dt-free inputs and by epsilon otherwise, times ``sign`` (1 or -1)."""
    return _star(w, sign, (coerce_field(m.spatial_diffusion), PolyField.constant(m.epsilon)))


def _codifferential_out_of_range(w: KForm) -> Optional[KForm]:
    """The zero result of a codifferential of a 0-form or above degree four, else None.

    A 0-form warns (pointing at the codifferential's caller).  Forms above
    degree four are always zero, so their codifferential is the zero 4-form.
    """
    if w.degree == 0:
        warnings.warn(
            "codifferential below 0-forms is identically zero",
            DegreeUnderflowWarning,
            stacklevel=3,
        )
        return KForm.zero(0)
    if w.degree > 4:
        return KForm.zero(4)
    return None


def codifferential_1a(w: KForm, m: MaterialParams) -> KForm:
    """Weighted codifferential, literally -(star (d (scaled_star w)))."""
    if (zero := _codifferential_out_of_range(w)) is not None:
        return zero
    return hodge_star(exterior_derivative(scaled_hodge_star(w, m)), -1)


def codifferential_a1(w: KForm, m: MaterialParams) -> KForm:
    """Weighted codifferential with the stars swapped: -(scaled_star (d (star w)))."""
    if (zero := _codifferential_out_of_range(w)) is not None:
        return zero
    return scaled_hodge_star(exterior_derivative(hodge_star(w)), m, -1)


def interior_product_dt(w: KForm) -> KForm:
    """Contraction with the terminal-time normal: strip a trailing dt.

    In canonical ascending order dt always occupies the final wedge slot, so
    the strip carries a plus sign; dt-free components are annihilated.  Note
    that with this convention the contraction is an antiderivation only up to
    the sign (-1)^s, s the number of spatial differentials.
    """
    if w.degree == 0:
        return KForm.zero(0)
    return _form(w.degree - 1, ((b.mask ^ T_BIT, 1, c, None) for b, c in w.items() if b.mask & T_BIT))


# ---------------------------------------------------------------------------
# classical-field representation and display ordering
# ---------------------------------------------------------------------------

DISPLAY_LABELS = {
    0: ("1",),
    1: ("dx", "dy", "dz", "dt"),
    2: ("dy^dz", "dz^dx", "dx^dy", "dx^dt", "dy^dt", "dz^dt"),
    3: ("dx^dy^dz", "dy^dz^dt", "dz^dx^dt", "dx^dy^dt"),
    4: ("dx^dy^dz^dt",),
}


def parse_basis_label(label: str) -> tuple:
    """Translate a display label such as 'dz^dx' to (BasisForm, sign)."""
    if label == "1":
        return BasisForm(0), 1
    axes = []
    for token in label.split("^"):
        if len(token) != 2 or token[0] != "d" or token[1] not in AXES:
            raise ValueError(f"bad basis label {label!r}")
        axes.append(AXES.index(token[1]))
    basis, sign = BasisForm.from_axes(axes)
    if basis is None:
        raise ValueError(f"repeated differential in {label!r}")
    return basis, sign


# (label, basis, sign) per degree, in display order; the sign carries the
# translation of cyclic labels such as dz^dx to the canonical basis.
_DISPLAY_ROWS = {
    degree: tuple((label, *parse_basis_label(label)) for label in labels)
    for degree, labels in DISPLAY_LABELS.items()
}


def _display_block(degree: int, with_dt: bool, degrees: range) -> list:
    """(basis, sign) of the display rows of one degree with or without dt."""
    if degree not in degrees:
        raise ValueError(f"degree out of range: {degree}")
    rows = _DISPLAY_ROWS[degree]
    return [(basis, sign) for _, basis, sign in rows if basis.contains_dt == with_dt]


def _read_block(w: KForm, block: list):
    """Coefficients of ``w`` on a display block: a scalar for one row, else a tuple."""
    values = tuple(_signed(sign, w.coefficient(basis)) for basis, sign in block)
    return values[0] if len(values) == 1 else values


def display_components(w: KForm) -> list:
    """Coefficients of a form in display-basis order, with translated signs."""
    return [
        (label, _signed(sign, w.coefficient(basis)))
        for label, basis, sign in _DISPLAY_ROWS[w.degree]
    ]


def spatial_form(degree: int, fields) -> KForm:
    """Build a solution-style form: classical fields on the dt-free basis.

    Scalars populate degree 0 and 3, ordered triples populate degrees 1 and 2
    (the middle 2-form component sits on the cyclic element dz^dx), and the
    degree-4 form is identically zero.
    """
    block = _display_block(degree, False, range(5))
    if not block:
        return KForm.zero(degree)
    if len(block) == 1:
        fields = (fields,)
    pairs = zip(block, fields, strict=True)
    return _form(degree, ((basis.mask, sign, coerce_field(f), None) for (basis, sign), f in pairs))


def spatial_parts(w: KForm):
    """Inverse of ``spatial_form``: read the dt-free block classically."""
    return _read_block(w, _display_block(w.degree, False, range(4)))


def temporal_parts(w: KForm):
    """The dt-involving block of a form, read in display order.

    Degree 1 yields the scalar dt coefficient; degree 2 the coefficients on
    dx^dt, dy^dt, dz^dt; degree 3 those on dy^dz^dt, dz^dx^dt, dx^dy^dt.
    """
    return _read_block(w, _display_block(w.degree, True, range(1, 4)))
