"""Fixed expected images of the plain and scaled star on all basis forms.

The rows are stated in display notation (cyclic two- and three-form labels
included) and the verification layer translates to the canonical internal
basis, so a sign slip in either direction cannot cancel.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .forms import (
    KForm,
    MaterialParams,
    basis_forms,
    hodge_star,
    parse_basis_label,
    scaled_hodge_star,
)

# (input label, output sign, output label, scaling coefficient name)
STAR_TABLE = (
    ("1", 1, "dx^dy^dz^dt", "alpha"),
    ("dx", 1, "dy^dz^dt", "alpha"),
    ("dy", 1, "dz^dx^dt", "alpha"),
    ("dz", 1, "dx^dy^dt", "alpha"),
    ("dt", -1, "dx^dy^dz", "epsilon"),
    ("dy^dz", 1, "dx^dt", "alpha"),
    ("dz^dx", 1, "dy^dt", "alpha"),
    ("dx^dy", 1, "dz^dt", "alpha"),
    ("dx^dt", 1, "dy^dz", "epsilon"),
    ("dy^dt", 1, "dz^dx", "epsilon"),
    ("dz^dt", 1, "dx^dy", "epsilon"),
    ("dx^dy^dz", 1, "dt", "alpha"),
    ("dy^dz^dt", -1, "dx", "epsilon"),
    ("dz^dx^dt", -1, "dy", "epsilon"),
    ("dx^dy^dt", -1, "dz", "epsilon"),
    ("dx^dy^dz^dt", 1, "1", "epsilon"),
)


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail", "note")

    def __init__(self, name: str, passed: bool, detail: str = "", note: bool = False):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.note = note  # informational entries never fail a run


def _equality_check(name: str, actual, expected) -> CheckResult:
    passed = actual == expected
    return CheckResult(name, passed, "" if passed else f"got {actual!r}, expected {expected!r}")


def _display_form(label: str, scale=1) -> KForm:
    basis, sign = parse_basis_label(label)
    return KForm(basis.degree, {basis: Fraction(sign) * Fraction(scale)})


def star_table_checks(m: MaterialParams, rows=STAR_TABLE) -> list:
    """Check every star and scaled-star entry exactly; one result per cell."""
    results = []
    for in_label, out_sign, out_label, scale_name in rows:
        w = _display_form(in_label)
        expected_plain = _display_form(out_label, out_sign)
        actual_plain = hodge_star(w)
        results.append(_equality_check(f"star[{in_label}]", actual_plain, expected_plain))
        scale = m.alpha if scale_name == "alpha" else m.epsilon
        expected_scaled = _display_form(out_label, Fraction(out_sign) * scale)
        actual_scaled = scaled_hodge_star(w, m)
        results.append(_equality_check(f"scaled-star[{in_label}]", actual_scaled, expected_scaled))
    return results


def double_star_checks(m: MaterialParams) -> list:
    """(-1)^(k(4-k)) star(scaled_star w) must reduce to alpha*w or epsilon*w."""
    results = []
    for degree in range(5):
        for basis in basis_forms(degree):
            w = KForm(degree, {basis: 1})
            sign = -1 if (degree * (4 - degree)) % 2 else 1
            value = hodge_star(scaled_hodge_star(w, m))
            if sign < 0:
                value = -value
            factor = m.epsilon if basis.contains_dt else m.alpha
            expected = w.scale(factor)
            name = f"double-star[{basis.label}][alpha={m.alpha},eps={m.epsilon}]"
            results.append(_equality_check(name, value, expected))
    return results
