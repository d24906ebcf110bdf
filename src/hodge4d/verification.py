"""Randomized and fixed verification suites over the symbolic layer.

Everything here is deterministic under a fixed seed.  Random polynomial data
uses small rational coefficients so results stay exact and readable; checks
return named results, and a failing check names the precise cell or instance
that mismatched.
"""

from __future__ import annotations

import random
from fractions import Fraction

import hodge4d.vectorcalc as vc  # not "from . import", which asks the package (see hodge4d)
from ._record import Record
from .convdiff import (
    NoPotentialError,
    build_convection_form,
    emergent_constraint,
    exp_fitted_flux,
    expand_componentwise,
    flux,
    make_potential,
    unified_operator,
)
from .fields import PolyField
from .forms import (
    KForm,
    MaterialParams,
    basis_forms,
    exterior_derivative,
    interior_product_dt,
    one_form,
    wedge,
)
from .tables import CheckResult, double_star_checks, star_table_checks


class Report(Record):
    __slots__ = ("checks",)

    def __init__(self, checks=None):
        self.checks = [] if checks is None else checks

    def add(self, name, passed, detail="", note=False):
        self.checks.append(CheckResult(name, bool(passed), detail, note))

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed and not c.note]

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list:
        out = []
        for c in self.checks:
            if c.note:
                out.append(f"NOTE {c.name}: {c.detail}")
            else:
                status = "PASS" if c.passed else "FAIL"
                detail = f": {c.detail}" if c.detail and not c.passed else ""
                out.append(f"{status} {c.name}{detail}")
        n_checked = sum(1 for c in self.checks if not c.note)
        out.append(f"{n_checked - len(self.failures)}/{n_checked} checks passed")
        return out


# ---------------------------------------------------------------------------
# random exact data
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in ``range(n)`` for ``n >= 1``, drawn by CPython's own rule.

    ``randrange``, ``randint`` and ``choice`` draw ``n.bit_length()`` bits
    and redraw while the result is ``>= n``; this is that rule without their
    argument handling, so the values and ``rng.getstate()`` are theirs.  It
    does not check ``n``: for ``n < 1`` it never returns.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_ratio(rng: random.Random, zero_ok=True) -> tuple:
    """Numerator in -4..4 (nonzero unless ``zero_ok``) and denominator in 1..4."""
    num = _below(rng, 9) - 4
    if not zero_ok:
        while num == 0:
            num = _below(rng, 9) - 4
    return num, _below(rng, 4) + 1


def random_fraction(rng: random.Random, zero_ok=True) -> Fraction:
    return Fraction(*_random_ratio(rng, zero_ok))


def random_poly(rng: random.Random, max_degree=3, max_terms=4) -> PolyField:
    """Sum of up to ``max_terms`` monomials with ``random_fraction`` coefficients.

    Each coefficient is kept as an int over 12, the lcm of the denominators
    ``_random_ratio`` draws, and the field is built through the trusted
    ``PolyField.from_numerators``, which checks only the exponent range.
    The axis, numerator and denominator draws are ``_below(rng, 4)``,
    ``_below(rng, 9)`` and ``_below(rng, 4)`` written out: the same bits
    and redraws, without a call per draw.
    """
    if max_terms < 1 or max_degree < 0:
        raise ValueError(f"empty draw range: max_degree={max_degree}, max_terms={max_terms}")
    bits = rng.getrandbits
    terms = []
    for _ in range(_below(rng, max_terms) + 1):
        exps = [0, 0, 0, 0]
        for _ in range(_below(rng, max_degree + 1)):
            axis = bits(3)
            while axis >= 4:
                axis = bits(3)
            exps[axis] += 1
        numerator = bits(4)
        while numerator >= 9:
            numerator = bits(4)
        denominator = bits(3)
        while denominator >= 4:
            denominator = bits(3)
        terms.append((exps, (numerator - 4) * (12 // (denominator + 1))))
    return PolyField.from_numerators(terms, 12)


def random_kform(rng: random.Random, degree: int, max_degree=3) -> KForm:
    comps = {}
    for basis in basis_forms(degree):
        if rng.random() < 0.75:
            comps[basis] = random_poly(rng, max_degree=max_degree)
    return KForm(degree, comps)


def random_material(rng: random.Random, polynomial_beta=True) -> MaterialParams:
    alpha = abs(random_fraction(rng, zero_ok=False))
    epsilon = abs(random_fraction(rng, zero_ok=False))
    if polynomial_beta:
        beta = tuple(random_poly(rng, max_degree=2, max_terms=2) for _ in range(3))
    else:
        beta = tuple(random_fraction(rng) for _ in range(3))
    return MaterialParams(alpha=alpha, epsilon=epsilon, beta=beta)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def _instances(name, count, trial, *args) -> CheckResult:
    """Run ``trial(*args)`` ``count`` times; the check fails at the first trial
    that does not return True, naming it by ``instance #n`` and the suffix it returns."""
    for n in range(count):
        outcome = trial(*args)
        if outcome is not True:
            return CheckResult(name, False, f"instance #{n}{outcome}")
    return CheckResult(name, True, "")


def check_d_after_d(rng, count) -> list:
    def trial(degree):
        ddw = exterior_derivative(exterior_derivative(random_kform(rng, degree)))
        return ddw.is_zero or f": d(d(w)) = {ddw!r}"

    return [_instances(f"d-after-d[k={degree}] x{count}", count, trial, degree) for degree in range(4)]


def check_leibniz(rng, count) -> list:
    def trial(da, db):
        a = random_kform(rng, da, max_degree=2)
        b = random_kform(rng, db, max_degree=2)
        left = exterior_derivative(wedge(a, b))
        right = wedge(exterior_derivative(a), b)
        second = wedge(a, exterior_derivative(b))
        return left == right + (-second if da % 2 else second) or ""

    return [
        _instances(f"graded-leibniz[{da},{db}] x{count}", count, trial, da, db)
        for da in range(5)
        for db in range(5 - da)
    ]


def check_anticommutativity(rng, count) -> list:
    def trial(da, db):
        a = random_kform(rng, da, max_degree=2)
        b = random_kform(rng, db, max_degree=2)
        ab, ba = wedge(a, b), wedge(b, a)
        return ab == (-ba if da * db % 2 else ba) or ""

    return [
        _instances(f"wedge-anticommute[{da},{db}] x{count}", count, trial, da, db)
        for da in range(5)
        for db in range(5 - da)
    ]


def check_interior_product(rng, count) -> list:
    """Contraction against a dt wedge: signed antiderivation on basis forms."""
    n_t = one_form(0, 0, 0, 1)
    bad = ""
    for basis in (b for degree in range(4) for b in basis_forms(degree)):
        w = KForm(basis.degree, {basis: 1})
        lhs = interior_product_dt(wedge(n_t, w))
        if basis.degree >= 1:
            lhs = lhs + wedge(n_t, interior_product_dt(w))
        spatial_count = basis.degree - (1 if basis.contains_dt else 0)
        expected = w if spatial_count % 2 == 0 else -w
        if lhs != expected:
            bad = f"basis {basis.label}"
            break

    def nilpotent():
        twice = interior_product_dt(interior_product_dt(random_kform(rng, _below(rng, 4) + 1)))
        return twice.is_zero or ""

    return [
        CheckResult("interior-product-antiderivation[signed]", not bad, bad),
        _instances(f"interior-product-nilpotent x{count}", count, nilpotent),
    ]


def check_flux_fitting(rng, count) -> list:
    """Exact equality of the plain and exponentially fitted fluxes."""

    def trial(degree):
        m = random_material(rng, polynomial_beta=False)
        b = build_convection_form(m)
        p = make_potential(b)
        w = random_kform(rng, degree, max_degree=2)
        return flux(w, b) == exp_fitted_flux(w, p) or ""

    return [
        _instances(f"flux-exponential-fitting[k={degree}] x{count}", count, trial, degree)
        for degree in range(4)
    ]


def check_potential_negatives(rng, count) -> list:
    """Non-closed convection fields must be rejected by name."""

    def trial():
        i = _below(rng, 3)
        j = [axis for axis in range(3) if axis != i][_below(rng, 2)]
        beta = [PolyField.zero()] * 3
        beta[i] = PolyField.variable(j) * random_fraction(rng, zero_ok=False)
        m = MaterialParams(alpha=1, epsilon=1, beta=tuple(beta))
        try:
            make_potential(build_convection_form(m))
        except NoPotentialError as exc:
            return bool(exc.components) or ": no components named"
        return ": non-closed field accepted"

    return [_instances(f"potential-rejects-nonclosed x{count}", count, trial)]


def check_emergent_constraints(rng, count) -> list:
    def trial(degree):
        m = random_material(rng)
        if degree in (1, 2):
            fields = tuple(random_poly(rng) for _ in range(3))
            expected = -vc.divergence(fields) if degree == 1 else tuple(-c for c in vc.curl(fields))
        else:
            fields = random_poly(rng)
            expected = tuple(-c for c in vc.gradient(fields))
        return emergent_constraint(degree, fields, m) == expected or ""

    return [
        _instances(f"constraint-block[k={degree}] x{count}", count, trial, degree)
        for degree in (1, 2, 3)
    ]


def check_linearity(rng, count) -> list:
    def trial():
        degree = _below(rng, 5)
        m = random_material(rng)
        a, b = random_fraction(rng), random_fraction(rng)
        u = random_kform(rng, degree, max_degree=2)
        v = random_kform(rng, degree, max_degree=2)
        lhs = unified_operator(u.scale(a) + v.scale(b), m)
        rhs = unified_operator(u, m).scale(a) + unified_operator(v, m).scale(b)
        return lhs == rhs or f" (k={degree})"

    return [_instances(f"operator-linearity x{count}", count, trial)]


def check_scalar_expansion(rng, count) -> list:
    """Degree-0 operator against the classical scalar equation, exactly."""

    def trial():
        m = random_material(rng)
        report = expand_componentwise(0, random_poly(rng, max_degree=3), m)
        return report.matches or f": {report.failures()[0]}"

    return [_instances(f"scalar-equation-expansion x{count}", count, trial)]


def run_identities(seed: int, count: int) -> Report:
    """The randomized exact-identity suite; deterministic under the seed."""
    rng = random.Random(seed)
    report = Report()
    report.checks.extend(star_table_checks(MaterialParams(alpha=Fraction(3), epsilon=Fraction(5, 2))))
    for _ in range(5):
        m = random_material(rng)
        report.checks.extend(double_star_checks(m))
    for results in (
        check_d_after_d(rng, count),
        check_leibniz(rng, max(1, count // 10)),
        check_anticommutativity(rng, max(1, count // 10)),
        check_interior_product(rng, count),
        check_flux_fitting(rng, count),
        check_potential_negatives(rng, max(1, count // 10)),
        check_emergent_constraints(rng, max(1, count // 4)),
        check_linearity(rng, max(1, count // 4)),
        check_scalar_expansion(rng, max(1, count // 4)),
    ):
        report.checks.extend(results)

    # constraint values are reported, not judged: a nonzero block is physics
    u = PolyField.variable(0) + PolyField.variable(1)
    value = emergent_constraint(3, u, MaterialParams())
    report.add(
        "constraint-value[k=3][u=x+y]",
        True,
        "gradient block value: (" + ", ".join(str(c) for c in value) + ")",
        note=True,
    )
    u1 = (u, PolyField.zero(), PolyField.zero())
    report.add(
        "constraint-value[k=1][u=(x+y,0,0)]",
        True,
        f"divergence block value: {emergent_constraint(1, u1, MaterialParams())}",
        note=True,
    )
    return report


def run_table_verification(seed: int = 0) -> Report:
    """Fixed star tables plus the full expansion comparison for k = 0..4."""
    rng = random.Random(seed)
    report = Report()
    m_fixed = MaterialParams(alpha=Fraction(2), epsilon=Fraction(3))
    report.checks.extend(star_table_checks(m_fixed))

    m = MaterialParams(
        alpha=Fraction(2),
        epsilon=Fraction(3, 2),
        beta=(
            PolyField.variable(1),
            random_poly(rng, max_degree=2, max_terms=2),
            PolyField.constant(Fraction(1, 2)),
        ),
    )
    for degree in range(5):
        if degree in (0, 3):
            fields = random_poly(rng, max_degree=3)
        elif degree in (1, 2):
            fields = tuple(random_poly(rng, max_degree=3) for _ in range(3))
        else:
            fields = None
        exp_report = expand_componentwise(degree, fields, m)
        if exp_report.matches:
            report.add(f"expansion[k={degree}] all cells", True)
        else:
            for failure in exp_report.failures():
                report.add(failure, False, failure)
    return report
