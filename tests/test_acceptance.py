"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; every check is exact unless the criterion states a tolerance.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hodge4d import vectorcalc as vc
from hodge4d.convdiff import (
    NoPotentialError,
    build_convection_form,
    emergent_constraint,
    exp_fitted_flux,
    expand_componentwise,
    flux,
    make_potential,
)
from hodge4d.fields import PolyField
from hodge4d.forms import (
    MaterialParams,
    basis_forms,
    exterior_derivative,
    hodge_star,
    KForm,
    scaled_hodge_star,
    spatial_form,
    wedge,
)
from hodge4d.solver import (
    DiscreteField,
    Grid1p1,
    ProblemConfig,
    Scheme,
    assemble,
    discrete_bilinear,
    epsilon_sweep,
    l2_error,
    solve,
)
from hodge4d.tables import star_table_checks
from hodge4d.verification import (
    random_fraction,
    random_kform,
    random_material,
    random_poly,
)


def criterion(name, budget_seconds):
    """Decorator: wrap a criterion body with timing and a pass/fail line."""

    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"\nACCEPTANCE {name}: FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.2f}s"

        return run

    return wrap


def test_c01_hodge_star_tables():
    @criterion("01 hodge-star-tables", 1.0)
    def body():
        checks = star_table_checks(MaterialParams(alpha=Fraction(2), epsilon=Fraction(5, 3)))
        assert len(checks) == 32
        bad = [c.name for c in checks if not c.passed]
        assert not bad, bad

    body()


def test_c02_double_star_scaling():
    @criterion("02 double-star-scaling", 1.0)
    def body():
        rng = random.Random(2)
        for _ in range(5):
            alpha = abs(random_fraction(rng, zero_ok=False))
            epsilon = abs(random_fraction(rng, zero_ok=False))
            m = MaterialParams(alpha=alpha, epsilon=epsilon)
            for degree in range(5):
                for basis in basis_forms(degree):
                    w = KForm(degree, {basis: 1})
                    out = hodge_star(scaled_hodge_star(w, m))
                    if (degree * (4 - degree)) % 2:
                        out = -out
                    factor = epsilon if basis.contains_dt else alpha
                    assert out == w.scale(factor), basis.label

    body()


def test_c03_algebraic_identities():
    @criterion("03 algebraic-identities", 10.0)
    def body():
        rng = random.Random(3)
        for degree in range(4):
            for _ in range(200):
                w = random_kform(rng, degree)
                assert exterior_derivative(exterior_derivative(w)).is_zero
        for da in range(5):
            for db in range(5 - da):
                for _ in range(25):
                    a = random_kform(rng, da, max_degree=2)
                    b = random_kform(rng, db, max_degree=2)
                    left = exterior_derivative(wedge(a, b))
                    right = wedge(exterior_derivative(a), b)
                    second = wedge(a, exterior_derivative(b))
                    if da % 2:
                        second = -second
                    assert left == right + second
                    ba = wedge(b, a)
                    if (da * db) % 2:
                        ba = -ba
                    assert wedge(a, b) == ba

    body()


def test_c04_unified_operator_expansion():
    @criterion("04 unified-operator-expansion", 30.0)
    def body():
        rng = random.Random(4)
        # scalar case against the classical equation, random cubic data
        for _ in range(25):
            m = random_material(rng)
            u = random_poly(rng, max_degree=3)
            report = expand_componentwise(0, u, m)
            assert report.matches, report.failures()
        # every cell of the three vector-valued tables
        for degree in (1, 2, 3):
            for _ in range(12):
                m = random_material(rng)
                fields = (
                    tuple(random_poly(rng, max_degree=3) for _ in range(3))
                    if degree in (1, 2)
                    else random_poly(rng, max_degree=3)
                )
                report = expand_componentwise(degree, fields, m)
                assert report.matches, report.failures()

    body()


def test_c05_emergent_constraints():
    @criterion("05 emergent-constraints", 10.0)
    def body():
        rng = random.Random(5)
        for _ in range(40):
            m = random_material(rng)
            v = tuple(random_poly(rng) for _ in range(3))
            assert emergent_constraint(1, v, m) == -vc.divergence(v)
            assert emergent_constraint(2, v, m) == tuple(-c for c in vc.curl(v))
            u = random_poly(rng)
            assert emergent_constraint(3, u, m) == tuple(-c for c in vc.gradient(u))

    body()


def test_c06_exponential_fitting():
    @criterion("06 exponential-fitting", 10.0)
    def body():
        rng = random.Random(6)
        for degree in range(4):
            for _ in range(100):
                m = random_material(rng, polynomial_beta=False)
                b = build_convection_form(m)
                p = make_potential(b)
                w = random_kform(rng, degree, max_degree=2)
                assert flux(w, b) == exp_fitted_flux(w, p)
        rejected = 0
        for n in range(10):
            i = n % 3
            j = (n + 1) % 3
            beta = [PolyField.zero()] * 3
            beta[i] = PolyField.variable(j) * (n + 1)
            m = MaterialParams(beta=tuple(beta))
            with pytest.raises(NoPotentialError):
                make_potential(build_convection_form(m))
            rejected += 1
        assert rejected == 10

    body()


def test_c07_boundary_reductions():
    @criterion("07 boundary-reductions", 5.0)
    def body():
        from hodge4d.boundary import NormalForm, artificial_bc, boundary_report, wedge_trace
        from hodge4d.forms import spatial_parts, temporal_parts

        rng = random.Random(7)
        m = MaterialParams(alpha=Fraction(2), epsilon=Fraction(1, 3))
        n_fields = tuple(random_poly(rng, max_degree=1) for _ in range(3))
        n = NormalForm.spatial(*n_fields)
        n0 = NormalForm.initial_time(0)

        scalar = random_poly(rng)
        vector = tuple(random_poly(rng) for _ in range(3))

        # spatial reductions: scalar trace, tangential trace, normal trace, none
        out0 = wedge_trace(n, spatial_form(0, scalar))
        assert spatial_parts(out0) == tuple(c * scalar for c in n_fields)
        out1 = wedge_trace(n, spatial_form(1, vector))
        assert spatial_parts(out1) == vc.cross(n_fields, vector)
        out2 = wedge_trace(n, spatial_form(2, vector))
        assert spatial_parts(out2) == vc.dot(n_fields, vector)
        assert wedge_trace(n, spatial_form(3, scalar)).is_zero

        # initial traces recover the data (scalar case lands on -u dt)
        from hodge4d.forms import BasisForm

        dt_basis = BasisForm(0b1000)
        assert wedge_trace(n0, spatial_form(0, scalar)).coefficient(
            dt_basis
        ) == -scalar.substitute("t", 0)
        assert temporal_parts(wedge_trace(n0, spatial_form(1, vector))) == tuple(
            c.substitute("t", 0) for c in vector
        )

        # terminal condition is the scaled time slope, per degree
        for degree in (0, 1, 2, 3):
            fields = scalar if degree in (0, 3) else vector
            out = artificial_bc(spatial_form(degree, fields), m)
            if degree in (0, 3):
                assert spatial_parts(out) == -m.epsilon * vc.time_derivative(fields)
            else:
                assert spatial_parts(out) == tuple(
                    -m.epsilon * vc.time_derivative(c) for c in fields
                )

        # summary boxes, including the inapplicable spatial condition
        rep = boundary_report(3, scalar, scalar.substitute("t", 0), m)
        assert not rep.spatial.applicable and "not applicable" in rep.spatial.description
        for degree, token in ((0, "u = 0"), (1, "n x u"), (2, "u . n")):
            fields = scalar if degree == 0 else vector
            initial = (
                fields.substitute("t", 0)
                if degree == 0
                else tuple(c.substitute("t", 0) for c in fields)
            )
            rep = boundary_report(degree, fields, initial, m)
            assert rep.spatial.applicable and token in rep.spatial.description
            assert rep.initial.satisfied

    body()


def test_c08_solver_manufactured_convergence():
    @criterion("08 manufactured-convergence", 30.0)
    def body():
        cfg = ProblemConfig.from_manufactured(
            "sin(pi*x)*(1+t)", alpha=1.0, beta=0.5, epsilon=0.1, scheme=Scheme.CENTERED
        )
        errors = []
        for cells in (32, 64, 128):
            field = solve(assemble(cfg, Grid1p1.with_cells(cells, cells)))
            errors.append(l2_error(field, cfg.manufactured))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), (errors, orders)

    body()


def test_c09_discrete_maximum_principle():
    @criterion("09 discrete-maximum-principle", 10.0)
    def body():
        def g(x, t):
            return np.where(x >= 1.0, 1.0, 0.0)

        base = dict(alpha=1e-3, beta=1.0, epsilon=1e-3, f=lambda x, t: 0.0, g=g)
        grid = Grid1p1.with_cells(64, 64)
        fitted = solve(assemble(ProblemConfig(**base, scheme=Scheme.EXP_FITTED), grid))
        centered = solve(assemble(ProblemConfig(**base, scheme=Scheme.CENTERED), grid))
        assert fitted.values.min() >= -1e-12, fitted.values.min()
        assert fitted.values.max() <= 1.0 + 1e-12, fitted.values.max()
        overshoot = max(centered.values.max() - 1.0, -centered.values.min())
        assert overshoot > 1e-3, overshoot

    body()


def test_c10_perturbation_decay_slope():
    @criterion("10 perturbation-decay", 60.0)
    def body():
        cfg = ProblemConfig.from_manufactured(
            "sin(pi*x)*(1+t**2)",
            alpha=1.0,
            beta=0.5,
            epsilon=0.1,
            scheme=Scheme.CENTERED,
            target="limit",
        )
        grid = Grid1p1.with_cells(64, 1024)
        result = epsilon_sweep(cfg, grid, [0.1, 0.05, 0.025, 0.0125])
        assert not any(e.at_floor for e in result.entries), result.text_table()
        assert result.slope >= 0.4, result.text_table()

    body()


def test_c11_bilinear_positivity():
    @criterion("11 bilinear-positivity", 10.0)
    def body():
        rng = random.Random(11)
        alpha, beta, eps = 1.0, 0.5, 0.1
        grid = Grid1p1.with_cells(48, 48)
        cfg = ProblemConfig(
            alpha=alpha, beta=beta, epsilon=eps,
            f=lambda x, t: 0.0, g=lambda x, t: 0.0, scheme=Scheme.CENTERED,
        )
        exp_weight = np.exp(
            [[(beta / alpha) * x - t / eps for x in grid.xs] for t in grid.ts]
        )
        for _ in range(50):
            coeffs = [rng.uniform(0.25, 1.0) * rng.choice([-1, 1]) for _ in range(3)]
            modes = [(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)]
            values = np.zeros(grid.shape)
            for c, (mm, p) in zip(coeffs, modes):
                values += c * np.outer(
                    (grid.ts - grid.t0) ** p, np.sin(mm * math.pi * grid.xs)
                )
            u = DiscreteField(grid, values)
            v = DiscreteField(grid, values * exp_weight)
            assert discrete_bilinear(u, v, cfg) > 0.0

    body()
