import ast
import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodge4d.expressions import FUNCTIONS, ExpressionError, numpy_function, parse_expression
from hodge4d.solver import ProblemConfig, manufactured_forcing

XS, TS = np.meshgrid(np.linspace(0.05, 0.95, 9), np.linspace(0.05, 0.95, 7))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("sin(pi*x)*(1+t**2)", np.sin(np.pi * XS) * (1 + TS**2)),
        ("-x/2 + 1e-3", -XS / 2 + 1e-3),
        ("+Abs(x - 1/2)", np.abs(XS - 0.5)),
        ("sqrt(exp(t)) * log(1 + x) - tanh(t)", np.sqrt(np.exp(TS)) * np.log(1 + XS) - np.tanh(TS)),
        (0.5, np.full(XS.shape, 0.5)),
    ],
)
def test_whitelisted_expressions_parse(text, expected):
    values = numpy_function(parse_expression(text), "x", "t")(XS, TS)
    np.testing.assert_allclose(np.broadcast_to(values, XS.shape), expected, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        'x.__class__',
        '__import__("os").system("true")',
        "E**x",
        "x[0]",
        "lambda: 1",
        "sin(x, t)",
        "log(x, base=2)",
        "'x'",
        "x if t else 1",
        "x ^ 2",
        "1j*x",
        "True",
        "x+",
        "",
    ],
)
def test_expressions_outside_the_whitelist_are_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


def test_coefficients_may_depend_on_x_only():
    with pytest.raises(ExpressionError, match="x only"):
        ProblemConfig.from_manufactured("x*t", alpha="1 + t", epsilon=0.1)
    cfg = ProblemConfig.from_expressions("x", "t", alpha="2", beta="x", epsilon=0.1)
    assert cfg.alpha == 2.0 and cfg.beta(0.25) == 0.25
    assert math.isclose(cfg.g(0.0, 0.5), 0.5)


# -- the engine against sympy's diff + lambdify --------------------------------------

# pi is a symbol set to its float, as the engine has it: sympy's exact sin(pi) = 0 would make
# 1/sin(pi) infinite, and lambdify prints sympy floats to 15 digits only
_X, _T, _PI = sympy.symbols("x t pi", real=True)
_SYMPY = {"x": _X, "t": _T, "pi": _PI, **{name: getattr(sympy, name) for name in FUNCTIONS}}
_NUMBERS = st.sampled_from(["1", "2", "3", "0.5", "1.5", "pi"])


def _sympy_values(expr):
    """``expr`` at the sample points; NaN throughout where sympy finds it infinite or undefined."""
    if expr.has(sympy.zoo, sympy.nan, sympy.oo, -sympy.oo):
        return np.full(XS.shape, np.nan)
    return np.broadcast_to(sympy.lambdify((_X, _T, _PI), expr, "numpy")(XS, TS, np.pi), XS.shape)


_NUMPY = {"Abs": np.abs, "sign": np.sign, **{name: getattr(np, name) for name in FUNCTIONS - {"Abs"}}}
_SLOPES = {  # |f'(a)| up to sign, the factor by which each function amplifies its argument's rounding
    "sin": np.cos, "cos": np.sin, "tan": lambda a: 1.0 + np.tan(a) ** 2, "exp": np.exp, "log": lambda a: 1.0 / a,
    "sqrt": lambda a: 0.5 / np.sqrt(a), "sinh": np.cosh, "cosh": np.sinh, "tanh": lambda a: 1.0 - np.tanh(a) ** 2,
    "Abs": lambda a: 1.0, "sign": lambda a: 0.0,
}
_POINTS = {"x": XS, "t": TS, "pi": np.pi}


def _magnitude(node):
    """(value, size) of an engine tree at the sample points.

    The size sums the magnitudes of the terms the engine adds, so it stays
    large where they cancel, and carries each operand's rounding through the
    factor by which an operation amplifies it: sums and differences add their
    operands' sizes, a product ab is |b| size_a + |a| size_b (first order,
    so one factor's amplified rounding does not compound with the other's),
    a quotient a/b is size_a/|b| + |a/b**2| size_b, a call f(a) is |f(a)| +
    |f'(a)| size_a and a power a**b is |a**b| + |b a**(b-1)| size_a +
    |a**b log|a|| size_b; leaves count at their own magnitude.  Where an
    operation amplifies without bound (sqrt at 0) the size is infinite.
    """
    if isinstance(node, ast.Constant):
        value = np.float64(node.value)
    elif isinstance(node, ast.Name):
        value = _POINTS[node.id]
    elif isinstance(node, ast.UnaryOp):
        value, size = _magnitude(node.operand)
        return (-value if isinstance(node.op, ast.USub) else value), size
    elif isinstance(node, ast.Call):
        a, size_a = _magnitude(node.args[0])
        value = _NUMPY[node.func.id](a)
        return value, np.abs(value) + np.abs(_SLOPES[node.func.id](a)) * size_a
    else:
        (a, size_a), (b, size_b) = _magnitude(node.left), _magnitude(node.right)
        kind = type(node.op)
        if kind in (ast.Add, ast.Sub):
            return (a + b if kind is ast.Add else a - b), size_a + size_b
        if kind is ast.Mult:
            return a * b, np.abs(b) * size_a + np.abs(a) * size_b
        if kind is ast.Div:
            return a / b, size_a / np.abs(b) + np.abs(a / b**2) * size_b
        value = a**b
        # a**b log|a| is zero where a**b is, though log|a| is not finite there
        exponent = np.abs(np.where(value == 0.0, 0.0, value * np.log(np.abs(a))))
        return value, np.abs(value) + np.abs(b * a ** (b - 1.0)) * size_a + exponent * size_b
    return value, np.abs(value)


def _trees(leaves):
    """Whitelisted expression text over ``leaves``, a few operations deep."""

    def extend(inner):
        return st.one_of(
            st.builds("-({})".format, inner),
            st.builds("{}({})".format, st.sampled_from(sorted(FUNCTIONS)), inner),
            st.builds("({}) {} ({})".format, inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner),
            st.builds("({})**{}".format, inner, st.sampled_from(["2", "3", "-1", "0.5"])),
        )

    return st.recursive(st.one_of(leaves, _NUMBERS), extend, max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(
    u=_trees(st.sampled_from(["x", "t"])),
    alpha=_trees(st.just("x")),
    beta=_trees(st.just("x")),
    target=st.sampled_from(["spacetime", "limit"]),
)
@example(u="Abs(x - 0.3)*t**2", alpha="1 + x", beta="x", target="spacetime")
@example(u="(x) / (x)", alpha="(x)**-1", beta="x", target="spacetime")  # sympy drops x/x's cancelling terms
# at x = 0.95, t = 0.05 the argument of cos is 1.1e7, and the two evaluations differ by 2e-7 of the
# forcing's terms: the error model carries the rounding that the power and cos amplify
@example(u="cos((cosh(1.5)) ** ((x) / (t)))", alpha="x", beta="x", target="spacetime")
def test_forcing_matches_the_sympy_oracle(u, alpha, beta, target):
    eps = 0.3
    config = ProblemConfig.from_manufactured(u, alpha=alpha, beta=beta, epsilon=eps, target=target)
    u_e, a_e, b_e = (sympy.sympify(text, locals=_SYMPY) for text in (u, alpha, beta))
    terms = [u_e.diff(_T), -(a_e * u_e.diff(_X)).diff(_X), -(b_e * u_e).diff(_X)]
    if target == "spacetime":
        terms.append(-sympy.Float(eps) * u_e.diff(_T, 2))
    # sign(a), the derivative of Abs(a), differentiates to a delta at the kink, which is
    # excluded; sympy leaves some of those derivatives unevaluated
    terms = [
        term.replace(sympy.DiracDelta, lambda *args: sympy.S.Zero).replace(
            lambda e: isinstance(e, sympy.Derivative) and isinstance(e.expr, sympy.sign), lambda e: sympy.S.Zero
        )
        for term in terms
    ]
    with np.errstate(all="ignore"):
        parts = [_sympy_values(term) for term in terms]
        want = sum(parts)
        got = np.broadcast_to(config.f(XS, TS), XS.shape)
        forcing, _ = manufactured_forcing(*(parse_expression(e) for e in (u, alpha, beta)), eps, target)
        engine_size = np.broadcast_to(_magnitude(forcing)[1], XS.shape)
        near_kink = np.zeros(XS.shape, dtype=bool)
        for kink in (a.args[0] for e in (u_e, a_e, b_e) for a in e.atoms(sympy.Abs)):
            near_kink |= ~(np.abs(_sympy_values(kink)) > 1e-9)
    # where the engine's size is not finite, an operation amplifies rounding without bound
    compared = np.isfinite(got) & np.isfinite(want) & np.isfinite(engine_size) & ~near_kink
    # rounding differs between the two; relative to the size of the terms each one sums
    scale = np.max((sum(np.abs(p) for p in parts) + engine_size)[compared], initial=1.0)
    assert np.all(np.abs(got[compared] - want[compared]) <= 1e-12 * scale), (u, alpha, beta, target)
