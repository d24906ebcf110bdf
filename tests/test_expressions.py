import math

import pytest
import sympy

from hodge4d.expressions import ExpressionError, parse_expression
from hodge4d.solver import ProblemConfig

x, t = sympy.symbols("x t")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("sin(pi*x)*(1+t**2)", sympy.sin(sympy.pi * x) * (1 + t**2)),
        ("-x/2 + 1e-3", -x / 2 + sympy.Float(1e-3)),
        ("+Abs(x - 1/2)", sympy.Abs(x - sympy.Rational(1, 2))),
        ("sqrt(exp(t)) * log(1 + x) - tanh(t)", sympy.sqrt(sympy.exp(t)) * sympy.log(1 + x) - sympy.tanh(t)),
        (0.5, sympy.Float(0.5)),
    ],
)
def test_whitelisted_expressions_parse(text, expected):
    assert parse_expression(text) == expected


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
