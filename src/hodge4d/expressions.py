"""Expression front end for problem data given as text.

Configuration files and ``ProblemConfig`` constructors take coefficients,
data and manufactured solutions as expressions in ``x`` and ``t``.  sympy's
parser runs ``eval`` on its input, so the text is first checked against an
``ast`` whitelist: the names ``x``, ``t`` and ``pi``, int and float literals,
``+ - * / **``, unary minus (and plus), and one-argument calls of the
functions in ``FUNCTIONS``.  Anything else is rejected before sympy sees it.

sympy is imported on first use, so importing this module stays cheap.
"""

from __future__ import annotations

import ast

NAMES = frozenset({"x", "t", "pi"})
FUNCTIONS = frozenset({"sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "Abs"})
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    """An expression that is malformed or uses something outside the whitelist."""


def _check(node: ast.AST, text: str) -> None:
    if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
        _check(node.left, text)
        _check(node.right, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _check(node.operand, text)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        pass
    elif isinstance(node, ast.Name) and node.id in NAMES:
        pass
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        _check(node.args[0], text)
    else:
        raise ExpressionError(
            f"{ast.unparse(node)!r} is not allowed in expression {text!r}; use x, t, pi, "
            f"numbers, + - * / ** and {', '.join(sorted(FUNCTIONS))}"
        )


def parse_expression(text):
    """Parse a whitelisted expression in x and t into a sympy expression.

    ``text`` is a string, or an int or float taken as a constant.  Raises
    ``ExpressionError`` for text that does not parse or does not pass the
    whitelist; nothing in the text is evaluated in that case.
    """
    import sympy

    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return sympy.sympify(text)
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from None
    _check(tree.body, text)
    x, t = sympy.symbols("x t")
    try:
        return sympy.sympify(text.strip(), locals={"x": x, "t": t, "pi": sympy.pi})
    except (sympy.SympifyError, TypeError, ValueError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
