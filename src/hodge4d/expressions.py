"""Expression engine for problem data given as text.

Coefficients, data and manufactured solutions are expressions in ``x`` and
``t``.  ``parse_expression`` checks the ``ast`` of the text against a
whitelist (the names ``x``, ``t`` and ``pi``, int and float literals,
``+ - * / **``, unary minus and plus, one-argument calls of ``FUNCTIONS``)
and never evaluates it.  The checked tree, with every number a float, is the
one representation of an expression: ``derivative`` differentiates it,
``substitute`` combines trees through a formula, and ``numpy_function``
compiles it for numpy, with float64 constants, so that a constant that
overflows, divides by zero or leaves the reals is inf or nan.
"""

import ast
from contextlib import contextmanager

import numpy as np

NAMES = frozenset({"x", "t", "pi"})
FUNCTIONS = frozenset({"sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "Abs"})
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    """An expression that is malformed or uses something outside the whitelist."""


@contextmanager
def _shallow():
    """Turn the RecursionError of an expression nested too deeply into an ExpressionError."""
    try:
        yield
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None


def _check(node: ast.AST, text: str) -> None:
    """Raise ExpressionError unless ``node`` is whitelisted; turn numbers into floats."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
        _check(node.left, text)
        _check(node.right, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _check(node.operand, text)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(str(node.value))  # an int literal beyond the float range is inf, as 1e400 is
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in FUNCTIONS
            and len(node.args) == 1 and not node.keywords):
        _check(node.args[0], text)
    elif not (isinstance(node, ast.Name) and node.id in NAMES):
        raise ExpressionError(
            f"{ast.unparse(node)!r} is not allowed in expression {text!r}; use x, t, pi, "
            f"numbers, + - * / ** and {', '.join(sorted(FUNCTIONS))}"
        )


def parse_expression(text) -> ast.expr:
    """Parse a whitelisted expression in x and t into its checked tree.

    ``text`` is a string, or an int or float taken as a constant.  Text that
    does not parse, does not pass the whitelist or is nested too deeply for
    Python's recursion limit raises ``ExpressionError``.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return ast.Constant(float(text))
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
    with _shallow():
        try:
            tree = ast.parse(text.strip(), mode="eval").body
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from None
        _check(tree, text)
    return tree


def _is(node: ast.expr, value: float) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _fold(a: ast.expr, op: ast.operator, b: ast.expr) -> ast.expr:
    """The tree of ``a op b``, with additive zeros and multiplicative 0 and 1 folded away."""
    kind = type(op)
    if _is(b, 0) and kind in (ast.Add, ast.Sub) or _is(b, 1) and kind in (ast.Mult, ast.Div, ast.Pow):
        return a  # a + 0, a - 0, a * 1, a / 1, a ** 1
    if _is(a, 0) and kind in (ast.Mult, ast.Div) or _is(b, 0) and kind is ast.Mult:
        return ast.Constant(0.0)  # 0 * b, 0 / b, a * 0
    if _is(a, 0) and kind in (ast.Add, ast.Sub) or _is(a, 1) and kind is ast.Mult:
        return ast.UnaryOp(ast.USub(), b) if kind is ast.Sub else b  # 0 + b, 0 - b, 1 * b
    return ast.BinOp(a, op, b)


def substitute(template, **parts: ast.expr) -> ast.expr:
    """The tree of a formula in names, numbers, calls and ``+ - * / **``, folded, with
    its names replaced by the trees ``parts``; ``template`` is program text or its tree."""
    node = ast.parse(template, mode="eval").body if isinstance(template, str) else template
    if isinstance(node, ast.Name):
        return parts[node.id]
    if isinstance(node, ast.Constant):
        return ast.Constant(float(node.value))
    if isinstance(node, ast.Call):
        return ast.Call(node.func, [substitute(node.args[0], **parts)], [])
    return _fold(substitute(node.left, **parts), node.op, substitute(node.right, **parts))


# d(tree)/d(var) from the operands a, b and their derivatives da, db; sign is d Abs(a)/da
_RULES = {
    ast.UAdd: "da", ast.USub: "0 - da", ast.Add: "da + db", ast.Sub: "da - db",
    ast.Mult: "da*b + a*db", ast.Div: "da/b - a*db/b**2",
    ast.Pow: "a**b*(db*log(a) + b*da/a)", "constant power": "b*a**(b - 1)*da",
    "sin": "cos(a)*da", "cos": "0 - sin(a)*da", "tan": "(1 + tan(a)**2)*da", "exp": "exp(a)*da",
    "log": "da/a", "sqrt": "da/(2*sqrt(a))", "sinh": "cosh(a)*da", "cosh": "sinh(a)*da",
    "tanh": "(1 - tanh(a)**2)*da", "Abs": "sign(a)*da", "sign": "0",
}
_RULES = {key: ast.parse(rule, mode="eval").body for key, rule in _RULES.items()}


def derivative(tree: ast.expr, var: str) -> ast.expr:
    """The tree of d(tree)/d(var), by the sum, product, quotient, power and chain rules."""
    with _shallow():
        return _derivative(tree, var)


def _derivative(tree: ast.expr, var: str) -> ast.expr:
    if isinstance(tree, (ast.Constant, ast.Name)):
        return ast.Constant(float(isinstance(tree, ast.Name) and tree.id == var))
    if isinstance(tree, ast.Call):
        rule, operands = tree.func.id, tree.args
    else:
        rule, operands = type(tree.op), [tree.operand] if isinstance(tree, ast.UnaryOp) else [tree.left, tree.right]
    parts = dict(zip(("a", "b"), operands))
    for name, operand in zip(("da", "db"), operands):  # a loop, not a generator: one frame per level
        parts[name] = _derivative(operand, var)
    if rule is ast.Pow and _is(parts["db"], 0):
        rule = "constant power"
    return substitute(_RULES[rule], **parts)


def numpy_function(tree: ast.expr, *args: str):
    """Compile ``tree`` once into a numpy function of ``args``; its scope has no builtins.

    The function's ``variables`` attribute is the set of names among x and t
    that ``tree`` uses; a name outside ``args`` raises ExpressionError.
    """
    scope = {"__builtins__": {}, "pi": np.float64(np.pi), "Abs": np.abs, "sign": np.sign}
    scope.update((name, getattr(np, name)) for name in FUNCTIONS - {"Abs"})
    names = set()
    at = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}

    def float64(node):  # a located copy of node with each constant a name bound to its float64 value
        if isinstance(node, ast.Constant):
            scope[f"_{len(scope)}"] = np.float64(node.value)
            return ast.Name(f"_{len(scope) - 1}", ast.Load(), **at)
        if isinstance(node, ast.BinOp):
            return ast.BinOp(float64(node.left), node.op, float64(node.right), **at)
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(node.op, float64(node.operand), **at)
        if isinstance(node, ast.Call):
            return ast.Call(ast.Name(node.func.id, ast.Load(), **at), [float64(node.args[0])], [], **at)
        if node.id in ("x", "t"):
            names.add(node.id)
        return ast.Name(node.id, ast.Load(), **at)

    with _shallow():
        body = float64(tree)
        if names - set(args):
            raise ExpressionError(f"{ast.unparse(tree)!r} may depend on {' and '.join(args)} only")
        signature = ast.arguments([], [ast.arg(name, **at) for name in args], None, [], [], None, [])
        function = eval(compile(ast.Expression(ast.Lambda(signature, body, **at)), "<expression>", "eval"), scope)
    function.variables = names
    return function
