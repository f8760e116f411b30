"""Tiny arithmetic-expression compiler for user-supplied superpotentials.

Grammar: literals, the variable x, named parameters, +, -, *, /, ^ (or **),
unary minus, parentheses, and the function set
    sin cos tan cot sinh cosh tanh sech csch exp ln sqrt abs
    sn(u, m) cn(u, m) dn(u, m)
Expressions are parsed with the Python ast module against a strict whitelist
(no attributes, no subscripts, no names beyond x and declared parameters), so
evaluation is safe on untrusted input. See docs/expression_grammar.md.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .special import jacobi_sn_cn_dn


class ExpressionError(ValueError):
    pass


def _jacobi(index: int) -> Callable:
    def fn(u, m):
        if np.ndim(m):
            raise ExpressionError("the elliptic parameter m of sn/cn/dn must not depend on x")
        return np.asarray(jacobi_sn_cn_dn(u, float(m))[index])

    return fn


_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "cot": lambda z: 1.0 / np.tan(z),
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sech": lambda z: 1.0 / np.cosh(z),
    "csch": lambda z: 1.0 / np.sinh(z),
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sn": _jacobi(0),
    "cn": _jacobi(1),
    "dn": _jacobi(2),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def compile_expression(text: str, params: dict | None = None) -> Callable:
    """Compile an expression in x into a vectorized callable f(x).

    '^' is accepted as power. Parameter names from `params` are substituted
    as constants at compile time.
    """
    params = dict(params or {})

    def ev(node, x):
        if isinstance(node, ast.Expression):
            return ev(node.body, x)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                try:
                    return float(node.value)
                except OverflowError as exc:
                    raise ExpressionError("integer literal is too large for a float") from exc
            raise ExpressionError(f"literal {node.value!r} is not a number")
        if isinstance(node, ast.Name):
            if node.id == "x":
                return x
            if node.id in params:
                return float(params[node.id])
            if node.id in _CONSTANTS:
                return _CONSTANTS[node.id]
            raise ExpressionError(f"unknown name {node.id!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand, x)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left, x), ev(node.right, x))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only the documented function names may be called")
            if node.keywords:
                raise ExpressionError("keyword arguments are not part of the grammar")
            args = [ev(a, x) for a in node.args]
            fn = _FUNCTIONS[node.func.id]
            expected = 2 if node.func.id in ("sn", "cn", "dn") else 1
            if len(args) != expected:
                raise ExpressionError(
                    f"{node.func.id} takes {expected} argument(s), got {len(args)}"
                )
            return fn(*args)
        raise ExpressionError(f"disallowed syntax: {ast.dump(node)[:60]}")

    too_deep = f"expression {text[:30]!r}... is nested too deeply"

    def evaluate(tree, x):
        try:
            return ev(tree, x)
        except RecursionError as exc:
            raise ExpressionError(too_deep) from exc

    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ExpressionError(too_deep) from exc
    # validate eagerly on a vector so bad expressions fail at compile time
    evaluate(tree, np.array([0.5]))

    def f(x):
        out = evaluate(tree, np.asarray(x, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() if np.ndim(out) == 0 and np.ndim(x) > 0 else out

    return f
