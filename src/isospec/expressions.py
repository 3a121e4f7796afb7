"""Tiny expression language for defining scalar fields on surface nodes.

Grammar: numeric literals, the coordinate names ``x``, ``y``, ``z``, the
constant ``pi``, binary ``+ - * /``, power (``**`` or ``pow(a, b)``),
unary ``+``/``-``, and the functions ``sin`` and ``cos``.  Anything else
(names, calls, attributes, subscripts, ...) raises
:class:`~isospec.errors.ExpressionError`.  Evaluation is vectorized over
all nodes at once.
"""

import ast
import math

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "pow": np.power,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_UNARYOPS = {
    ast.UAdd: np.positive,
    ast.USub: np.negative,
}


def evaluate(text, coords):
    """Evaluate an expression at every node.

    Parameters
    ----------
    text : str
        Expression in the mini-language described above.
    coords : dict
        Maps coordinate names (``"x"``, ``"y"``, optionally ``"z"``) to
        1-D arrays of equal length, plus implicitly ``pi``.

    Returns
    -------
    np.ndarray
        Array of evaluated values, one per node.

    Raises
    ------
    ExpressionError
        On syntax errors, unsupported constructs, nesting too deep for
        the parser or the evaluator, or values that are not finite; numpy
        warns of none of them.
    """
    names = dict(coords)
    names["pi"] = math.pi
    n = None
    for value in coords.values():
        n = len(np.asarray(value))
        break

    try:
        # overflow, division by zero and invalid values leave inf or nan,
        # which the finiteness check below refuses
        with np.errstate(all="ignore"):
            result = _eval_node(ast.parse(text, mode="eval").body, names)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    except (MemoryError, RecursionError) as exc:
        # the parser overflows (MemoryError) or recurses on deep nesting
        raise ExpressionError("expression too large or nested too deeply") from exc
    out = np.asarray(result, dtype=float)
    if out.ndim == 0 and n is not None:
        # constant expression: broadcast to one value per node
        out = np.full(n, float(out))
    if not np.all(np.isfinite(out)):
        raise ExpressionError(f"expression {text!r} produced non-finite values")
    return out


def _eval_node(node, names):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ExpressionError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise ExpressionError(f"unknown identifier {node.id!r}")
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
        return op(_eval_node(node.left, names), _eval_node(node.right, names))
    if isinstance(node, ast.UnaryOp):
        op = _UNARYOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"unsupported operator {type(node.op).__name__}")
        return op(_eval_node(node.operand, names))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name):
            raise ExpressionError("only plain function calls are supported")
        fn = _FUNCTIONS.get(node.func.id)
        if fn is None:
            raise ExpressionError(f"unsupported function {node.func.id!r}")
        if node.keywords:
            raise ExpressionError("keyword arguments are not supported")
        args = [_eval_node(a, names) for a in node.args]
        expected = 2 if node.func.id == "pow" else 1
        if len(args) != expected:
            raise ExpressionError(
                f"{node.func.id}() takes {expected} argument(s), got {len(args)}"
            )
        return fn(*args)
    raise ExpressionError(f"unsupported syntax {type(node).__name__}")
