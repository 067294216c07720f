"""No float decides a result: src/ holds no float operation at all.

The toolkit's answers are exact integers and Fractions. This check walks
the syntax tree of every module under src/facthappy and refuses true
division, float() and round() calls, float literals and the float
functions of math, so a float cannot come back unseen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "facthappy"
_MATH_FLOATS = {"lgamma", "log", "log2", "log10", "exp", "sqrt", "gamma"}


def _float_operations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "round"):
            found.append((node.lineno, f"{node.func.id}()"))
        elif isinstance(node, ast.Attribute) and node.attr in _MATH_FLOATS \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append((node.lineno, f"math.{node.attr}"))
    return sorted(found)


def test_src_has_no_float_operation():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {what}" for path in modules
             for line, what in _float_operations(ast.parse(path.read_text()))]
    assert found == []


def test_the_check_sees_each_float_form():
    text = ("import math\n"
            "a = 1 / 2\n"
            "a /= 2\n"
            "b = 0.5\n"
            "c = float(3)\n"
            "d = round(c)\n"
            "f = math.lgamma(4) + math.log(2) + math.log2(2) + math.log10(2)\n"
            "g = math.exp(1) + math.sqrt(2) + math.gamma(3)\n"
            "h = 7 // 2 + math.factorial(3)\n")
    assert _float_operations(ast.parse(text)) == [
        (2, "true division"), (3, "true division"), (4, "float literal 0.5"),
        (5, "float()"), (6, "round()"), (7, "math.lgamma"), (7, "math.log"),
        (7, "math.log10"), (7, "math.log2"), (8, "math.exp"),
        (8, "math.gamma"), (8, "math.sqrt")]
