"""The program computes without floats: a walk of the AST of src/ and scripts/.

Every value is an int or a ``Fraction``.  The walk refuses each way a float
gets in: a float or complex literal, true division (``/`` and ``/=``), the
names ``float`` and ``round``, a name of ``math`` other than ``gcd``, and a
clock of ``time``.  ``ALLOWED`` lists the one float the program makes, the
wall time that ``scripts/full_verification.py`` prints.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Each allowed float source, (file, function, what), with its count.
ALLOWED = {("scripts/full_verification.py", "run", "time.perf_counter"): 2}


def _float_source(node: ast.AST) -> str | None:
    """The way node itself could make a float, or None."""
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return f"literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "/"
    if isinstance(node, ast.Name) and node.id in ("float", "round"):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = [f"{node.value.id}.{node.attr}"]
    elif isinstance(node, ast.ImportFrom):
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return None
    return ", ".join(name for name in names
                     if name.startswith(("math.", "time.")) and name != "math.gcd") or None


def _float_sources(node: ast.AST, scope: str) -> list[tuple[str, str]]:
    """(function, way) of each float source under node, scope the def it is in."""
    found = []
    for child in ast.iter_child_nodes(node):
        way = _float_source(child)
        if way:
            found.append((scope, way))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.ClassDef)) else scope
        found += _float_sources(child, inner)
    return found


def float_sources(root: Path) -> Counter:
    """Each float source in the ``.py`` files under root's src/ and scripts/, counted."""
    files = sorted(p for d in ("src", "scripts") for p in (root / d).rglob("*.py"))
    return Counter((path.relative_to(root).as_posix(), scope, way) for path in files
                   for scope, way in _float_sources(ast.parse(path.read_text()), "<module>"))


def test_the_program_makes_no_float_but_the_wall_time():
    assert float_sources(ROOT) == Counter(ALLOWED)


def test_each_float_source_is_found(tmp_path):
    source = "\n".join([
        "import math, time",
        "from math import gcd, inf",
        "def f(a, b):",
        "    a /= 2",
        "    return [1.0, 2j, a / b, float(a), round(b), math.inf, math.gcd(a, b), time.time()]",
    ])
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(source)
    found = {way for _, _, way in float_sources(tmp_path)}
    assert found == {"math.inf", "/", "literal 1.0", "literal 2j", "float", "round", "time.time"}
