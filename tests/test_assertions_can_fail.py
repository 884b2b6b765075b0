"""Every ``assert`` in ``tests/`` and ``benchmarks/`` can fail.

This parses every Python file there with ``ast`` and flags an ``assert``
whose test is a constant (``assert 1``) or holds a boolean operation with
a constant ``True`` operand anywhere inside it (``assert all(x or True
for ...)``): either passes whatever the code under test does.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("tests", "benchmarks")


def _vacuous(test: ast.expr) -> bool:
    if isinstance(test, ast.Constant):
        return True
    return any(
        isinstance(node, ast.BoolOp)
        and any(isinstance(value, ast.Constant) and value.value is True for value in node.values)
        for node in ast.walk(test)
    )


def _hits(source: str, name: str) -> list[str]:
    tree = ast.parse(source, name)
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) and _vacuous(node.test)
    ]


def test_no_assert_passes_whatever_the_code_does():
    hits = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            hits += _hits(path.read_text(), str(path.relative_to(ROOT)))
    assert hits == []


def test_the_scan_sees_each_vacuous_shape():
    for source in (
        "assert 1",
        "assert x or True",
        "assert all(len(line) == 3 or True for line in lines)",
    ):
        assert _hits(source, "case") == ["case:1"], source
    for source in ("assert x", "assert x or y", "assert (x)", "assert x == (1, 2)"):
        assert _hits(source, "case") == [], source
