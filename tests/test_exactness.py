"""Exactness is checked, not only stated: no module of the package computes
with floats.  Every result is an int or a Fraction, so the package holds no
float literal, no float() call and no true division (`/`, `/=`)."""

import ast
import pathlib

import torictower

PACKAGE = pathlib.Path(torictower.__file__).parent
# (module, enclosing function, site): the clock's seconds turned into elapsed_ms,
# which sits outside the canonical bytes
ALLOWED = [("cli.py", "main", "float literal 1000.0")]


def _float_sites(path):
    """(module, enclosing function, site) per float literal, float() call, / and /= in one module."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((path.name, func, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            sites.append((path.name, func, "float() call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((path.name, func, "/=" if isinstance(node, ast.AugAssign) else "/"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_the_package_holds_no_float_arithmetic():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"lattice.py", "polytope.py", "toric.py", "tower.py", "cli.py"}
    assert [site for path in modules for site in _float_sites(path)] == ALLOWED


def test_every_kind_of_float_site_is_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 0.5\n\ndef f(a, b):\n    a /= b\n    return float(a) + a / b\n", encoding="utf-8")
    assert sorted(_float_sites(probe)) == [
        ("probe.py", "<module>", "float literal 0.5"),
        ("probe.py", "f", "/"),
        ("probe.py", "f", "/="),
        ("probe.py", "f", "float() call"),
    ]
