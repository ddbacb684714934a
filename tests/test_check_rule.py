"""One check rule is checked, not only stated: the counts `checked`,
`passed` and `skipped` are written by `CheckOutcome`'s own methods alone.
Every other check is counted through `check`, `skip`, the constructor or
`merge`, so no module of the package assigns to or augments an attribute of
those names outside that class."""

import ast
import pathlib

import torictower

PACKAGE = pathlib.Path(torictower.__file__).parent
COUNTS = {"checked", "passed", "skipped"}
OWNER = "CheckOutcome"


def _written(target):
    """The count attributes a target (an attribute, or a tuple, list or starred of targets) writes."""
    if isinstance(target, ast.Attribute):
        return [target.attr] if target.attr in COUNTS else []
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for t in target.elts for a in _written(t)]
    if isinstance(target, ast.Starred):
        return _written(target.value)
    return []


def _count_writes(path):
    """(module, enclosing class, enclosing function, attribute) per write to a
    count attribute in one module, outside the methods of CheckOutcome."""
    sites = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
            targets = [node.target]
        else:
            targets = []
        if cls != OWNER:
            sites.extend((path.name, cls, func, attr) for t in targets for attr in _written(t))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, "<module>")
    return sites


def test_only_check_outcome_writes_the_counts():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"tower.py", "verify.py", "cli.py", "documents.py"}
    assert [site for path in modules for site in _count_writes(path)] == []


def test_every_kind_of_count_write_is_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class CheckOutcome:\n"
        "    def __init__(self):\n"
        "        self.checked, self.passed, self.skipped = 0, 0, 0\n"
        "\n"
        "class Report(CheckOutcome):\n"
        "    def bump(self):\n"
        "        self.checked += 1\n"
        "\n"
        "def f(out, counts):\n"
        "    out.passed = 1\n"
        "    out.checked, *out.skipped = counts\n"
        "    out.passed: int = 2\n"
        "    for out.skipped in counts:\n"
        "        out.total = out.checked\n",
        encoding="utf-8",
    )
    assert _count_writes(probe) == [
        ("probe.py", "Report", "bump", "checked"),
        ("probe.py", None, "f", "passed"),
        ("probe.py", None, "f", "checked"),
        ("probe.py", None, "f", "skipped"),
        ("probe.py", None, "f", "passed"),
        ("probe.py", None, "f", "skipped"),
    ]
