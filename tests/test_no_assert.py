"""No check in the package may rely on `assert`: `python -O` strips them."""
import ast
from pathlib import Path

import hublab

PACKAGE = Path(hublab.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in hublab: {found}"
