"""Every refusal goes through `budget.check`: no other module raises a budget error itself."""
import ast
from pathlib import Path

import hublab

PACKAGE = Path(hublab.__file__).parent
ERRORS = {"BudgetError", "LPSizeError"}


def constructions_of_budget_errors(source: str) -> list[int]:
    """Lines that call, or raise without a call, BudgetError or LPSizeError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
        elif isinstance(node, ast.Raise) and node.exc is not None:
            f = node.exc
        else:
            continue
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in ERRORS:
            found.append(node.lineno)
    return sorted(found)


def test_only_budget_module_constructs_budget_errors():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "budget.py"
        for line in constructions_of_budget_errors(path.read_text())
    ]
    assert not found, f"budget error made outside budget.py: {found}"


def test_guard_sees_a_raise():
    assert constructions_of_budget_errors(
        "def f(n):\n    if n > 4:\n        raise BudgetError(f'{n}')\n"
        "    raise graph.LPSizeError\n"
    ) == [3, 4]
    assert constructions_of_budget_errors("check('x', 1, 'store bytes')\n") == []
