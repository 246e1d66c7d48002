"""Only `graph.py` computes distances: every other module asks its `PathSystem`."""
import ast
from pathlib import Path

import hublab

PACKAGE = Path(hublab.__file__).parent


def test_only_graph_module_calls_bfs():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "bfs_distances":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bfs_distances called outside graph.py: {found}"
