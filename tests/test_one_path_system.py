"""Only `graph.py` computes distances: every other module asks its `PathSystem`.

The pairs through a center come from `PathSystem.pairs_through` alone; only
`labeling.verify_cover` tests a single (hub, pair) with `on_path`.
"""
import ast
from pathlib import Path

import pytest

import hublab
from hublab.bounds import build_primal_lp_graph
from hublab.graph import Graph, PathSystem
from hublab.greedy import greedy_run
from hublab.oracle import brute_optimal_hl

PACKAGE = Path(hublab.__file__).parent
PAIR_TESTS = {"on_path", "is_connected"}


def calls_of(source: str, names: set) -> list[int]:
    """Lines that call a function or method with one of `names`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names:
                found.append(node.lineno)
    return sorted(found)


def test_only_graph_module_calls_bfs():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "graph.py"
        for line in calls_of(path.read_text(), {"bfs_distances"})
    ]
    assert not found, f"bfs_distances called outside graph.py: {found}"


def test_only_path_modules_test_pairs():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in ("graph.py", "labeling.py")
        for line in calls_of(path.read_text(), PAIR_TESTS)
    ]
    assert not found, f"on_path or is_connected called outside graph.py and labeling.py: {found}"


def test_pair_guard_sees_a_bound_method_and_a_call():
    source = (
        "def f(g, n):\n"
        "    if not g.is_connected():\n"
        "        raise ValueError\n"
        "    on_path = PathSystem(g).on_path\n"
        "    return [v for v in range(n) if on_path(v, 0, 1)]\n"
    )
    assert calls_of(source, PAIR_TESTS) == [2, 5]


@pytest.mark.parametrize("build", [greedy_run, brute_optimal_hl, build_primal_lp_graph])
def test_one_disconnected_refusal(build):
    with pytest.raises(ValueError) as err:
        build(Graph(3, [(0, 1)]))
    assert str(err.value) == "cover is impossible for a disconnected graph"


def test_disconnected_refusal_repeats():
    paths = PathSystem(Graph(3, [(0, 1)]))
    for v in (0, 2):
        with pytest.raises(ValueError, match="disconnected"):
            list(paths.pairs_through(v))
