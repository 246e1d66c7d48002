import random

import pytest

from hublab.graph import Graph


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus extra random edges; always connected."""
    rng = random.Random(seed)
    edges = set()
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        u = verts[rng.randrange(i)]
        v = verts[i]
        edges.add((min(u, v), max(u, v)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 10 * extra_edges + 50:
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def with_extra_lines(text, rnd):
    """text with blank and comment lines inserted and one line ending throughout."""
    lines = text.splitlines()
    for _ in range(rnd.randrange(4)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "  ", "# note", "#"]))
    return rnd.choice(["\n", "\r\n", "\r"]).join(lines) + rnd.choice(["\n", "\r\n", ""])


@pytest.fixture
def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star5() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def cycle6() -> Graph:
    return Graph(6, [(i, (i + 1) % 6) for i in range(6)])
