import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from hublab.graph import (
    BudgetError,
    Graph,
    GraphFormatError,
    PathSystem,
    bfs_distances,
    hypercube,
    hypercube_fingerprint,
    induced_subcube,
    parse_graph,
    popcount,
    random_automorphism,
    serialize_graph,
)


def test_hypercube_sizes():
    assert (hypercube(0).n, hypercube(0).m) == (1, 0)
    assert (hypercube(2).n, hypercube(2).m) == (4, 4)
    assert (hypercube(3).n, hypercube(3).m) == (8, 12)


@pytest.mark.parametrize("d", range(9))
def test_hypercube_edge_count_formula(d):
    g = hypercube(d)
    assert g.m == (d * 2 ** (d - 1) if d else 0)
    for u, v in g.edges:
        assert popcount(u ^ v) == 1


def test_hypercube_budget():
    with pytest.raises(BudgetError):
        hypercube(21)


def test_bfs_examples(path3):
    assert bfs_distances(hypercube(3), 0)[7] == 3
    assert bfs_distances(hypercube(2), 0) == [0, 1, 1, 2]
    assert bfs_distances(path3, 0) == [0, 1, 2]


def test_bfs_invalid_source():
    with pytest.raises(ValueError):
        bfs_distances(hypercube(2), 4)


@pytest.mark.parametrize("d", range(7))
def test_bfs_equals_hamming_on_hypercube(d):
    g = hypercube(d)
    for u in range(g.n):
        dist = bfs_distances(g, u)
        for v in range(g.n):
            assert dist[v] == popcount(u ^ v)


def test_bfs_unreachable():
    g = Graph(3, [(0, 1)])
    assert bfs_distances(g, 0)[2] == float("inf")


@pytest.mark.parametrize("d", range(6))
def test_path_system_hamming_equals_bfs(d):
    # the flag-less copy of Q_d takes the BFS route
    cube = hypercube(d)
    flat = Graph(cube.n, cube.edges)
    assert flat.is_hypercube is None
    a, b = PathSystem(cube), PathSystem(flat)
    n = cube.n
    for s in range(n):
        assert a.row(s) == b.row(s) == [popcount(s ^ v) for v in range(n)]
        order = list(range(n - 1, -1, -1))
        assert list(a.dists(s, order)) == list(b.dists(s, order)) == b.row(s)[::-1]
        for t in range(n):
            for h in range(n):
                assert a.on_path(h, s, t) == b.on_path(h, s, t) == (h in induced_subcube(s, t))


def _assert_on_path_by_bfs(g):
    paths = PathSystem(g)
    dist = [bfs_distances(g, s) for s in range(g.n)]
    for s in range(g.n):
        assert paths.row(s) == dist[s]
        for t in range(g.n):
            for h in range(g.n):
                assert paths.on_path(h, s, t) == (dist[s][h] + dist[h][t] == dist[s][t])


def test_path_system_on_cycle_and_path():
    _assert_on_path_by_bfs(Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    _assert_on_path_by_bfs(Graph(6, [(i, i + 1) for i in range(5)]))


@pytest.mark.parametrize("seed", range(5))
def test_path_system_on_random_graphs(seed):
    _assert_on_path_by_bfs(random_connected_graph(5 + 3 * seed, 2 * seed, seed=seed))


@pytest.mark.parametrize(
    "g",
    [hypercube(d) for d in range(6)]
    + [Graph(16, hypercube(4).edges)]
    + [random_connected_graph(8 + 5 * seed, 3 * seed, seed=seed) for seed in range(3)],
)
def test_pairs_through_lists_the_on_path_pairs(g):
    paths = PathSystem(g)
    n = g.n
    for v in range(n):
        expected = [i * n + j for i in range(n) for j in range(i, n) if paths.on_path(v, i, j)]
        assert list(paths.pairs_through(v)) == expected


def test_path_system_unreachable_pair_has_no_path():
    paths = PathSystem(Graph(3, [(0, 1)]))
    assert list(paths.dists(0, [2, 1])) == [float("inf"), 1]
    assert not any(paths.on_path(h, 0, 2) for h in range(3))
    assert paths.on_path(0, 0, 1) and paths.on_path(1, 0, 1)


def test_induced_subcube_examples():
    assert list(induced_subcube(0b101, 0b101).members()) == [0b101]
    assert sorted(induced_subcube(0b00, 0b11).members()) == [0, 1, 2, 3]
    assert sorted(induced_subcube(0b010, 0b011).members()) == [0b010, 0b011]


def test_induced_subcube_contains_endpoints():
    for v in range(16):
        for w in range(16):
            sc = induced_subcube(v, w)
            assert v in sc and w in sc
            assert sc.size() == 1 << popcount(v ^ w)


@pytest.mark.parametrize("d", range(5))
def test_subcube_is_shortest_path_set_exhaustive(d):
    n = 1 << d
    for v in range(n):
        for w in range(n):
            sc = induced_subcube(v, w)
            expect = {
                u
                for u in range(n)
                if popcount(v ^ u) + popcount(u ^ w) == popcount(v ^ w)
            }
            assert set(sc.members()) == expect


def test_subcube_is_shortest_path_set_sampled_d10():
    rng = random.Random(7)
    n = 1 << 10
    for _ in range(200):
        v, w = rng.randrange(n), rng.randrange(n)
        sc = induced_subcube(v, w)
        members = set(sc.members())
        for _ in range(50):
            u = rng.randrange(n)
            on_path = popcount(v ^ u) + popcount(u ^ w) == popcount(v ^ w)
            assert (u in members) == on_path
        for u in members:
            assert popcount(v ^ u) + popcount(u ^ w) == popcount(v ^ w)


def test_identity_automorphism():
    from hublab.graph import HypercubeAutomorphism

    phi = HypercubeAutomorphism(dim=3, xor_mask=0, bit_perm=(0, 1, 2))
    assert phi.as_table() == list(range(8))


@pytest.mark.parametrize("d", range(7))
def test_automorphism_bijective_and_distance_preserving(d):
    n = 1 << d
    for seed in range(50):
        phi = random_automorphism(d, seed)
        table = phi.as_table()
        assert sorted(table) == list(range(n))
        for u in range(n):
            for v in range(n):
                assert popcount(table[u] ^ table[v]) == popcount(u ^ v)


def test_automorphism_deterministic_per_seed():
    assert random_automorphism(5, 3).as_table() == random_automorphism(5, 3).as_table()


@given(st.integers(0, 6), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_automorphism_property(d, seed):
    phi = random_automorphism(d, seed)
    table = phi.as_table()
    assert len(set(table)) == 1 << d


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 2)])


def test_graph_text_roundtrip():
    g = hypercube(3)
    g2 = parse_graph(serialize_graph(g))
    assert g2.edges == g.edges
    assert g2.is_hypercube == 3
    assert g2.fingerprint() == g.fingerprint()


def test_graph_text_comments_and_errors():
    g = parse_graph("# a comment\n2 1\n0 1\n")
    assert g.m == 1
    with pytest.raises(GraphFormatError):
        parse_graph("2 2\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("0 1\nnot an edge\n")


def test_fingerprint_distinguishes_graphs():
    assert hypercube(2).fingerprint() != hypercube(3).fingerprint()
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(0, 1), (0, 2)])
    assert a.fingerprint() != b.fingerprint()


@pytest.mark.parametrize("d", range(11))
def test_hypercube_fingerprint_streamed(d):
    assert hypercube_fingerprint(d) == hypercube(d).fingerprint()


def fingerprint_by_definition(g):
    """SHA-256 of "n m", then " u,v" for each edge u < v in ascending order;
    the first 16 hex digits."""
    text = f"{g.n} {g.m}" + "".join(f" {u},{v}" for u, v in sorted(g.edges))
    return g.n, g.m, hashlib.sha256(text.encode()).hexdigest()[:16]


def test_fingerprint_equals_definition():
    graphs = [hypercube(d) for d in range(11)] + [
        Graph(0, []),
        Graph(1, []),
        Graph(5, []),
        Graph(6, [(4, 1), (1, 5)]),  # isolated 0, 2 and 3
        Graph(7, [(6, 0), (2, 3), (0, 2)]),  # isolated 1, 4 and 5, vertex 6 last
    ]
    graphs += [random_connected_graph(n, extra, seed)
               for seed, (n, extra) in enumerate([(2, 0), (10, 5), (40, 30), (120, 200)])]
    for g in graphs:
        assert g.fingerprint() == fingerprint_by_definition(g), (g.n, g.m)
    for d in range(11):
        assert hypercube_fingerprint(d) == fingerprint_by_definition(hypercube(d))


def test_fingerprint_of_existing_label_files():
    # label files written before hold these; they must still bind to Q10, Q12
    assert hypercube_fingerprint(10) == (1024, 5120, "65b6fabce8cf7a5d")
    assert hypercube_fingerprint(12) == (4096, 24576, "5464662a3b4fb87e")
    assert hypercube(12).fingerprint() == (4096, 24576, "5464662a3b4fb87e")
