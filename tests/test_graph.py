import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab.graph import (
    BudgetError,
    Graph,
    GraphFormatError,
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
