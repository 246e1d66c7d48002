import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab.constructions import halfsplit_hl, subset_hhl
from hublab.graph import Graph, bfs_distances, hypercube, popcount
from hublab.greedy import greedy_hl
from hublab.labeling import (
    MAX_REPORTED_VIOLATIONS,
    CoverReport,
    FingerprintMismatch,
    Labeling,
    LabelingFormatError,
    NO_COMMON_HUB,
    is_hierarchical,
    parse_labeling,
    query,
    serialize_labeling,
    total_size,
    verify_cover,
    _sampled_pairs,
)

from conftest import random_connected_graph


def test_query_same_vertex():
    lab = subset_hhl(2)
    for v in range(4):
        assert query(lab, v, v) == 0  # v is its own hub in the subset labeling


def test_query_subset_d2():
    lab = subset_hhl(2)
    # 0b00 is a hub of everything; L(0b00) = {0b00}
    assert lab.labels[0] == ((0, 0),)
    assert query(lab, 0b00, 0b11) == 2


def test_query_halfsplit_d2():
    lab = halfsplit_hl(2)
    assert query(lab, 0b00, 0b11) == 2


def test_query_no_common_hub():
    lab = Labeling([[(0, 0)], [(1, 0)]])
    assert query(lab, 0, 1) is NO_COMMON_HUB


def test_query_out_of_range():
    lab = subset_hhl(1)
    with pytest.raises(ValueError):
        query(lab, 0, 2)


@pytest.mark.parametrize("d", range(7))
def test_query_symmetry(d):
    lab = halfsplit_hl(d)
    rng = random.Random(d)
    n = 1 << d
    for _ in range(200):
        s, t = rng.randrange(n), rng.randrange(n)
        assert query(lab, s, t) == query(lab, t, s)


@pytest.mark.parametrize("d", range(6))
def test_verify_cover_valid_constructions(d):
    g = hypercube(d)
    assert verify_cover(g, subset_hhl(d, graph=g)).valid
    assert verify_cover(g, halfsplit_hl(d, graph=g)).valid


def test_verify_cover_detects_deleted_hub():
    g = hypercube(2)
    lab = subset_hhl(2, graph=g)
    # drop hub 0b00 from L(0b11); {00,11} loses its only on-path common hub
    labels = [list(l) for l in lab.labels]
    labels[3] = [p for p in labels[3] if p[0] != 0]
    broken = Labeling(labels, fingerprint=g.fingerprint())
    report = verify_cover(g, broken)
    assert not report.valid
    assert (0, 3) in report.violations


def test_verify_cover_violations_sorted_and_truncated():
    g = hypercube(3)
    lab = Labeling([[(v, 0)] for v in range(8)], fingerprint=g.fingerprint())
    report = verify_cover(g, lab)
    assert not report.valid
    assert report.violations == sorted(report.violations)
    assert len(report.violations) <= 20
    assert report.truncated


def test_verify_cover_fingerprint_mismatch():
    lab = subset_hhl(2)
    with pytest.raises(FingerprintMismatch):
        verify_cover(hypercube(3), lab)


def test_verify_cover_rejects_wrong_distance():
    g = hypercube(1)
    lab = Labeling([[(0, 0), (1, 5)], [(0, 1), (1, 0)]], fingerprint=g.fingerprint())
    with pytest.raises(LabelingFormatError):
        verify_cover(g, lab)


def test_verify_cover_sampled_rejects_wrong_distance():
    # the stored distance of hub 0 in L(1023) is 2, not 10: queries from 1023
    # come out too short, though another common hub still sums to the true
    # distance, so a check that any hub does would pass them
    d = 10
    g = hypercube(d)
    labels = [list(label) for label in subset_hhl(d, graph=g).labels]
    labels[1023][0] = (0, 2)
    lab = Labeling(labels, fingerprint=g.fingerprint())
    assert sum(query(lab, 1023, t) != popcount(1023 ^ t) for t in range(1 << d)) > 0
    with pytest.raises(LabelingFormatError, match="vertex 1023"):
        verify_cover(g, lab, sample=100_000, seed=0)


def test_verify_cover_rejects_empty_sample():
    g = hypercube(2)
    lab = subset_hhl(2, graph=g)
    for sample in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            verify_cover(g, lab, sample=sample)


def test_verify_cover_sampled():
    g = hypercube(6)
    lab = subset_hhl(6, graph=g)
    report = verify_cover(g, lab, sample=5000, seed=3)
    assert report.valid
    assert report.pairs_checked == 5000


def test_verify_cover_sampled_empty_graph_is_vacuous():
    g, lab = Graph(0, []), Labeling([])
    for sample in (None, 1, 3):
        assert verify_cover(g, lab, sample=sample, seed=5) == CoverReport(
            valid=True, violations=[], truncated=False, pairs_checked=0)


def verify_by_definition(g: Graph, lab: Labeling, sample=None, seed: int = 0) -> CoverReport:
    """Reference: the cover check by its definition, on {hub: dist} dicts.
    The same pairs as `verify_cover` (the same random stream when sampled),
    every stored distance of a touched label checked against BFS, and a pair
    covered when the minimum over common hubs of the two stored distances
    equals the BFS distance. A pair drawn more than once is one violation."""
    n = g.n
    if sample is None or n == 0:
        pairs = [(s, t) for s in range(n) for t in range(s, n)]
    else:
        rng = random.Random(seed)
        pairs = []
        for _ in range(sample):
            s, t = rng.randrange(n), rng.randrange(n)
            pairs.append((min(s, t), max(s, t)))
    dist = {v: bfs_distances(g, v) for pair in pairs for v in pair}
    maps = {v: dict(lab.labels[v]) for v in dist}
    for v, m in maps.items():
        if any(dist[v][h] != dd for h, dd in m.items()):
            raise LabelingFormatError(f"wrong stored distance in label of vertex {v}")
    violations = []
    for s, t in pairs:
        ms, mt = maps[s], maps[t]
        common = ms.keys() & mt.keys()
        if not common or min(ms[h] + mt[h] for h in common) != dist[s][t]:
            violations.append((s, t))
    violations = list(dict.fromkeys(violations))
    return CoverReport(
        valid=not violations,
        violations=sorted(violations[:MAX_REPORTED_VIOLATIONS]),
        truncated=len(violations) > MAX_REPORTED_VIOLATIONS,
        pairs_checked=len(pairs),
    )


def assert_verify_matches_definition(g, lab, seed):
    assert verify_cover(g, lab) == verify_by_definition(g, lab)
    for sample in (1, 37, 500):
        assert (verify_cover(g, lab, sample=sample, seed=seed)
                == verify_by_definition(g, lab, sample=sample, seed=seed))


def test_verify_cover_keeps_the_first_violations_in_pair_order():
    # truncation keeps the first violations checked, then sorts them
    g = hypercube(3)
    lab = Labeling([[(v, 0)] for v in range(8)], fingerprint=g.fingerprint())
    assert_verify_matches_definition(g, lab, seed=4)
    assert verify_cover(g, lab, sample=500, seed=4).truncated


@st.composite
def labelings_with_deleted_hubs(draw):
    """(graph, labeling, seed): a greedy labeling of a small random connected
    graph or a subset/half-split labeling of Q2-Q5, with random entries gone."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        g = random_connected_graph(n, draw(st.integers(0, 2 * n)), seed)
        lab = greedy_hl(g)
    else:
        d = draw(st.integers(2, 5))
        g = hypercube(d)
        lab = draw(st.sampled_from([subset_hhl, halfsplit_hl]))(d, graph=g)
    p = draw(st.sampled_from([0, 0.02, 0.1, 0.4]))
    rng = random.Random(seed)
    labels = [[e for e in label if rng.random() >= p] for label in lab.labels]
    return g, Labeling(labels, fingerprint=g.fingerprint()), seed


@given(labelings_with_deleted_hubs())
@settings(max_examples=60, deadline=None)
def test_verify_cover_matches_definition(case):
    g, lab, seed = case
    assert_verify_matches_definition(g, lab, seed)


def hamming_labeling(d, hub_sets):
    g = hypercube(d)
    lab = Labeling([[(h, popcount(v ^ h)) for h in hs] for v, hs in enumerate(hub_sets)],
                   fingerprint=g.fingerprint())
    return g, lab


def test_verify_cover_passes_when_only_a_lower_common_hub_is_on_path():
    # the highest common hub of (0, 1) and of (0, 0) is 3, off every
    # shortest path; hub 0 below it is on one
    g, lab = hamming_labeling(2, [{0, 3}, {0, 1, 3}, {0, 2, 3}, {3}])
    assert query(lab, 0, 1) == 1 and 3 in dict(lab.labels[0])
    report = verify_cover(g, lab)
    assert report.valid and report.pairs_checked == 10
    assert_verify_matches_definition(g, lab, seed=1)


def test_verify_cover_fails_when_no_common_hub_is_on_path():
    # (0, 1) share hubs 2 and 3, each 3 steps round, but are 1 apart
    g, lab = hamming_labeling(2, [{0, 2, 3}, {1, 2, 3}, {2}, {2, 3}])
    assert query(lab, 0, 1) == 3
    report = verify_cover(g, lab)
    assert not report.valid and (0, 1) in report.violations
    assert_verify_matches_definition(g, lab, seed=1)


def test_verify_cover_all_hubs_labeling_q4():
    # L(v) = V: every pair tries hubs from the highest down to one on a path
    g, lab = hamming_labeling(4, [range(16)] * 16)
    report = verify_cover(g, lab)
    assert report.valid and report.pairs_checked == 16 * 17 // 2
    assert_verify_matches_definition(g, lab, seed=2)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 4095, 4096])
def test_sampled_pairs_are_the_randrange_stream(n):
    # a given seed checks the pairs that two randrange(n) calls per pair draw
    for seed in (0, 1, 7, 12345):
        rng = random.Random(seed)
        expect = []
        for _ in range(300):
            s, t = rng.randrange(n), rng.randrange(n)
            expect.append((min(s, t), max(s, t)))
        assert list(_sampled_pairs(n, 300, seed)) == expect


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_verify_cover_hypercube_test_equals_distance_test(d):
    # the same labelings on Q_d and on Q_d's edges without the hypercube
    # flag: the subcube test and the distance test agree on every report
    cube = hypercube(d)
    plain = Graph(cube.n, cube.edges)
    assert plain.is_hypercube is None and plain.fingerprint() == cube.fingerprint()
    rng = random.Random(d)
    all_hubs = hamming_labeling(d, [range(cube.n)] * cube.n)[1]
    for full in (subset_hhl(d), halfsplit_hl(d), all_hubs):
        for p in (0, 0.05, 0.3):
            labels = [[e for e in label if rng.random() >= p] for label in full.labels]
            lab = Labeling(labels, fingerprint=cube.fingerprint())
            for sample in (None, 1, 50, 400):
                seed = rng.randrange(100)
                got = verify_cover(cube, lab, sample=sample, seed=seed)
                assert got == verify_cover(plain, lab, sample=sample, seed=seed)
                assert got.pairs_checked == (sample or cube.n * (cube.n + 1) // 2)


def test_total_size_examples():
    assert total_size(Labeling([])) == 0
    lab = subset_hhl(2)
    assert [len(l) for l in lab.labels] == [1, 2, 2, 4]
    assert total_size(lab) == 9
    assert total_size(halfsplit_hl(2)) == 12


def test_total_size_matches_serialized_counts():
    lab = halfsplit_hl(3)
    counts = 0
    for line in serialize_labeling(lab).splitlines():
        if line.startswith(("HL", "#")):
            continue
        counts += int(line.split()[1])
    assert counts == total_size(lab)


def test_hierarchy_subset_true():
    for d in range(6):
        assert is_hierarchical(subset_hhl(d)).hierarchical


def test_hierarchy_halfsplit_false_with_witness():
    for d in range(1, 6):
        rep = is_hierarchical(halfsplit_hl(d))
        assert not rep.hierarchical
        cyc = rep.witness
        assert cyc[0] == cyc[-1] and len(cyc) >= 3
        lab = halfsplit_hl(d)
        hubsets = [{h for h, _ in label} for label in lab.labels]
        for a, b in zip(cyc, cyc[1:]):
            assert b in hubsets[a]


def test_hierarchy_self_labels_vacuously_true():
    lab = Labeling([[(v, 0)] for v in range(4)])
    assert is_hierarchical(lab).hierarchical
    # independent of the cover property, which this labeling fails
    g = hypercube(2)
    lab2 = Labeling([[(v, 0)] for v in range(4)], fingerprint=g.fingerprint())
    assert not verify_cover(g, lab2).valid


def brute_force_hierarchical(lab: Labeling) -> bool:
    """Reference: O(n^3) transitive-closure cycle test over the relation
    "w is a hub of v" on distinct vertices."""
    n = lab.n
    reach = [[False] * n for _ in range(n)]
    for v, label in enumerate(lab.labels):
        for h, _ in label:
            if h != v:
                reach[v][h] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return not any(reach[v][v] for v in range(n))


@pytest.mark.parametrize("d", range(1, 7))
def test_hierarchy_agrees_with_brute_force(d):
    for lab in (subset_hhl(d), halfsplit_hl(d)):
        assert is_hierarchical(lab).hierarchical == brute_force_hierarchical(lab)
    rng = random.Random(d)
    n = 1 << d
    for _ in range(5):
        labels = []
        for v in range(n):
            hubs = sorted(rng.sample(range(n), rng.randrange(1, min(4, n) + 1)))
            labels.append([(h, popcount(v ^ h)) for h in hubs])
        lab = Labeling(labels)
        assert is_hierarchical(lab).hierarchical == brute_force_hierarchical(lab)


def test_labeling_roundtrip():
    lab = subset_hhl(3, graph=hypercube(3))
    again = parse_labeling(serialize_labeling(lab))
    assert again == lab
    assert again.fingerprint == lab.fingerprint


def test_load_rejects_duplicate_hub():
    text = "HL 1\n0 2 0 0 0 1\n"
    with pytest.raises(LabelingFormatError):
        parse_labeling(text)


def test_load_rejects_unsorted_hubs():
    text = "HL 1\n0 2 1 1 0 0\n"
    with pytest.raises(LabelingFormatError):
        parse_labeling(text)


def test_load_empty_label_line():
    text = "HL 6\n0 1 0 0\n1 1 1 0\n2 1 2 0\n3 1 3 0\n4 1 4 0\n5 0\n"
    lab = parse_labeling(text)
    assert lab.labels[5] == ()


def test_load_parse_error_reports_line():
    with pytest.raises(LabelingFormatError) as e:
        parse_labeling("HL 1\n0 3 0 0\n")
    assert "line 2" in str(e.value)


def test_labeling_rejects_hub_out_of_range():
    # hub 16 (distance 3 from vertex 3) in a Q2 labeling of 4 vertices
    labels = [list(label) for label in subset_hhl(2).labels]
    labels[3].append((16, 3))
    with pytest.raises(LabelingFormatError, match="out of range"):
        Labeling(labels)
    text = serialize_labeling(subset_hhl(2)).replace("3 4 0 2 1 1 2 1 3 0", "3 5 0 2 1 1 2 1 3 0 16 3")
    assert "16 3" in text
    with pytest.raises(LabelingFormatError, match="out of range"):
        parse_labeling(text)
    with pytest.raises(LabelingFormatError):
        Labeling([[(-1, 1), (0, 0)]])


def test_labeling_rejects_duplicate_hubs_in_constructor():
    with pytest.raises(LabelingFormatError):
        Labeling([[(0, 0), (0, 1)]])


def test_query_correctness_random_pairs_d13():
    lab = subset_hhl(13)
    rng = random.Random(0)
    for _ in range(10_000):
        s, t = rng.randrange(1 << 13), rng.randrange(1 << 13)
        assert query(lab, s, t) == popcount(s ^ t)


def test_labels_view_is_read_only_sequence():
    lab = subset_hhl(2)
    view = lab.labels
    assert len(view) == 4
    assert list(view) == [((0, 0),), ((0, 1), (1, 0)), ((0, 1), (2, 0)),
                          ((0, 2), (1, 1), (2, 1), (3, 0))]
    assert view[-1] == view[3]
    with pytest.raises(IndexError):
        view[4]
    with pytest.raises(TypeError):
        view[0] = ()
    with pytest.raises(AttributeError):
        lab.labels = []


def test_labeling_sorts_each_label_and_rejects_values_beyond_32_bits():
    lab = Labeling([[(1, 1), (0, 0)], [(1, 0), (0, 1)]])
    assert lab.labels[0] == ((0, 0), (1, 1))
    with pytest.raises(LabelingFormatError):
        Labeling([[(0, 1 << 31)]])
    with pytest.raises(LabelingFormatError):
        Labeling([[(1 << 31, 0)]])
    with pytest.raises(LabelingFormatError, match="negative distance"):
        Labeling([[(0, -1)]])


def test_load_vertex_lines_in_any_order():
    lab = halfsplit_hl(3, graph=hypercube(3))
    header, *lines = serialize_labeling(lab).splitlines()
    fp, *lines = lines
    text = "\n".join([header, fp, *reversed(lines)]) + "\n"
    again = parse_labeling(text)
    assert again == lab and again.fingerprint == lab.fingerprint
