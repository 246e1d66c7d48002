import itertools
import random
import tracemalloc
from array import array

import pytest

from hublab.constructions import (
    CANONICAL_ENTRY_BYTES,
    ENTRY_BYTES,
    VertexOrder,
    canonical_labeling,
    fits_store_budget,
    halfsplit_common_hub,
    halfsplit_hl,
    halfsplit_sizes,
    subset_hhl,
)
from hublab.graph import BudgetError, hypercube, popcount
from hublab.labeling import (
    Labeling,
    is_hierarchical,
    total_size,
    verify_cover,
)


def test_subset_sizes():
    assert total_size(subset_hhl(0)) == 1
    lab = subset_hhl(2)
    assert [len(l) for l in lab.labels] == [1, 2, 2, 4]
    assert total_size(lab) == 9
    assert total_size(subset_hhl(12)) == 531441


@pytest.mark.parametrize("d", range(9))
def test_subset_total_is_power_of_three(d):
    assert total_size(subset_hhl(d)) == 3 ** d


@pytest.mark.parametrize("d", range(7))
def test_subset_valid_and_hierarchical(d):
    g = hypercube(d)
    lab = subset_hhl(d, graph=g)
    assert verify_cover(g, lab).valid
    assert is_hierarchical(lab).hierarchical


def test_subset_hub_distances():
    lab = subset_hhl(4)
    for v, l in enumerate(lab.labels):
        for h, dd in l:
            assert h & v == h  # hubs are bit-subsets of v
            assert dd == popcount(v ^ h) == popcount(v) - popcount(h)


def by_definition(d, is_hub):
    """The labeling whose L(v) holds every w with is_hub(v, w), ascending,
    at distance popcount(v ^ w)."""
    n = 1 << d
    offsets, hubs, dists = array("q", [0]), array("i"), array("i")
    for v in range(n):
        for w in range(n):
            if is_hub(v, w):
                hubs.append(w)
                dists.append(popcount(v ^ w))
        offsets.append(len(hubs))
    return offsets, hubs, dists


def subset_by_definition(d):
    """Every w with w & ~v == 0 is a hub of v."""
    return by_definition(d, lambda v, w: w & ~v == 0)


def halfsplit_by_definition(d):
    """Every w that shares v's head (first floor(d/2) bits) or its tail
    (last ceil(d/2) bits) is a hub of v."""
    tail = (1 << (d - d // 2)) - 1
    return by_definition(d, lambda v, w: (v ^ w) & ~tail == 0 or (v ^ w) & tail == 0)


@pytest.mark.parametrize("d", range(10))
def test_constructions_equal_their_definitions(d):
    for build, definition in ((subset_hhl, subset_by_definition),
                              (halfsplit_hl, halfsplit_by_definition)):
        lab = build(d)
        assert (lab.offsets, lab.hubs, lab.dists) == definition(d), build.__name__
        assert (lab.offsets.typecode, lab.hubs.typecode, lab.dists.typecode) == ("q", "i", "i")


def test_construction_peaks_stay_near_their_stores():
    # the traced peak of a d = 12 build is at most 1.1 times its predicted
    # store; one table per (high subset, low half) reads 1.17 for subset_hhl
    for build, entries in ((subset_hhl, 3 ** 12), (halfsplit_hl, halfsplit_sizes(12)[0])):
        tracemalloc.start()
        try:
            lab = build(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total_size(lab) == entries
        assert peak <= 1.1 * entries * ENTRY_BYTES, (build.__name__, peak)


def canonical_by_definition(d, order):
    """The canonical labeling straight from its definition, O(6^d): w is a
    hub of v iff no vertex of the subcube spanned by v and w outranks w."""
    n = 1 << d
    rank = [order.rank(v) for v in range(n)]
    offsets, hubs, dists = array("q", [0]), array("i"), array("i")
    for v in range(n):
        for w in range(n):  # ascending, so each label is written sorted
            free = v ^ w
            best = max(rank[v], rank[w])
            sub = free
            while sub:
                best = max(best, rank[v ^ sub])
                sub = (sub - 1) & free
            if best == rank[w]:
                hubs.append(w)
                dists.append(popcount(free))
        offsets.append(len(hubs))
    return Labeling._from_arrays(offsets, hubs, dists)


def test_canonical_equals_definition_for_every_order_d2():
    for seq in itertools.permutations(range(4)):
        order = VertexOrder(seq)
        assert canonical_labeling(2, order) == canonical_by_definition(2, order)


@pytest.mark.parametrize("d", range(7))
def test_canonical_equals_definition_random_orders(d):
    for seed in range(20):
        order = VertexOrder.random(d, seed)
        assert canonical_labeling(d, order) == canonical_by_definition(d, order)


def test_canonical_reverse_id_equals_subset():
    for d in range(11):
        assert canonical_labeling(d, VertexOrder.reverse_id(d)) == subset_hhl(d)


def test_canonical_d1_forced_shape():
    for order in ([0, 1], [1, 0]):
        lab = canonical_labeling(1, VertexOrder(order))
        low, high = order
        assert set(h for h, _ in lab.labels[low]) == {0, 1}
        assert set(h for h, _ in lab.labels[high]) == {high}
        assert total_size(lab) == 3


@pytest.mark.parametrize("d", range(5))
def test_canonical_order_invariance(d):
    sizes = {
        total_size(canonical_labeling(d, VertexOrder.random(d, seed)))
        for seed in range(100)
    }
    assert sizes == {3 ** d}


@pytest.mark.parametrize("d", range(1, 5))
def test_canonical_valid_hierarchical_for_random_orders(d):
    g = hypercube(d)
    for seed in range(10):
        lab = canonical_labeling(d, VertexOrder.random(d, seed), graph=g)
        assert verify_cover(g, lab).valid
        assert is_hierarchical(lab).hierarchical


@pytest.mark.parametrize("d", range(1, 5))
def test_canonical_minimality(d):
    # removing any non-self hub breaks the cover for that vertex pair
    g = hypercube(d)
    for seed in range(20):
        lab = canonical_labeling(d, VertexOrder.random(d, seed), graph=g)
        hub_maps = [dict(label) for label in lab.labels]
        for v, l in enumerate(lab.labels):
            for w, _ in l:
                if w == v:
                    continue
                pruned = [list(x) for x in lab.labels]
                pruned[v] = [p for p in pruned[v] if p[0] != w]
                broken = Labeling(pruned, fingerprint=g.fingerprint())
                ms, mt = dict(broken.labels[v]), hub_maps[w]
                ok = any(
                    u in mt and ms[u] + mt[u] == popcount(v ^ w)
                    for u in ms
                )
                assert not ok, f"pair ({v},{w}) still covered after removal"


@pytest.mark.parametrize("d", range(1, 6))
def test_canonical_adjacent_transposition_keeps_size(d):
    rng = random.Random(d)
    n = 1 << d
    for _ in range(10):
        seq = list(range(n))
        rng.shuffle(seq)
        base = total_size(canonical_labeling(d, VertexOrder(seq)))
        i = rng.randrange(n - 1)
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        swapped = total_size(canonical_labeling(d, VertexOrder(seq)))
        assert swapped == base


def test_canonical_rejects_bad_order():
    with pytest.raises(ValueError):
        VertexOrder([0, 0, 1, 1])
    with pytest.raises(ValueError):
        canonical_labeling(2, VertexOrder([0, 1]))


def test_halfsplit_d2_labels():
    lab = halfsplit_hl(2)
    assert [h for h, _ in lab.labels[0]] == [0b00, 0b01, 0b10]
    assert total_size(lab) == 12


@pytest.mark.parametrize("d", range(9))
def test_halfsplit_sizes_formula(d):
    lab = halfsplit_hl(d)
    dedup, formula = halfsplit_sizes(d)
    assert total_size(lab) == dedup
    lo, hi = d // 2, d - d // 2
    per_vertex = 2 ** hi + 2 ** lo - 1
    assert all(len(l) == per_vertex for l in lab.labels)
    assert dedup <= formula == 2 ** d * (2 ** lo + 2 ** hi)


@pytest.mark.parametrize("d", range(7))
def test_halfsplit_valid(d):
    g = hypercube(d)
    assert verify_cover(g, halfsplit_hl(d, graph=g)).valid


@pytest.mark.parametrize("d", range(1, 7))
def test_halfsplit_non_hierarchical_with_2cycle(d):
    lab = halfsplit_hl(d)
    rep = is_hierarchical(lab)
    assert not rep.hierarchical
    hubsets = [{h for h, _ in label} for label in lab.labels]
    # a 2-cycle exists: any two vertices sharing a half contain each other
    a, b = 0, 1  # differ only in the last bit
    assert b in hubsets[a] and a in hubsets[b]


@pytest.mark.parametrize("d", range(1, 10))
def test_halfsplit_common_hub_witness(d):
    rng = random.Random(d)
    lab = halfsplit_hl(d)
    hubsets = [{h for h, _ in label} for label in lab.labels]
    n = 1 << d
    for _ in range(100):
        s, t = rng.randrange(n), rng.randrange(n)
        u = halfsplit_common_hub(d, s, t)
        assert u in hubsets[s] and u in hubsets[t]
        assert popcount(s ^ u) + popcount(u ^ t) == popcount(s ^ t)


def test_size_separation_from_d12():
    for d in range(12, 21):
        dedup, formula = halfsplit_sizes(d)
        assert dedup < 3 ** d
    assert halfsplit_sizes(12) == (520192, 524288)
    assert 520192 < 3 ** 12 == 531441


def test_store_budget_by_predicted_entries():
    # subset_hhl(20) would hold 3^20, about 3.5e9, entries: rejected before
    # anything is allocated; d=16 (3^16 entries, 344 MB) is admitted
    for build in (subset_hhl, halfsplit_hl):
        with pytest.raises(BudgetError):
            build(20)
    with pytest.raises(BudgetError):
        canonical_labeling(20, VertexOrder([0]))
    with pytest.raises(BudgetError):
        subset_hhl(10 ** 9)
    assert not fits_store_budget(3 ** 20)
    assert fits_store_budget(3 ** 16)
    assert fits_store_budget(halfsplit_sizes(16)[0])
    with pytest.raises(ValueError):
        subset_hhl(-1)


def test_canonical_budget_counts_its_subcube_arrays():
    # 3^16 entries at 12 bytes (store plus label buckets) are 516 MB, under
    # the 512 MiB budget; 3^17 are not, and are rejected before any order
    # is looked at
    assert fits_store_budget(3 ** 16, CANONICAL_ENTRY_BYTES)
    assert not fits_store_budget(3 ** 17, CANONICAL_ENTRY_BYTES)
    with pytest.raises(BudgetError):
        canonical_labeling(17, VertexOrder([0]))
