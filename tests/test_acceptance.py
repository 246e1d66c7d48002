"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a report:
run `pytest -s tests/test_acceptance.py` to see the lines.
"""
import math
from fractions import Fraction

from hublab import bounds as B
from hublab.constructions import (
    VertexOrder,
    canonical_labeling,
    halfsplit_hl,
    halfsplit_sizes,
    subset_hhl,
)
from hublab.graph import bfs_distances, hypercube
from hublab.greedy import greedy_hl
from hublab.labeling import (
    is_hierarchical,
    query,
    total_size,
    verify_cover,
)
from hublab.lp import solve
from hublab.oracle import brute_optimal_hl

from conftest import random_connected_graph


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_criterion_01_subset_hhl_tight():
    ok = True
    for d in range(13):
        g = hypercube(d)
        lab = subset_hhl(d, graph=g)
        ok &= total_size(lab) == 3 ** d
        sample = None if d <= 8 else 100_000
        ok &= verify_cover(g, lab, sample=sample, seed=0).valid
        ok &= is_hierarchical(lab).hierarchical
    report("subset labeling: hierarchical, covering, size 3^d for d=0..12", ok)


def test_criterion_02_order_invariance():
    ok = True
    for d in (3, 4, 5):
        sizes = {
            total_size(canonical_labeling(d, VertexOrder.random(d, seed)))
            for seed in range(100)
        }
        ok &= sizes == {3 ** d}
    report("canonical labeling size is 3^d for 100 random orders, d=3,4,5", ok)


def test_criterion_03_halfsplit_separation():
    d = 12
    g = hypercube(d)
    lab = halfsplit_hl(d, graph=g)
    size = total_size(lab)
    ok = size == 520192 < 531441 == 3 ** d
    ok &= halfsplit_sizes(d)[0] == size
    ok &= verify_cover(g, lab, sample=100_000, seed=0).valid
    h = is_hierarchical(lab)
    ok &= not h.hierarchical
    # the witness must be a real cycle in the containment relation
    cyc = h.witness
    ok &= cyc is not None and len(cyc) >= 2
    if ok:
        hubs = [{h for h, _ in label} for label in lab.labels]
        closed = cyc if cyc[0] == cyc[-1] else cyc + [cyc[0]]
        for a, b in zip(closed, closed[1:]):
            ok &= b in hubs[a] and a != b
    report("half-split at d=12: covering, 520192 < 3^12, cycle witness", ok)


def test_criterion_04_density_oracle():
    ok = all(
        B.y_star(d, k) == 1 / B.brute_densest_subgraph(d, k)
        for d in range(1, 5)
        for k in range(1, d + 1)
    )
    report("y_star equals inverse brute-force densest-subgraph density, d<=4", ok)


def test_criterion_05_middle_minimum():
    ok = True
    for d in range(31):
        for k in range(d + 1):
            vals = [B.middle_expression(d, k, x) for x in range(k + 1)]
            lo = min(vals)
            ok &= vals[k // 2] == lo == vals[(k + 1) // 2]
    report("coverage expression minimized exactly at the two middle points, d<=30", ok)


def test_criterion_06_psi_ratios():
    ok = True
    for d in range(31):
        for i in range(d // 2 + 1):
            if 2 * i + 1 <= d:
                ok &= B.psi(d, 2 * i + 1) / B.psi(d, 2 * i) == Fraction(d + 1, 4 * i + 2)
            if 2 * i + 2 <= d:
                ok &= B.psi(d, 2 * i + 2) / B.psi(d, 2 * i) == Fraction(d - i, 4 * i + 2)
    report("psi ratio identities hold exactly for d<=30", ok)


def test_criterion_07_growth_constant():
    const = 1 + B.entropy(0.4) - 0.8 * B.entropy(0.25)
    ok = abs(const - math.log2(2.5)) < 1e-12
    d = 2000
    k, v = B.psi_argmax_log(d)
    ok &= abs(v / d - math.log2(2.5)) / math.log2(2.5) < 0.01
    report("entropy constant equals log2(2.5); psi^(1/d) near 2.5 at d=2000", ok)


def test_criterion_08_lp_duality_projection():
    ok = True
    for d in (1, 2):
        primal = solve(B.build_primal_lp(d)).value
        dual = solve(B.build_dual_lp(d)).value
        regular = solve(B.build_regular_lp(d)).value
        ok &= primal == dual == regular
    report("primal, dual, and symmetrized LP optima agree exactly at d=1,2", ok)


def test_criterion_09_sandwiches():
    ok = True
    for d in range(5):
        ropt = solve(B.build_regular_lp(d)).value
        _, mx = B.psi_argmax(d)
        ok &= mx <= ropt <= (d + 1) * mx
    for d in range(3):
        lopt = solve(B.build_dual_lp(d)).value
        opt = brute_optimal_hl(hypercube(d)).size
        ok &= math.ceil(lopt) <= opt <= 3 ** d
    report("psi <= ROPT <= (d+1) psi (d<=4); ceil(LOPT) <= OPT <= 3^d (d<=2)", ok)


def test_criterion_10_greedy_validity(path3, star5, cycle6):
    ok = True
    sized = []
    for d in range(7):
        g = hypercube(d)
        lab = greedy_hl(g)
        ok &= verify_cover(g, lab).valid
        if d <= 2:  # exact packing solve stays cheap up to d=2
            sized.append((lab, solve(B.build_dual_lp(d)).value))
    for seed in range(20):
        g = random_connected_graph(min(64, 8 + 3 * seed), 2 * seed + 1, seed=seed)
        assert g.n <= 64
        ok &= verify_cover(g, greedy_hl(g)).valid
    for g in (path3, star5, cycle6):
        lab = greedy_hl(g)
        ok &= verify_cover(g, lab).valid
        if g.n <= 4:
            lopt = solve(B.build_primal_lp_graph(g)).value
            ok &= total_size(lab) >= math.ceil(lopt)
    for lab, lopt in sized:
        ok &= total_size(lab) >= math.ceil(lopt)
    report("greedy labelings cover on hypercubes, random graphs, fixtures; >= ceil(LOPT)", ok)


def test_criterion_11_query_correctness():
    ok = True
    for d in range(9):
        g = hypercube(d)
        labelings = [subset_hhl(d, graph=g), halfsplit_hl(d, graph=g)]
        if d <= 4:
            labelings.append(greedy_hl(g))
            labelings.append(canonical_labeling(d, VertexOrder.random(d, 3), graph=g))
        n = g.n
        dist = [bfs_distances(g, s) for s in range(n)]
        for lab in labelings:
            for s in range(n):
                row = dist[s]
                for t in range(n):
                    ok &= query(lab, s, t) == row[t]
            ok &= all(query(lab, v, v) == 0 for v in range(n))
    report("query matches breadth-first-search distance on all pairs up to d=8", ok)
