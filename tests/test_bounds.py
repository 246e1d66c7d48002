import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab import bounds as B
from hublab.graph import Graph, hypercube, popcount
from hublab.lp import solve

F = Fraction


def test_pair_count_examples():
    assert [B.pair_count(2, k) for k in range(3)] == [4, 4, 2]
    assert B.pair_count(3, 2) == 12


@pytest.mark.parametrize("d", range(7))
def test_pair_count_matches_enumeration(d):
    n = 1 << d
    counts = [0] * (d + 1)
    for i in range(n):
        for j in range(i, n):
            counts[popcount(i ^ j)] += 1
    for k in range(d + 1):
        assert B.pair_count(d, k) == counts[k]
    assert sum(counts) == n * (n + 1) // 2


def test_pair_count_sum_identity():
    for d in range(15):
        total = sum(B.pair_count(d, k) for k in range(d + 1))
        n = 1 << d
        assert total == F(n * (n + 1), 2)


def test_pair_count_range_check():
    with pytest.raises(ValueError):
        B.pair_count(3, 4)


def test_component_density_examples():
    assert B.component_density(4, 3, 1) == F(6, 5)
    assert B.component_density(4, 3, 0) == F(4, 5)
    assert B.component_density(2, 2, 1) == F(1, 2)


def test_densest_component_examples():
    assert B.densest_component(4, 3) == (1, F(6, 5))
    assert B.densest_component(6, 4)[0] == 2
    assert B.densest_component(5, 0) == (0, F(1))


def test_y_star_examples():
    assert B.y_star(2, 1) == F(3, 2)
    assert B.y_star(2, 2) == 2
    for d in range(1, 20):
        assert B.y_star(d, 0) == 1


def test_y_star_inverse_of_density():
    for d in range(1, 8):
        for k in range(1, d + 1):
            assert B.y_star(d, k) == 1 / B.densest_component(d, k)[1]


@pytest.mark.parametrize("d", range(1, 5))
def test_y_star_equals_inverse_brute_densest(d):
    for k in range(1, d + 1):
        assert B.y_star(d, k) == 1 / B.brute_densest_subgraph(d, k)


def test_brute_densest_examples():
    assert B.brute_densest_subgraph(4, 3) == F(6, 5)
    assert B.brute_densest_subgraph(2, 2) == F(1, 2)
    assert B.brute_densest_subgraph(3, 0) == 1


def test_brute_densest_equals_max_component_density():
    for d in range(1, 5):
        for k in range(1, d + 1):
            brute = B.brute_densest_subgraph(d, k)
            best = max(B.component_density(d, k, i) for i in range(k // 2 + 1))
            assert brute == best


def test_disjoint_pair_edges_structure():
    for d in range(1, 5):
        for k in range(d + 1):
            for i, j in B.disjoint_pair_edges(d, k):
                assert i & j == 0
                assert popcount(i | j) == k


@pytest.mark.parametrize("d", range(1, 5))
def test_regular_subgraph_density_lemma_sampled(d):
    # random induced subgraphs never exceed their component's density
    rng = random.Random(d)
    for k in range(1, d + 1):
        edges = B.disjoint_pair_edges(d, k)
        for i in range(k // 2 + 1):
            members = sorted(
                {a for a, b in edges if popcount(a) in (i, k - i)}
                | {b for a, b in edges if popcount(b) in (i, k - i)}
            )
            members = [m for m in members if popcount(m) in (i, k - i)]
            if not members:
                continue
            dens = B.component_density(d, k, i)
            for _ in range(100):
                size = rng.randrange(1, len(members) + 1)
                sub = set(rng.sample(members, size))
                cnt = sum(1 for a, b in edges if a in sub and b in sub)
                assert F(cnt, len(sub)) <= dens


def test_psi_table_d2():
    assert [B.psi(2, k) for k in range(3)] == [4, 6, 4]
    assert B.psi_argmax(2) == (1, 6)


def test_psi_argmax_d0():
    assert B.psi_argmax(0) == (0, 1)


def test_psi_ratio_identities_exact():
    for d in range(31):
        for i in range(d // 2 + 1):
            if 2 * i + 1 <= d:
                assert B.psi(d, 2 * i + 1) / B.psi(d, 2 * i) == F(d + 1, 4 * i + 2)
            if 2 * i + 2 <= d:
                assert B.psi(d, 2 * i + 2) / B.psi(d, 2 * i) == F(d - i, 4 * i + 2)


def test_psi_ratio_example_d7():
    assert B.psi(7, 2) / B.psi(7, 0) == F(7, 2)
    assert B.psi(2, 1) / B.psi(2, 0) == F(3, 2)


def test_psi_argmax_ratio_converges():
    for d in (500, 1000, 2000):
        k, _ = B.psi_argmax(d)
        assert abs(k / d - 0.4) < 0.02


def test_psi_log2_agrees_with_exact():
    for d in range(1, 51):
        for k in range(d + 1):
            exact = math.log2(B.psi(d, k))
            assert abs(B.psi_log2(d, k) - exact) < 1e-9


def test_psi_log2_large_d():
    k, v = B.psi_argmax_log(200_000)
    assert abs(k / 200_000 - 0.4) < 0.01
    assert abs(v / 200_000 - math.log2(2.5)) < 0.01


def test_entropy_constant():
    assert abs(1 + B.entropy(0.4) - 0.8 * B.entropy(0.25) - math.log2(2.5)) < 1e-12


def test_middle_lemma_exhaustive():
    for d in range(31):
        for k in range(d + 1):
            vals = [B.middle_expression(d, k, x) for x in range(k + 1)]
            lo = min(vals)
            assert vals[k // 2] == lo
            assert vals[(k + 1) // 2] == lo
            assert vals[k // 2] == vals[(k + 1) // 2]


def test_middle_binomial_identity():
    for d in range(31):
        for k in range(d + 1):
            for x in range(k + 1):
                assert comb(d, x) * comb(d - x, k - x) == comb(d, k - x) * comb(
                    d - k + x, x
                )


def test_lemma_manip_boundaries():
    assert B.lemma_manip_check(1, 1, 1, 1)
    assert B.lemma_manip_check(0, 5, 2, 1)
    with pytest.raises(ValueError):
        B.lemma_manip_check(2, 1, 2, 1)
    with pytest.raises(ValueError):
        B.lemma_manip_check(0, 1, 1, 2)


@given(
    st.fractions(min_value=0, max_value=100),
    st.fractions(min_value=0, max_value=100),
    st.fractions(min_value=1, max_value=50),
    st.fractions(min_value=1, max_value=50),
)
@settings(max_examples=500, deadline=None)
def test_lemma_manip_property(a, b, c, e):
    s, t = min(a, b), max(a, b)
    beta, alpha = min(c, e), max(c, e)
    assert B.lemma_manip_check(s, t, alpha, beta)


def test_regular_lp_known_feasible_point_d2():
    lp = B.build_regular_lp(2)
    # single-class point y~1 = 3/2 (others 0) is feasible with value 6
    point = []
    for name in lp.var_names:
        point.append(F(3, 2) if name == "y~1" else F(0))
    for coeffs, rel, rhs in lp.rows:
        assert sum(c * x for c, x in zip(coeffs, point)) <= rhs
    value = sum(c * x for c, x in zip(lp.objective, point))
    assert value == 6
    assert solve(lp).value >= 6


@pytest.mark.parametrize("d", [1, 2])
def test_ropt_equals_lopt(d):
    ropt = solve(B.build_regular_lp(d)).value
    lopt = solve(B.build_dual_lp(d)).value
    assert ropt == lopt


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_ropt_sandwich(d):
    ropt = solve(B.build_regular_lp(d)).value
    _, mx = B.psi_argmax(d)
    assert mx <= ropt <= (d + 1) * mx


def test_dual_symmetrization_stays_feasible_d2():
    d = 2
    dual = B.build_dual_lp(d)
    sol = solve(dual)
    # average the optimal pair weights per distance class
    per_k = [F(0)] * (d + 1)
    for name, val in zip(dual.var_names, sol.values):
        i, j = map(int, name[2:-1].split(","))
        per_k[popcount(i ^ j)] += val
    y_tilde = [per_k[k] / B.pair_count(d, k) for k in range(d + 1)]
    reg = B.build_regular_lp(d)
    for coeffs, rel, rhs in reg.rows:
        assert sum(c * x for c, x in zip(coeffs, y_tilde)) <= rhs
    assert sum(
        c * x for c, x in zip(reg.objective, y_tilde)
    ) == sol.value


def rows_by_definition(n, covered, num_vars):
    """The rows of a materialized packing program by their definition: for
    each center's (i, j, variable) pairs and each vertex set S, count the
    pairs with both ends in S; one row per distinct nonzero coefficient
    vector, mapped to the smallest |S| that gives it."""
    best = {}
    for pairs in covered:
        masks = [((1 << i) | (1 << j), var) for i, j, var in pairs]
        for S in range(1, 1 << n):
            coeffs = [0] * num_vars
            for mask, var in masks:
                if S & mask == mask:
                    coeffs[var] += 1
            key = tuple(coeffs)
            if any(key) and best.get(key, n + 1) > S.bit_count():
                best[key] = S.bit_count()
    return best


def _rows_of(lp):
    rows = {tuple(coeffs): rhs for coeffs, _, rhs in lp.rows}
    assert len(rows) == lp.num_rows
    return rows


@pytest.mark.parametrize("d", range(5))
def test_regular_lp_rows_equal_definition(d):
    pairs = [(i, j, k) for k in range(d + 1) for i, j in B.disjoint_pair_edges(d, k)]
    assert _rows_of(B.build_regular_lp(d)) == rows_by_definition(1 << d, [pairs], d + 1)


@pytest.mark.parametrize("d", range(3))
def test_dual_lp_rows_equal_definition(d):
    lp = B.build_dual_lp(d)
    n = 1 << d
    var = {name: idx for idx, name in enumerate(lp.var_names)}
    covered = [
        [
            (i, j, var[f"y[{i},{j}]"])
            for i in range(n)
            for j in range(i, n)
            if popcount(i ^ v) + popcount(v ^ j) == popcount(i ^ j)
        ]
        for v in range(n)
    ]
    assert len(var) == n * (n + 1) // 2
    assert _rows_of(lp) == rows_by_definition(n, covered, len(var))


def test_lp_builder_caps():
    with pytest.raises(ValueError):
        B.build_regular_lp(5)
    with pytest.raises(ValueError):
        B.build_dual_lp(4)
    with pytest.raises(ValueError):
        B.build_primal_lp(4)


def test_bound_report_consistency():
    rep = B.bound_report(2, with_lp=True, with_oracle=True)
    assert rep.argmax_k == 1 and rep.max_psi == 6
    assert rep.ropt == 8 and rep.lopt == 8 and rep.opt == 9
    assert rep.sandwiches


def test_primal_lp_graph_matches_hypercube_builder():
    g = hypercube(2)
    a = solve(B.build_primal_lp(2)).value
    b = solve(B.build_primal_lp_graph(g)).value
    # Q2 without the hypercube flag takes its on-path test from BFS
    c = solve(B.build_primal_lp_graph(Graph(g.n, g.edges))).value
    assert a == b == c == 8


@pytest.mark.parametrize("g", [Graph(2, []), Graph(3, [(0, 1)]), Graph(4, [(0, 1), (2, 3)])])
def test_primal_lp_graph_rejects_disconnected(g):
    # no hub covers a pair in two components, so there is no bound to give
    with pytest.raises(ValueError, match="disconnected"):
        B.build_primal_lp_graph(g)


def _subset_gain(d, y, S):
    """sum of y_dist over pairs within S through vertex 0, minus |S| (S a bitmask)."""
    gain = -F(S.bit_count())
    for k, w in y.items():
        for i, j in B.disjoint_pair_edges(d, k):
            if S >> i & 1 and S >> j & 1:
                gain += w
    return gain


@pytest.mark.parametrize("d", range(4))
def test_separation_equals_brute_force(d):
    rng = random.Random(d)
    for trial in range(20):
        ks = range(0 if trial % 2 else 1, d + 1)
        y = {k: F(rng.randrange(0, 13), rng.randrange(1, 6)) for k in ks}
        value, S = B.most_violated_subset(d, y)
        brute = max(_subset_gain(d, y, T) for T in range(1 << (1 << d)))
        assert value == brute == _subset_gain(d, y, S)


@pytest.mark.parametrize("d", range(1, 5))
def test_separation_zero_exactly_at_inverse_density(d):
    for k in range(1, d + 1):
        y_k = 1 / B.brute_densest_subgraph(d, k)
        assert B.most_violated_subset(d, {k: y_k})[0] == 0
        assert B.most_violated_subset(d, {k: y_k * F(101, 100)})[0] > 0


def test_separation_checks_the_cut_flow(monkeypatch):
    # a min cut that misreports its flow, or whose residual capacities imply
    # no feasible flow, is refused before its closure is used
    real = B._min_cut
    y = {1: F(1, 2), 2: F(1, 3)}
    B.most_violated_subset(3, y)

    def wrong_value(*args):
        flow, side, residual = real(*args)
        return flow + 1, side, residual

    def overfull(*args):
        flow, side, residual = real(*args)
        residual[0] = -1  # arc 0 carries more than its capacity
        return flow, side, residual

    def leaking(*args):
        flow, side, residual = real(*args)
        i = next(i for i in range(0, len(residual), 2) if residual[i] and residual[i + 1])
        residual[i] -= 1  # one more unit through arc i / 2 than its ends pass on
        return flow, side, residual

    for fake, message in ((wrong_value, "not a flow of value"), (overfull, "carries"),
                          (leaking, "not a flow of value")):
        monkeypatch.setattr(B, "_min_cut", fake)
        with pytest.raises(B.BoundCheckError, match=message):
            B.most_violated_subset(3, y)


@pytest.mark.parametrize("d", range(5))
def test_row_generation_matches_materialized_lp(d):
    sol = B.regular_lp_optimum(d)
    assert sol.value == solve(B.build_regular_lp(d)).value
    assert B.bound_report(d, with_lp=True).ropt == sol.value


def test_ropt_beyond_materialization():
    greedy_sizes = {5: 228, 6: 643}
    for d, ropt in {5: 176, 6: 464}.items():
        rep = B.bound_report(d, with_lp=True)
        assert rep.ropt == ropt
        assert rep.max_psi <= ropt <= (d + 1) * rep.max_psi
        assert ropt <= greedy_sizes[d]
    assert B.regular_lp_optimum(7).value == F(6208, 5)
    rep = B.bound_report(8, with_lp=True)
    assert rep.ropt == F(9728, 3)
    assert rep.max_psi <= rep.ropt <= 9 * rep.max_psi
    assert any(line.startswith("max_k psi(k) = ") for line in rep.sandwiches)


def test_ropt_builds_its_pairs_once(monkeypatch):
    calls = []
    real = B.disjoint_pair_edges
    monkeypatch.setattr(B, "disjoint_pair_edges", lambda d, k: calls.append(k) or real(d, k))
    assert B.regular_lp_optimum(9).value == F(59648, 7)
    assert sorted(calls) == list(range(10))
    assert B.regular_lp_optimum(10).value == F(66304, 3)


def test_ropt_limited_by_pair_edges():
    for d in range(6):
        assert B.ropt_pair_edges(d) == sum(len(B.disjoint_pair_edges(d, k)) for k in range(d + 1))
    assert all(B.ropt_fits_budget(d) for d in range(11))
    assert B.ropt_pair_edges(10) <= B.MAX_ROPT_PAIR_EDGES < B.ropt_pair_edges(11)
    assert not B.ropt_fits_budget(11) and not B.ropt_fits_budget(-1)
    assert not B.ropt_fits_budget(10 ** 9)
    with pytest.raises(ValueError):
        B.regular_lp_optimum(11)
    assert B.bound_report(11, with_lp=True).ropt is None


def test_bound_report_rejects_inconsistent_row():
    with pytest.raises(B.BoundCheckError):
        B.BoundReport(d=1, table=[(0, F(2), F(1), F(3))], argmax_k=0, max_psi=F(3))
