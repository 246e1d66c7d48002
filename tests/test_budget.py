"""The work budget: each entry point predicts its work and refuses, in O(1),
an input over its resource's limit."""
import time
from fractions import Fraction

import pytest

from hublab import bounds, budget, constructions, graph, greedy, lp, oracle
from hublab.budget import BudgetError
from hublab.cli import main
from hublab.constructions import VertexOrder
from hublab.graph import Graph, hypercube


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def no_rows_lp(num_vars):
    """A packing program whose tableau has (num_vars + 1)^2 cells."""
    return lp.RationalLP("max", [Fraction(1)] * num_vars, [], name=f"lp{num_vars}")


HUGE_D = 10 ** 9
HUGE = "at least 2^64"  # how a prediction cut short at 2^64 is shown

# (module whose `check` the entry point calls, entry point, resource,
#  [(admitted input, its prediction)], (first refused input, its prediction),
#  (huge input, its prediction as shown[, the resource refusing it]) or
#  None). The admitted inputs are the largest in budget, and at least the
#  largest the test suite or the benchmark runs.
ROWS = [
    (constructions, constructions.subset_hhl, "store bytes",
     [(16, 3 ** 16 * 8)], (17, 3 ** 17 * 8), (HUGE_D, HUGE)),
    (constructions, constructions.halfsplit_hl, "store bytes",
     [(16, constructions.halfsplit_sizes(16)[0] * 8)],
     (17, constructions.halfsplit_sizes(17)[0] * 8), (HUGE_D, HUGE)),
    (constructions, lambda d: constructions.canonical_labeling(d, VertexOrder([0])), "store bytes",
     [(16, 3 ** 16 * 12)], (17, 3 ** 17 * 12), (HUGE_D, HUGE)),
    # Q9: 512 * 512 * 513 / 2 pair ids of 4 bytes; 644 vertices are the most
    (greedy, greedy.greedy_run, "store bytes",
     [(hypercube(9), 268_959_744), (path(644), 644 * 644 * 645 // 2 * 4)],
     (path(645), 645 * 645 * 646 // 2 * 4), None),
    (graph, graph.hypercube, "graph vertices", [(20, 1 << 20)], (21, 1 << 21), (HUGE_D, HUGE)),
    (graph, graph.hypercube_fingerprint, "graph vertices",
     [(20, 1 << 20)], (21, 1 << 21), (HUGE_D, HUGE)),
    (graph, graph.parse_graph, "graph vertices",
     [(f"{1 << 20} 0\n", 1 << 20)], (f"{(1 << 20) + 1} 0\n", (1 << 20) + 1),
     (f"{10 ** 18} 0\n", 10 ** 18)),
    # regular-lp-d4 has the largest tableau the test suite solves
    (lp, lp.solve, "Fraction cells",
     [(bounds.build_regular_lp(4), 4362), (no_rows_lp(1731), 1732 ** 2)],
     (no_rows_lp(1732), 1733 ** 2), None),
    (bounds, bounds.build_regular_lp, "Fraction cells",
     [(4, 327_680)], (5, (1 << 32) * 6), (HUGE_D, HUGE)),
    (bounds, bounds.build_dual_lp, "Fraction cells",
     [(3, 73_728)], (4, 16 * (1 << 16) * 136), (HUGE_D, HUGE)),
    # a huge d is refused by hypercube(d), which the primal LP is built on
    (bounds, bounds.build_primal_lp, "Fraction cells",
     [(3, 73_440)], (4, 136 * 16 * ((1 << 16) - 1)), (HUGE_D, HUGE, "graph vertices")),
    (bounds, bounds.build_primal_lp_graph, "Fraction cells",
     [(path(11), 66 * 11 * ((1 << 11) - 1))], (path(12), 78 * 12 * ((1 << 12) - 1)), None),
    (bounds, bounds.regular_lp_optimum, "cut pair edges",
     [(10, 29_525)], (11, 88_574), (HUGE_D, HUGE)),
    (oracle, oracle.brute_optimal_hhl_hypercube, "search steps",
     [(3, 40320 * 6 ** 3)], (4, 20_922_789_888_000 * 6 ** 4), (HUGE_D, HUGE)),
    # the edge listing, 2^d + C(d, k) * 2^k steps, is budgeted first; then
    # each component C, 2^|C| * |E(C)|: at (6, 3) the empty set's star, 20
    # edges on 21 vertices, is refused
    (bounds, lambda dk: bounds.brute_densest_subgraph(*dk), "search steps",
     [((4, 3), 16 + 4 * 8), ((6, 2), 64 + 15 * 4)], ((6, 3), 20 << 21), ((HUGE_D, 3), HUGE)),
    (oracle, oracle.brute_optimal_hl, "branch-and-bound vertices",
     [(Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)]), 6)], (path(7), 7), None),
    (bounds, bounds.bound_report, "bit operations",
     [(2000, 2001 * 2000 ** 2), (2047, 2048 * 2047 ** 2)], (2048, 2049 * 2048 ** 2),
     (HUGE_D, HUGE)),
]


class Admitted(Exception):
    """Raised in place of the work that follows a passed budget check."""


@pytest.mark.parametrize("row", ROWS, ids=[f"{i}-{row[2]}" for i, row in enumerate(ROWS)])
def test_budget_row(row, monkeypatch):
    module, entry, resource, admitted, (refused, predicted), huge = row
    limit = budget.LIMITS[resource]
    real = module.check

    def stop_after_check(what, amount, res):
        real(what, amount, res)
        raise Admitted(amount, res)

    with monkeypatch.context() as m:
        m.setattr(module, "check", stop_after_check)
        for arg, amount in admitted:
            with pytest.raises(Admitted) as e:
                entry(arg)
            assert e.value.args == (amount, resource) and amount <= limit

    assert predicted > limit
    t0 = time.perf_counter()
    with pytest.raises(BudgetError) as e:
        entry(refused)
    assert time.perf_counter() - t0 < 0.01
    assert str(e.value).endswith(f" needs {predicted} {resource}; budget {limit}")
    if huge is not None:
        arg, shown, *other = huge
        resource = other[0] if other else resource
        t0 = time.perf_counter()
        with pytest.raises(BudgetError) as e:
            entry(arg)
        assert time.perf_counter() - t0 < 0.01
        assert str(e.value).endswith(
            f" needs {shown} {resource}; budget {budget.LIMITS[resource]}")


def test_report_asks_the_budget():
    # which optima are reported, d = 0..12: ROPT while its cut fits, LOPT
    # for d <= 2 (a time policy), OPT while the HL search fits
    for d in range(13):
        rep = bounds.bound_report(d, with_lp=True, with_oracle=True)
        assert (rep.ropt is not None) == (d <= 10)
        assert (rep.lopt is not None) == (d <= 2)
        assert (rep.opt is not None) == (d <= 2)


NEGATIVE_D = [
    graph.hypercube,
    graph.hypercube_fingerprint,
    constructions.subset_hhl,
    constructions.halfsplit_hl,
    lambda d: constructions.canonical_labeling(d, VertexOrder([0])),
    bounds.build_regular_lp,
    bounds.build_dual_lp,
    bounds.build_primal_lp,
    bounds.regular_lp_optimum,
    bounds.bound_report,
    bounds.psi_argmax,
    bounds.psi_argmax_log,
    lambda d: bounds.brute_densest_subgraph(d, 0),
    lambda d: bounds.pair_count(d, 0),
    lambda d: bounds.most_violated_subset(d, {0: 1}),
    oracle.brute_optimal_hhl_hypercube,
]


@pytest.mark.parametrize("entry", NEGATIVE_D)
def test_negative_dimension_is_not_a_budget_refusal(entry):
    with pytest.raises(ValueError, match="^dimension must be nonnegative$") as e:
        entry(-1)
    assert not isinstance(e.value, BudgetError)


def test_negative_dimension_cli(capsys):
    assert main(["bounds", "--d", "-1"]) == 1
    assert capsys.readouterr().err == "error: dimension must be nonnegative\n"
    assert not bounds.ropt_fits_budget(-1)
