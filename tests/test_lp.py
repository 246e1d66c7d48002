from fractions import Fraction
from itertools import combinations

import pytest

from hublab.bounds import build_dual_lp, build_primal_lp, build_regular_lp
from hublab.lp import (
    GEQ,
    LEQ,
    LPCertificateError,
    LPSizeError,
    RationalLP,
    certify,
    dump_lp,
    solve,
)

F = Fraction


def test_trivial_max():
    lp = RationalLP("max", [F(1)], [([F(1)], LEQ, F(3))])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.values == [F(3)]


def test_min_with_geq():
    lp = RationalLP("min", [F(2)], [([F(1)], GEQ, F(5))])
    sol = solve(lp)
    assert sol.status == "optimal" and sol.value == 10


def test_infeasible():
    lp = RationalLP(
        "max",
        [F(1)],
        [([F(1)], GEQ, F(2)), ([F(1)], LEQ, F(1))],
    )
    assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = RationalLP("max", [F(1)], [])
    assert solve(lp).status == "unbounded"


def test_unbounded_packing_solved_through_transpose():
    # more rows than variables, so the dual is solved; it is infeasible
    lp = RationalLP(
        "max",
        [F(1), F(1)],
        [([F(1), F(0)], LEQ, F(1)), ([F(1), F(0)], LEQ, F(2)), ([F(2), F(0)], LEQ, F(3))],
    )
    assert solve(lp).status == "unbounded"


@pytest.mark.parametrize("build", [lambda: build_regular_lp(3), lambda: build_dual_lp(2)])
def test_transposed_packing_matches_direct_solve(build):
    # both have more rows than variables, so `solve` goes through the
    # transpose; the untransposed tableau must reach the same optimum
    from hublab.lp import _simplex

    lp = build()
    assert lp.num_rows > lp.num_vars
    sol = solve(lp)
    status, x, y = _simplex(lp, 10**9)
    assert status == "optimal"
    assert sol.value == certify(lp, x, y)


def test_duals_certify_optimum():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6: only the first row binds
    lp = RationalLP(
        "max",
        [F(3), F(2)],
        [([F(1), F(1)], LEQ, F(4)), ([F(1), F(3)], LEQ, F(6))],
    )
    sol = solve(lp)
    assert sol.duals == [F(3), F(0)]
    assert certify(lp, sol.values, sol.duals) == 12


@pytest.mark.parametrize("build", [
    lambda: build_primal_lp(1),  # min with >= rows
    lambda: build_dual_lp(2),  # packing, solved through its transpose
    lambda: RationalLP("min", [F(1)], [([F(1)], GEQ, F(-5))], nonneg=[False]),
    lambda: RationalLP("max", [F(1), F(1)], [([F(-1), F(1)], GEQ, F(-2)),
                                             ([F(1), F(1)], LEQ, F(4))]),
])
def test_certificate_rejects_perturbed_dual(build):
    lp = build()
    sol = solve(lp)
    assert certify(lp, sol.values, sol.duals) == sol.value
    for i in range(lp.num_rows):
        for delta in (F(1, 7), F(-1, 7)):
            y = list(sol.duals)
            y[i] += delta
            with pytest.raises(LPCertificateError):
                certify(lp, sol.values, y)
    x = list(sol.values)
    x[0] += 1
    with pytest.raises(LPCertificateError):
        certify(lp, x, sol.duals)


def test_two_variable_exact():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6
    lp = RationalLP(
        "max",
        [F(3), F(2)],
        [([F(1), F(1)], LEQ, F(4)), ([F(1), F(3)], LEQ, F(6))],
    )
    sol = solve(lp)
    assert sol.value == 12 and sol.values == [F(4), F(0)]


def test_fractional_optimum():
    # max x + y st 2x + y <= 3, x + 2y <= 3 -> x = y = 1, value 2
    lp = RationalLP(
        "max",
        [F(1), F(1)],
        [([F(2), F(1)], LEQ, F(3)), ([F(1), F(2)], LEQ, F(3))],
    )
    sol = solve(lp)
    assert sol.value == 2 and sol.values == [F(1), F(1)]


def test_free_variable():
    lp = RationalLP(
        "min",
        [F(1)],
        [([F(1)], GEQ, F(-5))],
        nonneg=[False],
    )
    sol = solve(lp)
    assert sol.value == -5


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    lp = RationalLP(
        "max",
        [F(10), F(-57), F(-9), F(-24)],
        [
            ([F(1, 2), F(-11, 2), F(-5, 2), F(9)], LEQ, F(0)),
            ([F(1, 2), F(-3, 2), F(-1, 2), F(1)], LEQ, F(0)),
            ([F(1), F(0), F(0), F(0)], LEQ, F(1)),
        ],
    )
    sol = solve(lp)
    assert sol.status == "optimal" and sol.value == 1


def test_solution_is_exactly_feasible():
    lp = build_dual_lp(2)
    sol = solve(lp)
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(c * x for c, x in zip(coeffs, sol.values))
        assert lhs <= rhs if rel == LEQ else lhs >= rhs


def _brute_force_2var_max(objective, rows):
    """Independent oracle: scan all vertices of a 2-variable polytope."""
    # constraints as a*x + b*y <= c, including nonnegativity
    cons = [(a, b, c) for (a, b), c in rows]
    cons += [(-F(1), F(0), F(0)), (F(0), -F(1), F(0))]
    best = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(cons, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if all(a * x + b * y <= c for a, b, c in cons):
            val = objective[0] * x + objective[1] * y
            if best is None or val > best:
                best = val
    return best


def test_regular_lp_d1_against_hand_enumeration():
    # constraints from the four vertex subsets of the 1-cube, by hand:
    # {0}: y0 <= 1; {1}: 0 <= 1; {0,1}: y0 + y1 <= 2; objective 2*y0 + y1
    objective = [F(2), F(1)]
    rows = [((F(1), F(0)), F(1)), ((F(1), F(1)), F(2))]
    expected = _brute_force_2var_max(objective, rows)
    assert expected == 3
    sol = solve(build_regular_lp(1))
    assert sol.value == expected


@pytest.mark.parametrize("d", [0, 1, 2])
def test_strong_duality_primal_vs_dual(d):
    p = solve(build_primal_lp(d))
    q = solve(build_dual_lp(d))
    assert p.status == q.status == "optimal"
    assert p.value == q.value


def test_weak_duality_on_feasible_points():
    primal = build_primal_lp(1)
    dual = build_dual_lp(1)
    p = solve(primal)
    q = solve(dual)
    # any feasible dual objective <= any feasible primal objective
    assert q.value <= p.value
    # scaled-down dual solution stays feasible and below the primal optimum
    half = [x / 2 for x in q.values]
    for coeffs, rel, rhs in dual.rows:
        assert sum(c * x for c, x in zip(coeffs, half)) <= rhs
    assert sum(half) <= p.value


def test_size_guard_names_instance():
    lp = RationalLP("max", [F(1)], [([F(1)], LEQ, F(1))], name="guard-demo")
    with pytest.raises(LPSizeError) as e:
        solve(lp, max_cells=1)
    assert "guard-demo" in str(e.value)


def test_dump_format():
    lp = RationalLP(
        "max",
        [F(1), F(3, 2)],
        [([F(1), F(2)], LEQ, F(5, 3))],
        var_names=["a", "b"],
        name="demo",
    )
    text = dump_lp(lp)
    assert "var a" in text and "var b" in text
    assert "max 1 3/2" in text
    assert "row 1 2 <= 5/3" in text


def test_rejects_malformed():
    with pytest.raises(ValueError):
        RationalLP("max", [F(1)], [([F(1), F(2)], LEQ, F(1))])
    with pytest.raises(ValueError):
        RationalLP("max", [F(1)], [([F(1)], "==", F(1))])
    with pytest.raises(ValueError):
        RationalLP("best", [F(1)], [])
