from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab import budget
from hublab.bounds import build_dual_lp, build_primal_lp, build_regular_lp
from hublab.lp import (
    GEQ,
    LEQ,
    LPCertificateError,
    LPSizeError,
    RationalLP,
    certify,
    solve,
)

F = Fraction


def _transpose(lp):
    """The covering dual of a packing program: min b.y, A^T y >= c, y >= 0."""
    return RationalLP(
        "min",
        [rhs for _, _, rhs in lp.rows],
        [([coeffs[j] for coeffs, _, _ in lp.rows], GEQ, c) for j, c in enumerate(lp.objective)],
        name=f"{lp.name}^T",
    )


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
    # covering programs with a row that no nonnegative point satisfies
    for bad in ([F(-1), F(0)], [F(0), F(0)]):
        lp = RationalLP("min", [F(1), F(1)], [([F(1), F(1)], GEQ, F(1)), (bad, GEQ, F(1))])
        assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = RationalLP("max", [F(1)], [])
    assert solve(lp).status == "unbounded"


def test_unbounded_packing_solved_through_transpose():
    # the covering transpose is infeasible: its first row asks 0 >= 1
    lp = RationalLP(
        "max",
        [F(1), F(1)],
        [([F(1), F(0)], LEQ, F(1)), ([F(1), F(0)], LEQ, F(2)), ([F(2), F(0)], LEQ, F(3))],
    )
    assert solve(lp).status == "unbounded"


@pytest.mark.parametrize("build", [lambda: build_regular_lp(3), lambda: build_dual_lp(2)])
def test_transposed_packing_matches_direct_solve(build):
    # the explicit covering transpose reaches the same optimum, and its
    # row multipliers are an optimal packing solution
    lp = build()
    sol = solve(lp)
    tsol = solve(_transpose(lp))
    assert tsol.status == "optimal" and tsol.value == sol.value
    assert certify(lp, tsol.duals, tsol.values) == sol.value


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
    # covering: optimum (1, 1) with both multipliers 1
    lambda: RationalLP("min", [F(2), F(3)], [([F(1), F(1)], GEQ, F(2)),
                                             ([F(1), F(2)], GEQ, F(3))]),
    # packing with a zero right-hand side: optimum (1, 1), multipliers 1/3, 2/3
    lambda: RationalLP("max", [F(1), F(1)], [([F(1), F(-1)], LEQ, F(0)),
                                             ([F(1), F(2)], LEQ, F(3))]),
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


def test_bland_entering_column_lowest_on_ties():
    # first pivot: x1 and x2 tie at ratio 0; the lowest column, x1, enters
    lp = RationalLP(
        "min",
        [F(1), F(0), F(0)],
        [
            ([F(0), F(1), F(2)], GEQ, F(1)),
            ([F(1), F(1), F(1)], GEQ, F(1)),
            ([F(2), F(0), F(2)], GEQ, F(0)),
        ],
    )
    sol = solve(lp)
    assert sol.value == 0
    assert sol.values == [F(0), F(1), F(0)]
    assert sol.duals == [F(0), F(0), F(0)]


def test_bland_leaving_row_lowest_basic_column():
    # both rows start negative; the row whose surplus has the lower column leaves
    lp = RationalLP("min", [F(1), F(2)], [([F(2), F(2)], GEQ, F(1)), ([F(2), F(1)], GEQ, F(1))])
    sol = solve(lp)
    assert sol.value == F(1, 2)
    assert sol.values == [F(1, 2), F(0)]
    assert sol.duals == [F(1, 2), F(0)]


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


def test_size_guard_names_instance(monkeypatch):
    monkeypatch.setitem(budget.LIMITS, "Fraction cells", 1)
    lp = RationalLP("max", [F(1)], [([F(1)], LEQ, F(1))], name="guard-demo")
    with pytest.raises(LPSizeError) as e:
        solve(lp)
    assert "guard-demo" in str(e.value)


def test_rejects_malformed():
    with pytest.raises(ValueError):
        RationalLP("max", [F(1)], [([F(1), F(2)], LEQ, F(1))])
    with pytest.raises(ValueError):
        RationalLP("max", [F(1)], [([F(1)], "==", F(1))])
    with pytest.raises(ValueError):
        RationalLP("best", [F(1)], [])
    # only packing and covering programs: mixed relations, a packing program
    # with a negative right-hand side, a covering one with a negative cost
    for sense, objective, rows in (
        ("max", [1, 1], [([1, 0], LEQ, 1), ([0, 1], GEQ, 1)]),
        ("max", [1], [([1], LEQ, -1)]),
        ("min", [1, -1], [([1, 1], GEQ, 1)]),
        ("min", [1], [([1], LEQ, 1)]),
    ):
        with pytest.raises(ValueError, match="shape-demo: neither a packing program"):
            RationalLP(sense, objective, rows, name="shape-demo")


def _improving_ray_2var(objective, rows):
    """Whether max objective.x over {x >= 0, rows} has a ray r >= 0 with
    a.r <= 0 on every row and objective.r > 0; in two dimensions every
    extreme ray lies on an axis or on a line a.r = 0."""
    candidates = [(F(1), F(0)), (F(0), F(1))]
    for (a, b), _ in rows:
        candidates += [(b, -a), (-b, a)]
    return any(
        r != (0, 0) and min(r) >= 0
        and all(a * r[0] + b * r[1] <= 0 for (a, b), _ in rows)
        and objective[0] * r[0] + objective[1] * r[1] > 0
        for r in candidates
    )


small = st.integers(-3, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(small, small),
    st.lists(st.tuples(st.tuples(small, small), st.integers(0, 4)), max_size=5),
)
def test_two_variable_packing_against_vertex_enumeration(objective, rows):
    objective = [F(c) for c in objective]
    rows = [((F(a), F(b)), F(c)) for (a, b), c in rows]
    lp = RationalLP("max", objective, [(list(coeffs), LEQ, rhs) for coeffs, rhs in rows])
    sol = solve(lp)
    if sol.status == "unbounded":
        assert _improving_ray_2var(objective, rows)
    else:
        assert sol.status == "optimal"
        assert sol.value == _brute_force_2var_max(objective, rows)


@st.composite
def packing_programs(draw):
    nv = draw(st.integers(1, 4))
    objective = draw(st.lists(small, min_size=nv, max_size=nv))
    rows = draw(st.lists(
        st.tuples(st.lists(small, min_size=nv, max_size=nv), st.integers(0, 4)), max_size=6))
    return RationalLP("max", objective, [(coeffs, LEQ, rhs) for coeffs, rhs in rows])


@settings(max_examples=300, deadline=None)
@given(packing_programs())
def test_packing_and_its_covering_transpose_agree(lp):
    sol = solve(lp)
    tsol = solve(_transpose(lp))
    assert (sol.status == "unbounded") == (tsol.status == "infeasible")
    if sol.status == "optimal":
        assert tsol.status == "optimal" and sol.value == tsol.value
        assert certify(lp, sol.values, sol.duals) == sol.value
        assert certify(_transpose(lp), tsol.values, tsol.duals) == sol.value
