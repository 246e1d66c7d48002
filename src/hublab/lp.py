"""Exact-rational packing and covering programs and a dual simplex solver.

A program is either packing (max c.x, A x <= b, b >= 0, x >= 0) or covering
(min c.z, M z >= r, c >= 0, z >= 0); a packing program is solved as its
covering transpose (min b.y, A^T y >= c). A covering program's surplus basis
is dual-feasible, so Lemke's dual simplex ("The dual method of solving the
linear programming problem", 1954) starts there with no phase 1. Pivoting
follows Bland's rule in its dual form, so the solver terminates on every
input. All arithmetic is over fractions.Fraction; every optimum comes with a
dual vector, and the pair is certified exactly (primal feasibility, dual
feasibility, equal objective values) before it is handed back.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .budget import BudgetError, check

LEQ = "<="
GEQ = ">="

LPSizeError = BudgetError  # the old name of a tableau's refusal


class LPCertificateError(ArithmeticError):
    """A claimed optimum failed its exact primal-dual certificate check."""


@dataclass
class RationalLP:
    """A packing or a covering program over nonnegative variables; any
    other program raises ValueError."""

    sense: str  # "max" (packing) | "min" (covering)
    objective: list  # Fraction per variable
    rows: list  # (coeffs, relation, rhs)
    var_names: Optional[list] = None
    row_names: Optional[list] = None
    name: str = "lp"

    def __post_init__(self):
        self.objective = [Fraction(c) for c in self.objective]
        nv = len(self.objective)
        self.rows = [
            ([Fraction(c) for c in coeffs], rel, Fraction(rhs))
            for coeffs, rel, rhs in self.rows
        ]
        for coeffs, _, _ in self.rows:
            if len(coeffs) != nv:
                raise ValueError(f"{self.name}: row length {len(coeffs)} != {nv} vars")
        packing = self.sense == "max" and all(rel == LEQ and rhs >= 0 for _, rel, rhs in self.rows)
        covering = (
            self.sense == "min"
            and all(rel == GEQ for _, rel, _ in self.rows)
            and all(c >= 0 for c in self.objective)
        )
        if not (packing or covering):
            raise ValueError(
                f"{self.name}: neither a packing program (max, rows <=, rhs >= 0) "
                f"nor a covering program (min, rows >=, costs >= 0)"
            )
        if self.var_names is None:
            self.var_names = [f"x{i}" for i in range(nv)]
        if self.row_names is None:
            self.row_names = [f"r{i}" for i in range(len(self.rows))]

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass
class LPSolution:
    status: str  # "optimal" | "unbounded" (packing) | "infeasible" (covering)
    value: Optional[Fraction] = None
    values: Optional[list] = None  # per-variable, original order
    duals: Optional[list] = None  # per-row multipliers, original order (see `certify`)


def certify(lp: RationalLP, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Exact optimality certificate: x primal-feasible, y dual-feasible, c.x == b.y.

    Every variable and every row multiplier is nonnegative. Dual
    feasibility is A^T y >= c (max) or A^T y <= c (min); with it, weak
    duality bounds every feasible objective by b.y. Returns the common
    objective value; raises LPCertificateError otherwise.
    """
    if len(x) != lp.num_vars or len(y) != lp.num_rows:
        raise LPCertificateError(
            f"{lp.name}: certificate sizes {len(x)}/{len(y)} != "
            f"{lp.num_vars} vars/{lp.num_rows} rows"
        )
    sign = 1 if lp.sense == "max" else -1
    for j, xj in enumerate(x):
        if xj < 0:
            raise LPCertificateError(f"{lp.name}: {lp.var_names[j]} = {xj} < 0")
    reduced = [-c for c in lp.objective]  # A^T y - c
    dual_value = Fraction(0)
    for i, ((coeffs, rel, rhs), yi) in enumerate(zip(lp.rows, y)):
        lhs = sum(c * xj for c, xj in zip(coeffs, x) if c)
        if lhs > rhs if rel == LEQ else lhs < rhs:
            raise LPCertificateError(f"{lp.name}: row {lp.row_names[i]} violated")
        if not yi:
            continue
        if yi < 0:
            raise LPCertificateError(f"{lp.name}: multiplier of {lp.row_names[i]} is negative")
        dual_value += yi * rhs
        for j, c in enumerate(coeffs):
            if c:
                reduced[j] += c * yi
    for j, r in enumerate(reduced):
        if sign * r < 0:
            raise LPCertificateError(f"{lp.name}: dual constraint of {lp.var_names[j]} violated")
    value = sum(c * xj for c, xj in zip(lp.objective, x))
    if value != dual_value:
        raise LPCertificateError(f"{lp.name}: primal {value} != dual {dual_value}")
    return value


def solve(lp: RationalLP) -> LPSolution:
    """Exact optimum by the dual simplex over the program's covering form.

    A covering program is solved as it is; a packing program as its
    transpose, whose tableau has one row per packing variable, with the
    roles of primal values and row multipliers swapped. An optimal result
    is returned only after `certify` accepts the primal-dual pair.
    """
    packing = lp.sense == "max"
    m, n = (lp.num_vars, lp.num_rows) if packing else (lp.num_rows, lp.num_vars)
    check(f"{lp.name}: tableau", (m + 1) * (n + m + 1), "Fraction cells")
    if packing:
        cost = [rhs for _, _, rhs in lp.rows]
        matrix = [[coeffs[j] for coeffs, _, _ in lp.rows] for j in range(lp.num_vars)]
        demand = lp.objective
    else:
        cost = lp.objective
        matrix = [coeffs for coeffs, _, _ in lp.rows]
        demand = [rhs for _, _, rhs in lp.rows]
    result = _dual_simplex(cost, matrix, demand)
    if result is None:
        # the origin is feasible for a packing program, so an infeasible
        # transpose means an unbounded packing program
        return LPSolution(status="unbounded" if packing else "infeasible")
    z, w = result
    x, y = (w, z) if packing else (z, w)
    return LPSolution(status="optimal", value=certify(lp, x, y), values=x, duals=y)


def _dual_simplex(cost: list, matrix: list, demand: list) -> Optional[tuple]:
    """min cost.z subject to matrix z >= demand, z >= 0, for cost >= 0.

    Returns (z, row multipliers), or None when the program is infeasible.
    The tableau row of constraint i is -matrix[i] z + s_i = -demand[i] over
    the columns z, then s, then the right-hand side, with the surplus s as
    the start basis; the last row holds the reduced costs, starting from
    `cost`, and stays nonnegative. Bland's rule in dual form: the leaving
    row is the negative one whose basic variable has the lowest column; the
    entering column has the least ratio rc_j / -a_j, the lowest on ties.
    """
    m, n = len(matrix), len(cost)
    width = n + m + 1
    zero, one = Fraction(0), Fraction(1)
    tab = []
    for i, (coeffs, r) in enumerate(zip(matrix, demand)):
        row = [-a for a in coeffs] + [zero] * (m + 1)
        row[n + i] = one
        row[-1] = -r
        tab.append(row)
    tab.append(list(cost) + [zero] * (m + 1))
    basis = list(range(n, n + m))
    while True:
        pr = min((i for i in range(m) if tab[i][-1] < 0), key=basis.__getitem__, default=-1)
        if pr < 0:
            break
        prow, rc = tab[pr], tab[m]
        pc, best = -1, None
        for j in range(n + m):
            a = prow[j]
            if a < 0:
                ratio = rc[j] / -a
                if best is None or ratio < best:
                    pc, best = j, ratio
        if pc < 0:
            return None
        inv = 1 / prow[pc]
        nonzero = [j for j in range(width) if prow[j]]
        for j in nonzero:
            prow[j] *= inv
        for i, row in enumerate(tab):
            f = row[pc]
            if f and i != pr:
                for j in nonzero:
                    row[j] -= f * prow[j]
        basis[pr] = pc
    z = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            z[b] = tab[i][-1]
    return z, tab[m][n:n + m]
