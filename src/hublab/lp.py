"""Exact-rational linear programs and a dense two-phase simplex solver.

All arithmetic is over fractions.Fraction; no floating point. Pivoting uses
Bland's rule, so the solver terminates on every input. Every optimum comes
with a dual vector, and the pair is certified exactly (primal feasibility,
dual feasibility, equal objective values) before it is handed back.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

Rational = Fraction

LEQ = "<="
GEQ = ">="

DEFAULT_MAX_CELLS = 3_000_000


class LPSizeError(ValueError):
    """Instance exceeds the configured tableau-size guard."""


class LPCertificateError(ArithmeticError):
    """A claimed optimum failed its exact primal-dual certificate check."""


@dataclass
class RationalLP:
    sense: str  # "min" | "max"
    objective: list  # Fraction per variable
    rows: list  # (coeffs, relation, rhs)
    nonneg: Optional[list] = None  # per-variable nonnegativity, default all True
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
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != nv:
                raise ValueError(f"{self.name}: row length {len(coeffs)} != {nv} vars")
            if rel not in (LEQ, GEQ):
                raise ValueError(f"{self.name}: unknown relation {rel!r}")
        if self.sense not in ("min", "max"):
            raise ValueError(f"{self.name}: sense must be min or max")
        if self.nonneg is None:
            self.nonneg = [True] * nv
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
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction] = None
    values: Optional[list] = None  # per-variable, original order
    assignment: dict = field(default_factory=dict)  # var name -> Fraction
    duals: Optional[list] = None  # per-row multipliers, original order (see `certify`)


def certify(lp: RationalLP, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Exact optimality certificate: x primal-feasible, y dual-feasible, c.x == b.y.

    Sign convention for the multiplier y_i of row i: y_i >= 0 on the rows
    whose relation suits the sense (<= in a max program, >= in a min one)
    and y_i <= 0 on the others. Dual feasibility is A^T y >= c (max) or
    A^T y <= c (min) on nonnegative variables and A^T y == c on free ones;
    with it, weak duality bounds every feasible objective by b.y. Returns
    the common objective value; raises LPCertificateError otherwise.
    """
    if len(x) != lp.num_vars or len(y) != lp.num_rows:
        raise LPCertificateError(
            f"{lp.name}: certificate sizes {len(x)}/{len(y)} != "
            f"{lp.num_vars} vars/{lp.num_rows} rows"
        )
    sign = 1 if lp.sense == "max" else -1
    natural = LEQ if lp.sense == "max" else GEQ
    for j, (flag, xj) in enumerate(zip(lp.nonneg, x)):
        if flag and xj < 0:
            raise LPCertificateError(f"{lp.name}: {lp.var_names[j]} = {xj} < 0")
    reduced = [-c for c in lp.objective]  # A^T y - c
    dual_value = Fraction(0)
    for i, ((coeffs, rel, rhs), yi) in enumerate(zip(lp.rows, y)):
        lhs = sum(c * xj for c, xj in zip(coeffs, x) if c)
        if lhs > rhs if rel == LEQ else lhs < rhs:
            raise LPCertificateError(f"{lp.name}: row {lp.row_names[i]} violated")
        if not yi:
            continue
        if (yi < 0) == (rel == natural):
            raise LPCertificateError(f"{lp.name}: multiplier of {lp.row_names[i]} has the wrong sign")
        dual_value += yi * rhs
        for j, c in enumerate(coeffs):
            if c:
                reduced[j] += c * yi
    for j, (flag, r) in enumerate(zip(lp.nonneg, reduced)):
        if sign * r < 0 if flag else r != 0:
            raise LPCertificateError(f"{lp.name}: dual constraint of {lp.var_names[j]} violated")
    value = sum(c * xj for c, xj in zip(lp.objective, x))
    if value != dual_value:
        raise LPCertificateError(f"{lp.name}: primal {value} != dual {dual_value}")
    return value


def _is_packing(lp: RationalLP) -> bool:
    """max c.x, every row <= with rhs >= 0, x >= 0: the origin is feasible."""
    return lp.sense == "max" and all(lp.nonneg) and all(
        rel == LEQ and rhs >= 0 for _, rel, rhs in lp.rows
    )


def _transpose(lp: RationalLP) -> RationalLP:
    """The dual of a packing program: min b.z subject to A^T z >= c, z >= 0."""
    return RationalLP(
        sense="min",
        objective=[rhs for _, _, rhs in lp.rows],
        rows=[
            ([coeffs[j] for coeffs, _, _ in lp.rows], GEQ, c)
            for j, c in enumerate(lp.objective)
        ],
        name=f"{lp.name}^T",
    )


def solve(lp: RationalLP, max_cells: int = DEFAULT_MAX_CELLS) -> LPSolution:
    """Exact optimum by two-phase tableau simplex with Bland's rule.

    A packing program with more rows than variables is solved through its
    transpose, whose tableau has one row per variable; its dual vector is the
    primal solution. An optimal result is returned only after `certify`
    accepts the primal-dual pair.
    """
    if _is_packing(lp) and lp.num_rows > lp.num_vars:
        status, y, x = _simplex(_transpose(lp), max_cells)
        if status == "infeasible":
            # the origin is primal-feasible, so an infeasible dual means an
            # unbounded primal
            return LPSolution(status="unbounded")
        if status == "unbounded":
            raise LPCertificateError(f"{lp.name}: dual unbounded although the origin is feasible")
    else:
        status, x, y = _simplex(lp, max_cells)
        if status != "optimal":
            return LPSolution(status=status)
    return LPSolution(
        status="optimal",
        value=certify(lp, x, y),
        values=x,
        assignment={name: xi for name, xi in zip(lp.var_names, x)},
        duals=y,
    )


def _simplex(lp: RationalLP, max_cells: int) -> tuple[str, Optional[list], Optional[list]]:
    """(status, primal values, row multipliers); the vectors only when optimal."""
    # free variables are split into a difference of two nonnegative ones
    split = []  # column index of the negative part, or None
    col_of_var = []
    ncols = 0
    for flag in lp.nonneg:
        col_of_var.append(ncols)
        if flag:
            split.append(None)
            ncols += 1
        else:
            split.append(ncols + 1)
            ncols += 2

    m = lp.num_rows
    est_cells = (m + 2) * (ncols + 2 * m + 1)
    if est_cells > max_cells:
        raise LPSizeError(
            f"{lp.name}: tableau of ~{est_cells} cells exceeds guard {max_cells}"
        )

    maximize = lp.sense == "max"
    obj = [Fraction(0)] * ncols
    for j, c in enumerate(lp.objective):
        cc = c if maximize else -c
        obj[col_of_var[j]] += cc
        if split[j] is not None:
            obj[split[j]] -= cc

    # build rows with rhs >= 0
    Z = Fraction(0)
    rows = []
    flipped = []
    for coeffs, rel, rhs in lp.rows:
        r = [Z] * ncols
        for j, c in enumerate(coeffs):
            if c:
                r[col_of_var[j]] += c
                if split[j] is not None:
                    r[split[j]] -= c
        flipped.append(rhs < 0)
        if rhs < 0:
            r = [-c for c in r]
            rhs = -rhs
            rel = GEQ if rel == LEQ else LEQ
        rows.append((r, rel, rhs))

    # slack / surplus / artificial columns
    nslack = len(rows)
    art_cols = []
    tab = []
    basis = []
    total = ncols + nslack  # artificials appended after
    for i, (r, rel, rhs) in enumerate(rows):
        row = list(r) + [Z] * nslack
        if rel == LEQ:
            row[ncols + i] = Fraction(1)
            basis.append(ncols + i)
            art_cols.append(None)
        else:
            row[ncols + i] = Fraction(-1)
            art_cols.append(True)  # placeholder, column index assigned below
            basis.append(None)
        row.append(rhs)
        tab.append(row)

    n_art = sum(1 for a in art_cols if a)
    if n_art:
        k = 0
        for i, a in enumerate(art_cols):
            row = tab[i]
            row.pop()  # rhs back out
            cols = [Z] * n_art
            if a:
                cols[k] = Fraction(1)
                basis[i] = total + k
                k += 1
            tab[i] = row + cols + [rows[i][2]]
        total += n_art

    ncols_t = total  # structural+slack+artificial columns (rhs is last)

    def pivot(pr: int, pc: int) -> None:
        prow = tab[pr]
        inv = Fraction(1) / prow[pc]
        tab[pr] = prow = [c * inv for c in prow]
        for i, row in enumerate(tab):
            if i != pr and row[pc]:
                f = row[pc]
                tab[i] = [a - f * b for a, b in zip(row, prow)]
        basis[pr] = pc

    def run_phase(costs: list) -> Optional[list]:
        """Maximize costs.x with Bland's rule; the final reduced-cost row, or
        None when unbounded."""
        # reduced costs maintained as an explicit objective row
        zrow = list(costs) + [Z]
        for i, b in enumerate(basis):
            if zrow[b]:
                f = zrow[b]
                zrow = [a - f * c for a, c in zip(zrow, tab[i])]
        while True:
            pc = -1
            for j in range(ncols_t):
                if zrow[j] > 0:
                    pc = j
                    break
            if pc < 0:
                return zrow
            pr = -1
            best = None
            for i, row in enumerate(tab):
                if row[pc] > 0:
                    ratio = row[-1] / row[pc]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[pr]
                    ):
                        best = ratio
                        pr = i
            if pr < 0:
                return None
            pivot(pr, pc)
            f = zrow[pc]
            if f:
                zrow = [a - f * c for a, c in zip(zrow, tab[pr])]

    if n_art:
        phase1 = [Z] * ncols_t
        for j in range(total - n_art, total):
            phase1[j] = Fraction(-1)
        if run_phase(phase1) is None:
            raise LPCertificateError(f"{lp.name}: phase 1 reported unbounded, but is bounded by 0")
        art_value = sum(tab[i][-1] for i, b in enumerate(basis) if b >= total - n_art)
        if art_value != 0:
            return "infeasible", None, None
        # drive remaining artificials out of the basis where possible
        for i in range(len(basis)):
            if basis[i] >= total - n_art:
                for j in range(total - n_art):
                    if tab[i][j]:
                        pivot(i, j)
                        break
        # zero out artificial columns so they can never re-enter
        for row in tab:
            for j in range(total - n_art, total):
                row[j] = Z
    phase2 = list(obj) + [Z] * (ncols_t - ncols)
    zrow = run_phase(phase2)
    if zrow is None:
        return "unbounded", None, None

    xcols = [Z] * ncols_t
    for i, b in enumerate(basis):
        xcols[b] = tab[i][-1]
    x = []
    for j in range(lp.num_vars):
        v = xcols[col_of_var[j]]
        if split[j] is not None:
            v -= xcols[split[j]]
        x.append(v)
    # The multiplier of tableau row i is (c_B B^-1)_i, read off the reduced
    # cost of its slack (-pi_i) or surplus (+pi_i) column; it changes sign
    # with a flipped row and, for a min program, with the negated objective.
    y = []
    for i, (_, rel, _) in enumerate(rows):
        pi = -zrow[ncols + i] if rel == LEQ else zrow[ncols + i]
        y.append(-pi if flipped[i] != (not maximize) else pi)
    return "optimal", x, y


def dump_lp(lp: RationalLP) -> str:
    """Plain-text listing for debugging and golden tests."""
    lines = [f"# {lp.name}"]
    for name in lp.var_names:
        lines.append(f"var {name}")
    lines.append(f"{lp.sense} " + " ".join(str(c) for c in lp.objective))
    for coeffs, rel, rhs in lp.rows:
        lines.append("row " + " ".join(str(c) for c in coeffs) + f" {rel} {rhs}")
    return "\n".join(lines) + "\n"
