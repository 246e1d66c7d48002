"""Command-line entry point.

Subcommands: gen, build, query, verify, bounds, oracle, gap-report.
Exit codes: 0 success, 1 domain error (invalid labeling, no common hub,
infeasible instance, an input over its work budget, greedy left pairs
uncovered), 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from decimal import Context
from fractions import Fraction

from . import bounds as bnd
from . import constructions as cons
from .graph import Graph, hypercube, load_graph, parse_graph, save_graph, serialize_graph
from .greedy import GreedyError, greedy_run
from .labeling import (
    NO_COMMON_HUB,
    is_hierarchical,
    load_labeling,
    query,
    save_labeling,
    total_size,
    verify_cover,
)
from .lp import LPCertificateError
from .oracle import brute_optimal_hhl_hypercube, brute_optimal_hl


class DomainError(Exception):
    pass


class OrderFormatError(ValueError):
    """Malformed `--order`: a seed or an order-file line that is not an integer."""


def _load_graph_arg(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return load_graph(path)


def _require_hypercube(g: Graph) -> int:
    if g.is_hypercube is None:
        raise DomainError("this scheme requires a hypercube graph (missing header?)")
    return g.is_hypercube


def _fmt_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    if abs(x) < sys.float_info.max:
        approx = float(x)
    else:  # past the float range, round to 6 digits in decimal, as `g` does
        six = Context(prec=6)
        approx = six.divide(x.numerator, x.denominator).normalize(six)
    return f"{x.numerator}/{x.denominator} (~{approx:.6g})"


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low` (a usage error otherwise)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


def cmd_gen(args) -> int:
    g = hypercube(args.d)
    if args.out:
        save_graph(g, args.out)
    else:
        sys.stdout.write(serialize_graph(g))
    return 0


def cmd_build(args) -> int:
    g = _load_graph_arg(args.graph)
    if args.scheme == "subset-hhl":
        lab = cons.subset_hhl(_require_hypercube(g), graph=g)
    elif args.scheme == "halfsplit-hl":
        lab = cons.halfsplit_hl(_require_hypercube(g), graph=g)
    elif args.scheme == "canonical":
        d = _require_hypercube(g)
        lab = cons.canonical_labeling(d, _parse_order(args.order, d), graph=g)
    elif args.scheme == "greedy":
        lab = greedy_run(g, log=sys.stderr).labeling
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown scheme {args.scheme}")
    save_labeling(lab, args.out)
    print(f"built {args.scheme} labeling: size {total_size(lab)} -> {args.out}")
    return 0


def _parse_order(spec: str, d: int) -> cons.VertexOrder:
    """`--order`: reverse-id, random:<seed>, or a file with one vertex per
    line (least important first; blank and `#` lines skipped)."""
    if spec == "reverse-id":
        return cons.VertexOrder.reverse_id(d)
    if spec.startswith("random:"):
        return cons.VertexOrder.random(d, _order_int(spec.split(":", 1)[1], "random: seed"))
    with open(spec) as f:
        lines = ((lineno, line.strip()) for lineno, line in enumerate(f, start=1))
        seq = [
            _order_int(line.split()[0], f"{spec}: line {lineno}: vertex")
            for lineno, line in lines
            if line and not line.startswith("#")
        ]
    return cons.VertexOrder(seq)


def _order_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise OrderFormatError(f"{where} {token!r} is not an integer") from None


def cmd_query(args) -> int:
    lab = load_labeling(args.labels)
    res = query(lab, args.s, args.t)
    if res is NO_COMMON_HUB:
        print("no common hub")
        return 1
    print(res)
    return 0


def cmd_verify(args) -> int:
    g = _load_graph_arg(args.graph)
    lab = load_labeling(args.labels)
    report = verify_cover(g, lab, sample=args.sample, seed=args.seed)
    rc = 0
    if report.valid:
        print("cover: OK")
    else:
        print(f"cover: FAIL ({len(report.violations)} violations"
              f"{'+' if report.truncated else ''})")
        for s, t in report.violations:
            print(f"  violation: {s} {t}")
        rc = 1
    if args.hierarchy:
        h = is_hierarchical(lab)
        print(f"hierarchical: {'yes' if h.hierarchical else 'no'}")
        if h.witness:
            print("  witness cycle: " + " -> ".join(str(v) for v in h.witness))
    print(f"size: {total_size(lab)}")
    return rc


def cmd_bounds(args) -> int:
    report = bnd.bound_report(args.d, with_lp=args.lp, with_oracle=args.oracle)
    if args.tsv:
        print("k\tN_k\ty_star\tpsi")
        for k, nk, ys, ps in report.table:
            print(f"{k}\t{nk}\t{ys}\t{ps}")
    else:
        print(f"bound report for d={report.d}")
        print(f"{'k':>3} {'N_k':>12} {'y_star':>16} {'psi':>20}")
        for k, nk, ys, ps in report.table:
            print(f"{k:>3} {str(nk):>12} {str(ys):>16} {str(ps):>20}")
        print(f"argmax k = {report.argmax_k}, max psi = {_fmt_rational(report.max_psi)}")
        if report.ropt is not None:
            print(f"ROPT = {_fmt_rational(report.ropt)}")
        if report.lopt is not None:
            print(f"LOPT = {_fmt_rational(report.lopt)}")
        if report.opt is not None:
            print(f"OPT = {report.opt}")
        for line in report.sandwiches or []:
            print(f"sandwich: {line}")
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph_arg(args.graph)
    if args.mode == "hl":
        res = brute_optimal_hl(g)
    else:
        res = brute_optimal_hhl_hypercube(_require_hypercube(g))
    print(f"optimum: {res.size}")
    print(f"nodes explored: {res.nodes_explored}")
    if args.out:
        save_labeling(res.labeling, args.out)
        print(f"witness -> {args.out}")
    return 0


def cmd_gap_report(args) -> int:
    rows = []
    for d in range(args.d_max + 1):
        hhl = 3 ** d
        dedup, formula = cons.halfsplit_sizes(d)
        materialized = d <= args.verify_max
        status = "formula-only"
        if materialized:
            g = hypercube(d)
            sub = cons.subset_hhl(d, graph=g)
            half = cons.halfsplit_hl(d, graph=g)
            if (total_size(sub), total_size(half)) != (hhl, dedup):
                raise DomainError(
                    f"materialized sizes {total_size(sub)}, {total_size(half)} at d={d} "
                    f"differ from the formulas {hhl}, {dedup}"
                )
            sample = None if d <= 8 else args.sample
            ok_s = verify_cover(g, sub, sample=sample, seed=args.seed).valid
            ok_h = verify_cover(g, half, sample=sample, seed=args.seed).valid
            if not (ok_s and ok_h):
                raise DomainError(f"materialized labeling failed cover at d={d}")
            status = "materialized+verified"
        rows.append((d, hhl, dedup, formula, status))
    if args.tsv:
        print("d\thhl_3^d\thalfsplit_dedup\thalfsplit_formula\tstatus")
        for r in rows:
            print("\t".join(str(x) for x in r))
    else:
        print(f"{'d':>3} {'HHL 3^d':>12} {'half-split':>12} {'formula':>12}  status")
        for d, hhl, dedup, formula, status in rows:
            print(f"{d:>3} {hhl:>12} {dedup:>12} {formula:>12}  {status}")
        d, hhl, dedup, _, _ = rows[-1]
        print(
            f"gap at d={d}: HHL lower bound {hhl} vs half-split HL {dedup}"
            + (" (HL smaller)" if dedup < hhl else "")
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hublab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph")
    gsub = g.add_subparsers(dest="kind", required=True)
    gh = gsub.add_parser("hypercube")
    gh.add_argument("--d", type=int, required=True)
    gh.add_argument("--out")
    gh.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="construct a labeling")
    b.add_argument("--scheme", required=True,
                   choices=["subset-hhl", "canonical", "halfsplit-hl", "greedy"])
    b.add_argument("--graph", required=True, help="graph file, or - for stdin")
    b.add_argument("--out", required=True)
    b.add_argument("--order", default="reverse-id",
                   help="canonical scheme: <file>|random:<seed>|reverse-id")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="distance query from labels")
    q.add_argument("--labels", required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="check cover property (and hierarchy)")
    v.add_argument("--graph", required=True)
    v.add_argument("--labels", required=True)
    v.add_argument("--hierarchy", action="store_true")
    v.add_argument("--sample", type=_int_at_least(1), default=None)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    bo = sub.add_parser("bounds", help="psi table and LP bounds")
    bo.add_argument("--d", type=int, required=True)
    bo.add_argument("--lp", action="store_true")
    bo.add_argument("--oracle", action="store_true")
    bo.add_argument("--tsv", action="store_true")
    bo.set_defaults(func=cmd_bounds)

    o = sub.add_parser("oracle", help="brute-force optima on tiny inputs")
    o.add_argument("--graph", required=True)
    o.add_argument("--mode", choices=["hl", "hhl-orders"], default="hl")
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)

    gr = sub.add_parser("gap-report", help="HHL vs half-split HL size table")
    gr.add_argument("--d-max", type=_int_at_least(0), required=True)
    gr.add_argument("--verify-max", type=int, default=12,
                    help="materialize and verify labelings up to this d")
    gr.add_argument("--sample", type=_int_at_least(1), default=2000,
                    help="sampled cover pairs for d > 8")
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--tsv", action="store_true")
    gr.set_defaults(func=cmd_gap_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, GreedyError, LPCertificateError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
