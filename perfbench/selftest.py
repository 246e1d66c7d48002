"""Shows that the benchmark's checks count wrong outputs as failed operations.

    python3 perfbench/selftest.py

Feeds the checks a subset labeling of Q4 with one corrupted stored
distance, and a wrong ROPT value, next to their correct counterparts.
Exits 0 when the correct inputs pass and both faults are counted as failed.
"""
from __future__ import annotations

import sys
from array import array

from run import import_hublab

import_hublab()  # puts this checkout's src/ on the path for the imports below

from hublab import bounds, labeling  # noqa: E402

import refcheck  # noqa: E402
import spans  # noqa: E402
from workloads import ExactSmall, check_answers, run_queries  # noqa: E402


def subset_labels(d: int):
    """L(v) = every bit-subset h of v, at distance popcount(v) - popcount(h)."""
    return [[(h, refcheck.hamming(v, h)) for h in range(v + 1) if h & ~v == 0]
            for v in range(1 << d)]


def query_failures(labels, d: int) -> int:
    checker = refcheck.Checker()
    lab = labeling.Labeling(labels)
    n = 1 << d
    pairs = [(s, t) for s in range(n) for t in range(n)]
    answers = array("i")
    run_queries(lab, pairs, array("q"), answers)
    check_answers(checker, answers, pairs, refcheck.hamming)
    _, _, fault = refcheck.check_label_text(
        labeling.serialize_labeling(lab).splitlines(), n, refcheck.hamming)
    checker.op("build", not fault, fault)
    return checker.failed


def bound_failures(ropt_shift: int) -> int:
    checker = refcheck.Checker()
    exact = ExactSmall(seed=1, workdir="", tracer=spans.Tracer([]))
    d = 2
    rep = bounds.bound_report(d, with_lp=True, with_oracle=True)
    exact.check_bounds(checker, d, rep.ropt + ropt_shift, rep.lopt, rep.opt, rep.max_psi)
    return checker.failed


def main() -> int:
    d = 4
    labels = subset_labels(d)
    corrupted = [list(lab) for lab in labels]
    v = (1 << d) - 1
    corrupted[v][0] = (0, 2)  # hub 0 of the all-ones vertex is at distance d, not 2
    results = {
        "correct labeling": (query_failures(labels, d), False),
        "one corrupted stored distance": (query_failures(corrupted, d), True),
        "correct ROPT": (bound_failures(0), False),
        "ROPT off by one": (bound_failures(1), True),
    }
    ok = True
    for what, (failed, should_fail) in results.items():
        good = (failed > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {what}: {failed} failed operation(s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
