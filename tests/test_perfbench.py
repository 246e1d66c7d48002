"""The benchmark's contract with hublab, checked in the test suite.

perfbench/ reads labelings through `Labeling(...)`, `lab.labels`,
`query`, `total_size` and `serialize_labeling`; a change to the store that
breaks one of these fails here, not first in a benchmark run.
"""
import os
import subprocess
import sys

from hublab.constructions import subset_hhl

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_selftest_counts_faults():
    proc = subprocess.run(
        [sys.executable, "selftest.py"], cwd=PERFBENCH,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok  ") == 4


def test_hub_lists_reads_labels(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    d = 4
    expect = [[h for h in range(v + 1) if h & ~v == 0] for v in range(1 << d)]
    assert workloads.hub_lists(subset_hhl(d)) == expect
