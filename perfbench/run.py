"""Benchmark for hublab: oracle preprocessing, query serving and exact bounds.

    python3 perfbench/run.py --workload cube-serve --seed 1 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a source checkout: hublab is imported from `src/`.
One workload runs in one process on one thread, as a closed loop with one
client. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics, and the spans go to `perfbench/out/`. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import defaultdict
from typing import NamedTuple

import speed

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, "work")
NAMES = ("cube-pipeline", "cube-serve", "exact-small")
SETUP_REPS = 5


class Round(NamedTuple):
    traced: bool
    span: tuple[float, float]  # perf_counter at its start and end
    output: object
    latencies: "Latencies"


class Latencies:
    """Per-call query times in ns, in batches, each with the interval it ran in."""

    def __init__(self):
        self.batches: list[tuple[str, float, float, array]] = []

    @contextlib.contextmanager
    def batch(self, *kinds: str):
        """One series per kind of labeling queried in the batch."""
        series = tuple(array("q") for _ in kinds)
        t0 = time.perf_counter()
        yield series
        t1 = time.perf_counter()
        self.batches += [(k, t0, t1, x) for k, x in zip(kinds, series)]


def declared(key: str):
    """The value BENCHMARK.json gives `key`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[key]


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under `section`."""
    return {m["name"]: m["unit"] for m in declared(section)}


def import_hublab():
    """Import hublab from this checkout's sources, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import hublab
    except ImportError as e:
        sys.exit(f"error: cannot import hublab from {SRC}: {e}")
    if not os.path.abspath(hublab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: hublab was imported from {hublab.__file__}, not from {SRC}")


def by_kind(rounds, probe=None) -> dict[str, list]:
    """Query latencies in ns of the given rounds, by kind of labeling.

    With a probe, each batch is scaled to reference speed.
    """
    out: dict[str, list] = {}
    for r in rounds:
        for kind, t0, t1, series in r.latencies.batches:
            if probe:
                f = probe.factor(t0, t1)
                series = [x * f for x in series]
            out.setdefault(kind, []).extend(series)
    return out


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import_hublab()
    import refcheck
    import spans
    from workloads import WORKLOADS

    tracer = spans.hublab_tracer()
    # The untraced run scales its times to reference speed (see speed.py);
    # the traced run reports plain seconds and runs no probe.
    probe = None if traced else speed.SpeedProbe()
    clock = time.perf_counter
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        wl = WORKLOADS[name](seed, workdir, tracer)
        checker = refcheck.Checker()
        setups = []

        def set_up():
            t0 = clock()
            state = wl.setup()
            setups.append((t0, clock()))
            tracer.stop()
            wl.check_setup(state, checker)
            return state

        if probe:
            probe.start()
        if traced:
            tracer.start("setup")
        state = set_up()
        # Rounds repeat until `seconds` have passed. A traced run alternates
        # untraced and traced rounds, at least one of each, to measure overhead.
        rounds: list[Round] = []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or (traced and len(rounds) < 2)):
            trace_this = traced and len(rounds) % 2 == 1
            if trace_this:
                tracer.start(f"round{len(rounds)}")
            lat = Latencies()
            t0 = clock()
            output = wl.round(state, lat)
            rounds.append(Round(trace_this, (t0, clock()), output, lat))
            tracer.stop()
        # The rounds use the first set-up, built in a fresh heap; the others
        # are timed after them, each after the previous one is dropped.
        for _ in range(0 if traced else SETUP_REPS - 1):
            state = None
            state = set_up()
        if probe:
            probe.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        wl.check(state, [r.output for r in rounds], checker)
        if traced:
            metrics, notes = layer_metrics(wl, state, tracer, rounds)
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            tracer.write(path, {"workload": name, "seed": seed, "metrics": metrics})
            notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
        else:
            metrics, notes = end_to_end_metrics(probe, setups, rounds, peak_rss_mb)
    finally:
        if probe:
            probe.stop()
        tracer.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units("per_layer" if traced else "end_to_end")
    return {
        "notes": notes + checker.failures,
        "result": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
        },
    }


def end_to_end_metrics(probe, setups, rounds, peak_rss_mb):
    """The untraced metrics, times at reference speed, with the plain ones in the notes."""
    def plain(span):
        return span[1] - span[0]

    # The median is taken per kind of labeling and then averaged: a median
    # pooled over kinds whose latencies differ twofold sits between them,
    # where it moves with the tails of both.
    p50 = {k: statistics.median(v) / 1000 for k, v in by_kind(rounds, probe).items()}
    samples = by_kind(rounds)
    plain_p50 = {k: statistics.median(v) / 1000 for k, v in samples.items()}
    metrics = {
        "setup_s": statistics.median(probe.scaled(*s) for s in setups),
        "wall_s": statistics.median(probe.scaled(*r.span) for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "query_p50_us": statistics.fmean(p50.values()),
    }
    speeds = probe.factors()
    notes = [
        "at reference speed: set-ups " + " ".join(f"{probe.scaled(*s):.4g}" for s in setups)
        + " s; rounds {:.4g} to {:.4g} s".format(
            *(f(probe.scaled(*r.span) for r in rounds) for f in (min, max))),
        f"{len(setups)} set-ups, {len(rounds)} rounds; query p50 " + ", ".join(
            f"{k} {p50[k]:.4g} us of {len(v)} samples" for k, v in samples.items()),
        f"plain time, probes included: set-up {statistics.median(map(plain, setups)):.4g} s, "
        f"round {statistics.median(plain(r.span) for r in rounds):.4g} s, query p50 "
        + ", ".join(f"{k} {v:.4g} us" for k, v in plain_p50.items()),
        f"{len(probe.at)} speed probes: local speed {min(speeds):.3g} to {max(speeds):.3g}, "
        f"median {statistics.median(speeds):.3g} of reference",
    ]
    return metrics, notes


def layer_metrics(wl, state, tracer, rounds):
    """Per-layer figures for one set-up plus one timed round (the mean over traced rounds)."""
    traced = [r for r in rounds if r.traced]
    per_round = {"setup": 1.0}
    per_round.update((f"round{i}", 1 / len(traced)) for i, r in enumerate(rounds) if r.traced)
    metrics: dict[str, float] = defaultdict(float)
    for (phase, name), secs in tracer.self_times().items():
        metrics[name + "_s"] += secs * per_round[phase]
    for (phase, key), value in tracer.counters.items():
        if key in tracer.highs:
            metrics[key] = max(metrics[key], value)
        else:
            metrics[key] += value * per_round[phase]

    latencies = by_kind(traced)
    p50 = defaultdict(list)  # scheme -> median of each kind built by it
    for kind, series in latencies.items():
        p50[kind.split("/")[0]].append(statistics.median(series) / 1000)
    for scheme, medians in p50.items():
        metrics[f"labeling.query_{scheme}_p50_us"] = statistics.fmean(medians)
    pooled = sorted(x for series in latencies.values() for x in series)
    if pooled:
        metrics["labeling.queries"] = len(pooled) / len(traced)
        metrics["labeling.query_p99_us"] = percentile(pooled, 99) / 1000
        metrics["labeling.query_p99_samples"] = len(pooled)
        metrics["labeling.hubs_merged"] = wl.hubs_merged(state)

    wall = statistics.median(r.span[1] - r.span[0] for r in traced)
    untraced = statistics.median(r.span[1] - r.span[0] for r in rounds if not r.traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced
    notes = [f"traced round {wall:.4f} s vs untraced {untraced:.4f} s: "
             f"overhead {wall - untraced:+.4f} s over {len(traced)} traced round(s)"]
    return metrics, notes


def print_result(out: dict, prefix: str = "") -> None:
    for note in out["notes"]:
        print(f"# {prefix}{note}")
    for k, m in out["result"]["metrics"].items():
        print(f"{prefix}{k} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for k, m in res["metrics"].items():
                summary["metrics"][f"{name}.{k}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = declared("run_seconds")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(out, prefix=f"{args.workload} ")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
