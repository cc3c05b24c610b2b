#!/usr/bin/env python3
"""End-to-end tuning benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload pool_dup --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole units of the workload for ``--seconds`` seconds
(and at least the workload's minimum unit count) with nothing wrapped, and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced units, records spans around each layer's public entry points in the
traced ones, and reports the per-layer metrics.  Both check the library's
answers after the timed window.  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A failed output check prints ``"correct": false`` and exits with code 1.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"  # scratch files of one run, removed at its end
OUT = ".perfbench_out"  # span files of traced runs, kept

#: ``setup_s`` is the median of SETUP_SAMPLES cold set-ups (``coldstart.py``:
#: a fresh interpreter imports the library and builds the system), taken
#: between units once the workload's minimum units are done and spread over
#: the rest of the run.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def _quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation (q=0.5 is the median)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cold_setup(workload, seed: int, workdir: str) -> float:
    """Seconds one fresh interpreter takes to import and build the system."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "coldstart.py"), "--workload", workload.name,
         "--seed", str(seed), "--workdir", workdir],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# --------------------------------------------------------------------------- #
def end_to_end(workload, seconds: float, seed: int, workdir: str):
    def cold_setup():
        cold_dir = os.path.join(workdir, f"cold-{len(setups)}")
        setups.append(_cold_setup(workload, seed, cold_dir))

    system = workload.setup()
    units, setups = [], []
    try:
        start = time.perf_counter()
        next_setup = spacing = None
        while len(units) < workload.min_units or time.perf_counter() - start < seconds:
            if next_setup is not None and len(setups) < SETUP_SAMPLES and time.perf_counter() >= next_setup:
                cold_setup()
                next_setup += spacing
            units.append(workload.unit(system, len(units)))
            if len(units) == workload.min_units:
                # Read after a fixed amount of work (the daemon's journal
                # grows with every answered request) and before the first
                # cold set-up, whose interpreter would count as a child.
                peak = _peak_rss_mb()
                next_setup = time.perf_counter()
                spacing = max(0.0, start + seconds - next_setup) / SETUP_SAMPLES
        while len(setups) < SETUP_SAMPLES:
            cold_setup()
    finally:
        workload.teardown(system)
    workload.check(units)
    print(f"{workload.name} unit walls (s): {' '.join(f'{u.wall:.4f}' for u in units)}")

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    walls = [u.wall for u in units]

    def latency(q):
        # Per unit, then the median over units, so a slow stretch of the
        # host moves few units instead of the tail of the pooled requests.
        # With nothing answered, a request waited the whole unit.
        return statistics.median(_quantile(u.latencies or [u.wall], q) for u in units)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "requests_per_s": (statistics.median(u.answered / u.wall for u in units), "1/s"),
        "latency_p50_s": (latency(0.5), "s"),
        "latency_p90_s": (latency(0.9), "s"),
        "success_rate": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (peak, "MiB"),
        "tuned_speedup_vs_cudnn": (workload.quality(units), "ratio"),
    }
    return attempted, failed, metrics


# --------------------------------------------------------------------------- #
def traced(workload, seconds: float, seed: int):
    from repro.service import TuningRequest, request_from_wire, request_id

    from tracing import SpanRecorder, SpanSummary, root_time, summarise

    def request_key(ref):
        if isinstance(ref, TuningRequest):
            return request_id(ref)
        if isinstance(ref, dict):  # a wire op
            if "rid" in ref:
                return str(ref["rid"])
            if "request" in ref:
                return request_id(request_from_wire(dict(ref["request"])))
        return ref if isinstance(ref, str) else None

    os.makedirs(OUT, exist_ok=True)
    recorder = SpanRecorder(OUT, request_key)
    if hasattr(workload, "on_backoff"):
        def on_backoff(start, end):
            if recorder.installed:
                recorder.record("frontend.backoff", start, end)
        workload.on_backoff = on_backoff

    recorder.install()
    try:
        system = workload.setup()
    finally:
        recorder.uninstall()
    setup_spans, recorder.spans = recorder.spans, []

    plain, wrapped = [], []
    try:
        start = time.perf_counter()
        pair = 0
        while pair < workload.min_trace_pairs or time.perf_counter() - start < seconds:
            first, second = workload.trace_indices(pair)
            plain.append(workload.unit(system, first))
            recorder.install()
            try:
                wrapped.append(workload.unit(system, second))
            finally:
                recorder.uninstall()
            recorder.collect_children()
            pair += 1
    finally:
        workload.teardown(system)
    workload.check(plain + wrapped)
    if hasattr(workload, "check_same"):
        for a, b in zip(plain, wrapped):
            workload.check_same(a, b)

    spans = recorder.spans
    recorder.spans = setup_spans + spans
    recorder.write(os.path.join(OUT, f"trace-{workload.name}-{seed}.json"))
    n = len(wrapped)
    summary = defaultdict(SpanSummary, summarise(spans))
    setup_summary = defaultdict(SpanSummary, summarise(setup_spans))

    def self_s(name):
        return summary[name].self_s / n

    def total_s(name):
        return summary[name].total_s / n

    def calls(name):
        return summary[name].calls / n

    def count(name, key):
        return summary[name].counts.get(key, 0) / n

    def public(key, from_spans=0.0):
        """Per-unit count from the library's accounting, or from the spans
        where the workload cannot reach it (the pool's worker services)."""
        if key not in wrapped[0].counts:
            return from_spans
        return sum(u.counts[key] for u in wrapped) / n

    fresh = [r for u in wrapped for r in workload.fresh_results(u)]
    trials = sum(len(r.trials) for r in fresh)
    valid = sum(sum(1 for t in r.trials if t.valid) for r in fresh)
    hits = public("database.hits")
    lookups = hits + public("database.misses")
    executor_calls = public("scheduler.executor_calls", calls("executor.run"))
    packed = public("scheduler.packed_configs", count("executor.run", "items"))
    traced_wall = sum(u.wall for u in wrapped)

    m = {
        "cost_model.fit_s": (self_s("cost_model.fit"), "s"),
        "cost_model.fits": (calls("cost_model.fit"), "count"),
        "cost_model.fit_rows": (count("cost_model.fit", "rows"), "count"),
        "cost_model.predict_s": (self_s("cost_model.predict"), "s"),
        "explorer.propose_self_s": (self_s("explorer.propose"), "s"),
        "explorer.proposals": (count("explorer.propose", "items"), "count"),
        "features.matrix_s": (self_s("features.matrix"), "s"),
        "space.size_s": (self_s("space.size"), "s"),
        "space.size_calls": (calls("space.size"), "count"),
        "space.init_s": (self_s("space.init"), "s"),
        "measure.prepare_s": (self_s("measure.prepare"), "s"),
        "measure.finish_s": (self_s("measure.finish"), "s"),
        "measure.configs": (count("measure.prepare", "items"), "count"),
        "measure.valid_fraction": (valid / trials if trials else 0.0, "fraction"),
        "executor.run_s": (self_s("executor.run"), "s"),
        "executor.calls": (calls("executor.run"), "count"),
        "baselines.propose_s": (self_s("baselines.propose"), "s"),
        "scheduler.submit_s": (self_s("scheduler.submit"), "s"),
        "scheduler.step_self_s": (self_s("scheduler.step"), "s"),
        "scheduler.rounds": (public("scheduler.rounds", count("scheduler.step", "progressed")), "count"),
        "scheduler.executor_calls": (executor_calls, "count"),
        "scheduler.configs_per_call": (packed / executor_calls if executor_calls else 0.0, "count"),
        "database.lookup_s": (self_s("database.lookup"), "s"),
        "database.lookups": (lookups, "count"),
        "database.hit_ratio": (hits / lookups if lookups else 0.0, "fraction"),
        "database.put_s": (self_s("database.put"), "s"),
        "database.puts": (calls("database.put"), "count"),
        "pool.tune_s": (total_s("pool.tune"), "s"),
        "daemon.handle_s": (total_s("daemon.handle"), "s"),
        "daemon.tick_s": (total_s("daemon.tick"), "s"),
        "daemon.ticks": (count("daemon.tick", "progressed"), "count"),
        "daemon.rejected": (public("daemon.rejected"), "count"),
        "journal.append_s": (self_s("journal.append"), "s"),
        "journal.appends": (calls("journal.append"), "count"),
        "journal.recover_s": (setup_summary["journal.recover"].self_s, "s"),
        "frontend.call_s": (total_s("frontend.call"), "s"),
        "frontend.wire_s": (total_s("frontend.call") - total_s("daemon.handle"), "s"),
        "frontend.backoff_s": (public("frontend.backoff_s"), "s"),
        "frontend.retries": (public("frontend.retries"), "count"),
        "trace.attributed_fraction": (
            root_time(spans, os.getpid(), recorder.main_thread) / traced_wall, "fraction"
        ),
        "trace.overhead_ratio": (
            statistics.median(u.wall for u in wrapped) / statistics.median(u.wall for u in plain),
            "ratio",
        ),
    }
    if hasattr(workload, "ate_vs_best_baseline"):
        m["quality.ate_vs_best_baseline"] = (workload.ate_vs_best_baseline(plain[0]), "ratio")
    for name in ("records_streamed", "pre_served", "coalesced", "measurements", "worker_failures"):
        values = [u.counts.get(f"pool.{name}", 0) for u in wrapped]
        m[f"pool.{name}"] = (statistics.median(values), "count")
        if name in ("records_streamed", "coalesced", "measurements"):
            m[f"pool.{name}_spread"] = (max(values) - min(values), "count")
    units = plain + wrapped
    return sum(u.attempted for u in units), sum(u.failed for u in units), m


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: no library source at src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if getattr(WORKLOADS[args.workload], "one_cpu", False) and hasattr(os, "sched_setaffinity"):
        # Before the workload starts any thread or child: they inherit it.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    correct = True
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            if args.trace:
                attempted, failed, metrics = traced(workload, args.seconds, args.seed)
            else:
                attempted, failed, metrics = end_to_end(workload, args.seconds, args.seed, workdir)
        except CheckFailed as exc:
            print(f"perfbench: output check failed: {exc}", file=sys.stderr)
            correct, attempted, failed, metrics = False, 1, 0, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
