"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md
§4) and prints its rows with the analysis helpers so that
``pytest benchmarks/ --benchmark-only -s`` (or the captured ``bench_output.txt``)
contains the reproduced numbers alongside pytest-benchmark's timing table.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.gpusim import GTX_1080TI, V100

# Benchmarks gate on the test-suite's reference implementations
# (tests/cost_model_oracle.py).  Appended, so nothing here is shadowed.
_TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


def emit(text: str) -> None:
    """Print a report block, padded so it stays readable inside pytest output."""
    print("\n" + text + "\n")


def write_bench_json(name: str, **payload) -> str:
    """Persist a benchmark's machine-readable telemetry.

    Writes ``BENCH_<name>.json`` into ``$BENCH_DIR`` (default: the current
    working directory); CI uploads every ``BENCH_*.json`` as a build artifact
    so the repo accumulates a perf trajectory instead of throwing the numbers
    away with the job log.  Keep payloads flat and JSON-native (speedups,
    wall-clock seconds, measurement counts).  Returns the path written.
    """
    path = os.path.join(os.environ.get("BENCH_DIR", "."), f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    emit(f"bench telemetry written to {path}")
    return path


def write_obs_json(name: str, snapshot, **extra) -> str:
    """Persist an observability snapshot next to the bench telemetry.

    Writes ``OBS_<name>.json`` into ``$BENCH_DIR`` with the snapshot's wire
    form under ``"metrics"`` plus any flat extras (overhead ratios, run
    parameters).  CI uploads ``OBS_*.json`` alongside ``BENCH_*.json``, so
    the perf trajectory carries the metric values that explain the timings
    (fill ratios, coalesce hits, db short-circuits), not just the timings.
    """
    path = os.path.join(os.environ.get("BENCH_DIR", "."), f"OBS_{name}.json")
    payload = dict(extra)
    payload["metrics"] = snapshot.to_wire()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    emit(f"observability telemetry written to {path}")
    return path


@pytest.fixture(scope="session")
def gpu_1080ti():
    return GTX_1080TI


@pytest.fixture(scope="session")
def gpu_v100():
    return V100


@pytest.fixture(scope="session")
def per_block_elements(gpu_1080ti):
    """Fast-memory budget per thread block (two resident blocks per SM)."""
    return gpu_1080ti.shared_mem_per_sm // gpu_1080ti.dtype_size // 2
