"""Vectorised explorer — wall-clock speedup of the search-side hot path.

PRs 1–3 vectorised the measurement side; after them the tuner's wall-clock is
dominated by ``ParallelRandomWalkExplorer.propose`` (Section 6.2's searching
process).  This benchmark drives both explorer implementations through one
realistic 256-walker proposal against a trained cost model:

* ``scalar`` — the reference path: one ``Configuration`` at a time through
  ``space.neighbor`` / per-row features / a scalar Metropolis loop;
* ``vectorized`` — the lock-step SoA path: batched ``neighbor_batch`` draws,
  column-wise ``feature_matrix`` scoring and vectorised Metropolis accepts.

Two correctness properties always gate (regardless of wall clock): the
column-wise feature matrix must be bit-identical to the per-row path, and the
vectorised explorer's best-found runtime at equal measurement budget must be
no worse than the scalar explorer's (≤5% in the mean) across a seed grid.
The ≥5x propose() speedup floor is soft under ``BENCH_SPEEDUP_SOFT=1``.
"""

from __future__ import annotations

import os
import random
import statistics
import warnings

import numpy as np
import pytest

from conftest import emit, write_bench_json
from explorer_oracle import ScalarRandomWalkExplorer
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.obs import MonotonicClock
from repro.core.autotune import (
    AutoTuningEngine,
    ConfigArray,
    CostModel,
    ExplorerConfig,
    Measurer,
    ParallelRandomWalkExplorer,
    SearchSpace,
    feature_matrix,
    feature_vector,
)

PARAMS = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
NUM_WALKERS = 256
WALK_LENGTH = 24
BATCH_SIZE = 64
TRAIN_SAMPLES = 128
ROUNDS = 3

QUALITY_BUDGET = 96
QUALITY_SEEDS = range(5)
QUALITY_TOLERANCE = 1.05


def _trained_model(spec):
    space = SearchSpace(PARAMS, spec, "direct", pruned=True)
    measurer = Measurer(PARAMS, spec)
    train = space.sample(random.Random(7), TRAIN_SAMPLES)
    times = [
        measurer.time_seconds(c) if measurer.is_feasible(c) else float("inf")
        for c in train
    ]
    model = CostModel(min_samples=8, seed=0)
    model.fit(feature_matrix(train, PARAMS, spec), times)
    return space, model, train


#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = _CLOCK.now()
        fn()
        best = min(best, _CLOCK.now() - start)
    return best


def run_explorer_benchmark(spec):
    space, model, train = _trained_model(spec)
    cfg = ExplorerConfig(num_walkers=NUM_WALKERS, walk_length=WALK_LENGTH)

    # Hard gate: the column-wise features are bit-identical to per-row ones.
    fast = feature_matrix(ConfigArray.from_configs(train), PARAMS, spec)
    reference = np.stack([feature_vector(c, PARAMS, spec) for c in train])
    assert (fast == reference).all(), "feature_matrix diverges from feature_vector"

    def scalar():
        ScalarRandomWalkExplorer(space, PARAMS, spec, config=cfg, seed=5).propose(
            model, BATCH_SIZE
        )

    def vectorized():
        ParallelRandomWalkExplorer(space, PARAMS, spec, config=cfg, seed=5).propose(
            model, BATCH_SIZE
        )

    t_scalar = _best_of(scalar)
    t_vector = _best_of(vectorized)

    # Hard gate: search quality at equal measurement budget, seed grid.
    quality = {}
    for name, cls in (
        ("scalar", ScalarRandomWalkExplorer),
        ("vectorized", ParallelRandomWalkExplorer),
    ):
        quality[name] = [
            AutoTuningEngine(
                PARAMS,
                spec,
                "direct",
                max_measurements=QUALITY_BUDGET,
                seed=seed,
                measurer=Measurer(PARAMS, spec),
                explorer_cls=cls,
            )
            .tune()
            .best_time
            for seed in QUALITY_SEEDS
        ]
    scalar_mean = statistics.mean(quality["scalar"])
    vector_mean = statistics.mean(quality["vectorized"])
    assert vector_mean <= scalar_mean * QUALITY_TOLERANCE, (
        f"vectorised explorer quality regressed: mean best {vector_mean:.3e}s vs "
        f"scalar {scalar_mean:.3e}s over seeds {list(QUALITY_SEEDS)}"
    )

    table = ResultTable(
        f"Explorer propose() ({spec.name}, {NUM_WALKERS} walkers x "
        f"{WALK_LENGTH} steps, trained model)",
        columns=["explorer", "ms", "us_per_walker_step", "speedup"],
    )
    for name, t in (("scalar", t_scalar), ("vectorized", t_vector)):
        table.add_row(
            explorer=name,
            ms=t * 1e3,
            us_per_walker_step=t * 1e6 / (NUM_WALKERS * WALK_LENGTH),
            speedup=t_scalar / t,
        )
    return table, t_scalar, t_vector, scalar_mean, vector_mean


@pytest.mark.benchmark(group="explorer")
def test_explorer_speedup(benchmark, gpu_v100):
    table, t_scalar, t_vector, q_scalar, q_vector = benchmark.pedantic(
        run_explorer_benchmark, args=(gpu_v100,), rounds=1, iterations=1
    )
    speedup = t_scalar / t_vector
    emit(render_table(table, precision=2))
    emit(
        f"vectorized propose() speedup: {speedup:.1f}x "
        f"(quality: {q_vector / q_scalar:.3f}x scalar mean best time at "
        f"{QUALITY_BUDGET}-measurement budget)"
    )
    write_bench_json(
        "explorer",
        gpu=gpu_v100.name,
        num_walkers=NUM_WALKERS,
        walk_length=WALK_LENGTH,
        batch_size=BATCH_SIZE,
        scalar_seconds=t_scalar,
        vectorized_seconds=t_vector,
        speedup=speedup,
        quality_budget=QUALITY_BUDGET,
        quality_scalar_mean_best=q_scalar,
        quality_vectorized_mean_best=q_vector,
        quality_ratio=q_vector / q_scalar,
    )
    # Wall-clock floor gates by default; BENCH_SPEEDUP_SOFT=1 downgrades a
    # shortfall to a warning on noisy shared runners (the bit-identity and
    # search-quality asserts above always gate).
    floor = 5.0
    if speedup < floor:
        message = f"explorer speedup is {speedup:.1f}x, below the {floor}x floor"
        if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
            warnings.warn(message, stacklevel=2)
        else:
            pytest.fail(message)
