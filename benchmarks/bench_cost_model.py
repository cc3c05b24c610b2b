"""Cost-model fit — wall-clock of the retrain the ATE runs before every round.

Retraining the gradient-boosted cost model is most of a pruned ATE tuning
run (Section 6's search process retrains before every batch).  This
benchmark times ``CostModel.fit`` on the rows the tuner really trains on —
feature matrices of sampled configurations with their simulated runtimes —
at 16, 32 and 256 rows, for two split searches:

* ``scalar`` — the test oracle (``tests/cost_model_oracle.py``): one
  per-feature search per node, re-sorting every feature;
* ``vectorised`` — the library's presorted search over all features at once.

The hard gate is bit-identity: every tree array of the vectorised fit equals
the oracle's, on the timed fits and on a fixed randomised set (Gaussian,
tied, sparse, constant, signed-zero, adjacent-float and near-constant data,
4–300 rows, 1–24 features).  The per-fit speed-up floor is soft under
``BENCH_SPEEDUP_SOFT=1``.
"""

from __future__ import annotations

import contextlib
import os
import random
import warnings

import numpy as np
import pytest

from conftest import emit, write_bench_json
from cost_model_oracle import DATA_KINDS, first_difference, oracle_data, scalar_split_search
from repro.analysis import ResultTable, render_table
from repro.conv import ConvParams
from repro.core.autotune import (
    CostModel,
    GradientBoostedTrees,
    Measurer,
    SearchSpace,
    feature_matrix,
)
from repro.obs import MonotonicClock

PARAMS = ConvParams.square(28, 128, 128, kernel=3, stride=1, padding=1)
#: The pool workload retrains at 16 and 32 rows; 256 is a full-budget run.
ROWS = (16, 32, 256)
ROUNDS = {16: 5, 32: 5, 256: 3}
IDENTITY_FITS = 42
SPEEDUP_FLOOR = 2.5

#: benchmarks are a real timing edge (REPRO701): one monotonic clock,
#: read only here.
_CLOCK = MonotonicClock()


def _tuner_rows(spec, n):
    """``n`` sampled configurations' features and simulated runtimes."""
    space = SearchSpace(PARAMS, spec, "direct", pruned=True)
    measurer = Measurer(PARAMS, spec)
    configs = space.sample(random.Random(n), n)
    results = measurer.measure_batch(configs)
    runtimes = [float("inf") if r is None else r.time_seconds for r in results]
    return feature_matrix(configs, PARAMS, spec), runtimes


def _timed_fits(features, runtimes, rounds):
    """Best-of-``rounds`` seconds of one ``CostModel.fit`` under the oracle
    and under the library, interleaved so host speed drift hits both, plus
    the last model of each."""
    best = {"scalar": float("inf"), "vectorised": float("inf")}
    models = {}
    for _ in range(rounds):
        for name in best:
            model = CostModel(seed=0)
            with scalar_split_search() if name == "scalar" else contextlib.nullcontext():
                start = _CLOCK.now()
                model.fit(features, runtimes)
                best[name] = min(best[name], _CLOCK.now() - start)
            models[name] = model._model
    return best["scalar"], best["vectorised"], models


def _identity_failures():
    """Fits of the fixed randomised set whose trees differ from the oracle."""
    failures = []
    for i in range(IDENTITY_FITS):
        rng = np.random.default_rng(i)
        kind = DATA_KINDS[i % len(DATA_KINDS)]
        n, d = int(rng.integers(4, 301)), int(rng.integers(1, 25))
        x, y = oracle_data(kind, n, d, seed=i)
        params = {
            "n_estimators": 8,
            "max_depth": int(rng.integers(1, 6)),
            "min_samples_leaf": int(rng.integers(1, 6)),
            "seed": i,
        }
        fast = GradientBoostedTrees(**params).fit(x, y)
        with scalar_split_search():
            reference = GradientBoostedTrees(**params).fit(x, y)
        diff = first_difference(fast, reference)
        if diff is not None:
            failures.append(f"fit {i} ({kind}, {n}x{d}): {diff}")
    return failures


def run_cost_model_benchmark(spec):
    failures = _identity_failures()
    assert not failures, "vectorised split search diverges from the oracle:\n" + "\n".join(
        failures
    )

    table = ResultTable(
        f"CostModel.fit ({spec.name}, 21 features, 60 trees of depth 4)",
        columns=["rows", "scalar_ms", "vectorised_ms", "speedup"],
    )
    timings = {}
    for n in ROWS:
        features, runtimes = _tuner_rows(spec, n)
        t_scalar, t_fast, models = _timed_fits(features, runtimes, ROUNDS[n])
        diff = first_difference(models["vectorised"], models["scalar"])
        assert diff is None, f"{n}-row tuner fit diverges from the oracle: {diff}"
        timings[n] = (t_scalar, t_fast)
        table.add_row(
            rows=n, scalar_ms=t_scalar * 1e3, vectorised_ms=t_fast * 1e3, speedup=t_scalar / t_fast
        )
    return table, timings


@pytest.mark.benchmark(group="cost_model")
def test_cost_model_fit_speedup(benchmark, gpu_v100):
    table, timings = benchmark.pedantic(
        run_cost_model_benchmark, args=(gpu_v100,), rounds=1, iterations=1
    )
    speedups = {n: t_scalar / t_fast for n, (t_scalar, t_fast) in timings.items()}
    fit_speedup = min(speedups.values())
    emit(render_table(table, precision=2))
    emit(
        f"per-fit speedup vs the scalar oracle: {fit_speedup:.1f}x at worst "
        f"(bit-identical on {IDENTITY_FITS} randomised fits + {len(ROWS)} tuner fits)"
    )
    payload = {"gpu": gpu_v100.name, "identity_fits": IDENTITY_FITS, "fit_speedup": fit_speedup}
    for n, (t_scalar, t_fast) in timings.items():
        payload[f"scalar_seconds_{n}"] = t_scalar
        payload[f"vectorised_seconds_{n}"] = t_fast
        payload[f"fit_speedup_{n}"] = speedups[n]
    write_bench_json("cost_model", **payload)
    # Wall-clock floor gates by default; BENCH_SPEEDUP_SOFT=1 downgrades a
    # shortfall to a warning on noisy shared runners (the bit-identity
    # asserts above always gate).
    if fit_speedup < SPEEDUP_FLOOR:
        message = (
            f"cost-model fit speedup is {fit_speedup:.1f}x, below the {SPEEDUP_FLOOR}x floor"
        )
        if os.environ.get("BENCH_SPEEDUP_SOFT") == "1":
            warnings.warn(message, stacklevel=2)
        else:
            pytest.fail(message)
