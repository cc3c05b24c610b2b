"""The auto-tuning engine (Section 6.1/6.3).

Each tuning iteration performs the three stages of Figure 8:

1. **Model training** — refit the gradient-boosted cost model on every
   (configuration, runtime) pair measured so far;
2. **Configuration searching** — the parallel random-walk explorer proposes a
   batch of promising, not-yet-measured configurations from the searching
   domain (the pruned space of Table 1);
3. **Dataset updating** — the proposed configurations are "measured" on the
   GPU simulator and appended to the dataset.

Tuning stops when the measurement budget is exhausted or the best runtime has
not improved for ``patience`` consecutive iterations.  The engine records the
best-so-far trajectory (used by the Figure 11 benchmark) and the total number
of measurements (Table 2's *Iterations* column).

**Step-wise protocol.**  The loop above is implemented by
:class:`TuningSession`, a resumable *propose → measure → update* core that
never measures anything itself:

* :meth:`TuningSession.propose` returns the next batch of configurations to
  measure (the random initialisation on the first call, explorer batches
  afterwards) or ``[]`` once the run is finished;
* the caller measures the batch however it likes — the synchronous
  :meth:`AutoTuningEngine.tune` sends it through the engine's own
  :meth:`~repro.core.autotune.config.Measurer.measure_batch`, while the
  concurrent :class:`~repro.service.TuningService` packs batches from *many*
  sessions into shared executor calls;
* :meth:`TuningSession.update` appends the measurements to the dataset and
  advances the stopping logic.

Because a session owns all tuning state (RNG, visited set, patience counter,
cost model) and consumes measurements in exactly the order it proposed them,
any driver that feeds back faithful measurements reproduces the synchronous
path bit-for-bit.

Model retraining featurises the dataset incrementally: a
:class:`~repro.core.autotune.features.FeatureCache` keeps the per-config
feature rows, so each iteration appends the rows of the newly measured
configurations instead of rebuilding the whole matrix.

An optional :class:`~repro.core.autotune.database.TuningDatabase` lets the
engine skip tuning entirely for ``(ConvParams, GPUSpec, algorithm)`` triples
that were already tuned (by this run or a previous, persisted one).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ...conv.tensor import ConvParams
from ...gpusim.executor import ExecutionResult
from ...gpusim.spec import GPUSpec
from ...obs.metrics import NULL_COUNTER
from .config import Configuration, Measurer
from .cost_model import CostModel
from .explorer import ExplorerConfig, ParallelRandomWalkExplorer
from .features import FeatureCache
from .session import TrialRecord, TuningResult, record_trial
from .space import SearchSpace
from .store import TuningRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (database imports us)
    from .database import TuningDatabase

__all__ = ["TrialRecord", "TuningResult", "TuningSession", "AutoTuningEngine"]


class TuningSession:
    """One resumable tuning run, driven step-wise from outside.

    The session is the engine's Figure 8 loop with the measurement stage cut
    out: :meth:`propose` hands the caller the next batch of configurations,
    :meth:`update` takes the caller's measurements back.  Strict alternation
    is required — every proposed batch must be measured and reported via
    :meth:`update` (in proposal order, with ``None`` marking infeasible
    entries) before the next :meth:`propose`.

    Drivers:

    * :meth:`AutoTuningEngine.tune` — the synchronous API; measures each
      batch immediately with the engine's own measurer;
    * :class:`repro.service.TuningService` — interleaves many sessions and
      packs their batches into shared executor calls.

    Both produce bit-identical :class:`TuningResult` values because all
    randomness (dataset initialisation, explorer walks, cost-model
    subsampling) lives inside the session and is consumed in proposal order.
    """

    def __init__(self, engine: "AutoTuningEngine", initial_random: int = 16) -> None:
        self.engine = engine
        self.initial_random = initial_random
        self.result = TuningResult(
            tuner=engine.result_name,
            params=engine.params,
            gpu=engine.spec.name,
            space_size=engine.space.size(),
        )
        self._visited: set = set()
        self._started = False
        self._finished = False
        self._awaiting_update = False
        self._init_pending = True  # the next update() is the random-init batch
        self._best_time = float("inf")
        self._stale_iterations = 0
        # Incremental featurisation of the measured dataset: rows are appended
        # as trials arrive (via the engine's FeatureCache), never rebuilt.
        self._trained_rows: List[np.ndarray] = []
        self._trained_times: List[float] = []
        self._featurised = 0  # trials already scanned into the rows above

    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        return self._finished

    def propose(self) -> List[Configuration]:
        """Next batch of configurations to measure; ``[]`` when finished."""
        if self._finished:
            return []
        if self._awaiting_update:
            raise RuntimeError("propose() called before update() of the previous batch")
        engine = self.engine
        if not self._started:
            self._started = True
            # Stage 0: random initialisation of the dataset.
            init: List[Configuration] = []
            for _ in range(min(self.initial_random, engine.max_measurements)):
                c = engine.space.random_configuration(engine.rng)
                if c.key() not in self._visited:
                    self._visited.add(c.key())
                    init.append(c)
            if not init:
                # No initialisation requested (initial_random=0): an empty
                # batch must not read as "run finished" — skip straight to
                # the explorer phase, exactly like the pre-session loop did.
                self._init_pending = False
                return self.propose()
            self._awaiting_update = True
            engine._m_proposals.inc()
            return init

        if self.result.num_measurements >= engine.max_measurements:
            self._finished = True
            return []
        self._retrain()
        seeds = [
            t.config
            for t in sorted(
                (t for t in self.result.trials if t.valid), key=lambda t: t.time_seconds
            )[:8]
        ]
        batch_size = min(
            engine.batch_size, engine.max_measurements - self.result.num_measurements
        )
        batch = engine.explorer.propose(
            engine.cost_model, batch_size, seeds=seeds, visited=self._visited
        )
        if not batch:
            self._finished = True
            return []
        for c in batch:
            self._visited.add(c.key())
        self._awaiting_update = True
        engine._m_proposals.inc()
        return batch

    def update(
        self,
        configs: Sequence[Configuration],
        executions: Sequence[Optional[ExecutionResult]],
    ) -> None:
        """Feed back the measurements of the last proposed batch.

        ``executions`` must align with ``configs`` (the proposal order);
        ``None`` marks an infeasible configuration and is recorded as an
        invalid (infinite-time) trial, exactly like the synchronous path.
        """
        if not self._awaiting_update:
            raise RuntimeError("update() called without a pending proposal")
        if len(configs) != len(executions):
            raise ValueError("configs and executions must have the same length")
        self._awaiting_update = False
        result = self.result
        first_batch = self._init_pending
        self._init_pending = False
        for config, execution in zip(configs, executions):
            record_trial(result, config, execution)

        new_best = min(
            (t.time_seconds for t in result.trials if t.valid), default=float("inf")
        )
        if first_batch:
            # The initialisation batch seeds the best-so-far time; the
            # patience counter only starts with the explorer batches.
            self._best_time = new_best
            return
        if new_best < self._best_time * (1 - 1e-3):
            self._best_time = new_best
            self._stale_iterations = 0
        else:
            self._stale_iterations += 1
            if self._stale_iterations >= self.engine.patience:
                self._finished = True

    # ------------------------------------------------------------------ #
    def _retrain(self) -> None:
        """Refit the cost model, featurising only the new valid trials."""
        trials = self.result.trials
        cache = self.engine.features
        for t in trials[self._featurised :]:
            if t.valid:
                self._trained_rows.append(cache.vector(t.config))
                self._trained_times.append(t.time_seconds)
        self._featurised = len(trials)
        if not self._trained_rows:
            return
        self.engine.cost_model.fit(np.stack(self._trained_rows), self._trained_times)
        self.engine._m_retrains.inc()


class AutoTuningEngine:
    """I/O-lower-bound-guided auto-tuner (the paper's ATE)."""

    def __init__(
        self,
        params: ConvParams,
        spec: GPUSpec,
        algorithm: str = "direct",
        batch_size: int = 16,
        max_measurements: int = 256,
        patience: int = 6,
        seed: int = 0,
        explorer_config: Optional[ExplorerConfig] = None,
        pruned: bool = True,
        measurer: Optional[Measurer] = None,
        cost_model: Optional[CostModel] = None,
        database: Optional["TuningDatabase"] = None,
        explorer_cls: Optional[type] = None,
    ) -> None:
        """``explorer_cls`` picks the searching implementation: the default is
        the vectorised lock-step
        :class:`~repro.core.autotune.explorer.ParallelRandomWalkExplorer`;
        the quality-parity property tests pass the per-configuration
        reference explorer from ``tests/explorer_oracle.py``."""
        if batch_size < 1 or max_measurements < 1:
            raise ValueError("batch_size and max_measurements must be >= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.params = params
        self.spec = spec
        self.algorithm = algorithm
        self.batch_size = batch_size
        self.max_measurements = max_measurements
        self.patience = patience
        self.seed = seed
        self.space = SearchSpace(params, spec, algorithm, pruned=pruned)
        self.measurer = measurer or Measurer(params, spec)
        self.cost_model = cost_model if cost_model is not None else CostModel(seed=seed)
        #: per-config feature rows, shared between retraining and the
        #: explorer so each configuration is featurised exactly once.
        self.features = FeatureCache(params, spec)
        explorer_cls = explorer_cls or ParallelRandomWalkExplorer
        self.explorer = explorer_cls(
            self.space, params, spec, config=explorer_config, seed=seed,
            feature_cache=self.features,
        )
        self.database = database
        self.rng = random.Random(seed)
        # Telemetry mirrors (null no-ops until attach_metrics binds real
        # ones); REPRO601 scope, so only counts are recorded — never times.
        self._m_proposals = NULL_COUNTER
        self._m_retrains = NULL_COUNTER

    def attach_metrics(self, metrics) -> None:
        """Bind engine telemetry to a metrics scope (see ``repro.obs``).

        Records ``proposals`` (session proposal batches) and ``retrains``
        (cost-model refits), and forwards a ``feature_cache`` sub-scope to
        :meth:`~repro.core.autotune.features.FeatureCache.attach_metrics`.
        Observability is write-only: nothing recorded here feeds back into
        the session RNG, the explorer, or the cost model.
        """
        self._m_proposals = metrics.counter("proposals")
        self._m_retrains = metrics.counter("retrains")
        self.features.attach_metrics(metrics.scope("feature_cache"))

    # ------------------------------------------------------------------ #
    @property
    def result_name(self) -> str:
        """Name recorded in :attr:`TuningResult.tuner` (subclasses override:
        :class:`~repro.core.autotune.baselines.TVMStyleTuner` reports
        ``"tvm_style"``)."""
        return "ate" if self.space.pruned else "ate_unpruned"

    def session(self, initial_random: int = 16) -> TuningSession:
        """Start a step-wise tuning session (see :class:`TuningSession`).

        The session borrows the engine's mutable tuning state (RNG, explorer,
        cost model), so at most one session per engine may run to completion;
        :meth:`tune` is simply a session driven by the engine's own measurer.
        """
        return TuningSession(self, initial_random=initial_random)

    # ------------------------------------------------------------------ #
    def tune(self, initial_random: int = 16) -> TuningResult:
        """Run the full tuning loop and return the result.

        When a :class:`TuningDatabase` is attached, a previously recorded
        result for this ``(params, gpu, algorithm)`` triple is returned
        directly (no measurements), and a freshly tuned result is stored back
        for later runs and for identical layers elsewhere in a network.
        Two guards keep cached results honest: only engines searching the
        canonical pruned domain use the database (an unpruned TVM-style run
        must not serve or consume ATE records), and a record only satisfies
        requests whose measurement budget it covers (a quick low-budget
        record never pre-empts a more thorough search).
        """
        use_database = self.database is not None and self.space.pruned
        executor = self.measurer.executor
        if use_database:
            record = self.database.lookup(
                self.params,
                self.spec,
                self.algorithm,
                budget=self.max_measurements,
                noise=executor.noise,
                noise_seed=executor.seed,
            )
            if record is not None:
                return record.as_result()
        result = self._tune(initial_random)
        if use_database and any(t.valid for t in result.trials):
            self.database.put(
                TuningRecord.from_result(
                    result,
                    budget=self.max_measurements,
                    noise=executor.noise,
                    noise_seed=executor.seed,
                )
            )
        return result

    def _tune(self, initial_random: int) -> TuningResult:
        """Drive a session with the engine's own measurer (synchronous API)."""
        session = self.session(initial_random)
        while True:
            batch = session.propose()
            if not batch:
                break
            session.update(batch, self.measurer.measure_batch(batch))
        return session.result
