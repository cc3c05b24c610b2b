"""Scalar reference for the random-walk explorer (a test oracle).

:class:`ScalarRandomWalkExplorer` runs Section 6.2's searching process one
``Configuration`` at a time: ``space.neighbor``, per-row features and a
scalar Metropolis loop.  It is simple to audit, and the library's
vectorised :class:`~repro.core.autotune.explorer.ParallelRandomWalkExplorer`
must find configurations at least as good at equal budget;
``tests/test_vectorized_search.py`` and ``benchmarks/bench_explorer.py``
compare the two, selecting this class through
``AutoTuningEngine(explorer_cls=...)``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.conv import ConvParams
from repro.core.autotune.config import Configuration
from repro.core.autotune.cost_model import CostModel
from repro.core.autotune.explorer import ExplorerConfig
from repro.core.autotune.features import FeatureCache
from repro.core.autotune.space import SearchSpace
from repro.gpusim.spec import GPUSpec


class ScalarRandomWalkExplorer:
    """Reference explorer: cost-model-guided random walks, one config at a time.

    This is the original Python-level implementation of Section 6.2's
    searching process, retained as the quality yardstick for the vectorised
    :class:`ParallelRandomWalkExplorer` (same hyper-parameters, same
    acceptance rule; the property tests compare best-found runtimes at equal
    measurement budget).
    """

    def __init__(
        self,
        space: SearchSpace,
        params: ConvParams,
        spec: GPUSpec,
        config: Optional[ExplorerConfig] = None,
        seed: int = 0,
        feature_cache: Optional[FeatureCache] = None,
    ) -> None:
        self.space = space
        self.params = params
        self.spec = spec
        self.config = config or ExplorerConfig()
        self.rng = random.Random(seed)
        #: walkers revisit configurations across proposals; cache their rows
        #: (pass the engine's cache in so measured configs featurise once).
        self._features = feature_cache or FeatureCache(params, spec)

    # ------------------------------------------------------------------ #
    def _score(self, model: Optional[CostModel], configs: Sequence[Configuration]) -> np.ndarray:
        """Predicted score (higher = faster); random scores when untrained."""
        if model is not None and model.is_trained:
            return model.predict_score(self._features.matrix(configs))
        return np.asarray([self.rng.random() for _ in configs])

    def propose(
        self,
        model: Optional[CostModel],
        batch_size: int,
        seeds: Sequence[Configuration] = (),
        visited: Optional[Set[Tuple]] = None,
    ) -> List[Configuration]:
        """Return up to ``batch_size`` promising, unvisited configurations.

        ``seeds`` (typically the best configurations measured so far) start a
        fraction of the walkers; the rest start from random samples.
        """
        visited = set(visited or ())
        cfg = self.config
        walkers: List[Configuration] = []
        seeds = [s for s in seeds if self.space.contains(s)]
        num_seeded = min(len(seeds), int(round(cfg.num_walkers * (1 - cfg.restart_fraction))))
        walkers.extend(seeds[:num_seeded])
        while len(walkers) < cfg.num_walkers:
            walkers.append(self.space.random_configuration(self.rng))

        scores = self._score(model, walkers)
        best_seen: Dict[Tuple, Tuple[float, Configuration]] = {}
        for w, s in zip(walkers, scores):
            best_seen[w.key()] = (float(s), w)

        current = list(walkers)
        current_scores = list(map(float, scores))
        for _ in range(cfg.walk_length):
            proposals = [self.space.neighbor(c, self.rng) for c in current]
            prop_scores = self._score(model, proposals)
            for i, (cand, cand_score) in enumerate(zip(proposals, prop_scores)):
                cand_score = float(cand_score)
                delta = cand_score - current_scores[i]
                accept = delta >= 0 or (
                    cfg.temperature > 0
                    and self.rng.random() < math.exp(delta / cfg.temperature)
                )
                if accept:
                    current[i] = cand
                    current_scores[i] = cand_score
                key = cand.key()
                if key not in best_seen or cand_score > best_seen[key][0]:
                    best_seen[key] = (cand_score, cand)

        # ε-greedy exploration: reserve part of the batch for uniform samples so
        # a misleading early cost model cannot trap every walker in one basin.
        num_random = int(round(cfg.epsilon * batch_size)) if batch_size > 1 else 0
        num_guided = batch_size - num_random

        ranked = sorted(best_seen.values(), key=lambda t: -t[0])
        batch: List[Configuration] = []
        for _, candidate in ranked:
            if candidate.key() in visited:
                continue
            batch.append(candidate)
            visited.add(candidate.key())
            if len(batch) >= num_guided:
                break
        # One uniform-random fill covers both the reserved ε-greedy slots and
        # any guided slots the walks could not fill with unvisited candidates.
        # (The previous code had two identical fill loops — both targeting
        # batch_size, since num_guided + num_random == batch_size — whose
        # attempt caps added up; the single loop keeps the combined cap.)
        attempts = 0
        while len(batch) < batch_size and attempts < 40 * batch_size:
            attempts += 1
            candidate = self.space.random_configuration(self.rng)
            if candidate.key() in visited:
                continue
            batch.append(candidate)
            visited.add(candidate.key())
        return batch
