"""Scalar reference for the cost model's split search (a test oracle).

:class:`ScalarRegressionTree` grows trees with the original per-feature
split search: every node re-sorts each feature, takes ``np.unique`` quantile
cuts and locates thresholds with ``searchsorted``.  The vectorised
:class:`~repro.core.autotune.cost_model.RegressionTree` must produce
bit-identical tree arrays; ``tests/test_cost_model.py`` and
``benchmarks/bench_cost_model.py`` compare the two.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.autotune import cost_model
from repro.core.autotune.cost_model import RegressionTree, _routing_arrays


class ScalarRegressionTree(RegressionTree):
    """:class:`RegressionTree` grown by the per-feature scalar split search."""

    def _scalar_best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[int, float, float]]:
        """Return (feature, threshold, gain) of the best split, or None."""
        n, d = x.shape
        if n < 2 * self.min_samples_leaf:
            return None
        base_err = float(np.var(y) * n)
        best: Optional[Tuple[int, float, float]] = None
        for f in range(d):
            col = x[:, f]
            order = np.argsort(col, kind="mergesort")
            sorted_col = col[order]
            sorted_y = y[order]
            # Candidate thresholds at quantiles between distinct values.
            uniques = np.unique(sorted_col)
            if uniques.size < 2:
                continue
            if uniques.size - 1 > self.max_candidate_splits:
                qs = np.linspace(0, uniques.size - 1, self.max_candidate_splits + 1)
                cut_values = uniques[np.unique(qs.astype(int))]
            else:
                cut_values = uniques
            thresholds = (cut_values[:-1] + cut_values[1:]) / 2.0

            csum = np.cumsum(sorted_y)
            csum_sq = np.cumsum(sorted_y**2)
            total = csum[-1]
            total_sq = csum_sq[-1]
            # Position of each threshold: number of samples on the left.
            lefts = np.searchsorted(sorted_col, thresholds, side="right")
            valid = (lefts >= self.min_samples_leaf) & (
                lefts <= n - self.min_samples_leaf
            )
            if not np.any(valid):
                continue
            lefts = lefts[valid]
            thr = thresholds[valid]
            left_sum = csum[lefts - 1]
            left_sq = csum_sq[lefts - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            nl = lefts.astype(np.float64)
            nr = n - nl
            err = (left_sq - left_sum**2 / nl) + (right_sq - right_sum**2 / nr)
            idx = int(np.argmin(err))
            gain = base_err - float(err[idx])
            if gain > 1e-12 and (best is None or gain > best[2]):
                best = (f, float(thr[idx]), gain)
        return best

    def _scalar_build(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        node = self._new_node(float(np.mean(y)))
        self._depth = max(self._depth, depth)
        if depth >= self.max_depth:
            return node
        split = self._scalar_best_split(x, y)
        if split is None:
            return node
        f, thr, _ = split
        mask = x[:, f] <= thr
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        self._feature[node] = f
        self._threshold[node] = thr
        self._left[node] = self._scalar_build(x[mask], y[mask], depth + 1)
        self._right[node] = self._scalar_build(x[~mask], y[~mask], depth + 1)
        return node

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ScalarRegressionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._depth = 0
        self._scalar_build(x, y, depth=0)
        self._arrays = _routing_arrays(
            self._feature, self._threshold, self._left, self._right, self._value
        )
        return self


@contextlib.contextmanager
def scalar_split_search() -> Iterator[None]:
    """Make every :class:`GradientBoostedTrees` fit grow scalar-oracle trees."""
    saved = cost_model.RegressionTree
    cost_model.RegressionTree = ScalarRegressionTree
    try:
        yield
    finally:
        cost_model.RegressionTree = saved


#: Two adjacent floats whose midpoint rounds onto the lower one, and two
#: whose midpoint rounds onto the upper one.
ROUNDS_DOWN = (1.0, float(np.nextafter(1.0, 2.0)))
ROUNDS_UP = (float(np.nextafter(1.0, 2.0)), float(np.nextafter(np.nextafter(1.0, 2.0), 2.0)))

DATA_KINDS = ("gaussian", "tied", "sparse", "constant", "signed_zero", "adjacent", "flat")


def oracle_data(kind: str, n: int, d: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """An ``(n, d)`` feature matrix and ``n`` targets of one data kind."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    if kind == "gaussian":
        x = rng.standard_normal((n, d))
    elif kind == "tied":
        x = rng.integers(0, 4, (n, d)).astype(np.float64)
        y = rng.integers(0, 3, n).astype(np.float64)
    elif kind == "sparse":
        x = np.where(rng.random((n, d)) < 0.8, 0.0, rng.standard_normal((n, d)))
    elif kind == "constant":
        x = rng.standard_normal((n, d))
        x[:, rng.random(d) < 0.5] = 2.5
    elif kind == "flat":
        # Near-constant target: split gains straddle the 1e-12 gain floor.
        x = rng.standard_normal((n, d))
        y = 3.0 + 1e-7 * rng.standard_normal(n)
    elif kind == "signed_zero":
        x = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, d))
    elif kind == "adjacent":
        values = np.array(ROUNDS_DOWN + ROUNDS_UP + (2.0,))
        x = rng.choice(values, size=(n, d))
    else:
        raise ValueError(f"unknown data kind {kind!r}")
    return x, y


TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_value")


def tree_arrays(tree: RegressionTree) -> Tuple[bytes, ...]:
    """The tree's flat arrays as raw bytes, so ``==`` is bit-identity."""
    return tuple(
        np.asarray(getattr(tree, name), dtype=np.float64).tobytes()
        for name in TREE_ARRAYS
    )


def first_difference(fast, reference) -> Optional[str]:
    """Describe the first tree whose arrays differ between two GBT fits."""
    if fast.num_trees != reference.num_trees:
        return f"{fast.num_trees} trees vs {reference.num_trees}"
    for i, (a, b) in enumerate(zip(fast._trees, reference._trees)):
        for name, fa, fb in zip(TREE_ARRAYS, tree_arrays(a), tree_arrays(b)):
            if fa != fb:
                return f"tree {i} {name}: {getattr(a, name)} vs {getattr(b, name)}"
    return None
