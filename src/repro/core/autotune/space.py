"""Configuration spaces: the TVM-style full space and the pruned ATE domain.

Table 1 of the paper defines the *searching domain* of the auto-tuning
engine: on top of the generic template knobs (tile sizes dividing the output
extents, per-axis thread counts dividing the tile sizes, layout, shared
memory per block, loop order, unrolling) it imposes the constraints derived
from the I/O-optimality condition:

* ``S_b ≤ S_sm / 2``            (at least two resident blocks per SM),
* ``x·y·z ≤ S_b``               (the output tile fits in shared memory),
* ``z ≤ sqrt(S_b / R)``  and  ``x·y ≤ sqrt(S_b · R)``  (from ``x·y = R·z``).

:class:`SearchSpace` with ``pruned=False`` models the unpruned space a
TVM-style tuner explores; ``pruned=True`` applies the constraints above.
Table 2's "Size of Search Space" columns are ``SearchSpace.size()`` of the
two variants.

The space is a **frozen** dataclass: the option tables and the ``size()``
memo are derived from ``params``/``spec``/``algorithm``/``pruned`` once in
``__post_init__``, so mutating those fields afterwards would silently serve
stale tables.  Freezing turns that staleness hazard into an immediate
``FrozenInstanceError``; build a new space instead of mutating one.

Next to the scalar operations (``random_configuration``, ``neighbor``,
``contains``) the space exposes their array-at-a-time twins over
:class:`~repro.core.autotune.config.ConfigArray` columns —
:meth:`SearchSpace.sample_batch`, :meth:`SearchSpace.neighbor_batch`,
:meth:`SearchSpace.contains_batch` and the vectorised feasibility masks
(:meth:`SearchSpace.tile_ok_mask`, :meth:`SearchSpace.thread_ok_mask`) —
which the lock-step explorer uses to advance every walker per NumPy call
instead of per Python call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...conv.tensor import ConvParams, Layout, divisors
from ...gpusim.spec import GPUSpec
from .config import _ALGO_CODE, ConfigArray, Configuration

__all__ = ["SearchSpace"]


def _thread_options(extent: int, limit: int = 32) -> Tuple[int, ...]:
    """Thread counts along one axis: divisors of the tile extent, capped."""
    return tuple(d for d in divisors(extent) if d <= limit)


#: sentinel padding value for the ragged thread-option tables (larger than any
#: real thread count, so ``table < value`` index arithmetic ignores the pad).
_PAD = np.int64(1 << 40)


def _option_table(tile_opts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Padded per-tile-extent thread options: ``(table, lengths)``.

    Row ``i`` lists ``_thread_options(tile_opts[i])`` padded with ``_PAD``;
    ``lengths[i]`` is the real option count of that row.
    """
    rows = [_thread_options(v) for v in tile_opts]
    width = max(len(r) for r in rows)
    table = np.full((len(rows), width), _PAD, dtype=np.int64)
    for i, r in enumerate(rows):
        table[i, : len(r)] = r
    lengths = np.asarray([len(r) for r in rows], dtype=np.int64)
    return table, lengths


def _member_mask(opts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in the sorted option array ``opts``."""
    idx = np.minimum(np.searchsorted(opts, values), opts.size - 1)
    return opts[idx] == values


def _adjacent_in_sorted(
    opts: np.ndarray, values: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Vectorised :meth:`SearchSpace._adjacent` over a sorted option array.

    ``values`` must be members of ``opts``; ``u`` in ``[0, 1)`` picks the step
    direction where both neighbours exist (``u < 0.5`` steps down).
    """
    n = opts.shape[0]
    if n == 1:
        return values.copy()
    idx = np.searchsorted(opts, values)
    step = np.where(u < 0.5, -1, 1)
    step = np.where(idx == 0, 1, step)
    step = np.where(idx == n - 1, -1, step)
    return opts[idx + step]


@dataclass(frozen=True)
class SearchSpace:
    """Enumerable configuration space for one (problem, GPU, algorithm) triple."""

    params: ConvParams
    spec: GPUSpec
    algorithm: str = "direct"
    pruned: bool = False
    e_options: Sequence[int] = (2, 3, 4)
    max_threads_per_block: int = 1024

    def __post_init__(self) -> None:
        if self.algorithm not in ("direct", "winograd"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "winograd" and not self.params.winograd_compatible():
            raise ValueError("Winograd space requested for a non-Winograd problem")
        # The dataclass is frozen (see the module docstring): derived state is
        # written once here via object.__setattr__ and never invalidated.
        set_ = partial(object.__setattr__, self)
        set_("_tile_x_opts", divisors(self.params.out_width))
        set_("_tile_y_opts", divisors(self.params.out_height))
        set_("_tile_z_opts", divisors(self.params.out_channels))
        set_("_layouts", Layout.all())
        set_("_smem_opts", self._shared_memory_options())
        set_(
            "_e_opts",
            tuple(self.e_options) if self.algorithm == "winograd" else (2,),
        )
        set_("_unrolls", Configuration.UNROLL_FACTORS)
        set_("_orders", Configuration.LOOP_ORDERS)
        set_("_size", None)
        # Column tables for the vectorised batch operations.
        set_("_algo_code", _ALGO_CODE[self.algorithm])
        set_("_tile_arrs", tuple(
            np.asarray(opts, dtype=np.int64)
            for opts in (self._tile_x_opts, self._tile_y_opts, self._tile_z_opts)
        ))
        set_("_smem_arr", np.asarray(self._smem_opts, dtype=np.int64))
        set_("_e_arr", np.sort(np.asarray(self._e_opts, dtype=np.int64)))
        set_("_unroll_arr", np.asarray(self._unrolls, dtype=np.int64))
        set_("_thread_tables", tuple(
            _option_table(opts)
            for opts in (self._tile_x_opts, self._tile_y_opts, self._tile_z_opts)
        ))

    # ------------------------------------------------------------------ #
    # Option enumeration
    # ------------------------------------------------------------------ #
    def _shared_memory_options(self) -> Tuple[int, ...]:
        """Candidate shared-memory allocations per block (bytes)."""
        cap = self.spec.shared_mem_per_sm
        if self.pruned:
            cap = cap // 2  # Table 1: S_b <= S_sm / 2
        options = []
        size = 8 * 1024
        while size <= cap:
            options.append(size)
            size *= 2
        if not options:
            options.append(cap)
        return tuple(options)

    def _capacity_per_output(self) -> float:
        """On-chip elements needed per in-flight output element.

        The direct dataflow keeps one partial sum per output; the Winograd
        dataflow keeps the two ``(e+r-1)^2`` temporary arrays per ``e x e``
        output tile (Section 5.3), i.e. ``2(e+r-1)^2/e^2`` elements per output.
        The smallest ``e`` gives the loosest constraint, so the domain uses it.
        """
        if self.algorithm != "winograd":
            return 1.0
        r = self.params.ker_height
        e = min(self._e_opts) if hasattr(self, "_e_opts") and self._e_opts else min(self.e_options)
        t = e + r - 1
        return 2.0 * t * t / (e * e)

    def _tile_ok(self, x: int, y: int, z: int, smem: int) -> bool:
        """Tile-level constraints of Table 1."""
        sb_elements = smem // self.spec.dtype_size
        overhead = self._capacity_per_output()
        if overhead * x * y * z > sb_elements:
            # The resident working set must fit the configured shared memory
            # (for Winograd this includes the temporary-array overhead).
            return False
        if self.pruned:
            r = self.params.reuse_factor
            if z > math.sqrt(sb_elements / r):
                return False
            if x * y > math.sqrt(sb_elements * r):
                return False
        return True

    def _thread_ok(self, tx: int, ty: int, tz: int) -> bool:
        return tx * ty * tz <= min(self.max_threads_per_block, self.spec.max_threads_per_block)

    # ------------------------------------------------------------------ #
    # Size
    # ------------------------------------------------------------------ #
    def size(self) -> int:
        """Number of configurations in the space (computed exactly).

        Counted array-at-a-time by :meth:`_compute_size` (well under a
        millisecond for the shapes a tuning request sees) and memoised, so
        every tuning run, result record and benchmark asking for the size of
        the same space counts it once.
        """
        if self._size is None:
            object.__setattr__(self, "_size", self._compute_size())
        return self._size

    def _compute_size(self) -> int:
        """Exact count: feasible (tile, smem) cells weighted by their thread
        triples, times the knobs no constraint reads (``e``, layout, loop
        order, unroll)."""
        limit = min(self.max_threads_per_block, self.spec.max_threads_per_block)
        # The thread bound depends only on (x, y, z).  One-hot every tile
        # extent's thread options over the values they take and contract
        # with the bound over value triples: combos[i, j, k] is the number of
        # thread triples of tile (x_i, y_j, z_k) within the limit.
        tables = [table for table, _ in self._thread_tables]
        values = np.unique(np.concatenate([t[t != _PAD] for t in tables]))
        hx, hy, hz = ((t[:, :, None] == values).sum(axis=1) for t in tables)
        fits = np.multiply.outer(np.multiply.outer(values, values), values) <= limit
        combos = np.tensordot(hx, hy @ (fits.astype(np.int64) @ hz.T), axes=1)
        # Table 1's tile constraints per (x, y, z, smem) cell; they read no e.
        x, y, z = self._tile_arrs
        ok = self.tile_ok_mask(
            x[:, None, None, None],
            y[None, :, None, None],
            z[None, None, :, None],
            self._smem_arr,
        )
        per_cell = len(self._e_opts) * len(self._layouts) * len(self._orders) * len(self._unrolls)
        return int((combos[..., None] * ok).sum()) * per_cell

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def contains(self, config: Configuration) -> bool:
        """Whether a configuration belongs to this space."""
        if config.algorithm != self.algorithm:
            return False
        if config.tile_x not in self._tile_x_opts:
            return False
        if config.tile_y not in self._tile_y_opts:
            return False
        if config.tile_z not in self._tile_z_opts:
            return False
        if config.smem_per_block not in self._smem_opts:
            return False
        if config.e not in self._e_opts:
            return False
        if config.tile_x % config.threads_x or config.threads_x > 32:
            return False
        if config.tile_y % config.threads_y or config.threads_y > 32:
            return False
        if config.tile_z % config.threads_z or config.threads_z > 32:
            return False
        if not self._thread_ok(config.threads_x, config.threads_y, config.threads_z):
            return False
        return self._tile_ok(
            config.tile_x, config.tile_y, config.tile_z, config.smem_per_block
        )

    # ------------------------------------------------------------------ #
    # Sampling and neighbourhoods
    # ------------------------------------------------------------------ #
    def random_configuration(self, rng: random.Random, max_tries: int = 200) -> Configuration:
        """Draw one uniformly-ish random configuration from the space."""
        for _ in range(max_tries):
            smem = rng.choice(self._smem_opts)
            e = rng.choice(self._e_opts)
            x = rng.choice(self._tile_x_opts)
            y = rng.choice(self._tile_y_opts)
            z = rng.choice(self._tile_z_opts)
            if not self._tile_ok(x, y, z, smem):
                continue
            tx = rng.choice(_thread_options(x))
            ty = rng.choice(_thread_options(y))
            tz = rng.choice(_thread_options(z))
            if not self._thread_ok(tx, ty, tz):
                continue
            return Configuration(
                algorithm=self.algorithm,
                tile_x=x,
                tile_y=y,
                tile_z=z,
                threads_x=tx,
                threads_y=ty,
                threads_z=tz,
                layout=rng.choice(self._layouts),
                smem_per_block=smem,
                e=e,
                unroll=rng.choice(self._unrolls),
                loop_order=rng.choice(self._orders),
            )
        raise RuntimeError(
            "could not sample a feasible configuration; the space may be empty"
        )

    def sample(self, rng: random.Random, count: int) -> List[Configuration]:
        return [self.random_configuration(rng) for _ in range(count)]

    def _adjacent(self, options: Sequence, value, rng: random.Random):
        """Pick a neighbouring option (one step up or down the sorted list)."""
        opts = list(options)
        if value not in opts or len(opts) == 1:
            return rng.choice(opts)
        idx = opts.index(value)
        candidates = [i for i in (idx - 1, idx + 1) if 0 <= i < len(opts)]
        return opts[rng.choice(candidates)]

    def neighbor(self, config: Configuration, rng: random.Random, max_tries: int = 50) -> Configuration:
        """A random-walk step: perturb one knob to an adjacent legal value.

        Used both by the paper's parallel random-walk explorer and by the
        simulated-annealing baseline.
        """
        if not self.contains(config):
            return self.random_configuration(rng)
        knobs = [
            "tile_x",
            "tile_y",
            "tile_z",
            "threads",
            "layout",
            "smem",
            "unroll",
            "order",
        ]
        if self.algorithm == "winograd" and len(self._e_opts) > 1:
            knobs.append("e")
        for _ in range(max_tries):
            knob = rng.choice(knobs)
            d = config.as_dict()
            if knob == "tile_x":
                d["tile_x"] = self._adjacent(self._tile_x_opts, config.tile_x, rng)
                d["threads_x"] = 1
            elif knob == "tile_y":
                d["tile_y"] = self._adjacent(self._tile_y_opts, config.tile_y, rng)
                d["threads_y"] = 1
            elif knob == "tile_z":
                d["tile_z"] = self._adjacent(self._tile_z_opts, config.tile_z, rng)
                d["threads_z"] = 1
            elif knob == "threads":
                axis = rng.choice(("x", "y", "z"))
                extent = d[f"tile_{axis}"]
                d[f"threads_{axis}"] = self._adjacent(
                    _thread_options(extent), d[f"threads_{axis}"], rng
                )
            elif knob == "layout":
                d["layout"] = rng.choice([lay for lay in self._layouts if lay != config.layout])
            elif knob == "smem":
                d["smem_per_block"] = self._adjacent(
                    self._smem_opts, config.smem_per_block, rng
                )
            elif knob == "unroll":
                d["unroll"] = self._adjacent(self._unrolls, config.unroll, rng)
            elif knob == "order":
                d["loop_order"] = rng.choice(
                    [o for o in self._orders if o != config.loop_order]
                )
            elif knob == "e":
                d["e"] = self._adjacent(self._e_opts, config.e, rng)
            candidate = Configuration(**d)
            if self.contains(candidate):
                return candidate
        return self.random_configuration(rng)

    # ------------------------------------------------------------------ #
    # Vectorised batch operations (the search-side hot path)
    # ------------------------------------------------------------------ #
    def tile_ok_mask(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray, smem: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`_tile_ok`: Table 1's tile constraints per row.

        Uses the same float arithmetic (``math.sqrt`` and ``np.sqrt`` are both
        correctly rounded), so the mask agrees with the scalar predicate on
        every row.
        """
        sb_elements = smem // self.spec.dtype_size
        overhead = self._capacity_per_output()
        ok = ~(overhead * (x * y * z) > sb_elements)
        if self.pruned:
            r = self.params.reuse_factor
            ok &= ~(z > np.sqrt(sb_elements / r))
            ok &= ~(x * y > np.sqrt(sb_elements * r))
        return ok

    def thread_ok_mask(
        self, tx: np.ndarray, ty: np.ndarray, tz: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`_thread_ok`."""
        limit = min(self.max_threads_per_block, self.spec.max_threads_per_block)
        return tx * ty * tz <= limit

    def contains_batch(self, configs: ConfigArray) -> np.ndarray:
        """Vectorised :meth:`contains`: membership mask over the rows."""
        ok = configs.algo == self._algo_code
        tiles = (configs.tile_x, configs.tile_y, configs.tile_z)
        threads = (configs.threads_x, configs.threads_y, configs.threads_z)
        for tile, thread, opts in zip(tiles, threads, self._tile_arrs):
            ok &= _member_mask(opts, tile)
            ok &= (tile % np.maximum(thread, 1) == 0) & (thread <= 32) & (thread >= 1)
        ok &= _member_mask(self._smem_arr, configs.smem_per_block)
        ok &= _member_mask(self._e_arr, configs.e)
        ok &= self.thread_ok_mask(*threads)
        ok &= self.tile_ok_mask(*tiles, configs.smem_per_block)
        return ok

    def _sample_columns(
        self, gen: np.random.Generator, m: int
    ) -> Tuple[ConfigArray, np.ndarray]:
        """Draw ``m`` candidate rows and their feasibility mask (one rejection
        round of :meth:`sample_batch`)."""
        out = ConfigArray.filled(m, self.algorithm)
        out.smem_per_block = self._smem_arr[gen.integers(0, self._smem_arr.size, m)]
        out.e = self._e_arr[gen.integers(0, self._e_arr.size, m)]
        tile_idx = []
        for tile_arr, name in zip(self._tile_arrs, ("tile_x", "tile_y", "tile_z")):
            idx = gen.integers(0, tile_arr.size, m)
            tile_idx.append(idx)
            setattr(out, name, tile_arr[idx])
        ok = self.tile_ok_mask(out.tile_x, out.tile_y, out.tile_z, out.smem_per_block)
        for axis, name in enumerate(("threads_x", "threads_y", "threads_z")):
            table, lengths = self._thread_tables[axis]
            pick = gen.integers(0, lengths[tile_idx[axis]])
            setattr(out, name, table[tile_idx[axis], pick])
        ok &= self.thread_ok_mask(out.threads_x, out.threads_y, out.threads_z)
        out.layout = gen.integers(0, len(self._layouts), m)
        out.unroll = self._unroll_arr[gen.integers(0, self._unroll_arr.size, m)]
        out.order = gen.integers(0, len(self._orders), m)
        return out, ok

    def sample_batch(
        self, gen: np.random.Generator, count: int, max_rounds: int = 200
    ) -> ConfigArray:
        """Vectorised :meth:`sample`: ``count`` feasible rows in one array.

        Rejection-samples whole column batches (same knob distributions as
        :meth:`random_configuration`, drawn from ``gen`` instead of a
        ``random.Random``) until ``count`` rows pass the feasibility masks.
        """
        if count <= 0:
            return ConfigArray.filled(0, self.algorithm)
        parts: List[ConfigArray] = []
        have = 0
        for _ in range(max_rounds):
            m = max(2 * (count - have), 32)
            cand, ok = self._sample_columns(gen, m)
            if ok.any():
                parts.append(cand.take(ok))
                have += int(ok.sum())
            if have >= count:
                merged = ConfigArray.concat(parts)
                return merged.take(np.arange(count))
        raise RuntimeError(
            "could not sample a feasible configuration; the space may be empty"
        )

    #: knobs perturbed by :meth:`neighbor_batch`, in :meth:`neighbor` order.
    _KNOBS = ("tile_x", "tile_y", "tile_z", "threads", "layout", "smem", "unroll", "order")
    #: uniform draws consumed per neighbour attempt (knob, axis/alternative,
    #: adjacency direction) — the unit of the explorer's per-walker blocks.
    DRAWS_PER_NEIGHBOR_ROUND = 3

    def _perturb(self, base: ConfigArray, u: np.ndarray) -> ConfigArray:
        """One neighbour attempt per row: perturb one knob to an adjacent
        legal value, driven by the per-row uniforms ``u`` (shape ``(m, 3)``)."""
        knobs = list(self._KNOBS)
        if self.algorithm == "winograd" and len(self._e_opts) > 1:
            knobs.append("e")
        cand = base.copy()
        knob = np.minimum((u[:, 0] * len(knobs)).astype(np.intp), len(knobs) - 1)
        u_alt, u_dir = u[:, 1], u[:, 2]
        axis_names = ("x", "y", "z")
        for k, name in enumerate(knobs):
            rows = np.flatnonzero(knob == k)
            if rows.size == 0:
                continue
            if name in ("tile_x", "tile_y", "tile_z"):
                axis = ("tile_x", "tile_y", "tile_z").index(name)
                cur = getattr(base, name)[rows]
                new = _adjacent_in_sorted(self._tile_arrs[axis], cur, u_dir[rows])
                getattr(cand, name)[rows] = new
                getattr(cand, f"threads_{axis_names[axis]}")[rows] = 1
            elif name == "threads":
                axis_pick = np.minimum((u_alt[rows] * 3).astype(np.intp), 2)
                for axis in range(3):
                    sub = rows[axis_pick == axis]
                    if sub.size == 0:
                        continue
                    table, lengths = self._thread_tables[axis]
                    tile_arr = self._tile_arrs[axis]
                    tname = f"tile_{axis_names[axis]}"
                    thname = f"threads_{axis_names[axis]}"
                    tile_idx = np.searchsorted(tile_arr, getattr(base, tname)[sub])
                    cur = getattr(base, thname)[sub]
                    opt_rows = table[tile_idx]
                    n_opts = lengths[tile_idx]
                    idx = (opt_rows < cur[:, None]).sum(axis=1)
                    step = np.where(u_dir[sub] < 0.5, -1, 1)
                    step = np.where(idx == 0, 1, step)
                    step = np.where(idx == n_opts - 1, -1, step)
                    step = np.where(n_opts == 1, 0, step)
                    getattr(cand, thname)[sub] = opt_rows[
                        np.arange(sub.size), idx + step
                    ]
            elif name == "layout":
                alt = np.minimum((u_alt[rows] * 2).astype(np.int64), 1)
                cur = base.layout[rows]
                cand.layout[rows] = alt + (alt >= cur)
            elif name == "smem":
                cand.smem_per_block[rows] = _adjacent_in_sorted(
                    self._smem_arr, base.smem_per_block[rows], u_dir[rows]
                )
            elif name == "unroll":
                cand.unroll[rows] = _adjacent_in_sorted(
                    self._unroll_arr, base.unroll[rows], u_dir[rows]
                )
            elif name == "order":
                n_alt = len(self._orders) - 1
                alt = np.minimum((u_alt[rows] * n_alt).astype(np.int64), n_alt - 1)
                cur = base.order[rows]
                cand.order[rows] = alt + (alt >= cur)
            else:  # "e"
                cand.e[rows] = _adjacent_in_sorted(
                    self._e_arr, base.e[rows], u_dir[rows]
                )
        return cand

    def neighbor_batch(
        self,
        configs: ConfigArray,
        uniforms: Optional[np.ndarray] = None,
        *,
        gen: Optional[np.random.Generator] = None,
        fallback_gen: Optional[np.random.Generator] = None,
        max_rounds: int = 6,
        assume_contained: bool = False,
    ) -> ConfigArray:
        """Vectorised :meth:`neighbor`: one random-walk step for every row.

        Each round perturbs one knob per still-unresolved row to an adjacent
        legal value and keeps the rows whose candidates pass
        :meth:`contains_batch`; unresolved rows retry (fresh knob draw) next
        round, mirroring the scalar retry loop in lock-step.

        Randomness comes from ``uniforms`` — shape ``(len(configs),
        3 * max_rounds)``, row ``i`` holding walker ``i``'s draws in round
        order — so callers with per-walker RNG streams stay in control of
        which stream feeds which row; round ``r`` consumes columns
        ``3r..3r+2`` whether or not the row still needs them, keeping stream
        consumption data-independent.  Alternatively pass ``gen`` to draw the
        block internally (shared stream).  Rows that are not in the space, or
        that fail every round, fall back to fresh :meth:`sample_batch` rows
        from ``fallback_gen`` (the scalar path's ``random_configuration``
        fallback) or, when ``fallback_gen`` is ``None``, keep their input row.
        ``assume_contained=True`` skips the membership pre-check for callers
        whose rows are in the space by construction (the lock-step explorer).
        """
        n = len(configs)
        if uniforms is None:
            if gen is None:
                raise ValueError("neighbor_batch needs either uniforms or gen")
            uniforms = gen.random((n, self.DRAWS_PER_NEIGHBOR_ROUND * max_rounds))
        rounds = uniforms.shape[1] // self.DRAWS_PER_NEIGHBOR_ROUND
        result = configs.copy()
        if assume_contained:
            pending = np.arange(n, dtype=np.intp)
        else:
            # Rows outside the space never reach _perturb (their knob values
            # may not be in the option tables); they go straight to fallback.
            pending = np.flatnonzero(self.contains_batch(configs))
        resolved = np.zeros(n, dtype=bool)
        # Most rows resolve in the first round, so each retry round operates
        # only on the shrinking failure set (every round perturbs the
        # *original* row with that round's uniform columns, mirroring the
        # scalar retry loop in lock-step).
        for r in range(rounds):
            if pending.size == 0:
                break
            cols = slice(
                self.DRAWS_PER_NEIGHBOR_ROUND * r,
                self.DRAWS_PER_NEIGHBOR_ROUND * (r + 1),
            )
            cand = self._perturb(configs.take(pending), uniforms[pending, cols])
            # Perturbations only move knobs within the option tables (and a
            # changed tile resets its axis threads to 1), so table membership
            # is preserved by construction; only the feasibility constraints
            # need re-checking.
            ok = self.tile_ok_mask(
                cand.tile_x, cand.tile_y, cand.tile_z, cand.smem_per_block
            ) & self.thread_ok_mask(cand.threads_x, cand.threads_y, cand.threads_z)
            done = pending[ok]
            if done.size:
                resolved[done] = True
                for name in ConfigArray.FIELDS:
                    getattr(result, name)[done] = getattr(cand, name)[ok]
            pending = pending[~ok]
        failed = np.flatnonzero(~resolved)
        if failed.size and fallback_gen is not None:
            fresh = self.sample_batch(fallback_gen, failed.size)
            for name in ConfigArray.FIELDS:
                getattr(result, name)[failed] = getattr(fresh, name)
        return result

    def describe(self) -> str:
        kind = "pruned (ATE)" if self.pruned else "full (TVM-style)"
        return (
            f"SearchSpace[{self.algorithm}, {kind}] for {self.params.describe()} "
            f"on {self.spec.name}: {self.size():,} configurations"
        )
