"""Scalar reference for ``SearchSpace.size()`` (a test oracle).

:func:`scalar_size` counts a space by enumerating it knob by knob, calling
the scalar feasibility predicates ``_tile_ok`` and ``_thread_ok`` on every
tile and thread triple.  The library's vectorised count must equal it as an
integer; ``tests/test_space_size.py`` and ``benchmarks/bench_space_size.py``
compare the two.
"""

from __future__ import annotations

import random
from typing import List

from repro.conv import ConvParams
from repro.core.autotune.space import SearchSpace, _thread_options
from repro.gpusim import KNOWN_GPUS
from repro.nets import alexnet


def scalar_size(space: SearchSpace) -> int:
    """Number of configurations in ``space``, by full enumeration."""
    total = 0
    per_layout_order_unroll = len(space._layouts) * len(space._orders) * len(space._unrolls)
    for smem in space._smem_opts:
        for _e in space._e_opts:
            for x in space._tile_x_opts:
                tx_opts = _thread_options(x)
                for y in space._tile_y_opts:
                    ty_opts = _thread_options(y)
                    for z in space._tile_z_opts:
                        if not space._tile_ok(x, y, z, smem):
                            continue
                        tz_opts = _thread_options(z)
                        thread_combos = sum(
                            1
                            for tx in tx_opts
                            for ty in ty_opts
                            for tz in tz_opts
                            if space._thread_ok(tx, ty, tz)
                        )
                        total += thread_combos * per_layout_order_unroll
    return total


#: Winograd tile-size sets the randomised spaces draw from.
E_OPTION_SETS = ((2, 3, 4), (2,), (4, 2), (2, 3, 4, 6))
#: per-block thread limits the randomised spaces draw from.
THREAD_LIMITS = (64, 96, 128, 256, 512, 768, 1024)
#: output extents with few (primes, 1) and many (highly composite) divisors.
EXTENTS = (1, 2, 7, 8, 11, 12, 13, 14, 24, 27, 28, 36, 55, 56, 60)
CHANNELS = (1, 3, 16, 17, 32, 48, 64, 96, 128, 192, 256, 384)


def random_spaces(count: int, seed: int = 0) -> List[SearchSpace]:
    """``count`` randomised spaces over every GPU spec, both algorithms,
    pruned and unpruned, the thread limits and the ``e_options`` sets."""
    rng = random.Random(seed)
    specs = sorted(KNOWN_GPUS.values(), key=lambda spec: spec.name)
    spaces = []
    for i in range(count):
        algorithm = ("direct", "winograd")[i % 2]
        out_h, out_w = rng.choice(EXTENTS), rng.choice(EXTENTS)
        kernel = rng.choice((1, 3, 5))
        stride = 1 if algorithm == "winograd" else rng.choice((1, 2))
        params = ConvParams(
            in_height=(out_h - 1) * stride + kernel,
            in_width=(out_w - 1) * stride + kernel,
            in_channels=rng.choice(CHANNELS),
            out_channels=rng.choice(CHANNELS),
            ker_height=kernel,
            ker_width=kernel,
            stride=stride,
        )
        spaces.append(
            SearchSpace(
                params,
                specs[i % len(specs)],
                algorithm,
                pruned=bool((i // 2) % 2),
                e_options=rng.choice(E_OPTION_SETS),
                max_threads_per_block=rng.choice(THREAD_LIMITS),
            )
        )
    return spaces


def table2_spaces(spec) -> List[SearchSpace]:
    """The unpruned (TVM) and pruned (ATE) spaces of Table 2: AlexNet
    conv1–conv4 direct, conv3/conv4 Winograd."""
    model = alexnet()
    cases = [(name, "direct") for name in ("conv1", "conv2", "conv3", "conv4")]
    cases += [("conv3", "winograd"), ("conv4", "winograd")]
    return [
        SearchSpace(model.layer(name).params(), spec, algorithm, pruned=pruned)
        for name, algorithm in cases
        for pruned in (False, True)
    ]
