"""``SearchSpace.size()`` equals the scalar enumeration, as an integer.

The library counts a space array-at-a-time; ``tests/space_oracle.py`` holds
the knob-by-knob enumeration it replaced.  The two must agree exactly on
every GPU spec, both algorithms, pruned and unpruned spaces, every thread
limit and ``e_options`` set, degenerate output extents and the Table 2
spaces — and so must the ``space_size`` a tuning result reports.
"""

import itertools

import pytest

from space_oracle import (
    E_OPTION_SETS,
    THREAD_LIMITS,
    random_spaces,
    scalar_size,
    table2_spaces,
)
from repro.conv import ConvParams
from repro.core.autotune import SearchSpace
from repro.gpusim import KNOWN_GPUS, V100
from repro.service import TuningRequest

SPECS = sorted(KNOWN_GPUS.values(), key=lambda spec: spec.name)
SHAPE = ConvParams.square(12, 32, 48, kernel=3, stride=1, padding=1)


def _assert_exact(space):
    size = space.size()
    assert type(size) is int
    assert size == scalar_size(space), space.describe()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("algorithm", ["direct", "winograd"])
@pytest.mark.parametrize("pruned", [False, True], ids=["full", "pruned"])
def test_every_spec_algorithm_and_domain(spec, algorithm, pruned):
    _assert_exact(SearchSpace(SHAPE, spec, algorithm, pruned=pruned))


@pytest.mark.parametrize("limit", THREAD_LIMITS)
@pytest.mark.parametrize("e_options", E_OPTION_SETS, ids=str)
def test_thread_limits_and_e_options(limit, e_options):
    for pruned in (False, True):
        _assert_exact(
            SearchSpace(
                SHAPE,
                V100,
                "winograd",
                pruned=pruned,
                e_options=e_options,
                max_threads_per_block=limit,
            )
        )


@pytest.mark.parametrize(
    "out_h, out_w, channels",
    [(1, 1, 1), (1, 1, 64), (7, 7, 13), (13, 11, 17), (1, 29, 32), (31, 1, 3)],
)
def test_prime_and_unit_extents(out_h, out_w, channels):
    params = ConvParams(
        in_height=out_h + 2, in_width=out_w + 2, in_channels=8, out_channels=channels
    )
    for spec, algorithm, pruned in itertools.product(
        SPECS, ("direct", "winograd"), (False, True)
    ):
        _assert_exact(SearchSpace(params, spec, algorithm, pruned=pruned))


def test_randomised_spaces():
    for space in random_spaces(120, seed=13):
        _assert_exact(space)


def test_table2_spaces():
    for space in table2_spaces(V100):
        _assert_exact(space)


def test_size_is_memoised():
    space = SearchSpace(SHAPE, V100, "direct")
    assert space.size() is space.size()


@pytest.mark.parametrize(
    "tuner, pruned", [("ate", True), ("tvm_style", False), ("random", False)]
)
def test_result_space_size_matches_the_oracle(tuner, pruned):
    request = TuningRequest(
        SHAPE, V100, max_measurements=16, seed=3, pruned=pruned, tuner=tuner
    )
    result = request.tune_direct()
    assert result.space_size == scalar_size(request.make_tuner().space)
