"""The benchmark's workloads: inputs, one timed unit of work, output checks.

Every workload is driven through the library's public API only:

* ``model_tune`` — ``ModelRunner.compare_tuners`` on ResNet-18 (one
  ``TuningService`` drain per unit);
* ``daemon_cheap`` — a closed-loop ``DaemonClient`` over an ``AF_UNIX``
  socket to a ``TuningDaemon`` behind a ``DaemonSocketServer``;
* ``pool_dup`` — ``TuningWorkerPool.tune`` on a duplicate-heavy ATE
  workload, with a second wave answered from the caller's database.

A workload builds its inputs from the ``--seed`` argument, times whole
units of work, and checks the library's answers against
``TuningRequest.tune_direct()`` outside the timed window.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.conv import ConvParams
from repro.core.autotune.database import TuningDatabase
from repro.gpusim import V100, CudnnLibrary
from repro.nets.runner import ModelRunner
from repro.nets.zoo import resnet18
from repro.service import (
    DaemonClient,
    DaemonSocketServer,
    RequestError,
    SocketTransport,
    TuningDaemon,
    TuningRequest,
    TuningService,
    TuningWorkerPool,
)

SPEC = V100


def digest(result) -> str:
    """Trajectory digest: every trial's index, configuration and time."""
    h = hashlib.sha256()
    for t in result.trials:
        h.update(repr((t.index, t.config.key(), t.time_seconds)).encode())
    return h.hexdigest()


def geomean(values) -> float:
    """Geometric mean; 0 when nothing was answered."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Unit:
    """One timed unit of work and what it returned."""

    wall: float
    attempted: int
    failed: int
    #: client-observed seconds per answered request.
    latencies: List[float]
    #: workload-specific outputs kept for the checks and the counts.
    payload: Dict[str, object] = field(default_factory=dict)
    #: counts from the library's public accounting for this unit.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return self.attempted - self.failed


class CheckFailed(Exception):
    """An output of the library differs from its reference."""


class _FutureCollector:
    """Keep every (service, request, future) submitted while active.

    ``ModelRunner`` hands back only per-layer times; the futures give the
    trajectories the checks compare.  The collector wraps
    ``TuningService.submit`` in the same way in traced and untraced units."""

    def __init__(self) -> None:
        self.entries: list = []

    def __enter__(self) -> "_FutureCollector":
        self._original = TuningService.__dict__["submit"]
        original, entries = self._original, self.entries

        def submit(service, request):
            future = original(service, request)
            entries.append((service, request, future))
            return future

        TuningService.submit = submit
        return self

    def __exit__(self, *exc) -> None:
        TuningService.submit = self._original


def _failed_futures(entries) -> int:
    failed = 0
    for _, _, future in entries:
        try:
            future.result(timeout=0)
        except Exception:
            failed += 1
    return failed


# --------------------------------------------------------------------------- #
class ModelTune:
    """ResNet-18 tuned under the ATE and three baseline tuners at once."""

    name = "model_tune"
    tuners = ("ate", "random", "sa_tempering", "genetic")
    budget = 32
    #: units whose tuning seeds define the quality metric; every run times
    #: at least this many.
    min_units = 5
    min_trace_pairs = 1

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"model_tune/{seed}")
        self.seeds = [rng.randrange(1, 2**31) for _ in range(64)]
        self.model = resnet18()
        self._checker = random.Random(f"model_tune/check/{seed}")

    def _runner(self, seed: int) -> ModelRunner:
        return ModelRunner(SPEC, mode="tuned", max_measurements=self.budget, seed=seed)

    def setup(self):
        # Each unit starts from its own runner (fresh database, own seed);
        # set-up times what a unit builds before it can tune.
        return self._runner(self.seeds[0])

    def teardown(self, system) -> None:
        pass

    def trace_indices(self, pair: int):
        # The traced run tunes the same seeds with and without tracing, so
        # the two passes' trajectories can be compared.
        return pair, pair

    def unit(self, system, index: int) -> Unit:
        runner = self._runner(self.seeds[index])
        start = time.perf_counter()
        timings = None
        with _FutureCollector() as collected:
            try:
                timings = runner.compare_tuners(self.model, self.tuners)
            except Exception:
                pass
        wall = time.perf_counter() - start
        entries = collected.entries
        failed = _failed_futures(entries)
        services = {id(s): s for s, _, _ in entries}.values()
        stats = [s.stats for s in services]
        counts = {
            "scheduler.rounds": sum(s.rounds for s in stats),
            "scheduler.executor_calls": sum(s.executor_calls for s in stats),
            "scheduler.packed_configs": sum(s.packed_configs for s in stats),
            "database.hits": runner.database.hits,
            "database.misses": runner.database.misses,
        }
        return Unit(
            wall=wall,
            attempted=len(entries),
            failed=failed,
            latencies=[wall] * (len(entries) - failed),
            payload={"entries": entries, "timings": timings},
            counts=counts,
        )

    # -- outputs ---------------------------------------------------------- #
    def fresh_results(self, unit: Unit):
        out = []
        for _, _, future in unit.payload["entries"]:
            if future.coalesced or future.from_database:
                continue
            try:
                out.append(future.result(timeout=0))
            except Exception:
                continue
        return out

    def quality(self, units: List[Unit]) -> float:
        return geomean(
            u.payload["timings"]["ate"].speedup
            for u in units[: self.min_units]
            if u.payload["timings"] is not None
        )

    def ate_vs_best_baseline(self, unit: Unit) -> float:
        timings = unit.payload["timings"]
        best = min(timings[t].ours_seconds for t in self.tuners if t != "ate")
        return best / timings["ate"].ours_seconds

    def check(self, units: List[Unit]) -> None:
        """A sampled answered request per unit equals its direct run."""
        for unit in units:
            answered = []
            for _, request, future in unit.payload["entries"]:
                try:
                    answered.append((request, future.result(timeout=0)))
                except Exception:
                    continue
            if not answered:
                continue
            request, result = self._checker.choice(answered)
            _check_against_direct(request, result)

    def check_same(self, untraced: Unit, traced: Unit) -> None:
        """Every future's trajectory is the same with and without tracing."""
        a = [_entry_digest(e) for e in untraced.payload["entries"]]
        b = [_entry_digest(e) for e in traced.payload["entries"]]
        if a != b:
            raise CheckFailed("traced model_tune trajectories differ from untraced ones")


def _entry_digest(entry) -> Optional[str]:
    try:
        return digest(entry[2].result(timeout=0))
    except Exception:
        return None


def _check_against_direct(request: TuningRequest, result) -> None:
    direct = request.tune_direct()
    if result.from_cache:
        # Served from the database: the record of an identical fresh run.
        same = (
            result.best_time == direct.best_time
            and result.best_config.key() == direct.best_config.key()
        )
    else:
        same = digest(result) == digest(direct)
    if not same:
        raise CheckFailed(f"result differs from tune_direct() for {request.describe()}")


# --------------------------------------------------------------------------- #
DAEMON_SHAPES = (
    ConvParams.square(14, 64, 64, kernel=3, stride=1, padding=1),
    ConvParams.square(8, 32, 48, kernel=3, stride=1, padding=1),
    ConvParams.square(28, 32, 32, kernel=3, stride=1, padding=1),
    ConvParams.square(7, 128, 128, kernel=3, stride=1, padding=1),
    ConvParams.square(16, 16, 32, kernel=3, stride=1, padding=1),
    ConvParams.square(13, 48, 64, kernel=3, stride=1, padding=1),
)


class _Daemon:
    """A daemon behind a socket server plus one client; ready once pinged."""

    def __init__(self, directory: str, sleep) -> None:
        os.makedirs(directory)
        self.directory = directory
        self.daemon = TuningDaemon(os.path.join(directory, "journal.log"))
        socket_path = os.path.join(directory, "daemon.sock")
        self.server = DaemonSocketServer(self.daemon, socket_path).start()
        self.client = DaemonClient(SocketTransport(socket_path), sleep=sleep)
        self.client.ping()

    def close(self) -> None:
        self.server.stop()
        self.daemon.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _rejected(stats) -> int:
    return stats.rejected_overload + stats.rejected_deadline + stats.rejected_draining


class DaemonCheap:
    """Closed loop of distinct cheap requests through the socket daemon."""

    name = "daemon_cheap"
    #: Run the client and the daemon's server thread on one CPU: on a
    #: shared VM host a wake-up across vCPUs waits for the hypervisor to
    #: run the other vCPU, which dominated per-request latency and its
    #: run-to-run spread.
    one_cpu = True
    per_shape = 5  # requests per shape in one unit (one round)
    budget = 32
    #: rounds whose requests define the quality metric and after which
    #: peak memory is read; every run times at least this many.
    min_units = 10
    min_trace_pairs = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        #: request seeds are first_seed, first_seed + 1, ...: all distinct.
        self.first_seed = random.Random(f"daemon_cheap/{seed}").randrange(2**30)
        self.workdir = workdir
        self._daemons = itertools.count()
        self.backoff_s = 0.0
        self.on_backoff = None
        self.cudnn = {p: CudnnLibrary(SPEC).run_best(p).time_seconds for p in DAEMON_SHAPES}

    def _sleep(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        end = time.perf_counter()
        self.backoff_s += end - start
        if self.on_backoff is not None:
            self.on_backoff(start, end)

    def setup(self) -> _Daemon:
        directory = os.path.join(self.workdir, f"daemon-{next(self._daemons)}")
        return _Daemon(directory, self._sleep)

    def teardown(self, system: _Daemon) -> None:
        system.close()

    def requests(self, index: int) -> List[TuningRequest]:
        rng = random.Random(f"daemon_cheap/{self.seed}/{index}")
        shapes = list(DAEMON_SHAPES) * self.per_shape
        rng.shuffle(shapes)
        first = self.first_seed + index * len(shapes)
        return [
            TuningRequest(
                shape, SPEC, max_measurements=self.budget, seed=first + i,
                pruned=False, tuner="random",
            )
            for i, shape in enumerate(shapes)
        ]

    def trace_indices(self, pair: int):
        # Distinct requests: a repeat would be re-served from the journal.
        return 2 * pair, 2 * pair + 1

    def unit(self, system: _Daemon, index: int) -> Unit:
        requests = self.requests(index)
        daemon_before = system.daemon.stats
        service_before = system.daemon.service.stats
        retries_before = system.client.retries
        backoff_before = self.backoff_s
        db = system.daemon.database
        hits_before, misses_before = db.hits, db.misses
        latencies, answered = [], []
        failed = 0
        start = time.perf_counter()
        for request in requests:
            sent = time.perf_counter()
            try:
                result = system.client.result(system.client.submit(request))
            except (RequestError, ConnectionError):
                failed += 1
                continue
            latencies.append(time.perf_counter() - sent)
            answered.append((request, result))
        wall = time.perf_counter() - start
        daemon_after = system.daemon.stats
        service_after = system.daemon.service.stats
        counts = {
            "scheduler.rounds": service_after.rounds - service_before.rounds,
            "scheduler.executor_calls": service_after.executor_calls - service_before.executor_calls,
            "scheduler.packed_configs": service_after.packed_configs - service_before.packed_configs,
            "database.hits": db.hits - hits_before,
            "database.misses": db.misses - misses_before,
            "daemon.rejected": _rejected(daemon_after) - _rejected(daemon_before),
            "frontend.retries": system.client.retries - retries_before,
            "frontend.backoff_s": self.backoff_s - backoff_before,
        }
        return Unit(wall, len(requests), failed, latencies, {"answered": answered}, counts)

    def fresh_results(self, unit: Unit):
        return [result for _, result in unit.payload["answered"]]

    def quality(self, units: List[Unit]) -> float:
        pairs = [p for u in units[: self.min_units] for p in u.payload["answered"]]
        return geomean(self.cudnn[r.params] / res.best_time for r, res in pairs)

    def check(self, units: List[Unit]) -> None:
        """Every decoded result equals its direct run."""
        for unit in units:
            for request, result in unit.payload["answered"]:
                if digest(result) != digest(request.tune_direct()):
                    raise CheckFailed(f"daemon result differs from tune_direct() for {request.describe()}")


# --------------------------------------------------------------------------- #
POOL_PROBLEMS = (
    ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1),
    ConvParams.square(16, 32, 48, kernel=3, stride=1, padding=1),
    ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1),
    ConvParams.square(11, 24, 40, kernel=3, stride=1, padding=1),
)
POOL_COUNTS = ("records_streamed", "pre_served", "coalesced", "measurements", "worker_failures")


class PoolDup:
    """Duplicate-heavy pruned ATE workload through the streaming pool."""

    name = "pool_dup"
    budget = 48
    seed_rows = 3
    min_units = 2
    min_trace_pairs = 3

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"pool_dup/{seed}")
        row_seeds = rng.sample(range(1, 10_000), self.seed_rows)
        wave = []
        for row, row_seed in enumerate(row_seeds):
            for slot in range(len(POOL_PROBLEMS)):
                problem = POOL_PROBLEMS[(slot + row) % len(POOL_PROBLEMS)]
                wave.append(
                    TuningRequest(problem, SPEC, max_measurements=self.budget, seed=row_seed)
                )
        #: first wave: every (problem, seed) plus verbatim repeats of the
        #: first row; second wave: the distinct requests again, which the
        #: caller's database already answers.
        self.first_wave = wave + wave[: len(POOL_PROBLEMS)]
        self.second_wave = list(wave)
        self.cudnn = {p: CudnnLibrary(SPEC).run_best(p).time_seconds for p in POOL_PROBLEMS}
        self._direct: Dict[TuningRequest, str] = {}

    def setup(self) -> TuningWorkerPool:
        # num_workers=0: one worker per CPU, capped by the pool.
        return TuningWorkerPool(num_workers=0, streaming=True)

    def teardown(self, system) -> None:
        pass

    def trace_indices(self, pair: int):
        return pair, pair

    def unit(self, pool: TuningWorkerPool, index: int) -> Unit:
        database = TuningDatabase()
        attempted = len(self.first_wave) + len(self.second_wave)
        counts = {f"pool.{name}": 0 for name in POOL_COUNTS}
        results = []
        start = time.perf_counter()
        try:
            for wave in (self.first_wave, self.second_wave):
                results.append(pool.tune(wave, database=database))
                stats = pool.stats  # accounting of this tune() call only
                for name in POOL_COUNTS:
                    counts[f"pool.{name}"] += getattr(stats, name)
        except Exception:
            wall = time.perf_counter() - start
            return Unit(wall, attempted, attempted, [], {"waves": None}, counts)
        wall = time.perf_counter() - start
        counts["database.hits"] = database.hits
        counts["database.misses"] = database.misses
        return Unit(wall, attempted, 0, [wall] * attempted, {"waves": results}, counts)

    def fresh_results(self, unit: Unit):
        if unit.payload["waves"] is None:
            return []
        return [r for wave in unit.payload["waves"] for r in wave if not r.from_cache]

    def _best_fresh(self, unit: Unit) -> Dict[ConvParams, List[float]]:
        times: Dict[ConvParams, List[float]] = {}
        for request, result in zip(self.first_wave, unit.payload["waves"][0]):
            if not result.from_cache:
                times.setdefault(request.params, []).append(result.best_time)
        return times

    def quality(self, units: List[Unit]) -> float:
        done = [u for u in units[: self.min_units] if u.payload["waves"] is not None]
        if not done:
            return 0.0
        best = {p: min(t) for p, t in self._best_fresh(done[0]).items()}
        return geomean(self.cudnn[p] / t for p, t in best.items())

    def check(self, units: List[Unit]) -> None:
        """Fresh results equal their direct runs; served results carry a
        fresh record of their problem, and the second wave the best one."""
        for unit in units:
            if unit.payload["waves"] is None:
                continue
            fresh = self._best_fresh(unit)
            first, second = unit.payload["waves"]
            for request, result in zip(self.first_wave, first):
                if result.from_cache:
                    if result.best_time not in fresh.get(request.params, ()):
                        raise CheckFailed(f"served result is no fresh record for {request.describe()}")
                    continue
                if request not in self._direct:
                    self._direct[request] = digest(request.tune_direct())
                if digest(result) != self._direct[request]:
                    raise CheckFailed(f"pool result differs from tune_direct() for {request.describe()}")
            for request, result in zip(self.second_wave, second):
                if not result.from_cache or result.best_time != min(fresh[request.params]):
                    raise CheckFailed(f"second wave not served the best record for {request.describe()}")


WORKLOADS = {w.name: w for w in (ModelTune, DaemonCheap, PoolDup)}

