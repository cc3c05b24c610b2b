"""Sharded tuning across a long-lived worker pool with record streaming.

For workloads whose search spaces are too large for one process, the pool
shards :class:`~repro.service.TuningRequest` traffic across worker
processes.  Each shard runs its own :class:`~repro.service.TuningService`
(so coalescing and cross-request batching still apply *within* a shard) with
its own private :class:`~repro.core.autotune.database.TuningDatabase`.

**One execution path.**  The pool is a long-lived serving fleet —
:meth:`~TuningWorkerPool.start` brings the shards up,
:meth:`~TuningWorkerPool.submit` routes one request at a time to its shard
and returns a per-request :class:`~repro.service.futures.TuningFuture`
immediately, :meth:`~TuningWorkerPool.step` pumps the fleet one round, and
:meth:`~TuningWorkerPool.stop` drains and retires it; this is what backs the
daemon.  A batch :meth:`~TuningWorkerPool.tune` is the same session run to
completion: it answers what the caller's database already covers, brings
the fleet up with one shard per placement group, enqueues every remaining
request on its shard and stops.  Every shard runs the same loop — admit
backlog into the window, run one scheduling round, report each settled
ticket — either in a worker process (:func:`_serve_shard`) or as an
in-parent :class:`_ShardRunner` advanced by the parent's pump.

**Streaming** (the default): every time a run completes, the shard captures
the records that changed its database
(:meth:`~repro.core.autotune.database.TuningDatabase.changes_since`) and
ships them to the parent as serializable
:class:`~repro.core.autotune.database.RecordEnvelope` payloads.  The parent
folds each arriving record into the shared database immediately (monotonic
keep-better ``apply``) and pushes the winners down every *other* shard's
sync queue; shards inject them between scheduling rounds
(:meth:`~repro.service.scheduler.TuningService.inject_records`), so their
submit-time database serving sees cross-shard bests mid-workload: a problem
shard A already solved is never re-tuned by shard B's not-yet-admitted
requests.  Shards admit their backlog incrementally (``admit_window`` runs
at a time) precisely so that later requests still *are* "new submits" when a
cross-shard record lands.

**Merge-at-end** (``streaming=False``, the conservative mode and the
benchmark reference the exchange is gated against): shards ship no records
mid-run, the parent broadcasts nothing, each shard admits its whole backlog
up front, and records reach the shared database only from each shard's
final report.

Invariants the streaming layer preserves:

* **Bit-identity of fresh runs** — injected records never touch an in-flight
  session (sessions do not consult the database mid-run), so every freshly
  tuned result remains bit-identical to
  :meth:`~repro.service.request.TuningRequest.tune_direct`.
* **Monotonic database** — all folds go through keep-better ``apply``;
  records can only improve, whatever order they arrive in (streaming apply
  of any arrival permutation equals one bulk ``merge`` of the same records).
* **Loop-free exchange** — only records that *changed* a database are
  re-broadcast, so an echoed record dies at the first database that already
  holds it.

Placement keeps identical requests in one shard, so duplicates coalesce
in-process instead of being tuned twice in two workers.  A batch ``tune()``
knows its whole workload and places it round-robin over distinct requests
(duplicates follow their first occurrence), which balances the shards;
serving-mode ``submit()`` sees one request at a time and hashes the
request's idempotency digest (:func:`~repro.service.journal.request_id` —
the coalescing key minus ``deadline``), so identical rids land in the same
shard across submits and restarts, which Python's per-process salted
``hash()`` could not guarantee.

A batch worker holds its first scheduling round until the stop sentinel
arrives, so every request of the ``tune()`` call is in its backlog before
it admits anything: process-mode admission is exactly the in-parent one.

Fault tolerance is one model for every way a worker can fail: a worker that
dies (killed, crashed), reports an error, or sends a malformed completion
report is failed over — its durable shard log (``store_dir``) is salvaged
into the shared database, the process is terminated, and its unresolved
tickets re-run in an in-parent runner against the shared database, so
records the worker streamed or persisted before failing are served, not
re-tuned; the failure is counted in :attr:`TuningWorkerPool.stats`.
Liveness is judged by process death, never by silence: a healthy worker may
spend arbitrarily long on one round.  Malformed sync payloads and corrupted
results-queue messages ("poisoned envelopes") are dropped and counted, never
applied.  When no worker processes can be created at all — restricted
sandboxes, missing semaphores — the pool degrades to a deterministic
in-process interleaving of the shards with the same semantics, producing
the same results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.autotune.database import (
    RecordEnvelope,
    TuningDatabase,
    TuningDatabaseError,
    TuningRecord,
)
from ..core.autotune.store import LogStore
from ..core.autotune.engine import TuningResult
from ..obs import (
    NULL_OBS,
    MetricsRegistry,
    MetricsSnapshot,
    MonotonicClock,
    Observability,
)
from .errors import RequestCancelled, RequestError, RequestFailed, error_from_wire
from .futures import TuningFuture
from .journal import request_id
from .policy import SchedulingPolicy, make_policy
from .request import TuningRequest
from .scheduler import ServiceStats, TuningService

__all__ = ["PoolStats", "TuningWorkerPool"]

#: parent's bounded wait on the results queue while stop() waits for the
#: workers' final reports (pacing only: never a liveness deadline).
_POLL_SECONDS = 0.2
#: empty polls after noticing a dead worker before declaring its shard lost
#: (a worker may exit healthily with its final message still in the pipe).
_DEATH_GRACE_POLLS = 3
#: serving worker's idle pacing between loop iterations (pacing only).
_SERVE_IDLE_SLEEP = 0.005
#: serving parent's bounded wait on the results queue when a step would
#: otherwise report no progress while workers still owe completions — keeps
#: a drain loop above (the daemon's run_until_idle) paced instead of hot.
_SERVE_PARENT_WAIT = 0.005


@dataclass
class PoolStats:
    """Accounting of one :meth:`TuningWorkerPool.tune` workload or serving
    session.

    Like :class:`~repro.service.scheduler.ServiceStats`, this is a *snapshot
    view* since the registry migration: the live counts are thread-safe
    registry counters and :attr:`TuningWorkerPool.stats` materialises one
    coherent copy per read.
    """

    requests: int = 0
    #: requests answered from the caller's database before sharding.
    pre_served: int = 0
    shards: int = 0
    #: "serial" or "processes" ("unused" until a workload ran).
    mode: str = "unused"
    streaming: bool = False
    #: record envelopes received by the parent mid-workload ...
    records_streamed: int = 0
    #: ... of which improved the shared database (and were re-broadcast).
    records_applied: int = 0
    #: malformed payloads dropped by the parent or a worker.
    poisoned_envelopes: int = 0
    #: workers failed over to the parent (died, errored, or sent a
    #: malformed completion report).
    worker_failures: int = 0
    #: records recovered from a dead worker's shard log (``store_dir``
    #: pools only): work the worker persisted but never got to stream.
    records_recovered: int = 0
    # Aggregates over every shard service (plus in-parent failover runners):
    measurements: int = 0
    tuning_runs: int = 0
    database_hits: int = 0
    coalesced: int = 0

    def describe(self) -> str:
        return (
            f"PoolStats[{self.requests} requests over {self.shards} {self.mode} "
            f"shards ({self.pre_served} pre-served), {self.tuning_runs} runs / "
            f"{self.measurements} measurements, {self.records_streamed} records "
            f"streamed ({self.records_applied} applied, "
            f"{self.poisoned_envelopes} poisoned), "
            f"{self.worker_failures} worker failures / "
            f"{self.records_recovered} records recovered]"
        )


def _shard_for_request(request: TuningRequest, num_shards: int) -> int:
    """Serving-mode shard assignment: a stable hash of the coalescing key.

    Hashes the daemon's idempotency digest (:func:`request_id` — canonical
    wire form minus ``deadline``), so identical rids always map to the same
    shard and coalesce inside that shard's service, across submits,
    restarts and processes.  Python's builtin ``hash()`` is salted per
    process and would guarantee none of that.
    """
    return int(request_id(request)[:8], 16) % num_shards


def _decode_envelope(wire: object) -> Optional[RecordEnvelope]:
    """Decode a wire payload; ``None`` for poisoned envelopes (never raises)."""
    try:
        return RecordEnvelope.from_wire(wire)
    except TuningDatabaseError:
        return None


def _drain(q) -> List[object]:
    """Non-blocking drain of a multiprocessing queue.

    A frame that fails to deserialize (sender killed mid-put) is skipped —
    anything it carried is recovered by the keep-better final merge — with
    a bounded retry budget so a permanently wedged pipe cannot spin forever.
    """
    items: List[object] = []
    bad_frames = 0
    while bad_frames < 100:
        try:
            items.append(q.get_nowait())
        except queue.Empty:
            break
        except Exception:
            bad_frames += 1
    return items


def _is_outcome(outcome: object) -> bool:
    """A well-formed ``done_one`` outcome: ``("ok", TuningResult)`` or
    ``("err", error_wire_dict)``."""
    if not (isinstance(outcome, tuple) and len(outcome) == 2):
        return False
    kind, payload = outcome
    return (kind == "ok" and isinstance(payload, TuningResult)) or (
        kind == "err" and isinstance(payload, dict)
    )


def _is_final_report(payload: object) -> bool:
    """A well-formed ``bye`` payload (see :func:`_serve_shard`)."""
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("stats"), ServiceStats)
        and isinstance(payload.get("metrics"), dict)
        and isinstance(payload.get("records"), list)
        and isinstance(payload.get("poisoned"), int)
    )


class _ShardRunner:
    """Drive one shard's service incrementally: sync -> admit -> step.

    The runner owns the shard's private :class:`TuningService` and feeds it
    the shard's requests at most ``admit_window`` active runs at a time
    (``<= 0`` = admit everything up front, the maximal-packing batch
    behaviour).  Windowed admission is what gives cross-shard streaming its
    leverage: a request still in the backlog when a synced record arrives is
    served at submit time with zero measurements.

    ``take_new_records`` returns the records stored since the last call
    using the database's revision counter; :meth:`sync` advances the same
    checkpoint past the records it injects, so a shard never echoes back
    what it just received.
    """

    def __init__(
        self,
        requests: Sequence[TuningRequest],
        policy: Optional[SchedulingPolicy] = None,
        admit_window: int = 0,
        database: Optional[TuningDatabase] = None,
        obs: Optional[Observability] = None,
        store_path: Optional[str] = None,
    ) -> None:
        if database is None and store_path is not None:
            # Durable shard: every effective put lands in an append-only
            # log, and constructing the store replays whatever an earlier
            # (crashed) incarnation of this shard persisted — the worker
            # restarts with its records instead of re-tuning them.
            database = TuningDatabase(store=LogStore(store_path))
        self.service = TuningService(database=database, policy=policy, obs=obs)
        self.admit_window = admit_window
        #: backlog of (ticket, request); duplicates may be admitted out of
        #: backlog order (to coalesce onto their twin's in-flight run), so
        #: futures are keyed by ticket, not appended.
        self.pending: Deque[Tuple[int, TuningRequest]] = deque(enumerate(requests))
        self.futures: Dict[int, object] = {}
        self._checkpoint = self.service.database.revision

    def enqueue(self, ticket: int, request: TuningRequest) -> None:
        """Append one request to the backlog under the caller's ``ticket``."""
        self.pending.append((ticket, request))

    def sync(self, records: Sequence[TuningRecord]) -> int:
        """Inject cross-shard records; returns how many improved the shard."""
        applied = self.service.inject_records(records) if records else []
        self._checkpoint = self.service.database.revision
        return len(applied)

    def step(self) -> bool:
        """Admit backlog into the window and run one scheduling round.

        Duplicates never wait on the window: a backlog head identical to an
        in-flight run is admitted straight away, and whenever an admitted
        request opens (or joins) a run, every identical request still in the
        backlog — however far back — is admitted with it.  They coalesce
        onto that run without opening new ones, so duplicates (notably
        unpruned requests, which the database can never serve) cost exactly
        what they would under all-at-once submission; windowed admission can
        only ever *remove* runs, never add them.

        Returns False once the shard is finished (nothing active, nothing
        pending) — by then every future is answered.
        """
        while self.pending:
            ticket, head = self.pending[0]
            coalesces = self.service.coalescer.get(head) is not None
            if (
                not coalesces
                and self.admit_window > 0
                and self.service.num_active >= self.admit_window
            ):
                break
            self.pending.popleft()
            self.futures[ticket] = self.service.submit(head)
            if self.service.coalescer.get(head) is not None:
                # The request is now in flight: pull its backlog duplicates
                # forward so they ride the run instead of re-tuning after
                # it retires.
                remaining: Deque[Tuple[int, TuningRequest]] = deque()
                for later_ticket, later in self.pending:
                    if later == head:
                        self.futures[later_ticket] = self.service.submit(later)
                    else:
                        remaining.append((later_ticket, later))
                self.pending = remaining
        return self.service.step() or bool(self.pending)

    def take_new_records(self) -> List[TuningRecord]:
        new = self.service.database.changes_since(self._checkpoint)
        self._checkpoint = self.service.database.revision
        return new

    def drain_store(self) -> None:
        """Retire the shard's database: flush durable state, then close.

        The pool-side drain hook (the daemon's graceful drain reaches
        streaming shards through it): a log-backed shard compacts its
        append-only store into an fsync'd snapshot before closing, so the
        next incarnation recovers from the snapshot and replays a zero- or
        near-zero-length log tail instead of the whole workload's appends.
        Flush trouble is deliberately non-fatal (degrade-never-crash): the
        uncompacted log still holds every effective put, so recovery is
        merely slower, not lossy.
        """
        store = self.service.database.store
        if isinstance(store, LogStore) and store.path is not None:
            try:
                store.snapshot()
            except (OSError, TuningDatabaseError):
                pass
        self.service.database.close()


def _serve_shard(
    shard_index: int,
    policy: Optional[SchedulingPolicy],
    admit_window: int,
    submit_queue,
    sync_queue,
    results_queue,
    obs_enabled: bool = False,
    store_path: Optional[str] = None,
    streaming: bool = True,
    batch: bool = False,
) -> None:
    """The pool's worker entry point (module-level: pickles everywhere).

    The backlog arrives over ``submit_queue`` as ``("submit", ticket,
    request)`` messages, and every settled ticket is reported individually
    as ``("done_one", shard, ticket, outcome)`` where ``outcome`` is
    ``("ok", result)`` or ``("err", error_wire)`` — typed errors travel as
    their wire dicts so the parent re-raises the same class.  A streaming
    worker injects the records arriving on ``sync_queue`` between rounds and
    ships every newly stored record as ``("record", shard, envelope_wire)``;
    a merge-at-end worker ships none.  A ``("stop",)`` sentinel finishes
    in-flight work, ships a final ``("bye", shard, report)`` (stats, a
    metrics-snapshot wire dict, the full shard database — the merge-at-end
    fold and a safety net for any lost stream message — and the poisoned
    count) and exits gracefully; any crash becomes an ``("error", ...)``
    message and the parent fails the shard over.

    ``batch`` holds the first scheduling round until the stop sentinel
    arrives: a batch ``tune()`` enqueues its whole workload and then stops,
    so the shard admits exactly that backlog.

    :class:`~repro.obs.Observability` holds locks and ring buffers and is
    deliberately not picklable, so the parent sends only ``obs_enabled`` and
    the worker builds its own bundle (real monotonic clock — a worker entry
    point is an edge of the system, where real clocks are allowed).
    """
    try:
        obs = Observability(
            enabled=obs_enabled, clock=MonotonicClock() if obs_enabled else None
        )
        runner = _ShardRunner(
            [],
            policy=policy,
            admit_window=admit_window,
            obs=obs,
            store_path=store_path,
        )
        poisoned = 0
        stopping = False
        while True:
            holding = batch and not stopping
            submits = [submit_queue.get()] if holding else _drain(submit_queue)
            for message in submits:
                if message == ("stop",):
                    stopping = True
                elif (
                    isinstance(message, tuple)
                    and len(message) == 3
                    and message[0] == "submit"
                    and isinstance(message[1], int)
                    and isinstance(message[2], TuningRequest)
                ):
                    runner.enqueue(message[1], message[2])
                else:
                    poisoned += 1
            if holding:
                continue
            incoming: List[TuningRecord] = []
            for wire in _drain(sync_queue):
                envelope = _decode_envelope(wire)
                if envelope is None:
                    poisoned += 1
                else:
                    incoming.append(envelope.record)
            runner.sync(incoming)
            progressed = runner.step()
            for record in runner.take_new_records() if streaming else ():
                envelope = RecordEnvelope(
                    record=record,
                    origin=shard_index,
                    revision=runner.service.database.revision,
                )
                results_queue.put(("record", shard_index, envelope.to_wire()))
            for ticket, future in list(runner.futures.items()):
                if not future.done():
                    continue
                del runner.futures[ticket]
                try:
                    result = future.result(timeout=0)
                except RequestError as err:
                    outcome = ("err", err.to_wire())
                except Exception as exc:
                    outcome = ("err", RequestFailed(str(exc)).to_wire())
                else:
                    outcome = ("ok", result)
                results_queue.put(("done_one", shard_index, ticket, outcome))
            if stopping and not progressed:
                break
            if not progressed and not submits:
                # Pacing while idle, not a timing source.
                time.sleep(_SERVE_IDLE_SLEEP)
        results_queue.put(
            (
                "bye",
                shard_index,
                {
                    "stats": runner.service.stats,
                    "metrics": runner.service.metrics_snapshot()
                    .merged(obs.snapshot())
                    .to_wire(),
                    "records": [r.to_dict() for r in runner.service.database.records()],
                    "poisoned": poisoned,
                },
            )
        )
    except BaseException as exc:  # pragma: no cover - exercised via kill tests
        try:
            results_queue.put(("error", shard_index, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    else:
        # Graceful worker exit = a drained shard: durable stores are
        # compacted before close so a restart replays a short tail.
        runner.drain_store()


class TuningWorkerPool:
    """Shard tuning workloads across processes, streaming records between them.

    One execution path (see the module docstring): :meth:`start` /
    :meth:`submit` / :meth:`step` / :meth:`stop` run a long-lived serving
    session, and :meth:`tune` is a whole batch run through that session.

    ``streaming=True`` (default) exchanges best-known records mid-workload;
    ``streaming=False`` is merge-at-end (every shard admits its backlog up
    front, records merge from the shards' final reports) — kept both as the
    conservative mode and as the benchmark reference the streamed exchange
    is gated against.

    ``admit_window`` bounds how many runs each streaming shard keeps active
    at once (``<= 0`` = admit the whole backlog up front).  Smaller windows
    trade a little packing density for more submit-time serving
    opportunities.

    ``use_processes`` forces the execution mode: ``None`` (default) tries
    processes and falls back to the deterministic in-process interleaving,
    ``False`` always runs in-process, ``True`` requires processes (raises
    where they are unavailable).  Sessions with one shard always run
    in-process — a pool buys nothing there.

    ``obs`` is an optional :class:`~repro.obs.Observability` bundle for the
    telemetry extras (stream counters, shard lifecycle events, sync-queue
    depths, spans).  The accounting behind :attr:`stats` is always live.
    Worker processes cannot share the parent's bundle (it is not picklable),
    so each worker builds its own when observability is enabled and ships a
    metrics snapshot back in its final report; :meth:`fleet_snapshot`
    merges the shards' snapshots with the parent's into one fleet view.

    ``store_dir`` makes shards durable: shard ``i``'s private database is
    backed by an append-only :class:`~repro.core.autotune.store.LogStore` at
    ``<store_dir>/shard-<i>.log``, so every effective put survives the
    worker process.  A restarted worker recovers its records from the log
    instead of re-tuning them, and when a worker fails over the parent
    recovers its log directly — records the worker persisted but never
    streamed are folded into the shared database before the shard's
    in-parent rerun (counted in :attr:`PoolStats.records_recovered`).

    The pool is not thread-safe; the daemon above serialises every call
    under its own lock, and direct users must do the same.
    """

    def __init__(
        self,
        num_workers: int = 0,
        start_method: Optional[str] = None,
        allow_serial_fallback: bool = True,
        policy: "Optional[object]" = None,
        streaming: bool = True,
        admit_window: int = 4,
        use_processes: Optional[bool] = None,
        obs: Optional[Observability] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 = one per CPU, capped)")
        self.num_workers = num_workers or min(4, os.cpu_count() or 1)
        self.start_method = start_method
        self.allow_serial_fallback = allow_serial_fallback
        #: scheduling policy every worker's in-process service runs with
        #: (instance or registry name; normalised here so bad names fail fast).
        self.policy = make_policy(policy)
        self.streaming = streaming
        self.admit_window = admit_window
        self.use_processes = use_processes
        #: directory for durable per-shard record logs (None = in-memory
        #: shard databases, the default).
        self.store_dir = os.fspath(store_dir) if store_dir is not None else None
        #: True when the last session ran in worker processes (False = the
        #: in-process interleaving was used).
        self.used_processes = False
        self.obs = obs if obs is not None else NULL_OBS
        # Observability extras: cumulative across sessions (unlike the
        # per-session accounting), all null no-ops when obs is disabled.
        # A "worker" here is a shard, whether a process or an in-parent
        # runner, so the fleet view is the same in both modes.
        reg = self.obs.registry
        self._o_envelopes = reg.counter("pool.stream.envelopes")
        self._o_workers_started = reg.counter("pool.workers.started")
        self._o_workers_done = reg.counter("pool.workers.done")
        self._o_workers_failed = reg.counter("pool.workers.failed")
        self._o_sync_depth = reg.gauge("pool.sync.queue_depth")
        # Session state (inert until a session starts; cleared when it ends).
        self._serving = False
        self._serve_shards = 0
        self._serve_exchange: Optional[TuningDatabase] = None
        self._serve_futures: Dict[int, TuningFuture] = {}
        self._serve_tickets: Dict[int, Tuple[int, TuningRequest]] = {}
        self._next_ticket = 0
        self._serve_runners: Dict[int, _ShardRunner] = {}
        self._serve_inboxes: Dict[int, List[TuningRecord]] = {}
        self._serve_workers: Dict[int, object] = {}
        self._serve_submit_queues: Dict[int, object] = {}
        self._serve_sync_queues: Dict[int, object] = {}
        self._serve_results_queue = None
        self._serve_dead_polls: Dict[int, int] = {}
        self._serve_byes: Dict[int, bool] = {}
        self._reset_accounting(streaming=False)

    def _reset_accounting(self, streaming: bool) -> None:
        """Fresh per-session accounting registry (every tune and start)."""
        self._metrics = MetricsRegistry()
        acc = self._metrics.scope("pool")
        self._c_requests = acc.counter("requests")
        self._c_pre_served = acc.counter("pre_served")
        self._c_shards = acc.counter("shards")
        self._c_records_streamed = acc.counter("records_streamed")
        self._c_records_applied = acc.counter("records_applied")
        self._c_poisoned = acc.counter("poisoned_envelopes")
        self._c_worker_failures = acc.counter("worker_failures")
        self._c_records_recovered = acc.counter("records_recovered")
        self._c_measurements = acc.counter("measurements")
        self._c_tuning_runs = acc.counter("tuning_runs")
        self._c_database_hits = acc.counter("database_hits")
        self._c_coalesced = acc.counter("coalesced")
        self._stats_mode = "unused"
        self._stats_streaming = streaming
        #: merged shard telemetry (worker wire snapshots in process mode,
        #: shard-service accounting in-process) for :meth:`fleet_snapshot`.
        self._shard_metrics = MetricsSnapshot()

    @property
    def stats(self) -> PoolStats:
        """One consistent accounting snapshot (see :class:`PoolStats`).

        While serving, in-parent shard runners' service accounting is added
        live (their stats are absorbed into the counters only at
        :meth:`stop`); process workers report theirs in their graceful
        ``bye``, so process-mode aggregates trail until the shard retires.
        """
        c = self._metrics.snapshot().counters
        stats = PoolStats(
            requests=c.get("pool.requests", 0),
            pre_served=c.get("pool.pre_served", 0),
            shards=c.get("pool.shards", 0),
            mode=self._stats_mode,
            streaming=self._stats_streaming,
            records_streamed=c.get("pool.records_streamed", 0),
            records_applied=c.get("pool.records_applied", 0),
            poisoned_envelopes=c.get("pool.poisoned_envelopes", 0),
            worker_failures=c.get("pool.worker_failures", 0),
            records_recovered=c.get("pool.records_recovered", 0),
            measurements=c.get("pool.measurements", 0),
            tuning_runs=c.get("pool.tuning_runs", 0),
            database_hits=c.get("pool.database_hits", 0),
            coalesced=c.get("pool.coalesced", 0),
        )
        if self._serving:
            for runner in self._serve_runners.values():
                live = runner.service.stats
                stats.measurements += live.measurements
                stats.tuning_runs += live.tuning_runs
                stats.database_hits += live.database_hits
                stats.coalesced += live.coalesced
        return stats

    def _absorb(self, service_stats: ServiceStats) -> None:
        """Fold one shard service's accounting into the pool totals."""
        self._c_measurements.inc(service_stats.measurements)
        self._c_tuning_runs.inc(service_stats.tuning_runs)
        self._c_database_hits.inc(service_stats.database_hits)
        self._c_coalesced.inc(service_stats.coalesced)

    def _merge_shard_metrics(self, snapshot: MetricsSnapshot) -> None:
        self._shard_metrics = self._shard_metrics.merged(snapshot)

    def fleet_snapshot(self) -> MetricsSnapshot:
        """One merged telemetry view of the last session's whole fleet.

        Pool-level accounting (``pool.*``), the parent's observability
        extras, and every shard's shipped/absorbed telemetry (``service.*``
        plus worker-side extras), merged with the associative snapshot-merge
        semantics — so the totals are independent of shard report order.
        While serving, live in-parent runners contribute their current
        accounting the same way (absorbed permanently at :meth:`stop`).
        """
        snapshot = self._metrics.snapshot().merged(self._shard_metrics)
        if self._serving:
            for runner in self._serve_runners.values():
                snapshot = snapshot.merged(runner.service.metrics_snapshot())
        return snapshot.merged(self.obs.snapshot())

    # ------------------------------------------------------------------ #
    def _shard(self, requests: Sequence[TuningRequest]) -> Tuple[int, List[int]]:
        """Round-robin distinct requests over shards; duplicates follow their
        first occurrence so they coalesce inside one worker.

        Returns the shard count (never more than the distinct requests, so
        no shard is empty) and each request's shard.
        """
        num_shards = max(1, min(self.num_workers, len(set(requests)) or 1))
        shard_of: dict = {}
        placement: List[int] = []
        for request in requests:
            shard = shard_of.get(request)
            if shard is None:
                shard = shard_of[request] = len(shard_of) % num_shards
            placement.append(shard)
        return num_shards, placement

    def _shard_store_path(self, index: int) -> Optional[str]:
        """The durable log location for shard ``index`` (None when the pool
        was built without ``store_dir``)."""
        if self.store_dir is None:
            return None
        return os.path.join(self.store_dir, f"shard-{index}.log")

    def _recover_shard_store(self, index: int, exchange: TuningDatabase) -> int:
        """Fold a dead worker's shard log into the shared database.

        Returns how many recovered records improved it.  Recovery is
        best-effort in the pool's degrade-never-crash style: a missing log
        means the worker died before its first put (nothing to recover),
        and an unreadable one is counted as poisoned — the in-parent rerun
        re-tunes that work either way.
        """
        path = self._shard_store_path(index)
        if path is None or not os.path.exists(path):
            return 0
        try:
            store = LogStore(path)
        except (OSError, TuningDatabaseError):
            self._c_poisoned.inc()
            return 0
        try:
            applied = exchange.apply(store.scan())
        finally:
            store.close()
        self._c_records_recovered.inc(len(applied))
        return len(applied)

    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    @property
    def _admit_window(self) -> int:
        """Shard admission window: merge-at-end shards admit everything up
        front (nothing can arrive to serve a held-back request)."""
        return self.admit_window if self.streaming else 0

    @staticmethod
    def _covering_record(
        database: TuningDatabase, request: TuningRequest
    ) -> Optional[TuningRecord]:
        """The record that answers ``request`` with zero measurements, if
        any (unpruned requests are never database-served)."""
        if not request.pruned:
            return None
        return database.lookup(
            request.params,
            request.spec,
            request.algorithm,
            budget=request.max_measurements,
            noise=request.noise,
            noise_seed=request.noise_seed,
        )

    # ------------------------------------------------------------------ #
    def tune(
        self,
        requests: Sequence[TuningRequest],
        database: Optional[TuningDatabase] = None,
    ) -> List[TuningResult]:
        """Tune a workload across the pool; results in submission order.

        ``database`` (optional) plays the same role as the in-process
        service's shared database: requests it already covers are served in
        the parent with zero measurements (no shard starts for them),
        records streamed back mid-workload are folded into it immediately,
        and when the workload finishes it holds every shard's records (the
        final merge is a keep-better no-op for anything already streamed).
        """
        if self._serving:
            raise RuntimeError(
                "pool is in serving mode; use submit()/step(), or stop() "
                "serving before running a batch workload"
            )
        requests = list(requests)
        self._reset_accounting(streaming=self.streaming)
        if not requests:
            return []
        self._c_requests.inc(len(requests))
        # Serve covered requests from the caller's database up front, exactly
        # like TuningService.submit does — shards start with empty private
        # databases and must not re-tune what the caller already knows.
        served: Dict[int, TuningResult] = {}
        pending: List[int] = []
        for i, request in enumerate(requests):
            record = None if database is None else self._covering_record(database, request)
            if record is not None:
                served[i] = record.as_result()
            else:
                pending.append(i)
        self._c_pre_served.inc(len(served))
        if not pending:
            self.used_processes = False
            self._stats_mode = "serial"
            return [served[i] for i in range(len(requests))]
        num_shards, placement = self._shard([requests[i] for i in pending])
        self._bring_up(database, num_shards, batch=True)
        try:
            futures = {
                i: self._enqueue(requests[i], shard)
                for i, shard in zip(pending, placement)
            }
            self.stop()
        except BaseException:
            self.terminate()
            raise
        return [
            served[i] if i in served else futures[i].result(timeout=0)
            for i in range(len(requests))
        ]

    # -- serving session ------------------------------------------------- #
    @property
    def serving(self) -> bool:
        return self._serving

    def start(self, database: Optional[TuningDatabase] = None) -> None:
        """Enter serving mode: bring up the shard fleet with empty backlogs.

        ``database`` plays the batch ``tune(database=...)`` role for the
        whole serving session: pruned submits it covers are answered in the
        parent with zero measurements, records fold into it (streamed ones
        immediately), and the graceful :meth:`stop` leaves it holding every
        shard's records.  The daemon passes its shared database here.

        Processes are used when available (and more than one shard), else
        the deterministic in-process interleaving; ``use_processes`` forces
        either.  A stopped or terminated pool may ``start()`` again —
        durable shards (``store_dir``) then recover their logs instead of
        re-tuning.
        """
        if self._serving:
            raise RuntimeError("pool is already serving; stop() it first")
        self._reset_accounting(streaming=self.streaming)
        self._bring_up(database, max(1, self.num_workers), batch=False)

    def _bring_up(
        self, database: Optional[TuningDatabase], num_shards: int, batch: bool
    ) -> None:
        """Start a session of ``num_shards`` shards (``batch``: workers hold
        their first round until :meth:`stop`'s sentinel)."""
        self._serve_exchange = database if database is not None else TuningDatabase()
        self._serve_shards = num_shards
        self._next_ticket = 0
        self._serving = True
        self._c_shards.inc(num_shards)
        self.used_processes = False
        if num_shards > 1 and self.use_processes is not False:
            try:
                self._start_processes(batch)
                self.used_processes = True
            except (OSError, PermissionError, ImportError):
                if not self.allow_serial_fallback or self.use_processes is True:
                    self._serving = False
                    raise
        if not self.used_processes:
            for i in range(num_shards):
                self._serve_runners[i] = _ShardRunner(
                    [],
                    policy=self.policy,
                    admit_window=self._admit_window,
                    obs=self.obs,
                    store_path=self._shard_store_path(i),
                )
                self._serve_inboxes[i] = []
            self._o_workers_started.inc(num_shards)
        self._stats_mode = "processes" if self.used_processes else "serial"

    def _start_processes(self, batch: bool) -> None:
        ctx = self._context()
        self._serve_results_queue = ctx.Queue()
        for i in range(self._serve_shards):
            self._serve_submit_queues[i] = ctx.Queue()
            self._serve_sync_queues[i] = ctx.Queue()
        try:
            for i in range(self._serve_shards):
                process = ctx.Process(
                    target=_serve_shard,
                    args=(
                        i,
                        self.policy,
                        self._admit_window,
                        self._serve_submit_queues[i],
                        self._serve_sync_queues[i],
                        self._serve_results_queue,
                        self.obs.enabled,
                        self._shard_store_path(i),
                        self.streaming,
                        batch,
                    ),
                    daemon=True,
                )
                process.start()
                self._o_workers_started.inc()
                self._serve_workers[i] = process
        except BaseException:
            for process in self._serve_workers.values():
                process.terminate()
            self._serve_workers.clear()
            self._close_serve_queues()
            raise

    def submit(self, request: TuningRequest) -> TuningFuture:
        """Serving-mode submit: returns a per-request future immediately.

        Pruned requests the shared database already covers are answered on
        the spot (``from_database``, zero measurements) exactly like
        :meth:`TuningService.submit`; everything else is routed to its
        rid-stable shard (:func:`_shard_for_request`), where identical
        requests coalesce.  The future settles as :meth:`step` pumps the
        fleet.
        """
        if not self._serving:
            raise RuntimeError("pool is not serving; call start() first")
        self._c_requests.inc()
        record = self._covering_record(self._serve_exchange, request)
        if record is not None:
            self._c_pre_served.inc()
            future = TuningFuture(request)
            future.from_database = True
            future._set_result(record.as_result())
            return future
        return self._enqueue(request, _shard_for_request(request, self._serve_shards))

    def _enqueue(self, request: TuningRequest, shard: int) -> TuningFuture:
        """Ticket ``request`` onto ``shard``'s backlog (in-parent runner or
        worker submit queue); the returned future settles as the fleet is
        pumped."""
        future = TuningFuture(request)
        ticket = self._next_ticket
        self._next_ticket += 1
        self._serve_futures[ticket] = future
        self._serve_tickets[ticket] = (shard, request)
        runner = self._serve_runners.get(shard)
        if runner is not None:
            runner.enqueue(ticket, request)
        else:
            self._serve_submit_queues[shard].put(("submit", ticket, request))
        return future

    def step(self) -> bool:
        """Pump the serving fleet one round; True while work is in flight.

        When process workers still owe completions and nothing else
        progressed, blocks briefly on the results queue
        (``_SERVE_PARENT_WAIT``) so a drain loop above polls paced instead
        of hot.
        """
        if not self._serving:
            return False
        wait = _SERVE_PARENT_WAIT if self._serve_futures else 0.0
        return self._pump(wait) or bool(self._serve_futures)

    def _outstanding(self) -> List[int]:
        """Process shards that have neither retired nor failed over."""
        return [s for s in self._serve_workers if s not in self._serve_byes]

    def _pump(self, wait: float) -> bool:
        """One fleet round, shared by :meth:`step` and :meth:`stop`; True
        when anything progressed.

        Drains the results queue (records, per-ticket completions, final
        reports, failing dead workers over), advances every in-parent runner
        one scheduling round with the exchange between them, and — when
        nothing progressed but process workers still owe reports — waits up
        to ``wait`` seconds for the next one.
        """
        results = self._serve_results_queue
        messages = _drain(results) if results is not None else []
        progressed = False
        for message in messages:
            progressed = self._handle_message(message) or progressed
        progressed = self._advance_runners() or progressed
        if not progressed and wait > 0 and self._outstanding():
            try:
                messages = [results.get(timeout=wait)]
            except queue.Empty:
                pass
            except Exception:
                # A worker SIGKILLed mid-put can leave a truncated pickle
                # frame in the shared pipe; get() then raises instead of
                # Empty.  Same failure class as a poisoned envelope: count
                # it, keep checking liveness (the sender will be noticed
                # dead), and pace — a wedged pipe raises immediately.
                self._c_poisoned.inc()
                time.sleep(wait)
            else:
                progressed = self._handle_message(messages[0])
        if results is not None and not messages:
            progressed = self._note_serving_deaths() or progressed
        return progressed

    def _advance_runners(self) -> bool:
        """Run every in-parent shard one round: sync its inbox, step,
        stream its new records, settle its finished tickets."""
        progressed = False
        for shard in sorted(self._serve_runners):
            runner = self._serve_runners[shard]
            inbox = self._serve_inboxes.get(shard) or []
            if inbox:
                self._serve_inboxes[shard] = []
                self._o_sync_depth.set(len(inbox))
            runner.sync(inbox)
            if runner.step():
                progressed = True
            if self.streaming:
                shares_exchange = runner.service.database is self._serve_exchange
                for record in runner.take_new_records():
                    self._c_records_streamed.inc()
                    self._o_envelopes.inc()
                    self._serve_broadcast(
                        record, origin=shard, already_applied=shares_exchange
                    )
            for ticket, service_future in list(runner.futures.items()):
                if service_future.done():
                    del runner.futures[ticket]
                    if self._settle_serving(ticket, service_future=service_future):
                        progressed = True
        return progressed

    def _handle_message(self, message: object) -> bool:
        """Validate and dispatch one results-queue message; True when it
        settled a ticket or advanced the exchange.

        A corrupted message is the same failure class as a poisoned
        envelope: dropped and counted, never allowed to crash the parent.
        A completion report that fails validation — a ``done_one`` outcome
        or a ``bye`` report of the wrong shape — fails its shard over like
        a dead worker, so every request is still answered.
        """
        if not (isinstance(message, tuple) and len(message) in (3, 4)):
            self._c_poisoned.inc()
            return False
        tag, shard = message[0], message[1]
        if (
            not isinstance(shard, int)
            or isinstance(shard, bool)
            or not 0 <= shard < self._serve_shards
        ):
            self._c_poisoned.inc()
            return False
        if tag == "record" and len(message) == 3:
            envelope = _decode_envelope(message[2])
            if envelope is None:
                self._c_poisoned.inc()
                return False
            self._c_records_streamed.inc()
            self._o_envelopes.inc()
            self._serve_broadcast(envelope.record, origin=shard)
            return True
        if tag == "done_one" and len(message) == 4:
            ticket, outcome = message[2], message[3]
            if not isinstance(ticket, int) or isinstance(ticket, bool):
                self._c_poisoned.inc()
                return False
            if not _is_outcome(outcome):
                self._failover_serving_shard(shard)
                return True
            return self._settle_serving(ticket, outcome=outcome)
        if tag == "bye" and len(message) == 3:
            return self._retire_serving_worker(shard, message[2])
        if tag == "error" and len(message) == 3:
            self._failover_serving_shard(shard)
            return True
        self._c_poisoned.inc()
        return False

    def _serve_broadcast(
        self, record: TuningRecord, origin: int, already_applied: bool = False
    ) -> None:
        """Fold one shard's record into the exchange and, when it improved
        it, forward the surviving record to every other shard.

        Forward what apply() kept, not the raw incoming record: on a
        collision (e.g. with a faster caller-database record) the exchange's
        surviving record is the servable best.  ``already_applied`` marks
        records from failed-over runners whose database *is* the exchange;
        the broadcast still runs so other shards serve from them.
        Forwarding to in-parent runners goes through their inboxes — the
        next :meth:`_ShardRunner.sync` injects and advances the checkpoint,
        so nothing echoes.
        """
        if already_applied:
            winner = record
        else:
            applied = self._serve_exchange.apply([record])
            if not applied:
                return
            winner = applied[0]
        self._c_records_applied.inc()
        wire = None
        for j, sync_queue in self._serve_sync_queues.items():
            if j == origin or j in self._serve_runners or j in self._serve_byes:
                continue
            if wire is None:
                wire = RecordEnvelope(
                    record=winner, origin=origin, revision=self._serve_exchange.revision
                ).to_wire()
            try:
                sync_queue.put(wire)
            except Exception:  # pragma: no cover - defensive (closed queue)
                pass
        for j, inbox in self._serve_inboxes.items():
            if j != origin:
                inbox.append(winner)

    def _settle_serving(
        self, ticket: int, outcome: object = None, service_future=None
    ) -> bool:
        """Answer one ticket's parent future from a worker's well-formed
        report (``outcome``) or an in-parent service future.  Late reports
        for cancelled or already-failed-over tickets are discarded."""
        future = self._serve_futures.pop(ticket, None)
        self._serve_tickets.pop(ticket, None)
        if future is None or future.done():
            return False
        if service_future is not None:
            try:
                result = service_future.result(timeout=0)
            except BaseException as exc:
                future._set_exception(exc)
            else:
                future.from_database = service_future.from_database
                future.coalesced = service_future.coalesced
                future._set_result(result)
        elif outcome[0] == "ok":
            future._set_result(outcome[1])
        else:
            future._set_exception(error_from_wire(outcome[1]))
        return True

    def _retire_serving_worker(self, shard: int, payload: object) -> bool:
        """Fold a graceful worker's final ``bye`` report (stats, metrics,
        full-database safety net) and mark its shard retired."""
        if shard in self._serve_byes or shard not in self._serve_workers:
            self._c_poisoned.inc()
            return False
        if not _is_final_report(payload):
            self._failover_serving_shard(shard)
            return True
        self._serve_byes[shard] = True
        self._o_workers_done.inc()
        try:
            self._serve_exchange.apply(
                TuningRecord.from_dict(d) for d in payload["records"]
            )
        except Exception:
            self._c_poisoned.inc()
        self._absorb(payload["stats"])
        try:
            self._merge_shard_metrics(MetricsSnapshot.from_wire(payload["metrics"]))
        except Exception:
            # A corrupted telemetry blob is the same failure class as a
            # poisoned envelope — never crash the parent over it.
            self._c_poisoned.inc()
        self._c_poisoned.inc(payload["poisoned"])
        return True

    def _note_serving_deaths(self) -> bool:
        """Failover check: a worker gone without a ``bye`` (after the grace
        polls that let a final message finish travelling the pipe) degrades
        its shard to an in-parent runner.  True when one failed over."""
        failed_over = False
        for shard in self._outstanding():
            if self._serve_workers[shard].is_alive():
                continue
            self._serve_dead_polls[shard] = self._serve_dead_polls.get(shard, 0) + 1
            if self._serve_dead_polls[shard] >= _DEATH_GRACE_POLLS:
                self._failover_serving_shard(shard)
                failed_over = True
        return failed_over

    def _failover_serving_shard(self, shard: int) -> None:
        """A worker failed: salvage its durable log into the exchange, then
        hand its unresolved tickets (and any future submits routed to it)
        to an in-parent runner against the exchange.  Records the worker
        streamed or persisted before failing are served, not re-tuned; the
        pool (and the daemon above) keeps serving throughout."""
        if shard in self._serve_runners:
            return
        process = self._serve_workers.pop(shard, None)
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)
        self._c_worker_failures.inc()
        self._o_workers_failed.inc()
        self._recover_shard_store(shard, self._serve_exchange)
        runner = _ShardRunner(
            [],
            policy=self.policy,
            admit_window=self._admit_window,
            database=self._serve_exchange,
            obs=self.obs,
        )
        for ticket in sorted(
            t for t, (s, _) in self._serve_tickets.items() if s == shard
        ):
            future = self._serve_futures.get(ticket)
            if future is None or future.done():
                continue
            runner.enqueue(ticket, self._serve_tickets[ticket][1])
        self._serve_runners[shard] = runner
        self._serve_inboxes[shard] = []

    def cancel(
        self, request: TuningRequest, exc: Optional[BaseException] = None
    ) -> bool:
        """Serving-mode cancel: answer every unresolved future for
        ``request`` with ``exc`` (default
        :class:`~repro.service.errors.RequestCancelled`).

        In-parent shards cancel the underlying run through
        :meth:`TuningService.cancel`; for a process shard the cancel is
        parent-side — the worker may finish the run anyway, and its late
        report is discarded (:meth:`_settle_serving`).  Returns True when
        at least one future was answered.
        """
        if not self._serving:
            return False
        error = (
            exc
            if exc is not None
            else RequestCancelled(f"cancelled: {request.describe()}")
        )
        cancelled = False
        for ticket, (shard, ticketed) in list(self._serve_tickets.items()):
            if ticketed != request:
                continue
            future = self._serve_futures.get(ticket)
            runner = self._serve_runners.get(shard)
            if runner is not None:
                runner.pending = deque(
                    (p, r) for p, r in runner.pending if p != ticket
                )
                runner.futures.pop(ticket, None)
                runner.service.cancel(request, error)
            if future is not None and not future.done():
                future._set_exception(error)
                cancelled = True
            self._serve_futures.pop(ticket, None)
            self._serve_tickets.pop(ticket, None)
        return cancelled

    def stop(self) -> None:
        """Leave serving mode gracefully.

        Process workers get a ``("stop",)`` sentinel, finish their in-flight
        work, compact their durable stores and report ``bye`` (folded into
        the pool's accounting and the exchange).  The wait ends on each
        worker's ``bye`` or its detected death (which fails it over), never
        on a deadline: a healthy worker may spend arbitrarily long on one
        round.  In-parent runners drain their backlogs, compact and are
        absorbed.  Any future still unresolved afterwards is answered with
        :class:`~repro.service.errors.RequestCancelled` — drain first (pump
        :meth:`step` until idle, as the daemon's drain does) for a clean
        stop.  Idempotent; a stopped pool may :meth:`start` again.
        """
        if not self._serving:
            return
        for shard in self._outstanding():
            try:
                self._serve_submit_queues[shard].put(("stop",))
            except Exception:  # pragma: no cover - defensive
                pass
        while self._pump(_POLL_SECONDS) or self._outstanding():
            pass
        for runner in self._serve_runners.values():
            if runner.service.database is not self._serve_exchange:
                # A shard that ran in-parent from the start (failover
                # runners already share the exchange).
                self._serve_exchange.apply(runner.service.database)
                runner.drain_store()
                self._o_workers_done.inc()
            self._absorb(runner.service.stats)
            self._merge_shard_metrics(runner.service.metrics_snapshot())
        for future in list(self._serve_futures.values()):
            if not future.done():
                future._set_exception(
                    RequestCancelled("pool stopped while request in flight")
                )
        self._finish_serving()

    def terminate(self) -> None:
        """SIGKILL-style exit from serving mode: no drain, no sentinel, no
        compaction — workers are terminated, shard databases just close, and
        unresolved futures fail.  A later :meth:`start` of a durable pool
        recovers the shard logs; everything else recovers through whatever
        journal sits above (the daemon's fault model)."""
        if not self._serving:
            return
        for process in self._serve_workers.values():
            if process.is_alive():
                process.terminate()
        for process in self._serve_workers.values():
            process.join(timeout=1.0)
        for runner in self._serve_runners.values():
            if runner.service.database is self._serve_exchange:
                continue  # shared exchange outlives the pool (daemon owns it)
            try:
                runner.service.database.close()
            except Exception:  # pragma: no cover - defensive
                pass
        for future in list(self._serve_futures.values()):
            if not future.done():
                future._set_exception(RequestCancelled("pool terminated"))
        self._finish_serving()

    def _finish_serving(self) -> None:
        """Common serving teardown: settle bookkeeping, close queues."""
        for process in self._serve_workers.values():
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
        self._close_serve_queues()
        self._serve_futures.clear()
        self._serve_tickets.clear()
        self._serve_runners.clear()
        self._serve_inboxes.clear()
        self._serve_workers.clear()
        self._serve_dead_polls.clear()
        self._serve_byes.clear()
        self._serving = False

    def _close_serve_queues(self) -> None:
        queues = list(self._serve_submit_queues.values())
        queues.extend(self._serve_sync_queues.values())
        if self._serve_results_queue is not None:
            queues.append(self._serve_results_queue)
        for q in queues:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - defensive
                pass
        self._serve_submit_queues = {}
        self._serve_sync_queues = {}
        self._serve_results_queue = None

    def describe(self) -> Dict[str, object]:
        """JSON-native status snapshot (folded into the daemon's
        ``describe`` op when the pool backs it)."""
        return {
            "kind": "TuningWorkerPool",
            "serving": self._serving,
            "mode": self._stats_mode,
            "num_workers": self.num_workers,
            "streaming": self.streaming,
            "admit_window": self.admit_window,
            "in_flight": len(self._serve_futures),
            "stats": dataclasses.asdict(self.stats),
        }
