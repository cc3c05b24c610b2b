"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of each layer of the tuner (the
calls listed by ``layer_calls``) for the duration of a traced pass.  Each
call records one span: name, start, end, parent span (the innermost open
span of the same thread), process id, an optional request reference and
optional counts read from the call's arguments or result.  Spans stay in
memory; a traced pass ends by writing them to a JSON file.

Worker processes of the tuning pool are forked while the wrappers are
installed, so they record spans too.  The recorder clears the inherited
spans in each forked child and writes the child's spans to a file when the
child exits; the parent folds those files back in (``collect_children``).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing.util
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    pid: int
    thread: int
    request: object = None
    counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, result):
    runtimes = args[2] if len(args) > 2 else kwargs["runtimes"]
    return {"rows": len(runtimes)}


def _returned(args, kwargs, result):
    return {"items": len(result)}


def _configs(args, kwargs, result):
    return {"items": len(args[1])}


def _group_configs(args, kwargs, result):
    return {"items": sum(len(batch) for batch in args[1])}


def _progressed(args, kwargs, result):
    return {"progressed": int(bool(result))}


def _first_arg(args, kwargs):
    return args[1] if len(args) > 1 else None


def layer_calls():
    """(owner, attribute, span name, request getter, counts getter) for every
    wrapped entry point, imported lazily so this module loads without the
    library on the path."""
    from repro.core.autotune import explorer as explorer_module
    from repro.core.autotune.baselines import BaselineSession
    from repro.core.autotune.config import Measurer
    from repro.core.autotune.cost_model import CostModel
    from repro.core.autotune.database import TuningDatabase
    from repro.core.autotune.explorer import ParallelRandomWalkExplorer
    from repro.core.autotune.space import SearchSpace
    from repro.gpusim.executor import GPUExecutor
    from repro.service import (
        RequestJournal,
        SocketTransport,
        TuningDaemon,
        TuningService,
        TuningWorkerPool,
    )

    calls = [
        (CostModel, "fit", "cost_model.fit", None, _rows),
        (CostModel, "predict_score", "cost_model.predict", None, None),
        (ParallelRandomWalkExplorer, "propose", "explorer.propose", None, _returned),
        (explorer_module, "feature_matrix", "features.matrix", None, None),
        (SearchSpace, "__init__", "space.init", None, None),
        (SearchSpace, "size", "space.size", None, None),
        (Measurer, "prepare_batch", "measure.prepare", None, _configs),
        (Measurer, "finish_batch", "measure.finish", None, None),
        (GPUExecutor, "run_batch_groups", "executor.run", None, _group_configs),
        (BaselineSession, "propose", "baselines.propose", None, None),
        (TuningService, "submit", "scheduler.submit", _first_arg, None),
        (TuningService, "step", "scheduler.step", None, _progressed),
        (TuningDatabase, "lookup", "database.lookup", None, None),
        (TuningDatabase, "put", "database.put", None, None),
        (RequestJournal, "__init__", "journal.recover", None, None),
        (TuningDaemon, "handle", "daemon.handle", _first_arg, None),
        (TuningDaemon, "tick", "daemon.tick", None, _progressed),
        (SocketTransport, "call", "frontend.call", _first_arg, None),
        (TuningWorkerPool, "tune", "pool.tune", None, None),
    ]
    calls += [
        (RequestJournal, event, "journal.append", None, None)
        for event in ("accept", "mark_running", "complete", "fail")
    ]
    return calls


class SpanRecorder:
    """Install span-recording wrappers, collect spans, write them out."""

    def __init__(self, out_dir: str, request_key: Callable[[object], Optional[str]]) -> None:
        self.out_dir = os.path.abspath(out_dir)
        #: turns a recorded request reference (a TuningRequest or a wire op)
        #: into its request id when spans are written out.
        self.request_key = request_key
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[tuple] = []
        self.main_thread = threading.get_ident()
        self.pid = os.getpid()
        multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    # -- recording ------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, request=None, counts=None):
        """Record a span that ran outside any wrapper (e.g. a backoff sleep)."""
        stack = self._stack()
        self.spans.append(
            Span(next(self._ids), stack[-1] if stack else None, name, start, end,
                 os.getpid(), threading.get_ident(), request, counts)
        )

    def _wrap(self, fn: Callable, name: str, get_request, get_counts) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            request = get_request(args, kwargs) if get_request else None
            counts = get_counts(args, kwargs, result) if get_counts else None
            recorder.spans.append(
                Span(sid, parent, name, start, end, os.getpid(),
                     threading.get_ident(), request, counts)
            )
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, get_request, get_counts in layer_calls():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, get_request, get_counts))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- forked pool workers --------------------------------------------- #
    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        if self._saved:
            multiprocessing.util.Finalize(self, self._write_child, exitpriority=10)

    def _write_child(self) -> None:
        self.write(os.path.join(self.out_dir, f"child-{self.pid}-{os.getpid()}.json"))

    def collect_children(self) -> int:
        """Fold span files written by exited worker processes; returns how
        many spans arrived."""
        prefix = f"child-{self.pid}-"
        arrived = 0
        for entry in sorted(os.listdir(self.out_dir)):
            if not entry.startswith(prefix):
                continue
            path = os.path.join(self.out_dir, entry)
            with open(path) as fh:
                for d in json.load(fh):
                    self.spans.append(Span(**d))
                    arrived += 1
            os.remove(path)
        return arrived

    def write(self, path: str) -> None:
        rows = []
        for span in self.spans:
            row = dict(span.__dict__)
            row["request"] = self.request_key(span.request)
            rows.append(row)
        with open(path, "w") as fh:
            json.dump(rows, fh)


# -- derived per-layer numbers ------------------------------------------- #
def self_times(spans: Sequence[Span]) -> Dict[tuple, float]:
    """(pid, span id) -> duration minus the time its child spans cover.

    Children are recorded in the parent's thread and process and nest
    strictly inside it, so their durations add up without overlap."""
    child_time: Dict[tuple, float] = {}
    for s in spans:
        if s.parent is not None:
            key = (s.pid, s.parent)
            child_time[key] = child_time.get(key, 0.0) + s.duration
    return {(s.pid, s.sid): s.duration - child_time.get((s.pid, s.sid), 0.0) for s in spans}


@dataclass
class SpanSummary:
    """Per span name: calls, total time, self time and summed counts."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


def summarise(spans: Sequence[Span]) -> Dict[str, SpanSummary]:
    own = self_times(spans)
    out: Dict[str, SpanSummary] = {}
    for s in spans:
        summary = out.setdefault(s.name, SpanSummary())
        summary.calls += 1
        summary.total_s += s.duration
        summary.self_s += own[(s.pid, s.sid)]
        for key, value in (s.counts or {}).items():
            summary.counts[key] = summary.counts.get(key, 0) + value
    return out


def root_time(spans: Sequence[Span], pid: int, thread: int) -> float:
    """Time covered by the top-level spans of one thread."""
    return sum(s.duration for s in spans if s.parent is None and s.pid == pid and s.thread == thread)
