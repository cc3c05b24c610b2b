"""One crash model, one fault suite: :class:`DurableLog` under both owners.

:class:`~repro.core.autotune.store.LogStore` (tuning records) and
:class:`~repro.service.journal.RequestJournal` (daemon requests) are state
folds over the same :class:`~repro.core.autotune.store.DurableLog`, so every
crash window is tested against both:

* a log cut anywhere inside its last line (the append in flight when the
  process died) recovers everything before that append, and a last line
  that lost only its newline survives the next append;
* a snapshot write that dies mid-document, ``os.replace`` failing between
  the snapshot install and the log reset, and a reset that fails in process
  (later appends keep extending the old log) all recover the pre-crash
  state.

The layout tests pin the on-disk bytes: ``tests/data/durable_log`` holds
files :func:`write_layout` produced with the build from before the two
owners shared :class:`DurableLog` (compaction snapshot, log tail, torn last
line), plus the state that build recovered from them.
"""

import errno
import json
import os
import shutil

import pytest

import repro.core.autotune.store as store_module
from repro.conv import ConvParams
from repro.core.autotune import Configuration, LogStore, TuningRecord
from repro.service import RequestJournal

LAYER = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)
CONFIG = Configuration("direct", 4, 4, 8, 2, 2, 4)
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "durable_log")
LAYOUT_FILES = ("records.log", "records.log.snap", "requests.log", "requests.log.snap")


def _record(i):
    """Event ``i`` of a store: four slots, each event faster than the last
    (so every append is effective and slots go dead in the tail)."""
    return TuningRecord(
        params=LAYER.with_batch(i % 4 + 1),
        gpu="V100",
        algorithm="direct",
        config=CONFIG,
        time_seconds=1e-3 / (1 + i),
        gflops=100.0 + i,
        budget=8 * (i % 3),
    )


class _Store:
    """A :class:`LogStore` driven one record per event."""

    def open(self, path, **kwargs):
        return LogStore(path, **kwargs)

    def event(self, store, i):
        store.append(_record(i))

    def state(self, store):
        records = sorted(
            json.dumps(r.to_dict(), sort_keys=True) for r in store.scan()
        )
        return {"records": [json.loads(r) for r in records], "revision": store.revision}


class _Journal:
    """A :class:`RequestJournal` driven through each request's lifecycle:
    event ``i`` moves request ``i // 3`` to accepted, running, then done."""

    def open(self, path, **kwargs):
        return RequestJournal(path, **kwargs)

    def event(self, journal, i):
        rid = f"r{i // 3}"
        step = i % 3
        if step == 0:
            journal.accept(rid, {"i": i})
        elif step == 1:
            journal.mark_running(rid)
        else:
            journal.complete(rid, {"tuner": "x", "i": i})

    def state(self, journal):
        return [[rid, entry.to_dict()] for rid, entry in journal.states().items()]


@pytest.fixture(params=[_Store(), _Journal()], ids=["LogStore", "RequestJournal"])
def owner(request):
    return request.param


def _fill(owner, path, events):
    log = owner.open(path)
    for i in range(events):
        owner.event(log, i)
    return log


def _state_after(owner, tmp_path, events):
    """The state ``events`` events leave, from a separate reference log."""
    reference = _fill(owner, tmp_path / f"reference-{events}.log", events)
    state = owner.state(reference)
    reference.close()
    return state


def _replace_snapshot_only(real_replace):
    def replace(src, dst):
        if os.fspath(dst).endswith(".snap"):
            return real_replace(src, dst)
        raise OSError("power cut before the log reset")

    return replace


class _DiskFullMidDocument:
    """A text file that takes the first write, half of the second, and then
    fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, text):
        self._writes += 1
        if self._writes == 1:
            return self._fh.write(text)
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "disk full")


class TestCrashWindows:
    def test_torn_tail_sweep_loses_only_the_inflight_event(self, owner, tmp_path):
        # Cutting the log anywhere inside its final line recovers exactly
        # the state before that append, and the cut leaves no debris that
        # would tear the next append.
        path = tmp_path / "x.log"
        _fill(owner, path, 6).close()
        full = path.read_bytes()
        last_line_start = full.rstrip(b"\n").rfind(b"\n") + 1
        before_last = _state_after(owner, tmp_path, 5)
        complete = _state_after(owner, tmp_path, 6)
        for cut in range(last_line_start, len(full) - 1):
            path.write_bytes(full[:cut])
            recovered = owner.open(path)
            assert owner.state(recovered) == before_last, f"cut at {cut}"
            owner.event(recovered, 5)
            recovered.close()
            again = owner.open(path)
            assert owner.state(again) == complete, f"re-append after cut at {cut}"
            again.close()

    def test_unterminated_last_line_survives_the_next_append(self, owner, tmp_path):
        # A crash that keeps the whole last line but not its newline: the
        # line still replays, and the next (acknowledged) append must not
        # merge into it — the following recovery would truncate the merged
        # line as torn and lose both events.
        path = tmp_path / "x.log"
        _fill(owner, path, 3).close()
        full = path.read_bytes()
        path.write_bytes(full[:-1])
        recovered = owner.open(path)
        assert owner.state(recovered) == _state_after(owner, tmp_path, 3)
        owner.event(recovered, 3)
        recovered.close()
        again = owner.open(path)
        assert owner.state(again) == _state_after(owner, tmp_path, 4)
        again.close()

    def test_snapshot_write_dying_mid_document_preserves_everything(
        self, owner, tmp_path, monkeypatch
    ):
        path = tmp_path / "x.log"
        log = _fill(owner, path, 6)
        before = owner.state(log)
        real_atomic_write = store_module._atomic_write

        def dying_snapshot(target, write, fsync=False):
            if not os.fspath(target).endswith(".snap"):
                return real_atomic_write(target, write, fsync)
            return real_atomic_write(
                target, lambda fh: write(_DiskFullMidDocument(fh)), fsync
            )

        monkeypatch.setattr(store_module, "_atomic_write", dying_snapshot)
        with pytest.raises(OSError, match="disk full"):
            log.snapshot()
        monkeypatch.undo()
        # No snapshot landed, no temp file is left, the state is untouched,
        # and the log keeps taking appends.
        assert sorted(os.listdir(tmp_path)) == ["x.log"]
        assert owner.state(log) == before
        owner.event(log, 6)
        after = owner.state(log)
        log.close()
        recovered = owner.open(path)
        assert owner.state(recovered) == after
        recovered.close()

    def test_crash_between_snapshot_install_and_log_reset(
        self, owner, tmp_path, monkeypatch
    ):
        # New snapshot + the old, un-reset log: replaying the old tail over
        # the snapshot is pure over-delivery, so recovery is exact.
        path = tmp_path / "x.log"
        log = _fill(owner, path, 6)
        before = owner.state(log)
        monkeypatch.setattr(os, "replace", _replace_snapshot_only(os.replace))
        with pytest.raises(OSError, match="power cut"):
            log.snapshot()
        monkeypatch.undo()
        assert os.path.exists(log.snapshot_path)
        log.close()
        recovered = owner.open(path)
        assert owner.state(recovered) == before
        owner.event(recovered, 6)
        after = owner.state(recovered)
        recovered.close()
        again = owner.open(path)
        assert owner.state(again) == after
        again.close()

    def test_failed_reset_keeps_appending_to_the_old_log(
        self, owner, tmp_path, monkeypatch
    ):
        path = tmp_path / "x.log"
        log = _fill(owner, path, 6)
        monkeypatch.setattr(os, "replace", _replace_snapshot_only(os.replace))
        with pytest.raises(OSError, match="power cut"):
            log.snapshot()
        monkeypatch.undo()
        owner.event(log, 6)
        before = owner.state(log)
        log.close()
        # Header + all seven events: the append extended the old log.
        assert len(path.read_text(encoding="utf-8").splitlines()) == 8
        recovered = owner.open(path)
        assert owner.state(recovered) == before
        recovered.close()


# -- the on-disk layout --------------------------------------------------- #
def write_layout(directory):
    """Write one store and one journal, each with a compaction snapshot, a
    log tail and a torn last line, from fixed content."""
    store = _Store()
    records = store.open(
        os.path.join(directory, "records.log"), compact_min_entries=4
    )
    for i in range(11):
        store.event(records, i)
    records.close()
    journal = _Journal()
    requests = journal.open(
        os.path.join(directory, "requests.log"), snapshot_min_entries=4
    )
    for i in range(14):
        journal.event(requests, i)
    requests.accept("r5", {"i": 14})
    requests.fail("r5", {"code": "TIMEOUT", "message": "late"})
    requests.close()
    with open(os.path.join(directory, "records.log"), "a", encoding="utf-8") as fh:
        fh.write('{"rev": 99, "record": {"gpu": "V1')
    with open(os.path.join(directory, "requests.log"), "a", encoding="utf-8") as fh:
        fh.write('{"event": "done", "rid": "r4", "res')


def recovered_layout(directory):
    """The state both owners recover from a :func:`write_layout` directory."""
    store, journal = _Store(), _Journal()
    records = store.open(os.path.join(directory, "records.log"))
    requests = journal.open(os.path.join(directory, "requests.log"))
    state = {"store": store.state(records), "journal": journal.state(requests)}
    records.close()
    requests.close()
    return state


class TestLayout:
    def test_files_from_the_previous_build_recover_to_its_state(self, tmp_path):
        for name in LAYOUT_FILES:
            shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
        with open(os.path.join(FIXTURES, "recovered.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        state = recovered_layout(tmp_path)
        assert json.loads(json.dumps(state)) == expected
        # Recovery dropped both torn lines; the logs are clean for appends.
        for name in ("records.log", "requests.log"):
            assert (tmp_path / name).read_bytes().endswith(b"}\n")

    def test_written_bytes_are_unchanged(self, tmp_path):
        write_layout(tmp_path)
        for name in LAYOUT_FILES:
            with open(os.path.join(FIXTURES, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name
