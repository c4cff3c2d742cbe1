"""Durable, replayable job state for distributed sweeps.

The ledger is an append-only JSONL event stream recording the
lifecycle of every grid point, keyed by the point's sha256 content
address (the same key that names its cache file)::

    {"event": "scheduled", "key": "<sha256>", "spec": {...}}
    {"event": "claimed",   "key": "<sha256>", "worker": "w-1"}
    {"event": "requeued",  "key": "<sha256>", "worker": "w-1",
     "reason": "lease-expired"}
    {"event": "done",      "key": "<sha256>", "worker": "w-1",
     "elapsed": 0.41}
    {"event": "failed",    "key": "<sha256>", "worker": "w-1",
     "error": "..."}
    {"event": "submitted", "sweep": "<sha256>", "name": "grid",
     "keys": ["<sha256>", ...]}
    {"event": "cancelled", "sweep": "<sha256>"}

Appends go through :class:`~repro.scenario.store.JsonlAppender` (one
``O_APPEND`` write per record), so a crashed writer loses at most its
final, torn line -- which replay skips.  Replay folds the event stream
into per-key terminal state: ``done`` and ``failed`` are absorbing; a
``claimed`` without a subsequent terminal event is *stale* after a
crash and its point is simply pending again; ``requeued`` records a
coordinator explicitly reclaiming a lease.  The ``done`` record is
appended only *after* the result has been atomically published to the
content-addressed store, so "ledgered done" implies "readable result".

``submitted`` groups points into one named sweep -- the unit ``POST
/submit`` accepts and ``POST /cancel`` revokes (``cancelled`` is
absorbing for the whole sweep: its non-terminal points leave every
queue).  Because every record is a single whole-line ``O_APPEND``
write, the submit service and the coordinator can append to the same
ledger from different processes without locking: lines interleave,
they never tear.

A ledger is an optional ``snapshot.json`` plus ordered *segment*
files, one class (:class:`SweepLedger`) whose path picks the layout:

* a ``.jsonl`` path is a one-segment ledger -- the file itself.
  Simple, great for one-shot sweeps; it never compacts, so a
  long-lived ``--watch`` fabric tails an ever-growing file.
* a path with no suffix is a *directory*: one segment per submitted
  sweep under ``shards/`` (plus ``_unassigned.jsonl`` for points no
  sweep claims), periodically folded into an atomic ``snapshot.json``
  by :meth:`SweepLedger.compact`.  The fold is idempotent for every
  event type, which is what makes compaction crash-safe: a writer
  killed between the snapshot publish and the shard deletions leaves
  events folded twice on the next replay, never lost or un-folded.

Replay (snapshot + every segment), the tail cursor (an offset per
segment), the freshness stamp and the raw-record iterator are written
once: the layout is consulted only to list the segments, to route an
append and to refuse to compact a file.  The fold itself is
:func:`fold_record` -- one function shared by replay, compaction,
snapshot restore and the property tests that prove the compacted fold
equals the full fold.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.distributed import faults
from repro.scenario.spec import ScenarioSpec
from repro.scenario.store import JsonlAppender, atomic_write_json, read_jsonl

__all__ = [
    "LedgerState",
    "SweepLedger",
    "fold_record",
    "is_sharded",
    "iter_ledger_records",
    "ledger_stamp",
    "open_ledger",
    "replay_ledger",
]

EVENT_SCHEDULED = "scheduled"
EVENT_CLAIMED = "claimed"
EVENT_REQUEUED = "requeued"
EVENT_DONE = "done"
EVENT_FAILED = "failed"
EVENT_SUBMITTED = "submitted"
EVENT_CANCELLED = "cancelled"

_EVENTS = {
    EVENT_SCHEDULED,
    EVENT_CLAIMED,
    EVENT_REQUEUED,
    EVENT_DONE,
    EVENT_FAILED,
}

#: Files of the directory layout.
SNAPSHOT_NAME = "snapshot.json"
COMPACTION_META_NAME = "compaction-meta.json"
SHARD_DIR_NAME = "shards"
UNASSIGNED_SHARD = "_unassigned"


@dataclass
class LedgerState:
    """Folded view of one ledger replay.

    ``scheduled`` maps every key ever scheduled to its wire-form spec;
    ``done``/``failed`` are the terminal keys; ``claims`` maps each
    non-terminal claimed key to the last worker that claimed it (purely
    diagnostic after a crash -- the claim is stale by construction,
    and a ``requeued`` record clears it eagerly); ``sweeps`` maps each
    submitted sweep id to the keys it groups; ``cancelled`` holds the
    sweep ids revoked by ``POST /cancel``.
    """

    scheduled: dict[str, dict[str, Any]] = field(default_factory=dict)
    done: set[str] = field(default_factory=set)
    failed: dict[str, str] = field(default_factory=dict)
    claims: dict[str, str] = field(default_factory=dict)
    sweeps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    cancelled: set[str] = field(default_factory=set)
    # Telemetry views, excluded from equality: ``traces`` maps each key
    # to the trace id minted at its submit (first record wins, and a
    # key's records all carry the same trace -- but events split across
    # shards fold in shard order, not append order, so like ``claims``
    # these are diagnostics, not operative state); ``requeues`` counts
    # requeued events per key with at-least-once semantics (a crash
    # between a compaction's snapshot publish and its shard deletions
    # legitimately folds a shard twice, so the count may over-report
    # across that window -- fine for a monitoring counter, which is why
    # it must never participate in replay-equality invariants).
    traces: dict[str, str] = field(default_factory=dict, compare=False)
    requeues: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def cancelled_keys(self) -> set[str]:
        """Every key belonging to a cancelled sweep.

        Content addressing means sweeps can share points; cancelling
        one sweep revokes its points outright, shared or not -- the
        deliberate, simple semantics (a key's result can still arrive
        later via resubmission; cancellation never corrupts state).
        """
        keys: set[str] = set()
        for sweep in self.cancelled:
            keys.update(self.sweeps.get(sweep, ()))
        return keys

    @property
    def pending(self) -> set[str]:
        """Scheduled keys with no terminal event and no cancellation
        (stale claims included)."""
        return (
            set(self.scheduled)
            - self.done
            - set(self.failed)
            - self.cancelled_keys
        )


def fold_record(
    state: LedgerState, record: Any, source: str = "ledger"
) -> None:
    """Fold one parsed ledger record into ``state`` (in place).

    Raises :class:`ValueError` on records that parse yet carry a
    malformed event -- a ledger that lies about ``done`` points must
    fail loudly, not resume quietly.  The fold is *idempotent for full
    streams*: re-folding an entire shard over a state that already
    absorbed it converges to the same state, which is the invariant
    compaction's crash-safety rests on.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{source}: malformed ledger record {record!r}")
    event = record.get("event")
    if event == EVENT_SUBMITTED:
        sweep = record.get("sweep")
        keys = record.get("keys")
        if not isinstance(sweep, str) or not isinstance(keys, list):
            raise ValueError(
                f"{source}: malformed ledger record {record!r}"
            )
        state.sweeps[sweep] = tuple(str(key) for key in keys)
        return
    if event == EVENT_CANCELLED:
        sweep = record.get("sweep")
        if not isinstance(sweep, str):
            raise ValueError(
                f"{source}: malformed ledger record {record!r}"
            )
        state.cancelled.add(sweep)
        return
    key = record.get("key")
    if event not in _EVENTS or not isinstance(key, str):
        raise ValueError(f"{source}: malformed ledger record {record!r}")
    trace = record.get("trace")
    if isinstance(trace, str):
        state.traces.setdefault(key, trace)
    if event == EVENT_SCHEDULED:
        state.scheduled.setdefault(key, record.get("spec", {}))
    elif event == EVENT_CLAIMED:
        state.claims[key] = record.get("worker", "?")
    elif event == EVENT_REQUEUED:
        state.claims.pop(key, None)
        state.requeues[key] = state.requeues.get(key, 0) + 1
    elif event == EVENT_DONE:
        state.done.add(key)
        state.claims.pop(key, None)
        # Mirrors the coordinator: a stored result supersedes a
        # racing worker's earlier failure report.
        state.failed.pop(key, None)
    elif event == EVENT_FAILED:
        if key not in state.done:
            state.failed[key] = record.get("error", "")
        state.claims.pop(key, None)


def _state_to_dict(state: LedgerState) -> dict[str, Any]:
    return {
        "scheduled": state.scheduled,
        "done": sorted(state.done),
        "failed": state.failed,
        "claims": state.claims,
        "sweeps": {sweep: list(keys) for sweep, keys in state.sweeps.items()},
        "cancelled": sorted(state.cancelled),
        "traces": state.traces,
        "requeues": state.requeues,
    }


def _state_from_dict(payload: dict[str, Any]) -> LedgerState:
    return LedgerState(
        scheduled=dict(payload.get("scheduled", {})),
        done=set(payload.get("done", [])),
        failed=dict(payload.get("failed", {})),
        claims=dict(payload.get("claims", {})),
        sweeps={
            sweep: tuple(keys)
            for sweep, keys in payload.get("sweeps", {}).items()
        },
        cancelled=set(payload.get("cancelled", [])),
        traces=dict(payload.get("traces", {})),
        requeues={
            key: int(count)
            for key, count in payload.get("requeues", {}).items()
        },
    )


# -- layout -------------------------------------------------------------------


def is_sharded(path: str | pathlib.Path) -> bool:
    """Whether ``path`` names (or should become) a directory ledger.

    An existing directory is one; an existing file is not; a path
    that exists as neither is one iff it has no file extension
    (``results/ledger`` makes a directory, ``results/ledger.jsonl`` a
    file) -- so both CLIs and tests pick the layout by spelling.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        return True
    if path.exists():
        return False
    return path.suffix == ""


def open_ledger(path: str | pathlib.Path) -> "SweepLedger":
    """The ledger at ``path``, whichever layout it is."""
    return SweepLedger(path)


def replay_ledger(path: str | pathlib.Path) -> LedgerState:
    """Fold any ledger (file or directory) without opening appenders."""
    return SweepLedger(path).replay()


def iter_ledger_records(path: str | pathlib.Path) -> Iterator[dict[str, Any]]:
    """Every raw surviving record of a ledger (:meth:`SweepLedger.records`)."""
    return SweepLedger(path).records()


def ledger_stamp(path: str | pathlib.Path):
    """The freshness stamp of a ledger (:meth:`SweepLedger.stamp`)."""
    return SweepLedger(path).stamp()


def _load_snapshot(root: pathlib.Path) -> tuple[int, LedgerState]:
    """``(generation, state)`` from ``snapshot.json`` (0 + empty if none).

    The snapshot is written atomically, so it either parses whole or
    does not exist -- and a file ledger, whose root is the file itself,
    never has one.  A snapshot that exists but is malformed raises:
    silently ignoring it would resurrect compacted-away work.
    """
    snapshot_path = root / SNAPSHOT_NAME
    try:
        payload = json.loads(snapshot_path.read_text())
    except (FileNotFoundError, NotADirectoryError):
        return 0, LedgerState()
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(
            f"{snapshot_path}: unreadable ledger snapshot ({error})"
        ) from None
    if not isinstance(payload, dict) or "state" not in payload:
        raise ValueError(f"{snapshot_path}: malformed ledger snapshot")
    return int(payload.get("generation", 0)), _state_from_dict(
        payload["state"]
    )


def _file_stamp(file: pathlib.Path) -> tuple[str, int, int, int] | None:
    """``(name, inode, size, mtime_ns)`` of ``file``; None if absent."""
    try:
        stat = file.stat()
    except OSError:
        return None
    return (file.name, stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _read_records(file: pathlib.Path) -> Iterator[Any]:
    """Every parseable record of one segment, torn lines skipped; none
    if the segment vanished (a concurrent compaction unlinked it)."""
    try:
        yield from read_jsonl(file, strict=False)
    except FileNotFoundError:
        return


def _read_tail(
    file: pathlib.Path, offset: int
) -> tuple[list[dict[str, Any]], int]:
    """``(records, new_offset)``: the complete lines of ``file`` past
    ``offset`` (raises :class:`OSError` if it cannot be read).

    A torn final line stays unconsumed for the next read; interior
    unparseable lines (crash artifacts isolated by boundary repair)
    are skipped but their bytes are consumed.  A file that shrank
    under ``offset`` (rotated externally) is re-read from zero -- the
    fold's idempotence makes re-seeing records safe.
    """
    with open(file, "rb") as handle:
        if os.fstat(handle.fileno()).st_size < offset:
            offset = 0
        handle.seek(offset)
        data = handle.read()
    complete, newline, _ = data.rpartition(b"\n")
    if not newline:
        return [], offset
    records = []
    for line in complete.splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # a torn fragment, or a blank line
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, offset + len(complete) + 1


def _shard_name(sweep: str) -> str:
    # Sweep ids are sha256 hex (filesystem-safe); anything foreign is
    # sanitized to keep the directory listable.
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in sweep)
    return safe or UNASSIGNED_SHARD


class SweepLedger:
    """A ledger: an optional snapshot plus ordered segment files.

    The path picks the layout (:func:`is_sharded`): a ``.jsonl`` file
    is its own one segment; a directory holds::

        snapshot.json             atomic fold of everything compacted
        compaction-meta.json      small stamp: generation, time, counts
        shards/<sweep-id>.jsonl   events of one submitted sweep
        shards/_unassigned.jsonl  events no sweep claims (spec-file
                                  points, foreign keys)

    Writers are the coordinator (lifecycle events) and the submit
    service (``scheduled``/``submitted``/``cancelled`` batches).
    Opening a ledger touches nothing on disk: a segment file (and its
    directory) appears with its first append.

    In a directory, lifecycle events route to the shard of the sweep
    that submitted their key (learned from ``submitted`` records at
    replay, at tail reads, or from this process's own submits), so one
    sweep's churn stays in one file and :meth:`compact` can retire
    whole sweeps at a time.  Routing is an *optimization*, never a
    correctness requirement: replay folds every segment, so a record
    landing in ``_unassigned`` is merely less tidy.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self._path = pathlib.Path(path)
        self._sharded = is_sharded(self._path)
        self._appenders: dict[pathlib.Path, JsonlAppender] = {}
        self._routes: dict[str, str] = {}
        self._routes_loaded = False
        self._lock = threading.Lock()

    @property
    def path(self) -> pathlib.Path:
        """The ledger file, or the root directory."""
        return self._path

    @property
    def sharded(self) -> bool:
        """Whether this is a directory ledger (the layout that compacts)."""
        return self._sharded

    def _segments(self) -> list[pathlib.Path]:
        """The segment files in fold order: the file, or every shard."""
        if not self._sharded:
            return [self._path]
        return sorted((self._path / SHARD_DIR_NAME).glob("*.jsonl"))

    # -- append side --------------------------------------------------------

    def record_scheduled(
        self,
        specs: Iterable[ScenarioSpec],
        already_scheduled: set[str] | None = None,
        sweep: str | None = None,
        traces: Mapping[str, str] | None = None,
    ) -> None:
        """Schedule points (skipping keys this ledger already holds).

        ``already_scheduled`` lets a caller that just replayed the
        ledger pass the known keys instead of paying a second full
        replay here; ``sweep`` labels the records with the submitting
        sweep id (and, in a directory, routes them and every later
        lifecycle event of their keys to its shard); ``traces`` maps
        keys to the trace ids minted at submit, stamped onto the
        records so the ids survive any crash the sweep itself survives.
        """
        specs = list(specs)
        if sweep is not None:
            self._note_routes(sweep, (spec.key() for spec in specs))
        if already_scheduled is None:
            already_scheduled = set(self.replay().scheduled)
        for spec in specs:
            key = spec.key()
            if key in already_scheduled:
                continue
            record: dict[str, Any] = {
                "event": EVENT_SCHEDULED,
                "key": key,
                "spec": spec.to_dict(),
            }
            if sweep is not None:
                record["sweep"] = sweep
            if traces is not None and key in traces:
                record["trace"] = traces[key]
            self._append(record, sweep=sweep)

    def _record_key(
        self,
        event: str,
        key: str,
        worker: str,
        trace: str | None,
        fsync: bool | None = None,
        **fields: Any,
    ) -> None:
        """Append one lifecycle event of ``key`` (traced when known)."""
        record = {"event": event, "key": key, "worker": worker, **fields}
        if trace is not None:
            record["trace"] = trace
        self._append(record, fsync=fsync)

    def record_claimed(
        self, key: str, worker: str, trace: str | None = None
    ) -> None:
        """A worker claimed ``key``."""
        self._record_key(EVENT_CLAIMED, key, worker, trace)

    def record_requeued(
        self,
        key: str,
        worker: str,
        reason: str = "lease-expired",
        trace: str | None = None,
    ) -> None:
        """The coordinator reclaimed ``key`` from ``worker``.

        No fsync: losing this record costs nothing on resume (a claim
        with no terminal event replays as pending either way); the
        record exists so a *live* replay agrees with the coordinator's
        queue, and as the audit trail of lease expiries -- which is
        also why, unlike the other lifecycle events, it carries a
        ``reason`` (``lease-expired``, ``connection-lost``,
        ``coordinator-restart``) for the timeline to attribute.
        """
        self._record_key(EVENT_REQUEUED, key, worker, trace, reason=reason)

    def record_submitted(
        self, sweep: str, keys: Iterable[str], name: str | None = None
    ) -> None:
        """Group ``keys`` under one submitted sweep id.

        Fsynced: a 202 from ``POST /submit`` promises the sweep
        survives any crash, and this record (appended *after* the
        batch of ``scheduled`` records on the same descriptor) is the
        last line of that promise -- the flush covers the whole batch.
        """
        record = {"event": EVENT_SUBMITTED, "sweep": sweep, "keys": list(keys)}
        if name is not None:
            record["name"] = name
        self._append(record, fsync=True, sweep=sweep)

    def record_cancelled(self, sweep: str) -> None:
        """Revoke a submitted sweep (absorbing, idempotent).

        Fsynced: a 200 from ``POST /cancel`` promises the revocation
        survives any crash -- losing it would resurrect the sweep.
        """
        record = {"event": EVENT_CANCELLED, "sweep": sweep}
        self._append(record, fsync=True, sweep=sweep)

    def record_done(
        self,
        key: str,
        worker: str,
        elapsed: float | None = None,
        trace: str | None = None,
    ) -> None:
        """``key`` finished and its result is durably stored."""
        fields = {} if elapsed is None else {"elapsed": float(elapsed)}
        self._record_key(EVENT_DONE, key, worker, trace, fsync=True, **fields)

    def record_failed(
        self, key: str, worker: str, error: str, trace: str | None = None
    ) -> None:
        """``key`` raised while executing (terminal: not requeued)."""
        self._record_key(
            EVENT_FAILED, key, worker, trace, fsync=True, error=str(error)
        )

    def _append(
        self,
        record: dict[str, Any],
        fsync: bool | None = None,
        sweep: str | None = None,
    ) -> None:
        # Every record is wall-clock stamped at append time -- the
        # raw-record timestamps the timeline's queue-wait/total columns
        # are computed from.  Terminal events ("done"/"failed") fsync
        # per record -- they must survive a crash, or a resumed
        # coordinator would re-run points whose results it already
        # has.  "scheduled"/"claimed" records skip the flush: losing one
        # only costs a reschedule or a stale-claim diagnostic, and
        # per-assignment fsyncs would serialize the whole fabric on
        # disk latency.
        record.setdefault("ts", round(time.time(), 6))
        segment = self._segment_for(record, sweep)
        with self._lock:
            appender = self._appenders.get(segment)
            if appender is None:
                appender = self._appenders[segment] = JsonlAppender(
                    segment, fsync=False, fault_site="ledger.append"
                )
            appender.append(record, fsync=fsync)

    def _segment_for(
        self, record: dict[str, Any], sweep: str | None
    ) -> pathlib.Path:
        """The segment ``record`` appends to: the file itself, or in a
        directory the shard of ``sweep`` (routing advice from the submit
        path), else of the sweep that submitted the record's key."""
        if not self._sharded:
            return self._path
        if sweep is not None:
            self._learn_routes((record,))
            shard = _shard_name(sweep)
        else:
            self._ensure_routes()
            shard = self._routes.get(str(record.get("key")), UNASSIGNED_SHARD)
        return self._path / SHARD_DIR_NAME / f"{shard}.jsonl"

    def _note_routes(self, sweep: str, keys: Iterable[Any]) -> None:
        if self._sharded:
            shard = _shard_name(sweep)
            for key in keys:
                self._routes[str(key)] = shard

    def _learn_routes(self, records: Iterable[dict[str, Any]]) -> None:
        """Route the keys of every ``submitted`` record among ``records``."""
        for record in records:
            if record.get("event") == EVENT_SUBMITTED and isinstance(
                record.get("sweep"), str
            ):
                self._note_routes(record["sweep"], record.get("keys", []))

    def _ensure_routes(self) -> None:
        """Learn key->shard routing from a replay, once, lazily.

        Only key-routed lifecycle events need it; the submit path
        routes by explicit sweep id and never pays this replay.
        """
        if self._routes_loaded:
            return
        self._routes_loaded = True
        for sweep, keys in self.replay().sweeps.items():
            self._note_routes(sweep, keys)

    def close(self) -> None:
        """Release every append descriptor."""
        with self._lock:
            for appender in self._appenders.values():
                appender.close()
            self._appenders.clear()

    def __enter__(self) -> "SweepLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- read side ----------------------------------------------------------

    def replay(self) -> LedgerState:
        """Fold the snapshot and every segment into per-key state.

        Tolerates unparseable fragment lines (crash-mid-append
        artifacts, isolated by the appender's boundary repair; losing
        one only re-runs idempotent work), but raises on records that
        parse yet carry a malformed event -- a ledger that lies about
        ``done`` points must fail loudly, not resume quietly.
        """
        return self._fold()[1]

    def _fold(self) -> tuple[int, LedgerState, list[tuple]]:
        """``(generation, state, [(segment, size before, records)])``.

        Atomic against a :meth:`compact` in any process: that publishes
        its snapshot *before* it unlinks the segments it folded, so a
        fold that started from the old snapshot and then missed those
        segments finds the snapshot moved, and folds again.
        """
        snapshot = self._path / SNAPSHOT_NAME
        while True:
            stamp = _file_stamp(snapshot)
            generation, state = _load_snapshot(self._path)
            folded = []
            for segment in self._segments():
                try:
                    size = segment.stat().st_size
                except OSError:
                    continue
                records = 0
                for record in _read_records(segment):
                    fold_record(state, record, source=str(segment))
                    records += 1
                folded.append((segment, size, records))
            if _file_stamp(snapshot) == stamp:
                return generation, state, folded

    def records(self) -> Iterator[dict[str, Any]]:
        """Yield every *raw* surviving record of the segments (no folding).

        For consumers that need the per-event fields replay discards --
        the ``ts`` stamps the timeline joins on, requeue reasons,
        elapsed times.  Compacted records are gone (folded into the
        snapshot by design); torn tails are skipped, same as replay.
        """
        for segment in self._segments():
            for record in _read_records(segment):
                if isinstance(record, dict):
                    yield record

    def stamp(self) -> tuple | None:
        """A hashable freshness stamp: equal stamps imply equal replays.

        The ``(name, inode, size, mtime_ns)`` of the snapshot and of
        every segment, so an append, a fresh snapshot *and* a
        compaction that deleted segments all change it.  ``None`` when
        nothing exists yet.
        """
        files = (self._path / SNAPSHOT_NAME, *self._segments())
        return tuple(filter(None, map(_file_stamp, files))) or None

    def read_tail(
        self, cursor: dict[str, int] | None = None
    ) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """``(records, new_cursor)``: complete lines appended since
        ``cursor``.

        The cursor maps segment file names to byte offsets (``None``
        reads everything).  A torn final line stays unconsumed for the
        next poll.  A segment that vanished (compacted away) drops from
        the cursor; one that reappears (new events for an old sweep)
        re-reads from zero -- safe, because the fold is idempotent and
        the coordinator skips events it already knows.  ``submitted``
        records seen here also teach this instance key->shard routing,
        so a resident coordinator keeps routing fresh sweeps correctly.
        """
        cursor = dict(cursor or {})
        records: list[dict[str, Any]] = []
        segments = self._segments()
        for segment in segments:
            try:
                fresh, cursor[segment.name] = _read_tail(
                    segment, cursor.get(segment.name, 0)
                )
            except OSError:
                continue
            records.extend(fresh)
        for name in set(cursor) - {segment.name for segment in segments}:
            del cursor[name]
        self._learn_routes(records)
        return records, cursor

    def shard_stats(self) -> dict[str, int]:
        """``{segment file name: size in bytes}`` (for ``/healthz``)."""
        stamps = filter(None, map(_file_stamp, self._segments()))
        return {name: size for name, _, size, _ in stamps}

    def tail_size(self) -> int:
        """Total bytes of uncompacted segment events (the compaction
        trigger a resident coordinator watches)."""
        return sum(self.shard_stats().values())

    def last_compaction(self) -> dict[str, Any] | None:
        """The small stamp of the newest :meth:`compact` (or None)."""
        try:
            payload = json.loads(
                (self._path / COMPACTION_META_NAME).read_text()
            )
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- compaction ----------------------------------------------------------

    def compact(self, cursor: dict[str, int] | None = None) -> dict[str, Any]:
        """Fold every segment into a fresh atomic snapshot; retire the
        segments that did not move while we folded (a file ledger has
        no snapshot: :class:`ValueError`).

        Returns the stats also written to ``compaction-meta.json``.
        ``cursor`` is the :meth:`read_tail` cursor of a caller that
        tails this ledger: the retired segments leave it (in place),
        and the stats then also carry ``unread``, the records those
        segments held past it -- which its tail would never see.

        Multi-process safety, with no locks, only atomic publishes: (1)
        fold as :meth:`replay` does, noting each segment's size; (2)
        publish the new snapshot; (3) delete only segments whose size is
        *unchanged* since (1) -- one another process appended to
        survives, and its folded prefix folds again next replay
        (idempotent).  A crash anywhere leaves the old snapshot + all
        segments or the new one + a subset: both replay the same.
        """
        if not self._sharded:
            raise ValueError(f"{self._path}: a file ledger does not compact")
        with self._lock:
            generation, state, folded = self._fold()
            faults.inject("ledger.compact", "fold")
            stats: dict[str, Any] = {
                "generation": generation + 1,
                "compacted_at": time.time(),
                "events_folded": sum(records for *_, records in folded),
                "shards_folded": len(folded),
            }
            atomic_write_json(
                self._path / SNAPSHOT_NAME,
                {"version": 1, **stats, "state": _state_to_dict(state)},
            )
            # The crash window the chaos suite aims at: the new
            # snapshot is live, the segments still hold their (now
            # doubly-represented) events.
            faults.inject("ledger.compact", "swap")
            removed = 0
            unread: list[dict[str, Any]] = []
            for segment, size, _ in folded:
                try:
                    if segment.stat().st_size != size:
                        continue  # a foreign append landed: keep it
                    if cursor is not None:
                        # Unmoved since the fold: exactly the folded
                        # records the caller has not read yet.
                        records, _ = _read_tail(
                            segment, cursor.pop(segment.name, 0)
                        )
                        unread.extend(records)
                except OSError:
                    continue
                appender = self._appenders.pop(segment, None)
                if appender is not None:
                    appender.close()
                try:
                    segment.unlink()
                except OSError:
                    continue
                removed += 1
            stats["shards_removed"] = removed
            atomic_write_json(self._path / COMPACTION_META_NAME, stats)
        if cursor is not None:
            self._learn_routes(unread)
            stats["unread"] = unread
        return stats


# An alias, not a class: the benchmark's probes (perfbench/) patch
# ``replay`` and ``compact`` through this name.
ShardedLedger = SweepLedger
