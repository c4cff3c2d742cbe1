"""The coordinator: durable job queue + TCP assignment of sweep points.

One :class:`SweepCoordinator` owns a sweep: it expands the grid,
records every point into the JSONL job ledger, serves CLAIM requests
from any number of ``repro worker`` processes (local or remote) over
the length-prefixed JSON protocol, and folds each RESULT back into the
shared content-addressed store -- atomically, then ledgered as done --
until every point is terminal.

Failure semantics (the contract the tests pin down):

* **worker killed mid-point** -- its TCP connection drops; every point
  assigned on that connection and not yet resulted is requeued
  immediately.  No lease clock is needed for crash recovery because
  the claim dies with the connection.
* **worker hung but connected** -- a worker whose process wedges (or
  whose compute thread deadlocks) keeps its TCP connection alive, so
  connection-drop requeue never fires.  With ``lease_timeout`` set,
  every assignment carries a deadline that HEARTBEAT frames refresh;
  a lease that expires is requeued (ledgered as ``requeued``) and the
  point is handed to the next claimant.  A slow worker that still
  heartbeats is never preempted, and terminality is preserved: if the
  ghost's result eventually arrives it is accepted idempotently (the
  content address is the identity), while its late FAILED report is
  ignored (only the current assignee may fail a point).
* **coordinator killed mid-sweep** -- restart it with the same ledger
  and cache: ledger replay marks the finished points ``done`` (their
  results are in the store -- ``done`` is only ever appended *after*
  the atomic store publish), and only unfinished points are handed out
  again -- including points that were ``scheduled`` into the ledger by
  a ``POST /submit`` rather than by this coordinator's own spec file.
  A torn final ledger line is skipped by replay.
* **point raises** -- the worker reports FAILED; the failure is
  terminal (deterministic errors must not ping-pong between workers)
  and surfaces in the summary and the ledger.
* **duplicate results** -- two workers racing on a requeued point both
  store byte-identical content-addressed files; the second RESULT is
  acked as a no-op.

Results are validated before being trusted: the coordinator recomputes
nothing, but it requires the returned key to match the assignment's
spec address (the wire round trip of
:meth:`~repro.scenario.spec.ScenarioSpec.to_json` preserves content
addresses, so a mismatch means a corrupt or confused worker).  A
RESULT-REF frame (the worker published the store file itself on a
shared filesystem) is validated harder: the coordinator re-reads the
file and checks that the stored spec's recomputed content address and
the stored result's key both match the assignment before ledgering
``done``.

``watch=True`` turns the coordinator from a one-sweep process into a
resident service: it follows the ledger it folded at startup
(:meth:`~repro.distributed.ledger.SweepLedger.follow`), enqueues the
points ``repro serve``'s ``POST /submit`` endpoint schedules as they
land, and keeps serving workers (WAIT frames while idle) until
:meth:`~SweepCoordinator.request_stop`.
"""

from __future__ import annotations

import asyncio
import collections
import json
import math
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.distributed import faults
from repro.distributed.ledger import LedgerState, SweepLedger, open_ledger
from repro.distributed.protocol import (
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.obs.trace import new_trace_id, span as obs_span
from repro.scenario.spec import ScenarioSpec, SweepSpec
from repro.scenario.store import result_path, store_result

__all__ = ["SweepCoordinator"]

#: Seconds a worker is told to sleep when every point is in flight.
WAIT_DELAY = 0.2

#: Seconds between ledger-tail polls in ``watch`` mode.
WATCH_POLL_INTERVAL = 0.25

#: Seconds an orderly drain waits, after writing SHUTDOWN, for workers
#: to hang up before closing their connections (a worker busy with a
#: point reads the frame only once the point finishes).
SHUTDOWN_GRACE = 1.0

#: Publish attempts per point before a store failure becomes terminal.
#: Covers a transient hiccup (flaky NFS, momentary disk pressure)
#: without letting a deterministic one (unwritable cache dir, a
#: version-skewed worker whose payload shape cannot rebuild) requeue
#: and recompute the same point forever.
PUBLISH_RETRY_LIMIT = 3


@dataclass
class _Connection:
    """One worker connection: where to write, and who said hello."""

    writer: asyncio.StreamWriter
    worker: str = "<anonymous>"


@dataclass
class _Claim:
    """A live assignment: the connection holding the point, and the
    lease deadline a HEARTBEAT pushes back (``math.inf``: leases off)."""

    conn: _Connection
    deadline: float


class SweepCoordinator:
    """Coordinates one sweep across any number of connected workers.

    ``points`` is a :class:`~repro.scenario.spec.SweepSpec` or an
    iterable of expanded specs; ``cache_dir`` is the shared
    content-addressed store every result lands in; ``ledger_path``
    (optional but recommended) makes the queue durable and the sweep
    crash-resumable.  ``host``/``port`` bind the TCP endpoint
    (``port=0`` picks a free port, published as :attr:`port` once
    :attr:`ready` is set -- a ``threading.Event``, so a driver thread
    can wait for the bind without touching the event loop).

    ``lease_timeout`` (seconds, ``None`` = disabled) bounds how long an
    assignment may go without a HEARTBEAT or terminal frame before it
    is requeued; ``watch=True`` keeps the coordinator alive after the
    queue drains, tailing the ledger for points scheduled by ``POST
    /submit`` (requires ``ledger_path``).

    Run with ``await serve()`` inside an event loop or the blocking
    :meth:`run`; :meth:`request_stop` (thread-safe) ends the serve loop
    early, leaving pending points for a resumed coordinator.
    """

    def __init__(
        self,
        points: SweepSpec | Iterable[ScenarioSpec],
        *,
        cache_dir: str | pathlib.Path,
        ledger_path: str | pathlib.Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        await_workers: int = 0,
        lease_timeout: float | None = None,
        watch: bool = False,
        compact_tail_bytes: int | None = None,
    ) -> None:
        self._specs = (
            points.expand() if isinstance(points, SweepSpec) else list(points)
        )
        self._by_key: dict[str, ScenarioSpec] = {
            spec.key(): spec for spec in self._specs
        }
        self._cache_dir = pathlib.Path(cache_dir)
        self._ledger_path = (
            pathlib.Path(ledger_path) if ledger_path is not None else None
        )
        self._host = host
        self._requested_port = port
        self.port: int | None = None
        self.ready = threading.Event()
        self._pending: collections.deque[str] = collections.deque()
        self._done: set[str] = set()
        self._failed: dict[str, str] = {}
        # The one record of who holds each point: the assign path adds
        # a claim, heartbeats refresh it, and every release path --
        # result, failure, expiry, disconnect, cancel -- pops it.
        self._claims: dict[str, _Claim] = {}
        self._resumed = 0
        self._from_cache = 0
        self._computed_by: collections.Counter[str] = collections.Counter()
        self._publish_retries: collections.Counter[str] = (
            collections.Counter()
        )
        self._ledger: SweepLedger | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._complete: asyncio.Event | None = None
        self._stopped = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        if lease_timeout is not None and lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        if watch and ledger_path is None:
            raise ValueError("watch mode requires a ledger_path")
        self._lease_timeout = lease_timeout
        self._watch = bool(watch)
        self._lease_requeued: collections.Counter[str] = (
            collections.Counter()
        )
        # The folded ledger: the startup replay, which watch mode goes
        # on following (and this coordinator's compactions keep current).
        self._state: LedgerState | None = None
        # Revoked point keys (subset of _by_key): their sweep was
        # cancelled.
        self._cancelled: set[str] = set()
        # Telemetry trace id per key: learned from the ledger (the
        # submit service mints one per sweep), minted here for the
        # points of this coordinator's own spec file.  Carried on
        # every ASSIGN frame and every lifecycle ledger record.
        self._trace_by_key: dict[str, str] = {}
        # Compact a directory ledger whenever its uncompacted shard
        # bytes exceed this (None disables; ignored for file ledgers).
        if compact_tail_bytes is not None and compact_tail_bytes <= 0:
            raise ValueError(
                f"compact_tail_bytes must be positive, "
                f"got {compact_tail_bytes}"
            )
        self._compact_tail_bytes = compact_tail_bytes
        # Gang start: hold assignments until this many distinct workers
        # have connected (0 = assign immediately).  Benchmarks use it so
        # the measured window is pure N-worker compute, not process boot.
        self._await_workers = int(await_workers)
        self._helloed: set[str] = set()
        self._first_assign_time: float | None = None
        self._complete_time: float | None = None

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Blocking entry point: ``asyncio.run(self.serve())``."""
        return asyncio.run(self.serve())

    def request_stop(self) -> None:
        """Thread-safe early stop (pending points stay in the ledger); a
        no-op once the run has ended."""
        self._stopped = True
        if self._loop is not None and self._complete is not None:
            try:
                self._loop.call_soon_threadsafe(self._complete.set)
            except RuntimeError:
                pass  # loop already closed: the run has ended

    async def serve(self) -> dict[str, Any]:
        """Serve workers until every point is terminal; return a summary."""
        started = time.perf_counter()
        self._loop = asyncio.get_running_loop()
        self._complete = asyncio.Event()
        if self._ledger_path is not None:
            self._ledger = open_ledger(self._ledger_path)
        background: list[asyncio.Task] = []
        try:
            self._build_queue()
            self._maybe_compact()
            self._maybe_complete()
            server = await asyncio.start_server(
                self._handle_worker, self._host, self._requested_port
            )
            self.port = server.sockets[0].getsockname()[1]
            if self._watch:
                background.append(
                    self._loop.create_task(self._tail_ledger_task())
                )
            if self._lease_timeout is not None:
                background.append(
                    self._loop.create_task(self._lease_sweeper())
                )
            self.ready.set()
            complete = self._loop.create_task(self._complete.wait())
            try:
                await asyncio.wait(
                    [complete, *background],
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for task in (complete, *background):
                    task.cancel()
                await asyncio.gather(
                    complete, *background, return_exceptions=True
                )
                server.close()
                await server.wait_closed()
                await self._close_connections(
                    orderly=self._complete.is_set()
                )
            # A background task ends only by raising.  A coordinator
            # whose ledger follower or lease sweeper died must not stay
            # up deaf: re-raise, and a restart recovers from the ledger.
            for task in background:
                if not task.cancelled():
                    raise task.exception()
        finally:
            if self._ledger is not None:
                self._ledger.close()
        return self._summary(time.perf_counter() - started)

    async def _close_connections(self, orderly: bool) -> None:
        """End every worker connection.

        An orderly end (the queue drained, :meth:`request_stop`, or a
        cancel emptied it) first writes SHUTDOWN on each and gives the
        workers :data:`SHUTDOWN_GRACE` to hang up: a bare EOF means a
        crash, and sends a worker into its reconnect window.  Closing
        the rest lands each reader on EOF, so no task dies mid-frame.
        """
        if orderly:
            for writer in list(self._connections):
                try:
                    await write_frame(writer, {"type": "shutdown"})
                except (ConnectionError, OSError):
                    pass  # already gone: its handler is ending anyway
            if self._handlers:
                await asyncio.wait(
                    list(self._handlers), timeout=SHUTDOWN_GRACE
                )
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    def _maybe_complete(self) -> None:
        """End the serve loop when the queue drains (never in watch
        mode -- a resident coordinator waits for the next submit)."""
        if self._complete is None:
            return
        if self._stopped or (
            not self._watch and self._outstanding() == 0
        ):
            self._complete.set()

    # -- queue construction -------------------------------------------------

    def _build_queue(self) -> None:
        """Fold the ledger and the store into the initial queue.

        Order of trust: a ledgered ``done`` is authoritative (the store
        publish precedes it); a cache file for a never-ledgered point
        (e.g. from an earlier serial run) is equally final -- the
        content address *is* the result identity.  Everything else is
        pending, ledger claims included (stale by construction).
        """
        previously_done: set[str] = set()
        if self._ledger is not None:
            state = self._state = self._ledger.replay()
            previously_done = state.done
            self._trace_by_key.update(state.traces)
            self._adopt_scheduled()
            # Ledgered failures are terminal across restarts too: a
            # resumed coordinator must not re-queue a deterministic
            # failure (or hang waiting on it when no workers attach).
            self._failed.update(
                {
                    key: error
                    for key, error in state.failed.items()
                    if key in self._by_key
                }
            )
            # Cancellations are absorbing across restarts: a resumed
            # coordinator must not hand out points of a revoked sweep.
            self._revoke(state.cancelled_keys)
            # Stale claims die with the predecessor's connections, so
            # replay already treats them as pending -- but the timeline
            # deserves the attribution, so each one gets a durable
            # requeued record naming the worker whose claim a restart
            # reclaimed.
            for key, worker in state.claims.items():
                if (
                    key in self._by_key
                    and key not in state.done
                    and not self._terminal(key)
                ):
                    self._record_requeued(key, worker, "coordinator-restart")
            self._mint_traces()
            self._ledger.record_scheduled(
                self._specs,
                already_scheduled=set(state.scheduled),
                traces=self._trace_by_key,
            )
        else:
            self._mint_traces()
        for key, spec in self._by_key.items():
            self._admit(key, spec, ledgered_done=key in previously_done)

    def _admit(
        self, key: str, spec: ScenarioSpec, ledgered_done: bool = False
    ) -> None:
        """Queue ``key``, or complete it from the store.

        Existence is completion: the store only ever publishes whole
        files (atomic os.replace), so no payload parsing is needed to
        build the queue -- and a readable result always outranks a
        ledgered failure (the content address *is* the result
        identity, however it got computed).  The check also guards the
        one crash window the ledger cannot see: a power loss after the
        fsynced "done" line but before the renamed store file's
        directory entry reached disk.  A terminal point with no result
        to trust (failed, or its sweep revoked) is never queued again.
        """
        if not result_path(self._cache_dir, spec).exists():
            if not self._terminal(key):
                self._pending.append(key)
            return
        self._done.add(key)
        if ledgered_done:
            self._resumed += 1
            return
        # Someone already computed it (a serial run, a previous sweep):
        # ledgered as done by "cache".
        self._failed.pop(key, None)
        self._from_cache += 1
        if self._ledger is not None:
            self._ledger.record_done(
                key, worker="cache", trace=self._trace_by_key.get(key)
            )

    def _mint_traces(self) -> None:
        """One trace id per coordinator run for untraced spec-file
        points (submitted sweeps arrive with their own, minted by the
        service -- first writer wins, so a resumed run keeps ids)."""
        untraced = [
            spec.key()
            for spec in self._specs
            if spec.key() not in self._trace_by_key
        ]
        if untraced:
            run_trace = new_trace_id()
            for key in untraced:
                self._trace_by_key[key] = run_trace

    def _terminal(self, key: str) -> bool:
        return (
            key in self._done or key in self._failed or key in self._cancelled
        )

    def _outstanding(self) -> int:
        # Cancelled keys are terminal for completion purposes (the
        # sets can overlap: a point can finish, then its sweep be
        # cancelled -- count each key once).
        revoked = sum(
            1
            for key in self._cancelled
            if key not in self._done and key not in self._failed
        )
        return (
            len(self._by_key)
            - len(self._done)
            - len(self._failed)
            - revoked
        )

    # -- per-connection protocol loop ---------------------------------------

    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer=writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError:
                    break  # torn connection: requeue via finally
                if message is None:
                    break
                kind = message.get("type")
                try:
                    if kind == "hello":
                        conn.worker = str(message.get("worker", conn.worker))
                        self._helloed.add(conn.worker)
                    elif kind == "claim":
                        await self._assign(conn)
                    elif kind == "result":
                        await self._accept_result(conn, message)
                    elif kind == "result-ref":
                        await self._accept_result(conn, message, by_ref=True)
                    elif kind == "failed":
                        self._accept_failure(conn, message)
                    elif kind == "heartbeat":
                        # Keeps the TCP connection observably alive
                        # through NATs/idle timeouts during a long
                        # point -- and, with leases on, proves the
                        # worker is still computing: every point
                        # assigned over this connection gets a fresh
                        # deadline.
                        self._refresh_leases(conn)
                    else:
                        await write_frame(
                            writer,
                            {
                                "type": "error",
                                "error": f"unknown type {kind!r}",
                            },
                        )
                except (ConnectionError, OSError):
                    raise
                except Exception as error:  # noqa: BLE001 -- hostile input
                    # A malformed message must not take the handler (and
                    # with it this worker's claims) down silently.
                    await write_frame(
                        writer,
                        {
                            "type": "error",
                            "error": f"{type(error).__name__}: {error}",
                        },
                    )
        except (ConnectionError, OSError):
            pass  # torn transport: identical to EOF, claims requeue below
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            # A dropped connection releases its claims instantly.
            for key in [
                key
                for key, claim in self._claims.items()
                if claim.conn is conn
            ]:
                self._reclaim(key, "connection-lost")
            self._maybe_complete()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _assign(self, conn: _Connection) -> None:
        if len(self._helloed) < self._await_workers:
            await write_frame(
                conn.writer, {"type": "wait", "delay": WAIT_DELAY}
            )
            return
        while self._pending:
            key = self._pending.popleft()
            if self._terminal(key) or key in self._claims:
                # Satisfied or revoked while queued, or requeued twice
                # (drop + lease race).
                continue
            faults.inject("coordinator.assign", key)
            if self._first_assign_time is None:
                self._first_assign_time = time.perf_counter()
            self._claims[key] = _Claim(conn, self._lease_deadline())
            if self._ledger is not None:
                self._ledger.record_claimed(
                    key, conn.worker, trace=self._trace_by_key.get(key)
                )
            assign_frame: dict[str, Any] = {
                "type": "assign",
                "key": key,
                "spec": self._by_key[key].to_dict(),
            }
            trace = self._trace_by_key.get(key)
            if trace is not None:
                assign_frame["trace"] = trace
            await write_frame(conn.writer, assign_frame)
            return
        if not self._stopped and (self._outstanding() > 0 or self._watch):
            await write_frame(
                conn.writer, {"type": "wait", "delay": WAIT_DELAY}
            )
        else:
            await write_frame(conn.writer, {"type": "shutdown"})

    # -- leases --------------------------------------------------------------

    def _lease_deadline(self) -> float:
        if self._lease_timeout is None:
            return math.inf
        return time.monotonic() + self._lease_timeout

    def _refresh_leases(self, conn: _Connection) -> None:
        """A heartbeat proves the whole connection's work is alive."""
        deadline = self._lease_deadline()
        for claim in self._claims.values():
            if claim.conn is conn:
                claim.deadline = deadline

    async def _lease_sweeper(self) -> None:
        """Requeue assignments whose deadline passed unheartbeaten.

        Runs well inside the timeout (quarter-period ticks) so an
        expiry is noticed within ~1.25 leases worst case.  The expired
        claim is dropped *before* the key re-enters the queue -- the
        ghost worker's late FAILED frame then misses the
        only-the-assignee-may-fail gate, while its late RESULT
        (content-addressed, byte-identical) is still welcome.
        """
        interval = max(self._lease_timeout / 4.0, 0.01)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for key in [
                key
                for key, claim in self._claims.items()
                if claim.deadline <= now
            ]:
                if self._reclaim(key, "lease-expired"):
                    self._lease_requeued[key] += 1

    def _reclaim(self, key: str, reason: str) -> bool:
        """Take ``key`` back from its claimant and requeue it, unless
        it is terminal already; True if it went back in the queue."""
        claim = self._claims.pop(key)
        if self._terminal(key):
            return False
        self._pending.append(key)
        self._record_requeued(key, claim.conn.worker, reason)
        return True

    def _release(self, conn: _Connection, key: str) -> bool:
        """Drop ``conn``'s claim on ``key``.  Only the assignee may
        fail or release a point: False if ``conn`` does not hold it."""
        claim = self._claims.get(key)
        if claim is None or claim.conn is not conn:
            return False
        del self._claims[key]
        return True

    def _record_requeued(self, key: str, worker: str, reason: str) -> None:
        """Durable attribution: the timeline (and a replayed /metrics)
        can pin the retry on the worker whose claim was reclaimed."""
        if self._ledger is not None:
            self._ledger.record_requeued(
                key, worker, reason=reason, trace=self._trace_by_key.get(key)
            )

    # -- watch mode: the ledger is the inbox ---------------------------------

    async def _tail_ledger_task(self) -> None:
        while True:
            await asyncio.sleep(WATCH_POLL_INTERVAL)
            self._ingest_ledger_tail()
            self._maybe_compact()

    def _ingest_ledger_tail(self) -> None:
        """Follow the ledger past the last poll, then reconcile the
        queue against the followed state.

        Only a snapshot moved by another process's compaction makes
        the follower fold the whole ledger again: this coordinator's
        own compactions keep the state current (:meth:`_maybe_compact`).
        A malformed record raises here, as it does at a restart's
        replay, and ends :meth:`serve`.
        """
        assert self._ledger is not None and self._state is not None
        if not self._ledger.follow(self._state):
            self._state = self._ledger.replay()
        self._reconcile()

    def _reconcile(self) -> None:
        """Queue the points scheduled since the last look (``POST
        /submit``) and revoke the points of cancelled sweeps: the
        adoption and cancel steps of :meth:`_build_queue`, run against
        the followed state."""
        state = self._state
        adopted = self._adopt_scheduled()
        self._revoke(state.cancelled_keys)
        for spec in adopted:
            key = spec.key()
            if key in state.traces:
                self._trace_by_key.setdefault(key, state.traces[key])
            self._admit(key, spec)

    def _maybe_compact(self) -> None:
        """Fold a directory ledger into its snapshot once the
        uncompacted shard bytes cross the threshold.

        Inline on the event loop: the work is bounded by the threshold
        itself (we compact *because* the tail just crossed it), and
        appends in this process serialize against the fold anyway.  The
        compaction keeps the followed state current -- it folds in what
        the retired shards held past the last follow (a submit appended
        since the last poll) -- and in watch mode the queue is then
        reconciled against it, as after a poll.
        """
        ledger = self._ledger
        if (
            self._compact_tail_bytes is None
            or ledger is None
            or not ledger.sharded
            or ledger.tail_size() < self._compact_tail_bytes
        ):
            return
        ledger.compact(self._state)
        if self._watch:
            self._reconcile()

    def _revoke(self, keys: Iterable[str]) -> None:
        """Revoke every live point among ``keys``, the points of
        cancelled sweeps (absorbing, idempotent).

        Claims are dropped so nothing stays "leased" after a cancel; a
        result already computed for a revoked key is acked-but-ignored
        in :meth:`_accept_result`.
        """
        for key in keys:
            if key in self._by_key and not self._terminal(key):
                self._cancelled.add(key)
                self._claims.pop(key, None)
        self._maybe_complete()

    def _adopt_scheduled(self) -> list[ScenarioSpec]:
        """Register every point the ledger state schedules that this
        coordinator does not know yet; return the adopted specs.

        The ledger is the durable queue, not a mirror of this
        coordinator's spec file: points scheduled into it by a ``POST
        /submit`` (or a predecessor run over a different grid) are
        adopted, so a killed coordinator resumes mid-submitted-sweep
        with nothing but the ledger.  Keys the ledger holds as failed
        are left alone -- in particular a spec a previous resume
        ledgered as unresolvable must not be re-adopted (and
        re-ledgered as failed) on every restart or poll.
        """
        state = self._state
        adopted = []
        for key, wire in state.scheduled.items():
            if key in self._by_key or not wire or key in state.failed:
                continue
            spec = self._adopt_spec(key, wire)
            if spec is not None:
                adopted.append(spec)
        return adopted

    def _adopt_spec(
        self, key: str, wire: dict[str, Any]
    ) -> ScenarioSpec | None:
        """Register a ledger-scheduled spec this coordinator was not
        constructed with.

        A wire spec this build cannot rebuild, or rebuilds under
        another content address (version skew between the submitting
        service and this coordinator), is ledgered as a terminal
        failure -- visible in ``/progress`` -- instead of crashing the
        queue or silently stranding the point as forever-pending.
        """
        try:
            spec = ScenarioSpec.from_dict(wire)
            if spec.key() != key:
                raise ValueError(f"it rebuilds as {spec.key()[:12]}")
        except Exception as error:  # noqa: BLE001 -- foreign input
            if self._ledger is not None:
                self._ledger.record_failed(
                    key,
                    "coordinator",
                    f"unresolvable scheduled spec "
                    f"({type(error).__name__}: {error})",
                )
            return None
        self._specs.append(spec)
        self._by_key[key] = spec
        return spec

    async def _accept_result(
        self,
        conn: _Connection,
        message: dict[str, Any],
        by_ref: bool = False,
    ) -> None:
        from repro.scenario.backends import ScenarioResult

        writer = conn.writer
        worker = conn.worker
        key = message.get("key")
        faults.inject(
            "coordinator.result", key if isinstance(key, str) else ""
        )
        spec = self._by_key.get(key)
        payload = message.get("result")
        if isinstance(key, str) and key in self._cancelled:
            # The sweep was revoked while this point computed (the
            # cancel already dropped the claim): drop the result on the
            # floor, idempotently.  stored=False tells the worker not
            # to count it.
            await write_frame(
                writer, {"type": "ack", "key": key, "stored": False}
            )
            return
        if spec is None or (not by_ref and not isinstance(payload, dict)):
            await write_frame(
                writer,
                {"type": "error", "error": f"result for unknown key {key!r}"},
            )
            return
        if not by_ref and payload.get("key") != key:
            await write_frame(
                writer,
                {
                    "type": "error",
                    "error": (
                        f"result key {payload.get('key')!r} does not match "
                        f"assignment {key!r}"
                    ),
                },
            )
            return
        if key not in self._done:
            elapsed = message.get("elapsed")
            trace = self._trace_by_key.get(key) or message.get("trace")

            def publish() -> None:
                # Publish first, ledger second: "done" implies readable.
                with obs_span(
                    "coordinator.publish",
                    trace=trace,
                    key=key,
                    worker=worker,
                ):
                    store_result(
                        self._cache_dir,
                        spec,
                        ScenarioResult.from_dict(payload),
                        trace=trace,
                    )
                if self._ledger is not None:
                    self._ledger.record_done(
                        key, worker, elapsed=elapsed, trace=trace
                    )

            def validate_ref() -> None:
                # The worker claims it already published the store
                # file (shared filesystem).  Trust nothing: re-read
                # the file and require both the stored spec's
                # recomputed content address and the stored result's
                # key to equal the assignment, then ledger done.  A
                # missing or mismatched file lands in the retry path
                # exactly like a failed coordinator-side publish.
                path = result_path(self._cache_dir, spec)
                stored = json.loads(path.read_text())
                stored_spec = ScenarioSpec.from_dict(stored["spec"])
                stored_key = stored.get("result", {}).get("key")
                if stored_spec.key() != key or stored_key != key:
                    raise ValueError(
                        f"store file {path.name} does not hold the "
                        f"result of {key[:12]}"
                    )
                if self._ledger is not None:
                    self._ledger.record_done(
                        key, worker, elapsed=elapsed, trace=trace
                    )

            try:
                # Off the event loop: the store publish and the ledger
                # append both fsync, and other workers' claims must not
                # queue behind disk flushes.
                await asyncio.get_running_loop().run_in_executor(
                    None, validate_ref if by_ref else publish
                )
            except Exception as error:  # noqa: BLE001 -- bad payload/disk
                # The point must stay claimable -- dropping it from
                # every queue here would hang the sweep forever.  Only
                # the assignee's claim is released: a non-assignee's
                # broken payload must not requeue (and double-run) a
                # point that its real owner is still computing.
                if self._release(conn, key):
                    self._publish_retries[key] += 1
                    if self._publish_retries[key] >= PUBLISH_RETRY_LIMIT:
                        # Persistent: recompute/republish cycles would
                        # livelock the fleet.  Terminal failure.
                        self._fail(
                            key,
                            worker,
                            f"result not storable after "
                            f"{PUBLISH_RETRY_LIMIT} attempts "
                            f"({type(error).__name__}: {error})",
                            trace,
                        )
                        await write_frame(
                            writer,
                            {"type": "ack", "key": key, "stored": False},
                        )
                        return
                    self._pending.append(key)
                await write_frame(
                    writer,
                    {
                        "type": "error",
                        # Retryable: the worker did nothing wrong (e.g.
                        # transient disk pressure) and must keep
                        # claiming rather than die -- the point is back
                        # in the queue precisely so someone retries it.
                        "retryable": True,
                        "error": (
                            f"result for {key[:12]} not stored "
                            f"({type(error).__name__}: {error}); requeued"
                        ),
                    },
                )
                return
            # A real result supersedes a racing worker's failure report
            # (and keeps done/failed disjoint, the _outstanding
            # invariant).
            self._failed.pop(key, None)
            self._done.add(key)
            self._computed_by[worker] += 1
        self._release(conn, key)
        self._settle()
        await write_frame(writer, {"type": "ack", "key": key})

    def _accept_failure(
        self, conn: _Connection, message: dict[str, Any]
    ) -> None:
        key = message.get("key")
        if (
            not isinstance(key, str)
            or self._terminal(key)  # settled or revoked: moot
            or not self._release(conn, key)  # only the assignee may fail
        ):
            return
        self._fail(
            key,
            conn.worker,
            str(message.get("error", "unknown error")),
            self._trace_by_key.get(key),
        )

    def _fail(
        self, key: str, worker: str, error: str, trace: str | None
    ) -> None:
        """Ledger ``key`` as a terminal failure."""
        self._failed[key] = error
        if self._ledger is not None:
            self._ledger.record_failed(key, worker, error, trace=trace)
        self._settle()

    def _settle(self) -> None:
        """After a terminal event: the compute window closes on the
        last one, successful or not, and the serve loop may end."""
        if self._outstanding() == 0:
            self._complete_time = time.perf_counter()
        self._maybe_complete()

    # -- reporting ----------------------------------------------------------

    def _summary(self, elapsed: float) -> dict[str, Any]:
        compute_elapsed = None
        if (
            self._first_assign_time is not None
            and self._complete_time is not None
        ):
            compute_elapsed = self._complete_time - self._first_assign_time
        return {
            # Wall time from the first assignment to the last result:
            # the pure N-worker compute window (None if nothing ran).
            "compute_elapsed_seconds": compute_elapsed,
            "total": len(self._by_key),
            "done": len(self._done),
            "failed": dict(self._failed),
            "pending": self._outstanding(),
            "computed": sum(self._computed_by.values()),
            "resumed_from_ledger": self._resumed,
            "from_cache": self._from_cache,
            "lease_requeued": sum(self._lease_requeued.values()),
            "cancelled": len(self._cancelled),
            "watch": self._watch,
            "workers": dict(self._computed_by),
            "elapsed_seconds": elapsed,
            "cache_dir": str(self._cache_dir),
            "ledger": (
                str(self._ledger_path)
                if self._ledger_path is not None
                else None
            ),
        }
