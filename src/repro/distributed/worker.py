"""The worker: claims sweep points and executes them on this host.

A worker is a thin loop around the existing single-host execution
path: CLAIM a point from the coordinator, rebuild the
:class:`~repro.scenario.spec.ScenarioSpec` from its wire form, run it
through :func:`~repro.scenario.runner.execute_spec` (the registered
``ENGINES`` backend, exactly what :class:`~repro.scenario.runner
.SweepRunner` uses in-process -- so a distributed sweep computes
byte-identical results: every point's seed comes from the spec, never
from the executing host), and stream the result back as one RESULT
frame.  Determinism makes workers interchangeable and retries safe.

Workers are stateless: they hold no queue and write no ledger.  Kill
one mid-point and the coordinator requeues the claim the moment the
connection drops; start another (on any host that can reach the
coordinator and import ``repro``) and it joins the sweep mid-flight.

**Reconnect**: with ``reconnect_timeout`` > 0, a torn connection (the
coordinator crashed, or a restart closed the socket) does not end the
worker -- it re-enters the bounded connect loop and rejoins whichever
coordinator answers on the same address within the window.  A fleet
of workers therefore survives a coordinator restart with zero manual
intervention; only an orderly SHUTDOWN frame (or an exhausted
``max_points`` budget) ends the loop early.  All connection retries
-- initial and reconnect -- use *jittered exponential backoff* seeded
per worker id: deterministic for tests, yet no two workers share a
retry schedule, so a restarted coordinator is never hit by a
thundering herd of simultaneous SYNs.

``heartbeat_every`` keeps the connection observably alive while a long
point computes: the point runs on a daemon thread and the loop emits a
HEARTBEAT frame every interval until it finishes, so NATs and idle
timeouts never reap the connection mid-point -- and, when the
coordinator runs lease timeouts, each frame refreshes this worker's
leases, so a slow but live point is never preempted.  One point still
saturates one core -- parallelism comes from running more workers.

``store_dir`` opts into *worker-side publishes* for deployments where
workers see the coordinator's store directly (NFS, a shared volume):
the worker writes the content-addressed result file itself -- through
the exact same :func:`~repro.scenario.store.store_result` path the
coordinator would use, so the bytes are identical -- and sends a slim
RESULT-REF frame instead of shipping the payload.  The coordinator
re-validates the address before ledgering done.  If the local publish
fails for any reason, the worker falls back to the full RESULT frame;
the optimization is never load-bearing for correctness.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import random
import socket
import threading
import time
from typing import Any

from repro.distributed import faults
from repro.distributed.protocol import ProtocolError, read_frame, write_frame
from repro.obs import metrics as obs_metrics
from repro.obs.trace import emit_span, span as obs_span
from repro.scenario.spec import ScenarioSpec
from repro.scenario.store import store_result

__all__ = ["run_worker", "worker_loop"]

_POINTS = obs_metrics.counter(
    "repro_worker_points_total",
    "Assignments this worker process finished, by outcome",
    ("outcome",),
)
_RECONNECTS = obs_metrics.counter(
    "repro_worker_reconnects_total",
    "Torn connections this worker process survived",
)

#: Base delay of the connect backoff (doubles per failed attempt).
RETRY_DELAY = 0.2

#: Ceiling on one backoff step, before jitter.
BACKOFF_CAP = 5.0

#: Default seconds between HEARTBEAT frames while a point computes.
DEFAULT_HEARTBEAT = 15.0

#: Session outcomes (internal): why one connection's loop ended.
_TORN = "torn"  # transport died: a reconnect candidate
_DONE = "done"  # orderly end: shutdown frame or exhausted budget


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


async def _connect_with_backoff(
    host: str, port: int, window: float, jitter: random.Random
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """One bounded connect loop with jittered exponential backoff.

    Raises the last ``OSError`` once ``window`` seconds pass without a
    connection.  The delay for attempt *n* is
    ``min(BACKOFF_CAP, RETRY_DELAY * 2**n) * uniform(0.5, 1.5)`` drawn
    from the caller's seeded ``jitter`` stream -- reproducible per
    worker, desynchronized across workers.
    """
    deadline = time.monotonic() + window
    attempt = 0
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except OSError:
            now = time.monotonic()
            if now >= deadline:
                raise
            delay = min(BACKOFF_CAP, RETRY_DELAY * (2**attempt))
            delay *= 0.5 + jitter.random()
            attempt += 1
            await asyncio.sleep(min(delay, max(deadline - now, 0.01)))


async def worker_loop(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    max_points: int | None = None,
    connect_timeout: float = 10.0,
    heartbeat_every: float | None = DEFAULT_HEARTBEAT,
    store_dir: str | pathlib.Path | None = None,
    reconnect_timeout: float = 0.0,
) -> dict[str, Any]:
    """Claim-execute-report until the coordinator says shutdown.

    ``max_points`` caps how many assignments this worker *attempts*
    (across reconnects) before disconnecting -- attempts, not acks, so
    a coordinator-side publish hiccup cannot extend the budget
    unboundedly.  ``connect_timeout`` bounds the *initial* connection
    retries (a worker started moments before its coordinator still
    joins; exhausting this window raises).  ``reconnect_timeout``
    bounds the connect retries after a *torn* connection (0 disables:
    the historical die-on-disconnect behavior; exhausting this window
    returns normally -- the work done so far is real).
    ``heartbeat_every`` spaces the mid-point HEARTBEAT frames
    (``None`` disables them and runs points inline); ``store_dir`` (a
    path to the *shared* result store) switches to worker-side
    publishes + RESULT-REF frames.  Returns ``{"worker": id,
    "executed": n, "failed": n, "published": n, "reconnects": n}``
    where ``executed`` counts only results the coordinator acked as
    stored and ``published`` counts the worker-side store writes among
    them.
    """
    from repro.scenario.runner import execute_spec

    # Engine registration is boot cost, not sweep compute: warm it
    # before the first claim so the coordinator's assignment-to-result
    # window measures the points, not this interpreter's imports.
    import repro.scenario.backends  # noqa: F401 -- populate ENGINES

    name = worker_id or _default_worker_id()
    jitter = random.Random(f"repro-worker:{name}")
    executed = 0
    failed = 0
    attempts = 0
    published = 0
    reconnects = 0

    async def execute(
        spec: ScenarioSpec,
        writer: asyncio.StreamWriter,
        trace: str | None = None,
    ):
        """Run one point, heartbeating while it computes.

        The point runs on a *daemon* thread (not the default executor):
        if the coordinator dies mid-point, the worker must move on
        promptly (reconnect, or exit) instead of blocking on a
        computation whose result nobody will collect.
        """
        if heartbeat_every is None:
            return execute_spec(spec)
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def compute() -> None:
            try:
                outcome, error = execute_spec(spec), None
            except BaseException as exc:  # noqa: BLE001 -- bridged over
                outcome, error = None, exc

            def deliver() -> None:
                if future.cancelled():
                    return
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(outcome)

            try:
                loop.call_soon_threadsafe(deliver)
            except RuntimeError:
                pass  # loop already closed: the worker has moved on

        threading.Thread(
            target=compute, name="repro-point", daemon=True
        ).start()
        while True:
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), timeout=heartbeat_every
                )
            except asyncio.TimeoutError:
                rule = faults.inject("worker.heartbeat", name)
                if rule is not None and rule.action in (
                    faults.ACTION_STALL,
                    faults.ACTION_DROP,
                ):
                    continue  # wedged worker: this beat never goes out
                beat: dict[str, Any] = {"type": "heartbeat"}
                if trace is not None:
                    beat["trace"] = trace
                await write_frame(writer, beat)

    async def session(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> str:
        """One connection's claim loop; returns why it ended."""
        nonlocal executed, failed, attempts, published
        # The trace id of this connection's most recent assignment:
        # echoed on claim frames (so a capture can tie the next claim
        # to the work that freed this worker) and carried on every
        # frame about the current point.
        last_trace: str | None = None
        try:
            await write_frame(writer, {"type": "hello", "worker": name})
            while max_points is None or attempts < max_points:
                claim: dict[str, Any] = {"type": "claim"}
                if last_trace is not None:
                    claim["trace"] = last_trace
                claim_started = time.perf_counter()
                await write_frame(writer, claim)
                try:
                    message = await read_frame(reader)
                except ProtocolError:
                    return _TORN  # coordinator went away mid-frame
                if message is None:
                    return _TORN  # closed without SHUTDOWN: a crash
                kind = message.get("type")
                if kind == "assign":
                    attempts += 1
                    trace = message.get("trace")
                    trace = trace if isinstance(trace, str) else None
                    last_trace = trace
                    emit_span(
                        "worker.claim",
                        duration=time.perf_counter() - claim_started,
                        trace=trace,
                        attrs={"key": message.get("key"), "worker": name},
                    )
                    started = time.perf_counter()
                    try:
                        # Spec parsing sits inside the failure
                        # boundary: a version-skewed coordinator
                        # shipping a field this worker's ScenarioSpec
                        # rejects must produce a terminal FAILED
                        # report, not a worker crash that requeues the
                        # point onto the next victim.
                        spec = ScenarioSpec.from_dict(message["spec"])
                        with obs_span(
                            "worker.execute",
                            trace=trace,
                            key=message.get("key"),
                            worker=name,
                        ):
                            result = await execute(spec, writer, trace)
                    except (ConnectionError, OSError):
                        # A mid-point heartbeat hit a dead socket: the
                        # coordinator vanished, the point did NOT
                        # fail.  Propagate to the torn handler.
                        raise
                    except Exception as error:  # noqa: BLE001 -- reported
                        failed += 1
                        _POINTS.inc(outcome="failed")
                        failed_frame: dict[str, Any] = {
                            "type": "failed",
                            "key": message["key"],
                            "error": f"{type(error).__name__}: {error}",
                        }
                        if trace is not None:
                            failed_frame["trace"] = trace
                        await write_frame(writer, failed_frame)
                        continue
                    sent_ref = False
                    if store_dir is not None:
                        try:
                            # The exact publish path the coordinator
                            # would take: same canonical JSON, same
                            # atomic temp-file + os.replace --
                            # byte-identical no matter which side
                            # writes.
                            with obs_span(
                                "worker.publish",
                                trace=trace,
                                key=message.get("key"),
                                worker=name,
                            ):
                                store_result(
                                    store_dir, spec, result, trace=trace
                                )
                        except Exception:  # noqa: BLE001 -- fall back
                            # Local publish failed (permissions, a
                            # store this host cannot reach): the full
                            # RESULT frame below is always correct.
                            sent_ref = False
                        else:
                            sent_ref = True
                            ref_frame: dict[str, Any] = {
                                "type": "result-ref",
                                "key": message["key"],
                                "elapsed": time.perf_counter() - started,
                            }
                            if trace is not None:
                                ref_frame["trace"] = trace
                            await write_frame(writer, ref_frame)
                    try:
                        if not sent_ref:
                            result_frame: dict[str, Any] = {
                                "type": "result",
                                "key": message["key"],
                                "result": result.to_dict(),
                                "elapsed": time.perf_counter() - started,
                            }
                            if trace is not None:
                                result_frame["trace"] = trace
                            await write_frame(writer, result_frame)
                    except ProtocolError as error:
                        # Result exceeds the frame bound (encode_frame
                        # refuses before any bytes hit the wire).
                        # Deterministic for the spec, so report a
                        # terminal failure -- crashing here would make
                        # the coordinator requeue the point and
                        # livelock the fleet on recompute/crash
                        # cycles.
                        failed += 1
                        _POINTS.inc(outcome="failed")
                        oversize_frame: dict[str, Any] = {
                            "type": "failed",
                            "key": message["key"],
                            "error": f"result not sendable: {error}",
                        }
                        if trace is not None:
                            oversize_frame["trace"] = trace
                        await write_frame(writer, oversize_frame)
                        continue
                    try:
                        reply = await read_frame(reader)
                    except ProtocolError:
                        return _TORN  # coordinator died mid-ack
                    if reply is None:
                        return _TORN
                    if reply.get("type") == "shutdown":
                        # The coordinator drained while this point ran:
                        # an orderly end, not an ack.
                        return _DONE
                    if reply.get("type") == "error":
                        if reply.get("retryable"):
                            # Coordinator-side publish hiccup: the
                            # point is requeued (and NOT counted as
                            # executed -- no result was stored); back
                            # off and keep going.
                            _POINTS.inc(outcome="retried")
                            await asyncio.sleep(RETRY_DELAY)
                            continue
                        raise ProtocolError(str(reply.get("error")))
                    if reply.get("stored", True):
                        executed += 1  # acked: durably stored
                        _POINTS.inc(outcome="acked")
                        if sent_ref:
                            published += 1
                elif kind == "wait":
                    await asyncio.sleep(float(message.get("delay", 0.2)))
                elif kind == "shutdown":
                    return _DONE
                elif kind == "error":
                    raise ProtocolError(str(message.get("error")))
            return _DONE  # max_points budget exhausted
        except (ConnectionError, OSError):
            # The coordinator vanished between frames: a crash, or a
            # restart that closed the socket under us.
            return _TORN
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    window = connect_timeout
    initial = True
    while True:
        try:
            reader, writer = await _connect_with_backoff(
                host, port, window, jitter
            )
        except OSError:
            if initial:
                raise  # never connected at all: that is an error
            break  # the coordinator never came back within the window
        initial = False
        outcome = await session(reader, writer)
        if outcome != _TORN or reconnect_timeout <= 0:
            break
        reconnects += 1
        _RECONNECTS.inc()
        window = reconnect_timeout
    return {
        "worker": name,
        "executed": executed,
        "failed": failed,
        "published": published,
        "reconnects": reconnects,
    }


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    max_points: int | None = None,
    connect_timeout: float = 10.0,
    heartbeat_every: float | None = DEFAULT_HEARTBEAT,
    store_dir: str | pathlib.Path | None = None,
    reconnect_timeout: float = 0.0,
) -> dict[str, Any]:
    """Blocking wrapper around :func:`worker_loop` (the CLI entry)."""
    return asyncio.run(
        worker_loop(
            host,
            port,
            worker_id=worker_id,
            max_points=max_points,
            connect_timeout=connect_timeout,
            heartbeat_every=heartbeat_every,
            store_dir=store_dir,
            reconnect_timeout=reconnect_timeout,
        )
    )
