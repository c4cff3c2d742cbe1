"""Wall-clock spans with trace ids, emitted as torn-tail-safe JSONL.

A *trace* is one sweep's journey through the fabric: a 32-hex-char id
minted when the sweep is submitted (``POST /submit``, or a
coordinator expanding its own spec file), stamped onto every protocol
frame, ledger event and store index entry that belongs to it.  A
*span* is one timed unit of work inside a trace -- a worker executing
a point, a coordinator publishing a result, a runner computing a spec
-- recorded as one JSON line::

    {"kind": "span", "name": "worker.execute", "trace": "...",
     "span": "...", "parent": null, "ts": 1754650000.123,
     "dur": 0.41, "proc": "host-1234",
     "attrs": {"key": "...", "worker": "w0"}}

Emission is **off by default**: set :data:`TELEMETRY_ENV`
(``$REPRO_TELEMETRY``) to a directory and every process writes its
own ``spans-<host>-<pid>.jsonl`` there through the store layer's
:class:`~repro.scenario.store.JsonlAppender` -- one ``O_APPEND``
write per span, so concurrent processes never interleave within a
line and a killed process loses at most its final, torn line (which
:func:`read_spans` skips).  The per-pid file name makes the sink
fork-safe: a ``multiprocessing`` sweep worker notices the pid change
and opens its own file instead of sharing the parent's descriptor.

When telemetry is off, :func:`span` still runs its block and still
propagates any caller-supplied trace id; it only skips the id minting
and the write -- which is what keeps the overhead of instrumented
code within the telemetry gate of ``tests/perf/bench_fabric.py``
without a single call-site conditional.
"""

from __future__ import annotations

import os
import pathlib
import socket
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.scenario.store import JsonlAppender, read_jsonl

__all__ = [
    "TELEMETRY_ENV",
    "Span",
    "configure",
    "emit_span",
    "enabled",
    "new_span_id",
    "new_trace_id",
    "read_spans",
    "span",
    "telemetry_dir",
]

#: Environment variable naming the span JSONL directory (unset = off).
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Programmatic override of the environment (None = follow the env;
#: set via :func:`configure`, used by benchmarks and tests).
_OVERRIDE: tuple[pathlib.Path | None] | None = None

#: The open appender and the pid it belongs to (fork detection).
_SINK: JsonlAppender | None = None
_SINK_PID: int | None = None
_SINK_DIR: pathlib.Path | None = None


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


def configure(directory: str | pathlib.Path | None) -> None:
    """Point span emission at ``directory`` (None = back to the env).

    Closes any open sink so the next emit reopens against the new
    target.  Benchmarks use this to A/B telemetry without mutating
    the process environment mid-measurement.
    """
    global _OVERRIDE, _SINK, _SINK_PID, _SINK_DIR
    _OVERRIDE = (
        (pathlib.Path(directory),) if directory is not None else (None,)
    )
    if _SINK is not None:
        _SINK.close()
    _SINK = None
    _SINK_PID = None
    _SINK_DIR = None


def telemetry_dir() -> pathlib.Path | None:
    """The active span directory, or None when telemetry is off."""
    if _OVERRIDE is not None:
        return _OVERRIDE[0]
    value = os.environ.get(TELEMETRY_ENV)
    return pathlib.Path(value) if value else None


def enabled() -> bool:
    """Whether spans are being written."""
    return telemetry_dir() is not None


def _sink() -> JsonlAppender | None:
    """The per-process appender (reopened after a fork or retarget)."""
    global _SINK, _SINK_PID, _SINK_DIR
    directory = telemetry_dir()
    if directory is None:
        return None
    pid = os.getpid()
    if _SINK is not None and _SINK_PID == pid and _SINK_DIR == directory:
        return _SINK
    if _SINK is not None and _SINK_PID == pid:
        _SINK.close()
    # NOTE: after a fork the parent's descriptor is deliberately NOT
    # closed here -- the parent still owns it; this child just opens
    # its own file.
    try:
        _SINK = JsonlAppender(
            directory / f"spans-{socket.gethostname()}-{pid}.jsonl"
        )
    except OSError:
        return None  # unwritable telemetry dir: drop spans, never crash
    _SINK_PID = pid
    _SINK_DIR = directory
    return _SINK


def emit_span(
    name: str,
    *,
    duration: float,
    trace: str | None = None,
    parent: str | None = None,
    start: float | None = None,
    span_id: str | None = None,
    attrs: dict[str, Any] | None = None,
) -> None:
    """Write one completed span record (no-op when telemetry is off).

    For call sites where a context manager does not fit -- e.g. the
    worker timing claim-to-assign across two frames.
    """
    sink = _sink()
    if sink is None:
        return
    record = {
        "kind": "span",
        "name": name,
        "trace": trace,
        "span": span_id or new_span_id(),
        "parent": parent,
        "ts": round(time.time() - duration if start is None else start, 6),
        "dur": round(duration, 9),
        "proc": f"{socket.gethostname()}-{os.getpid()}",
        "attrs": attrs or {},
    }
    try:
        sink.append(record)
    except OSError:
        pass  # telemetry must never take the fabric down with it


class Span:
    """Handle yielded by :func:`span`: ids plus mutable attributes."""

    __slots__ = ("name", "trace", "span", "parent", "attrs")

    def __init__(
        self,
        name: str,
        trace: str | None,
        parent: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace = trace
        self.span = new_span_id() if enabled() else None
        self.parent = parent
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. an outcome)."""
        self.attrs.update(attrs)


@contextmanager
def span(
    name: str,
    trace: str | None = None,
    parent: str | None = None,
    **attrs: Any,
) -> Iterator[Span]:
    """Time a block and emit it as one span record on exit.

    ``trace=None`` with telemetry on mints a fresh trace id (the span
    starts its own trace -- what a serial ``SweepRunner`` point does);
    with telemetry off nothing is minted and nothing is written.  The
    span is emitted even when the block raises, with the exception
    type recorded in ``attrs["error"]``.
    """
    active = enabled()
    if active and trace is None:
        trace = new_trace_id()
    handle = Span(name, trace, parent, dict(attrs))
    started = time.time()
    clock = time.perf_counter()
    try:
        yield handle
    except BaseException as error:
        handle.attrs.setdefault("error", type(error).__name__)
        raise
    finally:
        if active:
            emit_span(
                name,
                duration=time.perf_counter() - clock,
                trace=handle.trace,
                parent=handle.parent,
                start=started,
                span_id=handle.span,
                attrs=handle.attrs,
            )


def read_spans(
    directory: str | pathlib.Path,
) -> list[dict[str, Any]]:
    """Every span record under ``directory`` (all processes), sorted
    by start time.  Torn tails and foreign lines are skipped -- the
    reader inherits :func:`~repro.scenario.store.read_jsonl`'s lenient
    replay semantics."""
    directory = pathlib.Path(directory)
    records: list[dict[str, Any]] = []
    if not directory.is_dir():
        return records
    for file in sorted(directory.glob("spans-*.jsonl")):
        for record in read_jsonl(file, strict=False):
            if isinstance(record, dict) and record.get("kind") == "span":
                records.append(record)
    records.sort(key=lambda r: r.get("ts", 0.0))
    return records
