"""Per-layer tracing from outside the program.

Every per-layer number the benchmark reports comes from a *probe*: a
wrapper this module installs over one function of the program, at the
name its caller resolves (``repro.simulation.batch.transition_rows``,
``repro.distributed.coordinator.store_result``, ...).  The program's
own code is never edited.  A probe records one span per call -- name,
wall-clock start, duration and *self* time (duration minus the time of
the probe spans nested inside it on the same thread) -- plus optional
counts, all in memory; :meth:`Recorder.dump` writes them once, at exit.

Probe sets are grouped by the process role that runs them (``engine``
in every process that executes points, ``coordinator``, ``worker``,
``service``); :func:`install` patches a role's set and returns a
:class:`Recorder` whose :meth:`~Recorder.uninstall` restores every
original.  Each probe also counts its calls, so a workload can insist
that every probe it is meant to exercise fired at least once.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import pathlib
import threading
import time
from typing import Any, Callable

class Recorder:
    """In-memory spans and counts of one process."""

    def __init__(self) -> None:
        # (name, wall start, duration, self time) per finished span.
        self.spans: list[tuple[str, float, float, float]] = []
        self.counts: collections.Counter[str] = collections.Counter()
        # Calls per probe, whether or not the call produced a span.
        self.fired: collections.Counter[str] = collections.Counter()
        # Raw ledger records a compaction was about to fold away.
        self.records: list[dict] = []
        self._local = threading.local()
        # Callables that put the originals back, in patching order.
        self.undo: list[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> tuple[float, float]:
        """Open a span frame; returns the ``(wall, perf)`` start pair."""
        self._stack().append(0.0)
        return time.time(), time.perf_counter()

    def exit(self, name: str | None, start: tuple[float, float]) -> None:
        """Close the innermost frame as span ``name``.

        ``name=None`` drops the frame: its time stays in the enclosing
        span's self time, as if no probe had been there.
        """
        duration = time.perf_counter() - start[1]
        stack = self._stack()
        children = stack.pop()
        if name is None:
            if stack:
                stack[-1] += children
            return
        if stack:
            stack[-1] += duration
        self.spans.append((name, start[0], duration, duration - children))

    def record(self, name: str, wall_start: float, duration: float) -> None:
        """Add a span measured elsewhere (it nests under nothing)."""
        self.spans.append((name, wall_start, duration, duration))

    # -- patching -------------------------------------------------------------

    def patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, wrapper)
        self.undo.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        """Put every patched original back (last patched, first restored)."""
        while self.undo:
            self.undo.pop()()

    def dump(self, path: str | pathlib.Path, **extra: Any) -> None:
        """Write everything recorded, once, as one JSON document."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "fired": dict(self.fired),
            "records": self.records,
            **extra,
        }
        pathlib.Path(path).write_text(json.dumps(payload))


def _spanned(
    recorder: Recorder,
    probe: str,
    original: Callable,
    name: Callable[..., str | None] | str,
    count: Callable[..., None] | None = None,
) -> Callable:
    """``original`` wrapped in a span (``name`` may pick it per call)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.fired[probe] += 1
        start = recorder.enter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            label = name(result, *args, **kwargs) if callable(name) else name
            recorder.exit(label, start)
            if count is not None:
                count(result, *args, **kwargs)

    return wrapper


def _wrap(
    recorder: Recorder,
    target: str,
    name,
    count=None,
) -> None:
    """Patch ``module:attr`` or ``module:Class.method`` with a span."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = getattr(owner, attribute)
    recorder.patch(
        owner,
        attribute,
        _spanned(recorder, target, original, name, count),
    )


# -- probe sets ---------------------------------------------------------------


def _engine(recorder: Recorder) -> None:
    """The engine tiers: backends, churn kind laws, batch engine, rows,
    chain assembly and the fundamental-matrix solves."""
    from repro.scenario.registry import CHURN_KIND_LAWS
    from repro.simulation.churn import ScheduledKinds

    def kinds(result, *args, **kwargs) -> None:
        if isinstance(result, ScheduledKinds):
            recorder.counts["churn.kinds_materialized"] += int(
                result.schedule.size
            )

    def kind_law(result, *args, **kwargs) -> str | None:
        return "churn.kind_law" if isinstance(result, ScheduledKinds) else None

    # Only laws that materialize a schedule count as kind-law time; an
    # i.i.d. law is a constructor call and stays in its caller's time.
    for churn in CHURN_KIND_LAWS.names():
        law = CHURN_KIND_LAWS.get(churn)
        probe = f"repro.scenario.registry:CHURN_KIND_LAWS[{churn}]"
        wrapped = _spanned(recorder, probe, law, kind_law, kinds)
        CHURN_KIND_LAWS.register(churn, wrapped, replace=True)
        recorder.undo.append(
            functools.partial(CHURN_KIND_LAWS.register, churn, law, replace=True)
        )

    def trajectories(result, engine, runs, *args, **kwargs) -> None:
        recorder.counts["batch.trajectories"] += int(runs)

    def batch_mode(result, *args, **kwargs) -> str:
        mode = kwargs.get("mode", args[4] if len(args) > 4 else "event")
        return "batch.skip" if mode == "skip" else "batch.event"

    _wrap(
        recorder,
        "repro.simulation.batch:run_batch_trajectories",
        batch_mode,
        trajectories,
    )
    for target, name in (
        ("repro.scenario.backends:BatchBackend.run", "backends.batch"),
        ("repro.scenario.backends:CompetingBackend.run", "backends.competing"),
        ("repro.scenario.backends:AnalyticBackend.run", "backends.analytic"),
        ("repro.scenario.backends:batch_monte_carlo_summary", "batch.summary"),
        (
            "repro.simulation.overlay_sim:CompetingClustersSimulation.run",
            "competing.run",
        ),
        ("repro.simulation.batch:transition_rows", "transitions.rows"),
        ("repro.core.matrix:transition_rows", "transitions.rows"),
        ("repro.core.matrix:ClusterChain.__init__", "matrix.chain"),
        ("repro.markov.fundamental:solve_fundamental", "markov.solve"),
        ("repro.markov.sojourn:solve_fundamental", "markov.solve"),
        ("repro.markov.hitting:solve_fundamental", "markov.solve"),
    ):
        _wrap(recorder, target, name)


def _frames(recorder: Recorder) -> None:
    _wrap(recorder, "repro.distributed.protocol:encode_frame", "protocol.encode")


def _ledger_appends(recorder: Recorder) -> None:
    """Every ledger line goes through one ``JsonlAppender.append``; the
    store's index-sidecar appends stay inside the publish span."""
    from repro.scenario.store import INDEX_NAME

    def name(result, appender, *args, **kwargs) -> str | None:
        return None if appender.path.name == INDEX_NAME else "ledger.append"

    _wrap(recorder, "repro.scenario.store:JsonlAppender.append", name)


def _coordinator(recorder: Recorder) -> None:
    from repro.distributed.ledger import ShardedLedger, iter_ledger_records

    _frames(recorder)
    _ledger_appends(recorder)
    _wrap(recorder, "repro.distributed.coordinator:store_result", "store.publish")
    for layout in ("SweepLedger", "ShardedLedger"):
        _wrap(
            recorder,
            f"repro.distributed.ledger:{layout}.replay",
            "ledger.startup_replay",
        )
    _wrap(
        recorder,
        "repro.distributed.ledger:ShardedLedger.compact",
        "ledger.compact",
    )
    # Compaction folds the raw shard records (and their ``ts`` stamps)
    # into the snapshot; keep a copy of them first, outside the span.
    compact = ShardedLedger.compact

    @functools.wraps(compact)
    def keep_records_then_compact(ledger, *args, **kwargs):
        recorder.records.extend(iter_ledger_records(ledger.path))
        return compact(ledger, *args, **kwargs)

    recorder.patch(ShardedLedger, "compact", keep_records_then_compact)


def _worker(recorder: Recorder) -> None:
    _engine(recorder)
    _frames(recorder)
    _wrap(recorder, "repro.scenario.runner:execute_spec", "worker.execute")
    import repro.distributed.worker as worker

    # The worker already times each claim round trip (CLAIM sent ->
    # ASSIGN read) for its telemetry; the probe keeps that measurement.
    emit_span = worker.emit_span

    @functools.wraps(emit_span)
    def emit(name, *args, **kwargs):
        if name == "worker.claim":
            recorder.fired["repro.distributed.worker:emit_span"] += 1
            duration = float(kwargs["duration"])
            recorder.record("worker.claim_wait", time.time() - duration, duration)
        return emit_span(name, *args, **kwargs)

    recorder.patch(worker, "emit_span", emit)


#: Path prefixes of ``ResultsService.respond`` -> span names.
_ROUTES = (
    ("/results/", "service.payload"),
    ("/results", "service.page"),
    ("/progress", "service.progress"),
    ("/metrics", "service.metrics"),
    ("/healthz", "service.healthz"),
)


def _service(recorder: Recorder) -> None:
    def route(result, service, path, *args, **kwargs) -> str:
        for prefix, name in _ROUTES:
            if path.startswith(prefix):
                return name
        return "service.other"

    _ledger_appends(recorder)
    # Memo lookups (a ledger stamp check, an index read) and their
    # misses (a full ledger replay, an index rebuild) are span calls.
    # The rebuild has no public name: it is the miss path of entries().
    for target, name in (
        ("repro.distributed.service:ResultsService.respond", route),
        ("repro.distributed.service:ResultsService.respond_post", "service.submit"),
        ("repro.distributed.service:replay_ledger", "service.replay"),
        ("repro.distributed.service:ledger_stamp", "service.ledger_stamp"),
        ("repro.scenario.store:ResultIndex.entries", "store.index_entries"),
        ("repro.scenario.store:ResultIndex._rebuild", "store.index_rebuild"),
    ):
        _wrap(recorder, target, name)


_INSTALLERS = {
    "engine": _engine,
    "coordinator": _coordinator,
    "worker": _worker,
    "service": _service,
}


def install(role: str) -> Recorder:
    """Patch ``role``'s probe set into this process."""
    recorder = Recorder()
    _INSTALLERS[role](recorder)
    return recorder
