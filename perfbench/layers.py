"""The per-layer table: names, units, and folding spans into it.

A traced run prints every metric below for its workload; a layer the
workload bypasses reads 0, which is the point of the contrast (e.g.
``churn.kind_law_s`` > 0 on ``engine-mix`` and 0 on ``fabric-sweep``).
Time metrics ending in ``_s`` are *self* time summed over the
workload's unit of work (one pass over the mix, one sweep, one service
launch); ``_ms`` metrics are mean server time per request of a route;
counts are per unit as well.
"""

from __future__ import annotations

import collections

#: (name, unit, better, the end-to-end metric it should move and
#: where) of every per-layer metric, in table order.
PER_LAYER = (
    # simulation
    ("churn.kind_law_s", "s", "lower", "work_s engine-mix; 0 on fabric-sweep"),
    ("churn.kinds_materialized", "count", "lower", "work_s engine-mix; 0 on fabric-sweep"),
    ("batch.event_s", "s", "lower", "work_s engine-mix"),
    ("batch.skip_s", "s", "lower", "work_s engine-mix"),
    ("batch.summary_s", "s", "lower", "work_s engine-mix"),
    ("batch.trajectories", "count", "higher", "work_s engine-mix"),
    ("competing.run_s", "s", "lower", "work_s engine-mix"),
    # core / markov
    ("transitions.rows_s", "s", "lower", "work_s engine-mix; ~0 fabric-sweep"),
    ("transitions.rows_calls", "count", "lower", "work_s engine-mix; ~0 fabric-sweep"),
    ("matrix.chain_s", "s", "lower", "work_s engine-mix"),
    ("markov.solve_s", "s", "lower", "work_s engine-mix"),
    # scenario
    ("backends.batch_s", "s", "lower", "work_s engine-mix"),
    ("backends.competing_s", "s", "lower", "work_s engine-mix"),
    ("backends.analytic_s", "s", "lower", "work_s engine-mix"),
    ("store.publish_s", "s", "lower", "work_s fabric-sweep"),
    ("store.publishes", "count", "higher", "work_s fabric-sweep"),
    ("store.index_rebuilds", "count", "lower", "setup_s, op_tail_ms serve-read"),
    # distributed
    ("service.submit_ms", "ms", "lower", "work_s fabric-sweep"),
    ("service.progress_ms", "ms", "lower", "work_s fabric-sweep; op_tail_ms serve-read"),
    ("service.page_ms", "ms", "lower", "op_p50_ms, work_s serve-read"),
    ("service.payload_ms", "ms", "lower", "op_p50_ms, work_s serve-read"),
    ("service.metrics_ms", "ms", "lower", "work_s serve-read"),
    ("service.http_ms", "ms", "lower", "op_p50_ms, work_s serve-read"),
    ("service.memo_hit_frac", "ratio", "higher", "op_p50_ms, work_s serve-read"),
    ("service.replays", "count", "lower", "work_s fabric-sweep; setup_s serve-read"),
    ("service.replay_s", "s", "lower", "work_s fabric-sweep; setup_s serve-read"),
    ("ledger.startup_replay_s", "s", "lower", "setup_s fabric-sweep"),
    ("ledger.tail_lag_s", "s", "lower", "work_s fabric-sweep"),
    ("ledger.queue_wait_s", "s", "lower", "work_s fabric-sweep"),
    ("ledger.append_s", "s", "lower", "work_s fabric-sweep"),
    ("ledger.appends", "count", "lower", "work_s fabric-sweep"),
    ("ledger.compactions", "count", "lower", "work_s fabric-sweep"),
    ("ledger.compact_s", "s", "lower", "work_s fabric-sweep"),
    ("protocol.frames", "count", "lower", "work_s fabric-sweep"),
    ("protocol.encode_s", "s", "lower", "work_s fabric-sweep"),
    ("worker.execute_s", "s", "lower", "work_s fabric-sweep"),
    ("worker.claim_wait_s", "s", "lower", "work_s fabric-sweep"),
    ("worker.busy_frac", "ratio", "higher", "work_s fabric-sweep"),
    ("worker.reconnects", "count", "lower", "work_s fabric-sweep (drain only)"),
    ("fabric.complete_s", "s", "lower", "work_s, op_tail_ms fabric-sweep"),
    ("fabric.drain_s", "s", "lower", "work_s fabric-sweep (drain only)"),
    # the tracing itself
    ("trace.overhead_frac", "ratio", "lower", "(traced vs untraced work)"),
)

class Totals:
    """Span totals by name: self seconds, inclusive seconds, calls."""

    def __init__(self) -> None:
        self.self_s: collections.Counter[str] = collections.Counter()
        self.incl_s: collections.Counter[str] = collections.Counter()
        self.calls: collections.Counter[str] = collections.Counter()
        self.counts: collections.Counter[str] = collections.Counter()

    def add(self, trace: dict, window: tuple[float, float] | None = None) -> None:
        """Fold one process's trace: its spans that start inside
        ``window`` (all without one) and all of its counts -- so counts
        come only from processes that do nothing but the measured work;
        anything else is counted through its spans' calls."""
        for name, start, duration, own in trace["spans"]:
            if window is not None and not window[0] <= start <= window[1]:
                continue
            self.self_s[name] += own
            self.incl_s[name] += duration
            self.calls[name] += 1
        self.counts.update(trace["counts"])


def as_trace(recorder) -> dict:
    """An in-process recorder in the shape dumped trace files have."""
    return {
        "spans": recorder.spans,
        "counts": dict(recorder.counts),
        "fired": dict(recorder.fired),
    }


def engine_layers(totals: Totals, units: int) -> dict[str, float]:
    """The simulation, core/markov and backend rows, per unit of work."""
    per = 1.0 / units
    return {
        "churn.kind_law_s": totals.self_s["churn.kind_law"] * per,
        "churn.kinds_materialized": totals.counts["churn.kinds_materialized"] * per,
        "batch.event_s": totals.self_s["batch.event"] * per,
        "batch.skip_s": totals.self_s["batch.skip"] * per,
        "batch.summary_s": totals.self_s["batch.summary"] * per,
        "batch.trajectories": totals.counts["batch.trajectories"] * per,
        "competing.run_s": totals.self_s["competing.run"] * per,
        "transitions.rows_s": totals.self_s["transitions.rows"] * per,
        "transitions.rows_calls": totals.calls["transitions.rows"] * per,
        "matrix.chain_s": totals.self_s["matrix.chain"] * per,
        "markov.solve_s": totals.self_s["markov.solve"] * per,
        "backends.batch_s": totals.self_s["backends.batch"] * per,
        "backends.competing_s": totals.self_s["backends.competing"] * per,
        "backends.analytic_s": totals.self_s["backends.analytic"] * per,
    }


def mean_ms(totals: Totals, name: str) -> float:
    calls = totals.calls[name]
    return 1000.0 * totals.incl_s[name] / calls if calls else 0.0


def complete(layers: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload bypasses the layer."""
    return {name: float(layers.get(name, 0.0)) for name, *_ in PER_LAYER}
