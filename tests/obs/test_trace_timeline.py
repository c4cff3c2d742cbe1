"""Span emission, trace propagation, and ``repro trace`` timelines.

The acceptance scenario at the bottom drives the full fabric: a sweep
submitted over the service's front door, executed by two workers under
an injected torn RESULT frame, then reconstructed -- every terminal
ledger record carrying the trace id minted at submit, the retry
attributed to the torn worker, and the CLI rendering a complete
per-point timeline.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.core.parameters import ModelParameters
from repro.distributed import faults
from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.faults import FaultPlan, FaultRule
from repro.distributed.ledger import (
    EVENT_DONE,
    iter_ledger_records,
    replay_ledger,
)
from repro.distributed.service import ResultsService
from repro.distributed.worker import worker_loop
from repro.obs import trace
from repro.obs.timeline import build_timeline, render_timeline, resolve_sweep
from repro.obs.trace import emit_span, new_trace_id, read_spans, span

PARAMS = {"core_size": 5, "spare_max": 5, "k": 1, "mu": 0.2, "d": 0.9}


class TestSpanEmission:
    def test_off_by_default_runs_the_block_without_writing(self, tmp_path):
        with span("unit.work", key="k") as handle:
            pass
        assert handle.trace is None  # nothing minted when off
        assert read_spans(tmp_path) == []

    def test_enabled_mints_a_trace_and_writes_one_record(self, tmp_path):
        trace.configure(tmp_path)
        assert trace.enabled()
        with span("unit.work", key="k1") as handle:
            handle.set(outcome="ok")
        records = read_spans(tmp_path)
        assert len(records) == 1
        (record,) = records
        assert record["name"] == "unit.work"
        assert record["trace"] == handle.trace
        assert len(record["trace"]) == 32
        assert record["attrs"] == {"key": "k1", "outcome": "ok"}
        assert record["dur"] >= 0 and record["ts"] > 0

    def test_supplied_trace_is_propagated_not_replaced(self, tmp_path):
        trace.configure(tmp_path)
        minted = new_trace_id()
        with span("unit.work", trace=minted):
            pass
        assert read_spans(tmp_path)[0]["trace"] == minted

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        trace.configure(tmp_path)
        with pytest.raises(RuntimeError):
            with span("unit.exploding"):
                raise RuntimeError("boom")
        (record,) = read_spans(tmp_path)
        assert record["attrs"]["error"] == "RuntimeError"

    def test_emit_span_records_an_explicit_duration(self, tmp_path):
        trace.configure(tmp_path)
        emit_span(
            "unit.manual", duration=0.25, trace="t" * 32,
            attrs={"key": "k2"},
        )
        (record,) = read_spans(tmp_path)
        assert record["dur"] == 0.25
        assert record["attrs"]["key"] == "k2"

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        trace.configure(tmp_path)
        with span("unit.survivor"):
            pass
        (file,) = tmp_path.glob("spans-*.jsonl")
        with open(file, "a") as handle:
            handle.write('{"kind": "span", "name": "torn')  # no newline
        records = read_spans(tmp_path)
        assert [r["name"] for r in records] == ["unit.survivor"]

    def test_read_spans_on_a_missing_directory_is_empty(self, tmp_path):
        assert read_spans(tmp_path / "never-created") == []

    def test_records_sort_by_start_time_across_files(self, tmp_path):
        trace.configure(tmp_path)
        emit_span("unit.late", duration=0.0, start=2000.0)
        emit_span("unit.early", duration=0.0, start=1000.0)
        names = [r["name"] for r in read_spans(tmp_path)]
        assert names == ["unit.early", "unit.late"]

    def test_unwritable_directory_drops_spans_instead_of_raising(
        self, tmp_path
    ):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        trace.configure(blocked / "sub")
        with span("unit.dropped"):
            pass  # must not raise


GRID_DOCUMENT = {
    "name": "traced-grid",
    "engine": "batch",
    "runs": 40,
    "seed": 11,
    "params": PARAMS,
    "sweep": {"params.mu": [0.1, 0.3], "adversary": ["strong", "passive"]},
}


class CoordinatorThread:
    """Drives one coordinator on a daemon thread: a failed assertion
    must not leave it serving and the test process unable to exit."""

    def __init__(self, specs, **kwargs):
        self.coordinator = SweepCoordinator(specs, port=0, **kwargs)
        self.summary = None

        def run() -> None:
            self.summary = self.coordinator.run()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert self.coordinator.ready.wait(timeout=10)
        self.port = self.coordinator.port

    def stop(self, timeout: float = 60.0):
        self.coordinator.request_stop()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "coordinator did not finish"
        return self.summary


class TestFaultInjectedTimeline:
    def test_submit_to_timeline_with_a_torn_result(
        self, tmp_path, capsys, monkeypatch
    ):
        """The acceptance run: submit -> 2 workers -> torn RESULT ->
        reconnect -> complete timeline under the submit-minted trace."""
        telemetry = tmp_path / "telemetry"
        trace.configure(telemetry)
        cache = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"

        # The first RESULT frame is torn mid-send: the coordinator sees
        # EOF mid-frame, requeues the claim as connection-lost, and the
        # worker reconnects to re-earn the point.
        faults.install(
            FaultPlan(
                [
                    FaultRule(
                        site="protocol.send",
                        action="torn",
                        match="result",
                        count=1,
                    )
                ]
            )
        )

        with ResultsService(cache, ledger_path=ledger).start() as service:
            status, _, body = service.respond_post(
                "/submit",
                json.dumps(GRID_DOCUMENT).encode(),
                "application/json",
            )
            assert status == 202
            submitted = json.loads(body)
        sweep = submitted["sweep"]
        minted = submitted["trace"]
        assert len(minted) == 32

        monkeypatch.setattr(
            "repro.distributed.coordinator.WATCH_POLL_INTERVAL", 0.05
        )
        driver = CoordinatorThread(
            [], cache_dir=cache, ledger_path=ledger, watch=True
        )
        workers = [
            threading.Thread(
                target=lambda i=i: asyncio.run(
                    worker_loop(
                        "127.0.0.1",
                        driver.port,
                        worker_id=f"w{i}",
                        reconnect_timeout=5.0,
                    )
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in workers:
            thread.start()
        try:
            deadline = time.monotonic() + 60
            while True:
                state = replay_ledger(ledger)
                if len(state.done) == 4:
                    break
                assert time.monotonic() < deadline, dict(
                    done=len(state.done), failed=len(state.failed)
                )
                time.sleep(0.05)
        finally:
            driver.stop()
            for thread in workers:
                thread.join(timeout=30)
                assert not thread.is_alive(), "worker did not exit"

        # Every terminal record carries the submit-minted trace id.
        state = replay_ledger(ledger)
        keys = set(state.sweeps[sweep])
        assert {state.traces[key] for key in keys} == {minted}
        done_records = [
            record
            for record in iter_ledger_records(ledger)
            if record.get("event") == EVENT_DONE
        ]
        assert len(done_records) == 4
        assert {record["trace"] for record in done_records} == {minted}
        # The torn frame produced exactly one attributed requeue.
        assert sum(state.requeues.values()) == 1

        # The worker-side spans joined the same trace.
        executes = [
            record
            for record in read_spans(telemetry)
            if record["name"] == "worker.execute"
        ]
        assert len(executes) >= 4
        assert {record["trace"] for record in executes} == {minted}

        # Timeline reconstruction: complete, per point, retry included.
        assert resolve_sweep(state, sweep[:12]) == sweep
        timeline = build_timeline(sweep[:12], ledger, telemetry)
        assert timeline["sweep"] == sweep
        assert len(timeline["points"]) == 4
        retried = 0
        for point in timeline["points"]:
            assert point["status"] == "done"
            assert point["trace"] == minted
            assert point["queue_wait"] is not None
            assert point["execute"] is not None and point["execute"] > 0
            assert point["total"] is not None
            assert point["worker"] in ("w0", "w1")
            for retry in point["retries"]:
                assert retry["reason"] == "connection-lost"
                assert retry["worker"] in ("w0", "w1")
                retried += 1
        assert retried == 1
        text = render_timeline(timeline)
        assert "4/4 done, 1 requeues" in text

        # And the CLI joins the same evidence.
        from repro.cli import main

        code = main(
            [
                "trace",
                sweep[:12],
                "--ledger",
                str(ledger),
                "--telemetry",
                str(telemetry),
                "--slow",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"sweep {sweep[:16]}" in out
        assert "connection-lost" in out
        assert "showing 2 slowest" in out

    def test_unknown_and_ambiguous_sweeps_are_key_errors(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        with ResultsService(
            tmp_path / "cache", ledger_path=ledger
        ).start() as service:
            service.respond_post(
                "/submit",
                json.dumps(GRID_DOCUMENT).encode(),
                "application/json",
            )
        state = replay_ledger(ledger)
        with pytest.raises(KeyError, match="unknown sweep"):
            resolve_sweep(state, "f" * 64)
        with pytest.raises(KeyError, match="unknown sweep"):
            build_timeline("f" * 64, ledger)

    def test_timeline_without_telemetry_degrades_to_ledger_columns(
        self, tmp_path
    ):
        """Spans off: durations from the spans are None, ledger-derived
        columns (status, retries, queue wait) survive."""
        ledger = tmp_path / "ledger.jsonl"
        with ResultsService(
            tmp_path / "cache", ledger_path=ledger
        ).start() as service:
            _, _, body = service.respond_post(
                "/submit",
                json.dumps(GRID_DOCUMENT).encode(),
                "application/json",
            )
        sweep = json.loads(body)["sweep"]
        timeline = build_timeline(sweep, ledger, telemetry_dir=None)
        assert len(timeline["points"]) == 4
        for point in timeline["points"]:
            assert point["status"] == "pending"
            assert point["publish"] is None
        # Rendering a pending sweep must not crash on the None columns.
        assert "0/4 done" in render_timeline(timeline)
