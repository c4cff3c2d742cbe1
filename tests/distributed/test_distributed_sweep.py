"""End-to-end tests of the coordinator/worker fabric.

The contract under test, in the paper-evaluation setting that motivates
it (an 18-point adversary x parameter grid):

* a 2-worker distributed sweep produces a result set *identical* to
  the serial :class:`~repro.scenario.runner.SweepRunner` -- same
  content-addressed file names, same bytes;
* killing a worker mid-point requeues its claim (no point is lost, no
  point is double-counted);
* killing the coordinator and resuming from its ledger re-runs only
  the unfinished points;
* a point that raises is terminal (reported, never requeued).
"""

import asyncio
import threading
import time

import pytest

from repro.core.parameters import ModelParameters
from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.protocol import read_frame, write_frame
from repro.distributed.worker import worker_loop
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import ScenarioSpec, SweepSpec

#: Small state space keeps per-point row assembly cheap.
PARAMS = ModelParameters(core_size=5, spare_max=5, k=1, mu=0.2, d=0.9)


def grid_18() -> list[ScenarioSpec]:
    """The acceptance grid: 3 mu x 3 d x 2 adversaries = 18 points."""
    base = ScenarioSpec(
        name="dist-grid", params=PARAMS, engine="batch", runs=60, seed=19
    )
    return SweepSpec(
        base=base,
        axes=(
            ("params.mu", (0.1, 0.2, 0.3)),
            ("params.d", (0.5, 0.7, 0.9)),
            ("adversary", ("strong", "passive")),
        ),
    ).expand()


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

    def join(self, timeout: float = 60.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "coordinator did not finish"
        return self.summary

    def stop(self, timeout: float = 60.0):
        self.coordinator.request_stop()
        return self.join(timeout)


def run_workers(port: int, count: int, **kwargs) -> list[dict]:
    """Run ``count`` workers to completion on background threads."""
    stats: list[dict] = []
    lock = threading.Lock()

    def drive(index: int) -> None:
        outcome = asyncio.run(
            worker_loop(
                "127.0.0.1", port, worker_id=f"w{index}", **kwargs
            )
        )
        with lock:
            stats.append(outcome)

    threads = [
        threading.Thread(target=drive, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker did not finish"
    return stats


class TestTwoWorkerEquivalence:
    def test_distributed_18_point_sweep_equals_serial(self, tmp_path):
        specs = grid_18()
        serial_dir = tmp_path / "serial"
        SweepRunner(cache_dir=serial_dir).sweep(specs)

        dist_dir = tmp_path / "dist"
        driver = CoordinatorThread(
            specs,
            cache_dir=dist_dir,
            ledger_path=tmp_path / "ledger.jsonl",
        )
        stats = run_workers(driver.port, 2)
        summary = driver.join()

        assert summary["done"] == summary["total"] == 18
        assert summary["computed"] == 18 and not summary["failed"]
        # Both workers actually participated.
        executed = {s["worker"]: s["executed"] for s in stats}
        assert set(executed) == {"w0", "w1"}
        assert all(count > 0 for count in executed.values())
        assert sum(executed.values()) == 18
        # Identical result sets: same content-addressed files, same
        # bytes (results are pure functions of the spec, wherever
        # they execute).
        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        dist_files = sorted(p.name for p in dist_dir.glob("*.json"))
        assert serial_files == dist_files
        assert len(serial_files) == 18
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                dist_dir / name
            ).read_bytes()

    def test_duplicate_grid_points_are_queued_once(self, tmp_path):
        """A sweep axis listing the same value twice must not assign
        the point to two workers (or corrupt the completion count)."""
        specs = grid_18()[:3]
        duplicated = [*specs, *specs]  # every point appears twice
        driver = CoordinatorThread(
            duplicated,
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
        )
        run_workers(driver.port, 2)
        summary = driver.join()
        assert summary["total"] == 3
        assert summary["done"] == 3
        assert summary["computed"] == 3  # each unique point ran once
        assert summary["pending"] == 0

    def test_prewarmed_cache_is_not_recomputed(self, tmp_path):
        specs = grid_18()
        cache = tmp_path / "cache"
        SweepRunner(cache_dir=cache).sweep(specs[:7])
        driver = CoordinatorThread(
            specs, cache_dir=cache, ledger_path=tmp_path / "ledger.jsonl"
        )
        run_workers(driver.port, 2)
        summary = driver.join()
        assert summary["from_cache"] == 7
        assert summary["computed"] == 11
        assert summary["done"] == 18


class TestOrderlyDrain:
    def test_drained_sweep_ends_workers_without_a_reconnect(self, tmp_path):
        """A drained sweep ends its workers with SHUTDOWN, not EOF (which
        means a crash): each worker returns at once instead of sitting
        out a 30 s reconnect window -- the idle one (told to WAIT while
        the only point ran) included."""
        running = CoordinatorThread(
            grid_18()[:1], cache_dir=tmp_path / "cache", await_workers=2
        )
        returned: dict[str, tuple[dict, float]] = {}

        def drive(name: str) -> None:
            stats = asyncio.run(
                worker_loop(
                    "127.0.0.1",
                    running.port,
                    worker_id=name,
                    reconnect_timeout=30.0,
                )
            )
            returned[name] = (stats, time.monotonic())

        threads = [
            threading.Thread(target=drive, args=(name,), daemon=True)
            for name in ("w0", "w1")
        ]
        for thread in threads:
            thread.start()
        summary = running.join()
        drained = time.monotonic()
        for thread in threads:
            thread.join(timeout=max(drained + 1.0 - time.monotonic(), 0.0))
        assert summary["done"] == 1
        assert sorted(returned) == ["w0", "w1"], "a worker outlived the drain"
        for stats, when in returned.values():
            assert when - drained < 1.0
            assert stats["reconnects"] == 0
        assert sum(stats["executed"] for stats, _ in returned.values()) == 1

    def test_stop_after_the_run_ended_is_a_no_op(self, tmp_path):
        """A stop that arrives once ``run()`` has returned and closed
        its event loop (a supervisor's stop racing a coordinator that
        just finished) changes nothing and raises nothing."""
        coordinator = SweepCoordinator([], cache_dir=tmp_path / "cache")
        summary = coordinator.run()
        coordinator.request_stop()
        assert summary["total"] == summary["done"] == 0


class TestWorkerCrash:
    def test_killed_worker_claim_is_requeued(self, tmp_path):
        """Claim a point, drop the connection mid-execution, and check
        a healthy worker still completes the whole grid."""
        specs = grid_18()[:6]
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
        )

        async def claim_then_die() -> str:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(
                writer, {"type": "hello", "worker": "doomed"}
            )
            await write_frame(writer, {"type": "claim"})
            message = await read_frame(reader)
            assert message["type"] == "assign"
            # Die mid-point: close without sending a result.
            writer.close()
            await writer.wait_closed()
            return message["key"]

        doomed_key = asyncio.run(claim_then_die())
        stats = run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 6
        assert summary["computed"] == 6  # the doomed point re-ran
        assert stats[0]["executed"] == 6
        assert "doomed" not in summary["workers"]
        assert (tmp_path / "cache" / f"{doomed_key}.json").exists()


class TestCoordinatorResume:
    def test_resume_runs_only_unfinished_points(self, tmp_path):
        specs = grid_18()
        cache = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"

        first = CoordinatorThread(specs, cache_dir=cache, ledger_path=ledger)
        partial = run_workers(first.port, 1, max_points=5)
        assert partial[0]["executed"] == 5
        summary = first.stop()  # "crash": pending points stay ledgered
        assert summary["done"] == 5 and summary["pending"] == 13

        second = CoordinatorThread(specs, cache_dir=cache, ledger_path=ledger)
        run_workers(second.port, 2)
        summary = second.join()
        assert summary["resumed_from_ledger"] == 5
        assert summary["computed"] == 13  # only the unfinished points
        assert summary["done"] == 18 and summary["pending"] == 0
        assert len(list(cache.glob("*.json"))) == 18

    def test_resume_treats_ledgered_failures_as_terminal(self, tmp_path):
        """A resumed coordinator must not re-queue a deterministic
        failure (or hang on it when no workers attach)."""
        good = grid_18()[:2]
        bad = ScenarioSpec(
            name="bad",
            params=PARAMS,
            engine="analytic",
            adversary="passive",
            seed=3,
        )
        specs = [*good, bad]
        cache = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"
        first = CoordinatorThread(specs, cache_dir=cache, ledger_path=ledger)
        run_workers(first.port, 1)
        summary = first.join()
        assert list(summary["failed"]) == [bad.key()]
        # Resume with no workers: completes immediately, failure intact.
        resumed = SweepCoordinator(
            specs, cache_dir=cache, ledger_path=ledger
        )
        summary = resumed.run()
        assert summary["done"] == 2 and summary["pending"] == 0
        assert list(summary["failed"]) == [bad.key()]
        assert summary["computed"] == 0

    def test_resume_with_nothing_pending_finishes_without_workers(
        self, tmp_path
    ):
        specs = grid_18()[:4]
        cache = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"
        first = CoordinatorThread(specs, cache_dir=cache, ledger_path=ledger)
        run_workers(first.port, 2)
        first.join()
        # No workers at all: the resumed coordinator must complete on
        # ledger replay alone.
        resumed = SweepCoordinator(
            specs, cache_dir=cache, ledger_path=ledger
        )
        summary = resumed.run()
        assert summary["done"] == 4
        assert summary["computed"] == 0
        assert summary["resumed_from_ledger"] == 4


class TestFailures:
    def test_failing_point_is_terminal_and_reported(self, tmp_path):
        good = grid_18()[:2]
        # The analytic engine embeds the strong adversary; a passive
        # spec is a deterministic SpecError on every worker.
        bad = ScenarioSpec(
            name="bad",
            params=PARAMS,
            engine="analytic",
            adversary="passive",
            seed=3,
        )
        specs = [*good, bad]
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
        )
        stats = run_workers(driver.port, 2)
        summary = driver.join()
        assert summary["done"] == 2
        assert list(summary["failed"]) == [bad.key()]
        assert "SpecError" in summary["failed"][bad.key()]
        assert sum(s["failed"] for s in stats) == 1
        # The failure is in the durable ledger too.
        from repro.distributed.ledger import replay_ledger

        state = replay_ledger(tmp_path / "ledger.jsonl")
        assert bad.key() in state.failed


class TestProtocolHygiene:
    def test_result_with_mismatched_key_is_rejected(self, tmp_path):
        specs = grid_18()[:2]
        driver = CoordinatorThread(
            specs, cache_dir=tmp_path / "cache"
        )

        async def lie_about_key() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "hello", "worker": "liar"})
            await write_frame(writer, {"type": "claim"})
            assignment = await read_frame(reader)
            forged = dict(assignment["spec"])
            await write_frame(
                writer,
                {
                    "type": "result",
                    "key": assignment["key"],
                    "result": {
                        "key": "0" * 64,  # wrong content address
                        "name": forged.get("name", "?"),
                        "engine": "batch",
                        "metrics": {},
                        "series": None,
                        "meta": {},
                    },
                },
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(lie_about_key())
        assert reply["type"] == "error"
        assert "does not match" in reply["error"]
        # The point went back to the queue and real workers finish it.
        run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 2
        assert "liar" not in summary["workers"]

    def test_unstorable_result_payload_is_requeued_not_orphaned(
        self, tmp_path
    ):
        """A result whose payload cannot rebuild a ScenarioResult must
        put the point back in the queue (not strand it in no queue at
        all, which would hang the sweep forever)."""
        specs = grid_18()[:2]
        driver = CoordinatorThread(
            specs, cache_dir=tmp_path / "cache"
        )

        async def send_garbage_payload() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "hello", "worker": "mangler"})
            await write_frame(writer, {"type": "claim"})
            assignment = await read_frame(reader)
            await write_frame(
                writer,
                {
                    "type": "result",
                    "key": assignment["key"],
                    # Correct content address, un-rebuildable payload.
                    "result": {"key": assignment["key"], "bogus": True},
                },
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(send_garbage_payload())
        assert reply["type"] == "error"
        assert "requeued" in reply["error"]
        run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 2 and summary["pending"] == 0
        assert "mangler" not in summary["workers"]

    def test_unknown_message_type_gets_error_frame(self, tmp_path):
        driver = CoordinatorThread(
            grid_18()[:1], cache_dir=tmp_path / "cache"
        )

        async def probe() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "frobnicate"})
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(probe())
        assert reply["type"] == "error"
        run_workers(driver.port, 1)
        assert driver.join()["done"] == 1

    def test_oversized_result_is_a_terminal_failure_not_a_livelock(
        self, tmp_path, monkeypatch
    ):
        """A result too large to frame must be reported as failed --
        not crash the worker and requeue/recompute forever."""
        from repro.distributed import protocol

        # Assign/claim/failed frames stay well under 8 KiB; a dense
        # competing-batch series (3 arrays x 2000 records) does not.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 8192)
        big = ScenarioSpec(
            name="dense-series",
            params=PARAMS,
            engine="competing-batch",
            n=50,
            events=2000,
            record_every=1,
            seed=5,
        )
        specs = [*grid_18()[:2], big]
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
        )
        stats = run_workers(driver.port, 1)
        summary = driver.join()
        assert stats[0]["executed"] == 2
        assert stats[0]["failed"] == 1  # reported, not crashed
        assert summary["done"] == 2 and summary["pending"] == 0
        assert list(summary["failed"]) == [big.key()]
        assert "not sendable" in summary["failed"][big.key()]

    def test_cached_result_outranks_a_ledgered_failure_on_resume(
        self, tmp_path
    ):
        """If a point failed once but a valid result later landed in
        the store (serial run, other coordinator), resume must trust
        the content-addressed result, not the stale failure."""
        from repro.distributed.ledger import SweepLedger

        specs = grid_18()[:2]
        cache = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"
        with SweepLedger(ledger) as log:
            log.record_scheduled(specs)
            log.record_failed(specs[0].key(), "w0", "transient OOM")
        SweepRunner(cache_dir=cache).sweep(specs)  # both now computed
        resumed = SweepCoordinator(
            specs, cache_dir=cache, ledger_path=ledger
        )
        summary = resumed.run()
        assert summary["done"] == 2
        assert summary["failed"] == {}
        assert summary["from_cache"] == 2

    def test_publish_failure_retries_then_goes_terminal(self, tmp_path):
        """A coordinator that cannot store a result requeues the point
        (keeping the worker alive -- retryable error frame, never a
        crash) until the retry cap, then fails it terminally instead
        of livelocking the fleet on recompute/republish cycles."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        specs = grid_18()[:1]
        driver = CoordinatorThread(specs, cache_dir=blocked / "cache")
        stats = run_workers(driver.port, 1)
        summary = driver.join()  # completes on its own: terminal failure
        # Nothing was durably stored, so nothing counts as executed,
        # and the worker reported no spec failure of its own.
        assert stats[0]["executed"] == 0
        assert stats[0]["failed"] == 0
        assert summary["done"] == 0 and summary["pending"] == 0
        [(key, error)] = summary["failed"].items()
        assert key == specs[0].key()
        assert "not storable" in error

    def test_mid_point_heartbeats_do_not_disturb_the_sweep(self, tmp_path):
        """Workers heartbeating aggressively (every 10 ms, so several
        frames land mid-execution) still complete a correct sweep."""
        specs = grid_18()[:4]
        driver = CoordinatorThread(
            specs, cache_dir=tmp_path / "cache"
        )
        stats = run_workers(driver.port, 2, heartbeat_every=0.01)
        summary = driver.join()
        assert summary["done"] == 4
        assert sum(s["executed"] for s in stats) == 4

    @pytest.mark.parametrize("interval", [0, -1.0])
    def test_a_heartbeat_interval_that_is_not_positive_is_refused(
        self, interval
    ):
        """Every point runs off the event loop and heartbeats, so there
        is no interval that turns heartbeats off; the worker refuses
        one before it connects."""
        with pytest.raises(ValueError, match="heartbeat_every"):
            asyncio.run(
                worker_loop(
                    "127.0.0.1",
                    1,
                    connect_timeout=0.2,
                    heartbeat_every=interval,
                )
            )

    def test_wire_spec_preserves_content_address(self):
        for spec in grid_18():
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec
            assert rebuilt.key() == spec.key()


class TestWorkerSideStore:
    """RESULT-REF: the worker publishes, the coordinator validates."""

    def test_ref_results_are_byte_identical_to_result_frames(
        self, tmp_path
    ):
        specs = grid_18()[:6]
        serial_dir = tmp_path / "serial"
        SweepRunner(cache_dir=serial_dir).sweep(specs)
        dist_dir = tmp_path / "dist"
        driver = CoordinatorThread(
            specs,
            cache_dir=dist_dir,
            ledger_path=tmp_path / "ledger.jsonl",
        )
        # Workers share the coordinator's store: every result goes
        # worker-side publish + slim RESULT-REF, no payload frames.
        stats = run_workers(driver.port, 2, store_dir=dist_dir)
        summary = driver.join()
        assert summary["done"] == 6 and not summary["failed"]
        assert sum(s["executed"] for s in stats) == 6
        assert sum(s["published"] for s in stats) == 6
        for spec in specs:
            name = f"{spec.key()}.json"
            assert (serial_dir / name).read_bytes() == (
                dist_dir / name
            ).read_bytes()
        # "done" was ledgered only after validation.
        from repro.distributed.ledger import replay_ledger

        state = replay_ledger(tmp_path / "ledger.jsonl")
        assert state.done == {spec.key() for spec in specs}

    def test_ref_to_a_store_the_coordinator_cannot_see_goes_terminal(
        self, tmp_path
    ):
        """A worker publishing into the wrong directory fails address
        validation every time; the retry cap turns that into a
        terminal failure instead of a recompute livelock."""
        specs = grid_18()[:1]
        driver = CoordinatorThread(specs, cache_dir=tmp_path / "coord")
        stats = run_workers(
            driver.port, 1, store_dir=tmp_path / "elsewhere"
        )
        summary = driver.join()
        assert summary["done"] == 0 and summary["pending"] == 0
        [(key, error)] = summary["failed"].items()
        assert key == specs[0].key()
        assert "not storable" in error
        # The worker itself never failed a spec -- and nothing it
        # "published" was acked as stored.
        assert stats[0]["failed"] == 0
        assert stats[0]["published"] == 0

    def test_forged_ref_is_requeued_and_recovered(self, tmp_path):
        """A REF claiming a publish that never happened must not mark
        the point done -- it requeues and a real worker finishes it."""
        specs = grid_18()[:2]
        driver = CoordinatorThread(specs, cache_dir=tmp_path / "cache")

        async def forge_ref() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "hello", "worker": "forger"})
            await write_frame(writer, {"type": "claim"})
            assignment = await read_frame(reader)
            await write_frame(
                writer,
                {"type": "result-ref", "key": assignment["key"]},
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(forge_ref())
        assert reply["type"] == "error"
        assert reply.get("retryable") is True
        run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 2 and not summary["failed"]
        assert "forger" not in summary["workers"]

    def test_ref_for_unknown_key_is_an_error_frame(self, tmp_path):
        driver = CoordinatorThread(
            grid_18()[:1], cache_dir=tmp_path / "cache"
        )

        async def probe() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(
                writer, {"type": "result-ref", "key": "f" * 64}
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(probe())
        assert reply["type"] == "error"
        assert "unknown key" in reply["error"]
        run_workers(driver.port, 1)
        assert driver.join()["done"] == 1


class TestSubmittedSweeps:
    """The ledger as the fabric's inbox: /submit-style scheduling."""

    def submit_via_ledger(self, ledger_path, specs) -> str:
        """What POST /submit appends: scheduled records + the sweep."""
        from repro.distributed.ledger import SweepLedger
        from repro.distributed.service import sweep_id

        keys = [spec.key() for spec in specs]
        with SweepLedger(ledger_path) as ledger:
            ledger.record_scheduled(specs)
            ledger.record_submitted(sweep_id(keys), keys, name="submitted")
        return sweep_id(keys)

    def test_coordinator_adopts_ledger_scheduled_points(self, tmp_path):
        """A coordinator given *no* specs of its own executes a sweep
        that exists only as ledger records -- the resume-mid-submitted-
        sweep guarantee."""
        specs = grid_18()[:5]
        ledger = tmp_path / "ledger.jsonl"
        self.submit_via_ledger(ledger, specs)
        driver = CoordinatorThread(
            [], cache_dir=tmp_path / "cache", ledger_path=ledger
        )
        run_workers(driver.port, 2)
        summary = driver.join()
        assert summary["total"] == 5
        assert summary["done"] == 5 and summary["computed"] == 5
        assert len(list((tmp_path / "cache").glob("*.json"))) == 5

    def test_misaddressed_scheduled_spec_is_failed_once(self, tmp_path):
        """A scheduled spec that rebuilds under another content address
        than its ledger key (version skew) is ledgered failed, never
        adopted -- once, however often a watch coordinator reconciles."""
        from repro.distributed.ledger import SweepLedger, iter_ledger_records

        ledger_path = tmp_path / "ledger.jsonl"
        with SweepLedger(ledger_path) as ledger:
            ledger._append(
                {
                    "event": "scheduled",
                    "key": "f" * 64,
                    "spec": grid_18()[0].to_dict(),
                }
            )
        coordinator = SweepCoordinator(
            [],
            cache_dir=tmp_path / "cache",
            ledger_path=ledger_path,
            watch=True,
        )
        coordinator._ledger = SweepLedger(ledger_path)
        try:
            coordinator._build_queue()
            for _ in range(3):
                coordinator._ingest_ledger_tail()
        finally:
            coordinator._ledger.close()
        failed = [
            record
            for record in iter_ledger_records(ledger_path)
            if record["event"] == "failed"
        ]
        assert len(failed) == 1
        assert "rebuilds as" in failed[0]["error"]
        assert not coordinator._pending

    def test_killed_coordinator_resumes_a_submitted_sweep(self, tmp_path):
        specs = grid_18()[:6]
        ledger = tmp_path / "ledger.jsonl"
        cache = tmp_path / "cache"
        self.submit_via_ledger(ledger, specs)
        first = CoordinatorThread([], cache_dir=cache, ledger_path=ledger)
        partial = run_workers(first.port, 1, max_points=2)
        assert partial[0]["executed"] == 2
        summary = first.stop()  # "crash" mid-submitted-sweep
        assert summary["done"] == 2 and summary["pending"] == 4
        second = CoordinatorThread([], cache_dir=cache, ledger_path=ledger)
        run_workers(second.port, 2)
        summary = second.join()
        assert summary["done"] == 6 and summary["pending"] == 0
        assert summary["resumed_from_ledger"] == 2
        assert summary["computed"] == 4  # only the unfinished points

    def test_watch_coordinator_executes_a_live_submission(
        self, tmp_path, monkeypatch
    ):
        """Submit through a real ResultsService while the coordinator
        is already running in watch mode: the ledger tail picks the
        points up, workers execute them, pagination serves them --
        byte-identical to a serial run of the same document."""
        import json as jsonlib
        import urllib.request

        from repro.distributed.service import ResultsService
        from repro.scenario.spec import load_scenario_document

        document = {
            "name": "live-submit",
            "engine": "batch",
            "runs": 50,
            "seed": 23,
            "params": {
                "core_size": 5,
                "spare_max": 5,
                "k": 1,
                "mu": 0.2,
                "d": 0.9,
            },
            "sweep": {
                "params.mu": [0.1, 0.3],
                "adversary": ["strong", "passive"],
            },
        }
        specs = load_scenario_document(document).expand()
        serial_dir = tmp_path / "serial"
        SweepRunner(cache_dir=serial_dir).sweep(specs)

        ledger = tmp_path / "ledger.jsonl"
        cache = tmp_path / "cache"
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
                        "127.0.0.1", driver.port, worker_id=f"w{i}"
                    )
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in workers:
            thread.start()
        try:
            with ResultsService(cache, ledger_path=ledger).start() as http:
                base = f"http://127.0.0.1:{http.port}"
                request = urllib.request.Request(
                    base + "/submit",
                    data=jsonlib.dumps(document).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=10) as reply:
                    submitted = jsonlib.loads(reply.read())
                assert reply.status == 202
                assert submitted["points"] == 4
                deadline = time.monotonic() + 60
                while True:
                    with urllib.request.urlopen(
                        base + submitted["progress"], timeout=10
                    ) as reply:
                        progress = jsonlib.loads(reply.read())
                    if progress["complete"]:
                        break
                    assert time.monotonic() < deadline, progress
                    time.sleep(0.05)
                assert progress["done"] == 4 and progress["failed"] == 0
                with urllib.request.urlopen(
                    base + "/results?offset=0&limit=2", timeout=10
                ) as reply:
                    page = jsonlib.loads(reply.read())
                assert page["total"] == 4 and page["count"] == 2
        finally:
            summary = driver.stop()
            for thread in workers:
                thread.join(timeout=30)
                assert not thread.is_alive(), "worker did not exit"
        assert summary["done"] == 4 and summary["watch"] is True
        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        dist_files = sorted(p.name for p in cache.glob("*.json"))
        assert serial_files == dist_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                cache / name
            ).read_bytes()

    def test_watch_coordinator_idles_instead_of_shutting_down(
        self, tmp_path
    ):
        """With nothing pending, watch mode answers WAIT (stay around
        for the next submission), not SHUTDOWN."""
        driver = CoordinatorThread(
            [],
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
            watch=True,
        )

        async def claim_once() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "hello", "worker": "idle"})
            await write_frame(writer, {"type": "claim"})
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        assert asyncio.run(claim_once())["type"] == "wait"
        summary = driver.stop()
        assert summary["watch"] is True and summary["total"] == 0


class TestCancellation:
    """A cancel mid-sweep revokes leases and outlives in-flight work."""

    def test_cancel_releases_leases_and_ignores_late_results(
        self, tmp_path, monkeypatch
    ):
        """While a point is leased, a ``cancelled`` record lands in the
        ledger: the coordinator releases the lease immediately (no
        point stays "leased" after a cancel) and the worker's late
        RESULT frame is acked ``stored=False`` -- dropped, not an
        error, not a requeue."""
        from repro.distributed.ledger import SweepLedger, replay_ledger
        from repro.distributed.service import sweep_id

        specs = grid_18()[:4]
        keys = [spec.key() for spec in specs]
        sweep = sweep_id(keys)
        ledger = tmp_path / "ledger.jsonl"
        with SweepLedger(ledger) as handle:
            handle.record_scheduled(specs)
            handle.record_submitted(sweep, keys, name="doomed")
        monkeypatch.setattr(
            "repro.distributed.coordinator.WATCH_POLL_INTERVAL", 0.05
        )
        driver = CoordinatorThread(
            [], cache_dir=tmp_path / "cache", ledger_path=ledger, watch=True
        )

        async def hold_a_lease_through_a_cancel() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(
                writer, {"type": "hello", "worker": "holdout"}
            )
            await write_frame(writer, {"type": "claim"})
            assignment = await read_frame(reader)
            assert assignment["type"] == "assign"
            # The cancel arrives while the point is leased out.
            with SweepLedger(ledger) as handle:
                handle.record_cancelled(sweep)
            deadline = time.monotonic() + 10
            while not driver.coordinator._cancelled:
                assert time.monotonic() < deadline, "cancel never applied"
                await asyncio.sleep(0.02)
            # The "computation" finishes anyway; payload content is
            # irrelevant -- a revoked key is dropped before validation.
            await write_frame(
                writer,
                {
                    "type": "result",
                    "key": assignment["key"],
                    "result": {"key": assignment["key"]},
                },
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(hold_a_lease_through_a_cancel())
        assert reply == {
            "type": "ack",
            "key": reply["key"],
            "stored": False,
        }
        # No leased points survive the cancel.
        assert driver.coordinator._claims == {}
        summary = driver.stop()
        assert summary["cancelled"] == 4
        assert summary["done"] == 0 and summary["pending"] == 0
        assert list((tmp_path / "cache").glob("*.json")) == []
        # Replay agrees: nothing pending, nothing published.
        state = replay_ledger(ledger)
        assert state.pending == set()
        assert sweep in state.cancelled
