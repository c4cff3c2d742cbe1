"""Lease-timeout tests: hung-but-connected workers lose their claims.

Connection-drop requeue (PR 4) covers killed workers; leases cover the
nastier failure where the worker process wedges but its TCP connection
stays open.  The contract:

* an assignment that goes silent past ``lease_timeout`` is requeued
  (ledgered as ``requeued``) and re-executed **exactly once** by
  another worker;
* HEARTBEAT frames refresh the lease, so a slow worker that is still
  provably computing is never preempted -- and when the heartbeats
  *stop* (the wedge), expiry resumes from the last refresh;
* terminality survives the ghost: its late FAILED report is ignored
  (it is no longer the assignee), while a late byte-identical RESULT
  is still accepted idempotently.
"""

import asyncio
import threading
import time

from repro.core.parameters import ModelParameters
from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.protocol import read_frame, write_frame
from repro.distributed.worker import worker_loop
from repro.scenario.spec import ScenarioSpec, SweepSpec

PARAMS = ModelParameters(core_size=5, spare_max=5, k=1, mu=0.2, d=0.9)


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


def run_workers(port: int, count: int, **kwargs) -> list[dict]:
    """Run ``count`` workers to completion on background threads."""
    stats: list[dict] = []
    lock = threading.Lock()

    def drive(index: int) -> None:
        outcome = asyncio.run(
            worker_loop("127.0.0.1", port, worker_id=f"w{index}", **kwargs)
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

#: Short lease so expiry happens in test time; the sweeper polls at a
#: quarter period, so expiry is noticed within ~0.5 s worst case.
LEASE = 0.4


def small_grid(count: int) -> list[ScenarioSpec]:
    base = ScenarioSpec(
        name="lease-grid", params=PARAMS, engine="batch", runs=50, seed=31
    )
    return SweepSpec(
        base=base, axes=(("seed", tuple(range(31, 31 + count))),)
    ).expand()


class Ghost:
    """A raw client that claims one point and then wedges.

    ``heartbeat_for`` seconds of heartbeats first (a healthy phase the
    lease must survive), then silence with the connection held open --
    the hung-but-connected shape no connection-drop logic can see.
    """

    def __init__(
        self,
        port: int,
        heartbeat_for: float = 0.0,
        hold: float = 8.0,
        worker: str = "ghost",
    ):
        self.port = port
        self.worker = worker
        self.heartbeat_for = heartbeat_for
        self.hold = hold
        self.key: str | None = None
        self.claimed = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        asyncio.run(self._loop())

    async def _loop(self) -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        try:
            await write_frame(
                writer, {"type": "hello", "worker": self.worker}
            )
            await write_frame(writer, {"type": "claim"})
            message = await read_frame(reader)
            assert message["type"] == "assign"
            self.key = message["key"]
            self.claimed.set()
            deadline = time.monotonic() + self.heartbeat_for
            while time.monotonic() < deadline:
                await write_frame(writer, {"type": "heartbeat"})
                await asyncio.sleep(LEASE / 8)
            # The wedge: no more frames, connection stays open.
            await asyncio.sleep(self.hold)
        except (ConnectionError, OSError):
            pass  # sweep finished and the coordinator closed us
        finally:
            self.claimed.set()  # never leave the test waiting
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class TestLeaseExpiry:
    def test_hung_worker_loses_lease_and_point_runs_exactly_once_more(
        self, tmp_path
    ):
        specs = small_grid(3)
        ledger = tmp_path / "ledger.jsonl"
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=ledger,
            lease_timeout=LEASE,
        )
        ghost = Ghost(driver.port, heartbeat_for=0.0)
        assert ghost.claimed.wait(timeout=10) and ghost.key is not None
        stats = run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 3 and not summary["failed"]
        # The healthy worker computed every point, the requeued one
        # included -- and exactly once (no double execution).
        assert stats[0]["executed"] == 3
        assert summary["computed"] == 3
        assert summary["lease_requeued"] == 1
        assert "ghost" not in summary["workers"]
        # The expiry is in the durable audit trail, exactly once.
        requeues = [
            record
            for record in _ledger_records(ledger)
            if record.get("event") == "requeued"
        ]
        assert len(requeues) == 1
        assert requeues[0]["key"] == ghost.key
        assert requeues[0]["worker"] == "ghost"
        assert requeues[0]["reason"] == "lease-expired"

    def test_heartbeats_defer_expiry_until_they_stop(self, tmp_path):
        """While the ghost heartbeats, its lease must not expire; once
        the heartbeats stop, expiry fires from the last refresh.  A
        heartbeat refreshes only its own connection's leases: a silent
        ghost holding the other point expires meanwhile."""
        specs = small_grid(2)
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
            lease_timeout=LEASE,
        )
        # Heartbeat well past several lease periods...
        ghost = Ghost(driver.port, heartbeat_for=3 * LEASE)
        assert ghost.claimed.wait(timeout=10) and ghost.key is not None
        silent = Ghost(driver.port, worker="silent")
        assert silent.claimed.wait(timeout=10) and silent.key is not None
        # ...and confirm the point was NOT requeued during that phase,
        # while the silent ghost's point was.
        time.sleep(2 * LEASE)
        assert driver.coordinator._lease_requeued == {silent.key: 1}
        # After the heartbeats stop, the lease expires and the healthy
        # worker gets both points.
        stats = run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 2
        assert summary["lease_requeued"] == 2
        assert stats[0]["executed"] == 2

    def test_slow_but_reporting_worker_is_not_preempted(self, tmp_path):
        """A worker that heartbeats through a long compute and then
        reports keeps its lease the whole way: no requeue, its result
        is acked as stored."""
        specs = small_grid(1)
        ledger = tmp_path / "ledger.jsonl"
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=ledger,
            lease_timeout=LEASE,
        )

        async def slow_worker() -> dict:
            from repro.scenario.runner import execute_spec

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "hello", "worker": "slow"})
            await write_frame(writer, {"type": "claim"})
            assignment = await read_frame(reader)
            assert assignment["type"] == "assign"
            # "Compute" for several lease periods, heartbeating.
            deadline = time.monotonic() + 3 * LEASE
            while time.monotonic() < deadline:
                await write_frame(writer, {"type": "heartbeat"})
                await asyncio.sleep(LEASE / 8)
            result = execute_spec(
                ScenarioSpec.from_dict(assignment["spec"])
            )
            await write_frame(
                writer,
                {
                    "type": "result",
                    "key": assignment["key"],
                    "result": result.to_dict(),
                    "elapsed": 3 * LEASE,
                },
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return reply

        reply = asyncio.run(slow_worker())
        assert reply["type"] == "ack"
        assert reply.get("stored", True)
        summary = driver.join()
        assert summary["done"] == 1
        assert summary["lease_requeued"] == 0
        assert summary["workers"] == {"slow": 1}
        assert not [
            record
            for record in _ledger_records(ledger)
            if record.get("event") == "requeued"
        ]

    def test_ghost_late_failure_report_is_ignored(self, tmp_path):
        """After losing its lease, the ghost's FAILED frame must not
        mark a reassigned (and completed) point as failed."""
        specs = small_grid(1)
        driver = CoordinatorThread(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_path=tmp_path / "ledger.jsonl",
            lease_timeout=LEASE,
        )

        async def ghost_then_fail() -> None:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", driver.port
            )
            await write_frame(writer, {"type": "hello", "worker": "ghost"})
            await write_frame(writer, {"type": "claim"})
            assignment = await read_frame(reader)
            # Wedge past the lease, then send a late failure report.
            await asyncio.sleep(2.5 * LEASE)
            await write_frame(
                writer,
                {
                    "type": "failed",
                    "key": assignment["key"],
                    "error": "late ghost failure",
                },
            )
            writer.close()
            await writer.wait_closed()

        ghost = threading.Thread(
            target=lambda: asyncio.run(ghost_then_fail()), daemon=True
        )
        ghost.start()
        # Give the ghost time to claim, wedge, and lose the lease,
        # then let a healthy worker finish the point.
        time.sleep(2 * LEASE)
        stats = run_workers(driver.port, 1)
        ghost.join(timeout=30)
        summary = driver.join()
        assert summary["done"] == 1 and not summary["failed"]
        assert summary["lease_requeued"] == 1
        assert stats[0]["executed"] == 1

    def test_without_lease_timeout_silence_is_tolerated(self, tmp_path):
        """Leases off (the default): a silent-but-connected claim is
        only released when the connection drops -- the PR 4 contract,
        unchanged."""
        specs = small_grid(2)
        driver = CoordinatorThread(
            specs, cache_dir=tmp_path / "cache"
        )
        ghost = Ghost(driver.port, heartbeat_for=0.0, hold=1.5)
        assert ghost.claimed.wait(timeout=10)
        time.sleep(1.0)  # several would-be lease periods
        assert driver.coordinator._lease_requeued.total() == 0
        # Only when the ghost's connection finally drops does the
        # point requeue; the healthy worker then completes the grid.
        stats = run_workers(driver.port, 1)
        summary = driver.join()
        assert summary["done"] == 2
        assert summary["lease_requeued"] == 0
        assert stats[0]["executed"] == 2


def _ledger_records(path):
    import json

    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
