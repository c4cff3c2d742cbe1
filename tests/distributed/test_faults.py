"""Fault-injection suite: scripted failures, self-healing fabric.

Two layers:

* unit tests of :mod:`repro.distributed.faults` itself (rule matching,
  counters, seeded probability, (de)serialization, the generic
  actions) and of each wired site (dropped/torn frames, torn ledger
  appends, ``EIO`` on publish);
* the acceptance schedule: a seeded :class:`FaultPlan` that tears the
  coordinator's first ledger append, kills the coordinator (hard
  ``os._exit``, no cleanup) mid-sweep after five accepted results, and
  makes one worker drop a RESULT frame -- and a 36-point 2-worker
  sweep over a *sharded* ledger still converges byte-identical to a
  serial run with zero manual intervention beyond supervisor-style
  restarts of the dead coordinator process.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.distributed import faults
from repro.distributed.faults import FaultPlan, FaultRule
from repro.distributed.ledger import SweepLedger, replay_ledger
from repro.distributed.protocol import (
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import load_scenario_document
from repro.scenario.store import atomic_write_json


class TestFaultRule:
    def test_unknown_action_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="protocol.send", action="explode")

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule fields"):
            FaultRule.from_dict({"site": "x", "action": "drop", "when": 3})


class TestFaultPlan:
    def test_match_narrows_by_context_substring(self):
        plan = FaultPlan(
            [FaultRule(site="protocol.send", action="drop", match="result")]
        )
        assert plan.check("protocol.send", "claim") is None
        assert plan.check("protocol.send", "result") is not None

    def test_after_skips_then_count_caps(self):
        plan = FaultPlan(
            [FaultRule(site="s", action="drop", after=2, count=2)]
        )
        fires = [plan.check("s", "") is not None for _ in range(6)]
        assert fires == [False, False, True, True, False, False]

    def test_count_none_fires_forever(self):
        plan = FaultPlan([FaultRule(site="s", action="drop", count=None)])
        assert all(plan.check("s", "") is not None for _ in range(10))

    def test_probability_is_seeded_and_reproducible(self):
        def schedule(seed):
            plan = FaultPlan(
                [
                    FaultRule(
                        site="s", action="drop", probability=0.5, count=None
                    )
                ],
                seed=seed,
            )
            return [plan.check("s", "") is not None for _ in range(40)]

        first = schedule(7)
        assert schedule(7) == first  # same seed, same coin flips
        assert schedule(8) != first  # different stream
        assert any(first) and not all(first)  # an actual coin

    def test_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            [
                FaultRule(site="ledger.append", action="torn"),
                FaultRule(
                    site="coordinator.result",
                    action="exit",
                    after=5,
                    exit_code=77,
                ),
            ],
            seed=3,
            log_path=tmp_path / "fired.jsonl",
        )
        loaded = FaultPlan.from_dict(
            json.loads(plan.save(tmp_path / "plan.json").read_text())
        )
        assert [r.site for r in loaded.rules] == [
            "ledger.append",
            "coordinator.result",
        ]
        assert loaded.rules[1].exit_code == 77

    def test_fired_log_records_the_schedule(self, tmp_path):
        log = tmp_path / "fired.jsonl"
        plan = FaultPlan(
            [FaultRule(site="s", action="drop")], log_path=log
        )
        plan.check("s", "ctx")
        entry = json.loads(log.read_text())
        assert entry["site"] == "s" and entry["action"] == "drop"
        assert entry["pid"] == os.getpid()


class TestInject:
    def test_no_plan_is_a_noop(self):
        assert faults.inject("protocol.send", "result") is None

    def test_eio_raises_with_the_right_errno(self):
        faults.install(
            FaultPlan([FaultRule(site="store.publish", action="eio")])
        )
        with pytest.raises(OSError) as caught:
            faults.inject("store.publish", "x.json")
        assert caught.value.errno == 5

    def test_delay_sleeps_and_proceeds(self):
        faults.install(
            FaultPlan(
                [
                    FaultRule(
                        site="s", action="delay", delay_seconds=0.05
                    )
                ]
            )
        )
        started = time.perf_counter()
        assert faults.inject("s") is None  # proceeds normally
        assert time.perf_counter() - started >= 0.04

    def test_env_plan_loads_lazily(self, tmp_path, monkeypatch):
        path = FaultPlan(
            [FaultRule(site="s", action="drop")]
        ).save(tmp_path / "plan.json")
        monkeypatch.setenv(faults.ENV_PLAN, str(path))
        faults.clear()  # re-arm the probe under the new env
        rule = faults.inject("s")
        assert rule is not None and rule.action == "drop"

    def test_unloadable_env_plan_fails_loudly(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_PLAN, str(tmp_path / "absent.json"))
        faults.clear()
        with pytest.raises(RuntimeError, match="unloadable"):
            faults.inject("s")


class TestWiredSites:
    def test_dropped_frame_never_reaches_the_peer(self):
        """protocol.send drop: the frame vanishes, the stream stays
        usable for the next frame."""
        faults.install(
            FaultPlan(
                [
                    FaultRule(
                        site="protocol.send", action="drop", match="result"
                    )
                ]
            )
        )

        async def scenario():
            received = []
            done = asyncio.Event()

            async def handler(reader, writer):
                while True:
                    message = await read_frame(reader)
                    if message is None:
                        break
                    received.append(message)
                writer.close()
                done.set()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(writer, {"type": "hello", "worker": "w"})
            await write_frame(writer, {"type": "result", "key": "k"})
            await write_frame(writer, {"type": "claim"})
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(done.wait(), timeout=5)
            server.close()
            await server.wait_closed()
            return received

        assert asyncio.run(scenario()) == [
            {"type": "hello", "worker": "w"},
            {"type": "claim"},
        ]

    def test_torn_frame_closes_the_transport_mid_frame(self):
        """protocol.send torn: the peer sees EOF mid-frame (the
        crashed-sender artifact read_frame reports as ProtocolError)."""
        faults.install(
            FaultPlan(
                [
                    FaultRule(
                        site="protocol.send", action="torn", match="result"
                    )
                ]
            )
        )

        async def scenario():
            outcome = {}

            async def handler(reader, writer):
                try:
                    while await read_frame(reader) is not None:
                        pass
                except ProtocolError as error:
                    outcome["error"] = str(error)
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            with pytest.raises(ConnectionResetError, match="torn"):
                await write_frame(
                    writer, {"type": "result", "key": "k" * 64}
                )
            await asyncio.sleep(0.1)
            server.close()
            await server.wait_closed()
            return outcome

        assert "mid" in asyncio.run(scenario())["error"]

    def test_dropped_inbound_frame_is_skipped_not_delivered(self):
        """protocol.recv drop: the reader keeps reading and delivers
        the next frame, as if the wire ate one."""
        faults.install(
            FaultPlan(
                [
                    FaultRule(
                        site="protocol.recv", action="drop", match="result"
                    )
                ]
            )
        )

        async def scenario():
            delivered = []

            async def handler(reader, writer):
                while True:
                    message = await read_frame(reader)
                    if message is None:
                        break
                    delivered.append(message)
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            # Bypass the send site: write raw encoded frames.
            from repro.distributed.protocol import encode_frame

            writer.write(encode_frame({"type": "result", "key": "k"}))
            writer.write(encode_frame({"type": "claim"}))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.2)
            server.close()
            await server.wait_closed()
            return delivered

        assert asyncio.run(scenario()) == [{"type": "claim"}]

    def test_torn_ledger_append_is_isolated_on_replay(self, tmp_path):
        faults.install(
            FaultPlan([FaultRule(site="ledger.append", action="torn")])
        )
        specs = load_scenario_document(SELF_HEAL_DOCUMENT).expand()[:2]
        ledger = tmp_path / "ledger.jsonl"
        with SweepLedger(ledger) as handle:
            with pytest.raises(OSError, match="torn"):
                handle.record_scheduled(specs)
        data = ledger.read_bytes()
        assert data and not data.endswith(b"\n")  # the torn artifact
        state = replay_ledger(ledger)
        assert state.scheduled == {}  # fragment skipped, nothing lied
        # A fresh writer repairs the boundary; later records survive.
        faults.clear()
        with SweepLedger(ledger) as handle:
            handle.record_scheduled(specs)
        assert set(replay_ledger(ledger).scheduled) == {
            spec.key() for spec in specs
        }

    def test_eio_on_publish_leaves_no_file(self, tmp_path):
        faults.install(
            FaultPlan([FaultRule(site="store.publish", action="eio")])
        )
        target = tmp_path / "result.json"
        with pytest.raises(OSError):
            atomic_write_json(target, {"x": 1})
        assert not target.exists()
        faults.clear()
        atomic_write_json(target, {"x": 1})
        assert json.loads(target.read_text()) == {"x": 1}


# -- the acceptance schedule --------------------------------------------------

#: 6 mu x 3 d x 2 adversaries = 36 points; light per-point compute --
#: the faults in this schedule are event-triggered, not time-hunted.
SELF_HEAL_DOCUMENT = {
    "name": "self-heal-grid",
    "engine": "batch",
    "runs": 300,
    "seed": 61,
    "params": {"core_size": 5, "spare_max": 5, "k": 1, "mu": 0.2, "d": 0.9},
    "sweep": {
        "params.mu": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        "params.d": [0.5, 0.7, 0.9],
        "adversary": ["strong", "passive"],
    },
}

BUDGET_SECONDS = 240.0


def _env(extra=None) -> dict:
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(faults.ENV_PLAN, None)  # hermetic unless the test says so
    if extra:
        env.update(extra)
    return env


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _listens(port) -> bool:
    import socket

    try:
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
    except OSError:
        return False
    return True


def _spawn_coordinator(port, spec, ledger, cache, log, plan=None):
    extra = {faults.ENV_PLAN: str(plan)} if plan is not None else None
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep-coordinator",
            str(spec),
            "--port",
            str(port),
            "--ledger",
            str(ledger),
            "--cache-dir",
            str(cache),
            "--lease-timeout",
            "60",
            "--compact-threshold",
            "4096",
        ],
        env=_env(extra),
        stdout=log,
        stderr=log,
    )


def _spawn_worker(port, name, log, plan=None):
    extra = {faults.ENV_PLAN: str(plan)} if plan is not None else None
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--port",
            str(port),
            "--id",
            name,
            "--connect-timeout",
            "90",
            # Wide enough to ride a coordinator restart (~3s of boot),
            # narrow enough that a worker whose backoff misses the
            # short-lived final coordinator gives up promptly instead
            # of padding the test with a full silent retry window.
            "--reconnect-timeout",
            "20",
        ],
        env=_env(extra),
        stdout=log,
        stderr=log,
    )


class TestSelfHealingSchedule:
    def test_seeded_fault_schedule_converges_byte_identical(self, tmp_path):
        """The PR's acceptance schedule, wall to wall.

        Run 1: the coordinator's first ledger append is torn -- it
        crashes before serving a single point, leaving half a line in
        a shard.  Run 2: a fresh coordinator isolates the fragment,
        reschedules, serves the fleet -- and is ``os._exit``-killed
        (SIGKILL semantics: no finally, no flush) while accepting its
        sixth result; before that, worker ``fi-w1`` has silently
        dropped its first RESULT frame on the wire.  Both workers ride
        the coordinator's death through jittered reconnect.  Run 3: a
        clean coordinator compacts the ledger tail, resumes the 30-ish
        unfinished points, and the sweep converges -- byte-identical
        to a serial run, every fault provably fired.
        """
        specs = load_scenario_document(SELF_HEAL_DOCUMENT).expand()
        expected_keys = {spec.key() for spec in specs}
        assert len(specs) == 36

        serial_dir = tmp_path / "serial"
        SweepRunner(cache_dir=serial_dir).sweep(specs)

        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps(SELF_HEAL_DOCUMENT))
        ledger = tmp_path / "ledger"  # no suffix: the sharded layout
        cache = tmp_path / "cache"
        fired = tmp_path / "fired.jsonl"

        torn_plan = FaultPlan(
            [FaultRule(site="ledger.append", action="torn", count=1)],
            log_path=fired,
        ).save(tmp_path / "plan-torn.json")
        kill_plan = FaultPlan(
            [
                FaultRule(
                    site="coordinator.result",
                    action="exit",
                    after=5,
                    count=1,
                )
            ],
            log_path=fired,
        ).save(tmp_path / "plan-kill.json")
        drop_plan = FaultPlan(
            [
                FaultRule(
                    site="protocol.send",
                    action="drop",
                    match="result",
                    count=1,
                )
            ],
            log_path=fired,
        ).save(tmp_path / "plan-drop.json")

        deadline = time.monotonic() + BUDGET_SECONDS
        port = _free_port()
        log = open(tmp_path / "schedule.log", "ab")
        workers = []
        coordinators = []

        def run(plan):
            coordinators.append(
                _spawn_coordinator(
                    port, spec_file, ledger, cache, log, plan=plan
                )
            )
            return coordinators[-1]

        def finish(coordinator):
            remaining = deadline - time.monotonic()
            assert remaining > 0, "self-heal budget exhausted"
            return coordinator.wait(timeout=remaining)

        def wait_until(condition, coordinator, what):
            while not condition():
                assert coordinator.poll() is None, f"exited before {what}"
                assert time.monotonic() < deadline, f"no {what}"
                time.sleep(0.05)

        try:
            # Run 1 dies on its torn append before it ever listens.
            exit_codes = [finish(run(torn_plan))]
            # The workers join run 2 one at a time, so both provably
            # ride its kill: fi-w1 first, until its RESULT frame is
            # dropped (it then waits for an ack that never comes), and
            # only then fi-w2, whose results trigger the scripted kill.
            coordinator = run(kill_plan)
            wait_until(lambda: _listens(port), coordinator, "listener")
            workers.append(_spawn_worker(port, "fi-w1", log, plan=drop_plan))
            wait_until(
                lambda: fired.exists()
                and "protocol.send" in fired.read_text(),
                coordinator,
                "dropped RESULT frame",
            )
            workers.append(_spawn_worker(port, "fi-w2", log))
            exit_codes.append(finish(coordinator))
            exit_codes.append(finish(run(None)))
            # Run 1 died on the torn append, run 2 on the scripted
            # kill, run 3 converged.
            assert exit_codes[0] not in (0, None)
            assert exit_codes[1] == faults.DEFAULT_EXIT_CODE
            assert exit_codes[2] == 0
            for worker in workers:
                remaining = max(deadline - time.monotonic(), 1.0)
                assert worker.wait(timeout=remaining) == 0
        finally:
            for process in workers + coordinators:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
            log.close()

        # Zero manual intervention beyond restarting the dead process:
        # the ledger converged to every point done, none failed.
        state = replay_ledger(ledger)
        assert expected_keys <= state.done
        assert not (set(state.failed) & expected_keys)

        # Recovery compacted the tail into a snapshot.
        assert (ledger / "snapshot.json").exists()

        # Byte-identical to serial: same file names, same bytes.
        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        fabric_files = sorted(p.name for p in cache.glob("*.json"))
        assert fabric_files == serial_files
        for name in serial_files:
            assert (cache / name).read_bytes() == (
                serial_dir / name
            ).read_bytes()

        # Every scripted fault provably fired, in distinct processes.
        entries = [
            json.loads(line)
            for line in fired.read_text().splitlines()
            if line.strip()
        ]
        sites = {entry["site"] for entry in entries}
        assert sites == {
            "ledger.append",
            "coordinator.result",
            "protocol.send",
        }
        assert len({entry["pid"] for entry in entries}) == 3
