"""CLI glue tests for the distributed subcommands."""

import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.core.parameters import ModelParameters
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import ScenarioSpec

PARAMS = ModelParameters(core_size=5, spare_max=5, k=1, mu=0.2, d=0.9)


def write_sweep_spec(path) -> list[ScenarioSpec]:
    document = {
        "name": "cli-dist",
        "engine": "batch",
        "runs": 40,
        "seed": 12,
        "params": {
            "core_size": 5,
            "spare_max": 5,
            "k": 1,
            "mu": 0.2,
            "d": 0.9,
        },
        "sweep": {"params.mu": [0.1, 0.2], "adversary": ["strong"]},
    }
    path.write_text(json.dumps(document))
    from repro.scenario.spec import SweepSpec

    return SweepSpec.from_file(path).expand()


class TestParser:
    def test_subcommands_exist_with_defaults(self):
        parser = build_parser()
        coordinator = parser.parse_args(
            ["sweep-coordinator", "spec.json", "--port", "0"]
        )
        assert coordinator.experiment == "sweep-coordinator"
        assert coordinator.ledger.name == "sweep-ledger.jsonl"
        worker = parser.parse_args(["worker", "--port", "7641", "--id", "w"])
        assert worker.experiment == "worker"
        assert worker.max_points is None
        serve = parser.parse_args(["serve", "--port", "0"])
        assert serve.experiment == "serve"
        assert serve.cache_dir.name == "scenarios"


class TestCoordinatorCommand:
    def test_fully_cached_sweep_completes_without_workers(
        self, tmp_path, capsys
    ):
        spec_file = tmp_path / "sweep.json"
        specs = write_sweep_spec(spec_file)
        cache = tmp_path / "cache"
        SweepRunner(cache_dir=cache).sweep(specs)
        code = main(
            [
                "sweep-coordinator",
                str(spec_file),
                "--port",
                "0",
                "--cache-dir",
                str(cache),
                "--ledger",
                str(tmp_path / "ledger.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep complete: 2/2 done" in out
        assert "2 from cache" in out

    def test_coordinator_and_worker_commands_run_a_sweep(
        self, tmp_path, capsys
    ):
        import socket

        spec_file = tmp_path / "sweep.json"
        write_sweep_spec(spec_file)
        cache = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"
        codes = {}
        # Probe a free ephemeral port (the CLI announces its port only
        # on stdout, which capsys owns during the test).
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])

        def coordinate() -> None:
            codes["coordinator"] = main(
                [
                    "sweep-coordinator",
                    str(spec_file),
                    "--port",
                    port,
                    "--cache-dir",
                    str(cache),
                    "--ledger",
                    str(ledger),
                ]
            )

        thread = threading.Thread(target=coordinate)
        thread.start()
        codes["worker"] = main(
            ["worker", "--port", port, "--id", "cli-w0"]
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert codes == {"coordinator": 0, "worker": 0}
        assert "sweep complete: 2/2 done" in out
        assert "worker cli-w0: 2 points executed" in out
        assert len(list(cache.glob("*.json"))) == 2


class TestNewFlags:
    def test_coordinator_gains_watch_and_lease_flags(self):
        parser = build_parser()
        args = parser.parse_args(["sweep-coordinator", "spec.json"])
        assert args.watch is False
        assert args.lease_timeout == 600.0
        args = parser.parse_args(
            ["sweep-coordinator", "--watch", "--lease-timeout", "30"]
        )
        assert args.spec_file is None
        assert args.watch is True and args.lease_timeout == 30.0

    def test_worker_gains_store_dir(self):
        parser = build_parser()
        args = parser.parse_args(["worker", "--port", "1"])
        assert args.store_dir is None
        args = parser.parse_args(
            ["worker", "--port", "1", "--store-dir", "/shared/cache"]
        )
        assert str(args.store_dir) == "/shared/cache"

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_worker_refuses_a_heartbeat_interval_that_is_not_positive(
        self, interval, capsys
    ):
        code = main(
            [
                "worker",
                "--port",
                "1",
                "--connect-timeout",
                "0.2",
                "--heartbeat-every",
                interval,
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        [line] = captured.out.splitlines()
        assert line.startswith("worker error: heartbeat_every must be > 0")
        assert captured.err == ""

    def test_coordinator_without_spec_or_watch_is_an_error(
        self, capsys, tmp_path, monkeypatch
    ):
        # chdir: the default --ledger is CWD-relative, and an existing
        # ledger legitimately turns this invocation into a resume.
        monkeypatch.chdir(tmp_path)
        code = main(["sweep-coordinator", "--port", "0"])
        assert code == 2
        assert "--watch" in capsys.readouterr().out

    def test_coordinator_resumes_from_an_existing_ledger_without_spec(
        self, capsys, tmp_path
    ):
        """The one-shot recovery invocation: no grid, just the ledger
        -- the coordinator adopts its scheduled points and exits when
        they drain (here: immediately, the ledger is empty)."""
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("")
        code = main(
            [
                "sweep-coordinator",
                "--port",
                "0",
                "--ledger",
                str(ledger),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "sweep complete: 0/0 done" in capsys.readouterr().out

    def test_worker_side_store_through_the_cli(self, tmp_path, capsys):
        """The full CLI path with --store-dir: worker publishes, the
        coordinator validates the refs, the sweep completes."""
        import socket

        spec_file = tmp_path / "sweep.json"
        write_sweep_spec(spec_file)
        cache = tmp_path / "cache"
        codes = {}
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])

        def coordinate() -> None:
            codes["coordinator"] = main(
                [
                    "sweep-coordinator",
                    str(spec_file),
                    "--port",
                    port,
                    "--cache-dir",
                    str(cache),
                    "--ledger",
                    str(tmp_path / "ledger.jsonl"),
                ]
            )

        thread = threading.Thread(target=coordinate)
        thread.start()
        codes["worker"] = main(
            [
                "worker",
                "--port",
                port,
                "--id",
                "ref-w0",
                "--store-dir",
                str(cache),
            ]
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert codes == {"coordinator": 0, "worker": 0}
        assert "sweep complete: 2/2 done" in out
        assert len(list(cache.glob("*.json"))) == 2
