"""Launch one program process the way it is deployed, for the benchmark.

    python3 perfbench/launch.py engine
    python3 perfbench/launch.py service --store DIR --ledger PATH
    python3 perfbench/launch.py coordinator --store DIR --ledger PATH \
        --port N --workers 2 --compact-threshold BYTES
    python3 perfbench/launch.py worker --port N --id NAME \
        --reconnect-timeout SECONDS

Each role runs the program's own public entry point (``ResultsService``,
``SweepCoordinator`` in watch mode, ``run_worker``) with the CLI's
defaults, prints ``PORT <n>`` once it listens and -- for the
coordinator -- ``READY`` once the expected workers said hello.  A
``stop`` line on stdin (or stdin closing) stops the service
(``close()``) or the coordinator (``request_stop()``); workers end on
their own.  ``--stats FILE`` receives the process's peak RSS and, for
a worker, the dict ``run_worker`` returned; ``--trace FILE`` installs
the role's probes (``probes.py``) and receives their spans at exit.
``engine`` only imports the program and registers its engines: the
cold start of an in-process user.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import threading
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _on_stop(callback) -> None:
    """Run ``callback`` once stdin says ``stop`` or closes."""

    def watch() -> None:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        callback()

    threading.Thread(target=watch, daemon=True).start()


def _service(arguments) -> dict:
    from repro.distributed.service import ResultsService

    service = ResultsService(
        arguments.store, ledger_path=arguments.ledger, port=0
    ).start()
    stopped = threading.Event()
    _on_stop(stopped.set)
    print(f"PORT {service.port}", flush=True)
    stopped.wait()
    service.close()
    return {}


def _coordinator(arguments) -> dict:
    import repro.distributed.coordinator as module

    # Readiness watch: the coordinator announces no connected workers,
    # so the first frame of each connection (HELLO) is observed here
    # and the original reader is put back once all workers are in,
    # before anything is timed.
    original = module.read_frame
    helloed: set[str] = set()

    async def watching(reader):
        message = await original(reader)
        if message is not None and message.get("type") == "hello":
            helloed.add(str(message.get("worker")))
            if len(helloed) >= arguments.workers:
                module.read_frame = original
                print("READY", flush=True)
        return message

    module.read_frame = watching
    coordinator = module.SweepCoordinator(
        [],
        cache_dir=arguments.store,
        ledger_path=arguments.ledger,
        port=arguments.port,
        watch=True,
        lease_timeout=600.0,
        compact_tail_bytes=arguments.compact_threshold or None,
    )

    def announce() -> None:
        coordinator.ready.wait()
        print(f"PORT {coordinator.port}", flush=True)

    threading.Thread(target=announce, daemon=True).start()
    _on_stop(coordinator.request_stop)
    summary = coordinator.run()
    return {"done": summary["done"], "failed": len(summary["failed"])}


def _worker(arguments) -> dict:
    from repro.distributed.worker import run_worker

    return run_worker(
        "127.0.0.1",
        arguments.port,
        worker_id=arguments.id,
        connect_timeout=60.0,
        reconnect_timeout=arguments.reconnect_timeout,
    )


def _engine(arguments) -> dict:
    import repro.scenario.backends  # noqa: F401 -- registers the engines
    import repro.scenario.runner  # noqa: F401

    print("READY", flush=True)
    return {}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "role", choices=("engine", "service", "coordinator", "worker")
    )
    parser.add_argument("--store", type=pathlib.Path)
    parser.add_argument("--ledger", type=pathlib.Path)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--id")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--reconnect-timeout", type=float, default=0.0)
    parser.add_argument("--compact-threshold", type=int, default=0)
    parser.add_argument("--stats", type=pathlib.Path)
    parser.add_argument("--trace", type=pathlib.Path)
    arguments = parser.parse_args(argv)
    recorder = None
    if arguments.trace is not None:
        import probes

        recorder = probes.install(arguments.role)
    result = {
        "engine": _engine,
        "service": _service,
        "coordinator": _coordinator,
        "worker": _worker,
    }[arguments.role](arguments)
    if arguments.stats is not None:
        arguments.stats.write_text(
            json.dumps(
                {
                    "role": arguments.role,
                    "peak_rss_mb": _peak_rss_mb(),
                    "exited": time.time(),
                    "result": result,
                }
            )
        )
    if recorder is not None:
        recorder.dump(arguments.trace, role=arguments.role)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
