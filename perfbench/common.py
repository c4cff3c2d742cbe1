"""Paths, child processes and statistics shared by the workloads."""

from __future__ import annotations

import http.client
import math
import os
import pathlib
import queue
import re
import socket
import subprocess
import sys
import threading
import time

#: The checkout root: the benchmark runs the program from its sources.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark (gitignored): the cached history
#: fixture and one directory per run.
WORK = ROOT / ".bench_build" / "perfbench"
LAUNCH = pathlib.Path(__file__).resolve().parent / "launch.py"

#: Environment knobs of the program that would change what is measured
#: (span emission, fault injection); every process runs without them.
_PROGRAM_KNOBS = ("REPRO_TELEMETRY", "REPRO_FAULTS")


def child_env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in _PROGRAM_KNOBS
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def use_sources() -> None:
    """Import the program from this checkout's ``src`` (or fail)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    for knob in _PROGRAM_KNOBS:
        os.environ.pop(knob, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Child:
    """One launched program process (``perfbench/launch.py <role>``).

    Its stdout lines are pumped into a queue so the benchmark can wait
    for a readiness line with a deadline; a ``stop`` line on its stdin
    (or stdin closing) asks it to shut down in order.
    """

    def __init__(self, role: str, *args: str, name: str | None = None) -> None:
        self.role = role
        self.name = name or role
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCH), role, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def wait_line(self, prefix: str, timeout: float = 120.0) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.role}: no {prefix!r} line")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"{self.role} exited ({self.process.wait()}) "
                    f"before printing {prefix!r}"
                )
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def stop(self) -> None:
        """Ask for an orderly shutdown (idempotent)."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            pass

    def wait(self, timeout: float) -> int:
        """Exit code; a blocking wait (exact exit time), killed and
        reaped if it overruns ``timeout``."""
        watchdog = threading.Timer(timeout, self.process.kill)
        watchdog.start()
        try:
            code = self.process.wait()
        finally:
            watchdog.cancel()
        self._pump.join(timeout=5.0)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.wait(timeout=30.0)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[tuple[tuple[str, dict[str, str]], float]]:
    """``((name, labels), value)`` for every sample of a text exposition."""
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or line.startswith("#"):
            continue
        name, labels, value = match.groups()
        samples.append(
            ((name, dict(_LABEL.findall(labels or ""))), float(value))
        )
    return samples


class Client:
    """One persistent HTTP/1.1 connection to the service."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> tuple[int, bytes]:
        return self.request("GET", path)

    def close(self) -> None:
        self._connection.close()
