"""Fabric perf gates: 2-worker scaling, serving, replay and telemetry.

Not collected by the tier-1 suite (pytest collects ``test_*.py``);
CI's distributed-smoke job runs this module by path::

    BENCH_SMOKE=1 PYTHONPATH=src python -m pytest tests/perf/bench_fabric.py -q

* **Scaling.**  On a compute-bound grid (identical batch Monte-Carlo
  points differing only by seed, so work is perfectly balanced), a
  2-worker localhost sweep must beat the serial
  :class:`~repro.scenario.runner.SweepRunner` by :data:`MIN_SPEEDUP`
  inside the pure compute window (first assignment to last result;
  coordinator gang-start excludes the workers' interpreter boot).  Two
  processes cannot beat one on a single core, so when the CPU affinity
  mask offers < 2 cores the gate flips to an *overhead* bound: the
  distributed compute window stays within
  :data:`MAX_SINGLE_CORE_OVERHEAD` of serial (the fabric tax: framing,
  ledgering, atomic publishes).  ``repro serve`` must then answer
  concurrent clients hammering ``/results/<key>`` and ``/progress``
  over the swept results at :data:`MIN_SERVE_RPS`.
* **Pagination.**  ``/results?offset=&limit=`` over a synthetic store
  must sustain :data:`MIN_PAGED_RPS` under concurrent clients.  This
  gates the *index sidecar*: a full scan re-parses every stored
  payload per request, ~2 req/s at 10^4 points, so a regression back
  to scanning fails loudly.
* **Compacted replay.**  Folding a sharded ledger from its compacted
  snapshot must beat the full line-by-line replay by
  :data:`MIN_COMPACTED_REPLAY_SPEEDUP` (the coordinator-restart path).
* **Telemetry.**  The same serial batch sweep with span emission off
  vs on (best-of-N per arm, alternated) must stay within
  :data:`MAX_TELEMETRY_OVERHEAD`, so the instrumentation can ship
  enabled; and a warm ``GET /metrics`` over the synthetic store backed
  by a compacted sharded ledger must answer within
  :data:`MAX_SCRAPE_SECONDS`.

``BENCH_SMOKE=1`` shrinks the grids so CI finishes in seconds.
"""

import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import urllib.request

from repro.core.parameters import ModelParameters
from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.ledger import SweepLedger, replay_ledger
from repro.distributed.service import ResultsService
from repro.obs import trace
from repro.scenario.backends import ScenarioResult
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import ScenarioSpec, SweepSpec
from repro.scenario.store import store_result

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.9)
#: Monte-Carlo trajectories per grid point (the per-point compute).
POINT_RUNS = 100_000 if SMOKE else 400_000
#: Identical-cost points: the grid sweeps the seed axis only.
GRID_POINTS = 8 if SMOKE else 10
N_WORKERS = 2
#: Cores this process may schedule on (the workers inherit the mask).
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)
#: The full grid must show >= 1.7x; the shrunken smoke grid amortizes
#: per-worker warmup over fewer, smaller points, so its gate is
#: correspondingly looser.
MIN_SPEEDUP = 1.4 if SMOKE else 1.7
#: Single-core fallback gate: the fabric's tax (framing, ledger
#: fsyncs, atomic publishes) must cost < 30% against serial even with
#: zero parallelism available.
MAX_SINGLE_CORE_OVERHEAD = 1.30
#: Requests fired at the service (split across concurrent clients).
SERVE_REQUESTS = 120 if SMOKE else 600
SERVE_CLIENTS = 8
MIN_SERVE_RPS = 10.0

#: Pagination gate: a store of this many synthetic points...
PAGE_STORE_POINTS = 2_000 if SMOKE else 10_000
#: ...served page by page...
PAGE_LIMIT = 100
PAGE_REQUESTS = 200 if SMOKE else 400
#: ...must sustain this.
MIN_PAGED_RPS = 25.0

#: Startup-replay gate: folding the compacted snapshot (+ empty tail)
#: of a ledger this long must beat full line-by-line replay by this.
REPLAY_EVENTS = 2_000 if SMOKE else 10_000
MIN_COMPACTED_REPLAY_SPEEDUP = 3.0

#: Telemetry A/B sweep: identical batch points, serial runner, no
#: cache -- so every round recomputes and the only difference between
#: the arms is span emission (a handful of O_APPEND JSONL writes).
TELEMETRY_GRID_POINTS = 4
TELEMETRY_POINT_RUNS = 30_000 if SMOKE else 120_000
#: Best-of rounds per arm, alternated so drift hits both equally.
TELEMETRY_ROUNDS = 3
#: Instrumentation left on must cost <= 3%.
MAX_TELEMETRY_OVERHEAD = 1.03
#: A warm /metrics scrape over the synthetic store + compacted ledger.
SCRAPE_ROUNDS = 10
MAX_SCRAPE_SECONDS = 0.050


def _seed_grid(name: str, runs: int, first_seed: int, points: int):
    base = ScenarioSpec(
        name=name, params=PARAMS, engine="batch", runs=runs, seed=first_seed
    )
    return SweepSpec(
        base=base,
        axes=(("seed", tuple(range(first_seed, first_seed + points))),),
    ).expand()


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _fetch(url: str, timeout: float = 30) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        assert reply.status == 200
        return reply.read()


# -- scaling and serving -----------------------------------------------------


def run_serial(specs, tmp: pathlib.Path) -> float:
    runner = SweepRunner(cache_dir=tmp / "serial")
    start = time.perf_counter()
    runner.sweep(specs)
    return time.perf_counter() - start


def run_distributed(specs, tmp: pathlib.Path) -> dict:
    coordinator = SweepCoordinator(
        specs,
        cache_dir=tmp / "dist",
        ledger_path=tmp / "ledger.jsonl",
        await_workers=N_WORKERS,
    )
    summary = {}
    thread = threading.Thread(
        target=lambda: summary.update(coordinator.run())
    )
    thread.start()
    assert coordinator.ready.wait(timeout=30)
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--port",
                str(coordinator.port),
                "--id",
                f"bench-w{index}",
                "--connect-timeout",
                "30",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for index in range(N_WORKERS)
    ]
    for process in workers:
        assert process.wait(timeout=1200) == 0
    thread.join(timeout=60)
    assert not thread.is_alive(), "coordinator did not finish"
    return summary


def serve_rps(cache_dir: pathlib.Path, ledger: pathlib.Path) -> float:
    """Requests per second of concurrent ``/results/<key>`` and
    ``/progress`` GETs against ``repro serve``."""
    with ResultsService(cache_dir, ledger_path=ledger).start() as service:
        keys = [path.stem for path in sorted(cache_dir.glob("*.json"))]
        base = f"http://127.0.0.1:{service.port}"
        paths = [
            f"/results/{keys[i % len(keys)]}" if i % 3 else "/progress"
            for i in range(SERVE_REQUESTS)
        ]
        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=SERVE_CLIENTS
        ) as pool:
            sizes = [
                len(body)
                for body in pool.map(lambda path: _fetch(base + path), paths)
            ]
        elapsed = time.perf_counter() - start
    assert all(size > 0 for size in sizes)
    return SERVE_REQUESTS / elapsed


def scaling_and_serving(tmp: pathlib.Path) -> tuple[float, float]:
    """``(serial / distributed compute seconds, serve req/s)``."""
    specs = _seed_grid("dist-bench", POINT_RUNS, 101, GRID_POINTS)
    serial_seconds = run_serial(specs, tmp)
    summary = run_distributed(specs, tmp)
    assert summary["done"] == len(specs) and not summary["failed"]
    # Work actually spread over both workers.
    assert set(summary["workers"]) == {
        f"bench-w{index}" for index in range(N_WORKERS)
    }
    serial_files = sorted(
        path.name for path in (tmp / "serial").glob("*.json")
    )
    dist_files = sorted(path.name for path in (tmp / "dist").glob("*.json"))
    assert serial_files == dist_files, "result sets diverged"
    speedup = serial_seconds / summary["compute_elapsed_seconds"]
    return speedup, serve_rps(tmp / "dist", tmp / "ledger.jsonl")


def test_distributed_scaling_and_serving(tmp_path):
    speedup, rps = scaling_and_serving(tmp_path)
    if CORES >= N_WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"2-worker distributed sweep only {speedup:.2f}x over serial "
            f"(need >= {MIN_SPEEDUP}x on {GRID_POINTS} compute-bound "
            f"points, {CORES} cores)"
        )
    else:
        # One core: no parallel win is physically possible, so bound
        # the fabric's overhead instead.
        overhead = 1.0 / speedup
        assert overhead <= MAX_SINGLE_CORE_OVERHEAD, (
            f"distributed fabric costs {overhead:.2f}x serial on a "
            f"single-core host (bound: {MAX_SINGLE_CORE_OVERHEAD}x)"
        )
    assert rps >= MIN_SERVE_RPS


# -- pagination --------------------------------------------------------------


def build_synthetic_store(cache_dir: pathlib.Path, points: int) -> None:
    """Publish ``points`` minimal results through the real store path
    (atomic file + index sidecar append, exactly what workers do)."""
    for index in range(points):
        spec = ScenarioSpec(
            name=f"page-{index}", engine="analytic", seed=index
        )
        store_result(
            cache_dir,
            spec,
            ScenarioResult(
                key=spec.key(),
                name=spec.name,
                engine=spec.engine,
                metrics={"E(T_S)": float(index)},
            ),
        )


def paged_rps(tmp: pathlib.Path) -> float:
    """Requests per second of concurrent ``/results`` pages."""
    cache = tmp / "paged"
    build_synthetic_store(cache, PAGE_STORE_POINTS)
    with ResultsService(cache).start() as service:
        base = f"http://127.0.0.1:{service.port}"

        def fetch(path: str) -> dict:
            return json.loads(_fetch(base + path, timeout=60))

        # The cold first page pays the one-off index fold.
        first = fetch(f"/results?offset=0&limit={PAGE_LIMIT}")
        assert first["total"] == PAGE_STORE_POINTS
        assert first["count"] == PAGE_LIMIT

        # Warm pages across the whole store, concurrently.
        pages = PAGE_STORE_POINTS // PAGE_LIMIT
        paths = [
            f"/results?offset={(i % pages) * PAGE_LIMIT}&limit={PAGE_LIMIT}"
            for i in range(PAGE_REQUESTS)
        ]
        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=SERVE_CLIENTS
        ) as pool:
            bodies = list(pool.map(fetch, paths))
        elapsed = time.perf_counter() - start
        assert all(
            body["total"] == PAGE_STORE_POINTS and body["count"] > 0
            for body in bodies
        )
        # Pages tile the key space: walk them once and count.
        seen = 0
        offset = 0
        while offset is not None:
            page = fetch(f"/results?offset={offset}&limit={PAGE_LIMIT}")
            seen += page["count"]
            offset = page["next_offset"]
        assert seen == PAGE_STORE_POINTS
    return PAGE_REQUESTS / elapsed


def test_serve_pagination_gated_on_the_index_sidecar(tmp_path):
    rps = paged_rps(tmp_path)
    assert rps >= MIN_PAGED_RPS, (
        f"paginated /results sustained only {rps:.1f} req/s over a "
        f"{PAGE_STORE_POINTS}-point store (gate: {MIN_PAGED_RPS}; a "
        f"regression to the full-scan path lands well below it)"
    )


# -- compacted replay --------------------------------------------------------


def _best_of(fn, rounds: int = 3) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def replay_speedup(tmp: pathlib.Path) -> float:
    """Full line-by-line replay over snapshot-fold replay of the same
    sharded ledger, best of 3 each."""
    root = tmp / "replay-ledger"
    keys = [f"{index:064d}" for index in range(REPLAY_EVENTS // 3)]
    with SweepLedger(root) as ledger:
        for index, key in enumerate(keys):
            ledger._append(
                {"event": "scheduled", "key": key, "spec": {"name": key}},
                fsync=False,
            )
            ledger.record_claimed(key, f"w{index % N_WORKERS}")
            ledger._append(
                {"event": "done", "key": key, "worker": "bench"},
                fsync=False,
            )
        full_seconds = _best_of(lambda: replay_ledger(root))
        full_state = replay_ledger(root)
        ledger.compact()
        compacted_seconds = _best_of(lambda: replay_ledger(root))
        compacted_state = replay_ledger(root)
    assert compacted_state.done == full_state.done
    assert compacted_state.scheduled.keys() == full_state.scheduled.keys()
    return full_seconds / compacted_seconds


def test_compacted_replay(tmp_path):
    speedup = replay_speedup(tmp_path)
    assert speedup >= MIN_COMPACTED_REPLAY_SPEEDUP, (
        f"compacted replay only {speedup:.1f}x faster than full replay "
        f"over {3 * (REPLAY_EVENTS // 3)} events "
        f"(gate: {MIN_COMPACTED_REPLAY_SPEEDUP}x)"
    )


# -- telemetry overhead and scrape latency -----------------------------------


def telemetry_overhead(tmp: pathlib.Path) -> float:
    """Telemetry-on over telemetry-off sweep seconds, best of N each."""
    specs = _seed_grid(
        "telemetry-bench", TELEMETRY_POINT_RUNS, 211, TELEMETRY_GRID_POINTS
    )
    telemetry = tmp / "telemetry"

    def run_once() -> float:
        start = time.perf_counter()
        SweepRunner(cache_dir=None).sweep(specs)
        return time.perf_counter() - start

    # Warm the row caches so neither arm pays first-build assembly.
    trace.configure(None)
    run_once()
    off_timings: list[float] = []
    on_timings: list[float] = []
    try:
        for _ in range(TELEMETRY_ROUNDS):
            trace.configure(None)
            off_timings.append(run_once())
            trace.configure(telemetry)
            on_timings.append(run_once())
    finally:
        trace.configure(None)
    spans = [
        record
        for record in trace.read_spans(telemetry)
        if record["name"] == "runner.point"
    ]
    assert len(spans) == TELEMETRY_GRID_POINTS * TELEMETRY_ROUNDS
    return min(on_timings) / min(off_timings)


def scrape_seconds(tmp: pathlib.Path) -> float:
    """Best warm ``GET /metrics`` over the synthetic store backed by a
    compacted sharded ledger -- the steady-state monitoring scrape."""
    cache = tmp / "scrape-store"
    build_synthetic_store(cache, PAGE_STORE_POINTS)
    root = tmp / "scrape-ledger"
    with SweepLedger(root) as ledger:
        for index in range(PAGE_STORE_POINTS):
            key = f"{index:064d}"
            ledger._append(
                {"event": "scheduled", "key": key, "spec": {"name": key}},
                fsync=False,
            )
            ledger._append(
                {"event": "done", "key": key, "worker": "bench"},
                fsync=False,
            )
        ledger.compact()
    with ResultsService(cache, ledger_path=root).start() as service:
        url = f"http://127.0.0.1:{service.port}/metrics"
        body = _fetch(url)  # cold: pays the one-off index fold + replay
        timings = []
        for _ in range(SCRAPE_ROUNDS):
            start = time.perf_counter()
            body = _fetch(url)
            timings.append(time.perf_counter() - start)
    text = body.decode()
    assert f"repro_store_results {PAGE_STORE_POINTS}" in text
    assert f"repro_ledger_done {PAGE_STORE_POINTS}" in text
    assert "# TYPE repro_http_request_seconds histogram" in text
    return min(timings)


def test_telemetry_overhead_and_scrape_latency(tmp_path):
    ratio = telemetry_overhead(tmp_path)
    assert ratio <= MAX_TELEMETRY_OVERHEAD, (
        f"telemetry-on sweep is {ratio:.3f}x telemetry-off "
        f"(gate: {MAX_TELEMETRY_OVERHEAD}x over {TELEMETRY_GRID_POINTS} "
        f"x {TELEMETRY_POINT_RUNS} runs)"
    )
    seconds = scrape_seconds(tmp_path)
    assert seconds <= MAX_SCRAPE_SECONDS, (
        f"/metrics scrape took {seconds * 1e3:.1f} ms over a "
        f"{PAGE_STORE_POINTS}-point store "
        f"(gate: {MAX_SCRAPE_SECONDS * 1e3:.0f} ms)"
    )
