"""Benchmark: distributed sweep scaling and result-serving throughput.

Two perf gates, two machine-readable records:

* ``BENCH_4.json`` -- the distributed-fabric acceptance gate: on a
  compute-bound grid (identical batch Monte-Carlo points differing
  only by seed, so work is perfectly balanced), a 2-worker localhost
  sweep must beat the serial :class:`~repro.scenario.runner
  .SweepRunner` by >= 1.7x inside the pure compute window (first
  assignment to last result; coordinator gang-start excludes the
  workers' interpreter boot, which measures the disk cache, not the
  fabric).  The record also carries ``repro serve`` throughput over
  the swept results (concurrent clients hammering ``/results/<key>``
  and ``/progress``).

* ``BENCH_5.json`` -- the pagination gate: ``/results?offset=&limit=``
  over a >= 10^4-point store must sustain :data:`MIN_PAGED_RPS` under
  concurrent clients.  This gates the *index sidecar*: the historical
  full-scan path re-parsed every stored payload per request, which at
  10^4 points is under ~2 req/s -- an order of magnitude below the
  gate -- so a regression back to scanning fails loudly.  The record
  also keeps the one-off costs honest: building the store and the
  cold first-request index fold are both timed.

The scaling gate is **hardware-aware**: two processes cannot beat one
on a single-core host, so when the CPU affinity mask offers < 2 cores
the gate flips to an *overhead* bound -- the distributed compute
window must stay within ``MAX_SINGLE_CORE_OVERHEAD`` of serial (the
fabric tax: framing, ledgering, atomic publishes).  The JSON record
always states the cores seen and which gate applied, so a committed
record is interpretable on its own.

* ``BENCH_6.json`` -- the self-healing gate: a seeded
  :class:`~repro.distributed.faults.FaultPlan` hard-kills a real
  coordinator subprocess mid-sweep (``os._exit`` inside the result
  handler); the record carries the *time to recover* -- wall seconds
  from launching the replacement coordinator to the sweep completing,
  with the original workers surviving the outage via reconnect/backoff
  -- plus the startup-replay gate: folding a >= 10^4-event sharded
  ledger from its compacted snapshot must beat the full line-by-line
  replay by >= :data:`MIN_COMPACTED_REPLAY_SPEEDUP`.

* ``BENCH_9.json`` -- the telemetry gate, in two halves: (1) the same
  serial batch sweep with span emission off vs on (best-of-N per arm,
  alternated) must stay within :data:`MAX_TELEMETRY_OVERHEAD`, so the
  instrumentation can ship enabled; (2) a warm ``GET /metrics`` scrape
  over a >= 10^4-point store backed by a compacted sharded ledger must
  answer within :data:`MAX_SCRAPE_SECONDS` -- gauges fold from the
  memoized ledger replay, so a scrape is a stat plus a render, not a
  re-parse.

``BENCH_SMOKE=1`` shrinks the grid so CI finishes in seconds; the perf
record is then labelled ``"smoke": true`` and must not be committed.
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

from repro.analysis.tables import render_table
from repro.core.parameters import ModelParameters
from repro.distributed.coordinator import SweepCoordinator
from repro.distributed.service import ResultsService
from repro.scenario.runner import SweepRunner
from repro.scenario.spec import ScenarioSpec, SweepSpec

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

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
#: The committed record must show >= 1.7x; the shrunken smoke grid
#: amortizes per-worker warmup over fewer, smaller points, so its CI
#: gate is correspondingly looser.
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
#: ...must sustain this.  The full-scan path this replaced parses
#: every payload per request (~2 req/s at 10^4 points); the index
#: sidecar serves a stat + slice (hundreds of req/s).
MIN_PAGED_RPS = 25.0


def grid() -> list[ScenarioSpec]:
    base = ScenarioSpec(
        name="dist-bench",
        params=PARAMS,
        engine="batch",
        runs=POINT_RUNS,
        seed=101,
    )
    return SweepSpec(
        base=base, axes=(("seed", tuple(range(101, 101 + GRID_POINTS))),)
    ).expand()


def _worker_env() -> dict[str, str]:
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


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

    def serve() -> None:
        summary.update(coordinator.run())

    thread = threading.Thread(target=serve)
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


def time_service(cache_dir: pathlib.Path, ledger: pathlib.Path) -> dict:
    with ResultsService(cache_dir, ledger_path=ledger).start() as service:
        keys = [path.stem for path in sorted(cache_dir.glob("*.json"))]
        paths = [
            f"/results/{keys[i % len(keys)]}" if i % 3 else "/progress"
            for i in range(SERVE_REQUESTS)
        ]
        base = f"http://127.0.0.1:{service.port}"

        def fetch(path: str) -> int:
            with urllib.request.urlopen(base + path, timeout=30) as response:
                return len(response.read())

        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=SERVE_CLIENTS
        ) as pool:
            sizes = list(pool.map(fetch, paths))
        elapsed = time.perf_counter() - start
    assert all(size > 0 for size in sizes)
    return {
        "requests": SERVE_REQUESTS,
        "concurrent_clients": SERVE_CLIENTS,
        "seconds": elapsed,
        "requests_per_second": SERVE_REQUESTS / elapsed,
        "bytes_served": sum(sizes),
    }


def run_benchmark(tmp: pathlib.Path) -> dict:
    specs = grid()
    serial_seconds = run_serial(specs, tmp)
    summary = run_distributed(specs, tmp)
    assert summary["done"] == len(specs) and not summary["failed"]
    # Work actually spread over both workers.
    assert set(summary["workers"]) == {
        f"bench-w{index}" for index in range(N_WORKERS)
    }
    distributed_seconds = summary["compute_elapsed_seconds"]
    serial_files = sorted(
        path.name for path in (tmp / "serial").glob("*.json")
    )
    dist_files = sorted(path.name for path in (tmp / "dist").glob("*.json"))
    assert serial_files == dist_files, "result sets diverged"
    serve = time_service(tmp / "dist", tmp / "ledger.jsonl")
    return {
        "grid_points": len(specs),
        "runs_per_point": POINT_RUNS,
        "serial_seconds": serial_seconds,
        "workers": N_WORKERS,
        "distributed_compute_seconds": distributed_seconds,
        "distributed_wall_seconds": summary["elapsed_seconds"],
        "speedup": serial_seconds / distributed_seconds,
        "per_worker_points": summary["workers"],
        "serve": serve,
    }


def test_distributed_scaling_and_serving(
    benchmark, report, json_report, tmp_path
):
    measurements = benchmark.pedantic(
        run_benchmark, args=(tmp_path,), rounds=1, iterations=1
    )

    speedup = measurements["speedup"]
    scaling_gate_applies = CORES >= N_WORKERS
    if scaling_gate_applies:
        assert speedup >= MIN_SPEEDUP, (
            f"2-worker distributed sweep only {speedup:.2f}x over serial "
            f"(need >= {MIN_SPEEDUP}x on {measurements['grid_points']} "
            f"compute-bound points, {CORES} cores)"
        )
    else:
        # One core: no parallel win is physically possible, so bound
        # the fabric's overhead instead.
        overhead = 1.0 / speedup
        assert overhead <= MAX_SINGLE_CORE_OVERHEAD, (
            f"distributed fabric costs {overhead:.2f}x serial on a "
            f"single-core host (bound: {MAX_SINGLE_CORE_OVERHEAD}x)"
        )
    serve = measurements["serve"]
    assert serve["requests_per_second"] >= MIN_SERVE_RPS

    rows = [
        [
            "serial SweepRunner",
            1,
            f"{measurements['serial_seconds']:.2f}",
            "1.0x",
        ],
        [
            "distributed (compute window)",
            N_WORKERS,
            f"{measurements['distributed_compute_seconds']:.2f}",
            f"{speedup:.2f}x",
        ],
    ]
    report(
        "distributed_sweep",
        render_table(
            ["path", "workers", "seconds", "speedup"],
            rows,
            title=(
                f"Distributed sweep: {measurements['grid_points']} points "
                f"x {POINT_RUNS} runs, {PARAMS.describe()}; serve: "
                f"{serve['requests_per_second']:.0f} req/s over "
                f"{serve['concurrent_clients']} clients"
            ),
        ),
    )
    json_report(
        "BENCH_4.json",
        {
            "benchmark": "distributed_sweep",
            "smoke": SMOKE,
            "params": PARAMS.describe(),
            "cores": CORES,
            "gate": {
                "min_speedup": MIN_SPEEDUP,
                "workers": N_WORKERS,
                "speedup": speedup,
                "scaling_gate_applies": scaling_gate_applies,
                "single_core_overhead_bound": MAX_SINGLE_CORE_OVERHEAD,
            },
            **{
                key: value
                for key, value in measurements.items()
                if key != "serve"
            },
            "serve": serve,
        },
    )


# -- pagination gate (BENCH_5) -----------------------------------------------


def build_synthetic_store(cache_dir: pathlib.Path, points: int) -> float:
    """Publish ``points`` minimal results through the real store path
    (atomic file + index sidecar append, exactly what workers do);
    returns the build seconds."""
    from repro.scenario.backends import ScenarioResult
    from repro.scenario.store import store_result

    start = time.perf_counter()
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
    return time.perf_counter() - start


def run_pagination_benchmark(tmp: pathlib.Path) -> dict:
    cache = tmp / "paged"
    build_seconds = build_synthetic_store(cache, PAGE_STORE_POINTS)
    with ResultsService(cache).start() as service:
        base = f"http://127.0.0.1:{service.port}"

        def fetch(path: str) -> dict:
            with urllib.request.urlopen(base + path, timeout=60) as reply:
                return json.loads(reply.read())

        # Cold first page: pays the one-off index fold (and, on a
        # store whose sidecar lags, the reconcile parse).
        cold_start = time.perf_counter()
        first = fetch(f"/results?offset=0&limit={PAGE_LIMIT}")
        cold_seconds = time.perf_counter() - cold_start
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
    return {
        "store_points": PAGE_STORE_POINTS,
        "store_build_seconds": build_seconds,
        "page_limit": PAGE_LIMIT,
        "requests": PAGE_REQUESTS,
        "concurrent_clients": SERVE_CLIENTS,
        "cold_first_page_seconds": cold_seconds,
        "seconds": elapsed,
        "requests_per_second": PAGE_REQUESTS / elapsed,
    }


def test_serve_pagination_gated_on_the_index_sidecar(
    benchmark, report, json_report, tmp_path
):
    measurements = benchmark.pedantic(
        run_pagination_benchmark, args=(tmp_path,), rounds=1, iterations=1
    )
    rps = measurements["requests_per_second"]
    assert rps >= MIN_PAGED_RPS, (
        f"paginated /results sustained only {rps:.1f} req/s over a "
        f"{PAGE_STORE_POINTS}-point store (gate: {MIN_PAGED_RPS}; a "
        f"regression to the full-scan path lands well below it)"
    )
    report(
        "serve_pagination",
        render_table(
            ["path", "store points", "req/s", "cold first page"],
            [
                [
                    f"/results?limit={PAGE_LIMIT} (index sidecar)",
                    PAGE_STORE_POINTS,
                    f"{rps:.0f}",
                    f"{measurements['cold_first_page_seconds'] * 1e3:.0f} ms",
                ]
            ],
            title=(
                f"Paginated serving over {PAGE_STORE_POINTS} points, "
                f"{SERVE_CLIENTS} clients"
            ),
        ),
    )
    json_report(
        "BENCH_5.json",
        {
            "benchmark": "serve_pagination",
            "smoke": SMOKE,
            "gate": {"min_requests_per_second": MIN_PAGED_RPS},
            **measurements,
        },
    )


# -- self-healing gate (BENCH_6) ---------------------------------------------

#: Recovery sweep: points must be expensive enough that the killed
#: and recovery coordinators each stay alive for several seconds --
#: a coordinator that finishes inside a worker's interpreter boot or
#: backoff gap strands that worker with nothing to reconnect to.
RECOVERY_GRID_POINTS = 6 if SMOKE else 8
RECOVERY_POINT_RUNS = 50_000 if SMOKE else 200_000
#: The seeded kill: the coordinator ``os._exit``\ s inside its result
#: handler after this many results have landed.
KILL_AFTER_RESULTS = 2 if SMOKE else 3
#: Startup-replay gate: folding the compacted snapshot (+ empty tail)
#: of a ledger this long must beat full line-by-line replay by this.
REPLAY_EVENTS = 2_000 if SMOKE else 10_000
MIN_COMPACTED_REPLAY_SPEEDUP = 3.0


def _recovery_document() -> dict:
    mus = [
        round(0.05 + 0.04 * index, 4)
        for index in range(RECOVERY_GRID_POINTS)
    ]
    return {
        "name": "recovery-bench",
        "engine": "batch",
        "runs": RECOVERY_POINT_RUNS,
        "seed": 131,
        "params": {
            "core_size": 7,
            "spare_max": 7,
            "k": 1,
            "mu": 0.25,
            "d": 0.9,
        },
        "sweep": {"params.mu": mus},
    }


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _coordinator_cmd(spec_file, port, ledger, cache) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "sweep-coordinator",
        str(spec_file),
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
    ]


def run_recovery_benchmark(tmp: pathlib.Path) -> dict:
    """Kill a live coordinator with a seeded fault plan; measure the
    wall seconds a replacement needs to finish the sweep while the
    original workers ride out the outage on reconnect/backoff."""
    from repro.distributed import faults
    from repro.distributed.faults import FaultPlan, FaultRule
    from repro.distributed.ledger import replay_ledger
    from repro.scenario.spec import load_scenario_document

    document = _recovery_document()
    specs = load_scenario_document(document).expand()
    spec_file = tmp / "recovery-grid.json"
    spec_file.write_text(json.dumps(document))
    ledger = tmp / "recovery-ledger"  # directory: the sharded layout
    cache = tmp / "recovery-cache"
    port = _free_port()

    kill_plan = FaultPlan(
        [
            FaultRule(
                site="coordinator.result",
                action="exit",
                after=KILL_AFTER_RESULTS,
                count=1,
            )
        ]
    ).save(tmp / "kill-plan.json")

    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--port",
                str(port),
                "--id",
                f"rec-w{index}",
                "--connect-timeout",
                "60",
                # Short reconnect window: a worker whose jittered
                # backoff misses the (seconds-lived) recovery
                # coordinator would otherwise idle out the full
                # window before exiting cleanly.
                "--reconnect-timeout",
                "15",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for index in range(N_WORKERS)
    ]

    killed_env = _worker_env()
    killed_env[faults.ENV_PLAN] = str(kill_plan)
    start = time.perf_counter()
    killed = subprocess.run(
        _coordinator_cmd(spec_file, port, ledger, cache),
        env=killed_env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    killed_seconds = time.perf_counter() - start
    assert killed.returncode == faults.DEFAULT_EXIT_CODE, (
        f"fault plan did not kill the coordinator "
        f"(rc={killed.returncode}): {killed.stdout}{killed.stderr}"
    )
    done_at_kill = len(replay_ledger(ledger).done)

    recover_start = time.perf_counter()
    recovered = subprocess.run(
        _coordinator_cmd(spec_file, port, ledger, cache),
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    time_to_recover = time.perf_counter() - recover_start
    assert recovered.returncode == 0, recovered.stdout + recovered.stderr
    for process in workers:
        assert process.wait(timeout=120) == 0

    state = replay_ledger(ledger)
    assert len(state.done) == len(specs) and not state.failed
    assert len(list(cache.glob("*.json"))) == len(specs)
    return {
        "grid_points": len(specs),
        "runs_per_point": RECOVERY_POINT_RUNS,
        "workers": N_WORKERS,
        "killed_after_results": KILL_AFTER_RESULTS,
        "killed_run_seconds": killed_seconds,
        "done_at_kill": done_at_kill,
        "time_to_recover_seconds": time_to_recover,
        "recovered_points": len(specs) - done_at_kill,
        "compacted_during_recovery": (ledger / "snapshot.json").exists(),
    }


def run_replay_benchmark(tmp: pathlib.Path) -> dict:
    """Full line-by-line replay vs snapshot-fold replay of the same
    >= 10^4-event sharded ledger (the coordinator-restart path)."""
    from repro.distributed.ledger import SweepLedger, replay_ledger

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
        events = 3 * len(keys)

        def best_of(fn, rounds: int = 3) -> float:
            timings = []
            for _ in range(rounds):
                start = time.perf_counter()
                fn()
                timings.append(time.perf_counter() - start)
            return min(timings)

        full_seconds = best_of(lambda: replay_ledger(root))
        full_state = replay_ledger(root)
        compact_start = time.perf_counter()
        ledger.compact()
        compact_seconds = time.perf_counter() - compact_start
        compacted_seconds = best_of(lambda: replay_ledger(root))
        compacted_state = replay_ledger(root)
    assert compacted_state.done == full_state.done
    assert compacted_state.scheduled.keys() == full_state.scheduled.keys()
    return {
        "events": events,
        "full_replay_seconds": full_seconds,
        "compact_seconds": compact_seconds,
        "compacted_replay_seconds": compacted_seconds,
        "replay_speedup": full_seconds / compacted_seconds,
    }


def test_self_healing_recovery_and_compacted_replay(
    benchmark, report, json_report, tmp_path
):
    def run_both(tmp: pathlib.Path) -> dict:
        return {
            "recovery": run_recovery_benchmark(tmp),
            "replay": run_replay_benchmark(tmp),
        }

    measurements = benchmark.pedantic(
        run_both, args=(tmp_path,), rounds=1, iterations=1
    )
    recovery = measurements["recovery"]
    replay = measurements["replay"]
    speedup = replay["replay_speedup"]
    assert speedup >= MIN_COMPACTED_REPLAY_SPEEDUP, (
        f"compacted replay only {speedup:.1f}x faster than full replay "
        f"over {replay['events']} events "
        f"(gate: {MIN_COMPACTED_REPLAY_SPEEDUP}x)"
    )
    report(
        "self_healing",
        render_table(
            ["measure", "value"],
            [
                [
                    "time to recover (coordinator killed mid-sweep)",
                    f"{recovery['time_to_recover_seconds']:.2f} s",
                ],
                [
                    f"full replay ({replay['events']} events)",
                    f"{replay['full_replay_seconds'] * 1e3:.1f} ms",
                ],
                [
                    "compacted replay (snapshot + tail)",
                    f"{replay['compacted_replay_seconds'] * 1e3:.1f} ms "
                    f"({speedup:.1f}x)",
                ],
            ],
            title=(
                f"Self-healing: {recovery['grid_points']}-point sweep, "
                f"coordinator killed after "
                f"{recovery['killed_after_results']} results, "
                f"{N_WORKERS} workers surviving via reconnect"
            ),
        ),
    )
    json_report(
        "BENCH_6.json",
        {
            "benchmark": "self_healing",
            "smoke": SMOKE,
            "gate": {
                "min_compacted_replay_speedup": (
                    MIN_COMPACTED_REPLAY_SPEEDUP
                ),
                "replay_speedup": speedup,
            },
            **measurements,
        },
    )


# -- telemetry overhead + scrape gate (BENCH_9) ------------------------------

#: Telemetry A/B sweep: identical batch points, serial runner, no
#: cache -- so every round recomputes and the only difference between
#: the arms is span emission (a handful of O_APPEND JSONL writes).
TELEMETRY_GRID_POINTS = 4
TELEMETRY_POINT_RUNS = 30_000 if SMOKE else 120_000
#: Best-of rounds per arm, alternated so drift hits both equally.
TELEMETRY_ROUNDS = 3
#: The tentpole gate: instrumentation left on must cost <= 3%.
MAX_TELEMETRY_OVERHEAD = 1.03
#: A /metrics scrape over a >= 10^4-point store + compacted ledger.
SCRAPE_ROUNDS = 10
MAX_SCRAPE_SECONDS = 0.050


def _telemetry_grid() -> list[ScenarioSpec]:
    base = ScenarioSpec(
        name="telemetry-bench",
        params=PARAMS,
        engine="batch",
        runs=TELEMETRY_POINT_RUNS,
        seed=211,
    )
    return SweepSpec(
        base=base,
        axes=(("seed", tuple(range(211, 211 + TELEMETRY_GRID_POINTS))),),
    ).expand()


def run_telemetry_overhead_benchmark(tmp: pathlib.Path) -> dict:
    """Same sweep with span emission off vs on, best-of-N each arm."""
    from repro.obs import trace

    specs = _telemetry_grid()
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
    return {
        "grid_points": TELEMETRY_GRID_POINTS,
        "runs_per_point": TELEMETRY_POINT_RUNS,
        "rounds_per_arm": TELEMETRY_ROUNDS,
        "telemetry_off_seconds": min(off_timings),
        "telemetry_on_seconds": min(on_timings),
        "overhead_ratio": min(on_timings) / min(off_timings),
        "spans_emitted": len(spans),
    }


def run_scrape_benchmark(tmp: pathlib.Path) -> dict:
    """A warm ``GET /metrics`` over a >= 10^4-point store backed by a
    compacted sharded ledger -- the steady-state monitoring scrape."""
    from repro.distributed.ledger import SweepLedger

    cache = tmp / "scrape-store"
    build_seconds = build_synthetic_store(cache, PAGE_STORE_POINTS)
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
        base = f"http://127.0.0.1:{service.port}"

        def scrape() -> bytes:
            with urllib.request.urlopen(
                base + "/metrics", timeout=30
            ) as reply:
                assert reply.status == 200
                return reply.read()

        body = scrape()  # cold: pays the one-off index fold + replay
        timings = []
        for _ in range(SCRAPE_ROUNDS):
            start = time.perf_counter()
            body = scrape()
            timings.append(time.perf_counter() - start)
    text = body.decode()
    assert f"repro_store_results {PAGE_STORE_POINTS}" in text
    assert f"repro_ledger_done {PAGE_STORE_POINTS}" in text
    assert "# TYPE repro_http_request_seconds histogram" in text
    return {
        "store_points": PAGE_STORE_POINTS,
        "store_build_seconds": build_seconds,
        "ledger_events": 2 * PAGE_STORE_POINTS,
        "scrape_rounds": SCRAPE_ROUNDS,
        "scrape_seconds": min(timings),
        "scrape_bytes": len(body),
    }


def test_telemetry_overhead_and_scrape_latency(
    benchmark, report, json_report, tmp_path
):
    def run_both(tmp: pathlib.Path) -> dict:
        return {
            "overhead": run_telemetry_overhead_benchmark(tmp),
            "scrape": run_scrape_benchmark(tmp),
        }

    measurements = benchmark.pedantic(
        run_both, args=(tmp_path,), rounds=1, iterations=1
    )
    overhead = measurements["overhead"]
    scrape = measurements["scrape"]
    ratio = overhead["overhead_ratio"]
    assert ratio <= MAX_TELEMETRY_OVERHEAD, (
        f"telemetry-on sweep is {ratio:.3f}x telemetry-off "
        f"(gate: {MAX_TELEMETRY_OVERHEAD}x over "
        f"{overhead['grid_points']} x {overhead['runs_per_point']} runs)"
    )
    seconds = scrape["scrape_seconds"]
    assert seconds <= MAX_SCRAPE_SECONDS, (
        f"/metrics scrape took {seconds * 1e3:.1f} ms over a "
        f"{scrape['store_points']}-point store "
        f"(gate: {MAX_SCRAPE_SECONDS * 1e3:.0f} ms)"
    )
    report(
        "telemetry",
        render_table(
            ["measure", "value"],
            [
                [
                    "sweep, telemetry off (best of "
                    f"{overhead['rounds_per_arm']})",
                    f"{overhead['telemetry_off_seconds']:.3f} s",
                ],
                [
                    "sweep, telemetry on",
                    f"{overhead['telemetry_on_seconds']:.3f} s "
                    f"({ratio:.3f}x)",
                ],
                [
                    f"/metrics scrape ({scrape['store_points']}-point "
                    "store, warm)",
                    f"{seconds * 1e3:.1f} ms",
                ],
            ],
            title=(
                f"Telemetry: {overhead['grid_points']} points x "
                f"{overhead['runs_per_point']} runs per arm; "
                f"{overhead['spans_emitted']} spans emitted"
            ),
        ),
    )
    json_report(
        "BENCH_9.json",
        {
            "benchmark": "telemetry",
            "smoke": SMOKE,
            "gate": {
                "max_overhead_ratio": MAX_TELEMETRY_OVERHEAD,
                "overhead_ratio": ratio,
                "max_scrape_seconds": MAX_SCRAPE_SECONDS,
                "scrape_seconds": seconds,
            },
            **measurements,
        },
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(run_benchmark(pathlib.Path(tmp)), indent=2))
        print(
            json.dumps(run_pagination_benchmark(pathlib.Path(tmp)), indent=2)
        )
        path = pathlib.Path(tmp)
        print(
            json.dumps(
                {
                    "recovery": run_recovery_benchmark(path / "heal"),
                    "replay": run_replay_benchmark(path / "heal"),
                },
                indent=2,
            )
        )
        print(
            json.dumps(
                {
                    "overhead": run_telemetry_overhead_benchmark(
                        path / "telemetry"
                    ),
                    "scrape": run_scrape_benchmark(path / "telemetry"),
                },
                indent=2,
            )
        )
