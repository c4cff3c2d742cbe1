"""``fabric-sweep``: one submitted sweep through a resident fabric.

Why: the service under writes, the ledger, the protocol and the store
publish do most of the work and the engine little (many cheap points
sharing one parameter set).  The fabric -- ``repro serve``, a
``--watch`` coordinator on a sharded ledger with compaction on, and two
``run_worker`` processes -- starts from the 10^4-point history, so the
service's ledger replays and the coordinator's startup replay run at a
deployed store's scale.  The client POSTs the grid, polls
``/progress?sweep=`` at a fixed cadence until complete, then stops the
coordinator (``request_stop()``) and waits for both workers to exit.

Each sweep of a run submits the same grid to a fresh copy of the
history through a freshly launched fabric, so every sweep also yields
one set-up sample and the in-process reference is computed once.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

from common import Child, Client, free_port, median, percentile
from fixture import copy_history

#: Points per sweep: enough that the 0.25 s tail poll, the workers'
#: 0.2 s WAIT and the client's poll cadence stay under a tenth of it.
GRID_POINTS = 1000
#: Trajectories per point: cheap, so fabric costs dominate.
GRID_RUNS = 50
GRID_PARAMS = {"core_size": 7, "spare_max": 7, "k": 1, "mu": 0.2, "d": 0.9}
WORKERS = 2
#: Seconds between ``/progress`` polls.  Kept short: the service's
#: sharded-ledger replay is not atomic against a compaction, and a
#: replay that starts late in one can miss the sweep and answer 404;
#: at this cadence the first replay after the coordinator's last
#: append ends well before its compaction does.
POLL_CADENCE = 0.1
#: Seconds a sweep may take before the run gives up on it (a sweep
#: takes ~7 s; a point the coordinator never schedules would hang it).
SWEEP_DEADLINE = 60.0
#: Workers' ``reconnect_timeout`` (the CLI default of 60 s would idle
#: a minute per sweep after the coordinator stops).
RECONNECT_WINDOW = 1.0
#: Shard bytes that trigger a compaction: crossed once per sweep,
#: after the submit's records (~713 kB) and the first ~100 points'
#: claimed/done records (~400 B a point) -- well before the median
#: point, so the compaction stall never straddles a reported
#: percentile.
COMPACT_THRESHOLD = 753_000
#: Sweeps per run; every figure is the median over them.
MIN_SWEEPS = 3
#: Percentile of a sweep's point latencies reported as ``op_tail_ms``:
#: with GRID_POINTS points it has >= 10 samples beyond it.
TAIL = 0.97
#: Sweeps of each kind in a traced run (untraced ones are the base of
#: ``trace.overhead_frac``).
TRACED_SWEEPS = 2

RECORD = {
    "why": __doc__.split("Why: ")[1].split("\n\n")[0].replace("\n", " "),
    "busy_layers": [
        "distributed.service (submit, /progress replays under writes)",
        "distributed.ledger (appends, fsyncs, compaction, startup replay)",
        "distributed.protocol, coordinator, worker",
        "scenario.store (publish)",
    ],
    "bypassed_layers": [
        "simulation.churn kind laws (Bernoulli points only)",
        "core row assembly beyond the first point per worker (shared params)",
        "analytic and competing engines",
    ],
    "fixed_inputs": {
        "history": "10 prior sweeps, 10^4 points, sharded ledger compacted",
        "ledger_layout": "sharded",
        "grid_points": GRID_POINTS,
        "grid_runs": GRID_RUNS,
        "workers": WORKERS,
        "poll_cadence_s": POLL_CADENCE,
        "reconnect_window_s": RECONNECT_WINDOW,
        "compact_threshold_bytes": COMPACT_THRESHOLD,
        "lease_timeout_s": 600.0,
        "min_sweeps": MIN_SWEEPS,
    },
}

REQUIRED_PROBES = {
    "service": (
        "repro.distributed.service:ResultsService.respond",
        "repro.distributed.service:ResultsService.respond_post",
        "repro.distributed.service:replay_ledger",
        "repro.scenario.store:JsonlAppender.append",
    ),
    "coordinator": (
        "repro.distributed.coordinator:store_result",
        "repro.distributed.ledger:ShardedLedger.replay",
        "repro.distributed.ledger:ShardedLedger.compact",
        "repro.distributed.protocol:encode_frame",
        "repro.scenario.store:JsonlAppender.append",
    ),
    "worker": (
        "repro.scenario.runner:execute_spec",
        "repro.distributed.worker:emit_span",
        "repro.distributed.protocol:encode_frame",
        "repro.scenario.backends:BatchBackend.run",
        "repro.scenario.backends:batch_monte_carlo_summary",
        "repro.simulation.batch:run_batch_trajectories",
        "repro.simulation.batch:transition_rows",
    ),
}


def grid_document(seed: int) -> dict:
    first = 1_000_000 + (seed % 100_000) * GRID_POINTS
    return {
        "name": f"bench-sweep-{seed}",
        "engine": "batch",
        "params": GRID_PARAMS,
        "runs": GRID_RUNS,
        "sweep": {"seed": list(range(first, first + GRID_POINTS))},
    }


class Fabric:
    """Service + watch coordinator + workers over one history copy."""

    def __init__(self, directory: pathlib.Path, trace: bool) -> None:
        self.directory = directory
        self.store = directory / "store"
        self.ledger = directory / "ledger"
        self.children: list[Child] = []
        self.trace = trace

    def _launch(self, role: str, name: str, *args: str) -> Child:
        options = ["--stats", str(self.directory / f"{name}.stats.json")]
        if self.trace:
            options += ["--trace", str(self.directory / f"{name}.trace.json")]
        child = Child(role, *args, *options, name=name)
        self.children.append(child)
        return child

    def start(self) -> float:
        """Launch everything; seconds until both workers are connected
        and the service has answered."""
        started = time.perf_counter()
        port = free_port()
        paths = ("--store", str(self.store), "--ledger", str(self.ledger))
        self.service = self._launch("service", "service", *paths)
        self.coordinator = self._launch(
            "coordinator",
            "coordinator",
            *paths,
            "--port", str(port),
            "--workers", str(WORKERS),
            "--compact-threshold", str(COMPACT_THRESHOLD),
        )
        # Workers start once the coordinator listens, as a supervisor
        # with a health check would start them.
        self.coordinator.wait_line("PORT")
        self.workers = [
            self._launch(
                "worker",
                f"worker-{index}",
                "--port", str(port),
                "--id", f"bench-w{index}",
                "--reconnect-timeout", str(RECONNECT_WINDOW),
            )
            for index in range(WORKERS)
        ]
        self.client = Client(int(self.service.wait_line("PORT")))
        status, _ = self.client.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        self.coordinator.wait_line("READY")
        return time.perf_counter() - started

    def sweep(self, document: dict) -> dict:
        """Submit, poll to completion, stop, wait for every exit."""
        body = json.dumps(document).encode()
        wall = time.time()
        started = time.perf_counter()
        status, reply = self.client.request("POST", "/submit", body)
        if status != 202:
            raise RuntimeError(f"/submit answered {status}: {reply[:200]!r}")
        sweep = json.loads(reply)["sweep"]
        problems = []
        while True:
            status, reply = self.client.get(f"/progress?sweep={sweep}")
            if status == 200 and json.loads(reply)["complete"]:
                break
            if status != 200:
                # A failed poll: counted, and polled again as a user would.
                problems.append(
                    f"progress {sweep}: /progress answered {status}: {reply[:200]!r}"
                )
            if time.perf_counter() - started > SWEEP_DEADLINE:
                raise RuntimeError(f"sweep {sweep} not complete in {SWEEP_DEADLINE} s")
            time.sleep(POLL_CADENCE)
        complete = time.perf_counter()
        self.coordinator.stop()
        stopping = time.perf_counter()
        codes = [self.coordinator.wait(60.0)]
        codes += [worker.wait(60.0) for worker in self.workers]
        ended = time.perf_counter()
        if any(codes):
            raise RuntimeError(f"fabric processes exited {codes}")
        return {
            "sweep": sweep,
            "wall": wall,
            "complete_s": complete - started,
            "wall_s": ended - started,
            "drain_s": ended - stopping,
            "window": (wall, wall + (ended - started)),
            "complete_window": (wall, wall + (complete - started)),
            "problems": problems,
        }

    def close(self) -> None:
        self.client.close()
        self.service.stop()
        if self.service.wait(60.0) != 0:
            raise RuntimeError("service exited non-zero")

    def kill(self) -> None:
        for child in self.children:
            child.kill()

    def documents(self, kind: str) -> dict[str, dict]:
        """Each process's ``stats`` or ``trace`` file, by process name."""
        return {
            child.name: json.loads(
                (self.directory / f"{child.name}.{kind}.json").read_text()
            )
            for child in self.children
        }


def reference(document: dict, directory: pathlib.Path) -> dict:
    """The grid's specs, each with the bytes an in-process
    ``execute_spec`` + ``store_result`` publishes for it."""
    from repro.scenario.runner import execute_spec
    from repro.scenario.spec import load_scenario_document
    from repro.scenario.store import store_result

    return {
        spec: store_result(directory, spec, execute_spec(spec)).read_bytes()
        for spec in load_scenario_document(document).expand()
    }


def check(fabric: Fabric, expected: dict, sweep: str) -> list[str]:
    """Problems with one sweep's published results and ledger."""
    from repro.distributed.ledger import replay_ledger
    from repro.scenario.store import result_path

    state = replay_ledger(fabric.ledger)
    problems = []
    keys = state.sweeps.get(sweep, ())
    if len(keys) != len(expected):
        problems.append(f"ledger sweep holds {len(keys)} of {len(expected)} points")
    for spec, payload in expected.items():
        path = result_path(fabric.store, spec)
        if not path.is_file():
            problems.append(f"{spec.name}: no published result")
        elif path.read_bytes() != payload:
            problems.append(f"{spec.name}: result differs from in-process run")
        if spec.key() not in state.done or spec.key() in state.failed:
            problems.append(f"{spec.name}: ledger does not hold it done")
    return problems


def _ledger_waits(records: list[dict], sweep: str, keys: set[str]) -> tuple[float, float]:
    """``(202 -> first claim, mean scheduled -> first claim)`` seconds."""
    submitted = min(
        record["ts"]
        for record in records
        if record.get("event") == "submitted" and record.get("sweep") == sweep
    )
    scheduled: dict[str, float] = {}
    claimed: dict[str, float] = {}
    for record in records:
        key = record.get("key")
        if key not in keys or "ts" not in record:
            continue
        event = record.get("event")
        if event == "scheduled":
            scheduled[key] = min(scheduled.get(key, record["ts"]), record["ts"])
        elif event == "claimed":
            claimed[key] = min(claimed.get(key, record["ts"]), record["ts"])
    waits = [claimed[key] - scheduled[key] for key in keys]
    return min(claimed.values()) - submitted, sum(waits) / len(waits)


def _layers(sweeps: list[dict]) -> dict[str, float]:
    from repro.distributed.ledger import iter_ledger_records

    from layers import Totals, engine_layers, mean_ms

    engine = Totals()
    fabric = Totals()
    startup = Totals()
    lags, queue_waits, busy, reconnects = [], [], [], []
    for sweep in sweeps:
        traces, window = sweep["traces"], sweep["window"]
        lo, hi = sweep["complete_window"]
        executing = 0.0
        for name, trace in traces.items():
            if name.startswith("worker"):
                engine.add(trace, window)
                for span, start, duration, _ in trace["spans"]:
                    if span == "worker.execute" and lo <= start <= hi:
                        executing += min(duration, hi - start)
                reconnects.append(sweep["stats"][name]["result"]["reconnects"])
            fabric.add(trace, window)
        startup.add(traces["coordinator"], (0.0, window[0]))
        busy.append(executing / (WORKERS * (hi - lo)))
        records = traces["coordinator"]["records"] + list(
            iter_ledger_records(sweep["ledger"])
        )
        lag, queue_wait = _ledger_waits(records, sweep["sweep"], sweep["keys"])
        lags.append(lag)
        queue_waits.append(queue_wait)
    count = len(sweeps)
    layers = engine_layers(engine, count)
    layers.update(
        {
            "store.publish_s": fabric.self_s["store.publish"] / count,
            "store.publishes": fabric.calls["store.publish"] / count,
            "service.submit_ms": mean_ms(fabric, "service.submit"),
            "service.progress_ms": mean_ms(fabric, "service.progress"),
            "service.replays": fabric.calls["service.replay"] / count,
            "service.replay_s": fabric.self_s["service.replay"] / count,
            "ledger.startup_replay_s": startup.self_s["ledger.startup_replay"] / count,
            "ledger.tail_lag_s": sum(lags) / count,
            "ledger.queue_wait_s": sum(queue_waits) / count,
            "ledger.append_s": fabric.self_s["ledger.append"] / count,
            "ledger.appends": fabric.calls["ledger.append"] / count,
            "ledger.compactions": fabric.calls["ledger.compact"] / count,
            "ledger.compact_s": fabric.self_s["ledger.compact"] / count,
            "protocol.frames": fabric.calls["protocol.encode"] / count,
            "protocol.encode_s": fabric.self_s["protocol.encode"] / count,
            "worker.execute_s": fabric.incl_s["worker.execute"] / count,
            "worker.claim_wait_s": fabric.self_s["worker.claim_wait"] / count,
            "worker.busy_frac": sum(busy) / count,
            "worker.reconnects": sum(reconnects) / count,
            "fabric.complete_s": sum(s["complete_s"] for s in sweeps) / count,
            "fabric.drain_s": sum(s["drain_s"] for s in sweeps) / count,
        }
    )
    return layers


def _sweeps(history, run_dir, expected, document, seconds, trace, minimum, first):
    """Sweeps until ``seconds`` of measured set-up and sweeping
    (``minimum`` at least)."""
    sweeps = []
    measured = 0.0
    index = first
    while len(sweeps) < minimum or measured < seconds:
        directory = run_dir / f"sweep-{index}"
        copy_history(history, directory, "ledger")
        fabric = Fabric(directory, trace)
        try:
            setup = fabric.start()
            outcome = fabric.sweep(document)
            fabric.close()
        except BaseException:
            fabric.kill()
            raise
        outcome["setup_s"] = setup
        outcome["stats"] = fabric.documents("stats")
        outcome["ledger"] = fabric.ledger
        outcome["keys"] = {spec.key() for spec in expected}
        outcome["problems"] += check(fabric, expected, outcome["sweep"])
        outcome["failed"] = min(
            len({problem.split(":")[0] for problem in outcome["problems"]}),
            len(expected),
        )
        # Point latency: POST /submit -> the point's result is published.
        outcome["points_s"] = [
            path.stat().st_mtime - outcome["wall"]
            for path in (fabric.store / f"{key}.json" for key in outcome["keys"])
            if path.is_file()
        ]
        outcome["rss_mb"] = sum(s["peak_rss_mb"] for s in outcome["stats"].values())
        outcome["attempted"] = len(expected)
        if trace:
            outcome["traces"] = fabric.documents("trace")
            for name, trace_data in outcome["traces"].items():
                role = name.split("-")[0]
                missing = [
                    probe
                    for probe in REQUIRED_PROBES[role]
                    if not trace_data["fired"].get(probe)
                ]
                if missing:
                    raise RuntimeError(
                        f"{name}: probes never fired: {', '.join(missing)}"
                    )
        else:
            shutil.rmtree(directory)
        sweeps.append(outcome)
        measured += setup + outcome["wall_s"]
        index += 1
    return sweeps


def run(seed: int, seconds: float, trace: bool, history, run_dir) -> dict:
    document = grid_document(seed)
    expected = reference(document, run_dir / "reference")
    if not trace:
        return _summary(
            _sweeps(history, run_dir, expected, document, seconds, False, MIN_SWEEPS, 0)
        )
    untraced = _sweeps(history, run_dir, expected, document, 0.0, False, TRACED_SWEEPS, 0)
    traced = _sweeps(
        history, run_dir, expected, document, 0.0, True, TRACED_SWEEPS, TRACED_SWEEPS
    )
    result = _summary(untraced)
    result["attempted"] += sum(sweep["attempted"] for sweep in traced)
    result["failed"] += sum(sweep["failed"] for sweep in traced)
    result["problems"] += [p for sweep in traced for p in sweep["problems"]]
    layers = _layers(traced)
    layers["trace.overhead_frac"] = (
        median([s["wall_s"] for s in traced])
        / median([s["wall_s"] for s in untraced])
        - 1.0
    )
    result["layers"] = layers
    return result


def _summary(sweeps: list[dict]) -> dict:
    # Point latencies are summarized per sweep, then the median is
    # taken across sweeps: a pooled percentile would follow the single
    # slowest sweep of the run.
    p50s = [median(sweep["points_s"]) for sweep in sweeps]
    tails = [percentile(sweep["points_s"], TAIL) for sweep in sweeps]
    return {
        "attempted": sum(sweep["attempted"] for sweep in sweeps),
        "failed": sum(sweep["failed"] for sweep in sweeps),
        "problems": [problem for sweep in sweeps for problem in sweep["problems"]],
        "setup_s": median([s["setup_s"] for s in sweeps]),
        "work_s": median([s["wall_s"] for s in sweeps]),
        "op_p50_ms": 1000.0 * median(p50s),
        "op_tail_ms": 1000.0 * median(tails),
        "op_tail_label": (
            f"p{round(100 * TAIL)} of each sweep's {GRID_POINTS} points, "
            f"median over {len(sweeps)} sweeps"
        ),
        "peak_rss_mb": median([s["rss_mb"] for s in sweeps]),
        "aliases": {
            "sweep_complete_s": median([s["complete_s"] for s in sweeps]),
            "sweep_wall_s": median([s["wall_s"] for s in sweeps]),
        },
        "samples": {
            name: [round(s[name], 4) for s in sweeps]
            for name in ("setup_s", "complete_s", "wall_s", "drain_s")
        },
    }
