"""``serve-read``: closed-loop reads against ``repro serve``.

Why: read-only, so the service's memoized index and ledger replay stay
warm and each route's own cost is isolated; beside ``fabric-sweep`` it
shows a service change that helps reads but costs reads beside writes,
and the two workloads cover both ledger layouts (this one serves the
default single-file ledger).  Two client threads, one persistent
HTTP/1.1 connection each, send their next GET as soon as the previous
one is answered, drawing from a fixed route mix over the 10^4-point
history.

The route mix follows the service's documented client flow (submit,
poll ``/progress?sweep=``, page ``/results``) for a reader of sweeps
that have finished: one session polls ``/progress?sweep=`` once (a
finished sweep answers complete at once), reads
``PAGES_PER_SESSION`` pages of ``PAGE_LIMIT`` results and opens
``PAYLOADS_PER_PAGE`` full payloads from each page; a monitor scrapes
``/metrics`` once every ``SESSIONS_PER_SCRAPE`` sessions.  The
requests are drawn independently at those rates.  ``/progress`` costs
an order of magnitude more server time than a page and is more than
1% of the mix, so ``op_tail_ms`` (p99) tracks the ``/progress``
route; ``op_p50_ms`` tracks pages and payloads.
"""

from __future__ import annotations

import json
import random
import threading
import time

from common import Child, Client, median, parse_prometheus, percentile
from fixture import copy_history, manifest

CLIENTS = 2
PAGE_LIMIT = 100
PAGES_PER_SESSION = 8
PAYLOADS_PER_PAGE = 2
SESSIONS_PER_SCRAPE = 8
#: Route mix of the closed loop: requests per SESSIONS_PER_SCRAPE
#: reader sessions (8 polls, 64 pages, 128 payloads, 1 scrape of 201).
ROUTE_MIX = (
    ("page", SESSIONS_PER_SCRAPE * PAGES_PER_SESSION),
    ("payload", SESSIONS_PER_SCRAPE * PAGES_PER_SESSION * PAYLOADS_PER_PAGE),
    ("progress", SESSIONS_PER_SCRAPE),
    ("metrics", 1),
)
#: Service launches per run; their median cold start is ``setup_s``.
SETUPS = 3
#: The time one unit of work is reported for: a round of this many GETs.
ROUND = 100
#: GETs measured per window however short ``--seconds`` is, so p99
#: has more than ten samples beyond it.
MIN_REQUESTS = 1010

RECORD = {
    "why": __doc__.split("Why: ")[1].split("\n\n")[0].replace("\n", " "),
    "busy_layers": [
        "distributed.service (routing, JSON encoding, HTTP)",
        "scenario.store (index sidecar pages, payload files)",
        "distributed.ledger (one cold replay, then stamp checks)",
    ],
    "bypassed_layers": [
        "coordinator, worker, protocol (no fabric)",
        "every engine tier (nothing executes)",
        "ledger appends and compaction (nothing is written)",
    ],
    "fixed_inputs": {
        "history": "10 prior sweeps, 10^4 points, single-file ledger",
        "ledger_layout": "single file",
        "clients": CLIENTS,
        "loop": "closed",
        "route_mix": dict(ROUTE_MIX),
        "route_mix_model": (
            f"per reader session: 1 /progress?sweep= poll, "
            f"{PAGES_PER_SESSION} pages, {PAYLOADS_PER_PAGE} payloads per "
            f"page; 1 /metrics scrape per {SESSIONS_PER_SCRAPE} sessions"
        ),
        "page_limit": PAGE_LIMIT,
        "min_requests": MIN_REQUESTS,
        "setups": SETUPS,
    },
}

REQUIRED_PROBES = (
    "repro.distributed.service:ResultsService.respond",
    "repro.distributed.service:replay_ledger",
    "repro.distributed.service:ledger_stamp",
    "repro.scenario.store:ResultIndex.entries",
    "repro.scenario.store:ResultIndex._rebuild",
)

#: ``/metrics`` route labels of the mix's routes.
_TEMPLATES = {
    "page": "/results",
    "payload": "/results/<key>",
    "progress": "/progress",
    "metrics": "/metrics",
}


class Service:
    """One ``repro serve`` launch over the run's history copy."""

    def __init__(self, directory, name: str, trace: bool) -> None:
        self.stats = directory / f"{name}.stats.json"
        self.trace = directory / f"{name}.trace.json" if trace else None
        options = ["--stats", str(self.stats)]
        if trace:
            options += ["--trace", str(self.trace)]
        self.child = Child(
            "service",
            "--store", str(directory / "store"),
            "--ledger", str(directory / "ledger.jsonl"),
            *options,
        )
        self.port = int(self.child.wait_line("PORT"))

    def cold_start(self, keys: list[str], sweeps: dict) -> float:
        """Seconds from launch until every route of the mix answered."""
        client = Client(self.port)
        try:
            for path in (
                f"/results?offset=0&limit={PAGE_LIMIT}",
                f"/results/{keys[0]}",
                f"/progress?sweep={next(iter(sweeps))}",
                "/metrics",
            ):
                status, _ = client.get(path)
                if status != 200:
                    raise RuntimeError(f"cold {path} answered {status}")
            return time.perf_counter() - self.child.started
        finally:
            client.close()

    def close(self) -> tuple[dict, dict | None]:
        """Stop it; its stats and (traced) spans."""
        self.child.stop()
        if self.child.wait(60.0) != 0:
            raise RuntimeError("service exited non-zero")
        stats = json.loads(self.stats.read_text())
        trace = json.loads(self.trace.read_text()) if self.trace else None
        return stats, trace


def _paths(rng: random.Random, keys: list[str], sweeps: list[str]):
    routes = [route for route, _ in ROUTE_MIX]
    weights = [weight for _, weight in ROUTE_MIX]
    while True:
        route = rng.choices(routes, weights)[0]
        if route == "page":
            offset = rng.randrange(len(keys) - PAGE_LIMIT)
            yield route, offset, f"/results?offset={offset}&limit={PAGE_LIMIT}"
        elif route == "payload":
            key = rng.choice(keys)
            yield route, key, f"/results/{key}"
        elif route == "progress":
            sweep = rng.choice(sweeps)
            yield route, sweep, f"/progress?sweep={sweep}"
        else:
            yield route, None, "/metrics"


def _verify(route, argument, status, body, keys, sweeps, payloads) -> str | None:
    if status != 200:
        return f"{route} {argument}: status {status}"
    if route == "page":
        page = json.loads(body)
        expected = keys[argument : argument + PAGE_LIMIT]
        if page["total"] != len(keys) or [
            entry["key"] for entry in page["results"]
        ] != expected:
            return f"page {argument}: entries differ from the store"
    elif route == "payload":
        if body != payloads(argument):
            return f"payload {argument[:12]}: bytes differ from the store"
    elif route == "progress":
        progress = json.loads(body)
        if not progress["complete"] or progress["done"] != sweeps[argument]:
            return f"progress {argument[:12]}: {progress}"
    elif b"repro_http_request_seconds" not in body:
        return "metrics: no request histogram"
    return None


def _histograms(client: Client) -> dict[str, tuple[float, float]]:
    """``route -> (sum seconds, count)`` of the program's histogram."""
    status, body = client.get("/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    sums: dict[str, list[float]] = {}
    for (name, labels), value in parse_prometheus(body.decode()):
        if name in (
            "repro_http_request_seconds_sum",
            "repro_http_request_seconds_count",
        ):
            slot = 0 if name.endswith("_sum") else 1
            sums.setdefault(labels["route"], [0.0, 0.0])[slot] = value
    return {route: (pair[0], pair[1]) for route, pair in sums.items()}


def _closed_loop(port: int, seed: int, seconds: float, keys, sweeps):
    """Every request of the timed window: (route, arg, status, body, latency)."""
    done: list[list] = [[] for _ in range(CLIENTS)]
    deadline = [0.0]
    start_line = threading.Barrier(CLIENTS + 1)
    sweep_ids = sorted(sweeps)

    def client_loop(index: int) -> None:
        client = Client(port)
        paths = _paths(random.Random(f"{seed}:{index}"), keys, sweep_ids)
        start_line.wait()
        try:
            while time.perf_counter() < deadline[0] or (
                sum(map(len, done)) < MIN_REQUESTS
            ):
                route, argument, path = next(paths)
                started = time.perf_counter()
                status, body = client.get(path)
                done[index].append(
                    (route, argument, status, body, time.perf_counter() - started)
                )
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    deadline[0] = began + seconds
    start_line.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    return [request for requests in done for request in requests], elapsed


def _window(port: int, seed: int, seconds: float, keys, sweeps):
    """The timed closed loop, bracketed by two ``/metrics`` scrapes."""
    client = Client(port)
    try:
        before = _histograms(client)
        wall = time.time()
        requests, elapsed = _closed_loop(port, seed, seconds, keys, sweeps)
        window = (wall, time.time())
        after = _histograms(client)
    finally:
        client.close()
    program = {}
    for route, template in _TEMPLATES.items():
        total, count = after.get(template, (0.0, 0.0))
        total -= before.get(template, (0.0, 0.0))[0]
        count -= before.get(template, (0.0, 0.0))[1]
        if count > 0:
            program[route] = 1000.0 * total / count
    return requests, elapsed, window, program


def _by_route(requests) -> dict[str, float]:
    latencies: dict[str, list[float]] = {}
    for route, _, _, _, latency in requests:
        latencies.setdefault(route, []).append(latency)
    return {
        route: 1000.0 * sum(values) / len(values)
        for route, values in latencies.items()
    }


def _layers(trace: dict, window, requests, untraced_requests) -> dict[str, float]:
    from layers import Totals, mean_ms

    inside, launch = Totals(), Totals()
    inside.add(trace, window)
    launch.add(trace)
    served = sum(inside.incl_s[f"service.{route}"] for route, _ in ROUTE_MIX)
    calls = sum(inside.calls[f"service.{route}"] for route, _ in ROUTE_MIX)
    client = sum(request[4] for request in requests)
    lookups = inside.calls["service.ledger_stamp"] + inside.calls["store.index_entries"]
    misses = inside.calls["service.replay"] + inside.calls["store.index_rebuild"]
    untraced = sum(request[4] for request in untraced_requests)
    return {
        "service.page_ms": mean_ms(inside, "service.page"),
        "service.payload_ms": mean_ms(inside, "service.payload"),
        "service.progress_ms": mean_ms(inside, "service.progress"),
        "service.metrics_ms": mean_ms(inside, "service.metrics"),
        "service.http_ms": 1000.0 * (client / len(requests) - served / calls),
        "service.memo_hit_frac": 1.0 - misses / lookups,
        "service.replays": launch.calls["service.replay"],
        "service.replay_s": launch.self_s["service.replay"],
        "store.index_rebuilds": launch.calls["store.index_rebuild"],
        "trace.overhead_frac": (client / len(requests))
        / (untraced / len(untraced_requests))
        - 1.0,
    }


def run(seed: int, seconds: float, trace: bool, history, run_dir) -> dict:
    directory = run_dir / "serve"
    copy_history(history, directory, "ledger.jsonl")
    sweeps = manifest(history)["sweeps"]
    keys = sorted(
        entry.name[: -len(".json")]
        for entry in (directory / "store").iterdir()
        if entry.name.endswith(".json")
    )
    launched: list[Service] = []

    def launch(name: str, traced: bool) -> Service:
        service = Service(directory, name, traced)
        launched.append(service)
        return service

    try:
        setups = []
        for index in range(SETUPS):
            service = launch(f"service-{index}", False)
            setups.append(service.cold_start(keys, sweeps))
            if index < SETUPS - 1:
                service.close()
        requests, elapsed, _, program = _window(
            service.port, seed, seconds, keys, sweeps
        )
        stats, _ = service.close()
        traced_requests: list = []
        if trace:
            service = launch("service-traced", True)
            service.cold_start(keys, sweeps)
            traced_requests, _, window, traced_program = _window(
                service.port, seed, seconds, keys, sweeps
            )
            _, spans = service.close()
            missing = [p for p in REQUIRED_PROBES if not spans["fired"].get(p)]
            if missing:
                raise RuntimeError(f"probes never fired: {', '.join(missing)}")
    except BaseException:
        for service in launched:
            service.child.kill()
        raise
    payloads: dict[str, bytes] = {}

    def payload(key: str) -> bytes:
        if key not in payloads:
            payloads[key] = (directory / "store" / f"{key}.json").read_bytes()
        return payloads[key]

    problems = []
    for route, argument, status, body, _ in requests + traced_requests:
        problem = _verify(route, argument, status, body, keys, sweeps, payload)
        if problem is not None:
            problems.append(problem)
    latencies = [request[4] for request in requests]
    rps = len(requests) / elapsed
    client_ms = _by_route(requests)
    result = {
        "attempted": len(requests) + len(traced_requests),
        "failed": len(problems),
        "problems": problems,
        "setup_s": median(setups),
        "work_s": ROUND / rps,
        "op_p50_ms": 1000.0 * median(latencies),
        "op_tail_ms": 1000.0 * percentile(latencies, 0.99),
        "op_tail_label": f"p99 of {len(latencies)} GETs",
        "peak_rss_mb": stats["peak_rss_mb"],
        "aliases": {
            "read_rps": rps,
            "read_p50_ms": 1000.0 * median(latencies),
            "read_p99_ms": 1000.0 * percentile(latencies, 0.99),
        },
        "cross_check": [
            (
                f"repro_http_request_seconds{{route={_TEMPLATES[route]!r}}} mean ms",
                program.get(route, 0.0),
                f"client {route} mean ms",
                client_ms.get(route, 0.0),
            )
            for route, _ in ROUTE_MIX
        ],
    }
    if trace:
        layers = _layers(spans, window, traced_requests, requests)
        result["layers"] = layers
        result["cross_check"] += [
            (
                f"repro_http_request_seconds{{route={_TEMPLATES[route]!r}}} mean ms",
                traced_program.get(route, 0.0),
                f"service.{route}_ms",
                layers[f"service.{route}_ms"],
            )
            for route, _ in ROUTE_MIX
        ]
    return result
