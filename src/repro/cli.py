"""Command-line interface: ``python -m repro <experiment>``.

Regenerates any table or figure of the paper on the console and,
optionally, as CSV artifacts for external plotting::

    python -m repro table1
    python -m repro figure5 --out results/
    python -m repro all

The ``scenario`` subcommand drives the declarative scenario subsystem::

    python -m repro scenario list
    python -m repro scenario run examples/scenarios/strong_batch.json
    python -m repro scenario sweep examples/scenarios/cross_product.toml \
        --workers 4 --stream results/grid.jsonl
    python -m repro scenario report --name cross_product

The distributed fabric spans hosts: a coordinator owns the durable job
queue, any number of workers (anywhere) execute points, and an HTTP
service reads the shared result store::

    python -m repro sweep-coordinator examples/scenarios/cross_product.toml \
        --port 7641
    python -m repro worker --host coordinator.example --port 7641   # xN
    python -m repro serve --port 8080

With ``--watch`` the coordinator becomes a resident service fed by
``POST /submit`` on ``repro serve`` (both tailing the same ledger)::

    python -m repro sweep-coordinator --watch --port 7641
    python -m repro serve --port 8080
    curl -X POST -H 'Content-Type: application/toml' \
        --data-binary @examples/scenarios/cross_product.toml \
        http://localhost:8080/submit

``repro trace <sweep-id>`` joins the ledger with the span telemetry
(``$REPRO_TELEMETRY``) into a per-point timeline of a submitted sweep.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.analysis import ablations
from repro.analysis import figure3 as fig3
from repro.analysis import figure4 as fig4
from repro.analysis import figure5 as fig5
from repro.analysis import table1 as tab1
from repro.analysis import table2 as tab2
from repro.analysis.io import write_csv
from repro.analysis.tables import render_table

EXPERIMENTS = ("figure3", "figure4", "figure5", "table1", "table2", "ablations")

#: ``report`` reruns everything and writes one markdown document; it is
#: not part of ``all`` to keep that invocation non-redundant.
EXTRA_EXPERIMENTS = ("report",)


def _run_figure3(arguments) -> str:
    out = arguments.out
    cells = fig3.compute_figure3()
    checks = fig3.shape_checks(cells)
    if out is not None:
        write_csv(
            out / "figure3.csv",
            ["k", "initial", "d", "mu", "E(T_S)", "E(T_P)"],
            [
                [c.k, c.initial, c.d, c.mu, c.expected_safe, c.expected_polluted]
                for c in cells
            ],
        )
    return fig3.render_figure3(cells) + "\n\nshape checks: " + str(checks)


def _run_figure4(arguments) -> str:
    out = arguments.out
    cells = fig4.compute_figure4()
    checks = fig4.shape_checks(cells)
    if out is not None:
        write_csv(
            out / "figure4.csv",
            ["initial", "d", "mu", "p_safe_merge", "p_safe_split", "p_polluted_merge"],
            [
                [
                    c.initial,
                    c.d,
                    c.mu,
                    c.p_safe_merge,
                    c.p_safe_split,
                    c.p_polluted_merge,
                ]
                for c in cells
            ],
        )
    return fig4.render_figure4(cells) + "\n\nshape checks: " + str(checks)


def _run_figure5(arguments) -> str:
    out = arguments.out
    curves = fig5.compute_figure5()
    checks = fig5.shape_checks(curves)
    if out is not None:
        for curve in curves:
            name = f"figure5_n{curve.n_clusters}_d{round(100 * curve.d)}.csv"
            write_csv(
                out / name,
                ["events", "safe_fraction", "polluted_fraction"],
                list(
                    zip(
                        curve.series.events.tolist(),
                        curve.series.safe_fraction.tolist(),
                        curve.series.polluted_fraction.tolist(),
                    )
                ),
            )
    return fig5.render_figure5(curves) + "\n\nshape checks: " + str(checks)


def _run_table1(arguments) -> str:
    out = arguments.out
    cells = tab1.compute_table1()
    if out is not None:
        write_csv(
            out / "table1.csv",
            ["mu", "d", "E(T_S)", "E(T_P)", "paper_E(T_S)", "paper_E(T_P)"],
            [
                [
                    c.mu,
                    c.d,
                    c.expected_safe,
                    c.expected_polluted,
                    c.paper_safe,
                    c.paper_polluted,
                ]
                for c in cells
            ],
        )
    gap = tab1.max_relative_gap(cells)
    return (
        tab1.render_table1(cells)
        + f"\n\nmax relative gap vs published cells: {100 * gap:.2f}%"
    )


def _run_table2(arguments) -> str:
    out = arguments.out
    rows = tab2.compute_table2()
    if out is not None:
        write_csv(
            out / "table2.csv",
            [
                "mu",
                "E(T_S,1)",
                "E(T_S,2)",
                "E(T_P,1)",
                "E(T_P,2)",
                "E(T_S)",
                "E(T_P)",
            ],
            [
                [
                    r.mu,
                    r.safe_first,
                    r.safe_second,
                    r.polluted_first,
                    r.polluted_second,
                    r.total_safe,
                    r.total_polluted,
                ]
                for r in rows
            ],
        )
    negligible = tab2.alternation_is_negligible(rows)
    return (
        tab2.render_table2(rows)
        + f"\n\nfirst sojourn carries the mass: {negligible}"
    )


def _run_ablations(arguments) -> str:
    out = arguments.out
    adversaries = tuple(
        name.strip()
        for name in getattr(
            arguments, "adversaries", "strong,passive,greedy-leave"
        ).split(",")
        if name.strip()
    )
    k_points = ablations.compute_k_sweep()
    nu_points = ablations.compute_nu_sweep()
    join_points = ablations.compute_join_policy_ablation()
    comparisons = ablations.compare_adversaries(adversaries=adversaries)
    if out is not None:
        write_csv(
            out / "ablation_k.csv",
            ["k", "E(T_S)", "E(T_P)", "p_polluted_merge"],
            [
                [p.k, p.expected_safe, p.expected_polluted, p.p_polluted_merge]
                for p in k_points
            ],
        )
        write_csv(
            out / "ablation_nu.csv",
            ["nu", "E(T_P)", "p_polluted_merge"],
            [[p.nu, p.expected_polluted, p.p_polluted_merge] for p in nu_points],
        )
    sections = [
        ablations.render_k_sweep(k_points, mu=0.20, d=0.90),
        f"k=1 minimizes E(T_P): {ablations.k1_dominates(k_points)}",
        ablations.render_nu_sweep(nu_points, k=7, mu=0.20, d=0.90),
        ablations.render_join_policy_ablation(join_points),
        (
            "spare-first join dominates: "
            f"{ablations.spare_first_dominates(join_points)}"
        ),
        ablations.render_adversary_comparison(comparisons),
    ]
    return "\n\n".join(sections)


def _run_report(arguments) -> str:
    from repro.analysis.report import build_sections, render_report

    out = arguments.out
    sections = build_sections()
    text = render_report(sections)
    if out is not None:
        target = out / "report.md"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        return f"report written to {target}"
    return text


_RUNNERS = {
    "figure3": _run_figure3,
    "figure4": _run_figure4,
    "figure5": _run_figure5,
    "table1": _run_table1,
    "table2": _run_table2,
    "ablations": _run_ablations,
    "report": _run_report,
}


# -- scenario subcommand -----------------------------------------------------

def _metrics_line(metrics: dict[str, float], limit: int = 6) -> str:
    """First ``limit`` metrics as ``key=value`` tokens.

    Per-operation ``op:*`` metrics are noise at sweep-table granularity,
    so they only fill slots left over after every summary metric (the
    sort is stable, so each group keeps its insertion order).  A spec
    whose metrics are *all* per-operation still renders them instead of
    an empty cell -- previously the filter dropped them whenever the
    dict was larger than ``limit``, regardless of what else it held.
    """
    ordered = sorted(metrics, key=lambda key: key.startswith("op:"))
    parts = []
    for key in ordered[:limit]:
        value = metrics[key]
        rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
        parts.append(f"{key}={rendered}")
    return " ".join(parts)


def _run_scenario_report(arguments) -> int:
    """Render cached sweep results as one aligned text table."""
    from repro.scenario.report import collect_records, sweep_report

    stream = getattr(arguments, "stream", None)
    records = collect_records(
        cache_dir=arguments.cache_dir, stream_path=stream
    )
    source = stream if stream else arguments.cache_dir
    text = sweep_report(
        records,
        name=getattr(arguments, "name", None),
        metrics=getattr(arguments, "metrics", None),
        source=str(source),
    )
    if text is None:
        print("no cached results match")
        return 1
    print(text)
    return 0


def _run_scenario(arguments) -> int:
    from repro.scenario import backends  # noqa: F401 -- populate ENGINES
    from repro.scenario import (
        ADVERSARIES,
        CHURN_MODELS,
        ENGINES,
        SweepSpec,
        load_scenario,
    )
    from repro.scenario.runner import SweepRunner, list_cached

    if arguments.action == "report":
        return _run_scenario_report(arguments)
    cache_dir = None if arguments.no_cache else arguments.cache_dir
    if arguments.action == "list":
        print("engines:     " + ", ".join(ENGINES.names()))
        print("adversaries: " + ", ".join(ADVERSARIES.names()))
        print("churn:       " + ", ".join(CHURN_MODELS.names()))
        entries = list_cached(arguments.cache_dir)
        if entries:
            rows = [
                [
                    entry["name"],
                    entry["engine"],
                    entry["adversary"],
                    entry["churn"],
                    entry["key"][:12],
                ]
                for entry in entries
            ]
            print()
            print(
                render_table(
                    ["scenario", "engine", "adversary", "churn", "key"],
                    rows,
                    title=f"cached results under {arguments.cache_dir}",
                )
            )
        else:
            print(f"\nno cached results under {arguments.cache_dir}")
        return 0

    document = load_scenario(arguments.spec_file)
    runner = SweepRunner(
        workers=getattr(arguments, "workers", 0), cache_dir=cache_dir
    )
    if arguments.action == "run":
        if isinstance(document, SweepSpec):
            print(
                f"{arguments.spec_file} declares sweep axes; "
                "use 'repro scenario sweep'"
            )
            return 2
        result = runner.run(document)
        print(f"scenario: {result.name}")
        print(f"engine:   {result.engine}")
        print(f"key:      {result.key}")
        print(f"cached:   {runner.cache_hits > 0}")
        for key, value in result.metrics.items():
            print(f"  {key} = {value:.10g}")
        return 0

    # sweep
    specs = (
        document.expand()
        if isinstance(document, SweepSpec)
        else [document]
    )
    results = runner.sweep(
        specs, stream_path=getattr(arguments, "stream", None)
    )
    rows = [
        [
            result.name,
            result.engine,
            result.meta.get("adversary", "?"),
            result.meta.get("churn", "?"),
            _metrics_line(result.metrics),
        ]
        for result in results
    ]
    print(
        render_table(
            ["scenario", "engine", "adversary", "churn", "metrics"],
            rows,
            title=(
                f"sweep of {len(results)} points "
                f"({runner.cache_hits} cached, {runner.cache_misses} computed)"
            ),
        )
    )
    return 0


# -- distributed fabric ------------------------------------------------------

def _run_coordinator(arguments) -> int:
    """``repro sweep-coordinator``: serve a sweep's durable job queue."""
    from repro.distributed.coordinator import SweepCoordinator
    from repro.scenario.spec import SweepSpec, load_scenario

    if (
        arguments.spec_file is None
        and not arguments.watch
        and not arguments.ledger.exists()
    ):
        # No grid, no inbox, nothing to resume: refuse loudly.  With
        # an existing ledger the coordinator adopts its scheduled
        # points and exits when they drain -- the one-shot recovery
        # invocation after a crash.
        print(
            "sweep-coordinator needs a spec file, an existing "
            "--ledger to resume, or --watch to serve submitted sweeps"
        )
        return 2
    specs = []
    if arguments.spec_file is not None:
        document = load_scenario(arguments.spec_file)
        specs = (
            document.expand()
            if isinstance(document, SweepSpec)
            else [document]
        )
    coordinator = SweepCoordinator(
        specs,
        cache_dir=arguments.cache_dir,
        ledger_path=arguments.ledger,
        host=arguments.host,
        port=arguments.port,
        lease_timeout=(
            arguments.lease_timeout if arguments.lease_timeout > 0 else None
        ),
        watch=arguments.watch,
        compact_tail_bytes=(
            arguments.compact_threshold
            if arguments.compact_threshold > 0
            else None
        ),
    )

    def announce() -> None:
        coordinator.ready.wait()
        mode = " (watching for submissions)" if arguments.watch else ""
        print(
            f"coordinator: {len(specs)} points on "
            f"{arguments.host}:{coordinator.port}{mode} "
            f"(ledger: {arguments.ledger}, cache: {arguments.cache_dir})",
            flush=True,
        )

    import threading

    threading.Thread(target=announce, daemon=True).start()
    try:
        summary = coordinator.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted; pending points remain in the ledger")
        return 130
    print(
        f"sweep complete: {summary['done']}/{summary['total']} done "
        f"({summary['computed']} computed, "
        f"{summary['from_cache']} from cache, "
        f"{summary['resumed_from_ledger']} resumed, "
        f"{len(summary['failed'])} failed) "
        f"in {summary['elapsed_seconds']:.2f}s"
    )
    for worker, count in sorted(summary["workers"].items()):
        print(f"  {worker}: {count} points")
    for key, error in sorted(summary["failed"].items()):
        print(f"  FAILED {key[:12]}: {error}")
    return 1 if summary["failed"] or summary["pending"] else 0


def _run_worker_command(arguments) -> int:
    """``repro worker``: claim and execute points from a coordinator."""
    from repro.distributed.protocol import ProtocolError
    from repro.distributed.worker import run_worker

    try:
        stats = run_worker(
            arguments.host,
            arguments.port,
            worker_id=arguments.id,
            max_points=arguments.max_points,
            connect_timeout=arguments.connect_timeout,
            heartbeat_every=arguments.heartbeat_every,
            store_dir=arguments.store_dir,
            reconnect_timeout=arguments.reconnect_timeout,
        )
    except (ProtocolError, ValueError) as error:
        print(f"worker error: {error}")
        return 1
    except OSError as error:
        # The initial connect window closed without ever reaching a
        # coordinator: a clean diagnostic, not a traceback -- the
        # supervisor restarting this worker needs the exit code and
        # the address, nothing else.
        print(
            f"worker error: never connected to "
            f"{arguments.host}:{arguments.port} within "
            f"{arguments.connect_timeout:.0f}s ({error})"
        )
        return 1
    print(
        f"worker {stats['worker']}: {stats['executed']} points executed, "
        f"{stats['failed']} failed"
    )
    # A supervisor must see point failures: healthy exit means every
    # executed point was stored.
    return 1 if stats["failed"] else 0


def _run_serve(arguments) -> int:
    """``repro serve``: HTTP service over the result store + ledger."""
    from repro.distributed.service import ResultsService

    service = ResultsService(
        arguments.cache_dir,
        ledger_path=arguments.ledger,
        host=arguments.host,
        port=arguments.port,
        auth_token=arguments.auth_token,
        max_backlog=(
            arguments.max_backlog if arguments.max_backlog > 0 else None
        ),
    )
    print(
        f"serving {arguments.cache_dir} on "
        f"http://{arguments.host}:{service.port} "
        "(/healthz /progress /results /results/<key> /report; "
        "POST /submit /cancel)",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        service.close()
    return 0


def _run_trace(arguments) -> int:
    """``repro trace``: reconstruct one sweep's per-point timeline."""
    from repro.obs.timeline import build_timeline, render_timeline
    from repro.obs.trace import telemetry_dir

    telemetry = arguments.telemetry
    if telemetry is None:
        telemetry = telemetry_dir()
    if not arguments.ledger.exists():
        print(f"no ledger at {arguments.ledger}")
        return 2
    try:
        timeline = build_timeline(
            arguments.sweep, arguments.ledger, telemetry
        )
    except KeyError as error:
        print(error.args[0] if error.args else str(error))
        return 1
    print(
        render_timeline(
            timeline,
            slow=arguments.slow if arguments.slow > 0 else None,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Modeling and "
            "Evaluating Targeted Attacks in Large Scale Dynamic Systems' "
            "(DSN 2011), or run declarative scenarios."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="experiment",
        help="which artifact to regenerate (or 'scenario')",
    )
    for name in EXPERIMENTS + EXTRA_EXPERIMENTS + ("all",):
        experiment = subparsers.add_parser(name)
        experiment.add_argument(
            "--out",
            type=pathlib.Path,
            default=None,
            help="directory for CSV artifacts (omit to print only)",
        )
        if name in ("ablations", "all"):
            experiment.add_argument(
                "--adversaries",
                default="strong,passive,greedy-leave",
                help=(
                    "comma-separated adversary registry names for the "
                    "agent-based comparison"
                ),
            )

    from repro.scenario.runner import DEFAULT_CACHE_DIR

    scenario = subparsers.add_parser(
        "scenario", help="declarative scenario runner"
    )
    actions = scenario.add_subparsers(
        dest="action", required=True, metavar="action"
    )
    for action in ("run", "sweep", "list", "report"):
        sub = actions.add_parser(action)
        if action in ("run", "sweep"):
            sub.add_argument(
                "spec_file",
                type=pathlib.Path,
                help="scenario spec (.json or .toml)",
            )
            sub.add_argument(
                "--no-cache",
                action="store_true",
                help="recompute even when a cached result exists",
            )
        else:
            sub.set_defaults(no_cache=False)
        sub.add_argument(
            "--cache-dir",
            type=pathlib.Path,
            default=DEFAULT_CACHE_DIR,
            help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
        )
        if action == "sweep":
            sub.add_argument(
                "--workers",
                type=int,
                default=0,
                help="worker processes for grid fan-out (0 = in-process)",
            )
            sub.add_argument(
                "--stream",
                type=pathlib.Path,
                default=None,
                help=(
                    "append every result to this JSONL file as it "
                    "completes (for grids too large to buffer)"
                ),
            )
        if action == "report":
            sub.add_argument(
                "--name",
                default=None,
                help="only report scenarios whose name contains this",
            )
            sub.add_argument(
                "--metrics",
                default=None,
                help="comma-separated metric columns (default: first 6)",
            )
            sub.add_argument(
                "--stream",
                type=pathlib.Path,
                default=None,
                help="read results from a sweep JSONL file instead of "
                "the cache directory",
            )

    # -- distributed fabric --------------------------------------------------
    default_ledger = DEFAULT_CACHE_DIR / "sweep-ledger.jsonl"

    coordinator = subparsers.add_parser(
        "sweep-coordinator",
        help="serve a sweep's durable job queue to repro workers",
    )
    coordinator.add_argument(
        "spec_file",
        type=pathlib.Path,
        nargs="?",
        default=None,
        help=(
            "scenario or sweep spec (.json or .toml); optional with "
            "--watch (submitted sweeps arrive via the ledger) or with "
            "an existing --ledger (resume its scheduled points)"
        ),
    )
    coordinator.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    coordinator.add_argument(
        "--port",
        type=int,
        default=7641,
        help="bind port (0 = pick a free port)",
    )
    coordinator.add_argument(
        "--ledger",
        type=pathlib.Path,
        default=default_ledger,
        help=f"durable JSONL job ledger (default: {default_ledger})",
    )
    coordinator.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=DEFAULT_CACHE_DIR,
        help=f"shared result store (default: {DEFAULT_CACHE_DIR})",
    )
    coordinator.add_argument(
        "--lease-timeout",
        type=float,
        default=600.0,
        help=(
            "seconds a claimed point may go without a heartbeat before "
            "it is requeued (0 disables lease timeouts; default: 600)"
        ),
    )
    coordinator.add_argument(
        "--watch",
        action="store_true",
        help=(
            "stay resident after the queue drains and execute sweeps "
            "submitted via 'repro serve' POST /submit on the same ledger"
        ),
    )
    coordinator.add_argument(
        "--compact-threshold",
        type=int,
        default=0,
        help=(
            "compact a sharded ledger (--ledger pointing at a "
            "directory) once its shard tail exceeds this many bytes "
            "(0 disables; default: 0)"
        ),
    )

    worker = subparsers.add_parser(
        "worker", help="claim and execute sweep points from a coordinator"
    )
    worker.add_argument(
        "--host", default="127.0.0.1", help="coordinator address"
    )
    worker.add_argument(
        "--port", type=int, default=7641, help="coordinator port"
    )
    worker.add_argument(
        "--id", default=None, help="worker id (default: <hostname>-<pid>)"
    )
    worker.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="disconnect after this many points (default: until shutdown)",
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to retry the initial connection",
    )
    worker.add_argument(
        "--heartbeat-every",
        type=float,
        default=15.0,
        help="seconds between mid-point heartbeats (must be > 0)",
    )
    worker.add_argument(
        "--store-dir",
        type=pathlib.Path,
        default=None,
        help=(
            "shared result store this worker can write directly "
            "(publish results itself and send slim RESULT-REF frames "
            "instead of shipping payloads; default: off)"
        ),
    )
    worker.add_argument(
        "--reconnect-timeout",
        type=float,
        default=60.0,
        help=(
            "seconds to retry the connection after the coordinator "
            "drops it -- workers ride out a coordinator restart "
            "(0 = exit on disconnect; default: 60)"
        ),
    )

    serve = subparsers.add_parser(
        "serve", help="HTTP service over cached sweep results"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 = pick a free port)",
    )
    serve.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=DEFAULT_CACHE_DIR,
        help=f"result store to serve (default: {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--ledger",
        type=pathlib.Path,
        default=default_ledger,
        help="job ledger backing /progress "
        f"(default: {default_ledger})",
    )
    serve.add_argument(
        "--auth-token",
        default=None,
        help=(
            "require 'Authorization: Bearer <token>' on POST /submit "
            "and /cancel (default: open)"
        ),
    )
    serve.add_argument(
        "--max-backlog",
        type=int,
        default=0,
        help=(
            "answer POST /submit with 503 + Retry-After while the "
            "ledger holds this many unfinished points "
            "(0 disables; default: 0)"
        ),
    )

    trace = subparsers.add_parser(
        "trace",
        help=(
            "reconstruct one submitted sweep's per-point timeline from "
            "the ledger and the span telemetry"
        ),
    )
    trace.add_argument(
        "sweep", help="sweep id (or any unambiguous prefix)"
    )
    trace.add_argument(
        "--ledger",
        type=pathlib.Path,
        default=default_ledger,
        help=f"job ledger to replay (default: {default_ledger})",
    )
    trace.add_argument(
        "--telemetry",
        type=pathlib.Path,
        default=None,
        help=(
            "span JSONL directory written by instrumented processes "
            "(default: $REPRO_TELEMETRY; timelines degrade to "
            "ledger-only columns without it)"
        ),
    )
    trace.add_argument(
        "--slow",
        type=int,
        default=0,
        help="show only the N slowest points by total wall time",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    arguments = build_parser().parse_args(argv)
    if arguments.experiment == "scenario":
        return _run_scenario(arguments)
    if arguments.experiment == "sweep-coordinator":
        return _run_coordinator(arguments)
    if arguments.experiment == "worker":
        return _run_worker_command(arguments)
    if arguments.experiment == "serve":
        return _run_serve(arguments)
    if arguments.experiment == "trace":
        return _run_trace(arguments)
    names = EXPERIMENTS if arguments.experiment == "all" else (arguments.experiment,)
    for name in names:
        print(f"=== {name} ===")
        print(_RUNNERS[name](arguments))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
