"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload engine-mix --seed 1 --seconds 25 --trace 0

Workloads (``--workload``):

* ``engine-mix``   -- serial in-process ``execute_spec`` over a fixed
  point mix (``engine_mix.py``);
* ``fabric-sweep`` -- one submitted sweep through a resident service +
  watch coordinator + two workers (``fabric_sweep.py``);
* ``serve-read``   -- closed-loop reads against ``repro serve``
  (``serve_read.py``).

``--seed`` generates the workload's inputs, ``--seconds`` is how long
the measured part runs (each workload also has a minimum amount of
work per run).  Every run checks the program's outputs; failures are
counted against the points or requests attempted.

``--trace 0`` reports the end-to-end metrics, measured with no probe
installed and ``$REPRO_TELEMETRY``/``$REPRO_FAULTS`` unset:

==============  ====  ===================================================
``setup_s``     s     cold start to ready (median of several per run)
``work_s``      s     wall time of one unit of the workload's work, as a
                      user waits for it: one pass over the mix; one sweep
                      from POST /submit until it is complete, the
                      coordinator stopped and every worker exited; one
                      round of 100 GETs (100 / requests per second)
``op_p50_ms``   ms    median latency of one operation: a point's
                      ``execute_spec`` (median within each pass, then
                      across passes); a point from POST /submit to its
                      published result (median within each sweep, then
                      across sweeps); one GET
``op_tail_ms``  ms    the tail of the same latencies, at a percentile
                      with >= 10 samples beyond it: p90 of a
                      run's >= 108 points on engine-mix, p97 of each
                      sweep's 1000 points (median across sweeps) on
                      fabric-sweep, p99 of >= 1010 GETs on serve-read
``peak_rss_mb`` MB    peak RSS summed over the program's processes; on
                      engine-mix the measuring process's, read after a
                      fixed number of passes
==============  ====  ===================================================

``--trace 1`` runs the same workload untraced and then traced, with
the probes of ``probes.py`` installed in every program process, and
reports the per-layer table of ``layers.py`` instead; it prints a
per-layer diff against ``baseline.json`` and the program's own
instrumentation beside the benchmark's numbers.  The last line of
stdout is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

import common

END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
WORKLOADS = ("engine-mix", "fabric-sweep", "serve-read")
BASELINE = pathlib.Path(__file__).resolve().parent / "baseline.json"


def _module(workload: str):
    import engine_mix
    import fabric_sweep
    import serve_read

    return {
        "engine-mix": engine_mix,
        "fabric-sweep": fabric_sweep,
        "serve-read": serve_read,
    }[workload]


def _print_layers(workload: str, layers: dict[str, float]) -> None:
    from layers import PER_LAYER

    baseline = {}
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text())["layers"].get(workload, {})
    print(f"\nper-layer ({workload}; diff against {BASELINE.name}):")
    print(f"  {'metric':<26} {'value':>12} {'baseline':>12} {'change':>8}  unit   moves")
    for name, unit, _, moves in PER_LAYER:
        value = layers[name]
        base = baseline.get(name)
        if base is None:
            change = "new"
        elif base == 0.0:
            change = "=" if value == 0.0 else "from 0"
        else:
            change = f"{100.0 * (value - base) / abs(base):+.1f}%"
        shown = "-" if base is None else f"{base:.6g}"
        print(f"  {name:<26} {value:>12.6g} {shown:>12} {change:>8}  {unit:<6} {moves}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    common.use_sources()
    import fixture
    from layers import PER_LAYER, complete

    history = fixture.ensure_history()
    module = _module(arguments.workload)
    print(f"workload {arguments.workload}: {json.dumps(module.RECORD, indent=1)}")
    run_dir = common.WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        outcome = module.run(
            arguments.seed,
            arguments.seconds,
            bool(arguments.trace),
            history,
            run_dir,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in outcome["problems"][:20]:
        print(f"FAILED CHECK {problem}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"\nend-to-end ({arguments.workload}, seed {arguments.seed}):")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {outcome[name]:>12.6g} {unit}")
    print(f"  {'op tail':<12} {outcome['op_tail_label']}")
    for name, value in outcome["aliases"].items():
        print(f"  {name:<16} {value:>12.6g}   (alias)")
    print(f"  failed_frac      {failed / attempted:>12.6g}   ({failed} of {attempted})")
    for name, values in outcome.get("samples", {}).items():
        print(f"  samples {name}: {values}")
    for program, program_value, ours, our_value in outcome.get("cross_check", []):
        print(
            f"  cross-check {program} = {program_value:.6g} | "
            f"{ours} = {our_value:.6g} | gap {our_value - program_value:+.6g}"
        )
    if arguments.trace:
        layers = complete(outcome["layers"])
        _print_layers(arguments.workload, layers)
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": outcome[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
