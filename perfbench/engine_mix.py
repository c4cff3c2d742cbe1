"""``engine-mix``: serial in-process ``execute_spec`` over a fixed point mix.

Why: the engines do nearly all the work and no fabric code runs, so
this is where an engine-tier change (session kind-law materialization,
row assembly, skip sampling, summary reduction) shows end to end.
Every point of every pass gets parameters of its own (``mu`` nudged by
a few 1e-9), so each pass pays chain and row assembly per point as a
real grid does, while the work per pass stays the same.
"""

from __future__ import annotations

import math
import resource
import time

from common import Child, median, parse_prometheus, percentile

#: The paper's base point (C = 7, Delta = 7, k = 1) under attack.
BASE_PARAMS = {"core_size": 7, "spare_max": 7, "k": 1, "mu": 0.2, "d": 0.9}

#: (label, spec fields, check).  ``closed-form``: the batch estimate
#: must sit within Z_BAND standard errors of ClusterModel's closed
#: forms; ``finite``: finite metrics, absorption probabilities <= 1;
#: ``fractions``: finite occupancy fractions in [0, 1].
MIX = (
    ("batch-default-delta", {"engine": "batch", "runs": 4000}, "closed-form"),
    (
        "batch-default-beta",
        {"engine": "batch", "runs": 4000, "initial": "beta", "params": {"k": 7}},
        "closed-form",
    ),
    (
        "batch-passive-poisson",
        {"engine": "batch", "runs": 4000, "adversary": "passive", "churn": "poisson"},
        "finite",
    ),
    (
        "batch-greedy-poisson",
        {
            "engine": "batch",
            "runs": 4000,
            "adversary": "greedy-leave",
            "churn": "poisson",
        },
        "finite",
    ),
    (
        "batch-exponential-sessions",
        {
            "engine": "batch",
            "runs": 2000,
            "churn": "exponential-sessions",
            "churn_options": {"horizon": 100_000.0},
        },
        "finite",
    ),
    (
        "batch-pareto-sessions",
        {
            "engine": "batch",
            "runs": 2000,
            "churn": "pareto-sessions",
            "churn_options": {"horizon": 100_000.0},
        },
        "finite",
    ),
    (
        "competing-batch",
        {
            "engine": "competing-batch",
            "n": 1000,
            "events": 20_000,
            "record_every": 1000,
            "options": {"event_batching": True},
        },
        "fractions",
    ),
    (
        "analytic-figure3",
        {"engine": "analytic", "options": {"metrics": "times,absorption"}},
        "finite",
    ),
    (
        "analytic-table2",
        {"engine": "analytic", "options": {"metrics": "sojourns"}},
        "finite",
    ),
)

#: Standard errors a Monte-Carlo estimate may sit from its closed form
#: (two-sided false alarm ~6e-7 per check).
Z_BAND = 5.0
#: Passes always measured, however short ``--seconds`` is.
MIN_PASSES = 12
#: Percentile of the point latencies reported as ``op_tail_ms``: with
#: >= MIN_PASSES x 9 points per run it has >= 10 samples beyond it.
TAIL = 0.9
#: Engine cold starts (subprocesses) whose median is ``setup_s``.
SETUPS = 3

RECORD = {
    "why": __doc__.split("Why: ")[1].split("\n\n")[0].replace("\n", " "),
    "busy_layers": [
        "simulation (churn kind laws, batch engine, competing engine)",
        "core/markov (row assembly, chain assembly, fundamental solves)",
        "scenario.backends",
    ],
    "bypassed_layers": [
        "distributed (service, ledger, protocol, coordinator, worker)",
        "scenario.store",
    ],
    "fixed_inputs": {
        "points_per_pass": [label for label, _, _ in MIX],
        "base_params": BASE_PARAMS,
        "session_horizon": 100_000,
        "min_passes": MIN_PASSES,
        "setups": SETUPS,
        "z_band": Z_BAND,
    },
}

#: Probes this workload must fire in a traced run.
REQUIRED_PROBES = (
    "repro.scenario.backends:BatchBackend.run",
    "repro.scenario.backends:CompetingBackend.run",
    "repro.scenario.backends:AnalyticBackend.run",
    "repro.scenario.backends:batch_monte_carlo_summary",
    "repro.simulation.batch:run_batch_trajectories",
    "repro.simulation.overlay_sim:CompetingClustersSimulation.run",
    "repro.simulation.batch:transition_rows",
    "repro.core.matrix:transition_rows",
    "repro.core.matrix:ClusterChain.__init__",
    "repro.markov.fundamental:solve_fundamental",
    "repro.markov.sojourn:solve_fundamental",
    "repro.scenario.registry:CHURN_KIND_LAWS[exponential-sessions]",
    "repro.scenario.registry:CHURN_KIND_LAWS[pareto-sessions]",
    "repro.scenario.registry:CHURN_KIND_LAWS[poisson]",
)


def mix_specs(seed: int, pass_index: int):
    from repro.core.parameters import ModelParameters
    from repro.scenario.spec import ScenarioSpec

    specs = []
    for position, (label, fields, _) in enumerate(MIX):
        fields = dict(fields)
        params = dict(BASE_PARAMS, **fields.pop("params", {}))
        ordinal = pass_index * len(MIX) + position + 1
        params["mu"] += 1e-9 * ordinal
        specs.append(
            ScenarioSpec(
                name=label,
                params=ModelParameters(**params),
                seed=seed * 100_003 + ordinal,
                **fields,
            )
        )
    return specs


def pooled_sems(outputs) -> dict[tuple[str, str], float]:
    """Standard error of each closed-form point's time estimates,
    pooled over every pass of the run.

    All passes draw the same point up to a 1e-9 change of ``mu``, so
    the pooled variance is a far steadier estimate than one sample's:
    a sample that misses the rare long polluted sojourns understates
    its own mean *and* its own standard error together.
    """
    squares: dict[tuple[str, str], list[float]] = {}
    for specs, results in outputs:
        for spec, result, (_, _, kind) in zip(specs, results, MIX):
            if kind == "closed-form":
                for name in ("T_S", "T_P"):
                    squares.setdefault((spec.name, name), []).append(
                        result.metrics[f"sem({name})"] ** 2
                    )
    return {
        key: math.sqrt(sum(values) / len(values))
        for key, values in squares.items()
    }


def check(spec, result, kind: str, sems: dict) -> list[str]:
    """Output problems of one point (empty when correct)."""
    metrics = result.metrics
    problems = [
        f"{name}={value!r} is not finite"
        for name, value in metrics.items()
        if not math.isfinite(value)
    ]
    absorption = sum(
        value for name, value in metrics.items() if name.startswith("p(")
    )
    if absorption > 1.0 + 1e-9:
        problems.append(f"absorption probabilities sum to {absorption}")
    if kind == "fractions":
        for name, value in metrics.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"{name}={value} outside [0, 1]")
    if kind == "closed-form":
        from repro.core.cluster_model import ClusterModel

        fate = ClusterModel(spec.params).cluster_fate(spec.initial).as_dict()
        runs = metrics["runs"]
        for name, exact in fate.items():
            if name.startswith("p("):
                sem = math.sqrt(max(exact * (1.0 - exact), 1e-12) / runs)
            else:
                sem = sems[(spec.name, name[2:-1])]
            if abs(metrics[name] - exact) > Z_BAND * sem:
                problems.append(
                    f"{name}={metrics[name]:.5g} vs closed form "
                    f"{exact:.5g} (> {Z_BAND} x SEM {sem:.3g})"
                )
    return [f"{spec.name}: {problem}" for problem in problems]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(seed: int, first: int, seconds: float, minimum: int = MIN_PASSES):
    """Passes from ``first`` on for ``seconds`` (``minimum`` at least):
    ``(pass seconds, point seconds per pass, outputs, next pass index,
    peak RSS MB once ``minimum`` passes are done)``.

    The program memoizes per parameter set and every pass brings new
    ones, so memory grows with the passes run; the peak is read after
    a fixed number of them, not after however many fit in ``seconds``.
    """
    from repro.scenario.runner import execute_spec

    pass_times: list[float] = []
    point_times: list[list[float]] = []
    outputs = []
    index = first
    peak_rss_mb = 0.0
    began = time.perf_counter()
    while len(pass_times) < minimum or time.perf_counter() - began < seconds:
        specs = mix_specs(seed, index)
        results = []
        point_times.append([])
        started = time.perf_counter()
        for spec in specs:
            point_started = time.perf_counter()
            results.append(execute_spec(spec))
            point_times[-1].append(time.perf_counter() - point_started)
        pass_times.append(time.perf_counter() - started)
        outputs.append((specs, results))
        index += 1
        if len(pass_times) == minimum:
            peak_rss_mb = _peak_rss_mb()
    return pass_times, point_times, outputs, index, peak_rss_mb


def _setup_seconds() -> list[float]:
    samples = []
    for _ in range(SETUPS):
        child = Child("engine")
        child.wait_line("READY")
        samples.append(time.perf_counter() - child.started)
        if child.wait(timeout=60.0) != 0:
            raise RuntimeError("engine cold start exited non-zero")
    return samples


def _phase_seconds() -> dict[str, float]:
    """The program's own batch-phase counters (``/metrics`` registry)."""
    from repro.obs import metrics as obs_metrics

    return {
        labels["phase"]: value
        for (name, labels), value in parse_prometheus(obs_metrics.render())
        if name == "repro_batch_phase_seconds_total"
    }


def run(seed: int, seconds: float, trace: bool, history, run_dir) -> dict:
    import probes
    from layers import Totals, as_trace, engine_layers

    setup = _setup_seconds()
    # One unmeasured pass: lazy imports and first-touch allocations.
    next_pass = _passes(seed, 0, 0.0, minimum=1)[3]
    pass_times, point_times, outputs, next_pass, peak_rss_mb = _passes(
        seed, next_pass, seconds
    )
    pooled = [value for times in point_times for value in times]
    result = {
        "setup_s": median(setup),
        "work_s": median(pass_times),
        # The mix's cheap points come in two cost clusters that meet
        # near the pooled median, so the median is taken within each
        # pass (one machine speed) and then across passes.
        "op_p50_ms": 1000.0 * median([median(times) for times in point_times]),
        "op_tail_ms": 1000.0 * percentile(pooled, TAIL),
        "op_tail_label": f"p{round(100 * TAIL)} of {len(pooled)} points",
        "aliases": {"mix_s": median(pass_times)},
        "samples": {
            "setup_s": [round(value, 4) for value in setup],
            "pass_s": [round(value, 4) for value in pass_times],
        },
    }
    if trace:
        phases_before = _phase_seconds()
        recorder = probes.install("engine")
        try:
            traced_times, _, traced_outputs, *_ = _passes(seed, next_pass, seconds)
        finally:
            recorder.uninstall()
        phases_after = _phase_seconds()
        outputs = outputs + traced_outputs
        missing = [
            probe for probe in REQUIRED_PROBES if not recorder.fired.get(probe)
        ]
        if missing:
            raise RuntimeError(f"probes never fired: {', '.join(missing)}")
        totals = Totals()
        totals.add(as_trace(recorder))
        passes = len(traced_times)
        layers = engine_layers(totals, passes)
        layers["trace.overhead_frac"] = (
            median(traced_times) / median(pass_times) - 1.0
        )
        result["layers"] = layers
        result["cross_check"] = [
            (
                f"repro_batch_phase_seconds_total{{phase={phase!r}}} per pass",
                (phases_after.get(phase, 0.0) - phases_before.get(phase, 0.0))
                / passes,
                f"{name} inclusive per pass",
                totals.incl_s[name] / passes,
            )
            for phase, name in (
                ("dispatch", "batch.event"),
                ("skip-sampling", "batch.skip"),
                ("row-assembly", "transitions.rows"),
            )
        ]
    problems = []
    failed = 0
    sems = pooled_sems(outputs)
    for specs, results in outputs:
        for spec, point, (_, _, kind) in zip(specs, results, MIX):
            found = check(spec, point, kind, sems)
            failed += bool(found)
            problems += found
    result.update(
        attempted=sum(len(specs) for specs, _ in outputs),
        failed=failed,
        problems=problems,
        peak_rss_mb=peak_rss_mb,
    )
    return result
