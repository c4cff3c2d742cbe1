"""Simulation backends: one protocol over every engine tier.

A backend consumes a :class:`~repro.scenario.spec.ScenarioSpec` and
returns a :class:`ScenarioResult`; the registered engines span the
repo's four tiers of fidelity:

==================  ======================================================
``analytic``        single-cluster closed forms (Relations (5)-(9)) from
                    :class:`~repro.core.cluster_model.ClusterModel`
``overlay-analytic``Theorem-2 expected proportions
                    (:class:`~repro.core.overlay_model.OverlayModel`)
``batch``           vectorized count-state Monte-Carlo trajectories --
                    honours the adversary axis through variant
                    transition rows and the churn axis through
                    event-kind laws (i.i.d. mixes and session
                    schedules): the universal fast path
``scalar``          member-list oracle trajectories -- honours the
                    adversary and churn axes through
                    :class:`~repro.core.policies.CountAdversaryPolicy`
                    and the churn registry
``competing-batch`` / ``competing-scalar``
                    ``n`` competing clusters under uniform dispatch,
                    replication-averaged -- honours the adversary axis
                    and i.i.d.-kind churn
``agent``           the full operational overlay
                    (:class:`~repro.simulation.overlay_sim.AgentOverlaySimulation`)
                    -- honours the adversary and churn axes
==================  ======================================================

The analytic engines embed the paper's strong adversary and Bernoulli
churn in their closed forms, so they *reject* specs that ask for
anything else instead of silently ignoring the axis; the Monte-Carlo
engines honour both axes (a combination an engine cannot play is a
loud :class:`~repro.scenario.spec.SpecError`, never a silent fallback
to a slower tier).

Seed discipline: a spec expanded from a sweep carries a ``seed_index``
and draws from ``SeedSequence(seed, spawn_key=(seed_index, ...))``
child streams; a standalone spec (``seed_index is None``) seeds
``default_rng(seed)`` directly -- the historical law of the analysis
modules, preserved so their outputs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.core.cluster_model import cluster_model
from repro.core.overlay_model import OverlayModel
from repro.core.policies import CountAdversaryPolicy
from repro.overlay.overlay import OverlayConfig
from repro.scenario.registry import CHURN_MODELS, ENGINES
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.simulation.batch import batch_monte_carlo_summary
from repro.simulation.churn import IIDKinds, ScheduledKinds
from repro.simulation.cluster_sim import (
    COUNT_POLICIES,
    MonteCarloSummary,
    monte_carlo_summary,
)
from repro.simulation.overlay_sim import (
    AgentOverlaySimulation,
    CompetingClustersSimulation,
)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run (JSON-serializable).

    ``metrics`` holds scalar summaries keyed by the repo's canonical
    labels (``E(T_S)``, ``p(polluted-merge)``, ...); ``series`` holds
    parallel per-record lists for trajectory-producing engines
    (``events``, ``safe_fraction``, ...); ``meta`` echoes the spec
    fields that identify the run.
    """

    key: str
    name: str
    engine: str
    metrics: dict[str, float]
    series: dict[str, list] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON view (inverse of :meth:`from_dict`)."""
        return {
            "key": self.key,
            "name": self.name,
            "engine": self.engine,
            "metrics": self.metrics,
            "series": self.series,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from its JSON form."""
        return cls(**payload)


@runtime_checkable
class SimulationBackend(Protocol):
    """The engine contract: a name plus ``run(spec) -> ScenarioResult``."""

    name: str

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        """Execute ``spec`` and summarize it."""
        ...


# -- shared helpers ----------------------------------------------------------

def _spec_rng(spec: ScenarioSpec, *branch: int) -> np.random.Generator:
    """The generator for a spec (optionally a replication branch).

    Grid points (``seed_index`` set) draw independent child streams via
    ``SeedSequence.spawn`` keys; standalone specs keep the historical
    additive law (``seed`` directly, ``seed + r`` per replication).
    """
    if spec.seed_index is None:
        offset = branch[0] if branch else 0
        return np.random.default_rng(spec.seed + offset)
    return np.random.default_rng(
        np.random.SeedSequence(
            spec.seed, spawn_key=(spec.seed_index, *branch)
        )
    )


def _meta(spec: ScenarioSpec) -> dict[str, Any]:
    return {
        "adversary": spec.adversary,
        "churn": spec.churn,
        "initial": (
            list(spec.initial)
            if isinstance(spec.initial, tuple)
            else spec.initial
        ),
        "n": spec.n,
        "events": spec.events,
        "runs": spec.runs,
        "replications": spec.replications,
        "seed": spec.seed,
        "seed_index": spec.seed_index,
        "params": spec.params.describe(),
    }


def _result(
    spec: ScenarioSpec,
    engine: str,
    metrics: dict[str, float],
    series: dict[str, list] | None = None,
) -> ScenarioResult:
    return ScenarioResult(
        key=spec.key(),
        name=spec.name,
        engine=engine,
        metrics=metrics,
        series=series,
        meta=_meta(spec),
    )


def _require_strong_bernoulli(spec: ScenarioSpec, engine: str) -> None:
    """Analytic chains embed Rule 1/2 and Bernoulli churn."""
    if spec.adversary != "strong":
        raise SpecError(
            f"engine {engine!r} embeds the strong adversary in its "
            f"transition law; got adversary={spec.adversary!r} "
            "(use the 'batch', 'scalar' or 'agent' engine for other "
            "strategies)"
        )
    if spec.churn != "bernoulli":
        raise SpecError(
            f"engine {engine!r} is event-indexed under Bernoulli churn; "
            f"got churn={spec.churn!r} (use 'batch', 'scalar' or 'agent')"
        )
    p_join = dict(spec.churn_options).get("p_join", spec.params.p_join)
    if p_join != spec.params.p_join:
        raise SpecError(
            f"engine {engine!r} plays Bernoulli churn at the model's "
            f"p_join={spec.params.p_join}; got churn_options "
            f"p_join={p_join!r} (set params.p_join instead, or use "
            "'batch', 'scalar' or 'agent')"
        )


def _count_policy(spec: ScenarioSpec, engine: str) -> CountAdversaryPolicy:
    """The count-level policy of the spec's adversary, or a loud error."""
    try:
        return COUNT_POLICIES[spec.adversary]
    except KeyError:
        known = ", ".join(sorted(COUNT_POLICIES))
        raise SpecError(
            f"engine {engine!r}: adversary {spec.adversary!r} has no "
            f"count-level policy; known: {known}"
        ) from None


#: Option keys understood by at least one engine.  A sweep shares one
#: ``options`` table across heterogeneous engines, so keys another
#: engine understands are dropped silently -- but a key no engine
#: accepts is a typo and fails loudly instead of running with defaults
#: (mirrors the ``churn_options`` policy).
_KNOWN_ENGINE_OPTIONS = frozenset(
    {
        "metrics", "depth",                    # analytic
        "mode", "chunk_size",                  # batch
        "event_batching",                      # competing-*
        "events_per_unit", "sample_every", "honest_only",
        "min_population", "enforce_universe_bound",
        "id_bits", "key_bits",                 # agent
    }
)


def _engine_options(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec's engine options, with unknown keys rejected loudly."""
    unknown = [
        key
        for key, _ in spec.options
        if key not in _KNOWN_ENGINE_OPTIONS
    ]
    if unknown:
        raise SpecError(
            f"options {', '.join(sorted(unknown))} are accepted by no "
            "registered engine"
        )
    return dict(spec.options)


def _churn_law(spec: ScenarioSpec, rng: np.random.Generator):
    """The spec's churn law, built from ``rng`` by its registered
    factory."""
    return CHURN_MODELS.get(spec.churn)(
        rng, spec.params, **_churn_options(spec)
    )


def _event_kind_law(
    spec: ScenarioSpec, rng: np.random.Generator
) -> IIDKinds | ScheduledKinds:
    """The spec's churn law, which the batch tiers must be able to play.

    A law that exposes no event-indexed kind sequence (neither
    :class:`IIDKinds` nor :class:`ScheduledKinds`) is a loud error,
    never a silent fallback to a slower tier.
    """
    law = _churn_law(spec, rng)
    if not isinstance(law, (IIDKinds, ScheduledKinds)):
        raise SpecError(
            f"churn {spec.churn!r} has no event-kind law for the batch "
            "tier; return IIDKinds or ScheduledKinds from its factory or "
            "use the 'scalar' or 'agent' engine"
        )
    return law


def _analytic_initial(spec: ScenarioSpec, engine: str) -> str:
    if not isinstance(spec.initial, str):
        raise SpecError(
            f"engine {engine!r} needs a named initial distribution, "
            f"got {spec.initial!r}"
        )
    return spec.initial


def _churn_options(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec's churn options, filtered to what its factory accepts.

    A sweep shares one ``churn_options`` table across heterogeneous
    churn models (e.g. ``horizon`` only applies to the session-based
    generators), so keys another *registered* factory understands are
    dropped silently -- but a key no churn factory accepts is a typo
    and fails loudly instead of running with defaults.
    """
    import inspect

    def keywords(factory) -> set[str]:
        # Every factory's leading (rng, params) pair is filled by the
        # backend, never by spec options.
        return set(inspect.signature(factory).parameters) - {
            "rng",
            "params",
        }

    accepted = keywords(CHURN_MODELS.get(spec.churn))
    anywhere = {
        name
        for churn in CHURN_MODELS
        for name in keywords(CHURN_MODELS.get(churn))
    }
    unknown = [key for key, _ in spec.churn_options if key not in anywhere]
    if unknown:
        raise SpecError(
            f"churn options {', '.join(sorted(unknown))} are accepted by "
            "no registered churn model"
        )
    return {
        key: value
        for key, value in spec.churn_options
        if key in accepted
    }


def _summary_metrics(summary: MonteCarloSummary) -> dict[str, float]:
    metrics = dict(summary.as_dict())
    metrics.update(
        {
            "sem(T_S)": summary.sem_time_safe,
            "sem(T_P)": summary.sem_time_polluted,
            "E(T_S,1)": summary.mean_first_safe_sojourn,
            "E(T_P,1)": summary.mean_first_polluted_sojourn,
            "runs": float(summary.runs),
        }
    )
    return metrics


# -- analytic tiers ----------------------------------------------------------

class AnalyticBackend:
    """Closed forms of the single-cluster chain.

    The ``metrics`` option selects which families to evaluate
    (comma-separated): ``times`` (default) for ``E(T_S)``/``E(T_P)``,
    ``sojourns`` for the successive-sojourn profile (``depth`` option,
    default 2, including the profile's totals), ``absorption`` for
    Relation (9)'s probabilities, ``fate`` for the combined
    :meth:`~repro.core.cluster_model.ClusterModel.cluster_fate` record.
    """

    name = "analytic"

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        _require_strong_bernoulli(spec, self.name)
        initial = _analytic_initial(spec, self.name)
        options = dict(spec.options)
        families = str(options.get("metrics", "times")).split(",")
        model = cluster_model(spec.params)
        metrics: dict[str, float] = {}
        for family in families:
            family = family.strip()
            if family == "times":
                metrics["E(T_S)"] = model.expected_time_safe(initial)
                metrics["E(T_P)"] = model.expected_time_polluted(initial)
            elif family == "sojourns":
                depth = int(options.get("depth", 2))
                profile = model.sojourn_profile(initial, depth=depth)
                for order in range(depth):
                    metrics[f"E(T_S,{order + 1})"] = profile.safe_sojourns[
                        order
                    ]
                    metrics[f"E(T_P,{order + 1})"] = (
                        profile.polluted_sojourns[order]
                    )
                metrics["E(T_S)"] = profile.total_safe
                metrics["E(T_P)"] = profile.total_polluted
            elif family == "absorption":
                metrics.update(
                    {
                        f"p({label})": value
                        for label, value in model.absorption_probabilities(
                            initial
                        ).items()
                    }
                )
            elif family == "fate":
                metrics.update(model.cluster_fate(initial).as_dict())
            else:
                raise SpecError(
                    f"unknown analytic metrics family {family!r}"
                )
        return _result(spec, self.name, metrics)


class OverlayAnalyticBackend:
    """Theorem 2: expected overlay proportions after each event."""

    name = "overlay-analytic"

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        _require_strong_bernoulli(spec, self.name)
        initial = _analytic_initial(spec, self.name)
        model = cluster_model(spec.params)
        overlay = OverlayModel(model.params, spec.n, chain=model.chain)
        series = overlay.proportion_series(
            initial, spec.events, record_every=spec.record_every
        )
        metrics = {
            "peak_polluted_fraction": series.peak_polluted_fraction,
            "final_safe_fraction": float(series.safe_fraction[-1]),
            "final_polluted_fraction": float(series.polluted_fraction[-1]),
        }
        return _result(
            spec,
            self.name,
            metrics,
            series={
                "events": series.events.tolist(),
                "safe_fraction": series.safe_fraction.tolist(),
                "polluted_fraction": series.polluted_fraction.tolist(),
            },
        )


# -- Monte-Carlo tiers -------------------------------------------------------

class BatchBackend:
    """Vectorized count-state trajectories (tier-2 engine).

    The universal fast path: *every* adversary with a count-level
    policy and *every* churn model with an event-kind law runs here --
    variant transition rows fold the policy and the i.i.d. join mix
    into the sampled law, and session streams play through a
    materialized kind schedule.  The paper's default point (strong
    adversary, Bernoulli churn at the model's ``p_join``) keeps the
    historical per-event path byte for byte; other points default to
    geometric skip sampling along the event axis.

    Options: ``mode`` (``"skip"``/``"event"``) overrides the advance
    strategy and ``chunk_size`` streams large ``runs`` through a fixed
    memory envelope (see
    :func:`~repro.simulation.batch.batch_monte_carlo_summary`).
    """

    name = "batch"

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        policy = _count_policy(spec, self.name)
        options = _engine_options(spec)
        mode = options.get("mode")
        if mode not in (None, "event", "skip"):
            raise SpecError(
                f"batch mode must be 'event' or 'skip', got {mode!r}"
            )
        chunk = options.get("chunk_size")
        chunk_size = None if chunk is None else int(chunk)
        rng = _spec_rng(spec)
        law = _event_kind_law(spec, rng)
        if not isinstance(law, IIDKinds):
            if mode == "skip":
                raise SpecError(
                    "skip mode cannot follow a scheduled (session) kind "
                    "sequence; drop the mode option or use i.i.d. churn"
                )
            variant = {"adversary": policy, "kind_schedule": law.schedule}
        elif (
            spec.adversary == "strong"
            and law.p_join == spec.params.p_join
            and mode != "skip"
        ):
            # The historical path, byte-identical for a given seed.
            variant = {}
        else:
            variant = {
                "adversary": policy,
                "p_join": law.p_join,
                "mode": mode or "skip",
            }
        summary = batch_monte_carlo_summary(
            spec.params,
            rng,
            runs=spec.runs,
            initial=spec.initial,
            max_steps=spec.max_steps,
            chunk_size=chunk_size,
            **variant,
        )
        return _result(spec, self.name, _summary_metrics(summary))


class ScalarBackend:
    """Member-list oracle trajectories; plays any registered count-level
    adversary against any registered churn law's event stream."""

    name = "scalar"

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        if spec.adversary not in COUNT_POLICIES:
            known = ", ".join(sorted(COUNT_POLICIES))
            raise SpecError(
                f"adversary {spec.adversary!r} has no count-level policy; "
                f"known: {known}"
            )
        rng = _spec_rng(spec)
        summary = monte_carlo_summary(
            spec.params,
            rng,
            runs=spec.runs,
            initial=spec.initial,
            max_steps=spec.max_steps,
            adversary=spec.adversary,
            events=_churn_law(spec, rng).events(rng),
        )
        return _result(spec, self.name, _summary_metrics(summary))


class CompetingBackend:
    """``n`` clusters competing for uniformly dispatched events,
    averaged over ``replications`` independently seeded runs.

    Any adversary with a count-level policy and any i.i.d.-kind churn
    (its effective join probability folds into the transition law)
    runs on both engines; session churn has no per-cluster event-kind
    reduction under uniform dispatch and is refused loudly.  The
    ``event_batching`` option switches the batch engine to event-axis
    skip sampling; the default point stays byte-identical to PR 2.
    """

    def __init__(self, engine: str) -> None:
        self.name = f"competing-{engine}"
        self._engine = engine

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        policy = _count_policy(spec, self.name)
        law = _event_kind_law(spec, _spec_rng(spec, 0))
        if isinstance(law, ScheduledKinds):
            raise SpecError(
                f"engine {self.name!r} dispatches events uniformly over "
                "clusters; a session-based stream has no per-cluster "
                "event-kind law -- use the 'scalar' or 'agent' engine"
            )
        event_batching = bool(
            _engine_options(spec).get("event_batching")
        )
        if event_batching and self._engine != "batch":
            raise SpecError(
                f"engine {self.name!r} has no event-axis dispatch; "
                "event_batching applies to 'competing-batch' only"
            )
        if (
            spec.adversary == "strong"
            and law.p_join == spec.params.p_join
            and not event_batching
        ):
            # The historical path, byte-identical for a given seed.
            variant = {}
        else:
            variant = {
                "adversary": policy,
                "p_join": law.p_join,
                "event_batching": event_batching,
            }
        safe_total: np.ndarray | None = None
        polluted_total: np.ndarray | None = None
        events: np.ndarray | None = None
        for replication in range(spec.replications):
            simulation = CompetingClustersSimulation(
                spec.params,
                spec.n,
                _spec_rng(spec, replication),
                initial=spec.initial,
                engine=self._engine,
                **variant,
            )
            series = simulation.run(
                spec.events, record_every=spec.record_every
            )
            if safe_total is None:
                events = series.events
                safe_total = series.safe_fraction.copy()
                polluted_total = series.polluted_fraction.copy()
            else:
                safe_total += series.safe_fraction
                polluted_total += series.polluted_fraction
        safe = safe_total / spec.replications
        polluted = polluted_total / spec.replications
        metrics = {
            "peak_polluted_fraction": float(polluted.max()),
            "final_safe_fraction": float(safe[-1]),
            "final_polluted_fraction": float(polluted[-1]),
        }
        return _result(
            spec,
            self.name,
            metrics,
            series={
                "events": events.tolist(),
                "safe_fraction": safe.tolist(),
                "polluted_fraction": polluted.tolist(),
            },
        )


class AgentBackend:
    """The full operational overlay.

    ``spec.n`` bootstraps the peer population, ``spec.events`` is the
    total churn-event budget (converted to a duration through the
    ``events_per_unit`` option).  Other options: ``sample_every``
    (10.0), ``honest_only`` (true), ``min_population`` (8),
    ``enforce_universe_bound`` (true), ``id_bits`` (16), ``key_bits``
    (32).
    """

    name = "agent"

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        from repro.overlay.peer import PeerFactory

        options = dict(spec.options)
        events_per_unit = int(options.get("events_per_unit", 1))
        duration = spec.events / events_per_unit
        # Default peer names feed the identifier hash through the
        # class-level factory counter.  Pin the namespace to a value
        # derived from the spec's content address: equal specs give
        # equal runs, and the 48-bit offset keeps the minted names
        # disjoint from any ordinarily-numbered factory (or other
        # scenario) alive in this process.
        PeerFactory._instances = int(spec.key()[:12], 16) << 8
        rng = _spec_rng(spec)
        simulation = AgentOverlaySimulation(
            OverlayConfig(
                model=spec.params,
                id_bits=int(options.get("id_bits", 16)),
                key_bits=int(options.get("key_bits", 32)),
            ),
            rng,
            adversary=spec.adversary,
            events_per_unit=events_per_unit,
            min_population=int(options.get("min_population", 8)),
            enforce_universe_bound=bool(
                options.get("enforce_universe_bound", True)
            ),
            churn=spec.churn,
            churn_options=_churn_options(spec),
        )
        simulation.bootstrap(
            spec.n, honest_only=bool(options.get("honest_only", True))
        )
        run = simulation.run(
            duration,
            sample_every=float(options.get("sample_every", 10.0)),
        )
        metrics: dict[str, float] = {
            "final_polluted_fraction": run.final_polluted_fraction,
            "peak_polluted_fraction": run.peak_polluted_fraction,
            "final_peers": float(run.snapshots[-1].n_peers),
            "final_clusters": float(run.snapshots[-1].n_clusters),
        }
        for kind, count in sorted(run.operations.items()):
            metrics[f"op:{kind}"] = float(count)
        series = {
            "events": [snap.time for snap in run.snapshots],
            "polluted_fraction": [
                snap.polluted_fraction for snap in run.snapshots
            ],
            "n_peers": [snap.n_peers for snap in run.snapshots],
            "n_clusters": [snap.n_clusters for snap in run.snapshots],
        }
        return _result(spec, self.name, metrics, series=series)


def _register_defaults() -> None:
    for backend in (
        AnalyticBackend(),
        OverlayAnalyticBackend(),
        BatchBackend(),
        ScalarBackend(),
        CompetingBackend("batch"),
        CompetingBackend("scalar"),
        AgentBackend(),
    ):
        ENGINES.register(backend.name, backend)


_register_defaults()
