"""Overlay-scale simulations.

Three levels of fidelity:

* :class:`CompetingClustersSimulation` -- ``n`` independent cluster
  replicas competing for uniformly dispatched events, the literal
  setting of Theorems 1-2 (used to validate Figure 5 empirically).
  Dispatches to one of two engines sharing the same recording contract
  and :class:`~repro.simulation.batch.CompetingSeries` output:
  ``"batch"`` (default) runs the vectorized count-state engine of
  :mod:`repro.simulation.batch`; ``"scalar"`` keeps the member-list
  oracle, one Python event at a time, for semantics cross-checks and
  the scalar-vs-batch benchmark;
* :class:`AgentOverlaySimulation` -- the full
  :class:`~repro.overlay.overlay.ClusterOverlay` driven by churn events,
  Property-1 sweeps and adversary Rule-1 probes, with splits and merges
  actually rewiring the topology (used by the examples and the
  operational benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from repro.adversary import resolve_adversary
from repro.adversary.base import AdversaryStrategy
from repro.core.parameters import ModelParameters
from repro.core.statespace import State
from repro.overlay.overlay import ClusterOverlay, OverlayConfig
from repro.scenario.registry import CHURN_MODELS
from repro.simulation.batch import (
    BatchCompetingClustersSimulation,
    CompetingSeries,
)
from repro.simulation.churn import ChurnEvent, EventKind
from repro.simulation.cluster_sim import ClusterSimulator
from repro.simulation.engine import DiscreteEventEngine


class _ScalarCompetingClusters:
    """Member-list engine: ``n`` cluster replicas, one event at a time.

    Clusters that merge or split stay absorbed (they logically disappear
    from the model's graph), matching the analytical setting exactly.
    Live safe/polluted occupancy is maintained incrementally as events
    land -- recording a sample is O(1), never an O(n) rescan.
    """

    def __init__(
        self,
        params: ModelParameters,
        n_clusters: int,
        rng: np.random.Generator,
        initial: str | State = "delta",
        adversary=None,
        p_join: float | None = None,
    ) -> None:
        self._params = params
        self._rng = rng
        self._n = n_clusters
        self._p_join = params.p_join if p_join is None else float(p_join)
        simulator = ClusterSimulator(params, rng, adversary=adversary)
        self._cores: list[list[bool]] = []
        self._spares: list[list[bool]] = []
        for _ in range(n_clusters):
            core, spare = simulator.draw_initial(initial)
            self._cores.append(core)
            self._spares.append(spare)
        self._simulator = simulator
        # A cluster whose initial state is already closed (possible
        # only with an explicit absorbing ``initial``) starts absorbed,
        # mirroring the batch engine; it never receives events.
        self._absorbed: list[bool] = [
            len(spare) == 0 or len(spare) >= params.spare_max
            for spare in self._spares
        ]
        self._n_polluted = 0
        self._n_safe = 0
        for index in range(n_clusters):
            if self._absorbed[index]:
                continue
            if self._is_polluted(index):
                self._n_polluted += 1
            else:
                self._n_safe += 1

    def _is_polluted(self, index: int) -> bool:
        return sum(self._cores[index]) > self._params.pollution_quorum

    def _apply_event(self, index: int) -> None:
        """One join/leave on cluster ``index``, updating the counters."""
        params = self._params
        simulator = self._simulator
        core = self._cores[index]
        spare = self._spares[index]
        was_polluted = self._is_polluted(index)
        if self._rng.random() < self._p_join:
            simulator._join_event(core, spare)
        else:
            simulator._leave_event(core, spare)
        if was_polluted:
            self._n_polluted -= 1
        else:
            self._n_safe -= 1
        if len(spare) == 0 or len(spare) >= params.spare_max:
            self._absorbed[index] = True
        elif self._is_polluted(index):
            self._n_polluted += 1
        else:
            self._n_safe += 1

    def run(self, n_events: int, record_every: int = 1) -> CompetingSeries:
        """Dispatch ``n_events`` uniformly and record occupancy.

        The event axis is walked record interval by record interval
        (the PR 3 structure of the batch engine's record loop) instead
        of testing ``event % record_every`` on every event: the inner
        loop is pure dispatch over one interval, and a sample is taken
        only at the interval boundary.  Once the whole population is
        absorbed, the remaining events cannot change anything -- each
        would burn exactly one index draw and hit a closed cluster --
        so their draws are consumed in one vectorized ``integers`` call
        (bitstream-identical to the per-event draws, which the
        equivalence test pins down) and the series flatlines to the
        horizon.  Recorded points are byte-identical to the historical
        per-event loop either way; only the Python overhead per event
        shrinks.
        """
        if record_every < 1:
            raise ValueError(
                f"record_every must be >= 1, got {record_every}"
            )
        rng = self._rng
        n = self._n
        absorbed = self._absorbed
        apply_event = self._apply_event
        events_axis = [0]
        safe_series = [self._n_safe / n]
        polluted_series = [self._n_polluted / n]

        def record(event: int) -> None:
            events_axis.append(event)
            safe_series.append(self._n_safe / n)
            polluted_series.append(self._n_polluted / n)

        done = 0
        while done < n_events:
            if self._n_safe == 0 and self._n_polluted == 0:
                # Fully absorbed: drain the remaining index draws in
                # bounded batches (same bitstream, flat memory) and
                # emit the flat tail of the series.
                remaining = n_events - done
                while remaining > 0:
                    chunk = min(remaining, 1 << 20)
                    rng.integers(0, n, size=chunk)
                    remaining -= chunk
                while done < n_events:
                    done = min(
                        n_events, (done // record_every + 1) * record_every
                    )
                    record(done)
                break
            block_end = min(
                n_events, (done // record_every + 1) * record_every
            )
            for _ in range(block_end - done):
                index = int(rng.integers(0, n))
                if not absorbed[index]:
                    apply_event(index)
            done = block_end
            record(done)
        return CompetingSeries(
            events=np.asarray(events_axis),
            safe_fraction=np.asarray(safe_series),
            polluted_fraction=np.asarray(polluted_series),
            n_clusters=self._n,
        )


class CompetingClustersSimulation:
    """``n`` cluster replicas; each global event hits one uniformly.

    Facade over the two competing-clusters engines.  ``engine="batch"``
    (default) advances count states with the vectorized
    :class:`~repro.simulation.batch.BatchCompetingClustersSimulation`
    and is the right choice for any real population size;
    ``engine="scalar"`` re-enacts the member-list semantics event by
    event and serves as the oracle the batch engine is validated
    against.  Both produce the same
    :class:`~repro.simulation.batch.CompetingSeries` record with
    identical event axes, and both are deterministic for a seeded
    generator (the two engines consume the stream differently, so their
    draws are equal in distribution, not bitwise).

    ``adversary`` selects a count-level policy (name or record) played
    by both engines; ``p_join`` overrides the per-event join probability
    (the event-indexed reduction of any i.i.d.-kind churn process); and
    ``event_batching=True`` switches the batch engine to geometric
    skip-sampling dispatch along the event axis (equal in law, faster
    for long horizons).
    """

    def __init__(
        self,
        params: ModelParameters,
        n_clusters: int,
        rng: np.random.Generator,
        initial: str | State = "delta",
        engine: str = "batch",
        adversary=None,
        p_join: float | None = None,
        event_batching: bool = False,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if engine == "batch":
            self._impl = BatchCompetingClustersSimulation(
                params,
                n_clusters,
                rng,
                initial=initial,
                policy=adversary,
                p_join=p_join,
                event_batching=event_batching,
            )
        elif engine == "scalar":
            self._impl = _ScalarCompetingClusters(
                params,
                n_clusters,
                rng,
                initial=initial,
                adversary=adversary,
                p_join=p_join,
            )
        else:
            raise ValueError(
                f"unknown engine {engine!r}; expected 'batch' or 'scalar'"
            )
        self._engine_name = engine

    @property
    def engine(self) -> str:
        """Which engine backs this simulation (``batch`` or ``scalar``)."""
        return self._engine_name

    def run(self, n_events: int, record_every: int = 1) -> CompetingSeries:
        """Dispatch ``n_events`` uniformly and record occupancy."""
        if record_every < 1:
            raise ValueError(
                f"record_every must be >= 1, got {record_every}"
            )
        return self._impl.run(n_events, record_every=record_every)


@dataclass
class OverlaySnapshot:
    """Metrics sampled from the agent-based overlay."""

    time: float
    n_peers: int
    n_clusters: int
    polluted_fraction: float
    states: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class AgentRunResult:
    """Outcome of one agent-based overlay run."""

    snapshots: tuple[OverlaySnapshot, ...]
    final_polluted_fraction: float
    peak_polluted_fraction: float
    operations: dict[str, int]


class AgentOverlaySimulation:
    """Full overlay driven by churn through the discrete-event engine.

    Per unit of simulated time the driver issues ``events_per_unit``
    churn events (join w.p. ``p_join``), enforces Property 1 and lets
    the adversary probe Rule 1 -- the operational rendition of the
    model's unit-time semantics.

    ``adversary`` accepts a strategy instance or any registry name from
    :data:`repro.scenario.registry.ADVERSARIES` (``"strong"``,
    ``"passive"``, ...); ``churn`` optionally names a churn model from
    :data:`~repro.scenario.registry.CHURN_MODELS` whose event stream
    supplies the join/leave decisions in place of the default Bernoulli
    draw (``churn_options`` are its keyword arguments).
    """

    def __init__(
        self,
        config: OverlayConfig,
        rng: np.random.Generator,
        adversary: AdversaryStrategy | str | None = None,
        events_per_unit: int = 1,
        min_population: int = 8,
        enforce_universe_bound: bool = True,
        churn: str | None = None,
        churn_options: Mapping | None = None,
    ) -> None:
        if events_per_unit < 1:
            raise ValueError(
                f"events_per_unit must be >= 1, got {events_per_unit}"
            )
        adversary = resolve_adversary(adversary, config.model)
        self._overlay = ClusterOverlay(config, rng, adversary)
        self._rng = rng
        self._churn_stream: Iterator[ChurnEvent] | None = None
        if churn is not None:
            self._churn_stream = CHURN_MODELS.get(churn)(
                rng, config.model, **dict(churn_options or {})
            ).events(rng)
        self._engine = DiscreteEventEngine()
        self._events_per_unit = events_per_unit
        self._min_population = min_population
        # Section III-B: the adversary controls at most a fraction mu of
        # the *universe*.  Malicious peers suppress their own departures,
        # so without this bound the standing malicious fraction would
        # drift above mu over long horizons -- an artifact the model
        # excludes by construction.
        self._enforce_universe_bound = enforce_universe_bound

    @property
    def overlay(self) -> ClusterOverlay:
        """The underlying overlay instance."""
        return self._overlay

    @property
    def engine(self) -> DiscreteEventEngine:
        """The event engine (for custom instrumentation)."""
        return self._engine

    def bootstrap(self, n_peers: int, honest_only: bool = True) -> None:
        """Populate the overlay before the churn phase.

        ``honest_only=True`` (default) seeds an attack-free overlay --
        the operational counterpart of the paper's ``delta`` initial
        distribution, under which the fault-containment results hold;
        malicious peers then arrive through churn at rate ``mu``.
        ``honest_only=False`` seeds with contaminated membership
        (the ``beta``-like setting).
        """
        for _ in range(n_peers):
            self._overlay.join_new_peer(
                malicious=False if honest_only else None
            )

    def _malicious_fraction(self) -> float:
        # Maintained incrementally by the overlay: O(1) per query
        # instead of a full peer scan on every join event.
        return self._overlay.malicious_fraction()

    def _next_is_join(self) -> bool:
        if self._churn_stream is None:
            return self._rng.random() < self._overlay.params.p_join
        try:
            return next(self._churn_stream).kind is EventKind.JOIN
        except StopIteration:
            raise RuntimeError(
                "churn stream exhausted before the run horizon; raise the "
                "generator's horizon (churn_options) or shorten the run"
            ) from None

    def _tick_kinds(self) -> np.ndarray:
        """Join/leave decisions of one tick, drawn as a batch.

        The count-state engines taught us to hoist per-event draws out
        of the hot loop: under the default Bernoulli churn the tick's
        ``events_per_unit`` kinds are independent, so one vectorized
        draw replaces that many scalar RNG round trips.  A churn stream
        stays sequential (its events are consumed one by one).
        """
        if self._churn_stream is None:
            return (
                self._rng.random(self._events_per_unit)
                < self._overlay.params.p_join
            )
        return np.fromiter(
            (self._next_is_join() for _ in range(self._events_per_unit)),
            dtype=bool,
            count=self._events_per_unit,
        )

    def _churn_tick(self) -> None:
        overlay = self._overlay
        for join in self._tick_kinds():
            if join or overlay.n_peers <= self._min_population:
                malicious = None
                if (
                    self._enforce_universe_bound
                    and self._malicious_fraction() >= overlay.params.mu
                ):
                    # The adversary's universe share is exhausted; only
                    # honest peers remain available to join.
                    malicious = False
                overlay.join_new_peer(malicious=malicious)
            else:
                overlay.leave_peer(overlay.random_member())
        overlay.advance_time(1.0)
        overlay.enforce_property1()
        overlay.apply_rule1()

    def run(
        self,
        duration: float,
        sample_every: float = 10.0,
        collect_states: bool = False,
    ) -> AgentRunResult:
        """Run for ``duration`` units, sampling metrics periodically."""
        snapshots: list[OverlaySnapshot] = []

        def sample() -> None:
            overlay = self._overlay
            snapshots.append(
                OverlaySnapshot(
                    time=self._engine.now,
                    n_peers=overlay.n_peers,
                    n_clusters=len(overlay.topology),
                    polluted_fraction=overlay.polluted_fraction(),
                    states=overlay.cluster_states() if collect_states else [],
                )
            )

        self._engine.schedule_periodic(1.0, self._churn_tick, name="churn")
        self._engine.schedule_periodic(
            sample_every, sample, name="sample", first_at=0.0
        )
        self._engine.run_until(duration)
        sample()
        fractions = [snap.polluted_fraction for snap in snapshots]
        return AgentRunResult(
            snapshots=tuple(snapshots),
            final_polluted_fraction=fractions[-1],
            peak_polluted_fraction=max(fractions),
            operations=dict(self._overlay.operations.stats.by_kind),
        )
