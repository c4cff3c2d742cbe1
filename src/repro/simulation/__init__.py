"""Discrete-event and Monte-Carlo simulation layer.

* :mod:`~repro.simulation.engine` -- deterministic event loop (simpy is
  unavailable offline; built from scratch).
* :mod:`~repro.simulation.churn` -- one law object per churn process
  (the model's Bernoulli stream plus Poisson and exponential/Pareto
  session variants), serving every tier: the timed event stream and
  the batch tier's event-kind law.
* :mod:`~repro.simulation.cluster_sim` -- agent-level single-cluster
  Monte Carlo validating Relations (5)-(9) (tier 1, the scalar
  semantics oracle).
* :mod:`~repro.simulation.batch` -- vectorized batch Monte-Carlo engine
  advancing whole cluster populations per NumPy call (tier 2, the
  scale/performance tier; statistically equivalent to tier 1).
* :mod:`~repro.simulation.overlay_sim` -- competing-clusters and full
  agent-based overlay simulations validating Theorem 2.
* :mod:`~repro.simulation.metrics` -- confidence intervals and
  model-vs-simulation comparison helpers.
"""

from repro.simulation.batch import (
    BatchClusterEngine,
    BatchCompetingClustersSimulation,
    BatchTrajectories,
    CompetingSeries,
    TrajectorySummaryAccumulator,
    batch_monte_carlo_summary,
    run_batch_trajectories,
)
from repro.simulation.churn import (
    ChurnEvent,
    EventKind,
    IIDKinds,
    ScheduledKinds,
    bernoulli_event_stream,
    exponential_sessions,
    pareto_sessions,
    poisson_event_stream,
)
from repro.simulation.cluster_sim import (
    ClusterSimulator,
    ClusterTrajectory,
    MonteCarloSummary,
    SimulationBudgetError,
    monte_carlo_summary,
    sample_initial_state,
)
from repro.simulation.engine import (
    DiscreteEventEngine,
    EventHandle,
    SimulationError,
)
from repro.simulation.metrics import (
    ConfidenceInterval,
    SeriesAccumulator,
    mean_confidence_interval,
    relative_error,
    within_tolerance,
)
from repro.simulation.overlay_sim import (
    AgentOverlaySimulation,
    AgentRunResult,
    CompetingClustersSimulation,
    OverlaySnapshot,
)
from repro.simulation.rng import (
    DEFAULT_SEED,
    replication_seeds,
    root_generator,
    spawn_generators,
)

__all__ = [
    "DiscreteEventEngine",
    "EventHandle",
    "SimulationError",
    "ChurnEvent",
    "EventKind",
    "bernoulli_event_stream",
    "poisson_event_stream",
    "exponential_sessions",
    "pareto_sessions",
    "ClusterSimulator",
    "ClusterTrajectory",
    "MonteCarloSummary",
    "SimulationBudgetError",
    "monte_carlo_summary",
    "sample_initial_state",
    "BatchClusterEngine",
    "BatchCompetingClustersSimulation",
    "BatchTrajectories",
    "TrajectorySummaryAccumulator",
    "batch_monte_carlo_summary",
    "run_batch_trajectories",
    "IIDKinds",
    "ScheduledKinds",
    "CompetingClustersSimulation",
    "CompetingSeries",
    "AgentOverlaySimulation",
    "AgentRunResult",
    "OverlaySnapshot",
    "ConfidenceInterval",
    "SeriesAccumulator",
    "mean_confidence_interval",
    "relative_error",
    "within_tolerance",
    "DEFAULT_SEED",
    "root_generator",
    "spawn_generators",
    "replication_seeds",
]
