"""Ablation studies on the design choices the paper highlights.

* ``k`` sweep -- the amount of randomization of the leave operation:
  the paper's lesson (i) says shuffling a single peer (k = 1) beats
  shuffling several; the sweep shows the full 1..C profile, not just
  the endpoints plotted in Figure 3.
* ``nu`` sweep -- Rule 1's trigger threshold: how aggressive voluntary
  leaves must be before they pay off for the adversary.
* adversary comparison -- strong (Rules 1+2) vs passive vs greedy-leave
  adversaries on the *operational* agent-based overlay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary import resolve_adversary
from repro.analysis.experiments import base_parameters
from repro.analysis.tables import render_table
from repro.core.absorption import cluster_fate
from repro.core.cluster_model import cluster_model
from repro.core.initial import delta_distribution
from repro.core.parameters import ModelParameters
from repro.core.pollution_dynamics import pollution_onset
from repro.core.variants import JoinPolicy, build_variant_chain
from repro.overlay.overlay import OverlayConfig
from repro.simulation.overlay_sim import AgentOverlaySimulation


@dataclass(frozen=True)
class KSweepPoint:
    """Resilience metrics for one randomization amount ``k``."""

    k: int
    expected_safe: float
    expected_polluted: float
    p_polluted_merge: float


def compute_k_sweep(
    mu: float = 0.20,
    d: float = 0.90,
    initial: str = "delta",
) -> list[KSweepPoint]:
    """Evaluate the full k = 1..C randomization profile."""
    points = []
    core_size = base_parameters().core_size
    for k in range(1, core_size + 1):
        model = cluster_model(base_parameters(k=k, mu=mu, d=d))
        fate = model.cluster_fate(initial)
        points.append(
            KSweepPoint(
                k=k,
                expected_safe=fate.expected_time_safe,
                expected_polluted=fate.expected_time_polluted,
                p_polluted_merge=fate.p_polluted_merge,
            )
        )
    return points


def render_k_sweep(points: list[KSweepPoint], mu: float, d: float) -> str:
    """Randomization-profile table."""
    rows = [
        [p.k, p.expected_safe, p.expected_polluted, p.p_polluted_merge]
        for p in points
    ]
    return render_table(
        ["k", "E(T_S)", "E(T_P)", "p(polluted-merge)"],
        rows,
        title=(
            f"Ablation: randomization amount k (mu={mu}, d={d}, "
            "alpha=delta)"
        ),
    )


def k1_dominates(points: list[KSweepPoint]) -> bool:
    """Lesson (i): k = 1 minimizes polluted time over the whole sweep."""
    first = points[0]
    return all(
        first.expected_polluted <= p.expected_polluted + 1e-9 for p in points
    )


@dataclass(frozen=True)
class NuSweepPoint:
    """Rule 1 sensitivity for one threshold ``nu``."""

    nu: float
    expected_polluted: float
    p_polluted_merge: float


def compute_nu_sweep(
    k: int = 7,
    mu: float = 0.20,
    d: float = 0.90,
    nu_grid: tuple[float, ...] = (0.01, 0.05, 0.10, 0.20, 0.40),
    initial: str = "delta",
) -> list[NuSweepPoint]:
    """Evaluate Rule 1's threshold sensitivity (needs k > 1)."""
    points = []
    for nu in nu_grid:
        model = cluster_model(base_parameters(k=k, mu=mu, d=d, nu=nu))
        fate = model.cluster_fate(initial)
        points.append(
            NuSweepPoint(
                nu=nu,
                expected_polluted=fate.expected_time_polluted,
                p_polluted_merge=fate.p_polluted_merge,
            )
        )
    return points


def render_nu_sweep(points: list[NuSweepPoint], k: int, mu: float, d: float) -> str:
    """Rule 1 threshold table."""
    rows = [[p.nu, p.expected_polluted, p.p_polluted_merge] for p in points]
    return render_table(
        ["nu", "E(T_P)", "p(polluted-merge)"],
        rows,
        title=f"Ablation: Rule 1 threshold nu (k={k}, mu={mu}, d={d})",
    )


@dataclass(frozen=True)
class JoinPolicyPoint:
    """Resilience metrics of one join policy at one attack strength."""

    policy: str
    mu: float
    expected_polluted: float
    p_polluted_absorption: float
    p_ever_polluted: float
    expected_onset_given_polluted: float


def compute_join_policy_ablation(
    mu_grid: tuple[float, ...] = (0.10, 0.20, 0.30),
    d: float = 0.90,
) -> list[JoinPolicyPoint]:
    """Compare the paper's spare-first join against a naive
    direct-core placement (see ``repro.core.variants``)."""
    points = []
    for mu in mu_grid:
        params = base_parameters(k=1, mu=mu, d=d)
        for policy in JoinPolicy:
            chain = build_variant_chain(params, policy)
            initial = delta_distribution(chain)
            fate = cluster_fate(chain, initial)
            onset = pollution_onset(chain, initial, horizon=100)
            points.append(
                JoinPolicyPoint(
                    policy=policy.value,
                    mu=mu,
                    expected_polluted=fate.expected_time_polluted,
                    p_polluted_absorption=fate.p_polluted_absorption,
                    p_ever_polluted=onset.probability_ever_polluted,
                    expected_onset_given_polluted=(
                        onset.expected_onset_given_polluted
                    ),
                )
            )
    return points


def render_join_policy_ablation(
    points: list[JoinPolicyPoint], d: float = 0.90
) -> str:
    """Join-policy comparison table."""
    rows = [
        [
            f"{round(100 * p.mu)}%",
            p.policy,
            p.expected_polluted,
            p.p_polluted_absorption,
            p.p_ever_polluted,
            p.expected_onset_given_polluted,
        ]
        for p in points
    ]
    return render_table(
        [
            "mu",
            "join policy",
            "E(T_P)",
            "p(polluted absorption)",
            "p(ever polluted)",
            "E[onset | polluted]",
        ],
        rows,
        title=(
            f"Ablation: join placement policy (d={d}, k=1, alpha=delta) -- "
            "why joiners must start as spares"
        ),
    )


def spare_first_dominates(points: list[JoinPolicyPoint]) -> bool:
    """The paper's join policy beats direct-core on every metric."""
    by_mu: dict[float, dict[str, JoinPolicyPoint]] = {}
    for point in points:
        by_mu.setdefault(point.mu, {})[point.policy] = point
    for group in by_mu.values():
        paper = group[JoinPolicy.SPARE_FIRST.value]
        naive = group[JoinPolicy.DIRECT_CORE.value]
        if paper.expected_polluted > naive.expected_polluted + 1e-9:
            return False
        if paper.p_ever_polluted > naive.p_ever_polluted + 1e-9:
            return False
    return True


@dataclass(frozen=True)
class AdversaryComparison:
    """Operational pollution metrics for one adversary strategy."""

    name: str
    peak_polluted_fraction: float
    final_polluted_fraction: float
    joins_discarded: int
    leaves_suppressed: int


#: Display labels of the registry names compared by default.
ADVERSARY_LABELS = {
    "strong": "strong (Rules 1+2)",
    "passive": "passive",
    "greedy-leave": "greedy-leave",
}


def compare_adversaries(
    mu: float = 0.20,
    d: float = 0.90,
    n_peers: int = 220,
    duration: float = 300.0,
    events_per_unit: int = 2,
    seed: int = 11,
    adversaries: tuple[str, ...] = ("strong", "passive", "greedy-leave"),
) -> list[AdversaryComparison]:
    """Run the agent-based overlay under the named adversary strategies.

    ``adversaries`` are registry keys
    (:data:`repro.scenario.registry.ADVERSARIES`), so any strategy a
    plugin registers is comparable from here and from the CLI.
    Expected ordering on the defaults (the paper-consistent story): the
    strong adversary's probability-gated strategy dominates; the greedy
    variant, which volunteers core leaves without Relation (2)'s gate,
    keeps sacrificing won seats and performs *worse than doing nothing
    strategic at all* -- the operational face of the paper's lesson that
    unnecessary shuffling helps the defenders.
    """
    params = ModelParameters(
        core_size=7, spare_max=7, k=1, mu=mu, d=d
    )
    results = []
    for strategy_name in adversaries:
        name = ADVERSARY_LABELS.get(strategy_name, strategy_name)
        strategy = resolve_adversary(strategy_name, params)
        rng = np.random.default_rng(seed)
        simulation = AgentOverlaySimulation(
            OverlayConfig(model=params, id_bits=16, key_bits=32),
            rng,
            adversary=strategy,
            events_per_unit=events_per_unit,
        )
        simulation.bootstrap(n_peers)
        run = simulation.run(duration, sample_every=5.0)
        results.append(
            AdversaryComparison(
                name=name,
                peak_polluted_fraction=run.peak_polluted_fraction,
                final_polluted_fraction=run.final_polluted_fraction,
                joins_discarded=run.operations.get("join-discarded", 0),
                leaves_suppressed=run.operations.get("leave-suppressed", 0),
            )
        )
    return results


def render_adversary_comparison(results: list[AdversaryComparison]) -> str:
    """Operational adversary-comparison table."""
    rows = [
        [
            r.name,
            r.peak_polluted_fraction,
            r.final_polluted_fraction,
            r.joins_discarded,
            r.leaves_suppressed,
        ]
        for r in results
    ]
    return render_table(
        [
            "adversary",
            "peak polluted",
            "final polluted",
            "joins discarded",
            "leaves suppressed",
        ],
        rows,
        title="Ablation: adversary strategies on the agent-based overlay",
    )
