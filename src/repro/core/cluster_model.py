"""High-level facade over the analytical cluster model.

:class:`ClusterModel` is the main entry point of the public API: it
builds the chain lazily, resolves initial-distribution specifications
and exposes every quantity the paper reports with one method each.

Example
-------
>>> from repro import ClusterModel, ModelParameters
>>> model = ClusterModel(ModelParameters(mu=0.2, d=0.9, k=1))
>>> round(model.expected_time_safe("delta"), 2)        # doctest: +SKIP
11.89
>>> model.absorption_probabilities("delta")            # doctest: +SKIP
{'safe-merge': ..., 'safe-split': ..., 'polluted-merge': ...}
"""

from __future__ import annotations

import numpy as np

from repro.core import absorption as _absorption
from repro.core import sojourn as _sojourn
from repro.core.absorption import ClusterFate
from repro.core.initial import resolve_initial
from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.sojourn import SojournProfile
from repro.core.statespace import State, StateSpace
from repro.core.transitions import memoized
from repro.markov.chain import MarkovChain

#: Accepted forms of an initial-distribution specification.
InitialSpec = str | State | tuple[int, int, int] | np.ndarray


class ClusterModel:
    """Analytical model of a single cluster under targeted attack."""

    def __init__(self, params: ModelParameters | None = None) -> None:
        self._params = params if params is not None else ModelParameters()
        self._chain: ClusterChain | None = None

    # -- construction ---------------------------------------------------------

    @property
    def params(self) -> ModelParameters:
        """The parameter record."""
        return self._params

    @property
    def chain(self) -> ClusterChain:
        """The assembled chain (built on first access)."""
        if self._chain is None:
            self._chain = ClusterChain(self._params)
        return self._chain

    @property
    def space(self) -> StateSpace:
        """Enumerated state space."""
        return self.chain.space

    def as_markov_chain(self) -> MarkovChain:
        """Labeled :class:`~repro.markov.chain.MarkovChain` view."""
        return self.chain.as_markov_chain()

    def with_overrides(self, **changes) -> "ClusterModel":
        """New model with some parameters replaced."""
        return ClusterModel(self._params.with_overrides(**changes))

    def _initial(self, initial) -> np.ndarray:
        return resolve_initial(self.chain, initial)

    # -- paper quantities ------------------------------------------------------

    def expected_time_safe(self, initial="delta") -> float:
        """``E(T_S^(k))`` -- Relation (5), Figure 3 / Table I."""
        return _absorption.expected_time_safe(self.chain, self._initial(initial))

    def expected_time_polluted(self, initial="delta") -> float:
        """``E(T_P^(k))`` -- Relation (6), Figure 3 / Table I."""
        return _absorption.expected_time_polluted(
            self.chain, self._initial(initial)
        )

    def expected_sojourn_safe(self, n: int, initial="delta") -> float:
        """``E(T_S,n)`` -- Relation (7), Table II."""
        return _sojourn.expected_sojourn_safe(
            self.chain, self._initial(initial), n
        )

    def expected_sojourn_polluted(self, n: int, initial="delta") -> float:
        """``E(T_P,n)`` -- Relation (8), Table II."""
        return _sojourn.expected_sojourn_polluted(
            self.chain, self._initial(initial), n
        )

    def sojourn_profile(self, initial="delta", depth: int = 2) -> SojournProfile:
        """Relations (5)-(8) bundled (Table II rows)."""
        return _sojourn.sojourn_profile(
            self.chain, self._initial(initial), depth
        )

    def absorption_probabilities(self, initial="delta") -> dict[str, float]:
        """``p(A_S^m), p(A_S^l), p(A_P^m)`` -- Relation (9), Figure 4."""
        return _absorption.absorption_probabilities(
            self.chain, self._initial(initial)
        )

    def cluster_fate(self, initial="delta") -> ClusterFate:
        """All absorption-related quantities in one record."""
        return _absorption.cluster_fate(self.chain, self._initial(initial))

    def expected_lifetime(self, initial="delta") -> float:
        """Expected number of events before merge/split absorption."""
        return _absorption.expected_steps_to_absorption(
            self.chain, self._initial(initial)
        )

    # -- transient behaviour -----------------------------------------------------

    def transient_law(self, initial="delta", n_steps: int = 0) -> np.ndarray:
        """Law over transient states after ``n_steps`` local transitions
        (sub-stochastic: missing mass has been absorbed)."""
        law = self._initial(initial)
        transient = self.chain.transient_matrix
        for _ in range(n_steps):
            law = law @ transient
        return law

    def pollution_probability_after(
        self, n_steps: int, initial="delta"
    ) -> float:
        """``P{X_n in P}`` after ``n_steps`` local transitions."""
        law = self.transient_law(initial, n_steps)
        return float(law @ self.chain.polluted_indicator())

    def survival_probability_after(
        self, n_steps: int, initial="delta"
    ) -> float:
        """Probability the cluster has not yet merged or split."""
        return float(self.transient_law(initial, n_steps).sum())

    # -- distribution-level extensions (see core.pollution_dynamics) -----

    def pollution_onset(self, initial="delta", horizon: int = 200):
        """Law of the time until the core first loses its quorum."""
        from repro.core.pollution_dynamics import pollution_onset

        return pollution_onset(self.chain, self._initial(initial), horizon)

    def safe_time_survival(self, horizon: int, initial="delta") -> np.ndarray:
        """``P{T_S > n}`` for ``n = 0 .. horizon``."""
        from repro.core.pollution_dynamics import safe_time_survival

        return safe_time_survival(self.chain, self._initial(initial), horizon)

    def polluted_time_survival(
        self, horizon: int, initial="delta"
    ) -> np.ndarray:
        """``P{T_P > n}`` for ``n = 0 .. horizon``."""
        from repro.core.pollution_dynamics import polluted_time_survival

        return polluted_time_survival(
            self.chain, self._initial(initial), horizon
        )


def cluster_model(params: ModelParameters) -> ClusterModel:
    """The shared :class:`ClusterModel` of ``params``: its chain and
    solves are built once while the set is among the 64 most recent
    (see :func:`~repro.core.transitions.memoized`)."""
    return memoized(params, "model", lambda: ClusterModel(params))
