"""Assembly of the partitioned transition matrix ``M`` (Section VI).

:class:`ClusterChain` bundles the enumerated state space, the full
stochastic matrix over the canonical ordering
``S, P, A_S^m, A_S^l, A_P^m`` and accessors for every block of the
paper's partition::

        [ M_S    M_SP   M_S,Am  M_S,Al  M_S,Ap ]
    M = [ M_PS   M_P    M_P,Am  M_P,Al  M_P,Ap ]
        [ 0      0      I       0       0      ]
        [ 0      0      0       I       0      ]
        [ 0      0      0       0       I      ]

Closed classes are modeled as identity rows: once a cluster has merged
or split it logically disappears from the graph, which the chain
represents by staying in its closed state forever.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import ModelParameters
from repro.core.statespace import Category, State, StateSpace
from repro.core.transitions import (
    CODE_POLLUTED_SPLIT,
    TransitionRows,
    transition_rows,
)
from repro.markov.chain import MarkovChain


class ClusterChain:
    """The cluster Markov chain ``X`` for one parameter set.

    Scatters the chain's row table into the full matrix once; block
    views are cheap slices.  The heavy analytical work (fundamental
    matrices, censored chains) lives in :mod:`repro.core.absorption`
    and :mod:`repro.core.sojourn`.
    """

    def __init__(
        self, params: ModelParameters, rows: TransitionRows | None = None
    ) -> None:
        """Assemble the chain by scattering a row table into its matrix.

        ``rows`` is the one-step law of every model state of ``params``,
        a :class:`~repro.core.transitions.TransitionRows` table; the
        default is the paper's, ``transition_rows(params)``, which the
        batch Monte-Carlo engine samples too.  Protocol and adversary
        variants (:mod:`repro.core.variants`) pass their own table.  A
        table holding the polluted-split class (reachable by variants
        that bypass Rule 2's split prevention) adds it to the chain as
        a fourth closed class.
        """
        if rows is None:
            rows = transition_rows(params)
        elif rows.params != params:
            raise ValueError("rows were derived for another parameter set")
        include_polluted_split = bool(
            (rows.category_codes == CODE_POLLUTED_SPLIT).any()
        )
        self._params = params
        self._space = StateSpace(
            params, include_polluted_split=include_polluted_split
        )
        self._matrix = rows.dense_matrix()
        self._chain: MarkovChain | None = None
        counts = [
            len(self._space.safe),
            len(self._space.polluted),
            len(self._space.safe_merge),
            len(self._space.safe_split),
            len(self._space.polluted_merge),
        ]
        if include_polluted_split:
            counts.append(len(self._space.polluted_split))
        bounds = np.cumsum([0] + counts)
        self._slices = {
            Category.SAFE: slice(bounds[0], bounds[1]),
            Category.POLLUTED: slice(bounds[1], bounds[2]),
            Category.SAFE_MERGE: slice(bounds[2], bounds[3]),
            Category.SAFE_SPLIT: slice(bounds[3], bounds[4]),
            Category.POLLUTED_MERGE: slice(bounds[4], bounds[5]),
        }
        if include_polluted_split:
            self._slices[Category.POLLUTED_SPLIT] = slice(
                bounds[5], bounds[6]
            )

    @property
    def closed_categories(self) -> list[Category]:
        """The absorbing classes present in this chain's matrix."""
        closed = [
            Category.SAFE_MERGE,
            Category.SAFE_SPLIT,
            Category.POLLUTED_MERGE,
        ]
        if self._space.includes_polluted_split:
            closed.append(Category.POLLUTED_SPLIT)
        return closed

    # -- accessors -----------------------------------------------------------

    @property
    def params(self) -> ModelParameters:
        """Parameter record the chain was built from."""
        return self._params

    @property
    def space(self) -> StateSpace:
        """The enumerated state space."""
        return self._space

    @property
    def matrix(self) -> np.ndarray:
        """Full stochastic matrix over the canonical state ordering."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def as_markov_chain(self) -> MarkovChain:
        """Validated :class:`~repro.markov.chain.MarkovChain` wrapper
        with ``(s, x, y)`` tuples as labels (built lazily, cached)."""
        if self._chain is None:
            self._chain = MarkovChain(
                self._matrix,
                labels=[tuple(state) for state in self._space.model_states],
            )
        return self._chain

    def block(self, rows: Category, cols: Category) -> np.ndarray:
        """Sub-matrix ``M_{rows, cols}`` of the paper's partition."""
        return self._matrix[self._slices[rows], self._slices[cols]].copy()

    @property
    def block_safe(self) -> np.ndarray:
        """``M_S``."""
        return self.block(Category.SAFE, Category.SAFE)

    @property
    def block_safe_to_polluted(self) -> np.ndarray:
        """``M_SP``."""
        return self.block(Category.SAFE, Category.POLLUTED)

    @property
    def block_polluted_to_safe(self) -> np.ndarray:
        """``M_PS``."""
        return self.block(Category.POLLUTED, Category.SAFE)

    @property
    def block_polluted(self) -> np.ndarray:
        """``M_P``."""
        return self.block(Category.POLLUTED, Category.POLLUTED)

    @property
    def transient_matrix(self) -> np.ndarray:
        """``T`` -- the transient block over ``S`` then ``P``."""
        transient = len(self._space.safe) + len(self._space.polluted)
        return self._matrix[:transient, :transient].copy()

    def absorbing_block(self, category: Category) -> np.ndarray:
        """Transient-to-closed block ``R_A`` for one closed class."""
        if category.is_transient:
            raise ValueError(f"{category} is not a closed class")
        transient = len(self._space.safe) + len(self._space.polluted)
        return self._matrix[:transient, self._slices[category]].copy()

    # -- indicators over the transient ordering -------------------------------

    def safe_indicator(self) -> np.ndarray:
        """1 on ``S``, 0 on ``P`` (transient ordering)."""
        n_safe = len(self._space.safe)
        n_polluted = len(self._space.polluted)
        flags = np.zeros(n_safe + n_polluted)
        flags[:n_safe] = 1.0
        return flags

    def polluted_indicator(self) -> np.ndarray:
        """0 on ``S``, 1 on ``P`` (transient ordering)."""
        return 1.0 - self.safe_indicator()

    def split_initial(
        self, initial: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split a transient initial vector into ``(alpha_S, alpha_P)``."""
        alpha = np.asarray(initial, dtype=float)
        n_transient = len(self._space.safe) + len(self._space.polluted)
        if alpha.shape != (n_transient,):
            raise ValueError(
                f"initial vector has shape {alpha.shape}, expected "
                f"({n_transient},)"
            )
        n_safe = len(self._space.safe)
        return alpha[:n_safe].copy(), alpha[n_safe:].copy()

    def transient_index_of(self, state: State) -> int:
        """Index of a transient state within the ``S + P`` ordering."""
        if not self._space.is_transient(state):
            raise ValueError(f"state {tuple(state)} is not transient")
        return self._space.index_of(state)
