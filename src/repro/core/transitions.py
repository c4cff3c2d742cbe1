"""The transition tree of the cluster chain (paper Figure 2).

One tree derives every one-step law of the chain from a transient state
``(s, x, y)`` as a mapping ``State -> probability``.  It follows the
paper's tree literally, with the four switches of a
:class:`~repro.core.policies.CountAdversaryPolicy` left free, and
mirrors the scalar member-list oracle
(:class:`~repro.simulation.cluster_sim.ClusterSimulator`) branch for
branch; the equivalence suite pits the two against each other for
every registered policy.

* **join event**, joiner malicious w.p. ``p_m = mu``:

  - safe cluster (``x <= c``), or no ``rule2``: the joiner enters the
    spare set;
  - polluted cluster (``x > c``) under ``rule2``: at ``s = Delta - 1``
    every join is discarded (split prevention); below it malicious
    joins are accepted, and honest joins are discarded when ``s > 1``
    and accepted when ``s = 1`` (merge avoidance).

* **leave event**, targeting the core w.p. ``p_c = C / (C + s)``:

  - spare member targeted (``1 - p_c``), malicious w.p. ``p_ms = y/s``:
    an honest one leaves (natural churn); a malicious one leaves, under
    ``suppress_leaves``, only if Property 1 forces it (w.p.
    ``1 - d**y``), and otherwise like anyone;
  - core member targeted (``p_c``), malicious w.p. ``p_mc = x/C``:

    * honest: leaves, and the core is repaired;
    * malicious with surviving identifiers (w.p. ``d**x``, under
      ``suppress_leaves``): a *voluntary* leave, followed by
      maintenance ``tau(x-1, ., .)``, happens only when the cluster is
      safe, no merge would result (``s > 1``) and ``rule1`` orders it
      (``"gated"``: Relation (2) fires; ``"always"``: a malicious spare
      exists; ``"never"``); otherwise nothing changes;
    * malicious forced out (w.p. ``1 - d**x``, or always without
      ``suppress_leaves``): leaves, and the core is repaired.

    A repair leaving ``x'`` malicious core members (``x`` after an
    honest departure, ``x - 1`` after a malicious one) is biased while
    they hold the quorum (``x' > c``) under ``biased_replacement`` -- a
    malicious spare is promoted if any, else an honest one -- and
    otherwise runs the randomized maintenance kernel ``tau(x', ., .)``.

Each sub-tree adds its branch products to a law at a total mass
``weight``:

* the paper's law (:func:`transition_distribution`) is the tree at
  :data:`~repro.core.policies.STRONG_POLICY` with the event-kind
  probabilities threaded through it: the join sub-tree at weight
  ``p_join``, the leave sub-tree at ``p_leave``;
* a policy's kind-conditional laws (:data:`KIND_JOIN`,
  :data:`KIND_LEAVE`) are the two sub-trees at weight 1, so any churn
  process reduces, event-indexed, to a mixture (i.i.d. streams) or a
  schedule (session streams) of the same two row tables;
* a policy's mixed law (:func:`policy_transition_distribution`)
  combines the kind laws as ``p * join + (1 - p) * leave``.

The two mixing rules round differently: at the strong switches they
differ in the last bits for over a third of the transient states.
Both stay, because the outputs of each are pinned: the paper's law
feeds Tables I-II, Figures 3-5 and the paper's rows, the kind-law
mixture every variant table, chain and batch trajectory.  An edit to
the tree must keep the products of the paper's law and the order in
which they reach their targets (``tests/golden/transition_laws.jsonl``
pins both).

Everything derived from one parameter set -- these laws, the sampled
:class:`TransitionRows`, the batch engine's skip tables and the
analytic model -- is kept in one bounded memo (:func:`memoized`).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TypeVar

import numpy as np

from repro.core.distributions import maintenance_kernel
from repro.core.parameters import ModelParameters
from repro.core.policies import STRONG_POLICY, CountAdversaryPolicy
from repro.core.rules import property1_survival, rule1_triggers
from repro.core.statespace import Category, State, StateSpace, StateSpaceError

#: Event-kind selectors accepted by the policy-law derivation.
KIND_JOIN = "join"
KIND_LEAVE = "leave"
KIND_MIXED = "mixed"

# -- the per-parameter-set memo ----------------------------------------------

#: Parameter sets whose derivations stay memoized.  ``repro report``'s
#: grids touch 73 sets and come back to one after at most 55 others,
#: the benchmark's engine mix never revisits a set across points, and a
#: sweep of same-params points uses one.
MEMO_SIZE = 64

_T = TypeVar("_T")


@lru_cache(maxsize=MEMO_SIZE)
def _derivations(params: ModelParameters) -> dict[Hashable, object]:
    """Everything derived from ``params`` so far, by key.  Evicted
    whole once ``params`` is not among the :data:`MEMO_SIZE` most
    recently used parameter sets."""
    return {}


def memoized(
    params: ModelParameters, key: Hashable, build: Callable[[], _T]
) -> _T:
    """``build()``, memoized under ``key`` among ``params``' derivations.

    The one memo of the package: the Figure-2 laws of every state, every
    :class:`TransitionRows` variant, the batch engine's skip tables and
    the analytic :class:`~repro.core.cluster_model.ClusterModel` are
    kept here while ``params`` is among the :data:`MEMO_SIZE` most
    recently used parameter sets.  Thread-safe: threads deriving one
    key at once may each build it, and they get equal values.
    """
    derived = _derivations(params)
    value = derived.get(key)
    if value is None:
        value = derived.setdefault(key, build())
    return value


def clear_transition_caches() -> None:
    """Drop every memoized derivation: laws, rows, skip tables, models."""
    _derivations.cache_clear()


def _transition_items(
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy | None = None,
    kind: str = KIND_MIXED,
) -> tuple[tuple[State, float], ...]:
    """Memoized transition law as a hashable tuple of items.

    Without a ``policy`` this is the paper's law: the tree at
    :data:`STRONG_POLICY` with ``p_join`` and ``p_leave`` threaded
    through it.  With one, it is the ``kind``-conditional law (join or
    leave, total mass 1) under ``policy``.

    Deriving the tree walks the maintenance kernel's hypergeometric
    double sum for every maintenance edge, which dominates
    chain-assembly time.  The derivation is shared by repeated chain
    assemblies (sweeps re-building ``ClusterChain``) and by the
    batch-row precomputation in :func:`transition_rows`.
    """

    def derive() -> tuple[tuple[State, float], ...]:
        s, _, _ = state
        if not 0 < s < params.spare_max:
            raise StateSpaceError(
                f"transitions are defined on transient states only, got s={s}"
            )
        law: dict[State, float] = defaultdict(float)
        if policy is None:
            _add_join(law, state, params, STRONG_POLICY, params.p_join)
            _add_leave(law, state, params, STRONG_POLICY, params.p_leave)
        elif kind == KIND_JOIN:
            _add_join(law, state, params, policy, 1.0)
        elif kind == KIND_LEAVE:
            _add_leave(law, state, params, policy, 1.0)
        else:
            raise ValueError(f"kind must be join/leave, got {kind!r}")
        return tuple((target, p) for target, p in law.items() if p > 0.0)

    return memoized(params, ("law", state, policy, kind), derive)


def transition_distribution(
    state: State, params: ModelParameters
) -> dict[State, float]:
    """One-step law of the chain from a transient state.

    Raises :class:`StateSpaceError` when called on a closed state
    (``s = 0`` or ``s = Delta``): closed states are absorbing by
    definition and carry identity rows in the matrix.

    The underlying derivation is memoized per ``(state, params)``; the
    returned dict is a fresh copy, safe for callers to mutate.
    """
    return dict(_transition_items(State(*state), params))


def _add_join(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Join sub-tree (left half of Figure 2), total mass ``weight``."""
    s, x, y = state
    p_malicious = params.mu
    if params.is_polluted(x) and policy.rule2:
        # Polluted cluster: Rule 2 filters join events.
        if s == params.spare_max - 1:
            # Split prevention: all joins (malicious included) discarded.
            law[state] += weight
            return
        law[State(s + 1, x, y + 1)] += weight * p_malicious
        if s > 1:
            # Honest joiner acknowledged but silently dropped.
            law[state] += weight * (1.0 - p_malicious)
        else:
            # s == 1: merge avoidance, the honest joiner is admitted.
            law[State(s + 1, x, y)] += weight * (1.0 - p_malicious)
        return
    # Safe cluster (or no filtering): the join operation always runs.
    law[State(s + 1, x, y + 1)] += weight * p_malicious
    law[State(s + 1, x, y)] += weight * (1.0 - p_malicious)


def _add_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Leave sub-tree (right half of Figure 2), total mass ``weight``."""
    s, _, _ = state
    p_core = params.p_core(s)
    _add_spare_leave(law, state, params, policy, weight * (1.0 - p_core))
    _add_core_leave(law, state, params, policy, weight * p_core)


def _add_spare_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Leave event targeting a spare member."""
    if weight == 0.0:
        return
    s, x, y = state
    p_malicious_spare = y / s
    honest_weight = weight * (1.0 - p_malicious_spare)
    if honest_weight > 0.0:
        # Honest spares leave with the natural churn.
        law[State(s - 1, x, y)] += honest_weight
    malicious_weight = weight * p_malicious_spare
    if malicious_weight == 0.0:
        return
    if policy.suppress_leaves:
        # The adversary keeps its spares in place while ids are valid.
        survive = property1_survival(y, params)
        law[state] += malicious_weight * survive
        law[State(s - 1, x, y - 1)] += malicious_weight * (1.0 - survive)
    else:
        # A protocol-following malicious spare churns like anyone.
        law[State(s - 1, x, y - 1)] += malicious_weight


def _add_core_leave(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """Leave event targeting a core member."""
    if weight == 0.0:
        return
    s, x, y = state
    p_malicious_core = x / params.core_size
    honest_weight = weight * (1.0 - p_malicious_core)
    if honest_weight > 0.0:
        # An honest core member departs; the core view is repaired.
        _add_departed_core(law, state, params, policy, x, honest_weight)
    malicious_weight = weight * p_malicious_core
    if malicious_weight == 0.0:
        return
    if policy.suppress_leaves:
        survive = property1_survival(x, params)
        stay_weight = malicious_weight * survive
        if stay_weight > 0.0:
            _add_voluntary(law, state, params, policy, stay_weight)
        forced_weight = malicious_weight * (1.0 - survive)
    else:
        forced_weight = malicious_weight
    if forced_weight > 0.0:
        # Property 1 (or the protocol) forces a malicious member out.
        _add_departed_core(law, state, params, policy, x - 1, forced_weight)


def _add_voluntary(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    weight: float,
) -> None:
    """No identifier expired: the adversary leaves only under Rule 1."""
    s, x, y = state
    if params.is_polluted(x):
        # Never give up a won quorum.
        leaves = False
    elif s <= 1 or policy.rule1 == "never":
        # A leave at s = 1 would merge the cluster.
        leaves = False
    elif policy.rule1 == "gated":
        leaves = rule1_triggers(state, params)
    else:
        # "always" still needs a malicious spare to promote.
        leaves = y > 0
    if leaves:
        _add_maintenance(law, state, params, x - 1, weight)
    else:
        law[state] += weight


def _add_departed_core(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    malicious_core_after: int,
    weight: float,
) -> None:
    """Repair after a core departure that leaves ``malicious_core_after``
    malicious members among the other ``C - 1``."""
    s, _, y = state
    if (
        malicious_core_after > params.pollution_quorum
        and policy.biased_replacement
    ):
        # Quorum retained: the adversary biases the replacement, a
        # malicious spare if any, else an honest one.
        if y > 0:
            law[State(s - 1, malicious_core_after + 1, y - 1)] += weight
        else:
            law[State(s - 1, malicious_core_after, y)] += weight
        return
    _add_maintenance(law, state, params, malicious_core_after, weight)


def _add_maintenance(
    law: dict[State, float],
    state: State,
    params: ModelParameters,
    malicious_core_after: int,
    weight: float,
) -> None:
    """Randomized core maintenance after a core departure.

    ``malicious_core_after`` is the malicious count among the remaining
    ``C - 1`` core members (``x`` for an honest departure, ``x - 1`` for
    a malicious one).  The new state is
    ``(s - 1, malicious_core_after - a + b, y + a - b)``.
    """
    s, _, y = state
    for a, b, probability in maintenance_kernel(
        malicious_core_after=malicious_core_after,
        malicious_spare=y,
        spare_size=s,
        core_size=params.core_size,
        k=params.k,
    ):
        target = State(s - 1, malicious_core_after - a + b, y + a - b)
        law[target] += weight * probability


def policy_transition_distribution(
    state: State,
    params: ModelParameters,
    policy: CountAdversaryPolicy | None = None,
    kind: str = KIND_MIXED,
    p_join: float | None = None,
) -> dict[State, float]:
    """One-step law of the chain under an arbitrary count-level policy.

    ``kind`` selects the conditional law given the event kind
    (:data:`KIND_JOIN` / :data:`KIND_LEAVE`) or the :data:`KIND_MIXED`
    unconditional law, in which case the event is a join with
    probability ``p_join`` (default ``params.p_join``) and the two kind
    laws are combined as ``p * join + (1 - p) * leave``.  For the strong
    policy at the default mix this agrees with
    :func:`transition_distribution` up to rounding (see the module
    docstring for why the two mixing rules are both kept).
    """
    state = State(*state)
    if policy is None:
        policy = STRONG_POLICY
    if kind in (KIND_JOIN, KIND_LEAVE):
        return dict(_transition_items(state, params, policy, kind))
    if kind != KIND_MIXED:
        raise ValueError(f"kind must be join/leave/mixed, got {kind!r}")
    p = params.p_join if p_join is None else float(p_join)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p_join must be in [0, 1], got {p}")
    law: dict[State, float] = defaultdict(float)
    for target, probability in _transition_items(
        state, params, policy, KIND_JOIN
    ):
        law[target] += p * probability
    for target, probability in _transition_items(
        state, params, policy, KIND_LEAVE
    ):
        law[target] += (1.0 - p) * probability
    return {target: p_ for target, p_ in law.items() if p_ > 0.0}


# -- precomputed transition rows (shared by matrix assembly and the
# -- vectorized batch Monte-Carlo engine) ----------------------------------

#: Integer codes of the partition classes, in canonical matrix order.
#: Transient classes come first so ``code <= CODE_POLLUTED`` tests
#: transience and ``code >= CODE_SAFE_MERGE`` tests absorption.
CATEGORY_CODES: dict[Category, int] = {
    Category.SAFE: 0,
    Category.POLLUTED: 1,
    Category.SAFE_MERGE: 2,
    Category.SAFE_SPLIT: 3,
    Category.POLLUTED_MERGE: 4,
    Category.POLLUTED_SPLIT: 5,
}

CODE_SAFE = CATEGORY_CODES[Category.SAFE]
CODE_POLLUTED = CATEGORY_CODES[Category.POLLUTED]
CODE_SAFE_MERGE = CATEGORY_CODES[Category.SAFE_MERGE]
CODE_SAFE_SPLIT = CATEGORY_CODES[Category.SAFE_SPLIT]
CODE_POLLUTED_MERGE = CATEGORY_CODES[Category.POLLUTED_MERGE]
CODE_POLLUTED_SPLIT = CATEGORY_CODES[Category.POLLUTED_SPLIT]


@dataclass(frozen=True)
class SamplingTable:
    """Padded inverse-CDF rows: one discrete law per model state.

    Row ``i`` lists its (few) reachable targets left-aligned:

    * ``targets[i, j]`` -- model index of the ``j``-th target; padding
      columns repeat the last real target,
    * ``probs[i, j]`` -- its probability; padding columns hold 0,
    * ``cum_probs[i, j]`` -- running sum along the row, so sampling a
      transition is an inverse-CDF lookup: the drawn column is the first
      ``j`` with ``cum_probs[i, j] > u``.

    All arrays are read-only; they are shared by every consumer of the
    memo.
    """

    targets: np.ndarray
    probs: np.ndarray
    cum_probs: np.ndarray

    @classmethod
    def pad(cls, per_row: list[list[tuple[int, float]]], **fields):
        """Table of per-row ``(target, probability)`` lists, padded to
        the widest row; ``fields`` fills a subclass's own fields."""
        width = max(len(items) for items in per_row)
        targets = np.empty((len(per_row), width), dtype=np.intp)
        probs = np.zeros((len(per_row), width))
        for i, items in enumerate(per_row):
            count = len(items)
            targets[i, :count] = [index for index, _ in items]
            targets[i, count:] = items[-1][0]
            probs[i, :count] = [p for _, p in items]
        cum_probs = probs.cumsum(axis=1)
        # Guarantee the final column covers every uniform draw in [0, 1)
        # despite float summation drift (the padding keeps monotonicity).
        cum_probs[:, -1] = np.maximum(cum_probs[:, -1], 1.0)
        for array in (targets, probs, cum_probs):
            array.setflags(write=False)
        return cls(targets=targets, probs=probs, cum_probs=cum_probs, **fields)

    @property
    def n_states(self) -> int:
        """Number of model states (table rows)."""
        return self.targets.shape[0]

    @property
    def width(self) -> int:
        """Padded row width (maximal number of distinct targets)."""
        return self.targets.shape[1]

    @cached_property
    def flat_cum(self) -> np.ndarray:
        """``cum_probs`` with row ``i`` shifted by ``2 i``, flattened: the
        query ``2 i + u`` lands inside row ``i``'s segment, so one
        :func:`numpy.searchsorted` samples every row at once."""
        n = self.cum_probs.shape[0]
        flat = (self.cum_probs + 2.0 * np.arange(n)[:, None]).ravel()
        flat.setflags(write=False)
        return flat

    def sample(self, indices: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """One target per state of ``indices``, inverting its row's CDF
        at the matching uniform of ``draws``."""
        flat = np.searchsorted(
            self.flat_cum, 2.0 * indices + draws, side="right"
        )
        columns = flat - indices.astype(np.intp, copy=False) * self.width
        return self.targets[indices, columns]


@dataclass(frozen=True)
class TransitionRows(SamplingTable):
    """Dense, padded one-step law of the whole chain for one parameter set.

    Row ``i`` of the :class:`SamplingTable` describes model state ``i``
    in the canonical :class:`~repro.core.statespace.StateSpace`
    ordering.  Closed states carry probability-one self loops, which
    lets a batch stepper advance a mixed live/absorbed index array
    uniformly.  ``category_codes`` maps every model state to its
    :data:`CATEGORY_CODES` entry and ``state_index`` is a dense
    ``(Delta+1, C+1, Delta+1)`` lookup from ``(s, x, y)`` to the model
    index (``-1`` for tuples outside the matrix).  Built by
    :func:`transition_rows`, and shared while the set is among the
    :data:`MEMO_SIZE` most recent.
    """

    params: ModelParameters
    category_codes: np.ndarray
    state_index: np.ndarray
    #: Count-level policy the rows were derived for (``None`` = the
    #: paper's chain, :func:`transition_distribution`).
    policy: CountAdversaryPolicy | None = None
    #: Event-kind conditioning: ``"mixed"``, ``"join"`` or ``"leave"``.
    kind: str = KIND_MIXED
    #: Join probability of a mixed law (``None`` = ``params.p_join``).
    p_join_mix: float | None = None

    def index_of(self, state: State) -> int:
        """Model index of ``state``; raises on non-model states."""
        s, x, y = State(*state)
        lookup = self.state_index
        if not (
            0 <= s < lookup.shape[0]
            and 0 <= x < lookup.shape[1]
            and 0 <= y < lookup.shape[2]
        ):
            raise StateSpaceError(
                f"state {(s, x, y)} outside Omega for {self.params.describe()}"
            )
        index = int(lookup[s, x, y])
        if index < 0:
            raise StateSpaceError(
                f"state {(s, x, y)} is not part of the transition matrix"
            )
        return index

    def dense_matrix(self) -> np.ndarray:
        """Fresh dense stochastic matrix over the canonical ordering."""
        n, width = self.targets.shape
        matrix = np.zeros((n, n))
        rows = np.repeat(np.arange(n), width)
        np.add.at(matrix, (rows, self.targets.ravel()), self.probs.ravel())
        return matrix


def _assemble_rows(
    params: ModelParameters,
    items_fn,
    *,
    include_polluted_split: bool,
    policy: CountAdversaryPolicy | None,
    kind: str = KIND_MIXED,
    p_join_mix: float | None = None,
) -> TransitionRows:
    """Pad one-step laws of every model state into dense sampled rows.

    ``items_fn(state) -> iterable[(State, prob)]`` supplies the law of
    each transient state; closed states carry probability-one self
    loops.  The rows cover the paper's matrix states, and the
    polluted-split class too when ``include_polluted_split``.
    """
    space = StateSpace(params, include_polluted_split=include_polluted_split)
    states = space.model_states
    n_transient = len(space.transient)
    per_row: list[list[tuple[int, float]]] = []
    for i, state in enumerate(states):
        if i < n_transient:
            items = sorted(
                (space.index_of(target), p)
                for target, p in items_fn(state)
            )
        else:
            items = [(i, 1.0)]
        per_row.append(items)
    category_codes = np.array(
        [CATEGORY_CODES[space.categorize(state)] for state in states],
        dtype=np.int8,
    )
    delta = params.spare_max
    state_index = np.full(
        (delta + 1, params.core_size + 1, delta + 1), -1, dtype=np.intp
    )
    for i, (s, x, y) in enumerate(states):
        state_index[s, x, y] = i
    for array in (category_codes, state_index):
        array.setflags(write=False)
    return TransitionRows.pad(
        per_row,
        params=params,
        category_codes=category_codes,
        state_index=state_index,
        policy=policy,
        kind=kind,
        p_join_mix=p_join_mix,
    )


def transition_rows(
    params: ModelParameters,
    *,
    policy: CountAdversaryPolicy | None = None,
    kind: str = KIND_MIXED,
    p_join: float | None = None,
) -> TransitionRows:
    """Memoized :class:`TransitionRows` for one parameter set.

    With the default arguments this is the paper's chain: the rows of
    :func:`transition_distribution`, the tree at the strong switches
    with ``p_join``/``p_leave`` threaded through it.  Chain assembly
    (:class:`~repro.core.matrix.ClusterChain`) scatters the rows into
    its dense matrix and the batch Monte-Carlo engine samples them
    directly, so the Figure-2 tree is derived once per parameter point
    while the set is among the :data:`MEMO_SIZE` most recent (see
    :func:`memoized`).

    Passing a :class:`~repro.core.policies.CountAdversaryPolicy`, an
    event-kind conditioning (:data:`KIND_JOIN` / :data:`KIND_LEAVE`) or
    a non-default join mix assembles *variant rows* through
    :func:`policy_transition_distribution` instead.  Variant rows are
    enumerated over the full space including the polluted-split closed
    class (policies that drop Rule 2 can reach it), so their state
    indexing is a superset of -- but not interchangeable with -- the
    paper's rows; each variant is memoized under its own key.
    """
    paper = policy is None and kind == KIND_MIXED and p_join is None
    if paper:
        def law(state):
            return _transition_items(state, params)
    else:
        policy = policy or STRONG_POLICY

        def law(state):
            return policy_transition_distribution(
                state, params, policy, kind=kind, p_join=p_join
            ).items()

    return memoized(
        params,
        ("rows", policy, kind, p_join),
        lambda: _assemble_rows(
            params,
            law,
            include_polluted_split=not paper,
            policy=policy,
            kind=kind,
            p_join_mix=p_join,
        ),
    )
