"""Vectorized batch Monte-Carlo engine over the cluster chain.

Tier 2 of the two-tier simulation architecture (tier 1 is the scalar
member-list oracle in :mod:`repro.simulation.cluster_sim`).  The model's
members are exchangeable -- the chain of Section VI depends on a cluster
only through its count state ``(s, x, y)`` -- so a cluster collapses to
one integer index into the enumerated
:class:`~repro.core.statespace.StateSpace`, and *every* live cluster of
a population advances per event batch with two NumPy primitives:

1. **gather** the precomputed cumulative transition rows of the current
   state indices (:func:`repro.core.transitions.transition_rows`, built
   once per :class:`~repro.core.parameters.ModelParameters` while the
   set is among the 64 most recent, and shared with
   :class:`~repro.core.matrix.ClusterChain` assembly), and
2. **searchsorted** one uniform draw per cluster against those rows --
   inverse-CDF sampling of all transitions in a single call
   (:meth:`~repro.core.transitions.SamplingTable.sample`).

Three extensions make the batch tier the universal fast path:

* **variant rows** -- the engine accepts any registered
  :class:`~repro.core.policies.CountAdversaryPolicy` and join mix, so
  every adversary registry entry (and any i.i.d.-kind churn process)
  runs vectorized instead of falling back to the scalar tier;
* **event-axis batching** -- per-state *geometric skip sampling*: from
  state ``i`` the number of events until the chain leaves ``i`` is
  ``Geometric(1 - p_stay(i))`` (the one-event special case of the
  negative binomial), and the landing state is drawn from the row with
  the self-loop removed and renormalized.  One (dwell, target) draw
  pair replaces ``dwell`` per-event gathers; by memorylessness the
  composition is *exactly* the per-event law, which the equivalence
  suite checks against both the per-event engine and the scalar oracle;
* **chunked streaming** -- :func:`batch_monte_carlo_summary` reduces
  ``10^6+`` trajectory batches chunk by chunk through a
  :class:`TrajectorySummaryAccumulator` with memory-lean dtypes
  (uint16/uint32 state indices), so the peak footprint is a fixed
  envelope of the chunk size, not the run count.

Non-i.i.d. churn (the session generators) is played in *scheduled*
mode: the event-kind sequence is materialized once and trajectories
advance in lockstep against kind-conditional row tables, each
trajectory reading the shared schedule from its own random offset.

The engine powers :func:`batch_monte_carlo_summary` (Relations (5)-(9)
validation at scale) and :class:`BatchCompetingClustersSimulation`
(Theorem 2 / Figure 5 empirical curves), both of which reproduce the
output records of their scalar counterparts: results are deterministic
for a seeded :class:`numpy.random.Generator`, and the occupancy /
absorption statistics agree with the scalar oracle in distribution
(checked by ``tests/simulation/test_batch_sim.py``).  Population sizes
of ``n = 100k+`` clusters are practical at this tier.  The default
arguments reproduce the PR 1 behaviour draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.parameters import ModelParameters
from repro.obs import metrics as obs_metrics
from repro.core.policies import CountAdversaryPolicy, resolve_count_policy
from repro.core.statespace import State
from repro.core.transitions import (
    CODE_POLLUTED,
    CODE_POLLUTED_MERGE,
    CODE_POLLUTED_SPLIT,
    CODE_SAFE,
    CODE_SAFE_MERGE,
    CODE_SAFE_SPLIT,
    KIND_JOIN,
    KIND_LEAVE,
    SamplingTable,
    TransitionRows,
    memoized,
    transition_rows,
)
from repro.simulation.cluster_sim import (
    POLLUTED_MERGE,
    SAFE_MERGE,
    SAFE_SPLIT,
    MonteCarloSummary,
    SimulationBudgetError,
    sample_initial_state,
)

#: Category codes counted under each absorption label.  The member-list
#: oracle classifies *any* split as ``safe-split`` (it never inspects
#: pollution at the split), so the polluted-split class reachable by
#: policies without Rule 2 is folded into the same label for parity.
LABEL_CODES: dict[str, tuple[int, ...]] = {
    SAFE_MERGE: (CODE_SAFE_MERGE,),
    SAFE_SPLIT: (CODE_SAFE_SPLIT, CODE_POLLUTED_SPLIT),
    POLLUTED_MERGE: (CODE_POLLUTED_MERGE,),
}

#: Trajectory-advance modes of :func:`run_batch_trajectories`.
MODE_EVENT = "event"
MODE_SKIP = "skip"

# Counter pairs instead of histograms: these phases run once per chunk
# (not per point), so two atomic adds keep the hot path unperturbed and
# rate(seconds)/rate(calls) still yields the mean phase latency.
_PHASE_SECONDS = obs_metrics.counter(
    "repro_batch_phase_seconds_total",
    "Wall seconds spent in each batch-engine phase",
    ("phase",),
)
_PHASE_CALLS = obs_metrics.counter(
    "repro_batch_phase_calls_total",
    "Entries into each batch-engine phase",
    ("phase",),
)


def _phase(name: str):
    """Timer over one batch-engine phase (row assembly, dispatch, ...)."""
    return obs_metrics.timed(_PHASE_SECONDS, _PHASE_CALLS, phase=name)


@dataclass(frozen=True)
class _SkipTables(SamplingTable):
    """Geometric skip-sampling tables derived from one row set.

    ``inv_log_stay[i]`` is ``1 / log p_stay(i)`` (``-0.0`` when the
    state has no self loop, so ``log(u) * inv_log_stay`` is ``+0`` and
    the dwell collapses to one event; ``-inf`` when it never leaves, so
    the dwell saturates at the caller's cap); the table's rows are the
    conditional landing law with the self loop removed.
    """

    inv_log_stay: np.ndarray


def _build_skip_tables(rows: TransitionRows) -> _SkipTables:
    """The skip tables of ``rows``, memoized with them."""

    def derive() -> _SkipTables:
        n, width = rows.targets.shape
        own = rows.targets == np.arange(n)[:, None]
        stay = np.where(own, rows.probs, 0.0).sum(axis=1)
        with np.errstate(divide="ignore"):
            log_stay = np.log(np.clip(stay, 0.0, 1.0))
            inv_log_stay = 1.0 / log_stay
        # log(0) = -inf inverts to -0.0 (no self loop: dwell 1); log(1) = 0
        # inverts to +inf, flipped to -inf so the dwell saturates upward.
        inv_log_stay[np.isposinf(inv_log_stay)] = -np.inf
        inv_log_stay.setflags(write=False)
        per_row: list[list[tuple[int, float]]] = []
        for i in range(n):
            leave_mass = 1.0 - stay[i]
            items = [
                (int(rows.targets[i, j]), float(rows.probs[i, j]) / leave_mass)
                for j in range(width)
                if rows.probs[i, j] > 0.0 and rows.targets[i, j] != i
            ]
            if not items:
                # Absorbing (or degenerate never-leaving) state: the dwell
                # draw returns the cap first, so this row is never sampled.
                items = [(i, 1.0)]
            per_row.append(items)
        return _SkipTables.pad(per_row, inv_log_stay=inv_log_stay)

    key = ("skip", rows.policy, rows.kind, rows.p_join_mix)
    return memoized(rows.params, key, derive)


class BatchClusterEngine:
    """Vectorized sampler of the cluster chain for one parameter set.

    Holds the shared :class:`~repro.core.transitions.TransitionRows`,
    memoized while the parameter set is among the 64 most recent, and
    samples them with one :func:`numpy.searchsorted` over the whole
    batch (:meth:`~repro.core.transitions.SamplingTable.sample`).

    ``policy`` selects a count-level adversary (name, record or ``None``
    for the paper's strong adversary), ``p_join`` overrides the join
    probability of the mixed law (i.i.d.-kind churn reduces to this),
    and ``with_kind_rows`` additionally assembles the join- and
    leave-conditional tables needed by scheduled-kind stepping.  With
    all three at their defaults the engine uses the legacy rows and is
    draw-for-draw identical to the PR 1 engine; any variant switches to
    the policy rows of :func:`~repro.core.transitions.transition_rows`,
    which enumerate the polluted-split closed class as well.
    """

    def __init__(
        self,
        params: ModelParameters,
        rng: np.random.Generator,
        policy: CountAdversaryPolicy | str | None = None,
        p_join: float | None = None,
        with_kind_rows: bool = False,
    ) -> None:
        self._params = params
        self._rng = rng
        variant = (
            policy is not None or p_join is not None or with_kind_rows
        )
        with _phase("row-assembly"):
            if variant:
                self._policy = resolve_count_policy(policy)
                rows = transition_rows(
                    params, policy=self._policy, p_join=p_join
                )
            else:
                self._policy = None
                rows = transition_rows(params)
            self._rows = rows
            codes = rows.category_codes
            self._codes = codes
            self._transient = codes <= CODE_POLLUTED
            self._polluted = codes == CODE_POLLUTED
            self._kind_rows: dict[str, TransitionRows] | None = None
            if with_kind_rows:
                self._kind_rows = {
                    kind: transition_rows(
                        params, policy=self._policy, kind=kind
                    )
                    for kind in (KIND_JOIN, KIND_LEAVE)
                }

    # -- accessors ----------------------------------------------------------

    @property
    def params(self) -> ModelParameters:
        """The parameter record."""
        return self._params

    @property
    def rows(self) -> TransitionRows:
        """The shared precomputed transition rows."""
        return self._rows

    @property
    def policy(self) -> CountAdversaryPolicy | None:
        """The variant policy (``None`` = legacy strong rows)."""
        return self._policy

    @property
    def index_dtype(self) -> np.dtype:
        """Smallest unsigned dtype holding every state index."""
        return np.dtype(
            np.uint16 if self._rows.n_states <= 0xFFFF else np.uint32
        )

    def is_transient(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``indices`` are transient states."""
        return self._transient[indices]

    def is_polluted(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``indices`` are (transient) polluted."""
        return self._polluted[indices]

    def category_codes(self, indices: np.ndarray) -> np.ndarray:
        """Partition-class codes of ``indices``."""
        return self._codes[indices]

    # -- initial laws -------------------------------------------------------

    def sample_initial_indices(
        self, n: int, initial: str | State = "delta"
    ) -> np.ndarray:
        """Vectorized draw of ``n`` starting state indices.

        Same laws as :func:`~repro.simulation.cluster_sim
        .sample_initial_state`, drawn in bulk: ``"delta"`` broadcasts
        the deterministic start, ``"beta"`` draws the Relation-(3)
        triple per cluster, and an explicit state broadcasts its index.
        """
        params = self._params
        rows = self._rows
        if isinstance(initial, str):
            if initial == "delta":
                index = rows.index_of(State(params.spare_max // 2, 0, 0))
                return np.full(n, index, dtype=np.intp)
            if initial == "beta":
                rng = self._rng
                s0 = rng.integers(1, params.spare_max, size=n)
                x = rng.binomial(params.core_size, params.mu, size=n)
                y = rng.binomial(s0, params.mu)
                return rows.state_index[s0, x, y].astype(np.intp, copy=False)
            raise ValueError(f"unknown initial law {initial!r}")
        index = rows.index_of(State(*initial))
        return np.full(n, index, dtype=np.intp)

    # -- stepping -----------------------------------------------------------

    def step(self, indices: np.ndarray) -> np.ndarray:
        """One chain transition for every index, in a single batch.

        Absorbing indices carry self-loop rows, so mixed live/absorbed
        batches are valid (an absorbed entry consumes one uniform draw
        and stays put).
        """
        return self._rows.sample(indices, self._rng.random(indices.size))

    def step_kinds(
        self, indices: np.ndarray, joins: np.ndarray
    ) -> np.ndarray:
        """One transition per index, conditioned on per-index event kind.

        ``joins`` is a boolean mask (True = join event).  Requires the
        engine to have been built with ``with_kind_rows=True``.  The
        join group is drawn before the leave group, so results are
        deterministic for a seeded generator.
        """
        if self._kind_rows is None:
            raise RuntimeError(
                "engine built without kind rows; pass with_kind_rows=True"
            )
        out = np.empty(indices.shape, dtype=indices.dtype)
        for mask, kind in ((joins, KIND_JOIN), (~joins, KIND_LEAVE)):
            subset = indices[mask]
            if subset.size:
                out[mask] = self._kind_rows[kind].sample(
                    subset, self._rng.random(subset.size)
                )
        return out

    # -- event-axis skip sampling -------------------------------------------

    @cached_property
    def skip_tables(self) -> _SkipTables:
        """Geometric skip tables for the mixed rows, built on first use."""
        return _build_skip_tables(self._rows)

    def skip_dwell(self, indices: np.ndarray, cap: int) -> np.ndarray:
        """Events spent in each state until (and including) the exit.

        For state ``i`` with self-loop mass ``p_stay(i)`` the dwell is
        ``Geometric(1 - p_stay)``: ``P(G = g) = p_stay^(g-1)(1-p_stay)``.
        Values above ``cap`` (including the never-leaving ``p_stay = 1``
        case) are returned as ``cap + 1`` -- "no exit within the
        budget" -- so callers compare against their remaining budget
        without overflow.
        """
        tables = self.skip_tables
        dwell = self._rng.random(indices.size)
        np.log(dwell, out=dwell)
        dwell *= tables.inv_log_stay[indices]
        np.floor(dwell, out=dwell)
        dwell += 1.0
        # fmin absorbs the +/-inf and nan corners (u -> 0, p_stay = 1)
        # into the saturation bound instead of propagating them.
        np.fmin(dwell, float(cap) + 1.0, out=dwell)
        return dwell.astype(np.int64)

    def skip_target(self, indices: np.ndarray) -> np.ndarray:
        """Landing states conditioned on leaving (self loops removed)."""
        return self.skip_tables.sample(
            indices, self._rng.random(indices.size)
        )


@dataclass(frozen=True)
class BatchTrajectories:
    """Per-trajectory statistics of one batch run (parallel arrays).

    The counters mirror :class:`~repro.simulation.cluster_sim
    .ClusterTrajectory` except that only the *first* safe/polluted
    sojourns are retained (the quantities Table II reports; per-run
    Python lists would defeat the vectorization).
    """

    runs: int
    steps: np.ndarray
    time_safe: np.ndarray
    time_polluted: np.ndarray
    absorbed_code: np.ndarray
    first_safe_sojourn: np.ndarray
    first_polluted_sojourn: np.ndarray
    #: Measured footprint of every per-trajectory array the run held
    #: (result columns plus in-flight bookkeeping) -- what a chunked
    #: reduction actually keeps resident per chunk.
    arrays_nbytes: int = 0

    def absorption_frequency(self, label: str) -> float:
        """Empirical probability of one absorption class."""
        try:
            codes = LABEL_CODES[label]
        except KeyError:
            raise ValueError(
                f"unknown absorption label {label!r}"
            ) from None
        return float(np.isin(self.absorbed_code, codes).mean())


def _close_first_sojourns(
    who: np.ndarray,
    phase: np.ndarray,
    run_length: np.ndarray,
    trackers: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Record finished sojourns of clusters ``who`` into the first-sojourn
    slots (phase read *before* the caller flips it), then reset runs."""
    first_safe, seen_safe, first_polluted, seen_polluted = trackers
    was_polluted = phase[who]
    closing_safe = who[~was_polluted]
    closing_safe = closing_safe[~seen_safe[closing_safe]]
    first_safe[closing_safe] = run_length[closing_safe]
    seen_safe[closing_safe] = True
    closing_polluted = who[was_polluted]
    closing_polluted = closing_polluted[~seen_polluted[closing_polluted]]
    first_polluted[closing_polluted] = run_length[closing_polluted]
    seen_polluted[closing_polluted] = True
    run_length[who] = 0


class _TrajectoryArrays:
    """Shared allocation and bookkeeping of one lockstep trajectory run."""

    def __init__(
        self,
        engine: BatchClusterEngine,
        runs: int,
        initial: str | State,
        counter_dtype: np.dtype,
        index_dtype: np.dtype | None = None,
    ) -> None:
        indices = engine.sample_initial_indices(runs, initial)
        if index_dtype is not None:
            indices = indices.astype(index_dtype, copy=False)
        self.indices = indices
        self.time_safe = np.zeros(runs, dtype=counter_dtype)
        self.time_polluted = np.zeros(runs, dtype=counter_dtype)
        self.steps = np.zeros(runs, dtype=counter_dtype)
        self.absorbed_code = np.full(runs, -1, dtype=np.int8)
        initially_transient = engine.is_transient(indices)
        if not initially_transient.all():
            born_absorbed = np.flatnonzero(~initially_transient)
            self.absorbed_code[born_absorbed] = engine.category_codes(
                indices[born_absorbed]
            )
        self.first_safe = np.zeros(runs, dtype=counter_dtype)
        self.first_polluted = np.zeros(runs, dtype=counter_dtype)
        self.seen_safe = np.zeros(runs, dtype=bool)
        self.seen_polluted = np.zeros(runs, dtype=bool)
        self.trackers = (
            self.first_safe,
            self.seen_safe,
            self.first_polluted,
            self.seen_polluted,
        )
        self.phase = engine.is_polluted(indices)
        self.run_length = np.zeros(runs, dtype=counter_dtype)
        self.active = np.flatnonzero(initially_transient).astype(np.intp)

    def result(self, runs: int) -> BatchTrajectories:
        return BatchTrajectories(
            runs=runs,
            steps=self.steps,
            time_safe=self.time_safe,
            time_polluted=self.time_polluted,
            absorbed_code=self.absorbed_code,
            first_safe_sojourn=self.first_safe,
            first_polluted_sojourn=self.first_polluted,
            arrays_nbytes=self.nbytes(),
        )

    def nbytes(self) -> int:
        """Total footprint of the per-trajectory arrays (memory envelope)."""
        return sum(
            array.nbytes
            for array in (
                self.indices,
                self.time_safe,
                self.time_polluted,
                self.steps,
                self.absorbed_code,
                self.first_safe,
                self.first_polluted,
                self.seen_safe,
                self.seen_polluted,
                self.phase,
                self.run_length,
            )
        )


def _run_event_mode(
    engine: BatchClusterEngine,
    state: _TrajectoryArrays,
    max_steps: int,
) -> None:
    """Per-event lockstep advance (the PR 1 loop, draw for draw)."""
    indices = state.indices
    time_safe = state.time_safe
    time_polluted = state.time_polluted
    phase = state.phase
    run_length = state.run_length
    active = state.active
    iteration = 0
    while active.size:
        if iteration >= max_steps:
            raise SimulationBudgetError(
                f"{active.size} trajectories not absorbed within "
                f"{max_steps} steps ({engine.params.describe()})"
            )
        iteration += 1
        current = indices[active]
        polluted_now = engine.is_polluted(current)
        flipped = polluted_now != phase[active]
        if flipped.any():
            flippers = active[flipped]
            _close_first_sojourns(
                flippers, phase, run_length, state.trackers
            )
            phase[flippers] = polluted_now[flipped]
        time_polluted[active[polluted_now]] += 1
        time_safe[active[~polluted_now]] += 1
        run_length[active] += 1
        state.steps[active] += 1
        landed = engine.step(current)
        indices[active] = landed
        still_transient = engine.is_transient(landed)
        finished = active[~still_transient]
        if finished.size:
            _close_first_sojourns(
                finished, phase, run_length, state.trackers
            )
            state.absorbed_code[finished] = engine.category_codes(
                indices[finished]
            )
            active = active[still_transient]


#: Sequential trajectories per lane in scheduled-kind mode.  Each
#: lane's first trajectory starts at a uniformly random schedule
#: position (a length-biased start w.r.t. the oracle's sequential
#: tiling); the other ``LANE_DEPTH - 1`` start exactly where their
#: predecessor absorbed, so the residual design bias is O(1/LANE_DEPTH).
LANE_DEPTH = 32


def _run_scheduled_mode(
    engine: BatchClusterEngine,
    runs: int,
    initial: str | State,
    max_steps: int,
    schedule: np.ndarray,
    counter_dtype: np.dtype,
    index_dtype: np.dtype,
) -> BatchTrajectories:
    """Lockstep advance against a materialized event-kind schedule.

    Reproduces the scalar oracle's consumption design: the oracle runs
    trajectories back to back against *one* stream, so trajectory
    starts are renewal epochs, not uniformly random stream positions
    (under correlated session streams the two designs measurably
    differ -- uniform positions length-bias toward survival-friendly
    stream regions).  Here ``ceil(runs / LANE_DEPTH)`` lanes each tile
    a contiguous region of the (cyclic) schedule sequentially: when a
    lane's trajectory absorbs, its next trajectory starts at the very
    next schedule position.  Lanes advance in lockstep through the
    kind-conditional row tables.
    """
    n_lanes = min(runs, -(-runs // LANE_DEPTH))
    quota = np.full(n_lanes, runs // n_lanes, dtype=np.int64)
    quota[: runs % n_lanes] += 1
    rng = engine._rng
    positions = rng.integers(0, schedule.size, size=n_lanes)
    out_steps = np.zeros(runs, dtype=counter_dtype)
    out_safe = np.zeros(runs, dtype=counter_dtype)
    out_polluted = np.zeros(runs, dtype=counter_dtype)
    out_code = np.full(runs, -1, dtype=np.int8)
    out_first_safe = np.zeros(runs, dtype=counter_dtype)
    out_first_polluted = np.zeros(runs, dtype=counter_dtype)
    fill = 0

    indices = np.zeros(n_lanes, dtype=index_dtype)
    time_safe = np.zeros(n_lanes, dtype=counter_dtype)
    time_polluted = np.zeros(n_lanes, dtype=counter_dtype)
    steps = np.zeros(n_lanes, dtype=counter_dtype)
    first_safe = np.zeros(n_lanes, dtype=counter_dtype)
    first_polluted = np.zeros(n_lanes, dtype=counter_dtype)
    seen_safe = np.zeros(n_lanes, dtype=bool)
    seen_polluted = np.zeros(n_lanes, dtype=bool)
    trackers = (first_safe, seen_safe, first_polluted, seen_polluted)
    phase = np.zeros(n_lanes, dtype=bool)
    run_length = np.zeros(n_lanes, dtype=counter_dtype)
    in_flight = np.zeros(n_lanes, dtype=bool)

    def finalize(lanes: np.ndarray) -> None:
        nonlocal fill
        slots = np.arange(fill, fill + lanes.size)
        fill += lanes.size
        out_steps[slots] = steps[lanes]
        out_safe[slots] = time_safe[lanes]
        out_polluted[slots] = time_polluted[lanes]
        out_code[slots] = engine.category_codes(indices[lanes])
        out_first_safe[slots] = first_safe[lanes]
        out_first_polluted[slots] = first_polluted[lanes]
        quota[lanes] -= 1
        in_flight[lanes] = False

    def spawn(lanes: np.ndarray) -> None:
        """Start the next trajectory of each lane (with quota left),
        retiring zero-step trajectories born in a closed state."""
        while lanes.size:
            fresh = engine.sample_initial_indices(
                lanes.size, initial
            ).astype(index_dtype, copy=False)
            indices[lanes] = fresh
            for counter in (
                time_safe, time_polluted, steps,
                first_safe, first_polluted, run_length,
            ):
                counter[lanes] = 0
            seen_safe[lanes] = False
            seen_polluted[lanes] = False
            phase[lanes] = engine.is_polluted(fresh)
            in_flight[lanes] = True
            born_closed = ~engine.is_transient(fresh)
            if not born_closed.any():
                return
            dead = lanes[born_closed]
            finalize(dead)
            lanes = dead[quota[dead] > 0]

    spawn(np.flatnonzero(quota > 0))
    while True:
        active = np.flatnonzero(in_flight)
        if active.size == 0:
            break
        # The budget is per trajectory (a lane legitimately runs many
        # trajectories back to back, so no global iteration cap).
        if (steps[active] >= max_steps).any():
            stuck = int((steps[active] >= max_steps).sum())
            raise SimulationBudgetError(
                f"{stuck} trajectories not absorbed within "
                f"{max_steps} steps ({engine.params.describe()})"
            )
        current = indices[active]
        polluted_now = engine.is_polluted(current)
        flipped = polluted_now != phase[active]
        if flipped.any():
            flippers = active[flipped]
            _close_first_sojourns(flippers, phase, run_length, trackers)
            phase[flippers] = polluted_now[flipped]
        kinds = schedule[positions[active] % schedule.size]
        time_polluted[active[polluted_now]] += 1
        time_safe[active[~polluted_now]] += 1
        run_length[active] += 1
        steps[active] += 1
        positions[active] += 1
        landed = engine.step_kinds(current, kinds)
        indices[active] = landed
        finished = active[~engine.is_transient(landed)]
        if finished.size:
            _close_first_sojourns(finished, phase, run_length, trackers)
            finalize(finished)
            spawn(finished[quota[finished] > 0])
    footprint = sum(
        array.nbytes
        for array in (
            out_steps, out_safe, out_polluted, out_code,
            out_first_safe, out_first_polluted,
            indices, time_safe, time_polluted, steps,
            first_safe, first_polluted, seen_safe, seen_polluted,
            phase, run_length, in_flight, quota, positions,
        )
    )
    return BatchTrajectories(
        runs=runs,
        steps=out_steps,
        time_safe=out_safe,
        time_polluted=out_polluted,
        absorbed_code=out_code,
        first_safe_sojourn=out_first_safe,
        first_polluted_sojourn=out_first_polluted,
        arrays_nbytes=footprint,
    )


def _run_skip_mode(
    engine: BatchClusterEngine,
    state: _TrajectoryArrays,
    max_steps: int,
) -> None:
    """Event-axis advance: one (dwell, target) draw per state change.

    Exactly equivalent to the per-event loop -- the dwell in a state is
    geometric and the exit law is the self-loop-censored row -- but the
    iteration count per trajectory is its number of state *changes*,
    not its number of events.
    """
    indices = state.indices
    time_safe = state.time_safe
    time_polluted = state.time_polluted
    phase = state.phase
    run_length = state.run_length
    active = state.active
    while active.size:
        current = indices[active]
        polluted_now = engine.is_polluted(current)
        flipped = polluted_now != phase[active]
        if flipped.any():
            flippers = active[flipped]
            _close_first_sojourns(
                flippers, phase, run_length, state.trackers
            )
            phase[flippers] = polluted_now[flipped]
        dwell = engine.skip_dwell(current, cap=max_steps)
        remaining = max_steps - state.steps[active]
        if (dwell > remaining).any():
            stuck = int((dwell > remaining).sum())
            raise SimulationBudgetError(
                f"{stuck} trajectories not absorbed within "
                f"{max_steps} steps ({engine.params.describe()})"
            )
        time_polluted[active[polluted_now]] += dwell[polluted_now]
        time_safe[active[~polluted_now]] += dwell[~polluted_now]
        run_length[active] += dwell
        state.steps[active] += dwell
        landed = engine.skip_target(current)
        indices[active] = landed
        still_transient = engine.is_transient(landed)
        finished = active[~still_transient]
        if finished.size:
            _close_first_sojourns(
                finished, phase, run_length, state.trackers
            )
            state.absorbed_code[finished] = engine.category_codes(
                indices[finished]
            )
            active = active[still_transient]


def run_batch_trajectories(
    engine: BatchClusterEngine,
    runs: int,
    initial: str | State = "delta",
    max_steps: int = 1_000_000,
    mode: str = MODE_EVENT,
    kind_schedule: np.ndarray | None = None,
) -> BatchTrajectories:
    """Simulate ``runs`` independent cluster lifetimes in lockstep.

    Phase accounting matches the scalar oracle in every mode: each
    event charges one unit of time to the phase of the *pre-event*
    state, and sojourn runs close on phase flips and on absorption.  An
    initial law starting in a closed state yields a zero-step
    trajectory, exactly like the scalar
    :meth:`~repro.simulation.cluster_sim.ClusterSimulator.run`.

    ``mode="event"`` (default) advances one event per iteration -- the
    PR 1 loop, byte-identical for a given seed.  ``mode="skip"``
    dispatches multi-event blocks per state via geometric skip sampling
    (equal in law, different draws).  A ``kind_schedule`` (boolean
    array, True = join) switches to scheduled-kind stepping for
    non-i.i.d. churn: lanes of trajectories tile the (cyclic) schedule
    sequentially, reproducing the scalar oracle's back-to-back stream
    consumption (see :func:`_run_scheduled_mode`); it requires an
    engine built ``with_kind_rows=True`` and forces per-event mode.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if mode not in (MODE_EVENT, MODE_SKIP):
        raise ValueError(f"mode must be event/skip, got {mode!r}")
    if kind_schedule is not None and mode == MODE_SKIP:
        raise ValueError(
            "skip mode cannot follow a kind schedule (the dwell law "
            "depends on the event kind); use mode='event'"
        )
    legacy = mode == MODE_EVENT and kind_schedule is None
    if legacy:
        counter_dtype = np.dtype(np.int64)
        index_dtype = None
    else:
        counter_dtype = np.dtype(
            np.int32 if max_steps <= np.iinfo(np.int32).max else np.int64
        )
        index_dtype = engine.index_dtype
    if kind_schedule is not None:
        kind_schedule = np.ascontiguousarray(kind_schedule, dtype=bool)
        if kind_schedule.size == 0:
            raise ValueError("kind_schedule must be non-empty")
        with _phase("dispatch"):
            return _run_scheduled_mode(
                engine,
                runs,
                initial,
                max_steps,
                kind_schedule,
                counter_dtype,
                index_dtype,
            )
    state = _TrajectoryArrays(
        engine, runs, initial, counter_dtype, index_dtype
    )
    if mode == MODE_SKIP:
        with _phase("skip-sampling"):
            _run_skip_mode(engine, state, max_steps)
    else:
        with _phase("dispatch"):
            _run_event_mode(engine, state, max_steps)
    return state.result(runs)


# -- streaming aggregation ---------------------------------------------------

@dataclass
class TrajectorySummaryAccumulator:
    """Constant-memory reducer over :class:`BatchTrajectories` chunks.

    Accumulates first and second moments plus absorption counts, so a
    ``10^6+``-run Monte-Carlo summary is reduced chunk by chunk inside
    a fixed memory envelope instead of materializing every trajectory.
    The produced :class:`~repro.simulation.cluster_sim.MonteCarloSummary`
    uses the same estimator formulas as the single-shot path (population
    std over ``sqrt(runs - 1)``), up to float summation order.
    """

    runs: int = 0
    _sum_safe: float = 0.0
    _sum_safe_sq: float = 0.0
    _sum_polluted: float = 0.0
    _sum_polluted_sq: float = 0.0
    _sum_first_safe: float = 0.0
    _sum_first_polluted: float = 0.0
    _code_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(8, dtype=np.int64)
    )
    peak_chunk_bytes: int = 0

    def update(
        self, batch: BatchTrajectories, chunk_bytes: int | None = None
    ) -> None:
        """Fold one chunk into the running moments."""
        safe = batch.time_safe.astype(np.float64, copy=False)
        polluted = batch.time_polluted.astype(np.float64, copy=False)
        self.runs += batch.runs
        self._sum_safe += float(safe.sum())
        self._sum_safe_sq += float(np.square(safe).sum())
        self._sum_polluted += float(polluted.sum())
        self._sum_polluted_sq += float(np.square(polluted).sum())
        self._sum_first_safe += float(
            batch.first_safe_sojourn.astype(np.float64, copy=False).sum()
        )
        self._sum_first_polluted += float(
            batch.first_polluted_sojourn.astype(
                np.float64, copy=False
            ).sum()
        )
        codes = batch.absorbed_code
        self._code_counts += np.bincount(
            codes[codes >= 0], minlength=8
        ).astype(np.int64)
        if chunk_bytes is not None:
            self.peak_chunk_bytes = max(self.peak_chunk_bytes, chunk_bytes)

    def _frequency(self, label: str) -> float:
        return float(
            sum(self._code_counts[code] for code in LABEL_CODES[label])
            / self.runs
        )

    def summary(self) -> MonteCarloSummary:
        """The aggregate record over every chunk seen so far."""
        if self.runs == 0:
            raise ValueError("no trajectories accumulated")
        runs = self.runs
        mean_safe = self._sum_safe / runs
        mean_polluted = self._sum_polluted / runs
        var_safe = max(self._sum_safe_sq / runs - mean_safe**2, 0.0)
        var_polluted = max(
            self._sum_polluted_sq / runs - mean_polluted**2, 0.0
        )
        scale = np.sqrt(max(runs - 1, 1))
        return MonteCarloSummary(
            runs=runs,
            mean_time_safe=mean_safe,
            mean_time_polluted=mean_polluted,
            sem_time_safe=float(np.sqrt(var_safe) / scale),
            sem_time_polluted=float(np.sqrt(var_polluted) / scale),
            p_safe_merge=self._frequency(SAFE_MERGE),
            p_safe_split=self._frequency(SAFE_SPLIT),
            p_polluted_merge=self._frequency(POLLUTED_MERGE),
            mean_first_safe_sojourn=self._sum_first_safe / runs,
            mean_first_polluted_sojourn=self._sum_first_polluted / runs,
        )


def batch_monte_carlo_summary(
    params: ModelParameters,
    rng: np.random.Generator,
    runs: int,
    initial: str | State = "delta",
    max_steps: int = 1_000_000,
    *,
    adversary: CountAdversaryPolicy | str | None = None,
    p_join: float | None = None,
    mode: str = MODE_EVENT,
    kind_schedule: np.ndarray | None = None,
    chunk_size: int | None = None,
) -> MonteCarloSummary:
    """Drop-in vectorized counterpart of
    :func:`~repro.simulation.cluster_sim.monte_carlo_summary`.

    Same aggregate record, same estimator formulas; the trajectories
    are sampled from the exact Figure-2 law instead of member lists,
    which is equivalent in distribution by member exchangeability.
    The keyword-only extensions select the adversary policy and the
    event-kind law (``p_join`` for i.i.d. kinds, ``kind_schedule`` for
    materialized session streams), the advance ``mode``, and a
    ``chunk_size`` that streams ``runs`` through a fixed-size memory
    envelope; with all of them at their defaults the output is
    byte-identical to PR 1 for a given seed.
    """
    engine = BatchClusterEngine(
        params,
        rng,
        policy=adversary,
        p_join=p_join,
        with_kind_rows=kind_schedule is not None,
    )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if chunk_size is None or runs <= chunk_size:
        result = run_batch_trajectories(
            engine,
            runs,
            initial=initial,
            max_steps=max_steps,
            mode=mode,
            kind_schedule=kind_schedule,
        )
        times_safe = result.time_safe.astype(float)
        times_polluted = result.time_polluted.astype(float)
        scale = np.sqrt(max(runs - 1, 1))
        return MonteCarloSummary(
            runs=runs,
            mean_time_safe=float(times_safe.mean()),
            mean_time_polluted=float(times_polluted.mean()),
            sem_time_safe=float(times_safe.std() / scale),
            sem_time_polluted=float(times_polluted.std() / scale),
            p_safe_merge=result.absorption_frequency(SAFE_MERGE),
            p_safe_split=result.absorption_frequency(SAFE_SPLIT),
            p_polluted_merge=result.absorption_frequency(POLLUTED_MERGE),
            mean_first_safe_sojourn=float(
                result.first_safe_sojourn.astype(float).mean()
            ),
            mean_first_polluted_sojourn=float(
                result.first_polluted_sojourn.astype(float).mean()
            ),
        )
    accumulator = TrajectorySummaryAccumulator()
    remaining = runs
    while remaining > 0:
        batch_runs = min(chunk_size, remaining)
        remaining -= batch_runs
        chunk = run_batch_trajectories(
            engine,
            batch_runs,
            initial=initial,
            max_steps=max_steps,
            mode=mode,
            kind_schedule=kind_schedule,
        )
        accumulator.update(chunk, chunk_bytes=chunk.arrays_nbytes)
    return accumulator.summary()


@dataclass(frozen=True)
class CompetingSeries:
    """Empirical counterpart of the analytic ``OverlaySeries``."""

    events: np.ndarray
    safe_fraction: np.ndarray
    polluted_fraction: np.ndarray
    n_clusters: int

    @property
    def peak_polluted_fraction(self) -> float:
        """Maximum observed polluted fraction."""
        return float(self.polluted_fraction.max())


class BatchCompetingClustersSimulation:
    """Vectorized ``n`` competing clusters under uniform event dispatch.

    The literal setting of Theorems 1-2: each global event targets one
    cluster uniformly at random (absorbed clusters included -- their
    events are wasted, exactly as in the scalar oracle).

    Two dispatch strategies share the recording contract:

    * the PR 1 **per-event** rounds (default): events between two
      record points are drawn as one block and applied in rounds, every
      round stepping the first pending hit of each distinct cluster;
    * **event-axis batching** (``event_batching=True``): the block's
      hits on the live population are thinned to a single binomial draw
      plus a bincount, and each hit cluster consumes its hits through
      geometric skip sampling -- one draw pair per state *change*.
      Equal in law to the per-event rounds (hits on absorbed clusters
      are self loops either way), with per-block cost that shrinks with
      the live population instead of staying proportional to the block.

    ``policy``/``p_join`` select variant transition rows, so every
    registered adversary and any i.i.d.-kind churn runs at this tier.
    Safe/polluted/absorbed occupancy is maintained incrementally -- no
    per-record rescans.
    """

    def __init__(
        self,
        params: ModelParameters,
        n_clusters: int,
        rng: np.random.Generator,
        initial: str | State = "delta",
        policy: CountAdversaryPolicy | str | None = None,
        p_join: float | None = None,
        event_batching: bool = False,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self._engine = BatchClusterEngine(
            params, rng, policy=policy, p_join=p_join
        )
        self._rng = rng
        self._n = n_clusters
        self._event_batching = bool(event_batching)
        self._indices = self._engine.sample_initial_indices(
            n_clusters, initial
        )
        transient = self._engine.is_transient(self._indices)
        polluted = self._engine.is_polluted(self._indices)
        self._absorbed = ~transient
        self._n_polluted = int(polluted.sum())
        self._n_safe = int((transient & ~polluted).sum())

    @property
    def n_clusters(self) -> int:
        """Population size ``n``."""
        return self._n

    @property
    def event_batching(self) -> bool:
        """Whether blocks dispatch through event-axis skip sampling."""
        return self._event_batching

    def _advance(self, clusters: np.ndarray) -> None:
        """One transition for each (live) cluster in ``clusters``."""
        engine = self._engine
        old = self._indices[clusters]
        old_polluted = engine.is_polluted(old)
        new = engine.step(old)
        self._indices[clusters] = new
        new_codes = engine.category_codes(new)
        self._n_polluted += int((new_codes == CODE_POLLUTED).sum()) - int(
            old_polluted.sum()
        )
        self._n_safe += int((new_codes < CODE_POLLUTED).sum()) - int(
            (~old_polluted).sum()
        )
        newly_absorbed = new_codes > CODE_POLLUTED
        if newly_absorbed.any():
            self._absorbed[clusters[newly_absorbed]] = True

    def _dispatch_block(self, n_events: int) -> None:
        """Apply ``n_events`` uniform hits, round by round."""
        remaining = self._rng.integers(0, self._n, size=n_events)
        while remaining.size:
            unique, first_positions = np.unique(
                remaining, return_index=True
            )
            live = unique[~self._absorbed[unique]]
            if live.size:
                self._advance(live)
            if unique.size == remaining.size:
                break
            keep = np.ones(remaining.size, dtype=bool)
            keep[first_positions] = False
            remaining = remaining[keep]

    def _run_event_axis(
        self, n_events: int, record_every: int
    ) -> CompetingSeries:
        """Whole-horizon dispatch through geometric skip sampling.

        One exact factorization of the ``n_events`` uniform hits covers
        the entire run:

        1. every event independently lands on the initially-transient
           population with probability ``live/n`` (clusters that absorb
           *during* the run stay in that population and self-loop
           through their remaining hits, exactly as in the per-event
           engine), so the hit counts of the record intervals are one
           vectorized binomial draw;
        2. each hit picks its cluster uniformly -- one ``integers``
           draw, tagged with its record interval and grouped per
           cluster by a single stable sort.  Hit slots are distinct
           events by construction, so the multinomial coupling of the
           per-event dispatch is preserved exactly;
        3. each cluster consumes its time-ordered hit sequence through
           geometric dwells: a dwell beyond its remaining hits means no
           further change this run (probability ``p_stay^rem``), a
           dwell inside transitions it at that hit, whose interval tag
           locates the occupancy change.

        Occupancy deltas accumulate per record interval and one final
        cumulative sum rebuilds the series, so the per-interval cost of
        the per-event engine (target draws, uniqueing, stepping every
        pending hit) collapses to work proportional to the number of
        state *changes*.
        """
        engine = self._engine
        n = self._n
        events_axis = np.arange(0, n_events + 1, record_every)
        if events_axis[-1] != n_events:
            events_axis = np.append(events_axis, n_events)
        sizes = np.diff(events_axis)
        n_intervals = sizes.size
        safe_delta = np.zeros(n_intervals, dtype=np.int64)
        polluted_delta = np.zeros(n_intervals, dtype=np.int64)
        live = np.flatnonzero(~self._absorbed)
        if live.size and n_events > 0:
            p_live = live.size / n
            if p_live >= 1.0:
                counts = sizes.astype(np.int64)
            else:
                counts = self._rng.binomial(sizes, p_live)
            total_hits = int(counts.sum())
        else:
            total_hits = 0
        if total_hits:
            hits = self._rng.integers(
                0, live.size, size=total_hits, dtype=np.int64
            )
            tags = np.repeat(
                np.arange(n_intervals, dtype=np.int64), counts
            )
            # Group hits per cluster in time order.  Interval tags are
            # non-decreasing along the hit stream and hits of one
            # cluster within an interval are exchangeable, so sorting
            # packed (cluster, tag) keys -- a plain value sort, much
            # faster than a stable argsort -- yields exactly the
            # per-cluster time order.
            tag_bits = max(int(n_intervals - 1).bit_length(), 1)
            if live.size.bit_length() + tag_bits <= 63:
                keys = np.sort((hits << tag_bits) | tags)
                sorted_hits = keys >> tag_bits
                sorted_tags = keys & ((1 << tag_bits) - 1)
            else:  # pragma: no cover - astronomically wide grids
                order = np.argsort(hits, kind="stable")
                sorted_hits = hits[order]
                sorted_tags = tags[order]
            firsts = np.flatnonzero(
                np.diff(sorted_hits, prepend=sorted_hits[0] - 1)
            )
            budgets = np.diff(firsts, append=total_hits)
            clusters = live[sorted_hits[firsts]]
            cursor = np.zeros(firsts.size, dtype=np.int64)
            active = np.flatnonzero(
                engine.is_transient(self._indices[clusters])
            )
            while active.size:
                current = self._indices[clusters[active]]
                dwell = engine.skip_dwell(current, cap=n_events)
                advanced = cursor[active] + dwell
                changed = advanced <= budgets[active]
                if not changed.any():
                    break
                act = active[changed]
                moved = clusters[act]
                moved_from = current[changed]
                landed = engine.skip_target(moved_from)
                self._indices[moved] = landed
                cursor[act] = advanced[changed]
                interval = sorted_tags[firsts[act] + cursor[act] - 1]
                old_polluted = engine.is_polluted(moved_from)
                new_codes = engine.category_codes(landed)
                safe_delta -= np.bincount(
                    interval[~old_polluted], minlength=n_intervals
                )
                polluted_delta -= np.bincount(
                    interval[old_polluted], minlength=n_intervals
                )
                safe_delta += np.bincount(
                    interval[new_codes == CODE_SAFE], minlength=n_intervals
                )
                polluted_delta += np.bincount(
                    interval[new_codes == CODE_POLLUTED],
                    minlength=n_intervals,
                )
                absorbed_now = new_codes > CODE_POLLUTED
                if absorbed_now.any():
                    self._absorbed[moved[absorbed_now]] = True
                still = ~absorbed_now & (cursor[act] < budgets[act])
                active = act[still]
        safe_counts = self._n_safe + np.concatenate(
            ([0], np.cumsum(safe_delta))
        )
        polluted_counts = self._n_polluted + np.concatenate(
            ([0], np.cumsum(polluted_delta))
        )
        self._n_safe = int(safe_counts[-1])
        self._n_polluted = int(polluted_counts[-1])
        return CompetingSeries(
            events=events_axis,
            safe_fraction=safe_counts / n,
            polluted_fraction=polluted_counts / n,
            n_clusters=n,
        )

    def run(self, n_events: int, record_every: int = 1) -> CompetingSeries:
        """Dispatch ``n_events`` uniformly and record occupancy.

        Identical recording semantics to the scalar path: a sample at
        event 0, at every multiple of ``record_every`` and at the final
        event.
        """
        if self._event_batching:
            return self._run_event_axis(n_events, record_every)
        events_axis = [0]
        safe_series = [self._n_safe / self._n]
        polluted_series = [self._n_polluted / self._n]
        done = 0
        while done < n_events:
            next_record = min(
                n_events, (done // record_every + 1) * record_every
            )
            self._dispatch_block(next_record - done)
            done = next_record
            events_axis.append(done)
            safe_series.append(self._n_safe / self._n)
            polluted_series.append(self._n_polluted / self._n)
        return CompetingSeries(
            events=np.asarray(events_axis),
            safe_fraction=np.asarray(safe_series),
            polluted_fraction=np.asarray(polluted_series),
            n_clusters=self._n,
        )
