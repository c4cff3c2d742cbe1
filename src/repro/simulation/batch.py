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
  :class:`TrajectorySummaryAccumulator` with int32 counters, so the
  peak footprint is a fixed envelope of the chunk size, not the run
  count.

Non-i.i.d. churn (the session generators) is played against a
*schedule*: the event-kind sequence is materialized once and
trajectories advance in lockstep against kind-conditional row tables,
each lane of trajectories reading the shared schedule from its own
random offset.

Every trajectory run goes through one lockstep *lane* loop
(:func:`run_batch_trajectories`): per-event, skip and schedule runs
differ only in their advance step, the (dwell, landing state) pair of
one iteration, while phase accounting, sojourns, the step budget and
absorption are written once.  Every summary reduces through one
:class:`TrajectorySummaryAccumulator`.

The engine powers :func:`batch_monte_carlo_summary` (Relations (5)-(9)
validation at scale) and :class:`BatchCompetingClustersSimulation`
(Theorem 2 / Figure 5 empirical curves), both of which reproduce the
output records of their scalar counterparts: results are deterministic
for a seeded :class:`numpy.random.Generator`, and the occupancy /
absorption statistics agree with the scalar oracle in distribution
(checked by ``tests/simulation/test_batch_sim.py``).  Population sizes
of ``n = 100k+`` clusters are practical at this tier.  The default
arguments reproduce the historical per-event engine draw for draw.
"""

from __future__ import annotations

from collections.abc import Callable
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
    all three at their defaults the engine samples the paper's rows;
    any variant switches to the policy rows of
    :func:`~repro.core.transitions.transition_rows`, which enumerate
    the polluted-split closed class as well.
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
                policy = resolve_count_policy(policy)
                rows = transition_rows(params, policy=policy, p_join=p_join)
            else:
                rows = transition_rows(params)
            self._rows = rows
            codes = rows.category_codes
            self._codes = codes
            self._transient = codes <= CODE_POLLUTED
            self._polluted = codes == CODE_POLLUTED
            self._kind_rows: dict[str, TransitionRows] | None = None
            if with_kind_rows:
                self._kind_rows = {
                    kind: transition_rows(params, policy=policy, kind=kind)
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


#: Sequential trajectories per lane when following a kind schedule.
#: Each lane's first trajectory starts at a uniformly random schedule
#: position (a length-biased start w.r.t. the oracle's sequential
#: tiling); the other ``LANE_DEPTH - 1`` start exactly where their
#: predecessor absorbed, so the residual design bias is O(1/LANE_DEPTH).
LANE_DEPTH = 32


def _play_lanes(
    engine: BatchClusterEngine,
    runs: int,
    n_lanes: int,
    initial: str | State,
    max_steps: int,
    advance: Callable[
        [np.ndarray, np.ndarray], tuple[int | np.ndarray, np.ndarray]
    ],
    held: tuple[np.ndarray, ...] = (),
) -> BatchTrajectories:
    """Play ``runs`` trajectories on ``n_lanes`` lockstep lanes.

    A lane is one slot of the lockstep arrays; it plays its quota of
    trajectories back to back, and the lanes share their quotas as
    evenly as ``runs`` allows.  ``advance(current, active)`` is the
    only mode-specific part: for the live lanes ``active`` in states
    ``current`` it returns the events spent in the current state (the
    dwell, an int or an array) and the state each lane lands in.

    Time is charged per sojourn, a maximal run of events in one phase
    (safe or polluted): a lane keeps its step count and the step at
    which its open sojourn started, and a sojourn that closes -- on a
    phase flip or on absorption -- adds its length to its phase's
    total, and is that phase's first sojourn when the total was 0.
    Every closed sojourn holds at least one event, so this is exactly
    the oracle's per-event charge to the *pre-event* state's phase.
    A lane's ``code`` is the category code of its open phase while it
    is live and its absorbing class afterwards, so one comparison with
    the landed states' codes finds both flips and absorptions.

    When every lane plays one trajectory the lane arrays are the
    result, in trajectory order; otherwise each finished trajectory is
    copied to the next free slot, in absorption order.  ``std()`` sums
    in array order, so this order keeps the standard errors byte-stable.
    ``held`` are the mode's own per-lane arrays, for ``arrays_nbytes``.
    """
    # A budget past int64 cannot bind; clamping it keeps the budget
    # check's arithmetic in range.
    max_steps = min(max_steps, np.iinfo(np.int64).max)
    counter = np.dtype(
        np.int32 if max_steps <= np.iinfo(np.int32).max else np.int64
    )
    # Trajectories each lane has still to finish, its live one included:
    # a lane is live exactly while its quota is positive.
    quota = np.full(n_lanes, runs // n_lanes, dtype=np.int32)
    quota[: runs % n_lanes] += 1
    indices = np.zeros(n_lanes, dtype=np.intp)
    code = np.full(n_lanes, -1, dtype=np.int8)
    steps = np.zeros(n_lanes, dtype=counter)
    opened = np.zeros(n_lanes, dtype=counter)
    # Both phases in one array: entry ``code * n_lanes + lane`` belongs
    # to the phase whose category code is ``code`` (CODE_SAFE is 0,
    # CODE_POLLUTED is 1).  The stride is an intp so that the int8
    # codes widen instead of overflowing.
    time = np.zeros(2 * n_lanes, dtype=counter)
    first = np.zeros(2 * n_lanes, dtype=counter)
    stride = np.intp(n_lanes)
    lanes = {
        "steps": steps,
        "time_safe": time[:n_lanes],
        "time_polluted": time[n_lanes:],
        "absorbed_code": code,
        "first_safe_sojourn": first[:n_lanes],
        "first_polluted_sojourn": first[n_lanes:],
    }
    footprint = [indices, code, steps, opened, time, first, quota, *held]
    results = lanes
    if n_lanes < runs:
        results = {
            name: np.zeros(runs, dtype=column.dtype)
            for name, column in lanes.items()
        }
        footprint += results.values()
    fill = 0

    def close(who: np.ndarray) -> None:
        """Close the open sojourn of each lane in ``who``."""
        slot = code[who] * stride + who
        now = steps[who]
        length = now - opened[who]
        before = time[slot]
        opening = before == 0
        first[slot[opening]] = length[opening]
        time[slot] = before + length
        opened[who] = now

    def finish(who: np.ndarray) -> None:
        """Count the absorbed trajectories of lanes ``who``; when the
        lanes are not the result, move them out and clear the lanes."""
        nonlocal fill
        quota[who] -= 1
        if results is lanes:
            return
        slots = slice(fill, fill + who.size)
        fill += who.size
        for name, column in lanes.items():
            results[name][slots] = column[who]
            column[who] = 0
        opened[who] = 0

    def spawn(who: np.ndarray) -> None:
        """Start the next trajectory of each lane in ``who``; one born
        in a closed state finishes at once, with zero steps."""
        while who.size:
            fresh = engine.sample_initial_indices(who.size, initial)
            indices[who] = fresh
            code[who] = codes = engine.category_codes(fresh)
            who = who[codes > CODE_POLLUTED]
            if who.size:
                finish(who)
                who = who[quota[who] > 0]

    spawn(np.arange(n_lanes))
    active = np.flatnonzero(quota > 0)
    while active.size:
        dwell, landed = advance(indices[active], active)
        taken = steps[active]
        # The budget is per trajectory; comparing against the remaining
        # budget keeps int32 counters from overflowing.
        stuck = np.count_nonzero(dwell > max_steps - taken)
        if stuck:
            raise SimulationBudgetError(
                f"{stuck} trajectories not absorbed within "
                f"{max_steps} steps ({engine.params.describe()})"
            )
        steps[active] = taken + dwell
        indices[active] = landed
        codes = engine.category_codes(landed)
        moved = codes != code[active]
        closing = active[moved]
        if closing.size:
            close(closing)
            code[closing] = codes = codes[moved]
            finished = closing[codes > CODE_POLLUTED]
            if finished.size:
                finish(finished)
                spawn(finished[quota[finished] > 0])
                active = active[quota[active] > 0]
    return BatchTrajectories(
        runs=runs,
        **results,
        arrays_nbytes=sum(array.nbytes for array in footprint),
    )


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

    Every mode plays the same lane loop (:func:`_play_lanes`) and
    differs only in its advance step:

    * ``mode="event"`` (default) steps one event per iteration, one
      trajectory per lane -- the historical loop, byte-identical for a
      given seed;
    * ``mode="skip"`` draws a geometric dwell and the state it exits to
      (equal in law, different draws), one trajectory per lane;
    * a ``kind_schedule`` (boolean array, True = join) steps one event
      of the (cyclic) schedule per iteration, for non-i.i.d. churn.
      ``ceil(runs / LANE_DEPTH)`` lanes each start at a random schedule
      position and play their trajectories back to back, each from the
      event after its predecessor's last, as the scalar oracle consumes
      one stream: trajectory starts are renewal epochs, not uniformly random
      positions (under correlated session streams the two designs
      measurably differ).  It needs an engine built
      ``with_kind_rows=True`` and the event mode.

    Lane indices are ``np.intp`` and counters int32 whenever
    ``max_steps`` fits.
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
    n_lanes, held, timer = runs, (), "dispatch"
    if kind_schedule is not None:
        schedule = np.ascontiguousarray(kind_schedule, dtype=bool)
        if schedule.size == 0:
            raise ValueError("kind_schedule must be non-empty")
        n_lanes = min(runs, -(-runs // LANE_DEPTH))
        # Drawn before the first initial states, as the draw order has it.
        positions = engine._rng.integers(0, schedule.size, size=n_lanes)
        held = (positions,)

        def advance(current, active):
            at = positions[active]
            positions[active] = at + 1
            return 1, engine.step_kinds(current, schedule[at % schedule.size])

    elif mode == MODE_SKIP:
        timer = "skip-sampling"

        def advance(current, active):
            dwell = engine.skip_dwell(current, cap=max_steps)
            return dwell, engine.skip_target(current)

    else:

        def advance(current, active):
            return 1, engine.step(current)

    with _phase(timer):
        return _play_lanes(
            engine, runs, n_lanes, initial, max_steps, advance, held
        )


# -- streaming aggregation ---------------------------------------------------

#: The integer columns a summary averages, and the two whose spread it
#: reports as a standard error.
_MEAN_COLUMNS = (
    "time_safe",
    "time_polluted",
    "first_safe_sojourn",
    "first_polluted_sojourn",
)
_SPREAD_COLUMNS = ("time_safe", "time_polluted")


def _centred_square_sum(column: np.ndarray, total: int) -> float:
    """``sum((x - mean)**2)`` of one chunk's column, summed in array
    order as :meth:`numpy.ndarray.std` sums it."""
    deviation = column.astype(np.float64)
    deviation -= total / column.size
    deviation *= deviation
    return float(deviation.sum())


@dataclass
class TrajectorySummaryAccumulator:
    """Constant-memory reducer over :class:`BatchTrajectories` chunks.

    Every batch Monte-Carlo summary folds through it (an unchunked run
    is one chunk), so a ``10^6+``-run summary is reduced chunk by chunk
    inside a fixed memory envelope instead of materializing every
    trajectory.  The columns hold event counts, so the means come from
    exact integer sums.  Each time column keeps its centred second
    moment, merged across chunks with the pairwise update of Chan,
    Golub and LeVeque, which loses nothing to cancellation; one chunk
    reduces bit for bit as numpy's ``mean()`` and ``std()`` do.  The
    standard error is the population std over ``sqrt(runs - 1)``.
    """

    runs: int = 0
    _sums: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_MEAN_COLUMNS, 0)
    )
    _centred: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(_SPREAD_COLUMNS, 0.0)
    )
    _code_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(8, dtype=np.int64)
    )
    peak_chunk_bytes: int = 0

    def update(
        self, batch: BatchTrajectories, chunk_bytes: int | None = None
    ) -> None:
        """Fold one chunk into the running moments."""
        seen, size = self.runs, batch.runs
        merged = seen + size
        for name in _MEAN_COLUMNS:
            column = getattr(batch, name)
            total = int(column.sum(dtype=np.int64))
            if name in self._centred:
                centred = _centred_square_sum(column, total)
                if seen:
                    delta = total / size - self._sums[name] / seen
                    centred += self._centred[name] + delta * delta * (
                        seen * size / merged
                    )
                self._centred[name] = centred
            self._sums[name] += total
        self.runs = merged
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
        mean = {name: total / runs for name, total in self._sums.items()}
        scale = np.sqrt(max(runs - 1, 1))
        sem = {
            name: float(np.sqrt(centred / runs) / scale)
            for name, centred in self._centred.items()
        }
        return MonteCarloSummary(
            runs=runs,
            mean_time_safe=mean["time_safe"],
            mean_time_polluted=mean["time_polluted"],
            sem_time_safe=sem["time_safe"],
            sem_time_polluted=sem["time_polluted"],
            p_safe_merge=self._frequency(SAFE_MERGE),
            p_safe_split=self._frequency(SAFE_SPLIT),
            p_polluted_merge=self._frequency(POLLUTED_MERGE),
            mean_first_safe_sojourn=mean["first_safe_sojourn"],
            mean_first_polluted_sojourn=mean["first_polluted_sojourn"],
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
    envelope; with all of them at their defaults the output is the
    historical per-event path's, byte for byte, for a given seed.
    Every run, chunked or not, reduces through one
    :class:`TrajectorySummaryAccumulator`.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    engine = BatchClusterEngine(
        params,
        rng,
        policy=adversary,
        p_join=p_join,
        with_kind_rows=kind_schedule is not None,
    )
    accumulator = TrajectorySummaryAccumulator()
    remaining = runs
    while True:
        size = remaining if chunk_size is None else min(chunk_size, remaining)
        chunk = run_batch_trajectories(
            engine,
            size,
            initial=initial,
            max_steps=max_steps,
            mode=mode,
            kind_schedule=kind_schedule,
        )
        accumulator.update(chunk, chunk_bytes=chunk.arrays_nbytes)
        remaining -= size
        if not remaining:
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
