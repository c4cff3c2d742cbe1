"""Churn processes: one law object per churn model.

The analytical model assumes an alternating stream where each event is a
join with probability ``p_j`` and a leave with probability
``p_l = 1 - p_j``, dispatched uniformly over clusters
(Sections III-A and VIII).  This module provides that process plus
three richer ones (a Poisson superposition, and Poisson arrivals with
exponential or Pareto session times) used to check that the
conclusions survive a more realistic churn process.

Each process is one *law* object that serves every engine tier:

* ``law.events(rng)`` is the timed join/leave stream the scalar oracle
  and the agent overlay consume;
* the cluster chain is event-indexed, so the batch tier reads only the
  law's kind sequence: :class:`IIDKinds` when the kinds are i.i.d. (the
  whole axis folds into one effective join probability mixed straight
  into the transition rows), :class:`ScheduledKinds` when they are
  correlated (session streams pair every join with a later leave; the
  sequence is materialized once as a boolean schedule that lockstep
  trajectories read from independent random offsets).

Session laws draw their sessions as two arrays, arrival and departure
times, bit-identical to one ``rng.exponential``/``rng.pareto`` call per
draw (see :func:`_session_draws`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class EventKind(enum.Enum):
    """Join or leave."""

    JOIN = "join"
    LEAVE = "leave"


@dataclass(frozen=True)
class ChurnEvent:
    """One churn event with its (abstract or simulated) time."""

    kind: EventKind
    time: float


@dataclass(frozen=True)
class IIDKinds:
    """A churn process whose event kinds are i.i.d.: each event is a
    join w.p. ``p_join``.

    Events are ``time_step`` apart, or exponentially spaced with mean
    ``time_step`` when ``exponential`` (a Poisson process).
    """

    p_join: float
    time_step: float
    exponential: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.p_join < 1.0:
            raise ValueError(
                f"p_join must be in (0, 1), got {self.p_join}"
            )

    @classmethod
    def poisson(cls, join_rate: float, leave_rate: float) -> IIDKinds:
        """Superposition of Poisson join and leave processes.

        Inter-event times are exponential with rate ``join_rate +
        leave_rate``; each event is a join with probability
        ``join_rate / (join_rate + leave_rate)``.
        """
        if join_rate <= 0 or leave_rate <= 0:
            raise ValueError(
                f"rates must be positive, got {join_rate}, {leave_rate}"
            )
        total = join_rate + leave_rate
        return cls(join_rate / total, 1.0 / total, exponential=True)

    def events(self, rng: np.random.Generator) -> Iterator[ChurnEvent]:
        """The timed stream -- infinite, consume with
        ``itertools.islice``."""
        p_join, step = self.p_join, self.time_step
        time = 0.0
        while True:
            time += float(rng.exponential(step)) if self.exponential else step
            kind = EventKind.JOIN if rng.random() < p_join else EventKind.LEAVE
            yield ChurnEvent(kind=kind, time=time)


@dataclass(frozen=True)
class ScheduledKinds:
    """A churn process materialized as a finite, time-ordered stream.

    ``schedule[k]`` is True when the stream's ``k``-th event is a join
    and ``times[k]`` is its time.  The batch tier reads the schedule
    cyclically from per-trajectory offsets, which matches the
    per-trajectory law of a stationary stream segment.
    """

    schedule: np.ndarray
    times: np.ndarray

    @classmethod
    def of_sessions(
        cls, arrivals: np.ndarray, departures: np.ndarray
    ) -> ScheduledKinds:
        """Session ``i``'s join at ``arrivals[i]`` and its leave at
        ``departures[i]``.

        Ties resolve joins first (a stable sort keeps every join ahead
        of the leaves), so a session is always born before it dies.
        """
        times = np.concatenate((arrivals, departures))
        order = np.argsort(times, kind="stable")
        return cls(schedule=order < len(arrivals), times=times[order])

    def events(
        self, rng: np.random.Generator | None = None
    ) -> Iterator[ChurnEvent]:
        """The timed stream (finite; ``rng`` is unused -- the sessions
        were drawn when the law was built)."""
        for join, time in zip(self.schedule.tolist(), self.times.tolist()):
            kind = EventKind.JOIN if join else EventKind.LEAVE
            yield ChurnEvent(kind=kind, time=time)


def bernoulli_event_stream(
    rng: np.random.Generator,
    p_join: float = 0.5,
    time_step: float = 1.0,
) -> Iterator[ChurnEvent]:
    """The model's stream: one event per unit of time, join w.p.
    ``p_join`` -- infinite, consume with ``itertools.islice``."""
    return IIDKinds(p_join, time_step).events(rng)


def poisson_event_stream(
    rng: np.random.Generator,
    join_rate: float,
    leave_rate: float,
) -> Iterator[ChurnEvent]:
    """Superposition of Poisson join and leave processes (see
    :meth:`IIDKinds.poisson`)."""
    return IIDKinds.poisson(join_rate, leave_rate).events(rng)


#: Sessions per block while :func:`_session_draws` looks for the horizon.
SESSION_BLOCK = 1 << 16


def _session_draws(
    rng: np.random.Generator, arrival_rate: float, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times before ``horizon`` and a standard exponential
    duration draw for each.

    A per-session loop draws a gap and a duration per session, then the
    gap that crosses the horizon: ``2 * count + 1`` standard exponentials.
    This finds ``count`` on blocks of such draws, rewinds the generator
    and redraws exactly those values, so the sessions and the next draw
    are the loop's, bit for bit.  Gaps are scaled as ``rng.exponential``
    scales them and summed sequentially (``np.cumsum``).
    """
    step = 1.0 / arrival_rate
    state = rng.bit_generator.state
    count, time = 0, 0.0
    while True:
        gaps = rng.standard_exponential(2 * SESSION_BLOCK)[::2] * step
        gaps[0] += time  # carry the running sum over from the last block
        times = np.cumsum(gaps)
        crossing = int(np.searchsorted(times, horizon))
        count += crossing
        if crossing < SESSION_BLOCK:
            break
        time = times[-1]
    rng.bit_generator.state = state
    draws = rng.standard_exponential(2 * count + 1)
    return np.cumsum(draws[:-1:2] * step), draws[1::2]


def exponential_sessions(
    rng: np.random.Generator,
    arrival_rate: float,
    mean_session: float,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals with exponential session durations: session
    ``i`` lives from ``arrivals[i]`` (below ``horizon``) to
    ``departures[i]``."""
    if arrival_rate <= 0 or mean_session <= 0 or horizon <= 0:
        raise ValueError("arrival_rate, mean_session, horizon must be > 0")
    arrivals, draws = _session_draws(rng, arrival_rate, horizon)
    return arrivals, arrivals + draws * mean_session


def session_event_stream(
    arrivals: np.ndarray, departures: np.ndarray
) -> Iterator[ChurnEvent]:
    """Flatten sessions into a time-ordered join/leave stream (finite,
    two events per session; see :meth:`ScheduledKinds.of_sessions`)."""
    return ScheduledKinds.of_sessions(arrivals, departures).events()


def pareto_sessions(
    rng: np.random.Generator,
    arrival_rate: float,
    shape: float,
    scale: float,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals with heavy-tailed (Pareto) session durations,
    as ``(arrivals, departures)`` arrays.

    Measured P2P traces (e.g. Gnutella/Kad studies) exhibit heavy-tailed
    sessions; this generator is the stand-in for such traces, which are
    not shipped.  Durations take libm's ``expm1`` per draw, as
    ``rng.pareto`` does (``np.expm1`` differs from it in the last bits).
    """
    if shape <= 1.0:
        raise ValueError(
            f"shape must exceed 1 for a finite mean, got {shape}"
        )
    if arrival_rate <= 0 or scale <= 0 or horizon <= 0:
        raise ValueError("arrival_rate, scale, horizon must be > 0")
    arrivals, draws = _session_draws(rng, arrival_rate, horizon)
    lomax = np.array([math.expm1(x) for x in (draws / shape).tolist()])
    return arrivals, arrivals + scale * (1.0 + lomax)


# -- scenario registry entries ----------------------------------------------
#
# One factory per churn model -- ``factory(rng, params, **options) ->
# law`` -- so a :class:`~repro.scenario.spec.ScenarioSpec` can name any
# of them (with ``churn_options`` as the keyword arguments) and every
# tier reads the same law.  A factory's signature is the only place its
# options and their defaults appear.

def _bernoulli_law(
    rng: np.random.Generator,
    params,
    p_join: float | None = None,
    time_step: float = 1.0,
) -> IIDKinds:
    return IIDKinds(params.p_join if p_join is None else p_join, time_step)


def _poisson_law(
    rng: np.random.Generator,
    params,
    rate: float = 2.0,
    join_rate: float | None = None,
    leave_rate: float | None = None,
) -> IIDKinds:
    """Poisson superposition; by default the joint ``rate`` splits
    between joins and leaves according to ``params.p_join``."""
    if join_rate is None:
        join_rate = rate * params.p_join
    if leave_rate is None:
        leave_rate = rate * params.p_leave
    return IIDKinds.poisson(join_rate, leave_rate)


def _exponential_session_law(
    rng: np.random.Generator,
    params,
    arrival_rate: float = 1.0,
    mean_session: float = 10.0,
    horizon: float = 10_000.0,
) -> ScheduledKinds:
    return ScheduledKinds.of_sessions(
        *exponential_sessions(rng, arrival_rate, mean_session, horizon)
    )


def _pareto_session_law(
    rng: np.random.Generator,
    params,
    arrival_rate: float = 1.0,
    shape: float = 1.5,
    scale: float = 1.0,
    horizon: float = 10_000.0,
) -> ScheduledKinds:
    return ScheduledKinds.of_sessions(
        *pareto_sessions(rng, arrival_rate, shape, scale, horizon)
    )


def _register_defaults() -> None:
    from repro.scenario.registry import CHURN_MODELS

    CHURN_MODELS.register("bernoulli", _bernoulli_law)
    CHURN_MODELS.register("poisson", _poisson_law)
    CHURN_MODELS.register("exponential-sessions", _exponential_session_law)
    CHURN_MODELS.register("pareto-sessions", _pareto_session_law)


_register_defaults()
