"""Engine perf gates: batch vs scalar, the event axis, the chunked envelope.

Not collected by the tier-1 suite (pytest collects ``test_*.py``);
CI's bench-smoke job runs this module by path::

    BENCH_SMOKE=1 PYTHONPATH=src python -m pytest tests/perf/bench_engine.py -q

* At ``n = 10_000`` clusters the batch engine must beat the member-list
  scalar path by >= 10x while tracking Theorem 2's closed form.
* At ``n = 10_000`` clusters and 50 000 events, whole-horizon geometric
  skip dispatch must beat the per-event batch path by >= 3x at
  ``record_every = 100``.  Only the full grid asserts it;
  ``BENCH_SMOKE`` measures it on a 5 000-event grid.
* A chunked Monte-Carlo summary must hold its measured per-chunk
  footprint under a fixed envelope and sit on the closed forms.

``BENCH_SMOKE=1`` shrinks every grid so CI finishes in seconds.
"""

import os
import time

import numpy as np

from repro.core.cluster_model import ClusterModel
from repro.core.overlay_model import OverlayModel
from repro.core.parameters import ModelParameters
from repro.core.transitions import transition_rows
from repro.simulation.batch import (
    BatchClusterEngine,
    TrajectorySummaryAccumulator,
    run_batch_trajectories,
)
from repro.simulation.overlay_sim import CompetingClustersSimulation

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

PARAMS = ModelParameters(core_size=7, spare_max=7, k=1, mu=0.25, d=0.9)
N_EVENTS = 1_000 if SMOKE else 5_000
RECORD = 500
MIN_SPEEDUP_AT = 10_000
MIN_SPEEDUP = 10.0
THEOREM2_TOLERANCE = 0.12

AXIS_N = 10_000
AXIS_EVENTS = 5_000 if SMOKE else 50_000
AXIS_GATE_RECORD = 100
AXIS_MIN_SPEEDUP = 3.0
MILLION_RUNS = 50_000 if SMOKE else 1_000_000
MILLION_CHUNK = 1 << 17
#: The chunked path must hold the whole-run footprint under this bound
#: regardless of MILLION_RUNS (the envelope scales with the chunk).
ENVELOPE_BYTES = 64 * 1024 * 1024


def time_engine(engine: str, n_clusters: int):
    """Wall-clock one seeded construction + run; ``(seconds, series)``."""
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    series = CompetingClustersSimulation(
        PARAMS, n_clusters, rng, engine=engine
    ).run(N_EVENTS, record_every=RECORD)
    return time.perf_counter() - start, series


def batch_speedup():
    """``(scalar / batch seconds, batch series)`` at the gate's size."""
    # The per-params rows are built once per process (shared with chain
    # assembly), and each engine runs once at n = 1 000 first: the timed
    # runs meet warm rows and warm engines.
    transition_rows(PARAMS)
    for engine in ("scalar", "batch"):
        time_engine(engine, 1_000)
    scalar_seconds, _ = time_engine("scalar", MIN_SPEEDUP_AT)
    batch_seconds, series = time_engine("batch", MIN_SPEEDUP_AT)
    return scalar_seconds / batch_seconds, series


def test_batch_engine_speedup_and_accuracy():
    speedup, series = batch_speedup()
    assert speedup >= MIN_SPEEDUP, (
        f"batch engine only {speedup:.1f}x faster than scalar at "
        f"n={MIN_SPEEDUP_AT} (need >= {MIN_SPEEDUP}x)"
    )
    analytic = OverlayModel(PARAMS, MIN_SPEEDUP_AT).proportion_series(
        "delta", N_EVENTS, record_every=RECORD
    )
    gap = float(np.max(np.abs(series.safe_fraction - analytic.safe_fraction)))
    assert gap < THEOREM2_TOLERANCE, (
        f"batch deviation from Theorem 2 {gap:.3f} exceeds "
        f"{THEOREM2_TOLERANCE}"
    )


def _time_competing(event_batching: bool) -> float:
    rng = np.random.default_rng(4242)
    start = time.perf_counter()
    CompetingClustersSimulation(
        PARAMS, AXIS_N, rng, event_batching=event_batching
    ).run(AXIS_EVENTS, record_every=AXIS_GATE_RECORD)
    return time.perf_counter() - start


def event_axis_speedup() -> float:
    """Per-event over event-axis seconds, best of 3 each."""
    transition_rows(PARAMS)
    # Warm the skip tables so the one-time derivation is not billed to
    # the first timed run.
    CompetingClustersSimulation(
        PARAMS, 64, np.random.default_rng(0), event_batching=True
    ).run(64, record_every=32)
    per_event = min(_time_competing(False) for _ in range(3))
    event_axis = min(_time_competing(True) for _ in range(3))
    return per_event / event_axis


def chunked_summary():
    """Chunked reduction with a *measured* envelope.

    Drives the chunk loop directly so the peak per-chunk array
    footprint (result columns plus in-flight bookkeeping, as reported
    by ``BatchTrajectories.arrays_nbytes``) is observed, not derived
    from dtype arithmetic -- a dtype or allocation regression moves
    the number and trips the gate.  Returns ``(summary, peak bytes)``.
    """
    engine = BatchClusterEngine(PARAMS, np.random.default_rng(20110627))
    accumulator = TrajectorySummaryAccumulator()
    remaining = MILLION_RUNS
    while remaining > 0:
        chunk_runs = min(MILLION_CHUNK, remaining)
        remaining -= chunk_runs
        chunk = run_batch_trajectories(engine, chunk_runs, mode="skip")
        accumulator.update(chunk, chunk_bytes=chunk.arrays_nbytes)
    return accumulator.summary(), accumulator.peak_chunk_bytes


def test_event_axis_and_chunked_envelope():
    speedup = event_axis_speedup()
    if not SMOKE:
        assert speedup >= AXIS_MIN_SPEEDUP, (
            f"event-axis dispatch only {speedup:.1f}x faster than the "
            f"per-event batch path at n={AXIS_N}, {AXIS_EVENTS} events "
            f"(need >= {AXIS_MIN_SPEEDUP}x at record_every="
            f"{AXIS_GATE_RECORD})"
        )
    summary, envelope = chunked_summary()
    assert envelope < ENVELOPE_BYTES, (
        f"chunked envelope {envelope} bytes exceeds {ENVELOPE_BYTES}"
    )
    # The chunked summary must sit on the closed form.
    fate = ClusterModel(PARAMS).cluster_fate("delta")
    assert abs(summary.mean_time_safe - fate.expected_time_safe) < (
        0.05 * fate.expected_time_safe
    )
    assert abs(summary.p_polluted_merge - fate.p_polluted_merge) < 0.01
