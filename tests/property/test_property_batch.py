"""Property-based tests (hypothesis) on the batch engine's lane loop.

Per-event, skip and kind-schedule runs share one lane loop and differ
only in their advance step, so its per-trajectory bookkeeping must hold
for every step at any parameter point whose trajectories absorb within
the step budget (``d <= 0.9``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statespace import State
from repro.core.transitions import CODE_SAFE_MERGE
from repro.simulation.batch import BatchClusterEngine, run_batch_trajectories
from test_property_model import SMALL, parameter_strategy

#: A fixed kind schedule (True = join) for the schedule advance step.
SCHEDULE = np.random.default_rng(2011).random(4096) < 0.5

#: Initial laws by name; the two merges start in a closed state.
STARTS = {
    "delta": lambda params: "delta",
    "beta": lambda params: "beta",
    "polluted": lambda params: State(1, params.core_size, 1),
    "safe-merge": lambda params: State(0, 0, 0),
    "polluted-merge": lambda params: State(0, params.core_size, 0),
}
CLOSED_STARTS = ("safe-merge", "polluted-merge")


@settings(**SMALL)
@given(
    params=parameter_strategy.filter(lambda params: params.d <= 0.9),
    adversary=st.sampled_from([None, "passive", "greedy-leave"]),
    start=st.sampled_from(sorted(STARTS)),
    step=st.sampled_from(["event", "skip", "schedule"]),
)
def test_lane_loop_bookkeeping(params, adversary, start, step):
    """Phase times add up to the steps, first sojourns sit inside
    their phase's total, every trajectory ends absorbed, and exactly
    the closed starts take zero steps."""
    engine = BatchClusterEngine(
        params,
        np.random.default_rng(7),
        policy=adversary,
        with_kind_rows=step == "schedule",
    )
    keywords = (
        {"kind_schedule": SCHEDULE} if step == "schedule" else {"mode": step}
    )
    result = run_batch_trajectories(
        engine, 64, initial=STARTS[start](params), **keywords
    )
    steps = result.steps
    assert np.array_equal(result.time_safe + result.time_polluted, steps)
    for total, first in (
        (result.time_safe, result.first_safe_sojourn),
        (result.time_polluted, result.first_polluted_sojourn),
    ):
        visited = total > 0
        assert (first[visited] > 0).all()
        assert (first[visited] <= total[visited]).all()
        assert (first[~visited] == 0).all()
    assert (result.absorbed_code >= CODE_SAFE_MERGE).all()
    if start in CLOSED_STARTS:
        assert (steps == 0).all()
    else:
        assert (steps > 0).all()
