"""Protocol variants: what the paper's design choices buy.

The paper's ``join`` deliberately lands every new peer in the *spare*
set -- joiners get no operational power, discouraging brute-force
attacks (Section IV).  This module implements the obvious naive
alternative as an analyzable baseline:

* :data:`JoinPolicy.SPARE_FIRST` -- the paper's protocol (delegates to
  the Figure-2 tree verbatim);
* :data:`JoinPolicy.DIRECT_CORE` -- a joiner takes a uniformly random
  *seat* among the ``C + s + 1`` positions: with probability
  ``C / (C + s + 1)`` it displaces a uniformly chosen core member to
  the spare set (the structure of overlays that admit newcomers into
  routing roles immediately).

Under DIRECT_CORE the adversary keeps Rule 2's honest-join filtering
but stops preventing splits: a polluted cluster that splits now *keeps*
its captured cores with positive probability, so polluted split states
become a reachable fourth closed class (the rows that
:func:`build_variant_chain` scatters include it).

The ablation benchmark shows DIRECT_CORE collapses the time-to-pollution
and hands the adversary the identifier space the paper's join denies it.

A subtlety worth knowing (verified by the property tests): at extreme
``mu`` the DIRECT_CORE variant can show *less* expected polluted time
than the paper's protocol.  That is not resilience -- without split
prevention, polluted clusters exit quickly through *polluted splits*,
propagating the capture to both halves.  The propagation metric
``p(polluted absorption)`` dominates the paper's protocol everywhere.
"""

from __future__ import annotations

import enum
from collections import defaultdict

from repro.core.matrix import ClusterChain
from repro.core.parameters import ModelParameters
from repro.core.policies import STRONG_POLICY, CountAdversaryPolicy
from repro.core.statespace import State, StateSpaceError
from repro.core.transitions import (
    _add_leave,
    _assemble_rows,
    transition_distribution,
    transition_rows,
)


class JoinPolicy(enum.Enum):
    """Placement policy for joining peers."""

    SPARE_FIRST = "spare-first"
    DIRECT_CORE = "direct-core"


def variant_transition_distribution(
    state: State, params: ModelParameters, policy: JoinPolicy
) -> dict[State, float]:
    """One-step law under the selected join policy.

    The leave branch (and with it ``protocol_k`` maintenance, Property 1
    and Rule 1) is shared with the paper's tree; only the join branch
    differs.
    """
    if policy is JoinPolicy.SPARE_FIRST:
        return transition_distribution(state, params)
    s, x, y = state
    delta = params.spare_max
    if not 0 < s < delta:
        raise StateSpaceError(
            f"transitions are defined on transient states only, got s={s}"
        )
    law: dict[State, float] = defaultdict(float)
    _add_direct_core_join(law, state, params)
    _add_leave(law, state, params, STRONG_POLICY, params.p_leave)
    return {target: p for target, p in law.items() if p > 0.0}


def _add_direct_core_join(
    law: dict[State, float], state: State, params: ModelParameters
) -> None:
    """Join branch of the DIRECT_CORE variant.

    A polluted quorum still drops honest joins while ``s > 1`` (the
    adversary keeps honest peers out), but no longer prevents splits:
    a polluted split duplicates the captured region.
    """
    s, x, y = state
    p_join = params.p_join
    p_malicious = params.mu
    polluted = params.is_polluted(x)
    if polluted and s > 1:
        # Rule 2's join filtering survives; the honest join is dropped.
        law[state] += p_join * (1.0 - p_malicious)
        honest_weight = 0.0
    else:
        honest_weight = p_join * (1.0 - p_malicious)
    malicious_weight = p_join * p_malicious
    core_seat = params.core_size / (params.core_size + s + 1)
    p_displaced_malicious = x / params.core_size

    def seat(weight: float, joiner_malicious: bool) -> None:
        if weight == 0.0:
            return
        spare_seat_weight = weight * (1.0 - core_seat)
        law[
            State(s + 1, x, y + 1 if joiner_malicious else y)
        ] += spare_seat_weight
        core_seat_weight = weight * core_seat
        if core_seat_weight == 0.0:
            return
        delta_x = 1 if joiner_malicious else 0
        # Displaced core member moves to the spare set.
        law[
            State(s + 1, x + delta_x - 1, y + 1)
        ] += core_seat_weight * p_displaced_malicious
        law[
            State(s + 1, x + delta_x, y)
        ] += core_seat_weight * (1.0 - p_displaced_malicious)

    seat(malicious_weight, joiner_malicious=True)
    seat(honest_weight, joiner_malicious=False)


def build_policy_chain(
    params: ModelParameters,
    policy: CountAdversaryPolicy,
    p_join: float | None = None,
) -> ClusterChain:
    """Assemble the chain played by a count-level adversary policy.

    The closed-form twin of the batch tier: the table a batch scenario
    samples at that point -- the paper's rows for the strong policy at
    the default mix, ``transition_rows(params, policy=policy,
    p_join=p_join)`` otherwise -- scattered into a dense matrix, so
    expected times and absorption probabilities of *any* registered
    adversary are available analytically (the batch-vs-scalar
    equivalence suite uses them as a third, noise-free referee).  Away
    from the paper's point the polluted-split closed class is included
    -- policies without Rule 2 can reach it.
    """
    if policy is STRONG_POLICY and p_join is None:
        return ClusterChain(params)
    return ClusterChain(
        params, transition_rows(params, policy=policy, p_join=p_join)
    )


def build_variant_chain(
    params: ModelParameters, policy: JoinPolicy
) -> ClusterChain:
    """Assemble the chain for a join policy.

    SPARE_FIRST returns the paper's exact chain; DIRECT_CORE scatters a
    table of its own law (built for the chain alone, not memoized) over
    the space with the polluted-split closed class it can reach.
    """
    if policy is JoinPolicy.SPARE_FIRST:
        return ClusterChain(params)
    rows = _assemble_rows(
        params,
        lambda state: variant_transition_distribution(
            state, params, policy
        ).items(),
        include_polluted_split=True,
        policy=STRONG_POLICY,
    )
    return ClusterChain(params, rows)
