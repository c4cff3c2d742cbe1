"""Ledger tests: replay semantics, torn tails, scheduling idempotence.

Every case runs on both layouts of the one ledger class: a ``.jsonl``
file (a one-segment ledger) and a directory of shards.
"""

import pytest

from repro.distributed.ledger import (
    SHARD_DIR_NAME,
    UNASSIGNED_SHARD,
    SweepLedger,
    iter_ledger_records,
    replay_ledger,
)
from repro.scenario.spec import ScenarioSpec


def spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(name=f"point-{seed}", engine="analytic", seed=seed)


def layouts(tmp_path, stem: str = "l"):
    """One ledger path per layout: a file, and a directory."""
    return [tmp_path / f"{stem}.jsonl", tmp_path / stem]


def segment(path):
    """The segment a ledger at ``path`` appends sweep-less records to
    (its parent created, so a test can write it before any append)."""
    if path.suffix:
        return path
    shards = path / SHARD_DIR_NAME
    shards.mkdir(parents=True, exist_ok=True)
    return shards / f"{UNASSIGNED_SHARD}.jsonl"


class TestReplay:
    def test_lifecycle_folds_to_terminal_state(self, tmp_path):
        points = [spec(i) for i in range(4)]
        keys = [point.key() for point in points]
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled(points)
                ledger.record_claimed(keys[0], "w1")
                ledger.record_done(keys[0], "w1", elapsed=0.1)
                # Stale: no terminal event.
                ledger.record_claimed(keys[1], "w2")
                ledger.record_claimed(keys[2], "w1")
                ledger.record_failed(keys[2], "w1", "boom")
            state = replay_ledger(path)
            assert set(state.scheduled) == set(keys)
            assert state.done == {keys[0]}
            assert state.failed == {keys[2]: "boom"}
            assert state.claims == {keys[1]: "w2"}
            assert state.pending == {keys[1], keys[3]}

    def test_scheduled_keeps_wire_spec(self, tmp_path):
        point = spec(9)
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                state = ledger.replay()
            rebuilt = ScenarioSpec.from_dict(state.scheduled[point.key()])
            assert rebuilt == point

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        for path in layouts(tmp_path, "absent"):
            state = replay_ledger(path)
            assert not state.scheduled and not state.done
            assert not path.exists()  # replay creates nothing

    def test_rescheduling_is_idempotent(self, tmp_path):
        points = [spec(i) for i in range(3)]
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled(points)
            # A resumed coordinator schedules the same grid again.
            with SweepLedger(path) as ledger:
                ledger.record_scheduled(points)
            # No duplicate scheduled records.
            assert len(list(iter_ledger_records(path))) == 3

    def test_done_supersedes_an_earlier_failure(self, tmp_path):
        """Two workers race a requeued point: one reports failed, the
        other returns a result.  Replay must agree with the
        coordinator's in-memory supersede (done and failed disjoint)."""
        point = spec(4)
        for path, path2 in zip(layouts(tmp_path), layouts(tmp_path, "l2")):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                ledger.record_failed(point.key(), "w1", "transient")
                ledger.record_done(point.key(), "w2")
                state = ledger.replay()
            assert state.done == {point.key()}
            assert state.failed == {}
            # And symmetrically: a failure arriving after done is ignored.
            with SweepLedger(path2) as ledger:
                ledger.record_scheduled([point])
                ledger.record_done(point.key(), "w2")
                ledger.record_failed(point.key(), "w1", "late")
                state = ledger.replay()
            assert state.done == {point.key()}
            assert state.failed == {}

    def test_done_after_requeue_wins(self, tmp_path):
        point = spec(1)
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                ledger.record_claimed(point.key(), "w1")
                # Requeued after a crash.
                ledger.record_claimed(point.key(), "w2")
                ledger.record_done(point.key(), "w2")
                state = ledger.replay()
            assert state.done == {point.key()}
            assert state.pending == set()
            assert state.claims == {}


class TestCrashTolerance:
    def test_torn_final_line_is_skipped(self, tmp_path):
        points = [spec(i) for i in range(2)]
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled(points)
                ledger.record_done(points[0].key(), "w1")
            # Simulate a coordinator killed mid-append: a partial record
            # with no trailing newline.
            with segment(path).open("a") as handle:
                handle.write('{"event": "done", "key": "dead')
            state = replay_ledger(path)
            assert state.done == {points[0].key()}
            assert state.pending == {points[1].key()}
            # The ledger stays appendable after the torn line: opening
            # the appender repairs the line boundary, so the next record
            # lands on its own line and the fragment stays isolated
            # (skipped).
            with SweepLedger(path) as ledger:
                ledger.record_done(points[1].key(), "w2")
            state = replay_ledger(path)
            assert state.pending == set()
            assert state.done == {point.key() for point in points}

    def test_unparseable_fragment_lines_are_skipped(self, tmp_path):
        point = spec(0)
        for path in layouts(tmp_path):
            # An isolated torn line.
            segment(path).write_text('{"event": "done", "key": "dead\n')
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                ledger.record_done(point.key(), "w1")
            state = replay_ledger(path)
            assert state.done == {point.key()}
            assert state.pending == set()

    def test_malformed_record_raises(self, tmp_path):
        for path in layouts(tmp_path):
            segment(path).write_text('{"event": "exploded", "key": "a"}\n')
            with pytest.raises(ValueError, match="malformed"):
                replay_ledger(path)


class TestRequeueAndSubmit:
    def test_requeued_clears_the_claim_but_not_the_schedule(self, tmp_path):
        point = spec(7)
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                ledger.record_claimed(point.key(), "w1")
                ledger.record_requeued(point.key(), "w1")
                state = ledger.replay()
            assert state.claims == {}
            assert state.pending == {point.key()}

    def test_requeue_then_done_by_another_worker(self, tmp_path):
        point = spec(8)
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                ledger.record_claimed(point.key(), "w1")
                ledger.record_requeued(
                    point.key(), "w1", reason="lease-expired"
                )
                ledger.record_claimed(point.key(), "w2")
                ledger.record_done(point.key(), "w2")
                state = ledger.replay()
            assert state.done == {point.key()}
            assert state.pending == set() and state.claims == {}

    def test_requeued_after_done_does_not_unfinish(self, tmp_path):
        """A lease sweeper racing a result: the terminal event wins no
        matter the append order."""
        point = spec(9)
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled([point])
                ledger.record_done(point.key(), "w1")
                ledger.record_requeued(point.key(), "w1")
                state = ledger.replay()
            assert state.done == {point.key()}
            assert state.pending == set()

    def test_submitted_groups_keys_under_a_sweep_id(self, tmp_path):
        points = [spec(i) for i in range(3)]
        keys = [point.key() for point in points]
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_scheduled(points)
                ledger.record_submitted("ab" * 32, keys, name="grid")
                ledger.record_done(keys[0], "w1")
                state = ledger.replay()
            assert state.sweeps == {"ab" * 32: tuple(keys)}
            assert state.done == {keys[0]}

    def test_resubmission_overwrites_the_same_sweep_id(self, tmp_path):
        points = [spec(i) for i in range(2)]
        keys = [point.key() for point in points]
        for path in layouts(tmp_path):
            with SweepLedger(path) as ledger:
                ledger.record_submitted("cd" * 32, keys)
                ledger.record_submitted("cd" * 32, keys)
                state = ledger.replay()
            assert state.sweeps == {"cd" * 32: tuple(keys)}

    def test_malformed_submitted_record_raises(self, tmp_path):
        for path in layouts(tmp_path):
            segment(path).write_text(
                '{"event": "submitted", "sweep": 5, "keys": []}\n'
            )
            with pytest.raises(ValueError, match="malformed"):
                replay_ledger(path)

    def test_non_object_record_raises(self, tmp_path):
        for path in layouts(tmp_path):
            segment(path).write_text("[1, 2, 3]\n")
            with pytest.raises(ValueError, match="malformed"):
                replay_ledger(path)
