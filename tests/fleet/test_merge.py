"""Aggregate merging: order independence, decay, snapshots."""

import itertools
import random

import pytest

from repro.fleet.merge import AggregateProfile, MergeError, MergePolicy

FP = "ab" * 32

DELTAS = [
    ([["main", 0, "A.f", 8.0], ["main", 4, "helper", 2.0]], 0),
    ([["main", 0, "A.f", 4.0]], 1),
    ([["A.f", 2, "helper", 16.0], ["main", 4, "helper", 1.0]], 2),
    ([["main", 0, "A.f", 32.0], ["B.g", 7, "A.f", 5.0]], 1),
]


def merged_in_order(order, decay=0.5):
    aggregate = AggregateProfile(FP, MergePolicy(decay=decay))
    for index in order:
        edges, epoch = DELTAS[index]
        aggregate.merge_delta(edges, epoch=epoch, run_id=f"run-{index}")
    return aggregate


def test_merge_accumulates():
    aggregate = AggregateProfile(FP)
    aggregate.merge_delta([["main", 0, "A.f", 3.0]], run_id="a")
    aggregate.merge_delta([["main", 0, "A.f", 2.0]], run_id="b")
    assert aggregate.edges()[("main", 0, "A.f")] == 5.0
    assert aggregate.runs == 2
    assert aggregate.publishes == 2


def test_order_independent_all_permutations():
    """The acceptance property: any arrival order, same aggregate.

    decay=0.5 keeps every scale factor a power of two, so float sums
    are exact and equality is bitwise, not approximate.
    """
    reference = merged_in_order(range(len(DELTAS)))
    for order in itertools.permutations(range(len(DELTAS))):
        aggregate = merged_in_order(order)
        assert aggregate.edges() == reference.edges()
        assert aggregate.epoch == reference.epoch
        assert aggregate.runs == reference.runs


def test_order_independent_many_publishers():
    """Shuffled interleavings of >= 4 publishers' deltas agree."""
    publisher_deltas = []
    rng = random.Random(42)
    for publisher in range(6):
        for batch in range(5):
            edges = [
                [f"fn{publisher}", batch, f"fn{(publisher + 1) % 6}", float(2**batch)]
            ]
            publisher_deltas.append((edges, publisher % 3))
    snapshots = []
    for _ in range(5):
        order = list(range(len(publisher_deltas)))
        rng.shuffle(order)
        aggregate = AggregateProfile(FP, MergePolicy(decay=0.5))
        for index in order:
            edges, epoch = publisher_deltas[index]
            aggregate.merge_delta(edges, epoch=epoch, run_id=f"p{index}")
        snapshots.append(aggregate.to_dict())
    assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])


def test_decay_weights_newer_epochs_heavier():
    aggregate = AggregateProfile(FP, MergePolicy(decay=0.5))
    aggregate.merge_delta([["main", 0, "A.f", 8.0]], epoch=0)
    aggregate.merge_delta([["main", 0, "A.f", 8.0]], epoch=3)
    # The epoch-0 contribution decayed by 0.5^3; epoch 3 is undecayed.
    assert aggregate.edges()[("main", 0, "A.f")] == 8.0 + 1.0
    assert aggregate.epoch == 3


def test_no_decay_is_plain_sum():
    aggregate = AggregateProfile(FP)  # decay 1.0
    aggregate.merge_delta([["main", 0, "A.f", 8.0]], epoch=0)
    aggregate.merge_delta([["main", 0, "A.f", 8.0]], epoch=9)
    assert aggregate.edges()[("main", 0, "A.f")] == 16.0


def test_malformed_delta_rejected_without_mutation():
    aggregate = AggregateProfile(FP)
    aggregate.merge_delta([["main", 0, "A.f", 1.0]])
    for bad in (
        [["main", 0, "A.f"]],  # arity
        [["main", "x", "A.f", 1.0]],  # pc not an int
        [["main", 0, "A.f", float("nan")]],
        [["main", 0, "A.f", float("inf")]],
        [["main", 0, "A.f", -1.0]],
        ["not-an-edge"],
    ):
        with pytest.raises(MergeError):
            aggregate.merge_delta(bad)
    assert aggregate.edges() == {("main", 0, "A.f"): 1.0}
    assert aggregate.publishes == 1


def test_snapshot_roundtrip():
    reference = merged_in_order(range(len(DELTAS)))
    restored = AggregateProfile.from_dict(
        reference.to_dict(), MergePolicy(decay=0.5)
    )
    assert restored.edges() == reference.edges()
    assert restored.runs == reference.runs
    assert restored.epoch == reference.epoch
    assert restored.fingerprint == FP


def test_snapshot_is_a_current_profile_dict():
    from repro.profiling.serialize import FORMAT_VERSION

    snapshot = merged_in_order(range(len(DELTAS))).to_dict()
    assert snapshot["version"] == FORMAT_VERSION
    assert snapshot["fingerprint"] == FP
    assert all(
        set(edge) == {"caller", "pc", "callee", "weight"}
        for edge in snapshot["edges"]
    )
    assert snapshot["fleet"]["runs"] == 4


def test_snapshot_pruning_is_deterministic():
    policy = MergePolicy(decay=1.0, max_edges=2)
    aggregate = AggregateProfile(FP, policy)
    aggregate.merge_delta(
        [["a", 0, "b", 1.0], ["c", 0, "d", 9.0], ["e", 0, "f", 5.0]]
    )
    kept = [(e["caller"], e["weight"]) for e in aggregate.to_dict()["edges"]]
    assert kept == [("c", 9.0), ("e", 5.0)]
    # Pruning happens at serialization only; the aggregate keeps all edges.
    assert len(aggregate) == 3


def test_from_dict_rejects_garbage():
    for bad in ({}, {"edges": "nope"}, {"edges": [], "fingerprint": 7}):
        with pytest.raises(MergeError):
            AggregateProfile.from_dict(bad)


def test_policy_validation():
    with pytest.raises(ValueError):
        MergePolicy(decay=0.0)
    with pytest.raises(ValueError):
        MergePolicy(decay=1.5)
    with pytest.raises(ValueError):
        MergePolicy(max_edges=0)
