"""DCG data structure tests."""

import pytest

from repro.profiling.dcg import DCG, CountedDCG


def test_record_and_total():
    dcg = DCG()
    dcg.record(0, 5, 1)
    dcg.record(0, 5, 1, weight=2.0)
    assert dcg.total_weight == 3.0
    assert dcg.edge_weight((0, 5, 1)) == 3.0
    assert len(dcg) == 1


def test_record_edge_equivalent():
    dcg = DCG()
    dcg.record_edge((1, 2, 3), 4.0)
    assert dcg.edge_weight((1, 2, 3)) == 4.0


def test_contains():
    dcg = DCG()
    dcg.record(0, 0, 1)
    assert (0, 0, 1) in dcg
    assert (0, 0, 2) not in dcg


def test_weight_fraction():
    dcg = DCG()
    dcg.record(0, 0, 1, 3.0)
    dcg.record(0, 1, 2, 1.0)
    assert dcg.weight_fraction((0, 0, 1)) == pytest.approx(0.75)
    assert dcg.weight_fraction((9, 9, 9)) == 0.0


def test_weight_fraction_empty():
    assert DCG().weight_fraction((0, 0, 0)) == 0.0


def test_normalized_sums_to_one():
    dcg = DCG()
    for i in range(5):
        dcg.record(0, i, 1, i + 1)
    assert sum(dcg.normalized().values()) == pytest.approx(1.0)


def test_callsite_distribution():
    dcg = DCG()
    dcg.record(0, 7, 1, 3.0)
    dcg.record(0, 7, 2, 1.0)
    dcg.record(0, 8, 1, 5.0)
    dist = dcg.callsite_distribution(0, 7)
    assert dist == {1: 3.0, 2: 1.0}


def test_callee_weights():
    dcg = DCG()
    dcg.record(0, 1, 5, 2.0)
    dcg.record(1, 1, 5, 3.0)
    dcg.record(0, 2, 6, 1.0)
    weights = dcg.callee_weights()
    assert weights[5] == 5.0 and weights[6] == 1.0


def test_top_edges_sorted():
    dcg = DCG()
    dcg.record(0, 0, 1, 1.0)
    dcg.record(0, 1, 2, 9.0)
    dcg.record(0, 2, 3, 5.0)
    top = dcg.top_edges(2)
    assert [w for _, w in top] == [9.0, 5.0]


def test_merge():
    a = DCG()
    a.record(0, 0, 1, 1.0)
    b = DCG()
    b.record(0, 0, 1, 2.0)
    b.record(0, 1, 2, 1.0)
    a.merge(b)
    assert a.edge_weight((0, 0, 1)) == 3.0
    assert a.total_weight == 4.0


def test_copy_is_independent():
    a = DCG()
    a.record(0, 0, 1)
    b = a.copy()
    b.record(0, 0, 1)
    assert a.total_weight == 1.0 and b.total_weight == 2.0


def test_clear():
    dcg = DCG()
    dcg.record(0, 0, 1)
    dcg.clear()
    assert len(dcg) == 0 and dcg.total_weight == 0


def test_decay():
    dcg = DCG()
    dcg.record(0, 0, 1, 10.0)
    dcg.decay(0.5)
    assert dcg.edge_weight((0, 0, 1)) == 5.0
    assert dcg.total_weight == 5.0


def test_decay_validates_factor():
    with pytest.raises(ValueError):
        DCG().decay(0.0)
    with pytest.raises(ValueError):
        DCG().decay(1.5)


def test_describe_renders():
    dcg = DCG()
    dcg.record(0, 3, 1, 4.0)
    text = dcg.describe()
    assert "1 edges" in text and "@pc=3" in text


def test_counted_dcg_total_is_the_sum_of_its_edges():
    dcg = CountedDCG()
    edges = dcg.edges()
    edges[(0, 1, 2)] = 3.0
    edges[(0, 4, 5)] = 1.0
    assert dcg.total_weight == 4.0
    dcg.record(0, 1, 2)
    dcg.merge(dcg.copy())
    assert dcg.edge_weight((0, 1, 2)) == 8.0
    assert dcg.total_weight == 10.0
    assert dcg.weight_fraction((0, 4, 5)) == 0.2
    dcg.clear()
    assert dcg.total_weight == 0.0 and dcg.edges() is edges
