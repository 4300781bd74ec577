"""Accuracy metric tests, including hypothesis properties of overlap."""

import pytest
from hypothesis import given, strategies as st

from repro.profiling.dcg import DCG
from repro.profiling.metrics import (
    accuracy,
    edge_coverage,
    hot_edge_precision,
    hot_edge_recall,
    hot_edges,
    overlap,
)


def dcg_from(edges: dict) -> DCG:
    dcg = DCG()
    for edge, weight in edges.items():
        dcg.record_edge(edge, weight)
    return dcg


def test_identical_profiles_overlap_100():
    a = dcg_from({(0, 0, 1): 3.0, (0, 1, 2): 1.0})
    assert overlap(a, a.copy()) == pytest.approx(100.0)


def test_disjoint_profiles_overlap_0():
    a = dcg_from({(0, 0, 1): 3.0})
    b = dcg_from({(5, 5, 5): 3.0})
    assert overlap(a, b) == 0.0


def test_scaling_invariance():
    # Overlap compares percentages, so scaling all weights is a no-op.
    a = dcg_from({(0, 0, 1): 3.0, (0, 1, 2): 1.0})
    b = dcg_from({(0, 0, 1): 300.0, (0, 1, 2): 100.0})
    assert overlap(a, b) == pytest.approx(100.0)


def test_partial_overlap_value():
    # a: 75/25, b: 25/75 on the same two edges => 25 + 25 = 50.
    a = dcg_from({(0, 0, 1): 3.0, (0, 1, 2): 1.0})
    b = dcg_from({(0, 0, 1): 1.0, (0, 1, 2): 3.0})
    assert overlap(a, b) == pytest.approx(50.0)


def test_empty_profile_overlap_0():
    a = dcg_from({(0, 0, 1): 1.0})
    assert overlap(a, DCG()) == 0.0
    assert overlap(DCG(), DCG()) == 0.0


def test_paper_interpretation_ranges():
    # "10-20% => profiles vary substantially" — a profile missing the
    # dominant edge scores low.
    perfect = dcg_from({(0, 0, 1): 90.0, (0, 1, 2): 10.0})
    sampled = dcg_from({(0, 1, 2): 10.0})
    assert accuracy(sampled, perfect) == pytest.approx(10.0)


edge_strategy = st.tuples(
    st.integers(0, 5), st.integers(0, 10), st.integers(0, 5)
)
profile_strategy = st.dictionaries(
    edge_strategy, st.floats(0.1, 100.0), min_size=1, max_size=12
)


@given(profile_strategy, profile_strategy)
def test_overlap_symmetric(e1, e2):
    assert overlap(dcg_from(e1), dcg_from(e2)) == pytest.approx(
        overlap(dcg_from(e2), dcg_from(e1))
    )


@given(profile_strategy, profile_strategy)
def test_overlap_bounded(e1, e2):
    value = overlap(dcg_from(e1), dcg_from(e2))
    assert 0.0 <= value <= 100.0 + 1e-9


@given(profile_strategy)
def test_overlap_reflexive(edges):
    dcg = dcg_from(edges)
    assert overlap(dcg, dcg.copy()) == pytest.approx(100.0)


@given(profile_strategy, st.floats(1.1, 10.0))
def test_overlap_scale_invariant(edges, factor):
    a = dcg_from(edges)
    b = dcg_from({e: w * factor for e, w in edges.items()})
    assert overlap(a, b) == pytest.approx(100.0, abs=1e-6)


def test_hot_edges_threshold():
    dcg = dcg_from({(0, 0, 1): 98.0, (0, 1, 2): 2.0})
    assert hot_edges(dcg, 1.0) == {(0, 0, 1), (0, 1, 2)}
    assert hot_edges(dcg, 5.0) == {(0, 0, 1)}


def test_hot_edge_recall_and_precision():
    perfect = dcg_from({(0, 0, 1): 50.0, (0, 1, 2): 50.0})
    sampled = dcg_from({(0, 0, 1): 100.0})
    assert hot_edge_recall(sampled, perfect) == pytest.approx(0.5)
    assert hot_edge_precision(sampled, perfect) == pytest.approx(1.0)


def test_hot_edge_degenerate_cases():
    empty = DCG()
    full = dcg_from({(0, 0, 1): 1.0})
    assert hot_edge_recall(full, empty) == 1.0
    assert hot_edge_precision(empty, full) == 1.0


def test_edge_coverage():
    perfect = dcg_from({(0, 0, 1): 1.0, (0, 1, 2): 1.0, (0, 2, 3): 1.0})
    sampled = dcg_from({(0, 0, 1): 5.0})
    assert edge_coverage(sampled, perfect) == pytest.approx(1 / 3)
    assert edge_coverage(sampled, DCG()) == 1.0
