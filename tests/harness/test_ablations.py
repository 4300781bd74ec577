"""Quick-path tests for the ablation harness (the claims on its full
slices are asserted in benchmarks/test_claims.py)."""

from repro.harness.ablations import (
    AblationPoint,
    context_profile_agreement,
    context_sensitivity_cost,
    entry_check_cost,
    inliner_comparison,
    skip_policy_comparison,
    stride_vs_samples,
)

SLICE = ["jess", "mtrt"]


def test_stride_vs_samples_structure():
    points = stride_vs_samples(SLICE, size="tiny", budget=16)
    assert len(points) == 4
    for point in points:
        assert 0.0 <= point.accuracy <= 100.0
        assert point.label


def test_skip_policy_comparison_returns_both():
    points = skip_policy_comparison(SLICE, size="tiny", stride=5, samples=8)
    assert [p.label for p in points] == ["random", "roundrobin"]


def test_entry_check_cost_shape():
    points = entry_check_cost("jess", size="tiny")
    overloaded, dedicated = points
    assert overloaded.label == "overloaded-flag"
    assert overloaded.overhead_percent == 0.0
    assert dedicated.overhead_percent > 0.0


def test_inliner_comparison_reference_is_zero():
    points = inliner_comparison(["jess"], size="tiny", iterations=4)
    by_label = {p.label: p.extra for p in points}
    assert by_label["old+timer"] == 0.0  # it is its own reference


def test_context_sensitivity_cost_depths():
    points = context_sensitivity_cost("jess", size="tiny", depths=(1, 4))
    assert len(points) == 2
    assert points[1].extra >= points[0].extra  # more contexts at depth 4


def test_context_profile_agreement_range():
    value = context_profile_agreement("jess", size="tiny")
    assert 0.0 <= value <= 100.0


def test_ablation_point_defaults():
    point = AblationPoint("x")
    assert point.accuracy == 0.0 and point.overhead_percent == 0.0
