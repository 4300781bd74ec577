"""Profile accuracy metrics.

The paper evaluates sampled DCGs against an exhaustively profiled DCG
with the *overlap* metric (§6.2)::

    overlap(DCG1, DCG2) = Σ_{e ∈ CallEdges} min(Weight(e, DCG1),
                                                Weight(e, DCG2))

where ``CallEdges`` is the set of edges present in both graphs and
``Weight(e, DCG)`` is the *percentage* of that DCG's total samples on
edge ``e``.  The result lies in 0..100: 0 = no common information,
100 = identical profiles.

A handful of additional metrics beyond the paper (hot-edge recall/
precision, edge coverage) support the extended analyses in
``benchmarks/``.
"""

from __future__ import annotations

from repro.profiling.dcg import DCG


def overlap(dcg1: DCG, dcg2: DCG) -> float:
    """The paper's overlap metric, in percent (0..100)."""
    if dcg1.total_weight == 0 or dcg2.total_weight == 0:
        return 0.0
    weights1 = dcg1.normalized()
    weights2 = dcg2.normalized()
    if len(weights2) < len(weights1):
        weights1, weights2 = weights2, weights1
    common = 0.0
    for edge, fraction1 in weights1.items():
        fraction2 = weights2.get(edge)
        if fraction2 is not None:
            common += min(fraction1, fraction2)
    return 100.0 * common


def accuracy(sampled: DCG, perfect: DCG) -> float:
    """``overlap(sampled, perfect)`` — the paper's accuracy score."""
    return overlap(sampled, perfect)


def hot_edges(dcg: DCG, threshold_percent: float) -> set:
    """Edges whose weight exceeds ``threshold_percent`` of the total."""
    cutoff = threshold_percent / 100.0
    return {
        edge
        for edge, fraction in dcg.normalized().items()
        if fraction > cutoff
    }


def hot_edge_recall(sampled: DCG, perfect: DCG, threshold_percent: float = 1.0) -> float:
    """Fraction of truly hot edges (per the perfect profile) that the
    sampled profile also classifies as hot.  1.0 when there are none."""
    truly_hot = hot_edges(perfect, threshold_percent)
    if not truly_hot:
        return 1.0
    sampled_hot = hot_edges(sampled, threshold_percent)
    return len(truly_hot & sampled_hot) / len(truly_hot)


def hot_edge_precision(
    sampled: DCG, perfect: DCG, threshold_percent: float = 1.0
) -> float:
    """Fraction of sampled-hot edges that are truly hot.  1.0 when the
    sampled profile reports none."""
    sampled_hot = hot_edges(sampled, threshold_percent)
    if not sampled_hot:
        return 1.0
    truly_hot = hot_edges(perfect, threshold_percent)
    return len(sampled_hot & truly_hot) / len(sampled_hot)


def edge_coverage(sampled: DCG, perfect: DCG) -> float:
    """Fraction of the perfect profile's *edges* (unweighted) that appear
    at all in the sampled profile."""
    perfect_edges = perfect.edges()
    if not perfect_edges:
        return 1.0
    sampled_edges = sampled.edges()
    found = sum(1 for edge in perfect_edges if edge in sampled_edges)
    return found / len(perfect_edges)
