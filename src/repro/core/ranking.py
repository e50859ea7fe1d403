"""Ranking helpers shared by the algorithms and experiment harnesses.

Ties are always broken by ascending vertex id so every ranking in the
reproduction is deterministic (the paper's tables are single fixed
orderings).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.graph.graph import DiGraph


def ranks(scores: DataFrame, *, ascending: bool = False) -> DataFrame:
    """Attach a 1-based ``rank`` column to a ``(id, score)`` frame.

    Args:
        scores: per-vertex scores.
        ascending: rank smallest score first if True (default: largest
            score is rank 1).

    Returns:
        ``(id, score, rank)`` with deterministic id tie-break.
    """
    order = [
        F.col("score").asc() if ascending else F.col("score").desc(),
        F.col("id").asc(),
    ]
    w = Window.orderBy(*order)
    return scores.select("id", "score", F.row_number().over(w).alias("rank"))


def top_k(scores: DataFrame, k: int) -> DataFrame:
    """Top-``k`` rows by score (descending, id tie-break), with ``rank``.

    A sort with a limit keeps only ``k`` rows per partition, so the
    single-partition window in :func:`ranks` sees at most ``k`` rows.
    """
    return ranks(scores.orderBy(F.col("score").desc(), F.col("id").asc()).limit(k))


def top_k_names(g: DiGraph, scores: DataFrame, k: int) -> list[str]:
    """The top-``k`` vertex *names*, rank order — the paper's table rows."""
    rows = (
        g.with_names(top_k(scores, k))
        .orderBy("rank")
        .select("name")
        .collect()
    )
    return [r["name"] for r in rows]


def topk_overlap(a: list, b: list) -> float:
    """|A ∩ B| / k for two equal-length top-k lists (order ignored)."""
    if len(a) != len(b):
        raise ValueError(f"lists must have equal length ({len(a)} vs {len(b)})")
    if not a:
        return 1.0
    return len(set(a) & set(b)) / len(a)


def contamination(topk: list, contaminants: set) -> float:
    """Fraction of a top-k list drawn from a contaminant set.

    The paper's core qualitative claim is that PPR promotes globally
    central nodes ("United States", "Harry Potter") into personalized
    top-k lists while CycleRank does not; with planted ground-truth
    hubs this becomes a measurable rate.
    """
    if not topk:
        return 0.0
    return sum(1 for x in topk if x in contaminants) / len(topk)
