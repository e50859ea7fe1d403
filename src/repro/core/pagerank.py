"""PageRank and CheiRank as pregel power iteration.

PageRank models a random surfer: with probability α (the damping
factor, 0.85 in the paper's Table I/II runs) follow a uniformly random
out-edge, with probability 1−α teleport to a uniformly random vertex.
Dangling vertices (no out-edges) teleport with probability 1, so their
mass is redistributed uniformly each iteration — this keeps the score
vector a probability distribution (sums to 1).

CheiRank [Chepelianskii 2010] is exactly PageRank on the transposed
graph, ranking by outgoing instead of incoming connections.
"""
from __future__ import annotations

import warnings

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graph.graph import DiGraph
from repro.pregel.engine import pregel


def _power_iteration(
    g: DiGraph,
    teleport: DataFrame | None,
    alpha: float,
    max_iter: int,
    tol: float,
) -> DataFrame:
    """Shared PR/PPR power iteration.

    Dangling mass is redistributed along the teleport vector:
    ``x' = (1−α)t + α·(A·x + d·t)``, where ``d`` is the total score on
    dangling vertices. ``d`` is a pregel aggregator, observed on each
    superstep's checkpoint and read by the next superstep as a literal,
    so it costs no extra Spark action.

    Args:
        g: the graph.
        teleport: ``(id, tele)`` probability vector (sums to 1), or
            ``None`` for the uniform vector (classic PageRank).
        alpha: damping factor — probability of following an out-edge.
        max_iter, tol: convergence controls (L1). A run that stops at
            ``max_iter`` with a delta above ``tol`` emits a
            ``RuntimeWarning``.

    Returns:
        ``(id, score)`` summing to 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = g.num_vertices()
    if n == 0:
        raise ValueError("graph has no vertices")

    if teleport is None:
        tele = g.vertices.select("id", F.lit(1.0 / n).alias("tele"))
    else:
        tele = g.vertices.select("id").join(
            teleport.select("id", "tele"), "id", "left"
        ).select("id", F.coalesce("tele", F.lit(0.0)).alias("tele"))
    # The walk starts from the teleport vector (uniform for PR): nodes
    # unreachable from the reference set then stay at exactly 0 instead
    # of holding a slowly decaying α^k residual of a uniform start.
    state = tele.select("id", F.col("tele").alias("value"), "tele")

    def send(rows: DataFrame) -> DataFrame:
        return rows.select("dst", (F.col("value") / F.size("_out")).alias("msg"))

    def update(aggs: dict[str, float]) -> Column:
        return (1.0 - alpha) * F.col("tele") + alpha * (
            F.coalesce(F.col("msg"), F.lit(0.0)) + aggs["dangling"] * F.col("tele")
        )

    res = pregel(
        state,
        g.edges,
        send,
        update,
        aggregators={
            "dangling": F.sum(
                F.when(F.col("_out").isNull(), F.col("value")).otherwise(0.0)
            )
        },
        max_iter=max_iter,
        tol=tol,
    )
    if not res.converged:
        warnings.warn(
            f"power iteration hit max_iter={max_iter} after {res.iterations} "
            f"supersteps with L1 delta {res.delta:.3g} > tol={tol:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    return res.state.select("id", F.col("value").alias("score"))


def pagerank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = 50, tol: float = 1e-8
) -> DataFrame:
    """Classic PageRank.

    Args:
        g: the graph.
        alpha: damping factor (probability of following a link).
        max_iter: power-iteration cap.
        tol: L1 convergence threshold.

    Returns:
        DataFrame ``(id, score)``; scores sum to 1.
    """
    return _power_iteration(g, None, alpha, max_iter, tol)


def cheirank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = 50, tol: float = 1e-8
) -> DataFrame:
    """CheiRank: PageRank on the transposed graph (out-link based)."""
    return _power_iteration(g.transpose(), None, alpha, max_iter, tol)
