"""A GraphX-Pregel-style superstep engine over Spark DataFrames.

GraphX is JVM-only and unavailable from PySpark without external
packages, so this module reimplements the superstep model with
DataFrame operations (the standard PySpark idiom for iterative vertex
programs). As in Pregel, each vertex owns its out-edges: before the
loop the edges are grouped by ``src`` once into an ``_out`` array on
every state row. Each superstep is then one shuffle and one Spark
action:

  1. **send**: ``explode(_out)`` yields one ``(state…, dst)`` row per
     out-edge, and ``send_msg`` turns it into a ``(dst, msg)`` message;
  2. **combine**: the messages and the vertices' own rows (``msg``
     NULL, current ``value`` kept) are unioned and grouped by ``id`` in
     one shuffle; ``agg_msgs`` combines the messages, and groups
     without an own row (messages to unknown ids) are dropped;
  3. **update**: ``update`` is a column expression over the grouped
     frame that gives the next ``value``; the previous one is carried
     as ``_prev``.

The superstep ends in an eager ``localCheckpoint``, which truncates the
lineage (without it, 30+ chained supersteps make Catalyst analysis time
explode). Pregel's aggregators ride on that same job as observed
metrics: the L1 delta ``Σ|value − _prev|`` that decides convergence,
plus any named ``aggregators``, whose values the next superstep's
``update`` reads as literals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F


@dataclass(frozen=True)
class PregelResult:
    """Outcome of a pregel run.

    Attributes:
        state: final vertex-state DataFrame ``(id, value, ...)``, with
            the columns of the initial state.
        iterations: supersteps executed.
        delta: L1 distance between the last two states, observed on
            every superstep's checkpoint.
        converged: whether ``delta <= tol`` stopped the loop (as opposed
            to hitting ``max_iter``).
    """

    state: DataFrame
    iterations: int
    delta: float
    converged: bool


def _checkpoint(df: DataFrame, metrics: Mapping[str, Column]) -> tuple[DataFrame, dict]:
    """Eagerly checkpoint ``df`` and return the metrics observed on that job."""
    if not metrics:
        return df.localCheckpoint(eager=True), {}
    obs = Observation()
    cp = df.observe(obs, *(c.alias(n) for n, c in metrics.items())).localCheckpoint(
        eager=True
    )
    return cp, obs.get


def pregel(
    state: DataFrame,
    edges: DataFrame,
    send_msg: Callable[[DataFrame], DataFrame],
    update: Callable[[Mapping[str, float]], Column],
    *,
    agg_msgs: Callable[[Column], Column] = F.sum,
    aggregators: Mapping[str, Column] | None = None,
    max_iter: int = 50,
    tol: float = 1e-9,
) -> PregelResult:
    """Run supersteps until convergence or ``max_iter``.

    Args:
        state: initial vertex state, columns ``(id, value)`` with
            ``value`` double, plus any constant per-vertex columns. The
            engine adds ``_out``, the vertex's out-neighbours (NULL for a
            vertex without out-edges), which ``send_msg``, ``update``
            and ``aggregators`` may read.
        edges: edge frame, columns ``(src, dst)``.
        send_msg: maps a frame with every state column plus ``dst``, one
            row per out-edge, to a frame ``(dst, msg)``.
        update: maps the previous superstep's aggregator values (by
            name) to a column giving the next ``value``. The column reads
            ``msg`` (``agg_msgs`` over the vertex's messages, NULL when
            none arrived), the current ``value`` and the other state
            columns.
        agg_msgs: aggregate applied to the per-destination ``msg``
            column (default: sum).
        aggregators: named aggregate columns over the state frame. They
            are observed on the initial state and after every
            superstep, and the values reach the next ``update``.
        max_iter: superstep cap.
        tol: L1 convergence threshold.

    Returns:
        A :class:`PregelResult`.
    """
    aggregators = aggregators or {}
    cols = state.columns + ["_out"]
    carried = [c for c in cols if c != "id"]
    parts = state.sparkSession.sparkContext.defaultParallelism
    out = edges.groupBy(F.col("src").alias("id")).agg(F.collect_list("dst").alias("_out"))
    cur, aggs = _checkpoint(state.join(out, "id", "left"), aggregators)
    metrics = {
        "_delta": F.sum(F.abs(F.col("value") - F.col("_prev"))),
        **aggregators,
    }
    delta = float("inf")
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        msgs = send_msg(cur.select(*cols, F.explode("_out").alias("dst")))
        grouped = (
            cur.select(*cols, F.lit(True).alias("_own"))
            .unionByName(
                msgs.select(F.col("dst").alias("id"), "msg"),
                allowMissingColumns=True,
            )
            .repartition(parts, "id")
            .groupBy("id")
            .agg(
                agg_msgs(F.col("msg")).alias("msg"),
                F.max("_own").alias("_own"),
                *(F.first(c, ignorenulls=True).alias(c) for c in carried),
            )
            .filter("_own")
        )
        nxt = grouped.select(
            *(update(aggs).alias(c) if c == "value" else c for c in cols),
            F.col("value").alias("_prev"),
        )
        cur, observed = _checkpoint(nxt, metrics)
        delta = observed.pop("_delta") or 0.0
        aggs = observed
        if delta <= tol:
            converged = True
            break
    return PregelResult(
        state=cur.select(*state.columns), iterations=it, delta=delta, converged=converged
    )


def iterate_frontier(
    frontier: DataFrame,
    edges: DataFrame,
    *,
    max_depth: int,
    direction: str = "out",
) -> DataFrame:
    """Bounded BFS: all vertex ids reachable from ``frontier`` within
    ``max_depth`` hops, following out-edges (``direction='out'``) or
    in-edges (``direction='in'``).

    Args:
        frontier: DataFrame with an ``id`` column (the seed set).
        edges: edge frame ``(src, dst)``.
        max_depth: number of hops to expand.
        direction: ``'out'`` follows src→dst, ``'in'`` follows dst→src.

    Returns:
        DataFrame with a distinct ``id`` column: seeds plus everything
        reached. Used by CycleRank's K-ball pruning.
    """
    if direction == "out":
        from_col, to_col = "src", "dst"
    elif direction == "in":
        from_col, to_col = "dst", "src"
    else:
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    seen = frontier.select("id").distinct().localCheckpoint(eager=True)
    cur = seen
    for _ in range(max_depth):
        nxt = (
            cur.join(edges, cur["id"] == edges[from_col])
            .select(F.col(to_col).alias("id"))
            .distinct()
            .join(seen, "id", "left_anti")
            .localCheckpoint(eager=True)
        )
        if nxt.isEmpty():
            break
        seen = seen.union(nxt).localCheckpoint(eager=True)
        cur = nxt
    return seen
