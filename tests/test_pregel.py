"""Tests for the DataFrame pregel engine and bounded BFS."""
import pytest
from pyspark.sql import functions as F

from tests.graphs import CYCLE4, DANGLING_CHAIN, DISCONNECTED
from repro.graph.graph import DiGraph
from repro.pregel.engine import iterate_frontier, pregel


def _state(spark, values: dict[int, float]):
    return spark.createDataFrame(
        [(k, float(v)) for k, v in values.items()], "id long, value double"
    )


def _edges(spark, edges):
    return spark.createDataFrame(edges, "src long, dst long")


def _send_value(joined):
    return joined.select("dst", F.col("value").alias("msg"))


def _replace_with_msg(aggs):
    return F.coalesce("msg", F.lit(0.0))


def test_one_superstep_rotates_cycle(spark):
    """On a 4-cycle, 'send my value' + 'become the message' is a rotation."""
    res = pregel(
        _state(spark, {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}),
        _edges(spark, CYCLE4),
        _send_value,
        _replace_with_msg,
        max_iter=1,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    assert got == {0: 4.0, 1: 1.0, 2: 2.0, 3: 3.0}
    assert res.iterations == 1


def test_four_supersteps_full_rotation(spark):
    init = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    res = pregel(
        _state(spark, init),
        _edges(spark, CYCLE4),
        _send_value,
        _replace_with_msg,
        max_iter=4,
        tol=0.0,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    assert got == init


def test_convergence_stops_early(spark):
    """A fixpoint state converges on the first delta check."""
    res = pregel(
        _state(spark, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}),
        _edges(spark, CYCLE4),
        _send_value,
        _replace_with_msg,
        max_iter=50,
        tol=1e-12,
    )
    assert res.converged
    assert res.iterations == 1
    assert res.delta == pytest.approx(0.0)


def test_max_iter_reached_reports_not_converged(spark):
    res = pregel(
        _state(spark, {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}),
        _edges(spark, CYCLE4),
        _send_value,
        _replace_with_msg,
        max_iter=3,
        tol=0.0,
    )
    assert not res.converged
    assert res.iterations == 3


def test_vertex_without_messages_keeps_update_semantics(spark):
    """Node 0 in the dangling chain receives no messages → coalesce to 0."""
    res = pregel(
        _state(spark, {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0}),
        _edges(spark, DANGLING_CHAIN),
        _send_value,
        _replace_with_msg,
        max_iter=1,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    assert got[0] == 0.0
    assert got[1] == 5.0


def test_aggregator_reaches_next_superstep(spark):
    """An aggregator observed on one state is read by the next update."""
    res = pregel(
        _state(spark, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}),
        _edges(spark, CYCLE4),
        _send_value,
        lambda aggs: F.coalesce("msg", F.lit(0.0)) + aggs["total"],
        aggregators={"total": F.sum("value")},
        max_iter=2,
        tol=0.0,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    # step 1: 1 + Σ(initial) = 1 + 4; step 2: 5 + Σ(step 1) = 5 + 20
    assert got == {0: 25.0, 1: 25.0, 2: 25.0, 3: 25.0}


def test_agg_max_messages(spark):
    edges = [(0, 2), (1, 2)]
    res = pregel(
        _state(spark, {0: 3.0, 1: 7.0, 2: 0.0}),
        _edges(spark, edges),
        _send_value,
        _replace_with_msg,
        agg_msgs=F.max,
        max_iter=1,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    assert got[2] == 7.0


def test_agg_max_ignores_own_row(spark):
    """The vertex's own row carries no message: max of negatives wins."""
    edges = [(0, 2), (1, 2)]
    res = pregel(
        _state(spark, {0: -3.0, 1: -7.0, 2: 0.0}),
        _edges(spark, edges),
        _send_value,
        _replace_with_msg,
        agg_msgs=F.max,
        max_iter=1,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    assert got[2] == -3.0


def test_message_to_unknown_id_dropped(spark):
    res = pregel(
        _state(spark, {0: 1.0, 1: 2.0}),
        _edges(spark, [(0, 1), (1, 5)]),
        _send_value,
        _replace_with_msg,
        max_iter=1,
    )
    got = {r["id"]: r["value"] for r in res.state.collect()}
    assert got == {0: 0.0, 1: 1.0}


def test_two_jobs_per_superstep(spark):
    """Each superstep is one shuffle and one checkpoint: at most two jobs."""
    steps, prep = 6, 4
    sc = spark.sparkContext
    group = "test_two_jobs_per_superstep"
    sc.setJobGroup(group, group)
    try:
        res = pregel(
            _state(spark, {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}),
            _edges(spark, CYCLE4),
            _send_value,
            _replace_with_msg,
            max_iter=steps,
            tol=0.0,
        )
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert res.iterations == steps
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 2 * steps + prep


# -- iterate_frontier ---------------------------------------------------


@pytest.fixture(scope="module")
def chain_graph(spark):
    return DiGraph.from_edges(spark, [(0, 1), (1, 2), (2, 3), (3, 4)])


def _ids(df) -> set[int]:
    return {r["id"] for r in df.collect()}


def test_frontier_depth_zero_is_seed(spark, chain_graph):
    seed = spark.createDataFrame([(2,)], "id long")
    assert _ids(iterate_frontier(seed, chain_graph.edges, max_depth=0)) == {2}


@pytest.mark.parametrize("depth,expected", [(1, {0, 1}), (2, {0, 1, 2}), (9, {0, 1, 2, 3, 4})])
def test_frontier_out_depths(spark, chain_graph, depth, expected):
    seed = spark.createDataFrame([(0,)], "id long")
    assert _ids(
        iterate_frontier(seed, chain_graph.edges, max_depth=depth, direction="out")
    ) == ({0} | expected)


def test_frontier_in_direction(spark, chain_graph):
    seed = spark.createDataFrame([(4,)], "id long")
    got = _ids(iterate_frontier(seed, chain_graph.edges, max_depth=2, direction="in"))
    assert got == {2, 3, 4}


def test_frontier_stops_at_component(spark):
    g = DiGraph.from_edges(spark, DISCONNECTED)
    seed = g.vertices.sparkSession.createDataFrame([(0,)], "id long")
    got = _ids(iterate_frontier(seed, g.edges, max_depth=10))
    assert got == {0, 1}


def test_frontier_bad_direction_raises(spark, chain_graph):
    seed = spark.createDataFrame([(0,)], "id long")
    with pytest.raises(ValueError, match="direction"):
        iterate_frontier(seed, chain_graph.edges, max_depth=1, direction="sideways")
