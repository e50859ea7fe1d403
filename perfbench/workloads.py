"""The benchmark's workloads and the client that runs one pass of each.

A *pass* is what one user of the demo does: submit a query set through
the API gateway and wait until every permalink is DONE. On the upload
workload the user first uploads graph files, and afterwards reopens the
permalinks and resubmits one query. The client is closed loop: one
Python process, one query in flight.

Each pass gets a datastore that holds the workload's datasets and no
results, so a permalink cache can only show where the pass itself
revisits work (the reads and the resubmit).
"""
from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.datasets.amazon import DYSTOPIA_REF, TOLKIEN_REF
from repro.datasets.builder import LabeledGraph
from repro.graph.formats import read_graph
from repro.platform.gateway import ApiGateway
from repro.platform.scheduler import Scheduler
from repro.platform.tasks import Task

SCALE = 2.0  # the scale of the Table I-III harnesses
TOP_K = 100  # the gateway's default top-k size
AMAZON = "amazon"
UPLOAD_SOURCE = "twitter-cop27"
UPLOAD_REF = "@ClimateActivist"
UPLOAD_FORMATS = (("edgelist", ".csv"), ("pajek", ".net"), ("asd", ".asd"))
READS = 40  # times a pass reopens each permalink


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the ``--workload`` value.
        why: what it stresses, in one line.
        datasets: registry datasets generated at the run's seed and
            stored before the gateway sees them (``UPLOAD_SOURCE`` reaches
            the store only as uploads).
        queries: builds the query set from the generated graphs.
        revisit: whether a pass first uploads ``UPLOAD_SOURCE`` in the
            three upload formats (the queries then run on the uploads),
            and afterwards reopens every permalink and resubmits the
            first CycleRank query.
    """

    name: str
    why: str
    datasets: tuple[str, ...]
    queries: Callable[[dict[str, LabeledGraph]], list[Task]]
    revisit: bool = False


def _table2(lgs: dict[str, LabeledGraph]) -> list[Task]:
    """Table II's PageRank column, its CycleRank columns, and its PPR
    column for "The Fellowship of the Ring". The PPR column for "1984"
    is left out: it converges in 30 or 35 supersteps depending on the
    seed (the convergence check runs every 5), the others in a fixed
    number."""
    ids = lgs[AMAZON].ids
    return (
        [Task.make(AMAZON, "pagerank", alpha=0.85)]
        + [
            Task.make(AMAZON, "cyclerank", refs=ids[ref], k=5, sigma="exp")
            for ref in (DYSTOPIA_REF, TOLKIEN_REF)
        ]
        + [Task.make(AMAZON, "personalized_pagerank", refs=ids[TOLKIEN_REF], alpha=0.85)]
    )


def upload_name(fmt: str) -> str:
    """Datastore name of one upload."""
    return f"upload-cop27-{fmt}"


def upload_shift(fmt: str) -> int:
    """Id offset of an upload: Pajek ids are 1-based."""
    return 1 if fmt == "pajek" else 0


def _uploads(lgs: dict[str, LabeledGraph]) -> list[Task]:
    """One CycleRank K=3 query per upload."""
    ref = lgs[UPLOAD_SOURCE].ids[UPLOAD_REF]
    return [
        Task.make(upload_name(fmt), "cyclerank", refs=ref + upload_shift(fmt), k=3, sigma="exp")
        for fmt, _ in UPLOAD_FORMATS
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "table2-compare",
            "Table II on Amazon: PageRank, CycleRank K=5 for two refs, PPR for one; power iteration dominates",
            (AMAZON,),
            _table2,
        ),
        Workload(
            "upload-revisit",
            "uploads a graph as CSV, Pajek and ASD, runs CycleRank K=3 on each, rereads the permalinks, resubmits one; no power iteration",
            (UPLOAD_SOURCE,),
            _uploads,
            revisit=True,
        ),
    )
}


def warmup_tasks(tasks: list[Task]) -> list[Task]:
    """The cheapest query of each algorithm in the set: power iterations
    capped at three supersteps, CycleRank at K=2. Each runs every Spark
    plan shape its full query runs, for a fraction of the cost."""
    seen, out = set(), []
    for t in tasks:
        if t.algorithm in seen:
            continue
        seen.add(t.algorithm)
        params = t.kwargs
        params.update(k=2) if t.algorithm == "cyclerank" else params.update(max_iter=3)
        out.append(Task.make(t.dataset, t.algorithm, **params))
    return out


def first_cyclerank(tasks: list[Task]) -> list[Task]:
    """The query set's first CycleRank query, as a one-query list: the
    one a pass resubmits."""
    return [t for t in tasks if t.algorithm == "cyclerank"][:1]


@dataclass
class PassResult:
    """Everything one pass measured."""

    tasks: list[tuple[str, Task]] = field(default_factory=list)
    resubmitted: list[tuple[str, Task]] = field(default_factory=list)
    queryset_s: float = 0.0
    latency_s: dict[str, float] = field(default_factory=dict)
    upload_s: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    resubmit_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    root: str = ""


class QueryTimer:
    """Times each ``Scheduler.run`` call (one query) by permalink id.

    Only a clock read around the call, so it is on in untraced passes
    too.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._orig = Scheduler.__dict__["run"]

    def __enter__(self) -> "QueryTimer":
        orig, sink = self._orig, self.seconds

        def run(sched, tid, *a, **kw):
            t0 = time.perf_counter()
            try:
                return orig(sched, tid, *a, **kw)
            finally:
                sink[tid] = time.perf_counter() - t0

        Scheduler.run = run
        return self

    def __exit__(self, *exc) -> None:
        Scheduler.run = self._orig


def fresh_root(template: str, root: str) -> str:
    """A datastore holding the template's datasets and nothing else."""
    if os.path.exists(root):
        shutil.rmtree(root)
    os.makedirs(root)
    shutil.copytree(os.path.join(template, "datasets"), os.path.join(root, "datasets"))
    return root


def _wait_done(gw: ApiGateway, tid: str, timeout: float = 600.0) -> str:
    """Poll a permalink until it leaves PENDING/RUNNING; its state."""
    deadline = time.monotonic() + timeout
    while True:
        state = gw.poll(tid)["state"]
        if state not in ("pending", "running") or time.monotonic() > deadline:
            return state
        time.sleep(0.01)


def run_pass(
    spark,
    wl: Workload,
    tasks: list[Task],
    root: str,
    upload_files: dict[str, str],
    *,
    check: Callable[[ApiGateway, str, Task], list[str]] | None = None,
    tracer=None,
    resubmit: bool = True,
) -> PassResult:
    """One user pass against a fresh gateway on ``root``.

    Args:
        spark: the session.
        wl: the workload.
        tasks: its query set.
        root: a datastore prepared by :func:`fresh_root`.
        upload_files: format → upload file path (upload workloads).
        tracer: a :class:`tracing.Tracer` to open format-read spans on.
        check: ``(gateway, tid, task) -> problems``, run on every
            query once it is DONE (outside the timed regions).
        resubmit: whether a revisiting pass resubmits the first
            CycleRank query.
    """
    res = PassResult(root=root)
    gw = ApiGateway(spark, root, top_k_size=TOP_K, dataset_scale=SCALE)
    # The user waits from the first upload until the last permalink is DONE.
    start = time.perf_counter()
    if wl.revisit:
        for fmt, _ in UPLOAD_FORMATS:
            t0 = time.perf_counter()
            span = tracer.open(f"formats.read_{fmt}") if tracer else None
            try:
                g = read_graph(spark, upload_files[fmt])
            finally:
                if span:
                    tracer.close(span)
            gw.datastore.save_dataset(upload_name(fmt), g)
            res.upload_s.append(time.perf_counter() - t0)

    with QueryTimer() as timer:
        tids = gw.submit_query_set(tasks)
        for tid in tids:
            _wait_done(gw, tid)
        res.queryset_s = time.perf_counter() - start
    res.tasks = list(zip(tids, tasks))
    res.latency_s = dict(timer.seconds)
    if check:
        for tid, task in res.tasks:
            res.failures += check(gw, tid, task)
    if not wl.revisit:
        return res

    # Reads are split around the resubmit so that they sample the host at
    # two moments several seconds apart, not in one sub-second burst.
    _reopen(gw, tids, READS // 2, res.read_ms)
    for task in first_cyclerank(tasks) if resubmit else ():
        t0 = time.perf_counter()
        (tid,) = gw.submit_query_set([task])
        _wait_done(gw, tid)
        res.resubmit_s.append(time.perf_counter() - t0)
        res.resubmitted.append((tid, task))
        if check:
            res.failures += check(gw, tid, task)
    _reopen(gw, tids, READS - READS // 2, res.read_ms)
    return res


def _reopen(gw: ApiGateway, tids: list[str], rounds: int, sink: list[float]) -> None:
    """Reopen every permalink ``rounds`` times (``poll`` + ``result``),
    appending each reopen's milliseconds to ``sink``."""
    for _ in range(rounds):
        for tid in tids:
            t0 = time.perf_counter()
            gw.poll(tid)
            gw.result(tid)
            sink.append((time.perf_counter() - t0) * 1e3)


def median(xs) -> float:
    """Median of a non-empty sample, 0.0 for an empty one."""
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0
