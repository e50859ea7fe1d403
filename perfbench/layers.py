"""The traced pass: which functions are wrapped, and the per-layer
metrics read off their spans.

Each function is wrapped on the object its caller looks it up on, so
the wrapper sees every call the platform makes:

==========================  =========================================
span                        wrapped at
==========================  =========================================
``scheduler.run``           ``platform.scheduler.Scheduler.run``
``executor.run``            ``platform.executor.Executor.run``
``pregel``                  ``core.pagerank.pregel`` (as PR/PPR bind it)
``cyclerank.ball``          ``core.cyclerank.prune_to_k_ball``
``cyclerank.frontier``      ``core.cyclerank.iterate_frontier``
``cyclerank.expand``        ``core.cyclerank.cycle_counts``
``datastore.<method>``      ``platform.datastore.Datastore`` methods
``status.poll/result``      ``platform.status.Status`` methods
``formats.read_<fmt>``      the benchmark's own ``read_graph`` calls
==========================  =========================================

The algorithm layers (``pregel``, ``power.*``, ``cyclerank.*``,
``executor.*``, ``scheduler.*``) count the queries of the query set
only; a resubmitted query shows in ``gateway.resubmit_s`` alone. The
I/O layers (``datastore.*``, ``status.*``, ``formats.*``) count the
whole pass.
"""
from __future__ import annotations

import importlib
import os

from repro.platform.datastore import Datastore
from repro.platform.executor import Executor
from repro.platform.scheduler import Scheduler
from repro.platform.status import Status

from tracing import Span, Tracer
from workloads import UPLOAD_FORMATS, median

# ``repro.core`` re-exports functions under its modules' names, so the
# modules themselves are fetched by full name.
cyclerank_mod = importlib.import_module("repro.core.cyclerank")
pagerank_mod = importlib.import_module("repro.core.pagerank")

POWER_ALGOS = ("pagerank", "personalized_pagerank")
ALGOS = POWER_ALGOS + ("cyclerank",)
DATASTORE_METHODS = ("load_dataset", "save_dataset", "save_result")

#: Every per-layer metric: name, unit, better.
PER_LAYER: list[tuple[str, str, str]] = [
    ("pregel.calls", "count", "lower"),
    ("pregel.supersteps", "count", "lower"),
    ("pregel.superstep_s", "s", "lower"),
    ("pregel.jobs_per_superstep", "count", "lower"),
    ("pregel.unconverged", "count", "lower"),
    ("power.prep_s", "s", "lower"),
    ("power.prep_jobs", "count", "lower"),
    ("power.query_p50_s", "s", "lower"),
    ("cyclerank.query_p50_s", "s", "lower"),
    ("cyclerank.ball_s", "s", "lower"),
    ("cyclerank.ball_jobs", "count", "lower"),
    ("cyclerank.ball_vertices", "count", "lower"),
    ("cyclerank.ball_useful_frac", "frac", "higher"),
    ("cyclerank.frontier_calls", "count", "lower"),
    ("cyclerank.expand_s", "s", "lower"),
    ("cyclerank.expand_jobs", "count", "lower"),
    *[(f"cyclerank.cycles_len{n}", "count", "higher") for n in range(2, 6)],
    ("executor.run_s", "s", "lower"),
    ("executor.jobs", "count", "lower"),
    ("executor.stages", "count", "lower"),
    ("executor.tasks", "count", "lower"),
    *[(f"executor.jobs_per_query.{a}", "count", "lower") for a in ALGOS],
    ("scheduler.collect_s", "s", "lower"),
    ("scheduler.collect_jobs", "count", "lower"),
    ("datastore.load_dataset_s", "s", "lower"),
    ("datastore.save_dataset_s", "s", "lower"),
    ("datastore.save_result_s", "s", "lower"),
    ("datastore.result_bytes", "bytes", "lower"),
    ("datastore.dataset_bytes", "bytes", "lower"),
    ("gateway.resubmit_s", "s", "lower"),
    ("gateway.read_ms", "ms", "lower"),
    ("status.poll_ms", "ms", "lower"),
    ("status.result_ms", "ms", "lower"),
    *[(f"formats.read_{fmt}_s", "s", "lower") for fmt, _ in UPLOAD_FORMATS],
    ("formats.read_jobs", "count", "lower"),
    ("upload.p50_s", "s", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("datasets.vertices", "count", "lower"),
    ("datasets.edges", "count", "lower"),
    ("setup.session_s", "s", "lower"),
    ("setup.data_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("trace.jobs", "count", "lower"),
    ("trace.unattributed_jobs", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced layer (those that exist)."""

    def cycles(span: Span, counts, args, kwargs) -> None:
        # The counts are a lazy frame; read them outside every layer's books.
        ref = int(args[1] if len(args) > 1 else kwargs["ref"])
        rows = tracer.probe(lambda: counts.collect())
        span.attrs["on_cycle"] = {int(r["id"]) for r in rows}
        span.attrs["cycles"] = {
            int(r["length"]): int(r["n_cycles"]) for r in rows if int(r["id"]) == ref
        }

    def ball_ids(span: Span, sub, args, kwargs) -> None:
        # The ball is a lazy frame; count it outside every layer's books.
        span.attrs["ball_ids"] = tracer.probe(
            lambda: {int(r[0]) for r in sub.vertices.select("id").collect()}
        )

    def convergence(span: Span, res, args, kwargs) -> None:
        span.attrs["iterations"] = int(getattr(res, "iterations", 0))
        span.attrs["converged"] = bool(getattr(res, "converged", True))

    def algorithm(args, kwargs) -> dict:
        return {"algorithm": args[2] if len(args) > 2 else kwargs.get("algorithm")}

    tracer.wrap(Scheduler, "run", "scheduler.run", attrs_of=lambda a, kw: {"tid": a[1]})
    tracer.wrap(Executor, "run", "executor.run", attrs_of=algorithm)
    tracer.wrap(pagerank_mod, "pregel", "pregel", on_return=convergence)
    tracer.wrap(cyclerank_mod, "prune_to_k_ball", "cyclerank.ball", on_return=ball_ids)
    tracer.wrap(cyclerank_mod, "iterate_frontier", "cyclerank.frontier")
    tracer.wrap(cyclerank_mod, "cycle_counts", "cyclerank.expand", on_return=cycles)
    for m in DATASTORE_METHODS:
        tracer.wrap(Datastore, m, f"datastore.{m}")
    tracer.wrap(Status, "poll", "status.poll")
    tracer.wrap(Status, "result", "status.result")


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def _dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def per_layer(tracer: Tracer, pass_root: str, tids: set[str], job_range: range) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Args:
        tracer: the pass's tracer.
        pass_root: the pass's datastore root.
        tids: the query set's permalink ids.
        job_range: ids of every job the pass started.
    """
    m: dict[str, float] = {}
    # A resubmit reuses its query's permalink id: a query's run is the
    # first ``scheduler.run`` span with its id.
    first: dict[str, Span] = {}
    for r in tracer.roots:
        if r.name == "scheduler.run" and r.attrs["tid"] in tids:
            first.setdefault(r.attrs["tid"], r)
    query_roots = {id(r) for r in first.values()}

    def S(name: str) -> list[Span]:
        """The query set's spans with this name."""
        return [s for s in tracer.spans(name) if id(_root(s)) in query_roots]

    pregel = S("pregel")
    steps = sum(s.attrs.get("iterations", 0) for s in pregel)
    m["pregel.calls"] = len(pregel)
    m["pregel.supersteps"] = steps
    m["pregel.superstep_s"] = sum(s.seconds for s in pregel) / steps if steps else 0.0
    m["pregel.jobs_per_superstep"] = sum(len(s.jobs) for s in pregel) / steps if steps else 0.0
    m["pregel.unconverged"] = sum(not s.attrs.get("converged", True) for s in pregel)

    execs = S("executor.run")
    power = [s for s in execs if s.attrs.get("algorithm") in POWER_ALGOS]
    m["power.prep_s"] = sum(
        s.seconds - sum(p.seconds for p in s.walk() if p.name == "pregel") for s in power
    )
    m["power.prep_jobs"] = sum(
        len(s.jobs) - sum(len(p.jobs) for p in s.walk() if p.name == "pregel") for s in power
    )

    balls = S("cyclerank.ball")
    m["cyclerank.ball_s"] = sum(s.seconds for s in balls)
    m["cyclerank.ball_jobs"] = sum(len(s.jobs) for s in balls)
    expand = S("cyclerank.expand")
    ball_total = useful = 0
    cycles: dict[int, int] = {}
    for s in expand:
        for n, c in s.attrs.get("cycles", {}).items():
            cycles[n] = cycles.get(n, 0) + c
        for b in (c for c in s.walk() if c.name == "cyclerank.ball"):
            ids = b.attrs.get("ball_ids", set())
            ball_total += len(ids)
            useful += len(ids & s.attrs.get("on_cycle", set()))
    m["cyclerank.ball_vertices"] = ball_total / len(balls) if balls else 0.0
    m["cyclerank.ball_useful_frac"] = useful / ball_total if ball_total else 0.0
    m["cyclerank.frontier_calls"] = len(S("cyclerank.frontier"))
    m["cyclerank.expand_s"] = sum(s.seconds for s in expand) - m["cyclerank.ball_s"]
    m["cyclerank.expand_jobs"] = sum(len(s.jobs) for s in expand) - m["cyclerank.ball_jobs"]
    for n in range(2, 6):
        m[f"cyclerank.cycles_len{n}"] = cycles.get(n, 0)

    m["executor.run_s"] = sum(s.seconds for s in execs)
    m["executor.jobs"] = sum(len(s.jobs) for s in execs)
    m["executor.stages"] = sum(s.stages for s in execs)
    m["executor.tasks"] = sum(s.tasks for s in execs)
    for a in ALGOS:
        runs = [s for s in execs if s.attrs.get("algorithm") == a]
        m[f"executor.jobs_per_query.{a}"] = sum(len(s.jobs) for s in runs) / len(runs) if runs else 0.0

    runs = S("scheduler.run")
    m["scheduler.collect_s"] = sum(s.self_seconds() for s in runs)
    m["scheduler.collect_jobs"] = sum(len(s.own_jobs) for s in runs)

    S = tracer.spans  # the I/O layers: the whole pass
    for meth in ("load_dataset", "save_dataset", "save_result"):
        m[f"datastore.{meth}_s"] = sum(s.seconds for s in S(f"datastore.{meth}"))
    m["datastore.result_bytes"] = _dir_bytes(os.path.join(pass_root, "results"))
    m["datastore.dataset_bytes"] = _dir_bytes(os.path.join(pass_root, "datasets"))
    m["status.poll_ms"] = median(s.seconds * 1e3 for s in S("status.poll"))
    m["status.result_ms"] = median(s.seconds * 1e3 for s in S("status.result"))

    reads = []
    for fmt, _ in UPLOAD_FORMATS:
        spans = S(f"formats.read_{fmt}")
        m[f"formats.read_{fmt}_s"] = sum(s.seconds for s in spans)
        reads += spans
    m["formats.read_jobs"] = sum(len(s.jobs) for s in reads)

    attributed = set(tracer.probe_jobs)
    for r in tracer.roots:
        attributed.update(r.jobs)
    m["trace.jobs"] = len(job_range)
    m["trace.unattributed_jobs"] = len(set(job_range) - attributed)
    return m


def span_records(tracer: Tracer) -> list[dict]:
    """Every span, flattened, for the trace file."""
    out = []
    for r in tracer.roots:
        for s in r.walk():
            rec = s.record()
            for key in ("ball_ids", "on_cycle"):
                if key in rec:
                    rec[key] = sorted(rec[key])
            rec["query"] = _root(s).attrs.get("tid")
            out.append(rec)
    return out
