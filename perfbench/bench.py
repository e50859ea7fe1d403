"""One benchmark run: set-up, warm-up, timed passes, checks, metrics."""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

from repro.datasets.registry import load_dataset
from repro.platform.datastore import Datastore

import check
import layers
from tracing import Tracer
from workloads import (
    SCALE,
    TOP_K,
    UPLOAD_FORMATS,
    UPLOAD_SOURCE,
    WORKLOADS,
    PassResult,
    Workload,
    fresh_root,
    median,
    run_pass,
    upload_name,
    upload_shift,
    warmup_tasks,
)

#: Every end-to-end metric: name, unit. Only the two that stay within
#: their bound across seeds on a 4-core VM whose speed drifts by ~15 %
#: over seconds; the others are printed, and are per-layer metrics of
#: the traced run.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("queryset_s", "s"),
]
#: Printed with every run, not part of the result line.
INFO: list[tuple[str, str]] = [
    ("cycle_query_p50_s", "s"),
    ("power_query_p50_s", "s"),
    ("resubmit_s", "s"),
    ("permalink_read_ms", "ms"),
    ("upload_s", "s"),
    ("failed_frac", "frac"),
]
UNITS = END_TO_END + INFO + [(n, u) for n, u, _ in layers.PER_LAYER]

@dataclass
class Outcome:
    """What a run reports."""

    metrics: dict[str, float]
    info: dict[str, float]
    summary: dict
    passes: int
    attempted: int
    failed: int
    failures: list[str]


class Oracle:
    """Reference scores per query, computed once."""

    def __init__(self, edges: dict[str, list[tuple[int, int]]]) -> None:
        self.edges = edges
        self._scores: dict[str, dict[int, float]] = {}

    def check(self, gw, tid: str, task) -> list[str]:
        """``[message]`` if the permalink is not DONE with a correct result."""
        st = gw.poll(tid)
        if st["state"] != "done":
            return [f"{tid} {task.to_json()}: state {st['state']} {st.get('error', '')}"]
        key = task.to_json()
        if key not in self._scores:
            self._scores[key] = check.oracle_scores(self.edges[task.dataset], task.algorithm, task.kwargs)
        errs = check.check_result(gw.result(tid), self._scores[key], task.algorithm, TOP_K)
        return [f"{tid} {key}: " + "; ".join(errs[:3])] if errs else []


def _write_uploads(lg, files: dict[str, str]) -> None:
    """The upload files, written here rather than with ``graph.formats``
    so the readers under test get inputs they did not produce."""
    v = lg.graph.vertices.select("id", "name").toPandas().sort_values("id")
    e = lg.graph.edges.select("src", "dst").toPandas().sort_values(["src", "dst"])
    pairs = list(zip(e["src"].tolist(), e["dst"].tolist()))
    with open(files["edgelist"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{s},{d}\n" for s, d in pairs)
    k = upload_shift("pajek")
    with open(files["pajek"], "w", encoding="utf-8") as fh:
        fh.write(f"*Vertices {len(v)}\n")
        fh.writelines(f'{i + k} "{n}"\n' for i, n in zip(v["id"].tolist(), v["name"].tolist()))
        fh.write("*Arcs\n")
        fh.writelines(f"{s + k} {d + k}\n" for s, d in pairs)
    with open(files["asd"], "w", encoding="utf-8") as fh:
        fh.write(f"{int(v['id'].max()) + 1} {len(pairs)}\n")
        fh.writelines(f"{s} {d}\n" for s, d in pairs)


def _setup_data(spark, wl: Workload, seed: int, root: str, files: dict[str, str]):
    """Generate and store the workload's datasets; write the upload files.

    Returns:
        (graphs by name, generation seconds, total seconds)
    """
    t0 = time.perf_counter()
    store = Datastore(root)
    lgs, gen_s = {}, 0.0
    for name in wl.datasets:
        g0 = time.perf_counter()
        lgs[name] = load_dataset(spark, name, scale=SCALE, seed=seed)
        gen_s += time.perf_counter() - g0
        if not (wl.revisit and name == UPLOAD_SOURCE):  # reaches the store as uploads
            store.save_dataset(name, lgs[name].graph)
    if wl.revisit:
        _write_uploads(lgs[UPLOAD_SOURCE], files)
    return lgs, gen_s, time.perf_counter() - t0


def _edge_lists(wl: Workload, lgs) -> dict[str, list[tuple[int, int]]]:
    out = {}
    for name, lg in lgs.items():
        pdf = lg.graph.edges.select("src", "dst").toPandas()
        out[name] = [(int(s), int(d)) for s, d in zip(pdf["src"], pdf["dst"])]
    if wl.revisit:
        for fmt, _ in UPLOAD_FORMATS:
            k = upload_shift(fmt)
            out[upload_name(fmt)] = [(s + k, d + k) for s, d in out[UPLOAD_SOURCE]]
    return out


def _counts(passes: list[PassResult]) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for p in passes:
        attempted += len(p.tasks) + len(p.resubmitted) + len(p.upload_s)
        failures += p.failures
    return attempted, failures


def _latencies(passes: list[PassResult], power: bool) -> list[float]:
    return [
        p.latency_s[tid]
        for p in passes
        for tid, t in p.tasks
        if (t.algorithm in check.POWER) == power
    ]


def run(spark, wl: Workload, *, seed: int, seconds: float, trace: bool, work: str, session_s: float) -> Outcome:
    """Set up, warm up, measure; see ``run.py`` for the protocol."""
    files = {fmt: os.path.join(work, "uploads", f"cop27{ext}") for fmt, ext in UPLOAD_FORMATS}
    os.makedirs(os.path.join(work, "uploads"))
    template = os.path.join(work, "template")
    lgs, gen_s, data_s = _setup_data(spark, wl, seed, template, files)
    tasks = wl.queries(lgs)
    oracle = Oracle(_edge_lists(wl, lgs))

    t0 = time.perf_counter()
    warm = fresh_root(template, os.path.join(work, "warm"))
    warm_reads = run_pass(spark, wl, warmup_tasks(tasks), warm, files, resubmit=False).read_ms
    warmup_s = time.perf_counter() - t0
    shutil.rmtree(warm)

    def one_pass(n: int, tracer=None) -> PassResult:
        root = fresh_root(template, os.path.join(work, f"pass{n}"))
        return run_pass(spark, wl, tasks, root, files, check=oracle.check, tracer=tracer)

    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - start < seconds):
        passes.append(one_pass(len(passes)))

    info = {
        "cycle_query_p50_s": median(_latencies(passes, power=False)),
        "power_query_p50_s": median(_latencies(passes, power=True)),
        "resubmit_s": median(s for p in passes for s in p.resubmit_s),
        # The warm-up's reads count too: the same operation, sampled at a
        # third moment of the run.
        "permalink_read_ms": median(warm_reads + [ms for p in passes for ms in p.read_ms]),
        "upload_s": median(u for p in passes for u in p.upload_s),
    }
    summary = {
        "passes": [
            {
                "queryset_s": p.queryset_s,
                "latency_s": {tid: p.latency_s[tid] for tid, _ in p.tasks},
                "tasks": {tid: t.to_json() for tid, t in p.tasks},
                "upload_s": p.upload_s,
                "resubmit_s": p.resubmit_s,
                "read_ms_p50": median(p.read_ms),
            }
            for p in passes
        ],
        "setup": {"session_s": session_s, "data_s": data_s, "warmup_s": warmup_s},
    }
    if not trace:
        metrics = {
            "setup_s": session_s + data_s + warmup_s,
            "queryset_s": median(p.queryset_s for p in passes),
        }
    else:
        tracer = Tracer(spark.sparkContext)
        layers.install(tracer)
        lo = tracer.next_job_id()
        try:
            tp = one_pass(len(passes), tracer)
        finally:
            tracer.unwrap_all()
        jobs = range(lo, tracer.next_job_id())
        passes.append(tp)
        metrics = layers.per_layer(tracer, tp.root, {tid for tid, _ in tp.tasks}, jobs)
        metrics.update({
            "power.query_p50_s": info["power_query_p50_s"],
            "cyclerank.query_p50_s": info["cycle_query_p50_s"],
            "gateway.resubmit_s": info["resubmit_s"],
            "gateway.read_ms": info["permalink_read_ms"],
            "upload.p50_s": info["upload_s"],
            "datasets.generate_s": gen_s,
            "datasets.vertices": sum(lg.graph.num_vertices() for lg in lgs.values()),
            "datasets.edges": sum(len(e) for n, e in oracle.edges.items() if n in lgs),
            "setup.session_s": session_s,
            "setup.data_s": data_s,
            "setup.warmup_s": warmup_s,
            "trace.overhead_s": tp.queryset_s - passes[0].queryset_s,
        })
        metrics = {name: metrics[name] for name, _, _ in layers.PER_LAYER}
        summary["spans"] = layers.span_records(tracer)
    attempted, failures = _counts(passes)
    if trace and metrics["trace.unattributed_jobs"]:
        failures.append(f"{int(metrics['trace.unattributed_jobs'])} Spark jobs not attributed to any span")
    info["failed_frac"] = len(failures) / attempted
    return Outcome(
        metrics=metrics,
        info=info,
        summary=summary,
        passes=len(passes),
        attempted=attempted,
        failed=len(failures),
        failures=failures,
    )
