"""Spans around the platform's layers, with Spark job accounting.

A :class:`Tracer` wraps functions *where their callers look them up*
(a module attribute or a class attribute) and records one span per
call: name, parent, wall time, and the Spark jobs, stages and tasks the
call started. Jobs are attributed with ``SparkContext.setJobGroup``:
each span runs under a group of its own, so a job belongs to the
innermost open span, and a span's total is its own jobs plus its
children's.

The accounting itself (status-tracker reads after a span closes) is
timed and subtracted from every open span, so it inflates no layer's
time; what remains of the tracing cost is the wrapper call itself.

Wrapping is by name and optional: a function that no longer exists
records zero calls instead of failing, so the program may drop or
rename layers without breaking the benchmark.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One traced call."""

    name: str
    parent: "Span | None"
    attrs: dict
    start: float
    paused_at_start: float
    group: str
    end: float = 0.0
    paused_at_end: float = 0.0
    own_jobs: list[int] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    stages: int = 0
    tasks: int = 0

    @property
    def seconds(self) -> float:
        """Wall time minus the tracer's own bookkeeping inside it."""
        return (self.end - self.start) - (self.paused_at_end - self.paused_at_start)

    @property
    def jobs(self) -> list[int]:
        """Jobs started by this call, its children's included."""
        out = list(self.own_jobs)
        for c in self.children:
            out += c.jobs
        return out

    def walk(self):
        """This span and all its descendants, depth first."""
        yield self
        for c in self.children:
            yield from c.walk()

    def self_seconds(self) -> float:
        """Time not covered by child spans."""
        return self.seconds - sum(c.seconds for c in self.children)

    def record(self) -> dict:
        """A flat, JSON-ready view of the span."""
        return {
            "name": self.name,
            "parent": self.parent.name if self.parent else None,
            "seconds": round(self.seconds, 6),
            "self_seconds": round(self.self_seconds(), 6),
            "jobs": len(self.jobs),
            "own_jobs": len(self.own_jobs),
            "stages": self.stages,
            "tasks": self.tasks,
            **self.attrs,
        }


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.tracker = sc.statusTracker()
        self.roots: list[Span] = []
        self.probe_jobs: list[int] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._paused = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- job watermark ----------------------------------------------------

    def next_job_id(self) -> int:
        """Id the next Spark job will get (jobs are numbered in order)."""
        return int(self.sc._jsc.sc().dagScheduler().nextJobId())

    # -- spans ------------------------------------------------------------

    def _set_group(self, group: str | None) -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(group, group)

    def open(self, name: str, **attrs) -> Span:
        """Start a span under the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            parent=parent,
            attrs=attrs,
            start=time.perf_counter(),
            paused_at_start=self._paused,
            group=f"perfbench-{next(self._ids)}",
        )
        (parent.children if parent else self.roots).append(span)
        self._stack.append(span)
        self._set_group(span.group)
        return span

    def close(self, span: Span) -> None:
        """End a span, then read its jobs off the status tracker."""
        span.end = time.perf_counter()
        span.paused_at_end = self._paused
        t0 = span.end
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.own_jobs = sorted(self.tracker.getJobIdsForGroup(span.group))
        for jid in span.own_jobs:
            info = self.tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                st = self.tracker.getStageInfo(sid)
                if st is not None and st.numCompletedTasks > 0:
                    span.stages += 1
                    span.tasks += st.numCompletedTasks
        for c in span.children:
            span.stages += c.stages
            span.tasks += c.tasks
        self._set_group(self._stack[-1].group if self._stack else None)
        self._paused += time.perf_counter() - t0

    def probe(self, fn):
        """Run ``fn()`` as tracer bookkeeping, e.g. counting a lazy
        frame: its time is excluded from every open span and its jobs go
        to :attr:`probe_jobs`, not to any layer."""
        t0 = time.perf_counter()
        group = f"perfbench-probe-{next(self._ids)}"
        self._set_group(group)
        try:
            return fn()
        finally:
            self.probe_jobs += self.tracker.getJobIdsForGroup(group)
            self._set_group(self._stack[-1].group if self._stack else None)
            self._paused += time.perf_counter() - t0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, on_return=None, attrs_of=None) -> bool:
        """Replace ``owner.attr`` by a traced wrapper, if it exists.

        Args:
            owner: module or class the caller looks the function up on.
            attr: attribute name.
            name: span name.
            on_return: optional ``(span, result, args, kwargs) -> None``
                hook run after the call, e.g. to read convergence data.
            attrs_of: optional ``(args, kwargs) -> dict`` of span
                attributes taken from the call's arguments.

        Returns:
            Whether the function existed and was wrapped. A missing one
            opens no spans, so its metrics read zero.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None or not callable(fn):
            return False
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, **(attrs_of(args, kwargs) if attrs_of else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(span, out, args, kwargs)
            return out

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)
        return True

    def unwrap_all(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        self._set_group(None)

    # -- queries ----------------------------------------------------------

    def spans(self, name: str) -> list[Span]:
        """Every closed span with this name."""
        return [s for r in self.roots for s in r.walk() if s.name == name]
