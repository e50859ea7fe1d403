"""Output check: every DONE result against the dense / DFS oracles.

``repro.reference`` computes PageRank-family scores by dense power
iteration and CycleRank by DFS cycle enumeration, independently of
Spark. A stored result (the top-k rows a permalink serves) passes when

- its ranks are 1..n with n = min(k, vertices);
- every row's score matches the oracle's score for that id
  (PR/PPR within ``POWER_TOL``; CycleRank to rounding);
- rows follow score descending, with ascending id among equal scores;
- the score at each rank equals the oracle's score at that rank, so no
  higher-scored vertex is missing from the top-k.
"""
from __future__ import annotations

import math

from repro.reference import cyclerank_ref, pagerank_ref

POWER_TOL = 1e-6
CYCLE_TOL = 1e-12

POWER = ("pagerank", "personalized_pagerank")
SIGMA = {"exp": lambda n: math.exp(-n)}


def _refs(params: dict) -> list[int]:
    refs = params["refs"]
    return [int(refs)] if isinstance(refs, int) else [int(r) for r in refs]


def oracle_scores(edges: list[tuple[int, int]], algorithm: str, params: dict) -> dict[int, float]:
    """Oracle id→score for one query on an edge list."""
    if algorithm == "pagerank":
        return pagerank_ref(edges, alpha=params.get("alpha", 0.85))
    if algorithm == "personalized_pagerank":
        return pagerank_ref(edges, alpha=params.get("alpha", 0.85), refs=_refs(params))
    if algorithm == "cyclerank":
        (ref,) = _refs(params)
        return cyclerank_ref(edges, ref, params.get("k", 3), SIGMA[params.get("sigma", "exp")])
    raise ValueError(f"no oracle for {algorithm!r}")


def check_result(result, oracle: dict[int, float], algorithm: str, k: int) -> list[str]:
    """Problems with one stored result (empty when it is correct).

    Args:
        result: the pandas frame a permalink serves (``id``, ``score``,
            ``rank`` columns, rank order).
        oracle: id→score from :func:`oracle_scores`.
        algorithm: the query's algorithm.
        k: the platform's top-k size.
    """
    tol = POWER_TOL if algorithm in POWER else CYCLE_TOL
    close = (lambda a, b: abs(a - b) <= tol) if algorithm in POWER else (
        lambda a, b: math.isclose(a, b, rel_tol=1e-9, abs_tol=tol)
    )
    ids = [int(i) for i in result["id"]]
    scores = [float(s) for s in result["score"]]
    ranks = [int(r) for r in result["rank"]]
    n = min(k, len(oracle))
    errs = []
    if ranks != list(range(1, n + 1)):
        errs.append(f"ranks are not 1..{n}")
    for i, s in zip(ids, scores):
        if i not in oracle:
            errs.append(f"id {i} not in the graph")
        elif not close(s, oracle[i]):
            errs.append(f"id {i}: score {s!r}, oracle {oracle[i]!r}")
    for r in range(len(ids) - 1):
        a, b = (scores[r], ids[r]), (scores[r + 1], ids[r + 1])
        if a[0] < b[0] or (a[0] == b[0] and a[1] > b[1]):
            errs.append(f"rank {r + 1}..{r + 2} out of order")
    expect = sorted(oracle.values(), reverse=True)[:n]
    for r, (s, e) in enumerate(zip(scores, expect), start=1):
        if not close(s, e):
            errs.append(f"rank {r}: score {s!r}, oracle's rank-{r} score {e!r}")
            break
    return errs
