"""Query-set benchmark for the demo platform.

Drives the API gateway (``submit_query_set`` -> ``poll`` -> ``result``)
as one closed-loop client: one Python process, one query in flight, a
Spark session built by the platform's own spark-submit helper
(``jobs/_common.session``) on ``local[4]``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2-compare --seed 0 --seconds 10 --trace 0

A run generates its datasets from ``--seed`` and stores them (set-up),
runs one cheap warm-up pass, then timed passes until ``--seconds`` have
passed (at least one). Every DONE result is checked against
``repro.reference``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see ``layers.py``). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
DRIVER_MEMORY = "2g"
MASTER = "local[4]"


def _require_checkout() -> None:
    """Fail fast outside a checkout of the repository."""
    need = [os.path.join(ROOT, "src", "repro", "__init__.py"), os.path.join(ROOT, "jobs", "_common.py")]
    missing = [p for p in need if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: run from the repository root; missing {', '.join(missing)}")


def _spark_env() -> None:
    """Launch arguments, as spark-submit would get them; all scratch
    space inside the checkout."""
    for sub in ("spark-local", "tmp"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    tmp = os.path.join(WORK, "tmp")
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {MASTER}",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options -Djava.io.tmpdir={tmp}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.sql.warehouse.dir={os.path.join(WORK, 'warehouse')}",
        "pyspark-shell",
    ])
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "jobs")]


def _settings(spark) -> dict:
    sc = spark.sparkContext
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "spark": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "adaptive": spark.conf.get("spark.sql.adaptive.enabled"),
        "arrow": spark.conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "retained_jobs": sc.getConf().get("spark.ui.retainedJobs", "1000"),
    }


def _stop(spark) -> None:
    """Stop the session and the JVM it launched, and wait for it."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 — never leave the JVM behind
            proc.kill()
            proc.wait()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    _require_checkout()
    _spark_env()

    import bench  # noqa: PLC0415 — needs the checkout on sys.path
    import repro  # noqa: PLC0415

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")
    if args.workload not in bench.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; know {sorted(bench.WORKLOADS)}")

    work = os.path.join(WORK, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    from _common import session  # noqa: PLC0415 — the platform's builder

    t0 = time.perf_counter()
    spark = session("perfbench")
    session_s = time.perf_counter() - t0
    spark.sparkContext.setLogLevel("ERROR")
    try:
        out = bench.run(
            spark,
            bench.WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work=work,
            session_s=session_s,
        )
        settings = _settings(spark)
    finally:
        _stop(spark)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "spark-local"), ignore_errors=True)

    units = dict(bench.UNITS)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "settings": settings,
        **out.summary,
    }
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    with open(os.path.join(WORK, "reports", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={out.passes} "
          "(closed loop, 1 client, 1 query in flight)")
    for name, value in out.metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    for name, value in out.info.items():
        print(f"  ({name:32s} {value:14.6f} {units.get(name, '')})")
    print(f"  failed_frac {out.failed}/{out.attempted}")
    for msg in out.failures[:20]:
        print(f"  FAILED {msg}")
    print("  settings " + " ".join(f"{k}={v}" for k, v in settings.items()))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
