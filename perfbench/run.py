"""Seeded end-to-end benchmark of the machine, distributed and job paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload machine_dense --seed 1 \
        --seconds 20 --trace 0

Workloads, metric names and units are defined in ``BENCHMARK.json``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations through the timed window and reports
the per-layer metrics, writing every span to
``.bench_build/traces/<workload>-seed<seed>.json``.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Output checks run outside the timed region; each failed check and each
failed operation counts in ``failed``.  The benchmark writes only under
``.bench_build/`` (the compiled-kernel cache and the job service's
working directories included) and exits non-zero, printing no result,
when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"

#: Thread-pool variables of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return spec, ap.parse_args(argv)


def _prepare_process() -> None:
    """One process, at most ``nproc`` threads, all scratch in the checkout.

    Must run before numpy is imported: the thread pools read their
    variables once at load.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))


def _host() -> dict:
    import numpy as np

    from repro.md.backends import backend_status

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "backend_status": backend_status(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _percentile(xs, q: float) -> float:
    import numpy as np

    return float(np.percentile(xs, q))


def _end_to_end(outcome) -> dict:
    lat_ms = [1e3 * x for x in outcome.latencies_s]
    return {
        "steps_per_s": outcome.work_steps / outcome.wall_s,
        "latency_ms_p50": _percentile(lat_ms, 50),
        "latency_ms_p90": _percentile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(outcome.setup_s),
    }


def main(argv=None) -> int:
    spec, args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT} to benchmark", file=sys.stderr)
        return 2
    _prepare_process()

    import workloads
    from spans import Tracer

    from repro.md.backends import resolve_backend

    if resolve_backend(workloads.FORCE_IMPL).name != workloads.FORCE_IMPL:
        print(
            f"error: the {workloads.FORCE_IMPL} backend did not build: "
            f"{_host()['backend_status']}",
            file=sys.stderr,
        )
        return 3

    host = _host()
    print("host " + json.dumps(host, sort_keys=True))
    tracer = Tracer() if args.trace else None
    run = getattr(workloads, args.workload)
    if args.workload == "job_ensemble":
        outcome = run(args.seed, args.seconds, tracer, str(BUILD / "tmp"))
    else:
        outcome = run(args.seed, args.seconds, tracer)

    failed_checks = sum(not ok for _, ok, _ in outcome.checks)
    attempted = outcome.operations + len(outcome.checks)
    failed = outcome.failed_operations + failed_checks
    for name, ok, detail in outcome.checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    print("sim " + json.dumps(outcome.sim, sort_keys=True))

    if args.trace:
        defs = spec["per_layer"]
        values = {d["name"]: outcome.layers.get(d["name"], 0.0) for d in defs}
        path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), {
            "workload": args.workload, "seed": args.seed, "host": host,
            "per_layer": values, "sim": outcome.sim,
        })
        print(f"trace {len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
    else:
        defs = spec["end_to_end"]
        values = _end_to_end(outcome)
        for name, (value, unit) in outcome.extra.items():
            print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_frac {failed / attempted:.6g} ratio")
    unknown = set(outcome.layers if args.trace else values) - {d["name"] for d in defs}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for d in defs:
        value = float(values[d["name"]])
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        print(f"metric {d['name']} {value:.6g} {d['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
