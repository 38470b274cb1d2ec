"""fyinv benchmark.

    python3 bench/run.py --workload grid-fy --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; fyinv is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics: median set-up time
over several set-ups, median replication time over a closed loop of
replications lasting about ``--seconds``, peak RSS of this process and the
fit-quality metrics averaged over the run's first ``QUALITY_REPS``
replications.  With ``--trace 1`` it runs replication 0 alternately traced
and untraced and reports per-layer metrics, the tracing overhead and the
self-checks (bypass pattern and exactly repeating counts).

Every replication's outputs are checked (see workloads.py).  Human-readable
lines go first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records, with the
environment and, when traced, every span, go to ``.bench_out/`` in the
checkout.
"""

import os

# BLAS threads are pinned before numpy is imported: OpenBLAS is
# multithreaded by default, which makes timings depend on the machine's load.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-ups timed per replication, so that they are spread over the run rather
# than done in one burst: the host's speed can swing by up to 1.6x within
# seconds, and a single burst would sample only one of its states.
SETUP_REPEATS = 10
# The quality metrics average the first QUALITY_REPS replications, and every
# run makes at least that many, so a quality figure depends on the seed only,
# never on how many replications the host's speed fits into --seconds.
QUALITY_REPS = 8

# end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "replication_s": "s",
    "peak_rss_mb": "MB",
    "decision_error": "sq_l2",
    "regret": "cost",
    "parameter_error": "l1",
}
QUALITY = ("decision_error", "regret", "parameter_error")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def attempt(wl, seed: int, setups: int = 1) -> dict:
    """Set up (``setups`` times, each timed) and run one replication; time
    the run, then check it."""
    rec = {"seed": seed, "ok": False, "setup_s": []}
    t0 = time.perf_counter()
    try:
        for _ in range(setups):
            t1 = time.perf_counter()
            inputs = wl.setup(seed)
            rec["setup_s"].append(time.perf_counter() - t1)
        t1 = time.perf_counter()
        raw = wl.run(inputs, seed)
        rec["wall_s"] = time.perf_counter() - t1
        rec["quality"], rec["problems"] = wl.check(inputs, seed, raw)
    except Exception:  # a failed replication is counted, the loop goes on
        rec["problems"] = [traceback.format_exc()]
    rec["ok"] = not rec["problems"]
    rec["elapsed_s"] = time.perf_counter() - t0
    return rec


def measure(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    import workloads

    start = time.perf_counter()
    reps = []
    while True:
        reps.append(attempt(wl, workloads.rep_seed(seed, len(reps)), SETUP_REPEATS))
        # Start another replication only if it should end within the run.
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if len(reps) >= QUALITY_REPS and time.perf_counter() - start + typical > seconds:
            break

    good = [r for r in reps if r["ok"]]
    setups = [t for r in reps for t in r["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "replication_s": statistics.median(r["wall_s"] for r in good) if good else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    scored = [r for r in reps[:QUALITY_REPS] if r["ok"]]
    for q in QUALITY:
        metrics[q] = statistics.fmean(r["quality"][q] for r in scored) if scored else 0.0
    record = {"replications": reps, "run_s": time.perf_counter() - start}
    return metrics, record


def measure_traced(wl, seed: int, seconds: float) -> tuple[dict, dict, list[str], object]:
    """Replication 0 alternately traced and untraced, at least T, U, T."""
    import spans

    tracer = spans.Tracer()
    start = time.perf_counter()
    passes = []
    while True:
        k = len(passes)
        traced = k % 2 == 0
        tracer.rep = k
        if traced:
            tracer.install()
        try:
            rec = attempt(wl, seed)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        passes.append(rec)
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if k >= 2 and time.perf_counter() - start + typical > seconds:
            break

    problems = [f"pass {i}: {p}" for i, p in enumerate(passes) for p in p["problems"]]
    per_pass = {i: spans.pass_metrics(tracer.spans, i) for i, p in enumerate(passes) if p["traced"]}
    metrics = {}
    for name, (_, kind) in spans.LAYER_METRICS.items():
        vals = [m[name] for m in per_pass.values() if name in m]
        if not vals:
            continue
        if kind == "count" and len(set(vals)) > 1:
            problems.append(f"count {name} differs between traced passes of one seed: {vals}")
        metrics[name] = vals[0] if kind == "count" else statistics.median(vals)

    walls = {t: [p["wall_s"] for p in passes if p["traced"] is t and "wall_s" in p] for t in (True, False)}
    metrics["trace.replication_s"] = statistics.median(walls[True]) if walls[True] else 0.0
    metrics["trace.untraced_replication_s"] = statistics.median(walls[False]) if walls[False] else 0.0
    metrics["trace.overhead_s"] = metrics["trace.replication_s"] - metrics["trace.untraced_replication_s"]

    fw = metrics.get("solvers._fw_project_batch.calls", 0)
    oracle = metrics.get("graphs.shortest_path_batch.calls", 0)
    if (fw > 0) != wl.expects_fw:
        problems.append(f"bypass check: {fw} Frank-Wolfe calls, expected {'some' if wl.expects_fw else 'none'}")
    if (oracle > 0) != wl.expects_oracle:
        problems.append(f"bypass check: {oracle} oracle calls, expected {'some' if wl.expects_oracle else 'none'}")
    record = {"passes": passes, "per_pass": per_pass, "run_s": time.perf_counter() - start}
    return metrics, record, problems, tracer


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fyinv benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "fyinv" / "__init__.py").is_file():
        print(f"fyinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")

    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        wl = workloads.make(args.workload, workdir)
        if args.trace:
            metrics, record, problems, tracer = measure_traced(wl, args.seed, args.seconds)
            attempts = record["passes"]
        else:
            metrics, record = measure(wl, args.seed, args.seconds)
            attempts = record["replications"]
            problems = [f"replication {r['seed']}: {p}" for r in attempts for p in r["problems"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in attempts if not r["ok"])
    good = [r for r in attempts if r["ok"]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(attempts)} replications, "
          f"{failed} failed, fail_frac={failed / len(attempts):.3g}, {record['run_s']:.1f} s")
    if args.trace:
        import spans

        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        if tracer.missing:
            print(f"  not present in this fyinv, reported as 0: {', '.join(sorted(set(tracer.missing)))}")
        if args.seed == 0:
            for name, want in wl.anchor.items():
                print(f"  anchor {name}: {metrics[name]:g} (expected {want} at seed 0)")
    else:
        units = END_TO_END
        if good:
            print(f"  replication_s: median of {len(good)} replications, too few for a tail percentile")
            print(f"  quality metrics: mean over the first {QUALITY_REPS} replications")
            if "rel_regret_pct" in good[0]["quality"]:
                scored = [r for r in attempts[:QUALITY_REPS] if r["ok"]]
                rel = statistics.fmean(r["quality"]["rel_regret_pct"] for r in scored)
                print(f"  rel_regret_pct: {_fmt(rel)} %")
    for name in units:
        print(f"  {name}: {_fmt(metrics[name])} {units[name]}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    run_record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "metrics": metrics, "problems": problems, **record}
    if args.trace:
        run_record["wrapped_at"] = tracer.sites
        run_record["spans_fields"] = ["name", "site", "start", "end", "parent", "rep", "rows", "nbytes", "nested"]
        run_record["spans"] = tracer.spans
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run_record, default=str), encoding="utf-8"
    )

    result = {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
