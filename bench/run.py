"""edgespec benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/`` and nowhere else.  Set-up is measured in fresh child
interpreters; the workload then runs as a closed loop of passes in this
process until another pass would overrun ``--seconds`` (at least one pass,
three with tracing; a divisible workload's last pass stops at the deadline
instead).  Every pass is checked against the stored reference.  ``run_s``
is the sum over a pass's units of each unit's median time.  OpenBLAS, and
every other thread pool numpy may load, gets one thread.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, the per-layer
metrics come from the traced ones (median over passes), the spans are
written to ``bench/out/`` as JSON lines, and ``trace.overhead_frac``
compares the two kinds of pass.  The line before the result is the
environment record.  Metric names are checked against BENCHMARK.json.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread per pool, set before numpy loads and inherited by the set-up
# probes: the workload has one caller, and on a machine of a few shared
# cores a second BLAS thread measures the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from setup_probe import import_edgespec, warm_up  # noqa: E402
from tracing import Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup():
    """Median wall time of the set-up probes, and the median CPU time of
    the probe processes (which tells a slower CPU from waiting on I/O)."""
    wall, cpu = [], []
    for _ in range(SETUP_SAMPLES):
        cpu0 = children_cpu_s()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        cpu.append(children_cpu_s() - cpu0)
    return statistics.median(wall), statistics.median(cpu)


def blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def environment(workload, seed):
    import mpmath
    import scipy
    import sympy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas_info(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "mpmath": mpmath.__version__, "commit": commit}


def unit_median_sum(passes):
    """Sum over the units of a pass of each unit's median time: the time of
    one whole pass, from every unit's typical time."""
    samples = {}
    for p in passes:
        for unit, spent in p["units"].items():
            samples.setdefault(unit, []).append(spent)
    return sum(statistics.median(v) for v in samples.values())


def run_passes(job, seconds, tracer):
    """Closed loop of passes; with a tracer, odd passes are traced and
    there are at least three passes, so two untraced ones give latencies.
    A divisible workload's untraced passes after the first get the deadline,
    and the loop ends at the deadline or with the pass it cut."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            mark = tracer.mark()
        kwargs = ({"deadline": start + seconds}
                  if job.divisible and passes and not traced else {})
        job.unit_times = {}
        t0 = time.perf_counter()
        try:
            out = job.run_pass(**kwargs)
        except Exception:  # check(None) counts the pass's operations failed
            traceback.print_exc(file=sys.stderr)
            out = None
        wall = time.perf_counter() - t0
        if traced:
            tracer.remove()
        attempted, failed = job.check(out)
        rec = {"traced": traced, "wall": wall, "attempted": attempted,
               "failed": failed, "latencies": job.latencies,
               "units": dict(job.unit_times)}
        if traced:
            rec["layers"] = layer_metrics(tracer.spans[mark:])
            rec["layers"]["bessel.bound_violations"] = job.violations
            rec["layers"]["bessel.looser_bounds"] = job.looser_bounds
            rec["layers"]["bessel.worst_err_over_bound"] = (
                job.worst_err_over_bound)
            rec["layers"]["bessel.err_bound_p50"] = job.err_bound_p50
        passes.append(rec)
        elapsed = time.perf_counter() - start
        if job.divisible:
            done = job.cut or elapsed >= seconds
        else:
            done = elapsed + statistics.median(
                p["wall"] for p in passes) > seconds
        if len(passes) >= (3 if tracer else 1) and done:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (SRC / "edgespec" / "__init__.py").is_file():
        fail(f"no edgespec sources under {SRC}")

    setup_s, setup_cpu_s = (None, None) if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    es = import_edgespec()
    if not Path(es.package.__file__).resolve().is_relative_to(SRC):
        fail(f"edgespec imported from {es.package.__file__}, not {SRC}")
    warm_up(es)

    job = WORKLOADS[args.workload](es, args.seed)
    job.warm_up()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{int(time.time())}"
    tracer = Tracer(es, args.workload, run_id) if args.trace else None
    passes = run_passes(job, args.seconds, tracer)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    env = environment(args.workload, args.seed)
    env["passes"] = len(passes)
    env["pass_wall_s"] = [p["wall"] for p in passes]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = median_metrics([p["layers"] for p in traced])
        metrics["trace.overhead_frac"] = (unit_median_sum(traced)
                                          / unit_median_sum(plain) - 1.0)
        # single-evaluation latency, from the untraced passes; 0 on
        # workloads whose pass is one call
        evals = np.concatenate([np.asarray(p["latencies"], dtype=float)
                                for p in plain]) * 1e3
        for q in (50, 90):
            metrics[f"eval_p{q}_ms"] = (float(np.percentile(evals, q))
                                        if evals.size else 0.0)
        env["eval_samples"] = int(evals.size)
        env["eval_samples_beyond_p90"] = int(
            np.count_nonzero(evals > metrics["eval_p90_ms"]))
    else:
        env["setup_cpu_s"] = setup_cpu_s
        metrics = {
            "setup_s": setup_s,
            "run_s": unit_median_sum(plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        fail(f"metric names differ from BENCHMARK.json {kind}: "
             f"missing {sorted(set(units) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(units))}")

    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", env)
    correct = not (job.raised or job.mismatched)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
