"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--trace] [--out bench/out/summary.json]

It runs every workload of BENCHMARK.json at its ``run_seconds``.  For each
workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json; the summary also keeps each
run's pass times and set-up CPU time.  With ``--trace`` it adds
one traced run per workload (the first seed) and reports its per-layer
metrics.  Runs are made one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env)["env"], json.loads(result)


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results, runs = [], []
        for seed in seeds:
            env, res = run_once(workload, seed, spec["run_seconds"], False)
            results.append(res)
            runs.append({k: env[k] for k in ("seed", "passes", "pass_wall_s",
                                             "setup_cpu_s")})
            print(workload, seed, res["correct"], res["attempted"],
                  res["failed"], " ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in res["metrics"].items()), flush=True)
        entry = {"env": env, "seeds": seeds, "runs": runs,
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"  {workload:14s} {name:12s} median={s['median']:.5g} "
                  f"q1={s['q1']:.5g} q3={s['q3']:.5g} spread={s['spread']:.4f}"
                  f" bound={bounds[name]} {flag}", flush=True)
        if args.trace:
            _, res = run_once(workload, seeds[0], spec["run_seconds"], True)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in res["metrics"].items()}
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
