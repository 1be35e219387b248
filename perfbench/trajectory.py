#!/usr/bin/env python3
"""Record one point of the BENCH trajectory: the benchmark run over several
seeds per workload, with medians, quartiles and spreads.

    python3 perfbench/trajectory.py --label seed

Runs ``perfbench/run.py`` as BENCHMARK.json describes it, one process at a
time, untraced with seeds 1..RUNS and then once traced per workload, and
writes ``perfbench/BENCH_<label>.json``.  A metric's spread is the distance
between the first and third quartile of its values as a share of their
median; it is flagged when above a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record["context"]


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the BENCH_<label>.json file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        per_metric, contexts = {}, []
        for seed in range(1, RUNS + 1):
            result, context = run_once(spec, workload, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
            contexts.append(context)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        entry = {"context": {k: contexts[0][k] for k in
                             ("commit", "python", "kernel_backend", "platform", "nproc")},
                 "runs": [{"seed": c["seed"], "op_list_sha256": c["op_list_sha256"],
                           "passes": c["passes"]} for c in contexts],
                 "end_to_end": {}}
        for name, values in per_metric.items():
            s = summarise(values)
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread"
            print(f"{workload:14s} {name:12s} median {s['median']:12.5g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        result, _ = run_once(spec, workload, 1, 1)
        entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
        point["workloads"][workload] = entry

    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
