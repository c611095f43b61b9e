#!/usr/bin/env python3
"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b]
                                  [--trace-seed 1] [--out perfbench/baseline.json]

For each workload, runs `run.py --trace 0` once per seed and `--trace 1`
once, one run at a time, and writes the figures of every run with, per
end-to-end metric, the median over seeds and the quartile spread
(q3 - q1) / median that BENCHMARK.json's bounds are judged against.
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


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("RESULT_DETAIL "))
    return {"seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="seirvax benchmark baseline")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()

    record: dict = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = {**spread(values), "unit": metric["unit"],
                                       "bound": metric["bound"]}
        figures = {}
        for name in runs[0]["detail"]["figures"]:
            figures[name] = statistics.median(r["detail"]["figures"][name] for r in runs)
        traced = run_once(workload, args.trace_seed, args.seconds, 1)
        record["env"] = runs[0]["detail"]["env"] | {"seed": None}
        record["workloads"][workload] = {
            "end_to_end": summary,
            "figures_median_over_seeds": figures,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "runs": [{"seed": r["seed"], "metrics": r["result"]["metrics"],
                      "figures": r["detail"]["figures"],
                      "pass_s_samples": r["detail"]["pass_s"],
                      "pass_ref_samples": r["detail"]["pass_ref"],
                      "setup_s_samples": r["detail"]["setup_s"],
                      "setup_wall_s_samples": r["detail"]["setup_wall_s"]}
                     for r in runs],
            "per_layer": {"seed": args.trace_seed,
                          "metrics": traced["result"]["metrics"]},
        }
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:<15}{name:<14}median {s['median']:.6g} {s['unit']:<3} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
        print(f"{workload:<15}failed {record['workloads'][workload]['failed']} of "
              f"{record['workloads'][workload]['attempted']}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
