#!/usr/bin/env python3
"""seirvax benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_quickstart, ensemble, accuracy, stability_map (see
workloads.py for why each exists). Run from anywhere inside a checkout;
the program is imported from the checkout's src/.

One process runs the workload, with at most one child process
alive at a time: the fresh interpreters that time set-up, the CLI
commands of cli_quickstart, and the reference solver of accuracy. All
generated inputs and outputs go to a temporary directory under
.bench_tmp/, removed at exit. BLAS and OpenMP run one thread.

--trace 0 measures the end-to-end metrics. pass_ref is a pass's wall
time in units of a fixed reference computation timed between its
operations, in which the shared machine's changing speed cancels (see
speed.py); setup_s is the set-up time of fresh interpreters corrected
the same way, in seconds at a nominal slice time. --trace 1 alternates
untraced and traced passes: the traced ones record spans around every
layer call (written to .bench_out/), give the per-layer metrics, and
their extra time against the untraced ones is the tracing overhead.

The last stdout line is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 when the run completed (the verdicts are in the result),
2 when the checkout has no program to benchmark or a run could not be
set up.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli_quickstart", "ensemble", "accuracy", "stability_map")
# The host's speed changes within seconds, so set-up is timed once before
# the passes and once after every timed pass, not in one burst.
SETUP_MIN_STARTS = 9


def setup_probe(workload: str, seed: int) -> int:
    """Child mode: import the program, do the workload's set-up, report."""
    t0 = time.monotonic()
    import seirvax  # noqa: F401
    import_s = time.monotonic() - t0
    from workloads import setup_inputs
    setup_inputs(workload, ROOT, seed)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


def setup_start(workload: str, seed: int, env: dict,
                slices: list[float]) -> tuple[float, float]:
    """Set-up and import time (s) of one fresh interpreter; adds the times
    of reference slices taken just before and just after it to slices."""
    from speed import timed_slice
    slices.append(timed_slice())
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         workload, "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    slices.append(timed_slice())
    return report["ready"] - t0, report["import_s"]


def environment(seed: int) -> dict:
    """Machine, versions and code identity recorded with every result."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "seirvax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list[float], unit: str) -> str:
    from workloads import tail_percentile
    q1, med, q3 = quartiles(values)
    p, tail = tail_percentile(values)
    return (f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"p{p:g} {tail:.6g}, n={len(values)})")


def run(args) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run_slices: list[float] = []   # every reference slice the run times
    starts = [setup_start(args.workload, args.seed, env, run_slices)]

    sys.path.insert(0, str(SRC))
    import numpy as np
    import layers
    from spans import NullSpans, Spans, to_json
    from speed import NOMINAL_SLICE_S, SpeedProbe
    from workloads import WORKLOADS

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        wl = WORKLOADS[args.workload](ROOT, tmp, args.seed, env)
        attempted, failures = wl.prepare()
        traced = bool(args.trace)
        if traced:
            if args.workload == "cli_quickstart":
                wl.in_process = True   # replay through seirvax.cli.main
            probe_dir = tmp / "probe"
            probe_scenario = tmp / "probe.ini"
            shutil.copyfile(ROOT / "scenarios" / "full_immunization.ini", probe_scenario)

        null = NullSpans()
        # warm-up: caches and lazy set-up, untimed
        done = [wl.run_pass(0, null, SpeedProbe())]
        timed: list[tuple[int, object]] = []
        pass_refs: list[float] = []   # each timed pass's cost in reference slices
        slice_walls: list[float] = []
        layer_rows, trace_walls, all_records = [], [], []

        def untraced(k: int) -> None:
            speed = SpeedProbe()
            res = wl.run_pass(k, null, speed)
            slice_s = speed.slice_s()
            timed.append((k, res))
            pass_refs.append(res.wall / slice_s)
            slice_walls.append(slice_s)
            run_slices.extend(speed.walls)
            done.append(res)
            starts.append(setup_start(args.workload, args.seed, env, run_slices))

        k = 0
        deadline = time.perf_counter() + args.seconds
        while not timed or time.perf_counter() < deadline:
            k += 1
            if not traced:
                untraced(k)
                continue
            if k % 2:   # alternate which of the pair runs first
                untraced(k)
            spans = Spans()   # pass k's inputs again, traced
            layers.install_wrappers(spans)
            try:
                with spans.span("traced_pass"):
                    with spans.span("probe"):
                        ops, probe_failures = layers.run_probe(
                            spans, probe_dir, probe_scenario,
                            with_cli=args.workload != "cli_quickstart")
                    with spans.span("workload"):
                        res = wl.run_pass(k, spans, SpeedProbe())
            finally:
                spans.unwrap_all()
            attempted += ops
            failures += probe_failures
            done.append(res)
            trace_walls.append((k, res.wall))
            layer_rows.append(layers.layer_metrics(spans.records, res.details))
            all_records.append(spans.records)
            if k % 2 == 0:
                untraced(k)
        while len(starts) < SETUP_MIN_STARTS:
            starts.append(setup_start(args.workload, args.seed, env, run_slices))
        setup_walls = [wall for wall, _ in starts]
        # set-up in seconds at the nominal slice time (see speed.py)
        scale = NOMINAL_SLICE_S / statistics.median(run_slices)
        setup = [scale * wall for wall in setup_walls]
        imports = [import_s for _, import_s in starts]
        attempted += sum(len(res.op_walls) for res in done)
        failures += [msg for res in done for msg in res.failures]

        # the workload's own process, or its children for cli_quickstart
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli_quickstart"
               else resource.RUSAGE_SELF)
        rss = resource.getrusage(who).ru_maxrss
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env_record = environment(args.seed)
    pass_walls = [res.wall for _, res in timed]
    op_walls = [w for _, res in timed for w in res.op_walls]
    figures = wl.figures([res for _, res in timed])
    print(f"seirvax benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env_record))
    print(describe("setup_s", setup, "s"))
    print(describe("setup_wall_s", setup_walls, "s"))
    print(describe("import.seirvax_ms", [1e3 * v for v in imports], "ms"))
    print(describe("pass_s", pass_walls, "s"))
    print(describe("pass_ref", pass_refs, "slices"))
    print(describe("slice_ms", [1e3 * v for v in slice_walls], "ms"))
    print(describe(f"op_ms ({wl.op})", [1e3 * w for w in op_walls], "ms"))
    for name, (value, unit) in figures.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"peak_rss_mb: {rss / 1024.0:.6g} MB")
    print(f"failed_frac: {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for msg in failures[:20]:
        print(f"FAILED {msg}")

    if traced:
        metrics = {name: (float(np.median([row[name][0] for row in layer_rows])), unit)
                   for name, (_, unit) in layer_rows[0].items()}
        metrics.update(layers.ladder_metrics(getattr(wl, "ladder", None)))
        metrics["import.seirvax_ms"] = (1e3 * statistics.median(imports), "ms")
        # each traced pass replays the inputs of an untraced one
        untraced_walls = {k: res.wall for k, res in timed}
        overhead = statistics.median(wall / untraced_walls[k] for k, wall in trace_walls) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        print(f"tracing overhead: {100.0 * overhead:+.3f}% (median over "
              f"{len(trace_walls)} pairs of a traced and an untraced pass "
              "on the same inputs)")
        print("self time of the last traced pass (probe + workload):")
        for line in layers.self_time_table(all_records[-1]):
            print("  " + line)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env_record, "workload": args.workload,
            "passes": [to_json(recs, recs[0][1]) for recs in all_records]}))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (rss / 1024.0, "MB"),
                   "pass_ref": (statistics.median(pass_refs), "slices")}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite")
            metrics[name] = (0.0, unit)
    result_metrics = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    print("RESULT_DETAIL " + json.dumps({
        "env": env_record, "figures": {k: v[0] for k, v in figures.items()},
        "setup_s": setup, "setup_wall_s": setup_walls, "pass_s": pass_walls,
        "pass_ref": pass_refs, "slice_s": slice_walls, "attempted": attempted,
        "failed": len(failures)}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="seirvax benchmark runner")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "seirvax" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'seirvax'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        return setup_probe(args.setup_probe, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: benchmark could not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
