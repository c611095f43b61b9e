"""Per-layer tracing: wrappers, the layer probe and the per-layer metrics.

Layers are the modules of src/seirvax. A traced pass is the layer probe
followed by one workload pass, all inside spans. The probe is a small,
fixed call into every layer (the same on every workload), so a layer
the workload leaves idle reports the probe's cost rather than nothing.
On cli_quickstart the probe skips its small CLI session, because the
workload pass is itself the CLI session and the cli metrics describe it.

Metric rules:
  - calls, steps, busy times and the cli/svgplot/checks totals cover the
    whole traced pass; every other time is per call or per step;
  - laws.*, model.derivative_us are microbenchmarks inside the probe;
  - import.seirvax_ms comes from the fresh interpreters that time set-up;
  - accuracy-ladder metrics and equilibria.points_* describe the
    workload's own ladder and map, and read 0 on the other workloads.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    ImmuneFeedback,
    IntegratorConfig,
    Linearizing,
    ModelParams,
    OutputZeroing,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    check_identity_suite,
    derivative,
    integrate,
    integrate_normal,
    monitor_positivity,
    to_normal,
)
from seirvax.laws import compile_law

from spans import aggregate
from workloads import (ACCURACY_LAWS, CLI_COMMANDS, quiet_main, cli_argv,
                       cli_verdict, integrate_counters, integrate_span_name)

PROBE_PARAMS = ModelParams(N=1000.0, mu=0.05, omega=0.02, beta=0.9,
                           sigma=0.2, gamma=0.2)
# the constrained law's gate needs omega = 0 and a large mu
GATED_PARAMS = ModelParams(N=1000.0, mu=0.3, omega=0.0, beta=0.9,
                           sigma=0.2, gamma=0.2)
PROBE_STATE = SeirState(700.0, 200.0, 100.0, 0.0)
PROBE_LAWS = {
    "zero": (ZeroVax(), PROBE_PARAMS),
    "constant": (ConstantVax(0.3), PROBE_PARAMS),
    "susceptible_linear": (SusceptibleLinear(0.05), PROBE_PARAMS),
    "susceptible_plus_exposed": (SusceptiblePlusExposed(0.005), PROBE_PARAMS),
    "immune_feedback": (ImmuneFeedback(0.0, 0.07), PROBE_PARAMS),
    "constrained_immune_feedback": (ConstrainedImmuneFeedback(-0.05), GATED_PARAMS),
    "linearizing": (Linearizing(0.1, 0.05), PROBE_PARAMS),
    "output_zeroing": (OutputZeroing(), PROBE_PARAMS),
    "saturated": (Saturated(ImmuneFeedback(0.0, 0.07), 0.0, 1.0), PROBE_PARAMS),
}
EVAL_CALLS = 20_000
COMPILE_REPS = 50
DERIVATIVE_CALLS = 5_000
CHECKS = ("conservation", "positivity", "identity_suite", "asymptotics",
          "integral_limit")


def _file_bytes(result, args, kwargs) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install_wrappers(spans) -> None:
    """Wrap the names the CLI commands and equilibria.analyze look up."""
    cli = importlib.import_module("seirvax.cli")
    eq = importlib.import_module("seirvax.equilibria")
    for attr, name, counters in (
            ("load_scenario", "scenario.load_scenario", None),
            ("integrate", integrate_span_name, integrate_counters),
            ("run_checks", "cli.run_checks", None),
            ("write_trajectory_csv", "cli.write_trajectory_csv", _file_bytes),
            ("read_trajectory_csv", "cli.read_trajectory_csv", None),
            ("write_line_chart", "svgplot.write_line_chart", _file_bytes),
            ("analyze", "equilibria.analyze", None),
            ("endemic_equilibrium", "equilibria.endemic_equilibrium", None),
            ("integrate_zero_dynamics", "normal_form.integrate_zero_dynamics",
             lambda r, a, kw: {"steps": int(round((a[2].t_end - a[2].t0) / a[2].dt))}),
            ("monitor_conservation", "checks.conservation", None),
            ("monitor_positivity", "checks.positivity", None),
            ("check_identity_suite", "checks.identity_suite", None),
            ("check_asymptotics", "checks.asymptotics", None),
            ("check_integral_limit", "checks.integral_limit", None)):
        spans.wrap(cli, attr, name, counters)
    for attr in ("endemic_equilibrium", "eigenvalues", "hinf_ratio_sweep"):
        spans.wrap(eq, attr, f"equilibria.{attr}")


def run_probe(spans, probe_dir: Path, scenario: Path, with_cli: bool) -> tuple[int, list[str]]:
    """Call every layer once on small fixed inputs; (operations, failures)."""
    ops, failures = 0, []
    for name, (law, params) in PROBE_LAWS.items():
        with spans.span("laws.compile_law", calls=COMPILE_REPS):
            for _ in range(COMPILE_REPS):
                compile_law.__wrapped__(law, params)
        fn = compile_law(law, params)
        with spans.span(f"laws.eval.{name}", calls=EVAL_CALLS):
            for _ in range(EVAL_CALLS):
                fn(700.0, 200.0, 100.0, 0.0, 0.0)
    with spans.span("model.derivative", calls=DERIVATIVE_CALLS):
        for _ in range(DERIVATIVE_CALLS):
            derivative(PROBE_STATE, PROBE_PARAMS, 0.3)

    law = PROBE_LAWS["immune_feedback"][0]
    fixed = IntegratorConfig(t_end=50.0, dt=0.05, sampling_stride=1)
    traj = spans.call(integrate_span_name, integrate, PROBE_STATE, PROBE_PARAMS,
                      law, fixed, counters=integrate_counters)
    spans.call("checks.positivity", monitor_positivity, traj)
    ident = spans.call("checks.identity_suite", check_identity_suite, traj,
                       PROBE_PARAMS)
    spans.call("normal_form.integrate_normal", integrate_normal,
               to_normal(PROBE_STATE), PROBE_PARAMS, law, fixed,
               counters=lambda r, a, kw: {"steps": len(r) - 1})
    adaptive = IntegratorConfig(t_end=200.0, adaptive=True, sampling_stride=1)
    spans.call(integrate_span_name, integrate, PROBE_STATE, PROBE_PARAMS,
               ZeroVax(), adaptive, counters=integrate_counters)
    ops += 3
    if not ident.passed:
        failures.append(f"probe: identity suite failed (worst {ident.worst:.3g})")

    if with_cli:
        cli = importlib.import_module("seirvax.cli")
        argv = cli_argv(scenario, probe_dir, small=True)
        for command in CLI_COMMANDS:
            code, stdout = spans.call(f"cli.main.{command}", quiet_main, cli,
                                      argv[command])
            ops += 1
            problems = cli_verdict(command, code, stdout, probe_dir, rows=None)
            if problems:
                failures.append(f"probe {command}: " + "; ".join(problems))
    return ops, failures


def layer_metrics(records: list[list], workload_details: dict) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass (probe plus workload pass).

    Returns name -> (value, unit).
    """
    table = aggregate(records)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "counters": {}})

    def per(name, key, scale):
        r = row(name)
        n = r["counters"].get(key, 0) if key else r["calls"]
        return scale * r["total_s"] / n if n else 0.0

    m: dict[str, tuple] = {}
    m["scenario.load_ms"] = (per("scenario.load_scenario", None, 1e3), "ms")
    m["laws.compile_us"] = (per("laws.compile_law", "calls", 1e6), "us")
    for name in PROBE_LAWS:
        m[f"laws.eval_ns.{name}"] = (per(f"laws.eval.{name}", "calls", 1e9), "ns")
    m["model.derivative_us"] = (per("model.derivative", "calls", 1e6), "us")
    for kind, steps_name, per_step in (("rk4", "steps", "us_per_step"),
                                       ("dopri", "accepted_steps",
                                        "us_per_accepted_step")):
        r = row(f"integrate.{kind}")
        steps = r["counters"].get("steps", 0)
        m[f"integrate.{kind}.calls"] = (r["calls"], "count")
        m[f"integrate.{kind}.{steps_name}"] = (steps, "count")
        m[f"integrate.{kind}.busy_s"] = (r["self_s"], "s")
        m[f"integrate.{kind}.{per_step}"] = (
            1e6 * r["self_s"] / steps if steps else 0.0, "us")
    m["integrate.samples_recorded"] = (
        sum(row(f"integrate.{kind}")["counters"].get("samples", 0)
            for kind in ("rk4", "dopri")), "count")
    m["normal_form.integrate_normal.us_per_step"] = (
        per("normal_form.integrate_normal", "steps", 1e6), "us")
    m["normal_form.zero_dynamics.us_per_step"] = (
        per("normal_form.integrate_zero_dynamics", "steps", 1e6), "us")
    for check in CHECKS:
        r = row(f"checks.{check}")
        m[f"checks.{check}.calls"] = (r["calls"], "count")
        m[f"checks.{check}.ms"] = (1e3 * r["self_s"], "ms")
    csv = row("cli.write_trajectory_csv")
    m["cli.csv_write_ms"] = (1e3 * csv["total_s"], "ms")
    m["cli.csv_write_bytes"] = (csv["counters"].get("bytes", 0), "bytes")
    m["cli.csv_read_ms"] = (1e3 * row("cli.read_trajectory_csv")["total_s"], "ms")
    m["cli.run_checks_ms"] = (1e3 * row("cli.run_checks")["total_s"], "ms")
    for command in CLI_COMMANDS:
        m[f"cli.cmd_self_s.{command}"] = (per(f"cli.main.{command}", None, 1.0), "s")
    svg = row("svgplot.write_line_chart")
    m["svgplot.write_ms"] = (1e3 * svg["total_s"], "ms")
    m["svgplot.bytes"] = (svg["counters"].get("bytes", 0), "bytes")
    m["equilibria.analyze_ms"] = (per("equilibria.analyze", None, 1e3), "ms")
    m["equilibria.sweep_ms"] = (per("equilibria.hinf_ratio_sweep", None, 1e3), "ms")
    m["equilibria.eigenvalues_us"] = (per("equilibria.eigenvalues", None, 1e6), "us")
    m["equilibria.endemic_us"] = (per("equilibria.endemic_equilibrium", None, 1e6), "us")
    for key in ("points_endemic", "points_certified"):
        m[f"equilibria.{key}"] = (workload_details.get(key, 0), "count")
    return m


def ladder_metrics(ladder: dict | None) -> dict[str, tuple]:
    """The accuracy ladder's per-law figures; zeros where no ladder ran."""
    m: dict[str, tuple] = {}
    laws = (ladder or {}).get("laws", {})
    for law in ACCURACY_LAWS:
        fixed = laws.get(law, {}).get("fixed", {})
        adaptive = laws.get(law, {}).get("adaptive", {})
        m[f"integrate.rk4.steps_to_tol.{law}"] = (fixed.get("steps_to_tol", 0), "count")
        m[f"integrate.rk4.err_at_tol.{law}"] = (fixed.get("err_at_tol", 0.0), "individuals")
        m[f"integrate.rk4.order.{law}"] = (fixed.get("order", 0.0), "log2")
        m[f"integrate.dopri.steps_to_tol.{law}"] = (adaptive.get("steps_to_tol", 0), "count")
        m[f"integrate.dopri.rtol_to_tol.{law}"] = (adaptive.get("accepted") or 0.0, "rel_tol")
    return m


def self_time_table(records: list[list]) -> list[str]:
    """Human-readable self-time table of one traced pass, largest first."""
    table = aggregate(records)
    root = sum(end - start for name, start, end, parent, _ in records if parent < 0)
    lines = [f"{'span':<42}{'calls':>8}{'total ms':>11}{'self ms':>11}{'self %':>8}"]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * r["self_s"] / root if root else 0.0
        lines.append(f"{name:<42}{r['calls']:>8}{1e3 * r['total_s']:>11.3f}"
                     f"{1e3 * r['self_s']:>11.3f}{share:>8.2f}")
    return lines

