"""Command-line front end: scenario runs, equilibria reports, zero dynamics.

Subcommands:
    simulate <scenario>     integrate the scenario, emit CSV/SVG/report,
                            run the requested checks
    equilibria [flags]      equilibrium points, spectra and the frequency
                            sweep for given parameters
    zerodyn [flags]         integrate the zero dynamics, emit CSV and the
                            conservation/boundedness verdicts
    verify <csv> <scenario> replay the checks against a stored trajectory

Exit codes: 0 all checks pass, 1 input/usage error, 2 verification failure.

`run` is the entry of a process (the `seirvax` script and `python -m
seirvax.cli`); `main` runs a command in a process that goes on (tests,
perfbench's traced replay). A command process lives for its command
alone, so `run` turns the cyclic collector off before the command imports
a layer, and freezes what is left before the process exits, which spares
the interpreter's final collection of the objects numpy and seirvax keep.
Nothing the process needs waits on a collection: files are closed where
they are written, and `atexit` still runs. `main` leaves the collector as
it found it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import os
import sys
from array import array
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import _MODULE_OF, __version__
from .exceptions import NonFiniteStateError, ScenarioError

if TYPE_CHECKING:
    import numpy as np

# The module of each name the commands call from another layer: the
# package's exports, and two it does not export. A function binds the
# names it calls with `_bind` first, so a process imports only the layers
# its command runs; `getattr` on this module binds a name too. A bound
# name is left as it is, so a replacement set on this module from outside
# (perfbench/layers.py wraps the commands' calls by name) is what the
# commands call.
_LAYER_OF = {**_MODULE_OF, "load_scenario": "scenario",
             "write_line_chart": "svgplot"}


def _bind(*names: str) -> None:
    scope = globals()
    for name in names:
        if name not in scope:
            layer = importlib.import_module(f".{_LAYER_OF[name]}", __package__)
            scope[name] = getattr(layer, name)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


CSV_HEADER = "t,S,E,I,R,V,u"
ZERODYN_HEADER = "t,z2,z3,z4,sum"

_USAGE_ERROR = 1
_CHECK_FAILURE = 2

# Rows per format operation when writing a CSV: the memory of a write is
# that of one block, whatever the length of the table.
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str | Path, header: str,
               cols: tuple[np.ndarray | array, ...]) -> None:
    """Write columns (numpy arrays or `array('d')`s) under a header with
    shortest round-trip decimals.

    Each value is written as Python's `repr` of the float, which reads
    back bitwise; one format operation writes each block of
    `_CSV_BLOCK_ROWS` rows, so the cost is that of the `repr`s themselves.
    """
    block = ",".join(["%r"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            values = tuple(chain.from_iterable(zip(
                *[col[start:start + _CSV_BLOCK_ROWS].tolist() for col in cols])))
            fh.write(block * (len(values) // len(cols)) % values)


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write samples with shortest round-trip decimal formatting."""
    _write_csv(path, CSV_HEADER,
               (traj.t, traj.S, traj.E, traj.I, traj.R, traj.V, traj.u))


def _parse_rows(lines) -> np.ndarray:
    """The rows below the header, line by line, each value by `float`;
    refuses the first malformed line by its number."""
    import numpy as np
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ScenarioError(f"CSV line {lineno}: expected 7 fields")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ScenarioError(f"CSV line {lineno}: {exc}") from exc
    return np.asarray(rows, dtype=float)


def read_trajectory_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV; the header must match exactly.

    numpy's reader parses the open file in one pass and reads shortest
    round-trip decimals back bitwise; where it refuses a row (it accepts
    a subset of what `float` does), the file is read again and the rows
    are parsed one by one, which accepts what `float` accepts and names
    the first malformed line. Blank lines are skipped.
    """
    import numpy as np
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ScenarioError(
                f"CSV header mismatch: expected {CSV_HEADER!r}, got {header!r}")
        start = fh.tell()
        if not any(line.strip() for line in iter(fh.readline, "")):
            raise ScenarioError("CSV contains no samples")
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != 7:
            fh.seek(start)
            data = _parse_rows(fh)
    names = CSV_HEADER.split(",")
    return {name: data[:, k] for k, name in enumerate(names)}


# Check name -> call(traj, scenario, **options). Only the options the
# scenario sets are passed, so each default lives in the check function;
# the check functions are looked up here at call time.
_CHECK_CALLS = {
    "conservation": lambda traj, sc: monitor_conservation(traj),
    "positivity": lambda traj, sc, **opts: monitor_positivity(traj, **opts),
    "identities": lambda traj, sc: check_identity_suite(traj, sc.params),
    "asymptotics": lambda traj, sc, **opts: check_asymptotics(
        traj, predicted_limits(sc.law, sc.params), **opts),
    "integral_limit": lambda traj, sc, **opts: check_integral_limit(
        traj, **opts),
}


def run_checks(traj: Trajectory, scenario: Scenario) -> VerificationReport:
    """Run the scenario's requested checks against a trajectory."""
    _bind("VerificationReport", "monitor_conservation", "monitor_positivity",
          "check_identity_suite", "check_asymptotics", "predicted_limits",
          "check_integral_limit")
    return VerificationReport(checks=tuple(
        _CHECK_CALLS[name](traj, scenario, **opts)
        for name, opts in scenario.checks.items()))


def _scheme(config: IntegratorConfig) -> str:
    """How a run stepped, as the report's window line names it."""
    if not config.adaptive:
        return f"dt={config.dt:g}"
    return (f"adaptive rel_tol={config.rel_tol:g} abs_tol={config.abs_tol:g}"
            + (" dense" if config.dense else ""))


def _report_text(scenario: Scenario, traj: Trajectory,
                 report: VerificationReport,
                 advisories: list[str]) -> str:
    p = scenario.params
    lines = [
        f"seirvax {__version__} simulation report",
        f"law: {traj.law.label}",
        f"params: N={p.N:g} mu={p.mu:g} omega={p.omega:g} beta={p.beta:g} "
        f"sigma={p.sigma:g} gamma={p.gamma:g}",
        f"window: t0={traj.config.t0:g} t_end={traj.config.t_end:g} "
        f"{_scheme(traj.config)} samples={len(traj)}",
        f"final state: S={float(traj.S[-1])!r} E={float(traj.E[-1])!r} "
        f"I={float(traj.I[-1])!r} R={float(traj.R[-1])!r}",
    ]
    for msg in advisories:
        lines.append(f"warning: {msg}")
    lines.extend(report.lines())
    lines.append("overall: " + ("PASS" if report.all_passed else "FAIL"))
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    _bind("load_scenario", "check_assumption1", "integrate", "write_line_chart")
    scenario = load_scenario(args.scenario)
    config = scenario.config
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if overrides:
        config = dataclasses.replace(config, **overrides)
        scenario = dataclasses.replace(scenario, config=config)

    advisories = [f"gain condition not met: {c.name}"
                  for c in scenario.law.gain_checks(scenario.params)
                  if not c.required and not c.holds]
    advisories += [f"Assumption 1 not met: {clause}" for clause in
                   check_assumption1(scenario.initial, scenario.params)]

    traj = integrate(scenario.initial, scenario.params, scenario.law, config)
    report = run_checks(traj, scenario)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in scenario.outputs:
        write_trajectory_csv(out_dir / scenario.outputs["csv"], traj)
    if "svg" in scenario.outputs:
        write_line_chart(
            out_dir / scenario.outputs["svg"], traj.t,
            {"S": traj.S, "E": traj.E, "I": traj.I, "R": traj.R},
            secondary={"V": traj.V},
            title=f"SEIR under {traj.law.label}")
    text = _report_text(scenario, traj, report, advisories)
    if "report" in scenario.outputs:
        (out_dir / scenario.outputs["report"]).write_text(text + "\n")
    print(text)
    return 0 if report.all_passed else _CHECK_FAILURE


def _params_from_args(args: argparse.Namespace) -> ModelParams:
    _bind("ModelParams")
    return ModelParams(N=args.N, mu=args.mu, omega=args.omega,
                       beta=args.beta, sigma=args.sigma, gamma=args.gamma)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.9g}{z.imag:+.9g}j"


def cmd_equilibria(args: argparse.Namespace) -> int:
    _bind("analyze")
    params = _params_from_args(args)
    reports = analyze(params, sweep=not args.no_sweep)
    payload: dict = {"params": dataclasses.asdict(params), "equilibria": []}
    lines = [f"seirvax {__version__} equilibrium report",
             f"params: N={params.N:g} mu={params.mu:g} omega={params.omega:g} "
             f"beta={params.beta:g} sigma={params.sigma:g} gamma={params.gamma:g}"]
    for rep in reports:
        st = rep.point.state
        lines.append(f"{rep.point.kind}: S={st.S:.6f} E={st.E:.6f} "
                     f"I={st.I:.6f} R={st.R:.6f} (residual {rep.point.residual:.3e})")
        if rep.closed_form_zeros is not None:
            lines.append("  closed-form zeros: "
                         + ", ".join(f"{z:.9g}" for z in rep.closed_form_zeros))
        lines.append("  numeric spectrum:  "
                     + ", ".join(_fmt_complex(z) for z in rep.spectrum))
        lines.append(f"  locally stable: {'yes' if rep.locally_stable else 'no'}")
        if rep.point.feasibility_a11 is not None:
            lines.append("  feasibility condition: "
                         + ("holds" if rep.point.feasibility_a11 else "violated"))
        if rep.hinf_ratio is not None:
            lines.append(f"  frequency sweep: max ratio {rep.hinf_ratio:.6g}, "
                         f"threshold 1/beta = {1.0 / params.beta:.6g}, "
                         "condition "
                         + ("holds" if rep.hinf_condition_holds else "fails"))
        payload["equilibria"].append({
            "kind": rep.point.kind,
            "state": dataclasses.asdict(st),
            "residual": rep.point.residual,
            "closed_form_zeros": rep.closed_form_zeros,
            "spectrum": [[z.real, z.imag] for z in rep.spectrum],
            "locally_stable": rep.locally_stable,
            "feasibility_a11": rep.point.feasibility_a11,
            "hinf_ratio": rep.hinf_ratio,
            "hinf_condition_holds": rep.hinf_condition_holds,
        })
    payload["endemic_exists"] = len(reports) > 1
    if not payload["endemic_exists"]:
        lines.append("no endemic equilibrium for these parameters")

    print("\n".join(lines))
    if args.json:
        import json
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_zerodyn(args: argparse.Namespace) -> int:
    _bind("IntegratorConfig", "integrate_zero_dynamics", "CONSERVATION_RTOL",
          "Check", "VerificationReport")
    params = _params_from_args(args)
    z0 = (args.z2, args.z3, args.z4)
    # the adaptive pair's dense output on the fixed grid's sample times,
    # at the library's default tolerances
    config = IntegratorConfig(t_end=args.t_end, dt=args.dt,
                              sampling_stride=args.stride, adaptive=True,
                              dense=True)
    traj = integrate_zero_dynamics(z0, params, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / args.csv
    # The record's columns in plain floats, with no numpy: each sum adds
    # as numpy's z2 + z3 + z4 does, (z2 + z3) + z4.
    t, z2, z3, z4 = (traj.values(name) for name in ("t", "z2", "z3", "z4"))
    total = array("d", [a + b + c for a, b, c in zip(z2, z3, z4)])
    _write_csv(csv_path, ZERODYN_HEADER, (t, z2, z3, z4, total))

    c0 = total[0]
    eps = CONSERVATION_RTOL * c0 if c0 > 0.0 else CONSERVATION_RTOL
    # the samples are finite: the integrator refuses a non-finite state
    lo = min(min(z2), min(z3), min(z4))
    hi = max(max(z2), max(z3), max(z4))
    report = VerificationReport(checks=(
        Check("sum conservation", max(abs(s - c0) for s in total), eps),
        Check("boundedness in [0, C]", max(0.0, -lo, hi - c0), eps)))
    print(f"zero dynamics from (z2, z3, z4) = {z0}, sum C = {c0:g}")
    print(f"scheme: {_scheme(config)}, samples={len(traj)}")
    print("\n".join(report.lines()))
    print(f"wrote {csv_path}")
    return 0 if report.all_passed else _CHECK_FAILURE


def cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np
    _bind("load_scenario", "Trajectory")
    scenario = load_scenario(args.scenario)
    data = read_trajectory_csv(args.csv)
    if not np.all(np.diff(data["t"]) > 0.0):
        raise ScenarioError("CSV time column must be strictly increasing")
    u = data.pop("u")
    traj = Trajectory.from_columns(scenario.params, scenario.law,
                                   scenario.config, **data)
    report = run_checks(traj, scenario)
    # u is derived from S, E, R and V: a tampered state column is the
    # checks' to report, a u that disagrees with the rest is bad input.
    if report.all_passed:
        bad = np.flatnonzero(u != traj.u)
        if bad.size:
            raise ScenarioError("CSV u column disagrees with omega*R - sigma*E"
                                f" - mu*N*V at t = {float(traj.t[bad[0]])!r}")
    print("\n".join(report.lines()))
    print("overall: " + ("PASS" if report.all_passed else "FAIL"))
    return 0 if report.all_passed else _CHECK_FAILURE


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--N", type=float, default=1000.0, help="total population")
    sub.add_argument("--mu", type=float, default=0.01, help="death/birth rate")
    sub.add_argument("--omega", type=float, default=0.02,
                     help="immunity loss rate")
    sub.add_argument("--beta", type=float, default=0.9,
                     help="transmission constant")
    sub.add_argument("--sigma", type=float, default=0.2,
                     help="inverse latent period")
    sub.add_argument("--gamma", type=float, default=0.2,
                     help="inverse infective period")


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: main's one `error:` line, exit 1."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seirvax",
        description="SEIR epidemic simulation under feedback vaccination control")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario", help="path to the scenario file")
    sim.add_argument("--out-dir", default=".", help="directory for artifacts")
    sim.add_argument("--dt", type=float, default=None,
                     help="override the scenario dt: the fixed step, or "
                          "the adaptive first trial step and dense spacing")
    sim.add_argument("--t-end", type=float, default=None,
                     help="override the scenario end time")
    sim.set_defaults(fn=cmd_simulate)

    eq = subs.add_parser("equilibria", help="equilibrium and stability report")
    _add_param_flags(eq)
    eq.add_argument("--no-sweep", action="store_true",
                    help="skip the frequency sweep")
    eq.add_argument("--json", default=None,
                    help="also write a machine-readable report")
    eq.set_defaults(fn=cmd_equilibria)

    zd = subs.add_parser("zerodyn", help="integrate the zero dynamics")
    _add_param_flags(zd)
    zd.add_argument("--z2", type=float, required=True)
    zd.add_argument("--z3", type=float, required=True)
    zd.add_argument("--z4", type=float, required=True)
    zd.add_argument("--t-end", type=float, default=1000.0)
    zd.add_argument("--dt", type=float, default=1e-2,
                    help="spacing of the dense output grid, which must "
                         "divide t_end; also the adaptive first trial step")
    zd.add_argument("--stride", type=int, default=100,
                    help="write every stride-th grid time (and t_end)")
    zd.add_argument("--out-dir", default=".")
    zd.add_argument("--csv", default="zerodyn.csv")
    zd.set_defaults(fn=cmd_zerodyn)

    ver = subs.add_parser("verify", help="replay checks on a stored trajectory")
    ver.add_argument("csv", help="trajectory CSV path")
    ver.add_argument("scenario", help="scenario file describing the run")
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command in this process and return its exit code; the
    in-process entry, which leaves the cyclic collector as it found it."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, NonFiniteStateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def run(argv: list[str] | None = None) -> int:
    """Run one command as the whole life of a process; the entry of the
    `seirvax` script and of `python -m seirvax.cli`.

    The cyclic collector is off from before the command imports a layer,
    and every object left is frozen on return, so the interpreter's final
    collection skips them: the process exits right after. stdout is
    flushed here, so a reader that closed the pipe ends the process with
    exit 1 and one `error:` line; stdout then points at the null device,
    which the interpreter's own flush at exit writes to.
    """
    gc.disable()
    try:
        code = main(argv)
    except SystemExit as exc:   # --help and --version
        code = exc.code
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if code != _USAGE_ERROR:   # else main printed the one line
            print(f"error: {exc}", file=sys.stderr)
            code = _USAGE_ERROR
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
