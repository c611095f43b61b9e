"""The four benchmark workloads: inputs from the seed, one pass, verdicts.

Every workload is a closed loop with one client: each call into seirvax
waits for the previous one. A pass is the workload's unit of work; its
operations are timed one by one around the program's calls only, and
every operation is checked against an expected verdict afterwards.
Before an operation's timer starts, `speed.tick()` may time the
reference slice of speed.py.

    cli_quickstart  the README's four "Try the shipped example" commands,
                    each a fresh `python -m seirvax.cli` process; the only
                    workload paying interpreter start and `import seirvax`
                    per call, and the only one writing and reading files.
    ensemble        40 random catalogue draws (the generator of acceptance
                    criteria 1 and 2, every second draw saturated to
                    [0, 1]), each integrated and checked; per-run overhead
                    and per-law evaluation cost add up here.
    accuracy        time to a stated accuracy against the continuous
                    closed loop; the only workload running the adaptive
                    integrator, and the only one where a faster but less
                    accurate change shows as worse.
    stability_map   equilibria.analyze with the frequency sweep over 648
                    parameter points; the only workload measuring the
                    equilibria layer, with no integrator running.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    HorizonError,
    ImmuneFeedback,
    IntegratorConfig,
    Linearizing,
    ModelParams,
    PredictionError,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    analyze,
    check_asymptotics,
    check_identity_suite,
    integrate,
    integrate_normal,
    monitor_conservation,
    monitor_positivity,
    predicted_limits,
    to_normal,
)
from seirvax.scenario import load_scenario

SHIPPED_SCENARIO = Path("scenarios") / "full_immunization.ini"

# accuracy: the target is a maximum deviation of 1e-3*N from the continuous
# closed loop over every sample on [0, ACCURACY_T_END]. With N = 1000 that
# is one individual. It exposes the zero-order hold of V, so it stays put.
ACCURACY_TARGET_FRAC = 1e-3
ACCURACY_T_END = 100.0
ACCURACY_LAWS = {
    "immune_feedback": ImmuneFeedback(0.0, 0.03),
    "susceptible_linear": SusceptibleLinear(0.05),
    "susceptible_plus_exposed": SusceptiblePlusExposed(0.005),
    "zero": ZeroVax(),
}
ACCURACY_MODES = ("fixed", "adaptive")

ENSEMBLE_DRAWS = 40
ENSEMBLE_CONFIG = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=1)
IMMUNE_FAMILY = (ImmuneFeedback, ConstrainedImmuneFeedback, Linearizing)
ASYMPTOTICS_TAIL = 0.1
ASYMPTOTICS_RTOL = 1e-3

CLI_COMMANDS = ("simulate", "equilibria", "zerodyn", "verify")
CSV_HEADER = "t,S,E,I,R,V,u"
CSV_ROWS = 12001   # t_end 1200, dt 0.01, stride 10, plus the initial sample


@dataclass
class PassResult:
    """One pass: per-operation walls (seconds) and failure messages."""

    op_names: list[str] = field(default_factory=list)
    op_walls: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.op_walls)

    def add(self, name: str, wall: float, problems: list[str]) -> None:
        """Record one operation; it fails, once, if it has any problem."""
        self.op_names.append(name)
        self.op_walls.append(wall)
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))


def integrate_span_name(args, kwargs) -> str:
    config = args[3] if len(args) > 3 else kwargs["config"]
    return "integrate.dopri" if config.adaptive else "integrate.rk4"


def integrate_counters(traj, args, kwargs) -> dict:
    config = args[3] if len(args) > 3 else kwargs["config"]
    if config.adaptive:
        steps = (len(traj) - 1) * config.sampling_stride
    else:
        steps = max(1, int(round((config.t_end - config.t0) / config.dt)))
    return {"steps": steps, "samples": len(traj)}


def quiet_main(cli, argv: list[str]) -> tuple[int, str]:
    """seirvax.cli.main in-process, returning (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- cli_quickstart -------------------------------------------------------

def cli_argv(scenario: Path, out: Path, small: bool = False) -> dict[str, list[str]]:
    """The README quickstart commands; `small` is the layer probe's short form."""
    simulate = ["simulate", str(scenario), "--out-dir", str(out)]
    zerodyn = ["zerodyn", "--z2", "300", "--z3", "400", "--z4", "300",
               "--t-end", "1000", "--out-dir", str(out)]
    if small:
        simulate += ["--dt", "0.5"]
        zerodyn = zerodyn[:-4] + ["--t-end", "100", "--dt", "0.1",
                                  "--out-dir", str(out)]
    return {
        "simulate": simulate,
        "equilibria": ["equilibria", "--beta", "0.25", "--json",
                       str(out / "eq.json")],
        "zerodyn": zerodyn,
        "verify": ["verify", str(out / "full_immunization.csv"), str(scenario)],
    }


def cli_verdict(command: str, code: int, stdout: str, out: Path,
                rows: int | None = CSV_ROWS) -> list[str]:
    """Problems with one quickstart command's outcome (empty when correct)."""
    if code != 0:
        return [f"exit code {code}"]
    if command == "simulate":
        with open(out / "full_immunization.csv") as fh:
            header = fh.readline().rstrip("\n")
            n = sum(1 for _ in fh)
        problems = [] if header == CSV_HEADER else [f"CSV header {header!r}"]
        if rows is not None and n != rows:
            problems.append(f"CSV has {n} rows, expected {rows}")
        return problems
    if command == "equilibria":
        payload = json.loads((out / "eq.json").read_text())
        kinds = sorted(e["kind"] for e in payload["equilibria"])
        return [] if kinds == ["disease_free", "endemic"] else [f"points {kinds}"]
    if command == "zerodyn":
        wanted = ("PASS  sum conservation", "PASS  boundedness")
        return [f"missing {w!r}" for w in wanted if w not in stdout]
    return [] if "overall: PASS" in stdout else ["verify did not print overall: PASS"]


class CliQuickstart:
    name = "cli_quickstart"
    op = "command"

    def __init__(self, root: Path, tmp: Path, seed: int, env: dict) -> None:
        self.env = env
        self.scenario = tmp / "full_immunization.ini"
        shutil.copyfile(root / SHIPPED_SCENARIO, self.scenario)
        self.out = tmp / "out"
        self.argv = cli_argv(self.scenario, self.out)
        self.in_process = False
        self.cli = importlib.import_module("seirvax.cli")

    def prepare(self) -> tuple[int, list[str]]:
        return 0, []

    def run_pass(self, k: int, spans, speed) -> PassResult:
        res = PassResult()
        for command in CLI_COMMANDS:
            argv = self.argv[command]
            speed.tick()
            t0 = time.perf_counter()
            if self.in_process:
                code, stdout = spans.call(f"cli.main.{command}", quiet_main,
                                          self.cli, argv)
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "seirvax.cli", *argv],
                    env=self.env, cwd=self.out.parent, capture_output=True,
                    text=True, timeout=120)
                code, stdout = proc.returncode, proc.stdout
            wall = time.perf_counter() - t0
            res.add(command, wall, cli_verdict(command, code, stdout, self.out))
        return res

    @staticmethod
    def figures(passes: list[PassResult]) -> dict:
        walls = {c: [p.op_walls[p.op_names.index(c)] for p in passes]
                 for c in CLI_COMMANDS}
        figs = {"session_s": (median([p.wall for p in passes]), "s"),
                "simulate_s": (median(walls["simulate"]), "s")}
        for c in CLI_COMMANDS[1:]:
            figs[f"{c}_s"] = (median(walls[c]), "s")
        return figs


# -- ensemble -------------------------------------------------------------

def random_scenario(rng: np.random.Generator):
    """(params, initial, law), the catalogue generator of acceptance criteria 1-2."""
    params = ModelParams(
        N=1000.0,
        mu=float(rng.uniform(0.005, 0.05)),
        omega=float(rng.uniform(0.0, 0.05)),
        beta=float(rng.uniform(0.1, 1.2)),
        sigma=float(rng.uniform(0.05, 0.4)),
        gamma=float(rng.uniform(0.05, 0.4)),
    )
    kind = rng.integers(0, 7)
    if kind == 0:
        law = ZeroVax()
    elif kind == 1:
        law = ConstantVax(float(rng.uniform(0.0, 1.0)))
    elif kind == 2:
        law = SusceptibleLinear(float(rng.uniform(0.0, 0.5)))
    elif kind == 3:
        law = SusceptiblePlusExposed(float(rng.uniform(0.0, 0.5)))
    elif kind == 4:
        g = float(rng.uniform(-0.9 * (params.mu + params.omega), 0.3))
        law = ImmuneFeedback(g, float(rng.uniform(0.0, 0.3)))
    elif kind == 5:
        g = -float(rng.uniform(0.01, 0.1))
        gamma = float(rng.uniform(0.05, 0.3))
        params = dataclasses.replace(
            params, omega=0.0, gamma=gamma,
            mu=abs(g) + max(gamma, abs(g)) + float(rng.uniform(0.01, 0.1)))
        law = ConstrainedImmuneFeedback(g)
    else:
        law = Linearizing(float(rng.uniform(0.005, 0.3)),
                          float(rng.uniform(0.0, 0.3)))
    initial = SeirState(*map(float, rng.dirichlet((1.0, 1.0, 1.0, 1.0)) * params.N))
    return params, initial, law


def ensemble_batch(seed: int, k: int) -> list[tuple]:
    """Pass k's 40 draws; every second one is saturated to [0, 1]."""
    rng = np.random.default_rng([seed, k])
    batch = []
    for i in range(ENSEMBLE_DRAWS):
        params, initial, law = random_scenario(rng)
        if i % 2 == 1:
            law = Saturated(law, 0.0, 1.0)
        batch.append((params, initial, law))
    return batch


def asymptotics_judged(law, params: ModelParams, prediction) -> bool:
    """Whether the horizon is long enough for the asymptotic limits to hold.

    check_asymptotics admits a horizon once the law's decay rate covers
    ten time constants. That is not enough where another mode is slower
    or a limit is small: under susceptible_linear E and I must vanish
    too, and they decay no faster than mu+sigma and mu+gamma; a limit of
    a few individuals needs a deviation of up to N to shrink below
    rel_tol times that limit. Here the horizon is long enough when a
    deviation of N, decaying at the slowest of these rates, is below a
    tenth of the tolerance on the smallest predicted population by the
    start of the tail window.
    """
    rate = prediction.decay_rate
    if isinstance(law, SusceptibleLinear):
        rate = min(rate, params.mu + params.sigma, params.mu + params.gamma)
    limits = [getattr(prediction, f) for f in (
        "s_inf", "e_inf", "i_inf", "r_inf", "s_plus_e_inf", "i_plus_r_inf",
        "s_plus_e_plus_i_inf")]
    smallest = min(abs(v) or params.N for v in limits if v is not None)
    t_tail = (1.0 - ASYMPTOTICS_TAIL) * (ENSEMBLE_CONFIG.t_end - ENSEMBLE_CONFIG.t0)
    return params.N * math.exp(-rate * t_tail) <= 0.1 * ASYMPTOTICS_RTOL * smallest


def identity_judged(traj) -> bool:
    """Whether the states stay on the scale the identity tolerance assumes.

    The tolerance is 1e-3*N*(3*rates)^3*dt^2, an absolute bound sized for
    states of order N. Unsaturated draws with random gains can leave the
    simplex by many times N (one drew I = 32 N), where the truncation
    error grows with the state and the bound no longer applies.
    """
    return float(np.max(np.abs(traj.states()))) <= 2.0 * traj.params.N


def extrapolated_identity_residual(initial, params: ModelParams, law,
                                   ident) -> float:
    """The identity suite's worst residual with the h^2 truncation removed.

    The suite compares central differences with right-hand sides, so on a
    correct trajectory its residual is the difference's truncation,
    h^2/6 times a third derivative. Its tolerance 1e-3*N*(3*rates)^3*dt^2
    is a heuristic meant to dominate that, and it does not always: a draw
    with a large, fast-moving I can exceed it at the first interior sample
    (one reached 1.12 times the tolerance at t = dt), and for constrained
    immune feedback it counts g but not the implied g1 = mu+omega+g. So
    where the suite fails, the draw is integrated again at dt/2 and the
    h^2 term is removed by Richardson extrapolation,
    (4*worst(dt/2) - worst(dt))/3. Truncation leaves almost nothing (the
    worst residual falls fourfold per halving); an error of the
    integrator does not shrink with dt and is left whole. The rerun stops
    a day past the worst sample, so its samples do not raise the
    process's peak memory, which the benchmark reports.
    """
    t_end = min(ENSEMBLE_CONFIG.t_end, ident.location_t + 1.0)
    half = dataclasses.replace(ENSEMBLE_CONFIG, t_end=t_end,
                               dt=ENSEMBLE_CONFIG.dt / 2)
    finer = check_identity_suite(integrate(initial, params, law, half), params)
    return abs(4.0 * finer.worst - ident.worst) / 3.0


def draw_verdict(initial, params, law, traj, checks, replay, counts) -> list[str]:
    """Problems with one ensemble draw; counts the verdicts judged otherwise."""
    cons, pos, ident, asym, prediction = checks
    problems = []
    if not cons.passed:
        problems.append(f"conservation failed (worst {cons.worst:.3g})")
    if isinstance(law, Saturated) and not pos.passed:
        problems.append(f"positivity failed (worst {pos.worst:.3g})")
    if not identity_judged(traj):
        counts["unjudged.identity_off_scale"] += 1
        counts["unjudged.identity_off_scale_failed"] += not ident.passed
    elif not ident.passed:
        counts["identity_extrapolated"] += 1
        residual = extrapolated_identity_residual(initial, params, law, ident)
        if not residual <= ident.tolerance:
            problems.append(f"identity suite failed (worst {ident.worst:.3g}, "
                            f"{residual:.3g} without truncation, "
                            f"tol {ident.tolerance:.3g})")
    if asym is not None:
        if asymptotics_judged(law, params, prediction):
            if not asym.passed:
                problems.append(f"asymptotics failed (worst {asym.worst:.3g})")
        else:
            counts["unjudged.asymptotics_short_horizon"] += 1
            counts["unjudged.asymptotics_short_horizon_failed"] += not asym.passed
    if replay is not None:
        dev = max(float(np.max(np.abs(replay.z1 - traj.R))),
                  float(np.max(np.abs(replay.z2 - (traj.S + traj.R)))),
                  float(np.max(np.abs(replay.z3 - traj.E))),
                  float(np.max(np.abs(replay.z4 - traj.I))))
        if not dev <= 1e-6 * params.N:
            problems.append(f"normal-form replay deviates by {dev:.3g}")
    return problems


VERDICT_COUNTS = ("identity_extrapolated", "unjudged.identity_off_scale",
                  "unjudged.identity_off_scale_failed",
                  "unjudged.asymptotics_short_horizon",
                  "unjudged.asymptotics_short_horizon_failed")


class Ensemble:
    name = "ensemble"
    op = "draw"

    def __init__(self, root: Path, tmp: Path, seed: int, env: dict) -> None:
        self.seed = seed
        self.first = ensemble_batch(seed, 0)

    def prepare(self) -> tuple[int, list[str]]:
        return 0, []

    def run_pass(self, k: int, spans, speed) -> PassResult:
        res = PassResult()
        counts = collections.Counter()
        batch = self.first if k == 0 else ensemble_batch(self.seed, k)
        for params, initial, law in batch:
            saturated = isinstance(law, Saturated)
            asym = prediction = replay = None
            speed.tick()
            t0 = time.perf_counter()
            try:
                traj = spans.call(integrate_span_name, integrate, initial,
                                  params, law, ENSEMBLE_CONFIG,
                                  counters=integrate_counters)
                cons = spans.call("checks.conservation", monitor_conservation, traj)
                pos = spans.call("checks.positivity", monitor_positivity, traj)
                ident = spans.call("checks.identity_suite", check_identity_suite,
                                   traj, params)
                if not saturated:
                    try:
                        prediction = predicted_limits(law, params)
                        asym = spans.call("checks.asymptotics", check_asymptotics,
                                          traj, prediction,
                                          tail_fraction=ASYMPTOTICS_TAIL,
                                          rel_tol=ASYMPTOTICS_RTOL)
                    except (PredictionError, HorizonError):
                        asym = None
                    if isinstance(law, IMMUNE_FAMILY):
                        replay = spans.call(
                            "normal_form.integrate_normal", integrate_normal,
                            to_normal(initial), params, law, ENSEMBLE_CONFIG,
                            counters=lambda r, a, kw: {"steps": len(r) - 1})
            except Exception as exc:   # any exception is a failed draw
                res.add("draw", time.perf_counter() - t0,
                        [f"{type(exc).__name__}: {exc}"])
                continue
            wall = time.perf_counter() - t0
            problems = draw_verdict(initial, params, law, traj,
                                    (cons, pos, ident, asym, prediction),
                                    replay, counts)
            res.add(f"draw[{law!r}]" if problems else "draw", wall, problems)
        res.details = {key: counts[key] for key in VERDICT_COUNTS}
        return res

    @staticmethod
    def figures(passes: list[PassResult]) -> dict:
        walls = [w for p in passes for w in p.op_walls]
        p_tail, tail = tail_percentile(walls)
        figs = {"scenarios_per_s": (len(walls) / sum(walls), "1/s"),
                "scenario_p50_ms": (1e3 * median(walls), "ms"),
                "scenario_tail_ms": (1e3 * tail, "ms"),
                "scenario_tail_percentile": (p_tail, "%")}
        for key in VERDICT_COUNTS:
            figs[key] = (sum(p.details[key] for p in passes), "count")
        return figs


# -- accuracy -------------------------------------------------------------

def accuracy_config(mode: str, rung: float) -> IntegratorConfig:
    if mode == "fixed":
        return IntegratorConfig(t_end=ACCURACY_T_END, dt=rung, sampling_stride=1)
    return IntegratorConfig(t_end=ACCURACY_T_END, adaptive=True, rel_tol=rung,
                            sampling_stride=1)


def accuracy_inputs(root: Path):
    """Shipped scenario's parameters and initial state, and the four laws."""
    scenario = load_scenario(root / SHIPPED_SCENARIO)
    return scenario.params, scenario.initial, ACCURACY_LAWS


class Accuracy:
    name = "accuracy"
    op = "accepted-rung run"

    def __init__(self, root: Path, tmp: Path, seed: int, env: dict) -> None:
        self.root, self.tmp, self.env = root, tmp, env
        self.params, self.initial, self.laws = accuracy_inputs(root)
        self.rng = np.random.default_rng(seed)
        self.ladder: dict = {}
        self.refs: dict = {}

    def prepare(self) -> tuple[int, list[str]]:
        """Ladder search and reference solutions, in a child process.

        Runs untimed and outside set-up, so scipy never loads into the
        process whose memory and time are measured.
        """
        out = self.tmp / "accuracy"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("reference.py")),
             "--root", str(self.root), "--out", str(out)],
            env=self.env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError("reference computation failed:\n" + proc.stderr)
        self.ladder = json.loads((out / "ladder.json").read_text())
        with np.load(out / "refs.npz") as data:
            self.refs = {key: data[key] for key in data.files}
        problems = []
        for law, entry in self.ladder["laws"].items():
            if not entry["reference_agreement"] <= 1e-9 * self.params.N:
                problems.append(f"{law}: reference tolerances disagree by "
                                f"{entry['reference_agreement']:.3g}")
            for mode in ACCURACY_MODES:
                if entry[mode]["accepted"] is None:
                    problems.append(f"{law} {mode}: no rung meets the target")
        # one self-check per law and one ladder verdict per law and mode
        return len(self.laws) * (1 + len(ACCURACY_MODES)), problems

    def run_pass(self, k: int, spans, speed) -> PassResult:
        res = PassResult()
        runs = [(law, mode) for law in self.laws for mode in ACCURACY_MODES
                if self.ladder["laws"][law][mode]["accepted"] is not None]
        target = ACCURACY_TARGET_FRAC * self.params.N
        for i in self.rng.permutation(len(runs)):
            law, mode = runs[i]
            config = accuracy_config(mode, self.ladder["laws"][law][mode]["accepted"])
            speed.tick()
            t0 = time.perf_counter()
            try:
                traj = spans.call(integrate_span_name, integrate, self.initial,
                                  self.params, self.laws[law], config,
                                  counters=integrate_counters)
            except Exception as exc:   # any exception is a failed run
                res.add(f"{mode}.{law}", time.perf_counter() - t0,
                        [f"{type(exc).__name__}: {exc}"])
                continue
            wall = time.perf_counter() - t0
            t_ref = self.refs[f"{law}.{mode}.t"]
            problems = []
            if not np.array_equal(traj.t, t_ref):
                problems.append("sample times differ from the ladder run")
            else:
                err = float(np.max(np.abs(traj.states().T - self.refs[f"{law}.{mode}.ref"])))
                if not err <= target:
                    problems.append(f"max deviation {err:.3g} > target {target:.3g}")
            res.add(f"{mode}.{law}", wall, problems)
        return res

    @staticmethod
    def figures(passes: list[PassResult]) -> dict:
        def mode_sum(p: PassResult, mode: str) -> float:
            return sum(w for n, w in zip(p.op_names, p.op_walls)
                       if n.startswith(mode + "."))
        return {"fixed_time_to_tol_s": (median([mode_sum(p, "fixed") for p in passes]), "s"),
                "adaptive_time_to_tol_s": (median([mode_sum(p, "adaptive") for p in passes]), "s")}


# -- stability_map --------------------------------------------------------

def map_points() -> list[tuple[ModelParams, float]]:
    """648 points: mu x omega x sigma=gamma x 24 beta in [0.25, 4] x threshold."""
    points = []
    for mu in (0.005, 0.01, 0.02):
        for omega in (0.0, 0.02, 0.05):
            for sigma in (0.1, 0.2, 0.3):
                beta_star = (mu + sigma) ** 2 / sigma
                for factor in np.linspace(0.25, 4.0, 24):
                    points.append((ModelParams(N=1000.0, mu=mu, omega=omega,
                                               beta=float(factor * beta_star),
                                               sigma=sigma, gamma=sigma),
                                   beta_star))
    return points


def map_verdict(params: ModelParams, beta_star: float, reports) -> tuple[list[str], int, int]:
    """(problems, endemic count, certified count) for one analysed point."""
    x1 = reports[0]
    numeric = np.sort_complex(x1.spectrum)
    closed = np.sort_complex(np.array(x1.closed_form_zeros, dtype=complex))
    problems = []
    gap = float(np.max(np.abs(numeric - closed)))
    if not gap <= 1e-9:
        problems.append(f"closed-form zeros differ from eigvals by {gap:.3g}")
    above = params.beta > beta_star
    if x1.locally_stable == above:
        problems.append("disease-free stability does not flip at beta*")
    if len(reports) != (2 if above else 1):
        problems.append(f"{len(reports) - 1} endemic points, expected {int(above)}")
    endemic = certified = 0
    if len(reports) == 2:
        endemic = 1
        rep = reports[1]
        if rep.hinf_condition_holds:
            certified = 1
            if not np.all(rep.spectrum.real < 0.0):
                problems.append("sweep certifies an unstable endemic point")
    return problems, endemic, certified


class StabilityMap:
    name = "stability_map"
    op = "point"

    def __init__(self, root: Path, tmp: Path, seed: int, env: dict) -> None:
        self.points = map_points()
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> tuple[int, list[str]]:
        return 0, []

    def run_pass(self, k: int, spans, speed) -> PassResult:
        res = PassResult()
        endemic = certified = 0
        for i in self.rng.permutation(len(self.points)):
            params, beta_star = self.points[i]
            speed.tick()
            t0 = time.perf_counter()
            try:
                reports = spans.call("equilibria.analyze", analyze, params)
            except Exception as exc:   # any exception is a failed point
                res.add("point", time.perf_counter() - t0,
                        [f"{type(exc).__name__}: {exc}"])
                continue
            wall = time.perf_counter() - t0
            problems, e, c = map_verdict(params, beta_star, reports)
            endemic += e
            certified += c
            res.add("point", wall, problems)
        res.details = {"points_endemic": endemic, "points_certified": certified}
        return res

    @staticmethod
    def figures(passes: list[PassResult]) -> dict:
        walls = [w for p in passes for w in p.op_walls]
        last = passes[-1].details
        return {"points_per_s": (len(walls) / sum(walls), "1/s"),
                "points_endemic": (last["points_endemic"], "count"),
                "points_certified": (last["points_certified"], "count")}


WORKLOADS = {w.name: w for w in (CliQuickstart, Ensemble, Accuracy, StabilityMap)}


def median(values: list[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            break
    else:
        p = 50.0
    rank = max(1, int(np.ceil(p / 100.0 * n)))
    return p, ordered[rank - 1]


def setup_inputs(name: str, root: Path, seed: int) -> None:
    """The program set-up a workload does before its first timed call.

    Timed in a fresh interpreter for setup_s; it writes no files.
    """
    if name == "cli_quickstart":
        cli = importlib.import_module("seirvax.cli")
        cli.build_parser()
        load_scenario(root / SHIPPED_SCENARIO)
    elif name == "ensemble":
        ensemble_batch(seed, 0)
    elif name == "accuracy":
        accuracy_inputs(root)
    elif name == "stability_map":
        map_points()
    else:
        raise ValueError(f"unknown workload {name!r}")

