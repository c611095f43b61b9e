"""Scenario files: INI-style key/value sections describing one simulation.

Format (see README for the full grammar): sections [params], [initial],
[law], [integrator], plus optional [checks], [checks.<name>] option
sub-sections and [outputs]. Numbers are decimal doubles. Example:

    [params]
    N = 1000
    mu = 0.01
    omega = 0.02
    beta = 0.9
    sigma = 0.2
    gamma = 0.2

    [initial]
    S = 700
    E = 100
    I = 50
    R = 150

    [law]
    name = immune_feedback
    g = 0.0
    g1 = 0.03

    [integrator]
    t_end = 500
    dt = 0.01
    sampling_stride = 10

    [checks]
    conservation = on
    positivity = on

    [outputs]
    csv = trajectory.csv
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .exceptions import ScenarioError
from .integrate import IntegratorConfig
from .laws import SCENARIO_LAWS, ControlLaw, Saturated
from .model import ModelParams, SeirState

__all__ = ["Scenario", "load_scenario", "build_law", "CHECK_NAMES"]

CHECK_NAMES = ("conservation", "positivity", "identities", "asymptotics",
               "integral_limit")

@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario."""

    params: ModelParams
    initial: SeirState
    law: ControlLaw
    config: IntegratorConfig
    checks: dict[str, dict] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


def build_law(name: str, gains: dict[str, float],
              clip_lo: float | None = None,
              clip_hi: float | None = None) -> ControlLaw:
    """Construct a law from its scenario name and named gains.

    The accepted gain keys are the law class's dataclass fields.
    """
    if name not in SCENARIO_LAWS:
        raise ScenarioError(
            f"unknown law name {name!r}; known: {sorted(SCENARIO_LAWS)}")
    cls = SCENARIO_LAWS[name]
    required = [f.name for f in fields(cls)]
    missing = [k for k in required if k not in gains]
    if missing:
        raise ScenarioError(f"law {name!r} needs gain(s): {', '.join(missing)}")
    extra = [k for k in gains if k not in required]
    if extra:
        raise ScenarioError(f"law {name!r} got unknown gain(s): {', '.join(extra)}")
    law: ControlLaw = cls(**gains)
    if clip_lo is not None or clip_hi is not None:
        lo = 0.0 if clip_lo is None else clip_lo
        hi = 1.0 if clip_hi is None else clip_hi
        try:
            law = Saturated(law, lo, hi)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return law


def _getfloat(section: configparser.SectionProxy, key: str,
              where: str, finite: bool = False) -> float:
    if key not in section:
        raise ScenarioError(f"missing key {key!r} in [{where}]")
    raw = section[key]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(
            f"key {key!r} in [{where}]: {raw!r} is not a number") from exc
    if finite and not math.isfinite(value):
        raise ScenarioError(f"key {key!r} in [{where}]: {raw!r} is not finite")
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with a diagnostic (configparser reports line
    numbers for structural errors) on any parse or validation problem.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc

    for name in ("params", "initial", "law", "integrator"):
        if not parser.has_section(name):
            raise ScenarioError(f"missing section [{name}]")

    sec = parser["params"]
    try:
        params = ModelParams(
            N=_getfloat(sec, "n", "params"),
            mu=_getfloat(sec, "mu", "params"),
            omega=_getfloat(sec, "omega", "params"),
            beta=_getfloat(sec, "beta", "params"),
            sigma=_getfloat(sec, "sigma", "params"),
            gamma=_getfloat(sec, "gamma", "params"),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid [params]: {exc}") from exc

    sec = parser["initial"]
    initial = SeirState(*(_getfloat(sec, key, "initial", finite=True)
                          for key in ("s", "e", "i", "r")))
    if abs(initial.total - params.N) > 1e-6 * params.N:
        raise ScenarioError(
            f"initial state sums to {initial.total}; must equal N = {params.N} "
            "within 1e-06 relative")

    sec = parser["law"]
    if "name" not in sec:
        raise ScenarioError("missing key 'name' in [law]")
    name = sec["name"].strip()
    gains = {}
    clip_lo = clip_hi = None
    for key in sec:
        if key == "name":
            continue
        if key == "clip_lo":
            clip_lo = _getfloat(sec, key, "law")
        elif key == "clip_hi":
            clip_hi = _getfloat(sec, key, "law")
        else:
            gains[key] = _getfloat(sec, key, "law")
    law = build_law(name, gains, clip_lo, clip_hi)

    sec = parser["integrator"]
    kwargs: dict = {"t_end": _getfloat(sec, "t_end", "integrator")}
    if "t0" in sec:
        kwargs["t0"] = _getfloat(sec, "t0", "integrator")
    if "dt" in sec:
        kwargs["dt"] = _getfloat(sec, "dt", "integrator")
    if "sampling_stride" in sec:
        stride = _getfloat(sec, "sampling_stride", "integrator", finite=True)
        if not stride.is_integer():
            raise ScenarioError("key 'sampling_stride' in [integrator]: "
                                f"{sec['sampling_stride']!r} is not an integer")
        kwargs["sampling_stride"] = int(stride)
    if "positivity_policy" in sec:
        kwargs["positivity_policy"] = sec["positivity_policy"].strip()
    if "adaptive" in sec:
        try:
            kwargs["adaptive"] = sec.getboolean("adaptive")
        except ValueError as exc:
            raise ScenarioError(f"invalid 'adaptive' in [integrator]") from exc
    if "rel_tol" in sec:
        kwargs["rel_tol"] = _getfloat(sec, "rel_tol", "integrator")
    if "abs_tol" in sec:
        kwargs["abs_tol"] = _getfloat(sec, "abs_tol", "integrator")
    try:
        config = IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid [integrator]: {exc}") from exc

    checks: dict[str, dict] = {}
    if parser.has_section("checks"):
        for key in parser["checks"]:
            if key not in CHECK_NAMES:
                raise ScenarioError(
                    f"unknown check {key!r}; known: {CHECK_NAMES}")
            try:
                enabled = parser["checks"].getboolean(key)
            except ValueError as exc:
                raise ScenarioError(
                    f"check {key!r} must be a boolean (on/off)") from exc
            if enabled:
                checks[key] = {}
    for key in list(checks):
        sub = f"checks.{key}"
        if parser.has_section(sub):
            for opt in parser[sub]:
                if opt == "bounds":
                    checks[key][opt] = parser[sub][opt].strip()
                else:
                    checks[key][opt] = _getfloat(parser[sub], opt, sub)

    outputs: dict[str, str] = {}
    if parser.has_section("outputs"):
        for key in parser["outputs"]:
            if key not in ("csv", "svg", "report"):
                raise ScenarioError(f"unknown output kind {key!r}")
            outputs[key] = parser["outputs"][key].strip()

    return Scenario(params=params, initial=initial, law=law, config=config,
                    checks=checks, outputs=outputs)
