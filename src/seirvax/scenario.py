"""Scenario files: INI-style key/value sections describing one simulation.

Sections [params], [initial], [law] and [integrator], plus optional
[checks], [checks.<name>] option sub-sections and [outputs]; the README
holds the full grammar and an example. The keys of [params], [initial]
and [integrator] are the fields of ModelParams, SeirState and
IntegratorConfig, each read by its field's type, and the options of each
[checks.<name>] section are listed in CHECK_NAMES; such a section needs
its check on in [checks]. Any other section, key or option is rejected.
Numbers are decimal doubles.
"""

from __future__ import annotations

import configparser
import inspect
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .checks import _refuse_option, _refuse_v_range, monitor_positivity
from .exceptions import ScenarioError
from .integrate import IntegratorConfig, _check_initial
from .laws import SCENARIO_LAWS, ControlLaw, Saturated
from .model import ModelParams, SeirState

__all__ = ["Scenario", "load_scenario", "build_law", "CHECK_NAMES"]

# Check name -> {option: type} of its [checks.<name>] section. The options
# are keyword arguments of the check function, which holds their defaults;
# a tuple type lists the accepted strings.
CHECK_NAMES = {
    "conservation": {},
    "positivity": {"v_lo": float, "v_hi": float, "bounds": ("corollary1",),
                   "alpha": float},
    "identities": {},
    "asymptotics": {"tail_fraction": float, "rel_tol": float},
    "integral_limit": {"rel_tol": float},
}


def _check_options(where: str, opts: dict) -> None:
    """Refuse, with a ValueError, check options that give no verdict (the
    checks' own rules) or cannot apply: v_lo and v_hi bound V only without
    `bounds`, and alpha only with it."""
    section = f" in [{where}]"
    for key, value in opts.items():
        _refuse_option(key, value, section)
        if key in ("v_lo", "v_hi") and "bounds" in opts:
            raise ValueError(f"option {key!r}{section} has no effect with "
                             "bounds = corollary1")
        if key == "alpha" and "bounds" not in opts:
            raise ValueError(f"option {key!r}{section} has no effect without "
                             "bounds = corollary1")
    if "v_lo" in opts or "v_hi" in opts:
        # an unset bound is the check's own default
        default = inspect.signature(monitor_positivity).parameters
        _refuse_v_range(*(opts.get(key, default[key].default)
                          for key in ("v_lo", "v_hi")), section)


# Section -> (dataclass whose fields are its keys, whether values must be
# finite). SeirState does not check its values, so the loader does.
_TYPED_SECTIONS = {
    "params": (ModelParams, False),
    "initial": (SeirState, True),
    "integrator": (IntegratorConfig, False),
}
_SECTIONS = ("params", "initial", "law", "integrator", "checks",
             *(f"checks.{name}" for name in CHECK_NAMES), "outputs")
_CLIP_KEYS = ("clip_lo", "clip_hi")
_OUTPUT_KINDS = ("csv", "svg", "report")


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
    clip = {k: v for k, v in (("lo", clip_lo), ("hi", clip_hi)) if v is not None}
    if clip:
        try:
            law = Saturated(law, **clip)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return law


def _value(section: configparser.SectionProxy, key: str, where: str,
           kind: type | tuple = float, finite: bool = False):
    """Read one value as float, int (finite and whole), bool or one of a
    tuple of strings, naming the key on failure."""
    raw = section[key]
    bad = f"key {key!r} in [{where}]: {raw!r}"
    if isinstance(kind, tuple):
        if raw.strip() not in kind:
            raise ScenarioError(f"{bad} is not one of: {', '.join(kind)}")
        return raw.strip()
    if kind is bool:
        try:
            return section.getboolean(key)
        except ValueError as exc:
            raise ScenarioError(f"{bad} is not a boolean (on/off)") from exc
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"{bad} is not a number") from exc
    if (finite or kind is int) and not math.isfinite(value):
        raise ScenarioError(f"{bad} is not finite")
    if kind is int:
        if not value.is_integer():
            raise ScenarioError(f"{bad} is not an integer")
        return int(value)
    return value


def _reject_unknown(section: configparser.SectionProxy, known, where: str,
                    what: str = "key") -> None:
    for key in section:
        if key not in known:
            raise ScenarioError(f"unknown {what} {key!r} in [{where}]; "
                                f"known: {', '.join(known) or 'none'}")


def _typed_section(parser: configparser.ConfigParser, where: str):
    """Build the section's dataclass from its keys (the lowercased fields)."""
    cls, finite = _TYPED_SECTIONS[where]
    sec = parser[where]
    types = typing.get_type_hints(cls)
    by_key = {f.name.lower(): f for f in fields(cls)}
    _reject_unknown(sec, by_key, where)
    kwargs = {}
    for key, f in by_key.items():
        if key in sec:
            kwargs[f.name] = _value(sec, key, where, types[f.name], finite)
        elif f.default is MISSING:
            raise ScenarioError(f"missing key {key!r} in [{where}]")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid [{where}]: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with a diagnostic (configparser reports line
    numbers for structural errors) on any parse or validation problem,
    including an unknown section, key or check option.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc

    for name in parser.sections():
        if name not in _SECTIONS:
            raise ScenarioError(f"unknown section [{name}]; known: "
                                + ", ".join(f"[{s}]" for s in _SECTIONS))
    for name in ("params", "initial", "law", "integrator"):
        if not parser.has_section(name):
            raise ScenarioError(f"missing section [{name}]")

    params = _typed_section(parser, "params")
    initial = _typed_section(parser, "initial")
    try:
        _check_initial(initial, params)
    except ValueError as exc:
        raise ScenarioError(f"invalid [initial]: {exc}") from exc

    sec = parser["law"]
    if "name" not in sec:
        raise ScenarioError("missing key 'name' in [law]")
    clip = {key: _value(sec, key, "law") for key in _CLIP_KEYS if key in sec}
    gains = {key: _value(sec, key, "law", finite=True) for key in sec
             if key != "name" and key not in _CLIP_KEYS}
    law = build_law(sec["name"].strip(), gains, clip.get("clip_lo"),
                    clip.get("clip_hi"))

    config = _typed_section(parser, "integrator")

    checks: dict[str, dict] = {}
    if parser.has_section("checks"):
        sec = parser["checks"]
        _reject_unknown(sec, CHECK_NAMES, "checks", "check")
        checks = {key: {} for key in sec if _value(sec, key, "checks", bool)}
    for name, options in CHECK_NAMES.items():
        where = f"checks.{name}"
        if parser.has_section(where):
            if name not in checks:
                raise ScenarioError(f"section [{where}] has no effect: "
                                    f"check {name!r} is not on in [checks]")
            sec = parser[where]
            _reject_unknown(sec, options, where, "option")
            opts = {key: _value(sec, key, where, options[key]) for key in sec}
            try:
                _check_options(where, opts)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
            checks[name] = opts
    if config.adaptive and "identities" in checks:
        raise ScenarioError("check 'identities' in [checks] cannot run with "
                            "adaptive = on in [integrator]: its tolerance "
                            "bounds central-difference truncation, not the "
                            "adaptive pair's error")

    outputs: dict[str, str] = {}
    if parser.has_section("outputs"):
        sec = parser["outputs"]
        _reject_unknown(sec, _OUTPUT_KINDS, "outputs", "output kind")
        outputs = {key: sec[key].strip() for key in sec}

    return Scenario(params=params, initial=initial, law=law, config=config,
                    checks=checks, outputs=outputs)
