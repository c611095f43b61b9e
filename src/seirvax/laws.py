"""Vaccination law catalogue, gain validation and asymptotic predictions.

Feedback laws (V as a function of the current state):

  ZeroVax                      V = 0
  ConstantVax(value)           V = value
  SusceptibleLinear(g)         V = (omega*R + (g - beta*I/N)*S + mu*N) / (mu*N)
  SusceptiblePlusExposed(g)    V = (g*S + (g - sigma)*E + omega*R) / (mu*N)
  ImmuneFeedback(g, g1)        V = (g1*N - g*R - gamma*I) / (mu*N)
  ConstrainedImmuneFeedback(g) ImmuneFeedback with g < 0 and g1 = mu+omega+g,
                               gated by mu >= |g| - omega + max(gamma, |g|)
  Linearizing(g_prime, g1)     ImmuneFeedback with g = g_prime - (mu+omega);
                               the linearizing synthesis for output y = R
  OutputZeroing               V = -gamma*I / (mu*N), holds R identically at 0
  Saturated(inner, lo, hi)     inner law clipped to [lo, hi]

Each law is one class: its scenario name (`name`, `label`), gains
(`gains`), gain constraints (`gain_checks`), its V as one expression
(`v_expr`, with the constants `_constants` binds) and its prediction live
on it (see `ControlLaw`). To add a law, write one class with one V
expression and list it in `SCENARIO_LAWS`: the integrators inline that
expression at every stage of their generated kernels (`kernels`), and
`compile_law` builds the V closure from the same text.

Three module functions are the gated entry points, and one gain gate
(`_gated`: a failed required clause, of the law or of its canonical
form, is refused) stands before each: `law_program` returns the law's
shape and constants, which the integrators compile into their kernels;
`compile_law` returns the V(S, E, I, R, t) closure of the same program,
so a law evaluates bitwise-identically wherever it is used;
`predicted_limits` also refuses mu <= 0 and limits outside the
population range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple, Optional

from .exceptions import GainConstraintError, PredictionError, VaccinationChannelError
from .kernels import Shape, law_function
from .model import ModelParams, SeirState, infection_modes

__all__ = [
    "ZeroVax",
    "ConstantVax",
    "SusceptibleLinear",
    "SusceptiblePlusExposed",
    "ImmuneFeedback",
    "ConstrainedImmuneFeedback",
    "Linearizing",
    "OutputZeroing",
    "Saturated",
    "ControlLaw",
    "SCENARIO_LAWS",
    "GainCheck",
    "AsymptoticPrediction",
    "law_program",
    "compile_law",
    "predicted_limits",
    "corollary1_upper_bound",
]


# V(S, E, I, R, t) closure produced by compile_law.
LawFn = Callable[[float, float, float, float, float], float]


class GainCheck(NamedTuple):
    """One named gain constraint. `required` marks definitional clauses
    (violations make the law refuse to bind); the rest are the sufficient
    or proof-technique conditions attached by the convergence results."""

    name: str
    holds: bool
    required: bool


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Closed-form limits for a law; fields are None where no limit is claimed.

    `decay_rate` is the exponential rate at which the predicted limits
    are approached. Where all four component limits are claimed, it is
    the rate of the slowest mode of the closed loop linearized there,
    within the simplex S+E+I+R = N (minus its tangent spectral abscissa);
    where only sums are claimed, the rate of the linear equation they obey.
    `integral_limit` is the limit of the convolution
    int_0^t exp(-mu*(t-tau)) * (omega+g) * R(tau) dtau.
    """

    s_inf: Optional[float] = None
    e_inf: Optional[float] = None
    i_inf: Optional[float] = None
    r_inf: Optional[float] = None
    s_plus_e_inf: Optional[float] = None
    i_plus_r_inf: Optional[float] = None
    s_plus_e_plus_i_inf: Optional[float] = None
    v_inf: Optional[float] = None
    integral_limit: Optional[float] = None
    decay_rate: Optional[float] = None


def _refuse(clause: str) -> PredictionError:
    return PredictionError(f"prediction refused, failing clause: {clause}")


def _modes(params: ModelParams, s: float) -> tuple[float, float]:
    """`infection_modes`, with its refusal of overflowing rates raised as a
    PredictionError."""
    try:
        return infection_modes(params, s)
    except ValueError as exc:
        raise PredictionError(f"prediction refused: {exc}") from None


def _require_channel(params: ModelParams) -> float:
    muN = params.mu * params.N
    if muN == 0.0:
        raise VaccinationChannelError("vaccination channel gain zero")
    return muN


class ControlLaw:
    """Base of the catalogue: a law is a frozen dataclass whose fields are
    its gains.

    A law owns its scenario `name`, its named gain constraints
    (`gain_checks`), its vaccination fraction as one Python expression
    (`v_expr`, in S, E, I, R, t and the names `_constants` binds, called
    by `law_program` once the required constraints hold) and its
    closed-form limits (`_predict`, called by `predicted_limits`).
    `canonical` reduces a law to the one the synthesis produces: the
    immune-feedback family reduces to `ImmuneFeedback`, every other law
    to itself.
    """

    name: ClassVar[str]
    v_expr: ClassVar[str]

    @property
    def label(self) -> str:
        """Stable identifier used in trajectory metadata."""
        return self.name

    @property
    def gains(self) -> dict[str, float]:
        """The gains by field name: the law's scenario gain keys."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def canonical(self, params: ModelParams) -> ControlLaw:
        return self

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        return []

    def _constants(self, params: ModelParams) -> dict[str, float]:
        return {}

    def _program(self, params: ModelParams) -> tuple[Shape, tuple[float, ...]]:
        """(shape, constant values): what the kernels and closures compile."""
        consts = self._constants(params)
        return ("expr", self.v_expr, tuple(consts)), tuple(consts.values())

    def _predict(self, params: ModelParams) -> AsymptoticPrediction:
        raise _refuse("no closed-form asymptotics for this law")


@dataclass(frozen=True)
class ZeroVax(ControlLaw):
    """No vaccination."""

    name: ClassVar[str] = "zero"
    v_expr: ClassVar[str] = "0.0"


@dataclass(frozen=True)
class ConstantVax(ControlLaw):
    """Constant vaccination fraction (no sign restriction)."""

    name: ClassVar[str] = "constant"
    v_expr: ClassVar[str] = "v"
    value: float

    def _constants(self, params: ModelParams) -> dict[str, float]:
        return {"v": float(self.value)}


@dataclass(frozen=True)
class SusceptibleLinear(ControlLaw):
    """Control u = -g*S realized through the vaccination channel."""

    name: ClassVar[str] = "susceptible_linear"
    v_expr: ClassVar[str] = "(om * R + (g - bp * I) * S + muN) / muN"
    g: float

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        g, ga, si = self.g, params.gamma, params.sigma
        return [
            GainCheck("g >= 0", g >= 0.0, True),
            GainCheck("gamma != sigma", ga != si, False),
            GainCheck("g != sigma", g != si, False),
            GainCheck("g != gamma", g != ga, False),
        ]

    def _constants(self, params: ModelParams) -> dict[str, float]:
        return {"om": params.omega, "g": self.g, "bp": params.beta_prime,
                "muN": _require_channel(params)}

    def _predict(self, params: ModelParams) -> AsymptoticPrediction:
        mu, N = params.mu, params.N
        return AsymptoticPrediction(
            s_inf=0.0, e_inf=0.0, i_inf=0.0, r_inf=N,
            v_inf=1.0 + params.omega / mu, decay_rate=mu + self.g)


@dataclass(frozen=True)
class SusceptiblePlusExposed(ControlLaw):
    """Control u = -g*(S+E) realized through the vaccination channel."""

    name: ClassVar[str] = "susceptible_plus_exposed"
    v_expr: ClassVar[str] = "(g * S + (g - si) * E + om * R) / muN"
    g: float

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        return [
            GainCheck("g >= 0", self.g >= 0.0, True),
            GainCheck("g < mu", self.g < params.mu, False),
        ]

    def _constants(self, params: ModelParams) -> dict[str, float]:
        return {"g": self.g, "si": params.sigma, "om": params.omega,
                "muN": _require_channel(params)}

    def _predict(self, params: ModelParams) -> AsymptoticPrediction:
        g, mu, N = self.g, params.mu, params.N
        kwargs = dict(
            s_plus_e_inf=mu * N / (mu + g),
            i_plus_r_inf=g * N / (mu + g),
            decay_rate=mu + g,
        )
        if g == 0.0 and _modes(params, 1.0)[0] < 0.0:   # N attracts
            if not math.isclose(mu * N / mu, N, rel_tol=1e-12, abs_tol=1e-9 * N):
                raise PredictionError(f"prediction refused: mu*N = {mu * N!r} "
                                      "under- or overflows double precision")
            kwargs.update(s_inf=N, e_inf=0.0, i_inf=0.0, r_inf=0.0, v_inf=0.0)
        return AsymptoticPrediction(**kwargs)


@dataclass(frozen=True)
class ImmuneFeedback(ControlLaw):
    """Control u = -g*R + g1*N; drives R toward g1*N/(mu+omega+g)."""

    name: ClassVar[str] = "immune_feedback"
    v_expr: ClassVar[str] = "(g1N - g * R - ga * I) / muN"
    g: float
    g1: float

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        mu, om, ga = params.mu, params.omega, params.gamma
        g, g1 = self.g, self.g1
        return [
            GainCheck("g > -(mu+omega)", g > -(mu + om), True),
            GainCheck("nonneg sufficient: g1 >= gamma", g1 >= ga, False),
            GainCheck("nonneg sufficient: g >= 0 and gamma == mu+omega",
                      g >= 0.0 and ga == mu + om, False),
        ]

    def _constants(self, params: ModelParams) -> dict[str, float]:
        return {"g1N": self.g1 * params.N, "g": self.g, "ga": params.gamma,
                "muN": _require_channel(params)}

    def _predict(self, params: ModelParams) -> AsymptoticPrediction:
        mu, om, N = params.mu, params.omega, params.N
        g, g1 = self.g, self.g1
        lam = mu + om + g
        if g1 > lam and math.fsum((mu, om, g, -g1)) >= 0.0:
            # g1 meets the clause exactly; only the rounded sum falls below it.
            lam = g1
        if not 0.0 <= g1 <= lam:
            raise _refuse("0 <= g1 <= mu+omega+g (limits within [0, N])")
        if mu * lam == 0.0:
            raise PredictionError("prediction refused: mu*(mu+omega+g) "
                                  "underflows double precision (0.0)")
        kwargs = dict(
            r_inf=g1 * N / lam,
            s_plus_e_plus_i_inf=(lam - g1) * N / lam,
            integral_limit=g1 * (om + g) / (mu * lam) * N,
            decay_rate=lam,
        )
        if g1 == lam:
            kwargs.update(s_inf=0.0, e_inf=0.0, i_inf=0.0)
        return AsymptoticPrediction(**kwargs)


class _ImmuneFamily(ControlLaw):
    """A law that evaluates and predicts as its canonical `ImmuneFeedback`."""

    def _program(self, params: ModelParams) -> tuple[Shape, tuple[float, ...]]:
        return law_program(self.canonical(params), params)

    def _predict(self, params: ModelParams) -> AsymptoticPrediction:
        canonical = self.canonical(params)
        _gated(canonical, params, PredictionError)
        return canonical._predict(params)


@dataclass(frozen=True)
class ConstrainedImmuneFeedback(_ImmuneFamily):
    """Immune feedback with negative g, g1 tied to mu+omega+g.

    Intended for the constrained-gain regime where V stays in [0, 1]:
    the printed gain gate is checked at bind time, and a run's recorded V
    is checked against [0, 1] by the positivity check's V-range sub-check.
    """

    name: ClassVar[str] = "constrained_immune_feedback"
    g: float

    def canonical(self, params: ModelParams) -> ImmuneFeedback:
        return ImmuneFeedback(g=self.g, g1=params.mu + params.omega + self.g)

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        mu, om, ga, g = params.mu, params.omega, params.gamma, self.g
        return [
            GainCheck("g < 0", g < 0.0, True),
            GainCheck("g > -(mu+omega)", g > -(mu + om), True),
            GainCheck("mu >= |g| - omega + max(gamma, |g|)",
                      mu >= abs(g) - om + max(ga, abs(g)), True),
            GainCheck("|g| >= omega", abs(g) >= om, False),
        ]


@dataclass(frozen=True)
class Linearizing(_ImmuneFamily):
    """Linearizing synthesis for output y = R: closed loop dR/dt = -g_prime*R + g1*N."""

    name: ClassVar[str] = "linearizing"
    g_prime: float
    g1: float

    def canonical(self, params: ModelParams) -> ImmuneFeedback:
        return ImmuneFeedback(g=self.g_prime - (params.mu + params.omega),
                              g1=self.g1)

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        return [
            GainCheck("g_prime > 0", self.g_prime > 0.0, True),
            GainCheck("g1 >= 0", self.g1 >= 0.0, True),
        ]


@dataclass(frozen=True)
class OutputZeroing(ControlLaw):
    """Input V = -gamma*I/(mu*N) that keeps R identically at zero from R(0) = 0.

    The output equation at R = 0 reads dR/dt = gamma*I + mu*N*V, so the
    zeroing input is negative whenever I > 0.
    """

    name: ClassVar[str] = "output_zeroing"
    v_expr: ClassVar[str] = "-ga * I / muN"

    def _constants(self, params: ModelParams) -> dict[str, float]:
        return {"ga": params.gamma, "muN": _require_channel(params)}


@dataclass(frozen=True)
class Saturated(ControlLaw):
    """Any law clipped to [lo, hi]; its gains are the inner law's."""

    name: ClassVar[str] = "saturated"
    inner: ControlLaw
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError("Saturated requires lo <= hi")

    @property
    def label(self) -> str:
        return f"saturated({self.inner.label})"

    @property
    def gains(self) -> dict[str, float]:
        return self.inner.gains

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        return self.inner.gain_checks(params)

    def _program(self, params: ModelParams) -> tuple[Shape, tuple[float, ...]]:
        """The inner law's V, then clipped: below lo gives lo, above hi
        gives hi, anything else (NaN included) passes. The gate that
        admitted this law checked the inner law's constraints."""
        shape, values = self.inner._program(params)
        return ("clip", shape), values + (float(self.lo), float(self.hi))


# Scenario law name -> class; Saturated is built from the clip keys instead.
SCENARIO_LAWS = {cls.name: cls for cls in (
    ZeroVax, ConstantVax, SusceptibleLinear, SusceptiblePlusExposed,
    ImmuneFeedback, ConstrainedImmuneFeedback, Linearizing, OutputZeroing)}


def _require_law(law: object) -> None:
    if not isinstance(law, ControlLaw):
        raise TypeError(f"not a control law: {law!r}")


def _gated(law: ControlLaw, params: ModelParams, error: type[Exception]) -> None:
    """The one gain gate: a failed required gain constraint raises `error`
    naming every failed clause."""
    failed = [c.name for c in law.gain_checks(params)
              if c.required and not c.holds]
    if failed:
        raise error(f"law {law.label} fails required gain constraint(s): "
                    + ", ".join(failed))


def law_program(law: ControlLaw, params: ModelParams) -> tuple[Shape, tuple[float, ...]]:
    """Bind a law to parameters: (shape, constant values).

    The shape is the law's V expression with the names of its constants
    (wrapped once per clip); the integrators compile one kernel per shape
    and pass the values as arguments. A failed required gain constraint
    raises GainConstraintError (and mu*N = 0 raises
    VaccinationChannelError when the law needs the channel).
    """
    _require_law(law)
    _gated(law, params, GainConstraintError)
    return law._program(params)


@lru_cache(maxsize=256)
def compile_law(law: ControlLaw, params: ModelParams) -> LawFn:
    """Bind a law to parameters, returning the V(S, E, I, R, t) closure.

    Built from `law_program`'s shape and constants, the text the
    integrators inline, so the closure gives bitwise the V they record.
    The closure's factory is compiled once per shape.
    """
    shape, values = law_program(law, params)
    return law_function(shape)(*values)


def _check_limits(pred: AsymptoticPrediction, N: float) -> None:
    for f in fields(pred):
        value = getattr(pred, f.name)
        if value is not None and not math.isfinite(value):
            raise PredictionError(f"prediction refused: {f.name} overflows "
                                  f"double precision ({value!r})")
    pops = (pred.s_inf, pred.e_inf, pred.i_inf, pred.r_inf, pred.s_plus_e_inf,
            pred.i_plus_r_inf, pred.s_plus_e_plus_i_inf)
    for v in pops:
        if v is not None and not (-1e-12 * N <= v <= N * (1.0 + 1e-12)):
            raise _refuse("population limits within [0, N]")


def predicted_limits(law: ControlLaw, params: ModelParams) -> AsymptoticPrediction:
    """Closed-form asymptotic limits the convergence results attach to a law.

    Raises PredictionError naming the failing clause when the gains
    violate a condition the limit formulas rely on (first the gain gate
    of `law_program`, on the law and on its canonical form), and for laws
    with no closed-form asymptotics (zero/constant/saturated/output-zeroing);
    and naming the value that over- or underflows double precision, or a
    slowest mode lost to rounding: a returned prediction is finite, rate > 0.
    """
    _require_law(law)
    if params.mu <= 0.0:
        raise _refuse("mu > 0")
    _gated(law, params, PredictionError)
    pred = law._predict(params)
    if pred.s_inf is not None:   # the (E, I) modes bound the rate
        slowest = -_modes(params, pred.s_inf / params.N)[0]
        if not slowest > 0.0:
            raise PredictionError("prediction refused: the slowest (E, I) "
                                  f"mode's rate is lost to rounding ({slowest!r})")
        pred = replace(pred, decay_rate=min(pred.decay_rate, slowest))
    _check_limits(pred, params.N)
    return pred


def corollary1_upper_bound(state: SeirState, params: ModelParams,
                           alpha: float):
    """Extended admissible upper bound for V: 1 + (alpha - beta*I/N)*S/(mu*N).

    The state's fields may be floats or equal-length arrays (a whole
    trajectory); the bound has the same shape. The caller must supply
    alpha >= beta*I/N (alpha = beta works whenever I <= N); a violation
    is reported with a warning, not an error. Raises
    VaccinationChannelError when mu*N = 0, where the bound is undefined,
    and ValueError where it overflows double precision (or is NaN).
    """
    import numpy as np
    muN = params.mu * params.N
    if muN == 0.0:
        raise VaccinationChannelError("corollary1 bound needs mu*N > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        incidence = params.beta_prime * state.I
        bound = 1.0 + (alpha - incidence) * state.S / muN
    if np.any(alpha < incidence):
        warnings.warn("corollary1_upper_bound: alpha < beta*I/N, bound not valid",
                      stacklevel=2)
    if not np.all(np.isfinite(bound)):
        raise ValueError(
            f"corollary1 bound 1 + (alpha - beta*I/N)*S/(mu*N) overflows "
            f"double precision at alpha = {alpha!r}, mu*N = {muN!r}")
    return bound
