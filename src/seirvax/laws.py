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

Each law is one class: its scenario name, gains, gain constraints,
binding and prediction live on it (see `ControlLaw`), and the functions
below only dispatch to those methods. To add a law, write one class and
list it in `SCENARIO_LAWS`.

`compile_law` binds a law to parameters once and returns the closure used
everywhere (direct evaluation and the integrator), so a law evaluates
bitwise-identically wherever it is used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple, Optional

from .exceptions import GainConstraintError, PredictionError, VaccinationChannelError
from .model import ModelParams, SeirState

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
    "InfectiousBound",
    "law_name",
    "compile_law",
    "evaluate",
    "validate_gains",
    "predicted_limits",
    "corollary1_upper_bound",
    "infectious_upper_bound",
    "susceptible_plus_exposed_alt",
    "constrained_gain_margin",
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
    are approached (an upper bound on the dominant time constant's rate).
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


def _require_channel(params: ModelParams) -> float:
    muN = params.mu * params.N
    if muN == 0.0:
        raise VaccinationChannelError("vaccination channel gain zero")
    return muN


class ControlLaw:
    """Base of the catalogue: a law is a frozen dataclass whose fields are
    its gains.

    A law owns its scenario `name`, its named gain constraints
    (`gain_checks`), its binding to parameters (`compile`, which refuses
    to bind when required constraints fail, naming each, and otherwise
    calls `_bind`) and its closed-form limits (`predict`). `canonical`
    reduces a law to the one the synthesis produces: the immune-feedback
    family reduces to `ImmuneFeedback`, every other law to itself.
    """

    name: ClassVar[str]

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

    def compile(self, params: ModelParams) -> LawFn:
        failed = [c.name for c in self.gain_checks(params)
                  if c.required and not c.holds]
        if failed:
            raise GainConstraintError(
                f"law {self.label} fails required gain constraint(s): "
                + ", ".join(failed))
        return self._bind(params)

    def _bind(self, params: ModelParams) -> LawFn:
        raise NotImplementedError

    def predict(self, params: ModelParams) -> AsymptoticPrediction:
        raise _refuse("no closed-form asymptotics for this law")


@dataclass(frozen=True)
class ZeroVax(ControlLaw):
    """No vaccination."""

    name: ClassVar[str] = "zero"

    def _bind(self, params: ModelParams) -> LawFn:
        return lambda S, E, I, R, t: 0.0


@dataclass(frozen=True)
class ConstantVax(ControlLaw):
    """Constant vaccination fraction (no sign restriction)."""

    name: ClassVar[str] = "constant"
    value: float

    def _bind(self, params: ModelParams) -> LawFn:
        v = float(self.value)
        return lambda S, E, I, R, t: v


@dataclass(frozen=True)
class SusceptibleLinear(ControlLaw):
    """Control u = -g*S realized through the vaccination channel."""

    name: ClassVar[str] = "susceptible_linear"
    g: float

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        g, ga, si = self.g, params.gamma, params.sigma
        return [
            GainCheck("g >= 0", g >= 0.0, True),
            GainCheck("gamma != sigma", ga != si, False),
            GainCheck("g != sigma", g != si, False),
            GainCheck("g != gamma", g != ga, False),
        ]

    def _bind(self, params: ModelParams) -> LawFn:
        muN = _require_channel(params)
        g, om, bp = self.g, params.omega, params.beta_prime
        return lambda S, E, I, R, t: (om * R + (g - bp * I) * S + muN) / muN

    def predict(self, params: ModelParams) -> AsymptoticPrediction:
        if not self.g >= 0.0:
            raise _refuse("g >= 0")
        mu, N = params.mu, params.N
        return AsymptoticPrediction(
            s_inf=0.0, e_inf=0.0, i_inf=0.0, r_inf=N,
            v_inf=1.0 + params.omega / mu, decay_rate=mu + self.g)


@dataclass(frozen=True)
class SusceptiblePlusExposed(ControlLaw):
    """Control u = -g*(S+E) realized through the vaccination channel."""

    name: ClassVar[str] = "susceptible_plus_exposed"
    g: float

    def gain_checks(self, params: ModelParams) -> list[GainCheck]:
        return [
            GainCheck("g >= 0", self.g >= 0.0, True),
            GainCheck("g < mu", self.g < params.mu, False),
        ]

    def _bind(self, params: ModelParams) -> LawFn:
        muN = _require_channel(params)
        g, om, si = self.g, params.omega, params.sigma
        return lambda S, E, I, R, t: (g * S + (g - si) * E + om * R) / muN

    def predict(self, params: ModelParams) -> AsymptoticPrediction:
        g, mu, N = self.g, params.mu, params.N
        if not g >= 0.0:
            raise _refuse("g >= 0")
        kwargs = dict(
            s_plus_e_inf=mu * N / (mu + g),
            i_plus_r_inf=g * N / (mu + g),
            decay_rate=mu + g,
        )
        if g == 0.0:
            kwargs.update(s_inf=N, e_inf=0.0, i_inf=0.0, r_inf=0.0, v_inf=0.0)
        return AsymptoticPrediction(**kwargs)


@dataclass(frozen=True)
class ImmuneFeedback(ControlLaw):
    """Control u = -g*R + g1*N; drives R toward g1*N/(mu+omega+g)."""

    name: ClassVar[str] = "immune_feedback"
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

    def _bind(self, params: ModelParams) -> LawFn:
        muN = _require_channel(params)
        g, g1, ga, N = self.g, self.g1, params.gamma, params.N
        return lambda S, E, I, R, t: (g1 * N - g * R - ga * I) / muN

    def predict(self, params: ModelParams) -> AsymptoticPrediction:
        mu, om, N = params.mu, params.omega, params.N
        g, g1 = self.g, self.g1
        lam = mu + om + g
        if not g > -(mu + om):
            raise _refuse("g > -(mu+omega)")
        if not 0.0 <= g1 <= lam:
            raise _refuse("0 <= g1 <= mu+omega+g (limits within [0, N])")
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
    """A law that binds and predicts as its canonical `ImmuneFeedback`."""

    def _bind(self, params: ModelParams) -> LawFn:
        return compile_law(self.canonical(params), params)

    def predict(self, params: ModelParams) -> AsymptoticPrediction:
        return self.canonical(params).predict(params)


@dataclass(frozen=True)
class ConstrainedImmuneFeedback(_ImmuneFamily):
    """Immune feedback with negative g, g1 tied to mu+omega+g.

    Intended for the constrained-gain regime where V stays in [0, 1];
    the printed gain gate is checked at bind time and the exact
    per-sample margin is available via `constrained_gain_margin`.
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
            GainCheck("g1 == mu+omega+g", True, True),
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

    def predict(self, params: ModelParams) -> AsymptoticPrediction:
        if not self.g_prime > 0.0:
            raise _refuse("g_prime > 0")
        return super().predict(params)


@dataclass(frozen=True)
class OutputZeroing(ControlLaw):
    """Input V = -gamma*I/(mu*N) that keeps R identically at zero from R(0) = 0.

    The output equation at R = 0 reads dR/dt = gamma*I + mu*N*V, so the
    zeroing input is negative whenever I > 0.
    """

    name: ClassVar[str] = "output_zeroing"

    def _bind(self, params: ModelParams) -> LawFn:
        muN = _require_channel(params)
        ga = params.gamma
        return lambda S, E, I, R, t: -ga * I / muN


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
        return self.inner.gain_checks(params) + [
            GainCheck("lo <= hi", self.lo <= self.hi, True)]

    def _bind(self, params: ModelParams) -> LawFn:
        inner = compile_law(self.inner, params)
        lo, hi = self.lo, self.hi

        def clipped(S: float, E: float, I: float, R: float, t: float) -> float:
            v = inner(S, E, I, R, t)
            if v < lo:
                return lo
            if v > hi:
                return hi
            return v

        return clipped


# Scenario law name -> class; Saturated is built from the clip keys instead.
SCENARIO_LAWS = {cls.name: cls for cls in (
    ZeroVax, ConstantVax, SusceptibleLinear, SusceptiblePlusExposed,
    ImmuneFeedback, ConstrainedImmuneFeedback, Linearizing, OutputZeroing)}


def _require_law(law: object) -> None:
    if not isinstance(law, ControlLaw):
        raise TypeError(f"not a control law: {law!r}")


def law_name(law: ControlLaw) -> str:
    """Short stable identifier, used in trajectory metadata and scenarios."""
    _require_law(law)
    return law.label


@lru_cache(maxsize=256)
def compile_law(law: ControlLaw, params: ModelParams) -> LawFn:
    """Bind a law to parameters, returning the V(S, E, I, R, t) closure.

    Bind-time constraint violations raise GainConstraintError (or
    VaccinationChannelError when mu*N = 0 and the law needs the channel).
    """
    _require_law(law)
    return law.compile(params)


def evaluate(law: ControlLaw, state: SeirState, params: ModelParams,
             t: float = 0.0) -> float:
    """Evaluate the law's vaccination fraction at a state.

    States are taken as given: no clamping of negative inputs happens
    here, so garbage in is surfaced rather than hidden.
    """
    fn = compile_law(law, params)
    return fn(state.S, state.E, state.I, state.R, t)


def validate_gains(law: ControlLaw, params: ModelParams) -> list[GainCheck]:
    """Evaluate every named constraint attached to the law."""
    _require_law(law)
    return law.gain_checks(params)


def _check_population_limits(pred: AsymptoticPrediction, N: float) -> None:
    pops = (pred.s_inf, pred.e_inf, pred.i_inf, pred.r_inf, pred.s_plus_e_inf,
            pred.i_plus_r_inf, pred.s_plus_e_plus_i_inf)
    for v in pops:
        if v is not None and not (-1e-12 * N <= v <= N * (1.0 + 1e-12)):
            raise _refuse("population limits within [0, N]")
    # Sum/component consistency when both sides are present.
    if pred.s_plus_e_inf is not None and pred.s_inf is not None and pred.e_inf is not None:
        assert math.isclose(pred.s_plus_e_inf, pred.s_inf + pred.e_inf,
                            rel_tol=1e-12, abs_tol=1e-9 * N)
    if pred.i_plus_r_inf is not None and pred.i_inf is not None and pred.r_inf is not None:
        assert math.isclose(pred.i_plus_r_inf, pred.i_inf + pred.r_inf,
                            rel_tol=1e-12, abs_tol=1e-9 * N)


def predicted_limits(law: ControlLaw, params: ModelParams) -> AsymptoticPrediction:
    """Closed-form asymptotic limits the convergence results attach to a law.

    Raises PredictionError naming the failing clause when the gains
    violate a condition the limit formulas rely on, and for laws with no
    closed-form asymptotics (zero/constant/saturated/output-zeroing).
    """
    _require_law(law)
    if params.mu <= 0.0:
        raise _refuse("mu > 0")
    pred = law.predict(params)
    _check_population_limits(pred, params.N)
    return pred


def corollary1_upper_bound(state: SeirState, params: ModelParams,
                           alpha: float) -> float:
    """Extended admissible upper bound for V: 1 + (alpha - beta*I/N)*S/(mu*N).

    The caller must supply alpha >= beta*I/N (alpha = beta works whenever
    I <= N); a violation is reported with a warning, not an error.
    """
    muN = _require_channel(params)
    incidence = params.beta_prime * state.I
    if alpha < incidence:
        warnings.warn("corollary1_upper_bound: alpha < beta*I/N, bound not valid",
                      stacklevel=2)
    return 1.0 + (alpha - incidence) * state.S / muN


@dataclass(frozen=True)
class InfectiousBound:
    """Upper bound on the infectious population and the nonnegativity condition.

    condition_holds is None when gamma = 0 (condition undefined).
    """

    i_max: float
    ratio: float
    condition_holds: Optional[bool]


def infectious_upper_bound(params: ModelParams) -> InfectiousBound:
    """min(1, sigma*beta/((mu+sigma)*(mu+gamma))) * N and the (mu+omega)/gamma gate."""
    mu, om, ga, si, be, N = (params.mu, params.omega, params.gamma,
                             params.sigma, params.beta, params.N)
    denom = (mu + si) * (mu + ga)
    if denom <= 0.0:
        raise ValueError("infectious_upper_bound requires mu+sigma > 0 and mu+gamma > 0")
    ratio = si * be / denom
    factor = min(1.0, ratio)
    condition = factor >= (mu + om) / ga if ga > 0.0 else None
    return InfectiousBound(i_max=factor * N, ratio=ratio, condition_holds=condition)


def susceptible_plus_exposed_alt(state: SeirState, params: ModelParams,
                                 g: float) -> float:
    """Regrouped form of the susceptible-plus-exposed law:

    V = (g*(N - I) - sigma*E + (omega - g)*R) / (mu*N)

    Equals the primary form exactly when S+E+I+R = N.
    """
    muN = _require_channel(params)
    return (g * (params.N - state.I) - params.sigma * state.E
            + (params.omega - g) * state.R) / muN


def constrained_gain_margin(state: SeirState, params: ModelParams,
                            g: float) -> float:
    """Per-sample margin -(|g|-omega)*N + |g|*R - gamma*I for the constrained law.

    V <= 1 at this state exactly when the margin is <= 0; the gain gate's
    "sufficiently large |g| - omega" has no closed form, so this is the
    runtime check to monitor along trajectories.
    """
    return (-(abs(g) - params.omega) * params.N + abs(g) * state.R
            - params.gamma * state.I)
