"""Feedback linearization for output y = R: transform and zero dynamics.

The output y = R has relative degree one (V appears in dR/dt with
coefficient mu*N), and the linear change of coordinates

    z1 = R,  z2 = S + R,  z3 = E,  z4 = I

puts the plant in normal form with the input entering only the z1
equation. Holding the output at zero with V = -gamma*z4/(mu*N) (the law
`laws.OutputZeroing`) leaves the zero dynamics in (z2, z3, z4); their
solutions are bounded, which is the admissibility condition for the
linearizing law

    V = (1/(mu*N)) * ((mu+omega)*z1 - gamma*z4 + eta),
    eta = -g_prime*z1 + g1*N,

the law `laws.Linearizing`, whose `canonical` form is the immune-feedback
law with g = g_prime - (mu+omega).

The z4 equation uses -(mu+gamma)*z4: the transform leaves the infectious
equation untouched, so gamma (not omega) is the only coefficient
consistent with the plant.

Both fields are written once, as source (`NORMAL_SOURCE`, `ZERO_SOURCE`):
`integrate_normal` and `integrate_zero_dynamics` run the `integrate.rk4`
template with the field (and, for the normal form, the law at every
stage) inlined; see `kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import IntegratorConfig, rk4
from .kernels import FieldSource
from .laws import ControlLaw, ZeroVax
from .model import ModelParams, SeirState

__all__ = [
    "NormalState",
    "to_normal",
    "from_normal",
    "NormalTrajectory",
    "ZeroDynTrajectory",
    "integrate_normal",
    "integrate_zero_dynamics",
]


@dataclass(frozen=True)
class NormalState:
    """Normal-form coordinates: z1 = R, z2 = S+R, z3 = E, z4 = I."""

    z1: float
    z2: float
    z3: float
    z4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.z1, self.z2, self.z3, self.z4)


def to_normal(state: SeirState) -> NormalState:
    return NormalState(z1=state.R, z2=state.S + state.R, z3=state.E, z4=state.I)


def from_normal(z: NormalState) -> SeirState:
    """Inverse transform; total, so z2 < z1 yields S < 0 as-is."""
    return SeirState(S=z.z2 - z.z1, E=z.z3, I=z.z4, R=z.z1)


def _normal_constants(params: ModelParams) -> tuple[float, ...]:
    mu, ga = params.mu, params.gamma
    # Rate constants folded once; (-a)*z rounds exactly like -(a)*z.
    return (-mu, -(mu + params.omega), -(mu + ga), mu + params.sigma, ga,
            params.sigma, params.beta_prime, mu * params.N)


_NORMAL_CONSTS = ("nmu", "nmu_om", "nmu_ga", "mu_si", "ga", "si", "bp", "muN")

# The normal-form field (z1, z2, z3, z4, V) -> rates; V enters only dz1.
# A law reads the back-transformed state (S, E, I, R) = (z2 - z1, z3, z4, z1).
NORMAL_SOURCE = FieldSource(
    name="normal",
    state=("z1", "z2", "z3", "z4"),
    consts=_NORMAL_CONSTS,
    body=("f = bp * ((z2 - z1) * z4)",),
    rates=("nmu_om * z1 + ga * z4 + muN * V",
           "nmu * z2 + ga * z4 - f + muN",
           "f - mu_si * z3",
           "nmu_ga * z4 + si * z3"),
    law_state=("z2 - z1", "z3", "z4", "z1"),
    bind=_normal_constants,
)

# The zero dynamics (output held at z1 = 0) in the normal-form shape: dz1
# is 0 and V is ignored, so z1 stays exactly 0 and the shared 4-component
# stepper integrates (z2, z3, z4). The sum obeys
# d(z2+z3+z4)/dt = mu*(N - (z2+z3+z4)): constant on the sum = N manifold.
ZERO_SOURCE = FieldSource(
    name="zero_dynamics",
    state=("z1", "z2", "z3", "z4"),
    consts=_NORMAL_CONSTS,
    body=("f = bp * (z2 * z4)",),
    rates=("0.0",
           "nmu * z2 + ga * z4 - f + muN",
           "f - mu_si * z3",
           "nmu_ga * z4 + si * z3"),
    law_state=("z2 - z1", "z3", "z4", "z1"),
    bind=_normal_constants,
)


@dataclass(frozen=True)
class NormalTrajectory:
    """Samples of a z-coordinate integration."""

    t: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    z4: np.ndarray
    V: np.ndarray
    params: ModelParams
    law: ControlLaw
    config: IntegratorConfig

    def __len__(self) -> int:
        return self.t.shape[0]

    def states(self) -> np.ndarray:
        return np.column_stack((self.z1, self.z2, self.z3, self.z4))


@dataclass(frozen=True)
class ZeroDynTrajectory:
    """Samples of a zero-dynamics integration."""

    t: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    z4: np.ndarray
    params: ModelParams
    config: IntegratorConfig

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def total(self) -> np.ndarray:
        return self.z2 + self.z3 + self.z4


def integrate_normal(z0: NormalState, params: ModelParams, law: ControlLaw,
                     config: IntegratorConfig) -> NormalTrajectory:
    """Fixed-step RK4 of the normal-form system under a law.

    The integration runs in z, independently of the x-space field, so it
    cross-checks `integrate`. The law is state feedback in x-coordinates;
    it is evaluated at the back-transformed state at every stage, in the
    kernel the same `rk4` template generates for `NORMAL_SOURCE`.
    """
    if config.adaptive:
        raise ValueError("integrate_normal supports fixed-step mode only")
    t, z1, z2, z3, z4, V = rk4(NORMAL_SOURCE, law, params, z0.as_tuple(),
                               config).columns()
    return NormalTrajectory(t=t, z1=z1, z2=z2, z3=z3, z4=z4, V=V,
                            params=params, law=law, config=config)


def integrate_zero_dynamics(z0: tuple[float, float, float], params: ModelParams,
                            config: IntegratorConfig) -> ZeroDynTrajectory:
    """Fixed-step RK4 of the autonomous zero dynamics from (z2, z3, z4)."""
    if config.adaptive:
        raise ValueError("integrate_zero_dynamics supports fixed-step mode only")
    if not all(math.isfinite(v) for v in z0):
        raise ValueError("initial zero-dynamics state must be finite")
    t, _, z2, z3, z4, _ = rk4(ZERO_SOURCE, ZeroVax(), params, (0.0, *z0),
                              config).columns()
    return ZeroDynTrajectory(t=t, z2=z2, z3=z3, z4=z4, params=params,
                             config=config)
