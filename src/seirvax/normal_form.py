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

The normal form is written once, as source (`NORMAL_SOURCE`), and the
zero dynamics (`ZERO_SOURCE`) is derived from it with dz1 set to 0:
`integrate_normal` and `integrate_zero_dynamics` run the stepper the
config selects, as `integrate` does (fixed-step RK4, or the adaptive
Dormand-Prince pair with or without dense output), from the same
templates with the field (and, for the normal form, the law at every
stage) inlined; see `kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .integrate import IntegratorConfig, _solve
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


# The normal-form field (z1, z2, z3, z4, V) -> rates; V enters only dz1.
# A law reads the back-transformed state (S, E, I, R) = (z2 - z1, z3, z4, z1).
NORMAL_SOURCE = FieldSource(
    name="normal",
    state=("z1", "z2", "z3", "z4"),
    consts=("nmu", "nmu_om", "nmu_ga", "mu_si", "ga", "si", "bp", "muN"),
    body=("f = bp * ((z2 - z1) * z4)",),
    rates=("nmu_om * z1 + ga * z4 + muN * V",
           "nmu * z2 + ga * z4 - f + muN",
           "f - mu_si * z3",
           "nmu_ga * z4 + si * z3"),
    law_state=("z2 - z1", "z3", "z4", "z1"),
    bind=_normal_constants,
)

# The zero dynamics (output held at z1 = 0): the normal form with dz1 = 0.
# z1 starts at 0.0 and stays exactly 0.0, so z2 - z1 is z2 bitwise and V
# (ignored) changes nothing; the shared 4-component stepper integrates
# (z2, z3, z4). The sum obeys d(z2+z3+z4)/dt = mu*(N - (z2+z3+z4)):
# constant on the sum = N manifold.
ZERO_SOURCE = replace(NORMAL_SOURCE, name="zero_dynamics",
                      rates=("0.0", *NORMAL_SOURCE.rates[1:]))


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
    """Integrate the normal-form system under a law with the config's scheme.

    The integration runs in z, independently of the x-space field, so it
    cross-checks `integrate` under the same config: fixed-step RK4, or the
    Dormand-Prince pair, whose dense output samples the same grid. The law
    is state feedback in x-coordinates; it is evaluated at the
    back-transformed state at every stage, in the kernel the stepper's
    template generates for `NORMAL_SOURCE`.
    """
    t, z1, z2, z3, z4, V = _solve(NORMAL_SOURCE, law, params, z0.as_tuple(),
                                  config).columns()
    return NormalTrajectory(t=t, z1=z1, z2=z2, z3=z3, z4=z4, V=V,
                            params=params, law=law, config=config)


def integrate_zero_dynamics(z0: tuple[float, float, float], params: ModelParams,
                            config: IntegratorConfig) -> ZeroDynTrajectory:
    """Integrate the autonomous zero dynamics from (z2, z3, z4) with the
    config's scheme: fixed-step RK4, or the Dormand-Prince pair, whose
    dense output samples the fixed grid's times. z1 is held at exactly 0
    either way."""
    if not all(math.isfinite(v) for v in z0):
        raise ValueError("initial zero-dynamics state must be finite")
    t, _, z2, z3, z4, _ = _solve(ZERO_SOURCE, ZeroVax(), params, (0.0, *z0),
                                 config).columns()
    return ZeroDynTrajectory(t=t, z2=z2, z3=z3, z4=z4, params=params,
                             config=config)
