"""Feedback linearization for output y = R: transform, zero dynamics, synthesis.

The output y = R has relative degree one (V appears in dR/dt with
coefficient mu*N), and the linear change of coordinates

    z1 = R,  z2 = S + R,  z3 = E,  z4 = I

puts the plant in normal form with the input entering only the z1
equation. Holding the output at zero with V = gamma*z4/(mu*N) leaves the
zero dynamics in (z2, z3, z4); their solutions are bounded, which is the
admissibility condition for the linearizing law

    V = (1/(mu*N)) * ((mu+omega)*z1 - gamma*z4 + eta),
    eta = -g_prime*z1 + g1*N,

equal to the immune-feedback law with g = g_prime - (mu+omega).

The z4 equation uses -(mu+gamma)*z4: the transform leaves the infectious
equation untouched, so gamma (not omega) is the only coefficient
consistent with the plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import VaccinationChannelError
from .integrate import IntegratorConfig, rk4
from .laws import ControlLaw, ImmuneFeedback, compile_law
from .model import (Field, ModelParams, Rates, SeirState, StateDerivative,
                    derivative)

__all__ = [
    "NormalState",
    "TransformReport",
    "to_normal",
    "from_normal",
    "to_normal_tangent",
    "transform_jacobian",
    "relative_degree",
    "normal_derivative",
    "zero_dynamics_derivative",
    "zeroing_input",
    "synthesize_linearizing_law",
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


@dataclass(frozen=True)
class TransformReport:
    """Relative degree and well-posedness of the transform.

    input_coefficient is the numerically measured coefficient of V in
    dy/dt (equals mu*N); jacobian_det is d(S,E,I,R)/d(z1,z2,z3,z4) = -1.
    """

    jacobian_det: float
    relative_degree: int
    well_posed: bool
    input_coefficient: float


def to_normal(state: SeirState) -> NormalState:
    return NormalState(z1=state.R, z2=state.S + state.R, z3=state.E, z4=state.I)


def from_normal(z: NormalState) -> SeirState:
    """Inverse transform; total, so z2 < z1 yields S < 0 as-is."""
    return SeirState(S=z.z2 - z.z1, E=z.z3, I=z.z4, R=z.z1)


def to_normal_tangent(d: StateDerivative) -> tuple[float, float, float, float]:
    """Pushforward of a state derivative: (dR, dS+dR, dE, dI)."""
    return (d.dR, d.dS + d.dR, d.dE, d.dI)


def transform_jacobian() -> np.ndarray:
    """Constant matrix d(S,E,I,R)/d(z1,z2,z3,z4)."""
    return np.array([
        [-1.0, 1.0, 0.0, 0.0],   # S = z2 - z1
        [0.0, 0.0, 1.0, 0.0],    # E = z3
        [0.0, 0.0, 0.0, 1.0],    # I = z4
        [1.0, 0.0, 0.0, 0.0],    # R = z1
    ])


def relative_degree(params: ModelParams,
                    probe: SeirState | None = None) -> TransformReport:
    """Measure the relative degree of the output y = R numerically.

    Evaluates dy/dt at V = 0 and V = 1 at a probe state; the difference
    is the input coefficient mu*N, so the input appears after one
    derivative and the relative degree is one wherever mu*N != 0.
    """
    if probe is None:
        probe = SeirState(0.7 * params.N, 0.1 * params.N,
                          0.05 * params.N, 0.15 * params.N)
    coeff = derivative(probe, params, 1.0).dR - derivative(probe, params, 0.0).dR
    det = float(np.linalg.det(transform_jacobian()))
    return TransformReport(
        jacobian_det=det,
        relative_degree=1,
        well_posed=params.mu * params.N != 0.0,
        input_coefficient=coeff,
    )


@lru_cache(maxsize=256)
def _normal_field(params: ModelParams) -> Field:
    """The normal-form field (z1, z2, z3, z4, V) -> rates; V enters only dz1."""
    mu, ga, si, bp = params.mu, params.gamma, params.sigma, params.beta_prime
    muN = mu * params.N
    # Rate constants folded once; (-a)*z rounds exactly like -(a)*z.
    nmu, nmu_om, nmu_ga, mu_si = -mu, -(mu + params.omega), -(mu + ga), mu + si

    def field(z1: float, z2: float, z3: float, z4: float, V: float) -> Rates:
        f = bp * ((z2 - z1) * z4)
        return (nmu_om * z1 + ga * z4 + muN * V,
                nmu * z2 + ga * z4 - f + muN,
                f - mu_si * z3,
                nmu_ga * z4 + si * z3)

    return field


@lru_cache(maxsize=256)
def _zero_field(params: ModelParams) -> Field:
    """The zero dynamics (output held at z1 = 0) in the normal-form shape.

    dz1 is 0 and V is ignored, so z1 stays exactly 0 and the shared
    4-component stepper integrates (z2, z3, z4).
    """
    mu, ga, si, bp = params.mu, params.gamma, params.sigma, params.beta_prime
    muN = mu * params.N
    nmu, nmu_ga, mu_si = -mu, -(mu + ga), mu + si

    def field(z1: float, z2: float, z3: float, z4: float, V: float) -> Rates:
        f = bp * (z2 * z4)
        return (0.0,
                nmu * z2 + ga * z4 - f + muN,
                f - mu_si * z3,
                nmu_ga * z4 + si * z3)

    return field


def normal_derivative(z: NormalState, params: ModelParams,
                      V: float) -> tuple[float, float, float, float]:
    """Normal-form vector field (input appears only in dz1)."""
    return _normal_field(params)(z.z1, z.z2, z.z3, z.z4, V)


def zero_dynamics_derivative(z2: float, z3: float, z4: float,
                             params: ModelParams) -> tuple[float, float, float]:
    """Residual dynamics with the output held at zero (z1 = 0).

    The sum obeys d(z2+z3+z4)/dt = mu*(N - (z2+z3+z4)), so it is constant
    exactly on the sum = N manifold where the output-zeroed plant lives.
    """
    return _zero_field(params)(0.0, z2, z3, z4, 0.0)[1:]


def zeroing_input(z4: float, params: ModelParams) -> float:
    """Input V = -gamma*z4/(mu*N) rendering dz1 identically zero at z1 = 0.

    At z1 = 0 the output equation is dz1 = gamma*z4 + mu*N*V, so the
    cancelling input carries a minus sign (negative vaccination: holding
    the immune population at zero removes immunity as fast as recovery
    adds it).
    """
    muN = params.mu * params.N
    if muN == 0.0:
        raise VaccinationChannelError("vaccination channel gain zero")
    return -params.gamma * z4 / muN


def synthesize_linearizing_law(g_prime: float, g1: float,
                               params: ModelParams) -> ImmuneFeedback:
    """Linearizing law for eta = -g_prime*z1 + g1*N, undone to x-coordinates.

    Returns the immune-feedback law with g = g_prime - (mu+omega); the
    closed loop then obeys dz1/dt = -g_prime*z1 + g1*N, hence
    z1(inf) = g1*N/g_prime for g_prime > 0.
    """
    if not g_prime > 0.0:
        raise ValueError("synthesize_linearizing_law requires g_prime > 0")
    return ImmuneFeedback(g=g_prime - (params.mu + params.omega), g1=g1)


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
    it is evaluated at the back-transformed state and held across each
    step, mirroring the x-space integrator step for step.
    """
    if config.adaptive:
        raise ValueError("integrate_normal supports fixed-step mode only")
    law_fn = compile_law(law, params)

    def control(z1: float, z2: float, z3: float, z4: float, t: float) -> float:
        return law_fn(z2 - z1, z3, z4, z1, t)

    t, z1, z2, z3, z4, V = rk4(_normal_field(params), control, z0.as_tuple(),
                               config).columns()
    return NormalTrajectory(t=t, z1=z1, z2=z2, z3=z3, z4=z4, V=V,
                            params=params, law=law, config=config)


def _no_input(z1: float, z2: float, z3: float, z4: float, t: float) -> float:
    return 0.0


def integrate_zero_dynamics(z0: tuple[float, float, float], params: ModelParams,
                            config: IntegratorConfig) -> ZeroDynTrajectory:
    """Fixed-step RK4 of the autonomous zero dynamics from (z2, z3, z4)."""
    if config.adaptive:
        raise ValueError("integrate_zero_dynamics supports fixed-step mode only")
    if not all(math.isfinite(v) for v in z0):
        raise ValueError("initial zero-dynamics state must be finite")
    t, _, z2, z3, z4, _ = rk4(_zero_field(params), _no_input, (0.0, *z0),
                              config).columns()
    return ZeroDynTrajectory(t=t, z2=z2, z3=z3, z4=z4, params=params,
                             config=config)
