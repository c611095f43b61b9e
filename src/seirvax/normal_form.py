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
from dataclasses import replace

from .integrator import IntegratorConfig, Trajectory, _record
from .kernels import FieldSource
from .laws import ControlLaw, ZeroVax
from .model import ModelParams, SeirState

__all__ = [
    "to_normal",
    "integrate_normal",
    "integrate_zero_dynamics",
]


def to_normal(state: SeirState) -> tuple[float, float, float, float]:
    """The normal-form coordinates (z1, z2, z3, z4) = (R, S+R, E, I) of a
    state; S = z2 - z1 recovers it."""
    return (state.R, state.S + state.R, state.E, state.I)


def _normal_constants(params: ModelParams) -> tuple[float, ...]:
    mu, ga = params.mu, params.gamma
    # Rate constants folded once; (-a)*z rounds exactly like -(a)*z.
    return (-mu, -(mu + params.omega), -(mu + ga), mu + params.sigma, ga,
            params.sigma, params.beta_prime, mu * params.N)


# The normal-form field (z1, z2, z3, z4, V) -> rates; V enters only dz1.
# A law reads the back-transformed state (S, E, I, R) = (z2 - z1, z3, z4, z1).
NORMAL_SOURCE = FieldSource(
    name="normal-form",
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
ZERO_SOURCE = replace(NORMAL_SOURCE, name="zero-dynamics",
                      rates=("0.0", *NORMAL_SOURCE.rates[1:]))


def integrate_normal(z0: tuple[float, float, float, float],
                     params: ModelParams, law: ControlLaw,
                     config: IntegratorConfig) -> Trajectory:
    """Integrate the normal-form system from z0 = (z1, z2, z3, z4) under a
    law with the config's scheme.

    The integration runs in z, independently of the x-space field, so it
    cross-checks `integrate` under the same config: fixed-step RK4, or the
    Dormand-Prince pair, whose dense output samples the same grid. The law
    is state feedback in x-coordinates; it is evaluated at the
    back-transformed state at every stage, in the kernel the stepper's
    template generates for `NORMAL_SOURCE`. The record's columns are t,
    z1..z4 and V. A start component that is not finite raises ValueError.
    """
    return _record(NORMAL_SOURCE, law, params, tuple(z0), config)


def integrate_zero_dynamics(z0: tuple[float, float, float], params: ModelParams,
                            config: IntegratorConfig) -> Trajectory:
    """Integrate the autonomous zero dynamics from (z2, z3, z4) with the
    config's scheme: fixed-step RK4, or the Dormand-Prince pair, whose
    dense output samples the fixed grid's times. The record's z1 and V
    are exactly 0.0 either way. A start component that is not finite (the
    runner's rule), or is finite and negative, raises ValueError."""
    if any(-math.inf < v < 0.0 for v in z0):
        raise ValueError("initial zero-dynamics state must be nonnegative")
    return _record(ZERO_SOURCE, ZeroVax(), params, (0.0, *z0), config)
