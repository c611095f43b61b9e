"""Core SEIR model under vaccination control.

The plant is the four-compartment SEIR system with constant total
population N, true-mass-action transmission beta*S*I/N and a vaccination
input V entering the susceptible and immune equations with gains -mu*N
and +mu*N:

    dS/dt = -mu*S + omega*R - beta*S*I/N + mu*N*(1 - V)
    dE/dt =  beta*S*I/N - (mu + sigma)*E
    dI/dt = -(mu + gamma)*I + sigma*E
    dR/dt = -(mu + omega)*R + gamma*I + mu*N*V

This module holds the parameter/state types, the vector field, the
admissibility check on initial conditions (Assumption 1, which
`seirvax simulate` reports as an advisory), and the algebraic coupling
u = omega*R - sigma*E - mu*N*V between the vaccination fraction V and
the auxiliary control u, and the two (E, I) modes at E = I = 0.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import FieldSource, function

__all__ = [
    "ModelParams",
    "SeirState",
    "CONSERVATION_RTOL",
    "SEIR_SOURCE",
    "derivative",
    "check_assumption1",
    "coupling_control",
    "infection_modes",
]

Rates = tuple[float, float, float, float]

# Relative tolerance (of the conserved total) of the conservation checks.
# RK4 drift over desk-scale horizons stays well under this.
CONSERVATION_RTOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Constant model parameters.

    Attributes:
        N: total population (individuals, > 0).
        mu: death/birth rate (1/day).
        omega: rate of losing immunity (1/day).
        beta: transmission constant (1/day).
        sigma: inverse average latent period (1/day).
        gamma: inverse average infective period (1/day).
    """

    N: float
    mu: float
    omega: float
    beta: float
    sigma: float
    gamma: float

    def __post_init__(self) -> None:
        values = (self.N, self.mu, self.omega, self.beta, self.sigma, self.gamma)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("model parameters must be finite")
        if self.N <= 0.0:
            raise ValueError("total population N must be > 0")
        if min(self.mu, self.omega, self.beta, self.sigma, self.gamma) < 0.0:
            raise ValueError("rates must be nonnegative")

    @property
    def beta_prime(self) -> float:
        """Per-capita transmission coefficient beta/N."""
        return self.beta / self.N


@dataclass(frozen=True)
class SeirState:
    """One point (S, E, I, R) in population units."""

    S: float
    E: float
    I: float
    R: float

    @property
    def total(self) -> float:
        return self.S + self.E + self.I + self.R

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.S, self.E, self.I, self.R)


# Clause names that `check_assumption1` reports.
CLAUSE_NONNEG = "min(S0, I0, R0) >= 0"
CLAUSE_EXPOSED = "E0 > (mu+gamma)/sigma * I0"
CLAUSE_INCIDENCE = "beta*S0*I0/((mu+sigma)*N) > E0 (only if I0 != 0)"
CLAUSE_SIGMA_ZERO = "sigma zero"
CLAUSE_MU_SIGMA_ZERO = "mu+sigma zero"


def _seir_constants(params: ModelParams) -> tuple[float, ...]:
    return (params.mu, params.omega, params.sigma, params.gamma,
            params.beta_prime, params.mu * params.N)


# The one x-space right-hand side. Shared subexpressions are reused so that
# the coupling terms cancel exactly and the four components sum to zero (up
# to roundoff in the mu-terms) on states with S+E+I+R = N.
SEIR_SOURCE = FieldSource(
    name="seir",
    state=("S", "E", "I", "R"),
    consts=("mu", "om", "si", "ga", "bp", "muN"),
    body=("infection = bp * (S * I)",   # beta*S*I/N, in dS(-) and dE(+)
          "recovery = ga * I",          # gamma*I,    in dI(-) and dR(+)
          "incubation = si * E",        # sigma*E,    in dE(-) and dI(+)
          "waning = om * R",            # omega*R,    in dR(-) and dS(+)
          "vax = muN * V"),             # mu*N*V,     in dS(-) and dR(+)
    rates=("waning - mu * S - infection + (muN - vax)",
           "infection - mu * E - incubation",
           "incubation - mu * I - recovery",
           "recovery + vax - mu * R - waning"),
    law_state=("S", "E", "I", "R"),
    bind=_seir_constants,
)


def derivative(state: SeirState, params: ModelParams, V: float) -> Rates:
    """Right-hand side (dS, dE, dI, dR) of the SEIR equations at V.

    Generated from `SEIR_SOURCE`, the source the integrators inline, so
    `derivative` and the steppers evaluate the same arithmetic. V carries
    no sign or range restriction here: feedback laws may command V > 1
    (range enforcement belongs to the controllers and the verification
    layer).

    Raises:
        ValueError: if any input component or V is not finite.
    """
    S, E, I, R = state.S, state.E, state.I, state.R
    if not (math.isfinite(S) and math.isfinite(E) and math.isfinite(I)
            and math.isfinite(R) and math.isfinite(V)):
        raise ValueError("derivative: non-finite state or V")
    return function(SEIR_SOURCE)(*_seir_constants(params))(S, E, I, R, V)


def check_assumption1(state0: SeirState, params: ModelParams) -> tuple[str, ...]:
    """The clauses of Assumption 1 the initial conditions violate, in order.

    Clauses, evaluated exactly as stated:
      1. min(S0, I0, R0) >= 0
      2. E0 > (mu+gamma)/sigma * I0
      3. beta*S0*I0/((mu+sigma)*N) > E0, required only when I0 != 0
    With sigma = 0 and I0 > 0 the second clause is undefined and is
    reported as violated with reason "sigma zero"; with mu + sigma = 0 and
    I0 != 0 the third is, with reason "mu+sigma zero". An empty tuple
    means the assumption holds.
    """
    S0, E0, I0, R0 = state0.S, state0.E, state0.I, state0.R
    mu, si, ga, be, N = params.mu, params.sigma, params.gamma, params.beta, params.N

    clauses = [(CLAUSE_NONNEG, min(S0, I0, R0) >= 0.0)]

    if si == 0.0:
        if I0 > 0.0:
            clauses.append((CLAUSE_SIGMA_ZERO, False))
        else:
            # I0 = 0: the threshold degenerates to 0, the clause to E0 > 0.
            clauses.append((CLAUSE_EXPOSED, E0 > 0.0))
    else:
        clauses.append((CLAUSE_EXPOSED, E0 > (mu + ga) / si * I0))

    if I0 != 0.0:
        if mu + si == 0.0:
            clauses.append((CLAUSE_MU_SIGMA_ZERO, False))
        else:
            clauses.append((CLAUSE_INCIDENCE, be * S0 * I0 / ((mu + si) * N) > E0))

    return tuple(name for name, ok in clauses if not ok)


def coupling_control(state: SeirState, params: ModelParams, V: float) -> float:
    """Auxiliary control u = omega*R - sigma*E - mu*N*V.

    Elementwise on a state of numpy sample columns, which gives the same
    bits per sample as the scalar expression.
    """
    return params.omega * state.R - params.sigma * state.E - params.mu * params.N * V


def infection_modes(params: ModelParams, s: float) -> tuple[float, float]:
    """The (E, I) eigenvalues -m + d >= -m - d at E = I = 0 and S = s*N, for
    any sigma, gamma: m = mu + (sigma+gamma)/2, d = sqrt(h*h + sigma*beta*s)
    and h = (sigma-gamma)/2."""
    p = params
    m, h = p.mu + (p.sigma + p.gamma) / 2.0, (p.sigma - p.gamma) / 2.0
    d = math.sqrt(h * h + p.sigma * p.beta * s)
    return -m + d, -m - d
