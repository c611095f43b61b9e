from __future__ import annotations

import numpy as np
import pytest

from seirvax import ModelParams, SeirState


@pytest.fixture
def p1() -> ModelParams:
    """The workhorse parameter set used throughout the examples."""
    return ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                       sigma=0.2, gamma=0.2)


@pytest.fixture
def mixed_state() -> SeirState:
    return SeirState(700.0, 100.0, 50.0, 150.0)


def random_conserved_state(rng: np.random.Generator, N: float) -> SeirState:
    """Random nonnegative state scaled to sum exactly-ish to N."""
    w = rng.dirichlet((1.0, 1.0, 1.0, 1.0)) * N
    return SeirState(*map(float, w))


def map_params():
    """The 648-point map: mu x omega x sigma = gamma x 24 beta from 0.25 to
    4 times the threshold (mu+sigma)^2/sigma."""
    for mu in (0.005, 0.01, 0.02):
        for omega in (0.0, 0.02, 0.05):
            for sigma in (0.1, 0.2, 0.3):
                beta_star = (mu + sigma) ** 2 / sigma
                for factor in np.linspace(0.25, 4.0, 24):
                    yield ModelParams(N=1000.0, mu=mu, omega=omega,
                                      beta=float(factor * beta_star),
                                      sigma=sigma, gamma=sigma)
