from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from seirvax import ModelParams, SeirState, Trajectory, ZeroVax
from seirvax.kernels import jacobian
from seirvax.laws import law_program
from seirvax.model import SEIR_SOURCE

# One derandomized profile: every property test draws the same examples on
# every run and machine. A test's own @settings fields and @seed still apply.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python():
    """Runs `python *args` as a fresh process that imports the package from
    src/; keyword arguments go to `subprocess.run`, and `env` adds to (or,
    with a value of None, removes from) the inherited environment."""
    def start(*args: str, env: dict | None = None, **kwargs):
        path = os.pathsep.join(filter(None, (str(SRC),
                                             os.environ.get("PYTHONPATH"))))
        merged = {**os.environ, "PYTHONPATH": path, **(env or {})}
        return subprocess.run(
            [sys.executable, *args], timeout=120,
            env={k: v for k, v in merged.items() if v is not None}, **kwargs)
    return start


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


def with_columns(traj: Trajectory, **columns) -> Trajectory:
    """An x-space record with the columns given in place of its own, built
    by `Trajectory.from_columns`, which checks nothing."""
    return Trajectory.from_columns(
        traj.params, traj.law, traj.config,
        **{name: columns.get(name, getattr(traj, name)) for name in traj.names})


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


def closed_loop_jacobian(field, law, params: ModelParams, state, t=0.0) -> np.ndarray:
    """The Jacobian `kernels.jacobian` derives from a field's source under a
    law, at a state tuple and time t."""
    shape, values = law_program(law, params)
    make = jacobian(field, shape)
    return np.array(make(*field.bind(params), *values)(*state, t))


def plant_jacobian(state: SeirState, params: ModelParams) -> np.ndarray:
    """The vaccination-free plant's Jacobian at a state: the closed loop of
    `SEIR_SOURCE` under the zero law, the matrix `analyze` reports."""
    return closed_loop_jacobian(SEIR_SOURCE, ZeroVax(), params, state.as_tuple())


def log_linear_rate(t, values) -> tuple[float, float]:
    """(rate, r^2) of a least-squares fit of log(values) against t, for
    values ~ C*exp(-rate*t) > 0."""
    logv = np.log(values)
    slope = np.polyfit(t, logv, 1)[0]
    return -float(slope), float(np.corrcoef(t, logv)[0, 1] ** 2)
