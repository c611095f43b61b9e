"""Deterministic closed-loop integration of the SEIR plant under a law.

The default scheme is classic fixed-step 4th-order Runge-Kutta. The
vaccination fraction V is evaluated from the law at the state at the
start of each step and held constant across the step's internal stages
(zero-order hold): the laws are state feedback, and freezing V per step
keeps runs exactly reproducible. An embedded Dormand-Prince 5(4) pair is
available for adaptive stepping.

Every sample records the applied V and the auxiliary control
u = omega*R - sigma*E - mu*N*V, computed by `model.coupling_control` so
recomputation reproduces stored values bitwise.

`rk4` is the one fixed-step stepper: `integrate` runs it on the x-space
field and `normal_form` on the normal-form and zero-dynamics fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonFiniteStateError
from .laws import ControlLaw, LawFn, compile_law, law_name
from .model import Field, ModelParams, SeirState, coupling_control, seir_field

__all__ = [
    "IntegratorConfig",
    "PositivityEvent",
    "Trajectory",
    "integrate",
    "rk4",
    "positivity_events",
    "EPS_POS_RTOL",
]

# Absolute positivity slack is EPS_POS_RTOL * N: large enough to ignore
# integration roundoff, small enough to expose genuine model violations.
EPS_POS_RTOL = 1e-9

_PROJECTION_LOG_CAP = 10_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window and scheme selection.

    positivity_policy: "report" leaves negative excursions in place for
    the monitors to see (default; clamping would mask bugs), "project"
    clamps negative components to zero after each step and logs the event.
    """

    t_end: float
    t0: float = 0.0
    dt: float = 1e-2
    sampling_stride: int = 1
    positivity_policy: str = "report"
    adaptive: bool = False
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("t0", "t_end", "dt", "rel_tol", "abs_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.dt > 0.0):
            raise ValueError("dt must be > 0")
        if not (self.t_end > self.t0):
            raise ValueError("t_end must be > t0")
        if not (isinstance(self.sampling_stride, numbers.Integral)
                and self.sampling_stride >= 1):
            raise ValueError("sampling_stride must be an integer >= 1")
        if self.positivity_policy not in ("report", "project"):
            raise ValueError("positivity_policy must be 'report' or 'project'")
        if self.adaptive and not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("adaptive mode needs rel_tol > 0 and abs_tol > 0")
        span = self.t_end - self.t0
        if not self.adaptive and abs(self.n_steps * self.dt - span) > 1e-9 * span:
            raise ValueError(
                f"dt = {self.dt!r} does not divide t_end - t0 = {span!r}: "
                f"{self.n_steps} steps end at t = {self.t0 + self.n_steps * self.dt!r}")

    @property
    def n_steps(self) -> int:
        """Number of fixed steps: (t_end - t0)/dt rounded, at least one."""
        return max(1, int(round((self.t_end - self.t0) / self.dt)))


@dataclass(frozen=True)
class PositivityEvent:
    """One negative-component observation (projection log or monitor hit)."""

    t: float
    component: str
    value: float


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of the closed loop, immutable after construction.

    Arrays t, S, E, I, R, V, u share a common length; t is strictly
    increasing and the first sample equals the initial condition at t0.
    """

    t: np.ndarray
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    V: np.ndarray
    u: np.ndarray
    params: ModelParams
    law: ControlLaw
    law_label: str
    config: IntegratorConfig
    projected: tuple[PositivityEvent, ...] = field(default=())
    projected_count: int = 0

    def __len__(self) -> int:
        return self.t.shape[0]

    def state_at(self, i: int) -> SeirState:
        return SeirState(float(self.S[i]), float(self.E[i]),
                         float(self.I[i]), float(self.R[i]))

    def final_state(self) -> SeirState:
        return self.state_at(len(self) - 1)

    def states(self) -> np.ndarray:
        """(n, 4) array of samples in S, E, I, R order."""
        return np.column_stack((self.S, self.E, self.I, self.R))


def _check_initial(state0: SeirState, params: ModelParams) -> None:
    if min(state0.S, state0.E, state0.I, state0.R) < 0.0:
        raise ValueError("initial state components must be >= 0")
    if abs(state0.total - params.N) > 1e-6 * params.N:
        raise ValueError(
            f"initial state sums to {state0.total!r}, expected N = {params.N!r} "
            "within 1e-6 relative")


def integrate(state0: SeirState, params: ModelParams, law: ControlLaw,
              config: IntegratorConfig) -> Trajectory:
    """Integrate the plant closed under `law` over [t0, t_end].

    Raises:
        ValueError: invalid initial state or configuration, or adaptive
            tolerances float64 cannot meet.
        GainConstraintError: law gains violate a required constraint
            (raised by the law's `compile`).
        NonFiniteStateError: a non-finite state appeared; carries the
            diagnostic sample index and time.
    """
    _check_initial(state0, params)
    law_fn = compile_law(law, params)
    rhs = seir_field(params)
    project = config.positivity_policy == "project"

    if config.adaptive:
        samples = _run_dopri45(rhs, law_fn, state0.as_tuple(), params, config,
                               project)
    else:
        samples = rk4(rhs, law_fn, state0.as_tuple(), config, project)

    t, S, E, I, R, V = samples.columns()
    u = coupling_control(SeirState(S, E, I, R), params, V)
    return Trajectory(t=t, S=S, E=E, I=I, R=R, V=V, u=u,
                      params=params, law=law, law_label=law_name(law),
                      config=config, projected=tuple(samples.projected),
                      projected_count=samples.n_projected)


class Samples:
    """Sample buffer of a stepper: rows (t, y0, y1, y2, y3, V).

    `record` refuses a non-finite state or V; `project` clamps negative
    components to zero and logs each one (the log is capped, the count
    is not).
    """

    def __init__(self) -> None:
        self.flat: list[float] = []
        self.projected: list[PositivityEvent] = []
        self.n_projected = 0

    def record(self, t: float, y0: float, y1: float, y2: float, y3: float,
               V: float) -> None:
        if not (math.isfinite(y0 + y1 + y2 + y3) and math.isfinite(V)):
            raise self.non_finite(
                t, "V" if math.isfinite(y0 + y1 + y2 + y3) else "state")
        self.flat.extend((t, y0, y1, y2, y3, V))

    def non_finite(self, t: float, what: str = "state") -> NonFiniteStateError:
        """The error for a non-finite state (or V) at t, at the next
        sample index."""
        index = len(self.flat) // 6
        return NonFiniteStateError(
            f"non-finite {what} at t = {t} (sample index {index})",
            t=t, sample_index=index)

    def project(self, t: float, y: tuple) -> tuple:
        for name, value in zip("SEIR", y):
            if value < 0.0:
                self.n_projected += 1
                if len(self.projected) < _PROJECTION_LOG_CAP:
                    self.projected.append(PositivityEvent(t, name, value))
        return tuple(max(v, 0.0) for v in y)

    def columns(self) -> np.ndarray:
        """(6, n) array: the t, y0..y3 and V columns, each contiguous."""
        return np.array(self.flat, dtype=np.float64).reshape(-1, 6).T.copy()


def rk4(rhs: Field, control: LawFn, y0: tuple, config: IntegratorConfig,
        project: bool = False) -> Samples:
    """Classic fixed-step RK4 of a 4-component field on the config's grid.

    control(y0, y1, y2, y3, t) gives V at the state at the start of each
    step; V is held across the step's four stages (zero-order hold) and
    passed to rhs(y0, y1, y2, y3, V). Samples are recorded at t0, every
    `sampling_stride` steps and at the last step. With `project`, negative
    components are clamped to zero after each step.
    """
    h = config.dt
    half = 0.5 * h
    sixth = h / 6.0
    t0 = config.t0
    n = config.n_steps
    stride = config.sampling_stride
    samples = Samples()
    record, clamp = samples.record, samples.project

    a, b, c, d = y0
    V = control(a, b, c, d, t0)
    record(t0, a, b, c, d, V)
    for k in range(n):
        k1a, k1b, k1c, k1d = rhs(a, b, c, d, V)
        k2a, k2b, k2c, k2d = rhs(a + half * k1a, b + half * k1b,
                                 c + half * k1c, d + half * k1d, V)
        k3a, k3b, k3c, k3d = rhs(a + half * k2a, b + half * k2b,
                                 c + half * k2c, d + half * k2d, V)
        k4a, k4b, k4c, k4d = rhs(a + h * k3a, b + h * k3b,
                                 c + h * k3c, d + h * k3d, V)
        a = a + sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
        b = b + sixth * (k1b + 2.0 * (k2b + k3b) + k4b)
        c = c + sixth * (k1c + 2.0 * (k2c + k3c) + k4c)
        d = d + sixth * (k1d + 2.0 * (k2d + k3d) + k4d)

        t = t0 + (k + 1) * h
        if project and (a < 0.0 or b < 0.0 or c < 0.0 or d < 0.0):
            a, b, c, d = clamp(t, (a, b, c, d))
        # The law is a pure function of (state, t): V at the end of this
        # step is both the recorded value and the next step's held value.
        V = control(a, b, c, d, t)
        if (k + 1) % stride == 0 or k + 1 == n:
            record(t, a, b, c, d, V)
    return samples


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
# 5th-order solution weights (row 7 of A, FSAL) and error weights b5 - b4.
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
         11.0 / 84.0, 0.0)
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
         -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _run_dopri45(rhs: Field, law_fn: LawFn, y: tuple, params: ModelParams,
                 config: IntegratorConfig, project: bool) -> Samples:
    """Embedded Dormand-Prince 5(4) with V held per attempted step."""
    muN = params.mu * params.N
    rtol, atol = config.rel_tol, config.abs_tol
    t0, t_end = config.t0, config.t_end
    stride = config.sampling_stride
    samples = Samples()

    t = t0
    h = min(config.dt, t_end - t0)
    samples.record(t0, *y, law_fn(*y, t0))
    accepted = 0

    while t < t_end:
        h = min(h, t_end - t)
        V = law_fn(*y, t)

        while True:
            ks = []
            for j in range(7):
                yj = y if j == 0 else tuple(
                    y[c] + h * sum(_DP_A[j][m] * ks[m][c] for m in range(j))
                    for c in range(4))
                ks.append(rhs(*yj, V))
            y5 = tuple(y[c] + h * sum(_DP_B[m] * ks[m][c] for m in range(7))
                       for c in range(4))
            err = list(h * sum(_DP_E[m] * ks[m][c] for m in range(7))
                       for c in range(4))
            # The hold of V across the step leaves an O(h) bias the
            # embedded pair cannot see; charge mu*N*|dV|*h/2 against the
            # S and R components so the controller resolves fast feedback.
            hold_err = 0.5 * h * muN * abs(law_fn(*y5, t + h) - V)
            err[0] += math.copysign(hold_err, err[0]) if err[0] else hold_err
            err[3] += math.copysign(hold_err, err[3]) if err[3] else hold_err
            # A finite error too many tolerances wide to square counts as
            # an infinite norm: the step is rejected, and a tolerance that
            # float64 cannot meet ends in the step-size underflow below.
            try:
                norm = math.sqrt(sum(
                    (err[c] / (atol + rtol * max(abs(y[c]), abs(y5[c])))) ** 2
                    for c in range(4)) / 4.0)
            except OverflowError:
                norm = math.inf
            if not math.isfinite(norm) and not math.isfinite(sum(y5) + sum(err)):
                raise samples.non_finite(t + h)
            if norm <= 1.0:
                break
            h *= min(1.0, max(0.2, 0.9 * norm ** -0.2))
            if h <= 1e-14 * max(1.0, abs(t)):
                raise ValueError(
                    f"adaptive step size underflow at t = {t!r}: rel_tol = "
                    f"{rtol!r} and abs_tol = {atol!r} cannot be met in float64")

        t = t_end if t + h >= t_end else t + h
        y = y5
        if project and min(y) < 0.0:
            y = samples.project(t, y)
        accepted += 1
        if accepted % stride == 0 or t >= t_end:
            samples.record(t, *y, law_fn(*y, t))
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0

    return samples


def positivity_events(traj: Trajectory) -> list[PositivityEvent]:
    """Samples where any component dips below -EPS_POS_RTOL*N.

    An empty list means the trajectory is numerically positive.
    """
    eps = EPS_POS_RTOL * traj.params.N
    events: list[PositivityEvent] = []
    for name in ("S", "E", "I", "R"):
        col = getattr(traj, name)
        for idx in np.nonzero(col < -eps)[0]:
            events.append(PositivityEvent(float(traj.t[idx]), name,
                                          float(col[idx])))
    events.sort(key=lambda ev: (ev.t, ev.component))
    return events
