"""Deterministic closed-loop integration of the SEIR plant under a law.

The default scheme is classic fixed-step 4th-order Runge-Kutta. The
vaccination fraction V is evaluated from the law at the state at the
start of each step and held constant across the step's internal stages
(zero-order hold): the laws are state feedback, and freezing V per step
keeps runs exactly reproducible. An embedded Dormand-Prince 5(4) pair is
available for adaptive stepping; like `rk4`, its inner loop is a
straight-line scalar kernel over the four components, with the tableau
unpacked into locals.

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
from .laws import ControlLaw, LawFn, compile_law
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
            (raised by `compile_law`).
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
                      params=params, law=law, config=config,
                      projected=tuple(samples.projected),
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


# Dormand-Prince 5(4) tableau (Dormand & Prince 1980): the stage rows of A,
# whose last row is also the 5th-order weights (FSAL), and the error
# weights b5 - b4. `_run_dopri45` unpacks these; nothing else reads them.
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
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
         -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _run_dopri45(rhs: Field, law_fn: LawFn, y: tuple, params: ModelParams,
                 config: IntegratorConfig, project: bool) -> Samples:
    """Embedded Dormand-Prince 5(4) with V held per attempted step.

    A straight-line kernel: every stage, the 5th-order update and the
    error estimate are written out term by term, in the order of a
    left-to-right sum over the tableau row that starts from 0.0. Terms
    with a zero coefficient are left out: after the leading 0.0 the
    running sum is never -0.0, so adding a signed zero cannot change it.
    The first stage is evaluated once per accepted step, since a rejected
    attempt changes neither y nor V.
    """
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    muN = params.mu * params.N
    rtol, atol = config.rel_tol, config.abs_tol
    t0, t_end = config.t0, config.t_end
    stride = config.sampling_stride
    samples = Samples()
    copysign, isfinite, sqrt = math.copysign, math.isfinite, math.sqrt

    t = t0
    h = min(config.dt, t_end - t0)
    a, b, c, d = y
    V = law_fn(a, b, c, d, t0)
    samples.record(t0, a, b, c, d, V)
    accepted = 0

    while t < t_end:
        h = min(h, t_end - t)
        k1a, k1b, k1c, k1d = rhs(a, b, c, d, V)

        while True:
            k2a, k2b, k2c, k2d = rhs(
                a + h * (0.0 + a21 * k1a), b + h * (0.0 + a21 * k1b),
                c + h * (0.0 + a21 * k1c), d + h * (0.0 + a21 * k1d), V)
            k3a, k3b, k3c, k3d = rhs(
                a + h * (0.0 + a31 * k1a + a32 * k2a),
                b + h * (0.0 + a31 * k1b + a32 * k2b),
                c + h * (0.0 + a31 * k1c + a32 * k2c),
                d + h * (0.0 + a31 * k1d + a32 * k2d), V)
            k4a, k4b, k4c, k4d = rhs(
                a + h * (0.0 + a41 * k1a + a42 * k2a + a43 * k3a),
                b + h * (0.0 + a41 * k1b + a42 * k2b + a43 * k3b),
                c + h * (0.0 + a41 * k1c + a42 * k2c + a43 * k3c),
                d + h * (0.0 + a41 * k1d + a42 * k2d + a43 * k3d), V)
            k5a, k5b, k5c, k5d = rhs(
                a + h * (0.0 + a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a),
                b + h * (0.0 + a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b),
                c + h * (0.0 + a51 * k1c + a52 * k2c + a53 * k3c + a54 * k4c),
                d + h * (0.0 + a51 * k1d + a52 * k2d + a53 * k3d + a54 * k4d),
                V)
            k6a, k6b, k6c, k6d = rhs(
                a + h * (0.0 + a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a
                         + a65 * k5a),
                b + h * (0.0 + a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b
                         + a65 * k5b),
                c + h * (0.0 + a61 * k1c + a62 * k2c + a63 * k3c + a64 * k4c
                         + a65 * k5c),
                d + h * (0.0 + a61 * k1d + a62 * k2d + a63 * k3d + a64 * k4d
                         + a65 * k5d),
                V)
            # The 5th-order solution is also the 7th stage's argument.
            ya = a + h * (0.0 + a71 * k1a + a73 * k3a + a74 * k4a + a75 * k5a
                          + a76 * k6a)
            yb = b + h * (0.0 + a71 * k1b + a73 * k3b + a74 * k4b + a75 * k5b
                          + a76 * k6b)
            yc = c + h * (0.0 + a71 * k1c + a73 * k3c + a74 * k4c + a75 * k5c
                          + a76 * k6c)
            yd = d + h * (0.0 + a71 * k1d + a73 * k3d + a74 * k4d + a75 * k5d
                          + a76 * k6d)
            k7a, k7b, k7c, k7d = rhs(ya, yb, yc, yd, V)
            ea = h * (0.0 + e1 * k1a + e3 * k3a + e4 * k4a + e5 * k5a
                      + e6 * k6a + e7 * k7a)
            eb = h * (0.0 + e1 * k1b + e3 * k3b + e4 * k4b + e5 * k5b
                      + e6 * k6b + e7 * k7b)
            ec = h * (0.0 + e1 * k1c + e3 * k3c + e4 * k4c + e5 * k5c
                      + e6 * k6c + e7 * k7c)
            ed = h * (0.0 + e1 * k1d + e3 * k3d + e4 * k4d + e5 * k5d
                      + e6 * k6d + e7 * k7d)
            # The hold of V across the step leaves an O(h) bias the
            # embedded pair cannot see; charge mu*N*|dV|*h/2 against the
            # S and R components so the controller resolves fast feedback.
            V_end = law_fn(ya, yb, yc, yd, t + h)
            hold_err = 0.5 * h * muN * abs(V_end - V)
            ea += copysign(hold_err, ea) if ea else hold_err
            ed += copysign(hold_err, ed) if ed else hold_err
            # A finite error too many tolerances wide to square counts as
            # an infinite norm: the step is rejected, and a tolerance that
            # float64 cannot meet ends in the step-size underflow below.
            try:
                norm = sqrt((0.0
                             + (ea / (atol + rtol * max(abs(a), abs(ya)))) ** 2
                             + (eb / (atol + rtol * max(abs(b), abs(yb)))) ** 2
                             + (ec / (atol + rtol * max(abs(c), abs(yc)))) ** 2
                             + (ed / (atol + rtol * max(abs(d), abs(yd)))) ** 2)
                            / 4.0)
            except OverflowError:
                norm = math.inf
            if not isfinite(norm) and not isfinite(
                    (0.0 + ya + yb + yc + yd) + (0.0 + ea + eb + ec + ed)):
                raise samples.non_finite(t + h)
            if norm <= 1.0:
                break
            h *= min(1.0, max(0.2, 0.9 * norm ** -0.2))
            if h <= 1e-14 * max(1.0, abs(t)):
                raise ValueError(
                    f"adaptive step size underflow at t = {t!r}: rel_tol = "
                    f"{rtol!r} and abs_tol = {atol!r} cannot be met in float64")

        # The law is a pure function of (state, t): V_end is both the
        # recorded value and the next step's held value, unless the step
        # is clamped to t_end or projected.
        t += h
        a, b, c, d, V = ya, yb, yc, yd, V_end
        if t >= t_end:
            t = t_end
            V = law_fn(a, b, c, d, t)
        if project and min(a, b, c, d) < 0.0:
            a, b, c, d = samples.project(t, (a, b, c, d))
            V = law_fn(a, b, c, d, t)
        accepted += 1
        if accepted % stride == 0 or t >= t_end:
            samples.record(t, a, b, c, d, V)
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
