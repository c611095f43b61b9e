"""Deterministic closed-loop integration of the SEIR plant under a law.

The feedback is continuous: the law's V is evaluated at every stage of
both schemes, so under any catalogue law the fixed-step scheme is the
classic 4th-order Runge-Kutta method and the adaptive one the embedded
Dormand-Prince 5(4) pair with exact FSAL (Hairer, Norsett & Wanner,
Solving ODEs I, II.1-II.4; Dormand & Prince 1980).

Both steppers are written once each as templates (`_RK4`, `_DOPRI`, the
Dormand-Prince sums and stage times generated from `_DP_A`, `_DP_C` and
`_DP_E`), and `kernels.kernel` compiles one straight-line kernel per
vector field and law shape, with the field and the law's V expression
inlined at every stage: a step makes no Python call per stage. A kernel
is compiled on first use and cached (about 1-2 ms for RK4 and 3 ms for
Dormand-Prince); gains and parameters are its arguments, so a new draw
reuses it. On a 2-core x86 host with Python 3.11 an RK4 step costs about
2.3 us (four law and four field evaluations) and an accepted
Dormand-Prince step about 11 us (six of each).

With `dense` the adaptive pair samples the fixed grid instead of its own
steps: one more block of `_DOPRI`, after an accepted step, writes every
grid time the step covers from the pair's 4th-order continuous extension
(`_DP_P`; Shampine 1986, Hairer, Norsett & Wanner II.6). On the shipped
scenario (1200 days, 12001 samples, same host) that is 330 steps in
11-17 ms, against 120000 RK4 steps in 215-255 ms, within 2.0e-6 of
DOP853 at rtol 1e-13.

Samples go to a float64 buffer, one per run: RK4 allocates it once at
its final size, known from the config, and writes each row in place;
the adaptive pair, whose sample count is not known in advance, appends.
Finiteness is checked once over the buffer at the end (and when the
adaptive pair sees a non-finite error). The record, a `Trajectory`,
keeps that buffer, t, the state and the applied V of every sample; its
numpy columns are read-only views into it, made on first access, and the
auxiliary control u is computed from them where it is read. numpy is
imported where columns are read, and by the check only where a value may
not be finite, so a run whose columns are never read (`zerodyn`) loads no
numpy unless a value is not finite or above 2**1009.

`_solve` is the one runner: it binds the law, opens the sample buffer
and calls the config's kernel, for every field, and `_record` refuses a
start that is not finite, then checks its buffer and returns the
record. `integrate` runs it on the x-space field
and `normal_form` on the normal-form and zero-dynamics fields, so each of
them runs fixed, adaptive or dense and returns the same record.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .exceptions import NonFiniteStateError
from .kernels import FieldSource, kernel
from .laws import ControlLaw, law_program
from .model import SEIR_SOURCE, ModelParams, SeirState, coupling_control

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "MAX_STEPS",
]

# The most steps a run may take: the fixed grid's step count, or the
# adaptive pair's attempted steps. About four minutes of RK4 at 2.3 us a
# step (2-core x86 host); the shipped scenario takes 1.2e5.
MAX_STEPS = 10**8


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window [t0, t_end] and scheme; every run records t0
    and t_end. Fixed-step (the default): RK4 with step `dt`, recording
    every `sampling_stride`-th step. `adaptive`: the Dormand-Prince pair
    from a first trial step `dt` (at most t_end - t0) to `rel_tol` and
    `abs_tol`, read in no other mode, recording every
    `sampling_stride`-th accepted step. `dense`, only with `adaptive`:
    the same steps, recorded at every `sampling_stride`-th time of the
    grid t0 + k*dt. A fixed step or a dense grid's spacing `dt` must
    divide t_end - t0.
    """

    t_end: float
    t0: float = 0.0
    dt: float = 1e-2
    sampling_stride: int = 1
    adaptive: bool = False
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    dense: bool = False

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
        if self.dense and not self.adaptive:
            raise ValueError("dense output needs adaptive = on: the fixed-step "
                             "run already samples its grid")
        if self.adaptive:
            if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
                raise ValueError("adaptive mode needs rel_tol > 0 and abs_tol > 0")
            if not self.dense:
                return
        # the fixed grid: the steps of a fixed run, the samples of a dense one
        span = self.t_end - self.t0
        # the float ratio, before `n_steps` converts it (or an inf) to an int
        if span / self.dt > MAX_STEPS:
            raise ValueError(
                f"dt = {self.dt!r} gives {span / self.dt:.3g} steps over "
                f"t_end - t0 = {span!r}, above the step bound "
                f"MAX_STEPS = {MAX_STEPS}")
        if abs(self.n_steps * self.dt - span) > 1e-9 * span:
            raise ValueError(
                f"dt = {self.dt!r} does not divide t_end - t0 = {span!r}: "
                f"{self.n_steps} steps end at t = {self.t0 + self.n_steps * self.dt!r}")

    @property
    def n_steps(self) -> int:
        """Steps of the fixed grid: (t_end - t0)/dt rounded, at least one."""
        return max(1, int(round((self.t_end - self.t0) / self.dt)))


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of a closed-loop run, immutable after
    construction.

    `rows` is the buffer the stepper wrote, one row (t, y0..y3, V) per
    sample; `names` names its columns, t, the field's state and V (t, S,
    E, I, R, V in x-space, t, z1..z4, V in normal-form coordinates). A
    column is an attribute by its name, a read-only float64 view into the
    buffer (strided, not a copy): the first one read makes them all, once.
    `states()` is the same kind of view. `len()`, `values` and `==` (the
    buffer and the run's inputs) need no numpy. t is strictly increasing
    and the first sample is the initial condition at t0; negative
    excursions stay in the samples for `monitor_positivity`.
    """

    rows: array = field(repr=False)
    params: ModelParams
    law: ControlLaw
    config: IntegratorConfig
    names: tuple[str, ...] = ("t", *SEIR_SOURCE.state, "V")

    @classmethod
    def from_columns(cls, params: ModelParams, law: ControlLaw,
                     config: IntegratorConfig, *, t, S, E, I, R,
                     V) -> Trajectory:
        """The x-space record of the columns given, interleaved into rows
        as a stepper writes them. Nothing is checked: a non-finite value
        reaches the checks as given."""
        import numpy as np
        table = np.column_stack([np.asarray(c, dtype=np.float64)
                                 for c in (t, S, E, I, R, V)])
        rows = array("d")
        rows.frombytes(memoryview(table).cast("B"))
        return cls(rows, params, law, config)

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only for a name the instance does not hold yet: a
        # column, which is made with the others and kept.
        names = self.__dict__.get("names", ())
        if name not in names:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(zip(names, _table(self.rows).T))
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        # The fields only: the columns are views of `rows`, made again
        # on first access after a copy or a pickle round trip.
        return {name: self.__dict__[name]
                for name in ("rows", "params", "law", "config", "names")}

    def __len__(self) -> int:
        return len(self.rows) // len(self.names)

    def values(self, name: str) -> array:
        """The column `name` as an `array('d')`, built without numpy."""
        return self.rows[self.names.index(name)::len(self.names)]

    def states(self) -> np.ndarray:
        """(n, 4) read-only view of the state samples, in the field's
        order."""
        return _table(self.rows)[:, 1:5]

    @property
    def u(self) -> np.ndarray:
        """u = omega*R - sigma*E - mu*N*V at every sample; an x-space
        record's only."""
        return coupling_control(SeirState(self.S, self.E, self.I, self.R),
                                self.params, self.V)


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

    The record holds t, S, E, I, R and V; its `u` is computed from them.

    Raises:
        ValueError: invalid initial state or configuration, or adaptive
            tolerances float64 cannot meet.
        GainConstraintError: law gains violate a required constraint
            (raised by `laws.law_program`).
        NonFiniteStateError: a non-finite state appeared; carries the
            diagnostic sample index and time.
    """
    _check_initial(state0, params)
    return _record(SEIR_SOURCE, law, params, state0.as_tuple(), config)


def _record(field: FieldSource, law: ControlLaw, params: ModelParams,
            y0: tuple, config: IntegratorConfig) -> Trajectory:
    """The checked record of `_solve`'s run, its columns named after the
    field's state; a start that is not finite is refused before a step."""
    if not all(map(math.isfinite, y0)):
        raise ValueError(f"initial {field.name} state must be finite")
    samples = _solve(field, law, params, y0, config)
    samples.check()
    return Trajectory(samples.rows, params, law, config,
                      ("t", *field.state, "V"))


def _solve(field: FieldSource, law: ControlLaw, params: ModelParams,
           y0: tuple, config: IntegratorConfig) -> Samples:
    """Integrate `field` closed under `law` with the config's scheme, the
    law evaluated at every stage's state (at `field.law_state`, its S, E,
    I, R in the field's coordinates).

    Fixed-step: classic RK4 on the grid. Adaptive: the embedded
    Dormand-Prince 5(4) pair with local extrapolation (the 5th-order
    solution is kept), an RMS error norm over the four components and the
    step controller h *= clip(0.9 * norm^-1/5) within [0.2, 5] (within
    [0.2, 1] after a rejection). A step that would pass t_end is shortened
    to end exactly on it. More than `MAX_STEPS` attempted steps raise
    ValueError, and so does a stiff run (the stiffness test of Hairer &
    Wanner, Solving ODEs II, IV.2, from stages the pair already computed)
    as soon as the steps it has left at the current step size exceed the
    attempts left under the bound: `zerodyn` at mu = 1e9 exits in about
    0.02 s on a 2-core x86 host, not after 1e8 steps.
    """
    shape, values = law_program(law, params)
    stride, times = config.sampling_stride, iter(())
    if config.dense:   # adaptive only; no run accepts MAX_STEPS + 1
        # steps, so only t0 and t_end are recorded at step ends
        stride = MAX_STEPS + 1
        times = (config.t0 + k * config.dt
                 for k in range(config.sampling_stride, config.n_steps,
                                config.sampling_stride))
    if config.adaptive:
        samples = Samples()
        template, lead = _DOPRI, (
            config.t0, config.t_end, min(config.dt, config.t_end - config.t0),
            config.rel_tol, config.abs_tol, stride, times, samples.rows,
            samples.non_finite, MAX_STEPS)
    else:
        # t0, every stride-th step and the last one
        n = config.n_steps
        samples = Samples(1 + n // stride + (n % stride > 0))
        template, lead = _RK4, (config.t0, config.dt, n, stride, samples.rows)
    kernel(template, field, shape)(*y0, *lead, *field.bind(params), *values)
    return samples


class Samples:
    """Sample buffer of a stepper: rows (t, y0, y1, y2, y3, V) in `rows`.

    `rows` starts empty, or as `count` zero rows for a kernel that knows
    its sample count and writes each row in place. The kernels write rows
    unchecked; `check` refuses a non-finite state or V.
    """

    def __init__(self, count: int = 0) -> None:
        self.rows = array("d", [0.0]) * (6 * count)

    def check(self) -> None:
        """Raise NonFiniteStateError at the first row with a non-finite
        state or V.

        The pass that finds the rows finite needs no numpy: it reads the
        byte of each float64 that holds the sign and the exponent's top
        seven bits, 0x7f or 0xff for every inf and NaN and for finite
        values only from 2**1009 (about 5.5e303) up. numpy locates the
        first bad row only where such a byte is found.
        """
        top = self.rows.tobytes()[_SIGN_BYTE::8]
        if b"\x7f" not in top and b"\xff" not in top:
            return
        import numpy as np
        data = _table(self.rows)
        finite = np.isfinite(data)
        if finite.all():
            return
        index = int(np.argmin(finite[:, 1:].all(axis=1)))
        what = "V" if finite[index, 1:5].all() else "state"
        t = float(data[index, 0])
        raise NonFiniteStateError(
            f"non-finite {what} at t = {t} (sample index {index})",
            t=t, sample_index=index)

    def non_finite(self, t: float) -> NonFiniteStateError:
        """The error for a non-finite state at t, at the next sample
        index, unless a recorded sample is already non-finite."""
        self.check()
        index = len(self.rows) // 6
        return NonFiniteStateError(
            f"non-finite state at t = {t} (sample index {index})",
            t=t, sample_index=index)


# The index of a float64's sign-and-exponent byte in the buffer's native
# byte order.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _table(rows: array) -> np.ndarray:
    """(n, 6) read-only float64 view of sample rows (t, y0..y3, V)."""
    import numpy as np
    table = np.frombuffer(rows, dtype=np.float64).reshape(-1, 6)
    table.flags.writeable = False
    return table


# Classic RK4 with the law at every stage. V at the end of a step is both
# the recorded value and the first stage's input of the next step. `out`
# holds every sample row already; row j is written at byte 48 * j.
_RK4 = """\
def rk4(y0, y1, y2, y3, t0, h, n, stride, out, {args}):
    half = 0.5 * h
    sixth = h / 6.0
    t = t0
    @V = law(y, t)
    row_into(out, 0, t, y0, y1, y2, y3, V)
    at = 48
    for k in range(1, n + 1):
        @k1 = field(y, V)
        s{c} = y{c} + half * k1_{c}
        @V = law(s, t + half)
        @k2 = field(s, V)
        s{c} = y{c} + half * k2_{c}
        @V = law(s, t + half)
        @k3 = field(s, V)
        s{c} = y{c} + h * k3_{c}
        @V = law(s, t + h)
        @k4 = field(s, V)
        y{c} = y{c} + sixth * (k1_{c} + 2.0 * k2_{c} + 2.0 * k3_{c} + k4_{c})
        t = t0 + k * h
        @V = law(y, t)
        if k % stride == 0 or k == n:
            row_into(out, at, t, y0, y1, y2, y3, V)
            at += 48
"""


# Dormand-Prince 5(4) tableau (Dormand & Prince 1980): the stage rows of A,
# whose last row is also the 5th-order weights (FSAL), the stage times c
# and the error weights b5 - b4. `_dopri_sums` writes the kernel's sums
# from these.
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
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
         -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# The pair's 4th-order continuous extension (Shampine 1986; Hairer,
# Norsett & Wanner, Solving ODEs I, II.6): the weight of stage i at
# theta = (tau - t)/h in [0, 1] is b_i(theta) = sum(_DP_P[i][j] *
# theta^(j+1)), so y(tau) ~ y + h * sum(b_i(theta) * k_i); at theta = 1 the
# weights are the 5th-order ones, the last row of `_DP_A`.
_DP_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
)


def _dopri_sums(template: str) -> str:
    """Write the Dormand-Prince sums and stage times into `template`.

    `<A j>` is sum(a[j][m] * k<m+1>), `<E>` is sum(e[m] * k<m+1>) and
    `<P j>` is sum(p[m][j] * k<m+1>), in the order of a left-to-right sum
    that starts from 0.0. Terms with a zero coefficient are left out:
    after the leading 0.0 the running sum is never -0.0, so adding a
    signed zero cannot change it. `<T j>` is the time of stage j + 1.
    """
    def dot(coeffs):
        return " + ".join(["0.0"] + [f"{w!r} * k{m + 1}_{{c}}"
                                     for m, w in enumerate(coeffs) if w])
    for j, row in enumerate(_DP_A):
        template = template.replace(f"<A {j}>", dot(row))
    for j, c in enumerate(_DP_C):
        template = template.replace(f"<T {j}>", f"t + {c!r} * h")
    for j, column in enumerate(zip(*_DP_P)):
        template = template.replace(f"<P {j}>", dot(column))
    return template.replace("<E>", dot(_DP_E))


# The FSAL property: the last stage is the field at the accepted solution,
# so it is the next step's first stage. `times` yields the dense output
# times in increasing order; an empty one leaves `t_out` infinite, and the
# dense block costs one comparison per accepted step.
_DOPRI = _dopri_sums("""\
def dopri(y0, y1, y2, y3, t, t_end, h, rtol, atol, stride, times, out, fail,
          max_steps, {args}):
    record = out.frombytes
    @V = law(y, t)
    record(row(t, y0, y1, y2, y3, V))
    @k1 = field(y, V)
    t_out = next(times, inf)
    accepted = 0
    attempts = 0
    stiff = calm = 0
    while t < t_end:
        h = min(h, t_end - t)
        while True:
            attempts += 1
            if attempts > max_steps:
                raise ValueError(
                    f"adaptive run stopped at the step bound MAX_STEPS = "
                    f"{{max_steps}} attempted steps, at t = {{t!r}} of "
                    f"t_end = {{t_end!r}}")
            s{c} = y{c} + h * (<A 1>)
            @V = law(s, <T 1>)
            @k2 = field(s, V)
            s{c} = y{c} + h * (<A 2>)
            @V = law(s, <T 2>)
            @k3 = field(s, V)
            s{c} = y{c} + h * (<A 3>)
            @V = law(s, <T 3>)
            @k4 = field(s, V)
            s{c} = y{c} + h * (<A 4>)
            @V = law(s, <T 4>)
            @k5 = field(s, V)
            s{c} = y{c} + h * (<A 5>)
            @V = law(s, <T 5>)
            @k6 = field(s, V)
            z{c} = y{c} + h * (<A 6>)
            @V = law(z, t + h)
            @k7 = field(z, V)
            e{c} = h * (<E>)
            # A finite error too many tolerances wide to square counts as
            # an infinite norm: the step is rejected, and a tolerance that
            # float64 cannot meet ends in the step-size underflow below.
            try:
                norm = sqrt((0.0
                             + (e0 / (atol + rtol * max(abs(y0), abs(z0)))) ** 2
                             + (e1 / (atol + rtol * max(abs(y1), abs(z1)))) ** 2
                             + (e2 / (atol + rtol * max(abs(y2), abs(z2)))) ** 2
                             + (e3 / (atol + rtol * max(abs(y3), abs(z3)))) ** 2)
                            / 4.0)
            except OverflowError:
                norm = inf
            if not isfinite(norm) and not isfinite(
                    (0.0 + z0 + z1 + z2 + z3) + (0.0 + e0 + e1 + e2 + e3)):
                raise fail(t + h)
            if norm <= 1.0:
                break
            h *= min(1.0, max(0.2, 0.9 * norm ** -0.2))
            if h <= 1e-14 * max(1.0, abs(t)):
                raise ValueError(
                    f"adaptive step size underflow at t = {{t!r}}: rel_tol = "
                    f"{{rtol!r}} and abs_tol = {{atol!r}} cannot be met in float64")
        accepted += 1
        # A step that reaches t_end ends exactly on it, also the step cut
        # to end there whose t + h rounds below it.
        t_next = t + h
        if t_next >= t_end or h >= t_end - t:
            t_next = t_end
        # Stiffness test (Hairer & Wanner, Solving ODEs II, IV.2): stages
        # 6 and 7 are both at t + h, so h * |k7 - k6| / |z - s| estimates
        # h * |lambda| for the dominant eigenvalue, which the pair's
        # stability region bounds by about 3.3. It runs every 1000th
        # accepted step, and every step while `stiff` counts values above
        # 3.25 since the last six in a row at or below it. From 15 such
        # values on, a run whose steps left at this h exceed the attempts
        # left under `max_steps` is refused now rather than at the bound.
        if stiff or accepted % 1000 == 0:
            d{c} = k7_{c} - k6_{c}
            w{c} = z{c} - s{c}
            den = w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3
            if den > 0.0 and h * sqrt((d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)
                                      / den) > 3.25:
                stiff += 1
                calm = 0
            else:
                calm += 1
                if calm == 6:
                    stiff = 0
            if stiff >= 15 and (t_end - t_next) / h > max_steps - attempts:
                raise ValueError(
                    f"stiff problem beyond the step bound MAX_STEPS = "
                    f"{{max_steps}}: at t = {{t_next!r}} the explicit "
                    f"Dormand-Prince pair needs about {{(t_end - t_next) / h:.3g}} "
                    f"more steps of h = {{h!r}} to reach t_end = {{t_end!r}}, "
                    f"more than the {{max_steps - attempts}} attempts left")
        # Dense output at every output time in [t, t_next), the step's
        # continuous extension gathered per power of theta:
        # y + h * sum(theta^j * q<j>), q<j> = sum(_DP_P[i][j-1] * k<i+1>).
        if t_out < t_next:
            q1_{c} = <P 0>
            q2_{c} = <P 1>
            q3_{c} = <P 2>
            q4_{c} = <P 3>
            while t_out < t_next:
                th = (t_out - t) / h
                s{c} = y{c} + h * (th * (q1_{c} + th * (q2_{c} + th * (q3_{c} + th * q4_{c}))))
                @v = law(s, t_out)
                record(row(t_out, s0, s1, s2, s3, v))
                t_out = next(times, inf)
        t = t_next
        y{c} = z{c}
        if t == t_end:
            @V = law(y, t)
        k1_{c} = k7_{c}
        if accepted % stride == 0 or t >= t_end:
            record(row(t, y0, y1, y2, y3, V))
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0
""")
