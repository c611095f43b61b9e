"""Trajectory-level verification: conservation, positivity, identities, limits.

Checks are deterministic, read-only and idempotent over immutable
trajectories. Each returns a Check with the worst residual, its
location and the tolerance applied; the Check derives its verdict,
worst <= tolerance, so a NaN that reaches the worst value fails.
Each check imports numpy where it runs, so `Check` and
`VerificationReport` load without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

from .exceptions import HorizonError
from .integrator import Trajectory
from .laws import (AsymptoticPrediction, ControlLaw, ImmuneFeedback, Saturated,
                   corollary1_upper_bound, predicted_limits)
from .model import CONSERVATION_RTOL, ModelParams, SeirState

__all__ = [
    "CHECK_NAMES",
    "V_RANGE",
    "Check",
    "VerificationReport",
    "monitor_conservation",
    "monitor_positivity",
    "check_identity_suite",
    "check_asymptotics",
    "check_integral_limit",
    "refuse_options",
]

# Absolute positivity slack is _EPS_POS_RTOL * N: large enough to ignore
# integration roundoff, small enough to expose genuine model violations.
_EPS_POS_RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    """One named verification outcome; passed iff worst <= tolerance (NaN fails)."""

    name: str
    worst: float
    tolerance: float
    location_t: Optional[float] = None
    details: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.worst <= self.tolerance))


@dataclass(frozen=True)
class VerificationReport:
    """A bundle of checks with an overall verdict."""

    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            loc = "" if c.location_t is None else f" at t={c.location_t:g}"
            out.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
                       f"worst={c.worst:.6g} tol={c.tolerance:.6g}{loc}")
        return out


def monitor_conservation(traj: Trajectory) -> Check:
    """Worst |S+E+I+R - N| over the samples against CONSERVATION_RTOL*N."""
    import numpy as np
    N = traj.params.N
    drift = np.abs(traj.S + traj.E + traj.I + traj.R - N)
    k = int(np.argmax(drift))
    return Check("conservation", float(drift[k]), CONSERVATION_RTOL * N,
                 float(traj.t[k]))


# Check name -> {option: type} of its options, the keyword arguments of
# its check function; a tuple type lists the accepted strings. A scenario's
# [checks.<name>] section takes the same options, and `refuse_options`
# judges both. V_RANGE holds positivity's V bounds when none is given.
CHECK_NAMES = {
    "conservation": {},
    "positivity": {"v_lo": float, "v_hi": float, "bounds": ("corollary1",),
                   "alpha": float},
    "identities": {},
    "asymptotics": {"tail_fraction": float, "rel_tol": float},
    "integral_limit": {"rel_tol": float},
}
V_RANGE = (0.0, 1.0)


def refuse_options(opts: dict, where: str = "") -> None:
    """Refuse check options with which no run gets a verdict, in a one-line
    ValueError that names the option and `where` (" in [section]" for a
    scenario file's options). An option set to None is not given.

    Refused: a rel_tol that is not finite and > 0, a tail_fraction outside
    (0, 1), a NaN V bound or alpha, an infinite alpha (it makes the
    Corollary 1 bound infinite or NaN; an infinite V bound is kept: it
    bounds nothing), bounds other than corollary1, v_lo or v_hi with
    bounds and alpha without it (they would be dropped), and v_lo above
    v_hi, a bound not given read from V_RANGE.
    """
    opts = {key: value for key, value in opts.items() if value is not None}
    for key, value in opts.items():
        bad = f"option {key!r}{where}"
        if key == "rel_tol" and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{bad}: {value!r} is not finite and > 0")
        if key == "tail_fraction" and not 0.0 < value < 1.0:
            raise ValueError(f"{bad}: {value!r} is not in (0, 1)")
        if key in ("v_lo", "v_hi", "alpha") and math.isnan(value):
            raise ValueError(f"{bad}: {value!r} is not a number")
        if key == "alpha" and not math.isfinite(value):
            raise ValueError(f"{bad}: {value!r} is not finite")
        if key == "bounds" and value not in CHECK_NAMES["positivity"][key]:
            raise ValueError(f"unknown V bounds {value!r}; known: 'corollary1'")
        if key in ("v_lo", "v_hi") and "bounds" in opts:
            raise ValueError(f"{bad} has no effect with bounds = corollary1")
        if key == "alpha" and "bounds" not in opts:
            raise ValueError(f"{bad} has no effect without bounds = corollary1")
    v_lo, v_hi = (opts.get(key, default)
                  for key, default in zip(("v_lo", "v_hi"), V_RANGE))
    if v_lo > v_hi:
        raise ValueError(f"options{where}: v_lo = {v_lo!r} is above "
                         f"v_hi = {v_hi!r}")


def _excess(x: float) -> float:
    """max(0, x), with a NaN kept as NaN."""
    return 0.0 if x <= 0.0 else float(x)


def monitor_positivity(traj: Trajectory, v_lo: Optional[float] = None,
                       v_hi: Optional[float] = None,
                       bounds: Optional[str] = None,
                       alpha: Optional[float] = None) -> Check:
    """Componentwise range checks plus the recorded-V range check.

    Sub-checks: (a) components >= -eps, (b) components <= N + eps with
    eps = 1e-9*N, (c) V within [v_lo, v_hi], a bound not given (None)
    read from V_RANGE, [0, 1]. Pass bounds="corollary1" to check V
    against [0, 1 + (alpha - beta*I/N)*S/(mu*N)] instead, the
    state-dependent extended bound of `laws.corollary1_upper_bound` (alpha
    defaults to beta); a run where it does not hold, at mu*N = 0 or at
    alpha < beta*I/N, is refused with its ValueError. So are the options
    `refuse_options` refuses, before the run is read.
    """
    import numpy as np
    refuse_options({"bounds": bounds, "v_lo": v_lo, "v_hi": v_hi,
                    "alpha": alpha})
    p = traj.params
    N = p.N
    eps = _EPS_POS_RTOL * N
    # Componentwise extremes folded over S, E, I, R, with no (n, 4) copy.
    components = (traj.S, traj.E, traj.I, traj.R)

    low = functools.reduce(np.minimum, components)
    k_low = int(np.argmin(low))
    lower = Check("components >= 0", _excess(-low[k_low]), eps,
                  float(traj.t[k_low]))

    high = functools.reduce(np.maximum, components)
    k_high = int(np.argmax(high))
    upper = Check("components <= N", _excess(high[k_high] - N), eps,
                  float(traj.t[k_high]))

    if bounds == "corollary1":
        hi = corollary1_upper_bound(
            SeirState(traj.S, traj.E, traj.I, traj.R), p,
            p.beta if alpha is None else alpha)
        lo = np.zeros_like(hi)
        bound_name = "V in corollary1 range"
    else:
        # numpy broadcasts the two floats, with no n-length copy
        lo, hi = (default if bound is None else bound
                  for bound, default in zip((v_lo, v_hi), V_RANGE))
        bound_name = f"V in [{lo:g}, {hi:g}]"
    finite = np.abs(np.hstack((lo, hi)))
    finite = finite[np.isfinite(finite)]
    slack = 1e-12 * max(1.0, float(finite.max()) if finite.size else 1.0)
    excess = np.maximum(lo - traj.V, traj.V - hi)
    k_v = int(np.argmax(excess))
    vrange = Check(bound_name, _excess(excess[k_v]), slack, float(traj.t[k_v]))

    # a failed sub-check first, so the composite fails whenever one does
    subs = (lower, upper, vrange)
    worst_sub = max(subs, key=lambda c: (
        not c.passed, c.worst / max(c.tolerance, 1e-300)))
    return Check("positivity", worst_sub.worst, worst_sub.tolerance,
                 worst_sub.location_t, details={c.name: c for c in subs})


def _identity_tolerance(params: ModelParams, law: ControlLaw, dt: float) -> float:
    """Per-sample tolerance 1e-3 * N * rate_scale * dt^2 for the identity suite.

    rate_scale is (3*(mu+omega+sigma+gamma+beta+sum|gains|))^3 (a
    saturated law counts its inner law's gains), a cubed
    characteristic rate sized to dominate central-difference truncation
    on correct trajectories. A tolerance that overflows double precision
    is refused with a ValueError: it would pass any residual.
    """
    r = (params.mu + params.omega + params.sigma + params.gamma + params.beta
         + sum(abs(v) for v in law.gains.values()))
    try:
        tol = 1e-3 * params.N * (3.0 * r) ** 3 * dt * dt
    except OverflowError:
        tol = math.inf
    if not math.isfinite(tol):
        raise ValueError("identity suite tolerance 1e-3*N*(3*rates)^3*dt^2 "
                         f"overflows double precision at rates = {r!r}")
    return tol


def check_identity_suite(traj: Trajectory, params: ModelParams) -> Check:
    """Finite-difference verification of the control-coupling identity suite.

    At each interior sample the left-hand derivative is estimated by
    central differences and compared against the right-hand side at the
    sample's state, V and u (the record's, computed from them). The
    integrators evaluate the law at every stage, so the samples follow the
    continuous closed loop and the residual is the difference's O(h^2)
    truncation.

    Under a `Saturated` law the solution is only C^1 where V enters or
    leaves the clip, and the residual of a window across such a switch is
    O(h). A window whose three samples differ in clip state (V <= lo,
    interior, V >= hi) is therefore skipped; `details["kink windows
    skipped"]` counts them.

    Requires a fixed-step record of at least 3 uniformly spaced samples,
    judged under its own params: u, the right-hand sides and the
    tolerance read `traj.params`, and a differing `params` is refused.
    """
    import numpy as np
    p = traj.params
    if params != p:
        raise ValueError(f"identity suite judges a run under its own params: "
                         f"{params!r} differs from the record's {p!r}")
    if traj.config.adaptive:
        raise ValueError("identity suite requires a fixed-step run: its tolerance "
                         "bounds central-difference truncation, not the "
                         "adaptive pair's error")
    t = traj.t
    if t.shape[0] < 3:
        raise ValueError("identity suite requires at least 3 samples")
    steps = np.diff(t)
    h = float(steps[0])
    atol = 1e-12 * max(1.0, abs(float(t[-1])))
    if not np.allclose(steps, h, rtol=1e-9, atol=atol):
        # A fixed-step record also samples the step at t_end: where the
        # stride does not divide the step count, its last interval is short.
        n, k = traj.config.n_steps, traj.config.sampling_stride
        if n % k and np.allclose(steps[:-1], h, rtol=1e-9, atol=atol):
            raise ValueError(
                f"identity suite requires uniform sampling: sampling_stride {k} "
                f"does not divide the {n} steps, so the last interval spans "
                f"{n % k} of the stride's {k} steps ({float(steps[-1]):.6g} "
                f"against {h:.6g})")
        raise ValueError("identity suite requires uniform sampling")

    mu, om, si, ga, N, bp = p.mu, p.omega, p.sigma, p.gamma, p.N, p.beta_prime
    muN = mu * N
    S, E, I, R, V = traj.S, traj.E, traj.I, traj.R, traj.V
    Sm, Em, Im, Rm, Vm = S[1:-1], E[1:-1], I[1:-1], R[1:-1], V[1:-1]
    um = traj.u[1:-1]

    skipped = np.zeros(0, dtype=np.intp)
    if isinstance(traj.law, Saturated):
        clip = (V > traj.law.lo).astype(np.int8) + (V >= traj.law.hi)
        skipped = np.flatnonzero((clip[:-2] != clip[1:-1])
                                 | (clip[1:-1] != clip[2:]))
        if skipped.size == Vm.size:
            raise ValueError("identity suite: every window straddles a clip switch")

    def cdiff(x: np.ndarray) -> np.ndarray:
        return (x[2:] - x[:-2]) / (2.0 * h)

    # Each residual is folded into its worst value as soon as it is
    # formed, in the order below, so one residual and the central
    # differences it reads are alive at a time; a later residual takes
    # the worst only by exceeding it (or by being NaN).
    worst = -1.0
    worst_t: Optional[float] = None
    details: dict[str, float] = {"kink windows skipped": int(skipped.size)}

    def fold(name: str, res: np.ndarray) -> None:
        nonlocal worst, worst_t
        mag = np.abs(res, out=res)
        mag[skipped] = np.minimum(mag[skipped], -1.0)   # a NaN stays
        k = int(np.argmax(mag))
        details[name] = float(mag[k])
        if mag[k] > worst or math.isnan(mag[k]):
            worst = float(mag[k])
            worst_t = float(t[1 + k])

    d = cdiff(E + I)
    fold("(20) d(E+I)", d - (-mu * (Em + Im) + (bp * Sm - ga) * Im))
    d = cdiff(S + E)
    fold("(21.a) d(S+E)", d - (-mu * (Sm + Em) + muN + um))
    fold("(21.b) d(S+E)", d - (mu * (Im + Rm) + um))
    d = cdiff(I + R)
    fold("(22) d(I+R)", d - (-mu * (Im + Rm) - um))
    d = cdiff(S + R)
    fold("(23.a) d(S+R)", d - (-mu * (Sm + Rm) + (ga - bp * Sm) * Im + muN))
    fold("(23.b) d(S+R)", d - (mu * (Em + Im) + (ga - bp * Sm) * Im))
    fold("(23.c) d(S+R)", d - (mu * Em + (mu + ga - bp * Sm) * Im))
    del d
    d_sei = cdiff(S + E + I)
    fold("(24.a) d(S+E+I)", d_sei - (-mu * (Sm + Em + Im) + om * Rm - ga * Im
                                     + muN * (1.0 - Vm)))
    fold("(24.b) d(S+E+I)", d_sei - (mu * Rm + si * Em - ga * Im + um))
    d = cdiff(R)
    fold("(25.a) dR", d - (-(mu + om) * Rm + ga * Im + muN * Vm))
    fold("(25.b) dR", d - (-mu * Rm - si * Em + ga * Im - um))
    fold("(25.c) dR", d - (-d_sei))
    tol = _identity_tolerance(p, traj.law, h)
    return Check("identity_suite", worst, tol, worst_t, details=details)


_SIGNALS = {
    "s_inf": lambda tr: tr.S,
    "e_inf": lambda tr: tr.E,
    "i_inf": lambda tr: tr.I,
    "r_inf": lambda tr: tr.R,
    "s_plus_e_inf": lambda tr: tr.S + tr.E,
    "i_plus_r_inf": lambda tr: tr.I + tr.R,
    "s_plus_e_plus_i_inf": lambda tr: tr.S + tr.E + tr.I,
    "v_inf": lambda tr: tr.V,
}


def check_asymptotics(traj: Trajectory, prediction: AsymptoticPrediction,
                      tail_fraction: float = 0.1,
                      rel_tol: float = 1e-3) -> Check:
    """Tail means of each predicted quantity against the closed-form limits.

    The horizon must satisfy decay_rate*(t_end - t0) >= 10 (refused
    otherwise, reporting the required t_end). Zero limits are compared on
    the natural scale: N for populations, 1 for V. A tail_fraction
    outside (0, 1) and a rel_tol that is not finite and > 0 are refused
    with a ValueError.
    """
    import numpy as np
    refuse_options({"tail_fraction": tail_fraction, "rel_tol": rel_tol})
    rate = prediction.decay_rate
    if rate is None or rate <= 0.0:
        raise ValueError("prediction carries no positive decay rate")
    t0, t_end = float(traj.t[0]), float(traj.t[-1])
    if rate * (t_end - t0) < 10.0:
        need = t0 + 10.0 / rate
        raise HorizonError(
            f"horizon too short for asymptotic check: need t_end >= {need:g}",
            required_t_end=need)

    n = len(traj)
    m = max(1, int(math.ceil(tail_fraction * n)))
    N = traj.params.N

    details: dict[str, tuple[float, float, float]] = {}
    for fname, signal in _SIGNALS.items():
        limit = getattr(prediction, fname)
        if limit is None:
            continue
        mean = float(np.mean(signal(traj)[-m:]))
        scale = abs(limit) if limit != 0.0 else (1.0 if fname == "v_inf" else N)
        err = abs(mean - limit)
        details[fname] = (mean, limit, err / scale)
    if not details:
        raise ValueError("prediction contains no checkable limits")
    worst_norm = float(np.max([d[2] for d in details.values()]))
    return Check("asymptotics", worst_norm, rel_tol, t_end, details=details)


def check_integral_limit(traj: Trajectory, rel_tol: float = 0.01) -> Check:
    """Convolution integral of (omega+g)*R against its closed-form limit.

    Evaluates int_0^T exp(-mu*(T-tau))*(omega+g)*R(tau) dtau at the final
    sample by the trapezoid rule and compares it with the immune-feedback
    prediction's `integral_limit`. Refuses a law outside the
    immune-feedback family, the gains `predicted_limits` refuses, a
    horizon shorter than 10/min(mu, mu+omega+g) and a rel_tol that is not
    finite and > 0.
    """
    import numpy as np
    refuse_options({"rel_tol": rel_tol})
    params = traj.params
    law = traj.law.canonical(params)
    if not isinstance(law, ImmuneFeedback):
        raise ValueError("integral_limit check needs an immune-feedback "
                         f"family law (got {traj.law.label})")
    pred = predicted_limits(law, params)
    limit = pred.integral_limit
    mu, om, g = params.mu, params.omega, law.g
    t0, t_end = float(traj.t[0]), float(traj.t[-1])
    need_span = 10.0 / min(mu, pred.decay_rate)
    if (t_end - t0) < need_span:
        raise HorizonError(
            f"horizon too short for integral limit: need t_end >= {t0 + need_span:g}",
            required_t_end=t0 + need_span)

    weight = np.exp(-mu * (t_end - traj.t)) * (om + g) * traj.R
    dt = np.diff(traj.t)
    integral = float(np.sum(0.5 * dt * (weight[1:] + weight[:-1])))
    scale = abs(limit) if limit != 0.0 else params.N
    err = abs(integral - limit)
    return Check("integral_limit", err, rel_tol * scale, t_end,
                 details={"integral": integral, "limit": limit})
