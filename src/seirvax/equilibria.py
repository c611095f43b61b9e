"""Vaccination-free equilibria, linearized stability and the frequency sweep.

The endemic closed form, its feasibility expression and the sweep assume
sigma = gamma (the discussion-simplicity tie) and refuse other parameter
sets, by one rule. The disease-free point, its closed-form characteristic
zeros and the Jacobians hold for any sigma, gamma.

The disease-free point is x1 = (N, 0, 0, 0). The endemic point exists
when (mu+sigma)^2/(sigma*beta) < 1 and is given in closed form; with
mu = 0 and sigma < beta a special branch applies. Local stability at x1
has closed-form characteristic zeros; at the endemic point the
characteristic polynomial splits as p0(s) + beta*ptilde(s) with p0
Hurwitz, and sup_w |ptilde(iw)/p0(iw)| < 1/beta certifies stability
(Rouche argument on the left half-plane). The supremum is computed
exactly from the stationary points of the squared magnitude, the
single-input case of the L-infinity norm computation of Bruinsma and
Steinbuch (Syst. Control Lett. 14, 1990). The sweep's polynomials have
fixed degrees, so their products are written out as straight-line code
that sums each coefficient from 0.0 in the order a product loop would
(left factor's index ascending): the same accumulation order gives the
same bits, without the loop's interpreter cost. The records the library
returns are frozen dataclasses filled through a new instance's __dict__,
which skips the frozen __init__'s per-field object.__setattr__ and gives
the same instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, filterfalse
from operator import attrgetter
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .kernels import function, jacobian
from .model import SEIR_SOURCE, ModelParams, SeirState, infection_modes

__all__ = [
    "EquilibriumPoint",
    "SweepResult",
    "StabilityReport",
    "disease_free_equilibrium",
    "endemic_equilibrium",
    "char_zeros_x1",
    "eigenvalues",
    "hinf_ratio_sweep",
    "analyze",
]

# Residual gate for returned equilibria: 1e-8 times the largest of mu*N (N
# when mu = 0) and the field's terms at the point, whose rounding the
# residual carries.
_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class EquilibriumPoint:
    """An equilibrium state with its kind and vector-field residual.

    feasibility_a11 reports the printed feasibility condition for the
    endemic point (None where it does not apply).
    """

    state: SeirState
    kind: str
    residual: float
    feasibility_a11: Optional[bool] = None


@dataclass(frozen=True)
class SweepResult:
    """Outcome of the frequency-response magnitude sweep."""

    max_ratio: float
    argmax_freq: float
    condition_holds: bool
    threshold: float


@dataclass(frozen=True)
class StabilityReport:
    """Equilibrium point with its linearization and stability verdicts."""

    point: EquilibriumPoint
    jacobian: np.ndarray
    spectrum: np.ndarray
    closed_form_zeros: Optional[tuple[float, float, float, float]]
    locally_stable: bool
    hinf_ratio: Optional[float] = None
    hinf_condition_holds: Optional[bool] = None


def _record(cls, fields: dict):
    """An instance of the frozen dataclass `cls` holding `fields`: every
    field, in declaration order. It is filled through its __dict__, not
    by the per-field `object.__setattr__` of the class's frozen __init__
    (none of the records has a __post_init__), so it is the instance that
    __init__ would make: equal, hashing and printing alike, and as frozen."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


# What `_plant` bound last.
_bound = (None, None, None)


def _plant(params: ModelParams):
    """(params, the vaccination-free field f(S, E, I, R, V) -> rates, its
    Jacobian J(S, E, I, R, t) -> four row tuples) from one
    `SEIR_SOURCE.bind(params)`, the Jacobian derived under the zero law.
    The last binding is kept whole, so `analyze` and the equilibria it
    computes bind once between them; a concurrent call at worst binds
    again."""
    global _bound
    bound = _bound
    if bound[0] is not params:
        consts = SEIR_SOURCE.bind(params)
        bound = _bound = (params, function(SEIR_SOURCE)(*consts),
                          jacobian(SEIR_SOURCE, ("expr", "0.0", ()))(*consts))
    return bound


def _point(params: ModelParams, kind: str, S: float, E: float, I: float,
           R: float, feasibility_a11: Optional[bool]) -> EquilibriumPoint:
    """The equilibrium at the finite state (S, E, I, R), with its residual:
    the largest |rate| of the vaccination-free field there. It is refused
    with a ValueError where the residual is not finite, the gate underflows
    to 0 or the residual exceeds the gate (parameters whose closed form
    double precision cannot hold)."""
    residual = max(map(abs, _plant(params)[1](S, E, I, R, 0.0)))
    p = params
    scale = p.mu * p.N if p.mu > 0.0 else p.N
    gate = _nonzero(_RESIDUAL_RTOL * max(scale, p.beta_prime * S * I, p.sigma * E,
                                         p.gamma * I, p.omega * R),
                    "equilibrium residual gate")
    if not math.isfinite(residual):
        raise ValueError(f"equilibrium residual {residual} for {kind}: "
                         "the vector field overflows double precision")
    if residual > gate:
        raise ValueError(
            f"equilibrium residual {residual} exceeds gate "
            f"{gate} for {kind}")
    return _record(EquilibriumPoint, {
        "state": _record(SeirState, {"S": S, "E": E, "I": I, "R": R}),
        "kind": kind, "residual": residual, "feasibility_a11": feasibility_a11})


def _square(x: float, what: str) -> float:
    """x ** 2, refused with a ValueError where it overflows a double."""
    try:
        return x ** 2
    except OverflowError:
        raise ValueError(f"({what})^2 overflows double precision at "
                         f"{what} = {x!r}") from None


def _nonzero(value: float, what: str) -> float:
    """value, refused with a ValueError where it underflowed to 0."""
    if value == 0.0:
        raise ValueError(f"{what} underflows double precision")
    return value


def _finite(value: float, what: str) -> float:
    """value, refused with a ValueError where it is inf or NaN (an
    overflow, or inf*0 and inf-inf after one)."""
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows double precision ({value!r})")
    return value


def _endemic_state(S: float, E: float, I: float,
                   R: float) -> tuple[float, float, float, float]:
    """The endemic closed form's state, refused with a ValueError where a
    component overflowed, before the residual reads it."""
    for value in filterfalse(math.isfinite, (S, E, I, R)):
        _finite(value, "endemic closed form")
    return S, E, I, R


def disease_free_equilibrium(params: ModelParams) -> EquilibriumPoint:
    """The whole-population-susceptible point (N, 0, 0, 0)."""
    return _point(params, "disease_free", params.N, 0.0, 0.0, 0.0, None)


def _require_sigma_equals_gamma(params: ModelParams) -> None:
    if params.sigma != params.gamma:
        raise ValueError("endemic analysis requires sigma == gamma")


def endemic_equilibrium(params: ModelParams) -> Optional[EquilibriumPoint]:
    """The interior equilibrium, or None when it does not exist.

    Requires sigma = gamma and sigma > 0. For mu > 0 the point exists iff
    (mu+sigma)^2/(sigma*beta) < 1; for mu = 0 the special branch exists
    iff sigma < beta; the point reports the feasibility condition. Rates
    whose closed form or feasibility expression over- or underflows double
    precision are refused with a ValueError.
    """
    _require_sigma_equals_gamma(params)
    mu, om, be, si, N = params.mu, params.omega, params.beta, params.sigma, params.N
    if si == 0.0:
        raise ValueError("endemic equilibrium undefined for sigma = 0")

    if mu == 0.0:
        if not si < be:
            return None
        denom = _nonzero(be * (2.0 * om + si), "endemic closed form")
        S, E, I, R = _endemic_state(
            S=si * N / be,
            E=(be - si) * om * N / denom,
            I=(be - si) * om * N / denom,
            R=(be - si) * si * N / denom,
        )
        ms2 = _square(mu + si, "mu+sigma")
        denom = _nonzero(be * (ms2 + om * (mu + 2.0 * si)), "feasibility expression")
        return _point(params, "mu_zero_special", S, E, I, R,
                      _a11(mu, om, si, si * be - ms2, denom) <= 1.0)

    if be == 0.0:
        return None
    ms2 = _square(mu + si, "mu+sigma")
    if ms2 / _nonzero(si * be, "sigma*beta") >= 1.0:
        return None

    excess = si * be - ms2
    denom = be * (ms2 + om * (mu + 2.0 * si))
    _nonzero(si * denom, "endemic closed form")
    S, E, I, R = _endemic_state(
        S=ms2 / (si * be) * N,
        E=(mu + om) * (mu + si) * excess / (si * denom) * N,
        I=(mu + om) * excess / denom * N,
        R=si * excess / denom * N,
    )
    return _point(params, "endemic", S, E, I, R,
                  _a11(mu, om, si, excess, denom) <= 1.0)


def _a11(mu: float, om: float, si: float, excess: float, denom: float) -> float:
    """The feasibility expression from sigma*beta - (mu+sigma)^2 and the
    endemic denominator beta*((mu+sigma)^2 + omega*(mu+2*sigma)),
    refused where it is not finite."""
    return _finite(excess / denom * max(si, (1.0 + mu / si) * (mu + om)),
                   "feasibility expression")


def char_zeros_x1(params: ModelParams) -> tuple[float, float, float, float]:
    """Closed-form characteristic zeros at the disease-free point, for any
    sigma, gamma: -mu, -(mu+omega) and the (E, I) modes at S = N, which are
    -(mu+sigma) +/- sqrt(sigma*beta) at sigma = gamma. The point is locally
    stable iff all four are negative; at sigma = gamma, iff mu > 0,
    omega > -mu and beta < (mu+sigma)^2/sigma. Rates whose zeros overflow
    double precision are refused with a ValueError."""
    return (-params.mu, -_finite(params.mu + params.omega, "mu+omega"),
            *infection_modes(params, 1.0))


# LAPACK's dgeev as the gufunc `np.linalg.eigvals` itself calls (the same
# routine, so the same bits); a module global, so a test can stub it.
_lapack_eigvals = _umath_linalg.eigvals


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigvals(m: np.ndarray) -> np.ndarray:
    """Complex spectra of a finite real float64 (..., n, n) stack, as
    `np.linalg.eigvals` computes them before it drops an all-zero
    imaginary part: one error state per call, failing in numpy's own
    words. The caller has scanned the entries' finiteness."""
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _lapack_eigvals(m, signature="d->D")


def eigenvalues(matrix) -> np.ndarray | list[np.ndarray]:
    """Spectrum of a real (n, n) matrix, or a list of the spectra of a
    (..., n, n) stack in C order of the leading axes.

    One call of the private LAPACK gufunc that `np.linalg.eigvals` itself
    calls covers the whole stack, after one finiteness scan; a float64
    ndarray goes to it as it is. Each spectrum is sorted by real part
    descending, then by imaginary part descending, and is float64 when
    none of its own imaginary parts is nonzero (complex128 otherwise), so
    a stack row is bitwise the spectrum of a lone call on its matrix.
    Complex entries, a shape that is not (..., n, n) and non-finite
    entries are refused with a ValueError; nonconvergence raises numpy's
    LinAlgError.
    """
    m = matrix
    if type(m) is not np.ndarray or m.dtype != float:
        m = np.asarray(matrix)
        if m.dtype.kind == "c":
            raise ValueError("eigenvalues: complex entries")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"eigenvalues: shape {m.shape} is not (..., n, n)")
    if m.dtype != float:
        m = m.astype(float)
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError("eigenvalues: non-finite entries")
    vals = _eigvals(m)
    if vals.ndim == 1:
        return _sorted_spectrum(vals.tolist())
    if vals.ndim > 2:
        vals = vals.reshape(math.prod(vals.shape[:-1]), vals.shape[-1])
    return list(map(_sorted_spectrum, vals.tolist()))


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")
_PARTS = attrgetter("real", "imag")


def _sorted_spectrum(values: list[complex]) -> np.ndarray:
    """One row of eigenvalues as a sorted array: complex128 when one of
    its imaginary parts is nonzero, float64 of the real parts otherwise.

    A stable descending sort by (real, imag) orders ties as an ascending
    one by (-real, -imag) does; with no imaginary part, by real alone.
    """
    if any(map(_IMAG, values)):
        values.sort(key=_PARTS, reverse=True)
        return np.array(values)
    return np.array(sorted(map(_REAL, values), reverse=True))


def _sweep_polynomials(params: ModelParams, endemic: EquilibriumPoint):
    """Coefficient lists (highest degree first) for p0 and ptilde."""
    mu, om, si, N = params.mu, params.omega, params.sigma, params.N
    s_frac = endemic.state.S / N
    i_frac = endemic.state.I / N
    # (s+c)^2 (s+mu+om) = s^3 + k1 s^2 + k2 s + k3 with c = mu+si, and
    # p0 = that cubic times (s+mu).
    c, l = mu + si, mu + om
    k1 = 0.0 + l + 2.0 * c
    k2 = 0.0 + 2.0 * c * l + c * c
    k3 = 0.0 + c * c * l
    p0 = [1.0, 0.0 + mu + k1, 0.0 + k1 * mu + k2, 0.0 + k2 * mu + k3, 0.0 + k3 * mu]
    # ptilde = i_frac*(cubic - om*si^2) - si*s_frac*(0, 1, q1, q2), where
    # (s+mu)(s+mu+om) = s^2 + q1 s + q2; the product with its leading 0
    # stays, as a product loop makes it.
    shifted = k3 - om * _square(si, "sigma")
    q1, q2 = 0.0 + l + mu, 0.0 + mu * l
    ss = si * s_frac
    ptilde = [i_frac - ss * 0.0, i_frac * k1 - ss,
              i_frac * k2 - ss * q1, i_frac * shifted - ss * q2]
    return p0, ptilde


def _ratio(p0: list[float], ptilde: list[float], w: float) -> float:
    """|ptilde(iw)/p0(iw)| by complex Horner in Python floats, unrolled
    from 0j as the loop over the coefficients runs it."""
    s = complex(0.0, w)
    c3, c2, c1, c0 = ptilde
    q0, q1, q2, q3, q4 = p0
    num = (((0j * s + c3) * s + c2) * s + c1) * s + c0
    den = ((((0j * s + q0) * s + q1) * s + q2) * s + q3) * s + q4
    return abs(num) / abs(den)


# A 6x6 companion matrix with its first row to fill: ones on the subdiagonal.
_COMPANION = np.eye(6, k=-1)


def hinf_ratio_sweep(params: ModelParams,
                     endemic: Optional[EquilibriumPoint]) -> SweepResult:
    """Exact peak of |ptilde(iw)/p0(iw)| over w >= 0 and the 1/beta test.

    With x = w^2, A(x) = |ptilde(iw)|^2 (degree 3) and B(x) = |p0(iw)|^2
    = (x+mu^2)(x+(mu+sigma)^2)^2(x+(mu+omega)^2) (degree 4). The interior
    extrema of A/B are roots of A'B - AB' (degree 6), found as eigenvalues
    of its companion matrix. The ratio is evaluated directly at w = 0 and
    at w = sqrt(Re r) for every root r with Re r > 0, and the largest
    value wins; argmax_freq is 0.0 when the w -> 0 limit is the peak. The
    ratio is strictly proper, so w -> inf never is. Requires sigma = gamma
    (refused as `endemic_equilibrium` refuses it), mu > 0 (p0 strictly
    Hurwitz) and an existing endemic point: `endemic` is
    `endemic_equilibrium(params)`, None where there is none.

    Every product of two coefficient lists is written out: coefficient k
    is 0.0 + a_0*b_k + a_1*b_(k-1) + ..., summed left to right as a
    product loop accumulates it, with factors of 1.0 left out (x*1.0 is
    x). The same accumulation order keeps the bits of the coefficients,
    the companion matrix, its roots and the peak.
    """
    _require_sigma_equals_gamma(params)
    if params.mu == 0.0:
        raise ValueError("sweep refused: p0 has a root on the imaginary axis (mu = 0)")
    if endemic is None:
        raise ValueError("sweep refused: no endemic equilibrium for these parameters")

    p0, ptilde = _sweep_polynomials(params, endemic)
    c3, c2, c1, c0 = ptilde
    # ptilde(iw) = (c0 - c2 x) + iw (c1 - c3 x); A and B lowest degree first.
    a0, a1, a2, a3 = c0 * c0, c1 * c1 - 2.0 * c0 * c2, c2 * c2 - 2.0 * c1 * c3, c3 * c3
    mu, om, si = params.mu, params.omega, params.sigma
    ms2 = _square(mu + si, "mu+sigma")
    # B = L M: L = (mu^2 + x)((mu+om)^2 + x), M = ((mu+si)^2 + x)^2.
    mm, lo2 = mu * mu, _square(mu + om, "mu+omega")
    L0, L1 = 0.0 + mm * lo2, 0.0 + mm + lo2
    M0, M1 = 0.0 + ms2 * ms2, 0.0 + ms2 + ms2
    b0, b1 = 0.0 + L0 * M0, 0.0 + L0 * M1 + L1 * M0
    b2, b3 = 0.0 + L0 + L1 * M1 + M0, 0.0 + L1 + M1
    # The stationary points of A/B: roots of A'B - AB', with b4 = 1,
    # A' = (d0, d1, d2) and B' = (e0, e1, e2, 4).
    d0, d1, d2 = a1, 2 * a2, 3 * a3
    e0, e1, e2 = b1, 2 * b2, 3 * b3
    s0 = 0.0 + d0 * b0 - (0.0 + a0 * e0)
    s1 = 0.0 + d0 * b1 + d1 * b0 - (0.0 + a0 * e1 + a1 * e0)
    s2 = 0.0 + d0 * b2 + d1 * b1 + d2 * b0 - (0.0 + a0 * e2 + a1 * e1 + a2 * e0)
    s3 = (0.0 + d0 * b3 + d1 * b2 + d2 * b1
          - (0.0 + a0 * 4.0 + a1 * e2 + a2 * e1 + a3 * e0))
    s4 = 0.0 + d0 + d1 * b3 + d2 * b2 - (0.0 + a1 * 4.0 + a2 * e2 + a3 * e1)
    s5 = 0.0 + d1 + d2 * b3 - (0.0 + a2 * 4.0 + a3 * e2)
    s6 = 0.0 + d2 - (0.0 + a3 * 4.0)
    if p0[4] == 0.0 or s6 == 0.0:
        raise ValueError("sweep refused: the rates span too many orders of "
                         "magnitude for double precision")
    # The companion's one non-constant row; the rest is 0.0 and 1.0.
    row = (-s5 / s6, -s4 / s6, -s3 / s6, -s2 / s6, -s1 / s6, -s0 / s6)
    if not all(map(math.isfinite, row)):
        raise LinAlgError("Array must not contain infs or NaNs")
    companion = _COMPANION.copy()
    companion[0] = row

    # At w = 0 the Horner sums are c0 and p0[4] (their coefficients are
    # finite wherever the row is).
    best_w, best_r = 0.0, abs(c0) / abs(p0[4])
    for root in _eigvals(companion).tolist():
        if root.real > 0.0:
            w = math.sqrt(root.real)
            r = _ratio(p0, ptilde, w)
            if r > best_r:
                best_w, best_r = w, r

    threshold = 1.0 / params.beta if params.beta > 0.0 else math.inf
    return _record(SweepResult, {"max_ratio": best_r, "argmax_freq": best_w,
                                 "condition_holds": best_r < threshold,
                                 "threshold": threshold})


def analyze(params: ModelParams, sweep: bool = True) -> list[StabilityReport]:
    """Stability reports for the disease-free and (if present) endemic points.

    The plant is bound to params once: the two equilibria's residuals and
    their Jacobians share one binding. The linearizations of the k points
    (one or two) go to one `eigenvalues` call as a (k, 4, 4) stack built
    by one numpy call, so LAPACK's eigenvalue routine (the private gufunc
    that `np.linalg.eigvals` itself calls) runs once per point. A point is locally stable when the first
    (largest) real part of its sorted spectrum is negative. With `sweep`
    and mu > 0 the endemic report carries the `hinf_ratio_sweep` peak and
    its verdict.
    """
    x1 = disease_free_equilibrium(params)
    zeros = char_zeros_x1(params)
    x2 = endemic_equilibrium(params)
    jac = _plant(params)[2]
    rows = jac(params.N, 0.0, 0.0, 0.0, 0.0)
    if x2 is not None:
        s = x2.state
        rows += jac(s.S, s.E, s.I, s.R, 0.0)
    stack = np.fromiter(chain.from_iterable(rows), float,
                        4 * len(rows)).reshape(-1, 4, 4)
    spectra = eigenvalues(stack)
    reports = [_record(StabilityReport, {
        "point": x1, "jacobian": stack[0], "spectrum": spectra[0],
        "closed_form_zeros": zeros, "locally_stable": spectra[0].item(0).real < 0.0,
        "hinf_ratio": None, "hinf_condition_holds": None})]

    if x2 is not None:
        hinf_ratio = hinf_condition = None
        if sweep and params.mu > 0.0:
            res = hinf_ratio_sweep(params, x2)
            hinf_ratio, hinf_condition = res.max_ratio, res.condition_holds
        reports.append(_record(StabilityReport, {
            "point": x2, "jacobian": stack[1], "spectrum": spectra[1],
            "closed_form_zeros": None, "locally_stable": spectra[1].item(0).real < 0.0,
            "hinf_ratio": hinf_ratio, "hinf_condition_holds": hinf_condition}))

    return reports
