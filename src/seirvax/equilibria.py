"""Vaccination-free equilibria, linearized stability and the frequency sweep.

All results here assume sigma = gamma (the discussion-simplicity tie);
operations needing the endemic branch refuse other parameter sets.

The disease-free point is x1 = (N, 0, 0, 0). The endemic point exists
when (mu+sigma)^2/(sigma*beta) < 1 and is given in closed form; with
mu = 0 and sigma < beta a special branch applies. Local stability at x1
has closed-form characteristic zeros; at the endemic point the
characteristic polynomial splits as p0(s) + beta*ptilde(s) with p0
Hurwitz, and sup_w |ptilde(iw)/p0(iw)| < 1/beta certifies stability
(Rouche argument on the left half-plane). The supremum is computed
exactly from the stationary points of the squared magnitude, the
single-input case of the L-infinity norm computation of Bruinsma and
Steinbuch (Syst. Control Lett. 14, 1990).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelParams, SeirState, derivative

__all__ = [
    "EquilibriumPoint",
    "CharZerosX1",
    "SweepResult",
    "StabilityReport",
    "disease_free_equilibrium",
    "endemic_equilibrium",
    "a11_feasibility",
    "jacobian_at",
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
class CharZerosX1:
    """Closed-form characteristic zeros at the disease-free point."""

    zeros: tuple[float, float, float, float]
    locally_stable: bool


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


def _residual(state: SeirState, params: ModelParams) -> float:
    return max(map(abs, derivative(state, params, 0.0)))


def _residual_gate(state: SeirState, params: ModelParams) -> float:
    p = params
    scale = p.mu * p.N if p.mu > 0.0 else p.N
    return _RESIDUAL_RTOL * max(scale, p.beta_prime * state.S * state.I,
                                p.sigma * state.E, p.gamma * state.I,
                                p.omega * state.R)


def _check_residual(point: EquilibriumPoint, params: ModelParams) -> EquilibriumPoint:
    """The point, refused with a ValueError where its residual exceeds the
    gate or is NaN (parameters whose closed form double precision cannot hold)."""
    gate = _residual_gate(point.state, params)
    if not point.residual <= gate:
        raise ValueError(
            f"equilibrium residual {point.residual} exceeds gate "
            f"{gate} for {point.kind}")
    return point


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


def disease_free_equilibrium(params: ModelParams) -> EquilibriumPoint:
    """The whole-population-susceptible point (N, 0, 0, 0)."""
    state = SeirState(params.N, 0.0, 0.0, 0.0)
    return _check_residual(
        EquilibriumPoint(state, "disease_free", _residual(state, params)), params)


def _require_sigma_equals_gamma(params: ModelParams) -> None:
    if params.sigma != params.gamma:
        raise ValueError("endemic analysis requires sigma == gamma")


def endemic_equilibrium(params: ModelParams) -> Optional[EquilibriumPoint]:
    """The interior equilibrium, or None when it does not exist.

    Requires sigma = gamma and sigma > 0. For mu > 0 the point exists iff
    (mu+sigma)^2/(sigma*beta) < 1; for mu = 0 the special branch exists
    iff sigma < beta. Rates whose closed form overflows or underflows
    double precision are refused with a ValueError.
    """
    _require_sigma_equals_gamma(params)
    mu, om, be, si, N = params.mu, params.omega, params.beta, params.sigma, params.N
    if si == 0.0:
        raise ValueError("endemic equilibrium undefined for sigma = 0")

    if mu == 0.0:
        if not si < be:
            return None
        denom = _nonzero(be * (2.0 * om + si), "endemic closed form")
        state = SeirState(
            S=si * N / be,
            E=(be - si) * om * N / denom,
            I=(be - si) * om * N / denom,
            R=(be - si) * si * N / denom,
        )
        point = EquilibriumPoint(state, "mu_zero_special",
                                 _residual(state, params),
                                 feasibility_a11=a11_feasibility(params)[1])
        return _check_residual(point, params)

    if be == 0.0:
        return None
    ms2 = _square(mu + si, "mu+sigma")
    if ms2 / _nonzero(si * be, "sigma*beta") >= 1.0:
        return None

    excess = si * be - ms2
    denom = be * (ms2 + om * (mu + 2.0 * si))
    _nonzero(si * denom, "endemic closed form")
    state = SeirState(
        S=ms2 / (si * be) * N,
        E=(mu + om) * (mu + si) * excess / (si * denom) * N,
        I=(mu + om) * excess / denom * N,
        R=si * excess / denom * N,
    )
    point = EquilibriumPoint(state, "endemic", _residual(state, params),
                             feasibility_a11=a11_feasibility(params)[1])
    return _check_residual(point, params)


def a11_feasibility(params: ModelParams) -> tuple[float, bool]:
    """The printed endemic feasibility expression and whether it is <= 1.

    Reported as a named condition only; nothing enforces it.
    """
    _require_sigma_equals_gamma(params)
    mu, om, be, si, N = params.mu, params.omega, params.beta, params.sigma, params.N
    if si == 0.0 or be == 0.0:
        raise ValueError("feasibility expression undefined for sigma = 0 or beta = 0")
    ms2 = _square(mu + si, "mu+sigma")
    denom = _nonzero(be * (ms2 + om * (mu + 2.0 * si)), "feasibility expression")
    value = (si * be - ms2) / denom * max(si, (1.0 + mu / si) * (mu + om))
    return value, value <= 1.0


def jacobian_at(point: SeirState, params: ModelParams) -> np.ndarray:
    """Linearization of the vaccination-free plant at a point (sigma = gamma).

    Every column sums to -mu.
    """
    _require_sigma_equals_gamma(params)
    mu, om, si = params.mu, params.omega, params.sigma
    bI = params.beta_prime * point.I
    bS = params.beta_prime * point.S
    return np.array([
        [-mu - bI, 0.0, -bS, om],
        [bI, -(mu + si), bS, 0.0],
        [0.0, si, -(mu + si), 0.0],
        [0.0, 0.0, si, -(mu + om)],
    ])


def char_zeros_x1(params: ModelParams) -> CharZerosX1:
    """Closed-form characteristic zeros at the disease-free point.

    Zeros: -mu, -(mu+omega), -(mu+sigma) +/- sqrt(sigma*beta). All are
    negative iff mu > 0, omega > -mu and 0 <= beta < (mu+sigma)^2/sigma.
    """
    mu, om, be, si = params.mu, params.omega, params.beta, params.sigma
    root = math.sqrt(si * be)
    zeros = (-mu, -(mu + om), -(mu + si) + root, -(mu + si) - root)
    threshold = _square(mu + si, "mu+sigma") / si if si > 0.0 else math.inf
    stable = mu > 0.0 and om > -mu and 0.0 <= be < threshold
    return CharZerosX1(zeros=zeros, locally_stable=stable)


def eigenvalues(matrix) -> np.ndarray | list[np.ndarray]:
    """Spectrum of a real (n, n) matrix, or a list of the spectra of a
    (..., n, n) stack in C order of the leading axes.

    One finiteness check and one `np.linalg.eigvals` call cover the whole
    stack. Each spectrum is sorted by real part descending, then by
    imaginary part descending, and is float64 when no imaginary part is
    nonzero (complex128 otherwise), so a stack row is bitwise the
    spectrum of a lone call on its matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("eigenvalues: non-finite entries")
    vals = np.linalg.eigvals(m)
    if vals.ndim == 1:
        return _sorted_spectrum(vals.tolist())
    return [_sorted_spectrum(row)
            for row in vals.reshape(-1, vals.shape[-1]).tolist()]


def _sorted_spectrum(values: list) -> np.ndarray:
    """Eigenvalues in Python numbers as a sorted float64 or complex array."""
    values.sort(key=_descending)
    if any(v.imag for v in values):
        return np.array(values, dtype=complex)
    return np.array([v.real for v in values])


def _descending(v: complex) -> tuple[float, float]:
    return -v.real, -v.imag


def _polymul(a: list[float], b: list[float]) -> list[float]:
    """Product of two coefficient lists, both highest or both lowest degree first."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sweep_polynomials(params: ModelParams, endemic: EquilibriumPoint):
    """Coefficient lists (highest degree first) for p0 and ptilde."""
    mu, om, si, N = params.mu, params.omega, params.sigma, params.N
    s_frac = endemic.state.S / N
    i_frac = endemic.state.I / N
    c = mu + si
    cubic = _polymul([1.0, 2.0 * c, c * c], [1.0, mu + om])   # (s+c)^2 (s+mu+om)
    p0 = _polymul(cubic, [1.0, mu])
    # ptilde = i_frac*(cubic - om*si^2) - si*s_frac*(s+mu)(s+mu+om)
    shifted = cubic[:3] + [cubic[3] - om * _square(si, "sigma")]
    quad = [0.0] + _polymul([1.0, mu], [1.0, mu + om])
    ptilde = [i_frac * u - si * s_frac * v for u, v in zip(shifted, quad)]
    return p0, ptilde


def _ratio(p0: list[float], ptilde: list[float], w: float) -> float:
    """|ptilde(iw)/p0(iw)| by complex Horner in Python floats."""
    s = complex(0.0, w)
    num = den = 0j
    for c in ptilde:
        num = num * s + c
    for c in p0:
        den = den * s + c
    return abs(num) / abs(den)


# Rows 1-5 of a 6x6 companion matrix: ones on the subdiagonal.
_SUBDIAGONAL = tuple(tuple(row) for row in np.eye(6, k=-1)[1:].tolist())


def hinf_ratio_sweep(params: ModelParams,
                     endemic: Optional[EquilibriumPoint]) -> SweepResult:
    """Exact peak of |ptilde(iw)/p0(iw)| over w >= 0 and the 1/beta test.

    With x = w^2, A(x) = |ptilde(iw)|^2 (degree 3) and B(x) = |p0(iw)|^2
    = (x+mu^2)(x+(mu+sigma)^2)^2(x+(mu+omega)^2) (degree 4). The interior
    extrema of A/B are roots of A'B - AB' (degree 6), found as eigenvalues
    of its companion matrix. The ratio is evaluated directly at w = 0 and
    at w = sqrt(Re r) for every root r with Re r > 0, and the largest
    value wins; argmax_freq is 0.0 when the w -> 0 limit is the peak. The
    ratio is strictly proper, so w -> inf never is. Requires mu > 0 (p0
    strictly Hurwitz) and an existing endemic point: `endemic` is
    `endemic_equilibrium(params)`, None where there is none.
    """
    if params.mu == 0.0:
        raise ValueError("sweep refused: p0 has a root on the imaginary axis (mu = 0)")
    if endemic is None:
        raise ValueError("sweep refused: no endemic equilibrium for these parameters")

    p0, ptilde = _sweep_polynomials(params, endemic)
    c3, c2, c1, c0 = ptilde
    # ptilde(iw) = (c0 - c2 x) + iw (c1 - c3 x); A and B lowest degree first.
    a = [c0 * c0, c1 * c1 - 2.0 * c0 * c2, c2 * c2 - 2.0 * c1 * c3, c3 * c3]
    mu, om, si = params.mu, params.omega, params.sigma
    ms2 = _square(mu + si, "mu+sigma")
    b = _polymul(_polymul([mu * mu, 1.0], [_square(mu + om, "mu+omega"), 1.0]),
                 _polymul([ms2, 1.0], [ms2, 1.0]))
    da = [k * v for k, v in enumerate(a)][1:]
    db = [k * v for k, v in enumerate(b)][1:]
    stationary = [u - v for u, v in zip(_polymul(da, b), _polymul(a, db))]
    if p0[-1] == 0.0 or stationary[6] == 0.0:
        raise ValueError("sweep refused: the rates span too many orders of "
                         "magnitude for double precision")
    companion = np.array([[-v / stationary[6] for v in reversed(stationary[:6])],
                          *_SUBDIAGONAL])

    best_w, best_r = 0.0, _ratio(p0, ptilde, 0.0)
    for root in np.linalg.eigvals(companion).tolist():
        if root.real > 0.0:
            w = math.sqrt(root.real)
            r = _ratio(p0, ptilde, w)
            if r > best_r:
                best_w, best_r = w, r

    threshold = 1.0 / params.beta if params.beta > 0.0 else math.inf
    return SweepResult(max_ratio=best_r, argmax_freq=best_w,
                       condition_holds=best_r < threshold, threshold=threshold)


def analyze(params: ModelParams, sweep: bool = True) -> list[StabilityReport]:
    """Stability reports for the disease-free and (if present) endemic points.

    With an endemic point both Jacobians go to one `eigenvalues` call as
    a (2, 4, 4) stack, so numpy's `eigvals` wrapper runs once per point.
    A point is locally stable when the first (largest) real part of its
    sorted spectrum is negative. With `sweep` and mu > 0 the endemic
    report carries the `hinf_ratio_sweep` peak and its verdict.
    """
    x1 = disease_free_equilibrium(params)
    j1 = jacobian_at(x1.state, params)
    zeros = char_zeros_x1(params).zeros
    x2 = endemic_equilibrium(params)
    if x2 is None:
        spec1 = eigenvalues(j1)
    else:
        j2 = jacobian_at(x2.state, params)
        spec1, spec2 = eigenvalues((j1, j2))
    reports = [StabilityReport(
        point=x1, jacobian=j1, spectrum=spec1, closed_form_zeros=zeros,
        locally_stable=bool(spec1[0].real < 0.0))]

    if x2 is not None:
        hinf_ratio = hinf_condition = None
        if sweep and params.mu > 0.0:
            res = hinf_ratio_sweep(params, x2)
            hinf_ratio, hinf_condition = res.max_ratio, res.condition_holds
        reports.append(StabilityReport(
            point=x2, jacobian=j2, spectrum=spec2, closed_form_zeros=None,
            locally_stable=bool(spec2[0].real < 0.0),
            hinf_ratio=hinf_ratio, hinf_condition_holds=hinf_condition))

    return reports
