"""Vaccination-free equilibria, linearized stability and the frequency sweep.

All results here assume sigma = gamma (the discussion-simplicity tie);
operations needing the endemic branch refuse other parameter sets.

The disease-free point is x1 = (N, 0, 0, 0). The endemic point exists
when (mu+sigma)^2/(sigma*beta) < 1 and is given in closed form; with
mu = 0 and sigma < beta a special branch applies. Local stability at x1
has closed-form characteristic zeros; at the endemic point the
characteristic polynomial splits as p0(s) + beta*ptilde(s) with p0
Hurwitz, and sup_w |ptilde(iw)/p0(iw)| < 1/beta certifies stability
(Rouche argument on the left half-plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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

# Residual gate for returned equilibria: 1e-8 * mu * N, or 1e-8 * N when mu = 0.
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
    d = derivative(state, params, 0.0)
    return max(abs(d.dS), abs(d.dE), abs(d.dI), abs(d.dR))


def _residual_gate(params: ModelParams) -> float:
    scale = params.mu * params.N if params.mu > 0.0 else params.N
    return _RESIDUAL_RTOL * scale


def _check_residual(point: EquilibriumPoint, params: ModelParams) -> EquilibriumPoint:
    if point.residual > _residual_gate(params):
        raise ArithmeticError(
            f"equilibrium residual {point.residual} exceeds gate "
            f"{_residual_gate(params)} for {point.kind}")
    return point


def disease_free_equilibrium(params: ModelParams) -> EquilibriumPoint:
    """The whole-population-susceptible point (N, 0, 0, 0)."""
    state = SeirState(params.N, 0.0, 0.0, 0.0)
    return _check_residual(
        EquilibriumPoint(state, "disease_free", _residual(state, params)), params)


def _require_sigma_equals_gamma(params: ModelParams) -> None:
    if params.sigma != params.gamma:
        raise ValueError("appendix requires sigma equals gamma")


def endemic_equilibrium(params: ModelParams) -> Optional[EquilibriumPoint]:
    """The interior equilibrium, or None when it does not exist.

    Requires sigma = gamma and sigma > 0. For mu > 0 the point exists iff
    (mu+sigma)^2/(sigma*beta) < 1; for mu = 0 the special branch exists
    iff sigma < beta.
    """
    _require_sigma_equals_gamma(params)
    mu, om, be, si, N = params.mu, params.omega, params.beta, params.sigma, params.N
    if si == 0.0:
        raise ValueError("endemic equilibrium undefined for sigma = 0")

    if mu == 0.0:
        if not si < be:
            return None
        denom = be * (2.0 * om + si)
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

    if be == 0.0 or (mu + si) ** 2 / (si * be) >= 1.0:
        return None

    ms2 = (mu + si) ** 2
    excess = si * be - ms2
    denom = be * (ms2 + om * (mu + 2.0 * si))
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
    ms2 = (mu + si) ** 2
    value = ((si * be - ms2) / (be * (ms2 + om * (mu + 2.0 * si)))
             * max(si, (1.0 + mu / si) * (mu + om)))
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
    threshold = (mu + si) ** 2 / si if si > 0.0 else math.inf
    stable = mu > 0.0 and om > -mu and 0.0 <= be < threshold
    return CharZerosX1(zeros=zeros, locally_stable=stable)


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Spectrum of a real matrix, sorted by real part descending."""
    m = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("eigenvalues: non-finite entries")
    vals = np.linalg.eigvals(m)
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def _sweep_polynomials(params: ModelParams, endemic: EquilibriumPoint):
    """Coefficient arrays (highest degree first) for p0 and ptilde."""
    mu, om, si, N = params.mu, params.omega, params.sigma, params.N
    s_frac = endemic.state.S / N
    i_frac = endemic.state.I / N
    lin_mu = np.array([1.0, mu])                  # (s + mu)
    lin_mo = np.array([1.0, mu + om])             # (s + mu + omega)
    # np.convolve is np.polymul without the poly1d round trip (same bits).
    quad_ms = np.convolve(np.array([1.0, mu + si]), np.array([1.0, mu + si]))
    p0 = np.convolve(np.convolve(lin_mu, quad_ms), lin_mo)
    ptilde = np.polysub(
        i_frac * np.polysub(np.convolve(quad_ms, lin_mo),
                            np.array([om * si ** 2])),
        si * s_frac * np.convolve(lin_mu, lin_mo))
    return p0, ptilde


@lru_cache(maxsize=None)
def _default_grid() -> tuple[np.ndarray, np.ndarray]:
    """The default frequency grid and 1j times it, built on first use."""
    grid = np.logspace(-6.0, 6.0, 10_000)
    s = 1j * grid
    grid.flags.writeable = False
    s.flags.writeable = False
    return grid, s


def _polyval_into(coeffs: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.polyval(coeffs, s) written into out, with the same operations."""
    out.fill(0.0)
    for c in coeffs:
        np.multiply(out, s, out=out)
        np.add(out, c, out=out)
    return out


def _ratios(p0: np.ndarray, ptilde: np.ndarray, s: np.ndarray) -> np.ndarray:
    """|ptilde(s)/p0(s)| elementwise over a complex array s."""
    num = _polyval_into(ptilde, s, np.empty_like(s))
    den = _polyval_into(p0, s, np.empty_like(s))
    return np.abs(np.divide(num, den, out=num))


def _ratio_at(p0: np.ndarray, ptilde: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _ratios(p0, ptilde, 1j * np.asarray(w, dtype=float))


def _ratio_scalar(p0: list[float], ptilde: list[float], w: float) -> float:
    """_ratio_at at one frequency w > 0, in Python floats and bitwise equal.

    It repeats numpy's complex arithmetic: the Horner step of np.polyval
    (a complex product, then a real coefficient added as c + 0j), Smith's
    division as numpy's complex divide does it (CPython's complex division
    rounds differently), and np.abs for the magnitude (abs() and
    math.hypot round differently).
    """
    sr, si = 0.0 * w, 1.0 * w
    nr = ni = dr = di = 0.0
    for c in ptilde:
        nr, ni = nr * sr - ni * si + c, nr * si + ni * sr + 0.0
    for c in p0:
        dr, di = dr * sr - di * si + c, dr * si + di * sr + 0.0
    if abs(dr) >= abs(di):
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        q = complex((nr + ni * rat) * scl, (ni - nr * rat) * scl)
    else:
        rat = dr / di
        scl = 1.0 / (di + dr * rat)
        q = complex((nr * rat + ni) * scl, (ni * rat - nr) * scl)
    return float(np.abs(q))


def _checked_grid(grid) -> tuple[np.ndarray, np.ndarray]:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("sweep refused: frequency grid must be one-dimensional")
    if grid.size == 0:
        raise ValueError("sweep refused: empty frequency grid")
    if not np.all(np.isfinite(grid)):
        raise ValueError("sweep refused: frequency grid must be finite")
    if not np.all(grid > 0.0):
        raise ValueError("sweep refused: frequency grid must be strictly positive")
    if not np.all(grid[1:] > grid[:-1]):
        raise ValueError("sweep refused: frequency grid must be strictly increasing")
    return grid, 1j * grid


def hinf_ratio_sweep(params: ModelParams,
                     grid: np.ndarray | None = None) -> SweepResult:
    """Peak of |ptilde(iw)/p0(iw)| over frequency and the 1/beta test.

    The default grid is 1e4 log-spaced points on [1e-6, 1e6] rad/day; the
    ratio is proper with degree gap one, so it decays at the high end and
    flattens to |ptilde(0)/p0(0)| at the low end; a golden-section polish
    around the grid argmax refines the peak. A caller's grid must be
    one-dimensional, non-empty, finite, strictly positive and strictly
    increasing; anything else raises ValueError. Requires mu > 0 (p0
    strictly Hurwitz) and an existing endemic point.
    """
    if params.mu == 0.0:
        raise ValueError("sweep refused: p0 has a root on the imaginary axis (mu = 0)")
    endemic = endemic_equilibrium(params)
    if endemic is None:
        raise ValueError("sweep refused: no endemic equilibrium for these parameters")
    grid, s = _default_grid() if grid is None else _checked_grid(grid)

    p0, ptilde = _sweep_polynomials(params, endemic)
    ratios = _ratios(p0, ptilde, s)
    k = int(np.argmax(ratios))
    best_w, best_r = float(grid[k]), float(ratios[k])

    # Golden-section polish on log-frequency between the argmax neighbours.
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])
    if hi > lo:
        p0l, ptl = p0.tolist(), ptilde.tolist()
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc = -_ratio_scalar(p0l, ptl, math.exp(c))
        fd = -_ratio_scalar(p0l, ptl, math.exp(d))
        for _ in range(60):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = -_ratio_scalar(p0l, ptl, math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = -_ratio_scalar(p0l, ptl, math.exp(d))
        w_pol = math.exp((a + b) / 2.0)
        r_pol = _ratio_scalar(p0l, ptl, w_pol)
        if r_pol > best_r:
            best_w, best_r = w_pol, r_pol

    threshold = 1.0 / params.beta if params.beta > 0.0 else math.inf
    return SweepResult(max_ratio=best_r, argmax_freq=best_w,
                       condition_holds=best_r < threshold, threshold=threshold)


def analyze(params: ModelParams, sweep: bool = True) -> list[StabilityReport]:
    """Stability reports for the disease-free and (if present) endemic points."""
    reports: list[StabilityReport] = []

    x1 = disease_free_equilibrium(params)
    j1 = jacobian_at(x1.state, params)
    spec1 = eigenvalues(j1)
    reports.append(StabilityReport(
        point=x1, jacobian=j1, spectrum=spec1,
        closed_form_zeros=char_zeros_x1(params).zeros,
        locally_stable=bool(np.all(spec1.real < 0.0))))

    x2 = endemic_equilibrium(params)
    if x2 is not None:
        j2 = jacobian_at(x2.state, params)
        spec2 = eigenvalues(j2)
        hinf_ratio = hinf_condition = None
        if sweep and params.mu > 0.0:
            res = hinf_ratio_sweep(params)
            hinf_ratio, hinf_condition = res.max_ratio, res.condition_holds
        reports.append(StabilityReport(
            point=x2, jacobian=j2, spectrum=spec2, closed_form_zeros=None,
            locally_stable=bool(np.all(spec2.real < 0.0)),
            hinf_ratio=hinf_ratio, hinf_condition_holds=hinf_condition))

    return reports
