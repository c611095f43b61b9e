"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s). The
random workloads for criteria 1, 2 and 13 are produced once by a
module-scoped fixture and shared.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    ImmuneFeedback,
    IntegratorConfig,
    Linearizing,
    ModelParams,
    NormalState,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    char_zeros_x1,
    check_identity_suite,
    check_integral_limit,
    disease_free_equilibrium,
    eigenvalues,
    endemic_equilibrium,
    estimate_decay_rate,
    from_normal,
    hinf_ratio_sweep,
    integrate,
    integrate_normal,
    integrate_zero_dynamics,
    jacobian_at,
    to_normal,
)

P1 = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9, sigma=0.2, gamma=0.2)


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _random_params(rng: np.random.Generator) -> ModelParams:
    return ModelParams(
        N=1000.0,
        mu=float(rng.uniform(0.005, 0.05)),
        omega=float(rng.uniform(0.0, 0.05)),
        beta=float(rng.uniform(0.1, 1.2)),
        sigma=float(rng.uniform(0.05, 0.4)),
        gamma=float(rng.uniform(0.05, 0.4)),
    )


def _random_initial(rng: np.random.Generator, N: float) -> SeirState:
    return SeirState(*map(float, rng.dirichlet((1.0, 1.0, 1.0, 1.0)) * N))


def _random_scenario(rng: np.random.Generator):
    """(params, initial, law) with gains valid for the drawn law."""
    params = _random_params(rng)
    kind = rng.integers(0, 7)
    if kind == 0:
        law = ZeroVax()
    elif kind == 1:
        law = ConstantVax(float(rng.uniform(0.0, 1.0)))
    elif kind == 2:
        law = SusceptibleLinear(float(rng.uniform(0.0, 0.5)))
    elif kind == 3:
        law = SusceptiblePlusExposed(float(rng.uniform(0.0, 0.5)))
    elif kind == 4:
        g = float(rng.uniform(-0.9 * (params.mu + params.omega), 0.3))
        law = ImmuneFeedback(g, float(rng.uniform(0.0, 0.3)))
    elif kind == 5:
        # constrained law needs its gate: omega = 0, mu large enough
        g = -float(rng.uniform(0.01, 0.1))
        gamma = float(rng.uniform(0.05, 0.3))
        params = dataclasses.replace(
            params, omega=0.0, gamma=gamma,
            mu=abs(g) + max(gamma, abs(g)) + float(rng.uniform(0.01, 0.1)))
        law = ConstrainedImmuneFeedback(g)
    else:
        law = Linearizing(float(rng.uniform(0.005, 0.3)),
                          float(rng.uniform(0.0, 0.3)))
    return params, _random_initial(rng, params.N), law


def _note_identity(shared, traj, params):
    """Add a trajectory's identity-suite verdict to criterion 13's pool."""
    chk = check_identity_suite(traj, params)
    shared["identity"].append(
        (traj.law.label, chk.passed, chk.worst, chk.tolerance))


@pytest.fixture(scope="module")
def shared():
    """Workloads for criteria 1, 2 (timed) and the identity pool for 13."""
    data = {"identity": []}

    # criterion 1: conservation over random catalogue scenarios
    rng = np.random.default_rng(20260810)
    cfg = IntegratorConfig(t_end=500.0, dt=1e-2, sampling_stride=1)
    drifts = []
    t0 = time.perf_counter()
    for _ in range(50):
        params, initial, law = _random_scenario(rng)
        tr = integrate(initial, params, law, cfg)
        drifts.append(float(np.max(np.abs(
            tr.S + tr.E + tr.I + tr.R - params.N))) / params.N)
        _note_identity(data, tr, params)
    data["c1_time"] = time.perf_counter() - t0
    data["c1_drifts"] = drifts

    # criterion 2: positivity under saturated laws
    rng = np.random.default_rng(918273645)
    lows = []
    t0 = time.perf_counter()
    for _ in range(50):
        params, initial, inner = _random_scenario(rng)
        law = Saturated(inner, 0.0, 1.0)
        tr = integrate(initial, params, law, cfg)
        lows.append(float(tr.states().min()) / params.N)
        _note_identity(data, tr, params)
    data["c2_time"] = time.perf_counter() - t0
    data["c2_lows"] = lows
    return data


def test_criterion_01_conservation(shared):
    worst = max(shared["c1_drifts"])
    ok = worst <= 1e-9 and shared["c1_time"] < 30.0
    _report(1, ok, f"50 random scenarios: worst |sum-N|/N = {worst:.3e} "
                   f"(tol 1e-09), runtime {shared['c1_time']:.1f}s (< 30s)")


def test_criterion_02_positivity(shared):
    low = min(shared["c2_lows"])
    ok = low >= -1e-9 and shared["c2_time"] < 30.0
    _report(2, ok, f"50 saturated-law scenarios: min component/N = {low:.3e} "
                   f"(>= -1e-09), runtime {shared['c2_time']:.1f}s (< 30s)")


def test_criterion_03_theorem2i_closed_form(shared):
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    worst_rate = 0.0
    for _ in range(10):
        g = float(rng.uniform(0.02, 0.2))
        split = rng.dirichlet((1.0, 1.0, 1.0)) * 500.0
        initial = SeirState(500.0, *map(float, split))
        cfg = IntegratorConfig(t_end=50.0, dt=1e-3, sampling_stride=1)
        tr = integrate(initial, P1, SusceptibleLinear(g), cfg)
        closed = 500.0 * np.exp(-(P1.mu + g) * tr.t)
        worst_rel = max(worst_rel, float(np.max(np.abs(tr.S - closed) / closed)))
        fit = estimate_decay_rate(tr.t, tr.S)
        worst_rate = max(worst_rate, abs(fit.rate - (P1.mu + g)) / (P1.mu + g))
        _note_identity(shared, tr, P1)
    ok = worst_rel <= 1e-3 and worst_rate <= 0.01
    _report(3, ok, f"10 gain draws: worst rel error vs exp(-(mu+g)t)S0 = "
                   f"{worst_rel:.2e} (tol 1e-03); worst rate error = "
                   f"{worst_rate:.2%} (tol 1%)")


def test_criterion_04_theorem2i_vaccination_limit(shared):
    cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=1)
    tr = integrate(SeirState(500.0, 200.0, 100.0, 200.0), P1,
                   SusceptibleLinear(0.1), cfg)
    n_tail = int(0.1 * len(tr))
    mean_v = float(np.mean(tr.V[-n_tail:]))
    err = abs(mean_v - (1.0 + P1.omega / P1.mu))
    _note_identity(shared, tr, P1)
    ok = err <= 1e-2
    _report(4, ok, f"tail mean V = {mean_v:.6f} vs 3.0: |err| = {err:.2e} "
                   "(tol 1e-02)")


def test_criterion_05_theorem2ii_limits(shared):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(5):
        g = float(rng.uniform(0.2, 0.95)) * P1.mu
        cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=1)
        tr = integrate(SeirState(500.0, 200.0, 100.0, 200.0), P1,
                       SusceptiblePlusExposed(g), cfg)
        n_tail = int(0.1 * len(tr))
        se = float(np.mean(tr.S[-n_tail:] + tr.E[-n_tail:]))
        ir = float(np.mean(tr.I[-n_tail:] + tr.R[-n_tail:]))
        se_lim = P1.mu * P1.N / (P1.mu + g)
        ir_lim = g * P1.N / (P1.mu + g)
        worst = max(worst, abs(se - se_lim) / se_lim, abs(ir - ir_lim) / ir_lim)
        _note_identity(shared, tr, P1)
    ok = worst <= 1e-3
    _report(5, ok, f"5 draws g in (0, mu): worst relative error of S+E and "
                   f"I+R limits = {worst:.2e} (tol 1e-03)")


def test_criterion_06_theorem3_limits(shared):
    worst_r = worst_rate = worst_int = 0.0
    for g in (0.0, -0.01, 0.05):
        lam = P1.mu + P1.omega + g
        g1 = lam
        law = ImmuneFeedback(g, g1)
        cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=1)
        tr = integrate(SeirState(700.0, 200.0, 100.0, 0.0), P1, law, cfg)
        n_tail = int(0.1 * len(tr))
        worst_r = max(worst_r,
                      abs(float(np.mean(tr.R[-n_tail:])) - P1.N) / P1.N)
        fit_win = tr.t <= 10.0 / lam
        fit = estimate_decay_rate(tr.t[fit_win], (P1.N - tr.R)[fit_win])
        worst_rate = max(worst_rate, abs(fit.rate - lam) / lam)
        chk_int = check_integral_limit(tr, rel_tol=0.01)
        worst_int = max(worst_int, chk_int.worst / chk_int.tolerance * 0.01)
        _note_identity(shared, tr, P1)
    ok = worst_r <= 1e-3 and worst_rate <= 0.01 and worst_int <= 0.01
    _report(6, ok, f"g in (0, -0.01, 0.05), g1 = mu+omega+g: worst |R-N|/N = "
                   f"{worst_r:.2e} (1e-03); N-R rate err = {worst_rate:.2%} "
                   f"(1%); integral err = {worst_int:.2%} (1%)")


def test_criterion_07_linearizing_equivalence():
    worst_v = worst_x = 0.0
    for g_prime, g1 in ((0.05, 0.05), (0.11, 0.02)):
        lin = Linearizing(g_prime, g1)
        imm = ImmuneFeedback(g_prime - (P1.mu + P1.omega), g1)
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=10)
        tr_a = integrate(SeirState(700.0, 200.0, 100.0, 0.0), P1, lin, cfg)
        tr_b = integrate(SeirState(700.0, 200.0, 100.0, 0.0), P1, imm, cfg)
        ulps = np.abs(tr_a.V - tr_b.V) / np.spacing(
            np.maximum(np.abs(tr_b.V), 1.0))
        worst_v = max(worst_v, float(ulps.max()))
        worst_x = max(worst_x, float(np.max(np.abs(tr_a.states()
                                                   - tr_b.states()))))
    ok = worst_v <= 4.0 and worst_x <= 1e-9 * P1.N
    _report(7, ok, f"linearizing vs immune feedback: worst V diff = "
                   f"{worst_v:.1f} ulps (<= 4); worst state diff = "
                   f"{worst_x:.2e} (<= 1e-09*N)")


def test_criterion_08_normal_form_consistency():
    rng = np.random.default_rng(5150)
    worst = 0.0
    round_trip_exact = True
    for k in range(10):
        params = _random_params(rng)
        # dyadic initial state: representable sums round-trip bitwise
        counts = rng.multinomial(4 * int(params.N), (0.25, 0.25, 0.25, 0.25))
        initial = SeirState(*(float(c) / 4.0 for c in counts))
        law = (ZeroVax(), ConstantVax(0.4),
               ImmuneFeedback(0.0, params.mu + params.omega),
               SusceptibleLinear(0.05))[k % 4]
        round_trip_exact &= from_normal(to_normal(initial)) == initial
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=10)
        tr_x = integrate(initial, params, law, cfg)
        tr_z = integrate_normal(to_normal(initial), params, law, cfg)
        worst = max(
            worst,
            float(np.max(np.abs(tr_z.z1 - tr_x.R))),
            float(np.max(np.abs(tr_z.z2 - (tr_x.S + tr_x.R)))),
            float(np.max(np.abs(tr_z.z3 - tr_x.E))),
            float(np.max(np.abs(tr_z.z4 - tr_x.I))),
        )
    jac = np.column_stack([from_normal(NormalState(*e)).as_tuple()
                           for e in np.eye(4).tolist()])
    det = float(np.linalg.det(jac))
    ok = worst <= 1e-6 * 1000.0 and round_trip_exact and det == -1.0
    _report(8, ok, f"10 scenarios: worst x-vs-z deviation = {worst:.2e} "
                   f"(<= 1e-06*N); round-trip exact = {round_trip_exact}; "
                   f"jacobian det = {det}")


def test_criterion_09_zero_dynamics():
    rng = np.random.default_rng(333)
    worst_drift = 0.0
    worst_low, worst_high = 0.0, 0.0
    for _ in range(20):
        z0 = tuple(map(float, rng.dirichlet((1.0, 1.0, 1.0)) * P1.N))
        c0 = sum(z0)
        cfg = IntegratorConfig(t_end=1000.0, dt=1e-2, sampling_stride=100)
        tr = integrate_zero_dynamics(z0, P1, cfg)
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(tr.total - c0))) / c0)
        lo = min(float(tr.z2.min()), float(tr.z3.min()), float(tr.z4.min()))
        hi = max(float(tr.z2.max()), float(tr.z3.max()), float(tr.z4.max()))
        worst_low = min(worst_low, lo / c0)
        worst_high = max(worst_high, (hi - c0) / c0)
    ok = worst_drift <= 1e-9 and worst_low >= -1e-9 and worst_high <= 1e-9
    _report(9, ok, f"20 starts, 1000 days: sum drift/C = {worst_drift:.2e} "
                   f"(<= 1e-09); component range excess = [{worst_low:.2e}, "
                   f"{worst_high:.2e}] (within +/- 1e-09)")


def test_criterion_10_equilibria():
    x1 = disease_free_equilibrium(P1)
    x2 = endemic_equilibrium(P1)
    gate = 1e-8 * P1.mu * P1.N
    # independent formula evaluation (discussion-simplicity tie sigma=gamma)
    mu, om, be, si, N = P1.mu, P1.omega, P1.beta, P1.sigma, P1.N
    ms2 = (mu + si) ** 2
    denom = be * (ms2 + om * (mu + 2.0 * si))
    expected = (
        ms2 / (si * be) * N,
        (mu + om) * (mu + si) * (si * be - ms2) / (si * denom) * N,
        (mu + om) * (si * be - ms2) / denom * N,
        si * (si * be - ms2) / denom * N,
    )
    rel = max(abs(a - b) / abs(b)
              for a, b in zip(x2.state.as_tuple(), expected))
    two_dp = (round(expected[0], 2), round(expected[1], 2),
              round(expected[2], 2), round(expected[3], 2))
    anchors_ok = two_dp == (245.0, 90.95, 86.62, 577.44)

    cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=100)
    tr = integrate(x2.state, P1, ZeroVax(), cfg)
    drift = float(np.max(np.abs(tr.states() - np.array(x2.state.as_tuple()))))

    ok = (x1.residual <= gate and x2.residual <= gate and rel <= 1e-6
          and anchors_ok and drift < 1e-6 * P1.N)
    _report(10, ok, f"residuals ({x1.residual:.1e}, {x2.residual:.1e}) <= "
                    f"{gate:.1e}; formula agreement rel = {rel:.1e} "
                    f"(<= 1e-06); 2dp anchors {two_dp}; 100-day drift from "
                    f"x2 = {drift:.2e} (< 1e-06*N)")


def test_criterion_11_spectrum_cross_check():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        p = ModelParams(
            N=1000.0,
            mu=float(rng.uniform(0.001, 0.5)),
            omega=float(rng.uniform(0.0, 0.5)),
            beta=float(rng.uniform(0.0, 1.5)),
            sigma=(s := float(rng.uniform(0.01, 0.5))),
            gamma=s,
        )
        numeric = np.sort_complex(eigenvalues(
            jacobian_at(SeirState(p.N, 0.0, 0.0, 0.0), p)))
        closed = np.sort_complex(np.array(char_zeros_x1(p).zeros,
                                          dtype=complex))
        worst = max(worst, float(np.max(np.abs(numeric - closed))))

    # verdict flips at beta* = (mu+sigma)^2/sigma within 1e-4 resolution
    beta_star = (P1.mu + P1.sigma) ** 2 / P1.sigma
    grid = np.arange(beta_star - 20e-4, beta_star + 20e-4, 1e-4)
    verdicts = [char_zeros_x1(dataclasses.replace(P1, beta=float(b)))
                .locally_stable for b in grid]
    flips = [k for k in range(1, len(verdicts))
             if verdicts[k] != verdicts[k - 1]]
    flip_ok = (len(flips) == 1
               and abs(float(grid[flips[0]]) - beta_star) <= 1e-4
               and verdicts[0] and not verdicts[-1])

    ok = worst <= 1e-9 and flip_ok
    _report(11, ok, f"100 draws: worst |closed-form - numeric| = {worst:.2e} "
                    f"(<= 1e-09); verdict flips once at beta* within 1e-04: "
                    f"{flip_ok}")


def test_criterion_12_sweep_implies_stability():
    # the named stable-endemic set first
    p = dataclasses.replace(P1, beta=0.25)
    eq = endemic_equilibrium(p)
    res = hinf_ratio_sweep(p, eq)
    spec = eigenvalues(jacobian_at(eq.state, p))
    base_ok = res.condition_holds and bool(np.all(spec.real < 0.0))

    rng = np.random.default_rng(4321)
    satisfied = 0
    attempts = 0
    counterexamples = 0
    while satisfied < 50 and attempts < 2000:
        attempts += 1
        mu = float(rng.uniform(0.005, 0.05))
        om = float(rng.uniform(0.0, 0.05))
        si = float(rng.uniform(0.05, 0.4))
        beta_min = (mu + si) ** 2 / si
        be = float(rng.uniform(beta_min * 1.01, beta_min * 3.0))
        p = ModelParams(N=1000.0, mu=mu, omega=om, beta=be, sigma=si, gamma=si)
        eq = endemic_equilibrium(p)
        if eq is None:
            continue
        res = hinf_ratio_sweep(p, eq)
        if not res.condition_holds:
            continue
        satisfied += 1
        spec = eigenvalues(jacobian_at(eq.state, p))
        if not np.all(spec.real < 0.0):
            counterexamples += 1
    ok = base_ok and satisfied == 50 and counterexamples == 0
    _report(12, ok, f"beta=0.25 set: condition holds and spectrum stable = "
                    f"{base_ok}; {satisfied} random satisfying draws, "
                    f"{counterexamples} counterexamples (need 0)")


def test_criterion_13_identity_suite(shared):
    results = shared["identity"]
    n_fail = sum(1 for _, passed, _, _ in results if not passed)
    worst_frac = max(w / tol for _, _, w, tol in results)
    ok = n_fail == 0 and len(results) >= 100
    _report(13, ok, f"identity suite on {len(results)} trajectories from "
                    f"criteria 1-6: {n_fail} failures; worst residual at "
                    f"{worst_frac:.1%} of tolerance")
