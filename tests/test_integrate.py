"""Closed-loop integrator: closed forms, order, determinism, positivity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    GainConstraintError,
    ImmuneFeedback,
    IntegratorConfig,
    Linearizing,
    ModelParams,
    NonFiniteStateError,
    OutputZeroing,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    Trajectory,
    ZeroVax,
    integrate,
    law_name,
    positivity_events,
)
from seirvax.integrate import _DP_A, _DP_E, Samples, _run_dopri45
from seirvax.laws import compile_law
from seirvax.model import seir_field


class TestBasics:
    def test_disease_free_is_fixed(self, p1):
        cfg = IntegratorConfig(t_end=50.0, dt=0.05, sampling_stride=10)
        tr = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), p1, ZeroVax(), cfg)
        assert np.all(tr.S == 1000.0)
        assert np.all(tr.E == 0.0) and np.all(tr.I == 0.0) and np.all(tr.R == 0.0)

    def test_first_sample_is_initial_and_t_increases(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=5.0, dt=0.01, sampling_stride=7)
        tr = integrate(mixed_state, p1, ZeroVax(), cfg)
        assert tr.t[0] == 0.0
        assert tr.state_at(0) == mixed_state
        assert np.all(np.diff(tr.t) > 0.0)
        assert tr.t[-1] == pytest.approx(5.0, abs=1e-12)

    def test_rejects_bad_initial(self, p1):
        cfg = IntegratorConfig(t_end=1.0)
        with pytest.raises(ValueError):
            integrate(SeirState(-1.0, 0.0, 0.0, 1001.0), p1, ZeroVax(), cfg)
        with pytest.raises(ValueError, match="sums to"):
            integrate(SeirState(500.0, 0.0, 0.0, 400.0), p1, ZeroVax(), cfg)

    def test_rejects_invalid_gains(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=1.0)
        with pytest.raises(GainConstraintError):
            integrate(mixed_state, p1, SusceptibleLinear(-0.5), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=0.0, t0=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=1.0, positivity_policy="clamp")

    @pytest.mark.parametrize("name", ["t0", "t_end", "dt", "rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            IntegratorConfig(**{"t_end": 10.0, name: value})

    def test_config_rejects_off_grid_fixed_step(self):
        with pytest.raises(ValueError, match="does not divide"):
            IntegratorConfig(t_end=1200.0, dt=5000.0)
        with pytest.raises(ValueError, match="does not divide"):
            IntegratorConfig(t_end=1.0, dt=0.3)
        # In adaptive mode dt is only the first trial step.
        IntegratorConfig(t_end=1200.0, dt=5000.0, adaptive=True)
        assert IntegratorConfig(t_end=1200.0, dt=0.01).n_steps == 120_000
        assert IntegratorConfig(t_end=1.5, t0=0.5, dt=0.25).n_steps == 4

    @pytest.mark.parametrize("stride", [2.7, 2.0, 0, -1])
    def test_config_rejects_non_integer_stride(self, stride):
        with pytest.raises(ValueError, match="sampling_stride"):
            IntegratorConfig(t_end=1.0, sampling_stride=stride)

    def test_non_finite_abort_carries_sample_index(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=1.0, dt=0.01)
        with pytest.raises(NonFiniteStateError) as err:
            integrate(mixed_state, p1, ConstantVax(1e308), cfg)
        assert err.value.sample_index >= 1

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_non_finite_v_is_named(self, p1, mixed_state, adaptive):
        cfg = IntegratorConfig(t_end=1.0, dt=0.01, adaptive=adaptive)
        with pytest.raises(NonFiniteStateError, match="non-finite V at") as err:
            integrate(mixed_state, p1, ConstantVax(math.nan), cfg)
        assert (err.value.t, err.value.sample_index) == (0.0, 0)

    def test_unattainable_adaptive_tolerance_blames_tolerance(self, p1,
                                                              mixed_state):
        cfg = IntegratorConfig(t_end=1.0, adaptive=True, rel_tol=1e-300,
                               abs_tol=1e-300)
        with pytest.raises(ValueError, match="rel_tol = 1e-300 and abs_tol "
                           "= 1e-300 cannot be met"):
            integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)


class TestClosedForms:
    def test_theorem2i_susceptible_decay(self, p1):
        # Under the susceptible-linear law, dS/dt = -(mu+g)S exactly:
        # S(10) = 500*exp(-1.1) ~= 166.44 for g = 0.1.
        cfg = IntegratorConfig(t_end=10.0, dt=1e-3, sampling_stride=100)
        tr = integrate(SeirState(500.0, 200.0, 100.0, 200.0), p1,
                       SusceptibleLinear(0.1), cfg)
        expected = 500.0 * math.exp(-1.1)
        assert expected == pytest.approx(166.4355, abs=5e-4)
        assert tr.S[-1] == pytest.approx(expected, rel=1e-3)

    def test_theorem2i_s_independent_of_companions(self, p1):
        # The decoupled S equation ignores the other compartments, so any
        # companion split must land on the same closed form (up to the
        # step-hold error of V).
        cfg = IntegratorConfig(t_end=10.0, dt=1e-3, sampling_stride=1000)
        expected = 500.0 * math.exp(-1.1)
        for companions in ((200.0, 100.0, 200.0), (50.0, 250.0, 200.0)):
            tr = integrate(SeirState(500.0, *companions), p1,
                           SusceptibleLinear(0.1), cfg)
            assert tr.S[-1] == pytest.approx(expected, rel=1e-3)

    def test_theorem3_immune_growth(self, p1):
        # dR/dt = -(mu+omega+g)R + g1*N exactly; from R(0)=0 with
        # g=0, g1=0.03: R(100) = 1000*(1 - exp(-3)) ~= 950.21.
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=100)
        tr = integrate(SeirState(700.0, 200.0, 100.0, 0.0), p1,
                       ImmuneFeedback(0.0, 0.03), cfg)
        expected = 1000.0 * (1.0 - math.exp(-3.0))
        assert expected == pytest.approx(950.2129, abs=5e-4)
        assert tr.R[-1] == pytest.approx(expected, rel=1e-3)

    def test_rk4_order_against_closed_form(self):
        # Configuration with constant V along the trajectory (omega = 0,
        # E = I = 0, g = 0 makes V identically 1), so the step error is
        # pure RK4: halving dt divides the closed-form error by ~2^4.
        p = ModelParams(N=1000.0, mu=0.5, omega=0.0, beta=0.7,
                        sigma=0.2, gamma=0.25)
        s0 = SeirState(600.0, 0.0, 0.0, 400.0)
        law = SusceptibleLinear(0.0)

        def err(dt: float) -> float:
            cfg = IntegratorConfig(t_end=10.0, dt=dt, sampling_stride=10_000)
            tr = integrate(s0, p, law, cfg)
            assert np.allclose(tr.V, 1.0)
            return abs(float(tr.S[-1]) - 600.0 * math.exp(-0.5 * 10.0))

        ratio = err(0.25) / err(0.125)
        assert 12.0 <= ratio <= 20.0

    def test_against_scipy_reference(self, p1, mixed_state):
        # Independent oracle: scipy's adaptive RK45 at tight tolerance on
        # the same vaccination-free vector field.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

        def rhs(t, y):
            S, E, I, R = y
            bp = p1.beta / p1.N
            return [
                -p1.mu * S + p1.omega * R - bp * S * I + p1.mu * p1.N,
                bp * S * I - (p1.mu + p1.sigma) * E,
                -(p1.mu + p1.gamma) * I + p1.sigma * E,
                -(p1.mu + p1.omega) * R + p1.gamma * I,
            ]

        sol = solve_ivp(rhs, (0.0, 50.0), list(mixed_state.as_tuple()),
                        rtol=1e-11, atol=1e-11, dense_output=True)
        cfg = IntegratorConfig(t_end=50.0, dt=1e-3, sampling_stride=5000)
        tr = integrate(mixed_state, p1, ZeroVax(), cfg)
        ref = sol.sol(tr.t)
        ours = tr.states().T
        assert np.max(np.abs(ours - ref)) < 1e-6 * p1.N


class TestInvariants:
    def test_conservation(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=200.0, dt=1e-2, sampling_stride=10)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        drift = np.abs(tr.S + tr.E + tr.I + tr.R - p1.N)
        assert drift.max() <= 1e-9 * p1.N

    def test_determinism_bitwise(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=20.0, dt=1e-2)
        a = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        b = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        for name in ("t", "S", "E", "I", "R", "V", "u"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_v_hold_consistency(self, p1, mixed_state):
        # Recomputing u from stored state and V reproduces stored u exactly.
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2, sampling_stride=3)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.01, 0.05), cfg)
        u = p1.omega * tr.R - p1.sigma * tr.E - p1.mu * p1.N * tr.V
        assert np.array_equal(u, tr.u)

    def test_stored_v_matches_law(self, p1, mixed_state):
        from seirvax import evaluate
        cfg = IntegratorConfig(t_end=5.0, dt=1e-2, sampling_stride=11)
        law = ImmuneFeedback(0.01, 0.05)
        tr = integrate(mixed_state, p1, law, cfg)
        for i in range(len(tr)):
            assert tr.V[i] == evaluate(law, tr.state_at(i), p1, float(tr.t[i]))


class TestPositivity:
    def test_compliant_run_has_no_events(self, p1, mixed_state):
        from seirvax import Saturated
        cfg = IntegratorConfig(t_end=300.0, dt=1e-2, sampling_stride=10)
        law = Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0)
        tr = integrate(mixed_state, p1, law, cfg)
        assert positivity_events(tr) == []

    def test_injected_negative_start_reported_at_t0(self, p1):
        # Hand-built trajectory: the monitor flags the first sample.
        t = np.array([0.0, 1.0])
        tr = Trajectory(t=t, S=np.array([-1.0, 1.0]), E=np.zeros(2),
                        I=np.zeros(2), R=np.array([1001.0, 999.0]),
                        V=np.zeros(2), u=np.zeros(2), params=p1,
                        law=ZeroVax(), law_label="zero",
                        config=IntegratorConfig(t_end=1.0))
        events = positivity_events(tr)
        assert events and events[0].t == 0.0 and events[0].component == "S"

    def test_negative_vaccination_drives_r_negative(self, p1):
        # V = -5 from (N,0,0,0): dR/dt = -50/day, so the first event is
        # one step after t0.
        cfg = IntegratorConfig(t_end=1.0, dt=1e-2)
        tr = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), p1,
                       ConstantVax(-5.0), cfg)
        events = positivity_events(tr)
        assert events
        assert events[0].component == "R"
        assert events[0].t == pytest.approx(cfg.dt, abs=1e-12)

    def test_project_policy_clamps_and_logs(self, p1):
        cfg = IntegratorConfig(t_end=1.0, dt=1e-2, positivity_policy="project")
        tr = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), p1,
                       ConstantVax(-5.0), cfg)
        assert tr.projected_count > 0
        assert tr.projected[0].component == "R"
        assert np.all(tr.R >= 0.0)


class TestAdaptive:
    def test_adaptive_matches_fixed(self, p1, mixed_state):
        fixed = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03),
                          IntegratorConfig(t_end=50.0, dt=1e-3,
                                           sampling_stride=50_000))
        adaptive = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03),
                             IntegratorConfig(t_end=50.0, dt=1e-2,
                                              adaptive=True, rel_tol=1e-9,
                                              abs_tol=1e-9,
                                              sampling_stride=1_000_000))
        assert adaptive.t[-1] == pytest.approx(50.0, abs=1e-9)
        assert adaptive.S[-1] == pytest.approx(float(fixed.S[-1]), abs=2e-3)
        assert adaptive.R[-1] == pytest.approx(float(fixed.R[-1]), abs=2e-3)

    def test_adaptive_conserves(self, p1, mixed_state):
        tr = integrate(mixed_state, p1, ZeroVax(),
                       IntegratorConfig(t_end=100.0, dt=1e-2, adaptive=True,
                                        rel_tol=1e-10, abs_tol=1e-10))
        drift = np.abs(tr.S + tr.E + tr.I + tr.R - p1.N)
        assert drift.max() <= 1e-9 * p1.N


def test_sampling_stride_counts(p1, mixed_state):
    cfg = IntegratorConfig(t_end=1.0, dt=0.01, sampling_stride=7)
    tr = integrate(mixed_state, p1, ZeroVax(), cfg)
    # 100 steps: samples at 0, 7, ..., 98, plus the final step 100.
    assert len(tr) == 100 // 7 + 2
    assert tr.t[-1] == pytest.approx(1.0, abs=1e-12)


def test_adaptive_project_policy(p1):
    cfg = IntegratorConfig(t_end=1.0, dt=1e-2, adaptive=True,
                           positivity_policy="project",
                           rel_tol=1e-8, abs_tol=1e-8)
    tr = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), p1, ConstantVax(-5.0), cfg)
    assert tr.projected_count > 0
    assert np.all(tr.R >= 0.0)


# -- Dormand-Prince kernel against the generic tableau loop ---------------

def _tableau_sums(coeffs, ks):
    """Per component, sum(coeffs[m] * ks[m][c]) accumulated left to right
    from 0.0 over the whole row, zero coefficients included."""
    out = []
    for c in range(4):
        acc = 0.0
        for m, coef in enumerate(coeffs):
            acc += coef * ks[m][c]
        out.append(acc)
    return out


def _reference_dopri45(rhs, law_fn, y, params, config, project):
    """The generic stage loop `_run_dopri45` unrolls, with V and the first
    stage re-evaluated wherever the loop needs them.

    Returns the samples and counts of rejected attempts and of final
    steps whose t + h was clamped to a different t_end.
    """
    b5 = _DP_A[6] + (0.0,)
    muN = params.mu * params.N
    rtol, atol = config.rel_tol, config.abs_tol
    t0, t_end = config.t0, config.t_end
    samples = Samples()
    stats = {"rejected": 0, "clamped": 0}

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
                    y[c] + h * s for c, s in enumerate(_tableau_sums(_DP_A[j], ks)))
                ks.append(rhs(*yj, V))
            y5 = tuple(y[c] + h * s for c, s in enumerate(_tableau_sums(b5, ks)))
            err = [h * s for s in _tableau_sums(_DP_E, ks)]
            hold_err = 0.5 * h * muN * abs(law_fn(*y5, t + h) - V)
            err[0] += math.copysign(hold_err, err[0]) if err[0] else hold_err
            err[3] += math.copysign(hold_err, err[3]) if err[3] else hold_err
            try:
                acc = 0.0
                for c in range(4):
                    acc += (err[c] / (atol + rtol * max(abs(y[c]), abs(y5[c])))) ** 2
                norm = math.sqrt(acc / 4.0)
            except OverflowError:
                norm = math.inf
            total = 0.0
            for v in y5:
                total += v
            err_total = 0.0
            for v in err:
                err_total += v
            if not math.isfinite(norm) and not math.isfinite(total + err_total):
                raise samples.non_finite(t + h)
            if norm <= 1.0:
                break
            stats["rejected"] += 1
            h *= min(1.0, max(0.2, 0.9 * norm ** -0.2))
            if h <= 1e-14 * max(1.0, abs(t)):
                raise ValueError("adaptive step size underflow")

        if t + h >= t_end:
            stats["clamped"] += t + h != t_end
            t = t_end
        else:
            t = t + h
        y = y5
        if project and min(y) < 0.0:
            y = samples.project(t, y)
        accepted += 1
        if accepted % config.sampling_stride == 0 or t >= t_end:
            samples.record(t, *y, law_fn(*y, t))
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0
    return samples, stats


# mu is large enough for the constrained immune-feedback gate.
KERNEL_PARAMS = ModelParams(N=1000.0, mu=0.5, omega=0.02, beta=0.9,
                            sigma=0.2, gamma=0.2)
KERNEL_CATALOGUE = (ZeroVax(), ConstantVax(0.3), SusceptibleLinear(0.05),
                    SusceptiblePlusExposed(0.005), ImmuneFeedback(0.01, 0.05),
                    ConstrainedImmuneFeedback(-0.05), Linearizing(0.1, 0.05),
                    OutputZeroing())
KERNEL_LAWS = KERNEL_CATALOGUE + tuple(Saturated(law) for law in KERNEL_CATALOGUE)
# A first trial step of 5 days is rejected under every law.
KERNEL_CONFIGS = {
    "stride1": IntegratorConfig(t_end=2.0, dt=5.0, adaptive=True,
                                rel_tol=1e-6, abs_tol=1e-8),
    "stride3_t0_project": IntegratorConfig(t0=0.5, t_end=3.7, dt=1e-2,
                                           adaptive=True, rel_tol=1e-6,
                                           abs_tol=1e-8, sampling_stride=3,
                                           positivity_policy="project"),
}


def _kernel_and_reference(state, params, law, config):
    args = (seir_field(params), compile_law(law, params), state.as_tuple(),
            params, config, config.positivity_policy == "project")
    return _run_dopri45(*args), _reference_dopri45(*args)


def _assert_bitwise(got: Samples, want: Samples) -> None:
    assert got.columns().tobytes() == want.columns().tobytes()
    assert repr(got.projected) == repr(want.projected)
    assert got.n_projected == want.n_projected


class TestDopriKernel:
    @pytest.mark.parametrize("config", KERNEL_CONFIGS.values(), ids=KERNEL_CONFIGS)
    @pytest.mark.parametrize("law", KERNEL_LAWS, ids=law_name)
    def test_matches_tableau_loop(self, mixed_state, law, config):
        got, (want, stats) = _kernel_and_reference(mixed_state, KERNEL_PARAMS,
                                                   law, config)
        _assert_bitwise(got, want)
        if config.dt == 5.0:
            assert stats["rejected"] > 0

    # R is driven below 0 by V = -5, or by roundoff under an immune law
    # with g1 = 0 (which holds R at 0) whose V depends on the projected R.
    @pytest.mark.parametrize("state, law", [
        (SeirState(1000.0, 0.0, 0.0, 0.0), ConstantVax(-5.0)),
        (SeirState(900.0, 50.0, 50.0, 0.0), ImmuneFeedback(0.01, 0.0)),
    ], ids=["constant", "immune_feedback"])
    def test_matches_tableau_loop_when_projecting(self, p1, state, law):
        cfg = IntegratorConfig(t_end=2.0, dt=1e-2, adaptive=True, rel_tol=1e-8,
                               abs_tol=1e-8, sampling_stride=3,
                               positivity_policy="project")
        got, (want, _) = _kernel_and_reference(state, p1, law, cfg)
        assert want.n_projected > 0
        _assert_bitwise(got, want)

    def test_matches_tableau_loop_when_clamped(self, p1):
        # From the disease-free state the step grows 5x per step, and the
        # last step, from t = 1.56 (below t_end/2), lands off t_end = 5.7.
        cfg = IntegratorConfig(t_end=5.7, dt=1e-2, adaptive=True, rel_tol=1e-8,
                               abs_tol=1e-8)
        got, (want, stats) = _kernel_and_reference(
            SeirState(1000.0, 0.0, 0.0, 0.0), p1, ZeroVax(), cfg)
        assert stats["clamped"] == 1
        _assert_bitwise(got, want)
