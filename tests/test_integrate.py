"""Closed-loop integrator: closed forms, order, determinism, positivity."""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
from pathlib import Path
from typing import ClassVar

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
    coupling_control,
    integrate,
    integrate_normal,
    integrate_zero_dynamics,
    monitor_positivity,
    to_normal,
)
from seirvax.integrator import (MAX_STEPS, _DP_A, _DP_C, _DP_E, Samples,
                               _solve, _table)
from seirvax.laws import ControlLaw, compile_law
from seirvax.model import SEIR_SOURCE
from seirvax.kernels import function
from seirvax.normal_form import NORMAL_SOURCE
from seirvax.scenario import load_scenario


ORACLE_CATALOGUE = (ZeroVax(), ConstantVax(0.3), SusceptibleLinear(0.05),
                    SusceptiblePlusExposed(0.005), ImmuneFeedback(0.01, 0.05),
                    ConstrainedImmuneFeedback(-0.05), Linearizing(0.1, 0.05),
                    OutputZeroing())


def _oracle_params(law) -> ModelParams:
    """p1, or a plant fast enough for the constrained law's gate."""
    if isinstance(getattr(law, "inner", law), ConstrainedImmuneFeedback):
        return ModelParams(N=1000.0, mu=0.5, omega=0.0, beta=0.9, sigma=0.2,
                           gamma=0.2)
    return ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9, sigma=0.2,
                       gamma=0.2)


def _dop853(p: ModelParams, law, state: SeirState, t_end: float):
    """Dense output of the continuous closed loop from scipy's DOP853."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    V = compile_law(law, p)
    bp = p.beta / p.N

    def rhs(t, y):
        S, E, I, R = y
        v = V(S, E, I, R, t)
        return [-p.mu * S + p.omega * R - bp * S * I + p.mu * p.N * (1.0 - v),
                bp * S * I - (p.mu + p.sigma) * E,
                -(p.mu + p.gamma) * I + p.sigma * E,
                -(p.mu + p.omega) * R + p.gamma * I + p.mu * p.N * v]

    sol = solve_ivp(rhs, (0.0, t_end), list(state.as_tuple()), method="DOP853",
                    rtol=1e-13, atol=1e-10, dense_output=True)
    assert sol.success
    return sol.sol


def _dop853_zero_dynamics(p: ModelParams, z0: tuple, t_end: float):
    """Dense output of the zero dynamics (z2, z3, z4) from scipy's DOP853."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    bp = p.beta / p.N

    def rhs(t, z):
        z2, z3, z4 = z
        return [-p.mu * z2 + p.gamma * z4 - bp * z2 * z4 + p.mu * p.N,
                bp * z2 * z4 - (p.mu + p.sigma) * z3,
                -(p.mu + p.gamma) * z4 + p.sigma * z3]

    sol = solve_ivp(rhs, (0.0, t_end), list(z0), method="DOP853",
                    rtol=1e-13, atol=1e-10, dense_output=True)
    assert sol.success
    return sol.sol


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
        assert (tr.S[0], tr.E[0], tr.I[0], tr.R[0]) == mixed_state.as_tuple()
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

    def test_config_refuses_grid_over_step_bound(self):
        # Refused from the float ratio, before a step count is formed or
        # run: 1e300 steps, a ratio that overflows, and just over the bound.
        for t_end, dt in ((1.0, 1e-300), (1e300, 1e-10), (1.0, 0.99e-8)):
            with pytest.raises(ValueError,
                               match="step bound MAX_STEPS = 100000000"):
                IntegratorConfig(t_end=t_end, dt=dt)
            # In adaptive mode dt is only the first trial step.
            IntegratorConfig(t_end=t_end, dt=dt, adaptive=True)
        assert IntegratorConfig(t_end=1.0, dt=1e-8).n_steps == MAX_STEPS

    def test_adaptive_run_refuses_past_step_bound(self, p1, mixed_state,
                                                  monkeypatch):
        # The Dormand-Prince kernel counts attempted steps, rejected ones
        # included, against the bound it reads at each run.
        monkeypatch.setattr(importlib.import_module("seirvax.integrator"),
                            "MAX_STEPS", 5)
        cfg = IntegratorConfig(t_end=50.0, dt=5.0, adaptive=True, rel_tol=1e-6,
                               abs_tol=1e-8)
        with pytest.raises(ValueError, match="step bound MAX_STEPS = 5 attempted "
                                             "steps, at t = "):
            integrate(mixed_state, p1, ImmuneFeedback(0.01, 0.05), cfg)
        monkeypatch.undo()
        integrate(mixed_state, p1, ImmuneFeedback(0.01, 0.05), cfg)

    def test_stiff_run_refused_before_step_bound(self, monkeypatch):
        # mu = 1e5 holds the explicit pair near h = 3/mu, about 3e4 steps
        # on [0, 1]: under a bound of 1e4 the stiffness test refuses the run
        # from its first tests, after about 1e3 accepted steps, instead of
        # running into the bound.
        p = ModelParams(N=1000.0, mu=1e5, omega=0.02, beta=0.9, sigma=0.2,
                        gamma=0.2)
        cfg = IntegratorConfig(t_end=1.0, dt=1e-2, adaptive=True, dense=True)
        monkeypatch.setattr(importlib.import_module("seirvax.integrator"),
                            "MAX_STEPS", 10**4)
        with pytest.raises(ValueError, match="stiff problem beyond the step "
                           "bound MAX_STEPS = 10000: at t = ") as err:
            integrate_zero_dynamics((300.0, 400.0, 300.0), p, cfg)
        left = int(str(err.value).split("more than the ")[1].split()[0])
        assert 10**4 - 2000 < left < 10**4
        # Within the bound the same stiff run completes.
        monkeypatch.undo()
        traj = integrate_zero_dynamics((300.0, 400.0, 300.0), p, cfg)
        assert traj.t[-1] == 1.0

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
        # Finite gains whose V overflows: g1*N = 1e311 is inf.
        cfg = IntegratorConfig(t_end=1.0, dt=0.01, adaptive=adaptive)
        with pytest.raises(NonFiniteStateError, match="non-finite V at") as err:
            integrate(mixed_state, p1, ImmuneFeedback(0.0, 1e308), cfg)
        assert (err.value.t, err.value.sample_index) == (0.0, 0)

    @pytest.mark.parametrize("run, start, name", [
        ("x", (math.nan, 200.0, 100.0, 0.0), "seir"),
        ("normal", (0.0, 700.0, math.inf, 100.0), "normal-form"),
        ("zero", (700.0, -math.inf, 100.0), "zero-dynamics"),
    ], ids=["x", "normal", "zero"])
    def test_non_finite_start_refused_before_a_step(self, p1, monkeypatch,
                                                    run, start, name):
        # NaN compares false, so a NaN start passed integrate's sign and
        # sum rules and ran all 100 000 steps before a NonFiniteStateError.
        def solve(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(importlib.import_module("seirvax.integrator"),
                            "_solve", solve)
        cfg = IntegratorConfig(t_end=1000.0, dt=0.01)
        call = {"x": lambda: integrate(SeirState(*start), p1, ZeroVax(), cfg),
                "normal": lambda: integrate_normal(start, p1, ZeroVax(), cfg),
                "zero": lambda: integrate_zero_dynamics(start, p1, cfg)}[run]
        with pytest.raises(ValueError,
                           match=f"^initial {name} state must be finite$"):
            call()

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -1.0, 1e303,
                                       -5.4e303, 2.0 ** 1009 * (1 - 2 ** -53)])
    def test_check_passes_finite_rows_without_numpy(self, monkeypatch, value):
        # Magnitudes below 2**1009 are found finite before numpy is
        # imported; with the import blocked, the check still passes.
        samples = Samples()
        samples.rows.extend((0.0, value, 1.0, 2.0, 3.0, value))
        monkeypatch.setitem(sys.modules, "numpy", None)
        samples.check()

    @pytest.mark.parametrize("value", [2.0 ** 1009, -1e308, math.inf,
                                       -math.inf, math.nan, -math.nan])
    @pytest.mark.parametrize("col", range(1, 6))
    def test_check_locates_the_first_non_finite_row(self, value, col):
        samples = Samples()
        samples.rows.extend((0.0, 1.0, 2.0, 3.0, 4.0, 0.5,
                             1.0, 1.0, 2.0, 3.0, 4.0, 0.5))
        samples.rows[6 + col] = value
        samples.rows.extend((2.0, math.nan, 1.0, 1.0, 1.0, 0.0))
        if math.isfinite(value):
            with pytest.raises(NonFiniteStateError, match="sample index 2"):
                samples.check()
            return
        what = "V" if col == 5 else "state"
        with pytest.raises(NonFiniteStateError,
                           match=rf"^non-finite {what} at t = 1\.0 "
                                 r"\(sample index 1\)$"):
            samples.check()

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
        # companion split must land on the same closed form.
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

    def test_against_scipy_reference(self, mixed_state):
        # Independent oracle: scipy's DOP853 at tight tolerance on the
        # vector field written out here, with V from the law at every
        # evaluation (the continuous closed loop), for every catalogue law.
        cfg = IntegratorConfig(t_end=50.0, dt=0.05, sampling_stride=50)
        for law in ORACLE_CATALOGUE:
            p = _oracle_params(law)
            sol = _dop853(p, law, mixed_state, 50.0)
            tr = integrate(mixed_state, p, law, cfg)
            dev = np.max(np.abs(tr.states().T - sol(tr.t)))
            assert dev < 1e-6 * p.N, (law, dev)

    @pytest.mark.parametrize("law", ORACLE_CATALOGUE, ids=lambda law: law.label)
    def test_order_against_dop853(self, mixed_state, law):
        # Halving dt divides the worst deviation from the continuous closed
        # loop by 2^4 (measured 4.06-4.13 over the catalogue).
        p = _oracle_params(law)
        sol = _dop853(p, law, mixed_state, 50.0)

        def err(dt: float) -> float:
            tr = integrate(mixed_state, p, law, IntegratorConfig(t_end=50.0, dt=dt))
            return float(np.max(np.abs(tr.states().T - sol(tr.t))))

        assert math.log2(err(0.5) / err(0.25)) >= 3.9

    @pytest.mark.parametrize("law", [Saturated(ImmuneFeedback(0.0, 0.03)),
                                     Saturated(SusceptibleLinear(0.05))],
                             ids=lambda law: law.label)
    def test_saturated_order_at_clip_switches(self, p1, mixed_state, law):
        # Where V enters or leaves the clip the closed loop is only C^1 and
        # fixed-step RK4 converges at about second order: over dt = 1 to
        # 1/8 the mean order per halving measured 1.90 and 2.35 for these
        # two laws (single halvings range from 0.85 to 2.8, as the switch
        # moves against the grid). A clip that never switches keeps order 4.
        sol = _dop853(p1, law, mixed_state, 50.0)
        errs = []
        for dt in (1.0, 0.125):
            tr = integrate(mixed_state, p1, law, IntegratorConfig(t_end=50.0, dt=dt))
            errs.append(float(np.max(np.abs(tr.states().T - sol(tr.t)))))
        clipped = (tr.V <= law.lo) | (tr.V >= law.hi)
        assert clipped.any() and not clipped.all()
        assert 1.5 <= math.log2(errs[0] / errs[1]) / 3.0 <= 3.0


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
        # The record stores no u: its u is computed from the stored state
        # and V, bitwise as `coupling_control` gives it.
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2, sampling_stride=3)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.01, 0.05), cfg)
        assert "u" not in {f.name for f in dataclasses.fields(tr)}
        u = p1.omega * tr.R - p1.sigma * tr.E - p1.mu * p1.N * tr.V
        assert np.array_equal(u, tr.u)
        u = coupling_control(SeirState(tr.S, tr.E, tr.I, tr.R), p1, tr.V)
        assert u.tobytes() == tr.u.tobytes()

    def test_stored_v_matches_law(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=5.0, dt=1e-2, sampling_stride=11)
        law = ImmuneFeedback(0.01, 0.05)
        tr = integrate(mixed_state, p1, law, cfg)
        fn = compile_law(law, p1)
        for i, row in enumerate(tr.states().tolist()):
            assert tr.V[i] == fn(*row, float(tr.t[i]))


class TestPositivity:
    def test_compliant_run_has_no_events(self, p1, mixed_state):
        from seirvax import Saturated
        cfg = IntegratorConfig(t_end=300.0, dt=1e-2, sampling_stride=10)
        law = Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0)
        tr = integrate(mixed_state, p1, law, cfg)
        chk = monitor_positivity(tr)
        assert chk.passed and chk.details["components >= 0"].worst == 0.0

    def test_injected_negative_start_reported_at_t0(self, p1):
        # Hand-built trajectory: the lower sub-check flags the first sample.
        t = np.array([0.0, 1.0])
        tr = Trajectory.from_columns(p1, ZeroVax(), IntegratorConfig(t_end=1.0),
                                     t=t, S=np.array([-1.0, 1.0]), E=np.zeros(2),
                                     I=np.zeros(2), R=np.array([1001.0, 999.0]),
                                     V=np.zeros(2))
        lower = monitor_positivity(tr, v_hi=np.inf).details["components >= 0"]
        assert not lower.passed
        assert lower.worst == 1.0 and lower.location_t == 0.0

    def test_negative_vaccination_drives_r_negative(self, p1):
        # V = -5 from (N,0,0,0): dR/dt = -50/day, so R is negative from
        # one step after t0 and lowest at t_end.
        cfg = IntegratorConfig(t_end=1.0, dt=1e-2)
        tr = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), p1,
                       ConstantVax(-5.0), cfg)
        assert tr.R[0] == 0.0 and tr.R[1] < 0.0
        lower = monitor_positivity(tr, v_lo=-5.0).details["components >= 0"]
        assert not lower.passed
        assert lower.worst == -float(tr.R[-1])
        assert lower.location_t == pytest.approx(cfg.t_end, abs=1e-12)


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


# -- generated kernels against textbook per-stage loops --------------------

@dataclasses.dataclass(frozen=True)
class Pulse(ControlLaw):
    """A time-varying law, one class with one V expression: it carries the
    stage times into the kernels."""

    name: ClassVar[str] = "pulse"
    v_expr: ClassVar[str] = "rate * t * S / N"
    rate: float

    def _constants(self, params):
        return {"rate": self.rate, "N": params.N}


def _left_to_right(coeffs, ks, c, acc=0.0):
    """acc + sum(coeffs[m] * ks[m][c]), accumulated left to right."""
    for coef, k in zip(coeffs, ks):
        acc += coef * k[c]
    return acc


def _reference_rk4(f, law, y, config):
    """Classic RK4 with the law evaluated at every stage.

    `f(y0, y1, y2, y3, V)` is the field and `law(y, t)` gives V at a
    state. Returns the samples the kernel should write.
    """
    h, t0, n = config.dt, config.t0, config.n_steps
    samples = Samples()
    t = t0
    samples.rows.extend((t, *y, law(y, t)))
    for k in range(1, n + 1):
        ks = []
        for c, prev in ((0.0, None), (0.5, 0), (0.5, 1), (1.0, 2)):
            yj = y if prev is None else tuple(
                y[i] + (c * h) * ks[prev][i] for i in range(4))
            ks.append(f(*yj, law(yj, t + c * h)))
        # y + h/6 * (k1 + 2*k2 + 2*k3 + k4)
        y = tuple(y[i] + h / 6.0 * _left_to_right((2.0, 2.0, 1.0), ks[1:], i,
                                                   ks[0][i])
                  for i in range(4))
        t = t0 + k * h
        if k % config.sampling_stride == 0 or k == n:
            samples.rows.extend((t, *y, law(y, t)))
    return samples


def _reference_dopri45(f, law, y, config):
    """Dormand-Prince 5(4) written from the tableau: every stage evaluates
    the law and the field afresh (no FSAL), every sum is a left-to-right
    accumulation from 0.0 over the whole row, zero coefficients included.

    Returns the samples and a dict of: the count of rejected attempts,
    the count of final steps whose t + h was clamped to a different
    t_end, and each accepted step as (t, h, y, ks).
    """
    b5 = _DP_A[6] + (0.0,)
    rtol, atol = config.rel_tol, config.abs_tol
    t0, t_end = config.t0, config.t_end
    samples = Samples()
    stats = {"rejected": 0, "clamped": 0, "steps": []}

    t = t0
    h = min(config.dt, t_end - t0)
    samples.rows.extend((t0, *y, law(y, t0)))
    accepted = 0
    while t < t_end:
        h = min(h, t_end - t)
        while True:
            ks = []
            for j in range(7):
                yj = y if j == 0 else tuple(
                    y[c] + h * _left_to_right(_DP_A[j], ks, c) for c in range(4))
                ks.append(f(*yj, law(yj, t + _DP_C[j] * h)))
            y5 = tuple(y[c] + h * _left_to_right(b5, ks, c) for c in range(4))
            err = [h * _left_to_right(_DP_E, ks, c) for c in range(4)]
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

        stats["steps"].append((t, h, y, ks))
        # a step cut to end on t_end ends there, even where t + h rounds
        # below it
        if t + h >= t_end or h >= t_end - t:
            stats["clamped"] += t + h != t_end
            t = t_end
        else:
            t = t + h
        y = y5
        accepted += 1
        if accepted % config.sampling_stride == 0 or t >= t_end:
            samples.rows.extend((t, *y, law(y, t)))
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0
    return samples, stats


# mu is large enough for the constrained immune-feedback gate.
KERNEL_PARAMS = ModelParams(N=1000.0, mu=0.5, omega=0.02, beta=0.9,
                            sigma=0.2, gamma=0.2)
KERNEL_CATALOGUE = (ZeroVax(), ConstantVax(0.3), SusceptibleLinear(0.05),
                    SusceptiblePlusExposed(0.005), ImmuneFeedback(0.01, 0.05),
                    ConstrainedImmuneFeedback(-0.05), Linearizing(0.1, 0.05),
                    OutputZeroing(), Pulse(0.05))
KERNEL_LAWS = KERNEL_CATALOGUE + tuple(Saturated(law) for law in KERNEL_CATALOGUE)
# A first trial step of 5 days is rejected under every law. The
# "stride3_t0_project" ids are older than the removal of positivity
# projection from the steppers; they name a plain run now and keep their
# name so that test ids stay stable.
KERNEL_CONFIGS = {
    "stride1": IntegratorConfig(t_end=2.0, dt=5.0, adaptive=True,
                                rel_tol=1e-6, abs_tol=1e-8),
    "stride3_t0_project": IntegratorConfig(t0=0.5, t_end=3.7, dt=1e-2,
                                           adaptive=True, rel_tol=1e-6,
                                           abs_tol=1e-8, sampling_stride=3),
}
RK4_CONFIGS = {
    "stride1": IntegratorConfig(t_end=2.0, dt=0.1),
    "stride3_t0_project": IntegratorConfig(t0=0.5, t_end=3.7, dt=0.1,
                                           sampling_stride=3),
}


def _x_space(params, law):
    """The x-space field and the law at an x-space state."""
    fn = compile_law(law, params)
    return (function(SEIR_SOURCE)(*SEIR_SOURCE.bind(params)),
            lambda y, t: fn(*y, t))


def _kernel_and_reference(state, params, law, config):
    f, law_at = _x_space(params, law)
    got = _solve(SEIR_SOURCE, law, params, state.as_tuple(), config)
    if config.adaptive:
        return got, _reference_dopri45(f, law_at, state.as_tuple(), config)
    return got, (_reference_rk4(f, law_at, state.as_tuple(), config), {})


def _checked_columns(samples: Samples) -> np.ndarray:
    """The (6, n) columns of a buffer found finite."""
    samples.check()
    return _table(samples.rows).T


def _assert_bitwise(got: Samples, want: Samples) -> None:
    assert _checked_columns(got).tobytes() == _checked_columns(want).tobytes()


class TestDopriKernel:
    @pytest.mark.parametrize("config", KERNEL_CONFIGS.values(), ids=KERNEL_CONFIGS)
    @pytest.mark.parametrize("law", KERNEL_LAWS, ids=lambda law: law.label)
    def test_matches_tableau_loop(self, mixed_state, law, config):
        got, (want, stats) = _kernel_and_reference(mixed_state, KERNEL_PARAMS,
                                                   law, config)
        _assert_bitwise(got, want)
        if config.dt == 5.0:
            assert stats["rejected"] > 0

    def test_matches_tableau_loop_when_clamped(self, p1):
        # From the disease-free state the step grows 5x per step, and the
        # last step, from t = 1.56 (below t_end/2), lands off t_end = 5.7.
        cfg = IntegratorConfig(t_end=5.7, dt=1e-2, adaptive=True, rel_tol=1e-8,
                               abs_tol=1e-8)
        got, (want, stats) = _kernel_and_reference(
            SeirState(1000.0, 0.0, 0.0, 0.0), p1, ZeroVax(), cfg)
        assert stats["clamped"] == 1
        _assert_bitwise(got, want)


class TestRk4Kernel:
    @pytest.mark.parametrize("config", RK4_CONFIGS.values(), ids=RK4_CONFIGS)
    @pytest.mark.parametrize("law", KERNEL_LAWS, ids=lambda law: law.label)
    def test_matches_textbook_loop(self, mixed_state, law, config):
        got, (want, _) = _kernel_and_reference(mixed_state, KERNEL_PARAMS, law,
                                               config)
        _assert_bitwise(got, want)

    @pytest.mark.parametrize("law", [ImmuneFeedback(0.01, 0.05),
                                     Saturated(SusceptibleLinear(0.05)),
                                     Pulse(0.05)], ids=lambda law: law.label)
    def test_normal_form_matches_textbook_loop(self, mixed_state, law):
        # The law reads the back-transformed state (z2 - z1, z3, z4, z1).
        config = RK4_CONFIGS["stride3_t0_project"]
        fn = compile_law(law, KERNEL_PARAMS)
        z0 = to_normal(mixed_state)
        got = _solve(NORMAL_SOURCE, law, KERNEL_PARAMS, z0, config)
        field = function(NORMAL_SOURCE)(*NORMAL_SOURCE.bind(KERNEL_PARAMS))
        want = _reference_rk4(field,
                              lambda z, t: fn(z[1] - z[0], z[2], z[3], z[0], t),
                              z0, config)
        _assert_bitwise(got, want)

    @pytest.mark.parametrize("n, stride", [(10, 3), (5, 8), (7, 1), (12, 4)])
    def test_buffer_is_allocated_at_its_final_size(self, mixed_state, n,
                                                   stride):
        # The kernel writes each sample row in place into a buffer sized
        # from the config: rows at t0, every stride-th step and the last
        # step, bitwise the rows the appending textbook loop writes.
        config = IntegratorConfig(t0=0.5, t_end=0.5 + 0.125 * n, dt=0.125,
                                  sampling_stride=stride)
        assert config.n_steps == n
        law = ImmuneFeedback(0.01, 0.05)
        tr = integrate(mixed_state, KERNEL_PARAMS, law, config)
        steps = [0, *range(stride, n + 1, stride)] + ([n] if n % stride else [])
        assert len(tr) == len(steps) and len(tr.rows) == 6 * len(tr)
        assert [t.hex() for t in tr.values("t")] == [
            (0.5 + k * 0.125).hex() for k in steps]
        got, (want, _) = _kernel_and_reference(mixed_state, KERNEL_PARAMS, law,
                                               config)
        assert got.rows.tobytes() == want.rows.tobytes() == tr.rows.tobytes()

    @pytest.mark.parametrize("stride, t, index", [(1, 0.07, 7), (3, 0.09, 3)])
    def test_blow_up_is_located_in_the_buffer(self, p1, mixed_state, stride, t,
                                              index):
        config = IntegratorConfig(t_end=2.0, dt=0.01, sampling_stride=stride)
        with pytest.raises(NonFiniteStateError,
                           match=rf"^non-finite state at t = {t} "
                                 rf"\(sample index {index}\)$") as err:
            integrate(mixed_state, p1, ConstantVax(1e10), config)
        assert (err.value.t, err.value.sample_index) == (t, index)


# -- dense output -----------------------------------------------------------

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "full_immunization.ini"
DENSE_CONFIG = IntegratorConfig(t0=0.5, t_end=3.7, dt=1e-2, adaptive=True,
                                rel_tol=1e-6, abs_tol=1e-8, sampling_stride=3,
                                dense=True)


class TestDense:
    def test_config_applies_the_fixed_grid_rules(self):
        with pytest.raises(ValueError, match="dense output needs adaptive = on"):
            IntegratorConfig(t_end=1.0, dense=True)
        with pytest.raises(ValueError, match="does not divide"):
            IntegratorConfig(t_end=1.0, dt=0.3, adaptive=True, dense=True)
        with pytest.raises(ValueError, match="step bound MAX_STEPS = 100000000"):
            IntegratorConfig(t_end=1.0, dt=1e-300, adaptive=True, dense=True)

    def test_samples_are_the_fixed_grid(self, mixed_state):
        # t0, every third grid time below t_end, and t_end: the times of
        # the fixed run on the same grid, bitwise.
        dense = integrate(mixed_state, KERNEL_PARAMS, ImmuneFeedback(0.01, 0.05),
                          DENSE_CONFIG)
        fixed = integrate(mixed_state, KERNEL_PARAMS, ImmuneFeedback(0.01, 0.05),
                          dataclasses.replace(DENSE_CONFIG, adaptive=False,
                                              dense=False))
        assert len(dense) == 320 // 3 + 2
        assert dense.t.tobytes() == fixed.t.tobytes()

    def test_stepping_is_unchanged(self, mixed_state):
        # The dense run takes the adaptive run's steps: its last sample is
        # that run's, bitwise, and a grid time on a step's end is that
        # step's 5th-order solution (stride 1: the accepted first trial
        # step ends on t0 + dt).
        law = ImmuneFeedback(0.01, 0.05)
        cfg = dataclasses.replace(DENSE_CONFIG, sampling_stride=1)
        dense = _checked_columns(_solve(SEIR_SOURCE, law, KERNEL_PARAMS,
                                        mixed_state.as_tuple(), cfg))
        steps = _checked_columns(_solve(SEIR_SOURCE, law, KERNEL_PARAMS,
                                        mixed_state.as_tuple(),
                                        dataclasses.replace(cfg, dense=False)))
        assert steps[0, 1] == cfg.t0 + cfg.dt
        assert dense[:, -1].tobytes() == steps[:, -1].tobytes()
        assert dense[:, 1].tobytes() == steps[:, 1].tobytes()

    @pytest.mark.parametrize("law", [ImmuneFeedback(0.01, 0.05), Pulse(0.05),
                                     Saturated(SusceptibleLinear(0.05))],
                             ids=lambda law: law.label)
    def test_interpolant_matches_scipy_rk45(self, mixed_state, law):
        # scipy's RK45 interpolates the same pair with its matrix P:
        # y + h * (K^T P) (theta, theta^2, theta^3, theta^4), at the stages
        # of the textbook loop, which takes the kernel's steps bitwise.
        P = pytest.importorskip("scipy.integrate").RK45.P
        f, law_at = _x_space(KERNEL_PARAMS, law)
        _, stats = _reference_dopri45(f, law_at, mixed_state.as_tuple(),
                                      dataclasses.replace(DENSE_CONFIG,
                                                          dense=False))
        got = _checked_columns(_solve(SEIR_SOURCE, law, KERNEL_PARAMS,
                                      mixed_state.as_tuple(), DENSE_CONFIG))
        starts = np.array([t for t, *_ in stats["steps"]])
        for tau, *state in got.T[1:-1, :5]:
            t, h, y, ks = stats["steps"][np.searchsorted(starts, tau, "right") - 1]
            theta = (tau - t) / h
            want = np.array(y) + h * (np.array(ks).T @ P) @ theta ** np.arange(1, 5)
            np.testing.assert_allclose(state, want, rtol=1e-14, atol=1e-12)
        assert len(stats["steps"]) >= 3

    @pytest.mark.parametrize(
        "law", ORACLE_CATALOGUE + tuple(Saturated(law) for law in ORACLE_CATALOGUE),
        ids=lambda law: law.label)
    def test_against_dop853(self, mixed_state, law):
        # Every catalogue law: within 1e-3*N of the continuous closed loop
        # and conserving the population to 1e-9*N, at the fixed grid's times.
        p = _oracle_params(law)
        cfg = IntegratorConfig(t_end=100.0, dt=0.1, sampling_stride=5,
                               adaptive=True, dense=True)
        tr = integrate(mixed_state, p, law, cfg)
        fixed_t = 0.1 * np.arange(0, 1001, 5)
        assert tr.t.tobytes() == fixed_t.tobytes()
        dev = np.max(np.abs(tr.states().T - _dop853(p, law, mixed_state, 100.0)(tr.t)))
        assert dev <= 1e-3 * p.N, dev
        assert np.max(np.abs(tr.S + tr.E + tr.I + tr.R - p.N)) <= 1e-9 * p.N

    def test_shipped_scenario(self):
        # The shipped scenario runs dense: the fixed run's 12001 sample
        # times, bitwise, within 1e-3*N of DOP853.
        sc = load_scenario(SHIPPED)
        assert sc.config.adaptive and sc.config.dense
        tr = integrate(sc.initial, sc.params, sc.law, sc.config)
        fixed_t = sc.config.t0 + sc.config.dt * np.arange(0, 120001, 10)
        assert tr.t.tobytes() == fixed_t.tobytes()
        sol = _dop853(sc.params, sc.law, sc.initial, sc.config.t_end)
        assert np.max(np.abs(tr.states().T - sol(tr.t))) <= 1e-3 * sc.params.N

    @pytest.mark.parametrize("z0", [(300.0, 400.0, 300.0), (999.0, 0.0, 1.0),
                                    (620.0, 242.0, 138.0)], ids=str)
    def test_zero_dynamics(self, p1, z0):
        # The `zerodyn` run, a z-space record under ZeroVax(): the fixed
        # run's sample times bitwise, z1 and V held at exactly +0.0, within
        # 1e-4 of DOP853 (measured 6.8e-6) and the sum C conserved to 1e-9*C.
        cfg = IntegratorConfig(t_end=1000.0, dt=1e-2, sampling_stride=100,
                               adaptive=True, dense=True)
        tr = integrate_zero_dynamics(z0, p1, cfg)
        assert isinstance(tr, Trajectory) and tr.law == ZeroVax()
        fixed = integrate_zero_dynamics(
            z0, p1, dataclasses.replace(cfg, adaptive=False, dense=False))
        assert len(tr) == 1001
        assert tr.t.tobytes() == fixed.t.tobytes()
        assert tr.z1.tobytes() == tr.V.tobytes() == np.zeros(len(tr)).tobytes()
        sol = _dop853_zero_dynamics(p1, z0, cfg.t_end)
        dev = np.max(np.abs(np.vstack((tr.z2, tr.z3, tr.z4)) - sol(tr.t)))
        assert dev <= 1e-4, dev
        c = sum(z0)
        assert np.max(np.abs(tr.z2 + tr.z3 + tr.z4 - c)) <= 1e-9 * c

    def test_short_horizons_end_without_a_tiny_step(self, p1):
        # The step cut to end on t_end ends there: at t_end = 0.41 the cut
        # step used to land one ulp short, and a 5.6e-17 step followed.
        for k in range(11, 100):
            t_end = k / 100.0
            cfg = IntegratorConfig(t_end=t_end, dt=0.1, adaptive=True,
                                   rel_tol=1e-6, abs_tol=1e-8)
            tr = integrate(SeirState(700.0, 200.0, 100.0, 0.0), p1,
                           ImmuneFeedback(0.0, 0.03), cfg)
            assert tr.t[-1] == t_end
            assert np.diff(tr.t).min() >= 1e-12, (t_end, tr.t[-3:])
