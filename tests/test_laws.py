"""Law catalogue: formulas, gain gates, predictions, bounds."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    GainConstraintError,
    ImmuneFeedback,
    Linearizing,
    ModelParams,
    OutputZeroing,
    PredictionError,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    VaccinationChannelError,
    ZeroVax,
    constrained_gain_margin,
    corollary1_upper_bound,
    evaluate,
    infectious_upper_bound,
    ScenarioError,
    law_name,
    predicted_limits,
    susceptible_plus_exposed_alt,
    validate_gains,
)

from conftest import random_conserved_state
from seirvax.laws import SCENARIO_LAWS, compile_law
from seirvax.scenario import build_law

# One instance of every scenario law.
CATALOGUE = (ZeroVax(), ConstantVax(0.3), SusceptibleLinear(0.05),
             SusceptiblePlusExposed(0.005), ImmuneFeedback(0.01, 0.05),
             ConstrainedImmuneFeedback(-0.05), Linearizing(0.1, 0.05),
             OutputZeroing())


class TestEvaluate:
    def test_immune_feedback_at_fully_immune(self, p1):
        # (g1*N - g*R - gamma*I)/(mu*N) = 0.03*1000/10 = 3.0
        v = evaluate(ImmuneFeedback(0.0, 0.03), SeirState(0, 0, 0, 1000), p1)
        assert v == pytest.approx(3.0, rel=1e-15)

    def test_susceptible_linear_vanishing_s(self, p1):
        state = SeirState(0.0, 100.0, 100.0, 800.0)
        v = evaluate(SusceptibleLinear(0.1), state, p1)
        assert v == pytest.approx(1.0 + p1.omega * 800.0 / (p1.mu * p1.N))

    def test_susceptible_plus_exposed_zero_gain(self, p1, mixed_state):
        v = evaluate(SusceptiblePlusExposed(0.0), mixed_state, p1)
        expected = (p1.omega * mixed_state.R - p1.sigma * mixed_state.E) / (
            p1.mu * p1.N)
        assert v == pytest.approx(expected, rel=1e-15)

    def test_zero_and_constant(self, p1, mixed_state):
        assert evaluate(ZeroVax(), mixed_state, p1) == 0.0
        assert evaluate(ConstantVax(0.37), mixed_state, p1) == 0.37

    def test_output_zeroing(self, p1):
        # -gamma*I/(mu*N) = -0.2*50/10 = -1.0 (the sign that cancels
        # gamma*I in the immune equation)
        assert evaluate(OutputZeroing(), SeirState(700, 100, 50, 150),
                        p1) == pytest.approx(-1.0)

    def test_saturated_clips(self, p1):
        law = Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0)
        assert evaluate(law, SeirState(0, 0, 0, 1000), p1) == 1.0

    def test_channel_gain_zero(self, mixed_state):
        p = ModelParams(N=1000.0, mu=0.0, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.2)
        with pytest.raises(VaccinationChannelError):
            evaluate(SusceptibleLinear(0.1), mixed_state, p)

    def test_bind_time_constraints(self, p1):
        with pytest.raises(GainConstraintError):
            evaluate(ImmuneFeedback(-(p1.mu + p1.omega), 0.03),
                     SeirState(0, 0, 0, 1000), p1)
        with pytest.raises(GainConstraintError):
            evaluate(SusceptibleLinear(-0.1), SeirState(0, 0, 0, 1000), p1)

    def test_gain_error_lists_every_failed_required_clause(self, p1):
        with pytest.raises(GainConstraintError,
                           match=r"linearizing fails required gain "
                                 r"constraint\(s\): g_prime > 0, g1 >= 0$"):
            compile_law(Linearizing(g_prime=-0.1, g1=-0.01), p1)

    def test_saturated_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Saturated(ZeroVax(), 1.0, 0.0)


class TestValidateGains:
    def test_theorem4_gate_example(self):
        # mu=0.5, omega=0.1, g=-0.05, gamma=0.3:
        # |g| - omega + max(gamma, |g|) = 0.05 - 0.1 + 0.3 = 0.25 <= 0.5
        p = ModelParams(N=1000.0, mu=0.5, omega=0.1, beta=0.9,
                        sigma=0.3, gamma=0.3)
        checks = dict((c.name, c.holds)
                      for c in validate_gains(ConstrainedImmuneFeedback(-0.05), p))
        assert checks["mu >= |g| - omega + max(gamma, |g|)"]
        assert checks["g < 0"]
        # derived g1 = mu+omega+g = 0.55
        law = ConstrainedImmuneFeedback(-0.05)
        v_con = evaluate(law, SeirState(0, 0, 0, 1000), p)
        v_imm = evaluate(ImmuneFeedback(-0.05, 0.55), SeirState(0, 0, 0, 1000), p)
        assert v_con == pytest.approx(v_imm, rel=1e-15)

    def test_immune_feedback_boundary_fails(self, p1):
        checks = validate_gains(ImmuneFeedback(-(p1.mu + p1.omega), 0.03), p1)
        gate = [c for c in checks if c.name == "g > -(mu+omega)"][0]
        assert not gate.holds and gate.required

    def test_spe_gain_at_mu_fails_advisory(self, p1):
        checks = validate_gains(SusceptiblePlusExposed(p1.mu), p1)
        gate = [c for c in checks if c.name == "g < mu"][0]
        assert not gate.holds and not gate.required

    def test_distinctness_advisory_under_p1(self, p1):
        # P1 has sigma == gamma: the distinctness clauses report failure
        # but do not block binding.
        checks = validate_gains(SusceptibleLinear(0.1), p1)
        fails = [c for c in checks if not c.holds]
        assert fails and all(not c.required for c in fails)


class TestPredictedLimits:
    def test_immune_feedback_full_immunization(self, p1):
        pred = predicted_limits(ImmuneFeedback(0.0, 0.03), p1)
        assert pred.r_inf == pytest.approx(1000.0, rel=1e-12)
        assert pred.s_plus_e_plus_i_inf == pytest.approx(0.0, abs=1e-12)
        # integral limit (g1 - mu)*N/mu = 0.02*1000/0.01 = 2000
        assert pred.integral_limit == pytest.approx(2000.0, rel=1e-12)
        assert pred.decay_rate == pytest.approx(0.03)
        assert pred.s_inf == 0.0 and pred.e_inf == 0.0 and pred.i_inf == 0.0

    def test_spe_partition(self, p1):
        pred = predicted_limits(SusceptiblePlusExposed(0.005), p1)
        assert pred.s_plus_e_inf == pytest.approx(1000.0 * 0.01 / 0.015)
        assert pred.i_plus_r_inf == pytest.approx(1000.0 * 0.005 / 0.015)

    def test_spe_zero_gain_all_susceptible(self, p1):
        pred = predicted_limits(SusceptiblePlusExposed(0.0), p1)
        assert pred.s_inf == 1000.0 and pred.v_inf == 0.0
        assert pred.e_inf == 0.0 and pred.i_inf == 0.0 and pred.r_inf == 0.0

    def test_susceptible_linear_v_limit(self, p1):
        pred = predicted_limits(SusceptibleLinear(0.1), p1)
        assert pred.v_inf == pytest.approx(1.0 + p1.omega / p1.mu)  # 3.0
        assert pred.r_inf == 1000.0
        assert pred.decay_rate == pytest.approx(0.11)

    def test_linearizing_matches_immune(self, p1):
        pl = predicted_limits(Linearizing(0.05, 0.05), p1)
        pi = predicted_limits(ImmuneFeedback(0.05 - 0.03, 0.05), p1)
        assert pl == pi
        assert pl.r_inf == pytest.approx(1000.0)

    def test_refusals(self, p1):
        with pytest.raises(PredictionError):
            predicted_limits(ZeroVax(), p1)
        with pytest.raises(PredictionError):
            predicted_limits(Saturated(ImmuneFeedback(0.0, 0.03)), p1)
        with pytest.raises(PredictionError, match="g1"):
            # r_inf would exceed N
            predicted_limits(ImmuneFeedback(0.0, 0.1), p1)


class TestBounds:
    def test_corollary1_unit_bound_cases(self, p1):
        # I = alpha*N/beta zeroes the parenthesis; S = 0 likewise.
        alpha = 0.3
        st1 = SeirState(100.0, 0.0, alpha * 1000.0 / 0.9, 0.0)
        assert corollary1_upper_bound(st1, p1, alpha) == pytest.approx(1.0)
        st2 = SeirState(0.0, 100.0, 100.0, 800.0)
        assert corollary1_upper_bound(st2, p1, 0.9) == 1.0

    def test_corollary1_example_value(self, p1, mixed_state):
        # alpha = beta: 1 + (0.9 - 0.045)*700/10 = 60.85
        assert corollary1_upper_bound(mixed_state, p1, p1.beta) \
            == pytest.approx(60.85, rel=1e-12)

    def test_corollary1_warns_on_bad_alpha(self, p1, mixed_state):
        with pytest.warns(UserWarning):
            corollary1_upper_bound(mixed_state, p1, 0.0)

    def test_infectious_bound_p1(self, p1):
        b = infectious_upper_bound(p1)
        # sigma*beta/((mu+sigma)(mu+gamma)) = 0.18/0.0441 ~= 4.082 -> capped
        assert b.ratio == pytest.approx(0.18 / 0.0441, rel=1e-12)
        assert b.i_max == 1000.0
        assert b.condition_holds  # 1 >= 0.03/0.2

    def test_infectious_bound_zero_beta(self):
        p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.0,
                        sigma=0.2, gamma=0.2)
        assert infectious_upper_bound(p).i_max == 0.0

    def test_infectious_bound_boundary(self):
        # sigma*beta = (mu+sigma)(mu+gamma) -> factor exactly 1 -> bound N
        mu, si = 0.01, 0.2
        ga = 0.2
        be = (mu + si) * (mu + ga) / si
        p = ModelParams(N=1000.0, mu=mu, omega=0.02, beta=be, sigma=si, gamma=ga)
        assert infectious_upper_bound(p).i_max == pytest.approx(1000.0, rel=1e-15)

    def test_infectious_bound_gamma_zero_condition_undefined(self):
        p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.0)
        assert infectious_upper_bound(p).condition_holds is None


class TestLawProperties:
    def test_control_identity_immune_feedback(self, p1):
        # gamma*I + mu*N*V == -g*R + g1*N on conserved states, to 4 ulps.
        rng = np.random.default_rng(7)
        law = ImmuneFeedback(0.01, 0.05)
        for _ in range(500):
            s = random_conserved_state(rng, p1.N)
            v = evaluate(law, s, p1)
            lhs = p1.gamma * s.I + p1.mu * p1.N * v
            rhs = -law.g * s.R + law.g1 * p1.N
            scale = max(abs(law.g1 * p1.N), abs(law.g * s.R),
                        abs(p1.gamma * s.I), 1.0)
            assert abs(lhs - rhs) <= 4.0 * np.spacing(scale)

    def test_theorem3_nonnegativity(self, p1):
        # g1 = mu+omega+g with g1 >= gamma: V >= 0 on nonnegative states
        # summing to N (decomposition (g1-g)R + (g1-gamma)I + g1(S+E)).
        rng = np.random.default_rng(11)
        g = 0.25
        g1 = p1.mu + p1.omega + g   # 0.28 >= gamma = 0.2
        law = ImmuneFeedback(g, g1)
        states = rng.dirichlet((1, 1, 1, 1), size=10_000) * p1.N
        for row in states:
            v = evaluate(law, SeirState(*map(float, row)), p1)
            assert v >= -1e-13

    def test_theorem4_range(self):
        # omega = 0 with the printed gate: V in [0, 1] on every nonnegative
        # state summing to N.
        p = ModelParams(N=1000.0, mu=0.5, omega=0.0, beta=0.9,
                        sigma=0.2, gamma=0.2)
        law = ConstrainedImmuneFeedback(-0.1)
        gate = [c for c in validate_gains(law, p) if c.required]
        assert all(c.holds for c in gate)
        rng = np.random.default_rng(13)
        states = rng.dirichlet((1, 1, 1, 1), size=10_000) * p.N
        for row in states:
            v = evaluate(law, SeirState(*map(float, row)), p)
            assert -1e-12 <= v <= 1.0 + 1e-12
        # margin check is tight at the R = N corner
        assert constrained_gain_margin(SeirState(0, 0, 0, p.N), p, -0.1) \
            == pytest.approx(0.0, abs=1e-12)

    def test_saturated_always_in_range(self, p1):
        rng = np.random.default_rng(17)
        law = Saturated(ImmuneFeedback(0.0, 0.3), 0.0, 1.0)
        for _ in range(200):
            s = random_conserved_state(rng, p1.N)
            assert 0.0 <= evaluate(law, s, p1) <= 1.0

    def test_linearizing_equals_immune_feedback(self, p1):
        # Identical V on all states, not merely close.
        g_prime, g1 = 0.07, 0.05
        lin = Linearizing(g_prime, g1)
        imm = ImmuneFeedback(g_prime - (p1.mu + p1.omega), g1)
        rng = np.random.default_rng(19)
        for _ in range(300):
            s = random_conserved_state(rng, p1.N)
            assert evaluate(lin, s, p1) == evaluate(imm, s, p1)

    def test_spe_alternate_form_under_conservation(self, p1):
        rng = np.random.default_rng(23)
        g = 0.004
        law = SusceptiblePlusExposed(g)
        for _ in range(300):
            s = random_conserved_state(rng, p1.N)
            v1 = evaluate(law, s, p1)
            v2 = susceptible_plus_exposed_alt(s, p1, g)
            assert v1 == pytest.approx(v2, abs=8.0 * np.spacing(max(1.0, abs(v1))))


def test_law_names():
    assert law_name(ZeroVax()) == "zero"
    assert law_name(Saturated(ImmuneFeedback(0.0, 0.03))) \
        == "saturated(immune_feedback)"


class TestLawProtocol:
    def test_catalogue_covers_scenario_laws(self):
        assert sorted(law_name(law) for law in CATALOGUE) == sorted(SCENARIO_LAWS)

    @pytest.mark.parametrize("law", CATALOGUE, ids=law_name)
    def test_build_law_round_trip(self, law):
        assert build_law(law_name(law), law.gains) == law

    @pytest.mark.parametrize("law", CATALOGUE, ids=law_name)
    def test_saturated_round_trip(self, law):
        sat = Saturated(law, -0.5, 2.0)
        assert law_name(sat) == f"saturated({law_name(law)})"
        assert sat.gains == law.gains
        assert build_law(law_name(law), sat.gains, sat.lo, sat.hi) == sat

    @pytest.mark.parametrize("name", sorted(SCENARIO_LAWS))
    def test_scenario_gain_keys_are_class_fields(self, name):
        keys = [f.name for f in dataclasses.fields(SCENARIO_LAWS[name])]
        gains = {key: 0.5 for key in keys}
        assert list(build_law(name, gains).gains) == keys
        with pytest.raises(ScenarioError, match="unknown gain"):
            build_law(name, {**gains, "bogus": 1.0})
        for key in keys:
            with pytest.raises(ScenarioError, match="needs gain"):
                build_law(name, {k: v for k, v in gains.items() if k != key})

    def test_family_reduces_to_immune_feedback(self, p1):
        mo = p1.mu + p1.omega
        assert Linearizing(0.05, 0.04).canonical(p1) == ImmuneFeedback(0.05 - mo, 0.04)
        assert (ConstrainedImmuneFeedback(-0.01).canonical(p1)
                == ImmuneFeedback(-0.01, mo + -0.01))
        for law in CATALOGUE[:5] + (OutputZeroing(), Saturated(ZeroVax())):
            assert law.canonical(p1) is law

    @pytest.mark.parametrize("call", [compile_law, validate_gains, predicted_limits])
    def test_non_laws_raise_type_error(self, call, p1):
        with pytest.raises(TypeError, match="not a control law"):
            law_name("immune_feedback")
        with pytest.raises(TypeError, match="not a control law"):
            call("immune_feedback", p1)
