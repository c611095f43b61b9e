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
    corollary1_upper_bound,
    ScenarioError,
    predicted_limits,
)

from conftest import random_conserved_state
from seirvax.kernels import jacobian
from seirvax.laws import SCENARIO_LAWS, compile_law, law_program
from seirvax.model import SEIR_SOURCE
from seirvax.scenario import build_law

# One instance of every scenario law.
CATALOGUE = (ZeroVax(), ConstantVax(0.3), SusceptibleLinear(0.05),
             SusceptiblePlusExposed(0.005), ImmuneFeedback(0.01, 0.05),
             ConstrainedImmuneFeedback(-0.05), Linearizing(0.1, 0.05),
             OutputZeroing())


class TestEvaluate:
    def test_immune_feedback_at_fully_immune(self, p1):
        # (g1*N - g*R - gamma*I)/(mu*N) = 0.03*1000/10 = 3.0
        v = compile_law(ImmuneFeedback(0.0, 0.03), p1)(0, 0, 0, 1000, 0.0)
        assert v == pytest.approx(3.0, rel=1e-15)

    def test_susceptible_linear_vanishing_s(self, p1):
        state = SeirState(0.0, 100.0, 100.0, 800.0)
        v = compile_law(SusceptibleLinear(0.1), p1)(*state.as_tuple(), 0.0)
        assert v == pytest.approx(1.0 + p1.omega * 800.0 / (p1.mu * p1.N))

    def test_susceptible_plus_exposed_zero_gain(self, p1, mixed_state):
        v = compile_law(SusceptiblePlusExposed(0.0), p1)(*mixed_state.as_tuple(), 0.0)
        expected = (p1.omega * mixed_state.R - p1.sigma * mixed_state.E) / (
            p1.mu * p1.N)
        assert v == pytest.approx(expected, rel=1e-15)

    def test_zero_and_constant(self, p1, mixed_state):
        assert compile_law(ZeroVax(), p1)(*mixed_state.as_tuple(), 0.0) == 0.0
        assert compile_law(ConstantVax(0.37), p1)(*mixed_state.as_tuple(), 0.0) == 0.37

    def test_output_zeroing(self, p1):
        # -gamma*I/(mu*N) = -0.2*50/10 = -1.0 (the sign that cancels
        # gamma*I in the immune equation)
        assert compile_law(OutputZeroing(), p1)(700, 100, 50, 150, 0.0) \
            == pytest.approx(-1.0)

    def test_saturated_clips(self, p1):
        law = Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0)
        assert compile_law(law, p1)(0, 0, 0, 1000, 0.0) == 1.0

    def test_channel_gain_zero(self, mixed_state):
        p = ModelParams(N=1000.0, mu=0.0, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.2)
        with pytest.raises(VaccinationChannelError):
            compile_law(SusceptibleLinear(0.1), p)

    def test_bind_time_constraints(self, p1):
        with pytest.raises(GainConstraintError):
            compile_law(ImmuneFeedback(-(p1.mu + p1.omega), 0.03), p1)
        with pytest.raises(GainConstraintError):
            compile_law(SusceptibleLinear(-0.1), p1)

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
                      for c in ConstrainedImmuneFeedback(-0.05).gain_checks(p))
        assert checks["mu >= |g| - omega + max(gamma, |g|)"]
        assert checks["g < 0"]
        # derived g1 = mu+omega+g = 0.55
        law = ConstrainedImmuneFeedback(-0.05)
        v_con = compile_law(law, p)(0, 0, 0, 1000, 0.0)
        v_imm = compile_law(ImmuneFeedback(-0.05, 0.55), p)(0, 0, 0, 1000, 0.0)
        assert v_con == pytest.approx(v_imm, rel=1e-15)

    def test_immune_feedback_boundary_fails(self, p1):
        checks = ImmuneFeedback(-(p1.mu + p1.omega), 0.03).gain_checks(p1)
        gate = [c for c in checks if c.name == "g > -(mu+omega)"][0]
        assert not gate.holds and gate.required

    def test_spe_gain_at_mu_fails_advisory(self, p1):
        checks = SusceptiblePlusExposed(p1.mu).gain_checks(p1)
        gate = [c for c in checks if c.name == "g < mu"][0]
        assert not gate.holds and not gate.required

    def test_distinctness_advisory_under_p1(self, p1):
        # P1 has sigma == gamma: the distinctness clauses report failure
        # but do not block binding.
        checks = SusceptibleLinear(0.1).gain_checks(p1)
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
        # All susceptible only below the threshold sigma*beta =
        # (mu+sigma)*(mu+gamma); P1 (beta = 0.9) is above it, where the
        # disease-free point repels and only the sums are claimed.
        below = dataclasses.replace(p1, beta=0.1)
        pred = predicted_limits(SusceptiblePlusExposed(0.0), below)
        assert pred.s_inf == 1000.0 and pred.v_inf == 0.0
        assert pred.e_inf == 0.0 and pred.i_inf == 0.0 and pred.r_inf == 0.0
        assert pred.decay_rate == 0.01
        pred = predicted_limits(SusceptiblePlusExposed(0.0), p1)
        assert (pred.s_plus_e_inf, pred.i_plus_r_inf) == (1000.0, 0.0)
        assert pred.s_inf is None and pred.e_inf is None and pred.v_inf is None
        assert pred.decay_rate == 0.01

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
        with pytest.raises(PredictionError, match="g1"):
            # one ulp past the exact edge mu+omega+g = 0.01
            predicted_limits(ImmuneFeedback(-0.02, np.nextafter(0.01, 1.0)), p1)

    def test_exact_edge_accepted_past_rounded_sum(self, p1):
        # mu+omega+g = 0.01 exactly, but the float sum is 0.00999...98.
        assert p1.mu + p1.omega - 0.02 < 0.01
        pred = predicted_limits(ImmuneFeedback(-0.02, 0.01), p1)
        assert (pred.r_inf, pred.s_plus_e_plus_i_inf, pred.s_inf) == (1000.0, 0.0, 0.0)

    # (law, params, the quantity the one-line refusal names): each case
    # divided by zero, asserted or returned a non-finite or non-positive
    # number before the refusal.
    @pytest.mark.parametrize("law, params, what", [
        # mu*lam underflows in integral_limit
        (ImmuneFeedback(0.0, 1e-30),
         ModelParams(N=1000.0, mu=1e-300, omega=1e-30, beta=0.9, sigma=0.2,
                     gamma=0.2),
         r"mu\*\(mu\+omega\+g\) underflows double precision \(0\.0\)"),
        # mu*N underflows, so the S+E limit is 0 against S + E = N
        (SusceptiblePlusExposed(0.0),
         ModelParams(N=1e-250, mu=1e-80, omega=0.02, beta=0.1, sigma=0.2,
                     gamma=0.2),
         r"mu\*N = 0\.0 under- or overflows double precision"),
        # 1 + omega/mu
        (SusceptibleLinear(0.05),
         ModelParams(N=1000.0, mu=1e-10, omega=1e300, beta=0.9, sigma=0.2,
                     gamma=0.3),
         r"v_inf overflows double precision \(inf\)"),
        # -(mu+gamma) lost to cancellation in the (E, I) modes
        (SusceptibleLinear(0.05),
         ModelParams(N=1000.0, mu=1e-20, omega=0.0, beta=0.9, sigma=1e10,
                     gamma=1e-20),
         r"the slowest \(E, I\) mode's rate is lost to rounding \(-0\.0\)"),
    ], ids=["integral_limit", "mu*N", "v_inf", "decay_rate"])
    def test_out_of_range_refused_on_one_line(self, law, params, what):
        with pytest.raises(PredictionError, match=what) as info:
            predicted_limits(law, params)
        assert "\n" not in str(info.value)

    def test_mu_zero_refused_for_every_law(self):
        # predicted_limits is the only way to the limits, and it refuses
        # mu = 0 (where the limit formulas divide by mu) before any law's.
        p = ModelParams(N=1000.0, mu=0.0, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.2)
        for law in CATALOGUE:
            assert not hasattr(law, "predict")
            with pytest.raises(PredictionError, match="mu > 0"):
                predicted_limits(law, p)


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

    def test_corollary1_on_arrays(self, p1):
        S = np.array([100.0, 0.0, 700.0])
        I = np.array([300.0 / 0.9, 100.0, 50.0])
        got = corollary1_upper_bound(SeirState(S, 0.0, I, 0.0), p1, 0.3)
        want = [corollary1_upper_bound(SeirState(s, 0.0, i, 0.0), p1, 0.3)
                for s, i in zip(S.tolist(), I.tolist())]
        assert got.tolist() == want
        with pytest.warns(UserWarning):
            corollary1_upper_bound(SeirState(S, 0.0, I, 0.0), p1, 0.01)
        p0 = dataclasses.replace(p1, mu=0.0)
        with pytest.raises(VaccinationChannelError, match="mu\\*N > 0"):
            corollary1_upper_bound(SeirState(S, 0.0, I, 0.0), p0, 0.3)

    @pytest.mark.parametrize("alpha", [1e307, np.inf])
    def test_corollary1_refuses_an_overflowed_bound(self, p1, mixed_state,
                                                    alpha):
        # A float state, and an array with one sample that overflows: a
        # bound that is not finite is refused, not returned.
        with pytest.raises(ValueError, match="overflows double precision"):
            corollary1_upper_bound(mixed_state, p1, alpha)
        S = np.array([0.0, 700.0]) if alpha == 1e307 else np.array([700.0])
        with pytest.raises(ValueError, match="overflows double precision"):
            corollary1_upper_bound(SeirState(S, 0.0, 50.0, 0.0), p1, alpha)
        # at mu*N = 1e-300 the bound is huge but finite, and returned
        tiny = dataclasses.replace(p1, N=1.0, mu=1e-300)
        state = SeirState(0.7, 0.2, 0.1, 0.0)
        assert corollary1_upper_bound(state, tiny, 0.9) \
            == 1.0 + (0.9 - 0.9 * 0.1) * 0.7 / 1e-300

    def test_corollary1_warns_on_bad_alpha(self, p1, mixed_state):
        with pytest.warns(UserWarning):
            corollary1_upper_bound(mixed_state, p1, 0.0)


class TestLawProperties:
    def test_control_identity_immune_feedback(self, p1):
        # gamma*I + mu*N*V == -g*R + g1*N on conserved states, to 4 ulps.
        rng = np.random.default_rng(7)
        law = ImmuneFeedback(0.01, 0.05)
        fn = compile_law(law, p1)
        for _ in range(500):
            s = random_conserved_state(rng, p1.N)
            v = fn(*s.as_tuple(), 0.0)
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
        fn = compile_law(ImmuneFeedback(g, g1), p1)
        states = rng.dirichlet((1, 1, 1, 1), size=10_000) * p1.N
        for row in states:
            v = fn(*map(float, row), 0.0)
            assert v >= -1e-13

    def test_theorem4_range(self):
        # omega = 0 with the printed gate: V in [0, 1] on every nonnegative
        # state summing to N.
        p = ModelParams(N=1000.0, mu=0.5, omega=0.0, beta=0.9,
                        sigma=0.2, gamma=0.2)
        law = ConstrainedImmuneFeedback(-0.1)
        gate = [c for c in law.gain_checks(p) if c.required]
        assert all(c.holds for c in gate)
        rng = np.random.default_rng(13)
        fn = compile_law(law, p)
        states = rng.dirichlet((1, 1, 1, 1), size=10_000) * p.N
        for row in states:
            v = fn(*map(float, row), 0.0)
            assert -1e-12 <= v <= 1.0 + 1e-12
        # the range is tight at the R = N corner
        assert fn(0.0, 0.0, 0.0, p.N, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_saturated_always_in_range(self, p1):
        rng = np.random.default_rng(17)
        fn = compile_law(Saturated(ImmuneFeedback(0.0, 0.3), 0.0, 1.0), p1)
        for _ in range(200):
            s = random_conserved_state(rng, p1.N)
            assert 0.0 <= fn(*s.as_tuple(), 0.0) <= 1.0

    def test_linearizing_equals_immune_feedback(self, p1):
        # Identical V on all states, not merely close.
        g_prime, g1 = 0.07, 0.05
        lin = compile_law(Linearizing(g_prime, g1), p1)
        imm = compile_law(ImmuneFeedback(g_prime - (p1.mu + p1.omega), g1), p1)
        rng = np.random.default_rng(19)
        for _ in range(300):
            s = random_conserved_state(rng, p1.N)
            assert lin(*s.as_tuple(), 0.0) == imm(*s.as_tuple(), 0.0)

    def test_spe_alternate_form_under_conservation(self, p1):
        rng = np.random.default_rng(23)
        g = 0.004
        fn = compile_law(SusceptiblePlusExposed(g), p1)
        for _ in range(300):
            s = random_conserved_state(rng, p1.N)
            v1 = fn(*s.as_tuple(), 0.0)
            # regrouped with S + E = N - I - R
            v2 = (g * (p1.N - s.I) - p1.sigma * s.E
                  + (p1.omega - g) * s.R) / (p1.mu * p1.N)
            assert v1 == pytest.approx(v2, abs=8.0 * np.spacing(max(1.0, abs(v1))))


def test_law_names():
    assert ZeroVax().label == "zero"
    assert Saturated(ImmuneFeedback(0.0, 0.03)).label \
        == "saturated(immune_feedback)"


class TestLawProtocol:
    def test_catalogue_covers_scenario_laws(self):
        assert sorted(law.label for law in CATALOGUE) == sorted(SCENARIO_LAWS)

    @pytest.mark.parametrize("law", CATALOGUE, ids=lambda law: law.label)
    def test_build_law_round_trip(self, law):
        assert build_law(law.name, law.gains) == law

    @pytest.mark.parametrize("law", CATALOGUE, ids=lambda law: law.label)
    def test_saturated_round_trip(self, law):
        sat = Saturated(law, -0.5, 2.0)
        assert sat.label == f"saturated({law.label})"
        assert sat.gains == law.gains
        assert build_law(law.name, sat.gains, sat.lo, sat.hi) == sat

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

    @pytest.mark.parametrize("call", [compile_law, predicted_limits],
                             ids=["compile_law", "predicted_limits"])
    def test_non_laws_raise_type_error(self, call, p1):
        with pytest.raises(TypeError, match="not a control law"):
            call("immune_feedback", p1)



def _gate_refusals(law, p):
    """The gain-gate refusals of `law_program` and `predicted_limits`, as
    messages (None where the gate admits the law)."""
    try:
        law_program(law, p)
        program = None
    except GainConstraintError as exc:
        program = str(exc)
    try:
        predicted_limits(law, p)
        prediction = None
    except PredictionError as exc:
        prediction = str(exc) if "required gain constraint" in str(exc) else None
    return program, prediction


def test_program_and_prediction_refuse_together(p1):
    # Two edges: g = 0.05 fails the constrained law's "g < 0", though its
    # canonical ImmuneFeedback(0.05, 0.55) alone has limits; g_prime =
    # 1e-20 > 0 holds, but the canonical g = g_prime - (mu+omega) rounds
    # onto -(mu+omega), which the canonical law refuses.
    p_gated = ModelParams(N=1000.0, mu=0.5, omega=0.0, beta=0.9,
                          sigma=0.2, gamma=0.2)
    assert Linearizing(1e-20, 0.0).canonical(p1).g == -(p1.mu + p1.omega)
    for law, p, clause in ((ConstrainedImmuneFeedback(0.05), p_gated, "g < 0"),
                           (Linearizing(1e-20, 0.0), p1, "g > -(mu+omega)")):
        program, prediction = _gate_refusals(law, p)
        assert program == prediction and program.endswith(clause)
    # Seeded random gains of both signs for every catalogue law, bare and
    # saturated, at mu > 0: the two entry points refuse exactly the same
    # draws, with the same message.
    rng = np.random.default_rng(20111103)
    refused = dict.fromkeys(SCENARIO_LAWS, 0)
    draws = 150
    for name, cls in SCENARIO_LAWS.items():
        for _ in range(draws):
            p = ModelParams(
                N=1000.0, mu=rng.uniform(1e-3, 1.0),
                omega=0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.3),
                beta=0.9, sigma=rng.uniform(0.01, 0.5),
                gamma=rng.uniform(0.01, 0.5))
            law = cls(**{f.name: rng.uniform(-1.0, 1.0)
                         for f in dataclasses.fields(cls)})
            for each in (law, Saturated(law, -0.5, 1.5)):
                program, prediction = _gate_refusals(each, p)
                assert program == prediction, (each, p)
            refused[name] += program is not None
    gated = {"susceptible_linear", "susceptible_plus_exposed",
             "immune_feedback", "constrained_immune_feedback", "linearizing"}
    assert {name for name, n in refused.items() if n} == gated
    assert all(refused[name] < draws for name in gated)


def _tangent_abscissa(j) -> float:
    """The largest real part of j's spectrum on the simplex's tangent space
    (sum = 0), which j maps into itself: its columns sum to -mu."""
    basis = np.linalg.qr(np.eye(4, 3) - np.eye(4, 3, k=-1))[0]
    return float(max(np.linalg.eigvals(basis.T @ j @ basis).real))


def _draw_law(name: str, rng, p: ModelParams):
    """A random law of the scenario name `name` under p; an immune-family
    law reaches its all-immune limit (g1 = mu+omega+g) half the time."""
    u = float(rng.uniform(0.0, 1.0))
    full = rng.uniform() < 0.5
    if name == "susceptible_linear":
        return SusceptibleLinear(u)
    if name == "susceptible_plus_exposed":
        return SusceptiblePlusExposed(0.0 if full else 0.1 * u)
    if name == "immune_feedback":
        g = u - (p.mu + p.omega) * float(rng.uniform(0.0, 1.0))
        lam = p.mu + p.omega + g
        return ImmuneFeedback(g, lam if full else lam * float(rng.uniform()))
    if name == "constrained_immune_feedback":
        return ConstrainedImmuneFeedback(-u * (p.mu + p.omega))
    if name == "linearizing":
        return Linearizing(u, u if full else u * float(rng.uniform()))
    return {"zero": ZeroVax(), "constant": ConstantVax(u),
            "output_zeroing": OutputZeroing()}[name]


def test_decay_rate_is_the_closed_loops_slowest_mode():
    # Wherever all four component limits are predicted, decay_rate is the
    # slowest rate of the closed loop linearized at the predicted point,
    # within the simplex; SusceptiblePlusExposed(0) predicts them exactly
    # where that point attracts. Draws straddle the threshold sigma*beta =
    # (mu+sigma)*(mu+gamma); sigma != gamma in half of them. At sigma =
    # gamma and S = 0 the (E, I) eigenvalue is defective, which the
    # relative tolerance covers.
    rng = np.random.default_rng(1106)
    compared = dict.fromkeys(SCENARIO_LAWS, 0)
    spe_sides = set()
    for _ in range(300):
        mu, sigma = float(rng.uniform(0.001, 0.2)), float(rng.uniform(0.05, 0.5))
        gamma = sigma if rng.uniform() < 0.5 else float(rng.uniform(0.05, 0.5))
        threshold = (mu + sigma) * (mu + gamma) / sigma
        p = ModelParams(N=1000.0, mu=mu, omega=float(rng.uniform(0.0, 0.2)),
                        beta=threshold * float(rng.uniform(0.3, 3.0)),
                        sigma=sigma, gamma=gamma)
        for name in SCENARIO_LAWS:
            law = _draw_law(name, rng, p)
            try:
                pred = predicted_limits(law, p)
            except PredictionError:
                continue
            shape, values = law_program(law, p)
            jac = jacobian(SEIR_SOURCE, shape)(*SEIR_SOURCE.bind(p), *values)
            limits = (pred.s_inf, pred.e_inf, pred.i_inf, pred.r_inf)
            if isinstance(law, SusceptiblePlusExposed) and law.g == 0.0:
                abscissa = _tangent_abscissa(np.array(jac(p.N, 0.0, 0.0, 0.0, 0.0)))
                assert (pred.s_inf is not None) == (abscissa < 0.0)
                spe_sides.add(abscissa < 0.0)
            if None in limits:
                continue
            abscissa = _tangent_abscissa(np.array(jac(*limits, 0.0)))
            assert pred.decay_rate == pytest.approx(-abscissa, rel=1e-6), (law, p)
            compared[name] += 1
    assert spe_sides == {True, False}
    assert [name for name, n in compared.items() if n == 0] == [
        "zero", "constant", "output_zeroing"]   # no closed-form limits
