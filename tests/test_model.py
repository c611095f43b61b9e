"""Core model: vector field, admissibility, control coupling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seirvax import (
    ModelParams,
    SeirState,
    check_assumption1,
    coupling_control,
    derivative,
)

from conftest import random_conserved_state


class TestParams:
    def test_rejects_nonpositive_population(self):
        with pytest.raises(ValueError):
            ModelParams(N=0.0, mu=0.1, omega=0.1, beta=0.1, sigma=0.1, gamma=0.1)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ModelParams(N=10.0, mu=-0.1, omega=0.1, beta=0.1, sigma=0.1, gamma=0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ModelParams(N=10.0, mu=math.inf, omega=0.1, beta=0.1, sigma=0.1,
                        gamma=0.1)

    def test_beta_prime(self, p1):
        assert p1.beta_prime == 0.9 / 1000.0


class TestDerivative:
    def test_disease_free_fixed_point(self, p1):
        d = derivative(SeirState(1000.0, 0.0, 0.0, 0.0), p1, 0.0)
        assert d == (0.0, 0.0, 0.0, 0.0)

    def test_hand_evaluated_components(self, p1, mixed_state):
        # Term-by-term: dS = -0.01*700 + 0.02*150 - 0.9*700*50/1000 + 10
        #                  = -7 + 3 - 31.5 + 10 = -25.5
        #               dE = 31.5 - 0.21*100 = 10.5
        #               dI = -0.21*50 + 0.2*100 = 9.5
        #               dR = -0.03*150 + 0.2*50 = 5.5
        dS, dE, dI, dR = derivative(mixed_state, p1, 0.0)
        assert dS == pytest.approx(-25.5, abs=1e-12)
        assert dE == pytest.approx(10.5, abs=1e-12)
        assert dI == pytest.approx(9.5, abs=1e-12)
        assert dR == pytest.approx(5.5, abs=1e-12)
        assert dS + dE + dI + dR == pytest.approx(0.0, abs=1e-12)

    def test_v_shifts_only_s_and_r(self, p1, mixed_state):
        # V enters only dS and dR, linearly with coefficients -/+ mu*N.
        dS0, dE0, dI0, dR0 = derivative(mixed_state, p1, 0.3)
        dS1, dE1, dI1, dR1 = derivative(mixed_state, p1, 0.3 + 0.25)
        muN_delta = p1.mu * p1.N * 0.25
        assert dE1 == dE0 and dI1 == dI0
        assert dS1 - dS0 == pytest.approx(-muN_delta, rel=1e-12)
        assert dR1 - dR0 == pytest.approx(muN_delta, rel=1e-12)

    def test_non_finite_input_rejected(self, p1):
        with pytest.raises(ValueError):
            derivative(SeirState(math.nan, 0.0, 0.0, 0.0), p1, 0.0)
        with pytest.raises(ValueError):
            derivative(SeirState(1.0, 2.0, 3.0, 994.0), p1, math.inf)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_components_sum_to_zero_on_conserved_states(self, data):
        # On S+E+I+R = N the algebraic sum is exactly zero; the floating
        # sum must vanish to roundoff in the mu-terms.
        p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.2)
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        v = data.draw(st.floats(min_value=-5.0, max_value=65.0))
        state = random_conserved_state(np.random.default_rng(seed), p.N)
        d = derivative(state, p, v)
        scale = max(*map(abs, d), p.mu * p.N, p.mu * p.N * abs(v))
        # budget: mu-term cancellation noise plus the conservation defect
        budget = 4.0 * np.finfo(float).eps * scale + p.mu * abs(state.total - p.N)
        assert abs(sum(d)) <= budget


class TestAssumption1:
    def test_zero_infectious_discharges_conditional(self, p1):
        assert check_assumption1(SeirState(999.0, 1.0, 0.0, 0.0), p1) == ()

    def test_incidence_clause_threshold(self, p1):
        # With I0=10, E0=15: exposed clause needs 1.05*10 = 10.5 < 15 (ok);
        # incidence clause needs 0.9*S0*10/(0.21*1000) > 15, i.e. S0 > 350.
        assert check_assumption1(SeirState(351.0, 15.0, 10.0, 624.0), p1) == ()
        bad = check_assumption1(SeirState(349.0, 15.0, 10.0, 626.0), p1)
        assert len(bad) == 1 and "beta*S0*I0" in bad[0]

    def test_sigma_zero_with_infectious_is_violated(self):
        p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                        sigma=0.0, gamma=0.2)
        violated = check_assumption1(SeirState(900.0, 50.0, 50.0, 0.0), p)
        assert "sigma zero" in violated

    def test_mu_and_sigma_zero_incidence_clause_is_violated(self):
        p = ModelParams(N=1000.0, mu=0.0, omega=0.02, beta=0.9,
                        sigma=0.0, gamma=0.2)
        assert check_assumption1(SeirState(900.0, 50.0, 50.0, 0.0), p) \
            == ("sigma zero", "mu+sigma zero")
        assert check_assumption1(SeirState(950.0, 50.0, 0.0, 0.0), p) == ()

    def test_satisfied_incidence_clause_forces_growing_exposed(self, p1):
        # dE/dt(0) at V = 0 is positive whenever the incidence clause holds
        # (its known tension with the narrative reading).
        state0 = SeirState(500.0, 15.0, 10.0, 475.0)
        assert check_assumption1(state0, p1) == ()
        assert derivative(state0, p1, 0.0)[1] > 0.0

    def test_pure_predicate(self, p1, mixed_state):
        assert check_assumption1(mixed_state, p1) == check_assumption1(
            mixed_state, p1)


class TestControlCoupling:
    def test_zeroing_vaccination_gives_zero_control(self, p1, mixed_state):
        v = (p1.omega * mixed_state.R - p1.sigma * mixed_state.E) / (p1.mu * p1.N)
        assert coupling_control(mixed_state, p1, v) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_control(self, p1, mixed_state):
        # u = 0.02*150 - 0.2*100 = -17
        assert coupling_control(mixed_state, p1, 0.0) == pytest.approx(-17.0)

    def test_slope_in_v(self, p1, mixed_state):
        u0 = coupling_control(mixed_state, p1, 0.2)
        u1 = coupling_control(mixed_state, p1, 0.7)
        assert u1 - u0 == pytest.approx(-p1.mu * p1.N * 0.5, rel=1e-12)
