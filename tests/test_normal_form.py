"""Coordinate transform, normal form, zero dynamics, linearizing synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from seirvax import (
    GainConstraintError,
    ImmuneFeedback,
    IntegratorConfig,
    Linearizing,
    ModelParams,
    NormalState,
    OutputZeroing,
    SeirState,
    VaccinationChannelError,
    ZeroVax,
    derivative,
    from_normal,
    integrate,
    integrate_normal,
    integrate_zero_dynamics,
    to_normal,
)

from conftest import random_conserved_state
from seirvax.kernels import function
from seirvax.laws import compile_law
from seirvax.normal_form import NORMAL_SOURCE, ZERO_SOURCE


def normal_rates(z, params, V):
    """The normal-form field at z, from the source the kernels inline."""
    return function(NORMAL_SOURCE)(*NORMAL_SOURCE.bind(params))(*z.as_tuple(), V)


def zero_rates(z2, z3, z4, params):
    """(dz2, dz3, dz4) of the zero dynamics, whose field holds z1 at 0."""
    return function(ZERO_SOURCE)(*ZERO_SOURCE.bind(params))(0.0, z2, z3, z4, 0.0)[1:]


def zeroing_input(z4, params):
    """The output-zeroing law's V at a state with z4 = I and z1 = R = 0."""
    return compile_law(OutputZeroing(), params)(0.0, 0.0, z4, 0.0, 0.0)


class TestTransform:
    def test_forward_example(self, mixed_state):
        z = to_normal(mixed_state)
        assert z == NormalState(150.0, 850.0, 100.0, 50.0)

    def test_disease_free_image(self):
        assert to_normal(SeirState(1000.0, 0.0, 0.0, 0.0)) \
            == NormalState(0.0, 1000.0, 0.0, 0.0)

    def test_round_trip_exact_on_representable_inputs(self, p1):
        # Integer-valued (and dyadic) states round-trip bitwise: the only
        # arithmetic is S+R and (S+R)-R, exact without rounding there.
        rng = np.random.default_rng(3)
        for _ in range(300):
            w = rng.multinomial(4000, (0.25, 0.25, 0.25, 0.25)) / 4.0
            s = SeirState(*map(float, w))
            assert from_normal(to_normal(s)) == s
        z = NormalState(150.0, 850.0, 100.0, 50.0)
        assert to_normal(from_normal(z)) == z

    def test_round_trip_near_exact_on_general_floats(self, p1):
        rng = np.random.default_rng(4)
        for _ in range(300):
            s = random_conserved_state(rng, p1.N)
            back = from_normal(to_normal(s))
            assert back.S == pytest.approx(s.S, abs=2.0 * np.spacing(p1.N))
            assert (back.E, back.I, back.R) == (s.E, s.I, s.R)

    def test_inverse_is_total(self):
        # z2 < z1 yields S < 0, returned as-is.
        s = from_normal(NormalState(10.0, 5.0, 0.0, 0.0))
        assert s.S == -5.0

    def test_jacobian_det_is_exactly_minus_one(self, p1):
        # d(S,E,I,R)/d(z1,z2,z3,z4): from_normal is linear, so its columns
        # are the images of the unit vectors.
        jac = np.column_stack([from_normal(NormalState(*e)).as_tuple()
                               for e in np.eye(4).tolist()])
        assert np.linalg.det(jac) == -1.0


class TestRelativeDegree:
    def test_p1(self, p1):
        # V enters the output equation dz1 = dR with coefficient mu*N and
        # no other normal-form equation: relative degree one.
        z = to_normal(SeirState(700.0, 100.0, 50.0, 150.0))
        d0 = normal_rates(z, p1, 0.0)
        d1 = normal_rates(z, p1, 1.0)
        assert d1[1:] == d0[1:]
        assert d1[0] - d0[0] == pytest.approx(10.0, rel=1e-12)

    def test_mu_zero_ill_posed(self, mixed_state):
        # mu*N = 0: the input channel vanishes and V moves nothing.
        p = ModelParams(N=1000.0, mu=0.0, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.2)
        z = to_normal(mixed_state)
        assert normal_rates(z, p, 1.0) == normal_rates(z, p, 0.0)

    def test_coefficient_estimate_any_state(self, p1):
        rng = np.random.default_rng(5)
        muN = p1.mu * p1.N
        for _ in range(100):
            s = random_conserved_state(rng, p1.N)
            d1 = derivative(s, p1, 1.0)[3]
            d0 = derivative(s, p1, 0.0)[3]
            scale = max(abs(d1), abs(d0), muN)
            assert abs((d1 - d0) - muN) <= 4.0 * np.spacing(scale)


class TestNormalDerivative:
    def test_pushforward_consistency(self, p1):
        rng = np.random.default_rng(7)
        for _ in range(300):
            s = random_conserved_state(rng, p1.N)
            v = float(rng.uniform(-1.0, 3.0))
            dS, dE, dI, dR = derivative(s, p1, v)
            lhs = (dR, dS + dR, dE, dI)   # the pushforward of the x-space rates
            rhs = normal_rates(to_normal(s), p1, v)
            for a, b in zip(lhs, rhs):
                assert a == pytest.approx(b, abs=1e-10, rel=1e-10)

    def test_disease_free_image_is_fixed(self, p1):
        dz = normal_rates(NormalState(0.0, 1000.0, 0.0, 0.0), p1, 0.0)
        assert dz == (0.0, 0.0, 0.0, 0.0)

    def test_matches_dr_example(self, p1, mixed_state):
        # dz1 = -0.03*150 + 0.2*50 = 5.5, the dR of the x-space example.
        dz = normal_rates(NormalState(150.0, 850.0, 100.0, 50.0), p1, 0.0)
        assert dz[0] == pytest.approx(5.5, abs=1e-12)
        assert dz[0] == pytest.approx(derivative(mixed_state, p1, 0.0)[3])


class TestZeroDynamics:
    def test_disease_free_fixed_point(self, p1):
        assert zero_rates(1000.0, 0.0, 0.0, p1) == (0.0, 0.0, 0.0)

    def test_sum_conserved_on_population_manifold(self, p1):
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = rng.dirichlet((1.0, 1.0, 1.0)) * p1.N
            tr = integrate_zero_dynamics(tuple(map(float, w)), p1,
                                         IntegratorConfig(t_end=500.0, dt=1e-2,
                                                          sampling_stride=100))
            drift = np.abs(tr.total - p1.N)
            assert drift.max() <= 1e-9 * p1.N

    def test_bounded_over_long_horizon(self, p1):
        rng = np.random.default_rng(13)
        eps = 1e-9 * p1.N
        for _ in range(3):
            w = rng.dirichlet((1.0, 1.0, 1.0)) * p1.N
            tr = integrate_zero_dynamics(tuple(map(float, w)), p1,
                                         IntegratorConfig(t_end=1000.0, dt=1e-2,
                                                          sampling_stride=200))
            for col in (tr.z2, tr.z3, tr.z4):
                assert col.min() >= -eps
                assert col.max() <= p1.N + eps

    def test_interior_rest_point(self, p1):
        # With sigma = gamma the zero dynamics settle at
        # z2 = (mu+sigma)(mu+gamma)N/(sigma*beta) = 245 under P1.
        tr = integrate_zero_dynamics((300.0, 400.0, 300.0), p1,
                                     IntegratorConfig(t_end=3000.0, dt=1e-2,
                                                      sampling_stride=1000))
        assert tr.z2[-1] == pytest.approx(245.0, rel=1e-6)
        d = zero_rates(float(tr.z2[-1]), float(tr.z3[-1]), float(tr.z4[-1]), p1)
        assert max(abs(v) for v in d) < 1e-8 * p1.N


class TestZeroingInput:
    def test_values(self, p1):
        # dz1 at z1 = 0 is gamma*z4 + mu*N*V: the cancelling input is
        # -gamma*z4/(mu*N) = -1.0 for z4 = 50 under these parameters (the
        # magnitude gamma*z4/(mu*N) = 0.2*50/10 = 1).
        assert zeroing_input(0.0, p1) == 0.0
        assert zeroing_input(50.0, p1) == pytest.approx(-1.0)
        for z4 in (50.0, 123.456, 1e-300, 7e5):
            assert zeroing_input(z4, p1) == -p1.gamma * z4 / (p1.mu * p1.N)
        dz = normal_rates(NormalState(0.0, 850.0, 100.0, 50.0), p1,
                               zeroing_input(50.0, p1))
        assert dz[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_channel(self):
        p = ModelParams(N=1000.0, mu=0.0, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.2)
        with pytest.raises(VaccinationChannelError):
            zeroing_input(1.0, p)

    def test_renders_dz1_zero_pointwise(self, p1):
        rng = np.random.default_rng(21)
        for _ in range(200):
            z4 = float(rng.uniform(0.0, p1.N))
            dz = normal_rates(
                NormalState(0.0, float(rng.uniform(0.0, p1.N)),
                            float(rng.uniform(0.0, p1.N)), z4),
                p1, zeroing_input(z4, p1))
            assert abs(dz[0]) <= 4.0 * np.spacing(p1.gamma * max(z4, 1.0))

    def test_closed_loop_holds_output_at_zero(self, p1):
        # From R(0) = 0 the zeroing input keeps z1 = R at 0. With V
        # evaluated at every stage each stage's dR is roundoff, so a coarse
        # step meets the bound.
        tr = integrate(SeirState(650.0, 250.0, 100.0, 0.0), p1,
                       OutputZeroing(),
                       IntegratorConfig(t_end=100.0, dt=0.05))
        assert np.abs(tr.R).max() <= 1e-6 * p1.N


class TestSynthesis:
    def test_remark_special_case(self, p1):
        # g' = g1 = mu+omega gives the plain total-population law.
        law = Linearizing(p1.mu + p1.omega, p1.mu + p1.omega).canonical(p1)
        assert law == ImmuneFeedback(g=0.0, g1=p1.mu + p1.omega)

    def test_closed_loop_tracks_scalar_solution(self, p1):
        g_prime, g1 = 0.05, 0.02
        law = Linearizing(g_prime, g1).canonical(p1)
        tr = integrate(SeirState(650.0, 250.0, 100.0, 0.0), p1, law,
                       IntegratorConfig(t_end=200.0, dt=1e-3,
                                        sampling_stride=1000))
        expected = (g1 * p1.N / g_prime) * (1.0 - np.exp(-g_prime * tr.t))
        mask = expected > 1.0
        rel = np.abs(tr.R[mask] - expected[mask]) / expected[mask]
        assert rel.max() < 1e-3

    def test_full_immunization_when_gains_match(self, p1):
        law = Linearizing(0.05, 0.05).canonical(p1)
        tr = integrate(SeirState(650.0, 250.0, 100.0, 0.0), p1, law,
                       IntegratorConfig(t_end=400.0, dt=1e-2,
                                        sampling_stride=500))
        assert tr.R[-1] == pytest.approx(p1.N, rel=1e-4)

    def test_requires_positive_g_prime(self, p1):
        with pytest.raises(GainConstraintError, match="g_prime > 0"):
            compile_law(Linearizing(0.0, 0.05), p1)


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("law", [ZeroVax(), ImmuneFeedback(0.0, 0.03)])
    def test_x_and_z_integration_agree(self, p1, mixed_state, law):
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=100)
        tr_x = integrate(mixed_state, p1, law, cfg)
        tr_z = integrate_normal(to_normal(mixed_state), p1, law, cfg)
        tol = 1e-6 * p1.N
        assert np.abs(tr_z.z1 - tr_x.R).max() < tol
        assert np.abs(tr_z.z2 - (tr_x.S + tr_x.R)).max() < tol
        assert np.abs(tr_z.z3 - tr_x.E).max() < tol
        assert np.abs(tr_z.z4 - tr_x.I).max() < tol

    @pytest.mark.parametrize("law", [ImmuneFeedback(0.0, 0.03),
                                     Linearizing(0.1, 0.05)],
                             ids=lambda law: law.label)
    def test_dense_x_and_z_integration_agree(self, p1, mixed_state, law):
        # Dense runs sample the same grid in x and in z, each within the
        # pair's tolerance of the true solution (measured about 1e-6*N).
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=100,
                               adaptive=True, dense=True)
        tr_x = integrate(mixed_state, p1, law, cfg)
        tr_z = integrate_normal(to_normal(mixed_state), p1, law, cfg)
        assert tr_z.t.tobytes() == tr_x.t.tobytes()
        tol = 1e-5 * p1.N
        assert np.abs(tr_z.z1 - tr_x.R).max() < tol
        assert np.abs(tr_z.z2 - (tr_x.S + tr_x.R)).max() < tol
        assert np.abs(tr_z.z3 - tr_x.E).max() < tol
        assert np.abs(tr_z.z4 - tr_x.I).max() < tol
