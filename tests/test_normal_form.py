"""Coordinate transform, normal form, zero dynamics, linearizing synthesis."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from seirvax import (
    GainConstraintError,
    ImmuneFeedback,
    IntegratorConfig,
    Linearizing,
    ModelParams,
    NonFiniteStateError,
    OutputZeroing,
    SeirState,
    Trajectory,
    VaccinationChannelError,
    ZeroVax,
    derivative,
    integrate,
    integrate_normal,
    integrate_zero_dynamics,
    to_normal,
)

from conftest import random_conserved_state
from seirvax.integrator import _solve, _table
from seirvax.kernels import function
from seirvax.laws import compile_law
from seirvax.model import SEIR_SOURCE
from seirvax.normal_form import NORMAL_SOURCE, ZERO_SOURCE


def normal_rates(z, params, V):
    """The normal-form field at z, from the source the kernels inline."""
    return function(NORMAL_SOURCE)(*NORMAL_SOURCE.bind(params))(*z, V)


def zero_rates(z2, z3, z4, params):
    """(dz2, dz3, dz4) of the zero dynamics, whose field holds z1 at 0."""
    return function(ZERO_SOURCE)(*ZERO_SOURCE.bind(params))(0.0, z2, z3, z4, 0.0)[1:]


def zeroing_input(z4, params):
    """The output-zeroing law's V at a state with z4 = I and z1 = R = 0."""
    return compile_law(OutputZeroing(), params)(0.0, 0.0, z4, 0.0, 0.0)


class TestTransform:
    def test_forward_example(self, mixed_state):
        assert to_normal(mixed_state) == (150.0, 850.0, 100.0, 50.0)

    def test_disease_free_image(self):
        assert to_normal(SeirState(1000.0, 0.0, 0.0, 0.0)) \
            == (0.0, 1000.0, 0.0, 0.0)

    def test_jacobian_det_is_exactly_minus_one(self, p1):
        # d(z1,z2,z3,z4)/d(S,E,I,R): to_normal is linear, so its columns
        # are the images of the unit vectors.
        jac = np.column_stack([to_normal(SeirState(*e))
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
        dz = normal_rates((0.0, 1000.0, 0.0, 0.0), p1, 0.0)
        assert dz == (0.0, 0.0, 0.0, 0.0)

    def test_matches_dr_example(self, p1, mixed_state):
        # dz1 = -0.03*150 + 0.2*50 = 5.5, the dR of the x-space example.
        dz = normal_rates((150.0, 850.0, 100.0, 50.0), p1, 0.0)
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
            drift = np.abs(tr.z2 + tr.z3 + tr.z4 - p1.N)
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

    @pytest.mark.parametrize("z0, rule", [
        ((-1.0, 1.0, 1.0), "nonnegative"), ((1.0, np.nan, 1.0), "finite"),
        ((1.0, 1.0, -np.inf), "finite")], ids=str)
    def test_refuses_a_bad_start(self, p1, z0, rule):
        with pytest.raises(ValueError,
                           match=f"^initial zero-dynamics state must be {rule}$"):
            integrate_zero_dynamics(z0, p1, IntegratorConfig(t_end=1.0))

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
        dz = normal_rates((0.0, 850.0, 100.0, 50.0), p1,
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
                (0.0, float(rng.uniform(0.0, p1.N)),
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


class TestRecord:
    """A run's `Trajectory`, in x or in z, keeps the buffer its stepper
    wrote and builds its numpy columns on first access."""

    FIXED = IntegratorConfig(t_end=20.0, dt=1e-2, sampling_stride=10)
    DENSE = IntegratorConfig(t_end=20.0, dt=1e-2, sampling_stride=10,
                             adaptive=True, dense=True)

    @staticmethod
    def _run(run, p1, state, config):
        """The record of a run and the buffer `_solve` writes for it."""
        if run == "x":
            law = ImmuneFeedback(0.0, 0.03)
            return (integrate(state, p1, law, config),
                    _solve(SEIR_SOURCE, law, p1, state.as_tuple(), config))
        if run == "normal":
            law, z0 = ImmuneFeedback(0.0, 0.03), to_normal(state)
            return (integrate_normal(z0, p1, law, config),
                    _solve(NORMAL_SOURCE, law, p1, z0, config))
        return (integrate_zero_dynamics((300.0, 400.0, 300.0), p1, config),
                _solve(ZERO_SOURCE, ZeroVax(), p1, (0.0, 300.0, 400.0, 300.0),
                       config))

    @pytest.mark.parametrize("config", [FIXED, DENSE], ids=["fixed", "dense"])
    @pytest.mark.parametrize("run", ["x", "normal", "zero_dynamics"])
    def test_columns_are_the_stepper_columns(self, p1, mixed_state, config,
                                             run):
        # Bitwise, dtype included, the columns of the same run's buffer
        # once it is found finite; each is a read-only view into the
        # record's own buffer, and so is `states()`.
        tr, samples = self._run(run, p1, mixed_state, config)
        samples.check()
        want = _table(samples.rows).T
        names = {"x": ("t", "S", "E", "I", "R", "V")}.get(
            run, ("t", "z1", "z2", "z3", "z4", "V"))
        assert tr.names == names
        got = [getattr(tr, name) for name in names]
        assert tr.rows == samples.rows
        for column, expected in zip(got, want):
            assert column.dtype == np.float64 and not column.flags.writeable
            assert np.shares_memory(column, np.frombuffer(tr.rows))
            assert column.tobytes() == expected.tobytes()
        assert tr.t is tr.t   # made once
        for name, expected in zip(names, want):
            assert tr.values(name).tobytes() == expected.tobytes()
        states = tr.states()
        assert states.dtype == np.float64 and not states.flags.writeable
        assert np.shares_memory(states, np.frombuffer(tr.rows))
        assert states.tobytes() == want[1:5].T.tobytes()

    def test_len_and_rows_leave_the_columns_unbuilt(self, p1, mixed_state):
        for run in ("x", "zero_dynamics"):
            tr, _ = self._run(run, p1, mixed_state, self.DENSE)
            assert len(tr) == 201 and len(tr.rows) == 6 * 201
            assert len(tr.values(tr.names[2])) == 201
            assert not set(tr.names) & set(vars(tr))
            getattr(tr, tr.names[2])
            assert set(tr.names) <= set(vars(tr))

    def test_non_finite_run_raises_at_the_call(self, p1):
        # Fixed-step RK4 checks nothing while it steps: the buffer is
        # checked, and the record refused, before the record exists.
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite state at t = 0\.01 "
                                 r"\(sample index 1\)$"):
            integrate_zero_dynamics((1e308, 1e308, 1e308), p1,
                                    IntegratorConfig(t_end=1.0, dt=1e-2))

    def test_equality_and_replace(self, p1):
        # `==` compares the rows and the run's inputs; `replace` takes
        # those fields, and the columns are built afresh.
        tr = integrate_zero_dynamics((300.0, 400.0, 300.0), p1, self.DENSE)
        again = integrate_zero_dynamics((300.0, 400.0, 300.0), p1, self.DENSE)
        assert tr == again and tr is not again
        assert tr != integrate_zero_dynamics((300.0, 400.0, 301.0), p1,
                                             self.DENSE)
        p2 = dataclasses.replace(p1, mu=0.02)
        moved = dataclasses.replace(tr, params=p2)
        assert moved.params == p2 and moved.rows is tr.rows
        assert moved.z2.tobytes() == tr.z2.tobytes()
        assert moved != tr
        with pytest.raises(TypeError):
            dataclasses.replace(tr, z2=tr.z2)

    def test_x_space_records_compare_by_value(self, p1, mixed_state):
        # Also once their columns are built, and after a pickle round trip.
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), self.FIXED)
        again = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03),
                          self.FIXED)
        assert tr == again
        assert tr.S.tobytes() == again.S.tobytes() and tr == again
        assert tr != integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.04),
                               self.FIXED)
        back = pickle.loads(pickle.dumps(tr))
        assert back == tr and "S" not in vars(back)
        assert not back.S.flags.writeable
        assert np.shares_memory(back.S, np.frombuffer(back.rows))

    def test_from_columns_gives_back_the_record(self, p1, mixed_state):
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), self.DENSE)
        rebuilt = Trajectory.from_columns(
            tr.params, tr.law, tr.config,
            **{name: getattr(tr, name) for name in tr.names})
        assert rebuilt == tr
        assert rebuilt.rows.tobytes() == tr.rows.tobytes()

    def test_u_is_an_x_space_column(self, p1, mixed_state):
        x = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), self.FIXED)
        z = integrate_normal(to_normal(mixed_state), p1,
                             ImmuneFeedback(0.0, 0.03), self.FIXED)
        assert x.u.shape == (len(x),)
        assert not hasattr(z, "u") and not hasattr(z, "S")
        with pytest.raises(AttributeError, match="'u'"):
            z.u
