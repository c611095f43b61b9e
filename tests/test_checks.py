"""Verification suite: conservation, positivity, identities, limits, rates."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from seirvax import (
    AsymptoticPrediction,
    ConstrainedImmuneFeedback,
    HorizonError,
    ImmuneFeedback,
    IntegratorConfig,
    ModelParams,
    Saturated,
    ScenarioError,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    Trajectory,
    ZeroVax,
    check_asymptotics,
    check_identity_suite,
    check_integral_limit,
    integrate,
    monitor_conservation,
    monitor_positivity,
    predicted_limits,
)
from conftest import log_linear_rate, with_columns
from seirvax.scenario import load_scenario


@pytest.fixture
def thm3_run(p1, mixed_state):
    cfg = IntegratorConfig(t_end=1000.0, dt=1e-2, sampling_stride=10)
    return integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)


class TestConservation:
    def test_integrator_output_passes(self, thm3_run):
        chk = monitor_conservation(thm3_run)
        assert chk.passed and chk.worst <= 1e-9 * 1000.0

    def test_corrupted_sample_fails_at_location(self, thm3_run):
        bad_R = thm3_run.R.copy()
        bad_R[500] += 1.0
        bad = with_columns(thm3_run, R=bad_R)
        chk = monitor_conservation(bad)
        assert not chk.passed
        assert chk.location_t == pytest.approx(float(thm3_run.t[500]))

    def test_tolerance_scales_with_population(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2)
        small = monitor_conservation(integrate(mixed_state, p1, ZeroVax(), cfg))
        p2 = dataclasses.replace(p1, N=2000.0)
        big = monitor_conservation(integrate(
            SeirState(1400.0, 200.0, 100.0, 300.0), p2, ZeroVax(), cfg))
        assert big.tolerance == 2.0 * small.tolerance


class TestPositivity:
    def test_admissible_runs_pass_component_checks(self, p1, mixed_state):
        # Runs whose V respects [0, 1] keep every component inside [0, N]:
        # a saturated immune-feedback run, and the constrained-gain law
        # (omega = 0 regime) whose V lies in [0, 1] by construction.
        from seirvax import ConstrainedImmuneFeedback
        cfg = IntegratorConfig(t_end=300.0, dt=1e-2, sampling_stride=10)
        tr = integrate(mixed_state, p1,
                       Saturated(ImmuneFeedback(0.0, 0.25), 0.0, 1.0), cfg)
        chk = monitor_positivity(tr, v_lo=0.0, v_hi=1.0)
        assert chk.passed

        p = ModelParams(N=1000.0, mu=0.5, omega=0.0, beta=0.9,
                        sigma=0.2, gamma=0.2)
        tr2 = integrate(mixed_state, p, ConstrainedImmuneFeedback(-0.1), cfg)
        chk2 = monitor_positivity(tr2, v_lo=0.0, v_hi=1.0)
        assert chk2.passed

    def test_theorem2i_v_range_vs_corollary_bound(self, p1):
        # The susceptible-linear law exceeds V = 1 immediately but stays
        # under the state-dependent extended bound on this horizon.
        cfg = IntegratorConfig(t_end=20.0, dt=1e-2, sampling_stride=10)
        tr = integrate(SeirState(500.0, 100.0, 50.0, 350.0), p1,
                       SusceptibleLinear(0.1), cfg)
        unit = monitor_positivity(tr, v_lo=0.0, v_hi=1.0)
        assert not unit.passed
        assert not unit.details["V in [0, 1]"].passed
        extended = monitor_positivity(tr, bounds="corollary1")
        assert extended.passed
        with pytest.raises(ValueError, match="unknown V bounds"):
            monitor_positivity(tr, bounds="corollary2")

    def test_unset_v_bounds_read_the_unit_range(self, p1):
        # A V bound left at None, the default, is V_RANGE's: the Check is
        # the one the bound given would make.
        from seirvax.checks import V_RANGE
        assert V_RANGE == (0.0, 1.0)
        cfg = IntegratorConfig(t_end=20.0, dt=1e-2, sampling_stride=10)
        tr = integrate(SeirState(500.0, 100.0, 50.0, 350.0), p1,
                       SusceptibleLinear(0.1), cfg)
        assert monitor_positivity(tr) == monitor_positivity(tr, 0.0, 1.0)
        assert monitor_positivity(tr, v_hi=80.0) \
            == monitor_positivity(tr, v_lo=0.0, v_hi=80.0)
        assert monitor_positivity(tr, v_lo=-1.0) \
            == monitor_positivity(tr, v_lo=-1.0, v_hi=1.0)

    def test_corollary_bound_is_the_law_function(self, p1):
        # The check's upper bound is laws.corollary1_upper_bound over the
        # samples, bit for bit the parenthesised formula; mu = 0 refuses.
        import dataclasses
        from seirvax import VaccinationChannelError, ZeroVax
        cfg = IntegratorConfig(t_end=20.0, dt=1e-2, sampling_stride=10)
        tr = integrate(SeirState(500.0, 100.0, 50.0, 350.0), p1,
                       SusceptibleLinear(0.1), cfg)
        hi = 1.0 + (0.5 - p1.beta_prime * tr.I) * tr.S / (p1.mu * p1.N)
        worst = float(np.max(np.maximum(-tr.V, tr.V - hi)))
        chk = monitor_positivity(tr, bounds="corollary1", alpha=0.5)
        assert chk.details["V in corollary1 range"].worst == max(0.0, worst)
        p0 = dataclasses.replace(p1, mu=0.0)
        tr0 = integrate(SeirState(500.0, 100.0, 50.0, 350.0), p0, ZeroVax(),
                        IntegratorConfig(t_end=1.0, dt=1e-2))
        with pytest.raises(VaccinationChannelError, match="mu\\*N > 0"):
            monitor_positivity(tr0, bounds="corollary1")

    def test_lower_violation_with_unbounded_upper(self, p1, mixed_state):
        # An infinite upper bound must not mask lower-bound violations.
        from seirvax import ConstantVax
        tr = integrate(mixed_state, p1, ConstantVax(-0.5),
                       IntegratorConfig(t_end=1.0, dt=0.1))
        chk = monitor_positivity(tr, v_hi=np.inf)
        assert not chk.details["V in [0, inf]"].passed

    def test_negative_start_flagged_at_t0(self, p1, thm3_run):
        bad_E = thm3_run.E.copy()
        bad_E[0] = -1.0
        bad = with_columns(thm3_run, E=bad_E)
        chk = monitor_positivity(bad, v_hi=np.inf)
        assert not chk.passed
        sub = chk.details["components >= 0"]
        assert not sub.passed and sub.location_t == 0.0


def _row_reduction_subchecks(traj) -> list[tuple]:
    """(passed, worst, location) of the two component sub-checks, from the
    (n, 4) row reduction `monitor_positivity` once used."""
    N = traj.params.N
    eps = 1e-9 * N
    states = traj.states()
    low, high = states.min(axis=1), states.max(axis=1)
    k_low, k_high = int(np.argmin(low)), int(np.argmax(high))
    return [(bool(low[k_low] >= -eps), max(0.0, -float(low[k_low])).hex(),
             float(traj.t[k_low]).hex()),
            (bool(high[k_high] <= N + eps), max(0.0, float(high[k_high]) - N).hex(),
             float(traj.t[k_high]).hex())]


@pytest.mark.parametrize("seed", range(6))
def test_component_extremes_match_row_reduction(p1, mixed_state, seed):
    # The minimum and maximum folded over S, E, I, R give the verdict, the
    # worst value and its location of the row reduction bit for bit: on
    # runs whose constant V drives a component negative or above N, on
    # noisy copies of them, and with ties at the extreme.
    from seirvax import ConstantVax
    rng = np.random.default_rng(seed)
    v = float(rng.uniform(-8.0, 8.0))
    tr = integrate(mixed_state, p1, ConstantVax(v),
                   IntegratorConfig(t_end=20.0, dt=1e-2))
    noisy = {name: getattr(tr, name) + rng.normal(scale=float(rng.uniform(0.0, 50.0)),
                                                  size=len(tr))
             for name in "SEIR"}
    rows = rng.integers(0, len(tr), size=3)
    for name in "SEIR":   # equal extremes in several rows and columns
        noisy[name][rows] = -7.0 if seed % 2 else 2.0 * p1.N
    for traj in (tr, with_columns(tr, **noisy)):
        chk = monitor_positivity(traj, v_hi=np.inf, v_lo=-np.inf)
        got = [(c.passed, c.worst.hex(), c.location_t.hex())
               for c in (chk.details["components >= 0"],
                         chk.details["components <= N"])]
        assert got == _row_reduction_subchecks(traj)


@pytest.mark.parametrize("v_lo, v_hi", [
    (0.0, 1.0), (-3.0, 2500.0), (-np.inf, 0.25), (-np.inf, np.inf)])
def test_constant_v_bounds_match_bound_arrays(p1, mixed_state, v_lo, v_hi):
    # Constant bounds, broadcast by numpy as scalars, give the V check the
    # bits the n-length bound arrays gave: worst value, location and
    # slack, also where V is NaN at a sample.
    tr = integrate(mixed_state, p1, SusceptibleLinear(0.1),
                   IntegratorConfig(t_end=20.0, dt=1e-2))
    V = np.random.default_rng(7).normal(scale=4.0, size=len(tr))
    for traj in (tr, with_columns(tr, V=V), with_columns(tr, V=np.where(
            np.arange(len(tr)) == 40, np.nan, V))):
        lo, hi = np.full_like(traj.V, v_lo), np.full_like(traj.V, v_hi)
        finite = np.abs(np.concatenate((lo, hi)))
        finite = finite[np.isfinite(finite)]
        slack = 1e-12 * max(1.0, float(finite.max()) if finite.size else 1.0)
        excess = np.maximum(lo - traj.V, traj.V - hi)
        k = int(np.argmax(excess))
        worst = 0.0 if excess[k] <= 0.0 else float(excess[k])
        sub = monitor_positivity(traj, v_lo, v_hi).details[
            f"V in [{v_lo:g}, {v_hi:g}]"]
        assert (sub.worst.hex(), sub.location_t.hex(), sub.tolerance.hex()) == (
            worst.hex(), float(traj.t[k]).hex(), slack.hex())


class TestIdentitySuite:
    @pytest.mark.parametrize("law", [
        ZeroVax(),
        ImmuneFeedback(0.0, 0.03),
        SusceptibleLinear(0.1),
        SusceptiblePlusExposed(0.005),
        Saturated(ImmuneFeedback(0.0, 0.25), 0.0, 1.0),
    ])
    def test_passes_on_integrated_trajectories(self, p1, mixed_state, law):
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2)
        tr = integrate(mixed_state, p1, law, cfg)
        chk = check_identity_suite(tr, p1)
        assert chk.passed, chk.details

    def test_corrupted_sample_fails(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2)
        tr = integrate(mixed_state, p1, ZeroVax(), cfg)
        bad_I = tr.I.copy()
        bad_I[300] += 0.5
        chk = check_identity_suite(with_columns(tr, I=bad_I), p1)
        assert not chk.passed

    @pytest.mark.parametrize("stride", [2, 5, 10])
    @pytest.mark.parametrize("law", [
        ConstrainedImmuneFeedback(-0.1),
        SusceptibleLinear(0.3),
        ImmuneFeedback(0.2, 0.6),
    ], ids=lambda law: law.label)
    def test_passes_on_strided_runs(self, p1, law, stride):
        # A fast plant (mu = 0.5): V moves within a sample interval, and
        # the samples still follow the continuous closed loop.
        p = dataclasses.replace(p1, mu=0.5, omega=0.0)
        cfg = IntegratorConfig(t_end=60.0, dt=1e-2, sampling_stride=stride)
        tr = integrate(SeirState(700.0, 200.0, 100.0, 0.0), p, law, cfg)
        chk = check_identity_suite(tr, p)
        assert chk.passed, (chk.worst, chk.tolerance)

    def test_corrupted_strided_sample_fails(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2, sampling_stride=5)
        tr = integrate(mixed_state, p1, ZeroVax(), cfg)
        assert check_identity_suite(tr, p1).passed
        bad_I = tr.I.copy()
        bad_I[60] += 0.5
        chk = check_identity_suite(with_columns(tr, I=bad_I), p1)
        assert not chk.passed

    def test_ignores_the_step_size(self, p1, mixed_state):
        # Only the samples are judged: a run is judged alike whatever step
        # its config names (a CSV replayed by `verify` carries none).
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2, sampling_stride=5)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        off_grid = dataclasses.replace(tr.config, dt=0.02)
        chk = check_identity_suite(dataclasses.replace(tr, config=off_grid), p1)
        assert chk == check_identity_suite(tr, p1) and chk.passed

    def test_saturated_kinks_are_skipped(self, p1, mixed_state):
        # V starts clipped at 1, falls through the interior to the clip at
        # 0 and climbs back to 1: four switches, at each of which the
        # solution is only C^1. The two windows around each are skipped.
        law = Saturated(SusceptibleLinear(0.05), 0.0, 1.0)
        tr = integrate(mixed_state, p1, law, IntegratorConfig(t_end=100.0, dt=0.01))
        clip = (tr.V > 0.0).astype(int) + (tr.V >= 1.0)
        switches = int(np.count_nonzero(np.diff(clip)))
        assert switches == 4
        chk = check_identity_suite(tr, p1)
        assert chk.passed, (chk.worst, chk.tolerance)
        assert chk.details["kink windows skipped"] == 2 * switches
        # Judged as if unclipped, the O(h) kink residual exceeds the O(h^2)
        # tolerance.
        assert not check_identity_suite(
            dataclasses.replace(tr, law=law.inner), p1).passed

    @pytest.mark.parametrize("law", [
        ImmuneFeedback(0.0, 0.03), SusceptibleLinear(0.1),
        SusceptiblePlusExposed(0.005), ConstrainedImmuneFeedback(-0.1),
    ], ids=lambda law: law.label)
    def test_no_kink_skip_without_saturation(self, p1, mixed_state, law):
        p = dataclasses.replace(p1, mu=0.5, omega=0.0)
        tr = integrate(mixed_state, p, law, IntegratorConfig(t_end=20.0, dt=0.05))
        assert check_identity_suite(tr, p).details["kink windows skipped"] == 0

    def test_refuses_params_other_than_the_record(self, p1, mixed_state):
        # u came from the record and the right-hand sides and tolerance
        # from the argument: a correct P1 run judged under mu = 0.0101
        # read FAIL, worst 0.222 against tol 0.00679.
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03),
                       IntegratorConfig(t_end=100.0, dt=1e-2))
        with pytest.raises(ValueError, match="^identity suite judges a run "
                           "under its own params: ") as info:
            check_identity_suite(tr, dataclasses.replace(p1, mu=0.0101))
        assert "\n" not in str(info.value)
        # an equal params object is the record's own
        assert check_identity_suite(tr, dataclasses.replace(p1)) == (
            check_identity_suite(tr, p1))

    def test_refuses_non_uniform_sampling(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2)
        tr = integrate(mixed_state, p1, ZeroVax(), cfg)
        t = tr.t.copy()
        t[5] += 1e-3
        with pytest.raises(ValueError, match="uniform"):
            check_identity_suite(with_columns(tr, t=t), p1)

    def test_refusal_names_a_stride_that_does_not_divide_the_steps(
            self, p1, mixed_state):
        # 40000 steps at stride 3: the record ends with the step at t_end,
        # one step after the last stride-th one.
        cfg = IntegratorConfig(t_end=400.0, dt=0.01, sampling_stride=3)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        with pytest.raises(ValueError) as info:
            check_identity_suite(tr, p1)
        assert str(info.value) == (
            "identity suite requires uniform sampling: sampling_stride 3 does "
            "not divide the 40000 steps, so the last interval spans 1 of the "
            "stride's 3 steps (0.01 against 0.03)")

    @pytest.mark.parametrize("dense", [False, True], ids=["adaptive", "dense"])
    def test_refuses_an_adaptive_record(self, p1, mixed_state, dense):
        # The tolerance bounds central-difference truncation, not the
        # adaptive pair's error: a dense record, uniformly sampled on the
        # grid a fixed-step run would take, is refused all the same.
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2, adaptive=True, dense=dense)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        with pytest.raises(ValueError, match="identity suite requires a "
                                             "fixed-step run"):
            check_identity_suite(tr, p1)

    def test_refuses_short_trajectories(self, p1, thm3_run):
        short = Trajectory.from_columns(
            thm3_run.params, thm3_run.law, thm3_run.config, t=thm3_run.t[:2],
            S=thm3_run.S[:2], E=thm3_run.E[:2], I=thm3_run.I[:2],
            R=thm3_run.R[:2], V=thm3_run.V[:2])
        with pytest.raises(ValueError, match="3 samples"):
            check_identity_suite(short, p1)

    def test_refuses_when_every_window_straddles_a_clip_switch(self, p1,
                                                               thm3_run):
        # V alternates between the lower clip and the interior, so every
        # three-sample window holds a switch and none is left to judge.
        n = 6
        tr = Trajectory.from_columns(
            thm3_run.params, Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0),
            thm3_run.config, t=thm3_run.t[:n], S=thm3_run.S[:n],
            E=thm3_run.E[:n], I=thm3_run.I[:n], R=thm3_run.R[:n],
            V=np.tile([0.0, 0.5], n // 2))
        with pytest.raises(ValueError, match="every window straddles a clip switch"):
            check_identity_suite(tr, p1)

    def test_balance_forms_agree_pointwise(self, p1, mixed_state):
        # mu(I+R) + u equals -mu(S+E) + mu*N + u to a few ulps under
        # conservation (the two printed forms of the same balance).
        cfg = IntegratorConfig(t_end=10.0, dt=1e-2)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        lhs = p1.mu * (tr.I + tr.R) + tr.u
        rhs = -p1.mu * (tr.S + tr.E) + p1.mu * p1.N + tr.u
        # 4 ulps at the scale of the largest intermediate (~ mu*2N)
        assert np.max(np.abs(lhs - rhs)) <= 4.0 * np.spacing(2.0 * p1.mu * p1.N)


def _all_at_once_identity_suite(traj, params) -> tuple:
    """(worst, location_t, tolerance, details) of the identity suite as it
    was computed before it streamed: every residual formed first, in one
    dict, then reduced in the dict's order."""
    t = traj.t
    h = float(np.diff(t)[0])
    p = params
    mu, om, si, ga, N, bp = p.mu, p.omega, p.sigma, p.gamma, p.N, p.beta_prime
    muN = mu * N
    S, E, I, R, V = traj.S, traj.E, traj.I, traj.R, traj.V

    def cdiff(x):
        return (x[2:] - x[:-2]) / (2.0 * h)

    Sm, Em, Im, Rm, Vm = S[1:-1], E[1:-1], I[1:-1], R[1:-1], V[1:-1]
    um = traj.u[1:-1]
    d_ei, d_se, d_ir = cdiff(E + I), cdiff(S + E), cdiff(I + R)
    d_sr, d_sei, d_r = cdiff(S + R), cdiff(S + E + I), cdiff(R)
    residuals = {
        "(20) d(E+I)": d_ei - (-mu * (Em + Im) + (bp * Sm - ga) * Im),
        "(21.a) d(S+E)": d_se - (-mu * (Sm + Em) + muN + um),
        "(21.b) d(S+E)": d_se - (mu * (Im + Rm) + um),
        "(22) d(I+R)": d_ir - (-mu * (Im + Rm) - um),
        "(23.a) d(S+R)": d_sr - (-mu * (Sm + Rm) + (ga - bp * Sm) * Im + muN),
        "(23.b) d(S+R)": d_sr - (mu * (Em + Im) + (ga - bp * Sm) * Im),
        "(23.c) d(S+R)": d_sr - (mu * Em + (mu + ga - bp * Sm) * Im),
        "(24.a) d(S+E+I)": d_sei - (-mu * (Sm + Em + Im) + om * Rm - ga * Im
                                    + muN * (1.0 - Vm)),
        "(24.b) d(S+E+I)": d_sei - (mu * Rm + si * Em - ga * Im + um),
        "(25.a) dR": d_r - (-(mu + om) * Rm + ga * Im + muN * Vm),
        "(25.b) dR": d_r - (-mu * Rm - si * Em + ga * Im - um),
        "(25.c) dR": d_r - (-d_sei),
    }
    skipped = np.zeros(0, dtype=np.intp)
    if isinstance(traj.law, Saturated):
        clip = (V > traj.law.lo).astype(np.int8) + (V >= traj.law.hi)
        skipped = np.flatnonzero((clip[:-2] != clip[1:-1])
                                 | (clip[1:-1] != clip[2:]))
    worst, worst_t = -1.0, None
    details = {"kink windows skipped": int(skipped.size)}
    for name, res in residuals.items():
        mag = np.abs(res)
        mag[skipped] = np.minimum(mag[skipped], -1.0)
        k = int(np.argmax(mag))
        details[name] = float(mag[k])
        if mag[k] > worst or math.isnan(mag[k]):
            worst, worst_t = float(mag[k]), float(t[1 + k])
    r = (p.mu + p.omega + p.sigma + p.gamma + p.beta
         + sum(abs(v) for v in traj.law.gains.values()))
    return worst, worst_t, 1e-3 * p.N * (3.0 * r) ** 3 * h * h, details


def _hex(x) -> str:
    return float(x).hex()


def _streaming_draw(seed: int):
    """A seeded draw of a catalogue law on a random plant, saturated to
    [0, 1] for odd seeds, integrated over 30 days at dt = 0.01."""
    rng = np.random.default_rng([27, seed])
    p = ModelParams(N=1000.0, mu=float(rng.uniform(0.005, 0.05)),
                    omega=float(rng.uniform(0.0, 0.05)),
                    beta=float(rng.uniform(0.1, 1.2)),
                    sigma=float(rng.uniform(0.05, 0.4)),
                    gamma=float(rng.uniform(0.05, 0.4)))
    law = (ImmuneFeedback(float(rng.uniform(-0.02, 0.3)), float(rng.uniform(0.0, 0.3))),
           SusceptibleLinear(float(rng.uniform(0.0, 0.5))),
           SusceptiblePlusExposed(float(rng.uniform(0.0, 0.5))),
           ZeroVax())[seed // 2 % 4]
    if seed % 2:
        law = Saturated(law, 0.0, 1.0)
    state = SeirState(*map(float, rng.dirichlet((1.0, 1.0, 1.0, 1.0)) * p.N))
    return integrate(state, p, law, IntegratorConfig(t_end=30.0, dt=1e-2)), p


class TestIdentitySuiteStreams:
    """The suite folds each residual into its worst value as it is formed;
    its result is that of forming them all first, bit for bit."""

    @staticmethod
    def _assert_same(traj, params) -> None:
        chk = check_identity_suite(traj, params)
        worst, worst_t, tol, details = _all_at_once_identity_suite(traj, params)
        assert (_hex(chk.worst), _hex(chk.location_t), _hex(chk.tolerance)) == (
            _hex(worst), _hex(worst_t), _hex(tol))
        assert list(chk.details) == list(details)
        assert [_hex(v) for v in chk.details.values()] == [
            _hex(v) for v in details.values()]

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_draws(self, seed):
        tr, p = _streaming_draw(seed)
        assert isinstance(tr.law, Saturated) == bool(seed % 2)
        self._assert_same(tr, p)

    @pytest.mark.parametrize("column", ["I", "V"])
    def test_nan_sample(self, column):
        for seed in (0, 1):
            tr, p = _streaming_draw(seed)
            col = getattr(tr, column).copy()
            col[len(tr) // 3] = np.nan
            bad = with_columns(tr, **{column: col})
            self._assert_same(bad, p)
            assert np.isnan(check_identity_suite(bad, p).worst)

    def test_maxima_tied_across_residuals(self):
        # The state is zero and V is zero but for one interior sample: the
        # residuals are 0 or mu*N = 256 exactly, and the residuals that
        # reach 256 reach it at the first interior sample or at that one.
        # The first residual to reach the worst value keeps its location.
        p = ModelParams(N=1024.0, mu=0.25, omega=0.0, beta=0.5, sigma=0.25,
                        gamma=0.25)
        n = 9
        t = np.arange(n, dtype=np.float64)
        zero = np.zeros(n)
        V = np.zeros(n)
        V[5] = 1.0
        tr = Trajectory.from_columns(p, ZeroVax(), IntegratorConfig(t_end=8.0),
                                     t=t, S=zero, E=zero, I=zero, R=zero, V=V)
        self._assert_same(tr, p)
        chk = check_identity_suite(tr, p)
        tied = [name for name, v in chk.details.items() if v == 256.0]
        assert len(tied) >= 4 and chk.worst == 256.0
        assert chk.location_t == 1.0 and tied[0] == "(21.a) d(S+E)"

    def test_memory_is_bounded(self, p1, mixed_state):
        # 10 001 samples: one float64 residual is 80 KB, and the twelve
        # residuals formed at once took about 1.7 MB.
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03),
                       IntegratorConfig(t_end=100.0, dt=1e-2))
        assert len(tr) == 10_001
        check_identity_suite(tr, p1)   # first calls allocate once per process
        tracemalloc.start()
        try:
            check_identity_suite(tr, p1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 800_000


class TestAsymptotics:
    def test_theorem3_full_immunization(self, thm3_run, p1):
        pred = predicted_limits(ImmuneFeedback(0.0, 0.03), p1)
        chk = check_asymptotics(thm3_run, pred, rel_tol=1e-3)
        assert chk.passed
        mean_r = chk.details["r_inf"][0]
        assert abs(mean_r - p1.N) <= 1e-3 * p1.N

    def test_theorem2ii_partition(self, p1, mixed_state):
        g = 0.005
        cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=100)
        tr = integrate(mixed_state, p1, SusceptiblePlusExposed(g), cfg)
        pred = predicted_limits(SusceptiblePlusExposed(g), p1)
        chk = check_asymptotics(tr, pred, rel_tol=1e-3)
        assert chk.passed
        assert chk.details["s_plus_e_inf"][1] == pytest.approx(1000.0 / 1.5)

    def test_theorem2i_vaccination_limit(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=100)
        tr = integrate(mixed_state, p1, SusceptibleLinear(0.1), cfg)
        pred = predicted_limits(SusceptibleLinear(0.1), p1)
        chk = check_asymptotics(tr, pred, rel_tol=1e-2)
        assert chk.passed
        mean_v = chk.details["v_inf"][0]
        assert abs(mean_v - 3.0) <= 1e-2

    def test_full_immunization_at_rounded_edge(self, p1, mixed_state):
        # g1 = mu+omega+g exactly, though the float sum is 0.00999...98.
        law = ImmuneFeedback(-p1.omega, 0.01)
        pred = predicted_limits(law, p1)
        assert (pred.r_inf, pred.s_inf, pred.decay_rate) == (p1.N, 0.0, 0.01)
        cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=100)
        tr = integrate(mixed_state, p1, law, cfg)
        assert check_asymptotics(tr, pred, rel_tol=1e-3).passed

    def test_refuses_short_horizon(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=50.0, dt=1e-2, sampling_stride=10)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        pred = predicted_limits(ImmuneFeedback(0.0, 0.03), p1)
        with pytest.raises(HorizonError) as err:
            check_asymptotics(tr, pred)
        assert err.value.required_t_end == pytest.approx(10.0 / 0.03)

    @pytest.mark.parametrize("prediction, message", [
        (AsymptoticPrediction(r_inf=1000.0), "no positive decay rate"),
        (AsymptoticPrediction(decay_rate=0.03), "no checkable limits"),
    ], ids=["no decay rate", "no limit"])
    def test_refuses_an_uncheckable_prediction(self, thm3_run, prediction,
                                               message):
        with pytest.raises(ValueError, match=message):
            check_asymptotics(thm3_run, prediction)


class TestDecayRate:
    def test_theorem2i_susceptible_rate(self, p1):
        cfg = IntegratorConfig(t_end=50.0, dt=1e-3, sampling_stride=100)
        tr = integrate(SeirState(500.0, 200.0, 100.0, 200.0), p1,
                       SusceptibleLinear(0.1), cfg)
        rate, r_squared = log_linear_rate(tr.t, tr.S)
        assert rate == pytest.approx(0.11, rel=0.01)
        assert r_squared > 0.9999

    def test_theorem3_immunity_gap_rate(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=300.0, dt=1e-2, sampling_stride=10)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        rate, _ = log_linear_rate(tr.t, p1.N - tr.R)
        assert rate == pytest.approx(0.03, rel=0.01)


class TestIntegralLimit:
    def test_theorem3_limit_value(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=2000.0, dt=1e-2, sampling_stride=10)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        chk = check_integral_limit(tr, rel_tol=0.01)
        assert chk.passed
        assert chk.details["limit"] == pytest.approx(2000.0, rel=1e-12)
        assert chk.details["integral"] == pytest.approx(2000.0, rel=0.01)

    def test_zero_weight_degenerate(self, p1, mixed_state):
        # g = -omega makes the integrand vanish identically; g1 sits on
        # the edge mu+omega+g, which rounds to just under 0.01.
        g = -p1.omega
        law = ImmuneFeedback(g, 0.01)
        cfg = IntegratorConfig(t_end=1001.0, dt=1e-2, sampling_stride=100)
        tr = integrate(mixed_state, p1, law, cfg)
        chk = check_integral_limit(tr)
        assert chk.passed
        assert chk.details["limit"] == 0.0
        assert chk.details["integral"] == 0.0

    def test_limit_scales_with_population(self, p1):
        pred1 = predicted_limits(ImmuneFeedback(0.0, 0.03), p1)
        p2 = dataclasses.replace(p1, N=2000.0)
        pred2 = predicted_limits(ImmuneFeedback(0.0, 0.03), p2)
        assert pred2.integral_limit == pytest.approx(2.0 * pred1.integral_limit)

    def test_refuses_short_horizon(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=10)
        tr = integrate(mixed_state, p1, ImmuneFeedback(0.0, 0.03), cfg)
        with pytest.raises(HorizonError):
            check_integral_limit(tr)

    def test_refuses_law_outside_immune_family(self, p1, mixed_state):
        cfg = IntegratorConfig(t_end=1.0, dt=1e-2)
        for law in (SusceptibleLinear(0.1),
                    Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0)):
            tr = integrate(mixed_state, p1, law, cfg)
            with pytest.raises(ValueError, match="immune-feedback family"):
                check_integral_limit(tr)


# -- refused options: the scenario loader's rules, raised by the checks ----

# (check, options) that the scenario loader refuses
REFUSED_OPTIONS = [
    *[("asymptotics", {"rel_tol": v}) for v in (math.nan, math.inf, 0.0, -1.0)],
    *[("integral_limit", {"rel_tol": v}) for v in (math.nan, -math.inf, 0.0, -1.0)],
    *[("asymptotics", {"tail_fraction": v}) for v in (0.0, 1.0, math.nan)],
    ("positivity", {"v_lo": math.nan}),
    ("positivity", {"v_hi": math.nan}),
    ("positivity", {"v_lo": 2.0, "v_hi": 1.0}),
    ("positivity", {"v_lo": 2.0}),
    ("positivity", {"v_hi": -1.0}),
    ("positivity", {"bounds": "corollary1", "alpha": math.nan}),
    ("positivity", {"bounds": "corollary1", "alpha": math.inf}),
    # combinations that leave an option unread
    ("positivity", {"bounds": "corollary1", "v_lo": 0.5}),
    ("positivity", {"bounds": "corollary1", "v_hi": 2.0}),
    ("positivity", {"alpha": 0.5}),
]

_SCENARIO = """\
[params]
N = 1000
mu = 0.01
omega = 0.02
beta = 0.9
sigma = 0.2
gamma = 0.2

[initial]
S = 700
E = 200
I = 100
R = 0

[law]
name = immune_feedback
g = 0.0
g1 = 0.03

[integrator]
t_end = 1

[checks]
{check} = on

[checks.{check}]
{options}
"""


@pytest.fixture(scope="module")
def short_run():
    p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                    sigma=0.2, gamma=0.2)
    return integrate(SeirState(700.0, 100.0, 50.0, 150.0), p,
                     ImmuneFeedback(0.0, 0.03), IntegratorConfig(t_end=1.0))


def _library_call(check, traj, **opts):
    if check == "positivity":
        return monitor_positivity(traj, **opts)
    if check == "asymptotics":
        return check_asymptotics(
            traj, predicted_limits(ImmuneFeedback(0.0, 0.03), traj.params), **opts)
    return check_integral_limit(traj, **opts)


@pytest.mark.parametrize("check, opts", REFUSED_OPTIONS,
                         ids=[f"{c}: " + ", ".join(f"{k} = {v}" for k, v in o.items())
                              for c, o in REFUSED_OPTIONS])
def test_checks_refuse_the_options_the_loader_refuses(short_run, tmp_path,
                                                      check, opts):
    # The library check raises the loader's one-line message, less the
    # section it names, before it reads the run.
    path = tmp_path / "s.ini"
    path.write_text(_SCENARIO.format(check=check, options="\n".join(
        f"{key} = {value}" for key, value in opts.items())))
    with pytest.raises(ScenarioError) as loaded:
        load_scenario(path)
    with pytest.raises(ValueError) as called:
        _library_call(check, short_run, **opts)
    message = str(called.value)
    assert type(called.value) is ValueError and "\n" not in message
    assert message == str(loaded.value).replace(f" in [checks.{check}]", "")


class TestTheorem2iAsymptoticsSweep:
    def test_twenty_gain_draws_distinct_rates(self):
        # gamma != sigma parameter set; g drawn in (0, 1] avoiding the
        # distinctness exclusions g = sigma, g = gamma.
        from seirvax import SusceptibleLinear as SL
        p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                        sigma=0.2, gamma=0.25)
        rng = np.random.default_rng(97)
        drawn = 0
        while drawn < 20:
            g = float(rng.uniform(0.01, 1.0))
            if min(abs(g - p.sigma), abs(g - p.gamma)) < 1e-3:
                continue
            drawn += 1
            t_end = max(12.0 / (p.mu + g), 600.0)
            tr = integrate(SeirState(500.0, 200.0, 100.0, 200.0), p, SL(g),
                           IntegratorConfig(t_end=t_end, dt=1e-2,
                                            sampling_stride=20))
            chk = check_asymptotics(tr, predicted_limits(SL(g), p),
                                    rel_tol=1e-3)
            assert chk.passed, (g, chk.details)


# -- one verdict rule: passed iff worst <= tolerance, and a NaN fails -------

@pytest.fixture(scope="module")
def nan_target():
    """A run that passes all five checks, and each check with the columns
    it reads and the first sample it reads them at. The immune-feedback
    prediction has no V limit, and asymptotics reads the last 10% of the
    samples; the identity suite reads V at interior samples only."""
    p = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9,
                    sigma=0.2, gamma=0.2)
    law = ImmuneFeedback(0.0, 0.03)
    tr = integrate(SeirState(700.0, 100.0, 50.0, 150.0), p, law,
                   IntegratorConfig(t_end=1000.0, dt=1e-2, sampling_stride=10))
    pred = predicted_limits(law, p)
    return tr, {
        "conservation": (monitor_conservation, "SEIR", 0),
        "positivity": (lambda tr: monitor_positivity(
            tr, v_lo=-np.inf, v_hi=np.inf), "SEIRV", 0),
        "identity_suite": (lambda tr: check_identity_suite(tr, p), "SEIRV", 1),
        "asymptotics": (lambda tr: check_asymptotics(tr, pred), "SEIR",
                        len(tr) - len(tr) // 10),
        "integral_limit": (check_integral_limit, "R", 0),
    }


def _checks_within(chk) -> list:
    """The check and the sub-checks in its details."""
    return [chk, *(c for c in chk.details.values() if hasattr(c, "passed"))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("check", ["conservation", "positivity",
                                   "identity_suite", "asymptotics",
                                   "integral_limit"])
def test_nan_in_a_read_column_fails(nan_target, check, seed):
    tr, calls = nan_target
    run, columns, first = calls[check]
    clean = run(tr)
    assert clean.passed and clean.name == check
    rng = np.random.default_rng(seed)
    for name in columns:
        col = getattr(tr, name).copy()
        col[int(rng.integers(first, len(tr) - 1))] = np.nan
        chk = run(with_columns(tr, **{name: col}))
        assert not chk.passed and np.isnan(chk.worst), (check, name)
        for c in _checks_within(clean) + _checks_within(chk):
            assert c.passed == (c.worst <= c.tolerance), c


@pytest.mark.parametrize("seed", range(3))
def test_nan_v_between_clip_switches_fails(p1, mixed_state, seed):
    # A NaN V has no clip state, so the windows around it look like clip
    # switches; the NaN residual of its own window still fails the suite.
    law = Saturated(SusceptibleLinear(0.05), 0.0, 1.0)
    tr = integrate(mixed_state, p1, law, IntegratorConfig(t_end=100.0, dt=0.01))
    interior = np.flatnonzero((tr.V > 0.0) & (tr.V < 1.0))
    V = tr.V.copy()
    V[np.random.default_rng(seed).choice(interior[1:-1])] = np.nan
    chk = check_identity_suite(with_columns(tr, V=V), p1)
    assert not chk.passed and np.isnan(chk.worst)
    assert chk.details["kink windows skipped"] > 8
