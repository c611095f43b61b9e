"""Equilibria, linearized spectra and the frequency-sweep stability test."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seirvax import (
    ModelParams,
    SeirState,
    char_zeros_x1,
    derivative,
    disease_free_equilibrium,
    eigenvalues,
    endemic_equilibrium,
    hinf_ratio_sweep,
    jacobian_at,
    a11_feasibility,
    analyze,
)

from conftest import map_params, random_conserved_state


def _params(N=1000.0, mu=0.01, omega=0.02, beta=0.9, sigma=0.2, gamma=None):
    return ModelParams(N=N, mu=mu, omega=omega, beta=beta, sigma=sigma,
                       gamma=sigma if gamma is None else gamma)


def _sweep(p):
    return hinf_ratio_sweep(p, endemic_equilibrium(p))


class TestDiseaseFree:
    def test_point_and_residual(self, p1):
        eq = disease_free_equilibrium(p1)
        assert eq.state == SeirState(1000.0, 0.0, 0.0, 0.0)
        assert eq.residual == 0.0
        assert derivative(eq.state, p1, 0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_residual_scales_with_population(self):
        for N in (10.0, 1000.0, 1e8):
            eq = disease_free_equilibrium(_params(N=N))
            assert eq.residual <= 1e-8 * max(0.01 * N, N)


class TestEndemic:
    def test_p1_closed_form_values(self, p1):
        eq = endemic_equilibrium(p1)
        st = eq.state
        assert st.S == pytest.approx(245.0, rel=1e-12)
        assert st.E == pytest.approx(90.946462, abs=5e-6)
        assert st.I == pytest.approx(86.615679, abs=5e-6)
        assert st.R == pytest.approx(577.437859, abs=5e-6)
        assert st.total == pytest.approx(p1.N, abs=1e-9 * p1.N)
        assert eq.residual <= 1e-8 * p1.mu * p1.N
        assert eq.feasibility_a11 is True

    def test_against_nonlinear_solver(self, p1):
        # Independent route: solve dS=dE=dI=0 plus the population
        # constraint from a crude interior guess.
        fsolve = pytest.importorskip("scipy.optimize").fsolve

        def residual(x):
            st = SeirState(*x)
            d = derivative(st, p1, 0.0)
            return [*d[:3], st.total - p1.N]

        sol = fsolve(residual, [250.0, 100.0, 100.0, 550.0], full_output=False)
        eq = endemic_equilibrium(p1).state
        assert np.allclose(sol, eq.as_tuple(), rtol=1e-9, atol=1e-6)

    def test_no_endemic_below_threshold(self):
        # beta = 0.2 < (mu+sigma)^2/sigma = 0.2205: ratio > 1.
        assert endemic_equilibrium(_params(beta=0.2)) is None

    def test_degenerates_at_threshold(self):
        mu, si = 0.01, 0.2
        beta_star = (mu + si) ** 2 / si
        assert endemic_equilibrium(_params(beta=beta_star)) is None
        eq = endemic_equilibrium(_params(beta=beta_star * (1.0 + 1e-9)))
        assert eq.state.S == pytest.approx(1000.0, rel=1e-8)

    def test_residual_gate_covers_small_mu(self):
        # The residual carries the rounding of the field's terms (beta*S*I/N,
        # sigma*E, ...), which mu*N alone does not bound once mu is small:
        # no draw down to mu = 1e-14 may fail the gate.
        rng = np.random.default_rng(1103)
        found = 0
        for _ in range(1000):
            p = _params(mu=10.0 ** rng.uniform(-14.0, 0.0),
                        omega=rng.uniform(0.0, 1.0),
                        beta=10.0 ** rng.uniform(-3.0, 1.5),
                        sigma=10.0 ** rng.uniform(-3.0, 0.5))
            found += endemic_equilibrium(p) is not None
        assert found >= 300

    def test_requires_sigma_equals_gamma(self):
        with pytest.raises(ValueError, match="sigma == gamma"):
            endemic_equilibrium(_params(gamma=0.25))

    def test_sigma_zero_undefined(self):
        with pytest.raises(ValueError):
            endemic_equilibrium(_params(sigma=0.0))

    def test_mu_zero_special_branch(self):
        p = _params(mu=0.0, beta=0.9, sigma=0.2)
        eq = endemic_equilibrium(p)
        assert eq is not None and eq.kind == "mu_zero_special"
        # closed form: S = sigma*N/beta; E = I; sums to N
        assert eq.state.S == pytest.approx(0.2 * 1000.0 / 0.9, rel=1e-12)
        assert eq.state.E == pytest.approx(eq.state.I, rel=1e-12)
        assert eq.state.total == pytest.approx(1000.0, abs=1e-9 * 1000.0)
        assert eq.residual <= 1e-8 * p.N
        # no special branch when sigma >= beta
        assert endemic_equilibrium(_params(mu=0.0, beta=0.15, sigma=0.2)) is None


class TestJacobian:
    def test_reduces_at_disease_free(self, p1):
        j = jacobian_at(SeirState(1000.0, 0.0, 0.0, 0.0), p1)
        expected = np.array([
            [-0.01, 0.0, -0.9, 0.02],
            [0.0, -0.21, 0.9, 0.0],
            [0.0, 0.2, -0.21, 0.0],
            [0.0, 0.0, 0.2, -0.03],
        ])
        assert np.allclose(j, expected, rtol=0, atol=1e-15)

    def test_column_sums_are_minus_mu(self, p1):
        rng = np.random.default_rng(31)
        for _ in range(50):
            st = SeirState(*map(float, rng.dirichlet((1, 1, 1, 1)) * p1.N))
            j = jacobian_at(st, p1)
            sums = j.sum(axis=0)
            assert np.allclose(sums, -p1.mu, rtol=0,
                               atol=8 * np.spacing(p1.beta))

    def test_matches_finite_differences(self, p1):
        # The vector field is quadratic, so central differences of the
        # V = 0 field reproduce the Jacobian to roundoff: at a P1 state,
        # and at seeded draws with sigma != gamma, where the Jacobian
        # derived from the field's source holds too.
        rng = np.random.default_rng(1104)
        cases = [(SeirState(245.0, 90.946, 86.616, 577.438), p1)]
        for _ in range(50):
            p = _params(mu=float(rng.uniform(0.001, 0.1)),
                        omega=float(rng.uniform(0.0, 0.1)),
                        beta=float(rng.uniform(0.0, 2.0)),
                        sigma=float(rng.uniform(0.05, 0.5)),
                        gamma=float(rng.uniform(0.05, 0.5)))
            cases.append((random_conserved_state(rng, p.N), p))
        eps = 1e-4
        for st, p in cases:
            j = jacobian_at(st, p)
            fd = np.zeros((4, 4))
            for k in range(4):
                up = list(st.as_tuple()); up[k] += eps
                dn = list(st.as_tuple()); dn[k] -= eps
                du = derivative(SeirState(*up), p, 0.0)
                dd = derivative(SeirState(*dn), p, 0.0)
                fd[:, k] = (np.array(du) - np.array(dd)) / (2.0 * eps)
            assert np.max(np.abs(fd - j)) <= 1e-6 * np.max(np.abs(j))

    @staticmethod
    def _hand_written(point, params):
        """The matrix `jacobian_at` returned when it was written by hand,
        before it was derived from the field's source (sigma = gamma only)."""
        mu, om, si = params.mu, params.omega, params.sigma
        bI = params.beta_prime * point.I
        bS = params.beta_prime * point.S
        return np.array([
            [-mu - bI, 0.0, -bS, om],
            [bI, -(mu + si), bS, 0.0],
            [0.0, si, -(mu + si), 0.0],
            [0.0, 0.0, si, -(mu + om)],
        ])

    def test_bitwise_the_hand_written_matrix(self):
        # The disease-free, endemic and a random state at every map point,
        # then seeded sigma = gamma draws over many orders of magnitude.
        rng = np.random.default_rng(1105)
        cases = []
        for p in map_params():
            endemic = endemic_equilibrium(p)
            cases += [(SeirState(p.N, 0.0, 0.0, 0.0), p),
                      (random_conserved_state(rng, p.N), p)]
            if endemic is not None:
                cases.append((endemic.state, p))
        for _ in range(3000):
            sigma = 10.0 ** rng.uniform(-3.0, 0.5)
            p = _params(N=10.0 ** rng.uniform(0.0, 9.0),
                        mu=10.0 ** rng.uniform(-6.0, 0.0),
                        omega=float(rng.uniform(0.0, 1.0)),
                        beta=10.0 ** rng.uniform(-3.0, 1.5), sigma=sigma)
            cases.append((random_conserved_state(rng, p.N), p))
        assert len(cases) == 2 * 648 + 513 + 3000
        for st, p in cases:
            assert (jacobian_at(st, p).tobytes()
                    == self._hand_written(st, p).tobytes()), (st, p)


class TestCharZeros:
    def test_p1_unstable(self, p1):
        cz = char_zeros_x1(p1)
        root = math.sqrt(0.18)
        assert cz.zeros == pytest.approx((-0.01, -0.03, -0.21 + root,
                                          -0.21 - root), rel=1e-12)
        assert not cz.locally_stable  # 0.9 > 0.2205

    def test_low_beta_stable(self):
        cz = char_zeros_x1(_params(beta=0.2))
        assert cz.zeros == pytest.approx((-0.01, -0.03, -0.01, -0.41), rel=1e-12)
        assert cz.locally_stable

    def test_beta_zero_double_root(self):
        cz = char_zeros_x1(_params(beta=0.0))
        assert cz.zeros[2] == cz.zeros[3] == pytest.approx(-0.21)

    def test_matches_numeric_spectrum(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = _params(mu=float(rng.uniform(0.001, 0.5)),
                        omega=float(rng.uniform(0.0, 0.5)),
                        beta=float(rng.uniform(0.0, 1.5)),
                        sigma=float(rng.uniform(0.01, 0.5)))
            j = jacobian_at(SeirState(p.N, 0.0, 0.0, 0.0), p)
            spec = np.sort_complex(eigenvalues(j))
            closed = np.sort_complex(np.array(char_zeros_x1(p).zeros,
                                              dtype=complex))
            assert np.max(np.abs(spec - closed)) < 1e-9

    def test_matches_numeric_spectrum_for_any_sigma_and_gamma(self):
        # sigma != gamma, and sigma = 0: the (E, I) modes are -(mu+sigma)
        # and -(mu+gamma), not -(mu+sigma) +/- sqrt(sigma*beta).
        rng = np.random.default_rng(53)
        for k in range(40):
            p = _params(mu=float(rng.uniform(0.001, 0.5)),
                        omega=float(rng.uniform(0.0, 0.5)),
                        beta=float(rng.uniform(0.0, 1.5)),
                        sigma=0.0 if k % 4 == 0 else float(rng.uniform(0.01, 0.5)),
                        gamma=float(rng.uniform(0.01, 0.5)))
            assert p.sigma != p.gamma
            spec = np.sort_complex(eigenvalues(
                jacobian_at(SeirState(p.N, 0.0, 0.0, 0.0), p)))
            cz = char_zeros_x1(p)
            closed = np.sort_complex(np.array(cz.zeros, dtype=complex))
            assert np.max(np.abs(spec - closed)) < 1e-12, p
            assert cz.locally_stable == bool(np.all(spec.real < 0.0)), p


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([3.0, -1.0, 2.0, 0.5]))
        assert np.allclose(vals, [3.0, 2.0, 0.5, -1.0])

    def test_permutation_similarity(self, p1):
        j = jacobian_at(SeirState(245.0, 90.9, 86.6, 577.5), p1)
        perm = np.eye(4)[[2, 0, 3, 1]]
        sim = perm.T @ j @ perm
        a = np.sort_complex(eigenvalues(j))
        b = np.sort_complex(eigenvalues(sim))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @staticmethod
    def _assert_same_spectrum(got, want):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [4, 6])
    def test_stack_rows_are_lone_calls(self, n):
        # General matrices (mostly complex spectra), symmetric ones and
        # triangular ones (real spectra) shuffled into one stack: every row
        # is bitwise the lone call's spectrum, float64 where that one is.
        rng = np.random.default_rng(1103 + n)
        general = rng.normal(size=(8, n, n))
        symmetric = general + general.transpose(0, 2, 1)
        triangular = np.triu(rng.normal(size=(8, n, n)))
        stack = rng.permutation(np.concatenate((general, symmetric, triangular)))
        rows = eigenvalues(stack)
        assert len(rows) == len(stack)
        assert {row.dtype for row in rows} == {np.dtype(float), np.dtype(complex)}
        for matrix, row in zip(stack, rows):
            self._assert_same_spectrum(row, eigenvalues(matrix))
        # Leading axes beyond one are flattened in C order.
        nested = eigenvalues(stack.reshape(4, 6, n, n))
        for row, want in zip(nested, rows):
            self._assert_same_spectrum(row, want)

    def test_stacked_double_root_stays_float(self):
        # beta = 0: a real double root at -(mu+sigma), stacked with the P1
        # endemic Jacobian, whose spectrum is complex.
        p = _params(beta=0.0)
        j1 = jacobian_at(SeirState(p.N, 0.0, 0.0, 0.0), p)
        p1 = _params()
        j2 = jacobian_at(endemic_equilibrium(p1).state, p1)
        spec1, spec2 = eigenvalues((j1, j2))
        self._assert_same_spectrum(spec1, eigenvalues(j1))
        self._assert_same_spectrum(spec2, eigenvalues(j2))
        assert spec1.dtype == np.dtype(float) and spec1[2] == spec1[3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stack_rejects_non_finite_anywhere(self, bad):
        rng = np.random.default_rng(17)
        for shape in ((3, 4, 4), (5, 6, 6)):
            stack = rng.normal(size=shape)
            for index in (0, stack.size // 2, stack.size - 1):
                spoiled = stack.copy()
                spoiled.flat[index] = bad
                with pytest.raises(ValueError, match="non-finite entries"):
                    eigenvalues(spoiled)


class TestSweep:
    def test_example_parameter_set(self):
        # beta = 0.25 with the P1 rates: the endemic point exists and the
        # peak stays under 1/beta = 4.
        p = _params(beta=0.25)
        res = _sweep(p)
        assert res.threshold == pytest.approx(4.0)
        assert res.condition_holds
        assert 0.0 < res.max_ratio < 4.0

    def test_condition_implies_stable_spectrum(self):
        p = _params(beta=0.25)
        eq = endemic_equilibrium(p)
        res = hinf_ratio_sweep(p, eq)
        spec = eigenvalues(jacobian_at(eq.state, p))
        assert res.condition_holds
        assert np.all(spec.real < 0.0)

    def test_ratio_limits_at_grid_ends(self):
        from seirvax.equilibria import _ratio, _sweep_polynomials
        p = _params(beta=0.25)
        eq = endemic_equilibrium(p)
        p0, pt = _sweep_polynomials(p, eq)
        # high frequencies decay (degree gap one); low ones flatten to DC
        assert _ratio(p0, pt, 1e6) < 1e-5
        dc = abs(np.polyval(pt, 0.0) / np.polyval(p0, 0.0))
        assert _ratio(p0, pt, 0.0) == dc
        assert _ratio(p0, pt, 1e-6) == pytest.approx(dc, rel=1e-6)

    def test_charpoly_split_identity(self):
        # The endemic characteristic polynomial equals p0 + beta*ptilde.
        from seirvax.equilibria import _sweep_polynomials
        p = _params(beta=0.25)
        eq = endemic_equilibrium(p)
        j = jacobian_at(eq.state, p)
        cp = np.poly(j)
        p0, pt = _sweep_polynomials(p, eq)
        combo = np.polyadd(p0, p.beta * np.asarray(pt))
        assert np.max(np.abs(cp - combo)) < 1e-12

    def test_refusals(self):
        with pytest.raises(ValueError, match="imaginary axis"):
            _sweep(_params(mu=0.0))
        with pytest.raises(ValueError, match="no endemic"):
            _sweep(_params(beta=0.2))
        # p0(0) = mu^2 (mu+sigma)^2 underflows to zero at omega = 0
        with pytest.raises(ValueError, match="orders of magnitude"):
            _sweep(_params(mu=1e-170, omega=0.0))

    def test_peak_below_every_fixed_grid(self):
        # mu = 1e-12, omega = 0: p0 has a double root at -mu, the ratio
        # falls from its DC value sigma/(mu+sigma)^2 - 2/beta = 2.78 near
        # w = mu, and a grid starting at w = 1e-6 read 1.11 < 1/beta.
        p = _params(mu=1e-12, omega=0.0)
        res = _sweep(p)
        assert res.argmax_freq == 0.0 and not res.condition_holds
        dc = 0.2 / (1e-12 + 0.2) ** 2 - 2.0 / 0.9
        assert res.max_ratio == pytest.approx(dc, rel=1e-9)

    def test_peak_is_attained_and_not_below_a_dense_grid(self):
        # 2000 endemic draws over wide rates, beta log-uniform in
        # (beta*, 100 beta*]. The peak must be the evaluator's value at
        # argmax_freq, bit for bit, and no grid point of 1e5 on [1e-9, 1e9]
        # (nor w = 0) may beat it by more than 1e-12 relative. The grid
        # ratio is squared: ptilde's real and imaginary parts squared over
        # the factored |p0(iw)|^2, not the evaluator's Horner.
        from seirvax.equilibria import _ratio, _sweep_polynomials
        x = np.logspace(-18.0, 18.0, 100_000)      # w^2, w in [1e-9, 1e9]
        rng = np.random.default_rng(20118)
        plateau = interior = 0
        while plateau + interior < 2000:
            mu = float(rng.uniform(1e-4, 0.5))
            om = float(rng.uniform(0.0, 1.0))
            si = float(rng.uniform(1e-3, 2.0))
            beta = (mu + si) ** 2 / si * math.exp(rng.uniform(0.0, math.log(100.0)))
            p = _params(mu=mu, omega=om, sigma=si, beta=beta)
            eq = endemic_equilibrium(p)
            if eq is None:
                continue
            res = hinf_ratio_sweep(p, eq)
            p0, pt = _sweep_polynomials(p, eq)
            assert res.max_ratio == _ratio(p0, pt, res.argmax_freq), p
            c3, c2, c1, c0 = pt
            num = (c0 - c2 * x) ** 2 + x * (c1 - c3 * x) ** 2
            den = ((x + mu * mu) * (x + (mu + si) ** 2) ** 2
                   * (x + (mu + om) ** 2))
            best = max(math.sqrt(float(np.max(num / den))), abs(c0 / p0[-1]))
            assert res.max_ratio >= (1.0 - 1e-12) * best, p
            if res.argmax_freq == 0.0:
                plateau += 1
            else:
                interior += 1
        assert plateau >= 100 and interior >= 100, (plateau, interior)


class TestAnalyze:
    def test_p1_reports(self, p1):
        reports = analyze(p1)
        assert len(reports) == 2
        x1, x2 = reports
        assert x1.point.kind == "disease_free" and not x1.locally_stable
        assert x2.point.kind == "endemic" and x2.locally_stable
        assert x2.hinf_ratio is not None

    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.25, 0.9])
    @pytest.mark.parametrize("mu", [0.0, 0.01])
    def test_spectra_match_lone_calls(self, mu, beta):
        # analyze stacks the two Jacobians in one call; each report's
        # spectrum, dtype included, is the lone call's, and its verdict is
        # the sign of every real part.
        for rep in analyze(_params(mu=mu, beta=beta)):
            want = eigenvalues(rep.jacobian)
            assert rep.spectrum.dtype == want.dtype
            assert rep.spectrum.tobytes() == want.tobytes()
            assert rep.locally_stable == bool(np.all(want.real < 0.0))

    def test_feasibility_expression(self, p1):
        value, holds = a11_feasibility(p1)
        ms2 = 0.21 ** 2
        expected = (0.18 - ms2) / (0.9 * (ms2 + 0.02 * 0.41)) * max(
            0.2, 1.05 * 0.03)
        assert value == pytest.approx(expected, rel=1e-12)
        assert holds == (value <= 1.0)


class TestStabilityConsistency:
    def test_stable_verdict_matches_simulation(self):
        # char zeros stable (beta below threshold): a small exposed
        # perturbation of the disease-free point decays back by t = 20/mu.
        from seirvax import IntegratorConfig, ZeroVax, integrate
        p = _params(beta=0.2)
        assert char_zeros_x1(p).locally_stable
        x1 = np.array([p.N, 0.0, 0.0, 0.0])
        start = SeirState(p.N - 1e-3 * p.N, 1e-3 * p.N, 0.0, 0.0)
        tr = integrate(start, p, ZeroVax(),
                       IntegratorConfig(t_end=20.0 / p.mu, dt=1e-2,
                                        sampling_stride=1000))
        final = tr.states()[-1]
        assert np.max(np.abs(final - x1)) < 1e-4 * p.N
