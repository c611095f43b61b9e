"""Equilibria, linearized spectra and the frequency-sweep stability test."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    ImmuneFeedback,
    Linearizing,
    ModelParams,
    OutputZeroing,
    PredictionError,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    char_zeros_x1,
    derivative,
    disease_free_equilibrium,
    eigenvalues,
    endemic_equilibrium,
    hinf_ratio_sweep,
    analyze,
    corollary1_upper_bound,
    predicted_limits,
)

from conftest import map_params, plant_jacobian, random_conserved_state


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

    def test_overflowed_closed_form_refused(self):
        # sigma*beta and the denominator overflow to inf, so E = inf/inf is
        # NaN: refused in the closed form's name before the residual reads
        # the state.
        p = _params(N=7.66322363098858e+254, mu=2.096559642383887e-230,
                    omega=2.4414366788173833e-248, beta=5.5311494056769e+285,
                    sigma=2.473047509309742e+41)
        with pytest.raises(ValueError, match="endemic closed form overflows "
                                             "double precision") as info:
            endemic_equilibrium(p)
        assert "\n" not in str(info.value)

    def test_non_finite_feasibility_refused(self):
        # A finite endemic point whose feasibility expression is NaN, which
        # would read as feasibility_a11 = False, "violated".
        p = _params(N=5.717158632157619e+90, mu=3.9979842973327507e-153,
                    omega=2.295043506579407e+251, beta=6.7546617839112e+31,
                    sigma=1.6651415187685387e-257)
        with pytest.raises(ValueError, match="feasibility expression overflows "
                                             "double precision"):
            endemic_equilibrium(p)


class TestJacobian:
    def test_reduces_at_disease_free(self, p1):
        j = plant_jacobian(SeirState(1000.0, 0.0, 0.0, 0.0), p1)
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
            j = plant_jacobian(st, p1)
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
            j = plant_jacobian(st, p)
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
        """The plant's Jacobian as it was written by hand, before it was
        derived from the field's source (sigma = gamma only)."""
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
            assert (plant_jacobian(st, p).tobytes()
                    == self._hand_written(st, p).tobytes()), (st, p)


class TestCharZeros:
    def test_p1_unstable(self, p1):
        zeros = char_zeros_x1(p1)
        root = math.sqrt(0.18)
        assert zeros == pytest.approx((-0.01, -0.03, -0.21 + root,
                                       -0.21 - root), rel=1e-12)
        assert not all(z < 0.0 for z in zeros)  # 0.9 > 0.2205

    def test_low_beta_stable(self):
        zeros = char_zeros_x1(_params(beta=0.2))
        assert zeros == pytest.approx((-0.01, -0.03, -0.01, -0.41), rel=1e-12)
        assert all(z < 0.0 for z in zeros)

    def test_beta_zero_double_root(self):
        zeros = char_zeros_x1(_params(beta=0.0))
        assert zeros[2] == zeros[3] == pytest.approx(-0.21)

    def test_matches_numeric_spectrum(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = _params(mu=float(rng.uniform(0.001, 0.5)),
                        omega=float(rng.uniform(0.0, 0.5)),
                        beta=float(rng.uniform(0.0, 1.5)),
                        sigma=float(rng.uniform(0.01, 0.5)))
            j = plant_jacobian(SeirState(p.N, 0.0, 0.0, 0.0), p)
            spec = np.sort_complex(eigenvalues(j))
            closed = np.sort_complex(np.array(char_zeros_x1(p), dtype=complex))
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
                plant_jacobian(SeirState(p.N, 0.0, 0.0, 0.0), p)))
            zeros = char_zeros_x1(p)
            closed = np.sort_complex(np.array(zeros, dtype=complex))
            assert np.max(np.abs(spec - closed)) < 1e-12, p
            assert all(z < 0.0 for z in zeros) == bool(np.all(spec.real < 0.0)), p


    @pytest.mark.parametrize("sigma, gamma, beta", [
        (1e308, 1e308, 1e200),    # m = mu + (sigma+gamma)/2 overflows
        (1e307, 1e307, 1e200),    # m is finite, d = sqrt(sigma*beta) is not
        (1e308, 1e307, 1e200),    # h*h overflows: the first mode read +inf
        (1e300, 1e-215, 1e100),   # h*h overflows, so d does
    ])
    def test_overflowing_modes_refused(self, sigma, gamma, beta):
        # The modes read (nan, -inf) or +inf with a wrong verdict before
        # they were refused.
        p = _params(sigma=sigma, gamma=gamma, beta=beta)
        for call in (char_zeros_x1, analyze):
            with pytest.raises(ValueError, match="infection modes overflow") as info:
                call(p)
            message = str(info.value)
            assert "\n" not in message
            assert all(f"{name} = {getattr(p, name)!r}" in message
                       for name in ("mu", "sigma", "gamma", "beta"))

    def test_overflowing_modes_refused_as_predictions(self):
        from seirvax import PredictionError, SusceptiblePlusExposed, predicted_limits
        p = _params(sigma=1e308, beta=1e200)
        with pytest.raises(PredictionError, match="infection modes overflow"):
            predicted_limits(SusceptiblePlusExposed(0.0), p)


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([3.0, -1.0, 2.0, 0.5]))
        assert np.allclose(vals, [3.0, 2.0, 0.5, -1.0])

    def test_permutation_similarity(self, p1):
        j = plant_jacobian(SeirState(245.0, 90.9, 86.6, 577.5), p1)
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

    @staticmethod
    def _mixed_stack(n, seed):
        # General matrices (mostly complex spectra), symmetric ones and
        # triangular ones (real spectra) shuffled into one stack.
        rng = np.random.default_rng(seed)
        general = rng.normal(size=(8, n, n))
        symmetric = general + general.transpose(0, 2, 1)
        triangular = np.triu(rng.normal(size=(8, n, n)))
        return rng.permutation(np.concatenate((general, symmetric, triangular)))

    @pytest.mark.parametrize("n", [4, 6])
    def test_stack_rows_are_lone_calls(self, n):
        # Every row is bitwise the lone call's spectrum, float64 where
        # that one is.
        stack = self._mixed_stack(n, 1103 + n)
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
        j1 = plant_jacobian(SeirState(p.N, 0.0, 0.0, 0.0), p)
        p1 = _params()
        j2 = plant_jacobian(endemic_equilibrium(p1).state, p1)
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

    def test_rejects_complex_entries(self):
        # Casting to float would drop the imaginary part and answer for
        # another matrix.
        with pytest.raises(ValueError, match="^eigenvalues: complex entries$"):
            eigenvalues([[1j, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(), (2,), (2, 3), (3, 4, 5), (2, 0, 1)])
    def test_rejects_a_shape_that_is_not_square(self, shape):
        with pytest.raises(ValueError) as refused:
            eigenvalues(np.ones(shape))
        assert type(refused.value) is ValueError
        assert str(refused.value) == f"eigenvalues: shape {shape} is not (..., n, n)"

    def test_empty_stack_gives_empty_spectra(self):
        lone = eigenvalues(np.zeros((0, 0)))
        assert lone.dtype == np.dtype(float) and lone.shape == (0,)
        rows = eigenvalues(np.zeros((3, 0, 0)))
        assert len(rows) == 3
        for row in rows:
            assert row.dtype == np.dtype(float) and row.shape == (0,)
        assert eigenvalues(np.zeros((0, 4, 4))) == []

    @pytest.mark.parametrize("n", [4, 6])
    def test_rows_are_numpys_public_eigvals_sorted(self, n):
        # The direct LAPACK call against np.linalg.eigvals, matrix by
        # matrix: sorted by real part, then imaginary part, both
        # descending, with ties in LAPACK's order, every row bit for bit
        # and dtype included.
        def numpy_spectrum(matrix):
            w = np.linalg.eigvals(matrix)
            return w[np.lexsort((-w.imag, -w.real))]

        stack = self._mixed_stack(n, 2406 + n)
        if n == 4:   # beta = 0: a real double root at -(mu+sigma)
            p = _params(beta=0.0)
            double_root = plant_jacobian(SeirState(p.N, 0.0, 0.0, 0.0), p)
            stack = np.concatenate((stack, double_root[None]))
        for matrix, row in zip(stack, eigenvalues(stack)):
            self._assert_same_spectrum(row, numpy_spectrum(matrix))
            self._assert_same_spectrum(eigenvalues(matrix), row)

    def test_any_real_input_is_its_float64_stack(self):
        # A float64 ndarray goes to LAPACK as it is; any other real input
        # (int, float32, nested lists and tuples, and float64 stacks in
        # Fortran order, transposed or sliced) gives the bits and dtypes of
        # the C-contiguous float64 stack of its values, and its refusals
        # are the float64 stack's.
        rng = np.random.default_rng(3011)
        base = self._mixed_stack(4, 3011)
        wide = rng.normal(size=(24, 8, 8))
        inputs = {
            "int": rng.integers(-9, 10, size=(6, 4, 4)),
            "float32": base.astype(np.float32),
            "nested lists": base.tolist(),
            "nested tuples": tuple(tuple(map(tuple, m)) for m in base),
            "Fortran order": np.asfortranarray(base),
            "transposed": base.transpose(0, 2, 1),
            "sliced": wide[:, ::2, 1::2],
            "one sliced matrix": wide[3, 1::2, ::2],
        }
        for name, matrix in inputs.items():
            c_stack = np.ascontiguousarray(matrix, dtype=float)
            want, got = eigenvalues(c_stack), eigenvalues(matrix)
            if c_stack.ndim == 2:
                want, got = [want], [got]
            assert len(got) == len(want), name
            for row, want_row in zip(got, want):
                self._assert_same_spectrum(row, want_row)
            spoiled = np.array(matrix, dtype=float, order="F")
            spoiled.flat[-1] = np.nan
            for bad in (spoiled, spoiled.tolist(), spoiled.astype(np.float32)):
                with pytest.raises(ValueError, match="^eigenvalues: non-finite entries$"):
                    eigenvalues(bad)
        with pytest.raises(ValueError, match="^eigenvalues: complex entries$"):
            eigenvalues(base.astype(np.complex64))
        with pytest.raises(ValueError, match=r"^eigenvalues: shape \(6, 4, 3\) is not"):
            eigenvalues(inputs["int"][:, :, :3])

    def test_nonconvergence_refused(self, monkeypatch):
        # LAPACK reports nonconvergence through the invalid flag; a stub
        # that raises it stands in for a matrix dgeev cannot reduce.
        import seirvax.equilibria as eq

        def not_converging(m, signature):
            return np.sqrt(np.full(m.shape[:-1], -1.0)).astype(complex)

        monkeypatch.setattr(eq, "_lapack_eigvals", not_converging)
        p = _params()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: eigenvalues(np.eye(4)),
                         lambda: eigenvalues(np.ones((2, 4, 4))),
                         lambda: eigenvalues(np.eye(4, dtype=int).tolist()),
                         lambda: eigenvalues(np.ones((2, 4, 4)).transpose(0, 2, 1)),
                         lambda: _sweep(p),
                         lambda: analyze(p)):
                with pytest.raises(np.linalg.LinAlgError,
                                   match="^Eigenvalues did not converge$"):
                    call()


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
        spec = eigenvalues(plant_jacobian(eq.state, p))
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
        j = plant_jacobian(eq.state, p)
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

    def test_refuses_sigma_not_gamma(self, p1, monkeypatch):
        # The certificate's polynomials assume sigma = gamma: a plant with
        # gamma moved is refused, even with P1's endemic point passed in,
        # by the rule endemic_equilibrium applies, word for word.
        import seirvax.equilibria as eq
        p = dataclasses.replace(p1, gamma=0.35)
        with pytest.raises(ValueError) as want:
            endemic_equilibrium(p)
        point = endemic_equilibrium(p1)
        with pytest.raises(ValueError) as got:
            hinf_ratio_sweep(p, point)
        assert str(got.value) == str(want.value) == (
            "endemic analysis requires sigma == gamma")
        seen = []
        monkeypatch.setattr(eq, "_require_sigma_equals_gamma", seen.append)
        hinf_ratio_sweep(p, point)
        assert seen == [p]

    def test_peak_below_every_fixed_grid(self):
        # mu = 1e-12, omega = 0: p0 has a double root at -mu, the ratio
        # falls from its DC value sigma/(mu+sigma)^2 - 2/beta = 2.78 near
        # w = mu, and a grid starting at w = 1e-6 read 1.11 < 1/beta.
        p = _params(mu=1e-12, omega=0.0)
        res = _sweep(p)
        assert res.argmax_freq == 0.0 and not res.condition_holds
        dc = 0.2 / (1e-12 + 0.2) ** 2 - 2.0 / 0.9
        assert res.max_ratio == pytest.approx(dc, rel=1e-9)

    def test_straight_line_products_match_the_loop(self):
        # The sweep's written-out products against a product loop, with
        # the companion, its eigvals and the Horner loop as they were
        # before: every field bit for bit, and every refusal word for
        # word, over draws spanning many orders of magnitude.
        from seirvax.equilibria import _sweep_polynomials

        def polymul(a, b):
            out = [0.0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def ratio(p0, pt, w):
            s = complex(0.0, w)
            num = den = 0j
            for c in pt:
                num = num * s + c
            for c in p0:
                den = den * s + c
            return abs(num) / abs(den)

        def loop_sweep(p, eq):
            mu, om, si = p.mu, p.omega, p.sigma
            s_frac, i_frac = eq.state.S / p.N, eq.state.I / p.N
            c = mu + si
            cubic = polymul([1.0, 2.0 * c, c * c], [1.0, mu + om])
            p0 = polymul(cubic, [1.0, mu])
            shifted = cubic[:3] + [cubic[3] - om * si ** 2]
            quad = [0.0] + polymul([1.0, mu], [1.0, mu + om])
            pt = [i_frac * u - si * s_frac * v for u, v in zip(shifted, quad)]
            got_p0, got_pt = _sweep_polynomials(p, eq)
            assert np.array(got_p0 + got_pt).tobytes() == np.array(p0 + pt).tobytes()
            c3, c2, c1, c0 = pt
            a = [c0 * c0, c1 * c1 - 2.0 * c0 * c2, c2 * c2 - 2.0 * c1 * c3, c3 * c3]
            ms2 = (mu + si) ** 2
            b = polymul(polymul([mu * mu, 1.0], [(mu + om) ** 2, 1.0]),
                        polymul([ms2, 1.0], [ms2, 1.0]))
            da = [k * v for k, v in enumerate(a)][1:]
            db = [k * v for k, v in enumerate(b)][1:]
            st = [u - v for u, v in zip(polymul(da, b), polymul(a, db))]
            if p0[-1] == 0.0 or st[6] == 0.0:
                raise ValueError("sweep refused: the rates span too many orders "
                                 "of magnitude for double precision")
            companion = np.array([[-v / st[6] for v in reversed(st[:6])],
                                  *np.eye(6, k=-1)[1:].tolist()])
            best_w, best_r = 0.0, ratio(p0, pt, 0.0)
            for root in np.linalg.eigvals(companion).tolist():
                if root.real > 0.0:
                    w = math.sqrt(root.real)
                    r = ratio(p0, pt, w)
                    if r > best_r:
                        best_w, best_r = w, r
            return np.array((best_r, best_w)).tobytes()

        def written_out_sweep(p, eq):
            res = hinf_ratio_sweep(p, eq)
            return np.array((res.max_ratio, res.argmax_freq)).tobytes()

        def outcome(sweep, p, eq):
            try:
                return sweep(p, eq)
            except ValueError as exc:   # numpy's LinAlgError included
                return type(exc), str(exc)

        rng = np.random.default_rng(2020)
        refused = compared = 0
        while compared < 1500:
            mu, om, si = (float(10.0 ** e) for e in rng.uniform(-180.0, 3.0, 3))
            beta = (mu + si) ** 2 / si * float(10.0 ** rng.uniform(-0.5, 4.0))
            p = _params(mu=mu, omega=om, sigma=si, beta=beta)
            try:
                eq = endemic_equilibrium(p)
            except ValueError:   # a closed form double precision cannot hold
                continue
            if eq is None:
                continue
            compared += 1
            want = outcome(loop_sweep, p, eq)
            assert outcome(written_out_sweep, p, eq) == want, p
            refused += isinstance(want, tuple)
        assert 0 < refused < compared, refused

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
        # the sign of every real part. Its point is the public function's,
        # and the endemic report's sweep figures are hinf_ratio_sweep's
        # (None at mu = 0, where the sweep refuses), bit for bit.
        p = _params(mu=mu, beta=beta)
        reports = analyze(p)
        x2 = endemic_equilibrium(p)
        points = [disease_free_equilibrium(p)] + ([] if x2 is None else [x2])
        assert [repr(rep.point) for rep in reports] == list(map(repr, points))
        for rep in reports:
            want = eigenvalues(rep.jacobian)
            assert rep.spectrum.dtype == want.dtype
            assert rep.spectrum.tobytes() == want.tobytes()
            assert rep.locally_stable == bool(np.all(want.real < 0.0))
        if x2 is not None:
            sweep = (None, None)
            if mu > 0.0:
                res = hinf_ratio_sweep(p, x2)
                sweep = (res.max_ratio.hex(), res.condition_holds)
            got = reports[1].hinf_ratio
            assert (got if got is None else got.hex(),
                    reports[1].hinf_condition_holds) == sweep

    def test_reaches_the_wrapped_names(self, monkeypatch):
        # The benchmark times endemic_equilibrium, eigenvalues and
        # hinf_ratio_sweep by wrapping them in the module: analyze must
        # look each up there, once per point, and skip the sweep where no
        # endemic point exists.
        import seirvax.equilibria as eq
        calls = {}
        for name in ("endemic_equilibrium", "eigenvalues", "hinf_ratio_sweep"):
            def counted(*args, _fn=getattr(eq, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(eq, name, counted)
        assert len(analyze(_params(beta=0.9))) == 2
        assert calls == {"endemic_equilibrium": 1, "eigenvalues": 1,
                         "hinf_ratio_sweep": 1}
        calls.clear()
        assert len(analyze(_params(beta=0.2))) == 1
        assert calls == {"endemic_equilibrium": 1, "eigenvalues": 1}

    @pytest.mark.parametrize("beta, points", [(0.9, 2), (0.2, 1)])
    def test_one_stack_for_every_point(self, monkeypatch, beta, points):
        # With or without an endemic point, eigenvalues gets one (k, 4, 4)
        # stack, and each report's Jacobian is its row.
        import seirvax.equilibria as eq
        stacks = []

        def recorded(matrix, _fn=eq.eigenvalues):
            stacks.append(matrix)
            return _fn(matrix)

        monkeypatch.setattr(eq, "eigenvalues", recorded)
        reports = analyze(_params(beta=beta))
        assert [stack.shape for stack in stacks] == [(points, 4, 4)]
        assert [rep.jacobian.tobytes() for rep in reports] == [
            row.tobytes() for row in stacks[0]]

    def test_feasibility_expression(self, monkeypatch):
        # The printed expression is computed where the endemic point is
        # made, once, in both branches, and the point reports it <= 1.
        import seirvax.equilibria as eq
        values = []

        def recorded(*args, _fn=eq._a11):
            values.append(_fn(*args))
            return values[-1]

        monkeypatch.setattr(eq, "_a11", recorded)
        for mu, kind in ((0.01, "endemic"), (0.0, "mu_zero_special")):
            values.clear()
            point = endemic_equilibrium(_params(mu=mu))
            ms2 = (mu + 0.2) ** 2
            expected = (0.18 - ms2) / (0.9 * (ms2 + 0.02 * (mu + 0.4))) * max(
                0.2, (1.0 + mu / 0.2) * (mu + 0.02))
            assert point.kind == kind
            assert values == [pytest.approx(expected, rel=1e-12)]
            assert point.feasibility_a11 == (values[0] <= 1.0)

    def test_non_finite_feasibility_expression_refused(self):
        # A finite endemic point (S, E, I, R about 0.0121, 917, 83 and 0)
        # whose expression overflows: excess/denom is subnormal, and
        # (1 + mu/sigma)*(mu+omega) is inf.
        p = _params(mu=1e-6, omega=1e308, beta=1.0, sigma=1e-7)
        with pytest.raises(ValueError, match=r"feasibility expression overflows "
                                             r"double precision \(inf\)") as info:
            endemic_equilibrium(p)
        assert "\n" not in str(info.value)


def _assert_built_like_its_constructor(record):
    """record equals, prints and hashes like its twin from the public
    constructor, holds the same fields in the same order, and stays frozen;
    the same for the records it nests."""
    fields = dataclasses.fields(record)
    twin = type(record)(**{f.name: getattr(record, f.name) for f in fields})
    assert record == twin
    assert repr(record) == repr(twin)
    assert list(vars(record)) == list(vars(twin)) == [f.name for f in fields]
    try:
        want = hash(twin)
    except TypeError:   # a StabilityReport holds arrays
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0].name, None)
    assert dataclasses.replace(record) == record
    for f in fields:
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            _assert_built_like_its_constructor(value)


class TestRecords:
    # A map point with an endemic point, one without, and the mu = 0
    # branch, which has no sweep: (params, records the four calls return).
    @pytest.mark.parametrize("p, count", [(_params(beta=0.9), 5),
                                          (_params(beta=0.2), 2),
                                          (_params(mu=0.0, beta=0.9), 4)],
                             ids=["endemic", "disease_free_only", "mu_zero"])
    def test_returned_records_match_constructed_ones(self, p, count):
        records = [*analyze(p), disease_free_equilibrium(p)]
        endemic = endemic_equilibrium(p)
        if endemic is not None:
            records.append(endemic)
            if p.mu > 0.0:
                records.append(hinf_ratio_sweep(p, endemic))
        assert len(records) == count
        for record in records:
            _assert_built_like_its_constructor(record)


class TestNumpyErrorState:
    def test_analyze_leaves_the_error_state_as_found(self, monkeypatch):
        # After a success, a residual-gate refusal and a nonconvergence,
        # numpy's error handling and callback are the caller's again.
        import seirvax.equilibria as eq

        def callback(err, flag):
            pass

        def not_converging(m, signature):
            return np.sqrt(np.full(m.shape[:-1], -1.0)).astype(complex)

        # At N ~ 1e-196 the endemic S*I underflows to 0 in the field's
        # beta/N*(S*I), so the endemic residual exceeds its gate.
        gate_refused = ModelParams(
            N=9.30486293120517e-197, mu=2.4353394155262494e-06,
            omega=0.006334263427616344, beta=0.0004948823605417095,
            sigma=5.46159386336989e-06, gamma=5.46159386336989e-06)
        with np.errstate(divide="raise", over="warn", under="print",
                         invalid="call", call=callback):
            found = np.geterr(), np.geterrcall()
            assert len(analyze(_params(beta=0.9))) == 2
            assert (np.geterr(), np.geterrcall()) == found
            with pytest.raises(ValueError, match="exceeds gate"):
                analyze(gate_refused)
            assert (np.geterr(), np.geterrcall()) == found
            monkeypatch.setattr(eq, "_lapack_eigvals", not_converging)
            with pytest.raises(np.linalg.LinAlgError,
                               match="^Eigenvalues did not converge$"):
                analyze(_params(beta=0.9))
            assert (np.geterr(), np.geterrcall()) == found


class TestStabilityConsistency:
    def test_stable_verdict_matches_simulation(self):
        # char zeros stable (beta below threshold): a small exposed
        # perturbation of the disease-free point decays back by t = 20/mu.
        from seirvax import IntegratorConfig, ZeroVax, integrate
        p = _params(beta=0.2)
        assert all(z < 0.0 for z in char_zeros_x1(p))
        x1 = np.array([p.N, 0.0, 0.0, 0.0])
        start = SeirState(p.N - 1e-3 * p.N, 1e-3 * p.N, 0.0, 0.0)
        tr = integrate(start, p, ZeroVax(),
                       IntegratorConfig(t_end=20.0 / p.mu, dt=1e-2,
                                        sampling_stride=1000))
        final = tr.states()[-1]
        assert np.max(np.abs(final - x1)) < 1e-4 * p.N


# Every field log-uniform across [1e-300, 1e308], with sigma = gamma in
# about half the draws; a gain is also 0.0 in some.
_EXTREME = st.floats(min_value=-300.0, max_value=308.0).map(lambda e: 10.0 ** e)
_GAIN = st.one_of(st.just(0.0), _EXTREME)

# What each function returns, as the numbers that must be finite.
_NUMBERS = {
    disease_free_equilibrium: lambda point: (*point.state.as_tuple(), point.residual),
    endemic_equilibrium: lambda point: (
        () if point is None else (*point.state.as_tuple(), point.residual)),
    char_zeros_x1: lambda zeros: zeros,
    # analyze with the sweep on: every report's state, residual, Jacobian,
    # spectrum magnitudes and H-infinity ratio
    analyze: lambda reports: [
        number for rep in reports
        for number in (*rep.point.state.as_tuple(), rep.point.residual,
                       *rep.jacobian.ravel().tolist(),
                       *np.abs(rep.spectrum).tolist(),
                       *(() if rep.hinf_ratio is None else (rep.hinf_ratio,)))],
    # the sweep on its own, at the endemic point
    _sweep: lambda res: (res.max_ratio, res.argmax_freq, res.threshold),
}


def _catalogue(g: float, g1: float) -> tuple:
    """Every catalogue law, at gains g and g1 (g negated where the law
    needs g < 0)."""
    return (ZeroVax(), ConstantVax(g), SusceptibleLinear(g),
            SusceptiblePlusExposed(g), ImmuneFeedback(g, g1),
            ConstrainedImmuneFeedback(-g), Linearizing(g, g1), OutputZeroing(),
            Saturated(ImmuneFeedback(g, g1)))


@settings(max_examples=500)
@given(N=_EXTREME, mu=_EXTREME, omega=_EXTREME, beta=_EXTREME, sigma=_EXTREME,
       gamma=st.one_of(st.none(), _EXTREME), g=_GAIN, g1=_GAIN)
def test_extreme_rates_give_finite_numbers_or_one_line_refusals(
        N, mu, omega, beta, sigma, gamma, g, g1):
    p = ModelParams(N=N, mu=mu, omega=omega, beta=beta, sigma=sigma,
                    gamma=sigma if gamma is None else gamma)
    for call, numbers in _NUMBERS.items():
        try:
            out = call(p)
        except ValueError as exc:
            assert "\n" not in str(exc), (call.__name__, str(exc))
            continue
        assert all(map(math.isfinite, numbers(out))), (call.__name__, out)
    # the Corollary 1 bound at alpha = beta, at a state of the population
    # (a VaccinationChannelError where mu*N underflows to 0 is a ValueError,
    # and so is the refusal where beta*I/N rounds above beta)
    state = SeirState(0.7 * N, 0.2 * N, 0.1 * N, 0.0)
    try:
        bound = corollary1_upper_bound(state, p, beta)
    except ValueError as exc:
        assert "\n" not in str(exc), ("corollary1_upper_bound", str(exc))
    else:
        assert math.isfinite(bound), ("corollary1_upper_bound", bound)
    # every claimed limit is finite and approached at a positive rate
    for law in _catalogue(g, g1):
        try:
            pred = predicted_limits(law, p)
        except PredictionError as exc:
            assert "\n" not in str(exc), (law, str(exc))
            continue
        values = [v for v in vars(pred).values() if v is not None]
        assert all(map(math.isfinite, values)), (law, pred)
        assert pred.decay_rate > 0.0, (law, pred)
