import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from neckglue import spectrum
from neckglue.spectrum import (
    ModeSolution,
    decay_rate,
    explicit_n3_residual,
    explicit_n3_solution,
    exterior_mode_solve,
    frozen_characteristic_roots,
    indicial_roots,
    integrate_mode_system,
    mode_system_matrix,
    verify_f0,
)

from conftest import BENCH


class TestIndicialRoots:
    def test_n3_k1(self):
        t = indicial_roots(3, 1)
        assert t.coexact == (Fraction(3, 2), Fraction(-3, 2))
        assert t.exact_mu == (Fraction(5, 2), Fraction(-5, 2))
        assert t.exact_nu == (Fraction(1, 2), Fraction(-1, 2))

    def test_n3_k0(self):
        t = indicial_roots(3, 0)
        assert t.exact_mu == (Fraction(3, 2), Fraction(-3, 2))
        assert t.coexact is None and t.exact_nu is None

    def test_n4_k1(self):
        t = indicial_roots(4, 1)
        assert t.coexact == (Fraction(2), Fraction(-2))
        assert t.exact_mu == (Fraction(3), Fraction(-3))
        assert t.exact_nu == (Fraction(1), Fraction(-1))


class TestFrozenRoots:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_family(self, n, k):
        table = indicial_roots(n, k)
        expect = np.sort([
            float(table.exact_mu[0]), float(table.exact_mu[1]),
            float(table.exact_nu[0]), float(table.exact_nu[1]),
        ])
        for side in (-1, 1):
            roots = np.sort(frozen_characteristic_roots(n, k, side))
            assert np.max(np.abs(roots - expect)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_coexact_family(self, n, k):
        g = float(indicial_roots(n, k).coexact[0])
        roots = np.sort(frozen_characteristic_roots(n, k, family="coexact"))
        assert np.max(np.abs(roots - np.array([-g, g]))) < 1e-12

    def test_k0(self):
        roots = np.sort(frozen_characteristic_roots(3, 0))
        assert_allclose(roots, [-1.5, 1.5], atol=1e-12)


class TestF0:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_residual(self, n):
        assert verify_f0(n, np.linspace(-5, 5, 2001)) < 1e-12

    def test_symbolic_oracle(self):
        # the analytic derivative used by verify_f0 and the full cancellation
        t, n = sympy.symbols("t n", real=True, positive=True)
        f0 = sympy.cosh(n * t) ** sympy.Rational(-1, 2)
        d2 = sympy.diff(f0, t, 2)
        closed = n**2 / 4 * sympy.cosh(n * t) ** sympy.Rational(-1, 2) \
            - 3 * n**2 / 4 * sympy.cosh(n * t) ** sympy.Rational(-5, 2)
        assert sympy.simplify(d2 - closed) == 0
        resid = d2 - n**2 / 4 * f0 + 3 * n**2 / 4 * f0 / sympy.cosh(n * t) ** 2
        assert sympy.simplify(resid) == 0


class TestConjugationExponent:
    """The cylinder-form operator acts on V scaled by (sin ns)^{(n-2)/2n};
    its explicit kernel elements must therefore be the grid-form Jacobi
    fields divided by that factor.  This ties the ODE route to the FD route
    through the conjugation exponent itself."""

    def test_f0_is_conjugated_dilation(self):
        from neckglue.neck import t_to_s
        from neckglue.spectrum import f0_profile

        for n in (2, 3, 4):
            t = np.linspace(-2.0, 2.0, 201)
            s = t_to_s(t, n)
            dilation_f = np.sin(n * s) ** (1.0 - 1.0 / n)
            conj = np.sin(n * s) ** (-(n - 2.0) / (2.0 * n))
            assert np.max(np.abs(conj * dilation_f - f0_profile(n, t))) < 1e-13

    def test_a1_is_conjugated_translation(self):
        from neckglue.neck import t_to_s

        t = np.linspace(-2.0, 2.0, 201)
        s = t_to_s(t, 3)
        translation_f = np.sin(2.0 * s)  # phase 0, degree-1 profile
        conj = np.sin(3.0 * s) ** (-1.0 / 6.0)
        a, b = explicit_n3_solution(t)
        assert np.max(np.abs(conj * translation_f - a)) < 1e-13
        assert np.max(np.abs(conj * (-np.sin(s)) - b)) < 1e-13


class TestExplicitSolution:
    def test_value_at_zero(self):
        a, b = explicit_n3_solution(0.0)
        assert abs(a - math.sqrt(3) / 2) < 1e-14
        assert abs(b + 0.5) < 1e-14

    def test_residual_in_system(self):
        assert explicit_n3_residual(np.linspace(-3, 3, 241), h=1e-3) < 1e-8

    def test_asymptotic_rates(self):
        tneg = np.linspace(-12.0, -2.0, 400)
        a, b = explicit_n3_solution(tneg)
        rate, r2 = decay_rate(ModeSolution(3, 1, "interior", tneg, a, b), end=-1)
        assert abs(rate - 2.5) < 1e-2 and r2 > 0.999
        tpos = np.linspace(2.0, 12.0, 400)
        a, b = explicit_n3_solution(tpos)
        rate, _ = decay_rate(ModeSolution(3, 1, "interior", tpos, a, b), end=+1)
        assert abs(rate - 0.5) < 1e-2

    def test_eigendirection_ratio_at_minus_infinity(self):
        # the decaying branch aligns with the (n-1, -1) direction: b/a -> -1/2
        a, b = explicit_n3_solution(np.array([-8.0, -10.0, -12.0]))
        assert_allclose(b / a, -0.5, atol=1e-6)

    def test_cosh_prefactors_near_minus_infinity(self):
        # a_1 ~ (4/3) 2^{-1/6} e^{5t/2}; the ratio a/e^{5t/2} stabilizes
        t = np.array([-9.0, -11.0])
        a, _ = explicit_n3_solution(t)
        ratios = a / np.exp(2.5 * t)
        assert abs(ratios[0] - ratios[1]) < 1e-6 * abs(ratios[0])


class TestModeIntegration:
    def test_matches_explicit_solution(self):
        h = 1e-3
        t0 = 0.0

        def d1(f):
            vals = [f(t0 + k * h) for k in (-2, -1, 1, 2)]
            return tuple(
                (vals[0][i] - 8 * vals[1][i] + 8 * vals[2][i] - vals[3][i]) / (12 * h)
                for i in range(2)
            )

        a0, b0 = explicit_n3_solution(t0)
        da0, db0 = d1(explicit_n3_solution)
        for t_end in (3.0, -3.0):
            sol = integrate_mode_system(3, 1, "interior", [a0, b0, da0, db0], (t0, t_end))
            ae, be = explicit_n3_solution(sol.t)
            assert np.max(np.abs(sol.a - ae)) < 1e-8
            assert np.max(np.abs(sol.b - be)) < 1e-8

    def test_zero_initial_data(self):
        sol = integrate_mode_system(3, 1, "interior", [0, 0, 0, 0], (0.0, 2.0))
        assert np.max(np.abs(sol.a)) == 0.0
        assert np.max(np.abs(sol.b)) == 0.0

    def test_scalar_k0_mode(self):
        from neckglue.spectrum import f0_profile

        t0 = -2.0
        f = f0_profile(3, t0)
        df = -1.5 * np.tanh(3 * t0) * f
        sol = integrate_mode_system(3, 0, "interior", [f, df], (t0, 2.0))
        assert sol.b is None
        assert np.max(np.abs(sol.a - f0_profile(3, sol.t))) < 1e-8

    def test_decaying_shoot_rates(self):
        # shoot from t = -8 in each frozen decaying eigendirection; the local
        # slope matches mu_1 = 5/2 and nu_1 = 1/2
        for direction, ic_rate in [(np.array([2.0, -1.0]), 2.5), (np.array([1.0, 1.0]), 0.5)]:
            z0 = np.concatenate([direction, ic_rate * direction])
            sol = integrate_mode_system(3, 1, "interior", z0, (-8.0, -4.0), num=401)
            rate, r2 = decay_rate(sol, end=-1)
            assert abs(rate - ic_rate) < 1e-2
            assert r2 > 0.999

    def test_blowup_detected(self):
        # the growing mode reaches 1e12 before t = 14
        z0 = np.array([1.0, -0.5, 2.5, -1.25])
        with pytest.raises(ValueError) as err:
            integrate_mode_system(3, 1, "asymptotic", z0, (0.0, 40.0), num=201)
        assert str(err.value) == "mode solution blew up past 1e+12 at t = 10.8902"


# ----------------------------------------------------------------------
# The DOP853 route with mode_system_matrix called on every right-hand-side
# evaluation, for both kinds.  Kept as the oracle of integrate_mode_system:
# its interior route must reproduce it bit for bit, and its exact frozen
# flow (closed form) must agree with it to within the oracle's own RK error.
# ----------------------------------------------------------------------

def per_step_integrate(n, k, kind, initial, t_span, num, family):
    initial = np.asarray(initial, dtype=float)
    d = 1 if (family == "coexact" or k == 0) else 2

    def rhs(t, z):
        M = mode_system_matrix(n, k, t, kind=kind, family=family)
        return np.concatenate([z[d:], M @ z[:d]])

    def blown(t, z):
        return np.sum(np.abs(z[:d])) - spectrum.BLOWUP_LIMIT

    blown.terminal = True
    sol = solve_ivp(rhs, t_span, initial, method="DOP853",
                    t_eval=np.linspace(t_span[0], t_span[1], num),
                    rtol=spectrum.RK_TOLERANCE, atol=spectrum.RK_TOLERANCE,
                    max_step=spectrum.RK_MAX_STEP, events=blown)
    if sol.status == 1:
        raise ValueError(f"mode solution blew up past {spectrum.BLOWUP_LIMIT:g} "
                         f"at t = {sol.t_events[0][0]:.4f}")
    return sol.t, sol.y[0], (None if d == 1 else sol.y[1])


MODE_CASES = [("exact", 1, [0.7, -0.3, 0.2, 0.5]), ("exact", 0, [0.7, -0.4]),
              ("coexact", 2, [0.7, -0.4])]


def assert_matches_oracle(n, k, kind, z0, span, family):
    sol = integrate_mode_system(n, k, kind, z0, span, num=151, family=family)
    t, a, b = per_step_integrate(n, k, kind, z0, span, 151, family)
    assert np.array_equal(sol.t, t)
    assert (sol.b is None) == (b is None)
    pairs = [(sol.a, a)] + ([] if b is None else [(sol.b, b)])
    for got, want in pairs:
        if kind == "interior":
            assert np.array_equal(got, want)
        else:
            # the exact flow differs from the oracle by the oracle's RK error
            assert_allclose(got, want, rtol=0, atol=1e-9)


class TestHoistedModeMatrix:
    """integrate_mode_system against the per-step DOP853 oracle."""

    @pytest.mark.parametrize("kind", ["interior", "asymptotic"])
    @pytest.mark.parametrize("family,k,z0", MODE_CASES)
    def test_solution_bit_identical(self, kind, family, k, z0):
        span = (-1.5, 1.0) if kind == "interior" else (0.0, 1.5)
        assert_matches_oracle(3, k, kind, z0, span, family)

    # n = 2, k = 1 has a defective double eigenvalue 0 in its frozen
    # companion; (0, -1.5) runs the flow backwards
    @pytest.mark.parametrize("n,span", [(2, (0.0, 1.5)), (4, (0.0, -1.5))])
    def test_frozen_flow_matches_dop853(self, n, span):
        assert_matches_oracle(n, 1, "asymptotic", [0.7, -0.3, 0.2, 0.5], span, "exact")

    @pytest.mark.parametrize("k,kind,family,match", [
        (1, "frozen", "exact", "kind must be"), (1, "interior", "closed", "family must be"),
        (0, "asymptotic", "coexact", "coexact modes require")])
    def test_bad_arguments_rejected(self, k, kind, family, match):
        d = 1 if family == "coexact" or k == 0 else 2
        with pytest.raises(ValueError, match=match):
            integrate_mode_system(3, k, kind, np.zeros(2 * d), (0.0, 1.0), family=family)

    @pytest.mark.parametrize("kind", ["interior", "asymptotic"])
    @pytest.mark.parametrize("z0,span,match", [
        ([0.7, math.nan, 0.2, 0.5], (0.0, 1.0), "initial data must be finite"),
        ([0.7, -0.3, 0.2, 0.5], (0.0, math.inf), "t_span must be two finite times")],
        ids=["nan-initial", "inf-t_span"])
    def test_non_finite_input_rejected(self, kind, z0, span, match):
        with pytest.raises(ValueError, match=match):
            integrate_mode_system(3, 1, kind, z0, span)


class TestFrozenFlowExact:
    """The closed-form frozen flow against exact solutions, far inside the
    oracle's RK error."""

    def test_null_direction_stays_linear(self):
        # n = 2, k = 1: the frozen M has the null vector (1, 1) (nu = 0), on
        # which z'' = 0
        sol = integrate_mode_system(2, 1, "asymptotic", [0.7, 0.7, -0.4, -0.4], (0.0, 3.0))
        line = 0.7 - 0.4 * sol.t
        assert np.max(np.abs(sol.a - line)) <= 1e-12
        assert np.max(np.abs(sol.b - line)) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_decaying_data_follows_the_closed_form(self, n):
        A, B, rates, _, ev = exterior_mode_solve(n, 1.0, 0.0)
        da0 = rates[0] * (n - 1) * A + rates[1] * B
        db0 = -rates[0] * A + rates[1] * B
        sol = integrate_mode_system(n, 1, "asymptotic", [1.0, 0.0, da0, db0], (0.0, 2.0))
        aa, bb = ev(sol.t)
        assert max(np.max(np.abs(sol.a - aa)), np.max(np.abs(sol.b - bb))) <= 1e-12

    def test_decaying_mode_stays_finite_past_exp_overflow(self):
        # data on the fast decaying direction (2, -1) of n = 3 has c+ = 0
        # exactly; e^{5 tau / 2} overflows past tau = 284, and 0 * inf must
        # not turn the decayed solution into nan
        sol = integrate_mode_system(3, 1, "asymptotic", [2.0, -1.0, -5.0, 2.5], (0.0, 400.0),
                                    num=9)
        assert_allclose(sol.a, 2.0 * np.exp(-2.5 * sol.t), rtol=1e-12, atol=0)
        assert_allclose(sol.b, -np.exp(-2.5 * sol.t), rtol=1e-12, atol=0)


class TestExteriorMode:
    def test_flagship_coefficients(self):
        A, B, rates, dirs, ev = exterior_mode_solve(3, 1.0, 0.0)
        assert abs(A - 1 / 3) < 1e-15 and abs(B - 1 / 3) < 1e-15
        assert rates == (-2.5, -0.5)
        tau = np.array([0.0, 1.0])
        a, b = ev(tau)
        assert abs(a[0] - 1.0) < 1e-15 and abs(b[0]) < 1e-16
        expect_a = 2 / 3 * math.exp(-2.5) + 1 / 3 * math.exp(-0.5)
        expect_b = -1 / 3 * math.exp(-2.5) + 1 / 3 * math.exp(-0.5)
        assert abs(a[1] - expect_a) < 1e-14
        assert abs(b[1] - expect_b) < 1e-14

    def test_zero_data(self):
        _, _, _, _, ev = exterior_mode_solve(4, 0.0, 0.0)
        a, b = ev(np.linspace(0, 5, 10))
        assert np.max(np.abs(a)) == 0.0 and np.max(np.abs(b)) == 0.0

    def test_mode_directions_are_frozen_eigenvectors(self):
        for n in (3, 4, 5):
            M = mode_system_matrix(n, 1, 0.0, kind="asymptotic")
            _, _, rates, dirs, _ = exterior_mode_solve(n, 1.0, 0.5)
            for rate, v in zip(rates, dirs):
                assert np.linalg.norm(M @ v - rate**2 * v) < 1e-12

    def test_requires_n_at_least_three(self):
        with pytest.raises(ValueError):
            exterior_mode_solve(2, 1.0, 0.0)


class TestDecayRate:
    def test_synthetic_exponential(self):
        t = np.linspace(0, 6, 300)
        sol = ModeSolution(3, 1, "interior", t, np.exp(-2.5 * t))
        rate, r2 = decay_rate(sol, end=+1)
        assert abs(rate + 2.5) < 1e-6 and r2 > 1 - 1e-12

    def test_f0_rate(self):
        from neckglue.spectrum import f0_profile

        t = np.linspace(0, 8, 400)
        sol = ModeSolution(3, 0, "interior", t, f0_profile(3, t))
        rate, _ = decay_rate(sol, end=+1)
        assert abs(rate + 1.5) < 1e-2  # f0 ~ e^{-nt/2}

    def test_vanishing_window_rejected(self):
        t = np.linspace(0, 1, 100)
        sol = ModeSolution(3, 1, "interior", t, np.zeros_like(t))
        with pytest.raises(ValueError):
            decay_rate(sol, end=+1)


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_ode_gate(workloads, seed, tmp_path):
    """The neck_modes ODE-oracle check of the benchmark, bound for bound:
    its seed-0 gate is a measured value, so a solver that rounds
    differently can miss it."""
    ref = json.loads((BENCH / "reference.json").read_text())["jacobi_modes"]
    pairs = workloads.make_inputs("neck_modes", seed, str(tmp_path), str(tmp_path))["ode"]
    worst = workloads.ode_worst(spectrum, pairs)
    bound = ref["seed0_ode_worst"] if seed == 0 else ref["ode_worst_bound"]
    assert worst <= bound * (1 + workloads.ODE_SLACK)
