import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue.quadrature import (
    gegenbauer_recurrence,
    gegenbauer_rule,
    integrate,
    omega_n,
    product_gauss_rule,
)


class TestOmega:
    def test_circle(self):
        assert abs(omega_n(2) - 2 * math.pi) < 1e-13 * 2 * math.pi

    def test_two_sphere(self):
        assert abs(omega_n(3) - 4 * math.pi) < 1e-13 * 4 * math.pi

    def test_three_sphere(self):
        assert abs(omega_n(4) - 2 * math.pi**2) < 1e-13 * 2 * math.pi**2

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            omega_n(1)


class TestProductRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_weights_sum_to_omega(self, n):
        # 2^20 nodes at n = 5 and 6; n = 5 shares the cached default rule
        rule = product_gauss_rule(6, 16) if n == 6 else product_gauss_rule(n)
        assert abs(rule.weights.sum() - omega_n(n)) < 1e-11
        assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)

    def test_constant(self):
        rule = product_gauss_rule(3)
        assert abs(integrate(rule, lambda p: np.ones(len(p))) - omega_n(3)) < 1e-11

    def test_squared_component(self):
        rule = product_gauss_rule(3)
        val = integrate(rule, lambda p: p[:, 0] ** 2)
        assert abs(val - 4 * math.pi / 3) < 1e-11

    def test_odd_integrand_vanishes(self):
        rule = product_gauss_rule(3)
        assert abs(integrate(rule, lambda p: p[:, 0])) < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            product_gauss_rule(1)

    def test_rule_is_cached_and_read_only(self):
        # one rule object per (n, nodes_per_angle), shared by every caller
        rule = product_gauss_rule(3, 18)
        assert product_gauss_rule(3, 18) is rule
        assert product_gauss_rule(4) is product_gauss_rule(4)
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rule.weights[0] = 0.0


def _gegenbauer_poly(N, lam, x):
    """C_N^lam(x) by the three-term recurrence, in mpmath arithmetic."""
    prev, cur = mpmath.mpf(1), 2 * lam * x
    if N == 0:
        return prev
    for k in range(2, N + 1):
        prev, cur = cur, (2 * x * (k + lam - 1) * cur - (k + 2 * lam - 2) * prev) / k
    return cur


@functools.lru_cache(maxsize=None)
def mp_gegenbauer_rule(N, lam):
    """40-digit Gauss-Gegenbauer rule: Newton on C_N^lam (d/dx C_N^lam =
    2 lam C_{N-1}^{lam+1}) from the guesses cos((k - (1 - lam)/2) pi / (N +
    lam)), weights 2^{2-2lam} pi Gamma(N+2lam) / (N! Gamma(lam)^2 (1-x^2)
    C_N'(x)^2)."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        nodes = []
        for k in range(N, 0, -1):
            x = mpmath.cos((k - (1 - lam) / 2) * mpmath.pi / (N + lam))
            for _ in range(100):
                step = _gegenbauer_poly(N, lam, x) / (2 * lam * _gegenbauer_poly(N - 1, lam + 1, x))
                x -= step
                if abs(step) < mpmath.mpf(10) ** -36:
                    break
            nodes.append(x)
        const = (mpmath.pi * mpmath.mpf(2) ** (2 - 2 * lam) * mpmath.gamma(N + 2 * lam)
                 / (mpmath.factorial(N) * mpmath.gamma(lam) ** 2))
        weights = [const / ((1 - x * x) * (2 * lam * _gegenbauer_poly(N - 1, lam + 1, x)) ** 2)
                   for x in nodes]
        total = mpmath.fsum(weights)
        # the weights integrate the weight function B(1/2, lam + 1/2)
        assert abs(total - mpmath.beta(mpmath.mpf(1) / 2, lam + mpmath.mpf(1) / 2)) < 1e-35
        return (np.array([float(x) for x in nodes]), np.array([float(w) for w in weights]))


def _moment(k, lam):
    """int_{-1}^1 x^k (1 - x^2)^{lam - 1/2} dx."""
    if k % 2:
        return 0.0
    return math.exp(math.lgamma((k + 1) / 2) + math.lgamma(lam + 0.5) - math.lgamma(k / 2 + lam + 1))


RULE_SIZES = [4, 14, 18, 32, 64]
# (n - 2 - j) / 2 for the polar angles of S^{n-1} up to n = 6
PARAMETERS = [0.5, 1.0, 1.5, 2.0]


class TestGegenbauerRule:
    @pytest.mark.parametrize("lam", PARAMETERS)
    @pytest.mark.parametrize("N", RULE_SIZES)
    def test_matches_40_digit_rule(self, N, lam):
        x, w = gegenbauer_rule(N, lam)
        x_ref, w_ref = mp_gegenbauer_rule(N, lam)
        assert np.all(np.diff(x_ref) > 0) and np.all(np.diff(x) > 0)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-14

    @pytest.mark.parametrize("lam", PARAMETERS)
    @pytest.mark.parametrize("N", RULE_SIZES)
    def test_exact_to_degree_2n_minus_1(self, N, lam):
        x, w = gegenbauer_rule(N, lam)
        for k in range(2 * N):
            exact = _moment(k, lam)
            assert abs(np.sum(w * x**k) - exact) <= 1e-13 * max(exact, 1e-2), k

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("N", RULE_SIZES)
    def test_agrees_with_scipy(self, N, lam):
        roots_gegenbauer = pytest.importorskip("scipy.special").roots_gegenbauer
        x, w = gegenbauer_rule(N, lam)
        xs, ws = roots_gegenbauer(N, lam)
        assert np.max(np.abs(x - xs)) <= 1e-12
        # scipy's own weights are 6.3e-13 (N = 32) and 3.9e-12 (N = 64,
        # lam = 1/2) off the 40-digit rule, so beyond N = 32 the gap to scipy
        # must be scipy's error, not ours
        _, w_ref = mp_gegenbauer_rule(N, lam)
        scipy_error = np.max(np.abs(ws - w_ref) / w_ref) if N > 32 else 0.0
        assert np.max(np.abs(w - ws) / ws) <= 1e-12 + scipy_error

    def test_unsupported_parameter(self):
        with pytest.raises(ValueError, match="parameter 0.0"):
            gegenbauer_rule(8, 0.0)


def exact_half_integer_mass(m):
    """sqrt(pi) Gamma(m + 1) / Gamma(m + 3/2), the mass at lam = m + 1/2, as
    the exact rational 4^(m+1) m! (m+1)! / (2m+2)!."""
    return Fraction(4 ** (m + 1) * math.factorial(m) * math.factorial(m + 1),
                    math.factorial(2 * m + 2))


class TestGegenbauerMass:
    @pytest.mark.parametrize("m", [0, 10, 170, 171, 200, 500])
    def test_matches_exact_factorials(self, m):
        # m = 170 still takes math.gamma; from lam + 1 > 171.6 on, where
        # math.gamma overflows, the Stirling series of the log ratio does
        _, mass = gegenbauer_recurrence(m + 0.5, 1)
        exact = exact_half_integer_mass(m)
        assert abs(Fraction(mass) - exact) <= Fraction(1, 10 ** 13) * exact

    def test_degree_171_basis_is_finite(self):
        from neckglue.matching import SphereGrid

        assert np.all(np.isfinite(SphereGrid(3, 171).basis_at(np.eye(3))))


def second_moment(u, v):
    """Closed form of int (Theta.u)(Theta.v) dtheta over S^{n-1}."""
    return omega_n(u.size) / u.size * float(u @ v)


class TestSecondMoment:
    # the closed form is the oracle for the product rule
    def test_flagship_axis(self):
        e1 = np.array([1.0, 0.0, 0.0])
        rule = product_gauss_rule(3)
        brute = integrate(rule, lambda p: (p @ e1) ** 2)
        assert abs(second_moment(e1, e1) - brute) < 1e-10

    def test_orthogonal_vectors(self):
        assert second_moment(np.array([1.0, 0, 0]), np.array([0, 2.0, 0])) == 0.0

    def test_bilinear_scaling_n4(self):
        u = np.array([2.0, 0.0, 0.0, 0.0])
        assert abs(second_moment(u, u) - 2 * math.pi**2) < 1e-12

    def test_randomized_sweep_vs_quadrature(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            rule = product_gauss_rule(n)
            for _ in range(20):
                u = rng.standard_normal(n)
                v = rng.standard_normal(n)
                brute = integrate(rule, lambda p: (p @ u) * (p @ v))
                assert abs(second_moment(u, v) - brute) < 1e-10
