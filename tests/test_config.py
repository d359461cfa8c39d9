import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue.config import (
    Configuration,
    build_interaction_system,
    check_h1,
    gamma_entry_quadrature,
    gamma_matrix,
    lambda_entry_quadrature,
    lambda_vector,
    neck_scales,
)
from neckglue.quadrature import omega_n, product_gauss_rule

from conftest import random_orthogonal, rot_e1
from oracles import symmetric_pair_gamma


class TestConfigurationValidation:
    def test_rejects_non_orthogonal_rotation(self):
        R = np.eye(3)
        R[0, 0] = 1.001
        with pytest.raises(ValueError, match="orthogonality defect"):
            Configuration(3, [[1, 0, 0], [-1, 0, 0]], [np.eye(3), R], np.eye(3), 1e-3, 0.2)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="points\\[0\\] and points\\[1\\]"):
            Configuration(3, [[1, 0, 0], [1, 0, 0]], [np.eye(3), np.eye(3)], np.eye(3), 1e-3, 0.2)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            Configuration(3, [[1, 0, 0]], [np.eye(3)], np.eye(3), 0.0, 0.2)
        with pytest.raises(ValueError):
            Configuration(3, [[1, 0, 0]], [np.eye(3)], np.eye(3), 1e-3, -0.1)

    def test_min_separation(self):
        points = [[1, 0, 0], [-1, 0, 0], [1, 0.5, 0]]
        cfg = Configuration(3, points, [np.eye(3)] * 3, np.eye(3), 1e-3, 0.2)
        assert cfg.min_separation == 0.5
        assert Configuration(3, points[:1], [np.eye(3)], np.eye(3), 1e-3, 0.2) \
            .min_separation == math.inf


class TestH1:
    def test_equal_rotations_hold(self, flagship):
        cfg = Configuration(3, [[1, 0, 0], [-1, 0, 0]], [np.eye(3), np.eye(3)],
                            np.eye(3), 1e-3, 0.2)
        (res,) = check_h1(cfg)
        # M = 0, image trivial, residual |xi| = 1
        assert abs(res.residual - 1.0) < 1e-14
        assert res.holds

    def test_quarter_turn_image_misses_axis(self, flagship):
        # image of I - R^{-1} is span{e2, e3}; xi = e1 has residual 1
        (res,) = check_h1(flagship)
        assert abs(res.residual - 1.0) < 1e-12
        assert res.holds

    def test_invertible_difference_fails(self):
        # rotation by pi about e3 composed with pi about e1 ... pick a pair
        # with I - R2^T R1 invertible: any rotation without +1 eigenvalue
        # in O(3) has det -1; use a point-reflection (in O(3) \ SO(3))
        R2 = -np.eye(3)
        cfg = Configuration(3, [[1, 0, 0], [-1, 0, 0]], [np.eye(3), R2],
                            np.eye(3), 1e-3, 0.2)
        (res,) = check_h1(cfg)
        assert res.residual < 1e-12
        assert not res.holds


class TestGammaEntry:
    def test_flagship_value(self, flagship):
        g = gamma_matrix(flagship)[0, 1]
        assert abs(g + math.pi / 3) < 1e-13

    def test_symmetric_oracle_agreement(self, flagship):
        g = gamma_matrix(flagship)[0, 1]
        oracle = symmetric_pair_gamma(np.eye(3), rot_e1(math.pi / 2), 3)
        assert abs(g - oracle) < 1e-12

    def test_product_rule_agreement(self, flagship):
        est = gamma_entry_quadrature(flagship, 0, 1, product_gauss_rule(3, 32))
        assert abs(est - gamma_matrix(flagship)[0, 1]) < 1e-12

    def test_equal_rotations_zero(self):
        cfg = Configuration(3, [[1, 0, 0], [-1, 0, 0]], [rot_e1(0.3), rot_e1(0.3)],
                            np.eye(3), 1e-3, 0.2)
        assert gamma_matrix(cfg)[0, 1] == pytest.approx(0.0, abs=1e-15)
        rule = product_gauss_rule(3, 32)
        est = gamma_entry_quadrature(cfg, 0, 1, rule)
        assert abs(est) < 1e-6

    def test_random_pair_quadrature_n4(self):
        rng = np.random.default_rng(9)
        cfg = Configuration(
            4,
            [[1, 0, 0, 0], [-1, 0, 0, 0]],
            [random_orthogonal(4, rng), random_orthogonal(4, rng)],
            np.eye(4), 1e-3, 0.2,
        )
        rule = product_gauss_rule(4, 32)
        est = gamma_entry_quadrature(cfg, 0, 1, rule)
        assert abs(est - gamma_matrix(cfg)[0, 1]) < 1e-6


class TestSymmetricPairGamma:
    def test_equal_rotations(self):
        assert symmetric_pair_gamma(rot_e1(0.7), rot_e1(0.7), 3) == pytest.approx(0.0, abs=1e-14)

    def test_quarter_turn(self):
        val = symmetric_pair_gamma(np.eye(3), rot_e1(math.pi / 2), 3)
        assert abs(val + math.pi / 3) < 1e-13

    def test_half_turn_minus_eigenspace(self):
        # relative rotation pi about e1: dim E_- = 2, no rotation pairs
        val = symmetric_pair_gamma(np.eye(3), rot_e1(math.pi), 3)
        assert abs(val + 2 * math.pi / 3) < 1e-13

    def test_requires_common_axis(self):
        rng = np.random.default_rng(1)
        R = random_orthogonal(3, rng)
        if np.linalg.norm(R @ np.array([1.0, 0, 0]) - np.array([1.0, 0, 0])) < 1e-8:
            R = rot_e1(0.0)  # extremely unlikely; degenerate fallback
        Q = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, -1.0]])  # no +1 eigenvector
        with pytest.raises(ValueError):
            symmetric_pair_gamma(np.eye(3), Q, 3)


class TestLambda:
    def test_zero_matrix(self, flagship):
        cfg = Configuration(3, flagship.points, flagship.rotations,
                            np.zeros((3, 3)), 1e-4, 0.45)
        assert_allclose(lambda_vector(cfg), 0.0, atol=1e-15)

    def test_identity_values(self, flagship):
        lam = lambda_vector(flagship)
        assert abs(lam[0] + 4 * math.pi) < 1e-12          # tr I = 3
        assert abs(lam[1] + 4 * math.pi / 3) < 1e-12      # tr = 1 + 2cos(pi/2)

    def test_quadrature_agreement(self, flagship):
        rule = product_gauss_rule(3, 32)
        lam = lambda_vector(flagship)
        for j in range(2):
            est = lambda_entry_quadrature(flagship, j, rule)
            assert abs(est - lam[j]) < 1e-6


class TestNeckScales:
    def test_flagship_alpha(self):
        gamma = np.array([[0.0, -math.pi / 3], [-math.pi / 3, 0.0]])
        lam = np.array([-4 * math.pi, -4 * math.pi / 3])
        alpha, h2, h3, rcond = neck_scales(gamma, lam)
        assert_allclose(alpha, [4.0, 12.0], atol=1e-12)
        assert h2 and h3
        assert np.linalg.norm(gamma @ alpha - lam) < 1e-12 * np.linalg.norm(lam)

    def test_singular_gamma(self):
        alpha, h2, h3, rcond = neck_scales(np.zeros((2, 2)), np.ones(2))
        assert alpha is None and not h2 and not h3

    def test_sign_flip_breaks_h3(self):
        gamma = np.array([[0.0, -math.pi / 3], [-math.pi / 3, 0.0]])
        lam = np.array([4 * math.pi, 4 * math.pi / 3])  # A0 = -I
        alpha, h2, h3, _ = neck_scales(gamma, lam)
        assert_allclose(alpha, [-4.0, -12.0], atol=1e-12)
        assert h2 and not h3


class TestInvariants:
    def test_gamma_symmetry_random_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = 3
            pts = rng.standard_normal((k, 3)) * 2.0
            rots = [random_orthogonal(3, rng) for _ in range(k)]
            cfg = Configuration(3, pts, rots, np.eye(3), 1e-3, 0.1)
            G = gamma_matrix(cfg)
            assert np.max(np.abs(G - G.T)) < 1e-12
            assert np.all(np.diag(G) == 0.0)

    def test_distance_scaling_law(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((3, 3))
        rots = [random_orthogonal(3, rng) for _ in range(3)]
        cfg = Configuration(3, pts, rots, np.eye(3), 1e-3, 0.05)
        G = gamma_matrix(cfg)
        for s in (0.5, 2.0, 3.7):
            cfg2 = Configuration(3, s * pts, rots, np.eye(3), 1e-3, 0.05)
            G2 = gamma_matrix(cfg2)
            assert_allclose(G2, G / s**3, rtol=1e-12)

    def test_conjugation_covariance(self):
        # R_j -> P R_j Q, A0 -> P A0 Q leaves Lambda unchanged exactly
        # (trace cyclicity); rotating the points by Q^T as well carries
        # Gamma along, so alpha and the H3 verdict are invariant.
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((2, 3)) * 1.5
        rots = [random_orthogonal(3, rng) for _ in range(2)]
        A0 = rng.standard_normal((3, 3))
        cfg = Configuration(3, pts, rots, A0, 1e-3, 0.05)
        base = build_interaction_system(cfg)
        for _ in range(20):
            P = random_orthogonal(3, rng)
            Q = random_orthogonal(3, rng)
            cfg2 = Configuration(
                3, pts @ Q, [P @ R @ Q for R in rots], P @ A0 @ Q, 1e-3, 0.05
            )
            other = build_interaction_system(cfg2)
            assert_allclose(other.lam, base.lam, rtol=0, atol=1e-12)
            assert_allclose(other.gamma, base.gamma, rtol=0, atol=1e-12)
            assert other.h3 == base.h3
            if base.alpha is not None:
                assert_allclose(other.alpha, base.alpha, rtol=1e-10)

    def test_closed_form_vs_quadrature_everywhere(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((3, 3)) * 2.0
        rots = [random_orthogonal(3, rng) for _ in range(3)]
        A0 = rng.standard_normal((3, 3))
        cfg = Configuration(3, pts, rots, A0, 1e-3, 0.05)
        rule = product_gauss_rule(3, 32)
        G = gamma_matrix(cfg)
        lam = lambda_vector(cfg)
        for j in range(3):
            for jp in range(j + 1, 3):
                est = gamma_entry_quadrature(cfg, j, jp, rule)
                assert abs(est - G[j, jp]) < 1e-6
            est = lambda_entry_quadrature(cfg, j, rule)
            assert abs(est - lam[j]) < 1e-6

    def test_h3_implies_positive_alpha(self, flagship):
        system = build_interaction_system(flagship)
        assert system.h3
        assert np.min(system.alpha) > 0

    def test_product_rule_above_n4(self):
        # n = 5: the polar parameters 3/2, 1, 1/2 on the one rule path
        rng = np.random.default_rng(6)
        cfg = Configuration(
            5,
            np.stack([np.eye(5)[0], -np.eye(5)[0]]),
            [random_orthogonal(5, rng), random_orthogonal(5, rng)],
            np.eye(5), 1e-3, 0.2,
        )
        est = gamma_entry_quadrature(cfg, 0, 1, product_gauss_rule(5, 8))
        assert abs(est - gamma_matrix(cfg)[0, 1]) < 1e-12
