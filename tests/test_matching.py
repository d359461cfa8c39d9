import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from neckglue.config import Configuration, build_interaction_system
from neckglue.matching import (
    MatchCorrection,
    SphereGrid,
    match_boundaries,
    sh_analyze,
    split_theta,
)
from neckglue.quadrature import omega_n, product_gauss_rule

from oracles import harmonic_extension, sh_synthesize


L = 8
GRID = SphereGrid(3, L)
DEG = GRID.degrees


def exact_rule(grid):
    """The product Gauss rule integrating degree-2L products exactly."""
    return product_gauss_rule(grid.n, 2 * grid.L + 2)


RULE = exact_rule(GRID)


@pytest.fixture(scope="module", params=[3, 4])
def grid(request):
    return GRID if request.param == 3 else SphereGrid(request.param, L)


def random_expansion(rng, scale=1.0, degrees=None, grid=GRID):
    coeffs = scale * rng.standard_normal((grid.n, grid.degrees.size))
    if degrees is not None:
        coeffs[:, ~np.isin(grid.degrees, degrees)] = 0.0
    return coeffs


def dtn_weights(grid):
    """The paper's sphere DtN maps on grid's slots, (P_int, P_ext) = (k, -(k+n-2)):
    the weights match_boundaries applies."""
    return grid.degrees.astype(float), -(grid.degrees + grid.n - 2.0)


def l2(coeffs):
    return float(np.sqrt(np.sum(coeffs * coeffs)))


def polar(theta, phi):
    """The unit vector of S^2 at colatitude theta and azimuth phi."""
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def degree_norms(coeffs, grid):
    """L^2 norm of each degree-k part."""
    sq = np.sum(coeffs**2, axis=0)
    return np.sqrt(np.bincount(grid.degrees, weights=sq))


class TestBasis:
    def test_orthonormal_on_the_rule(self, grid):
        rule = exact_rule(grid)
        basis = grid.basis_at(rule.nodes)
        gram = (rule.weights[:, None] * basis).T @ basis
        assert np.max(np.abs(gram - np.eye(grid.degrees.size))) < 1e-13

    def test_orthonormal_on_the_circle(self):
        # at n = 2 the basis is 1/sqrt(2 pi), cos m phi/sqrt(pi), sin m phi/sqrt(pi)
        circle = SphereGrid(2, L)
        assert_allclose(np.bincount(circle.degrees), [1] + [2] * L)
        rule = exact_rule(circle)
        basis = circle.basis_at(rule.nodes)
        gram = (rule.weights[:, None] * basis).T @ basis
        assert np.max(np.abs(gram - np.eye(circle.degrees.size))) < 1e-13

    def test_slot_count(self, grid):
        # dim H_k on S^2 is 2k+1, on S^3 (k+1)^2
        k = np.arange(L + 1)
        dims = 2 * k + 1 if grid.n == 3 else (k + 1) ** 2
        assert_allclose(np.bincount(grid.degrees), dims)
        rule = exact_rule(grid)
        assert grid.basis_at(rule.nodes).shape == (len(rule.nodes), dims.sum())

    def test_basis_at_nodes(self, grid):
        # leading axes of the points are kept, values are per point
        points = exact_rule(grid).nodes[:12]
        assert np.array_equal(grid.basis_at(points.reshape(3, 4, grid.n)),
                              grid.basis_at(points).reshape(3, 4, -1))

    def test_orthonormal_on_s4(self):
        # n = 5 takes the polar parameters 3/2, 1, 1/2; dim H_k on S^4 is
        # (k+1)(k+2)(2k+3)/6
        grid5 = SphereGrid(5, 4)
        k = np.arange(5)
        assert_allclose(np.bincount(grid5.degrees), (k + 1) * (k + 2) * (2 * k + 3) // 6)
        rule = exact_rule(grid5)
        basis = grid5.basis_at(rule.nodes)
        gram = (rule.weights[:, None] * basis).T @ basis
        assert np.max(np.abs(gram - np.eye(grid5.degrees.size))) < 1e-14

    @pytest.mark.parametrize("degree", [20, 30])
    def test_orthonormal_at_high_degree(self, degree):
        # the closed form holds its digits off any rule; through monomial
        # coefficients the basis lost 3e-9 at L = 20 and 1e-3 at L = 30
        grid3 = SphereGrid(3, degree)
        rule = exact_rule(grid3)
        basis = grid3.basis_at(rule.nodes)
        gram = (rule.weights[:, None] * basis).T @ basis
        assert np.max(np.abs(gram - np.eye(grid3.degrees.size))) < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
           seed=st.integers(0, 2**32 - 1))
    def test_degree_norms_rotation_invariant(self, grid, entries, seed):
        # each H_k is O(n)-invariant and the rule is exact to degree 2L, so
        # Phi o Q^T has the same per-degree L^2 norms as Phi
        n = grid.n
        m = np.array(entries[:n * n]).reshape(n, n)
        assume(abs(np.linalg.det(m)) > 1e-3)
        q, _ = np.linalg.qr(m)
        exp = random_expansion(np.random.default_rng(seed), grid=grid)
        rule = exact_rule(grid)
        turned, = sh_analyze(lambda p: sh_synthesize(exp, grid, p @ q)[:, None], grid, rule)
        assert_allclose(degree_norms(turned, grid), degree_norms(exp, grid), rtol=1e-10)


class TestAnalyzeSynthesize:
    def test_constant_map(self):
        exp, = sh_analyze(lambda p: np.tile([1.0, -2.0, 0.5], (len(p), 1, 1)), GRID, RULE)
        assert np.max(np.abs(exp[:, 1:])) < 1e-13
        back = sh_synthesize(exp, GRID, polar(0.7, 1.1))
        assert_allclose(back, [1.0, -2.0, 0.5], atol=1e-13)

    def test_identity_map_is_degree_one(self):
        exp, = sh_analyze(lambda p: p[:, None], GRID, RULE)
        assert np.max(np.abs(exp[:, DEG != 1])) < 1e-13
        assert np.max(np.abs(exp[:, DEG == 1])) > 1.0

    def test_theta_closed_form_matches_analysis(self, grid):
        # (omega_n / n) basis_at(e_i) on the degree-1 slots, zero elsewhere
        exp, = sh_analyze(lambda p: p[:, None], grid, exact_rule(grid))
        assert np.max(np.abs(grid.theta - exp)) < 1e-13
        assert np.all(grid.theta[:, grid.degrees != 1] == 0.0)

    def test_stacked_maps_analyze_together(self):
        rng = np.random.default_rng(15)
        exps = [random_expansion(rng) for _ in range(3)]

        def sample(nodes):
            return np.stack([sh_synthesize(e, GRID, nodes) for e in exps], axis=1)

        coeffs = sh_analyze(sample, GRID, RULE)
        assert coeffs.shape == (3, 3, DEG.size)
        for one, e in zip(coeffs, exps):
            assert np.max(np.abs(one - e)) < 1e-10

    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(0)
        exp = random_expansion(rng)
        back, = sh_analyze(lambda p: sh_synthesize(exp, GRID, p)[:, None], GRID, RULE)
        assert np.max(np.abs(back - exp)) < 1e-10


def solve_at_end_zero(config, g1, g2):
    """(Phi, tilde Phi) that match_boundaries solves for end 0 from the gaps
    (g1, g2) there and none at end 1."""
    system = build_interaction_system(config)
    zero = np.zeros_like(g1)
    corr = match_boundaries(config, system.alpha, GRID, [(g1, g2), (zero, zero)],
                            gamma=system.gamma)
    return corr.phi[0], corr.phi_tilde[0]


class TestDtN:
    def test_interior_weight_kills_constants(self):
        rng = np.random.default_rng(1)
        coeffs = random_expansion(rng, degrees=[0])
        assert np.max(np.abs(coeffs * dtn_weights(GRID)[0])) == 0.0

    def test_exterior_weight_degree_one(self):
        rng = np.random.default_rng(2)
        coeffs = random_expansion(rng, degrees=[1])
        assert_allclose(coeffs * dtn_weights(GRID)[1], -2.0 * coeffs, atol=1e-15)

    def test_difference_degree_two(self):
        rng = np.random.default_rng(3)
        coeffs = random_expansion(rng, degrees=[2])
        interior, exterior = dtn_weights(GRID)
        assert_allclose(coeffs * exterior - coeffs * interior, -5.0 * coeffs, atol=1e-15)

    def test_eigenvalues_strictly_negative(self):
        eigs = -(2.0 * DEG + 1.0)
        assert np.all(eigs < 0)
        interior, exterior = dtn_weights(GRID)
        assert np.array_equal(exterior - interior, eigs)

    def test_solve_zero_right_hand_side(self, flagship):
        # g2 = P_int g1 leaves (P_ext - P_int) Phi = 0: Phi = 0, tilde Phi = -g1
        g1 = split_theta(random_expansion(np.random.default_rng(4)), GRID)[1]
        phi, phi_tilde = solve_at_end_zero(flagship, g1, g1 * dtn_weights(GRID)[0])
        assert np.max(np.abs(phi)) < 1e-15
        assert np.max(np.abs(phi_tilde + g1)) < 1e-15

    def test_solve_degree_zero(self, flagship):
        # -(2k+n-2) is -1 on the constants at n = 3
        rhs = random_expansion(np.random.default_rng(4), degrees=[0])
        phi, phi_tilde = solve_at_end_zero(flagship, np.zeros_like(rhs), rhs)
        assert_allclose(phi, -rhs, atol=1e-16)
        assert np.array_equal(phi_tilde, phi)

    def test_round_trip(self, flagship):
        rhs = split_theta(random_expansion(np.random.default_rng(5)), GRID)[1]
        phi, _ = solve_at_end_zero(flagship, np.zeros_like(rhs), rhs)
        interior, exterior = dtn_weights(GRID)
        assert np.max(np.abs(phi * exterior - phi * interior - rhs)) < 1e-12


class TestHarmonicExtension:
    def test_boundary_identity(self):
        rng = np.random.default_rng(6)
        exp = random_expansion(rng)
        x = polar(0.9, 2.0)
        assert_allclose(harmonic_extension(exp, GRID, "interior", x),
                        sh_synthesize(exp, GRID, x), atol=1e-13)

    def test_exterior_degree_one_decay(self):
        rng = np.random.default_rng(7)
        exp = random_expansion(rng, degrees=[1])
        x = polar(1.2, 0.3)
        vals = harmonic_extension(exp, GRID, "exterior", 2.0 * x)
        assert_allclose(vals, 0.25 * sh_synthesize(exp, GRID, x), atol=1e-14)

    def test_exterior_tends_to_zero(self):
        rng = np.random.default_rng(8)
        exp = random_expansion(rng)
        far = harmonic_extension(exp, GRID, "exterior", 1e4 * polar(1.0, 1.0))
        assert np.max(np.abs(far)) < 1e-3

    def test_side_guards(self):
        exp = np.zeros((GRID.n, DEG.size))
        with pytest.raises(ValueError):
            harmonic_extension(exp, GRID, "interior", 1.5 * polar(0.5, 0.5))
        with pytest.raises(ValueError):
            harmonic_extension(exp, GRID, "exterior", 0.5 * polar(0.5, 0.5))

    def test_radial_derivative_matches_operators(self, grid):
        # one-sided five-point O(h^4) radial derivative at r = 1
        rng = np.random.default_rng(9)
        exp = random_expansion(rng, grid=grid)
        h = 3e-4  # exterior radial factors have large fifth derivatives at L=8
        x = rng.standard_normal(grid.n)
        x /= np.linalg.norm(x)
        stencil = np.array([25.0 / 12, -4.0, 3.0, -4.0 / 3, 0.25]) / h
        for side, weight, orient in zip(("interior", "exterior"), dtn_weights(grid),
                                        (-1.0, +1.0)):
            vals = sum(
                c * harmonic_extension(exp, grid, side, (1.0 + orient * k * h) * x)
                for k, c in enumerate(stencil)
            )
            # the backward stencil yields +f'; on forward points it flips sign
            fd = -orient * vals
            target = sh_synthesize(exp * weight, grid, x)
            assert np.max(np.abs(fd - target)) < 1e-8

    def test_fd_laplacian_vanishes(self, grid):
        # (2n+1)-point Cartesian Laplacian of the interior extension at
        # random interior points is O(h^2) small
        rng = np.random.default_rng(10)
        exp = random_expansion(rng, grid=grid)
        n = grid.n
        h = 3e-4  # the O(h^2) truncation reads ~1e-4 at h = 1e-3 on this draw
        for _ in range(5):
            p = rng.uniform(-0.4, 0.4, n)
            p[-1] += 0.3
            lap = -2.0 * n * harmonic_extension(exp, grid, "interior", p)
            for e in h * np.eye(n):
                lap = lap + harmonic_extension(exp, grid, "interior",
                                               np.stack([p + e, p - e])).sum(0)
            assert np.max(np.abs(lap / h**2)) < 1e-4  # ~ h^2 * degree^4 scale


class TestSplitTheta:
    def test_pure_collinear(self):
        c, orth = split_theta(3.7 * GRID.theta, GRID)
        assert abs(c - 3.7) < 1e-13
        assert l2(orth) < 1e-13

    def test_pure_orthogonal(self):
        rng = np.random.default_rng(11)
        exp = random_expansion(rng)
        _, orth = split_theta(exp, GRID)
        c2, _ = split_theta(orth, GRID)
        assert abs(c2) < 1e-13

    def test_reassembly(self):
        rng = np.random.default_rng(12)
        exp = random_expansion(rng)
        c, orth = split_theta(exp, GRID)
        back = orth + c * GRID.theta
        assert np.max(np.abs(back - exp)) < 1e-12

    def test_matches_integral_definition(self, grid):
        rng = np.random.default_rng(13)
        exp = random_expansion(rng, grid=grid)
        rule = exact_rule(grid)
        vals = sh_synthesize(exp, grid, rule.nodes)
        integral = float(np.sum(rule.weights * np.sum(vals * rule.nodes, axis=-1)))
        c, orth = split_theta(exp, grid)
        assert abs(c - integral / omega_n(grid.n)) < 1e-12
        assert abs(split_theta(orth, grid)[0]) < 1e-13


def forward_discrepancies(cfg, gamma, dalpha, dbeta, phis, phi_tildes):
    """Build the boundary discrepancies generated by known corrections."""
    eps, rho, n = cfg.epsilon, cfg.rho_star, cfg.n
    interior, exterior = dtn_weights(GRID)
    w = (eps / omega_n(n)) * (gamma @ dalpha) * rho
    u = eps * (dalpha - dbeta) * rho ** (1 - n)
    out = []
    for j in range(cfg.k):
        g1 = (phis[j] - phi_tildes[j]) + (u[j] + w[j]) * GRID.theta
        g2 = (phis[j] * exterior - phi_tildes[j] * interior) + ((1 - n) * u[j] + w[j]) * GRID.theta
        out.append((g1, g2))
    return out


class TestMatchBoundaries:
    def test_zero_discrepancy(self, flagship):
        system = build_interaction_system(flagship)
        zeros = [(np.zeros((3, DEG.size)), np.zeros((3, DEG.size))) for _ in range(2)]
        corr = match_boundaries(flagship, system.alpha, GRID, zeros, gamma=system.gamma)
        assert np.max(np.abs(corr.delta_alpha)) < 1e-15
        assert np.max(np.abs(corr.delta_beta)) < 1e-15
        for p in corr.phi + corr.phi_tilde:
            assert l2(p) == 0.0
        assert corr.residual_norm < 1e-15

    def test_collinear_only_single_end_two_by_two(self, flagship):
        # discrepancy collinear with Theta at one end only: Phi corrections
        # vanish and (u, w) comes from the exact 2x2 inversion
        system = build_interaction_system(flagship)
        c1, c2 = 3e-4, -1e-4
        disc = [
            (c1 * GRID.theta, c2 * GRID.theta),
            (np.zeros((3, DEG.size)), np.zeros((3, DEG.size))),
        ]
        corr = match_boundaries(flagship, system.alpha, GRID, disc, gamma=system.gamma)
        for p in corr.phi + corr.phi_tilde:
            assert l2(p) < 1e-18
        u0 = (c1 - c2) / 3.0
        w = np.array([c1 - u0, 0.0])
        expect_dalpha = np.linalg.solve(
            system.gamma, omega_n(3) * w / (flagship.epsilon * flagship.rho_star)
        )
        assert_allclose(corr.delta_alpha, expect_dalpha, atol=1e-10)
        beta_minus_alpha = corr.delta_beta - corr.delta_alpha
        assert abs(beta_minus_alpha[0] + u0 * flagship.rho_star**2 / flagship.epsilon) < 1e-10
        assert abs(beta_minus_alpha[1]) < 1e-12

    def test_plant_and_recover_sweep(self, flagship):
        system = build_interaction_system(flagship)
        scale = flagship.epsilon * flagship.rho_star**2
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(900 + trial)
            dalpha = rng.standard_normal(2)
            dbeta = rng.standard_normal(2)
            phis = [split_theta(random_expansion(rng, scale), GRID)[1] for _ in range(2)]
            phts = [split_theta(random_expansion(rng, scale), GRID)[1] for _ in range(2)]
            disc = forward_discrepancies(flagship, system.gamma, dalpha, dbeta, phis, phts)
            corr = match_boundaries(flagship, system.alpha, GRID, disc, gamma=system.gamma)
            err = max(
                np.max(np.abs(corr.delta_alpha - dalpha)),
                np.max(np.abs(corr.delta_beta - dbeta)),
                max(l2(corr.phi[j] - phis[j]) for j in range(2)),
                max(l2(corr.phi_tilde[j] - phts[j]) for j in range(2)),
            )
            worst = max(worst, err)
        assert worst < 1e-9

    def test_linearity(self, flagship):
        system = build_interaction_system(flagship)
        rng = np.random.default_rng(77)
        phis = [split_theta(random_expansion(rng, 1e-4), GRID)[1] for _ in range(2)]
        phts = [split_theta(random_expansion(rng, 1e-4), GRID)[1] for _ in range(2)]
        disc = forward_discrepancies(
            flagship, system.gamma, np.array([0.3, -0.2]), np.array([0.1, 0.5]), phis, phts
        )
        corr1 = match_boundaries(flagship, system.alpha, GRID, disc, gamma=system.gamma)
        disc3 = [(3.0 * a, 3.0 * b) for a, b in disc]
        corr3 = match_boundaries(flagship, system.alpha, GRID, disc3, gamma=system.gamma)
        assert_allclose(corr3.delta_alpha, 3.0 * corr1.delta_alpha, rtol=1e-12)
        assert_allclose(corr3.delta_beta, 3.0 * corr1.delta_beta, rtol=1e-12)
        for j in range(2):
            diff = corr3.phi[j] - 3.0 * corr1.phi[j]
            assert l2(diff) < 1e-12 * max(1.0, l2(corr1.phi[j]))

    def test_recovery_residual_reported(self, flagship):
        system = build_interaction_system(flagship)
        rng = np.random.default_rng(78)
        phis = [split_theta(random_expansion(rng, 1e-4), GRID)[1] for _ in range(2)]
        phts = [split_theta(random_expansion(rng, 1e-4), GRID)[1] for _ in range(2)]
        disc = forward_discrepancies(
            flagship, system.gamma, np.array([1.0, 2.0]), np.array([0.5, -1.0]), phis, phts
        )
        corr = match_boundaries(flagship, system.alpha, GRID, disc, gamma=system.gamma)
        assert corr.residual_norm < 1e-12
