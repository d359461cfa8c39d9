import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from neckglue.config import Configuration, build_interaction_system
from neckglue.matching import (
    MatchCorrection,
    SHExpansion,
    SphereGrid,
    dtn_solve,
    match_boundaries,
    p_ext,
    p_int,
    sh_analyze,
    split_theta,
)
from neckglue.quadrature import omega_n, product_gauss_rule

from oracles import harmonic_extension, sh_synthesize, zero_expansion


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
    return SHExpansion(grid, coeffs)


def polar(theta, phi):
    """The unit vector of S^2 at colatitude theta and azimuth phi."""
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def degree_norms(expansion):
    """L^2 norm of each degree-k part."""
    sq = np.sum(expansion.coeffs**2, axis=0)
    return np.sqrt(np.bincount(expansion.grid.degrees, weights=sq))


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
        turned = sh_analyze(sh_synthesize(exp, rule.nodes @ q), grid, rule)
        assert_allclose(degree_norms(turned), degree_norms(exp), rtol=1e-10)


class TestAnalyzeSynthesize:
    def test_constant_map(self):
        exp = sh_analyze(lambda p: np.tile([1.0, -2.0, 0.5], (len(p), 1)), GRID, RULE)
        assert np.max(np.abs(exp.coeffs[:, 1:])) < 1e-13
        back = sh_synthesize(exp, polar(0.7, 1.1))
        assert_allclose(back, [1.0, -2.0, 0.5], atol=1e-13)

    def test_identity_map_is_degree_one(self):
        exp = sh_analyze(lambda p: p, GRID, RULE)
        assert np.max(np.abs(exp.coeffs[:, DEG != 1])) < 1e-13
        assert np.max(np.abs(exp.coeffs[:, DEG == 1])) > 1.0

    def test_theta_closed_form_matches_analysis(self, grid):
        # (omega_n / n) basis_at(e_i) on the degree-1 slots, zero elsewhere
        exp = sh_analyze(lambda p: p, grid, exact_rule(grid))
        assert np.max(np.abs(grid.theta.coeffs - exp.coeffs)) < 1e-13
        assert np.all(grid.theta.coeffs[:, grid.degrees != 1] == 0.0)

    def test_stacked_maps_analyze_together(self):
        rng = np.random.default_rng(15)
        exps = [random_expansion(rng) for _ in range(3)]
        vals = np.stack([sh_synthesize(e, RULE.nodes) for e in exps], axis=1)
        for one, e in zip(sh_analyze(vals, GRID, RULE), exps):
            assert np.max(np.abs(one.coeffs - e.coeffs)) < 1e-10

    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(0)
        exp = random_expansion(rng)
        vals = sh_synthesize(exp, RULE.nodes)
        back = sh_analyze(vals, GRID, RULE)
        assert np.max(np.abs(back.coeffs - exp.coeffs)) < 1e-10

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(ValueError, match="under-resolved|analysis grid"):
            sh_analyze(np.zeros((4, 3)), GRID, RULE)


class TestDtN:
    def test_p_int_kills_constants(self):
        rng = np.random.default_rng(1)
        exp = random_expansion(rng, degrees=[0])
        assert np.max(np.abs(p_int(exp).coeffs)) == 0.0

    def test_p_ext_degree_one(self):
        rng = np.random.default_rng(2)
        exp = random_expansion(rng, degrees=[1])
        assert_allclose(p_ext(exp).coeffs, -2.0 * exp.coeffs, atol=1e-15)

    def test_difference_degree_two(self):
        rng = np.random.default_rng(3)
        exp = random_expansion(rng, degrees=[2])
        diff = p_ext(exp) - p_int(exp)
        assert_allclose(diff.coeffs, -5.0 * exp.coeffs, atol=1e-15)

    def test_eigenvalues_strictly_negative(self):
        eigs = -(2.0 * DEG + 1.0)
        assert np.all(eigs < 0)
        # basis sweep: the operator is exactly diagonal
        for slot in range(0, (L + 1) ** 2, 7):
            e = np.zeros((3, (L + 1) ** 2))
            e[1, slot] = 1.0
            diff = p_ext(SHExpansion(GRID, e)) - p_int(SHExpansion(GRID, e))
            assert np.max(np.abs(diff.coeffs - eigs[slot] * e)) == 0.0

    def test_dtn_solve_zero(self):
        out = dtn_solve(zero_expansion(GRID))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_dtn_solve_degree_zero(self):
        rng = np.random.default_rng(4)
        rhs = random_expansion(rng, degrees=[0])
        assert_allclose(dtn_solve(rhs).coeffs, -rhs.coeffs, atol=1e-16)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        rhs = random_expansion(rng)
        phi = dtn_solve(rhs)
        back = p_ext(phi) - p_int(phi)
        assert np.max(np.abs(back.coeffs - rhs.coeffs)) < 1e-12


class TestHarmonicExtension:
    def test_boundary_identity(self):
        rng = np.random.default_rng(6)
        exp = random_expansion(rng)
        x = polar(0.9, 2.0)
        assert_allclose(harmonic_extension(exp, "interior", x), sh_synthesize(exp, x),
                        atol=1e-13)

    def test_exterior_degree_one_decay(self):
        rng = np.random.default_rng(7)
        exp = random_expansion(rng, degrees=[1])
        x = polar(1.2, 0.3)
        vals = harmonic_extension(exp, "exterior", 2.0 * x)
        assert_allclose(vals, 0.25 * sh_synthesize(exp, x), atol=1e-14)

    def test_exterior_tends_to_zero(self):
        rng = np.random.default_rng(8)
        exp = random_expansion(rng)
        far = harmonic_extension(exp, "exterior", 1e4 * polar(1.0, 1.0))
        assert np.max(np.abs(far)) < 1e-3

    def test_side_guards(self):
        exp = zero_expansion(GRID)
        with pytest.raises(ValueError):
            harmonic_extension(exp, "interior", 1.5 * polar(0.5, 0.5))
        with pytest.raises(ValueError):
            harmonic_extension(exp, "exterior", 0.5 * polar(0.5, 0.5))

    def test_radial_derivative_matches_operators(self, grid):
        # one-sided five-point O(h^4) radial derivative at r = 1
        rng = np.random.default_rng(9)
        exp = random_expansion(rng, grid=grid)
        h = 3e-4  # exterior radial factors have large fifth derivatives at L=8
        x = rng.standard_normal(grid.n)
        x /= np.linalg.norm(x)
        stencil = np.array([25.0 / 12, -4.0, 3.0, -4.0 / 3, 0.25]) / h
        for side, op, orient in (("interior", p_int, -1.0), ("exterior", p_ext, +1.0)):
            vals = sum(
                c * harmonic_extension(exp, side, (1.0 + orient * k * h) * x)
                for k, c in enumerate(stencil)
            )
            # the backward stencil yields +f'; on forward points it flips sign
            fd = -orient * vals
            target = sh_synthesize(op(exp), x)
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
            lap = -2.0 * n * harmonic_extension(exp, "interior", p)
            for e in h * np.eye(n):
                lap = lap + harmonic_extension(exp, "interior", np.stack([p + e, p - e])).sum(0)
            assert np.max(np.abs(lap / h**2)) < 1e-4  # ~ h^2 * degree^4 scale


class TestSplitTheta:
    def test_pure_collinear(self):
        c, orth = split_theta(3.7 * GRID.theta)
        assert abs(c - 3.7) < 1e-13
        assert orth.norm() < 1e-13

    def test_pure_orthogonal(self):
        rng = np.random.default_rng(11)
        exp = random_expansion(rng)
        _, orth = split_theta(exp)
        c2, _ = split_theta(orth)
        assert abs(c2) < 1e-13

    def test_reassembly(self):
        rng = np.random.default_rng(12)
        exp = random_expansion(rng)
        c, orth = split_theta(exp)
        back = orth + c * GRID.theta
        assert np.max(np.abs(back.coeffs - exp.coeffs)) < 1e-12

    def test_matches_integral_definition(self, grid):
        rng = np.random.default_rng(13)
        exp = random_expansion(rng, grid=grid)
        rule = exact_rule(grid)
        vals = sh_synthesize(exp, rule.nodes)
        integral = float(np.sum(rule.weights * np.sum(vals * rule.nodes, axis=-1)))
        c, orth = split_theta(exp)
        assert abs(c - integral / omega_n(grid.n)) < 1e-12
        assert abs(split_theta(orth)[0]) < 1e-13


def forward_discrepancies(cfg, gamma, dalpha, dbeta, phis, phi_tildes):
    """Build the boundary discrepancies generated by known corrections."""
    eps, rho, n = cfg.epsilon, cfg.rho_star, cfg.n
    theta_exp = GRID.theta
    w = (eps / omega_n(n)) * (gamma @ dalpha) * rho
    u = eps * (dalpha - dbeta) * rho ** (1 - n)
    out = []
    for j in range(cfg.k):
        g1 = (phis[j] - phi_tildes[j]) + (u[j] + w[j]) * theta_exp
        g2 = (p_ext(phis[j]) - p_int(phi_tildes[j])) + ((1 - n) * u[j] + w[j]) * theta_exp
        out.append((g1, g2))
    return out


class TestMatchBoundaries:
    def test_zero_discrepancy(self, flagship):
        system = build_interaction_system(flagship)
        zeros = [(zero_expansion(GRID), zero_expansion(GRID)) for _ in range(2)]
        corr = match_boundaries(flagship, system.alpha, zeros)
        assert np.max(np.abs(corr.delta_alpha)) < 1e-15
        assert np.max(np.abs(corr.delta_beta)) < 1e-15
        for p in corr.phi + corr.phi_tilde:
            assert p.norm() == 0.0
        assert corr.residual_norm < 1e-15

    def test_collinear_only_single_end_two_by_two(self, flagship):
        # discrepancy collinear with Theta at one end only: Phi corrections
        # vanish and (u, w) comes from the exact 2x2 inversion
        system = build_interaction_system(flagship)
        theta_exp = GRID.theta
        c1, c2 = 3e-4, -1e-4
        disc = [
            (c1 * theta_exp, c2 * theta_exp),
            (zero_expansion(GRID), zero_expansion(GRID)),
        ]
        corr = match_boundaries(flagship, system.alpha, disc)
        for p in corr.phi + corr.phi_tilde:
            assert p.norm() < 1e-18
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
            phis = [split_theta(random_expansion(rng, scale))[1] for _ in range(2)]
            phts = [split_theta(random_expansion(rng, scale))[1] for _ in range(2)]
            disc = forward_discrepancies(flagship, system.gamma, dalpha, dbeta, phis, phts)
            corr = match_boundaries(flagship, system.alpha, disc)
            err = max(
                np.max(np.abs(corr.delta_alpha - dalpha)),
                np.max(np.abs(corr.delta_beta - dbeta)),
                max((corr.phi[j] - phis[j]).norm() for j in range(2)),
                max((corr.phi_tilde[j] - phts[j]).norm() for j in range(2)),
            )
            worst = max(worst, err)
        assert worst < 1e-9

    def test_linearity(self, flagship):
        system = build_interaction_system(flagship)
        rng = np.random.default_rng(77)
        phis = [split_theta(random_expansion(rng, 1e-4))[1] for _ in range(2)]
        phts = [split_theta(random_expansion(rng, 1e-4))[1] for _ in range(2)]
        disc = forward_discrepancies(
            flagship, system.gamma, np.array([0.3, -0.2]), np.array([0.1, 0.5]), phis, phts
        )
        corr1 = match_boundaries(flagship, system.alpha, disc)
        disc3 = [(3.0 * a, 3.0 * b) for a, b in disc]
        corr3 = match_boundaries(flagship, system.alpha, disc3)
        assert_allclose(corr3.delta_alpha, 3.0 * corr1.delta_alpha, rtol=1e-12)
        assert_allclose(corr3.delta_beta, 3.0 * corr1.delta_beta, rtol=1e-12)
        for j in range(2):
            diff = corr3.phi[j] - 3.0 * corr1.phi[j]
            assert diff.norm() < 1e-12 * max(1.0, corr1.phi[j].norm())

    def test_recovery_residual_reported(self, flagship):
        system = build_interaction_system(flagship)
        rng = np.random.default_rng(78)
        phis = [split_theta(random_expansion(rng, 1e-4))[1] for _ in range(2)]
        phts = [split_theta(random_expansion(rng, 1e-4))[1] for _ in range(2)]
        disc = forward_discrepancies(
            flagship, system.gamma, np.array([1.0, 2.0]), np.array([0.5, -1.0]), phis, phts
        )
        corr = match_boundaries(flagship, system.alpha, disc)
        assert corr.residual_norm < 1e-12
