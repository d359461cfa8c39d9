import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue.assembler import (
    GridSpec,
    assemble,
    boundary_gap,
    curvature_report,
    export_csv,
    export_ply,
    matching_step,
)
from neckglue import assembler
from neckglue.assembler import _boundary_samples
from neckglue.config import Configuration, build_interaction_system
from neckglue.green import GreenData, green_eval
from neckglue.geometry import ImmersionPatch, sphere_chart
from neckglue.matching import SphereGrid, split_theta
from neckglue.neck import NeckParams, default_angle_grids, neck_patch, s_of_radius, s_to_t
from neckglue.quadrature import omega_n, product_gauss_rule

from conftest import flagship_at, quarter_turn_n5, random_orthogonal
from oracles import hausdorff_to_planes, point_rows

COARSE = GridSpec(neck_s_nodes=32, neck_angle_nodes=(17, 32), outer_spacing=0.3)
# the gap rows are sampled on the default 32-node rule; they do not depend
# on the expansion degree
RULE3 = product_gauss_rule(3, 32)


def default_grid(cfg):
    """The grids that parse_config resolves when the options omit them; the
    gap pass and the matching step build no patch, so the tests that stop
    there never grid them."""
    return GridSpec(48, [24] * (cfg.n - 2) + [48], cfg.rho_star / 4.0)


def build_flagship_surface(eps=1e-4, grid=COARSE):
    cfg = flagship_at(eps)
    system = build_interaction_system(cfg)
    return cfg, system, assemble(cfg, system.alpha, grid)


def truncation(eps, rho, beta, n=3):
    """(s_*, t_*) of a neck of scale beta whose lower circle has radius rho."""
    s_star = s_of_radius(NeckParams(n=n, beta=beta, epsilon=eps), rho)
    return s_star, float(s_to_t(s_star, n))


class TestScales:
    def test_defining_identities(self):
        s_star, t_star = truncation(1e-4, 0.2, 1.0)
        lhs = (3 * 1.0 * 1e-4) ** (1 / 3) * math.cos(s_star) * math.sin(3 * s_star) ** (-1 / 3)
        assert abs(lhs - 0.2) < 1e-12 * 0.2
        assert abs(math.exp(-3 * t_star) - math.sin(3 * s_star) / (1 - math.cos(3 * s_star))) < 1e-10
        assert t_star < 0

    def test_regression_value(self):
        # frozen from the bisection oracle: sin(3 s) = 3e-4 cos^3(s)/0.008
        s_star, _ = truncation(1e-4, 0.2, 1.0)
        assert abs(s_star - 0.012500000061046504) < 1e-12

    def test_epsilon_limit(self):
        prev_s, prev_t = math.inf, math.inf
        for eps in (1e-3, 1e-5, 1e-7):
            s_star, t_star = truncation(eps, 0.2, 1.0)
            assert s_star < prev_s and t_star < prev_t
            prev_s, prev_t = s_star, t_star
        assert s_star < 2e-5 and t_star < -3

    def test_consistency_with_coordinate_change(self):
        # assemble truncates each neck at its own scale: s_* from its
        # NeckParams, t_* the same point in the t chart
        surf = assemble(flagship_at(1e-3, 0.3), [4.0, 12.0], COARSE, beta=[2.0, 1.0])
        for beta, scales in zip((2.0, 1.0), surf.scales):
            assert scales["s_star"] == truncation(1e-3, 0.3, beta)[0]
            assert abs(scales["t_star"] - float(s_to_t(scales["s_star"], 3))) < 1e-14

    def test_unreachable_rho(self):
        with pytest.raises(ValueError, match="neck too large"):
            truncation(1e-3, 0.05, 12.0)
        with pytest.raises(ValueError, match=r"^end 0 \(alpha_0 = 4\): neck too large.*; "
                                             r"raise rho_star or lower epsilon$"):
            assemble(flagship_at(1e-3, 0.05), [4.0, 12.0], COARSE)
        # with neck scales of their own, the message names beta_j too
        with pytest.raises(ValueError, match=r"^end 1 \(alpha_1 = 12, beta_1 = 50\): neck "):
            assemble(flagship_at(1e-3, 0.3), [4.0, 12.0], COARSE, beta=[2.0, 50.0])


class TestAssemble:
    def test_flagship_structure(self):
        cfg, system, surf = build_flagship_surface()
        assert surf.config is cfg
        assert_allclose(surf.alpha, [4.0, 12.0], atol=1e-12)
        # the patches are built on first use and then kept
        assert "necks" not in vars(surf) and "outer" not in vars(surf)
        assert len(surf.necks) == 2 and surf.necks is surf.necks
        assert surf.outer is surf.outer

    def test_boundary_radius_invariant(self):
        cfg, system, surf = build_flagship_surface()
        for j, patch in enumerate(surf.necks):
            lower = patch.samples[0, ..., :3] - cfg.points[j]
            r_low = np.linalg.norm(lower, axis=-1)
            assert np.max(np.abs(r_low - cfg.rho_star)) < 1e-10
            # upper circle: radius rho_* in the rotated frame; |X| cos(s_*)
            s_star = surf.scales[j]["s_star"]
            rel = patch.samples[-1].copy()
            rel -= surf.neck_params[j].translation
            r_up = np.linalg.norm(rel, axis=-1) * math.cos(s_star)
            assert np.max(np.abs(r_up - cfg.rho_star)) < 1e-10

    def test_translation_constant_is_regular_part(self):
        cfg, system, surf = build_flagship_surface()
        data = GreenData(cfg, system.alpha)
        for j in range(2):
            assert_allclose(surf.neck_params[j].translation[3:],
                            cfg.epsilon * green_eval(data, cfg.points[j], skip=j), atol=1e-16)

    def test_rescaling_identity(self):
        cfg, system, surf = build_flagship_surface()
        eps = cfg.epsilon
        for j in range(2):
            rel = surf.necks[j].samples.copy()
            rel -= surf.neck_params[j].translation
            rel *= eps ** (-1.0 / 3.0)
            ref_params = NeckParams(
                n=3, beta=float(system.alpha[j]), epsilon=1.0,
                rotation=cfg.rotations[j],
            )
            t_grid = np.linspace(surf.scales[j]["t_star"], -surf.scales[j]["t_star"],
                                 COARSE.neck_s_nodes)
            ref = neck_patch(
                ref_params, angle_grids=default_angle_grids(3, (17, 32), margin=0.4),
                t_grid=t_grid,
            )
            assert np.max(np.abs(rel - ref.samples)) < 1e-10

    def test_single_end_flat_background(self):
        cfg = Configuration(3, [np.zeros(3)], [np.eye(3)], np.zeros((3, 3)), 1e-4, 0.2)
        surf = assemble(cfg, np.array([1.0]), COARSE)
        gaps, _ = boundary_gap(surf, RULE3, 1)
        # the whole gap is the lower-end expansion remainder <= C eps^3 rho^{1-3n}
        bound = cfg.epsilon**3 * cfg.rho_star ** (1 - 9)
        assert gaps[0]["position_gap_sup"] < bound

    def test_unset_outer_spacing_resolves_to_a_quarter_rho_star(self):
        # configs/flagship.json sets no outer_spacing: parse_config fills it
        # in, and the outer patch is gridded on it
        from neckglue.cli import parse_config

        cfg, options = parse_config(str(Path(__file__).resolve().parents[1] / "configs"
                                        / "flagship.json"))
        grid = GridSpec(8, (5, 8), options["outer_spacing"])
        surf = assemble(cfg, build_interaction_system(cfg).alpha, grid)
        assert surf.outer.spacings == (cfg.rho_star / 4,) * 3

    def test_gap_pass_and_matching_build_no_patch(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a patch was built")

        monkeypatch.setattr(assembler, "neck_patch", refused)
        monkeypatch.setattr(assembler, "graph_patch", refused)
        cfg = flagship_at(1e-4)
        system = build_interaction_system(cfg)
        surf = assemble(cfg, system.alpha, default_grid(cfg))
        rule = RULE3
        step = matching_step(surf, system.gamma, boundary_gap(surf, rule, 8)[1], rule, 8)
        assert step["residual_norm"] < 1e-10 and step["max_relative_delta"] < 0.1
        with pytest.raises(AssertionError, match="a patch was built"):
            surf.necks

    def test_rejects_nonpositive_alpha(self):
        cfg = flagship_at(1e-4)
        with pytest.raises(ValueError):
            assemble(cfg, np.array([4.0, -1.0]), COARSE)
        with pytest.raises(ValueError, match="positive neck scales"):
            assemble(cfg, np.array([4.0, 12.0]), COARSE, beta=[4.0, 0.0])


class TestBoundaryGap:
    def test_sampler_sides_share_base_points(self):
        # both sides of the sampler sit over x_j + rho_* Theta with radial
        # x-tangent Theta, and the neck side is the neck patch's lower row
        cfg, _, surf = build_flagship_surface()
        grids = default_angle_grids(3, COARSE.neck_angle_nodes, margin=0.4)
        theta = sphere_chart(np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1))
        for j in range(2):
            neck, neck_dr, outer, outer_dr = _boundary_samples(surf, j, theta)
            # s_* solves r(s_*) = rho_* to the bisection's 1e-13 relative
            assert np.max(np.abs(neck[..., :3] - outer[..., :3])) < 1e-12 * cfg.rho_star
            assert np.array_equal(outer[..., :3], cfg.points[j] + cfg.rho_star * theta)
            assert np.array_equal(outer_dr[..., :3], theta)
            assert np.max(np.abs(neck_dr[..., :3] - theta)) < 1e-14
            assert np.max(np.abs(neck - surf.necks[j].samples[0])) < 1e-12

    def test_monotone_in_epsilon(self):
        sups = []
        for eps in (1e-3, 3e-4, 1e-4, 3e-5):
            _, _, surf = build_flagship_surface(eps)
            gaps, _ = boundary_gap(surf, RULE3, 1)
            sups.append(max(g["position_gap_sup"] for g in gaps))
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_collinear_gap_balanced_order_at_least_two(self):
        # at matched alpha the Theta-collinear projection of the gap is
        # the neck remainder alone: log-log slope ~ 3 in eps (>= 2); the
        # sup gap keeps the orthogonal linear term and decays like eps
        # (so does the conormal angle, its radial derivative)
        eps_values = [1e-3, 3e-4, 1e-4]
        colls, sups, angles = [], [], []
        for eps in eps_values:
            _, _, surf = build_flagship_surface(eps)
            gaps, _ = boundary_gap(surf, RULE3, 1)
            colls.append(max(g["collinear_gap_abs"] for g in gaps))
            sups.append(max(g["position_gap_sup"] for g in gaps))
            angles.append(max(g["conormal_angle_sup"] for g in gaps))
        slope_coll = np.polyfit(np.log(eps_values), np.log(colls), 1)[0]
        slope_sup = np.polyfit(np.log(eps_values), np.log(sups), 1)[0]
        slope_angle = np.polyfit(np.log(eps_values), np.log(angles), 1)[0]
        assert slope_coll >= 2.0
        assert abs(slope_coll - 3.0) < 0.3
        assert abs(slope_sup - 1.0) < 0.2
        assert abs(slope_angle - 1.0) < 0.2

    def test_collinear_gap_n5(self):
        # every gap is sampled on the 12^4-node product rule
        colls, sups = [], []
        for eps in (1e-5, 1e-6):
            cfg = quarter_turn_n5(eps)
            surf = assemble(cfg, build_interaction_system(cfg).alpha, default_grid(cfg))
            gaps, _ = boundary_gap(surf, product_gauss_rule(5, 12), 1)
            colls.append([g["collinear_gap_abs"] for g in gaps])
            sups.append([g["position_gap_sup"] for g in gaps])
        assert np.all(np.isfinite(colls)) and np.all(np.isfinite(sups))
        slopes = np.log10(np.array(colls[0]) / np.array(colls[1]))
        assert np.all(np.abs(slopes - 3.0) < 0.1)

    def test_blocks_of_nodes_match_one_block(self, monkeypatch):
        # one block of degree-8 expansions and 7-node blocks of degree-1 ones
        # give identical sups at n = 2, 3, 4; the collinear gap is the
        # coefficient c1 of the value gap's expansion, which equals its
        # definition, the weighted sum (1/omega_n) sum w (y_out - y_neck) .
        # R_j Theta written out here, on any rule and at any degree.  Its
        # terms cancel ~1e4-fold, so its rounding is measured against the
        # sum of their magnitudes
        from neckglue import matching

        n4 = two_ends_n4(1e-5)
        for cfg, grid, nodes in ((N2_CONFIG, N2_GRID, 32), (flagship_at(1e-4), COARSE, 32),
                                 (n4, default_grid(n4), 12)):
            n = cfg.n
            surf = assemble(cfg, build_interaction_system(cfg).alpha, grid)
            rule = product_gauss_rule(n, nodes)
            whole, _ = boundary_gap(surf, rule, 8)
            with monkeypatch.context() as patch:
                patch.setattr(matching, "_CHUNK_POINTS", 7)
                blocked, _ = boundary_gap(surf, rule, 1)
            for j, (one, blocks) in enumerate(zip(whole, blocked)):
                assert blocks["position_gap_sup"] == one["position_gap_sup"]
                assert blocks["conormal_angle_sup"] == one["conormal_angle_sup"]
                neck, _, outer, _ = _boundary_samples(surf, j, rule.nodes)
                terms = np.sum((outer[:, n:] - neck[:, n:]) * (rule.nodes @ cfg.rotations[j].T),
                               axis=1)
                direct = abs(rule.weights @ terms) / omega_n(n)
                scale = rule.weights @ np.abs(terms) / omega_n(n)
                for gaps in (one, blocks):
                    assert abs(gaps["collinear_gap_abs"] - direct) <= 1e-14 * scale, (n, j)
                assert abs(blocks["collinear_gap_abs"] - one["collinear_gap_abs"]) <= 1e-14 * scale

    def test_flagship_regression_values(self):
        # end-to-end run at eps = 1e-4, COARSE grid; frozen measured values
        _, _, surf = build_flagship_surface(1e-4)
        gaps, _ = boundary_gap(surf, RULE3, 1)
        assert_allclose(
            [g["position_gap_sup"] for g in gaps],
            [1.542334348783e-04, 6.795375137528e-05], rtol=1e-6,
        )
        assert_allclose(
            [g["collinear_gap_abs"] for g in gaps],
            [1.268723546255e-08, 3.426081555743e-07], rtol=1e-5,
        )
        assert_allclose(
            [s["s_star"] for s in surf.scales],
            [4.389574760273287e-03, 1.316872435905128e-02], rtol=1e-10,
        )

    def test_rule_sups_match_a_dense_chart_grid(self):
        # the sups over the 32^2-node rule sit within 5e-3 relative of the
        # sups over a 400 x 800 chart grid that reaches the poles
        _, _, surf = build_flagship_surface(1e-4)
        gaps, _ = boundary_gap(surf, RULE3, 1)
        grids = default_angle_grids(3, (400, 800), margin=0.0)
        theta = sphere_chart(np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1))
        for j, gap in enumerate(gaps):
            neck, neck_dr, outer, outer_dr = _boundary_samples(surf, j, theta)
            cosang = np.sum(neck_dr * outer_dr, axis=-1) / (
                np.linalg.norm(neck_dr, axis=-1) * np.linalg.norm(outer_dr, axis=-1))
            dense = {"position_gap_sup": np.max(np.linalg.norm(neck - outer, axis=-1)),
                     "conormal_angle_sup": np.max(np.arccos(np.clip(cosang, -1.0, 1.0)))}
            for key, sup in dense.items():
                assert abs(gap[key] - sup) < 5e-3 * sup, (j, key)

    def test_perturbed_alpha_dominates_gap(self):
        # off balance, the gap is dominated by the linear-in-rho mismatch
        cfg = flagship_at(1e-4)
        system = build_interaction_system(cfg)
        delta = 0.1 * system.alpha
        surf_bal = assemble(cfg, system.alpha, COARSE)
        surf_off = assemble(cfg, system.alpha + delta, COARSE)
        g_bal = np.array([g["position_gap_sup"] for g in boundary_gap(surf_bal, RULE3, 1)[0]])
        g_off = np.array([g["position_gap_sup"] for g in boundary_gap(surf_off, RULE3, 1)[0]])
        predicted = cfg.epsilon / omega_n(3) * np.abs(system.gamma @ delta) * cfg.rho_star
        # the extra gap contribution matches the linear term within 10%
        extra = g_off - g_bal
        assert np.all(np.abs(extra - predicted) < 0.1 * predicted + 0.2 * g_bal)


def rotated_flagship(eps, q):
    """The flagship under the common rotation q: points q x_j, twists
    q R_j q^T, A0 -> q A0 q^T (Gamma, Lambda and alpha are unchanged)."""
    cfg = flagship_at(eps)
    return Configuration(3, cfg.points @ q.T, [q @ r @ q.T for r in cfg.rotations],
                         q @ cfg.A0 @ q.T, eps, cfg.rho_star)


def measured_matching(cfg, degree=8, grid=COARSE, nodes=32):
    system = build_interaction_system(cfg)
    surf = assemble(cfg, system.alpha, grid or default_grid(cfg))
    rule = product_gauss_rule(cfg.n, nodes)
    return matching_step(surf, system.gamma, boundary_gap(surf, rule, degree)[1], rule, degree)


TWIST4 = np.eye(4)[[0, 2, 1, 3]] * np.array([1.0, -1.0, 1.0, 1.0])[:, None]  # e2 -> e3


def two_ends_n4(eps, q=np.eye(4)):
    """Two ends at +-e1 of R^4, the second twisted in (e2, e3), A0 = I
    (alpha = (16, 32)), under the common rotation q."""
    points = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    return Configuration(4, points @ q.T, [q @ r @ q.T for r in (np.eye(4), TWIST4)],
                         np.eye(4), eps, 0.45)


N4_EPS = (1e-4, 1e-5, 1e-6)
N2_CONFIG = Configuration(2, [[1.0, 0.0], [-1.0, 0.0]], [np.eye(2), np.diag([1.0, -1.0])],
                          np.diag([3.0, 1.0]), 1e-4, 0.45)
N2_GRID = GridSpec(neck_s_nodes=8, neck_angle_nodes=(8,), outer_spacing=0.3)


@pytest.fixture(scope="module")
def n4_steps():
    return {eps: measured_matching(two_ends_n4(eps), grid=None) for eps in N4_EPS}


class TestMatchingStep:
    def test_flagship_correction_small(self):
        # measured in each end's frame, the correction is a small fraction of
        # the solved scales (~0.046); measured against Theta it read ~3
        step = measured_matching(flagship_at(1e-4))
        alpha = np.array([4.0, 12.0])
        assert np.max(np.abs(step["delta_alpha"]) / alpha) < 0.1
        assert step["max_relative_delta"] < 0.1
        assert step["residual_norm"] < 1e-10

    def test_flagship_analysis_converged_on_the_glue_rule(self):
        # on the 32-node rule the gaps' degree > 8 content no longer aliases
        # into the analysis: the orthogonal correction Phi is zero (it read
        # 9e-11 on an 18-node rule) and a 48-node rule moves delta_alpha by
        # less than 1e-10 relative
        step = measured_matching(flagship_at(1e-4))
        finer = measured_matching(flagship_at(1e-4), nodes=48)
        assert_allclose(step["delta_alpha"], finer["delta_alpha"], rtol=1e-10)
        assert max(step["phi_l2"]) < 1e-15
        assert (step["sh_degree"], step["rule_nodes"]) == (8, 32 ** 2)

    def test_delta_alpha_quadratic_in_epsilon(self):
        eps_values = [1e-4, 1e-5, 1e-6]
        sizes = [np.max(np.abs(measured_matching(flagship_at(eps))["delta_alpha"]))
                 for eps in eps_values]
        slope = np.polyfit(np.log(eps_values), np.log(sizes), 1)[0]
        assert 1.8 <= slope <= 2.2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delta_alpha_invariant_under_common_rotation(self, seed):
        q = random_orthogonal(3, np.random.default_rng(seed))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        base = measured_matching(flagship_at(1e-4))["delta_alpha"]
        turned = measured_matching(rotated_flagship(1e-4, q))["delta_alpha"]
        assert np.max(np.abs(turned - base)) < 1e-3 * np.max(np.abs(base))

    def test_needs_n3(self):
        # at n = 2 the gaps expand on the circle, but the DtN difference
        # -(2k+n-2) vanishes on constants and match_boundaries refuses
        system = build_interaction_system(N2_CONFIG)
        surf = assemble(N2_CONFIG, system.alpha, N2_GRID)
        rule = product_gauss_rule(2, 32)
        _, discrepancies = boundary_gap(surf, rule, 8)
        with pytest.raises(ValueError, match="vanishes on constants at n = 2"):
            matching_step(surf, system.gamma, discrepancies, rule, 8)

    def test_n4_delta_alpha_quadratic_in_epsilon(self, n4_steps):
        sizes = [np.max(np.abs(n4_steps[eps]["delta_alpha"])) for eps in N4_EPS]
        slope = np.polyfit(np.log(N4_EPS), np.log(sizes), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_n4_gate_passes_at_small_epsilon(self, n4_steps):
        # at eps = 1e-4 the neck scale (4 * 16 eps)^{1/4} = 0.28 nearly
        # reaches rho_* = 0.45 and the step is no correction (~20)
        step = n4_steps[1e-6]
        assert step["max_relative_delta"] < 0.1
        assert step["residual_norm"] < 1e-10
        assert n4_steps[1e-4]["max_relative_delta"] > 0.1

    def test_n4_delta_alpha_invariant_under_common_rotation(self, n4_steps):
        q = random_orthogonal(4, np.random.default_rng(1))
        base = n4_steps[1e-6]["delta_alpha"]
        turned = measured_matching(two_ends_n4(1e-6, q), grid=None)["delta_alpha"]
        assert np.max(np.abs(turned - base)) < 1e-3 * np.max(np.abs(base))


def collinear_gaps(cfg, alpha, beta, rule):
    """(c1_j, c2_j): the Theta coefficients of each end's value and conormal
    gap on the surface with outer scales alpha and neck scales beta."""
    _, discrepancies = boundary_gap(assemble(cfg, alpha, default_grid(cfg), beta=beta), rule, 8)
    grid = SphereGrid(cfg.n, 8)
    return np.array([[split_theta(value, grid)[0], split_theta(conormal, grid)[0]]
                     for value, conormal in discrepancies])


class TestMatchingOrientation:
    """The reported step against the surface it corrects: delta_alpha and
    delta_beta are current - solved, so the solved scales are alpha -
    delta_alpha (outer graph) and alpha - delta_beta (necks)."""

    RULE = product_gauss_rule(3, 32)
    RULE4 = product_gauss_rule(4, 17)

    def reported_step(self, cfg, rule):
        system = build_interaction_system(cfg)
        surf = assemble(cfg, system.alpha, default_grid(cfg))
        _, discrepancies = boundary_gap(surf, rule, 8)
        return system.alpha, matching_step(surf, system.gamma, discrepancies, rule, 8)

    def fed_back_gaps(self, cfg, rule):
        """sup|c1, c2| before the step, after it, and after it with delta_beta
        - delta_alpha of the other sign."""
        alpha, step = self.reported_step(cfg, rule)
        da, db = step["delta_alpha"], step["delta_beta"]
        return [np.abs(collinear_gaps(cfg, alpha - outer, alpha - neck, rule)).max()
                for outer, neck in ((0.0, 0.0), (da, db), (da, 2 * da - db))]

    def newton_discrepancy(self, cfg, rule):
        """The reported step and minus the Newton step of (c1, c2) in (alpha,
        beta), from central differences."""
        alpha, step = self.reported_step(cfg, rule)
        x0 = np.concatenate([alpha, alpha])
        k = len(alpha)

        def gaps(x):
            return collinear_gaps(cfg, x[:k], x[k:], rule).ravel()

        jac = np.empty((2 * k, 2 * k))
        for i in range(2 * k):
            dx = np.zeros(2 * k)
            dx[i] = 1e-4 * x0[i]
            jac[:, i] = (gaps(x0 + dx) - gaps(x0 - dx)) / (2 * dx[i])
        newton = np.linalg.solve(jac, -gaps(x0))
        return -np.concatenate([step["delta_alpha"], step["delta_beta"]]), newton

    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_fed_back_step_contracts_the_collinear_gaps(self, eps):
        # measured: sup|c1, c2| falls 188x at eps = 1e-4 and 2.0e4x at
        # 1e-5; with delta_beta - delta_alpha of the other sign it grows 1.5x
        before, after, flipped = self.fed_back_gaps(flagship_at(eps), self.RULE)
        assert after * 100 <= before
        assert flipped > before

    def test_step_is_minus_the_newton_step_of_the_measured_gaps(self):
        # central differences at eps = 1e-5; the components agree to 2e-3
        # relative
        reported, newton = self.newton_discrepancy(flagship_at(1e-5), self.RULE)
        assert_allclose(reported, newton, rtol=1e-2)

    def test_n4_fed_back_step_contracts_the_collinear_gaps(self):
        # measured at eps = 1e-6 on the 17^3-node rule: 2.35e-9 -> 1.68e-12
        # (1,400x); with delta_beta - delta_alpha flipped, 3.85e-9
        before, after, flipped = self.fed_back_gaps(two_ends_n4(1e-6), self.RULE4)
        assert after * 100 <= before
        assert flipped > before

    def test_n4_step_is_minus_the_newton_step_of_the_measured_gaps(self):
        # the components agree to 5.8e-3 relative
        reported, newton = self.newton_discrepancy(two_ends_n4(1e-6), self.RULE4)
        assert_allclose(reported, newton, rtol=1e-2)


class TestCurvature:
    def test_neck_floor_refines_second_order(self):
        cfg, system, surf1 = build_flagship_surface(1e-4, COARSE)
        fine = GridSpec(neck_s_nodes=63, neck_angle_nodes=(33, 64), outer_spacing=0.6)
        surf2 = assemble(cfg, system.alpha, fine)
        r1 = curvature_report(surf1)
        r2 = curvature_report(surf2)
        for j in range(2):
            ratio = r1["necks"][j]["sup"] / r2["necks"][j]["sup"]
            assert 2.5 < ratio < 6.0

    def test_flat_configuration_zero(self):
        cfg = Configuration(3, [np.zeros(3)], [np.eye(3)], np.zeros((3, 3)), 1e-4, 0.2)
        data = GreenData(cfg, np.array([0.0]))
        from neckglue.green import graph_patch, graph_mean_curvature

        patch = graph_patch(data, 0.2)
        base = patch.samples[..., :3][patch.mask]
        H = graph_mean_curvature(data, base)
        assert np.max(np.abs(H)) < 1e-15

    def test_outer_analytic_sup_reported(self):
        _, _, surf = build_flagship_surface()
        rep = curvature_report(surf)
        assert rep["outer"]["sup_analytic"] > 0
        assert len(rep["outer"]["histogram_counts"]) == 12

    def test_outer_sup_regression_value(self):
        # frozen measured bound for the flagship run (eps = 1e-4, grid 0.3)
        _, _, surf = build_flagship_surface(1e-4)
        rep = curvature_report(surf)
        assert_allclose(rep["outer"]["sup_analytic"], 8.233425598125e-05, rtol=1e-6)


class TestEnds:
    def test_far_field_close_to_tilted_plane(self):
        # outer points far out lie within C eps |x|^{1-n} of {x + i eps A0 x}
        cfg = flagship_at(1e-4)
        system = build_interaction_system(cfg)
        data = GreenData(cfg, system.alpha)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-1, 1, 3)
            x = 16.0 * x / np.linalg.norm(x) * rng.uniform(1.0, 1.5)
            height = cfg.epsilon * green_eval(data, x)
            plane = cfg.epsilon * (cfg.A0 @ x)
            dist = np.linalg.norm(height - plane)
            bound = 2.0 * np.sum(system.alpha) * cfg.epsilon * \
                (np.linalg.norm(x) - 1.0) ** (1 - 3)
            assert dist < bound

    def test_hausdorff_monotone_in_epsilon(self):
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            _, _, surf = build_flagship_surface(eps)
            vals.append(hausdorff_to_planes(surf, exclusion=0.9))
        assert vals[0] > vals[1] > vals[2]


class TestExport:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        _, _, surf = build_flagship_surface()
        path = tmp_path / "surface.csv"
        export_csv(surf, str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        rows = point_rows([surf.outer, *surf.necks])
        assert np.array_equal(data, rows)

    def test_ply_header_and_reimport(self, tmp_path):
        _, _, surf = build_flagship_surface()
        path = tmp_path / "surface.ply"
        export_ply(surf, str(path))
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        header_end = lines.index("end_header")
        props = [l for l in lines[:header_end] if l.startswith("property")]
        # 6 ambient + patch id + 3 parameters
        assert len(props) == 10
        assert props[0] == "property double x"
        assert "property int patch_id" in props
        count_line = [l for l in lines[:header_end] if l.startswith("element vertex")][0]
        count = int(count_line.split()[-1])
        assert count == len(lines) - header_end - 1
        # re-imported coordinates match the samples bit-exactly
        body = np.loadtxt(path, skiprows=header_end + 1)
        rows = point_rows([surf.outer, *surf.necks])
        assert np.array_equal(body[:, :6], rows[:, 4:])

    def test_n2_neck_export(self, tmp_path):
        params = NeckParams(n=2, beta=1.0, epsilon=0.5)
        patch = neck_patch(
            params, angle_grids=(2 * math.pi * np.arange(16) / 16,),
            t_grid=np.linspace(-1, 1, 9),
        )
        path = tmp_path / "neck2.ply"
        export_ply([patch], str(path))
        with open(path) as fh:
            content = fh.read()
        assert "property double x" in content and "property double c3" in content

    def test_bad_path_raises_with_context(self):
        _, _, surf = build_flagship_surface()
        with pytest.raises(OSError, match="no/such/dir"):
            export_csv(surf, "/no/such/dir/out.csv")

    def test_each_format_alone(self, tmp_path):
        _, _, surf = build_flagship_surface()
        export_ply(surf, str(tmp_path / "s.ply"))
        export_csv(surf, str(tmp_path / "s.csv"))
        assert (tmp_path / "s.ply").read_text().startswith("ply\n")
        assert (tmp_path / "s.csv").read_text().startswith("patch_id,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.ply"]


def _neck_pair(n):
    """Two small n-dimensional neck patches, the second with masked nodes."""
    counts = (3,) * (n - 2) + (6,)
    grids = default_angle_grids(n, counts, margin=0.5)
    patches = [neck_patch(NeckParams(n=n, beta=beta, epsilon=0.3), angle_grids=grids,
                          t_grid=np.linspace(-1.0, 1.0, 5)) for beta in (1.0, 2.5)]
    patches[1].mask.flat[::5] = False
    return patches


def _reference_ply(patches):
    m, ambient = patches[0].m, patches[0].ambient_dim
    rows = point_rows(patches)
    names = ["x", "y", "z"] + [f"c{i}" for i in range(3, ambient)]
    lines = ["ply", "format ascii 1.0",
             "comment ambient space is R^{2n}; x y z are the first three ambient "
             "coordinates (projection)",
             f"element vertex {len(rows)}"]
    lines += [f"property double {name}" for name in names]
    lines += ["property int patch_id"] + [f"property double p{i}" for i in range(m)]
    lines.append("end_header")
    for row in rows:
        lines.append(" ".join([f"{v:.17g}" for v in row[1 + m:]] + [str(int(row[0]))]
                              + [f"{v:.17g}" for v in row[1:1 + m]]))
    return ("\n".join(lines) + "\n").encode()


def _reference_csv(patches):
    m, ambient = patches[0].m, patches[0].ambient_dim
    lines = [",".join(["patch_id"] + [f"p{i}" for i in range(m)]
                      + [f"c{i}" for i in range(ambient)])]
    for row in point_rows(patches):
        lines.append(",".join([str(int(row[0]))] + [f"{v:.17g}" for v in row[1:]]))
    return ("\n".join(lines) + "\n").encode()


class TestDistinctValueWriter:
    """Values the per-column dedup must keep apart or share: +-0.0 (equal as
    floats, rendered "0" and "-0"), subnormals, +-1e300, the same values in
    two blocks of _CHUNK_ROWS rows, and two-digit patch ids."""

    def test_bytes_match_per_value_rendering(self, tmp_path):
        import neckglue.assembler as assembler

        palette = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, -0.0, 1.0 / 3])
        npatch = 12
        nodes = assembler._CHUNK_ROWS // 8    # 1.3 blocks in all, a seventh masked
        patches = []
        for pid in range(npatch):
            samples = np.stack([np.roll(palette, pid)[np.arange(nodes) % palette.size],
                                np.resize(palette[::-1], nodes)], axis=-1)
            samples = np.concatenate([samples, -samples], axis=-1)
            mask = np.ones(nodes, dtype=bool)
            mask[pid::7] = False
            patches.append(ImmersionPatch(spacings=(0.1 * (pid + 1),), samples=samples,
                                          mask=mask))
        rows = sum(int(p.mask.sum()) for p in patches)
        assert assembler._CHUNK_ROWS < rows < 2 * assembler._CHUNK_ROWS
        export_ply(patches, str(tmp_path / "s.ply"), csv_path=str(tmp_path / "s.csv"))
        ply, csv = (tmp_path / "s.ply").read_bytes(), (tmp_path / "s.csv").read_bytes()
        assert ply == _reference_ply(patches) and csv == _reference_csv(patches)
        assert b",-0," in csv and b" -0 " in ply and b"\n11,0," in csv
        assert b"4.9406564584124654e-324" in csv and b"-1.0000000000000001e+300" in csv


class TestChunkedWriter:
    """The block writer with blocks of 7 rows: each patch is written in
    several full blocks and a remainder; no block holds nodes of two
    patches."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        import neckglue.assembler as assembler

        monkeypatch.setattr(assembler, "_CHUNK_ROWS", 7)

    @pytest.mark.parametrize("n", [2, 4])
    def test_bytes_match_per_row_reference(self, tmp_path, n):
        patches = _neck_pair(n)
        assert all(p.mask.sum() > 14 and p.mask.sum() % 7 for p in patches)
        export_ply(patches, str(tmp_path / "s.ply"))
        export_csv(patches, str(tmp_path / "s.csv"))
        assert (tmp_path / "s.ply").read_bytes() == _reference_ply(patches)
        assert (tmp_path / "s.csv").read_bytes() == _reference_csv(patches)

    @pytest.mark.parametrize("n", [2, 4])
    def test_loadtxt_round_trip_bit_exact(self, tmp_path, n):
        patches = _neck_pair(n)
        m = patches[0].m
        rows = point_rows(patches)
        export_ply(patches, str(tmp_path / "s.ply"), csv_path=str(tmp_path / "s.csv"))
        header = (tmp_path / "s.ply").read_text().splitlines().index("end_header") + 1
        ply = np.loadtxt(tmp_path / "s.ply", skiprows=header)
        assert np.array_equal(ply, np.column_stack([rows[:, 1 + m:], rows[:, :1 + m]]))
        csv = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1)
        assert np.array_equal(csv, rows)

    @pytest.mark.parametrize("n", [2, 4])
    def test_single_pass_matches_separate_exports(self, tmp_path, n):
        patches = _neck_pair(n)
        export_ply(patches, str(tmp_path / "a.ply"), csv_path=str(tmp_path / "a.csv"))
        export_ply(patches, str(tmp_path / "b.ply"))
        export_csv(patches, str(tmp_path / "b.csv"))
        for ext in ("ply", "csv"):
            assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()


class TestWriterMemory:
    """The writer holds one block of one patch at a time, so its peak does
    not grow with the number of patches.  A table of every patch's rows
    read 2.7 MB for one copy of this 11k-node patch and 8.0 MB for four."""

    def test_peak_of_four_patches_is_that_of_one(self, tmp_path):
        import tracemalloc

        # four distinct values keep the rendered strings few, and the
        # traced run short
        samples = np.random.default_rng(0).integers(0, 4, size=(24, 24, 24, 6)) * 0.25
        patch = ImmersionPatch(spacings=(0.1, 0.2, 0.3), samples=samples)
        patch.mask[::5] = False
        peaks = []
        for copies in (1, 4):
            tracemalloc.start()
            export_ply([patch] * copies, str(tmp_path / "s.ply"), csv_path=str(tmp_path / "s.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
