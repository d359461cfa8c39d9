import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue.config import Configuration, build_interaction_system
from neckglue.geometry import ImmersionPatch, mean_curvature_field
from neckglue.green import (
    GreenData,
    balance_residual,
    expansion_probe,
    graph_mean_curvature,
    graph_patch,
    green_eval,
    green_gradient,
    green_hessian,
    regular_part,
)
from neckglue.quadrature import omega_n

from conftest import flagship_at


def single_point_data(alpha=1.0, A0=None, n=3):
    A0 = np.zeros((n, n)) if A0 is None else A0
    cfg = Configuration(n, [np.zeros(n)], [np.eye(n)], A0, 1e-4, 0.2)
    return GreenData(cfg, np.array([alpha]))


class TestGreenEval:
    def test_single_inverse_square(self):
        data = single_point_data()
        assert_allclose(green_eval(data, np.array([2.0, 0, 0])), [0.25, 0, 0], atol=1e-16)

    def test_pure_linear_part(self):
        cfg = Configuration(3, [[1.0, 0, 0]], [np.eye(3)], np.eye(3), 1e-4, 0.2)
        data = GreenData(cfg, np.array([0.0]))
        x = np.array([0.3, -0.7, 2.0])
        assert_allclose(green_eval(data, x), x, atol=1e-16)

    def test_flagship_matches_manual_sum(self, flagship):
        system = build_interaction_system(flagship)
        data = GreenData(flagship, system.alpha)
        x = np.array([0.0, 3.0, 0.0])
        manual = np.zeros(3)
        for j in range(2):
            u = x - flagship.points[j]
            manual += system.alpha[j] * flagship.rotations[j] @ (u / np.linalg.norm(u) ** 3)
        manual += flagship.A0 @ x
        assert_allclose(green_eval(data, x), manual, atol=1e-14)

    def test_singular_point_guard(self):
        data = single_point_data()
        with pytest.raises(ValueError):
            green_eval(data, np.zeros(3))


class TestDerivatives:
    def test_gradient_fd(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        x0 = np.array([0.3, 0.7, -0.2])
        DG = green_gradient(data, x0)
        h = 1e-6
        for l in range(3):
            e = np.zeros(3)
            e[l] = h
            fd = (green_eval(data, x0 + e) - green_eval(data, x0 - e)) / (2 * h)
            assert np.max(np.abs(fd - DG[:, l])) < 1e-7

    def test_hessian_fd_and_symmetry(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        x0 = np.array([-0.2, 0.5, 0.9])
        D2 = green_hessian(data, x0)
        assert np.max(np.abs(D2 - np.swapaxes(D2, -1, -2))) < 1e-14
        h = 1e-4
        for l in range(3):
            el = np.zeros(3); el[l] = h
            fd = (green_gradient(data, x0 + el) - green_gradient(data, x0 - el)) / (2 * h)
            assert np.max(np.abs(fd - D2[:, :, l])) < 1e-6

    def test_harmonicity_exact_trace(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(40, 3))
        keep = np.all(
            [np.linalg.norm(pts - p, axis=1) > 0.3 for p in flagship.points], axis=0
        )
        D2 = green_hessian(data, pts[keep])
        trace = np.einsum("...ill->...i", D2)
        assert np.max(np.abs(trace)) < 1e-10

    def test_harmonicity_fd_laplacian(self, flagship):
        # componentwise 7-point Laplacian is pure truncation, ~ C h^2
        data = GreenData(flagship, np.array([4.0, 12.0]))
        rng = np.random.default_rng(1)

        def fd_lap(x0, h):
            lap = -6.0 * green_eval(data, x0)
            for l in range(3):
                e = np.zeros(3)
                e[l] = h
                lap = lap + green_eval(data, x0 + e) + green_eval(data, x0 - e)
            return np.max(np.abs(lap / h**2))

        for _ in range(10):
            x0 = rng.uniform(-1.5, 1.5, 3)
            if min(np.linalg.norm(x0 - p) for p in flagship.points) < 0.5:
                continue
            coarse = fd_lap(x0, 2e-3)
            fine = fd_lap(x0, 1e-3)
            assert coarse < 1e5 * (2e-3) ** 2
            # quarters under halving (allow slack for roundoff at tiny values)
            assert fine < 0.35 * coarse + 1e-7


class TestExpansionProbe:
    def test_single_end_trivial(self):
        data = single_point_data(alpha=1.0)
        probe = expansion_probe(data, 0, 0.1 * 0.5 ** np.arange(4))
        assert abs(probe["singular_coeff"] - 1.0) < 1e-10
        assert abs(probe["linear_coeff"]) < 1e-12

    def test_flagship_generic_alpha(self, flagship):
        system = build_interaction_system(flagship)
        data = GreenData(flagship, np.array([1.0, 1.0]))
        probe = expansion_probe(data, 0, 1e-3 * 0.5 ** np.arange(4))
        expect = (system.gamma[0, 1] * 1.0 - system.lam[0]) / omega_n(3)
        assert abs(probe["linear_coeff"] - expect) < 1e-6

    def test_flagship_balanced_alpha(self, flagship):
        system = build_interaction_system(flagship)
        data = GreenData(flagship, system.alpha)
        probe = expansion_probe(data, 0, 1e-3 * 0.5 ** np.arange(4))
        assert abs(probe["linear_coeff"]) < 1e-8

    def test_singular_coefficient_recovery(self, flagship):
        # radii spanning one decade; coefficient recovered to 1e-8
        data = GreenData(flagship, np.array([4.4, 13.2]))
        radii = np.geomspace(0.05, 0.005, 5)
        for j0, expect in ((0, 4.4), (1, 13.2)):
            probe = expansion_probe(data, j0, radii)
            assert abs(probe["singular_coeff"] - expect) < 1e-8

    def test_constant_vector_is_regular_part(self, flagship):
        data = GreenData(flagship, np.array([2.0, 5.0]))
        for j0 in range(2):
            probe = expansion_probe(data, j0, 1e-2 * 0.5 ** np.arange(4))
            assert_allclose(probe["constant_vec"], regular_part(data, j0), atol=1e-11)

    def test_orthogonal_remainder_projection_vanishes(self, flagship):
        # the collinear projection of the desingularized field is linear in
        # rho to float precision: quadratic fit coefficient ~ 0
        data = GreenData(flagship, np.array([3.0, 7.0]))
        probe = expansion_probe(data, 0, 1e-2 * 0.5 ** np.arange(4))
        assert abs(probe["regular_fit"][2]) < 1e-8

    def test_radii_separation_guard(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        radii = np.array([1e-3, 1e-3 * (1 + 1e-9), 1e-3 * (1 + 2e-9), 1e-3 * (1 + 3e-9)])
        with pytest.raises(ValueError, match="not separated"):
            expansion_probe(data, 0, radii)

    def test_radii_must_stay_inside(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        with pytest.raises(ValueError, match="separation"):
            expansion_probe(data, 0, np.array([1.5, 0.75, 0.4, 0.2]))


class TestBalance:
    def test_balanced_alpha(self, flagship):
        system = build_interaction_system(flagship)
        res = balance_residual(GreenData(flagship, system.alpha))
        assert np.max(res) < 1e-8

    def test_perturbed_alpha_matches_gamma_delta(self, flagship):
        system = build_interaction_system(flagship)
        delta = 0.1 * system.alpha
        res = balance_residual(GreenData(flagship, system.alpha + delta))
        expect = np.abs(system.gamma @ delta) / omega_n(3)
        assert np.max(np.abs(res - expect) / expect) < 0.1

    def test_single_end_zero(self):
        res = balance_residual(single_point_data())
        assert np.max(res) < 1e-13

    def test_linearity_in_alpha(self, flagship):
        # three collinear alpha samples give collinear residuals
        system = build_interaction_system(flagship)
        d = np.array([1.0, -0.5])
        vals = []
        for s in (0.01, 0.02, 0.04):
            probe = expansion_probe(
                GreenData(flagship, system.alpha + s * d), 0, 1e-3 * 0.5 ** np.arange(4)
            )
            vals.append(probe["linear_coeff"])
        assert abs(vals[1] / vals[0] - 2.0) < 1e-4
        assert abs(vals[2] / vals[0] - 4.0) < 1e-4


class TestGraphPatch:
    def test_flat_configuration_zero_curvature(self):
        data = single_point_data(alpha=0.0)
        patch = graph_patch(data, half_width=1.0, spacing=0.25, exclusion=0.3)
        H, valid = mean_curvature_field(patch)
        assert np.max(np.linalg.norm(H, axis=-1)[valid]) < 1e-13

    def test_grid_avoids_balls(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        patch = graph_patch(data, half_width=2.0, spacing=0.2)
        base = patch.samples[..., :3][patch.mask]
        for p in flagship.points:
            assert np.min(np.linalg.norm(base - p, axis=1)) > flagship.rho_star

    def test_fd_cubic_slope_at_moderate_eps(self):
        # FD oracle for the analytic curvature channel: at eps where the
        # cubic term dominates the h^2 truncation, halving eps cuts the FD
        # sup by ~8
        sups = []
        eps_values = [0.02, 0.01, 0.005]
        for eps in eps_values:
            cfg = flagship_at(eps)
            data = GreenData(cfg, np.array([4.0, 12.0]))
            axes = [np.linspace(0.8, 1.6, 41), np.linspace(0.7, 1.5, 41),
                    np.linspace(-0.4, 0.4, 41)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            samples = np.concatenate([mesh, eps * green_eval(data, mesh)], axis=-1)
            patch = ImmersionPatch(spacings=(0.02,) * 3, samples=samples)
            H, valid = mean_curvature_field(patch)
            sups.append(np.linalg.norm(H, axis=-1)[valid].max())
        slope = np.polyfit(np.log(eps_values), np.log(sups), 1)[0]
        assert abs(slope - 3.0) < 0.2

    def test_analytic_matches_fd_at_moderate_eps(self):
        cfg = flagship_at(0.01)
        data = GreenData(cfg, np.array([4.0, 12.0]))
        pt = np.array([0.0, 1.2, 0.4])
        Ha = graph_mean_curvature(data, pt)
        h = 0.01
        axes = [pt[i] + h * np.arange(-3, 4) for i in range(3)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        samples = np.concatenate([mesh, 0.01 * green_eval(data, mesh)], axis=-1)
        patch = ImmersionPatch(spacings=(h,) * 3, samples=samples)
        H, valid = mean_curvature_field(patch)
        assert valid[3, 3, 3]
        Hfd = H[3, 3, 3]
        assert np.linalg.norm(Hfd - Ha) < 0.05 * np.linalg.norm(Ha)

    def test_analytic_cubic_slope_small_eps(self):
        sups = []
        eps_values = [1e-3, 3e-4, 1e-4]
        grid = np.stack(np.meshgrid(*[np.linspace(-3, 3, 31)] * 3, indexing="ij"), axis=-1)
        for eps in eps_values:
            cfg = flagship_at(eps)
            data = GreenData(cfg, np.array([4.0, 12.0]))
            keep = np.all(
                [np.linalg.norm(grid - p, axis=-1) > cfg.rho_star for p in cfg.points],
                axis=0,
            )
            H = graph_mean_curvature(data, grid[keep])
            sups.append(np.linalg.norm(H, axis=-1).max())
        slope = np.polyfit(np.log(eps_values), np.log(sups), 1)[0]
        assert abs(slope - 3.0) < 0.3
