import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue import green
from neckglue.config import Configuration, build_interaction_system
from neckglue.geometry import ImmersionPatch, mean_curvature_field
from neckglue.green import (
    GreenData,
    balance_residual,
    graph_mean_curvature,
    graph_patch,
    green_eval,
    green_gradient,
    green_laplacian,
)
from neckglue.quadrature import omega_n, product_gauss_rule

from conftest import flagship_at, quarter_turn_n5, random_orthogonal

# the product rule at the default 32 nodes per angle
RULE = product_gauss_rule(3, 32)


def rank3_green_gradient(data, x):
    """dG_i/dx_l through an (..., n, n) einsum per end (the rank-3 route)."""
    cfg = data.config
    n = cfg.n
    out = np.broadcast_to(cfg.A0, x.shape[:-1] + (n, n)).copy()
    eye = np.eye(n)
    for j in range(cfg.k):
        u = x - cfg.points[j]
        r = np.sqrt(np.sum(u * u, axis=-1))[..., None, None]
        D = eye / r**n - n * u[..., :, None] * u[..., None, :] / r ** (n + 2)
        out = out + data.alpha[j] * np.einsum("il,...lm->...im", cfg.rotations[j], D)
    return out


def rank3_green_hessian(data, x):
    """The full second derivatives d^2 G_i / dx_l dx_m, shape (..., n, n, n)."""
    cfg = data.config
    n = cfg.n
    out = np.zeros(x.shape[:-1] + (n, n, n))
    eye = np.eye(n)
    for j in range(cfg.k):
        u = x - cfg.points[j]
        r = np.linalg.norm(u, axis=-1)[..., None, None, None]
        d_il_um = eye[:, :, None] * u[..., None, None, :]
        d_im_ul = eye[:, None, :] * u[..., None, :, None]
        d_lm_ui = eye[None, :, :] * u[..., :, None, None]
        D2 = -n * (d_il_um + d_im_ul + d_lm_ui) / r ** (n + 2) \
            + n * (n + 2) * u[..., :, None, None] * u[..., None, :, None] \
            * u[..., None, None, :] / r ** (n + 4)
        out = out + data.alpha[j] * np.einsum("ip,...plm->...ilm", cfg.rotations[j], D2)
    return out


def rank3_graph_mean_curvature(data, x):
    """Reference H = W - J g^{-1} J^T W from the full Hessian and
    np.linalg.inv, with every point held in memory at once."""
    cfg = data.config
    n = cfg.n
    eps = cfg.epsilon
    DG = rank3_green_gradient(data, x)
    D2G = rank3_green_hessian(data, x)
    g = np.eye(n) + eps**2 * np.einsum("...il,...im->...lm", DG, DG)
    ginv = np.linalg.inv(g)
    Wy = eps * np.einsum("...lm,...ilm->...i", ginv, D2G)
    JtW = eps * np.einsum("...il,...i->...l", DG, Wy)
    coeff = np.einsum("...lm,...m->...l", ginv, JtW)
    return np.concatenate([-coeff, Wy - eps * np.einsum("...il,...l->...i", DG, coeff)],
                          axis=-1)


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

    @pytest.mark.parametrize("evaluate", [
        lambda data, x: green_eval(data, x),
        lambda data, x: green_gradient(data, x),
        lambda data, x: green_laplacian(data, x, np.eye(3)),
    ], ids=["value", "gradient", "laplacian"])
    def test_every_evaluator_refuses_an_end(self, flagship, evaluate):
        # one end walk, one refusal: within 1e-12 of x_1, also inside a batch
        data = GreenData(flagship, np.array([4.0, 12.0]))
        x = np.array([[0.3, 0.7, -0.2], flagship.points[1] + 1e-13])
        with pytest.raises(ValueError, match="touches the singular point x_1"):
            evaluate(data, x)


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

    def test_gradient_skip_is_the_regular_field_gradient(self, flagship):
        # at the skipped end itself, where the full gradient is singular
        data = GreenData(flagship, np.array([4.0, 12.0]))
        h = 1e-6
        for j0 in range(2):
            x0 = flagship.points[j0]
            DF = green_gradient(data, x0, skip=j0)
            for l in range(3):
                e = np.zeros(3)
                e[l] = h
                fd = (regular_field(data, j0)(x0 + e) - regular_field(data, j0)(x0 - e)) / (2 * h)
                assert np.max(np.abs(fd - DF[:, l])) < 1e-7

    def test_hessian_fd_and_symmetry(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        x0 = np.array([-0.2, 0.5, 0.9])
        D2 = rank3_green_hessian(data, x0)
        assert np.max(np.abs(D2 - np.swapaxes(D2, -1, -2))) < 1e-14
        h = 1e-4
        fd = np.empty((3, 3, 3))
        for l in range(3):
            el = np.zeros(3); el[l] = h
            fd[:, :, l] = (green_gradient(data, x0 + el) - green_gradient(data, x0 - el)) / (2 * h)
            assert np.max(np.abs(fd[:, :, l] - D2[:, :, l])) < 1e-6
        rng = np.random.default_rng(7)
        spd = [np.eye(3)]
        for _ in range(2):
            a = rng.standard_normal((3, 3))
            spd.append(a @ a.T + 0.5 * np.eye(3))
        for ginv in spd:
            lap = green_laplacian(data, x0, ginv)
            expect = np.einsum("lm,ilm->i", ginv, fd)
            assert np.max(np.abs(lap - expect)) < 1e-6 * max(1.0, np.max(np.abs(ginv)))

    def test_harmonicity_exact_trace(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(40, 3))
        keep = np.all(
            [np.linalg.norm(pts - p, axis=1) > 0.3 for p in flagship.points], axis=0
        )
        trace = green_laplacian(data, pts[keep], np.eye(3))
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


def collinear_projection(data, j0, rho, rule, field):
    """(1/omega_n) sum_i w_i field(x_j0 + rho Theta_i) . R_j0 Theta_i on rule."""
    cfg = data.config
    values = field(cfg.points[j0] + rho * rule.nodes)
    rtheta = rule.nodes @ cfg.rotations[j0].T
    return float(rule.weights @ np.sum(values * rtheta, axis=1)) / omega_n(cfg.n)


def regular_field(data, j0):
    """G minus its j0 summand, term by term."""
    return lambda x: green_eval(data, x, skip=j0)


class TestExpansionProbe:
    """The identities balance_residual rests on, by direct quadrature."""

    def test_single_end_trivial(self):
        data = single_point_data(alpha=1.0)
        own = collinear_projection(data, 0, 0.1, RULE, lambda x: green_eval(data, x))
        assert abs(own / 0.1 ** -2 - 1.0) < 1e-12
        assert abs(collinear_projection(data, 0, 0.1, RULE, regular_field(data, 0))) < 1e-14

    def test_singular_coefficient_recovery(self, flagship):
        # the own term's projection is alpha_j0 rho^{1-n}
        data = GreenData(flagship, np.array([4.4, 13.2]))
        for j0, expect in ((0, 4.4), (1, 13.2)):
            def own(x):
                return green_eval(data, x) - regular_field(data, j0)(x)
            for rho in (0.1, 1e-2, 1e-3):
                p = collinear_projection(data, j0, rho, RULE, own)
                assert abs(p / (expect * rho ** -2) - 1.0) < 1e-12

    def test_constant_vector_is_regular_part(self, flagship):
        # mean-value property of the harmonic regular field
        data = GreenData(flagship, np.array([2.0, 5.0]))
        for j0 in range(2):
            for rho in (1e-2, 1e-3):
                pts = flagship.points[j0] + rho * RULE.nodes
                mean = RULE.weights @ regular_field(data, j0)(pts) / omega_n(3)
                assert_allclose(mean, green_eval(data, flagship.points[j0], skip=j0), atol=1e-11)

    def test_orthogonal_remainder_projection_vanishes(self, flagship):
        # p(rho) / rho is the same at rho and rho / 2: no other degree enters
        data = GreenData(flagship, np.array([3.0, 7.0]))
        for j0 in range(2):
            q = [collinear_projection(data, j0, rho, RULE, regular_field(data, j0)) / rho
                 for rho in (1e-2, 5e-3)]
            assert abs(q[0] - q[1]) < 1e-11

    def test_flagship_generic_alpha(self, flagship):
        # the sphere sum p / rho, balance_residual's tr(R^T DF) / n and the
        # closed form (Gamma alpha - Lambda) / omega_n are one coefficient
        system = build_interaction_system(flagship)
        data = GreenData(flagship, np.array([1.0, 1.0]))
        q = collinear_projection(data, 0, 1e-3, RULE, regular_field(data, 0)) / 1e-3
        expect = (system.gamma[0, 1] * 1.0 - system.lam[0]) / omega_n(3)
        assert abs(q - expect) < 1e-11
        assert abs(balance_residual(data)[0] - abs(q)) < 1e-11

    def test_flagship_balanced_alpha(self, flagship):
        system = build_interaction_system(flagship)
        data = GreenData(flagship, system.alpha)
        for j0 in range(2):
            q = collinear_projection(data, j0, 1e-3, RULE, regular_field(data, j0)) / 1e-3
            assert abs(q) < 1e-8


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
        assert np.max(np.abs(res - expect) / expect) < 1e-12

    def test_balanced_alpha_n5(self):
        cfg = quarter_turn_n5()
        system = build_interaction_system(cfg)
        assert system.alpha.tolist() == [48.0, 80.0]
        assert np.max(balance_residual(GreenData(cfg, system.alpha))) < 1e-10

    def test_single_end_zero(self):
        res = balance_residual(single_point_data())
        assert np.max(res) < 1e-13

    def test_linearity_in_alpha(self, flagship):
        # alpha + s d for s = 0.01, 0.02, 0.04 gives residuals in ratio 1 : 2 : 4
        system = build_interaction_system(flagship)
        d = np.array([1.0, -0.5])
        vals = [balance_residual(GreenData(flagship, system.alpha + s * d))
                for s in (0.01, 0.02, 0.04)]
        assert np.max(np.abs(vals[1] / vals[0] - 2.0)) < 1e-4
        assert np.max(np.abs(vals[2] / vals[0] - 4.0)) < 1e-4


class TestGraphPatch:
    def test_flat_configuration_zero_curvature(self):
        data = single_point_data(alpha=0.0)
        patch = graph_patch(data, 0.25, half_width=1.0)
        H, valid = mean_curvature_field(patch)
        assert np.max(np.linalg.norm(H, axis=-1)[valid]) < 1e-13

    def test_grid_avoids_balls(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        patch = graph_patch(data, 0.2, half_width=2.0)
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

    def test_analytic_sup_converges_at_tiny_eps(self):
        # sup|H|/eps^3 on the flagship box tends to its limit like eps^2 (it
        # reads 90630211.5972, .7056 and .7067 at eps = 1e-7, 1e-8, 1e-9);
        # contracting g^{-1} itself, with g = I + O(eps^2), lost it to the
        # cancellation: 90638498.8 and 89751604.8 at eps = 1e-8 and 1e-9.
        # The sup sits in the shells rho_* < |x - x_j| < 2 rho_*
        sups = []
        for eps in (1e-8, 1e-9):
            cfg = flagship_at(eps)
            data = GreenData(cfg, np.array([4.0, 12.0]))
            patch = graph_patch(data, cfg.rho_star / 4)
            x = patch.samples[..., :3][patch.mask]
            shells = np.min(np.linalg.norm(x[:, None] - cfg.points, axis=-1), axis=1) \
                < 2 * cfg.rho_star
            H = graph_mean_curvature(data, x[shells])
            sups.append(np.linalg.norm(H, axis=-1).max() / eps**3)
        assert abs(sups[0] - sups[1]) < 1e-8 * sups[1]


class TestStreamedCurvature:
    """graph_mean_curvature in blocks of _CHUNK_POINTS, against the rank-3
    Hessian route."""

    @staticmethod
    def twisted_data(n, eps, rng):
        k = 3
        points = rng.uniform(-1.0, 1.0, size=(k, n))
        rotations = [random_orthogonal(n, rng) for _ in range(k)]
        A0 = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        cfg = Configuration(n, points, rotations, A0, eps, 0.2)
        return GreenData(cfg, rng.uniform(1.0, 5.0, size=k))

    @staticmethod
    def clear_points(data, shape, rng):
        """Points in the shells rho_* < |x - x_j| < 2 rho_* around the ends,
        where the outer patch attains its sup|H|, clear of every ball."""
        cfg = data.config
        count = int(np.prod(shape))
        theta = rng.standard_normal((8 * count + 64, cfg.n))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        radii = cfg.rho_star * rng.uniform(1.0, 2.0, size=(theta.shape[0], 1))
        pts = cfg.points[rng.integers(cfg.k, size=theta.shape[0])] + radii * theta
        keep = np.all(
            [np.linalg.norm(pts - p, axis=1) > cfg.rho_star for p in cfg.points], axis=0
        )
        return pts[keep][:count].reshape(shape + (cfg.n,))

    @staticmethod
    def cancellation_floor(data, x):
        """eps times the float rounding of the harmonic terms that cancel in
        g^{lm} d_l d_m G (size alpha_j n (n+2) / r_j^{n+1}).  H is an eps^3
        residual, so both routes resolve it only down to this floor; at
        n = 2, eps = 1e-4 it is ~1e-10 sup|H|, and both routes sit that far
        from an extended-precision evaluation."""
        cfg = data.config
        n = cfg.n
        size = sum(a * n * (n + 2) / np.linalg.norm(x - p, axis=-1) ** (n + 1)
                   for a, p in zip(data.alpha, cfg.points))
        return np.finfo(float).eps * cfg.epsilon * np.max(size)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_blocks_match_rank3_route(self, n, eps, monkeypatch):
        monkeypatch.setattr(green, "_CHUNK_POINTS", 7)
        rng = np.random.default_rng(100 * n + int(-math.log10(eps)))
        data = self.twisted_data(n, eps, rng)
        for shape in ((), (23,), (4, 5)):
            x = self.clear_points(data, shape, rng)
            H = graph_mean_curvature(data, x)
            H_ref = rank3_graph_mean_curvature(data, x)
            assert H.shape == shape + (2 * n,)
            sup = np.max(np.abs(H_ref))
            assert sup > 0
            tol = 1e-11 * sup + 8 * self.cancellation_floor(data, x)
            assert np.max(np.abs(H - H_ref)) <= tol, shape

    def test_streaming_bounds_working_set(self, flagship):
        data = GreenData(flagship, np.array([4.0, 12.0]))
        rng = np.random.default_rng(5)
        N = 2 * green._CHUNK_POINTS

        def peak(count):
            x = self.clear_points(data, (count,), rng)
            tracemalloc.start()
            H = graph_mean_curvature(data, x)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return top, H.nbytes

        peak_n, _ = peak(N)
        peak_4n, out_4n = peak(4 * N)
        assert peak_4n <= peak_n + out_4n
