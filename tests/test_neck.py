import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue import neck
from neckglue.geometry import central_difference, mean_curvature_field, sphere_chart
from neckglue.neck import (
    NeckParams,
    NormalField,
    SphereGridOps,
    asymptote_residual,
    default_angle_grids,
    jacobi_field,
    linearized_apply,
    neck_patch,
    radius_of_s,
    s_of_radius,
    s_to_t,
    t_to_s,
    waist_radius,
)

from conftest import BENCH, random_orthogonal, rot_e1
from oracles import full_grid_linearized_apply, neck_point


def unit_scale_params(n):
    # n * beta * eps = 1
    return NeckParams(n=n, beta=1.0, epsilon=1.0 / n)


class TestNeckParams:
    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            NeckParams(n=3, beta=0.0, epsilon=1e-3)
        with pytest.raises(ValueError):
            NeckParams(n=3, beta=1.0, epsilon=-1e-3)

    def test_rotation_validated(self):
        with pytest.raises(ValueError):
            NeckParams(n=3, beta=1.0, epsilon=1e-3, rotation=1.01 * np.eye(3))

    def test_scale_value(self):
        params = NeckParams(n=3, beta=2.0, epsilon=0.5)
        assert abs(params.scale - 3.0 ** (1 / 3)) < 1e-15


class TestCoordinates:
    def test_waist_barycenter_maps_to_zero(self):
        for n in (2, 3, 4):
            assert abs(s_to_t(math.pi / (2 * n), n)) < 1e-14

    def test_closed_form_value_n3(self):
        # e^{-3t} = cot(pi/8) = 1 + sqrt(2)
        t = s_to_t(math.pi / 12, 3)
        assert abs(t + math.log(1 + math.sqrt(2)) / 3) < 1e-14

    def test_round_trip_and_identities(self):
        for n in (2, 3, 4):
            s = np.linspace(1e-4, math.pi / n - 1e-4, 10000)
            t = s_to_t(s, n)
            assert np.max(np.abs(t_to_s(t, n) - s)) < 1e-12
            assert np.max(np.abs(np.sin(n * s) * np.cosh(n * t) - 1.0)) < 1e-12
            assert np.max(np.abs(np.cos(n * s) + np.tanh(n * t))) < 1e-12

    def test_monotone_limit(self):
        t = np.linspace(-30.0, -5.0, 200)
        s = t_to_s(t, 3)
        assert np.all(np.diff(s) > 0)
        assert s[0] < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            s_to_t(math.pi / 3, 3)
        with pytest.raises(ValueError):
            s_to_t(0.0, 3)


class TestRadius:
    def test_value_at_quarter(self):
        params = unit_scale_params(3)
        assert abs(radius_of_s(params, math.pi / 6) - math.cos(math.pi / 6)) < 1e-14

    def test_blowup_toward_zero(self):
        params = unit_scale_params(3)
        s = np.array([1e-3, 1e-4, 1e-5])
        r = radius_of_s(params, s)
        # r ~ (beta eps)^{1/n} s^{-1/n} = (n s)^{-1/n} at unit scale
        assert_allclose(r, (3 * s) ** (-1 / 3), rtol=1e-5)

    def test_round_trip_on_lower_branch(self):
        # bisection to the last bit: s_* is good to rounding, not to a cutoff;
        # at n = 2 there is no waist and the branch runs to r -> 0 at s -> pi/2
        for n in (2, 3, 4, 5):
            params = NeckParams(n=n, beta=2.0, epsilon=1e-3)
            top = math.pi / (2 * (n - 1))
            for s in top - np.geomspace(top - 0.01, 1e-6 if n == 2 else 0.01, 30):
                r = float(radius_of_s(params, s))
                assert abs(s_of_radius(params, r) - s) <= 1e-13 * s, (n, s)

    def test_unreachable_radius(self):
        params = NeckParams(n=3, beta=12.0, epsilon=1e-3)
        with pytest.raises(ValueError, match="neck too large"):
            s_of_radius(params, 0.9 * waist_radius(params))

    def test_waist_location_closed_form(self):
        # dr/ds = 0 at cos((n-1)s) = 0, i.e. s = pi/(2(n-1)) for n >= 3; none at n = 2
        assert waist_radius(unit_scale_params(2)) == 0.0
        for n in (3, 4, 5):
            params = unit_scale_params(n)
            s_waist = math.pi / (2 * (n - 1))
            assert waist_radius(params) == float(radius_of_s(params, s_waist))
            s_min = s_of_radius(params, waist_radius(params))
            assert abs(s_min - s_waist) < 1e-6


class TestNeckPoint:
    def test_n2_diagonal_point(self):
        params = unit_scale_params(2)
        p = neck_point(params, math.pi / 4, [0.0])
        v = np.concatenate([p.x, p.y])
        c = math.cos(math.pi / 4)
        assert_allclose(v, [c, 0.0, c, 0.0], atol=1e-14)

    def test_n3_unit_radius_point(self):
        params = unit_scale_params(3)
        p = neck_point(params, math.pi / 6, [math.pi / 2, 0.0])
        assert_allclose(p.x, [math.cos(math.pi / 6), 0, 0], atol=1e-14)
        assert_allclose(p.y, [math.sin(math.pi / 6), 0, 0], atol=1e-14)

    def test_norm_identity(self):
        params = unit_scale_params(4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(0.05, math.pi / 4 - 0.05)
            angles = np.concatenate([
                rng.uniform(0.2, math.pi - 0.2, 2), [rng.uniform(0, 2 * math.pi)]
            ])
            p = neck_point(params, s, angles)
            norm2 = p.x @ p.x + p.y @ p.y
            assert abs(norm2 - math.sin(4 * s) ** (-0.5)) < 1e-12

    def test_rotation_and_translation(self):
        from neckglue.geometry import AmbientPoint

        R = rot_e1(math.pi / 2)
        shift = AmbientPoint([1.0, 2.0, 3.0], [0.5, 0.0, -0.5])
        params = NeckParams(n=3, beta=1.0, epsilon=1.0 / 3.0, rotation=R,
                            translation=shift)
        p = neck_point(params, math.pi / 6, [math.pi / 2, 0.0])
        assert_allclose(p.x, shift.x + [math.cos(math.pi / 6), 0, 0], atol=1e-14)
        assert_allclose(p.y, shift.y + math.sin(math.pi / 6) * (R @ [1.0, 0, 0]), atol=1e-14)

    def test_s_range_guard(self):
        with pytest.raises(ValueError):
            neck_point(unit_scale_params(3), 1.2, [1.0, 0.0])


def parent_neck_samples(params, s_grid, theta_grid):
    """The (s x angles) neck samples as neck_patch built them before
    NeckParams.evaluate existed: an oracle for bit-identical samples."""
    n = params.n
    s = np.asarray(s_grid, dtype=float).reshape((-1,) + (1,) * theta_grid.ndim)
    rad = params.scale * np.sin(n * s) ** (-1.0 / n)
    x = rad * np.cos(s) * theta_grid[None]
    y = rad * np.sin(s) * (theta_grid @ params.rotation.T)[None]
    x = x + params.translation.x
    y = y + params.translation.y
    return np.concatenate([x, y], axis=-1)


def twisted_neck(n, rng, proper):
    from neckglue.geometry import AmbientPoint

    R = random_orthogonal(n, rng)
    if (np.linalg.det(R) > 0) != proper:
        R[:, 0] = -R[:, 0]
    shift = AmbientPoint(rng.standard_normal(n), rng.standard_normal(n))
    return NeckParams(n=n, beta=rng.uniform(0.5, 3.0), epsilon=rng.uniform(1e-4, 1e-1),
                      rotation=R, translation=shift)


class TestEvaluate:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("proper", [True, False])
    def test_closed_form_ds_matches_fourth_order_fd(self, n, proper):
        rng = np.random.default_rng(10 * n + proper)
        params = twisted_neck(n, rng, proper)
        theta = rng.standard_normal((6, n))
        theta /= np.linalg.norm(theta, axis=-1, keepdims=True)
        s = rng.uniform(0.1, 0.9, 6) * math.pi / n
        x, y, dx, dy = params.evaluate(s, theta, with_ds=True)
        assert np.array_equal(np.concatenate([x, y], -1),
                              np.concatenate(params.evaluate(s, theta), -1))
        h = 2e-4 * math.pi / n

        def at(shift):
            return np.concatenate(params.evaluate(s + shift, theta), axis=-1)

        fd = (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)
        closed = np.concatenate([dx, dy], axis=-1)
        assert np.max(np.abs(closed - fd)) < 1e-9 * np.max(np.abs(closed))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_neck_patch_samples_bit_identical_to_parent(self, n):
        rng = np.random.default_rng(n)
        counts = (5,) * (n - 2) + (8,)
        grids = default_angle_grids(n, counts, margin=0.4)
        theta = sphere_chart(np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1))
        for proper in (True, False):
            params = twisted_neck(n, rng, proper)
            t_grid = np.linspace(-1.5, 1.5, 7)
            patch = neck_patch(params, angle_grids=grids, t_grid=t_grid)
            assert np.array_equal(patch.samples,
                                  parent_neck_samples(params, t_to_s(t_grid, n), theta))


class TestAsymptote:
    def test_epsilon_cubic_decay(self):
        grids = default_angle_grids(3, (9, 16), margin=0.6)
        rho = np.array([1.0])
        sups = []
        eps_values = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        for eps in eps_values:
            params = NeckParams(n=3, beta=1.0, epsilon=eps)
            sup, _ = asymptote_residual(params, rho, grids)
            sups.append(sup)
        slope = np.polyfit(np.log(eps_values), np.log(sups), 1)[0]
        assert abs(slope - 3.0) < 0.1

    def test_rho_power_decay(self):
        grids = default_angle_grids(3, (9, 16), margin=0.6)
        params = NeckParams(n=3, beta=1.0, epsilon=1e-2)
        _, per = asymptote_residual(params, np.array([1.0, 2.0, 4.0]), grids)
        slopes = np.diff(np.log(per)) / math.log(2.0)
        for s in slopes:
            assert abs(s - (1 - 9)) < 0.2  # 1 - 3n with n = 3

    def test_waist_guard(self):
        params = NeckParams(n=3, beta=1.0, epsilon=0.1)
        # 2 (n beta eps)^{1/n} = 1.34; a smaller rho enters the waist region
        with pytest.raises(ValueError):
            asymptote_residual(params, [0.5], default_angle_grids(3, (5, 8), margin=0.35))


class TestJacobiFields:
    def setup_method(self):
        self.n = 3
        self.s = np.linspace(0.3 * math.pi / 3, 0.7 * math.pi / 3, 9)
        self.grids = default_angle_grids(3, (9, 16), margin=0.6)

    def test_zero_translation_is_zero_field(self):
        fld = jacobi_field("translation", 3, self.s, self.grids, a=np.zeros(3))
        assert np.max(np.abs(fld.f)) == 0.0
        assert np.max(np.abs(fld.T)) == 0.0

    def test_dilation_profile(self):
        fld = jacobi_field("dilation", 3, self.s, self.grids, delta=1.0)
        expect = np.sin(3 * self.s) ** (2.0 / 3.0)
        assert_allclose(fld.f[:, 0, 0], expect, atol=1e-14)
        assert np.max(np.abs(fld.T)) == 0.0

    def test_su_identity_matrix(self):
        fld = jacobi_field("su", 3, self.s, self.grids, A=np.eye(3))
        expect = np.sin(3 * self.s) ** (-1.0 / 3.0) * np.cos(3 * self.s)
        assert_allclose(fld.f[:, 3, 5], expect, atol=1e-13)
        assert np.max(np.abs(fld.T)) < 1e-14

    def test_tangency_invariant(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3))
        sym = (A + A.T) / 2
        anti = (A - A.T) / 2
        from neckglue.geometry import sphere_chart

        mesh = np.stack(np.meshgrid(*self.grids, indexing="ij"), axis=-1)
        theta = sphere_chart(mesh)
        for kind, kw in [
            ("translation", dict(a=np.array([0.3, -1.0, 0.7]), alpha=0.4)),
            ("su", dict(A=sym)),
            ("o2n_rot", dict(A=anti)),
            ("o2n_boost", dict(A=anti)),
        ]:
            fld = jacobi_field(kind, 3, self.s, self.grids, **kw)
            dot = np.abs(np.sum(fld.T * theta[None], axis=-1))
            assert np.max(dot) < 1e-12

    def test_symmetry_class_enforced(self):
        A = np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            jacobi_field("su", 3, self.s, self.grids, A=A)
        with pytest.raises(ValueError):
            jacobi_field("o2n_rot", 3, self.s, self.grids, A=np.eye(3))


def kernel_residual(kind, level, **kw):
    """Banded interior residual of linearized_apply on a Jacobi field."""
    factor = 2**level
    hs = 4e-3 / factor
    grids = default_angle_grids(3, (40 * factor + 1, 80 * factor), margin=0.6)
    centers = np.array([0.42, 0.5, 0.58]) * math.pi / 3
    theta1 = grids[0]
    keep = (theta1 >= 0.8) & (theta1 <= math.pi - 0.8)
    sup = 0.0
    for sc in centers:
        s = sc + hs * np.arange(-2, 3)
        fld = jacobi_field(kind, 3, s, grids, **kw)
        out = linearized_apply(fld)
        resid = np.abs(out.f) + np.linalg.norm(out.T, axis=-1)
        valid = out.valid & keep[None, :, None]
        sup = max(sup, float(resid[valid].max()))
    return sup


class TestLinearizedOperator:
    def test_zero_field_maps_to_zero(self):
        s = np.linspace(0.3, 0.6, 7)
        grids = default_angle_grids(3, (9, 16), margin=0.6)
        fld = jacobi_field("translation", 3, s, grids, a=np.zeros(3))
        out = linearized_apply(fld)
        assert np.max(np.abs(out.f)) == 0.0
        assert np.max(np.abs(out.T)) == 0.0

    @pytest.mark.parametrize("kind,kw", [
        ("dilation", dict(delta=1.0)),
        ("translation", dict(a=np.array([1.0, 0.0, 0.0]), alpha=0.0)),
    ])
    def test_kernel_second_order(self, kind, kw):
        r0 = kernel_residual(kind, 0, **kw)
        r1 = kernel_residual(kind, 1, **kw)
        order = math.log2(r0 / r1)
        assert abs(order - 2.0) < 0.2

    def test_all_families_annihilated(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((3, 3))
        sym = (A + A.T) / 2
        anti = (A - A.T) / 2
        cases = [
            ("translation", dict(a=np.array([0.2, -0.5, 1.0]), alpha=0.9)),
            ("su", dict(A=sym)),
            ("o2n_rot", dict(A=anti)),
            ("o2n_boost", dict(A=anti)),
        ]
        for kind, kw in cases:
            r0 = kernel_residual(kind, 0, **kw)
            r1 = kernel_residual(kind, 1, **kw)
            assert abs(math.log2(r0 / r1) - 2.0) < 0.25, kind

    def test_coarse_grid_rejected(self):
        grids = default_angle_grids(3, (9, 16), margin=0.6)
        fld = jacobi_field("dilation", 3, np.linspace(0.3, 0.4, 3), grids, delta=1.0)
        with pytest.raises(ValueError):
            linearized_apply(fld)

    @pytest.mark.parametrize("n", [3, 4])
    def test_non_kernel_closed_form_oracle(self, n):
        # f = sin(ns) (a.Theta), T = 0 is not in the kernel; by hand,
        #   F  = sin(ns) [ -sin^2(ns) + 2n cos^2(ns) - 2(n-1) ] (a.Theta),
        #   T' = 2 sin(ns) cos(ns) (a - (a.Theta) Theta),
        # using Lap_S (a.Theta) = -(n-1)(a.Theta) and grad_S = tangential a.
        from neckglue.geometry import sphere_chart
        from neckglue.neck import NormalField

        a = np.zeros(n)
        a[0] = 1.0
        base = 40 if n == 3 else 16
        sups = []
        for level in range(2):
            factor = 2**level
            hs = 2e-3 / factor
            counts = (base * factor + 1,) * (n - 2) + (2 * base * factor,)
            grids = default_angle_grids(n, counts, margin=0.7)
            mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
            theta = sphere_chart(mesh)
            phi = theta @ a
            tang = a - phi[..., None] * theta
            s = math.pi / (2 * n) + hs * np.arange(-2, 3)
            s_col = s.reshape((-1,) + (1,) * (n - 1))
            f = np.sin(n * s_col) * phi[None]
            T = np.zeros(f.shape + (n,))
            fld = NormalField(n=n, s=s, angle_grids=grids, f=f, T=T)
            out = linearized_apply(fld)
            sin_ns = np.sin(n * s_col)
            cos_ns = np.cos(n * s_col)
            F_expect = sin_ns * (-sin_ns**2 + 2 * n * cos_ns**2 - 2 * (n - 1)) * phi[None]
            T_expect = 2.0 * (sin_ns * cos_ns)[..., None] * tang[None]
            err = np.abs(out.f - F_expect) + np.linalg.norm(out.T - T_expect, axis=-1)
            sups.append(float(err[out.valid].max()))
        assert sups[0] < 5e-2
        assert abs(math.log2(sups[0] / sups[1]) - 2.0) < 0.35


# ----------------------------------------------------------------------
# The per-operator sphere route linearized_apply took before the fused one
# (one derivative per operator call, connection terms as vectors, a
# projection after every derivative): kept only as the oracle the fused
# route must reproduce.
# ----------------------------------------------------------------------

class PerOperatorOps:
    def __init__(self, angle_grids):
        self.m = len(angle_grids)
        self.spacings = [float(g[1] - g[0]) for g in angle_grids]
        self.periodic = (False,) * (self.m - 1) + (True,)
        mesh = np.stack(np.meshgrid(*angle_grids, indexing="ij"), axis=-1)
        self.theta, jac = sphere_chart(mesh, with_jacobian=True)
        self.norms = np.linalg.norm(jac, axis=-2)
        self.frame = jac / self.norms[..., None, :]
        self.conn = [self.project(self.d(self.frame[..., :, j], j, vector=True))
                     for j in range(self.m)]

    def d(self, field, j, vector=False):
        axis = field.ndim - self.m - (1 if vector else 0) + j
        norm = self.norms[..., j][..., None] if vector else self.norms[..., j]
        return central_difference(field, axis, self.spacings[j]) / norm

    def project(self, v):
        return v - np.sum(v * self.theta, axis=-1, keepdims=True) * self.theta

    def grad(self, f):
        return sum(self.d(f, j)[..., None] * self.frame[..., :, j] for j in range(self.m))

    def div(self, T):
        return sum(np.sum(self.d(T, j, vector=True) * self.frame[..., :, j], axis=-1)
                   for j in range(self.m))

    def directional(self, T, u):
        out = sum(np.sum(u * self.frame[..., :, k], axis=-1)[..., None]
                  * self.d(T, k, vector=True) for k in range(self.m))
        return self.project(out)

    def laplacian(self, f):
        g = self.grad(f)
        return sum(self.d(self.d(f, j), j) - np.sum(self.conn[j] * g, axis=-1)
                   for j in range(self.m))

    def connection_laplacian(self, T):
        out = 0.0
        for j in range(self.m):
            W = self.project(self.d(T, j, vector=True))
            out = out + self.project(self.d(W, j, vector=True))
            out = out - self.directional(T, self.conn[j])
        return out

    def interior_valid(self, layers):
        valid = np.ones(self.theta.shape[:-1], dtype=bool)
        for j in range(self.m):
            if not self.periodic[j]:
                edges = np.moveaxis(valid, j, 0)
                edges[:layers] = edges[-layers:] = False
        return valid


def per_operator_linearized_apply(field):
    n = field.n
    ops = PerOperatorOps(field.angle_grids)
    s = field.s
    hs = float(s[1] - s[0])
    s_col = s.reshape((s.size,) + (1,) * ops.m)
    sin_ns, cos_ns = np.sin(n * s_col), np.cos(n * s_col)

    def sturm(arr, weight, outer_weight):
        inner = weight * central_difference(arr, 0, hs)
        return outer_weight * central_difference(inner, 0, hs)

    F = (sturm(field.f, sin_ns ** (2.0 / n), sin_ns ** (2.0 - 2.0 / n))
         + ops.laplacian(field.f) - (n - 1) * field.f
         + (n * n - 1) * sin_ns**2 * field.f - 2.0 * cos_ns * ops.div(field.T))
    sin_v, cos_v = sin_ns[..., None], cos_ns[..., None]
    T = (sturm(field.T, sin_v ** (2.0 / n), sin_v ** (2.0 - 2.0 / n))
         + ops.connection_laplacian(field.T) - field.T
         + 3.0 * sin_v**2 * field.T + 2.0 * cos_v * ops.grad(field.f))
    valid = np.zeros(field.f.shape, dtype=bool)
    valid[2:-2] = ops.interior_valid(2)[None]
    return F, T, valid & field.valid


def smooth_field(n, counts, rng):
    """A smooth normal field outside the Jacobi kernel: random quadratic and
    linear sphere data with s-profiles that are no kernel profile."""
    grids = default_angle_grids(n, counts, margin=0.6)
    theta = sphere_chart(np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1))
    B, C = rng.standard_normal((2, n, n))
    a, b = rng.standard_normal((2, n))
    s = 0.5 + 3e-3 * np.arange(-3, 4)
    s_col = s.reshape((-1,) + (1,) * (n - 1))
    f = np.cos(2 * s_col) * (np.einsum("...i,ij,...j->...", theta, B, theta) + theta @ a)
    v = theta @ C.T + b
    tang = v - np.sum(v * theta, axis=-1, keepdims=True) * theta
    T = np.sin(s_col + 0.4)[..., None] * tang
    return NormalField(n=n, s=s, angle_grids=grids, f=f + 0.3 * np.sin(3 * s_col), T=T)


def random_family_params(kind, n, rng):
    M = rng.standard_normal((n, n))
    return {"translation": dict(a=rng.standard_normal(n), alpha=0.7),
            "dilation": dict(delta=1.3),
            "su": dict(A=M + M.T),
            "o2n_rot": dict(A=M - M.T),
            "o2n_boost": dict(A=M - M.T)}[kind]


ORACLE_GRIDS = {3: (41, 80), 4: (17, 17, 32)}


class TestFusedSphereOperators:
    """linearized_apply against the per-operator route it replaced."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_non_kernel_field_matches(self, n):
        fld = smooth_field(n, ORACLE_GRIDS[n], np.random.default_rng(n))
        out = linearized_apply(fld)
        F, T, valid = per_operator_linearized_apply(fld)
        assert np.array_equal(out.valid, valid) and valid.any()
        for got, want in ((out.f, F), (out.T, T)):
            scale = np.abs(want[valid]).max()
            assert scale > 0.1
            assert np.abs(got - want)[valid].max() <= 1e-12 * scale

    @pytest.mark.parametrize("n, counts", [(3, ORACLE_GRIDS[3]), (3, (201, 400)),
                                           (4, ORACLE_GRIDS[4])])
    def test_closed_form_kappa_is_the_fd_connection(self, n, counts):
        # kappa_k against sum_j (P D_j e_j) . e_k from central differences of
        # the frame, on the nodes whose polar stencils stay in the grid
        grids = default_angle_grids(n, counts, margin=0.6)
        ops, fd = SphereGridOps(grids), PerOperatorOps(grids)
        inner = fd.interior_valid(1)
        for k in range(n - 1):
            want = sum(np.sum(conn * fd.frame[..., :, k], axis=-1) for conn in fd.conn)
            assert np.abs(ops.kappa[k] - want)[inner].max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["translation", "dilation", "su", "o2n_rot", "o2n_boost"])
    def test_jacobi_residuals_match(self, n, kind):
        rng = np.random.default_rng(7)
        s = math.pi / (2 * n) + 2e-3 * np.arange(-2, 3)
        grids = default_angle_grids(n, ORACLE_GRIDS[n], margin=0.6)
        fld = jacobi_field(kind, n, s, grids, **random_family_params(kind, n, rng))
        out = linearized_apply(fld)
        F, T, valid = per_operator_linearized_apply(fld)
        assert np.array_equal(out.valid, valid) and valid.any()

        def sup(f, t):
            return float((np.abs(f) + np.linalg.norm(t, axis=-1))[valid].max())

        want = sup(F, T)
        assert want > 0
        assert abs(sup(out.f, out.T) - want) <= 1e-9 * want


def oracle_case(n, rows, kind):
    """A field on rows s-rows: a seeded Jacobi family or smooth_field."""
    if kind == "smooth":
        fld = smooth_field(n, ORACLE_GRIDS[n], np.random.default_rng(n))
        cut = slice((7 - rows) // 2, (7 + rows) // 2)
        return NormalField(n=n, s=fld.s[cut], angle_grids=fld.angle_grids,
                           f=fld.f[cut], T=fld.T[cut])
    s = math.pi / (2 * n) + 2e-3 * (np.arange(rows) - rows // 2)
    grids = default_angle_grids(n, ORACLE_GRIDS[n], margin=0.6)
    return jacobi_field(kind, n, s, grids,
                        **random_family_params(kind, n, np.random.default_rng(7)))


class TestComputedRows:
    """linearized_apply computes only the s-rows 2 .. Ns-3 its valid mask keeps."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("rows", [5, 7])
    @pytest.mark.parametrize("kind", ["translation", "dilation", "su", "o2n_rot",
                                      "o2n_boost", "smooth"])
    def test_bit_identical_to_full_grid(self, n, rows, kind):
        fld = oracle_case(n, rows, kind)
        out = linearized_apply(fld)
        want = full_grid_linearized_apply(fld)
        assert np.array_equal(out.valid, want.valid) and out.valid.any()
        for got, ref in ((out.f, want.f), (out.T, want.T)):
            mask = out.valid if got.ndim == out.valid.ndim else out.valid[..., None]
            mask = np.broadcast_to(mask, got.shape)
            assert np.array_equal(got[mask].view(np.uint64), ref[mask].view(np.uint64))
            outside = np.ones(got.shape[0], dtype=bool)
            outside[2:-2] = False
            assert not np.any(got[outside])

    @pytest.mark.parametrize("rows", [5, 7])
    def test_sphere_terms_see_only_kept_rows(self, rows, monkeypatch):
        seen = []
        sphere_terms = SphereGridOps.sphere_terms

        def spy(self, f, T):
            seen.append((f.shape[0], T.shape[0]))
            return sphere_terms(self, f, T)

        monkeypatch.setattr(SphereGridOps, "sphere_terms", spy)
        linearized_apply(oracle_case(3, rows, "su"))
        assert seen == [(rows - 4, rows - 4)]


@pytest.mark.parametrize("seed", range(3))
def test_benchmark_jacobi_gate(workloads, seed, tmp_path):
    """The neck_modes Jacobi check of the benchmark, bound for bound: each
    family's residual against the seeded combination of the basis
    residuals, capped at seed 0 by the measured seed-0 residual."""
    ref = json.loads((BENCH / "reference.json").read_text())["jacobi_modes"]
    inputs = workloads.make_inputs("neck_modes", seed, str(tmp_path), str(tmp_path))
    families = workloads.jacobi_coefficients(inputs)
    s, grids, keep = workloads.jacobi_grids(neck)
    for kind in workloads.FAMILIES:
        params, coef = families[kind]
        resid = workloads.jacobi_residual(neck, kind, s, grids, keep, **params)
        bound = float(np.abs(coef) @ np.asarray(ref["basis_residual"][kind]))
        if seed == 0:
            bound = min(bound, ref["seed0_residual"][kind])
        assert resid <= bound * (1 + workloads.JACOBI_SLACK), kind


class TestNeckMinimality:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fd_minimality_order_two(self, n):
        params = unit_scale_params(n)
        sups = []
        for level in range(2):
            factor = 2**level
            counts = (8 * factor + 1,) * (n - 2) + (16 * factor,)
            grids = default_angle_grids(n, counts, margin=0.5)
            t_grid = np.linspace(-1.0, 1.0, 16 * factor + 1)
            patch = neck_patch(params, angle_grids=grids, t_grid=t_grid)
            H, valid = mean_curvature_field(patch)
            sups.append(float(np.linalg.norm(H, axis=-1)[valid].max()))
        assert abs(math.log2(sups[0] / sups[1]) - 2.0) < 0.3

    def test_twisted_neck_is_still_minimal(self):
        # the y-part rotation acts by an ambient isometry, so the FD floor
        # matches the untwisted model
        grids = default_angle_grids(3, (17, 32), margin=0.5)
        t_grid = np.linspace(-1.0, 1.0, 33)
        sups = []
        for R in (None, rot_e1(math.pi / 2)):
            params = NeckParams(n=3, beta=1.0, epsilon=1.0 / 3.0, rotation=R)
            patch = neck_patch(params, angle_grids=grids, t_grid=t_grid)
            H, valid = mean_curvature_field(patch)
            sups.append(float(np.linalg.norm(H, axis=-1)[valid].max()))
        assert abs(sups[0] - sups[1]) < 1e-12
