import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue import geometry, neck
from neckglue.geometry import (
    ImmersionPatch,
    central_difference,
    check_orthogonal,
    mean_curvature_field,
    sphere_chart,
)
from neckglue.neck import NeckParams, default_angle_grids, neck_patch

from conftest import rot_e1
from oracles import chart_jacobian

DEFAULT_BLOCK_BYTES = geometry._BLOCK_BYTES


def field_in_blocks(monkeypatch, patch, rows):
    """mean_curvature_field on axis-0 blocks of `rows` rows (None: the
    default block size), set through geometry._BLOCK_BYTES."""
    block = DEFAULT_BLOCK_BYTES if rows is None else rows * patch.samples[0].nbytes
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", block)
    return mean_curvature_field(patch)


def sphere_patch(theta1, theta2):
    """Unit S^2 embedded in the x-part of R^6 (y = 0)."""
    mesh = np.stack(np.meshgrid(theta1, theta2, indexing="ij"), axis=-1)
    nodes = sphere_chart(mesh)
    samples = np.concatenate([nodes, np.zeros_like(nodes)], axis=-1)
    return ImmersionPatch(
        spacings=(theta1[1] - theta1[0], theta2[1] - theta2[0]),
        samples=samples,
        periodic=(False, True),
    )


def fd_metric(patch, node):
    """g = J.J at one node, J from central_difference on its 3^m block."""
    block = patch.samples
    for ax, k in enumerate(node):
        block = np.take(block, [k - 1, k, k + 1], axis=ax, mode="wrap")
    centre = (1,) * patch.m
    J = np.stack([central_difference(block, a, h)[centre]
                  for a, h in enumerate(patch.spacings)], axis=-1)
    return J.T @ J


def plane_patch(h=0.1, count=9):
    u = np.arange(count) * h
    mesh = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
    samples = np.zeros(mesh.shape[:-1] + (4,))
    samples[..., :2] = mesh
    return ImmersionPatch(spacings=(h, h), samples=samples)


class TestSphereChart:
    def test_equator_point_n3(self):
        theta = sphere_chart(np.array([math.pi / 2, 0.0]))
        assert_allclose(theta, [1.0, 0.0, 0.0], atol=1e-15)
        assert abs(np.linalg.norm(theta) - 1.0) < 1e-14

    def test_circle_n2(self):
        theta = sphere_chart(np.array([0.0]))
        assert_allclose(theta, [1.0, 0.0], atol=1e-15)

    @staticmethod
    def assert_frame(grids):
        """SphereGridOps' frame is orthonormal and tangent, and frame * norms is
        the chart's exact central difference."""
        ops = neck.SphereGridOps(grids)
        frame, m = ops.frame, len(grids)
        gram = np.einsum("...ij,...ik->...jk", frame, frame)
        assert np.max(np.abs(gram - np.eye(m))) < 1e-14
        assert np.max(np.abs(np.einsum("...ij,...i->...j", frame, ops.theta))) < 1e-15
        assert np.max(np.abs(np.sum(ops.theta**2, axis=-1) - 1.0)) < 1e-14
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
        jac = chart_jacobian(mesh)
        assert_allclose(frame * ops.norms[..., None, :], jac, rtol=0, atol=1e-14)
        assert_allclose(ops.norms, np.linalg.norm(jac, axis=-2), rtol=1e-14, atol=0)

    def test_random_n4_derivatives_orthogonal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            start = rng.uniform(0.1, 1.0, 2)
            polar = [np.linspace(a, math.pi - b, c) for a, b, c in
                     zip(start, rng.uniform(0.1, 1.0, 2), rng.integers(3, 9, 2))]
            count = int(rng.integers(3, 9))
            azimuth = rng.uniform(0.0, 2 * math.pi) + 2 * math.pi * np.arange(count) / count
            self.assert_frame(polar + [azimuth])

    def test_pole_sweep_orthogonality(self):
        # ~10^3 non-pole nodes, polar angles from 0.05 to pi - 0.05
        self.assert_frame(default_angle_grids(3, (41, 25), margin=0.05))

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            sphere_chart(np.empty(0))


class TestCheckOrthogonal:
    def test_identity(self):
        assert check_orthogonal(np.eye(4)) == 0.0

    def test_rotation(self):
        assert check_orthogonal(rot_e1(math.pi / 2)) < 1e-15

    def test_scaled_identity(self):
        # (1.01)^2 - 1 = 0.0201
        assert abs(check_orthogonal(1.01 * np.eye(3)) - 0.0201) < 1e-12

    def test_not_square(self):
        with pytest.raises(ValueError):
            check_orthogonal(np.ones((2, 3)))


class TestFirstFundamentalForm:
    def test_flat_plane_identity(self):
        patch = plane_patch()
        g = fd_metric(patch, (4, 4))
        assert_allclose(g, np.eye(2), atol=1e-13)

    def test_round_sphere_metric(self):
        theta1 = np.linspace(0.4, math.pi - 0.4, 81)
        theta2 = 2 * math.pi * np.arange(160) / 160
        patch = sphere_patch(theta1, theta2)
        h = theta1[1] - theta1[0]
        for i in (15, 40, 70):
            g = fd_metric(patch, (i, 10))
            expect = np.diag([1.0, math.sin(theta1[i]) ** 2])
            assert np.max(np.abs(g - expect)) < 5 * h**2

    def test_masked_stencil_invalid(self):
        patch = plane_patch()
        patch.mask[4, 5] = False
        H, valid = mean_curvature_field(patch)
        assert not valid[4, 4]
        assert np.all(H[4, 4] == 0.0)

    def test_degenerate_jacobian_invalid(self):
        u = np.arange(9) * 0.1
        mesh = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
        samples = np.zeros(mesh.shape[:-1] + (4,))
        samples[..., 0] = mesh[..., 0]  # second direction collapses
        patch = ImmersionPatch(spacings=(0.1, 0.1), samples=samples)
        g = fd_metric(patch, (4, 4))
        assert np.linalg.matrix_rank(g, tol=1e-10) < 2
        H, valid = mean_curvature_field(patch)
        assert not valid[4, 4]
        assert np.all(H[4, 4] == 0.0)

    def test_neck_t_chart_metric_is_conformal(self):
        # The t-chart metric comes out (cosh nt)^{2/n} (dt^2 + round sphere),
        # i.e. conformal; the alternative reading with an extra inner factor
        # (cosh nt)^{2/n} on the angular part is measurably different and is
        # reported as refuted here, not silently patched.
        n = 3
        params = NeckParams(n=n, beta=1.0, epsilon=1.0 / n)  # scale = 1
        t_grid = np.linspace(-1.0, 1.0, 201)
        grids = default_angle_grids(3, (101, 200), margin=0.5)
        patch = neck_patch(params, angle_grids=grids, t_grid=t_grid)
        for node in [(40, 30, 10), (100, 50, 80), (160, 70, 150)]:
            g = fd_metric(patch, node)
            t = t_grid[node[0]]
            conf = math.cosh(n * t) ** (2.0 / n)
            theta1 = grids[0][node[1]]
            assert abs(g[0, 0] - conf) < 5e-3 * conf
            assert abs(g[1, 1] - conf) < 5e-3 * conf              # |Theta_1| = 1
            assert abs(g[2, 2] - conf * math.sin(theta1) ** 2) < 5e-3 * conf
            off = g - np.diag(np.diag(g))
            assert np.max(np.abs(off)) < 5e-3 * conf
            # the extra-factor reading predicts conf^2 on the angular part
            if abs(conf - 1.0) > 0.05:
                assert abs(g[1, 1] - conf**2) > 0.04 * conf


class TestMeanCurvature:
    def test_flat_plane_zero(self):
        patch = plane_patch()
        H, valid = mean_curvature_field(patch)
        assert valid[4, 4]
        assert np.max(np.abs(H[4, 4])) < 1e-13

    def test_unit_sphere_value(self):
        theta1 = np.linspace(0.4, math.pi - 0.4, 61)
        theta2 = 2 * math.pi * np.arange(120) / 120
        patch = sphere_patch(theta1, theta2)
        H, valid = mean_curvature_field(patch)
        nodes = sphere_chart(
            np.stack(np.meshgrid(theta1, theta2, indexing="ij"), axis=-1)
        )
        # Lap_S x = -2x on the unit two-sphere
        target = np.concatenate([-2.0 * nodes, np.zeros_like(nodes)], axis=-1)
        err = np.linalg.norm((H - target), axis=-1)[valid]
        h = theta1[1] - theta1[0]
        assert err.max() < 5 * h**2

    def test_sphere_refinement_order_two(self):
        sups = []
        for count in (31, 61, 121):
            theta1 = np.linspace(0.4, math.pi - 0.4, count)
            theta2 = 2 * math.pi * np.arange(2 * (count - 1)) / (2 * (count - 1))
            patch = sphere_patch(theta1, theta2)
            H, valid = mean_curvature_field(patch)
            sups.append(np.abs(np.linalg.norm(H, axis=-1) - 2.0)[valid].max())
        ratio1 = sups[0] / sups[1]
        ratio2 = sups[1] / sups[2]
        assert 4.0 * 0.85 < ratio1 < 4.0 * 1.15
        assert 4.0 * 0.85 < ratio2 < 4.0 * 1.15

    def test_normality_is_exact(self):
        # normal projection makes H orthogonal to the FD tangents by
        # construction; verify well below the h^2 bound of the contract
        params = NeckParams(n=3, beta=1.0, epsilon=1.0)
        grids = default_angle_grids(3, (17, 32), margin=0.5)
        patch = neck_patch(params, angle_grids=grids, t_grid=np.linspace(-1, 1, 21))
        Hfield, valid = mean_curvature_field(patch)
        rng = np.random.default_rng(5)
        for _ in range(20):
            node = (rng.integers(1, 20), rng.integers(1, 16), rng.integers(0, 32))
            if not valid[node]:
                continue
            H = Hfield[node]
            block = patch.samples
            for ax, k in enumerate(node):
                block = np.take(block, [k - 1, k, k + 1], axis=ax, mode="wrap")
            scale = np.max(np.abs(H)) + 1.0
            for ax in range(3):
                fwd = block[(1,) * ax + (2,) + (1,) * (2 - ax)]
                bwd = block[(1,) * ax + (0,) + (1,) * (2 - ax)]
                tangent = (fwd - bwd) / (2 * patch.spacings[ax])
                assert abs(H @ tangent) < 1e-10 * scale * np.linalg.norm(tangent)

    def test_masked_node_invalid(self):
        patch = plane_patch()
        patch.mask[3, 3] = False
        H, valid = mean_curvature_field(patch)
        assert not valid[4, 4]
        assert np.all(H[4, 4] == 0.0)

    def test_degenerate_metric_marked_invalid(self):
        # rank-deficient immersion: no crash, nodes flagged invalid
        u = np.arange(9) * 0.1
        mesh = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1)
        samples = np.zeros(mesh.shape[:-1] + (4,))
        samples[..., 0] = mesh[..., 0]
        patch = ImmersionPatch(spacings=(0.1, 0.1), samples=samples)
        H, valid = mean_curvature_field(patch)
        assert not valid.any()
        assert np.isfinite(H).all()
        assert np.all(H[4, 4] == 0.0)


# ----------------------------------------------------------------------
# The np.roll engine this module used before the slice-based one: kept here
# only as the oracle the slice engine must reproduce.
# ----------------------------------------------------------------------

def _roll_shift(a, axis, k):
    return np.roll(a, -k, axis=axis)


def _roll_stencil_valid(mask, periodic):
    valid = mask.copy()
    m = mask.ndim
    for off in np.ndindex(*(3,) * m):
        shifted = mask
        for ax, o in enumerate(off):
            if o != 1:
                shifted = np.roll(shifted, 1 - o, axis=ax)
        valid &= shifted
    for ax in range(m):
        if not periodic[ax]:
            edges = np.moveaxis(valid, ax, 0)
            edges[0] = edges[-1] = False
    return valid


def _roll_second(samples, spacings, a, b):
    s = _roll_shift
    if a == b:
        return (s(samples, a, 1) - 2 * samples + s(samples, a, -1)) / spacings[a] ** 2
    pp = s(s(samples, a, 1), b, 1)
    pm = s(s(samples, a, 1), b, -1)
    mp = s(s(samples, a, -1), b, 1)
    mm = s(s(samples, a, -1), b, -1)
    return (pp - pm - mp + mm) / (4 * spacings[a] * spacings[b])


def _roll_block(samples, spacings):
    m = samples.ndim - 1
    J = np.stack([(_roll_shift(samples, a, 1) - _roll_shift(samples, a, -1)) / (2 * spacings[a])
                  for a in range(m)], axis=-1)
    g = np.einsum("...ca,...cb->...ab", J, J)
    det = np.linalg.det(g)
    ok = np.isfinite(det) & (det > 0)
    ginv = np.linalg.inv(np.where(ok[..., None, None], g, np.eye(m)))
    W = np.zeros_like(samples)
    for a in range(m):
        for b in range(m):
            W += ginv[..., a, b][..., None] * _roll_second(samples, spacings, a, b)
    coeffs = np.einsum("...ab,...b->...a", ginv, np.einsum("...ca,...c->...a", J, W))
    return W - np.einsum("...ca,...a->...c", J, coeffs), ok


def roll_mean_curvature_field(patch):
    valid = _roll_stencil_valid(patch.mask, patch.periodic)
    H, ok = _roll_block(patch.samples, patch.spacings)
    valid &= ok
    H[~valid] = 0.0
    return H, valid


def roll_central_difference(a, axis, h, order=1):
    assert order == 1
    return (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2 * h)


def holed_neck_patch(n, t_nodes=15):
    """Twisted n-neck over t x angles, bent so that its metric has off-diagonal
    entries: periodic azimuth, a masked hole."""
    rng = np.random.default_rng(n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    params = NeckParams(n=n, beta=1.3, epsilon=0.2, rotation=q * np.sign(np.diag(r)))
    counts = (9,) * (n - 2) + (12,)
    grids = default_angle_grids(n, counts, margin=0.5)
    t_grid = np.linspace(-0.9, 0.9, t_nodes)
    patch = neck_patch(params, angle_grids=grids, t_grid=t_grid)
    phase = sum(np.meshgrid(t_grid, *grids, indexing="ij"))
    for k in range(2 * n):
        patch.samples[..., k] += 0.2 * np.sin(phase + k)
    hole = (slice(6, 8),) + (slice(3, 5),) * (n - 1)
    patch.mask[hole] = False
    return patch


class TestSliceEngineAgreement:
    """The slice engine against the np.roll oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_field_matches_roll_oracle(self, n, monkeypatch):
        patch = holed_neck_patch(n)
        assert patch.periodic[-1] and not patch.periodic[0]
        H_old, valid_old = roll_mean_curvature_field(patch)
        # 15 rows along the non-periodic axis 0: several blocks of 4
        H, valid = field_in_blocks(monkeypatch, patch, 4)
        assert np.array_equal(valid, valid_old)
        assert not valid[6:8].all() and valid.any()
        sup = np.linalg.norm(H_old, axis=-1)[valid_old].max()
        assert np.abs(H - H_old).max() <= 1e-12 * sup

    @pytest.mark.parametrize("kind,kw", [
        ("translation", dict(a=np.array([0.2, -0.5, 1.0]), alpha=0.9)),
        ("dilation", dict(delta=1.3)),
        ("su", dict(A=np.array([[1.0, 0.3, -0.2], [0.3, -0.4, 0.5], [-0.2, 0.5, 0.7]]))),
        ("o2n_rot", dict(A=np.array([[0.0, 0.4, -1.0], [-0.4, 0.0, 0.2], [1.0, -0.2, 0.0]]))),
        ("o2n_boost", dict(A=np.array([[0.0, -0.6, 0.1], [0.6, 0.0, 0.8], [-0.1, -0.8, 0.0]]))),
    ])
    def test_linearized_apply_matches_roll_oracle(self, kind, kw, monkeypatch):
        grids = default_angle_grids(3, (21, 40), margin=0.6)
        s = 0.5 + 4e-3 * np.arange(-3, 4)
        fld = neck.jacobi_field(kind, 3, s, grids, **kw)
        new = neck.linearized_apply(fld)
        monkeypatch.setattr(neck, "central_difference", roll_central_difference)
        old = neck.linearized_apply(fld)
        assert np.array_equal(new.valid, old.valid)
        for got, want in ((new.f, old.f), (new.T, old.T)):
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-15 * scale


def bits(a):
    return a.view(np.uint64)


def curve_patch(nodes=50):
    """A closed curve in R^4 (m = 1, periodic axis 0)."""
    u = np.linspace(0.0, 2 * np.pi, nodes, endpoint=False)
    samples = np.stack([np.cos(u), np.sin(u), 0.3 * np.cos(2 * u), 0.1 * np.sin(3 * u)], axis=-1)
    return ImmersionPatch(spacings=(u[1] - u[0],), samples=samples, periodic=(True,))


def periodic_axis0_patch():
    """holed_neck_patch(3) with its periodic azimuth moved to axis 0."""
    patch = holed_neck_patch(3)
    order = (2, 0, 1)
    return ImmersionPatch(spacings=[patch.spacings[i] for i in order],
                          samples=np.moveaxis(patch.samples, 2, 0),
                          mask=np.moveaxis(patch.mask, 2, 0),
                          periodic=[patch.periodic[i] for i in order])


class TestChunking:
    """mean_curvature_field's row blocks along axis 0."""

    @staticmethod
    def assert_chunk_invariant(monkeypatch, patch):
        # every block height gives the bits of one whole-axis block
        n0 = patch.param_dims[0]
        H_ref, valid_ref = field_in_blocks(monkeypatch, patch, n0)
        assert valid_ref.any()
        for rows in (1, 3, 16, n0, None):
            H, valid = field_in_blocks(monkeypatch, patch, rows)
            assert np.array_equal(valid, valid_ref), rows
            assert np.array_equal(bits(H), bits(H_ref)), rows

    def test_chunk_leaves_field_unchanged(self, monkeypatch):
        self.assert_chunk_invariant(monkeypatch, holed_neck_patch(4, t_nodes=20))

    def test_chunk_leaves_periodic_axis0_unchanged(self, monkeypatch):
        self.assert_chunk_invariant(monkeypatch, periodic_axis0_patch())

    def test_chunk_leaves_curve_unchanged(self, monkeypatch):
        self.assert_chunk_invariant(monkeypatch, curve_patch())

    def test_periodic_axis0_matches_roll_oracle(self, monkeypatch):
        patch = periodic_axis0_patch()
        assert patch.periodic[0]
        H_old, valid_old = roll_mean_curvature_field(patch)
        H, valid = field_in_blocks(monkeypatch, patch, 4)
        assert np.array_equal(valid, valid_old)
        assert valid[0].any() and valid[-1].any()
        sup = np.linalg.norm(H_old, axis=-1)[valid_old].max()
        assert np.abs(H - H_old).max() <= 1e-12 * sup

    def test_curve_is_its_curvature_vector(self, monkeypatch):
        # a unit circle in the (x1, x2) plane: H = -X to O(h^2)
        u = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
        samples = np.stack([np.cos(u), np.sin(u), 0 * u, 0 * u], axis=-1)
        patch = ImmersionPatch(spacings=(u[1] - u[0],), samples=samples, periodic=(True,))
        H, valid = field_in_blocks(monkeypatch, patch, 7)
        assert valid.all()
        assert_allclose(H, -samples, atol=1e-3)

    def test_chunk_bounds_working_set(self, monkeypatch):
        patch = holed_neck_patch(4, t_nodes=40)
        n0 = patch.param_dims[0]
        peaks = {}
        for rows in (2, n0, None):
            tracemalloc.start()
            field_in_blocks(monkeypatch, patch, rows)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[2] < peaks[n0]
        # the output H plus at most 16 blocks' worth of samples (about 11
        # are live at once: the block with its two neighbour rows, J_0..J_3,
        # W, a difference temporary and the metric entries)
        assert patch.samples.nbytes >= 2 * DEFAULT_BLOCK_BYTES  # several default blocks
        assert peaks[None] <= patch.samples.nbytes + 16 * DEFAULT_BLOCK_BYTES


def test_degenerate_metric_row_stays_finite(monkeypatch):
    # X(u, v, w) = (u, c(u) v, w) with c = 0 on the row u = u[5]: the v-axis
    # collapses there, so g is singular with a zero middle LDL^T pivot.
    u = 0.1 * np.arange(11)
    mesh = np.stack(np.meshgrid(u, u, u, indexing="ij"), axis=-1)
    c = np.cos(mesh[..., 0]) * (mesh[..., 0] - u[5]) / 0.1
    samples = np.zeros(mesh.shape[:-1] + (6,))
    samples[..., 0] = mesh[..., 0]
    samples[..., 1] = c * mesh[..., 1]
    samples[..., 2] = mesh[..., 2]
    samples[..., 3] = 0.3 * mesh[..., 0] ** 2
    patch = ImmersionPatch(spacings=(0.1,) * 3, samples=samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H, valid = field_in_blocks(monkeypatch, patch, 3)
    assert np.isfinite(H).all()
    assert not valid[5].any()
    assert np.all(H[5] == 0.0)
    assert valid[3, 1:-1, 1:-1].all()
