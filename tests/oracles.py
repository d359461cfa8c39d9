"""Reference code that only the tests call.

Each function here is an independent route to a quantity the package
computes or checks another way: a closed-form oracle, a pointwise
evaluator, or a measurement no command gates yet.  The package under src/
never imports this module; tests import it like conftest, as
`from oracles import ...`.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from neckglue.assembler import GluedSurface
from neckglue.geometry import _stencil_valid, central_difference, sphere_chart
from neckglue.matching import SphereGrid
from neckglue.neck import NeckParams, NormalField, SphereGridOps
from neckglue.quadrature import omega_n
from neckglue.spectrum import ModeSolution, mode_system_matrix

# DOP853 tolerance and step cap of dop853_mode_solve
RK_TOLERANCE = 1e-10
RK_MAX_STEP = 1e-2


def symmetric_pair_gamma(R1: np.ndarray, R2: np.ndarray, n: int,
                         axis_tol: float = 1e-10) -> float:
    """Eigenstructure oracle for gamma_12 of the symmetric two-point family
    x_1 = -x_2 = e with R_1 e = R_2 e = e and |x_1 - x_2| = 2:

        gamma_12 = -(omega_n / 2^n) ( (2/n) dim E_-  +  (2/n) sum_i (1 - cos theta_i) ),

    where E_- is the -1 eigenspace of R_2^{-1} R_1 and theta_i in (0, pi) are
    its rotation angles.  Requires a common fixed unit vector (checked).
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    Q = R2.T @ R1
    # a common fixed vector exists iff Q has eigenvalue 1 with R1 e = e
    w, V = np.linalg.eig(Q)
    fixed = np.where(np.abs(w - 1.0) < 1e-8)[0]
    ok = False
    for idx in fixed:
        e = np.real(V[:, idx])
        nrm = np.linalg.norm(e)
        if nrm < 1e-12:
            continue
        e = e / nrm
        if np.linalg.norm(R1 @ e - e) < axis_tol and np.linalg.norm(R2 @ e - e) < axis_tol:
            ok = True
            break
    if not ok:
        raise ValueError("rotations do not fix a common unit vector")

    dim_minus = int(np.sum(np.abs(w + 1.0) < 1e-10))
    # complex pairs e^{+-i theta}: keep the positive-imaginary representative
    angles = [float(np.arccos(np.clip(np.real(lam), -1.0, 1.0)))
              for lam in w if np.imag(lam) > 1e-10]
    bracket = (2.0 / n) * dim_minus + (2.0 / n) * sum(1.0 - np.cos(t) for t in angles)
    return -omega_n(n) / 2**n * bracket


def neck_point(params: NeckParams, s: float, angles) -> np.ndarray:
    """One sample of the (scaled, twisted, translated) neck, the (2n,) point
    (x, y)."""
    if not 0.0 < s < math.pi / params.n:
        raise ValueError("s must lie strictly inside (0, pi/n)")
    return params.evaluate(s, sphere_chart(np.asarray(angles, dtype=float)))


def chart_jacobian(angles, h: float = 0.5) -> np.ndarray:
    """(..., n, n-1) coordinate derivatives dTheta/dtheta_k of sphere_chart
    from its central difference: along theta_k the chart traces a circle, so
    (Theta(theta + h e_k) - Theta(theta - h e_k)) / (2 sin h) is exact up to
    rounding (to ~5e-16 at h = 0.5, m = 1 .. 4)."""
    angles = np.asarray(angles, dtype=float)
    steps = h * np.eye(angles.shape[-1])
    return np.stack([(sphere_chart(angles + e) - sphere_chart(angles - e)) / (2 * math.sin(h))
                     for e in steps], axis=-1)


def full_grid_linearized_apply(field: NormalField) -> NormalField:
    """linearized_apply evaluated on every s-row: the sphere, Sturm and
    zero-order terms run on all Ns rows, and the two rows at either end hold
    wrapped values that only the valid mask discards."""
    n = field.n
    ops = SphereGridOps(field.angle_grids)
    s = field.s
    if s.size < 5:
        raise ValueError("s grid too coarse for nested second differences")
    hs = float(s[1] - s[0])
    if not np.allclose(np.diff(s), hs, rtol=0, atol=1e-12):
        raise ValueError("s grid must be uniform")
    s_col = s.reshape((s.size,) + (1,) * ops.m)
    sin_ns = np.sin(n * s_col)
    cos_ns = np.cos(n * s_col)

    def sturm(arr, sin_col):
        inner = sin_col ** (2.0 / n) * central_difference(arr, 0, hs)
        return sin_col ** (2.0 - 2.0 / n) * central_difference(inner, 0, hs)

    lap_f, div_T, grad_f, lap_T = ops.sphere_terms(field.f, field.T)
    F = (
        sturm(field.f, sin_ns)
        + lap_f
        - (n - 1) * field.f
        + (n * n - 1) * sin_ns**2 * field.f
        - 2.0 * cos_ns * div_T
    )
    TT = (
        sturm(field.T, sin_ns[..., None])
        + lap_T
        - field.T
        + 3.0 * sin_ns[..., None] ** 2 * field.T
        + 2.0 * cos_ns[..., None] * grad_f
    )
    periodic = (False,) * ops.m + (True,)
    valid = _stencil_valid(np.ones(field.f.shape, dtype=bool), periodic)
    valid = _stencil_valid(valid, periodic) & field.valid
    return NormalField(n=n, s=s, angle_grids=field.angle_grids, f=F, T=TT, valid=valid)


def sh_synthesize(coeffs: np.ndarray, grid: SphereGrid, points) -> np.ndarray:
    """Evaluate the map with coefficients (n, dim) in grid's basis at unit
    vectors points (..., n)."""
    return grid.basis_at(points) @ coeffs.T


def harmonic_extension(coeffs: np.ndarray, grid: SphereGrid, side: str, points) -> np.ndarray:
    """Evaluate the harmonic extension of the map with coefficients (n, dim)
    in grid's basis at points x (..., n) of R^n.

    side "interior" uses |x|^k (|x| <= 1); "exterior" uses |x|^{2-n-k}
    (|x| >= 1), the unique extension decaying at infinity.
    """
    points = np.asarray(points, dtype=float)
    r = np.linalg.norm(points, axis=-1, keepdims=True)
    if side == "interior":
        if np.any(r > 1.0 + 1e-12):
            raise ValueError("interior extension needs |x| <= 1")
        radial = r ** grid.degrees
    elif side == "exterior":
        if np.any(r < 1.0 - 1e-12):
            raise ValueError("exterior extension needs |x| >= 1")
        radial = r ** (2.0 - grid.n - grid.degrees)
    else:
        raise ValueError("side must be 'interior' or 'exterior'")
    # at the origin only the constant survives r^k; any direction serves
    direction = points / np.where(r > 0.0, r, 1.0)
    return (radial * grid.basis_at(direction)) @ coeffs.T


def hausdorff_to_planes(surface: GluedSurface, exclusion: float) -> float:
    """Sampled one-sided Hausdorff distance from the surface (outside balls
    around the marked points) to the union of the k+1 limit planes."""
    cfg = surface.config
    n = cfg.n
    pts = np.concatenate([p.samples[p.mask] for p in [surface.outer, *surface.necks]])
    x_part = pts[..., :n]
    keep = np.ones(len(pts), dtype=bool)
    for j in range(cfg.k):
        keep &= np.linalg.norm(x_part - cfg.points[j], axis=-1) > exclusion
    pts = pts[keep]

    # plane Pi_0 = {y = 0}; plane Pi_j spanned by (cos(pi/n) u, sin(pi/n) R_j u)
    dists = [np.linalg.norm(pts[:, n:], axis=1)]
    c, s = math.cos(math.pi / n), math.sin(math.pi / n)
    for j in range(cfg.k):
        base = np.concatenate([cfg.points[j], np.zeros(n)])
        rel = pts - base
        # orthonormal basis of the plane: rows (c e_i, s R_j e_i)
        B = np.concatenate([c * np.eye(n), s * cfg.rotations[j].T], axis=1)  # (n, 2n)
        proj = rel @ B.T  # coordinates in the plane basis (orthonormal rows)
        dists.append(np.linalg.norm(rel - proj @ B, axis=1))
    return float(np.max(np.min(np.stack(dists), axis=0)))


def point_rows(patches) -> np.ndarray:
    """(patch_id, params..., coords...) of every valid node, patch after
    patch: the rows the exporters write, gathered from each patch's whole
    parameter mesh into one table."""
    rows = []
    for pid, patch in enumerate(patches):
        axes = [np.arange(d) * h for d, h in zip(patch.param_dims, patch.spacings)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        coords = patch.samples[patch.mask]
        rows.append(np.column_stack([np.full(len(coords), pid), mesh[patch.mask], coords]))
    return np.concatenate(rows)


def dop853_mode_solve(n, k, initial, t_span, num=801, family="exact",
                      frozen=False) -> ModeSolution:
    """The per-mode system z'' = M z by adaptive RK (DOP853, tol RK_TOLERANCE,
    step at most RK_MAX_STEP), sampled at num points of t_span.  M is
    mode_system_matrix, rebuilt on every right-hand side: at t itself (the
    interior system), or with frozen at t = -inf, the system that
    spectrum.integrate_mode_system solves in closed form."""
    initial = np.asarray(initial, dtype=float)
    d = 1 if (family == "coexact" or k == 0) else 2

    def rhs(t, z):
        M = mode_system_matrix(n, k, -math.inf if frozen else t, family=family)
        return np.concatenate([z[d:], M @ z[:d]])

    sol = solve_ivp(rhs, t_span, initial, method="DOP853",
                    t_eval=np.linspace(t_span[0], t_span[1], num),
                    rtol=RK_TOLERANCE, atol=RK_TOLERANCE, max_step=RK_MAX_STEP)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    return ModeSolution(n=n, k=k, t=sol.t, a=sol.y[0], b=None if d == 1 else sol.y[1])
